//! Integration: a full `live_patch` run emits the documented span tree.
//!
//! The acceptance bar: ≥ 10 nested spans covering SGX preparation, the
//! SMM window (entry/exit), decrypt, verify, and trampoline
//! installation, with parentage linking each stage to its parent and
//! the phase profile read from the stage spans.

use std::collections::HashMap;
use std::sync::Mutex;

use kshot::bench_setup::{boot_benchmark_kernel, install_kshot};
use kshot::telemetry::{self, Record, SpanRecord, Value};
use kshot_cve::{find, patch_for};

// The telemetry recorder is process-global; tests in this binary take
// this lock so the parallel test runner cannot interleave install().
static GLOBAL: Mutex<()> = Mutex::new(());

fn spans_by_name(records: &[Record]) -> HashMap<&'static str, Vec<SpanRecord>> {
    let mut map: HashMap<&'static str, Vec<SpanRecord>> = HashMap::new();
    for r in records {
        if let Record::Span(s) = r {
            map.entry(s.name).or_default().push(s.clone());
        }
    }
    map
}

fn one<'m>(map: &'m HashMap<&'static str, Vec<SpanRecord>>, name: &str) -> &'m SpanRecord {
    let v = map
        .get(name)
        .unwrap_or_else(|| panic!("span {name} missing"));
    assert_eq!(v.len(), 1, "expected exactly one {name} span");
    &v[0]
}

#[test]
fn live_patch_emits_expected_span_tree() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = find("CVE-2017-17806").expect("benchmark CVE");
    let (kernel, server) = boot_benchmark_kernel(spec.version);
    let mut system = install_kshot(kernel, 99);

    let recorder = telemetry::Recorder::with_capacity(4096);
    telemetry::install(recorder.clone());
    let report = system
        .live_patch(&server, &patch_for(spec))
        .expect("live patch");
    telemetry::uninstall();

    let records = recorder.records();
    let spans = spans_by_name(&records);

    // ≥ 10 spans covering every pipeline stage.
    let expected = [
        "kshot.live_patch",
        "kshot.live_patch_bundle",
        "server.build_patch",
        "sgx.session",
        "sgx.fetch",
        "sgx.prepare_and_stage",
        "sgx.preprocess",
        "sgx.pass",
        "smm.window",
        "smm.handle_patch",
        "smm.keygen",
        "smm.decrypt",
        "smm.verify",
        "smm.apply",
    ];
    for name in expected {
        assert!(spans.contains_key(name), "span {name} missing");
    }
    let span_count: usize = spans.values().map(Vec::len).sum();
    assert!(span_count >= 10, "only {span_count} spans recorded");

    // Parentage: the tree matches the pipeline's nesting.
    let root = one(&spans, "kshot.live_patch");
    assert_eq!(root.parent, None);
    let bundle = one(&spans, "kshot.live_patch_bundle");
    assert_eq!(bundle.parent, Some(root.id));
    assert_eq!(one(&spans, "server.build_patch").parent, Some(root.id));
    assert_eq!(one(&spans, "sgx.session").parent, Some(bundle.id));
    assert_eq!(one(&spans, "sgx.fetch").parent, Some(bundle.id));
    let stage = one(&spans, "sgx.prepare_and_stage");
    assert_eq!(stage.parent, Some(bundle.id));
    assert_eq!(one(&spans, "sgx.preprocess").parent, Some(stage.id));
    assert_eq!(one(&spans, "sgx.pass").parent, Some(stage.id));
    let window = one(&spans, "smm.window");
    assert_eq!(window.parent, Some(bundle.id));
    let handler = one(&spans, "smm.handle_patch");
    assert_eq!(handler.parent, Some(window.id));
    for sub in ["smm.keygen", "smm.decrypt", "smm.verify", "smm.apply"] {
        assert_eq!(one(&spans, sub).parent, Some(handler.id), "{sub} parent");
    }

    // The SMM window's simulated duration is the paper's OS pause.
    assert_eq!(
        window.sim_dur_ns(),
        Some(report.smm.total().as_ns()),
        "smm.window must cover exactly the OS pause"
    );

    // Phase taxonomy: attestation and resume have phase spans of their
    // own; the four SMM phases are timed by the stage spans above.
    let session = one(&spans, "sgx.session");
    assert_eq!(one(&spans, "phase.attest").parent, Some(session.id));
    assert_eq!(one(&spans, "phase.resume").parent, Some(window.id));
    // ...so the profiler reconstructs a one-sample profile per phase,
    // each with its span's simulated duration.
    let profile = telemetry::PhaseProfile::from_recorder(&recorder);
    for (phase, span) in telemetry::PHASES.into_iter().zip([
        "phase.attest",
        "smm.keygen",
        "smm.decrypt",
        "smm.verify",
        "smm.apply",
        "phase.resume",
    ]) {
        let stats = profile
            .get(phase)
            .unwrap_or_else(|| panic!("phase {phase} missing from profile"));
        assert_eq!(stats.wall().count(), 1, "{phase} sample count");
        let sim = one(&spans, span).sim_dur_ns();
        assert_eq!(sim.is_some(), !stats.sim().is_empty(), "{phase} clocks");
        if let Some(ns) = sim {
            assert_eq!((stats.sim().count(), stats.sim().sum()), (1, ns), "{phase}");
        }
    }

    // Trampoline installation shows up as events inside smm.apply.
    let apply = one(&spans, "smm.apply");
    let trampolines: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            Record::Event(e) if e.name == "smm.trampoline" => Some(e),
            _ => None,
        })
        .collect();
    assert_eq!(trampolines.len(), report.trampolines);
    for t in &trampolines {
        assert_eq!(t.parent, Some(apply.id));
        assert!(t.fields.iter().any(|(k, _)| *k == "site"));
        assert!(t.fields.iter().any(|(k, _)| *k == "target"));
    }

    // Counters and machine events.
    let metrics = recorder.metrics_snapshot();
    assert_eq!(metrics.counter("kshot.patches_applied"), 1);
    assert_eq!(metrics.counter("machine.smi"), 1);
    assert_eq!(metrics.counter("server.patches_built"), 1);
    assert!(metrics.counter("channel.frames_sealed") >= 2);
    assert!(records
        .iter()
        .any(|r| matches!(r, Record::Event(e) if e.name == "machine.smi_enter")));
    assert!(records
        .iter()
        .any(|r| matches!(r, Record::Event(e) if e.name == "machine.rsm")));

    // The exported Chrome trace contains every span name.
    let trace = recorder.export_chrome_trace();
    for name in expected {
        assert!(trace.contains(&format!("\"name\":\"{name}\"")), "{name}");
    }
}

#[test]
fn attacks_surface_as_structured_events() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = find("CVE-2017-17806").expect("benchmark CVE");
    let (kernel, server) = boot_benchmark_kernel(spec.version);
    let mut system = install_kshot(kernel, 7);
    system
        .live_patch(&server, &patch_for(spec))
        .expect("live patch");

    let recorder = telemetry::Recorder::with_capacity(1024);
    telemetry::install(recorder.clone());

    // 1. Kernel-context write into SMRAM: the lock fault is recorded.
    let smram = system.kernel_mut().machine_mut().layout().smram_base;
    let denied = system.kernel_mut().machine_mut().write_bytes(
        kshot::machine::AccessCtx::Kernel,
        smram,
        &[0u8],
    );
    assert!(denied.is_err());

    // 2. An introspection sweep over the healthy system is itself traced.
    let violations = system.introspect().expect("introspect");
    assert!(violations.is_empty());

    telemetry::uninstall();

    let metrics = recorder.metrics_snapshot();
    assert_eq!(metrics.counter("machine.smram_lock_fault"), 1);
    let records = recorder.records();
    let fault = records
        .iter()
        .find_map(|r| match r {
            Record::Event(e) if e.name == "machine.smram_lock_fault" => Some(e),
            _ => None,
        })
        .expect("lock fault event");
    assert!(fault
        .fields
        .iter()
        .any(|(k, v)| *k == "addr" && *v == Value::U64(smram)));
    // The introspection sweep itself is a span with a sim duration.
    let spans = spans_by_name(&records);
    let sweep = one(&spans, "kshot.introspect");
    assert!(sweep.sim_dur_ns().unwrap() > 0);
}
