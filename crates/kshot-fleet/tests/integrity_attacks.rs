//! The integrity-plane gate: the four adversarial scenarios from the
//! SMM-monitoring literature — handler-image tamper, out-of-extent
//! rogue write, journal abuse, dwell exhaustion — are each detected by
//! the detached [`kshot_telemetry::IntegrityMonitor`] replaying the
//! fleet's `smi` flight-record stream, with a specific reason string
//! naming the machine, SMI and cause; an integrity Halt drives the
//! staged rollout's auto-rollback exactly like a health Halt; and a
//! clean campaign reports zero violations while its smi stream stays
//! **byte-identical** across worker counts, pipeline depths, and
//! batched/sequential SMI modes.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

use kshot_core::expected_handler_measurement;
use kshot_cve::{find, patch_for};
use kshot_fleet::{
    run_campaign, CampaignTarget, FleetConfig, IntegrityPolicy, PlannedAttack, PlannedFault,
    RolloutPlan,
};
use kshot_machine::{AttackKind, MemLayout, SimTime};
use kshot_telemetry::{HealthPolicy, ShardLine};

/// Shared expensive fixture (tree link + server build); campaigns never
/// mutate it.
fn fixture() -> &'static (CampaignTarget, Vec<u8>) {
    static FIXTURE: OnceLock<(CampaignTarget, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
        let (target, server) = CampaignTarget::benchmark(spec.version);
        let info = target.boot_one().info();
        let build = server
            .build_patch(&info, &patch_for(spec))
            .expect("server builds the CVE patch");
        (target, build.bundle.encode())
    })
}

/// The worst SMM dwell a clean single-patch session exhibits, probed
/// once from a 1-machine campaign. Integrity dwell budgets calibrate
/// from this so clean SMIs pass with headroom and the dwell-exhaustion
/// attack overshoots deterministically.
fn probe_dwell_ns() -> u64 {
    static PROBE: OnceLock<u64> = OnceLock::new();
    *PROBE.get_or_init(|| {
        let (target, bytes) = fixture();
        let report = run_campaign(target, bytes, &FleetConfig::new(1, 1).with_seed(0xD0E5));
        assert_eq!(report.succeeded, 1);
        let dwell = report.outcomes[0].max_smm_dwell.as_ns();
        assert!(dwell > 0, "a patch session dwells in SMM");
        dwell
    })
}

/// The integrity invariants every campaign below runs under: the
/// fleet-wide sealed handler measurement, write extents = SMRAM +
/// kernel text/data + the reserved patch region, and a dwell budget
/// `scale`x the probed clean maximum.
fn integrity_policy(layout: &MemLayout, dwell_scale: u64) -> IntegrityPolicy {
    IntegrityPolicy::new()
        .with_expected_measurement(expected_handler_measurement())
        .with_allowed_extent(layout.smram_base, layout.smram_size)
        .with_allowed_extent(layout.kernel_text_base, layout.kernel_text_size)
        .with_allowed_extent(layout.kernel_data_base, layout.kernel_data_size)
        .with_allowed_extent(layout.reserved_base, layout.reserved_size)
        .with_dwell_budget_ns(probe_dwell_ns().saturating_mul(dwell_scale))
}

/// A health policy no clean machine trips: verdict changes in these
/// campaigns come from the integrity plane alone.
fn lenient_health() -> HealthPolicy {
    HealthPolicy::new()
        .with_failure_per_mille(900, 990)
        .with_retry_ceiling_per_mille(990)
}

/// The canonical smi stream of one campaign: every `smi` line from the
/// worker shards, grouped per machine (each machine's lines are
/// contiguous within its parcel, in SMI order) and concatenated in
/// machine order — the worker→shard assignment is the only thing the
/// scheduler may move.
fn smi_stream(dir: &Path, workers: usize) -> String {
    let mut per_machine: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for w in 0..workers {
        let path = dir.join(format!("worker-{w}.jsonl"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for line in text.lines() {
            if let ShardLine::Smi(smi) = ShardLine::decode(line).expect("shard line decodes") {
                per_machine
                    .entry(smi.machine)
                    .or_default()
                    .push(line.to_string());
            }
        }
    }
    let mut out = String::new();
    for lines in per_machine.values() {
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// All four attacks in one campaign, one per 2-machine health window:
/// each is caught by the replayed stream with a reason naming the
/// exact machine, SMI and cause, every flagged window escalates to
/// Halt, and the un-attacked machines stay clean.
#[test]
fn four_attacks_are_detected_with_typed_reasons() {
    const MACHINES: usize = 8;
    let (target, bytes) = fixture();
    let dir = std::env::temp_dir().join(format!("kshot-integrity-attacks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let rogue_base = 0x40u64; // below kernel text, outside every extent
    let dwell_budget = probe_dwell_ns() * 4;
    // A 10 ms link keeps the campaign running long enough for the
    // monitor's 1 ms poll to see a Halt before the last machine ends,
    // which the `halt_live` assertion below needs.
    let config = FleetConfig::new(MACHINES, 2)
        .with_seed(0x1A7E)
        .with_pipeline_depth(2)
        .with_link_rtt(Duration::from_millis(10))
        .with_stream_dir(&dir)
        .with_health(lenient_health(), 2)
        .with_integrity(integrity_policy(&target.layout, 4))
        .with_attack(PlannedAttack {
            machine: 1,
            kind: AttackKind::TamperHandlerImage,
        })
        .with_attack(PlannedAttack {
            machine: 3,
            kind: AttackKind::RogueWrite {
                addr: rogue_base,
                len: 16,
            },
        })
        .with_attack(PlannedAttack {
            machine: 5,
            kind: AttackKind::JournalAbuse { extra_entries: 3 },
        })
        .with_attack(PlannedAttack {
            machine: 7,
            kind: AttackKind::DwellExhaustion {
                extra: SimTime::from_ns(dwell_budget * 8),
            },
        });
    let report = run_campaign(target, bytes, &config);

    // Every attack is covert with respect to the patch itself: the
    // sessions all succeed — detection is the integrity plane's job.
    assert_eq!(report.succeeded, MACHINES, "{:?}", report.outcomes);

    let integrity = report.integrity.as_ref().expect("armed integrity reports");
    assert!(integrity.records_checked >= MACHINES as u64 * 2);
    assert_eq!(
        integrity.violating_machines,
        vec![1, 3, 5, 7],
        "exactly the attacked machines: {:?}",
        integrity.reasons
    );
    assert!(integrity.violations >= 4);
    assert_eq!(integrity.reasons_dropped, 0);

    // Each attack produces its own typed reason, naming machine, SMI
    // (install is SMI 1, the attacked patch SMI is 2) and cause. The
    // rogue write's reason is fully predictable, so pin it exactly.
    let reasons = integrity.reasons.join("\n");
    assert!(
        reasons.contains("machine 1 smi 2 (patch): handler measurement")
            && reasons.contains("!= sealed"),
        "tamper reason missing: {reasons}"
    );
    assert!(
        reasons.contains("machine 3 smi 2 (patch): write [0x40..0x50) outside allowed extents"),
        "rogue-write reason missing: {reasons}"
    );
    assert!(
        reasons.contains("machine 5 smi 2 (patch): journal entry outside an open window"),
        "journal-abuse reason missing: {reasons}"
    );
    assert!(
        reasons.contains("machine 7 smi 2 (patch): dwell")
            && reasons.contains("exceeds integrity budget"),
        "dwell-exhaustion reason missing: {reasons}"
    );

    // Window escalation: each attacked machine halts its window, and
    // every Halt snapshot carries at least one reason.
    let health = report.health.as_ref().expect("armed monitor reports");
    let verdicts: Vec<&str> = health
        .report
        .snapshots
        .iter()
        .map(|s| s.verdict.label())
        .collect();
    assert_eq!(verdicts, ["halt", "halt", "halt", "halt"]);
    for snap in &health.report.snapshots {
        assert!(
            !snap.verdict.reasons().is_empty(),
            "a Halt without reasons is unactionable: {snap:?}"
        );
    }
    assert!(health.halt_live, "violations must be caught mid-campaign");

    // The report JSON carries the integrity section.
    let json = report.to_json();
    assert!(
        json.contains("\"integrity\":{\"records_checked\":"),
        "{json}"
    );
    assert!(json.contains("\"clean\":false"), "{json}");
    assert!(json.contains("\"violating_machines\":[1,3,5,7]"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An integrity Halt actuates the staged rollout exactly like a health
/// Halt: the tampered machine's wave stops the ramp, every patched
/// machine of that wave auto-rolls-back to the never-patched digest,
/// and later waves are never admitted.
#[test]
fn integrity_halt_drives_wave_auto_rollback() {
    const MACHINES: usize = 8;
    let (target, bytes) = fixture();
    let dir = std::env::temp_dir().join(format!("kshot-integrity-rollout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Waves [0,2), [2,6), [6,8); the tamper sits in wave 1.
    let config = FleetConfig::new(MACHINES, 2)
        .with_seed(0x5A17)
        .with_pipeline_depth(2)
        .with_stream_dir(&dir)
        .with_health(lenient_health(), 2)
        .with_integrity(integrity_policy(&target.layout, 4))
        .with_rollout(RolloutPlan::canary_machines(2))
        .with_attack(PlannedAttack {
            machine: 3,
            kind: AttackKind::TamperHandlerImage,
        });
    let report = run_campaign(target, bytes, &config);

    let rollout = report.rollout.as_ref().expect("rollout report");
    assert!(!rollout.completed(), "{rollout:?}");
    assert_eq!(rollout.halt_wave, Some(1), "{rollout:?}");
    assert_eq!(rollout.halt_verdict.as_deref(), Some("halt"));
    assert!(
        rollout
            .halt_reasons
            .iter()
            .any(|r| r.contains("handler measurement")),
        "the halt must name the integrity violation: {:?}",
        rollout.halt_reasons
    );
    assert_eq!(rollout.rolled_back, 4, "all of wave 1 reverts");
    assert_eq!(rollout.not_admitted, 2, "wave [6,8) never started");

    // The canary keeps its patch; the halted wave — including the
    // tampered machine itself — reverts to exactly the never-patched
    // state (reference digest from a terminally-faulted twin campaign:
    // a recovered failed apply leaves the never-patched bytes).
    let never_patched = {
        let mut ref_config = FleetConfig::new(1, 1)
            .with_seed(0x5A17)
            .with_fault(PlannedFault {
                machine: 0,
                smm_write_index: 2,
            });
        ref_config.max_attempts = 1;
        let ref_report = run_campaign(target, bytes, &ref_config);
        assert_eq!(ref_report.failed, 1);
        ref_report.outcomes[0].state_digest
    };
    assert_ne!(never_patched, [0u8; 32]);
    let o = &report.outcomes;
    for canary in [0, 1] {
        assert!(o[canary].ok && !o[canary].rolled_back);
        assert_ne!(
            o[canary].state_digest, never_patched,
            "canary stays patched"
        );
    }
    for (machine, reverted) in o.iter().enumerate().take(6).skip(2) {
        assert!(reverted.rolled_back, "{reverted:?}");
        assert_eq!(
            reverted.state_digest, never_patched,
            "machine {machine}: rollback must restore the pre-patch state"
        );
    }
    for skipped in o.iter().take(8).skip(6) {
        assert!(!skipped.admitted);
    }

    let integrity = report.integrity.as_ref().expect("armed integrity reports");
    assert_eq!(integrity.violating_machines, vec![3]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Clean campaigns: zero violations, bounded monitor memory, and the
/// smi flight-record stream is byte-identical across workers {1, 8} x
/// pipeline depths {1, 4} within each SMI mode (batched and sequential
/// legitimately differ — one SMI for the catalogue vs one per CVE).
#[test]
fn clean_smi_stream_is_byte_identical_across_schedulers_and_modes() {
    const MACHINES: usize = 6;
    let a = find("CVE-2016-2543").expect("benchmark CVE exists");
    let b = find("CVE-2017-17806").expect("benchmark CVE exists");
    assert_eq!(a.version, b.version, "catalogue CVEs share a kernel");
    let (target, server) = CampaignTarget::benchmark(a.version);
    let info = target.boot_one().info();
    let blobs: Vec<Vec<u8>> = [a, b]
        .iter()
        .map(|spec| {
            server
                .build_patch(&info, &patch_for(spec))
                .expect("server builds the CVE patch")
                .bundle
                .encode()
        })
        .collect();
    let scratch = std::env::temp_dir().join(format!("kshot-smi-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // A batched SMI legitimately dwells ~2x a single patch; give the
    // integrity budget room for both modes.
    let policy = integrity_policy(&target.layout, 16);
    let run = |label: &str, workers: usize, depth: usize, batched: bool| -> String {
        let dir = scratch.join(label);
        let config = FleetConfig::new(MACHINES, workers)
            .with_seed(0xC1EA)
            .with_pipeline_depth(depth)
            .with_stream_dir(&dir)
            .with_health(lenient_health(), 2)
            .with_integrity(policy.clone())
            .with_catalogue(blobs.clone())
            .with_batched_smi(batched);
        let report = run_campaign(&target, &[], &config);
        assert_eq!(report.succeeded, MACHINES, "{label}: {:?}", report.outcomes);

        // Clean run: every SMI replayed, zero violations, bounded
        // resident memory.
        let integrity = report.integrity.as_ref().expect("armed integrity reports");
        let smis_per_machine = if batched { 2 } else { 3 }; // install + patches
        assert_eq!(
            integrity.records_checked,
            (MACHINES * smis_per_machine) as u64,
            "{label}"
        );
        assert_eq!(integrity.violations, 0, "{label}: {:?}", integrity.reasons);
        assert!(integrity.reasons.is_empty(), "{label}");
        assert!(
            integrity.resident_bytes < 64 * 1024,
            "{label}: monitor memory must stay bounded, got {}",
            integrity.resident_bytes
        );
        let json = report.to_json();
        assert!(json.contains("\"clean\":true"), "{label}: {json}");

        let stream = smi_stream(&dir, workers);
        assert_eq!(
            stream.lines().count(),
            MACHINES * smis_per_machine,
            "{label}"
        );
        stream
    };

    for batched in [false, true] {
        let mode = if batched { "batched" } else { "seq" };
        let reference = run(&format!("{mode}-w1-d1"), 1, 1, batched);
        for (workers, depth) in [(1, 4), (8, 1), (8, 4)] {
            let label = format!("{mode}-w{workers}-d{depth}");
            let stream = run(&label, workers, depth, batched);
            assert_eq!(
                stream, reference,
                "{label}: smi stream diverged from the sequential reference"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
