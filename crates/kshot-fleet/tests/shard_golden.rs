//! Byte identity of everything an observed campaign writes.
//!
//! A one-worker, eight-machine campaign streams its shard with the
//! health and integrity monitors on, and one planned fault makes a
//! machine retry. Its `worker-0.jsonl` and `health.jsonl` are compared
//! byte for byte with the golden files in `tests/golden/`, after
//! masking what no seed fixes: the wall-clock fields (`wall_start_ns`,
//! `wall_dur_ns`, `wall_ns`) and the span numbers drawn from
//! process-global counters (`id`, `parent`, `thread`). A masked value
//! reads `0`, so the golden shard is itself a shard the reader decodes.
//!
//! A second golden pins every line writer on inputs the campaign never
//! produces: events carrying each field kind, gauges, escaped names,
//! a machine line without its optional keys, an empty roll-up.
//!
//! Regenerate the goldens after an intentional format change with
//! `KSHOT_UPDATE_GOLDEN=1 cargo test -p kshot-fleet --test shard_golden`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kshot_core::expected_handler_measurement;
use kshot_cve::{find, patch_for};
use kshot_fleet::{run_campaign, CampaignTarget, FleetConfig, PlannedFault};
use kshot_telemetry::export::{metrics_json_lines, record_json_line};
use kshot_telemetry::json;
use kshot_telemetry::merkle::DigestTree;
use kshot_telemetry::{
    DigestRollup, EventRecord, HealthPolicy, IntegrityPolicy, MachineLine, MetricsRegistry, Record,
    ShardData, SmiLine, SpanRecord, Value,
};

const MACHINES: usize = 8;
const WINDOW: usize = 4;

/// Keys whose values vary from run to run: wall-clock readings, and
/// span and thread numbers taken from process-global counters.
const MASKED: [&str; 6] = [
    "wall_start_ns",
    "wall_dur_ns",
    "wall_ns",
    "id",
    "parent",
    "thread",
];

/// `text` with the value of every [`MASKED`] key replaced by `0`.
fn mask(text: &str) -> String {
    let mut out = text.to_string();
    for key in MASKED {
        let pattern = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&pattern) {
            let start = from + at + pattern.len();
            let len = out[start..]
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "0");
            from = start + 1;
        }
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` with the golden file `name`, naming the first line
/// that differs; `KSHOT_UPDATE_GOLDEN=1` rewrites the golden instead.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("KSHOT_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with KSHOT_UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    if golden != actual {
        let (line, want, got) = golden
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (g, a))| g != a)
            .map(|(i, (g, a))| (i + 1, g, a))
            .unwrap_or((
                golden.lines().count().min(actual.lines().count()) + 1,
                "",
                "",
            ));
        panic!(
            "{name} differs from its golden at line {line} ({} vs {} lines)\n golden: {want}\n actual: {got}",
            golden.lines().count(),
            actual.lines().count()
        );
    }
}

fn fixture() -> (CampaignTarget, Vec<u8>) {
    let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
    let (target, server) = CampaignTarget::benchmark(spec.version);
    let info = target.boot_one().info();
    let build = server
        .build_patch(&info, &patch_for(spec))
        .expect("server builds the CVE patch");
    (target, build.bundle.encode())
}

#[test]
fn observed_campaign_shard_and_health_match_their_goldens() {
    let (target, bytes) = fixture();
    let dir = std::env::temp_dir().join(format!("kshot-shard-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = &target.layout;
    let integrity = IntegrityPolicy::new()
        .with_expected_measurement(expected_handler_measurement())
        .with_allowed_extent(layout.smram_base, layout.smram_size)
        .with_allowed_extent(layout.kernel_text_base, layout.kernel_text_size)
        .with_allowed_extent(layout.kernel_data_base, layout.kernel_data_size)
        .with_allowed_extent(layout.reserved_base, layout.reserved_size);
    let config = FleetConfig::new(MACHINES, 1)
        .with_seed(0x601D)
        .with_fault(PlannedFault {
            machine: 5,
            smm_write_index: 3,
        })
        .with_stream_dir(&dir)
        .with_health(HealthPolicy::new(), WINDOW)
        .with_integrity(integrity);
    let report = run_campaign(&target, &bytes, &config);
    assert_eq!((report.succeeded, report.retries), (MACHINES, 1));
    let health = report.health.expect("armed monitor reports");
    assert_eq!(health.report.machines_seen, MACHINES as u64);

    let shard = std::fs::read_to_string(dir.join("worker-0.jsonl")).unwrap();
    let health_lines = std::fs::read_to_string(dir.join("health.jsonl")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(shard.contains("\"faults_injected\":1"), "the fault fired");
    assert_golden("observed_worker-0.jsonl", &mask(&shard));
    assert_golden("observed_health.jsonl", &health_lines);
}

/// Records, metrics and fleet lines built by hand, so that every field
/// kind, an escaped name and each optional key is written at least once.
fn synthetic_lines() -> String {
    let span = |id, parent, name, sim: Option<(u64, u64)>, fields| {
        Record::Span(SpanRecord {
            id,
            parent,
            name,
            thread: 3,
            wall_start_ns: 1_000 + id,
            wall_dur_ns: 77,
            sim_start_ns: sim.map(|(s, _)| s),
            sim_end_ns: sim.map(|(_, e)| e),
            fields,
        })
    };
    let records = [
        span(1, None, "kshot.live_patch", Some((0, 61_000)), Vec::new()),
        span(
            2,
            Some(1),
            "smm.decrypt",
            Some((5_500, 18_123)),
            vec![
                ("bytes", Value::U64(4096)),
                ("cve", Value::from("CVE-2017-7184")),
            ],
        ),
        span(3, Some(1), "sgx.session", None, Vec::new()),
        span(
            4,
            None,
            "odd\"name\\\n",
            Some((9, 3)),
            vec![("late", Value::Bool(false))],
        ),
        Record::Event(EventRecord {
            parent: Some(2),
            name: "machine.smi",
            thread: 3,
            wall_ns: 1_500,
            sim_ns: Some(2_500),
            fields: vec![
                ("addr", Value::U64(u64::MAX)),
                ("delta", Value::I64(i64::MIN)),
                ("ratio", Value::F64(0.125)),
                ("huge", Value::F64(1e21)),
                ("nan", Value::F64(f64::NAN)),
                ("ok", Value::Bool(true)),
                ("why", Value::from("tab\there \u{1} é")),
            ],
        }),
        Record::Event(EventRecord {
            parent: None,
            name: "machine.smram_lock_fault",
            thread: 0,
            wall_ns: 0,
            sim_ns: None,
            fields: Vec::new(),
        }),
    ];
    let mut out = String::new();
    for rec in &records {
        out.push_str(&record_json_line(rec));
        out.push('\n');
    }
    let reg = MetricsRegistry::new();
    reg.counter_add("fleet.machines_patched", 3);
    reg.counter_add("saturated", u64::MAX);
    reg.gauge_set("fleet.workers", 2);
    reg.gauge_set("negative", i64::MIN);
    for v in [0, 1, 45_000, 45_000, 61_000, u64::MAX] {
        reg.observe("machine.smm_dwell_ns", v);
    }
    reg.observe("single", 7);
    out.push_str(&metrics_json_lines(&reg.snapshot()));
    let smi = SmiLine {
        machine: 9,
        smi: 2,
        cause: "patch".to_string(),
        measurement: 0xabcd,
        writes: vec![(0x1000, 16), (u64::MAX, 0)],
        writes_truncated: 1,
        journal: vec!["B:a".into(), "S:3:\"q\"".into(), "C".into()],
        journal_truncated: 0,
        dwell_ns: 45_000,
        exit: "ok".to_string(),
    };
    let empty_smi = SmiLine {
        writes: Vec::new(),
        journal: Vec::new(),
        measurement: u64::MAX,
        cause: String::new(),
        ..smi.clone()
    };
    let machine = MachineLine {
        machine: 9,
        worker: 1,
        ok: false,
        attempts: 3,
        retries: 2,
        faults_injected: 1,
        sim_clock_ns: (1 << 53) + 1,
        smm_overbudget: 0,
        max_smm_dwell_ns: 45_000,
        dwell_worst: Some((2, "pa\"tch".to_string())),
        latency_ns: Some(u64::MAX - 1),
    };
    let bare = MachineLine {
        ok: true,
        dwell_worst: None,
        latency_ns: None,
        ..machine.clone()
    };
    let mut tree = DigestTree::starting_at(40);
    for leaf in 0..5u8 {
        tree.append([leaf; 32]);
    }
    for line in [
        smi.to_json_line(),
        empty_smi.to_json_line(),
        machine.to_json_line(),
        bare.to_json_line(),
        DigestRollup { tree }.to_json_line(),
        DigestRollup {
            tree: DigestTree::starting_at(7),
        }
        .to_json_line(),
    ] {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[test]
fn every_line_writer_matches_its_golden() {
    assert_golden("synthetic_lines.jsonl", &synthetic_lines());
}

#[test]
fn masking_hides_only_the_varying_values() {
    let line = "{\"type\":\"span\",\"v\":1,\"id\":12,\"parent\":null,\"name\":\"n\",\
                \"thread\":4,\"wall_start_ns\":5,\"wall_dur_ns\":6,\"sim_start_ns\":7}";
    assert_eq!(
        mask(line),
        "{\"type\":\"span\",\"v\":1,\"id\":0,\"parent\":0,\"name\":\"n\",\
         \"thread\":0,\"wall_start_ns\":0,\"wall_dur_ns\":0,\"sim_start_ns\":7}"
    );
}

/// Decode rate over the golden shard, printed for the record; nothing
/// is asserted about time. `ShardData::parse` is the borrowed reader;
/// `json::parse` builds the tree the reader replaced, and stays as the
/// test oracle.
#[test]
fn golden_shard_decode_rate_is_printed() {
    let text = std::fs::read_to_string(golden_path("observed_worker-0.jsonl")).unwrap();
    let shard = ShardData::parse(&text).expect("the golden shard decodes");
    assert_eq!(shard.machines.len(), MACHINES);
    let rate = |decode: &dyn Fn()| {
        let started = Instant::now();
        let mut rounds = 0u32;
        while rounds < 3 || started.elapsed() < Duration::from_millis(50) {
            decode();
            rounds += 1;
        }
        (text.len() as f64 * f64::from(rounds)) / started.elapsed().as_secs_f64() / 1e6
    };
    let reader = rate(&|| {
        std::hint::black_box(ShardData::parse(&text).unwrap());
    });
    let tree = rate(&|| {
        for line in text.lines() {
            std::hint::black_box(json::parse(line).unwrap());
        }
    });
    println!(
        "golden shard ({} bytes): ShardData::parse {reader:.0} MB/s, json::parse tree {tree:.0} MB/s",
        text.len()
    );
}
