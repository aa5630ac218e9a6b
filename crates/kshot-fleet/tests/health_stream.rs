//! The health-plane determinism gate: a campaign's emitted
//! `health.jsonl` is **byte-identical** across worker counts and
//! pipeline depths for a fixed seed — windows are machine-index
//! cohorts, every snapshot field is integer-valued and derived purely
//! from shard contents, and the mergeable sketches are order-
//! independent, so nothing about scheduling can leak into the stream.
//!
//! Also pins the verdict ladder end-to-end: an injected fault that
//! retries trips a deterministic `Degraded` window, and the same fault
//! with no retry budget trips `Halt`.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

use kshot_core::expected_handler_measurement;
use kshot_cve::{find, patch_for};
use kshot_fleet::{
    run_campaign, CampaignHealth, CampaignTarget, FleetConfig, PlannedFault, RolloutPlan,
};
use kshot_telemetry::{
    HealthMonitor, HealthPolicy, HealthReport, IntegrityPolicy, ShardData, SMM_DWELL_METRIC,
};

const MACHINES: usize = 6;
const WINDOW: usize = 2;

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

/// One retry in a 2-machine window is 500 per-mille — over the 250
/// ceiling, so the faulted window degrades deterministically.
fn policy() -> HealthPolicy {
    HealthPolicy::new()
        .with_failure_per_mille(50, 300)
        .with_retry_ceiling_per_mille(250)
}

fn base_config(workers: usize, depth: usize) -> FleetConfig {
    FleetConfig::new(MACHINES, workers)
        .with_seed(0x4EA1)
        .with_pipeline_depth(depth)
        .with_fault(PlannedFault {
            machine: 2,
            smm_write_index: 3,
        })
}

#[test]
fn health_stream_is_byte_identical_across_schedulers() {
    let (target, bytes) = fixture();
    let scratch = std::env::temp_dir().join(format!("kshot-health-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let run = |label: &str, workers: usize, depth: usize| -> (CampaignHealth, String) {
        let dir = scratch.join(label);
        let config = base_config(workers, depth)
            .with_stream_dir(&dir)
            .with_health(policy(), WINDOW);
        let report = run_campaign(target, bytes, &config);
        assert_eq!(report.succeeded, MACHINES, "{label}: {:?}", report.outcomes);
        assert_eq!(report.retries, 1, "{label}");
        let health = report.health.clone().expect("armed monitor reports");

        // Every window was emitted, in sequence, covering the fleet.
        assert_eq!(health.report.snapshots.len(), MACHINES / WINDOW, "{label}");
        for (i, snap) in health.report.snapshots.iter().enumerate() {
            assert_eq!(snap.seq, i as u64, "{label}");
            assert_eq!(snap.window_start, (i * WINDOW) as u64, "{label}");
        }
        assert_eq!(health.report.machines_seen, MACHINES as u64, "{label}");
        assert_eq!(health.report.total.machines, MACHINES as u64, "{label}");

        // The faulted machine (2) lands in window [2,4): its retry rate
        // is 500 per-mille, over the 250 ceiling -> Degraded; the other
        // windows stay healthy.
        let verdicts: Vec<&str> = health
            .report
            .snapshots
            .iter()
            .map(|s| s.verdict.label())
            .collect();
        assert_eq!(verdicts, ["healthy", "degraded", "healthy"], "{label}");
        assert_eq!(health.report.final_verdict().label(), "degraded", "{label}");
        assert_eq!(health.report.max_retry_per_mille(), 500, "{label}");
        assert_eq!(health.report.max_failure_per_mille(), 0, "{label}");

        // The streamed file is exactly the in-memory snapshot sequence.
        let streamed = std::fs::read_to_string(dir.join("health.jsonl")).unwrap();
        let expected: String = health
            .report
            .snapshots
            .iter()
            .map(|s| format!("{}\n", s.to_json_line()))
            .collect();
        assert_eq!(streamed, expected, "{label}: stream != snapshots");

        // The monitor's total dwell signal equals the merged shards' —
        // and the merge is order-independent: folding the worker shards
        // in reverse serializes identically to the forward fold.
        let shards: Vec<ShardData> = (0..workers)
            .map(|w| {
                let path = dir.join(format!("worker-{w}.jsonl"));
                ShardData::parse(&std::fs::read_to_string(&path).unwrap())
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            })
            .collect();
        let fold = |order: &mut dyn Iterator<Item = &ShardData>| {
            let mut merged = ShardData::new();
            order.for_each(|s| merged.merge_from(s));
            merged
        };
        let (sequential, reversed) = (fold(&mut shards.iter()), fold(&mut shards.iter().rev()));
        let seq_dwell = sequential.sketch(SMM_DWELL_METRIC).expect("dwell sketch");
        let rev_dwell = reversed.sketch(SMM_DWELL_METRIC).expect("dwell sketch");
        assert_eq!(
            seq_dwell.to_json_line(SMM_DWELL_METRIC),
            rev_dwell.to_json_line(SMM_DWELL_METRIC),
            "{label}: reversed merge diverged from the forward fold"
        );
        assert_eq!(
            seq_dwell.count(),
            health.report.total.dwell_samples,
            "{label}: monitor total != merged shards"
        );
        assert_eq!(
            seq_dwell.quantile_per_mille(500),
            health.report.total.dwell_p50_ns,
            "{label}"
        );
        assert!(health.report.resident_sketch_bytes > 0, "{label}");
        assert!(health.report.lines_consumed > 0, "{label}");

        (health, streamed)
    };

    let (_, reference) = run("seq", 1, 1);
    for (label, workers, depth) in [
        ("w1-d4", 1, 4),
        ("w1-dmax", 1, MACHINES),
        ("w8-d1", 8, 1),
        ("w8-d4", 8, 4),
        ("w8-dmax", 8, MACHINES),
    ] {
        let (_, streamed) = run(label, workers, depth);
        assert_eq!(
            streamed, reference,
            "{label}: health.jsonl diverged from the sequential reference"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn exhausted_fault_budget_halts_the_campaign() {
    let (target, bytes) = fixture();
    let dir = std::env::temp_dir().join(format!("kshot-health-halt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = base_config(2, 2)
        .with_stream_dir(&dir)
        .with_health(policy(), WINDOW);
    config.max_attempts = 1; // the fault fires and there is no retry
    let report = run_campaign(target, bytes, &config);
    assert_eq!(report.failed, 1);

    let health = report.health.expect("armed monitor reports");
    // Window [2,4): 1 failure of 2 machines = 500 per-mille, over the
    // 300 halt ceiling.
    let snap = &health.report.snapshots[1];
    assert_eq!(snap.verdict.severity(), 2, "{:?}", snap.verdict);
    assert_eq!(snap.window.failure_per_mille, 500);
    assert_eq!(health.report.final_verdict().label(), "halt");
    assert_eq!(health.report.max_failure_per_mille(), 500);
    // There is no Degraded window in this campaign: a live Halt must
    // land in `halt_live`, never be collapsed into `degraded_live`.
    assert!(!health.degraded_live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[should_panic(expected = "requires with_stream_dir")]
fn arming_health_without_streaming_panics_loudly() {
    let (target, bytes) = fixture();
    let config = FleetConfig::new(1, 1).with_health(HealthPolicy::new(), WINDOW);
    let _ = run_campaign(target, bytes, &config);
}

/// A worker that panics ends a health-monitored campaign with its own
/// panic instead of hanging it: the monitor polls until every worker
/// has stopped, so the campaign releases it before re-raising. Worker
/// 1's shard is a dangling symlink into a missing directory, so opening
/// it panics. The campaign runs on its own thread, so a regression
/// fails here after 60 s instead of hanging the suite.
#[cfg(unix)]
#[test]
fn worker_panic_ends_a_monitored_campaign() {
    let dir = std::env::temp_dir().join(format!("kshot-worker-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dangling = dir.join("missing").join("worker-1.jsonl");
    std::os::unix::fs::symlink(dangling, dir.join("worker-1.jsonl")).unwrap();
    let config = FleetConfig::new(8, 2)
        .with_seed(0x4EA1)
        .with_stream_dir(&dir)
        .with_health(HealthPolicy::new(), 4);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (target, bundle) = fixture();
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign(target, bundle, &config)
        }));
        let _ = tx.send(ran.map(drop).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        }));
    });
    let ran = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the campaign returns instead of hanging");
    let message = ran.expect_err("worker 1 cannot open its shard");
    assert!(message.starts_with("open shard"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that panics under a rollout fails the rollout closed: the
/// wave in flight needs the dead worker's machines, so the surviving
/// worker would otherwise wait forever on the gate. Its held sessions
/// roll back, admission stops, and `run_campaign` re-raises the dead
/// worker's panic. Worker 1's shard is a dangling symlink, as above.
#[cfg(unix)]
#[test]
fn worker_panic_ends_a_monitored_rollout() {
    let dir = std::env::temp_dir().join(format!("kshot-rollout-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dangling = dir.join("missing").join("worker-1.jsonl");
    std::os::unix::fs::symlink(dangling, dir.join("worker-1.jsonl")).unwrap();
    let config = FleetConfig::new(16, 2)
        .with_seed(0x4EA1)
        .with_stream_dir(&dir)
        .with_health(HealthPolicy::new(), 4)
        .with_rollout(RolloutPlan::canary_machines(4));
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (target, bundle) = fixture();
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign(target, bundle, &config)
        }));
        let _ = tx.send(ran.map(drop).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        }));
    });
    let ran = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the rollout returns instead of hanging");
    let message = ran.expect_err("worker 1 cannot open its shard");
    assert!(message.starts_with("open shard"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A monitor that fails under a rollout fails closed. Here its snapshot
/// sink cannot open, because `health.jsonl` is a directory. The wave in
/// flight halts as a Halt verdict would halt it, the workers finish,
/// and `run_campaign` panics naming the monitor's error, instead of the
/// workers waiting forever on a gate nobody opens.
#[test]
fn monitor_failure_under_a_rollout_fails_closed() {
    let dir = std::env::temp_dir().join(format!("kshot-health-failclosed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("health.jsonl")).unwrap();
    let config = FleetConfig::new(16, 2)
        .with_seed(0x4EA1)
        .with_stream_dir(&dir)
        .with_health(policy(), WINDOW)
        .with_rollout(RolloutPlan::canary_machines(2));
    let (sent, outcome) = std::sync::mpsc::channel();
    let campaign = std::thread::spawn(move || {
        let (target, bytes) = fixture();
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign(target, bytes, &config)
        }));
        let _ = sent.send(ran.map(drop).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        }));
    });
    let ran = outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("the campaign terminates within 60 s");
    campaign.join().expect("the panic was caught");
    let message = ran.expect_err("a failed monitor fails the campaign");
    assert!(
        message.starts_with("open health snapshot sink: ") && message.contains("health.jsonl"),
        "{message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `line` with a space after every `{`, `[`, `,` and `:` and before
/// every `}` and `]` outside strings: the same JSON, spelled apart.
fn respace(line: &str) -> String {
    let mut out = String::with_capacity(2 * line.len());
    let (mut in_string, mut escaped) = (false, false);
    for c in line.chars() {
        match c {
            _ if in_string => {
                out.push(c);
                (in_string, escaped) = match (escaped, c) {
                    (true, _) => (true, false),
                    (false, '\\') => (true, true),
                    (false, '"') => (false, false),
                    _ => (true, false),
                };
            }
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' | ',' | ':' => {
                out.push(c);
                out.push(' ');
            }
            '}' | ']' => {
                out.push(' ');
                out.push(c);
            }
            _ => out.push(c),
        }
    }
    out
}

/// The monitor and `ShardData` read what a line says, not how it is
/// spaced. The shards of a real campaign (one fault, one retry,
/// integrity on), re-spaced between every token, judge to the same
/// `HealthReport` as the compact originals (and as the campaign's own
/// monitor), and parse to the same `ShardData`.
#[test]
fn respaced_campaign_shards_judge_like_the_compact_ones() {
    const MACHINES: usize = 8;
    const WORKERS: usize = 2;
    let (target, bytes) = fixture();
    let dir = std::env::temp_dir().join(format!("kshot-health-respaced-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = &target.layout;
    let integrity = IntegrityPolicy::new()
        .with_expected_measurement(expected_handler_measurement())
        .with_allowed_extent(layout.smram_base, layout.smram_size)
        .with_allowed_extent(layout.kernel_text_base, layout.kernel_text_size)
        .with_allowed_extent(layout.kernel_data_base, layout.kernel_data_size)
        .with_allowed_extent(layout.reserved_base, layout.reserved_size);
    let config = FleetConfig::new(MACHINES, WORKERS)
        .with_seed(0x4EA1)
        .with_fault(PlannedFault {
            machine: 2,
            smm_write_index: 3,
        })
        .with_stream_dir(&dir)
        .with_health(policy(), WINDOW)
        .with_integrity(integrity.clone());
    let report = run_campaign(target, bytes, &config);
    assert_eq!((report.succeeded, report.retries), (MACHINES, 1));

    let spaced = dir.join("respaced");
    std::fs::create_dir_all(&spaced).unwrap();
    for w in 0..WORKERS {
        let name = format!("worker-{w}.jsonl");
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        let respaced: String = text.lines().map(|l| respace(l) + "\n").collect();
        assert!(respaced.len() > text.len() + text.lines().count());
        std::fs::write(spaced.join(&name), &respaced).unwrap();
        assert_eq!(
            ShardData::parse(&respaced).unwrap(),
            ShardData::parse(&text).unwrap(),
            "{name}"
        );
    }
    let judge = |d: &Path| -> HealthReport {
        let shards = (0..WORKERS)
            .map(|w| d.join(format!("worker-{w}.jsonl")))
            .collect();
        let mut judged = HealthMonitor::new(policy(), WINDOW, MACHINES, shards)
            .with_integrity(integrity.clone())
            .finish()
            .unwrap();
        judged.agg_wall = Duration::ZERO;
        judged
    };
    let compact = judge(&dir);
    assert_eq!(compact.snapshots.len(), MACHINES / WINDOW);
    assert_eq!(compact.final_verdict().label(), "degraded");
    assert!(compact.integrity.as_ref().unwrap().records_checked > 2 * MACHINES as u64);
    assert_eq!(judge(&spaced), compact);
    let mut live = report.health.expect("armed monitor reports").report;
    live.agg_wall = Duration::ZERO;
    assert_eq!(live, compact);
    let _ = std::fs::remove_dir_all(&dir);
}
