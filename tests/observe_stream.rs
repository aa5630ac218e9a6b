//! End-to-end gate for the streaming observability pipeline: a
//! 32-machine campaign streams per-worker JSON-lines shards while it
//! runs, and re-aggregating those shards from disk must reproduce the
//! in-memory merged telemetry *exactly* — same counter totals, same
//! sketch buckets, same per-phase timing sketches. Alongside, the SMM
//! dwell-time watchdog must flag the one machine whose SMM stages were
//! artificially slowed, and nobody else.

use std::fs;
use std::path::{Path, PathBuf};

use kshot::fleet::{run_campaign, CampaignTarget, FleetConfig, PlannedSlowdown};
use kshot::telemetry::{PhaseProfile, ShardData, PHASES};
use kshot_cve::{find, patch_for};
use kshot_machine::SimTime;

const MACHINES: usize = 32;
const WORKERS: usize = 4;
const SLOW_MACHINE: usize = 13;
/// Normal sessions dwell ~45 µs per SMI under the paper-calibrated cost
/// model; a 10× SMM slowdown pushes the slow machine past 300 µs.
const DWELL_BUDGET: SimTime = SimTime::from_us(100);

fn fixture() -> (CampaignTarget, Vec<u8>) {
    let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
    let (target, server) = CampaignTarget::benchmark(spec.version);
    let info = target.boot_one().info();
    let bundle = server
        .build_patch(&info, &patch_for(spec))
        .expect("server builds the CVE patch");
    (target, bundle.bundle.encode())
}

/// A fresh scratch directory per test case; stale shards from a prior
/// run would make the equivalence assertions vacuous or wrong.
fn scratch_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kshot-observe-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Parse every worker shard under `dir` and fold them into one
/// aggregate, asserting each file exists, is non-empty, and every line
/// parses under the current schema version.
fn parse_shards(dir: &Path, workers: usize) -> ShardData {
    let mut merged = ShardData::new();
    for worker in 0..workers {
        let path = dir.join(format!("worker-{worker}.jsonl"));
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("shard {} unreadable: {e}", path.display()));
        assert!(!text.trim().is_empty(), "shard {} is empty", path.display());
        let shard =
            ShardData::parse(&text).unwrap_or_else(|e| panic!("shard {}: {e}", path.display()));
        merged.merge_from(&shard);
    }
    merged
}

#[test]
fn streamed_shards_losslessly_reproduce_the_in_memory_aggregate() {
    let (target, bytes) = fixture();
    let dir = scratch_dir("equiv");
    let config = FleetConfig::new(MACHINES, WORKERS)
        .with_seed(0x0B5E)
        .with_stream_dir(&dir)
        .with_smm_dwell_budget(DWELL_BUDGET)
        .with_slowdown(PlannedSlowdown {
            machine: SLOW_MACHINE,
            factor: 10,
        });
    let report = run_campaign(&target, &bytes, &config);
    assert_eq!(
        report.succeeded, MACHINES,
        "outcomes: {:?}",
        report.outcomes
    );
    // Slowness changes timing only, never the applied bytes.
    assert!(report.all_identical_digests());

    let merged = parse_shards(&dir, WORKERS);

    // Metrics: every counter, gauge, and sketch equal in both
    // directions between the shard files and the merged recorder.
    merged
        .assert_metrics_match(&report.recorder.metrics_snapshot())
        .expect("streamed metric totals equal the in-memory merge");

    // Phases: identical sketches (order-independent), and every
    // pipeline phase observed at least once per machine.
    let in_memory: PhaseProfile = report.phase_profile();
    assert_eq!(merged.phases, in_memory, "phase profiles diverged");
    for phase in PHASES {
        let stats = merged
            .phases
            .get(phase)
            .unwrap_or_else(|| panic!("phase {phase:?} missing from shards"));
        assert!(
            stats.wall().count() >= MACHINES as u64,
            "phase {phase:?} has {} samples for {MACHINES} machines",
            stats.wall().count()
        );
    }

    // One outcome line per machine, each machine exactly once.
    let mut machines_seen: Vec<u64> = merged.machines.iter().map(|m| m.machine).collect();
    machines_seen.sort_unstable();
    let expected: Vec<u64> = (0..MACHINES as u64).collect();
    assert_eq!(machines_seen, expected);

    // Watchdog: exactly the slowed machine is flagged — in the report,
    // in the per-machine outcomes, and in the streamed outcome lines.
    assert_eq!(report.dwell_anomalies, vec![SLOW_MACHINE]);
    for o in &report.outcomes {
        if o.machine == SLOW_MACHINE {
            assert!(o.smm_overbudget > 0, "slowed machine not flagged");
            assert!(o.max_smm_dwell > DWELL_BUDGET);
        } else {
            assert_eq!(o.smm_overbudget, 0, "machine {} misflagged", o.machine);
            assert!(o.max_smm_dwell <= DWELL_BUDGET);
        }
    }
    let flagged: Vec<u64> = merged
        .machines
        .iter()
        .filter(|m| m.smm_overbudget > 0)
        .map(|m| m.machine)
        .collect();
    assert_eq!(flagged, vec![SLOW_MACHINE as u64]);
    assert!(merged.counter("machine.smm_overbudget") >= 1);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn summaries_only_campaign_keeps_totals_and_streams_the_records() {
    let (target, bytes) = fixture();
    let dir = scratch_dir("summaries");
    let config = FleetConfig::new(8, 2)
        .with_seed(9)
        .with_outcome_fold()
        .with_stream_dir(&dir);
    let report = run_campaign(&target, &bytes, &config);
    assert_eq!(report.succeeded, 8);

    // The merged recorder dropped the record stream (memory-bounded
    // mode) but kept metric totals...
    assert!(report.recorder.records().is_empty());
    assert!(report.phase_profile().is_empty());
    assert!(!report.recorder.metrics_snapshot().counters.is_empty());

    // ...and the full stream still exists on disk: the shards carry the
    // same metric totals plus all the span samples the report dropped.
    let merged = parse_shards(&dir, 2);
    merged
        .assert_metrics_match(&report.recorder.metrics_snapshot())
        .expect("summaries-only totals equal the shard totals");
    assert!(merged.phases.total_samples() > 0);
    assert!(merged.spans > 0);

    let _ = fs::remove_dir_all(&dir);
}
