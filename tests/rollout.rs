//! The staged-rollout determinism gate: for a fixed seed, the wave
//! sequence, the halt point, and the rollback set are **byte-identical**
//! across worker counts and pipeline depths — wave contents are pure
//! machine-index arithmetic and wave verdicts fold from the health
//! monitor's snapshot stream, which is itself scheduling-independent.
//!
//! Pins the three rollout behaviours end-to-end:
//!
//! * a healthy fleet ramps canary → ×2 → ×2 and every wave finalizes;
//! * an exhausted-retry cohort halts the ramp mid-campaign, the halted
//!   wave's patched machines auto-roll-back to exactly the never-patched
//!   digest, and machines past the halt point are never admitted;
//! * a canary-calibrated dwell budget catches a slow ramp machine and
//!   pauses the ramp without reverting anything.

use std::path::Path;
use std::sync::OnceLock;

use kshot_cve::{find, patch_for};
use kshot_fleet::{
    run_campaign, CampaignReport, CampaignTarget, FleetConfig, PlannedFault, PlannedSlowdown,
    RolloutPlan,
};
use kshot_telemetry::HealthPolicy;

const MACHINES: usize = 12;

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

/// One failure in a 2-machine window is 500 per-mille — over the 300
/// halt ceiling, so a no-retry fault halts its wave deterministically.
fn policy() -> HealthPolicy {
    HealthPolicy::new()
        .with_failure_per_mille(50, 300)
        .with_retry_ceiling_per_mille(250)
}

/// Canary of 2, growth 2: a 12-machine fleet partitions into waves
/// [0,2), [2,6), [6,12).
fn plan() -> RolloutPlan {
    RolloutPlan::canary_machines(2)
}

/// Builds one scenario's campaign at one scheduler point: the shard
/// directory, workers, and pipeline depth.
type Scenario = fn(&Path, usize, usize) -> FleetConfig;

/// The healthy-ramp campaign at one scheduler point.
fn ramp_config(dir: &Path, workers: usize, depth: usize) -> FleetConfig {
    FleetConfig::new(MACHINES, workers)
        .with_seed(0x57A6)
        .with_pipeline_depth(depth)
        .with_stream_dir(dir)
        // Deliberately not the canary size: the rollout plan must
        // override the window so no window straddles a wave.
        .with_health(policy(), 5)
        .with_rollout(plan())
}

/// The halting campaign at one scheduler point. Machines 3 and 4 sit
/// in ramp wave [2,6); with no retry budget their faults are terminal,
/// so both of that wave's windows carry 500-per-mille failure -> Halt.
fn halt_config(dir: &Path, workers: usize, depth: usize) -> FleetConfig {
    let mut config = FleetConfig::new(MACHINES, workers)
        .with_seed(0x57A6)
        .with_pipeline_depth(depth)
        .with_stream_dir(dir)
        .with_health(policy(), 2)
        .with_rollout(plan())
        .with_fault(PlannedFault {
            machine: 3,
            smm_write_index: 2,
        })
        .with_fault(PlannedFault {
            machine: 4,
            smm_write_index: 2,
        });
    config.max_attempts = 1;
    config
}

/// The scheduler sweep every rollout campaign must be invariant under.
const SWEEP: &[(&str, usize, usize)] = &[
    ("seq", 1, 1),
    ("w1-d4", 1, 4),
    ("w8-d1", 8, 1),
    ("w8-d4", 8, 4),
    ("w8-dmax", 8, MACHINES),
];

/// Everything scheduling could plausibly leak into, folded to one
/// comparable string: wave verdicts, halt point, rollback set, and the
/// never-admitted set.
fn trail_fingerprint(report: &CampaignReport) -> String {
    let rollout = report.rollout.as_ref().expect("rollout report");
    let rolled_back: Vec<usize> = report
        .outcomes
        .iter()
        .filter(|o| o.rolled_back)
        .map(|o| o.machine)
        .collect();
    let skipped: Vec<usize> = report
        .outcomes
        .iter()
        .filter(|o| !o.admitted)
        .map(|o| o.machine)
        .collect();
    format!(
        "{:?}|{:?}|{:?}|{rolled_back:?}|{skipped:?}",
        rollout.waves, rollout.halt_wave, rollout.halt_verdict
    )
}

#[test]
fn healthy_ramp_admits_every_wave_and_is_scheduler_invariant() {
    let (target, bytes) = fixture();
    let scratch = std::env::temp_dir().join(format!("kshot-rollout-ramp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let run = |label: &str, workers: usize, depth: usize| -> (String, String) {
        let dir = scratch.join(label);
        let report = run_campaign(target, bytes, &ramp_config(&dir, workers, depth));

        assert_eq!(report.succeeded, MACHINES, "{label}: {:?}", report.outcomes);
        assert_eq!(report.failed, 0, "{label}");
        assert!(report.all_identical_digests(), "{label}");
        assert!(
            report.outcomes.iter().all(|o| o.admitted && !o.rolled_back),
            "{label}"
        );

        let rollout = report.rollout.as_ref().expect("rollout report");
        assert!(rollout.completed(), "{label}: {rollout:?}");
        assert_eq!(rollout.canary, 2, "{label}");
        assert_eq!(rollout.planned_waves, 3, "{label}");
        let verdicts: Vec<&str> = rollout.waves.iter().map(|w| w.verdict.as_str()).collect();
        assert_eq!(verdicts, ["healthy", "healthy", "healthy"], "{label}");
        let spans: Vec<(usize, usize)> = rollout.waves.iter().map(|w| (w.start, w.end)).collect();
        assert_eq!(spans, [(0, 2), (2, 6), (6, 12)], "{label}");
        assert_eq!(rollout.halt_wave, None, "{label}");
        assert_eq!(rollout.rolled_back, 0, "{label}");
        assert_eq!(rollout.not_admitted, 0, "{label}");
        assert_eq!(rollout.dwell_budget_ns, None, "{label}: no calibration");

        // The monitor ran on canary-sized windows (the configured 5 was
        // overridden), every window landed while workers still ran, and
        // each snapshot is tagged with its wave.
        let health = report.health.as_ref().expect("armed monitor reports");
        assert_eq!(health.report.snapshots.len(), 6, "{label}");
        assert_eq!(
            health.live_snapshots, 6,
            "{label}: verdict-gated admission means every window is judged live"
        );
        let waves: Vec<Option<u64>> = health.report.snapshots.iter().map(|s| s.wave).collect();
        assert_eq!(
            waves,
            [Some(0), Some(1), Some(1), Some(2), Some(2), Some(2)],
            "{label}"
        );
        for (i, snap) in health.report.snapshots.iter().enumerate() {
            assert_eq!(snap.window_start, (i * 2) as u64, "{label}");
            assert_eq!(snap.window_end, (i * 2 + 2) as u64, "{label}");
        }

        let json = report.to_json();
        assert!(
            json.contains("\"rollout\":{\"canary\":2"),
            "{label}: {json}"
        );
        assert!(json.contains("\"halt_wave\":null"), "{label}");

        let streamed = std::fs::read_to_string(dir.join("health.jsonl")).unwrap();
        (trail_fingerprint(&report), streamed)
    };

    let (ref_trail, ref_stream) = run(SWEEP[0].0, SWEEP[0].1, SWEEP[0].2);
    for &(label, workers, depth) in &SWEEP[1..] {
        let (trail, stream) = run(label, workers, depth);
        assert_eq!(trail, ref_trail, "{label}: rollout trail diverged");
        assert_eq!(stream, ref_stream, "{label}: health.jsonl diverged");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn halt_verdict_stops_admission_and_rolls_back_the_wave() {
    let (target, bytes) = fixture();
    let scratch = std::env::temp_dir().join(format!("kshot-rollout-halt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let run = |label: &str, workers: usize, depth: usize| -> (String, String) {
        let dir = scratch.join(label);
        let report = run_campaign(target, bytes, &halt_config(&dir, workers, depth));

        let rollout = report.rollout.as_ref().expect("rollout report");
        assert!(!rollout.completed(), "{label}");
        assert_eq!(rollout.halt_wave, Some(1), "{label}: {rollout:?}");
        assert_eq!(rollout.halt_verdict.as_deref(), Some("halt"), "{label}");
        let verdicts: Vec<&str> = rollout.waves.iter().map(|w| w.verdict.as_str()).collect();
        assert_eq!(verdicts, ["healthy", "halt"], "{label}");
        assert!(
            rollout
                .halt_reasons
                .iter()
                .any(|r| r.contains("failure rate")),
            "{label}: {:?}",
            rollout.halt_reasons
        );
        assert_eq!(rollout.rolled_back, 2, "{label}: patched survivors 2 and 5");
        assert_eq!(rollout.rollback_failed, 0, "{label}");
        assert_eq!(
            rollout.not_admitted, 6,
            "{label}: wave [6,12) never started"
        );

        // The canary keeps its patch; the halted wave's patched
        // machines reverted; its faulted machines failed on their own.
        let o = &report.outcomes;
        for canary in [0, 1] {
            assert!(o[canary].ok && !o[canary].rolled_back, "{label}");
        }
        for survivor in [2, 5] {
            assert!(o[survivor].ok && o[survivor].rolled_back, "{label}");
            assert_eq!(o[survivor].attempts, 1, "{label}");
        }
        for faulted in [3, 4] {
            assert!(!o[faulted].ok && o[faulted].admitted, "{label}");
            assert!(
                !o[faulted].rolled_back,
                "{label}: nothing applied to revert"
            );
            assert_eq!(o[faulted].faults_injected, 1, "{label}");
        }
        for skipped in &o[6..MACHINES] {
            assert!(!skipped.ok && !skipped.admitted, "{label}");
            assert_eq!(skipped.attempts, 0, "{label}: never booted");
            assert_eq!(skipped.state_digest, [0u8; 32], "{label}");
            assert!(
                skipped.error.as_deref().unwrap_or("").contains("halted"),
                "{label}: {:?}",
                skipped.error
            );
        }
        assert_eq!(report.succeeded, 4, "{label}");
        assert_eq!(report.failed, 8, "{label}");

        // The rollback property the paper's journal machinery exists
        // for: a rolled-back machine is byte-identical to one that never
        // applied the patch, and distinct from a patched one.
        let patched = o[0].state_digest;
        let never_patched = o[3].state_digest;
        assert_ne!(patched, never_patched, "{label}");
        assert_ne!(never_patched, [0u8; 32], "{label}");
        assert_eq!(o[4].state_digest, never_patched, "{label}");
        for survivor in [2, 5] {
            assert_eq!(
                o[survivor].state_digest, never_patched,
                "{label}: rollback must restore the pre-patch state"
            );
        }

        // The halt was observed live and was not collapsed into the
        // degraded flag; the actuation counter matches the outcome set.
        let health = report.health.as_ref().expect("armed monitor reports");
        assert!(health.halt_live, "{label}");
        assert!(!health.degraded_live, "{label}");
        assert_eq!(
            report
                .recorder
                .metrics_snapshot()
                .counter("fleet.rolled_back"),
            2,
            "{label}"
        );

        let json = report.to_json();
        assert!(json.contains("\"halt_verdict\":\"halt\""), "{label}");
        assert!(json.contains("\"rolled_back\":2"), "{label}");

        let streamed = std::fs::read_to_string(dir.join("health.jsonl")).unwrap();
        (trail_fingerprint(&report), streamed)
    };

    let (ref_trail, ref_stream) = run(SWEEP[0].0, SWEEP[0].1, SWEEP[0].2);
    assert!(ref_trail.contains("[2, 5]"), "rollback set: {ref_trail}");
    for &(label, workers, depth) in &SWEEP[1..] {
        let (trail, stream) = run(label, workers, depth);
        assert_eq!(trail, ref_trail, "{label}: rollout trail diverged");
        assert_eq!(stream, ref_stream, "{label}: health.jsonl diverged");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Rollouts run folded: over the same sweep, a campaign that keeps no
/// outcomes reports the same rollout, streams the same `health.jsonl`
/// and commits to the same digest root as its retained twin — the
/// rollout counters come from the fold either way.
#[test]
fn folded_rollouts_match_their_retained_twins() {
    let (target, bytes) = fixture();
    let scratch = std::env::temp_dir().join(format!("kshot-rollout-folded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let scenarios: [(&str, Scenario); 2] = [("ramp", ramp_config), ("halt", halt_config)];
    for (scenario, config) in scenarios {
        for &(label, workers, depth) in SWEEP {
            let case = format!("{scenario} {label}");
            let run = |mode: &str, fold: bool| {
                let dir = scratch.join(format!("{scenario}-{label}-{mode}"));
                let mut config = config(&dir, workers, depth);
                if fold {
                    config = config.with_outcome_fold();
                }
                let report = run_campaign(target, bytes, &config);
                let health = std::fs::read_to_string(dir.join("health.jsonl")).unwrap();
                (report, health)
            };
            let (retained, retained_health) = run("retained", false);
            let (folded, folded_health) = run("folded", true);

            assert_eq!(retained.outcomes.len(), MACHINES, "{case}");
            assert!(folded.outcomes.is_empty(), "{case}: nothing retained");
            assert!(folded.rollout.is_some(), "{case}");
            assert_eq!(folded.rollout, retained.rollout, "{case}");
            assert_eq!(
                folded_health, retained_health,
                "{case}: health.jsonl diverged"
            );
            assert_eq!(folded.digest_root(), retained.digest_root(), "{case}");
            assert_eq!(folded.succeeded, retained.succeeded, "{case}");
            assert_eq!(folded.failed, retained.failed, "{case}");
            if scenario == "halt" {
                let rollout = folded.rollout.as_ref().expect("checked above");
                assert_eq!(rollout.rolled_back, 2, "{case}");
                assert_eq!(rollout.not_admitted, 6, "{case}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn canary_calibrated_dwell_budget_pauses_a_slow_ramp_wave() {
    let (target, bytes) = fixture();
    let dir = std::env::temp_dir().join(format!("kshot-rollout-dwell-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // No static dwell budget anywhere: the ramp's budget comes from the
    // canary cohort's own dwell p99 (×1.5 headroom). Machine 3 dwells
    // 50× longer per SMI, so its window blows the calibrated budget —
    // Degraded, which pauses the ramp but reverts nothing.
    let config = FleetConfig::new(MACHINES, 3)
        .with_seed(0x57A6)
        .with_pipeline_depth(4)
        .with_stream_dir(&dir)
        .with_health(policy(), 2)
        .with_rollout(plan().with_dwell_calibration(1500))
        .with_slowdown(PlannedSlowdown {
            machine: 3,
            factor: 50,
        });
    let report = run_campaign(target, bytes, &config);

    let rollout = report.rollout.as_ref().expect("rollout report");
    assert_eq!(rollout.halt_wave, Some(1), "{rollout:?}");
    assert_eq!(rollout.halt_verdict.as_deref(), Some("degraded"));
    let verdicts: Vec<&str> = rollout.waves.iter().map(|w| w.verdict.as_str()).collect();
    assert_eq!(verdicts, ["healthy", "degraded"]);
    assert!(
        rollout.halt_reasons.iter().any(|r| r.contains("dwell p99")),
        "{:?}",
        rollout.halt_reasons
    );
    let budget = rollout.dwell_budget_ns.expect("canary armed the budget");
    assert!(budget > 0);
    assert_eq!(rollout.rolled_back, 0, "degraded pauses, never reverts");
    assert_eq!(rollout.not_admitted, 6);

    // The degraded wave keeps its patches — including the slow machine.
    for machine in 0..6 {
        let o = &report.outcomes[machine];
        assert!(o.ok && o.admitted && !o.rolled_back, "{o:?}");
    }
    assert_eq!(report.succeeded, 6);
    assert_eq!(report.failed, 6);
    let _ = std::fs::remove_dir_all(&dir);
}
