//! The campaign contract, pinned by value. A performance change must
//! leave every state digest, every campaign Merkle root and every
//! simulated nanosecond where it was; this test holds the figures the
//! benchmarks publish and fails, naming the figure, when one moves:
//!
//! * the CVE-2017-17806 roots of `BENCH_fleet.json` (64 machines) and of
//!   `perfbench/pinned.json` (200, 160 and 128 machines), with their
//!   simulated p50 latency and longest SMM dwell;
//! * the 1 MiB synthetic bundle of `pinned.json`'s `fold_large`: one
//!   machine's root and simulated figures, and the 24-machine root
//!   derived from its leaf;
//! * the batched stage's simulated p50s at k = 1, 2, 4, sequential and
//!   batched;
//! * the healthy and halted rollout roots, with their simulated p50.
//!
//! The campaigns here run without link RTT; the simulated domain does
//! not depend on it, on the seed, on the worker count or on the
//! pipeline depth. Changing a value here is a deliberate act, recorded
//! with its reason.

use std::sync::OnceLock;

use kshot::bench_setup::synthetic_bundle;
use kshot_cve::{find, patch_for};
use kshot_fleet::{
    run_campaign, CampaignReport, CampaignTarget, FleetConfig, PlannedFault, RolloutPlan,
};
use kshot_telemetry::merkle::digest_hex;
use kshot_telemetry::{DigestTree, HealthPolicy};

/// The CVE of every single-bundle campaign below.
const CVE: &str = "CVE-2017-17806";
/// Its simulated SGX + SMM latency, and its SMI's SMM dwell.
const CVE_LATENCY_NS: u64 = 7_379_613;
const CVE_DWELL_NS: u64 = 48_913;
/// The batched stage's catalogue, in order, all on CVE's kernel.
const BATCH_CVES: [&str; 4] = [
    "CVE-2016-2543",
    "CVE-2017-17806",
    "CVE-2016-5195",
    "CVE-2016-4578",
];

/// The benchmark target and the encoded bundle of every CVE the
/// contract uses, by CVE id.
type Fixture = (CampaignTarget, Vec<(&'static str, Vec<u8>)>);

/// The [`Fixture`], built once.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = find(CVE).expect("benchmark CVE exists");
        let (target, server) = CampaignTarget::benchmark(spec.version);
        let info = target.boot_one().info();
        let blobs = BATCH_CVES
            .iter()
            .map(|&id| {
                let s = find(id).expect("benchmark CVE exists");
                assert_eq!(s.version, spec.version, "catalogue shares one kernel");
                let bundle = server
                    .build_patch(&info, &patch_for(s))
                    .expect("server builds the CVE patch")
                    .bundle;
                (id, bundle.encode())
            })
            .collect();
        (target, blobs)
    })
}

fn cve_bundle() -> &'static [u8] {
    let (_, blobs) = fixture();
    let (_, bundle) = blobs.iter().find(|(id, _)| *id == CVE).expect("built");
    bundle
}

/// Run `config` over `bundle`, require every machine to succeed, and
/// return the report.
fn campaign(bundle: &[u8], config: &FleetConfig, case: &str) -> CampaignReport {
    let report = run_campaign(&fixture().0, bundle, config);
    assert_eq!(report.failed, 0, "{case}: failed machines");
    report
}

/// Require `report`'s root, simulated p50 latency and longest SMM
/// dwell.
fn assert_figures(report: &CampaignReport, root: &str, p50_ns: u64, dwell_ns: u64, case: &str) {
    let fold = report.fold.as_ref().expect("every report carries its fold");
    assert_eq!(digest_hex(&report.digest_root()), root, "{case}: root");
    assert_eq!(report.latency_p50.as_ns(), p50_ns, "{case}: latency p50");
    assert_eq!(
        fold.max_smm_dwell.as_ns(),
        dwell_ns,
        "{case}: max SMM dwell"
    );
}

#[test]
fn bench_fleet_64_machine_root() {
    const ROOT: &str = "080f4e8762106c53b9f027f90ddb866ab24623dc9f1d5568fef8f1c1a5ff5dcd";
    for (seed, workers) in [(0, 2), (7, 8)] {
        let config = FleetConfig::new(64, workers)
            .with_seed(seed)
            .with_outcome_fold();
        let case = format!("64 machines, seed {seed}, {workers} workers");
        let report = campaign(cve_bundle(), &config, &case);
        assert_figures(&report, ROOT, CVE_LATENCY_NS, CVE_DWELL_NS, &case);
    }
}

/// One of perfbench's CVE-2017-17806 workloads, on one worker at seed 1,
/// against its `pinned.json` root. Each workload is its own test, so
/// the three campaigns spread over the test threads.
fn perfbench_cve_root(case: &str, config: FleetConfig, root: &str) {
    let report = campaign(cve_bundle(), &config.with_seed(1), case);
    assert_figures(&report, root, CVE_LATENCY_NS, CVE_DWELL_NS, case);
}

#[test]
fn perfbench_fold_small_root() {
    perfbench_cve_root(
        "fold_small",
        FleetConfig::new(200, 1).with_outcome_fold(),
        "d41ab96f296e1c699cd6934914fbed14581cd9581adb936dbca8696e5530de54",
    );
}

#[test]
fn perfbench_retained_observed_root() {
    perfbench_cve_root(
        "retained_observed",
        FleetConfig::new(160, 1),
        "d93dbe498fccf6a80ad63389da42490a6d9da9e5d651bc9dca1e891a8b7045e1",
    );
}

#[test]
fn perfbench_pipelined_rtt_root() {
    perfbench_cve_root(
        "pipelined_rtt",
        FleetConfig::new(128, 1)
            .with_pipeline_depth(16)
            .with_outcome_fold(),
        "c34c0134af68e469723f9365935e85076d942163ee70de21c3d5eb46f43b3908",
    );
}

/// One machine applies the 1 MiB bundle; 24 identical leaves of its
/// digest give `fold_large`'s root without running 23 more.
#[test]
fn perfbench_mib_bundle_root_and_figures() {
    let spec = find(CVE).expect("benchmark CVE exists");
    let bundle = synthetic_bundle("PERF-1MiB", spec.version, 1 << 20).encode();
    let report = campaign(&bundle, &FleetConfig::new(1, 1).with_seed(1), "1 MiB");
    assert_figures(
        &report,
        "fcc3becdf895007537c983ae819fa79449b3d8501e769eaa2ea1479807d861b6",
        2_048_144_459,
        1_185_763,
        "1 MiB, one machine",
    );
    let leaf = report.outcomes[0].state_digest;
    assert_eq!(
        digest_hex(&DigestTree::from_leaves(&[leaf; 24]).root()),
        "d68688d90795ac983ac02aa4857ec63cd93312ef5552d6c29de3939a3a8e4c64",
        "1 MiB, 24 machines: root"
    );
}

/// The simulated p50s of `BENCH_fleet.json`'s batched stage: k
/// sequential deliveries against one batched SMI, for the first k CVEs
/// of the catalogue.
#[test]
fn bench_fleet_batched_crossover_p50s() {
    let (_, blobs) = fixture();
    let blobs: Vec<Vec<u8>> = blobs.iter().map(|(_, b)| b.clone()).collect();
    for (k, sequential, batched) in [
        (1, 1_756_512, 1_758_295),
        (2, 9_136_125, 8_963_362),
        (4, 26_249_265, 25_727_306),
    ] {
        for (mode, p50) in [(false, sequential), (true, batched)] {
            let config = FleetConfig::new(16, 4)
                .with_seed(0xBA7C4)
                .with_catalogue(blobs[..k].to_vec())
                .with_batched_smi(mode);
            let case = format!("k={k} batched={mode}");
            let report = campaign(&[], &config, &case);
            assert!(report.all_identical_digests(), "{case}: digests");
            assert_eq!(report.latency_p50.as_ns(), p50, "{case}: latency p50");
        }
    }
}

/// The healthy and the halted rollout of `BENCH_fleet.json`.
#[test]
fn bench_fleet_rollout_roots() {
    let dir = std::env::temp_dir().join(format!("kshot-contract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rollout = |name: &str| {
        FleetConfig::new(12, 4)
            .with_seed(0xF1EE7)
            .with_pipeline_depth(4)
            .with_stream_dir(dir.join(name))
            .with_health(HealthPolicy::new().with_failure_per_mille(50, 300), 2)
            .with_rollout(RolloutPlan::canary_machines(2))
    };
    let healthy = campaign(cve_bundle(), &rollout("healthy"), "healthy rollout");
    assert_figures(
        &healthy,
        "41e76313eb4aa2799c278091f7924bd5a203d26c4da8fbf52f6f14b24798747e",
        CVE_LATENCY_NS,
        CVE_DWELL_NS,
        "healthy rollout",
    );
    let mut halted = rollout("halted");
    for machine in [3, 4] {
        halted = halted.with_fault(PlannedFault {
            machine,
            smm_write_index: 2,
        });
    }
    halted.max_attempts = 1;
    let halted = run_campaign(&fixture().0, cve_bundle(), &halted);
    let plan = halted.rollout.as_ref().expect("rollout report");
    assert_eq!((plan.halt_wave, plan.rolled_back), (Some(1), 2));
    assert_eq!(
        digest_hex(&halted.digest_root()),
        "5485ada7c3034a3d59b83a383f038ab992de690576a0b9dd7963c395ae07413e",
        "halted rollout: root"
    );
    assert_eq!(
        halted.latency_p50.as_ns(),
        CVE_LATENCY_NS,
        "halted rollout: latency p50"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
