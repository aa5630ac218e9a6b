//! A fault at every SMM write of a machine's first patch SMI, driven
//! through the fleet session: the session must end patched with the
//! clean run's digest at every write index, and a fault at or after the
//! journal's commit (the write that closes the journal window) must not
//! cost a retry, because the patch it interrupted is already applied,
//! and must report the clean run's latency, because that patch's report
//! is the machine's.
//!
//! Four shapes share one session path and are swept alike:
//!
//! * the CVE-2017-17806 bundle;
//! * a one-entry catalogue of that bundle;
//! * the catalogue CVE-2016-2543 + CVE-2017-17806, one SMI per CVE;
//! * the same catalogue in one batched SMI.
//!
//! The two remaining cases put a post-commit fault into a bigger fleet:
//! across worker counts and pipeline depths, and on a canary machine of
//! a staged rollout.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

use kshot_core::KShot;
use kshot_crypto::sha256::sha256;
use kshot_cve::{find, patch_for};
use kshot_fleet::{
    run_campaign, CampaignReport, CampaignTarget, FleetConfig, HealthPolicy, MachineOutcome,
    PlannedFault, RolloutPlan,
};
use kshot_machine::InjectionPlan;
use kshot_patchserver::BundleCache;
use kshot_telemetry::ShardData;

/// The campaign seed the sweep runs at.
const SEED: u64 = 3;

/// A post-commit write of the CVE-2017-17806 patch SMI (its journal
/// commits at write 24 of 35); `bundle_fault_index_is_after_the_commit`
/// pins that it stays one.
const LATE_FAULT: u64 = 30;

/// The shared target and the two encoded bundles, CVE-2016-2543 and
/// CVE-2017-17806 (tree link + server build once for every test).
fn fixture() -> &'static (CampaignTarget, [Vec<u8>; 2]) {
    static FIXTURE: OnceLock<(CampaignTarget, [Vec<u8>; 2])> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let specs = ["CVE-2016-2543", "CVE-2017-17806"].map(|id| find(id).expect("benchmark CVE"));
        assert_eq!(specs[0].version, specs[1].version, "one kernel for both");
        let (target, server) = CampaignTarget::benchmark(specs[0].version);
        let info = target.boot_one().info();
        let blobs = specs.map(|spec| {
            server
                .build_patch(&info, &patch_for(spec))
                .expect("server builds the CVE patch")
                .bundle
                .encode()
        });
        (target, blobs)
    })
}

/// One way to hand a machine its patches.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Bundle,
    OneEntryCatalogue,
    Sequential,
    Batched,
}

impl Shape {
    /// The campaign's bundle argument and configuration for `machines`
    /// machines in this shape.
    fn campaign(self, machines: usize) -> (&'static [u8], FleetConfig) {
        let (_, [cve_2543, cve_17806]) = fixture();
        let config = FleetConfig::new(machines, 1).with_seed(SEED);
        match self {
            Shape::Bundle => (cve_17806, config),
            Shape::OneEntryCatalogue => (&[], config.with_catalogue([cve_17806.clone()])),
            Shape::Sequential => (
                &[],
                config.with_catalogue([cve_2543.clone(), cve_17806.clone()]),
            ),
            Shape::Batched => (
                &[],
                config
                    .with_catalogue([cve_2543.clone(), cve_17806.clone()])
                    .with_batched_smi(true),
            ),
        }
    }

    /// The bundles this shape's first patch SMI applies, and whether it
    /// applies them as one batch.
    fn first_smi(self) -> (Vec<&'static [u8]>, bool) {
        let (_, [cve_2543, cve_17806]) = fixture();
        match self {
            Shape::Bundle | Shape::OneEntryCatalogue => (vec![cve_17806], false),
            Shape::Sequential => (vec![cve_2543], false),
            Shape::Batched => (vec![cve_2543, cve_17806], true),
        }
    }
}

/// The one machine of a campaign over `bundle` and `config`.
fn drive(bundle: &[u8], config: &FleetConfig) -> MachineOutcome {
    let (target, _) = fixture();
    let mut report = run_campaign(target, bundle, config);
    assert_eq!(report.outcomes.len(), 1);
    report.outcomes.remove(0)
}

fn fault(machine: usize, smm_write_index: u64) -> PlannedFault {
    PlannedFault {
        machine,
        smm_write_index,
    }
}

/// The SMM writes of `shape`'s first patch SMI, and the index of its
/// journal commit: the first write at which a fault no longer takes any
/// of the SMI's patches back. Measured on a bare KShot machine, outside
/// any fleet session: a fault at or after the commit leaves the kernel
/// as patched, once `recover()` has run, as a clean apply does.
fn first_smi_writes(shape: Shape) -> (u64, u64) {
    let (target, _) = fixture();
    let (blobs, batched) = shape.first_smi();
    let cache = BundleCache::new();
    let bundles: Vec<_> = blobs
        .iter()
        .map(|b| cache.get_or_decode(b).expect("bundle decodes"))
        .collect();
    // Apply the SMI with write `k` faulted, recover, and digest the
    // kernel's text and data; also return how many SMM writes the
    // plan saw.
    let apply = |k: u64| {
        let mut system = KShot::install(target.boot_one(), SEED).expect("install");
        let m = system.kernel_mut().machine_mut();
        m.arm_injection(InjectionPlan::fail_nth_smm_write(k));
        let result = if batched {
            system.live_patch_batch_bundles(bundles.iter().map(|b| &**b))
        } else {
            system.live_patch_bundle(&*bundles[0])
        };
        let stats = system.kernel_mut().machine_mut().disarm_injection();
        let seen = stats.expect("armed").smm_writes_seen;
        if result.is_err() {
            system.recover().expect("recover");
        }
        let image = &target.image;
        let phys = system.kernel().machine().phys();
        let text = phys.slice(image.text_base, image.text.len()).expect("text");
        let data = phys.slice(image.data_base, image.data.len()).expect("data");
        (sha256(&[sha256(text), sha256(data)].concat()), seen)
    };
    let (patched, writes) = apply(u64::MAX);
    let mut commit = writes;
    while commit > 0 && apply(commit - 1).0 == patched {
        commit -= 1;
    }
    assert!(commit < writes, "{shape:?}: no write commits the journal");
    (writes, commit)
}

/// Fault every SMM write of `shape`'s first patch SMI in turn and check
/// each faulted machine against the clean run: its digest always, and
/// from the commit on its retries (none) and its latency.
fn sweep(shape: Shape) {
    let (writes, commit) = first_smi_writes(shape);
    let (bundle, config) = shape.campaign(1);
    let clean = drive(bundle, &config);
    assert!(clean.ok && clean.retries == 0, "{shape:?}: {clean:?}");
    let mut misreported = Vec::new();
    for k in 0..writes {
        let o = drive(bundle, &config.clone().with_fault(fault(0, k)));
        assert_eq!(o.faults_injected, 1, "{shape:?} write {k}");
        let late = k >= commit;
        if !o.ok
            || o.state_digest != clean.state_digest
            || (late && (o.retries != 0 || o.latency != clean.latency))
        {
            misreported.push((k, o.ok, o.retries, o.latency, o.error));
        }
    }
    assert!(
        misreported.is_empty(),
        "{shape:?}: {} of {writes} fault indices misreported (journal commits at {commit}): \
         {misreported:?}",
        misreported.len()
    );
}

#[test]
fn committed_sweep_bundle() {
    sweep(Shape::Bundle);
}

#[test]
fn committed_sweep_one_entry_catalogue() {
    sweep(Shape::OneEntryCatalogue);
}

#[test]
fn committed_sweep_sequential_catalogue() {
    sweep(Shape::Sequential);
}

#[test]
fn committed_sweep_batched_catalogue() {
    sweep(Shape::Batched);
}

#[test]
fn bundle_fault_index_is_after_the_commit() {
    let (writes, commit) = first_smi_writes(Shape::Bundle);
    assert!(
        (commit..writes).contains(&LATE_FAULT),
        "write {LATE_FAULT} must fall in [{commit}, {writes})"
    );
}

/// (machine, ok, attempts, retries, sim clock, latency, digest).
type OutcomeRow = (usize, bool, u32, u64, u64, Option<u64>, [u8; 32]);

/// What a worker/depth sweep must hold constant: per-machine simulated
/// results and the metrics re-aggregated from the streamed shards.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    outcomes: Vec<OutcomeRow>,
    /// Shard counter totals, matching exactly (every machine's bundle
    /// lookup is a hit).
    counters: BTreeMap<String, u64>,
    /// Shard sketch totals, each rendered as its line.
    sketches: BTreeMap<String, String>,
    spans: u64,
    events: u64,
    /// The shards' machine lines: machine → (ok, attempts, sim clock).
    machine_lines: BTreeMap<u64, (bool, u64, u64)>,
}

fn fingerprint(report: &CampaignReport, dir: &Path, workers: usize) -> Fingerprint {
    let mut shards = ShardData::new();
    for worker in 0..workers {
        let path = dir.join(format!("worker-{worker}.jsonl"));
        shards
            .parse_into(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    Fingerprint {
        outcomes: report
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.machine,
                    o.ok,
                    o.attempts,
                    o.retries,
                    o.sim_clock.as_ns(),
                    o.latency.map(|t| t.as_ns()),
                    o.state_digest,
                )
            })
            .collect(),
        counters: shards.counters.clone(),
        sketches: shards
            .sketches
            .iter()
            .map(|(k, s)| (k.clone(), s.to_json_line(k)))
            .collect(),
        spans: shards.spans,
        events: shards.events,
        machine_lines: shards
            .machines
            .iter()
            .map(|m| (m.machine, (m.ok, m.attempts, m.sim_clock_ns)))
            .collect(),
    }
}

/// A post-commit fault on one machine of six, across workers {1, 8} ×
/// depths {1, 4}: the faulted machine lands without a retry, and every
/// simulated-domain result and shard total matches the sequential run.
#[test]
fn committed_fault_is_scheduler_invariant() {
    const MACHINES: usize = 6;
    let (target, [_, bundle]) = fixture();
    let scratch = std::env::temp_dir().join(format!("kshot-committed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let run = |workers: usize, depth: usize| {
        let dir = scratch.join(format!("w{workers}-d{depth}"));
        let config = FleetConfig::new(MACHINES, workers)
            .with_seed(0xD137)
            .with_pipeline_depth(depth)
            .with_fault(fault(2, LATE_FAULT))
            .with_stream_dir(&dir);
        let report = run_campaign(target, bundle, &config);
        let label = format!("workers {workers}, depth {depth}");
        assert_eq!(report.succeeded, MACHINES, "{label}: {:?}", report.outcomes);
        assert_eq!(report.retries, 0, "{label}");
        assert_eq!(report.faults_injected, 1, "{label}");
        assert!(report.all_identical_digests(), "{label}");
        fingerprint(&report, &dir, workers)
    };
    let reference = run(1, 1);
    assert!(reference.sketches.contains_key("machine.smm_dwell_ns"));
    for (workers, depth) in [(1, 4), (8, 1), (8, 4)] {
        assert_eq!(
            run(workers, depth),
            reference,
            "workers {workers}, depth {depth}"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A post-commit fault on a canary machine does not degrade the canary:
/// the ramp admits every wave and every machine ends patched.
#[test]
fn committed_fault_on_a_canary_keeps_the_rollout_healthy() {
    let (target, [_, bundle]) = fixture();
    let dir = std::env::temp_dir().join(format!("kshot-committed-ramp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = FleetConfig::new(32, 2)
        .with_seed(7)
        .with_stream_dir(&dir)
        .with_health(HealthPolicy::new(), 8)
        .with_rollout(RolloutPlan::canary_machines(8))
        .with_fault(fault(3, LATE_FAULT));
    let report = run_campaign(target, bundle, &config);
    let rollout = report.rollout.as_ref().expect("rollout report");
    let verdicts: Vec<&str> = rollout.waves.iter().map(|w| w.verdict.as_str()).collect();
    assert_eq!(verdicts, ["healthy"; 3], "{rollout:?}");
    assert!(rollout.completed(), "{rollout:?}");
    assert_eq!(rollout.not_admitted, 0);
    assert_eq!(report.succeeded, 32, "{:?}", report.outcomes[3]);
    assert_eq!(report.retries, 0);
    assert!(report.all_identical_digests());
    let _ = std::fs::remove_dir_all(&dir);
}
