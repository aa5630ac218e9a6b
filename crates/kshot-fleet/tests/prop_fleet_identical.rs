//! Property: a campaign distributing one cached bundle to N machines
//! leaves *byte-identical* applied state (kernel text + `mem_X`) on
//! every machine — including when one machine suffers an injected SMM
//! write fault and has to recover and retry.
//!
//! This is the fleet-level analogue of the paper's §VI integrity claim:
//! the patch a machine ends up running is exactly the patch the server
//! built, regardless of scheduling, sharding, or transient failures.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

use kshot_cve::{find, patch_for};
use kshot_fleet::{run_campaign, CampaignReport, CampaignTarget, FleetConfig, PlannedFault};
use kshot_telemetry::ShardData;
use proptest::prelude::*;

/// The target and encoded bundle are expensive (tree link + server
/// build); share one across all cases. The campaign never mutates
/// either, so sharing is sound.
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

proptest! {
    // Each case patches up to 6 full machines; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn fleet_applies_byte_identical_state(
        machines in 2usize..6,
        workers in 1usize..4,
        depth in 1usize..5,
        seed in any::<u64>(),
        faulted in 0usize..6,
        write_index in 1u64..6,
    ) {
        let (target, bytes) = fixture();
        let mut config = FleetConfig::new(machines, workers)
            .with_seed(seed)
            .with_pipeline_depth(depth);
        // Arm a one-shot SMM write fault on one machine (when the drawn
        // index lands inside the fleet); its session must fail, recover,
        // retry, and still converge to the same bytes as everyone else.
        let faulted_in_range = faulted < machines;
        if faulted_in_range {
            config = config.with_fault(PlannedFault {
                machine: faulted,
                smm_write_index: write_index,
            });
        }

        let report = run_campaign(target, bytes, &config);

        prop_assert_eq!(report.succeeded, machines, "outcomes: {:?}", report.outcomes);
        prop_assert_eq!(report.failed, 0);
        prop_assert!(report.all_identical_digests(),
            "divergent applied state: {:?}",
            report.outcomes.iter().map(|o| o.state_digest[0]).collect::<Vec<_>>());
        // The campaign decoded the bundle once before the workers
        // started, and every attempt (one per machine, plus one per
        // retry) was a cache hit.
        prop_assert_eq!(report.cache_hits, machines as u64 + report.retries);
        prop_assert_eq!(report.cache_misses, 1);
        if faulted_in_range {
            prop_assert_eq!(report.faults_injected, 1);
            prop_assert_eq!(report.retries, 1);
            prop_assert_eq!(report.outcomes[faulted].attempts, 2);
        } else {
            prop_assert_eq!(report.retries, 0);
        }
    }
}

/// Everything a depth/worker sweep must hold constant about one run:
/// the simulated-domain results and the re-aggregated shard metrics.
/// Wall time and interleaving are the *only* things pipelining may
/// change, so every other observable is comparable field-by-field.
#[derive(Debug, PartialEq)]
struct SimDomainFingerprint {
    /// Per-machine sim-domain results, in machine order.
    outcomes: Vec<OutcomeRow>,
    /// Counter totals re-aggregated from the streamed shard files, all
    /// matching exactly: the campaign decodes the bundle before any
    /// machine runs, so every machine's lookup is a `cache.bundle_hit`.
    counters: BTreeMap<String, u64>,
    /// Sketch totals from the shard files, each rendered as its
    /// `to_json_line` so the comparison is byte-exact. Every sketch in
    /// the shards (`machine.smm_dwell_ns`) is simulated-domain.
    sketches: BTreeMap<String, String>,
    /// Span/event record counts across all shards.
    spans: u64,
    events: u64,
    /// The per-machine outcome lines from the shards, keyed by machine:
    /// (worker, ok, attempts, sim_clock_ns).
    machine_lines: BTreeMap<u64, (u64, bool, u64, u64)>,
}

/// (machine, ok, attempts, retries, sim_clock_ns, latency_ns, digest).
type OutcomeRow = (usize, bool, u32, u64, u64, Option<u64>, [u8; 32]);

fn fingerprint(report: &CampaignReport, stream_dir: &Path, workers: usize) -> SimDomainFingerprint {
    let mut shards = ShardData::new();
    for worker in 0..workers {
        let path = stream_dir.join(format!("worker-{worker}.jsonl"));
        shards
            .parse_into(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    let machine_lines = shards
        .machines
        .iter()
        .map(|m| (m.machine, (m.worker, m.ok, m.attempts, m.sim_clock_ns)))
        .collect();
    SimDomainFingerprint {
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
        machine_lines,
    }
}

/// The pipelining determinism gate: across pipeline depths {1, 4,
/// machines} and worker counts {1, 8} — with one injected fault and
/// retry in the fleet — state digests are byte-identical, per-machine
/// sim clocks and attempt counts agree, and the re-aggregated shard
/// metrics equal the sequential reference's exactly. Only wall time may
/// differ.
#[test]
fn pipelining_and_sharding_preserve_the_simulated_domain() {
    const MACHINES: usize = 6;
    let (target, bytes) = fixture();
    let base = |workers: usize, depth: usize| {
        FleetConfig::new(MACHINES, workers)
            .with_seed(0xD137)
            .with_pipeline_depth(depth)
            .with_fault(PlannedFault {
                machine: 2,
                smm_write_index: 3,
            })
    };
    let scratch = std::env::temp_dir().join(format!("kshot-pipeline-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let run = |label: &str, workers: usize, depth: usize| {
        let dir = scratch.join(label);
        let report = run_campaign(target, bytes, &base(workers, depth).with_stream_dir(&dir));
        assert_eq!(report.succeeded, MACHINES, "{label}: {:?}", report.outcomes);
        assert_eq!(report.retries, 1, "{label}");
        assert_eq!(report.faults_injected, 1, "{label}");
        assert!(report.all_identical_digests(), "{label}");
        fingerprint(&report, &dir, workers)
    };

    let reference = run("seq", 1, 1);
    // The sketch comparison below must not be vacuous: every SMI's
    // dwell, the faulted attempt's included, lands in this sketch.
    assert!(
        reference.sketches.contains_key("machine.smm_dwell_ns"),
        "{:?}",
        reference.sketches.keys()
    );
    for (label, workers, depth) in [
        ("w1-d4", 1, 4),
        ("w1-dmax", 1, MACHINES),
        ("w8-d1", 8, 1),
        ("w8-d4", 8, 4),
        ("w8-dmax", 8, MACHINES),
    ] {
        let fp = run(label, workers, depth);
        // Worker assignment moves with the worker count; everything
        // else must match the sequential reference bit-for-bit.
        assert_eq!(
            fp.outcomes, reference.outcomes,
            "{label}: outcomes diverged"
        );
        assert_eq!(
            fp.counters, reference.counters,
            "{label}: shard counters diverged"
        );
        assert_eq!(
            fp.sketches, reference.sketches,
            "{label}: shard sketches diverged"
        );
        assert_eq!(fp.spans, reference.spans, "{label}: span counts diverged");
        assert_eq!(
            fp.events, reference.events,
            "{label}: event counts diverged"
        );
        let strip = |m: &BTreeMap<u64, (u64, bool, u64, u64)>| -> BTreeMap<u64, (bool, u64, u64)> {
            m.iter().map(|(k, v)| (*k, (v.1, v.2, v.3))).collect()
        };
        assert_eq!(
            strip(&fp.machine_lines),
            strip(&reference.machine_lines),
            "{label}: shard machine lines diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
