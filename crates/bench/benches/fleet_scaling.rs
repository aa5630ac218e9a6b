//! Fleet scaling bench: one campaign per worker count and per pipeline
//! depth, fixed fleet size.
//!
//! Wall time here is dominated by the modelled per-session link RTT, so
//! the interesting output is how throughput scales as sessions overlap —
//! either across worker threads or across pipelined sessions on a
//! *single* worker (the per-machine simulated cost is identical in
//! every row — determinism is per machine, concurrency is only in the
//! schedule). On a single-core host expect a knee once the fleet's
//! total CPU time exceeds the sleep time left to overlap — more
//! workers or depth past that point only add contention.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kshot::fleet::{run_campaign, CampaignTarget, FleetConfig};
use kshot_cve::{find, patch_for};
use std::time::Duration;

fn fleet_scaling(c: &mut Criterion) {
    let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
    let (target, server) = CampaignTarget::benchmark(spec.version);
    let info = target.boot_one().info();
    let bytes = server
        .build_patch(&info, &patch_for(spec))
        .expect("server builds the CVE patch")
        .bundle
        .encode();

    let mut group = c.benchmark_group("fleet_scaling");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("32_machines", workers),
            &workers,
            |b, &workers| {
                let config = FleetConfig::new(32, workers)
                    .with_seed(0xF1EE7)
                    .with_link_rtt(Duration::from_millis(20));
                b.iter(|| {
                    let report = run_campaign(&target, &bytes, &config);
                    assert_eq!(report.failed, 0);
                    report.succeeded
                });
            },
        );
    }
    group.finish();

    // Same fleet, one worker, varying pipeline depth: measures how much
    // link latency the event-driven scheduler hides without any extra
    // threads. Depth 1 is the sequential baseline.
    let mut group = c.benchmark_group("fleet_pipelining");
    group.sample_size(10);
    for depth in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("32_machines_1_worker", depth),
            &depth,
            |b, &depth| {
                let config = FleetConfig::new(32, 1)
                    .with_seed(0xF1EE7)
                    .with_link_rtt(Duration::from_millis(20))
                    .with_pipeline_depth(depth);
                b.iter(|| {
                    let report = run_campaign(&target, &bytes, &config);
                    assert_eq!(report.failed, 0);
                    report.succeeded
                });
            },
        );
    }
    group.finish();

    // Retained vs folded on a compute-bound fleet (no link RTT): the
    // fold path skips the per-machine recorder scope and record stream
    // and replaces the outcome vector + exact latency sort with O(log n)
    // fold state — the per-machine throughput gap is the whole point of
    // fold mode. Both modes boot every machine from the one shared image
    // onto sparse memory, so neither pays for RAM a machine never writes.
    let mut group = c.benchmark_group("fleet_fold");
    group.sample_size(10);
    for (label, fold) in [("retained", false), ("folded", true)] {
        group.bench_with_input(
            BenchmarkId::new("128_machines_1_worker", label),
            &fold,
            |b, &fold| {
                let mut config = FleetConfig::new(128, 1).with_seed(0xF01D);
                if fold {
                    config = config.with_outcome_fold();
                }
                b.iter(|| {
                    let report = run_campaign(&target, &bytes, &config);
                    assert_eq!(report.failed, 0);
                    if fold {
                        report.fold.as_ref().expect("fold report").merkle_root()[0] as usize
                    } else {
                        report.succeeded
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, fleet_scaling);
criterion_main!(benches);
