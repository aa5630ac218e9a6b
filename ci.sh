#!/usr/bin/env bash
# Tier-1 gate, fully offline: formatting, lints, build, tests.
#
# `cargo test -q` covers the default members (everything except the
# Criterion benches in crates/bench and the dependency shims in shims/;
# run those explicitly with `cargo test -p bench` / `-p proptest` etc.).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --exclude bench --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

# Crash-consistency gates (also part of `cargo test -q`, but named here
# so a failure reads as what it is): the exhaustive patch/rollback fault
# sweep, and the deterministic fuzz of Channel::open frame orderings
# (drop/reorder/duplicate/tamper/resync).
echo "== fault sweep =="
cargo test -q -p kshot --test fault_sweep

echo "== channel ordering fuzz =="
cargo test -q -p kshot-patchserver --test prop_channel_orderings

# Sparse physical memory gates: random writes, reads, slices, attribute
# changes and clone-then-diverge sequences against a dense model (reads
# always match, slices match or fail typed, clones stay isolated), and
# the allocator-independent footprint bound (a booted, installed and
# patched fleet machine owns at most 32 pages; a snapshot shares every
# run until the next write).
echo "== sparse memory model + footprint =="
cargo test -q -p kshot-machine --test prop_phys_model
cargo test -q -p kshot --test memory_footprint

# Fleet gates: the byte-identical-applied-state property (including
# under an injected fault + retry, across pipeline depths and worker
# counts), the incremental shard-tail and injection-accounting
# regression tests, and the campaign smoke run, which itself asserts
# zero failures, >=4x wall-clock scaling from 8 workers, and >=4x from
# pipeline depth 16 on a single worker with digests identical to the
# sequential run, then writes the benchmark artefact this gate checks.
echo "== fleet identical-state property =="
cargo test -q -p kshot-fleet --test prop_fleet_identical

echo "== shard tail + injection accounting regressions =="
cargo test -q -p kshot-telemetry tail_
cargo test -q -p kshot-fleet unfired_injection_plan_is_disarmed_and_accounted_on_success
cargo test -q -p kshot-fleet pipelined_worker_matches_sequential_results

# Health-plane gates: the quantile sketch's documented error bound and
# merge-order independence over randomized distributions, and the
# byte-identical health.jsonl stream across worker counts and pipeline
# depths (with deterministic Degraded/Halt verdicts under an injected
# fault).
echo "== sketch error-bound property =="
cargo test -q -p kshot-telemetry --test prop_sketch

# Roll-up gates: the Merkle accumulator's unit surface (append/merge/
# root/divergence/frontier round-trip), the fleet fold's merge-equals-
# sequential-fold property plus the fold-mode campaign tests (fold ==
# retained summaries, pipelined reorder, streamed roll-up lines
# reconstructing the campaign root), and the cross-scheduler
# root-vs-digest-vector property with the exact divergence locator.
echo "== merkle roll-up + outcome folding =="
cargo test -q -p kshot-telemetry merkle
cargo test -q -p kshot-telemetry rollup
cargo test -q -p kshot-fleet fold
cargo test -q -p kshot --test merkle_rollup

echo "== health stream determinism =="
cargo test -q -p kshot-fleet --test health_stream

# Rollout gate: canary→ramp admission order, a mid-campaign Halt that
# stops admission, auto-rollback restoring the never-patched digest
# (and the session error paths the orchestrator trusts: folded
# injection stats on decode failure, terminal recovery failures), and
# a byte-identical wave trail + health stream across worker counts and
# pipeline depths.
echo "== rollout: staged waves, auto-halt, rollback determinism =="
cargo test -q -p kshot --test rollout
cargo test -q -p kshot-fleet decode_failure_terminal_path_folds_injection_stats
cargo test -q -p kshot-fleet failed_recovery_is_terminal_and_counted

# Batched-SMI gates: the per-CVE journal-segmentation fault sweep
# (fail-write and power-loss at every SMM write index of a 3-CVE batch;
# recovery preserves exactly the committed CVE prefix and the machine
# matches a prefix-patched reference byte-for-byte), and the fleet
# catalogue tests (batched == sequential digests, decode-once cache
# accounting, faulted-batch resume).
echo "== batched-SMI fault sweep + fleet catalogue =="
cargo test -q -p kshot --test fault_sweep batched
cargo test -q -p kshot-fleet catalogue_campaign_batched_matches_sequential
cargo test -q -p kshot-fleet batched_catalogue_decodes_once_per_blob
cargo test -q -p kshot-fleet faulted_batched_machine_retries_and_matches

echo "== fleet campaign smoke (incl. pipelined + rollout gates) =="
rm -f BENCH_fleet.json
cargo run --release --example fleet_campaign
test -f BENCH_fleet.json
grep -q '"failed":0' BENCH_fleet.json
grep -q '"pipelined":{' BENCH_fleet.json
grep -q '"identical_digests":true' BENCH_fleet.json
# The healthy rollout ran every planned wave; the faulted one halted at
# wave 1 and rolled back exactly the wave's two patched machines.
grep -q '"rollout_healthy":{' BENCH_fleet.json
grep -q '"halt_wave":null' BENCH_fleet.json
grep -q '"halt_verdict":"halt"' BENCH_fleet.json
grep -q '"rolled_back":2' BENCH_fleet.json
grep -q '"not_admitted":6' BENCH_fleet.json
# The batched-SMI crossover stage ran: one merged SMI beat k sequential
# deliveries at k=4, and one rollback_last popped exactly the last CVE.
grep -q '"batched":{' BENCH_fleet.json
grep -q '"batched_beats_sequential":true' BENCH_fleet.json
grep -q '"rollback_pops_last_cve":true' BENCH_fleet.json
# Million-machine scale gate: the fold + Merkle-roll-up stage ran a
# >=100k-machine campaign (6+ digit machine count), its Merkle root was
# byte-identical across the workers {1,8} x depths {1,4} grid AND equal
# to the retained 64-machine digest-vector root, and the fold's
# resident footprint stayed under 1/10th of the measured retained
# equivalent.
grep -q '"scale":{' BENCH_fleet.json
grep -Eq '"scale":\{"machines":[1-9][0-9]{5}' BENCH_fleet.json
grep -q '"merkle_root_identical":true' BENCH_fleet.json
grep -q '"root_matches_digest_vector":true' BENCH_fleet.json
grep -q '"resident_bounded":true' BENCH_fleet.json

# Streaming observability gate: the example streams a 32-machine
# campaign to per-worker JSON-lines shards, tails them *live* with a
# windowed HealthMonitor, re-aggregates them from disk, and asserts
# (internally, exiting non-zero on failure) that the shard totals and
# phase profile equal the in-memory merge, that the dwell watchdog
# flags exactly the one slowed machine, and that the health plane
# flagged that machine's window in a Degraded snapshot BEFORE the
# campaign completed. The shell side re-checks the artefacts exist and
# carry the mid-campaign-detection markers.
echo "== streaming observability + live health gate =="
rm -rf target/observe
rm -f BENCH_observe.json
cargo run --release --example observe_report | tee target/observe_report.log
grep -q "OBSERVE OK" target/observe_report.log
grep -q "HEALTH OK" target/observe_report.log
grep -q "degraded mid-campaign" target/observe_report.log
for w in 0 1 2 3; do
  test -s "target/observe/worker-$w.jsonl"
done
test -s target/observe/health.jsonl
test -s BENCH_observe.json
grep -q '"degraded_live":true' BENCH_observe.json
grep -q '"final_verdict":"degraded"' BENCH_observe.json
grep -q '"resident_sketch_bytes":' BENCH_observe.json
grep -q '"agg_lines_per_sec":' BENCH_observe.json

# Integrity gate: the four attack scenarios (handler tamper, rogue
# write, journal abuse, dwell exhaustion) each caught with a typed
# verdict and a specific reason, an integrity Halt driving wave
# auto-rollback to the never-patched digest, and the clean smi
# flight-record stream byte-identical across worker counts, pipeline
# depths and batched/sequential modes. The observe example's attack
# sweep plus clean run land in BENCH_observe.json's "integrity" block:
# all four attacks caught, zero violations on the clean fleet, bounded
# resident monitor memory.
echo "== integrity: flight-record replay, attack sweep, clean-run zero-violation =="
cargo test -q -p kshot-fleet --test integrity_attacks
grep -q '"integrity":{"clean_records":64,"clean_violations":0,' BENCH_observe.json
grep -q '"attacks_caught":4' BENCH_observe.json
grep -q '"clean_resident_bytes":' BENCH_observe.json

echo "CI OK"
