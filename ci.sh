#!/usr/bin/env bash
# Tier-1 gate, fully offline: formatting, lints, build, tests.
#
# `cargo test -q` covers the default members (everything except the
# Criterion benches in crates/bench and the dependency shims in shims/;
# run those explicitly with `cargo test -p bench` / `-p proptest` etc.).
set -euo pipefail
cd "$(dirname "$0")"

# Every named `cargo test` below runs through this: it prints the run's
# output and fails unless the run's `passed` counts add up to at least
# one, so a stale test name cannot drop its gate by matching nothing.
cargo_test() {
  local out passed
  out=$(cargo test -q "$@") || { printf '%s\n' "$out"; return 1; }
  printf '%s\n' "$out"
  passed=$(printf '%s\n' "$out" \
    | sed -n 's/^test result: [a-zA-Z]*\. \([0-9]*\) passed;.*/\1/p' \
    | awk '{ n += $1 } END { print n + 0 }')
  if [ "$passed" -lt 1 ]; then
    echo "no test ran: cargo test -q $*" >&2
    return 1
  fi
}

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
cargo_test -p kshot --test fault_sweep
# A fault after the journal commits surfaces as KShotError::Committed,
# carrying the applied patch's report; recover() heals the key material.
cargo_test -p kshot-core fault_after_commit_surfaces_as_committed

echo "== channel ordering fuzz =="
cargo_test -p kshot-patchserver --test prop_channel_orderings

# Crypto fast paths against their references: Montgomery exponentiation
# equals BigUint::modpow at 8 and 32 limbs (random odd moduli, the
# default prime, MODP-2048; edge-case bases and exponents), the golden
# DH values of both groups, the one-instance-per-group DhParams, and the
# dispatched SHA-256 equal to the portable compressor (FIPS 180-4
# vectors, random lengths and three-way update splits). The log names
# the SHA-256 compressor that ran: sha-ni or portable.
#
# The 2^512 - c field and the generator comb against BigUint::modpow:
# bases 0, 1, p - 1, non-canonical and wide; exponents 0, 1, every width
# from 1 to 264 bits, the 257-bit key and 2^264 - 1, with 2^264 and
# 2^512 refused by the comb; products whose fold carries past 2^512; a
# comb for a generator >= p; MODP-2048 keygens through the comb. Keys
# from 32 to 64 bytes of entropy, through the comb or past it through
# the window, equal modpow and agree on both groups. Degenerate
# generators fail at construction, and HMAC over parts equals HMAC over
# their concatenation. The log names the default group's arithmetic.
echo "== crypto fast paths vs reference =="
cargo_test -p kshot-crypto montgomery
cargo_test -p kshot-crypto golden_dh_values
cargo_test -p kshot-crypto keygens_at_and_past_the_comb_width_match_modpow_and_agree
cargo_test -p kshot-crypto pseudo_mersenne
cargo_test -p kshot-crypto comb_
cargo_test -p kshot-crypto new_picks_the_arithmetic_from_the_modulus_shape
cargo_test -p kshot-crypto new_rejects_degenerate_generator
cargo_test -p kshot-crypto --test prop_crypto hmac_parts_equal_the_concatenation
cargo_test -p kshot-crypto dh::tests::default_group_arithmetic_is_reported -- --nocapture \
  | tee target/dh_path.log
grep -Fq "dh default group: pseudo-mersenne 2^512-569, comb 8x33" target/dh_path.log
cargo_test -p kshot-crypto sha256::tests::fips_vectors_through_both_compressors
cargo_test -p kshot-crypto sha256::tests::dispatched_sha256_equals_portable_over_random_splits
cargo_test -p kshot-crypto sha256::tests::dispatched_compressor_is_reported -- --nocapture \
  | tee target/sha256_path.log
grep -Eq "sha256 compressor: (sha-ni|portable)" target/sha256_path.log
cargo_test -p kshot-core dh_group_params_are_built_once_per_process

# ChaCha20's AVX2 eight-block keystream against the portable block
# function: the RFC 8439 block and encryption vectors through both
# paths, and the dispatched apply equal to the portable path over
# random lengths up to 4 KiB and 1 MiB, counters that wrap inside an
# eight-block group, slices at byte offsets 0-31 and calls split at
# multiples of 64 that are not multiples of 512. The log names the
# keystream path that ran: avx2 or portable.
echo "== ChaCha20 fast path vs reference =="
cargo_test -p kshot-crypto chacha::tests::rfc8439_vectors_through_both_paths
cargo_test -p kshot-crypto chacha::tests::dispatched_keystream_equals_portable
cargo_test -p kshot-crypto chacha::tests::dispatched_keystream_is_reported -- --nocapture \
  | tee target/chacha_path.log
grep -Eq "chacha20 keystream: (avx2|portable)" target/chacha_path.log

# The pass budget, counted by kshot-crypto's per-thread byte counters:
# SHA-256 makes 7 passes over each bundle byte through live_patch_wire,
# 8 through live_patch_bundle (its encode hashes the trailer) and none on
# a BundleCache hit; ChaCha20 makes exactly 4; a Patch record adds no
# pass, since its trampoline record's memx_hash is the payload hash SMM
# verified. Under SHA-256 and SDBM alike, memx_hash is the SHA-256 of the
# placed body, so introspection reads it clean and flags a flipped byte.
# The in-place primitives: seal_owned equals seal and leaves the same
# channel state, a failed open_in_place leaves its buffer and receive
# sequence untouched, the in-place frame parse agrees with Frame::decode
# on every input, and a blob carrying a cached blob's trailer with one
# differing byte is decoded and rejected, never served from the cache.
echo "== pass budget =="
cargo_test -p kshot-crypto counters::tests::every_update_and_apply_is_counted_on_its_own_thread
cargo_test -p kshot-core pass_budget_per_bundle_byte
cargo_test -p kshot-core memx_hash_is_the_sha256_of_the_placed_body_under_both_algorithms
cargo_test -p kshot-patchserver channel::tests::seal_owned_equals_seal_and_leaves_the_same_state
cargo_test -p kshot-patchserver \
  channel::tests::open_in_place_failures_leave_buffer_and_sequence_untouched
cargo_test -p kshot-patchserver --test prop_decode_robustness \
  in_place_frame_parse_agrees_with_frame_decode
cargo_test -p kshot-patchserver \
  cache::tests::a_cached_trailer_with_one_differing_byte_is_decoded_and_rejected
cargo_test -p kshot-patchserver cache::tests::a_blob_shorter_than_a_trailer_is_decoded_and_rejected

# The buffer budget, counted by a counting global allocator: one
# live_patch_wire of a 1 MiB bundle, PlaceOnly or a Patch record with a
# call relocation, takes five payload-sized heap blocks (the server's
# sealed frame, the enclave's package frame, mem_W, SMM's copy of mem_W
# and mem_X). The in-place paths against their references: the in-place
# seal equals seal_owned then Frame::encode byte for byte and leaves the
# same channel state, the borrowing package decode equals an owned
# reference field by field and error by error, and the enclave's bundle
# layout accepts and rejects exactly what PatchBundle::decode does.
echo "== buffer budget + in-place paths =="
cargo_test -p kshot-core --test buffer_budget
cargo_test -p kshot-patchserver channel::tests::seal_in_place_
cargo_test -p kshot-patchserver --test prop_decode_robustness \
  borrowed_package_decode_equals_the_owned_reference
cargo_test -p kshot-patchserver --test prop_decode_robustness \
  bundle_layout_parse_rejects_what_decode_rejects

# Sparse physical memory gates: random writes, reads, slices, attribute
# changes and clone-then-diverge sequences against a dense model (reads
# always match, slices match or fail typed, clones stay isolated), and
# the allocator-independent footprint bound (a booted, installed and
# patched fleet machine owns at most 32 pages; a snapshot shares every
# run until the next write).
echo "== sparse memory model + footprint =="
cargo_test -p kshot-machine --test prop_phys_model
cargo_test -p kshot --test memory_footprint

# Fleet gates: the byte-identical-applied-state property (including
# under an injected fault + retry, across pipeline depths and worker
# counts), the incremental shard-tail and injection-accounting
# regression tests, and the campaign smoke run, which itself asserts
# zero failures, >=4x wall-clock scaling from 8 workers, and >=4x from
# pipeline depth 16 on a single worker with digests identical to the
# sequential run, then writes the benchmark artefact this gate checks.
echo "== fleet identical-state property =="
cargo_test -p kshot-fleet --test prop_fleet_identical
# The campaign decodes each blob once before its workers start, and no
# machine looks a blob up, so no machine's shard parcel carries a cache
# line, whichever worker is first.
cargo_test -p kshot-fleet cache_miss_is_never_charged_to_a_machine
# The campaign hashes a kernel text once while its machines carry that
# text: a repeated text adds exactly its length fewer SHA-256 bytes, a
# text differing in its first, last or one middle byte (or alternating
# with another) digests to its own SHA-256, and a rolled-back machine
# still digests equal to a never-patched one.
cargo_test -p kshot-fleet text_memo_
# The placed bytes go through a memo of their own: a 4-machine fold
# campaign of the 1 MiB bundle hashes its placement once, a placed byte
# changed at the first, middle or last offset misses, and a rolled-back
# machine neither hashes through the memo nor evicts it.
cargo_test -p kshot-fleet placed_memo_

# Committed-fault gates: a fault at every SMM write of the first patch
# SMI, in four shapes (the bundle, a one-entry catalogue, a sequential
# and a batched two-CVE catalogue), ends patched with the clean run's
# digest, and no fault at or after the journal's commit costs a retry.
# From the commit write on (the commit write itself included), every
# fault also reports the clean run's latency.
# The same post-commit fault leaves digests and re-aggregated shard
# metrics identical across workers {1,8} x depths {1,4}, and on a
# canary machine it keeps a 32-machine rollout healthy in every wave.
echo "== committed fault sweep =="
cargo_test -p kshot-fleet --test committed_fault_sweep
cargo_test -p kshot-fleet --test committed_fault_sweep committed_sweep_
cargo_test -p kshot-fleet --test committed_fault_sweep committed_fault_is_scheduler_invariant
cargo_test -p kshot-fleet --test committed_fault_sweep \
  committed_fault_on_a_canary_keeps_the_rollout_healthy

echo "== shard tail + injection accounting regressions =="
cargo_test -p kshot-telemetry tail_
# The campaign's one live tailer, HealthMonitor::poll: a torn final
# line waits for the next poll, polling a growing shard judges what one
# poll of the whole file judges, and a shard truncated under the
# monitor is a typed error naming its path.
cargo_test -p kshot-telemetry health::tests::tail_torn_final_line_waits_for_the_next_poll
cargo_test -p kshot-telemetry \
  health::tests::tail_polls_across_snapshots_match_one_poll_of_the_whole_file
cargo_test -p kshot-telemetry health::tests::tail_truncated_shard_is_a_typed_error_naming_the_path
# An unterminated final line over the line cap fails the poll typed,
# naming the byte it starts at, instead of being re-read every poll.
cargo_test -p kshot-telemetry \
  health::tests::tail_unterminated_line_over_the_cap_is_a_typed_error
cargo_test -p kshot-fleet unfired_injection_plan_is_disarmed_and_accounted_on_success
cargo_test -p kshot-fleet pipelined_worker_matches_sequential_results

# Health-plane gates: the quantile sketch's documented error bound and
# merge-order independence over randomized distributions, its u64
# saturation pins through registry merges, a hostile min > max sketch
# line failing typed in both ShardData::parse (among the malformed
# lines) and HealthMonitor::poll, a duplicate, an out-of-range and an
# ok-less machine line each failing typed and naming the machine,
# the phase profile's state bounded by distinct values (not samples),
# and the byte-identical health.jsonl stream across worker counts and
# pipeline depths (with deterministic Degraded/Halt verdicts under an
# injected fault).
#
# Shard-line intake: an unknown line type and a malformed smi line fail
# typed; a machine line spelled `"type": "machine"` still closes its
# parcel; an smi line naming another machine than its parcel's fails
# typed; an open parcel counts in the monitor's resident state and
# 10k machine-less metric blocks stay bounded; every typed line
# round-trips through its writer and the decoder, and truncated,
# duplicated or nested-"type" lines end in a verdict or a typed error;
# a real campaign's re-spaced shards judge like the compact ones; and a
# monitor that fails under a rollout fails closed instead of hanging.
echo "== sketch error-bound property =="
cargo_test -p kshot-telemetry --test prop_sketch
cargo_test -p kshot-telemetry sketch_merge_saturates_at_u64_boundaries
cargo_test -p kshot-telemetry rejects_version_drift_and_malformed_lines
cargo_test -p kshot-telemetry hostile_sketch_line_is_a_typed_parse_error
cargo_test -p kshot-telemetry duplicate_machine_line_is_a_typed_parse_error
cargo_test -p kshot-telemetry out_of_range_machine_line_is_a_typed_parse_error
cargo_test -p kshot-telemetry machine_line_without_ok_is_a_typed_parse_error
cargo_test -p kshot-telemetry profile_size_tracks_distinct_values_not_samples
cargo_test -p kshot-telemetry unknown_line_type_is_a_typed_parse_error
cargo_test -p kshot-telemetry malformed_record_is_flagged_not_ignored
cargo_test -p kshot-telemetry spaced_machine_line_closes_its_parcel
cargo_test -p kshot-telemetry smi_line_of_another_machine_is_a_typed_parse_error
cargo_test -p kshot-telemetry open_parcel_counts_in_resident_state_until_its_machine_line
cargo_test -p kshot-telemetry ten_k_metric_blocks_without_a_machine_line_stay_bounded
cargo_test -p kshot-telemetry --test prop_shard_intake
# The shard writer and reader. A small observed campaign's worker-0.jsonl
# and health.jsonl equal their goldens byte for byte (wall-clock fields
# and process-global span numbers masked), and so do hand-built lines
# through every line writer. The reader reads integers exactly, rejects
# a fraction, an exponent or an overflow, and names an unknown or a
# duplicated key. Each typed line round-trips over every u64, and on
# respelled lines of every type the reader agrees with the json::parse
# oracle. The log prints the reader's rate over the golden shard; no
# timing is asserted.
echo "== shard writer and reader =="
cargo_test -p kshot-fleet --test shard_golden
cargo_test -p kshot-telemetry shard::tests::decode_reads_integers_exactly
cargo_test -p kshot-telemetry shard::tests::decode_rejects_fractions_exponents_and_overflow
cargo_test -p kshot-telemetry shard::tests::decode_rejects_duplicate_keys
cargo_test -p kshot-telemetry shard::tests::decode_rejects_unknown_keys
cargo_test -p kshot-telemetry --test prop_shard_intake typed_lines_round_trip
cargo_test -p kshot-telemetry --test prop_shard_intake reader_agrees_with_the_json_oracle
cargo_test --release -p kshot-fleet --test shard_golden golden_shard_decode_rate_is_printed \
  -- --nocapture | tee target/shard_decode_rate.log
grep -Eq "golden shard \([0-9]+ bytes\): ShardData::parse [0-9]+ MB/s" target/shard_decode_rate.log
# Long lines: the JSON string decoder is linear (256 KiB under 250 ms
# and 4 MiB under 1 s in the debug profile), the fleet's longest line (a
# full 2048-bucket sketch) decodes under the 256 KiB line cap, a longer
# line is a typed error in ShardData::parse and HealthMonitor::poll, and
# shards carrying one line at the cap's edge or 1-4 MiB over it end in a
# verdict or a typed error within the property's time bound.
cargo_test -p kshot-telemetry json::tests::long_strings_parse_in_linear_time
cargo_test -p kshot-telemetry full_sketch_line_decodes_under_the_cap
cargo_test -p kshot-telemetry over_long_
cargo_test -p kshot-telemetry --test prop_shard_intake \
  long_lines_yield_a_verdict_or_a_typed_error_in_time
cargo_test -p kshot-fleet --test health_stream respaced_campaign_shards_judge_like_the_compact_ones
cargo_test -p kshot-fleet --test health_stream monitor_failure_under_a_rollout_fails_closed
# A worker panic ends a health-monitored campaign with the worker's own
# panic instead of hanging it (the test times out after 60 s).
cargo_test -p kshot-fleet --test health_stream worker_panic_ends_a_monitored_campaign
# Under a rollout, the panic also fails the rollout closed, so the
# surviving workers stop waiting on the dead worker's wave.
cargo_test -p kshot-fleet --test health_stream worker_panic_ends_a_monitored_rollout

# Roll-up gates: the Merkle accumulator's unit surface (append/merge/
# root/divergence/frontier round-trip), the fleet fold's merge-equals-
# sequential-fold property plus the fold-only campaign tests (fold ==
# retained summaries, pipelined reorder, streamed per-block roll-up
# lines reconstructing the campaign root), the block placement property
# every campaign's folds rest on, and the cross-scheduler
# root-vs-digest-vector property with the exact divergence locator.
echo "== merkle roll-up + outcome folding =="
cargo_test -p kshot-telemetry merkle
cargo_test -p kshot-telemetry rollup
cargo_test -p kshot-fleet fold
cargo_test -p kshot-fleet placement_deals_adjacent_blocks_round_robin
cargo_test -p kshot --test merkle_rollup

echo "== health stream determinism =="
cargo_test -p kshot-fleet --test health_stream

# Rollout gate: canary→ramp admission order, a mid-campaign Halt that
# stops admission, auto-rollback restoring the never-patched digest
# (and the session error paths the orchestrator trusts: folded
# injection stats on decode failure, terminal recovery failures), a
# byte-identical wave trail + health stream across worker counts and
# pipeline depths, and rollouts that keep no outcomes reporting the
# same rollout, health stream and root as their retained twins.
echo "== rollout: staged waves, auto-halt, rollback determinism =="
cargo_test -p kshot --test rollout
cargo_test -p kshot --test rollout folded_rollouts_match_their_retained_twins
cargo_test -p kshot-fleet decode_failure_terminal_path_folds_injection_stats
cargo_test -p kshot-fleet failed_recovery_is_terminal_and_counted

# Batched-SMI gates: the per-CVE journal-segmentation fault sweep
# (fail-write and power-loss at every SMM write index of a 3-CVE batch;
# recovery preserves exactly the committed CVE prefix and the machine
# matches a prefix-patched reference byte-for-byte), and the fleet
# catalogue tests (batched == sequential digests, decode-once cache
# accounting, a batch that cannot merge failing each machine once,
# faulted-batch resume).
echo "== batched-SMI fault sweep + fleet catalogue =="
cargo_test -p kshot --test fault_sweep batched
cargo_test -p kshot-fleet catalogue_campaign_batched_matches_sequential
cargo_test -p kshot-fleet batched_catalogue_decodes_once_per_blob
cargo_test -p kshot-fleet unmergeable_batch_fails_each_machine_once
cargo_test -p kshot-fleet faulted_batched_machine_retries_and_matches

# The campaign contract by value: the CVE-2017-17806 campaign roots of
# BENCH_fleet.json and perfbench/pinned.json with their simulated p50
# and longest SMM dwell, the 1 MiB bundle's figures and 24-machine root,
# the batched stage's simulated p50s at k = 1, 2, 4, and both rollout
# roots.
echo "== campaign contract =="
cargo_test -p kshot --test campaign_contract

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
grep -Eq '"scale":\{[^}]*"merkle_root":"d64e6e4a34666426cac8c4eae24244aa45bb4cd2981699099bc0ff7e6cec711d"' \
  BENCH_fleet.json
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
cargo_test -p kshot-fleet --test integrity_attacks
grep -q '"integrity":{"clean_records":64,"clean_violations":0,' BENCH_observe.json
grep -q '"attacks_caught":4' BENCH_observe.json
grep -q '"clean_resident_bytes":' BENCH_observe.json

echo "CI OK"
