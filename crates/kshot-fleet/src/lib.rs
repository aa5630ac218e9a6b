#![warn(missing_docs)]

//! # kshot-fleet — parallel multi-machine patch campaigns
//!
//! The paper evaluates KShot on a single prototype machine; a realistic
//! deployment pushes one security fix to a *fleet*. This crate is the
//! campaign orchestrator for that scenario: it drives N independent
//! simulated machines through the full KShot session (attest → deliver →
//! SMI → verify → apply) concurrently across a worker thread pool.
//!
//! Design points:
//!
//! * **One bundle, many machines.** The patch server builds and encodes
//!   the bundle once. Before any worker starts, `run_campaign` decodes
//!   each blob once through a [`kshot_patchserver::BundleCache`] of its
//!   own and resolves what every attempt delivers; under batching that
//!   is the encoded merge of the patches not yet applied, built once
//!   per campaign. Every attempt is one
//!   [`kshot_core::KShot::live_patch_wire`] call on those bytes, and a
//!   delivery that could not be built fails each machine once.
//! * **Deterministic machines, concurrent fleet.** Each machine stays
//!   deterministic and single-threaded (its own clock, its own
//!   splitmix64-derived seed); only the *sharding* across workers is
//!   concurrent. One placement serves every campaign: consecutive
//!   blocks of `max(1, ⌈machines / (workers × 64)⌉)` machines dealt
//!   round-robin, so the machine→worker mapping is deterministic, up to
//!   64 machines per worker it is exact round-robin, and no worker owns
//!   more than 64 blocks.
//! * **Pipelined sessions hide the link.** Campaign wall time is
//!   dominated by the orchestrator↔machine RTT, not compute. Each
//!   worker is an event-driven scheduler over resumable
//!   `MachineSession` state machines (Boot → Install → InFlight →
//!   Patch → Done): with
//!   [`FleetConfig::with_pipeline_depth`] > 1 it steps other machines'
//!   CPU phases while one machine's delivery is in flight, parking
//!   waits in a deadline-ordered map instead of blocking in
//!   `thread::sleep`. Every resumed step re-enters the machine's own
//!   recorder scope, so simulated-domain results are byte-identical at
//!   every depth; [`CampaignReport::worker_occupancy`] shows the
//!   busy/in-flight split the pipelining buys.
//! * **Failure is expected.** A campaign can plan per-machine faults
//!   (via `kshot-machine`'s injection engine); a failed session is
//!   recovered with [`kshot_core::KShot::recover`] and retried under
//!   simulated exponential backoff, up to a configurable attempt cap
//!   per patch. Only what did not land is retried: a fault after the
//!   journal committed surfaces as [`kshot_core::KShotError::Committed`]
//!   and counts the attempted patches as landed, and the segments a
//!   recovery preserved count as landed too. A campaign that fails as a
//!   whole is a typed [`CampaignError`] from [`try_run_campaign`].
//! * **One campaign path.** Each worker folds every block it owns, in
//!   machine order, into an [`OutcomeFold`] (counters, a mergeable
//!   latency sketch, capped dwell attribution, and a
//!   [`kshot_telemetry::DigestTree`] Merkle roll-up), and the campaign
//!   merges the block folds in block order. Every summary in the
//!   [`CampaignReport`] — counts, latency percentiles, throughput
//!   (simulated and wall-clock), dwell anomalies, the digest root, the
//!   rollout counters — is read from that fold. Keeping the outcomes
//!   is an observer on the same path: with
//!   [`FleetConfig::retain_outcomes`] (the default) each folded outcome
//!   and its machine's recorder are kept as well and merged in machine
//!   order.
//! * **Streaming observability.** With [`FleetConfig::with_stream_dir`]
//!   each worker streams its machines' telemetry to a per-worker
//!   `worker-<N>.jsonl` shard as it happens; the shards re-aggregate
//!   (via [`kshot_telemetry::ShardData`]) to exactly the in-memory
//!   merged totals, so a campaign that keeps no outcomes can drop the
//!   record stream without losing anything. An SMM dwell-time watchdog
//!   ([`FleetConfig::with_smm_dwell_budget`]) flags machines whose SMIs
//!   overstay their budget in [`CampaignReport::dwell_anomalies`].
//! * **Live health plane.** [`FleetConfig::with_health`] arms a
//!   [`kshot_telemetry::HealthMonitor`] that the campaign's calling
//!   thread polls every millisecond, tailing the worker shards *while
//!   the workers run*; it folds machines into fixed
//!   windows, judges each against a declarative
//!   [`kshot_telemetry::HealthPolicy`], and streams schema-versioned
//!   snapshots to `<stream_dir>/health.jsonl`. The snapshot sequence is
//!   byte-identical across worker counts and pipeline depths; the final
//!   [`CampaignHealth`] (with how much was detected mid-campaign) lands
//!   in [`CampaignReport::health`].
//! * **SMI flight recorder + integrity plane.** Every SMI a machine
//!   takes appends a bounded, schema-versioned
//!   [`kshot_machine::SmiFlightRecord`] (cause, handler measurement at
//!   entry, ordered write-set, journal ops, dwell, exit status) to the
//!   machine's flight ring; streaming campaigns render each record as
//!   one `smi` line inside the machine's shard parcel, byte-identical
//!   across worker counts, pipeline depths, and batched/sequential
//!   modes. [`FleetConfig::with_integrity`] replays that stream through
//!   a detached [`kshot_telemetry::IntegrityMonitor`] judging each record
//!   against declarative invariants (sealed handler measurement,
//!   write-set containment, journal grammar, dwell budget); violations
//!   escalate the machine's health window to Halt — driving the staged
//!   rollout's auto-rollback — and the final
//!   [`kshot_telemetry::IntegrityReport`] lands in
//!   [`CampaignReport::integrity`]. [`FleetConfig::with_attack`] arms
//!   the four adversarial scenarios (handler tamper, rogue SMM write,
//!   journal abuse, dwell exhaustion) the plane must catch.
//! * **Multi-CVE catalogues, batched SMIs.**
//!   [`FleetConfig::with_catalogue`] drives every machine through a
//!   catalogue of k encoded bundles instead of one; `run_campaign`
//!   resolves one patch list per campaign, so a single bundle is a
//!   one-entry list on the same session path.
//!   [`FleetConfig::with_batched_smi`] merges the whole catalogue into
//!   a single SMI with [`kshot_core::batch_bundle`], once per campaign,
//!   paying the fixed SMM entry+exit cost once per machine instead of
//!   k times (the dwell watchdog budget scales by k). The journal is
//!   segmented per CVE, so a mid-batch fault preserves the committed
//!   prefix and the session retries from the first unapplied CVE;
//!   batched and sequential campaigns produce byte-identical applied
//!   state at every worker count and pipeline depth.
//! * **Staged rollouts.** [`FleetConfig::with_rollout`] layers a wave
//!   scheduler on top: a [`RolloutPlan`] partitions the fleet into a
//!   canary cohort plus an exponential ramp, admission into each wave
//!   is gated on the previous wave's health windows all judging
//!   Healthy, and a Halt verdict stops admission *and* auto-rolls-back
//!   the halted wave's patched machines through
//!   [`kshot_core::KShot::rollback_last`] (journal-recovered when
//!   partial). The plan can also calibrate the ramp's SMM dwell budget
//!   from the canary cohort's own dwell p99. The wave sequence, halt
//!   point, and rollback set are byte-identical across worker counts
//!   and pipeline depths; the [`RolloutReport`] lands in
//!   [`CampaignReport::rollout`]. Its counters come from the fold, so a
//!   rollout runs folded as readily as retained.
//! * **Million-machine folding.** [`FleetConfig::with_outcome_fold`]
//!   clears `retain_outcomes`: the report keeps only the fold, sessions
//!   retire fully at completion, and resident state is bounded by the
//!   workers, the pipeline depth and at most 64 block folds per worker,
//!   plus a logarithmic Merkle frontier. Root equality of the digest
//!   roll-up replaces the all-pairs digest comparison, and
//!   [`kshot_telemetry::FullDigestTree`] can name the first diverging
//!   machine between two retained runs. Every machine boots from the
//!   campaign's one shared kernel image, and simulated memory owns only
//!   the pages a machine writes, so a patched machine costs its 21
//!   written pages rather than 26 MB of address space.

pub mod campaign;
pub mod config;
pub mod fold;
pub mod report;
pub mod rollout;
mod session;

pub use campaign::{run_campaign, try_run_campaign, CampaignError, CampaignTarget, MachineOutcome};
pub use config::{FleetConfig, PlannedAttack, PlannedFault, PlannedSlowdown};
pub use fold::OutcomeFold;
pub use kshot_telemetry::{
    HealthPolicy, HealthReport, HealthVerdict, IntegrityPolicy, IntegrityReport, IntegrityVerdict,
};
pub use report::{CampaignHealth, CampaignReport, WorkerOccupancy, DWELL_ANOMALY_CAP};
pub use rollout::{RolloutPlan, RolloutReport, Wave, WaveOutcome};
