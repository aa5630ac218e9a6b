//! Campaign configuration: fleet size, worker pool, retry policy,
//! planned faults, streaming export, the SMM dwell watchdog, and the
//! live health monitor.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use kshot_machine::{AttackKind, SimTime};
use kshot_telemetry::{HealthPolicy, IntegrityPolicy};

use crate::rollout::RolloutPlan;

/// A fault the campaign arms on one machine before its first attempt.
///
/// The underlying mechanism is `kshot-machine`'s one-shot injection plan
/// ([`kshot_machine::InjectionPlan::fail_nth_smm_write`]): the machine's
/// n-th SMM-context write faults, the session fails mid-apply, and the
/// campaign's retry loop must recover and re-patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Index of the machine (0-based) the fault is armed on.
    pub machine: usize,
    /// Which SMM-context write of that machine's first attempt faults.
    pub smm_write_index: u64,
}

/// A deliberately slow machine: its SMM-stage costs are scaled by
/// `factor`, so every SMI dwells `factor`× longer in SMM. Campaigns use
/// this to validate the dwell watchdog: a slowed machine should be the
/// one (and only) machine the campaign flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedSlowdown {
    /// Index of the machine (0-based) to slow down.
    pub machine: usize,
    /// Multiplier applied to the machine's SMM cost-model entries
    /// (clamped to ≥ 1).
    pub factor: u32,
}

/// An attack the campaign arms on one machine after its KShot install
/// (so the handler image is sealed and measured before the attack can
/// touch it). The underlying mechanism is `kshot-machine`'s one-shot
/// [`AttackKind`] actuation: the attack fires inside the machine's next
/// patch SMI, where the flight recorder observes its effect and the
/// detached [`kshot_telemetry::IntegrityMonitor`] must flag it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedAttack {
    /// Index of the machine (0-based) the attack is armed on.
    pub machine: usize,
    /// What the attack does. See [`AttackKind`].
    pub kind: AttackKind,
}

/// Simulated backoff charged to a machine's clock after its first failed
/// attempt on a patch; it doubles with each further failed attempt.
pub(crate) const BACKOFF_BASE: SimTime = SimTime::from_ms(50);

/// Everything a campaign plans for one machine: at most one plan of each
/// kind. The builders keep the first plan of a kind they are given.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Perturbation {
    /// SMM write index to fault, counted from the end of install.
    pub(crate) fault: Option<u64>,
    /// SMM write index to fault inside the machine's first `recover()`.
    pub(crate) recovery_fault: Option<u64>,
    /// Multiplier on the machine's SMM stage costs.
    pub(crate) slowdown: Option<u32>,
    /// Attack armed after install.
    pub(crate) attack: Option<AttackKind>,
}

/// Configuration of one fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated machines to patch.
    pub machines: usize,
    /// Number of OS worker threads to shard machines across.
    pub workers: usize,
    /// Campaign-level seed; machine `i` derives its own seed as
    /// `splitmix64(seed + i)`, so campaigns are reproducible while
    /// machines stay distinguishable.
    pub seed: u64,
    /// Maximum session attempts per patch (first try + retries).
    pub max_attempts: u32,
    /// Real (wall-clock) network round-trip charged per session attempt,
    /// modelling the orchestrator↔machine link. This is what makes fleet
    /// campaigns latency-bound and worker parallelism observable even on
    /// a single-core host: sleeps overlap across workers.
    pub link_rtt: Duration,
    /// When set, each worker streams its machines' telemetry to
    /// `<stream_dir>/worker-<N>.jsonl` as machines complete (per machine
    /// its retained records in emit order, its `smi` lines, one metrics
    /// block and one `machine` outcome line; one `rollup` line per
    /// placement block). See `kshot_telemetry::StreamSink`.
    pub stream_dir: Option<PathBuf>,
    /// SMM dwell-time budget armed on every machine; SMIs dwelling
    /// longer are counted and reported in
    /// `CampaignReport::dwell_anomalies`.
    pub smm_dwell_budget: Option<SimTime>,
    /// How many of one worker's machines may be in flight at once.
    ///
    /// `1` (the default) reproduces the classic behaviour: a worker
    /// drives one machine end-to-end before starting the next, blocking
    /// through every link RTT. Larger depths let the worker overlap one
    /// machine's in-flight delivery (or retry backoff) with other
    /// machines' CPU phases — attempt-level interleaving that lifts
    /// single-worker wall throughput on latency-bound campaigns without
    /// spawning threads. Simulated-domain results (state digests, sim
    /// clocks, metrics, shard contents) are identical at every depth.
    pub pipeline_depth: usize,
    /// When set, the campaign's calling thread runs a live
    /// [`kshot_telemetry::HealthMonitor`] tailing the worker shards
    /// while the workers run (requires `stream_dir`); the final
    /// [`kshot_telemetry::HealthReport`] lands in
    /// `CampaignReport::health` and snapshots stream to
    /// `<stream_dir>/health.jsonl`.
    pub health_policy: Option<HealthPolicy>,
    /// Machines per health window (cohort); clamped to ≥ 1 when the
    /// monitor runs. Ignored when a rollout plan is armed — the window
    /// is then the resolved canary size, so wave boundaries always fall
    /// on window boundaries.
    pub health_window: usize,
    /// When set, the campaign runs as a staged rollout: machines are
    /// admitted wave by wave (canary → exponential ramp), each wave
    /// gated on the previous wave's health windows all judging Healthy,
    /// with Halt verdicts actuating auto-rollback of the halted wave's
    /// patched machines. Requires [`FleetConfig::with_health`] (the
    /// verdicts come from the monitor) and therefore streaming;
    /// `try_run_campaign` returns a `CampaignError` otherwise.
    pub rollout: Option<RolloutPlan>,
    /// Multi-CVE campaign catalogue: encoded [`kshot_patchserver`]
    /// bundle blobs, applied to every machine in order. Empty (the
    /// default) applies the one bundle `run_campaign` is given; either
    /// way the campaign resolves one patch list for every session.
    pub catalogue: Vec<Vec<u8>>,
    /// When a catalogue is armed: apply all its CVEs in one batched SMI
    /// per machine (`true`) instead of one SMI per CVE (`false`, the
    /// default). Simulated-domain results are byte-identical either
    /// way; only the SMI count — and hence the fixed SMM entry/exit
    /// cost paid — differs.
    pub batched_smi: bool,
    /// When set, the health monitor replays every `smi` flight-record
    /// line from the worker shards through a detached
    /// [`kshot_telemetry::IntegrityMonitor`] judging it against this
    /// policy; violations escalate the machine's health window to Halt
    /// (driving auto-rollback under a rollout) and the final
    /// [`kshot_telemetry::IntegrityReport`] lands in
    /// `CampaignReport::integrity`. Requires [`FleetConfig::with_health`]
    /// (the monitor hosts the replay).
    pub integrity: Option<IntegrityPolicy>,
    /// Whether the report keeps every machine's [`crate::MachineOutcome`]
    /// and telemetry records (`true`, the default). Every campaign folds
    /// its outcomes into a [`crate::OutcomeFold`], which is what the
    /// report's counts, percentiles and Merkle root are read from; this
    /// switch only decides whether each folded outcome and its recorder
    /// are kept as well. When it is clear,
    /// [`crate::CampaignReport::outcomes`] is empty, the record stream
    /// is dropped, and metric totals survive only when streaming (the
    /// records then live in the shard files); nothing resident then
    /// grows with the fleet beyond the fold's logarithmic Merkle
    /// frontier.
    pub retain_outcomes: bool,
    /// Per-machine faults, recovery faults, slowdowns and attacks, as
    /// the `with_*` builders plan them.
    pub(crate) perturbations: BTreeMap<usize, Perturbation>,
}

impl FleetConfig {
    /// A campaign over `machines` machines on `workers` threads with
    /// default retry policy (3 attempts, 50 ms simulated base backoff),
    /// no planned faults and no modelled link latency.
    pub fn new(machines: usize, workers: usize) -> Self {
        Self {
            machines,
            workers: workers.max(1),
            seed: 0x5EED,
            max_attempts: 3,
            link_rtt: Duration::ZERO,
            stream_dir: None,
            smm_dwell_budget: None,
            pipeline_depth: 1,
            health_policy: None,
            health_window: 8,
            rollout: None,
            catalogue: Vec::new(),
            batched_smi: false,
            integrity: None,
            retain_outcomes: true,
            perturbations: BTreeMap::new(),
        }
    }

    /// What the campaign plans for `machine` (nothing, for most).
    pub(crate) fn perturbation(&self, machine: usize) -> Perturbation {
        self.perturbations
            .get(&machine)
            .copied()
            .unwrap_or_default()
    }

    fn plan(&mut self, machine: usize) -> &mut Perturbation {
        self.perturbations.entry(machine).or_default()
    }

    /// Builder-style: keep up to `depth` machines in flight per worker
    /// (clamped to ≥ 1). Depth 1 is the classic sequential drive.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Builder-style: set the campaign seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set the per-attempt wall-clock link RTT.
    pub fn with_link_rtt(mut self, rtt: Duration) -> Self {
        self.link_rtt = rtt;
        self
    }

    /// Builder-style: arm `fault` on its machine, unless it already has
    /// one.
    pub fn with_fault(mut self, fault: PlannedFault) -> Self {
        self.plan(fault.machine)
            .fault
            .get_or_insert(fault.smm_write_index);
        self
    }

    /// Builder-style: stream per-worker telemetry shards into `dir`.
    pub fn with_stream_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.stream_dir = Some(dir.into());
        self
    }

    /// Builder-style: arm the SMM dwell watchdog on every machine.
    pub fn with_smm_dwell_budget(mut self, budget: SimTime) -> Self {
        self.smm_dwell_budget = Some(budget);
        self
    }

    /// Builder-style: slow one machine's SMM stages down, unless it is
    /// already slowed.
    pub fn with_slowdown(mut self, slowdown: PlannedSlowdown) -> Self {
        self.plan(slowdown.machine)
            .slowdown
            .get_or_insert(slowdown.factor);
        self
    }

    /// Builder-style: run a live health monitor over the worker shards
    /// during the campaign, windowing machines into cohorts of `window`
    /// and judging each against `policy`. Requires
    /// [`FleetConfig::with_stream_dir`], a typed `CampaignError`
    /// otherwise (a silent no-op monitor would be worse).
    pub fn with_health(mut self, policy: HealthPolicy, window: usize) -> Self {
        self.health_policy = Some(policy);
        self.health_window = window;
        self
    }

    /// Builder-style: run the campaign as a staged rollout under `plan`.
    /// Requires [`FleetConfig::with_health`], a typed `CampaignError`
    /// otherwise (a rollout without verdicts cannot gate waves).
    pub fn with_rollout(mut self, plan: RolloutPlan) -> Self {
        self.rollout = Some(plan);
        self
    }

    /// Builder-style: arm `fault` inside its machine's recovery window,
    /// unless it already has one. After a failed attempt's injection
    /// stats fold, the plan is armed immediately before the machine's
    /// first `recover()`, so `recover()` itself fails and the machine
    /// takes the terminal recovery-error path.
    pub fn with_recovery_fault(mut self, fault: PlannedFault) -> Self {
        self.plan(fault.machine)
            .recovery_fault
            .get_or_insert(fault.smm_write_index);
        self
    }

    /// Builder-style: drive every machine through the given encoded
    /// bundle blobs (one CVE each), in order. See
    /// [`FleetConfig::catalogue`].
    pub fn with_catalogue(mut self, bundles: impl IntoIterator<Item = Vec<u8>>) -> Self {
        self.catalogue = bundles.into_iter().collect();
        self
    }

    /// Builder-style: apply the armed catalogue in one batched SMI per
    /// machine instead of one SMI per CVE. See
    /// [`FleetConfig::batched_smi`].
    pub fn with_batched_smi(mut self, batched: bool) -> Self {
        self.batched_smi = batched;
        self
    }

    /// Builder-style: arm `attack` on its machine, unless it already has
    /// one. Attacks are armed *after* install, so the sealed handler
    /// measurement predates the tamper: detection, not prevention, is
    /// what the integrity plane proves.
    pub fn with_attack(mut self, attack: PlannedAttack) -> Self {
        self.plan(attack.machine).attack.get_or_insert(attack.kind);
        self
    }

    /// Builder-style: replay the fleet's `smi` flight-record stream
    /// through a detached integrity monitor judging against `policy`.
    /// Requires [`FleetConfig::with_health`], a typed `CampaignError`
    /// otherwise (a silent no-op integrity plane would be worse).
    pub fn with_integrity(mut self, policy: IntegrityPolicy) -> Self {
        self.integrity = Some(policy);
        self
    }

    /// Builder-style: keep only the fold — the memory-bounded mode for
    /// very large fleets. Clears [`FleetConfig::retain_outcomes`].
    pub fn with_outcome_fold(mut self) -> Self {
        self.retain_outcomes = false;
        self
    }
}

/// splitmix64: the standard 64-bit mix used to expand one campaign seed
/// into per-machine seeds with good avalanche behaviour.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = FleetConfig::new(64, 8);
        assert_eq!(c.machines, 64);
        assert_eq!(c.workers, 8);
        assert_eq!(c.max_attempts, 3);
        assert!(c.perturbations.is_empty());
        assert!(c.link_rtt.is_zero());
        // Depth 1 — the classic sequential drive — is the default.
        assert_eq!(c.pipeline_depth, 1);
        assert_eq!(c.with_pipeline_depth(0).pipeline_depth, 1);
        // Zero workers is clamped rather than deadlocking the shard loop.
        assert_eq!(FleetConfig::new(1, 0).workers, 1);
    }

    #[test]
    fn outcome_fold_implies_summaries_only() {
        assert!(FleetConfig::new(8, 2).retain_outcomes);
        assert!(
            !FleetConfig::new(8, 2).with_outcome_fold().retain_outcomes,
            "a fold-only campaign keeps summaries, not outcomes"
        );
    }

    #[test]
    fn splitmix_separates_adjacent_seeds() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        // Deterministic across calls.
        assert_eq!(a, splitmix64(1));
        // Avalanche: adjacent inputs differ in many output bits.
        assert!((a ^ b).count_ones() > 16);
    }
}
