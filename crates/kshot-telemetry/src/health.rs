//! Live campaign health plane: windowed signals, declarative verdicts,
//! and an incremental shard tailer.
//!
//! A [`HealthMonitor`] follows the per-worker `worker-<N>.jsonl` shards
//! *while a campaign is still running* — no completion barrier —
//! reading each shard's newly committed bytes once per poll and
//! decoding each line once ([`ShardLine::decode`]). Lines fold into
//! per-machine **parcels** (each worker flushes one machine's records,
//! metrics block, smi flight records and `machine` outcome line
//! contiguously, so a worker's open parcel closes on the decoded
//! machine line), and parcels are folded into fixed-size **windows of
//! machine indices**:
//! window `k` covers machines `[k·W, min((k+1)·W, machines))`. A window
//! is emitted as soon as every machine in its range has reported,
//! regardless of which worker ran it or when — which is what makes the
//! emitted [`HealthSnapshot`] sequence *byte-identical* across worker
//! counts and pipeline depths for a fixed seed, even though arrival
//! order is wildly different.
//!
//! Each snapshot carries a monotonically increasing `seq`, the window's
//! [`SignalStats`] (success/failure/retry rates in per-mille, faults,
//! SMM over-budget counts, record-drop counters, and dwell/latency
//! percentiles from the mergeable [`QuantileSketch`]), the running
//! campaign totals, and a [`HealthVerdict`] computed from a declarative
//! [`HealthPolicy`]. Verdicts are the interface the future staged-
//! rollout orchestrator consumes: `Healthy` keeps going, `Degraded`
//! names its reasons (canary warning), `Halt` demands a stop.
//!
//! Everything in a snapshot is integer-valued and derived purely from
//! shard contents — wall-clock never leaks into the emitted JSON, so
//! `health.jsonl` is as deterministic as the shards themselves.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::integrity::{IntegrityMonitor, IntegrityPolicy, IntegrityVerdict};
use crate::shard::{read_committed, MachineLine, ShardError, ShardLine, SmiLine};
use crate::sketch::QuantileSketch;
use crate::stream::StreamSink;

/// The sketch-backed SMM dwell signal consumed by the monitor; emitted
/// by `kshot-machine` on every SMM exit via [`crate::observe`].
pub const SMM_DWELL_METRIC: &str = "machine.smm_dwell_ns";

/// The counter a fleet worker folds ring-eviction losses into before a
/// machine's metrics block; the monitor reports it as `records_dropped`.
pub const RECORDS_DROPPED_METRIC: &str = "fleet.records_dropped";

/// Declarative health thresholds. All rates are per-mille (so 50 means
/// 5%); the dwell check compares the window's sketch p99 against
/// `budget × margin / 1000`. A threshold of `u64::MAX` (or a `None`
/// budget) disables that check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Window failure rate above this degrades the campaign.
    pub degrade_failure_per_mille: u64,
    /// Window failure rate above this demands a halt.
    pub halt_failure_per_mille: u64,
    /// Window retry rate (retries per attempt-machine) above this
    /// degrades — the early-warning signal a fault storm trips first.
    pub degrade_retry_per_mille: u64,
    /// SMM dwell budget in ns; `None` disables the dwell check.
    pub dwell_budget_ns: Option<u64>,
    /// Allowed dwell p99 as per-mille of the budget (1000 = exactly the
    /// budget, 1500 = 1.5× headroom).
    pub dwell_margin_per_mille: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degrade_failure_per_mille: 50,
            halt_failure_per_mille: 300,
            degrade_retry_per_mille: 250,
            dwell_budget_ns: None,
            dwell_margin_per_mille: 1000,
        }
    }
}

impl HealthPolicy {
    pub fn new() -> HealthPolicy {
        HealthPolicy::default()
    }

    /// Degrade above `degrade`‰ window failures, halt above `halt`‰.
    pub fn with_failure_per_mille(mut self, degrade: u64, halt: u64) -> Self {
        self.degrade_failure_per_mille = degrade;
        self.halt_failure_per_mille = halt;
        self
    }

    /// Degrade above `ceiling`‰ window retries.
    pub fn with_retry_ceiling_per_mille(mut self, ceiling: u64) -> Self {
        self.degrade_retry_per_mille = ceiling;
        self
    }

    /// Degrade when the window's dwell p99 exceeds
    /// `budget_ns × margin_per_mille / 1000`.
    pub fn with_dwell_budget(mut self, budget_ns: u64, margin_per_mille: u64) -> Self {
        self.dwell_budget_ns = Some(budget_ns);
        self.dwell_margin_per_mille = margin_per_mille;
        self
    }

    /// Evaluate one window's signals against the policy.
    fn evaluate(&self, w: &SignalStats) -> HealthVerdict {
        let mut halt = Vec::new();
        let mut degraded = Vec::new();
        if w.failure_per_mille > self.halt_failure_per_mille {
            halt.push(format!(
                "failure rate {} per-mille exceeds halt ceiling {}",
                w.failure_per_mille, self.halt_failure_per_mille
            ));
        } else if w.failure_per_mille > self.degrade_failure_per_mille {
            degraded.push(format!(
                "failure rate {} per-mille exceeds degrade ceiling {}",
                w.failure_per_mille, self.degrade_failure_per_mille
            ));
        }
        if w.retry_per_mille > self.degrade_retry_per_mille {
            degraded.push(format!(
                "retry rate {} per-mille exceeds ceiling {}",
                w.retry_per_mille, self.degrade_retry_per_mille
            ));
        }
        if let (Some(budget), true) = (self.dwell_budget_ns, w.dwell_samples > 0) {
            let allowed = (u128::from(budget) * u128::from(self.dwell_margin_per_mille)) / 1000;
            if u128::from(w.dwell_p99_ns) > allowed {
                degraded.push(format!(
                    "dwell p99 {}ns exceeds budget {}ns x {} per-mille margin",
                    w.dwell_p99_ns, budget, self.dwell_margin_per_mille
                ));
            }
        }
        if !halt.is_empty() {
            HealthVerdict::Halt { reasons: halt }
        } else if !degraded.is_empty() {
            HealthVerdict::Degraded { reasons: degraded }
        } else {
            HealthVerdict::Healthy
        }
    }
}

/// The tri-state outcome a rollout orchestrator consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthVerdict {
    Healthy,
    /// Something crossed a warning threshold; reasons are
    /// human-readable and policy-derived.
    Degraded {
        reasons: Vec<String>,
    },
    /// A stop-the-campaign threshold was crossed.
    Halt {
        reasons: Vec<String>,
    },
}

impl HealthVerdict {
    /// 0 = healthy, 1 = degraded, 2 = halt — for "worst verdict" folds.
    pub fn severity(&self) -> u8 {
        match self {
            HealthVerdict::Healthy => 0,
            HealthVerdict::Degraded { .. } => 1,
            HealthVerdict::Halt { .. } => 2,
        }
    }

    /// Stable lowercase label used in JSON and tables.
    pub fn label(&self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Degraded { .. } => "degraded",
            HealthVerdict::Halt { .. } => "halt",
        }
    }

    /// The policy-derived reason strings (empty when healthy).
    pub fn reasons(&self) -> &[String] {
        match self {
            HealthVerdict::Healthy => &[],
            HealthVerdict::Degraded { reasons } | HealthVerdict::Halt { reasons } => reasons,
        }
    }
}

/// One cohort's (or the running total's) integer-valued signals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SignalStats {
    /// Machines that have reported an outcome.
    pub machines: u64,
    pub ok: u64,
    pub failed: u64,
    pub retries: u64,
    pub faults_injected: u64,
    /// Over-budget SMIs flagged by the dwell watchdog.
    pub smm_overbudget: u64,
    /// Telemetry records lost to ring eviction or sink backpressure.
    pub records_dropped: u64,
    /// `failed / machines` in per-mille.
    pub failure_per_mille: u64,
    /// `retries / machines` in per-mille.
    pub retry_per_mille: u64,
    /// Dwell-sketch observations backing the percentiles below.
    pub dwell_samples: u64,
    pub dwell_p50_ns: u64,
    pub dwell_p95_ns: u64,
    pub dwell_p99_ns: u64,
    pub dwell_max_ns: u64,
    /// End-to-end per-machine patch latency (simulated clock).
    pub latency_p50_ns: u64,
    pub latency_p95_ns: u64,
}

impl SignalStats {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"machines\":{},\"ok\":{},\"failed\":{},\"retries\":{},",
                "\"faults_injected\":{},\"smm_overbudget\":{},\"records_dropped\":{},",
                "\"failure_per_mille\":{},\"retry_per_mille\":{},\"dwell_samples\":{},",
                "\"dwell_p50_ns\":{},\"dwell_p95_ns\":{},\"dwell_p99_ns\":{},",
                "\"dwell_max_ns\":{},\"latency_p50_ns\":{},\"latency_p95_ns\":{}}}"
            ),
            self.machines,
            self.ok,
            self.failed,
            self.retries,
            self.faults_injected,
            self.smm_overbudget,
            self.records_dropped,
            self.failure_per_mille,
            self.retry_per_mille,
            self.dwell_samples,
            self.dwell_p50_ns,
            self.dwell_p95_ns,
            self.dwell_p99_ns,
            self.dwell_max_ns,
            self.latency_p50_ns,
            self.latency_p95_ns,
        )
    }
}

/// One emitted window: schema-versioned, sequence-numbered, fully
/// integer-valued, and derived only from shard contents — identical
/// across schedulers for a fixed seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Monotonic window sequence, starting at 0.
    pub seq: u64,
    /// First machine index in the window (inclusive).
    pub window_start: u64,
    /// Last machine index in the window (exclusive).
    pub window_end: u64,
    /// Rollout wave this window belongs to, when the monitor was armed
    /// with wave boundaries ([`HealthMonitor::with_wave_boundaries`]).
    /// `None` for plain (non-rollout) campaigns — the JSON shape is
    /// unchanged for them.
    pub wave: Option<u64>,
    /// This window's signals.
    pub window: SignalStats,
    /// Running totals over all windows emitted so far (this one
    /// included).
    pub total: SignalStats,
    /// Policy verdict for this window.
    pub verdict: HealthVerdict,
}

impl HealthSnapshot {
    /// One `{"type":"health",...}` JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut reasons = String::new();
        for (i, r) in self.verdict.reasons().iter().enumerate() {
            if i > 0 {
                reasons.push(',');
            }
            reasons.push_str(&crate::record::json_escape(r));
        }
        let wave = match self.wave {
            Some(w) => format!("\"wave\":{w},"),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"type\":\"health\",\"v\":{},\"seq\":{},{}",
                "\"window_start\":{},\"window_end\":{},",
                "\"window\":{},\"total\":{},\"verdict\":\"{}\",\"reasons\":[{}]}}"
            ),
            crate::SCHEMA_VERSION,
            self.seq,
            wave,
            self.window_start,
            self.window_end,
            self.window.json(),
            self.total.json(),
            self.verdict.label(),
            reasons,
        )
    }
}

/// Everything accumulated for one machine-range (a parcel, a window, or
/// the campaign totals): outcome tallies plus the mergeable sketches.
#[derive(Debug, Clone, Default)]
struct Agg {
    machines: u64,
    ok: u64,
    failed: u64,
    retries: u64,
    faults_injected: u64,
    smm_overbudget: u64,
    records_dropped: u64,
    dwell: QuantileSketch,
    latency: QuantileSketch,
}

impl Agg {
    fn merge_from(&mut self, other: &Agg) {
        self.machines = self.machines.saturating_add(other.machines);
        self.ok = self.ok.saturating_add(other.ok);
        self.failed = self.failed.saturating_add(other.failed);
        self.retries = self.retries.saturating_add(other.retries);
        self.faults_injected = self.faults_injected.saturating_add(other.faults_injected);
        self.smm_overbudget = self.smm_overbudget.saturating_add(other.smm_overbudget);
        self.records_dropped = self.records_dropped.saturating_add(other.records_dropped);
        self.dwell.merge_from(&other.dwell);
        self.latency.merge_from(&other.latency);
    }

    fn stats(&self) -> SignalStats {
        let per_mille = |n: u64| {
            if self.machines == 0 {
                0
            } else {
                // n ≤ machines·small, machines ≥ 1: u128 avoids overflow.
                u64::try_from(u128::from(n) * 1000 / u128::from(self.machines)).unwrap_or(u64::MAX)
            }
        };
        SignalStats {
            machines: self.machines,
            ok: self.ok,
            failed: self.failed,
            retries: self.retries,
            faults_injected: self.faults_injected,
            smm_overbudget: self.smm_overbudget,
            records_dropped: self.records_dropped,
            failure_per_mille: per_mille(self.failed),
            retry_per_mille: per_mille(self.retries),
            dwell_samples: self.dwell.count(),
            dwell_p50_ns: self.dwell.quantile_per_mille(500),
            dwell_p95_ns: self.dwell.quantile_per_mille(950),
            dwell_p99_ns: self.dwell.quantile_per_mille(990),
            dwell_max_ns: self.dwell.max(),
            latency_p50_ns: self.latency.quantile_per_mille(500),
            latency_p95_ns: self.latency.quantile_per_mille(950),
        }
    }
}

/// Per-worker tail state: resume offset, lines decoded so far (error
/// messages name the line), and the machine parcel being assembled.
struct WorkerTail {
    path: PathBuf,
    offset: u64,
    lines: u64,
    open: Parcel,
}

/// One machine's parcel: the aggregate of its lines, the integrity
/// reasons its smi lines raised (at most 16 — enough for a Halt to say
/// why), and the machines those smi lines named: the first, and the
/// first other one, which is all it takes to tell whether every smi
/// line names the machine whose outcome line closes the parcel.
#[derive(Default)]
struct Parcel {
    agg: Agg,
    integrity: Vec<String>,
    smi_machines: [Option<u64>; 2],
}

impl Parcel {
    fn fold_smi(&mut self, smi: &SmiLine, integrity: Option<&mut IntegrityMonitor>) {
        match self.smi_machines {
            [None, _] => self.smi_machines[0] = Some(smi.machine),
            [Some(first), None] if first != smi.machine => self.smi_machines[1] = Some(smi.machine),
            _ => {}
        }
        if let Some(IntegrityVerdict::Violation { reasons }) = integrity.map(|m| m.check(smi)) {
            let room = 16usize.saturating_sub(self.integrity.len());
            self.integrity.extend(reasons.into_iter().take(room));
        }
    }

    fn resident_bytes(&self) -> u64 {
        let reasons: usize = self.integrity.iter().map(|r| r.len() + 24).sum();
        (std::mem::size_of::<Parcel>() + reasons) as u64
            + self.agg.dwell.resident_bytes()
            + self.agg.latency.resident_bytes()
    }
}

/// Final monitor output, consumed by `CampaignReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Every emitted snapshot, in sequence order.
    pub snapshots: Vec<HealthSnapshot>,
    /// Campaign-total signals (equal to the last snapshot's `total`
    /// when every window was emitted).
    pub total: SignalStats,
    /// Machines whose parcels the monitor consumed (windowed or not).
    pub machines_seen: u64,
    /// Shard lines folded by the tailer.
    pub lines_consumed: u64,
    /// Resident bytes of the campaign-total dwell + latency sketches —
    /// the O(1)-per-signal memory the aggregation path holds.
    pub resident_sketch_bytes: u64,
    /// Wall time spent inside `poll` (aggregation only, not sleeps).
    pub agg_wall: Duration,
    /// Summary of the attached integrity monitor, when
    /// [`HealthMonitor::with_integrity`] was used.
    pub integrity: Option<crate::integrity::IntegrityReport>,
}

impl HealthReport {
    /// Worst verdict across all snapshots; `Healthy` when none emitted.
    pub fn final_verdict(&self) -> HealthVerdict {
        self.snapshots
            .iter()
            .map(|s| &s.verdict)
            .max_by_key(|v| v.severity())
            .cloned()
            .unwrap_or(HealthVerdict::Healthy)
    }

    /// Largest window failure rate seen (per-mille).
    pub fn max_failure_per_mille(&self) -> u64 {
        self.snapshots
            .iter()
            .map(|s| s.window.failure_per_mille)
            .max()
            .unwrap_or(0)
    }

    /// Largest window retry rate seen (per-mille).
    pub fn max_retry_per_mille(&self) -> u64 {
        self.snapshots
            .iter()
            .map(|s| s.window.retry_per_mille)
            .max()
            .unwrap_or(0)
    }

    /// Largest window dwell p99 seen (ns).
    pub fn max_dwell_p99_ns(&self) -> u64 {
        self.snapshots
            .iter()
            .map(|s| s.window.dwell_p99_ns)
            .max()
            .unwrap_or(0)
    }
}

/// Incremental health monitor over a campaign's worker shards.
///
/// Drive it with [`poll`](Self::poll) while the campaign runs (each
/// call tails every shard and emits any windows that completed), then
/// [`finish`](Self::finish) after the final flush to collect the
/// [`HealthReport`].
pub struct HealthMonitor {
    policy: HealthPolicy,
    window: u64,
    machines: u64,
    /// Exclusive machine-index end of each rollout wave, ascending.
    /// Empty for plain campaigns; when set, every emitted snapshot is
    /// tagged with the wave its window falls in.
    wave_ends: Vec<u64>,
    tails: Vec<WorkerTail>,
    /// Closed parcels not yet absorbed into a window, by machine —
    /// bounded by the in-flight machine count.
    parcels: std::collections::BTreeMap<u64, Parcel>,
    /// First machine index of the next window to emit.
    next_window_start: u64,
    total: Agg,
    snapshots: Vec<HealthSnapshot>,
    sink: Option<StreamSink>,
    lines_consumed: u64,
    agg_wall: Duration,
    /// Detached SMM integrity monitor fed with the parcels' `smi`
    /// flight lines, when attached. A window holding a parcel with
    /// integrity reasons escalates to Halt.
    integrity: Option<IntegrityMonitor>,
}

impl HealthMonitor {
    /// A monitor over `machines` total machines whose shards live at
    /// `shard_paths`, windowing by `window` machine indices (clamped to
    /// ≥ 1). Shard files need not exist yet — workers create them
    /// lazily; missing files are simply "no data yet".
    pub fn new(
        policy: HealthPolicy,
        window: usize,
        machines: usize,
        shard_paths: Vec<PathBuf>,
    ) -> HealthMonitor {
        HealthMonitor {
            policy,
            window: (window.max(1)) as u64,
            machines: machines as u64,
            wave_ends: Vec::new(),
            tails: shard_paths
                .into_iter()
                .map(|path| WorkerTail {
                    path,
                    offset: 0,
                    lines: 0,
                    open: Parcel::default(),
                })
                .collect(),
            parcels: std::collections::BTreeMap::new(),
            next_window_start: 0,
            total: Agg::default(),
            snapshots: Vec::new(),
            sink: None,
            lines_consumed: 0,
            agg_wall: Duration::ZERO,
            integrity: None,
        }
    }

    /// Attach a detached SMM integrity monitor: every `smi` flight line
    /// in the tailed parcels is replayed against `policy`, and a
    /// window containing a violating machine escalates its verdict to
    /// [`HealthVerdict::Halt`] carrying the violation reasons — which
    /// drives the rollout controller's auto-rollback exactly like a
    /// health Halt.
    pub fn with_integrity(mut self, policy: IntegrityPolicy) -> HealthMonitor {
        self.integrity = Some(IntegrityMonitor::new(policy));
        self
    }

    /// Tag every emitted snapshot with the rollout wave its window
    /// falls in. `ends` are the exclusive machine-index ends of the
    /// waves, ascending (wave `k` covers `[ends[k-1], ends[k])`).
    /// Windows must not straddle wave boundaries — rollout planners
    /// guarantee this by sizing the monitor window to the canary cohort.
    pub fn with_wave_boundaries(mut self, ends: Vec<u64>) -> HealthMonitor {
        self.wave_ends = ends;
        self
    }

    /// Re-arm the dwell check mid-flight: windows judged from now on
    /// compare their dwell p99 against `budget_ns × margin / 1000`.
    /// This is the verdict→action plumbing behind canary dwell-budget
    /// auto-calibration — the rollout controller measures the canary
    /// cohort's own p99 and arms it (with headroom) for the ramp waves.
    /// Already-emitted snapshots are not re-judged.
    pub fn arm_dwell_budget(&mut self, budget_ns: u64, margin_per_mille: u64) {
        self.policy = self
            .policy
            .clone()
            .with_dwell_budget(budget_ns, margin_per_mille);
    }

    /// The policy windows are currently judged against (reflects any
    /// mid-flight [`arm_dwell_budget`](Self::arm_dwell_budget)).
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Also stream every emitted snapshot to `path` as JSON lines
    /// (`health.jsonl`), flushed per snapshot so an external process
    /// can tail the monitor itself.
    ///
    /// # Errors
    ///
    /// Opening the sink file.
    pub fn with_snapshot_path(mut self, path: impl AsRef<Path>) -> Result<HealthMonitor, String> {
        let path = path.as_ref();
        let sink = StreamSink::to_path(path).map_err(|e| format!("{}: {e}", path.display()))?;
        self.sink = Some(sink);
        Ok(self)
    }

    /// Read every shard's newly committed lines once, fold each decoded
    /// line into its worker's open parcel, emit any windows that
    /// completed, and return how many new snapshots were emitted.
    ///
    /// # Errors
    ///
    /// A [`ShardError`] from any shard (truncation fails loudly), or a
    /// [`ShardError::Parse`] naming the line when a line fails to
    /// decode or its machine line closes a parcel that cannot be judged
    /// (a machine out of range or reported twice, or an smi line naming
    /// another machine).
    pub fn poll(&mut self) -> Result<usize, ShardError> {
        let t0 = Instant::now();
        let before = self.snapshots.len();
        for worker in 0..self.tails.len() {
            // A worker that hasn't started yet has no file — no data.
            if !self.tails[worker].path.exists() {
                continue;
            }
            let (text, next) = read_committed(&self.tails[worker].path, self.tails[worker].offset)?;
            self.tails[worker].offset = next;
            let mut open = std::mem::take(&mut self.tails[worker].open);
            for line in text.lines() {
                self.tails[worker].lines += 1;
                if line.trim().is_empty() {
                    continue;
                }
                self.fold_line(&mut open, line)
                    .map_err(|e| ShardError::Parse {
                        path: self.tails[worker].path.clone(),
                        error: format!("line {}: {e}", self.tails[worker].lines),
                    })?;
            }
            self.tails[worker].open = open;
        }
        self.emit_ready_windows();
        self.agg_wall += t0.elapsed();
        Ok(self.snapshots.len() - before)
    }

    /// Decode one committed line and fold it into `open`. The parcel
    /// needs the dwell sketch, the drop counter, and the smi lines; a
    /// machine line closes it.
    fn fold_line(&mut self, open: &mut Parcel, line: &str) -> Result<(), String> {
        match ShardLine::decode(line)? {
            ShardLine::Sketch { name, sketch } if name == SMM_DWELL_METRIC => {
                open.agg.dwell.merge_from(&sketch);
            }
            ShardLine::Counter { name, value } if name == RECORDS_DROPPED_METRIC => {
                open.agg.records_dropped = open.agg.records_dropped.saturating_add(value);
            }
            ShardLine::Smi(smi) => open.fold_smi(&smi, self.integrity.as_mut()),
            ShardLine::Machine(line) => self.close_parcel(std::mem::take(open), &line)?,
            _ => {}
        }
        self.lines_consumed += 1;
        Ok(())
    }

    /// Judge a parcel by its machine line: the line carries the
    /// authoritative tallies, the metric lines the sketches and the drop
    /// counter.
    fn close_parcel(&mut self, mut parcel: Parcel, line: &MachineLine) -> Result<(), String> {
        let machine = line.machine;
        // Each machine is judged once: a second parcel could overwrite a
        // failure, and one past the fleet would sit outside every window.
        if machine >= self.machines {
            return Err(format!(
                "machine {machine} out of range: the campaign has {} machines",
                self.machines
            ));
        }
        if machine < self.next_window_start || self.parcels.contains_key(&machine) {
            return Err(format!("machine {machine} reported twice"));
        }
        // A parcel's smi lines are its own machine's flight records; one
        // naming another machine would pin its violations on the wrong
        // window.
        if let Some(other) = parcel
            .smi_machines
            .into_iter()
            .flatten()
            .find(|&m| m != machine)
        {
            return Err(format!(
                "machine {machine}: parcel carries an smi line of machine {other}"
            ));
        }
        let agg = &mut parcel.agg;
        agg.machines = 1;
        agg.ok = u64::from(line.ok);
        agg.failed = u64::from(!line.ok);
        agg.retries = line.retries;
        agg.faults_injected = line.faults_injected;
        agg.smm_overbudget = line.smm_overbudget;
        if let Some(latency) = line.latency_ns {
            agg.latency.observe(latency);
        }
        self.parcels.insert(machine, parcel);
        Ok(())
    }

    /// Emit every window whose full machine range has parcels.
    fn emit_ready_windows(&mut self) {
        loop {
            let start = self.next_window_start;
            if start >= self.machines {
                return;
            }
            let end = (start + self.window).min(self.machines);
            if !(start..end).all(|m| self.parcels.contains_key(&m)) {
                return;
            }
            let mut wagg = Agg::default();
            let mut integrity_reasons = Vec::new();
            for m in start..end {
                let parcel = self.parcels.remove(&m).expect("checked above");
                wagg.merge_from(&parcel.agg);
                integrity_reasons.extend(parcel.integrity);
            }
            self.total.merge_from(&wagg);
            let window = wagg.stats();
            let mut verdict = self.policy.evaluate(&window);
            // Integrity violations trump health thresholds: a window
            // containing a violating machine halts, carrying both the
            // health reasons (if any) and the violation reasons.
            if !integrity_reasons.is_empty() {
                let mut reasons = verdict.reasons().to_vec();
                reasons.extend(integrity_reasons);
                verdict = HealthVerdict::Halt { reasons };
            }
            let wave = self
                .wave_ends
                .iter()
                .position(|&we| start < we)
                .map(|w| w as u64);
            let snap = HealthSnapshot {
                seq: self.snapshots.len() as u64,
                window_start: start,
                window_end: end,
                wave,
                window,
                total: self.total.stats(),
                verdict,
            };
            if let Some(sink) = &self.sink {
                sink.write_raw_line(&snap.to_json_line());
                sink.flush();
            }
            self.snapshots.push(snap);
            self.next_window_start = end;
        }
    }

    /// Snapshots emitted so far, in sequence order.
    pub fn snapshots(&self) -> &[HealthSnapshot] {
        &self.snapshots
    }

    /// Shard lines folded so far.
    pub fn lines_consumed(&self) -> u64 {
        self.lines_consumed
    }

    /// Machines whose parcels have been consumed (windowed or pending).
    pub fn machines_seen(&self) -> u64 {
        self.next_window_start.min(self.machines) + self.parcels.len() as u64
    }

    /// Approximate bytes of *per-machine* state currently resident:
    /// each worker's open parcel, closed parcels awaiting their window,
    /// and the campaign-total sketches. This is the number the
    /// million-machine scaling argument rests on — windows retire their
    /// machines' parcels as they close, and a parcel holds sketches and
    /// capped reasons, never its lines, so the figure is bounded by
    /// (workers × window straggle + one window), not by the fleet size
    /// or a shard's contents. The 10k regression tests pin it.
    pub fn resident_state_bytes(&self) -> u64 {
        let tails = self.tails.iter().map(|t| &t.open);
        tails
            .chain(self.parcels.values())
            .map(Parcel::resident_bytes)
            .sum::<u64>()
            + std::mem::size_of::<Agg>() as u64
            + self.total.dwell.resident_bytes()
            + self.total.latency.resident_bytes()
    }

    /// Plain-text dashboard: one row per emitted window plus a totals
    /// row — what the live example prints while the campaign runs.
    pub fn render_table(&self) -> String {
        use crate::export::fmt_ns;
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} {:>11} {:>4} {:>5} {:>6} {:>6} {:>5} {:>10} {:>10} {:>10}  verdict",
            "seq",
            "window",
            "ok",
            "fail",
            "retry",
            "fault",
            "drop",
            "dwell p50",
            "dwell p99",
            "lat p50"
        );
        let _ = writeln!(out, "{}", "-".repeat(100));
        for s in &self.snapshots {
            let _ = writeln!(
                out,
                "{:>4} {:>11} {:>4} {:>5} {:>6} {:>6} {:>5} {:>10} {:>10} {:>10}  {}",
                s.seq,
                format!("{}..{}", s.window_start, s.window_end),
                s.window.ok,
                s.window.failed,
                s.window.retries,
                s.window.faults_injected,
                s.window.records_dropped,
                fmt_ns(s.window.dwell_p50_ns),
                fmt_ns(s.window.dwell_p99_ns),
                fmt_ns(s.window.latency_p50_ns),
                s.verdict.label(),
            );
        }
        let t = self.total.stats();
        let _ = writeln!(out, "{}", "-".repeat(100));
        let _ = writeln!(
            out,
            "{:>4} {:>11} {:>4} {:>5} {:>6} {:>6} {:>5} {:>10} {:>10} {:>10}  {}",
            "all",
            format!("0..{}", self.next_window_start),
            t.ok,
            t.failed,
            t.retries,
            t.faults_injected,
            t.records_dropped,
            fmt_ns(t.dwell_p50_ns),
            fmt_ns(t.dwell_p99_ns),
            fmt_ns(t.latency_p50_ns),
            self.snapshots
                .iter()
                .map(|s| &s.verdict)
                .max_by_key(|v| v.severity())
                .map_or("healthy", |v| v.label()),
        );
        out
    }

    /// Final poll plus report assembly. Consumes the monitor.
    ///
    /// # Errors
    ///
    /// Same as [`poll`](Self::poll).
    pub fn finish(mut self) -> Result<HealthReport, ShardError> {
        self.poll()?;
        let total = self.total.stats();
        Ok(HealthReport {
            machines_seen: self.machines_seen(),
            lines_consumed: self.lines_consumed,
            resident_sketch_bytes: self.total.dwell.resident_bytes()
                + self.total.latency.resident_bytes(),
            agg_wall: self.agg_wall,
            integrity: self.integrity.as_ref().map(|m| m.report()),
            snapshots: self.snapshots,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::metrics_json_lines;
    use crate::json::{self, Value};
    use crate::metrics::MetricsRegistry;
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn machine_parcel(machine: u64, ok: bool, retries: u64, dwell_ns: &[u64]) -> String {
        let reg = MetricsRegistry::new();
        for &d in dwell_ns {
            reg.observe(SMM_DWELL_METRIC, d);
        }
        reg.counter_add("machine.smi", dwell_ns.len() as u64);
        let mut out = metrics_json_lines(&reg.snapshot());
        let line = MachineLine {
            machine,
            worker: 0,
            ok,
            attempts: retries + 1,
            retries,
            faults_injected: retries,
            sim_clock_ns: 1000,
            smm_overbudget: 0,
            max_smm_dwell_ns: dwell_ns.iter().copied().max().unwrap_or(0),
            dwell_worst: None,
            latency_ns: Some(50_000 + machine * 1_000),
        };
        out.push_str(&line.to_json_line());
        out.push('\n');
        out
    }

    fn append(path: &Path, text: &str) {
        OpenOptions::new()
            .append(true)
            .open(path)
            .unwrap()
            .write_all(text.as_bytes())
            .unwrap();
    }

    /// An `smi` line of `machine` whose handler measurement is `0xbeef`,
    /// which a policy expecting `0xabcd` flags.
    fn tampered_smi_line(machine: u64) -> String {
        format!(
            concat!(
                "{{\"type\":\"smi\",\"v\":1,\"machine\":{},\"smi\":2,\"cause\":\"patch\",",
                "\"measurement\":\"0x000000000000beef\",\"writes\":[],\"writes_truncated\":0,",
                "\"journal\":[],\"journal_truncated\":0,\"dwell_ns\":1,\"exit\":\"ok\"}}\n"
            ),
            machine
        )
    }

    fn scratch(case: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kshot-health-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The verdict reason strings are an interface: the rollout plane
    /// surfaces them verbatim in `halt_reasons` and operators grep
    /// them. Pin the exact text of every policy-derived sentence, and
    /// the invariant that a non-healthy verdict always names at least
    /// one reason.
    #[test]
    fn verdict_reason_strings_are_golden() {
        let policy = HealthPolicy::new()
            .with_failure_per_mille(50, 300)
            .with_retry_ceiling_per_mille(250)
            .with_dwell_budget(1_000_000, 1500);

        let halt = policy.evaluate(&SignalStats {
            machines: 4,
            failure_per_mille: 500,
            ..Default::default()
        });
        assert_eq!(halt.label(), "halt");
        assert_eq!(
            halt.reasons(),
            ["failure rate 500 per-mille exceeds halt ceiling 300"]
        );

        // Every tripped degrade check contributes its own exact
        // sentence, in check order.
        let degraded = policy.evaluate(&SignalStats {
            machines: 4,
            failure_per_mille: 100,
            retry_per_mille: 400,
            dwell_samples: 9,
            dwell_p99_ns: 2_000_000,
            ..Default::default()
        });
        assert_eq!(degraded.label(), "degraded");
        assert_eq!(
            degraded.reasons(),
            [
                "failure rate 100 per-mille exceeds degrade ceiling 50",
                "retry rate 400 per-mille exceeds ceiling 250",
                "dwell p99 2000000ns exceeds budget 1000000ns x 1500 per-mille margin",
            ]
        );

        // A Halt (or Degraded) with no reasons would be unactionable:
        // severity > 0 if and only if at least one reason names why.
        for failure in [0, 51, 100, 301, 500, 1000] {
            let v = policy.evaluate(&SignalStats {
                machines: 4,
                failure_per_mille: failure,
                ..Default::default()
            });
            assert_eq!(
                v.severity() > 0,
                !v.reasons().is_empty(),
                "failure {failure}: {v:?}"
            );
        }
        assert!(HealthVerdict::Healthy.reasons().is_empty());
    }

    #[test]
    fn windows_emit_in_machine_order_despite_arrival_order() {
        let dir = scratch("order");
        let shard = dir.join("worker-0.jsonl");
        // Machines arrive out of order: 2, 0, 3, 1. Window size 2 must
        // still emit [0,2) then [2,4), each only once complete.
        std::fs::write(&shard, machine_parcel(2, true, 0, &[40_000])).unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 2, 4, vec![shard.clone()]);
        assert_eq!(mon.poll().unwrap(), 0, "window 0 incomplete");

        let mut f = OpenOptions::new().append(true).open(&shard).unwrap();
        f.write_all(machine_parcel(0, true, 0, &[41_000]).as_bytes())
            .unwrap();
        f.write_all(machine_parcel(3, true, 0, &[42_000]).as_bytes())
            .unwrap();
        drop(f);
        assert_eq!(mon.poll().unwrap(), 0, "machine 1 still missing");
        assert_eq!(mon.machines_seen(), 3);

        let mut f = OpenOptions::new().append(true).open(&shard).unwrap();
        f.write_all(machine_parcel(1, true, 0, &[43_000]).as_bytes())
            .unwrap();
        drop(f);
        assert_eq!(mon.poll().unwrap(), 2, "both windows complete at once");

        let snaps = mon.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!((snaps[0].window_start, snaps[0].window_end), (0, 2));
        assert_eq!((snaps[1].window_start, snaps[1].window_end), (2, 4));
        assert_eq!(snaps[0].seq, 0);
        assert_eq!(snaps[1].seq, 1);
        assert_eq!(snaps[0].window.ok, 2);
        assert_eq!(snaps[1].total.machines, 4);
        assert_eq!(snaps[1].total.dwell_samples, 4);
        assert_eq!(snaps[1].verdict, HealthVerdict::Healthy);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the million-machine path: window state for
    /// retired machines must actually be dropped as windows close. A
    /// 10k-machine monitored run, polled incrementally the way a
    /// campaign polls its monitor, must keep per-machine resident
    /// state bounded by the straggle (one chunk of parcels), never
    /// O(machines) — and end with only the campaign-total sketches
    /// resident.
    #[test]
    fn ten_k_machine_run_retires_window_state() {
        let dir = scratch("retire10k");
        let shard = dir.join("worker-0.jsonl");
        std::fs::write(&shard, "").unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 8, 10_000, vec![shard.clone()]);
        let mut peak = 0u64;
        let mut f = OpenOptions::new().append(true).open(&shard).unwrap();
        for chunk in 0..20u64 {
            for m in chunk * 500..(chunk + 1) * 500 {
                f.write_all(machine_parcel(m, true, 0, &[40_000 + m % 64]).as_bytes())
                    .unwrap();
            }
            f.flush().unwrap();
            mon.poll().unwrap();
            peak = peak.max(mon.resident_state_bytes());
        }
        drop(f);
        assert_eq!(mon.machines_seen(), 10_000);
        assert_eq!(mon.snapshots().len(), 10_000 / 8);
        // Chunks arrive window-aligned, so every poll drains all its
        // parcels: the observed resident stays around the fixed totals,
        // nowhere near the ~2 MB that retaining 10k Aggs would cost.
        assert!(peak < 16 * 1024, "peak resident {peak} bytes");
        assert!(
            mon.resident_state_bytes() < 8 * 1024,
            "final resident {} bytes",
            mon.resident_state_bytes()
        );
        let report = mon.finish().unwrap();
        assert_eq!(report.total.machines, 10_000);
        assert_eq!(report.total.ok, 10_000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A withheld machine blocks its window, so parcels past it pile up
    /// until it lands — resident state tracks the straggle and then
    /// collapses when the hole fills. This is the bound the accessor
    /// exists to expose.
    #[test]
    fn resident_state_tracks_straggle_and_collapses() {
        let dir = scratch("straggle");
        let shard = dir.join("worker-0.jsonl");
        std::fs::write(&shard, "").unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 8, 256, vec![shard.clone()]);
        let mut f = OpenOptions::new().append(true).open(&shard).unwrap();
        // Machines 1..256 arrive; machine 0 never does (yet), so no
        // window can emit and every parcel stays resident.
        for m in 1..256u64 {
            f.write_all(machine_parcel(m, true, 0, &[40_000]).as_bytes())
                .unwrap();
        }
        f.flush().unwrap();
        mon.poll().unwrap();
        let stalled = mon.resident_state_bytes();
        assert_eq!(mon.snapshots().len(), 0);
        assert!(stalled > 255 * 64, "straggle not visible: {stalled} bytes");
        // The hole fills: every window emits at once and the parcel
        // state collapses to the campaign totals.
        f.write_all(machine_parcel(0, true, 0, &[40_000]).as_bytes())
            .unwrap();
        f.flush().unwrap();
        drop(f);
        mon.poll().unwrap();
        assert_eq!(mon.snapshots().len(), 256 / 8);
        let drained = mon.resident_state_bytes();
        assert!(
            drained * 16 < stalled,
            "windows closed but state kept: {drained} vs {stalled}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_degrades_and_halts_on_thresholds() {
        let policy = HealthPolicy::new()
            .with_failure_per_mille(50, 300)
            .with_retry_ceiling_per_mille(250)
            .with_dwell_budget(100_000, 1000);
        // Healthy window.
        let healthy = Agg {
            machines: 8,
            ok: 8,
            ..Agg::default()
        };
        assert_eq!(policy.evaluate(&healthy.stats()), HealthVerdict::Healthy);
        // One failure in 8 machines = 125 per-mille -> degraded.
        let one_fail = Agg {
            machines: 8,
            ok: 7,
            failed: 1,
            ..Agg::default()
        };
        let v = policy.evaluate(&one_fail.stats());
        assert_eq!(v.label(), "degraded");
        assert!(v.reasons()[0].contains("failure rate 125"), "{v:?}");
        // 3 of 8 failed = 375 per-mille -> halt.
        let many_fail = Agg {
            machines: 8,
            ok: 5,
            failed: 3,
            ..Agg::default()
        };
        let v = policy.evaluate(&many_fail.stats());
        assert_eq!(v.label(), "halt");
        assert_eq!(v.severity(), 2);
        // Retry storm without failures -> degraded.
        let retries = Agg {
            machines: 8,
            ok: 8,
            retries: 3,
            ..Agg::default()
        };
        assert_eq!(policy.evaluate(&retries.stats()).label(), "degraded");
        // Dwell p99 over budget -> degraded, even with perfect outcomes.
        let mut slow = Agg {
            machines: 8,
            ok: 8,
            ..Agg::default()
        };
        for _ in 0..8 {
            slow.dwell.observe(450_000);
        }
        let v = policy.evaluate(&slow.stats());
        assert_eq!(v.label(), "degraded");
        assert!(v.reasons()[0].contains("dwell p99"), "{v:?}");
    }

    #[test]
    fn snapshot_json_lines_stream_and_reload() {
        let dir = scratch("jsonl");
        let shard = dir.join("worker-0.jsonl");
        let mut text = String::new();
        for m in 0..4 {
            text.push_str(&machine_parcel(m, m != 1, u64::from(m == 1), &[45_000]));
        }
        std::fs::write(&shard, text).unwrap();
        let policy = HealthPolicy::new().with_failure_per_mille(50, 900);
        let health_path = dir.join("health.jsonl");
        let mut mon = HealthMonitor::new(policy, 2, 4, vec![shard])
            .with_snapshot_path(&health_path)
            .unwrap();
        mon.poll().unwrap();
        let report = mon.finish().unwrap();
        assert_eq!(report.snapshots.len(), 2);
        assert_eq!(report.final_verdict().label(), "degraded");
        assert_eq!(report.max_failure_per_mille(), 500);
        assert_eq!(report.total.machines, 4);
        assert!(report.resident_sketch_bytes > 0);

        // The streamed file carries exactly the emitted snapshots, and
        // every line is valid JSON under the schema version.
        let streamed = std::fs::read_to_string(&health_path).unwrap();
        let lines: Vec<&str> = streamed.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, snap) in lines.iter().zip(&report.snapshots) {
            assert_eq!(*line, snap.to_json_line());
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("type").and_then(Value::as_str), Some("health"));
            assert_eq!(
                v.get("v").and_then(Value::as_u64),
                Some(u64::from(crate::SCHEMA_VERSION))
            );
        }
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("seq").and_then(Value::as_u64), Some(0));
        assert_eq!(
            first
                .get("window")
                .and_then(|w| w.get("machines"))
                .and_then(Value::as_u64),
            Some(2)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_table_lists_every_window_and_totals() {
        let dir = scratch("table");
        let shard = dir.join("worker-0.jsonl");
        let mut text = String::new();
        for m in 0..4 {
            text.push_str(&machine_parcel(m, true, 0, &[45_000, 47_000]));
        }
        std::fs::write(&shard, text).unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 2, 4, vec![shard]);
        mon.poll().unwrap();
        let table = mon.render_table();
        assert!(table.contains("0..2"), "{table}");
        assert!(table.contains("2..4"), "{table}");
        assert!(table.contains("healthy"), "{table}");
        assert!(table.lines().count() >= 5, "{table}");
    }

    #[test]
    fn wave_boundaries_tag_snapshots_and_plain_monitors_stay_untagged() {
        let dir = scratch("waves");
        let shard = dir.join("worker-0.jsonl");
        let mut text = String::new();
        for m in 0..6 {
            text.push_str(&machine_parcel(m, true, 0, &[45_000]));
        }
        std::fs::write(&shard, text).unwrap();
        // Waves [0,2) and [2,6); window = 2 (the canary size) so no
        // window straddles a wave boundary.
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 2, 6, vec![shard.clone()])
            .with_wave_boundaries(vec![2, 6]);
        mon.poll().unwrap();
        let waves: Vec<Option<u64>> = mon.snapshots().iter().map(|s| s.wave).collect();
        assert_eq!(waves, vec![Some(0), Some(1), Some(1)]);
        assert!(mon.snapshots()[0].to_json_line().contains("\"wave\":0,"));
        // A plain monitor over the same shard emits no wave field at
        // all — the rollout tag is strictly additive.
        let mut plain = HealthMonitor::new(HealthPolicy::new(), 2, 6, vec![shard]);
        plain.poll().unwrap();
        assert!(plain.snapshots().iter().all(|s| s.wave.is_none()));
        assert!(!plain.snapshots()[0].to_json_line().contains("\"wave\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arm_dwell_budget_rejudges_only_later_windows() {
        let dir = scratch("rearm");
        let shard = dir.join("worker-0.jsonl");
        // Window 0: dwell 40µs, judged before the budget lands.
        std::fs::write(
            &shard,
            machine_parcel(0, true, 0, &[40_000]) + &machine_parcel(1, true, 0, &[40_000]),
        )
        .unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 2, 4, vec![shard.clone()]);
        mon.poll().unwrap();
        assert_eq!(mon.snapshots()[0].verdict.label(), "healthy");
        assert!(mon.policy().dwell_budget_ns.is_none());
        // Calibrate: budget 10µs × 1000‰ margin — the same 40µs dwell
        // now degrades the next window.
        mon.arm_dwell_budget(10_000, 1000);
        assert_eq!(mon.policy().dwell_budget_ns, Some(10_000));
        let mut f = OpenOptions::new().append(true).open(&shard).unwrap();
        f.write_all(machine_parcel(2, true, 0, &[40_000]).as_bytes())
            .unwrap();
        f.write_all(machine_parcel(3, true, 0, &[40_000]).as_bytes())
            .unwrap();
        drop(f);
        mon.poll().unwrap();
        assert_eq!(mon.snapshots()[0].verdict.label(), "healthy");
        assert_eq!(mon.snapshots()[1].verdict.label(), "degraded");
        assert!(mon.snapshots()[1].verdict.reasons()[0].contains("dwell p99"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hostile shard line nested far past the JSON parser's limit
    /// ends the poll in a typed parse error on a 2 MiB thread — the
    /// default stack of a spawned thread, which a campaign may run on —
    /// instead of overflowing it and aborting the process.
    #[test]
    fn deeply_nested_shard_line_is_a_typed_parse_error() {
        let dir = scratch("deep");
        let shard = dir.join("worker-0.jsonl");
        let mut text = machine_parcel(0, true, 0, &[40_000]);
        text.push_str(&"[".repeat(200_000));
        text.push('\n');
        text.push_str(&machine_parcel(1, true, 0, &[41_000]));
        std::fs::write(&shard, text).unwrap();
        let polled = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || HealthMonitor::new(HealthPolicy::new(), 2, 2, vec![shard]).poll())
            .unwrap()
            .join()
            .expect("the poll returns instead of overflowing the stack");
        assert!(
            matches!(&polled, Err(ShardError::Parse { error, .. }) if error.contains("nesting deeper than")),
            "{polled:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A non-empty sketch line whose `min` exceeds its `max` ends the
    /// poll in a typed parse error naming the line, instead of reaching
    /// the window's quantile query and panicking the monitor.
    #[test]
    fn hostile_sketch_line_is_a_typed_parse_error() {
        let dir = scratch("minmax");
        let shard = dir.join("worker-0.jsonl");
        let hostile = "{\"type\":\"sketch\",\"v\":1,\"name\":\"machine.smm_dwell_ns\",\
                       \"count\":1,\"sum\":1,\"zeros\":0,\"min\":100,\"max\":50,\
                       \"idx\":[200],\"counts\":[1]}";
        std::fs::write(
            &shard,
            format!("{hostile}\n{}", machine_parcel(0, true, 0, &[])),
        )
        .unwrap();
        let polled = HealthMonitor::new(HealthPolicy::new(), 1, 1, vec![shard]).poll();
        assert!(
            matches!(&polled, Err(ShardError::Parse { error, .. }) if error == "line 1: sketch min 100 > max 50"),
            "{polled:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Feed `text` as worker 0's shard of a 2-machine, window-2 monitor
    /// and return what `poll` then `finish` make of it.
    fn judge_two_machines(case: &str, text: &str) -> Result<HealthReport, ShardError> {
        let dir = scratch(case);
        let shard = dir.join("worker-0.jsonl");
        std::fs::write(&shard, text).unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 2, 2, vec![shard]);
        let judged = mon.poll().and_then(|_| mon.finish());
        let _ = std::fs::remove_dir_all(&dir);
        judged
    }

    fn assert_parse_error_names(judged: &Result<HealthReport, ShardError>, want: &str) {
        assert!(
            matches!(judged, Err(ShardError::Parse { error, .. }) if error.contains(want)),
            "want a parse error containing {want:?}, got {judged:?}"
        );
    }

    /// A second parcel for a machine cannot overwrite its verdict:
    /// neither while the first is pending nor after its window closed.
    #[test]
    fn duplicate_machine_line_is_a_typed_parse_error() {
        let pending = machine_parcel(0, true, 0, &[40_000])
            + &machine_parcel(1, false, 1, &[40_000])
            + &machine_parcel(1, true, 0, &[40_000]);
        let judged = judge_two_machines("dup-pending", &pending);
        assert_parse_error_names(&judged, "machine 1 reported twice");

        let dir = scratch("dup-judged");
        let shard = dir.join("worker-0.jsonl");
        std::fs::write(
            &shard,
            machine_parcel(0, true, 0, &[40_000]) + &machine_parcel(1, false, 1, &[40_000]),
        )
        .unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 2, 2, vec![shard.clone()]);
        assert_eq!(mon.poll().unwrap(), 1);
        OpenOptions::new()
            .append(true)
            .open(&shard)
            .unwrap()
            .write_all(machine_parcel(1, true, 0, &[40_000]).as_bytes())
            .unwrap();
        assert_parse_error_names(&mon.finish(), "machine 1 reported twice");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_machine_line_is_a_typed_parse_error() {
        let text = machine_parcel(0, true, 0, &[40_000])
            + &machine_parcel(1, true, 0, &[40_000])
            + &machine_parcel(7, true, 0, &[40_000]);
        let judged = judge_two_machines("out-of-range", &text);
        assert_parse_error_names(&judged, "machine 7 out of range");
    }

    /// A machine line whose `ok` is absent or not a bool is malformed,
    /// not a failure.
    #[test]
    fn machine_line_without_ok_is_a_typed_parse_error() {
        let good = machine_parcel(1, true, 0, &[40_000]);
        for (case, bad) in [
            ("no-ok", good.replace("\"ok\":true,", "")),
            ("int-ok", good.replace("\"ok\":true,", "\"ok\":1,")),
        ] {
            let text = machine_parcel(0, true, 0, &[40_000]) + &bad;
            let judged = judge_two_machines(case, &text);
            assert_parse_error_names(&judged, "machine 1: machine line missing \"ok\"");
        }
    }

    /// A machine line is known by its decoded `"type"`, not by how it
    /// is spelled: written `"type": "machine"` — valid JSON — it still
    /// closes its parcel, so machine 1's failure is judged instead of
    /// the campaign reading healthy with no snapshot at all.
    #[test]
    fn spaced_machine_line_closes_its_parcel() {
        let spaced = machine_parcel(1, false, 0, &[40_000])
            .replace("\"type\":\"machine\"", "\"type\": \"machine\"");
        let report =
            judge_two_machines("spaced", &(machine_parcel(0, true, 0, &[40_000]) + &spaced))
                .unwrap();
        assert_eq!(report.machines_seen, 2);
        assert_eq!(report.snapshots.len(), 1);
        assert_eq!((report.total.ok, report.total.failed), (1, 1));
        assert_eq!(report.final_verdict().label(), "halt");
    }

    /// Every smi line of a parcel must name the machine whose outcome
    /// line closes it; otherwise its violations would halt this
    /// machine's window while blaming another machine.
    #[test]
    fn smi_line_of_another_machine_is_a_typed_parse_error() {
        let dir = scratch("foreign-smi");
        let shard = dir.join("worker-0.jsonl");
        std::fs::write(
            &shard,
            tampered_smi_line(1) + &machine_parcel(0, true, 0, &[40_000]),
        )
        .unwrap();
        let judged = HealthMonitor::new(HealthPolicy::new(), 1, 2, vec![shard])
            .with_integrity(IntegrityPolicy::new().with_expected_measurement(0xabcd))
            .finish();
        assert_parse_error_names(
            &judged,
            "line 4: machine 0: parcel carries an smi line of machine 1",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A worker's open parcel — lines folded, machine line not yet
    /// committed — is resident state: it raises the figure, and its
    /// machine line releases it.
    #[test]
    fn open_parcel_counts_in_resident_state_until_its_machine_line() {
        let dir = scratch("open-parcel");
        let shard = dir.join("worker-0.jsonl");
        std::fs::write(&shard, "").unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 1, 1, vec![shard.clone()])
            .with_integrity(IntegrityPolicy::new().with_expected_measurement(0xabcd));
        mon.poll().unwrap();
        let idle = mon.resident_state_bytes();

        let parcel = machine_parcel(0, true, 0, &[40_000, 80_000, 160_000]);
        let (metrics, machine_line) =
            parcel.split_at(parcel[..parcel.len() - 1].rfind('\n').unwrap() + 1);
        append(&shard, &(tampered_smi_line(0) + metrics));
        mon.poll().unwrap();
        let open = mon.resident_state_bytes();
        assert!(
            open > idle,
            "open parcel not counted: {open} vs idle {idle}"
        );

        append(&shard, machine_line);
        mon.poll().unwrap();
        assert_eq!(mon.snapshots().len(), 1);
        assert_eq!(mon.snapshots()[0].verdict.label(), "halt");
        let closed = mon.resident_state_bytes();
        assert!(
            closed < open,
            "machine line kept the parcel: {closed} vs {open}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shard that never writes a machine line keeps one parcel open
    /// forever. What the monitor holds for it is the parcel's sketches
    /// and capped reasons, never its lines: 10 000 metric blocks stay
    /// under 8 KiB.
    #[test]
    fn ten_k_metric_blocks_without_a_machine_line_stay_bounded() {
        let dir = scratch("no-machine-line");
        let shard = dir.join("worker-0.jsonl");
        std::fs::write(&shard, "").unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 8, 10_000, vec![shard.clone()]);
        let mut peak = 0u64;
        for chunk in 0..20u64 {
            let mut text = String::new();
            for m in chunk * 500..(chunk + 1) * 500 {
                let reg = MetricsRegistry::new();
                reg.observe(SMM_DWELL_METRIC, 40_000 + m % 64);
                reg.counter_add(RECORDS_DROPPED_METRIC, 1);
                text.push_str(&metrics_json_lines(&reg.snapshot()));
            }
            append(&shard, &text);
            mon.poll().unwrap();
            peak = peak.max(mon.resident_state_bytes());
        }
        assert_eq!(mon.lines_consumed(), 20_000);
        assert_eq!(mon.machines_seen(), 0);
        assert!(peak < 8 * 1024, "peak resident {peak} bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A line the writer is still appending is not read: the poll stops
    /// at the last committed `\n`, and the line is read once, whole,
    /// by the poll after its newline lands. A committed line that does
    /// not decode still fails the poll.
    #[test]
    fn tail_torn_final_line_waits_for_the_next_poll() {
        let dir = scratch("torn");
        let shard = dir.join("worker-0.jsonl");
        let first = machine_parcel(0, true, 0, &[40_000]);
        let second = machine_parcel(1, false, 0, &[41_000]);
        let torn = second.find('\n').unwrap() / 2;
        std::fs::write(&shard, format!("{first}{}", &second[..torn])).unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 1, 2, vec![shard.clone()]);
        assert_eq!(mon.poll().unwrap(), 1, "machine 0's parcel is whole");
        let committed = first.lines().count() as u64;
        assert_eq!(mon.lines_consumed(), committed, "the torn line waits");
        assert_eq!(mon.poll().unwrap(), 0);
        assert_eq!(mon.lines_consumed(), committed, "nothing new is committed");

        append(&shard, &second[torn..]);
        assert_eq!(mon.poll().unwrap(), 1);
        assert_eq!(
            mon.lines_consumed(),
            committed + second.lines().count() as u64
        );
        assert_eq!(mon.snapshots()[1].window.failed, 1);

        append(&shard, "garbage\n");
        assert!(matches!(mon.poll(), Err(ShardError::Parse { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Polling a shard while it grows — cut anywhere, mid-line included —
    /// judges exactly what one poll of the finished file judges: the
    /// same snapshots and the same `lines_consumed`.
    #[test]
    fn tail_polls_across_snapshots_match_one_poll_of_the_whole_file() {
        let dir = scratch("resume");
        let text: String = (0..6)
            .map(|m| machine_parcel(m, m != 3, u64::from(m == 4), &[40_000 + m * 1_000]))
            .collect();
        let whole = dir.join("whole.jsonl");
        std::fs::write(&whole, &text).unwrap();
        let once = HealthMonitor::new(HealthPolicy::new(), 2, 6, vec![whole])
            .finish()
            .unwrap();

        let shard = dir.join("worker-0.jsonl");
        std::fs::write(&shard, "").unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 2, 6, vec![shard.clone()]);
        let mut at = 0;
        for cut in [1, 97, text.len() / 3, text.len() / 2 + 5, text.len()] {
            append(&shard, &text[at..cut]);
            at = cut;
            mon.poll().unwrap();
        }
        let polled = mon.finish().unwrap();
        assert_eq!(polled.snapshots, once.snapshots);
        assert_eq!(polled.lines_consumed, once.lines_consumed);
        assert_eq!(polled.total, once.total);
        assert_eq!(once.snapshots.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shard rewritten shorter than the monitor's resume offset (a
    /// truncation or rotation) fails the poll with a typed error naming
    /// the shard, instead of reading from a stale offset into the new
    /// file's bytes; nothing of the new file is judged.
    #[test]
    fn tail_truncated_shard_is_a_typed_error_naming_the_path() {
        let dir = scratch("truncated");
        let shard = dir.join("worker-0.jsonl");
        let text: String = (0..3)
            .map(|m| machine_parcel(m, true, 0, &[40_000]))
            .collect();
        std::fs::write(&shard, &text).unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 1, 4, vec![shard.clone()]);
        assert_eq!(mon.poll().unwrap(), 3);

        let rotated = machine_parcel(3, false, 0, &[40_000]);
        std::fs::write(&shard, &rotated).unwrap();
        let err = mon.poll().unwrap_err();
        match &err {
            ShardError::Truncated { path, offset, len } => {
                assert_eq!(path, &shard);
                assert_eq!(*offset, text.len() as u64);
                assert_eq!(*len, rotated.len() as u64);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(err.to_string().contains("truncated or rotated"), "{err}");
        assert_eq!(mon.snapshots().len(), 3);
        assert_eq!(mon.machines_seen(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A committed line longer than [`crate::shard::MAX_LINE_BYTES`]
    /// fails the poll with a typed error naming the shard and the line,
    /// without decoding any of it.
    #[test]
    fn over_long_shard_line_is_a_typed_parse_error() {
        let dir = scratch("over-long");
        let shard = dir.join("worker-0.jsonl");
        let parcel = machine_parcel(0, true, 0, &[40_000]);
        let long = format!(
            "{{\"type\":\"event\",\"name\":\"{}\"}}",
            "x".repeat(1 << 20)
        );
        std::fs::write(&shard, format!("{parcel}{long}\n")).unwrap();
        let polled = HealthMonitor::new(HealthPolicy::new(), 1, 2, vec![shard.clone()]).poll();
        let line = parcel.lines().count() + 1;
        let want = format!("line {line}: line of {} bytes exceeds", long.len());
        assert!(
            matches!(&polled, Err(ShardError::Parse { path, error }) if path == &shard && error.starts_with(&want)),
            "{polled:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unterminated final line longer than
    /// [`crate::shard::MAX_LINE_BYTES`] fails the poll with a typed
    /// error naming the shard, the byte the line starts at and the cap,
    /// instead of being read whole again by every poll. A shorter one
    /// still waits for its newline.
    #[test]
    fn tail_unterminated_line_over_the_cap_is_a_typed_error() {
        let dir = scratch("unterminated");
        let shard = dir.join("worker-0.jsonl");
        let parcel = machine_parcel(0, true, 0, &[40_000]);
        std::fs::write(&shard, format!("{parcel}{}", "x".repeat(1 << 20))).unwrap();
        let polled = HealthMonitor::new(HealthPolicy::new(), 1, 2, vec![shard.clone()]).poll();
        let want = format!(
            "unterminated line at byte {} exceeds the {}-byte cap",
            parcel.len(),
            crate::shard::MAX_LINE_BYTES
        );
        assert!(
            matches!(&polled, Err(ShardError::Parse { path, error }) if path == &shard && error == &want),
            "{polled:?}"
        );

        let head = "{\"type\":\"event\",\"v\":1,\"name\":\"";
        let line = format!("{head}{}\"}}", "x".repeat((64 << 10) - head.len() - 2));
        std::fs::write(&shard, &line).unwrap();
        let mut mon = HealthMonitor::new(HealthPolicy::new(), 1, 2, vec![shard.clone()]);
        assert_eq!(mon.poll(), Ok(0));
        assert_eq!(mon.lines_consumed(), 0, "the line waits for its newline");
        append(&shard, "\n");
        assert_eq!(mon.poll(), Ok(0));
        assert_eq!(mon.lines_consumed(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_shard_files_mean_no_data_not_errors() {
        let dir = scratch("missing");
        let mut mon = HealthMonitor::new(
            HealthPolicy::new(),
            2,
            4,
            vec![dir.join("worker-0.jsonl"), dir.join("worker-1.jsonl")],
        );
        assert_eq!(mon.poll().unwrap(), 0);
        assert_eq!(mon.machines_seen(), 0);
        let report = mon.finish().unwrap();
        assert!(report.snapshots.is_empty());
        assert_eq!(report.final_verdict(), HealthVerdict::Healthy);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
