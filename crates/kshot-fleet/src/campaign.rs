//! The campaign driver: place machines on workers, run every machine's
//! full KShot session with retry/recovery, and fold the results into
//! one [`CampaignReport`].
//!
//! Each worker is an event-driven scheduler over resumable
//! [`MachineSession`](crate::session) state machines: CPU phases run
//! from a ready queue, link-RTT waits park in a deadline-ordered map,
//! and the worker only sleeps when *no* session has CPU work ready.
//! With [`FleetConfig::pipeline_depth`] > 1 that overlaps one machine's
//! in-flight delivery with other machines' attest/decrypt/verify/apply
//! phases on the same worker thread — the single-worker throughput
//! unlock for latency-bound campaigns. Depth 1 reproduces the old
//! one-machine-at-a-time behaviour exactly.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::iter::Peekable;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use kshot_cve::{benchmark_options, benchmark_tree, KernelVersion};
use kshot_kcc::KernelImage;
use kshot_kernel::Kernel;
use kshot_machine::{JournalOp, MemLayout, SimTime, SmiCause, SmiFlightRecord};
use kshot_patchserver::{BundleCache, PatchServer};
use kshot_telemetry::{
    DigestRollup, HealthMonitor, HealthPolicy, MachineLine, Recorder, RecorderScope, SmiLine,
    StreamSink, RECORDS_DROPPED_METRIC,
};

use crate::config::FleetConfig;
use crate::fold::OutcomeFold;
use crate::report::{CampaignHealth, CampaignReport, WorkerOccupancy};
use crate::rollout::{
    RolloutController, RolloutGate, RolloutPlan, RolloutReport, RolloutTrail, Wave, WaveAction,
};
use crate::session::{Campaign, MachineSession, StepStatus};

/// What every machine in the fleet patches: one pre-linked kernel image
/// (shared immutably — booting a machine copies its segments into
/// memory, never relinks the tree) plus the version string and memory
/// layout it boots under.
#[derive(Debug, Clone)]
pub struct CampaignTarget {
    /// The kernel image every machine boots. Linked once, shared by all.
    pub image: Arc<KernelImage>,
    /// Kernel version string the image corresponds to.
    pub version: String,
    /// Memory layout each machine is built with.
    pub layout: MemLayout,
}

impl CampaignTarget {
    /// Build the benchmark target for `version`: link the benchmark tree
    /// once against [`MemLayout::fleet`] (whose text/data bases match the
    /// standard layout, so the image is the same either way) and return
    /// it together with a patch server that knows the source tree.
    pub fn benchmark(version: KernelVersion) -> (CampaignTarget, PatchServer) {
        let layout = MemLayout::fleet();
        let tree = benchmark_tree(version);
        // Both benchmark trees are fixed sources, and kshot-cve's
        // `both_trees_validate_and_link` links each at these bases.
        let image = kshot_kcc::link(
            &tree,
            &benchmark_options(),
            layout.kernel_text_base,
            layout.kernel_data_base,
        )
        .expect("benchmark tree links");
        let mut server = PatchServer::new();
        server.register_tree(version.as_str(), tree);
        let target = CampaignTarget {
            image: Arc::new(image),
            version: version.as_str().to_string(),
            layout,
        };
        (target, server)
    }

    /// Boot one machine of the fleet (outside any campaign) — used to
    /// obtain a [`kshot_kernel::KernelInfo`] for the patch server, and by
    /// tests that want a reference machine.
    pub fn boot_one(&self) -> Kernel {
        // Every campaign machine boots this image on this layout, and
        // `benchmark` linked it at the layout's own bases.
        Kernel::boot(Arc::clone(&self.image), self.version.as_str(), self.layout)
            .expect("fleet image boots on the fleet layout")
    }
}

/// The result of one machine's patch session(s).
#[derive(Debug, Clone)]
pub struct MachineOutcome {
    /// Machine index within the campaign (0-based).
    pub machine: usize,
    /// Worker thread that ran this machine.
    pub worker: usize,
    /// Session attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Whether the patch was ultimately applied.
    pub ok: bool,
    /// Error string of the last failed attempt, if the machine failed
    /// for good (always `None` when `ok`).
    pub error: Option<String>,
    /// Simulated latency of the *successful* session (SGX + SMM total).
    pub latency: Option<SimTime>,
    /// The machine's simulated clock when the campaign left it (includes
    /// boot, failed attempts, and backoff).
    pub sim_clock: SimTime,
    /// Digest over the machine's final kernel text and `mem_X` windows.
    /// Identical digests across the fleet mean identical applied state.
    pub state_digest: [u8; 32],
    /// Faults the injection engine actually fired on this machine.
    pub faults_injected: u64,
    /// SMM-context writes the injection engine observed while a plan
    /// was armed (0 when the campaign planned no fault here). Non-zero
    /// with `faults_injected == 0` means the plan was armed but its
    /// trigger never matched — accounting that used to be silently
    /// dropped when the session succeeded.
    pub injection_writes_seen: u64,
    /// SMIs whose SMM dwell exceeded the campaign's budget (always 0
    /// when no [`FleetConfig::smm_dwell_budget`] is armed).
    pub smm_overbudget: u64,
    /// Longest single SMM dwell (SMI delivery through RSM completion)
    /// observed on this machine, in simulated time.
    pub max_smm_dwell: SimTime,
    /// Whether `recover()` itself failed after a failed attempt. The
    /// machine is failed terminally (no retry — re-patching a possibly
    /// mid-unwind kernel is worse than reporting it), and the campaign
    /// counts it in the `fleet.recovery_failed` counter.
    pub recovery_failed: bool,
    /// Rollout only: this machine's applied patch was reverted after
    /// its wave's Halt verdict.
    pub rolled_back: bool,
    /// Rollout only: non-revertible sites the rollback skipped
    /// ([`kshot_core::RollbackOutcome::skipped`] count) — non-zero
    /// means the machine still carries data edits.
    pub rollback_skipped: u64,
    /// Rollout only: the rollback failed even after journal recovery.
    pub rollback_failed: bool,
    /// Whether the machine was ever admitted. `false` only when a
    /// rollout stopped before this machine's wave opened — the machine
    /// was never booted and counts as failed.
    pub admitted: bool,
    /// The machine's SMI flight ring as the campaign last observed it
    /// (at patched-state snapshot under a rollout, at finalization
    /// otherwise): one bounded [`SmiFlightRecord`] per SMI, oldest
    /// evicted first past the ring capacity. Empty when the machine
    /// never took an SMI (early failure, never admitted).
    pub flight: Vec<SmiFlightRecord>,
    /// The SMI behind [`MachineOutcome::max_smm_dwell`]: its index and
    /// declared cause, so a dwell anomaly names the exact SMI instead
    /// of just the machine. `None` when no SMI completed.
    pub dwell_worst: Option<(u64, SmiCause)>,
}

impl MachineOutcome {
    /// The outcome line a worker appends to its shard, closing the
    /// machine's parcel.
    fn shard_line(&self) -> MachineLine {
        MachineLine {
            machine: self.machine as u64,
            worker: self.worker as u64,
            ok: self.ok,
            attempts: u64::from(self.attempts),
            retries: self.retries,
            faults_injected: self.faults_injected,
            sim_clock_ns: self.sim_clock.as_ns(),
            smm_overbudget: self.smm_overbudget,
            max_smm_dwell_ns: self.max_smm_dwell.as_ns(),
            dwell_worst: self
                .dwell_worst
                .map(|(smi, cause)| (smi, cause.label().to_string())),
            latency_ns: self.latency.map(SimTime::as_ns),
        }
    }

    /// The outcome of a machine whose session has not run yet: admitted,
    /// no attempts, nothing applied.
    pub(crate) fn new(machine: usize, worker: usize) -> MachineOutcome {
        MachineOutcome {
            machine,
            worker,
            attempts: 0,
            retries: 0,
            ok: false,
            error: None,
            latency: None,
            sim_clock: SimTime::ZERO,
            state_digest: [0; 32],
            faults_injected: 0,
            injection_writes_seen: 0,
            smm_overbudget: 0,
            max_smm_dwell: SimTime::ZERO,
            recovery_failed: false,
            rolled_back: false,
            rollback_skipped: 0,
            rollback_failed: false,
            admitted: true,
            flight: Vec::new(),
            dwell_worst: None,
        }
    }
}

/// Why a campaign failed as a whole; a machine that fails inside one
/// is reported by its [`MachineOutcome`].
#[derive(Debug)]
pub enum CampaignError {
    /// [`FleetConfig::with_health`] without a stream directory to tail.
    HealthWithoutStream,
    /// [`FleetConfig::with_integrity`] without the monitor that runs it.
    IntegrityWithoutHealth,
    /// [`FleetConfig::with_rollout`] without the monitor that judges it.
    RolloutWithoutHealth,
    /// A link RTT whose deadline, counted from now, no [`Instant`] holds.
    LinkRttOutOfRange(Duration),
    /// A worker could not open its shard.
    Shard {
        /// The shard's path.
        path: PathBuf,
        /// Why it did not open.
        error: std::io::Error,
    },
    /// The monitor's snapshot sink did not open, or a poll or the final
    /// catch-up failed.
    Monitor(String),
    /// A worker panicked.
    WorkerPanicked {
        /// The worker's index.
        worker: usize,
        /// The panic's message.
        message: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::HealthWithoutStream => {
                "FleetConfig::with_health requires with_stream_dir (the monitor tails shards)"
            }
            Self::IntegrityWithoutHealth => {
                "FleetConfig::with_integrity requires with_health (the monitor replays the smi stream)"
            }
            Self::RolloutWithoutHealth => {
                "FleetConfig::with_rollout requires with_health (wave verdicts come from the monitor)"
            }
            Self::LinkRttOutOfRange(rtt) => {
                return write!(f, "link RTT {rtt:?} puts a deadline past Instant's range");
            }
            Self::Shard { path, error } => return write!(f, "open shard {}: {error}", path.display()),
            Self::Monitor(message) | Self::WorkerPanicked { message, .. } => message,
        })
    }
}

impl std::error::Error for CampaignError {}

/// Run one campaign: patch `config.machines` machines, sharded over
/// `config.workers` OS threads, all applying the bundle serialized in
/// `bundle_bytes`, or [`FleetConfig::catalogue`] when one is armed.
/// Before any worker starts, the campaign decodes each blob once through
/// a [`BundleCache`] of its own and builds what every attempt delivers:
/// a patch's own bytes, or under batching the encoded merge of the
/// patches not yet applied. Every attempt is then one
/// [`kshot_core::KShot::live_patch_wire`] call on those bytes.
///
/// Every campaign takes one path. [`placement`] cuts the fleet into
/// consecutive blocks dealt round-robin to the workers; each worker
/// folds every block it owns, in machine order, into an
/// [`OutcomeFold`], and the campaign merges the block folds in block
/// order into the report's fold. [`FleetConfig::retain_outcomes`] only
/// decides whether each folded outcome (and its recorder) is kept as
/// well. Per-machine results are independent of placement (a machine's
/// seed, clock, and digest derive only from its own index). Each
/// worker keeps up to [`FleetConfig::pipeline_depth`] sessions live at
/// once, stepping whichever has CPU work while the others wait out
/// their link RTT deadlines; per-machine execution stays
/// deterministic because scheduling only decides *when* a machine's
/// next step runs, never what it computes. The calling thread joins
/// each worker as it stops and, between those checks, runs the health
/// monitor and any rollout controller itself.
///
/// # Errors
///
/// An option combination or link RTT the campaign cannot run, before
/// any work; else the first failed worker's error in worker order, else
/// the monitor's. A failed worker or monitor fails a rollout closed.
pub fn try_run_campaign(
    target: &CampaignTarget,
    bundle_bytes: &[u8],
    config: &FleetConfig,
) -> Result<CampaignReport, CampaignError> {
    // Refuse what the configuration cannot run before any work.
    let health_cfg = match (&config.health_policy, &config.stream_dir) {
        (Some(_), None) => return Err(CampaignError::HealthWithoutStream),
        (Some(policy), Some(dir)) => Some((policy, dir.as_path())),
        (None, _) if config.integrity.is_some() => {
            return Err(CampaignError::IntegrityWithoutHealth)
        }
        (None, _) if config.rollout.is_some() => return Err(CampaignError::RolloutWithoutHealth),
        (None, _) => None,
    };
    if Instant::now().checked_add(config.link_rtt).is_none() {
        return Err(CampaignError::LinkRttOutOfRange(config.link_rtt));
    }
    let workers = config.workers.max(1);
    let started = Instant::now();
    // Resolve every delivery here, on the campaign thread and outside
    // every machine's recorder scope, so no machine's parcel carries the
    // decode. A delivery that could not be built fails each machine that
    // reaches it, once. Dropping the cache keeps no decoded bundle alive
    // while the machines run.
    let cache = BundleCache::new();
    let run = Campaign::new(target, config, bundle_bytes, &cache);
    let (cache_hits, cache_misses) = (cache.hits(), cache.misses());
    drop(cache);

    let rollout = config
        .rollout
        .as_ref()
        .filter(|_| config.machines > 0)
        .map(|plan| {
            let waves = plan.waves(config.machines);
            let gate = RolloutGate::new(waves[0].end);
            (plan, waves, gate)
        });
    let shards = placement(config.machines, workers);
    let blocks: usize = shards.iter().map(Vec::len).sum();
    let (stopped, health, trail) = thread::scope(|scope| {
        let gate = rollout.as_ref().map(|(_, _, gate)| gate);
        let mut running: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(worker, blocks)| {
                let run = &run;
                Some(scope.spawn(move || run_worker(run, worker, blocks, gate)))
            })
            .collect();
        // The monitor opens its snapshot sink once the workers run.
        let mut watch =
            health_cfg.map(|(policy, dir)| Watch::open(policy, dir, config, rollout.as_ref()));
        let mut stopped = BTreeMap::new();
        loop {
            // Join every worker that has stopped; with no monitor to
            // poll, wait on each in turn.
            for (worker, slot) in running.iter_mut().enumerate() {
                if let Some(handle) = slot.take_if(|h| watch.is_none() || h.is_finished()) {
                    let result = handle.join().unwrap_or_else(|payload| {
                        let message = (payload.downcast_ref::<String>().map(String::as_str))
                            .or_else(|| payload.downcast_ref::<&str>().copied());
                        let message = message.unwrap_or_default().to_string();
                        Err(CampaignError::WorkerPanicked { worker, message })
                    });
                    stopped.insert(worker, result);
                }
            }
            let finished = stopped.len() == workers;
            let Some(watch) = watch.as_mut() else {
                break;
            };
            watch.poll(finished, stopped.values().any(Result::is_err));
            if finished {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        let (health, trail) = watch.map(Watch::finish).unzip();
        (stopped, health, trail.flatten())
    });
    let wall = started.elapsed();
    let recorder = Recorder::new();
    let mut occupancy = Vec::with_capacity(workers);
    let mut worker_blocks = Vec::with_capacity(workers);
    for result in stopped.into_values() {
        let (closed, metrics, worker_occupancy) = result?;
        recorder.metrics().merge_from(metrics.metrics());
        worker_blocks.push(closed.into_iter());
        occupancy.push(worker_occupancy);
    }
    let health = health.transpose()?;
    // Block `b` ran on worker `b % workers`, so taking the next block
    // from each worker in turn walks the fleet in machine order: the
    // folds merge as adjacent ranges, and kept outcomes (with their
    // records) arrive sorted. Every worker returned one block per range
    // `placement` dealt it, and `placement` deals adjacent ranges.
    let mut fold = OutcomeFold::new();
    let mut outcomes = Vec::new();
    for worker in (0..workers).cycle().take(blocks) {
        let block = worker_blocks[worker]
            .next()
            .expect("a fold for every block");
        fold.merge(&block.fold)
            .expect("consecutive blocks cover adjacent machine ranges");
        for (outcome, machine_recorder) in block.kept {
            recorder.merge_from(&machine_recorder);
            outcomes.push(outcome);
        }
    }
    let rollout = rollout.map(|(plan, _, _)| {
        RolloutReport::assemble(plan, config.machines, trail.unwrap_or_default(), &fold)
    });
    Ok(CampaignReport::assemble(
        config,
        outcomes,
        fold,
        recorder,
        occupancy,
        wall,
        cache_hits,
        cache_misses,
        health,
        rollout,
    ))
}

/// [`try_run_campaign`], panicking with the error's message when the
/// campaign fails.
pub fn run_campaign(
    target: &CampaignTarget,
    bundle_bytes: &[u8],
    config: &FleetConfig,
) -> CampaignReport {
    try_run_campaign(target, bundle_bytes, config).unwrap_or_else(|e| panic!("{e}"))
}

/// The campaign's live health plane, run by the thread that called
/// [`try_run_campaign`] between its checks on the workers: the health
/// monitor tailing the worker shards and, under a rollout, the
/// [`RolloutController`] that folds its snapshots into wave verdicts
/// and actuates the gate the workers watch (admission, finalization,
/// rollback). One thread runs both, so the controller's decisions land
/// in the monitor's deterministic snapshot order.
struct Watch<'a> {
    /// The monitor, or why it failed (a failed monitor judges nothing).
    monitor: Result<HealthMonitor, CampaignError>,
    controller: Option<RolloutController<'a>>,
    /// Snapshots emitted by rounds that began before every worker had
    /// stopped: the mid-campaign detection the health plane exists for.
    live: usize,
}

impl<'a> Watch<'a> {
    /// The monitor over `config`'s worker shards in `dir`, streaming its
    /// snapshots to `dir/health.jsonl`, and the controller of `rollout`.
    fn open(
        policy: &HealthPolicy,
        dir: &Path,
        config: &FleetConfig,
        rollout: Option<&'a (&RolloutPlan, Vec<Wave>, RolloutGate)>,
    ) -> Watch<'a> {
        let shards = (0..config.workers.max(1))
            .map(|w| dir.join(format!("worker-{w}.jsonl")))
            .collect();
        // A rollout's window is its canary, so no window straddles a wave.
        let window = rollout.map_or(config.health_window, |(plan, _, _)| {
            plan.canary_size(config.machines)
        });
        let mut monitor = HealthMonitor::new(policy.clone(), window, config.machines, shards);
        if let Some((_, waves, _)) = rollout {
            monitor = monitor.with_wave_boundaries(waves.iter().map(|w| w.end as u64).collect());
        }
        if let Some(policy) = &config.integrity {
            monitor = monitor.with_integrity(policy.clone());
        }
        Watch {
            monitor: monitor
                .with_snapshot_path(dir.join("health.jsonl"))
                .map_err(|e| CampaignError::Monitor(format!("open health snapshot sink: {e}"))),
            controller: rollout
                .map(|(plan, waves, gate)| RolloutController::new(plan, waves.clone(), gate)),
            live: 0,
        }
    }

    /// One round: poll the shards and fold new snapshots into wave
    /// verdicts. `finished` says whether every worker had stopped before
    /// the round began. A failed monitor, or a failed worker whose
    /// machines will never be judged, fails the rollout closed: the wave
    /// in flight halts as a Halt verdict would halt it, so the workers
    /// finish instead of waiting on a gate nobody opens.
    fn poll(&mut self, finished: bool, worker_failed: bool) {
        if let Ok(monitor) = &mut self.monitor {
            match monitor.poll() {
                Ok(_) => {
                    if !finished {
                        self.live = monitor.snapshots().len();
                    }
                    if let Some(controller) = &mut self.controller {
                        controller.observe(monitor);
                    }
                }
                Err(e) => {
                    self.monitor = Err(CampaignError::Monitor(format!("health monitor poll: {e}")));
                }
            }
        }
        let failed = worker_failed || self.monitor.is_err();
        if let Some(controller) = self.controller.as_mut().filter(|_| failed) {
            controller.fail_closed();
        }
    }

    /// Run the final catch-up poll and fold everything into a
    /// [`CampaignHealth`], beside the rollout's trail.
    fn finish(self) -> (Result<CampaignHealth, CampaignError>, Option<RolloutTrail>) {
        let health = self.monitor.and_then(|monitor| {
            let report = monitor
                .finish()
                .map_err(|e| CampaignError::Monitor(format!("health monitor finish: {e}")))?;
            let live = report.snapshots.get(..self.live).unwrap_or_default();
            Ok(CampaignHealth {
                live_snapshots: live.len() as u64,
                // Halt, the verdict a rollout acts on, is a signal of its own.
                degraded_live: live.iter().any(|s| s.verdict.severity() == 1),
                halt_live: live.iter().any(|s| s.verdict.severity() >= 2),
                report,
            })
        });
        (health, self.controller.map(RolloutController::into_trail))
    }
}

/// One machine's shard parcel, held back until its turn in the worker's
/// canonical machine order: its lines, rendered into one buffer. `None`
/// marks a machine a stopped rollout never admitted — nothing to write,
/// but the flush cursor must still pass it so later machines' parcels
/// are not stranded.
type Parcel = Option<String>;

/// Write every parcel that is next in canonical order to the shard, and
/// advance the cursor. Committing a parcel (one write, one flush) means
/// a live tailer (the health monitor) can see it — under a rollout that
/// is what lets a wave be judged while its machines are still held.
fn flush_parcels(
    sink: &StreamSink,
    parcels: &mut BTreeMap<usize, Parcel>,
    order: &mut Peekable<impl Iterator<Item = usize>>,
) {
    while let Some(parcel) = order.peek().and_then(|m| parcels.remove(m)) {
        order.next();
        if let Some(block) = parcel {
            sink.write_block(&block);
            sink.flush();
        }
    }
}

/// Seal a machine whose telemetry is final (for the shard's purposes):
/// fold ring-eviction losses into a counter *before* the metrics block
/// is rendered, so the health monitor (and any shard re-aggregation)
/// sees the drop accounting a campaign that keeps no records would
/// otherwise lose with the record stream.
fn seal(session: &mut MachineSession) {
    session.sealed = true;
    let dropped = session.recorder.dropped();
    if dropped > 0 {
        session
            .recorder
            .metrics()
            .counter_add(RECORDS_DROPPED_METRIC, dropped);
    }
}

/// A sealed machine's shard parcel, rendered from its own recorder into
/// one buffer: the retained records in emit order, one `smi` line per
/// record of its SMI flight ring, then the machine's section closes with
/// its metric totals (counters saturate, sketches merge bucket-wise on
/// re-aggregation) and one outcome line carrying what the in-memory
/// MachineOutcome carries. The `smi` lines come straight from the ring
/// (never through the Record pipeline, whose lines carry wall-clock
/// timestamps), so the smi stream is byte-identical across worker
/// counts, pipeline depths, and batching modes.
fn parcel(session: &MachineSession) -> Parcel {
    let (outcome, recorder) = (&session.outcome, &session.recorder);
    let mut block = String::with_capacity(PARCEL_CAPACITY);
    recorder.append_record_lines(&mut block);
    for rec in &outcome.flight {
        smi_line(outcome.machine, rec).append_line(&mut block);
    }
    recorder.metrics().append_json_lines(&mut block);
    outcome.shard_line().append_line(&mut block);
    Some(block)
}

/// Bytes reserved for a parcel up front: a patched machine's parcel is
/// about 5 KB, so most parcels never grow their buffer.
const PARCEL_CAPACITY: usize = 8 << 10;

/// The outcome reported for a machine a stopped rollout never admitted:
/// never booted, zero attempts, counted as failed with `admitted:
/// false`.
fn skipped_outcome(machine: usize, worker: usize) -> MachineOutcome {
    MachineOutcome {
        error: Some("rollout halted before admission".to_string()),
        admitted: false,
        ..MachineOutcome::new(machine, worker)
    }
}

/// Most placement blocks one worker owns. [`placement`] sizes blocks
/// so no worker exceeds it, which bounds the block folds a worker holds
/// until the campaign merges them.
const BLOCKS_PER_WORKER: usize = 64;

/// Where every machine runs: `0..machines` cut into consecutive blocks
/// of `max(1, ⌈machines / (workers × 64)⌉)` machines, block `b` dealt to
/// worker `b % workers`. Returns each worker's blocks in block order.
///
/// Each worker's machines therefore ascend (rollout admission relies on
/// it), block `b + 1` starts where block `b` ends (block folds merge in
/// block order), and no worker owns more than [`BLOCKS_PER_WORKER`]
/// blocks. Up to 64 machines per worker the blocks hold one machine
/// each — exact round-robin — and a single worker owns `0..machines`.
fn placement(machines: usize, workers: usize) -> Vec<Vec<Range<usize>>> {
    let workers = workers.max(1);
    let size = machines
        .div_ceil(workers.saturating_mul(BLOCKS_PER_WORKER))
        .max(1);
    let mut shards = vec![Vec::new(); workers];
    for (block, start) in (0..machines).step_by(size).enumerate() {
        shards[block % workers].push(start..machines.min(start.saturating_add(size)));
    }
    shards
}

/// One placement block as its worker closed it: the block's fold and,
/// when the campaign retains outcomes, each outcome with its recorder,
/// in machine order.
struct Block {
    fold: OutcomeFold,
    kept: Vec<(MachineOutcome, Arc<Recorder>)>,
}

/// One worker's blocks as they fold. Sessions retire out of machine
/// order — pipelined ones by a few places, and a machine held for its
/// rollout wave's verdict after its successors — but a block's Merkle
/// roll-up must absorb digests in machine order, so a retired outcome
/// waits in `pending` until every earlier machine of the worker has
/// retired.
struct BlockFolds<'a> {
    /// The worker's blocks, and one [`Block`] for each.
    ranges: &'a [Range<usize>],
    blocks: Vec<Block>,
    /// Index of the block now folding; the blocks before it are closed.
    open: usize,
    /// Retired outcomes waiting for an earlier machine.
    pending: BTreeMap<usize, (MachineOutcome, Arc<Recorder>)>,
    /// Whether absorbed outcomes are kept ([`FleetConfig::retain_outcomes`]).
    keep: bool,
    /// Metric totals of the machines that are not kept.
    metrics: Arc<Recorder>,
    /// The worker's shard, which gets each block's `rollup` line.
    sink: Option<&'a StreamSink>,
}

impl<'a> BlockFolds<'a> {
    fn new(ranges: &'a [Range<usize>], keep: bool, sink: Option<&'a StreamSink>) -> Self {
        let blocks = ranges
            .iter()
            .map(|r| Block {
                fold: OutcomeFold::starting_at(r.start),
                kept: Vec::new(),
            })
            .collect();
        BlockFolds {
            ranges,
            blocks,
            open: 0,
            pending: BTreeMap::new(),
            keep,
            metrics: Recorder::with_capacity(1),
            sink,
        }
    }

    /// Retire one machine, then absorb every outcome that is next in
    /// machine order. Closing a block writes its `rollup` line, after
    /// the block's last parcel.
    fn retire(&mut self, outcome: MachineOutcome, recorder: Arc<Recorder>) {
        self.pending.insert(outcome.machine, (outcome, recorder));
        while let Some(block) = self.blocks.get_mut(self.open) {
            let next = block.fold.start() + block.fold.machines();
            let Some((outcome, recorder)) = self.pending.remove(&next) else {
                return;
            };
            block.fold.absorb(&outcome);
            if self.keep {
                block.kept.push((outcome, recorder));
            } else {
                self.metrics.metrics().merge_from(recorder.metrics());
            }
            if next + 1 == self.ranges[self.open].end {
                if let Some(sink) = self.sink {
                    let rollup = DigestRollup {
                        tree: block.fold.tree.clone(),
                    };
                    sink.write_raw_line(&rollup.to_json_line());
                }
                self.open += 1;
            }
        }
    }

    /// The folded blocks and the metric totals of unkept machines.
    fn finish(self) -> (Vec<Block>, Arc<Recorder>) {
        debug_assert!(self.open == self.blocks.len() && self.pending.is_empty());
        (self.blocks, self.metrics)
    }
}

/// Drive one worker's blocks (see [`placement`]) with up to
/// `config.pipeline_depth` sessions in flight, and return the closed
/// blocks, the metric totals of machines it did not keep, and the
/// worker's busy/in-flight occupancy split; or its shard's open error.
fn run_worker(
    run: &Campaign,
    worker: usize,
    blocks: &[Range<usize>],
    gate: Option<&RolloutGate>,
) -> Result<(Vec<Block>, Arc<Recorder>, WorkerOccupancy), CampaignError> {
    let config = run.config;
    let workers = config.workers.max(1);
    let depth = config.pipeline_depth.max(1);
    // Stagger worker starts across one link RTT. Without this the
    // fleet convoys: every worker sleeps its RTT in lockstep (host
    // core idle), then all wake and contend for it at once. Offsetting
    // by rtt/workers keeps some worker computing while the others are
    // in-flight.
    let stagger = stagger_delay(config.link_rtt, worker, workers);
    if !stagger.is_zero() {
        thread::sleep(stagger);
    }
    // One shard file per worker; every machine this worker drives
    // lands in it as one parcel, parcels in machine order.
    let sink = config.stream_dir.as_ref().map(|dir| {
        let path = dir.join(format!("worker-{worker}.jsonl"));
        StreamSink::to_path(&path).map_err(|error| CampaignError::Shard { path, error })
    });
    let sink = sink.transpose()?;

    // The worker's machines in machine order; admission and the shard
    // flush each walk them with their own cursor.
    let mut admit = blocks.iter().cloned().flatten().peekable();
    let mut flush = blocks.iter().cloned().flatten().peekable();
    // Whether sessions record telemetry at all: kept outcomes keep
    // their recorders, and streamed machines write shard parcels.
    // Otherwise no per-machine recorder exists and no RecorderScope is
    // entered around steps, so every telemetry emit returns early — the
    // fold is the campaign's entire summary.
    let record_scope = config.retain_outcomes || sink.is_some();
    // Sessions without a recorder of their own (and machines a stopped
    // rollout never admits) share one inert recorder; nothing ever
    // enters it, so it stays empty.
    let shared_recorder = Recorder::with_capacity(1);
    let mut folds = BlockFolds::new(blocks, config.retain_outcomes, sink.as_ref());
    let mut live = 0usize;
    let mut park_seq = 0u64;
    let mut ready: VecDeque<MachineSession> = VecDeque::new();
    // Sessions waiting out a wall-clock deadline, released earliest
    // first; parking order breaks ties, so release order is
    // deterministic even when deadlines collide.
    let mut parked: BTreeMap<(Instant, u64), MachineSession> = BTreeMap::new();
    // Sessions held in AwaitVerdict (rollout only): patched, parcel
    // flushed, machine live, waiting for the gate to judge their wave.
    let mut held: BTreeMap<usize, MachineSession> = BTreeMap::new();
    // Shard parcels waiting for their turn in the shard file.
    let mut parcels: BTreeMap<usize, Parcel> = BTreeMap::new();
    let mut busy = Duration::ZERO;
    let mut in_flight = Duration::ZERO;

    loop {
        // Held sessions whose wave has been judged re-enter the ready
        // queue with their verdict, in machine order.
        if let Some(gate) = gate {
            let judged: Vec<usize> = held
                .keys()
                .copied()
                .filter(|&m| gate.action_for(m).is_some())
                .collect();
            for machine in judged {
                // `judged` was just collected from `held`'s own keys.
                let mut session = held.remove(&machine).expect("collected from held");
                let rollback = gate.action_for(machine) == Some(WaveAction::Rollback);
                session.deliver_verdict(rollback);
                ready.push_back(session);
                live += 1;
            }
        }
        // Admit new machines while the pipeline has room (and, under a
        // rollout, the gate has opened their wave — machine indices
        // ascend, so the first blocked machine blocks the rest too).
        while live < depth {
            let Some(machine) = admit.next_if(|&m| gate.is_none_or(|g| g.may_admit(m))) else {
                break;
            };
            let recorder = if record_scope {
                Recorder::new()
            } else {
                Arc::clone(&shared_recorder)
            };
            ready.push_back(MachineSession::new(machine, worker, recorder));
            live += 1;
        }
        // A stopped rollout never opens the remaining waves: report
        // their machines as never admitted and advance the flush
        // cursor past them (they have no shard parcel).
        if let Some(gate) = gate.filter(|g| g.halted()) {
            while let Some(machine) = admit.next_if(|&m| !gate.may_admit(m)) {
                parcels.insert(machine, None);
                folds.retire(
                    skipped_outcome(machine, worker),
                    Arc::clone(&shared_recorder),
                );
            }
            if let Some(sink) = &sink {
                flush_parcels(sink, &mut parcels, &mut flush);
            }
        }
        // Release every parked session whose deadline has passed, in
        // deadline order.
        let now = Instant::now();
        while let Some(entry) = parked.first_entry().filter(|e| e.key().0 <= now) {
            ready.push_back(entry.remove());
        }

        if let Some(mut session) = ready.pop_front() {
            let step_started = Instant::now();
            let status = if record_scope {
                let _scope = RecorderScope::enter(Arc::clone(&session.recorder));
                session.step(run)
            } else {
                session.step(run)
            };
            busy += step_started.elapsed();
            match status {
                StepStatus::Ready => ready.push_back(session),
                StepStatus::Wait => {
                    // A session reports Wait only from InFlight, whose
                    // state holds the deadline.
                    let deadline = session
                        .deadline()
                        .expect("a waiting session carries its deadline");
                    parked.insert((deadline, park_seq), session);
                    park_seq += 1;
                }
                StepStatus::Held | StepStatus::Done => {
                    live -= 1;
                    // A held session's patch applied and its wave's
                    // verdict decides what happens next: its parcel is
                    // committed now, because the health monitor judges
                    // the wave from it. Records the session emits after
                    // this point (rollback telemetry) stay in memory
                    // only.
                    let machine = session.outcome.machine;
                    if record_scope && !session.sealed {
                        seal(&mut session);
                        if let Some(sink) = &sink {
                            parcels.insert(machine, parcel(&session));
                            flush_parcels(sink, &mut parcels, &mut flush);
                        }
                    }
                    if status == StepStatus::Held {
                        held.insert(machine, session);
                    } else {
                        folds.retire(session.outcome, session.recorder);
                    }
                }
            }
        } else if let Some((&(deadline, _), _)) = parked.first_key_value() {
            // No CPU work anywhere: this is genuine in-flight time.
            let wait = deadline.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                thread::sleep(wait);
                in_flight += wait;
            }
        } else if !held.is_empty() || (gate.is_some() && admit.peek().is_some()) {
            // Waiting on the rollout gate: held sessions need their
            // wave's verdict, or the next wave has not been opened.
            // Verdicts arrive on the monitor's ~1 ms poll cadence.
            let wait = Duration::from_micros(200);
            thread::sleep(wait);
            in_flight += wait;
        } else {
            debug_assert!(admit.peek().is_none());
            break;
        }
    }
    if let Some(sink) = &sink {
        sink.flush();
    }
    let (closed, metrics) = folds.finish();
    Ok((
        closed,
        metrics,
        WorkerOccupancy {
            worker,
            busy,
            in_flight,
        },
    ))
}

/// The start offset for `worker`'s first delivery: `link_rtt * worker /
/// workers`, computed in 128-bit nanoseconds so huge worker counts or
/// RTTs saturate instead of panicking in `Duration`'s `Mul` overflow
/// check. Always ≤ `link_rtt`.
fn stagger_delay(link_rtt: Duration, worker: usize, workers: usize) -> Duration {
    if worker == 0 || workers == 0 || link_rtt.is_zero() {
        return Duration::ZERO;
    }
    let rtt = link_rtt.as_nanos();
    let nanos = rtt
        .saturating_mul(worker as u128)
        .checked_div(workers as u128)
        .unwrap_or(0)
        .min(rtt);
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// One SMI flight record of `machine` as its shard line, rendered
/// straight from the ring: simulated-domain values only.
fn smi_line(machine: usize, rec: &SmiFlightRecord) -> SmiLine {
    SmiLine {
        machine: machine as u64,
        smi: rec.index,
        cause: rec.cause.label().to_string(),
        measurement: rec.measurement,
        writes: rec.writes.iter().map(|w| (w.base, w.len)).collect(),
        writes_truncated: rec.writes_truncated,
        journal: rec.journal.iter().map(JournalOp::encode).collect(),
        journal_truncated: rec.journal_truncated,
        dwell_ns: rec.dwell.as_ns(),
        exit: rec.exit.label().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlannedFault;
    use kshot_cve::{find, patch_for};

    fn campaign_fixture() -> (CampaignTarget, Vec<u8>) {
        let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
        let (target, server) = CampaignTarget::benchmark(spec.version);
        let info = target.boot_one().info();
        let bundle = server
            .build_patch(&info, &patch_for(spec))
            .expect("server builds the CVE patch");
        (target, bundle.bundle.encode())
    }

    #[test]
    fn small_campaign_converges_identically() {
        let (target, bytes) = campaign_fixture();
        let config = FleetConfig::new(4, 2).with_seed(11);
        let report = run_campaign(&target, &bytes, &config);
        assert_eq!(report.succeeded, 4);
        assert_eq!(report.failed, 0);
        assert_eq!(report.retries, 0);
        assert!(report.all_identical_digests());
        // The campaign decodes the bundle once before the workers start,
        // and no machine looks it up.
        assert_eq!((report.cache_hits, report.cache_misses), (0, 1));
        assert!(report.latency_max.as_ns() > 0);
        // Occupancy is reported per worker, in worker order.
        assert_eq!(report.worker_occupancy.len(), 2);
        assert_eq!(report.worker_occupancy[1].worker, 1);
        assert!(report.worker_occupancy.iter().all(|o| !o.busy.is_zero()));
    }

    #[test]
    fn faulted_machine_retries_and_matches_the_fleet() {
        let (target, bytes) = campaign_fixture();
        let config = FleetConfig::new(3, 3)
            .with_seed(7)
            .with_fault(PlannedFault {
                machine: 1,
                smm_write_index: 2,
            });
        let report = run_campaign(&target, &bytes, &config);
        assert_eq!(report.succeeded, 3, "outcomes: {:?}", report.outcomes);
        assert_eq!(report.retries, 1);
        assert_eq!(report.faults_injected, 1);
        let faulted = &report.outcomes[1];
        assert_eq!(faulted.attempts, 2);
        assert!(faulted.ok);
        // The retried machine converges to the same applied state, but
        // its clock carries the failed attempt and the backoff.
        assert!(report.all_identical_digests());
        assert!(faulted.sim_clock > report.outcomes[0].sim_clock);
    }

    /// Regression for the injection-stats leak: a plan armed at a write
    /// index the session never reaches fires nothing, the session
    /// succeeds on the first try — and the stats must still be folded
    /// into the outcome instead of vanishing with the armed plan.
    #[test]
    fn unfired_injection_plan_is_disarmed_and_accounted_on_success() {
        let (target, bytes) = campaign_fixture();
        let config = FleetConfig::new(1, 1)
            .with_seed(5)
            .with_fault(PlannedFault {
                machine: 0,
                smm_write_index: u64::MAX,
            });
        let report = run_campaign(&target, &bytes, &config);
        let o = &report.outcomes[0];
        assert!(o.ok);
        assert_eq!(o.attempts, 1);
        assert_eq!(o.faults_injected, 0, "the plan never fired");
        assert!(
            o.injection_writes_seen > 0,
            "armed plan's observed writes must survive the success path"
        );
        assert_eq!(report.faults_injected, 0);
    }

    /// Regression for the swallowed-recovery-error path: `step_patch`
    /// used to `let _ = system.recover();` and retry on a machine whose
    /// recovery may have stopped mid-unwind. A fault armed *inside the
    /// recovery window* must now fail the machine terminally (no
    /// retry), mark `recovery_failed`, and bump the campaign counter.
    #[test]
    fn failed_recovery_is_terminal_and_counted() {
        let (target, bytes) = campaign_fixture();
        let config = FleetConfig::new(2, 1)
            .with_seed(13)
            // Machine 0's third apply-phase SMM write faults...
            .with_fault(PlannedFault {
                machine: 0,
                smm_write_index: 2,
            })
            // ...and the first SMM write of the recovery that follows
            // faults too.
            .with_recovery_fault(PlannedFault {
                machine: 0,
                smm_write_index: 0,
            });
        let report = run_campaign(&target, &bytes, &config);
        let o = &report.outcomes[0];
        assert!(!o.ok);
        assert!(o.recovery_failed);
        assert_eq!(
            o.attempts, 1,
            "no retry on a possibly mid-unwind machine: {:?}",
            o.error
        );
        assert_eq!(o.retries, 0);
        let err = o
            .error
            .as_deref()
            .expect("terminal failure carries both errors");
        assert!(err.contains("recovery failed"), "{err}");
        assert_eq!(
            report
                .recorder
                .metrics_snapshot()
                .counter("fleet.recovery_failed"),
            1
        );
        // The healthy neighbour is untouched, and a failed-then-
        // unrecovered machine still reports a digest (of whatever state
        // it was left in) rather than panicking.
        assert!(report.outcomes[1].ok);
        assert!(!report.outcomes[1].recovery_failed);
        assert_eq!(report.succeeded, 1);
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn exhausted_attempts_report_failure_not_panic() {
        let (target, bytes) = campaign_fixture();
        let mut config = FleetConfig::new(1, 1).with_fault(PlannedFault {
            machine: 0,
            smm_write_index: 2,
        });
        config.max_attempts = 1; // fault fires, no retry budget
        let report = run_campaign(&target, &bytes, &config);
        assert_eq!(report.succeeded, 0);
        assert_eq!(report.failed, 1);
        let o = &report.outcomes[0];
        assert!(!o.ok);
        assert!(o.error.is_some());
        assert_eq!(o.attempts, 1);
    }

    #[test]
    fn campaigns_are_reproducible_in_the_simulated_domain() {
        let (target, bytes) = campaign_fixture();
        let config = FleetConfig::new(3, 2).with_seed(42);
        let a = run_campaign(&target, &bytes, &config);
        let b = run_campaign(&target, &bytes, &config);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.state_digest, y.state_digest);
            assert_eq!(x.sim_clock, y.sim_clock);
            assert_eq!(x.latency.map(|t| t.as_ns()), y.latency.map(|t| t.as_ns()));
        }
    }

    /// A pipelined single worker must produce the same simulated-domain
    /// results as the sequential path — only wall time may differ.
    #[test]
    fn pipelined_worker_matches_sequential_results() {
        let (target, bytes) = campaign_fixture();
        let sequential = FleetConfig::new(5, 1)
            .with_seed(99)
            .with_fault(PlannedFault {
                machine: 2,
                smm_write_index: 3,
            });
        let pipelined = sequential.clone().with_pipeline_depth(5);
        let a = run_campaign(&target, &bytes, &sequential);
        let b = run_campaign(&target, &bytes, &pipelined);
        assert_eq!(a.succeeded, 5);
        assert_eq!(b.succeeded, 5);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.faults_injected, b.faults_injected);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.machine, y.machine);
            assert_eq!(x.state_digest, y.state_digest);
            assert_eq!(x.sim_clock, y.sim_clock);
            assert_eq!(x.attempts, y.attempts);
        }
    }

    /// Two benchmark CVEs of the same kernel version, encoded as a
    /// catalogue of bundle blobs.
    fn catalogue_fixture() -> (CampaignTarget, Vec<Vec<u8>>) {
        let a = find("CVE-2016-2543").expect("benchmark CVE exists");
        let b = find("CVE-2017-17806").expect("benchmark CVE exists");
        assert_eq!(a.version, b.version, "catalogue CVEs share a kernel");
        let (target, server) = CampaignTarget::benchmark(a.version);
        let info = target.boot_one().info();
        let blobs = [a, b]
            .iter()
            .map(|spec| {
                server
                    .build_patch(&info, &patch_for(spec))
                    .expect("server builds the CVE patch")
                    .bundle
                    .encode()
            })
            .collect();
        (target, blobs)
    }

    /// A batched catalogue campaign (one SMI for all CVEs) must land
    /// machines in the same applied state as the sequential drive (one
    /// SMI per CVE) — byte-identical digests — while paying the fixed
    /// SMM pause once.
    #[test]
    fn catalogue_campaign_batched_matches_sequential() {
        let (target, blobs) = catalogue_fixture();
        let base = FleetConfig::new(6, 2).with_seed(21).with_catalogue(blobs);
        let seq = run_campaign(&target, &[], &base);
        let batched = run_campaign(
            &target,
            &[],
            &base.clone().with_batched_smi(true).with_pipeline_depth(3),
        );
        assert_eq!(seq.succeeded, 6, "outcomes: {:?}", seq.outcomes);
        assert_eq!(batched.succeeded, 6, "outcomes: {:?}", batched.outcomes);
        assert!(seq.all_identical_digests());
        assert!(batched.all_identical_digests());
        for (x, y) in seq.outcomes.iter().zip(&batched.outcomes) {
            assert_eq!(x.state_digest, y.state_digest, "machine {}", x.machine);
        }
        // Sequential pays one delivery+SMI per CVE; batched pays one
        // for the whole catalogue.
        assert!(seq.outcomes.iter().all(|o| o.attempts == 2));
        assert!(batched.outcomes.iter().all(|o| o.attempts == 1));
        // The saved SMI's fixed entry/exit/keygen cost shows up as
        // strictly lower simulated patch latency.
        assert!(batched.outcomes[0].latency.unwrap() < seq.outcomes[0].latency.unwrap());
    }

    /// A batched campaign decodes each catalogue blob once for the
    /// whole fleet, and its machines look nothing up.
    #[test]
    fn batched_catalogue_decodes_once_per_blob() {
        let (target, blobs) = catalogue_fixture();
        let config = FleetConfig::new(4, 1)
            .with_seed(3)
            .with_catalogue(blobs)
            .with_batched_smi(true);
        let report = run_campaign(&target, &[], &config);
        assert_eq!(report.succeeded, 4);
        assert_eq!(report.cache_misses, 2, "each catalogue blob decodes once");
        assert_eq!(report.cache_hits, 0, "no machine looks a blob up");
    }

    /// A batch whose blobs patch the same function cannot merge. The
    /// campaign finds that once, and every machine fails its first
    /// attempt with the merge's error instead of retrying it.
    #[test]
    fn unmergeable_batch_fails_each_machine_once() {
        let (target, blobs) = catalogue_fixture();
        let twice = vec![blobs[0].clone(), blobs[0].clone()];
        let decoded = kshot_patchserver::PatchBundle::decode(&blobs[0]).expect("blob decodes");
        let function = decoded.entries[0].name.clone();
        let overlap = kshot_core::KShotError::BatchOverlap { function }.to_string();
        let config = FleetConfig::new(3, 2)
            .with_seed(9)
            .with_catalogue(twice)
            .with_batched_smi(true);
        let report = run_campaign(&target, &[], &config);
        assert_eq!((report.succeeded, report.failed), (0, 3));
        for o in &report.outcomes {
            assert_eq!(
                o.error.as_deref(),
                Some(overlap.as_str()),
                "machine {}",
                o.machine
            );
            assert_eq!((o.attempts, o.retries), (1, 0), "machine {}", o.machine);
        }
        // The repeated blob is the campaign's one repeat lookup.
        assert_eq!((report.cache_hits, report.cache_misses), (1, 1));
    }

    /// A fault inside a batched apply unwinds only the interrupted
    /// segment; the retry resumes and the machine still converges to
    /// the fleet's digest.
    #[test]
    fn faulted_batched_machine_retries_and_matches() {
        let (target, blobs) = catalogue_fixture();
        let config = FleetConfig::new(3, 3)
            .with_seed(7)
            .with_catalogue(blobs)
            .with_batched_smi(true)
            .with_fault(PlannedFault {
                machine: 1,
                smm_write_index: 2,
            });
        let report = run_campaign(&target, &[], &config);
        assert_eq!(report.succeeded, 3, "outcomes: {:?}", report.outcomes);
        assert_eq!(report.faults_injected, 1);
        assert!(report.all_identical_digests());
        assert_eq!(report.outcomes[1].attempts, 2);
    }

    #[test]
    fn stagger_delay_never_panics_and_stays_under_one_rtt() {
        let rtt = Duration::from_millis(60);
        assert_eq!(stagger_delay(rtt, 0, 8), Duration::ZERO);
        assert_eq!(stagger_delay(rtt, 4, 8), rtt / 2);
        assert!(stagger_delay(rtt, 7, 8) < rtt);
        // The old `rtt * worker as u32` panicked here (u32 overflow in
        // Duration::mul); the 128-bit path saturates instead.
        let huge = stagger_delay(
            Duration::from_secs(u64::MAX / 2),
            usize::MAX - 1,
            usize::MAX,
        );
        assert!(huge <= Duration::from_secs(u64::MAX / 2));
        let max = stagger_delay(Duration::MAX, usize::MAX - 1, usize::MAX);
        assert!(max <= Duration::MAX);
        assert_eq!(stagger_delay(rtt, 3, 0), Duration::ZERO);
    }

    /// The one placement function, as a property over fleet shapes:
    /// every machine runs on exactly one worker, each worker's machines
    /// ascend, consecutive blocks are adjacent, no worker owns more than
    /// 64 blocks, small fleets are dealt exactly round-robin, and a
    /// single worker owns `0..machines`.
    #[test]
    fn placement_deals_adjacent_blocks_round_robin() {
        for (machines, workers) in [
            (0, 3),
            (1, 4),
            (7, 3),
            (64, 8),
            (65, 8),
            (512, 8),
            (513, 8),
            (2048, 8),
            (1, 1),
            (100_000, 1),
            (1_000_003, 8),
        ] {
            let case = format!("machines={machines} workers={workers}");
            let shards = placement(machines, workers);
            assert_eq!(shards.len(), workers, "{case}");
            let mut owner = vec![None; machines];
            for (worker, blocks) in shards.iter().enumerate() {
                assert!(blocks.len() <= BLOCKS_PER_WORKER, "{case}");
                let mine: Vec<usize> = blocks.iter().cloned().flatten().collect();
                assert!(mine.windows(2).all(|w| w[0] < w[1]), "{case}");
                if machines <= BLOCKS_PER_WORKER * workers {
                    let round_robin = (worker..machines).step_by(workers);
                    assert!(mine.iter().copied().eq(round_robin), "{case}");
                }
                if workers == 1 {
                    assert!(mine.iter().copied().eq(0..machines), "{case}");
                }
                for &m in &mine {
                    assert_eq!(owner[m].replace(worker), None, "{case}: machine {m}");
                }
            }
            assert!(owner.iter().all(Option::is_some), "{case}");
            // Taking one block from each worker in turn walks the fleet.
            let mut cursors: Vec<_> = shards.iter().map(|b| b.iter()).collect();
            let mut next = 0;
            for worker in (0..workers).cycle() {
                let Some(block) = cursors[worker].next() else {
                    break;
                };
                assert_eq!(block.start, next, "{case}");
                assert!(block.end > block.start, "{case}");
                next = block.end;
            }
            assert_eq!(next, machines, "{case}");
            assert!(cursors.iter_mut().all(|c| c.next().is_none()), "{case}");
        }
    }

    /// A config whose public `workers` field was set to 0 runs one
    /// worker, and its report must say so.
    #[test]
    fn zero_worker_config_reports_the_one_worker_it_ran() {
        let (target, bytes) = campaign_fixture();
        let mut config = FleetConfig::new(2, 1).with_seed(4);
        config.workers = 0;
        let report = run_campaign(&target, &bytes, &config);
        assert_eq!(report.succeeded, 2);
        assert_eq!(report.worker_occupancy.len(), 1);
        assert_eq!(report.workers, 1);
        assert!(report.to_json().contains("\"workers\":1,"));
    }

    /// The fold campaign must agree with the retained campaign on every
    /// summary it keeps — counts, retries, the Merkle root — while
    /// retaining no per-machine outcomes at all.
    #[test]
    fn fold_campaign_matches_retained_campaign() {
        let (target, bytes) = campaign_fixture();
        let base = FleetConfig::new(6, 2)
            .with_seed(77)
            .with_fault(PlannedFault {
                machine: 3,
                smm_write_index: 2,
            });
        let retained = run_campaign(&target, &bytes, &base);
        let folded = run_campaign(&target, &bytes, &base.clone().with_outcome_fold());
        assert_eq!(retained.succeeded, 6, "outcomes: {:?}", retained.outcomes);
        assert_eq!(folded.succeeded, 6);
        assert_eq!(folded.failed, 0);
        assert_eq!(folded.retries, retained.retries);
        assert_eq!(folded.faults_injected, retained.faults_injected);
        assert!(folded.outcomes.is_empty(), "fold mode retains no outcomes");
        let fold = folded.fold.as_ref().expect("fold mode carries the fold");
        assert_eq!(fold.machines(), 6);
        assert_eq!(fold.merkle_root(), retained.digest_root());
        assert!(folded.all_identical_digests());
        assert_eq!(folded.latency_max, retained.latency_max);
        assert!(
            fold.resident_bytes() < 64 * 1024,
            "fold stays small: {} bytes",
            fold.resident_bytes()
        );
    }

    /// Pipelined fold workers retire sessions out of machine order; the
    /// reorder buffer must still absorb them in order, so the root (and
    /// every counter) matches the depth-1 drive exactly.
    #[test]
    fn pipelined_fold_matches_sequential_fold() {
        let (target, bytes) = campaign_fixture();
        let base = FleetConfig::new(5, 2)
            .with_seed(31)
            .with_fault(PlannedFault {
                machine: 1,
                smm_write_index: 3,
            })
            .with_outcome_fold();
        let seq = run_campaign(&target, &bytes, &base);
        let piped = run_campaign(&target, &bytes, &base.clone().with_pipeline_depth(4));
        let (a, b) = (seq.fold.as_ref().unwrap(), piped.fold.as_ref().unwrap());
        assert_eq!(a.merkle_root(), b.merkle_root());
        assert_eq!(a.succeeded, b.succeeded);
        assert_eq!(a.retries, b.retries);
        assert_eq!(seq.latency_p50, piped.latency_p50);
        assert_eq!(seq.latency_max, piped.latency_max);
    }

    /// The decode of the bundle is the campaign's, not a machine's: no
    /// shard parcel carries a cache line, whichever worker runs first.
    #[test]
    fn cache_miss_is_never_charged_to_a_machine() {
        let (target, bytes) = campaign_fixture();
        let dir = std::env::temp_dir().join(format!("kshot-cache-miss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        const WORKERS: usize = 2;
        let config = FleetConfig::new(8, WORKERS)
            .with_seed(5)
            .with_stream_dir(&dir);
        let report = run_campaign(&target, &bytes, &config);
        assert_eq!(report.succeeded, 8);
        for worker in 0..WORKERS {
            let text = std::fs::read_to_string(dir.join(format!("worker-{worker}.jsonl")))
                .expect("worker shard");
            assert!(
                text.contains("\"type\":\"machine\""),
                "worker {worker}'s shard"
            );
            assert!(
                !text.contains("\"cache."),
                "worker {worker}'s shard charges a cache line to a machine"
            );
        }
        assert_eq!((report.cache_hits, report.cache_misses), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fold + streaming: every worker seals the same parcels as a
    /// retained streaming run *and* closes each of its blocks with a
    /// roll-up line; the roll-ups parsed back from the shards merge (in
    /// range order, across workers) to exactly the campaign's root.
    #[test]
    fn streamed_fold_rollups_reconstruct_the_campaign_root() {
        let (target, bytes) = campaign_fixture();
        let dir = std::env::temp_dir().join(format!("kshot-fold-rollup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        const WORKERS: usize = 3;
        let config = FleetConfig::new(7, WORKERS)
            .with_seed(19)
            .with_outcome_fold()
            .with_stream_dir(&dir);
        let report = run_campaign(&target, &bytes, &config);
        assert_eq!(report.succeeded, 7);
        let root = report.fold.as_ref().unwrap().merkle_root();
        let mut rollups = Vec::new();
        for worker in 0..WORKERS {
            let shard =
                kshot_telemetry::ShardData::parse_file(dir.join(format!("worker-{worker}.jsonl")))
                    .expect("worker shard parses, its roll-up lines validated");
            rollups.extend(shard.rollups);
        }
        rollups.sort_by_key(|r| r.tree.start());
        assert_eq!(rollups.len(), 7, "one roll-up line per one-machine block");
        let mut merged = rollups.remove(0).tree;
        for r in rollups {
            merged.merge(&r.tree).expect("worker ranges are adjacent");
        }
        assert_eq!(merged.len(), 7);
        assert_eq!(
            merged.root(),
            root,
            "shard roll-ups reconstruct the campaign root"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
