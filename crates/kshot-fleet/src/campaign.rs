//! The campaign driver: shard machines across workers, run every
//! machine's full KShot session with retry/recovery, and fold the
//! results into one [`CampaignReport`].
//!
//! Each worker is an event-driven scheduler over resumable
//! [`MachineSession`](crate::session) state machines: CPU phases run
//! from a ready queue, wall-clock waits (link RTT, retry backoff) park
//! on a deadline min-heap, and the worker only sleeps when *no* session
//! has CPU work ready. With [`FleetConfig::pipeline_depth`] > 1 that
//! overlaps one machine's in-flight delivery with other machines'
//! attest/decrypt/verify/apply phases on the same worker thread — the
//! single-worker throughput unlock for latency-bound campaigns. Depth 1
//! reproduces the old one-machine-at-a-time behaviour exactly.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use kshot_cve::{benchmark_options, benchmark_tree, KernelVersion};
use kshot_kcc::KernelImage;
use kshot_kernel::Kernel;
use kshot_machine::{MemLayout, SimTime, SmiCause, SmiFlightRecord, WriteRange};
use kshot_patchserver::{BundleCache, PatchServer};
use kshot_telemetry::export::record_json_line;
use kshot_telemetry::{
    HealthMonitor, IntegrityPolicy, MetricsSnapshot, Record, Recorder, RecorderScope, Sink,
    StreamSink, SCHEMA_VERSION,
};

use crate::config::FleetConfig;
use crate::fold::OutcomeFold;
use crate::report::{CampaignHealth, CampaignReport, WorkerOccupancy};
use crate::rollout::{
    RolloutController, RolloutGate, RolloutPlan, RolloutReport, RolloutTrail, Wave, WaveAction,
};
use crate::session::{MachineSession, StepStatus};

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

/// Run one campaign: patch `config.machines` machines, sharded over
/// `config.workers` OS threads, all applying the bundle serialized in
/// `bundle_bytes` (decoded once through a shared [`BundleCache`]).
///
/// Machine `i` runs on worker `i % workers` (round-robin), except in
/// fold mode ([`FleetConfig::fold_outcomes`]) where each worker owns
/// one contiguous ascending range — the sharding that makes each
/// worker's Merkle roll-up a single range and the cross-worker fold
/// merge an adjacent-range join. Per-machine results are independent of
/// the machine→worker mapping (a machine's seed, clock, and digest
/// derive only from its own index), so the two shardings produce
/// identical simulated-domain results. Each worker keeps up to
/// [`FleetConfig::pipeline_depth`] sessions live at once, stepping
/// whichever has CPU work while the others wait out their link RTT or
/// backoff deadlines; per-machine execution stays deterministic because
/// scheduling only decides *when* a machine's next step runs, never
/// what it computes.
pub fn run_campaign(
    target: &CampaignTarget,
    bundle_bytes: &[u8],
    config: &FleetConfig,
) -> CampaignReport {
    let cache = BundleCache::new();
    let workers = config.workers.max(1);
    let started = Instant::now();

    // Fold mode drops outcomes as sessions retire; a rollout's verdict
    // plane needs retained outcomes (and round-robin wave admission),
    // so the combination would silently mis-report — fail loudly.
    assert!(
        !(config.fold_outcomes && config.rollout.is_some()),
        "FleetConfig::with_outcome_fold is incompatible with with_rollout \
         (verdict actuation needs retained outcomes and round-robin admission)"
    );

    // The health monitor tails the worker shard files; arming it
    // without streaming would silently watch nothing, so fail loudly.
    let health_cfg = config.health_policy.as_ref().map(|policy| {
        let dir = config.stream_dir.clone().unwrap_or_else(|| {
            panic!("FleetConfig::with_health requires with_stream_dir (the monitor tails shards)")
        });
        (policy.clone(), dir)
    });
    // The integrity monitor replays the shard `smi` stream from inside
    // the health monitor's tail loop; arming it without health would
    // silently verify nothing, so fail loudly.
    if config.integrity.is_some() {
        assert!(
            config.health_policy.is_some(),
            "FleetConfig::with_integrity requires with_health (the monitor replays the smi stream)"
        );
    }
    // A rollout's wave verdicts come from the health monitor; arming
    // one without health would silently never admit past the canary.
    let rollout_cfg = config
        .rollout
        .as_ref()
        .filter(|_| config.machines > 0)
        .map(|plan| {
            assert!(
                config.health_policy.is_some(),
                "FleetConfig::with_rollout requires with_health (wave verdicts come from the monitor)"
            );
            let waves = plan.waves(config.machines);
            let gate = RolloutGate::new(waves[0].end);
            (plan, waves, gate)
        });
    let campaign_done = AtomicBool::new(false);

    let mut per_machine: Vec<(MachineOutcome, Arc<Recorder>)> =
        Vec::with_capacity(if config.fold_outcomes {
            0
        } else {
            config.machines
        });
    let mut fold: Option<OutcomeFold> = None;
    let mut fold_recorders: Vec<Arc<Recorder>> = Vec::new();
    let mut occupancy: Vec<WorkerOccupancy> = Vec::with_capacity(workers);
    let mut health: Option<CampaignHealth> = None;
    let mut trail: Option<RolloutTrail> = None;
    thread::scope(|scope| {
        // Spawn the monitor before the workers so the earliest windows
        // can be judged while later machines are still in flight.
        let monitor_handle = health_cfg.map(|(policy, dir)| {
            let done = &campaign_done;
            let machines = config.machines;
            // Rollouts size the window to the canary cohort so wave
            // boundaries always fall on window boundaries.
            let window = match &rollout_cfg {
                Some((plan, _, _)) => plan.canary_size(machines),
                None => config.health_window,
            };
            let rollout = rollout_cfg
                .as_ref()
                .map(|(plan, waves, gate)| (*plan, waves.as_slice(), gate));
            let integrity = config.integrity.clone();
            scope.spawn(move || {
                run_health_monitor(
                    policy, window, machines, workers, dir, done, rollout, integrity,
                )
            })
        });
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let cache = &cache;
            let gate = rollout_cfg.as_ref().map(|(_, _, gate)| gate);
            handles.push(
                scope.spawn(move || run_worker(target, cache, bundle_bytes, config, worker, gate)),
            );
        }
        // Workers are joined in worker order; in fold mode that is also
        // ascending machine-range order, so folds merge left to right.
        for handle in handles {
            let (yielded, worker_occupancy) = handle.join().expect("fleet worker panicked");
            match yielded {
                WorkerYield::Retained(results) => per_machine.extend(results),
                WorkerYield::Folded(worker_fold, recorder) => {
                    fold_recorders.push(recorder);
                    match fold.as_mut() {
                        None => fold = Some(*worker_fold),
                        Some(merged) => merged
                            .merge(&worker_fold)
                            .expect("worker folds cover adjacent machine ranges"),
                    }
                }
            }
            occupancy.push(worker_occupancy);
        }
        // Every worker has flushed its shard; release the monitor for
        // its final catch-up poll and collect the health report.
        campaign_done.store(true, Ordering::Release);
        if let Some(h) = monitor_handle {
            let (campaign_health, rollout_trail) = h.join().expect("health monitor panicked");
            health = Some(campaign_health);
            trail = rollout_trail;
        }
    });
    per_machine.sort_by_key(|(o, _)| o.machine);
    occupancy.sort_by_key(|o| o.worker);

    let wall = started.elapsed();
    let recorder = Recorder::new();
    let mut outcomes = Vec::with_capacity(per_machine.len());
    for (outcome, machine_recorder) in per_machine {
        if config.retain_records {
            recorder.merge_from(&machine_recorder);
        } else {
            // Summaries-only: fold metric totals but drop the record
            // stream (it lives in the shard files when streaming).
            recorder.metrics().merge_from(machine_recorder.metrics());
        }
        outcomes.push(outcome);
    }
    // Fold mode: each worker carried one recorder (streaming folds
    // merged their machines' metric totals into it; the unstreamed
    // fast path recorded nothing — the fold is the summary).
    for worker_recorder in &fold_recorders {
        recorder.metrics().merge_from(worker_recorder.metrics());
    }
    let rollout = rollout_cfg.map(|(plan, _, _)| {
        RolloutReport::assemble(plan, config.machines, trail.unwrap_or_default(), &outcomes)
    });
    CampaignReport::assemble(
        config,
        outcomes,
        fold,
        recorder,
        occupancy,
        wall,
        cache.hits(),
        cache.misses(),
        health,
        rollout,
    )
}

/// What one worker hands back: its machines' retained outcomes and
/// recorders (the classic mode), or one streaming fold plus the
/// worker-level recorder (fold mode — outcomes were dropped as their
/// sessions retired).
enum WorkerYield {
    /// One `(outcome, recorder)` per machine, in completion order.
    Retained(Vec<(MachineOutcome, Arc<Recorder>)>),
    /// The worker's contiguous range folded down, plus its merged
    /// metric totals (empty in the unstreamed fast path).
    Folded(Box<OutcomeFold>, Arc<Recorder>),
}

/// The campaign's live health thread: poll the worker shards every
/// millisecond until the campaign signals completion, tracking how many
/// snapshots were emitted *while workers were still running* (the
/// mid-campaign detection the health plane exists for), then run one
/// final catch-up poll and fold everything into a [`CampaignHealth`].
///
/// Under a rollout, this thread also hosts the [`RolloutController`]:
/// after every poll it folds new snapshots into wave verdicts and
/// actuates the shared gate (admission, finalization, rollback) the
/// workers are watching. Running the controller here keeps its
/// decisions in the monitor's deterministic snapshot order.
#[allow(clippy::too_many_arguments)]
fn run_health_monitor(
    policy: kshot_telemetry::HealthPolicy,
    window: usize,
    machines: usize,
    workers: usize,
    dir: PathBuf,
    done: &AtomicBool,
    rollout: Option<(&RolloutPlan, &[Wave], &RolloutGate)>,
    integrity: Option<IntegrityPolicy>,
) -> (CampaignHealth, Option<RolloutTrail>) {
    let shards: Vec<PathBuf> = (0..workers)
        .map(|w| dir.join(format!("worker-{w}.jsonl")))
        .collect();
    let mut monitor = HealthMonitor::new(policy, window, machines, shards);
    if let Some((_, waves, _)) = &rollout {
        monitor = monitor.with_wave_boundaries(waves.iter().map(|w| w.end as u64).collect());
    }
    if let Some(policy) = integrity {
        monitor = monitor.with_integrity(policy);
    }
    let mut monitor = monitor
        .with_snapshot_path(dir.join("health.jsonl"))
        .unwrap_or_else(|e| panic!("open health snapshot sink: {e}"));
    let mut controller =
        rollout.map(|(plan, waves, gate)| RolloutController::new(plan, waves.to_vec(), gate));
    let mut live_snapshots = 0u64;
    let mut degraded_live = false;
    let mut halt_live = false;
    loop {
        // Read the flag *before* polling: if workers finished mid-poll,
        // snapshots from this round may or may not have been live, so
        // only rounds that started before completion count as live.
        let finished = done.load(Ordering::Acquire);
        let emitted = monitor
            .poll()
            .unwrap_or_else(|e| panic!("health monitor poll: {e}"));
        if let Some(controller) = controller.as_mut() {
            controller.observe(&mut monitor);
        }
        if !finished && emitted > 0 {
            let snaps = monitor.snapshots();
            for snap in &snaps[snaps.len() - emitted..] {
                live_snapshots += 1;
                // Halt is its own live signal: folding it into
                // `degraded_live` (the old `severity() >= 1`) hid
                // exactly the verdict the rollout plane acts on.
                match snap.verdict.severity() {
                    2.. => halt_live = true,
                    1 => degraded_live = true,
                    _ => {}
                }
            }
        }
        if finished {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    let report = monitor
        .finish()
        .unwrap_or_else(|e| panic!("health monitor finish: {e}"));
    (
        CampaignHealth {
            report,
            live_snapshots,
            degraded_live,
            halt_live,
        },
        controller.map(RolloutController::into_trail),
    )
}

/// A session parked until its wall-clock deadline. Heap order is
/// earliest-deadline-first, ties broken by parking order so release
/// order is deterministic even when deadlines collide.
struct Parked {
    key: Reverse<(Instant, u64)>,
    session: MachineSession,
}

impl PartialEq for Parked {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Parked {}
impl PartialOrd for Parked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Parked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Captures a session's records as pre-rendered shard lines, in emit
/// order. Interleaved sessions can't share the worker's file sink live
/// (their records would interleave mid-machine); instead each session
/// buffers its lines and the worker replays them contiguously, in
/// machine order, once the machine completes — so shard files carry
/// exactly the per-machine blocks the sequential path wrote.
struct BufferSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl Sink for BufferSink {
    fn on_record(&mut self, record: &Record) {
        self.lines.lock().unwrap().push(record_json_line(record));
    }
}

/// One live session plus its buffered shard lines (when streaming) and
/// whether its shard parcel has already been written (the `Held` path
/// flushes before the session finishes).
struct Active {
    session: MachineSession,
    lines: Option<Arc<Mutex<Vec<String>>>>,
    flushed: bool,
}

/// One machine's shard parcel, held back until its turn in the worker's
/// canonical machine order: buffered record lines, the metrics block,
/// and the pre-rendered outcome line. `None` marks a machine a stopped
/// rollout never admitted — nothing to write, but the flush cursor must
/// still pass it so later machines' parcels are not stranded.
type Parcel = Option<(Vec<String>, MetricsSnapshot, String)>;

/// Write every parcel that is next in canonical order to the shard, and
/// advance the cursor. Committing a parcel means a live tailer (the
/// health monitor) can see it — under a rollout that is what lets a
/// wave be judged while its machines are still held.
fn flush_parcels(
    sink: &Option<StreamSink>,
    parcels: &mut BTreeMap<usize, Parcel>,
    my_machines: &[usize],
    next_flush: &mut usize,
) {
    while *next_flush < my_machines.len() {
        let Some(parcel) = parcels.remove(&my_machines[*next_flush]) else {
            break;
        };
        if let (Some(sink), Some((lines, metrics, outcome_line))) = (sink.as_ref(), parcel) {
            for line in &lines {
                sink.write_raw_line(line);
            }
            // Close the machine's section of the shard: its metric
            // totals (counters saturate, histograms merge bucket-wise
            // on re-aggregation) and one outcome line carrying what
            // the in-memory MachineOutcome carries.
            sink.write_metrics(&metrics);
            sink.write_raw_line(&outcome_line);
            sink.flush();
        }
        *next_flush += 1;
    }
}

/// Build the shard parcel for a machine whose telemetry is final (for
/// the shard's purposes): fold ring-eviction losses into a counter
/// *before* the metrics block is rendered, so the health monitor (and
/// any shard re-aggregation) sees the drop accounting a summaries-only
/// campaign would otherwise lose with the record stream.
fn seal_parcel(active: &mut Active) -> Parcel {
    let dropped = active.session.recorder.dropped();
    if dropped > 0 {
        active
            .session
            .recorder
            .metrics()
            .counter_add("fleet.records_dropped", dropped);
    }
    let mut buffered = active
        .lines
        .as_ref()
        .map(|l| std::mem::take(&mut *l.lock().unwrap()))
        .unwrap_or_default();
    // The machine's SMI flight ring, one `smi` line per record, after
    // the record stream and before the metrics block. Rendered straight
    // from the ring (never through the Record pipeline, whose lines
    // carry wall-clock timestamps), so the smi stream is byte-identical
    // across worker counts, pipeline depths, and batching modes.
    if active.lines.is_some() {
        let outcome = &active.session.outcome;
        buffered.extend(
            outcome
                .flight
                .iter()
                .map(|rec| smi_json_line(outcome.machine, rec)),
        );
    }
    active.flushed = true;
    Some((
        buffered,
        active.session.recorder.metrics_snapshot(),
        machine_json_line(&active.session.outcome),
    ))
}

/// The outcome reported for a machine a stopped rollout never admitted:
/// never booted, zero attempts, counted as failed with `admitted:
/// false`.
fn skipped_outcome(machine: usize, worker: usize) -> MachineOutcome {
    MachineOutcome {
        machine,
        worker,
        attempts: 0,
        retries: 0,
        ok: false,
        error: Some("rollout halted before admission".to_string()),
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
        admitted: false,
        flight: Vec::new(),
        dwell_worst: None,
    }
}

/// The machines `worker` owns: round-robin (`worker`, `worker +
/// workers`, ...) in retained mode, one contiguous ascending range in
/// fold mode. The contiguous split hands `machines / workers` machines
/// to every worker (the first `machines % workers` workers take one
/// extra), ranges tiling `0..machines` in worker order — so worker
/// `w`'s range starts exactly where worker `w-1`'s ends and the
/// per-worker folds merge as adjacent Merkle ranges.
fn worker_shard(config: &FleetConfig, worker: usize) -> Vec<usize> {
    let workers = config.workers.max(1);
    if config.fold_outcomes {
        let base = config.machines / workers;
        let rem = config.machines % workers;
        let start = worker * base + worker.min(rem);
        let len = base + usize::from(worker < rem);
        (start..start + len).collect()
    } else {
        (worker..config.machines).step_by(workers).collect()
    }
}

/// Where `worker`'s fold-mode range starts even when it is empty (more
/// workers than machines): the end of the previous worker's range, so
/// empty folds still merge as zero-length adjacent ranges.
fn worker_fold_start(config: &FleetConfig, worker: usize) -> usize {
    let workers = config.workers.max(1);
    let base = config.machines / workers;
    let rem = config.machines % workers;
    worker * base + worker.min(rem)
}

/// Drive one worker's share of the fleet (see [`worker_shard`]) with up
/// to `config.pipeline_depth` sessions in flight, and return its yield
/// (retained outcomes or a fold) plus the worker's busy/in-flight
/// occupancy split.
fn run_worker(
    target: &CampaignTarget,
    cache: &BundleCache,
    bundle_bytes: &[u8],
    config: &FleetConfig,
    worker: usize,
    gate: Option<&RolloutGate>,
) -> (WorkerYield, WorkerOccupancy) {
    let workers = config.workers.max(1);
    let depth = config.pipeline_depth.max(1);
    let fold_mode = config.fold_outcomes;
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
    // lands in it, machine blocks in machine order.
    let sink = config.stream_dir.as_ref().map(|dir| {
        let path = dir.join(format!("worker-{worker}.jsonl"));
        StreamSink::to_path(&path).unwrap_or_else(|e| panic!("open shard {}: {e}", path.display()))
    });

    let my_machines = worker_shard(config, worker);
    // Whether sessions record telemetry at all. Fold mode without a
    // stream sink is the fast path: no per-machine recorder, no
    // RecorderScope entered around steps (every telemetry emit
    // early-returns without a scope), no parcels sealed — the fold is
    // the campaign's entire summary. Fold *with* streaming keeps the
    // per-machine recorders so shard parcels stay byte-identical to
    // the retained mode's.
    let record_scope = !fold_mode || sink.is_some();
    // Fast-path sessions share one inert recorder (the session struct
    // needs one); nothing ever enters it, so it stays empty.
    let shared_recorder = Recorder::with_capacity(1);
    // Fold mode: the worker's running summary plus a depth-bounded
    // reorder buffer — pipelined sessions retire out of order, but the
    // Merkle roll-up must absorb digests in machine order.
    let fold_start = worker_fold_start(config, worker);
    let mut fold = OutcomeFold::starting_at(fold_start);
    let mut next_fold = fold_start;
    let mut pending: BTreeMap<usize, MachineOutcome> = BTreeMap::new();
    // Fold mode's worker-level recorder: streaming folds merge each
    // machine's metric totals into it before dropping the machine.
    let fold_recorder = Recorder::with_capacity(1);
    let mut next_admit = 0usize;
    let mut live = 0usize;
    let mut park_seq = 0u64;
    let mut ready: VecDeque<Active> = VecDeque::new();
    let mut parked: BinaryHeap<Parked> = BinaryHeap::new();
    // Parked sessions' buffers, keyed by machine (sessions in the heap
    // can't carry the Active wrapper through the ordering impls).
    let mut parked_lines: BTreeMap<usize, Arc<Mutex<Vec<String>>>> = BTreeMap::new();
    // Sessions held in AwaitVerdict (rollout only): patched, parcel
    // flushed, machine live, waiting for the gate to judge their wave.
    let mut held: BTreeMap<usize, Active> = BTreeMap::new();
    // Shard parcels waiting for their turn in the shard file.
    let mut parcels: BTreeMap<usize, Parcel> = BTreeMap::new();
    let mut next_flush = 0usize;
    let mut results = Vec::with_capacity(if fold_mode { 0 } else { my_machines.len() });
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
                let mut active = held.remove(&machine).expect("collected from held");
                let rollback = gate.action_for(machine) == Some(WaveAction::Rollback);
                active.session.deliver_verdict(rollback);
                ready.push_back(active);
                live += 1;
            }
        }
        // Admit new machines while the pipeline has room (and, under a
        // rollout, the gate has opened their wave — machine indices
        // ascend, so the first blocked machine blocks the rest too).
        while live < depth && next_admit < my_machines.len() {
            let machine = my_machines[next_admit];
            if gate.is_some_and(|g| !g.may_admit(machine)) {
                break;
            }
            let recorder = if record_scope {
                Recorder::new()
            } else {
                Arc::clone(&shared_recorder)
            };
            let lines = sink.as_ref().map(|_| {
                let lines = Arc::new(Mutex::new(Vec::new()));
                recorder.add_sink(Box::new(BufferSink {
                    lines: Arc::clone(&lines),
                }));
                lines
            });
            ready.push_back(Active {
                session: MachineSession::new(machine, worker, recorder),
                lines,
                flushed: false,
            });
            next_admit += 1;
            live += 1;
        }
        // A stopped rollout never opens the remaining waves: report
        // their machines as never admitted and advance the flush
        // cursor past them (they have no shard parcel).
        if gate.is_some_and(RolloutGate::halted) {
            let gate = gate.expect("checked above");
            while next_admit < my_machines.len() && !gate.may_admit(my_machines[next_admit]) {
                let machine = my_machines[next_admit];
                results.push((skipped_outcome(machine, worker), Recorder::new()));
                parcels.insert(machine, None);
                next_admit += 1;
            }
            flush_parcels(&sink, &mut parcels, &my_machines, &mut next_flush);
        }
        // Release every parked session whose deadline has passed, in
        // deadline order.
        let now = Instant::now();
        while parked.peek().is_some_and(|p| p.key.0 .0 <= now) {
            let p = parked.pop().expect("peeked");
            let machine = p.session.outcome.machine;
            ready.push_back(Active {
                session: p.session,
                lines: parked_lines.remove(&machine),
                flushed: false,
            });
        }

        if let Some(mut active) = ready.pop_front() {
            let step_started = Instant::now();
            let status = if record_scope {
                let _scope = RecorderScope::enter(Arc::clone(&active.session.recorder));
                active.session.step(target, cache, bundle_bytes, config)
            } else {
                // Fold fast path: no recorder scope, so every telemetry
                // emit inside the step early-returns — the per-machine
                // record pipeline costs nothing.
                active.session.step(target, cache, bundle_bytes, config)
            };
            busy += step_started.elapsed();
            match status {
                StepStatus::Ready => ready.push_back(active),
                StepStatus::Wait => {
                    let deadline = active
                        .session
                        .deadline()
                        .expect("a waiting session carries its deadline");
                    if let Some(lines) = active.lines {
                        parked_lines.insert(active.session.outcome.machine, lines);
                    }
                    parked.push(Parked {
                        key: Reverse((deadline, park_seq)),
                        session: active.session,
                    });
                    park_seq += 1;
                }
                StepStatus::Held => {
                    // The patch applied; its wave's verdict decides
                    // what happens next. Commit the machine's shard
                    // parcel now — the health monitor judges the wave
                    // from it — free the pipeline slot, and hold the
                    // live session for `deliver_verdict`. Records the
                    // session emits *after* this point (rollback
                    // telemetry) stay in the in-memory campaign
                    // recorder only.
                    live -= 1;
                    let parcel = seal_parcel(&mut active);
                    parcels.insert(active.session.outcome.machine, parcel);
                    flush_parcels(&sink, &mut parcels, &my_machines, &mut next_flush);
                    held.insert(active.session.outcome.machine, active);
                }
                StepStatus::Done => {
                    live -= 1;
                    if record_scope && !active.flushed {
                        let parcel = seal_parcel(&mut active);
                        parcels.insert(active.session.outcome.machine, parcel);
                        flush_parcels(&sink, &mut parcels, &my_machines, &mut next_flush);
                    }
                    let Active { session, .. } = active;
                    if fold_mode {
                        // Streaming folds keep the machine's metric
                        // totals (the parcel snapshot already rendered
                        // them) before its recorder drops with it.
                        if record_scope {
                            fold_recorder
                                .metrics()
                                .merge_from(session.recorder.metrics());
                        }
                        // Pipelined sessions retire out of order; the
                        // roll-up absorbs in machine order through a
                        // reorder buffer never deeper than the pipeline.
                        pending.insert(session.outcome.machine, session.outcome);
                        debug_assert!(pending.len() <= depth);
                        while let Some(o) = pending.remove(&next_fold) {
                            fold.absorb(&o);
                            next_fold += 1;
                        }
                    } else {
                        results.push((session.outcome, session.recorder));
                    }
                }
            }
        } else if let Some(p) = parked.peek() {
            // No CPU work anywhere: this is genuine in-flight time.
            let deadline = p.key.0 .0;
            let wait = deadline.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                thread::sleep(wait);
                in_flight += wait;
            }
        } else if !held.is_empty() || (gate.is_some() && next_admit < my_machines.len()) {
            // Waiting on the rollout gate: held sessions need their
            // wave's verdict, or the next wave has not been opened.
            // Verdicts arrive on the monitor's ~1 ms poll cadence.
            let wait = Duration::from_micros(200);
            thread::sleep(wait);
            in_flight += wait;
        } else {
            debug_assert_eq!(next_admit, my_machines.len());
            break;
        }
    }
    if fold_mode {
        debug_assert!(pending.is_empty(), "every retired outcome was absorbed");
        debug_assert_eq!(fold.machines(), my_machines.len());
        // Close the shard with the worker's digest roll-up: the stated
        // root plus the frontier nodes that let
        // [`kshot_telemetry::ShardData::digest_rollups`] reconstruct
        // the tree and merge adjacent worker ranges back to the
        // campaign root offline.
        if let Some(sink) = &sink {
            sink.write_raw_line(&rollup_json_line(&fold));
        }
    }
    if let Some(sink) = &sink {
        sink.flush();
    }
    let yielded = if fold_mode {
        WorkerYield::Folded(Box::new(fold), fold_recorder)
    } else {
        WorkerYield::Retained(results)
    };
    (
        yielded,
        WorkerOccupancy {
            worker,
            busy,
            in_flight,
        },
    )
}

/// The shard line closing a fold-mode worker's shard: its Merkle
/// roll-up as `{"type":"rollup",...}` with the stated root and the
/// O(log n) frontier, the serialization
/// [`kshot_telemetry::ShardData::digest_rollups`] validates and
/// reconstructs. Roots alone would not compose — bagged peaks are not
/// mergeable — so the frontier travels too.
fn rollup_json_line(fold: &OutcomeFold) -> String {
    use kshot_telemetry::merkle::digest_hex;
    let frontier = fold
        .tree
        .frontier()
        .iter()
        .map(|n| format!("[{},{},\"{}\"]", n.level, n.index, digest_hex(&n.hash)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        concat!(
            "{{\"type\":\"rollup\",\"v\":{},\"start\":{},\"machines\":{},",
            "\"root\":\"{}\",\"frontier\":[{}]}}"
        ),
        SCHEMA_VERSION,
        fold.tree.start(),
        fold.tree.len(),
        digest_hex(&fold.merkle_root()),
        frontier,
    )
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

/// The per-machine outcome line a worker appends to its shard file,
/// mirroring [`MachineOutcome`] (minus the error string, digest, and
/// injection write count, which stay in the in-memory report).
/// `kshot_telemetry::ShardData` surfaces these via
/// `other_of_type("machine")`.
fn machine_json_line(o: &MachineOutcome) -> String {
    let latency = match o.latency {
        Some(t) => format!(",\"latency_ns\":{}", t.as_ns()),
        None => String::new(),
    };
    // Dwell attribution: which SMI (index + declared cause) produced
    // `max_smm_dwell_ns`, so a shard reader can name the exact SMI
    // behind a dwell anomaly. Additive — absent when no SMI completed.
    let dwell_worst = match o.dwell_worst {
        Some((smi, cause)) => format!(
            ",\"dwell_worst_smi\":{},\"dwell_worst_cause\":\"{}\"",
            smi,
            cause.label()
        ),
        None => String::new(),
    };
    format!(
        concat!(
            "{{\"type\":\"machine\",\"v\":{},\"machine\":{},\"worker\":{},",
            "\"ok\":{},\"attempts\":{},\"retries\":{},\"faults_injected\":{},",
            "\"sim_clock_ns\":{},\"smm_overbudget\":{},\"max_smm_dwell_ns\":{}{}{}}}"
        ),
        SCHEMA_VERSION,
        o.machine,
        o.worker,
        o.ok,
        o.attempts,
        o.retries,
        o.faults_injected,
        o.sim_clock.as_ns(),
        o.smm_overbudget,
        o.max_smm_dwell.as_ns(),
        dwell_worst,
        latency,
    )
}

/// One SMI flight record as a shard line, the schema the
/// [`kshot_telemetry::IntegrityMonitor`] replays. The measurement (and
/// the segment-id hashes inside the journal op encoding) travel as hex
/// strings: the telemetry JSON layer parses numbers as `f64`, which is
/// only integer-exact to 2^53. Deliberately carries no wall-clock
/// field, so the smi stream is byte-identical across schedules.
fn smi_json_line(machine: usize, rec: &SmiFlightRecord) -> String {
    let writes = rec
        .writes
        .iter()
        .map(|WriteRange { base, len }| format!("[{base},{len}]"))
        .collect::<Vec<_>>()
        .join(",");
    let journal = rec
        .journal
        .iter()
        .map(|op| format!("\"{}\"", op.encode()))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        concat!(
            "{{\"type\":\"smi\",\"v\":{},\"machine\":{},\"smi\":{},\"cause\":\"{}\",",
            "\"measurement\":\"{:#018x}\",\"writes\":[{}],\"writes_truncated\":{},",
            "\"journal\":[{}],\"journal_truncated\":{},\"dwell_ns\":{},\"exit\":\"{}\"}}"
        ),
        kshot_machine::flight::FLIGHT_SCHEMA_VERSION,
        machine,
        rec.index,
        rec.cause.label(),
        rec.measurement,
        writes,
        rec.writes_truncated,
        journal,
        rec.journal_truncated,
        rec.dwell.as_ns(),
        rec.exit.label(),
    )
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
        // The bundle is decoded once and shared; with two concurrent
        // workers both may miss the empty cache, but every lookup is
        // accounted for.
        assert!(report.cache_misses >= 1);
        assert_eq!(report.cache_hits + report.cache_misses, 4);
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

    /// Satellite regression: batched attempts must route every
    /// catalogue blob through the shared decode-once cache, not decode
    /// privately — misses stay at one per blob for the whole fleet.
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
        assert_eq!(report.cache_hits, 6, "4 machines x 2 blobs = 8 lookups");
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

    /// Contiguous fold-mode sharding must tile `0..machines` exactly,
    /// in worker order, for every split — including workers that get an
    /// empty range (their fold starts where the previous one ends, so
    /// zero-length merges still chain).
    #[test]
    fn fold_shards_tile_the_fleet_in_worker_order() {
        for (machines, workers) in [(0, 3), (1, 4), (7, 3), (8, 3), (9, 3), (100, 8)] {
            let mut config = FleetConfig::new(machines, workers).with_outcome_fold();
            config.workers = workers;
            let mut next = 0usize;
            for worker in 0..workers {
                assert_eq!(
                    worker_fold_start(&config, worker),
                    next,
                    "machines={machines} workers={workers} worker={worker}"
                );
                let shard = worker_shard(&config, worker);
                for (i, &m) in shard.iter().enumerate() {
                    assert_eq!(m, next + i);
                }
                next += shard.len();
            }
            assert_eq!(next, machines, "machines={machines} workers={workers}");
        }
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

    /// Fold + streaming: every worker seals the same parcels as a
    /// retained streaming run *and* appends one roll-up line; the
    /// roll-ups parsed back from the shards merge (in range order,
    /// across workers) to exactly the campaign's root.
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
                    .expect("worker shard parses");
            rollups.extend(shard.digest_rollups().expect("roll-up lines validate"));
        }
        rollups.sort_by_key(|r| r.start);
        assert_eq!(rollups.len(), WORKERS, "one roll-up line per worker");
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

    #[test]
    #[should_panic(expected = "incompatible with with_rollout")]
    fn fold_mode_rejects_rollouts_loudly() {
        let (target, bytes) = campaign_fixture();
        let config = FleetConfig::new(4, 2)
            .with_outcome_fold()
            .with_rollout(crate::rollout::RolloutPlan::canary_machines(2));
        run_campaign(&target, &bytes, &config);
    }
}
