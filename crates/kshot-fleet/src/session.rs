//! The resumable per-machine session state machine.
//!
//! `run_machine` used to drive a machine end-to-end inside one function
//! call, which forced the worker to *block* in `thread::sleep` for every
//! link round trip — >95% of its wall time at realistic RTTs. This
//! module splits that drive into a [`MachineSession`]: a state machine
//! whose CPU phases ([`SessionState::Boot`], [`SessionState::Install`],
//! [`SessionState::Patch`]) run when the scheduler calls
//! [`MachineSession::step`], and whose one waiting phase
//! ([`SessionState::InFlight`]) is a plain wall-clock deadline the
//! scheduler parks in a deadline-ordered map. While one machine's
//! delivery is in flight, the same worker steps other machines' CPU
//! phases — the latency-hiding that lifts single-worker throughput. A
//! failed attempt charges its retry backoff to the machine's simulated
//! clock and puts the next delivery on the wire in the same step.
//!
//! Determinism is untouched by the refactor: everything a machine
//! computes (seed, simulated clock, telemetry, applied bytes) depends
//! only on its own state, and every resumed step runs under the
//! machine's own recorder scope. Wall-clock deadlines decide *when* a
//! step runs, never *what* it computes, so state digests, sim-time
//! metrics, and per-machine shard contents are identical at every
//! pipeline depth — depth 1 reproduces the old sequential behaviour
//! exactly.
//!
//! Staged rollouts add three states on top: a successfully patched
//! session in a rollout campaign parks in [`SessionState::AwaitVerdict`]
//! (machine kept live, pipeline slot released) until its wave's health
//! verdict arrives, then either finalizes patched
//! ([`SessionState::Release`]) or reverts through
//! [`SessionState::Rollback`] → [`KShot::rollback_last`].
//!
//! Every session walks one patch list: a single bundle is a one-entry
//! list, so the bundle and the catalogue share one apply, recover and
//! rollback path. The campaign resolves what each attempt delivers
//! once, before any machine runs ([`Campaign::deliveries`]), so an
//! attempt is one [`KShot::live_patch_wire`] call on bytes the campaign
//! holds. A fault that errors an attempt after some of its patches
//! committed counts those patches as landed instead of retrying them.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use kshot_core::reserved::rw_offsets;
use kshot_core::{batch_bundle, KShot, KShotError, Recovery};
use kshot_crypto::sha256::sha256;
use kshot_kernel::Kernel;
use kshot_machine::{CostModel, InjectionPlan, LinearCost, SimTime};
use kshot_patchserver::BundleCache;
use kshot_telemetry::Recorder;

use crate::campaign::{CampaignTarget, MachineOutcome};
use crate::config::{splitmix64, FleetConfig, BACKOFF_BASE};

/// What every session of one campaign reads: the target, the
/// configuration, what each attempt delivers, and the hashes of the
/// last kernel text and placed bytes a session digested.
pub(crate) struct Campaign<'a> {
    pub(crate) target: &'a CampaignTarget,
    pub(crate) config: &'a FleetConfig,
    /// What an attempt hands [`KShot::live_patch_wire`], by the index
    /// of the first patch it carries, or why the campaign could not
    /// build it: one entry per patch of the campaign's list (the
    /// catalogue when one is armed, else the one bundle).
    pub(crate) deliveries: Vec<Result<Cow<'a, [u8]>, String>>,
    /// Whether one SMI applies every patch not yet applied. Only a
    /// catalogue batches, so a one-entry batched catalogue keeps its
    /// `BATCH(..)` envelope.
    pub(crate) batched: bool,
    /// The SHA-256 of the last kernel text a session digested.
    pub(crate) text_hash: HashMemo,
    /// The SHA-256 of the last placed bytes a session digested.
    pub(crate) placed_hash: HashMemo,
}

impl<'a> Campaign<'a> {
    /// The campaign that applies `bundle`, or the configuration's
    /// catalogue when one is armed, with every delivery resolved. Each
    /// blob decodes once through `cache`; a blob that does not decode
    /// stores `bundle: {error}`. Delivery `i` is patch `i`'s own bytes,
    /// or under batching the encoded merge of patches `i..`, or the
    /// first reason that suffix does not decode, merge or encode.
    pub(crate) fn new(
        target: &'a CampaignTarget,
        config: &'a FleetConfig,
        bundle: &'a [u8],
        cache: &BundleCache,
    ) -> Campaign<'a> {
        let patches: Vec<&[u8]> = if config.catalogue.is_empty() {
            vec![bundle]
        } else {
            config.catalogue.iter().map(Vec::as_slice).collect()
        };
        let batched = config.batched_smi && !config.catalogue.is_empty();
        let decoded: Vec<_> = patches
            .iter()
            .map(|b| cache.get_or_decode(b).map_err(|e| format!("bundle: {e}")))
            .collect();
        let deliveries = (0..patches.len())
            .map(|i| {
                if !batched {
                    return decoded[i].clone().map(|_| Cow::Borrowed(patches[i]));
                }
                let suffix: Result<Vec<_>, _> = decoded[i..].iter().cloned().collect();
                let merged = batch_bundle(&target.version, suffix?).map_err(|e| e.to_string())?;
                Ok(Cow::Owned(merged.try_encode().map_err(|e| e.to_string())?))
            })
            .collect();
        Campaign {
            target,
            config,
            deliveries,
            batched,
            text_hash: HashMemo::default(),
            placed_hash: HashMemo::default(),
        }
    }
}

/// The last bytes of one kind (a kernel text, placed bytes) a session
/// of the campaign digested, and their SHA-256. Every patched machine
/// of a campaign carries the same bytes of each kind, so a machine whose
/// bytes equal them reuses the hash; other bytes are hashed and kept.
#[derive(Default)]
pub(crate) struct HashMemo(Mutex<Option<Arc<HashedBytes>>>);

struct HashedBytes {
    bytes: Box<[u8]>,
    sha256: [u8; 32],
}

impl HashMemo {
    /// `sha256(bytes)`. The lock is held only to take or replace the
    /// memo, never while comparing or hashing. The memo is replaced
    /// whole, so a lock poisoned by a panicking worker still holds a
    /// valid one.
    fn sha256(&self, bytes: &[u8]) -> [u8; 32] {
        let last = self
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(last) = last.filter(|last| *last.bytes == *bytes) {
            return last.sha256;
        }
        let sha256 = sha256(bytes);
        let memo = Arc::new(HashedBytes {
            bytes: bytes.into(),
            sha256,
        });
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = Some(memo);
        sha256
    }
}

/// Where a session is in its Boot → Install → InFlight → Patch → Done
/// lifecycle.
#[derive(Debug)]
pub(crate) enum SessionState {
    /// CPU: boot the kernel from the shared image.
    Boot,
    /// CPU: install KShot, configure the machine, arm any planned fault.
    Install,
    /// Waiting: this attempt's patch delivery is on the wire until
    /// `deadline` (one link RTT).
    InFlight {
        /// Wall-clock instant the delivery completes.
        deadline: Instant,
    },
    /// CPU: run this attempt's delivery through the patch session.
    Patch,
    /// Rollout mode only: the patch applied, but the machine stays live
    /// (system held) until its wave's health verdict decides whether it
    /// finalizes patched or rolls back. The worker parks the session
    /// off the pipeline and polls the rollout gate.
    AwaitVerdict,
    /// Rollout mode only: the wave halted; revert this machine's patch
    /// via [`KShot::rollback_last`] on the next step.
    Rollback,
    /// Rollout mode only: the wave was judged and this machine keeps
    /// its patch; finalize on the next step.
    Release,
    /// Terminal: `outcome` is final.
    Done,
}

/// What the scheduler should do with a session after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepStatus {
    /// More CPU work is ready right now — requeue.
    Ready,
    /// Nothing to do until the session's [`MachineSession::deadline`]
    /// passes — park in the deadline map.
    Wait,
    /// Rollout mode only: the patch applied and the session now awaits
    /// its wave's verdict. The worker must flush the machine's shard
    /// parcel (the health monitor needs it to judge the wave), free the
    /// session's pipeline slot, and hold it until
    /// [`MachineSession::deliver_verdict`].
    Held,
    /// The session is finished; collect its outcome.
    Done,
}

/// One machine's resumable patch session: the machine itself (once
/// booted), its attempt accounting, and its private recorder.
pub(crate) struct MachineSession {
    /// Running outcome; final once the session reports [`StepStatus::Done`].
    pub(crate) outcome: MachineOutcome,
    /// The machine's private telemetry recorder. The scheduler enters
    /// it (via `RecorderScope`) around every step.
    pub(crate) recorder: Arc<Recorder>,
    /// Whether the worker has sealed this machine's telemetry (folded
    /// its ring drops and, when streaming, rendered its shard parcel). A
    /// held rollout session is sealed before it finishes.
    pub(crate) sealed: bool,
    state: SessionState,
    /// Booted kernel, held between Boot and Install.
    kernel: Option<Kernel>,
    /// Installed system, held from Install until the session finishes
    /// (dropped at finalization to release the machine's memory while
    /// other sessions are still live).
    system: Option<KShot>,
    /// The campaign's recovery-window fault for this machine, until it
    /// is armed immediately before the first `recover()` call.
    recovery_fault: Option<u64>,
    /// Index of the next patch to apply (equivalently, how many of the
    /// campaign's patches are applied on the machine).
    next_patch: usize,
    /// Attempts spent on the current patch (or batch suffix); reset
    /// whenever patches land, so the retry budget is per patch rather
    /// than per machine.
    patch_attempts: u32,
    /// Accumulated simulated latency of the landed patches; becomes
    /// `outcome.latency` when the last one lands.
    latency_acc: SimTime,
}

impl MachineSession {
    /// The wall-clock instant this session is waiting for, if its
    /// delivery is in flight ([`SessionState::InFlight`]).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        match self.state {
            SessionState::InFlight { deadline } => Some(deadline),
            _ => None,
        }
    }

    /// A fresh session for `machine`, about to boot.
    pub(crate) fn new(machine: usize, worker: usize, recorder: Arc<Recorder>) -> MachineSession {
        MachineSession {
            outcome: MachineOutcome::new(machine, worker),
            recorder,
            sealed: false,
            state: SessionState::Boot,
            kernel: None,
            system: None,
            recovery_fault: None,
            next_patch: 0,
            patch_attempts: 0,
            latency_acc: SimTime::ZERO,
        }
    }

    /// Advance the session by one phase. The scheduler must only call
    /// this once any pending deadline has passed, and must run it under
    /// this session's recorder scope.
    pub(crate) fn step(&mut self, run: &Campaign) -> StepStatus {
        match self.state {
            SessionState::Boot => self.step_boot(run.target),
            SessionState::Install => self.step_install(run),
            // A released InFlight deadline means the delivery landed:
            // the patch attempt is the next CPU work.
            SessionState::InFlight { .. } | SessionState::Patch => self.step_patch(run),
            SessionState::AwaitVerdict => StepStatus::Held,
            SessionState::Rollback => self.step_rollback(run),
            SessionState::Release => self.finalize(run),
            SessionState::Done => StepStatus::Done,
        }
    }

    /// Deliver the wave verdict to a held session: `rollback` drives it
    /// through [`SessionState::Rollback`]; otherwise it finalizes
    /// patched on its next step.
    pub(crate) fn deliver_verdict(&mut self, rollback: bool) {
        debug_assert!(matches!(self.state, SessionState::AwaitVerdict));
        self.state = if rollback {
            SessionState::Rollback
        } else {
            SessionState::Release
        };
    }

    fn step_boot(&mut self, target: &CampaignTarget) -> StepStatus {
        match Kernel::boot(
            Arc::clone(&target.image),
            target.version.as_str(),
            target.layout,
        ) {
            Ok(kernel) => {
                self.kernel = Some(kernel);
                self.state = SessionState::Install;
                StepStatus::Ready
            }
            Err(e) => self.fail_early(format!("boot: {e}")),
        }
    }

    fn step_install(&mut self, run: &Campaign) -> StepStatus {
        let config = run.config;
        let machine = self.outcome.machine;
        let seed = splitmix64(config.seed.wrapping_add(machine as u64));
        let kernel = self.kernel.take().expect("Install follows Boot");
        let mut system = match KShot::install(kernel, seed) {
            Ok(s) => s,
            Err(e) => return self.fail_early(format!("install: {e}")),
        };
        let plan = config.perturbation(machine);
        let m = system.kernel_mut().machine_mut();
        m.set_smm_dwell_budget(config.smm_dwell_budget);
        if run.batched {
            // One batched SMI legitimately dwells ~k× a single
            // patch's budget: it does all k CVEs inside one pause.
            m.set_smm_dwell_budget_scale(run.deliveries.len() as u64);
        }
        if let Some(factor) = plan.slowdown {
            let scaled = slow_cost_model(m.cost(), factor);
            m.set_cost(scaled);
        }
        if let Some(index) = plan.fault {
            m.arm_injection(InjectionPlan::fail_nth_smm_write(index));
        }
        // Attacks arm *after* install: the handler image is already
        // sealed and its clean measurement recorded, so a tamper fires
        // on the next (patch) SMI where the integrity plane must see
        // the measurement mismatch — detection, not prevention.
        if let Some(kind) = plan.attack {
            m.arm_attack(kind);
        }
        self.recovery_fault = plan.recovery_fault;
        self.system = Some(system);
        self.begin_attempt(config)
    }

    /// Start the next session attempt: count it and put its delivery on
    /// the wire. Mirrors the head of the old retry loop (attempt count,
    /// then one link RTT of waiting).
    fn begin_attempt(&mut self, config: &FleetConfig) -> StepStatus {
        self.outcome.attempts += 1;
        self.patch_attempts += 1;
        if config.link_rtt.is_zero() {
            self.state = SessionState::Patch;
            return StepStatus::Ready;
        }
        let deadline = Instant::now() + config.link_rtt;
        self.state = SessionState::InFlight { deadline };
        StepStatus::Wait
    }

    fn step_patch(&mut self, run: &Campaign) -> StepStatus {
        // This attempt carries the next patch, or under batching every
        // one not yet applied, in one SMI; the campaign already built
        // its bytes.
        let carried = if run.batched {
            run.deliveries.len() - self.next_patch
        } else {
            1
        };
        let wire = match &run.deliveries[self.next_patch] {
            Ok(wire) => wire,
            Err(e) => {
                self.outcome.error = Some(e.clone());
                // This terminal path must fold too: an armed plan's
                // observed-write count would otherwise vanish with the
                // plan.
                self.fold_injection_stats();
                return self.finalize(run);
            }
        };
        let attempt = self.system().live_patch_wire(wire);
        // Fold injection stats on the success path too: an armed but
        // unfired plan (write index never reached) would otherwise
        // vanish without a trace.
        self.fold_injection_stats();
        let error = match attempt {
            Ok(report) => {
                self.latency_acc += report.total();
                return self.landed(carried, run);
            }
            Err(e) => e,
        };
        self.outcome.error = Some(error.to_string());
        // A recovery-window fault (if the campaign planned one) is armed
        // here, after the attempt's stats folded, so it fires *inside*
        // `recover()`.
        if let Some(index) = self.recovery_fault.take() {
            self.system()
                .kernel_mut()
                .machine_mut()
                .arm_injection(InjectionPlan::fail_nth_smm_write(index));
        }
        let recovered = self.system().recover();
        // Disarm a recovery-window plan that did not fire, folding its
        // observed writes, so it cannot leak into the next attempt.
        self.fold_injection_stats();
        let recovery = match recovered {
            Ok(recovery) => recovery,
            Err(re) => {
                // Recovery itself failed: the machine may be mid-unwind,
                // so retrying on it would patch a possibly-corrupt
                // kernel. Fail terminally and surface both errors.
                kshot_telemetry::counter("fleet.recovery_failed", 1);
                self.outcome.recovery_failed = true;
                self.outcome.error = Some(format!("{error}; recovery failed: {re}"));
                return self.finalize(run);
            }
        };
        let landed = if let KShotError::Committed { report, .. } = &error {
            // The attempt committed before a later write of its SMI
            // failed: it is applied, and `recover()` has healed the
            // published key material. A retry would only fail against
            // the patched target.
            self.latency_acc += report.total();
            carried
        } else if let Recovery::UnwoundApply {
            segments_preserved, ..
        } = recovery
        {
            // A fault after some journal segments committed: recovery
            // unwound only the torn one, and the committed ones stay.
            segments_preserved
        } else {
            0
        };
        if landed >= carried {
            return self.landed(carried, run);
        }
        if landed > 0 {
            // The retry resumes from the first unapplied patch with a
            // fresh per-patch budget.
            self.next_patch += landed;
            self.patch_attempts = 0;
        }
        if self.patch_attempts >= run.config.max_attempts.max(1) {
            return self.finalize(run);
        }
        // The retry's backoff is simulated-clock only: charge it and put
        // the next delivery on the wire. The just-failed attempt's
        // 0-based index decides the doubling (per patch, so a machine
        // deep into its list backs off like a fresh one).
        self.outcome.retries += 1;
        let shift = (self.patch_attempts.max(1) - 1).min(20);
        let backoff = SimTime::from_ns(BACKOFF_BASE.as_ns().saturating_mul(1u64 << shift));
        self.system().kernel_mut().machine_mut().charge(backoff);
        self.begin_attempt(run.config)
    }

    /// `count` patches landed on the machine: start the next delivery,
    /// or record the machine as patched once the list is done.
    fn landed(&mut self, count: usize, run: &Campaign) -> StepStatus {
        self.next_patch += count;
        self.patch_attempts = 0;
        if self.next_patch < run.deliveries.len() {
            return self.begin_attempt(run.config);
        }
        self.patched(run)
    }

    /// The machine carries every patch of the campaign's list: record
    /// success and either park for the wave verdict (rollout campaigns)
    /// or finalize.
    fn patched(&mut self, run: &Campaign) -> StepStatus {
        self.outcome.ok = true;
        self.outcome.error = None;
        self.outcome.latency = Some(self.latency_acc);
        if run.config.rollout.is_some() {
            // Rollout campaigns keep the patched machine live
            // until its wave's verdict: a Halt must still be
            // able to drive `rollback_last` on it. The worker
            // flushes the machine's shard parcel *now* (the
            // monitor judges the wave from it), so snapshot the
            // observable fields at their patched-state values —
            // finalization re-reads them after the verdict.
            self.observe_machine();
            self.state = SessionState::AwaitVerdict;
            StepStatus::Held
        } else {
            self.finalize(run)
        }
    }

    /// Revert this machine's applied patches after its wave halted: one
    /// pop per applied patch (batched applies journal per CVE, so
    /// `rollback_last` reverts exactly one). A partial rollback
    /// ([`KShotError::RollbackIncomplete`]) is rolled forward through
    /// the SMRAM journal via `recover()`; only if that also fails is
    /// the machine reported as `rollback_failed`.
    fn step_rollback(&mut self, run: &Campaign) -> StepStatus {
        let pops = self.next_patch;
        let system = self.system();
        let mut skipped_total = 0u64;
        for _ in 0..pops {
            match system.rollback_last() {
                Ok(out) => skipped_total += out.skipped.len() as u64,
                Err(e) => {
                    let mut recovered = false;
                    if matches!(e, KShotError::RollbackIncomplete { .. }) {
                        if let Ok(Recovery::CompletedRollback { skipped, .. }) = system.recover() {
                            skipped_total += skipped.len() as u64;
                            recovered = true;
                        }
                    }
                    if !recovered {
                        kshot_telemetry::counter("fleet.rollback_failed", 1);
                        self.outcome.rollback_failed = true;
                        self.outcome.ok = false;
                        self.outcome.error = Some(format!("rollback: {e}"));
                        return self.finalize(run);
                    }
                }
            }
        }
        self.outcome.rolled_back = true;
        self.outcome.rollback_skipped = skipped_total;
        kshot_telemetry::counter("fleet.rolled_back", 1);
        self.finalize(run)
    }

    /// Record what the installed machine ended as and release it.
    fn finalize(&mut self, run: &Campaign) -> StepStatus {
        self.observe_machine();
        let system = self.system.as_ref().expect("finalize with a live system");
        // A completed rollback restored the kernel text and deactivated
        // every record, but SMM never rewinds the `mem_X` placement
        // cursor — the reverted bodies stay behind as dead bytes no
        // active record points at. The machine's *applied* state is
        // therefore empty: digest it with an empty `mem_X` component so
        // a rolled-back machine compares equal to one that never
        // patched (whose cursor is still at `x_base`) and to one whose
        // failed apply was unwound (whose cursor `recover()` reset).
        self.outcome.state_digest = state_digest(system, run, !self.outcome.rolled_back);
        // Drop the machine now: at pipeline depth k a worker holds k
        // live machines, so releasing each one's memory at completion
        // (not at collection) bounds the high-water mark.
        self.system = None;
        self.state = SessionState::Done;
        StepStatus::Done
    }

    /// Terminal failure before a machine existed (boot/install error):
    /// there is no clock, dwell, or digest to read.
    fn fail_early(&mut self, error: String) -> StepStatus {
        self.outcome.error = Some(error);
        self.state = SessionState::Done;
        StepStatus::Done
    }

    fn fold_injection_stats(&mut self) {
        if let Some(stats) = self.system().kernel_mut().machine_mut().disarm_injection() {
            self.outcome.faults_injected += stats.faults_injected;
            self.outcome.injection_writes_seen += stats.smm_writes_seen;
        }
    }

    /// Copy the machine's clock, dwell accounting and SMI flight ring
    /// into the outcome.
    fn observe_machine(&mut self) {
        let m = self
            .system
            .as_ref()
            .expect("a live system")
            .kernel()
            .machine();
        let o = &mut self.outcome;
        o.sim_clock = m.now();
        o.smm_overbudget = m.smm_overbudget_count();
        o.max_smm_dwell = m.max_smm_dwell();
        o.dwell_worst = m.max_smm_dwell_smi();
        o.flight = m.flight_snapshot();
    }

    /// The installed system, which every phase from Install until
    /// finalization holds.
    fn system(&mut self) -> &mut KShot {
        self.system
            .as_mut()
            .expect("a phase after Install holds the system")
    }
}

/// Scale the SMM stages of `base` by `factor` (≥ 1): fixed entry/exit/
/// keygen costs and the in-SMM linear stages (decrypt, verify, apply).
/// SGX-side and generic-instruction costs are untouched — a slow
/// machine is slow *in SMM*, which is exactly what the dwell watchdog
/// is meant to catch.
fn slow_cost_model(base: &CostModel, factor: u32) -> CostModel {
    let factor = factor.max(1) as u64;
    let scale_time = |t: SimTime| SimTime::from_ns(t.as_ns().saturating_mul(factor));
    let scale_linear = |l: LinearCost| LinearCost {
        fixed: scale_time(l.fixed),
        per_byte_ps: l.per_byte_ps.saturating_mul(factor),
    };
    let mut cost = base.clone();
    cost.smm_entry = scale_time(cost.smm_entry);
    cost.smm_exit = scale_time(cost.smm_exit);
    cost.smm_keygen = scale_time(cost.smm_keygen);
    cost.smm_decrypt = scale_linear(cost.smm_decrypt);
    cost.smm_verify = scale_linear(cost.smm_verify);
    cost.smm_verify_sdbm = scale_linear(cost.smm_verify_sdbm);
    cost.smm_apply = scale_linear(cost.smm_apply);
    cost
}

/// Digest the regions that define "the applied patch": the kernel text
/// segment (where trampolines are written) and, with `include_placed`,
/// the *occupied* prefix of `mem_X` (where bodies are placed — the
/// extent comes from the placement cursor the SMM handler publishes in
/// `mem_RW`). Without it the `mem_X` component is empty — used after a
/// completed rollback, where the cursor still points past the (now
/// dead, deactivated) reverted bodies. Hashing occupied extents instead
/// of full windows keeps the digest cheap (kilobytes, not the 12 MB of
/// window space) without weakening the byte-identical-fleet property:
/// any divergence in trampolines, placed bodies, or placement extent
/// changes the digest. Each region is hashed separately, then the
/// concatenation, so the digest is independent of region adjacency.
/// Both hashes come from the campaign's [`HashMemo`]s, so a campaign
/// hashes its one text and one placement once each; a rolled-back
/// machine's empty `mem_X` bypasses the memo instead of evicting it.
fn state_digest(system: &KShot, run: &Campaign, include_placed: bool) -> [u8; 32] {
    let target = run.target;
    let phys = system.kernel().machine().phys();
    let text = phys
        .slice(target.layout.kernel_text_base, target.image.text.len())
        .expect("text segment in bounds");
    let reserved = system.reserved();
    let placed = if include_placed {
        let cursor_bytes = phys
            .slice(reserved.rw_base + rw_offsets::NEXT_PADDR, 8)
            .expect("published cursor in bounds");
        let cursor = u64::from_le_bytes(cursor_bytes.try_into().expect("eight bytes"));
        let used_x = cursor.saturating_sub(reserved.x_base).min(reserved.x_size);
        let placed = phys.slice(reserved.x_base, used_x as usize);
        run.placed_hash
            .sha256(placed.expect("occupied mem_X prefix in bounds"))
    } else {
        sha256(&[])
    };
    let mut acc = [0u8; 64];
    acc[..32].copy_from_slice(&run.text_hash.sha256(text));
    acc[32..].copy_from_slice(&placed);
    sha256(&acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignTarget;
    use crate::config::PlannedFault;
    use kshot_crypto::counters::ByteCounts;
    use kshot_cve::find;
    use kshot_machine::AccessCtx;

    /// Regression for the decode-failure stats leak: an armed plan's
    /// `smm_writes_seen` must survive the bundle-decode terminal path,
    /// not vanish with the plan. Decode failures happen before any SMM
    /// write of the session itself, so this test makes the armed plan
    /// observe one SMM-context write first (an SMI with one scratch
    /// write, the idiom `kshot-machine`'s injection tests use), then
    /// feeds the session undecodable bundle bytes.
    #[test]
    fn decode_failure_terminal_path_folds_injection_stats() {
        let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
        let (target, _server) = CampaignTarget::benchmark(spec.version);
        let config = FleetConfig::new(1, 1).with_fault(PlannedFault {
            machine: 0,
            smm_write_index: u64::MAX, // armed, never fires
        });
        let run = Campaign::new(&target, &config, b"not a bundle", &BundleCache::new());
        let mut session = MachineSession::new(0, 0, Recorder::new());
        let boot = session.step(&run);
        assert_eq!(boot, StepStatus::Ready, "Boot");
        let install = session.step(&run);
        assert_eq!(install, StepStatus::Ready, "Install, zero RTT");
        {
            let m = session
                .system
                .as_mut()
                .expect("installed")
                .kernel_mut()
                .machine_mut();
            m.raise_smi().unwrap();
            let scratch = m.smram_scratch_base();
            m.write_bytes(AccessCtx::Smm, scratch, &[0]).unwrap();
            m.rsm().unwrap();
        }
        let done = session.step(&run);
        assert_eq!(done, StepStatus::Done, "decode failure is terminal");
        let o = &session.outcome;
        assert!(!o.ok);
        assert!(
            o.error.as_deref().unwrap().starts_with("bundle:"),
            "{:?}",
            o.error
        );
        assert_eq!(o.faults_injected, 0, "the plan never fired");
        assert!(
            o.injection_writes_seen >= 1,
            "armed plan's observed writes must survive the decode-failure path"
        );
    }

    /// Every session boots from the campaign's one shared image: a live
    /// machine holds a reference to it, a finished one releases it, and
    /// a machine driven after others on the same target is
    /// indistinguishable from one driven on a freshly linked target in
    /// every simulated-domain observable.
    #[test]
    fn sessions_share_the_campaign_image_without_changing_results() {
        let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
        let (target, server) = CampaignTarget::benchmark(spec.version);
        let info = target.boot_one().info();
        let bundle = server
            .build_patch(&info, &kshot_cve::patch_for(spec))
            .expect("server builds the CVE patch")
            .bundle
            .encode();
        let config = FleetConfig::new(2, 1);
        let drive = |target: &CampaignTarget, machine: usize| {
            let run = Campaign::new(target, &config, &bundle, &BundleCache::new());
            let mut session = MachineSession::new(machine, 0, Recorder::new());
            assert_eq!(session.step(&run), StepStatus::Ready);
            assert_eq!(
                Arc::strong_count(&target.image),
                2,
                "the booted machine shares the campaign image"
            );
            while session.step(&run) != StepStatus::Done {}
            assert_eq!(
                Arc::strong_count(&target.image),
                1,
                "a finished session releases its image reference"
            );
            session.outcome
        };
        let a = drive(&target, 0);
        let b = drive(&target, 1);
        let (fresh_target, _) = CampaignTarget::benchmark(spec.version);
        let b_fresh = drive(&fresh_target, 1);
        assert!(a.ok && b.ok);
        assert_eq!(b.state_digest, b_fresh.state_digest);
        assert_eq!(b.sim_clock, b_fresh.sim_clock);
        assert_eq!(
            b.latency.map(|t| t.as_ns()),
            b_fresh.latency.map(|t| t.as_ns())
        );
    }

    /// The benchmark target and its encoded CVE bundle.
    fn target_and_bundle() -> (CampaignTarget, Vec<u8>) {
        let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
        let (target, server) = CampaignTarget::benchmark(spec.version);
        let info = target.boot_one().info();
        let bundle = server
            .build_patch(&info, &kshot_cve::patch_for(spec))
            .expect("server builds the CVE patch")
            .bundle
            .encode();
        (target, bundle)
    }

    /// A machine of `target` with KShot installed.
    fn installed(target: &CampaignTarget, seed: u64) -> KShot {
        KShot::install(target.boot_one(), seed).expect("install")
    }

    #[test]
    fn text_memo_hashes_a_repeated_text_once() {
        let (target, bundle) = target_and_bundle();
        let config = FleetConfig::new(1, 1);
        let run = Campaign::new(&target, &config, &bundle, &BundleCache::new());
        let mut system = installed(&target, 1);
        system.live_patch_wire(&bundle).expect("patch applies");
        let start = ByteCounts::current();
        let first = state_digest(&system, &run, true);
        let mid = ByteCounts::current();
        let second = state_digest(&system, &run, true);
        let end = ByteCounts::current();
        assert_eq!(first, second);
        let (cold, warm) = (mid.since(start).sha256, end.since(mid).sha256);
        // The placed bytes repeat too, and their memo saves them as well.
        let (_, placed) = placed_extent(&system);
        assert_eq!(cold - warm, target.image.text.len() as u64 + placed);
    }

    #[test]
    fn text_memo_misses_on_a_first_last_or_middle_byte() {
        let (target, _) = target_and_bundle();
        let text = &target.image.text;
        let memo = HashMemo::default();
        for i in [0, text.len() / 2, text.len() - 1] {
            assert_eq!(memo.sha256(text), sha256(text));
            let mut other = text.clone();
            other[i] ^= 1;
            assert_eq!(memo.sha256(&other), sha256(&other), "byte {i}");
        }
        let prefix = &text[..text.len() - 1];
        assert_eq!(memo.sha256(prefix), sha256(prefix));
    }

    /// Each text that differs from the previous one is hashed and
    /// becomes the memo; a repeat of the previous one is not hashed.
    #[test]
    fn text_memo_follows_alternating_texts() {
        let (target, _) = target_and_bundle();
        let a = target.image.text.clone();
        let mut b = a.clone();
        b[a.len() / 3] ^= 0x80;
        let memo = HashMemo::default();
        let mut previous: Option<&Vec<u8>> = None;
        for text in [&a, &b, &a, &a, &b, &b, &a] {
            let start = ByteCounts::current();
            assert_eq!(memo.sha256(text), sha256(text));
            let hashed = ByteCounts::current().since(start).sha256 - text.len() as u64;
            let want = if previous == Some(text) {
                0
            } else {
                text.len()
            };
            assert_eq!(hashed, want as u64);
            previous = Some(text);
        }
    }

    /// A bundle placing one 1 MiB new function, as perfbench's
    /// `fold_large` does.
    fn large_bundle(target: &CampaignTarget) -> Vec<u8> {
        kshot_patchserver::PatchBundle {
            id: "BLOB-1MiB".into(),
            kernel_version: target.version.as_str().into(),
            new_functions: vec![kshot_patchserver::PatchEntry {
                name: "blob".into(),
                taddr: 0,
                tsize: 0,
                ftrace_offset: None,
                expected_pre_hash: [0; 32],
                body: vec![0x5A; 1 << 20],
                relocs: vec![],
            }],
            ..Default::default()
        }
        .encode()
    }

    /// The occupied prefix of `system`'s `mem_X`: its base and length.
    fn placed_extent(system: &KShot) -> (u64, u64) {
        let reserved = system.reserved();
        let cursor = system.kernel().machine().phys();
        let cursor = cursor
            .slice(reserved.rw_base + rw_offsets::NEXT_PADDR, 8)
            .unwrap();
        let cursor = u64::from_le_bytes(cursor.try_into().unwrap());
        (reserved.x_base, cursor - reserved.x_base)
    }

    /// A 4-machine fold campaign of the 1 MiB bundle, its sessions
    /// driven on this thread so `ByteCounts` sees every hash, hashes its
    /// text and its placement once: the four machines in one campaign
    /// hash three texts and three placements fewer than the same four
    /// machines each in a campaign of its own.
    #[test]
    fn placed_memo_hashes_a_campaigns_placement_once() {
        let (target, _) = target_and_bundle();
        let bundle = large_bundle(&target);
        let config = FleetConfig::new(4, 1).with_outcome_fold();
        let campaign = || Campaign::new(&target, &config, &bundle, &BundleCache::new());
        let drive = |run: &Campaign, machines: std::ops::Range<usize>| {
            let start = ByteCounts::current();
            for machine in machines {
                let mut session = MachineSession::new(machine, 0, Recorder::new());
                while session.step(run) != StepStatus::Done {}
                assert!(session.outcome.ok, "{:?}", session.outcome.error);
            }
            ByteCounts::current().since(start).sha256
        };
        let run = campaign();
        let together = drive(&run, 0..4);
        let apart: u64 = (0..4).map(|m| drive(&campaign(), m..m + 1)).sum();
        let mut patched = installed(&target, 1);
        patched.live_patch_wire(&bundle).expect("patch applies");
        let (_, placed) = placed_extent(&patched);
        assert!(placed >= 1 << 20);
        let text = target.image.text.len() as u64;
        assert_eq!(apart - together, 3 * (text + placed));
    }

    /// A placed byte changed at the first, middle or last offset of the
    /// occupied `mem_X` misses the memo: the digest equals the one a
    /// fresh campaign computes, and the restored byte hits it again.
    #[test]
    fn placed_memo_misses_on_a_first_last_or_middle_byte() {
        let (target, bundle) = target_and_bundle();
        let config = FleetConfig::new(1, 1);
        let campaign = || Campaign::new(&target, &config, &bundle, &BundleCache::new());
        let run = campaign();
        let mut system = installed(&target, 1);
        system.live_patch_wire(&bundle).expect("patch applies");
        let clean = state_digest(&system, &run, true);
        let (base, len) = placed_extent(&system);
        let flip = |system: &mut KShot, at: u64| {
            let m = system.kernel_mut().machine_mut();
            m.raise_smi().unwrap();
            let mut byte = [0u8];
            m.read_bytes(AccessCtx::Smm, at, &mut byte).unwrap();
            m.write_bytes(AccessCtx::Smm, at, &[byte[0] ^ 1]).unwrap();
            m.rsm().unwrap();
        };
        for at in [base, base + len / 2, base + len - 1] {
            flip(&mut system, at);
            let changed = state_digest(&system, &run, true);
            assert_ne!(changed, clean, "byte {at:#x}");
            assert_eq!(changed, state_digest(&system, &campaign(), true));
            flip(&mut system, at);
            assert_eq!(state_digest(&system, &run, true), clean);
        }
    }

    /// A rolled-back machine's empty `mem_X` component neither hashes
    /// through the placed memo nor evicts it: the patched machine after
    /// it hashes its text again (the text memo now holds the clean
    /// text), but not its placed bytes.
    #[test]
    fn placed_memo_is_neither_used_nor_evicted_by_a_rolled_back_machine() {
        let (target, bundle) = target_and_bundle();
        let config = FleetConfig::new(2, 1);
        let run = Campaign::new(&target, &config, &bundle, &BundleCache::new());
        let mut patched = installed(&target, 1);
        patched.live_patch_wire(&bundle).expect("patch applies");
        let mut rolled_back = installed(&target, 2);
        rolled_back.live_patch_wire(&bundle).expect("patch applies");
        rolled_back.rollback_last().expect("rollback");
        let sha_bytes = |system: &KShot, include_placed: bool| {
            let start = ByteCounts::current();
            let digest = state_digest(system, &run, include_placed);
            (digest, ByteCounts::current().since(start).sha256)
        };
        let (applied, _) = sha_bytes(&patched, true);
        let (_, warm) = sha_bytes(&patched, true);
        let text = target.image.text.len() as u64;
        let (_, rolled) = sha_bytes(&rolled_back, false);
        assert_eq!(rolled, warm + text, "the clean text, and no placed byte");
        let (again, after) = sha_bytes(&patched, true);
        assert_eq!(again, applied);
        assert_eq!(
            after,
            warm + text,
            "the patched text again, but no placed byte"
        );
    }

    /// Rolling back a patched machine restores the clean text, which
    /// differs from the patched text the memo holds: its digest still
    /// equals a never-patched machine's, with a shared or a fresh memo.
    #[test]
    fn text_memo_keeps_a_rolled_back_digest_equal_to_a_never_patched_one() {
        let (target, bundle) = target_and_bundle();
        let config = FleetConfig::new(2, 1);
        let campaign = || Campaign::new(&target, &config, &bundle, &BundleCache::new());
        let run = campaign();
        let mut patched = installed(&target, 1);
        patched.live_patch_wire(&bundle).expect("patch applies");
        let applied = state_digest(&patched, &run, true);
        patched.rollback_last().expect("rollback");
        let rolled_back = state_digest(&patched, &run, false);
        let never = state_digest(&installed(&target, 2), &run, true);
        assert_ne!(applied, never);
        assert_eq!(rolled_back, never);
        assert_eq!(state_digest(&patched, &campaign(), false), never);
    }
}
