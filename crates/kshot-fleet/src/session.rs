//! The resumable per-machine session state machine.
//!
//! `run_machine` used to drive a machine end-to-end inside one function
//! call, which forced the worker to *block* in `thread::sleep` for every
//! link round trip — >95% of its wall time at realistic RTTs. This
//! module splits that drive into a [`MachineSession`]: a state machine
//! whose CPU phases ([`SessionState::Boot`], [`SessionState::Install`],
//! [`SessionState::Patch`], the backoff bookkeeping) run when the
//! scheduler calls [`MachineSession::step`], and whose waiting phases
//! ([`SessionState::InFlight`], [`SessionState::Backoff`]) are plain
//! wall-clock deadlines the scheduler parks on a min-heap. While one
//! machine's delivery is in flight, the same worker steps other
//! machines' CPU phases — the latency-hiding that lifts single-worker
//! throughput.
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

use std::sync::Arc;
use std::time::Instant;

use kshot_core::reserved::rw_offsets;
use kshot_core::{KShot, KShotError, Recovery};
use kshot_crypto::sha256::sha256;
use kshot_kernel::Kernel;
use kshot_machine::{CostModel, InjectionPlan, LinearCost, SimTime};
use kshot_patchserver::BundleCache;
use kshot_telemetry::Recorder;

use crate::campaign::{CampaignTarget, MachineOutcome};
use crate::config::{splitmix64, FleetConfig};

/// Where a session is in its Boot → Install → InFlight → Patch →
/// Backoff → Done lifecycle.
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
    /// CPU: decode the bundle (shared cache) and run the patch session.
    Patch,
    /// Waiting-then-CPU: a failed attempt's retry backoff. The backoff
    /// itself is charged to the machine's *simulated* clock (identical
    /// to the sequential path — no extra wall time at depth 1); the
    /// wall deadline exists so a scheduler could model wall-visible
    /// backoff without touching the state machine.
    Backoff {
        /// Wall-clock instant the retry may start.
        deadline: Instant,
    },
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
    /// passes — park on the deadline heap.
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
    state: SessionState,
    /// Booted kernel, held between Boot and Install.
    kernel: Option<Kernel>,
    /// Installed system, held from Install until the session finishes
    /// (dropped at finalization to release the machine's memory while
    /// other sessions are still live).
    system: Option<KShot>,
    /// Whether the config's recovery-window fault (if any) has been
    /// armed; armed exactly once, immediately before the first
    /// `recover()` call.
    recovery_fault_armed: bool,
    /// Catalogue campaigns: index of the next catalogue patch to apply
    /// (equivalently, how many of its CVEs are applied on the machine).
    /// Stays 0 in classic single-patch campaigns.
    next_patch: usize,
    /// Attempts spent on the *current* catalogue patch (or batch
    /// suffix); reset whenever a patch lands, so the retry budget is
    /// per patch rather than per machine. Identical to
    /// `outcome.attempts` in classic campaigns.
    patch_attempts: u32,
    /// Accumulated simulated patch latency across catalogue patches;
    /// becomes `outcome.latency` when the last patch lands.
    latency_acc: SimTime,
}

impl MachineSession {
    /// The wall-clock instant this session is waiting for, if it is in
    /// a waiting state ([`SessionState::InFlight`] or
    /// [`SessionState::Backoff`]).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        match self.state {
            SessionState::InFlight { deadline } | SessionState::Backoff { deadline } => {
                Some(deadline)
            }
            _ => None,
        }
    }

    /// A fresh session for `machine`, about to boot.
    pub(crate) fn new(machine: usize, worker: usize, recorder: Arc<Recorder>) -> MachineSession {
        MachineSession {
            outcome: MachineOutcome {
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
            },
            recorder,
            state: SessionState::Boot,
            kernel: None,
            system: None,
            recovery_fault_armed: false,
            next_patch: 0,
            patch_attempts: 0,
            latency_acc: SimTime::ZERO,
        }
    }

    /// Advance the session by one phase. The scheduler must only call
    /// this once any pending deadline has passed, and must run it under
    /// this session's recorder scope.
    pub(crate) fn step(
        &mut self,
        target: &CampaignTarget,
        cache: &BundleCache,
        bundle_bytes: &[u8],
        config: &FleetConfig,
    ) -> StepStatus {
        match self.state {
            SessionState::Boot => self.step_boot(target),
            SessionState::Install => self.step_install(config),
            // A released InFlight deadline means the delivery landed:
            // the patch attempt is the next CPU work.
            SessionState::InFlight { .. } | SessionState::Patch => {
                self.step_patch(cache, bundle_bytes, target, config)
            }
            SessionState::Backoff { .. } => self.step_backoff(config),
            SessionState::AwaitVerdict => StepStatus::Held,
            SessionState::Rollback => self.step_rollback(target),
            SessionState::Release => self.finalize(target),
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

    fn step_install(&mut self, config: &FleetConfig) -> StepStatus {
        let machine = self.outcome.machine;
        let seed = splitmix64(config.seed.wrapping_add(machine as u64));
        let kernel = self.kernel.take().expect("Install follows Boot");
        let mut system = match KShot::install(kernel, seed) {
            Ok(s) => s,
            Err(e) => return self.fail_early(format!("install: {e}")),
        };
        {
            let m = system.kernel_mut().machine_mut();
            m.set_smm_dwell_budget(config.smm_dwell_budget);
            if config.batched_smi && !config.catalogue.is_empty() {
                // One batched SMI legitimately dwells ~k× a single
                // patch's budget: it does all k CVEs inside one pause.
                m.set_smm_dwell_budget_scale(config.catalogue.len() as u64);
            }
            if let Some(slow) = config.slowdowns.iter().find(|s| s.machine == machine) {
                let scaled = slow_cost_model(m.cost(), slow.factor);
                m.set_cost(scaled);
            }
        }
        if let Some(fault) = config.faults.iter().find(|f| f.machine == machine) {
            system
                .kernel_mut()
                .machine_mut()
                .arm_injection(InjectionPlan::fail_nth_smm_write(fault.smm_write_index));
        }
        // Attacks arm *after* install: the handler image is already
        // sealed and its clean measurement recorded, so a tamper fires
        // on the next (patch) SMI where the integrity plane must see
        // the measurement mismatch — detection, not prevention.
        if let Some(attack) = config.attacks.iter().find(|a| a.machine == machine) {
            system.kernel_mut().machine_mut().arm_attack(attack.kind);
        }
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

    fn step_patch(
        &mut self,
        cache: &BundleCache,
        bundle_bytes: &[u8],
        target: &CampaignTarget,
        config: &FleetConfig,
    ) -> StepStatus {
        // Decode this attempt's bundle(s) through the shared cache —
        // decode-once across the whole fleet. Batched attempts route
        // every catalogue blob through the cache too, so hit/miss
        // accounting is identical to the sequential drive.
        let sources: Vec<&[u8]> = if config.catalogue.is_empty() {
            vec![bundle_bytes]
        } else if config.batched_smi {
            config.catalogue.iter().map(|b| b.as_slice()).collect()
        } else {
            vec![config.catalogue[self.next_patch].as_slice()]
        };
        let mut decoded = Vec::with_capacity(sources.len());
        for bytes in sources {
            match cache.get_or_decode(bytes) {
                Ok(b) => decoded.push(b),
                Err(e) => {
                    self.outcome.error = Some(format!("bundle: {e}"));
                    // This terminal path must fold too: an armed plan's
                    // observed-write count would otherwise vanish exactly
                    // like the success-path leak PR 5 fixed.
                    self.fold_injection_stats();
                    return self.finalize(target);
                }
            }
        }
        let system = self.system.as_mut().expect("Patch follows Install");
        // Borrow the fleet's decoded bundles: a copy per machine would
        // cost a megabyte on large patches.
        let attempt = if config.batched_smi && !config.catalogue.is_empty() {
            // One SMI for the whole not-yet-applied suffix.
            system.live_patch_batch_bundles(decoded[self.next_patch..].iter().map(Arc::as_ref))
        } else {
            system.live_patch_bundle(decoded[0].as_ref())
        };
        match attempt {
            Ok(report) => {
                self.latency_acc += report.total();
                // Fold injection stats on the success path too: an
                // armed-but-unfired plan (write index never reached)
                // would otherwise vanish without a trace.
                self.fold_injection_stats();
                if !config.catalogue.is_empty() {
                    self.next_patch += if config.batched_smi {
                        // One batched SMI landed the whole suffix.
                        config.catalogue.len() - self.next_patch
                    } else {
                        1
                    };
                    self.patch_attempts = 0;
                    if self.next_patch < config.catalogue.len() {
                        // More CVEs to go: next delivery on the wire.
                        return self.begin_attempt(config);
                    }
                }
                self.patched(target, config)
            }
            Err(e) => {
                self.outcome.error = Some(e.to_string());
                self.fold_injection_stats();
                // Roll the machine back to its pre-session state. A
                // recovery-window fault (if the campaign planned one)
                // is armed here, after the attempt's stats folded, so
                // it fires *inside* `recover()`.
                self.arm_recovery_fault(config);
                let recovered = self
                    .system
                    .as_mut()
                    .expect("Patch follows Install")
                    .recover();
                match recovered {
                    Ok(rec) => {
                        // A faulted batch only unwinds its interrupted
                        // segment: CVEs whose segments committed stay
                        // applied, so the retry resumes from the first
                        // unapplied CVE with a fresh per-patch budget.
                        if let Recovery::UnwoundApply {
                            segments_preserved, ..
                        } = rec
                        {
                            if !config.catalogue.is_empty() && segments_preserved > 0 {
                                self.next_patch = (self.next_patch + segments_preserved)
                                    .min(config.catalogue.len());
                                self.patch_attempts = 0;
                            }
                        }
                        // Disarm a recovery-window plan that did not
                        // fire, folding its observed writes, so it
                        // cannot leak into the next attempt.
                        self.fold_injection_stats();
                        if !config.catalogue.is_empty() && self.next_patch >= config.catalogue.len()
                        {
                            // A late fault can error the attempt after
                            // every segment already committed: the whole
                            // catalogue is applied, nothing to retry.
                            return self.patched(target, config);
                        }
                        if self.patch_attempts < config.max_attempts.max(1) {
                            // Ready immediately: the backoff is
                            // simulated-clock only, exactly as in the
                            // sequential path.
                            let deadline = Instant::now();
                            self.state = SessionState::Backoff { deadline };
                            StepStatus::Wait
                        } else {
                            self.finalize(target)
                        }
                    }
                    Err(re) => {
                        // Recovery itself failed: the machine may be
                        // mid-unwind, so retrying on it would patch a
                        // possibly-corrupt kernel. Fail terminally and
                        // surface both errors.
                        kshot_telemetry::counter("fleet.recovery_failed", 1);
                        self.outcome.recovery_failed = true;
                        self.outcome.error = Some(format!("{e}; recovery failed: {re}"));
                        self.fold_injection_stats();
                        self.finalize(target)
                    }
                }
            }
        }
    }

    /// The machine is fully patched (every catalogue CVE, or the classic
    /// single bundle): record success and either park for the wave
    /// verdict (rollout campaigns) or finalize.
    fn patched(&mut self, target: &CampaignTarget, config: &FleetConfig) -> StepStatus {
        self.outcome.ok = true;
        self.outcome.error = None;
        self.outcome.latency = Some(self.latency_acc);
        if config.rollout.is_some() {
            // Rollout campaigns keep the patched machine live
            // until its wave's verdict: a Halt must still be
            // able to drive `rollback_last` on it. The worker
            // flushes the machine's shard parcel *now* (the
            // monitor judges the wave from it), so snapshot the
            // observable fields at their patched-state values —
            // finalization re-reads them after the verdict.
            let m = self
                .system
                .as_ref()
                .expect("Patch follows Install")
                .kernel()
                .machine();
            self.outcome.sim_clock = m.now();
            self.outcome.smm_overbudget = m.smm_overbudget_count();
            self.outcome.max_smm_dwell = m.max_smm_dwell();
            self.outcome.dwell_worst = m.max_smm_dwell_smi();
            self.outcome.flight = m.flight_snapshot();
            self.state = SessionState::AwaitVerdict;
            StepStatus::Held
        } else {
            self.finalize(target)
        }
    }

    /// Arm the campaign's planned recovery-window fault for this
    /// machine, once, just before the first `recover()` call.
    fn arm_recovery_fault(&mut self, config: &FleetConfig) {
        if self.recovery_fault_armed {
            return;
        }
        let machine = self.outcome.machine;
        if let Some(fault) = config.recovery_faults.iter().find(|f| f.machine == machine) {
            self.system
                .as_mut()
                .expect("recovery fault armed with a live system")
                .kernel_mut()
                .machine_mut()
                .arm_injection(InjectionPlan::fail_nth_smm_write(fault.smm_write_index));
            self.recovery_fault_armed = true;
        }
    }

    /// Revert this machine's applied patches after its wave halted. A
    /// catalogue session pops once per applied CVE (batched applies
    /// journal per CVE, so `rollback_last` reverts exactly one); the
    /// classic single-patch session pops once. A partial rollback
    /// ([`KShotError::RollbackIncomplete`]) is rolled forward through
    /// the SMRAM journal via `recover()`; only if that also fails is
    /// the machine reported as `rollback_failed`.
    fn step_rollback(&mut self, target: &CampaignTarget) -> StepStatus {
        let pops = self.next_patch.max(1);
        let system = self.system.as_mut().expect("Rollback follows AwaitVerdict");
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
                        return self.finalize(target);
                    }
                }
            }
        }
        self.outcome.rolled_back = true;
        self.outcome.rollback_skipped = skipped_total;
        kshot_telemetry::counter("fleet.rolled_back", 1);
        self.finalize(target)
    }

    fn step_backoff(&mut self, config: &FleetConfig) -> StepStatus {
        self.outcome.retries += 1;
        // The just-failed attempt's 0-based index decides the doubling
        // (per catalogue patch, so a machine deep into its catalogue
        // backs off like a fresh one — identical to `outcome.attempts`
        // in classic campaigns).
        let shift = (self.patch_attempts.max(1) - 1).min(20);
        let backoff = SimTime::from_ns(config.backoff_base.as_ns().saturating_mul(1u64 << shift));
        self.system
            .as_mut()
            .expect("Backoff follows Patch")
            .kernel_mut()
            .machine_mut()
            .charge(backoff);
        self.begin_attempt(config)
    }

    /// Record what the installed machine ended as and release it.
    fn finalize(&mut self, target: &CampaignTarget) -> StepStatus {
        let system = self.system.as_ref().expect("finalize with a live system");
        self.outcome.sim_clock = system.kernel().machine().now();
        self.outcome.smm_overbudget = system.kernel().machine().smm_overbudget_count();
        self.outcome.max_smm_dwell = system.kernel().machine().max_smm_dwell();
        self.outcome.dwell_worst = system.kernel().machine().max_smm_dwell_smi();
        self.outcome.flight = system.kernel().machine().flight_snapshot();
        self.outcome.state_digest = if self.outcome.rolled_back {
            // A completed rollback restored the kernel text and
            // deactivated every record, but SMM never rewinds the
            // `mem_X` placement cursor — the reverted bodies stay
            // behind as dead bytes no active record points at. The
            // machine's *applied* state is therefore empty: digest it
            // with an empty `mem_X` component so a rolled-back machine
            // compares equal to one that never patched (whose cursor
            // is still at `x_base`) and to one whose failed apply was
            // unwound (whose cursor `recover()` reset).
            state_digest(system, target, false)
        } else {
            applied_state_digest(system, target)
        };
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
        if let Some(stats) = self
            .system
            .as_mut()
            .expect("injection stats read with a live system")
            .kernel_mut()
            .machine_mut()
            .disarm_injection()
        {
            self.outcome.faults_injected += stats.faults_injected;
            self.outcome.injection_writes_seen += stats.smm_writes_seen;
        }
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
/// segment (where trampolines are written) and the *occupied* prefix of
/// `mem_X` (where bodies are placed — the extent comes from the
/// placement cursor the SMM handler publishes in `mem_RW`). Hashing
/// occupied extents instead of full windows keeps the digest cheap
/// (kilobytes, not the 12 MB of window space) without weakening the
/// byte-identical-fleet property: any divergence in trampolines, placed
/// bodies, or placement extent changes the digest. Each region is
/// hashed separately, then the concatenation, so the digest is
/// independent of region adjacency.
fn applied_state_digest(system: &KShot, target: &CampaignTarget) -> [u8; 32] {
    state_digest(system, target, true)
}

/// The digest body shared by the applied and rolled-back cases. With
/// `include_placed` the `mem_X` component covers the occupied prefix up
/// to the published placement cursor; without it the component is empty
/// — used after a completed rollback, where the cursor still points
/// past the (now dead, deactivated) reverted bodies.
fn state_digest(system: &KShot, target: &CampaignTarget, include_placed: bool) -> [u8; 32] {
    let phys = system.kernel().machine().phys();
    let text = phys
        .slice(target.layout.kernel_text_base, target.image.text.len())
        .expect("text segment in bounds");
    let reserved = system.reserved();
    let placed: &[u8] = if include_placed {
        let cursor_bytes = phys
            .slice(reserved.rw_base + rw_offsets::NEXT_PADDR, 8)
            .expect("published cursor in bounds");
        let cursor = u64::from_le_bytes(cursor_bytes.try_into().expect("eight bytes"));
        let used_x = cursor.saturating_sub(reserved.x_base).min(reserved.x_size);
        phys.slice(reserved.x_base, used_x as usize)
            .expect("occupied mem_X prefix in bounds")
    } else {
        &[]
    };
    let mut acc = [0u8; 64];
    acc[..32].copy_from_slice(&sha256(text));
    acc[32..].copy_from_slice(&sha256(placed));
    sha256(&acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignTarget;
    use crate::config::PlannedFault;
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
        let cache = BundleCache::new();
        let garbage: &[u8] = b"not a bundle";
        let mut session = MachineSession::new(0, 0, Recorder::new());
        let boot = session.step(&target, &cache, garbage, &config);
        assert_eq!(boot, StepStatus::Ready, "Boot");
        let install = session.step(&target, &cache, garbage, &config);
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
        let done = session.step(&target, &cache, garbage, &config);
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
        let cache = BundleCache::new();
        let drive = |target: &CampaignTarget, machine: usize| {
            let mut session = MachineSession::new(machine, 0, Recorder::new());
            assert_eq!(
                session.step(target, &cache, &bundle, &config),
                StepStatus::Ready
            );
            assert_eq!(
                Arc::strong_count(&target.image),
                2,
                "the booted machine shares the campaign image"
            );
            while session.step(target, &cache, &bundle, &config) != StepStatus::Done {}
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
}
