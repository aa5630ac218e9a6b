//! Staged rollout orchestration: canary waves, verdict-gated admission,
//! and Halt-actuated auto-rollback.
//!
//! A [`RolloutPlan`] partitions a campaign's machine range into
//! **waves**: a canary cohort (absolute size or percent of the fleet)
//! followed by exponentially growing ramp waves (`canary`, `canary×g`,
//! `canary×g²`, …, the last clamped to the fleet size). Admission into
//! wave `k+1` is gated on wave `k`'s health windows *all* judging
//! `Healthy` under the armed [`kshot_telemetry::HealthPolicy`] — the
//! verdicts come from the existing [`kshot_telemetry::HealthMonitor`]
//! snapshots, not a second aggregation path. The monitor window is
//! sized to the canary cohort, so wave boundaries always fall on window
//! boundaries and no window straddles two waves.
//!
//! Verdict → action:
//!
//! * **Healthy** wave: its patched machines finalize, the next wave is
//!   admitted.
//! * **Degraded** wave: admission stops (no further waves), but the
//!   degraded wave's patched machines stay patched — "slow" is a reason
//!   to pause the ramp, not to revert live fixes.
//! * **Halt** wave: admission stops *and* every already-patched machine
//!   of the halted wave is driven through
//!   [`SessionState::Rollback`](crate::session) →
//!   [`kshot_core::KShot::rollback_last`], surfacing per-machine
//!   [`kshot_core::RollbackOutcome`] `skipped` sites. Machines never
//!   admitted are reported with `admitted: false` and are never booted.
//!
//! The plan can also subsume dwell-budget auto-calibration
//! ([`RolloutPlan::with_dwell_calibration`]): when the canary wave
//! closes Healthy, the ramp waves' SMM dwell budget is derived from the
//! canary cohort's own `machine.smm_dwell_ns` sketch (p99 × margin) and
//! armed on the monitor mid-flight, instead of trusting a fixed config
//! value.
//!
//! Determinism: wave contents are pure machine-index arithmetic, and
//! wave verdicts are folded from the monitor's snapshot sequence, which
//! is already byte-identical across worker counts and pipeline depths.
//! The wave sequence, halt point, and rollback set therefore depend
//! only on the campaign seed and plan — never on scheduling.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use kshot_telemetry::{json_escape, HealthMonitor};

use crate::fold::OutcomeFold;

/// How large the canary cohort is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CanarySize {
    /// An absolute machine count.
    Machines(usize),
    /// A percentage of the fleet (clamped to 1..=100).
    Percent(u32),
}

/// A staged-rollout plan: canary cohort size, ramp growth factor, and
/// optional canary-derived dwell-budget calibration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutPlan {
    canary: CanarySize,
    /// Wave-size multiplier for the exponential ramp (≥ 1; default 2).
    pub growth: u32,
    /// When set, a Healthy canary wave arms the health monitor's dwell
    /// check with `canary dwell p99 × margin / 1000` for the ramp.
    pub dwell_margin_per_mille: Option<u64>,
}

impl RolloutPlan {
    /// A plan whose canary is `n` machines (clamped to ≥ 1 and to the
    /// fleet size at resolution time).
    pub fn canary_machines(n: usize) -> RolloutPlan {
        RolloutPlan {
            canary: CanarySize::Machines(n),
            growth: 2,
            dwell_margin_per_mille: None,
        }
    }

    /// A plan whose canary is `percent`% of the fleet (clamped so the
    /// resolved cohort is ≥ 1 machine).
    pub fn canary_percent(percent: u32) -> RolloutPlan {
        RolloutPlan {
            canary: CanarySize::Percent(percent.clamp(1, 100)),
            growth: 2,
            dwell_margin_per_mille: None,
        }
    }

    /// Builder-style: set the ramp growth factor (clamped to ≥ 1; 1
    /// means constant-size waves).
    pub fn with_growth(mut self, growth: u32) -> Self {
        self.growth = growth.max(1);
        self
    }

    /// Builder-style: derive the ramp waves' dwell budget from the
    /// canary cohort's own dwell p99, with `margin_per_mille` headroom
    /// (1000 = exactly the canary p99, 1500 = 1.5×).
    pub fn with_dwell_calibration(mut self, margin_per_mille: u64) -> Self {
        self.dwell_margin_per_mille = Some(margin_per_mille.max(1));
        self
    }

    /// The canary cohort size this plan resolves to for a fleet of
    /// `machines` (always in `1..=machines` for a non-empty fleet).
    pub fn canary_size(&self, machines: usize) -> usize {
        let n = match self.canary {
            CanarySize::Machines(n) => n,
            CanarySize::Percent(p) => machines.saturating_mul(p.min(100) as usize) / 100,
        };
        n.clamp(1, machines.max(1))
    }

    /// Partition `machines` into waves: canary first, then ramp waves
    /// of `canary × growth^k`, the last clamped to the fleet size.
    /// Every wave boundary is a multiple of the canary size (except the
    /// final clamp), which is what lets the health-window size equal
    /// the canary size without windows straddling waves.
    pub fn waves(&self, machines: usize) -> Vec<Wave> {
        let mut out = Vec::new();
        if machines == 0 {
            return out;
        }
        let mut size = self.canary_size(machines);
        let mut start = 0usize;
        while start < machines {
            let end = (start + size).min(machines);
            out.push(Wave { start, end });
            start = end;
            size = size.saturating_mul(self.growth.max(1) as usize);
        }
        out
    }
}

/// One contiguous machine-index wave, `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wave {
    /// First machine index (inclusive).
    pub start: usize,
    /// Last machine index (exclusive).
    pub end: usize,
}

/// What a held (patched, awaiting-verdict) session should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaveAction {
    /// Its wave closed Healthy (or Degraded): finalize patched.
    Finalize,
    /// Its wave closed Halt: revert via `KShot::rollback_last`.
    Rollback,
}

/// The shared admission/actuation gate between the rollout controller
/// (on the monitor thread) and the workers. All transitions are
/// monotonic — limits only advance, `halted` only sets — so plain
/// atomics with release/acquire ordering are enough: a worker that
/// observes `halted` also observes the rollback range stored before it.
pub(crate) struct RolloutGate {
    /// Machines `< admit` may be admitted (initially the canary end).
    admit: AtomicUsize,
    /// Held machines `< finalize` may finalize patched.
    finalize: AtomicUsize,
    /// Halted-wave rollback range, valid once `halted` is set.
    rollback_start: AtomicUsize,
    rollback_end: AtomicUsize,
    /// Admission is permanently stopped (Degraded or Halt).
    halted: AtomicBool,
}

impl RolloutGate {
    pub(crate) fn new(canary_end: usize) -> RolloutGate {
        RolloutGate {
            admit: AtomicUsize::new(canary_end),
            finalize: AtomicUsize::new(0),
            rollback_start: AtomicUsize::new(0),
            rollback_end: AtomicUsize::new(0),
            halted: AtomicBool::new(false),
        }
    }

    /// May `machine` start its session now? Never once halted.
    pub(crate) fn may_admit(&self, machine: usize) -> bool {
        machine < self.admit.load(Ordering::Acquire) && !self.halted()
    }

    /// Has admission stopped for good?
    pub(crate) fn halted(&self) -> bool {
        self.halted.load(Ordering::Acquire)
    }

    /// The verdict-derived action for a held machine, if its wave has
    /// been judged.
    pub(crate) fn action_for(&self, machine: usize) -> Option<WaveAction> {
        if machine < self.finalize.load(Ordering::Acquire) {
            return Some(WaveAction::Finalize);
        }
        if self.halted() {
            let start = self.rollback_start.load(Ordering::Acquire);
            let end = self.rollback_end.load(Ordering::Acquire);
            if machine >= start && machine < end {
                return Some(WaveAction::Rollback);
            }
        }
        None
    }

    /// A wave closed Healthy: release its held sessions and open
    /// admission through `admit_to`.
    fn advance(&self, finalize_to: usize, admit_to: usize) {
        self.finalize.store(finalize_to, Ordering::Release);
        self.admit.store(admit_to, Ordering::Release);
    }

    /// Stop admission. `finalize_to` releases held sessions that keep
    /// their patch (Degraded halt); `rollback` names the wave whose
    /// patched machines must revert (Halt).
    fn halt(&self, finalize_to: usize, rollback: Option<Wave>) {
        self.finalize.store(finalize_to, Ordering::Release);
        if let Some(w) = rollback {
            self.rollback_start.store(w.start, Ordering::Release);
            self.rollback_end.store(w.end, Ordering::Release);
        }
        // Last: workers that observe the flag also observe the range.
        self.halted.store(true, Ordering::Release);
    }
}

/// What the controller learned, handed back to `run_campaign` to build
/// the public [`RolloutReport`] alongside the campaign's fold.
#[derive(Debug, Clone, Default)]
pub(crate) struct RolloutTrail {
    pub(crate) waves: Vec<WaveOutcome>,
    pub(crate) halt_wave: Option<usize>,
    pub(crate) halt_verdict: Option<&'static str>,
    pub(crate) halt_reasons: Vec<String>,
    pub(crate) dwell_budget_ns: Option<u64>,
}

/// Folds the monitor's snapshot stream into wave verdicts and drives
/// the gate. Runs on the monitor thread (it owns policy re-arming), so
/// its decisions land in the same deterministic order as the snapshots
/// themselves.
pub(crate) struct RolloutController<'a> {
    waves: Vec<Wave>,
    gate: &'a RolloutGate,
    dwell_margin_per_mille: Option<u64>,
    /// Snapshots consumed from the monitor so far.
    consumed: usize,
    /// Index of the wave currently being judged.
    current: usize,
    /// Worst verdict severity seen in the current wave's windows.
    worst: u8,
    /// Deduplicated reasons behind `worst`.
    reasons: Vec<String>,
    trail: RolloutTrail,
    finished: bool,
}

impl<'a> RolloutController<'a> {
    pub(crate) fn new(
        plan: &RolloutPlan,
        waves: Vec<Wave>,
        gate: &'a RolloutGate,
    ) -> RolloutController<'a> {
        RolloutController {
            waves,
            gate,
            dwell_margin_per_mille: plan.dwell_margin_per_mille,
            consumed: 0,
            current: 0,
            worst: 0,
            reasons: Vec::new(),
            trail: RolloutTrail::default(),
            finished: false,
        }
    }

    /// Fold any newly emitted snapshots into the current wave; when the
    /// wave's last window lands, judge it and act on the gate. Windows
    /// emit in machine-index order, so the wave is complete exactly
    /// when a snapshot's `window_end` reaches the wave end.
    pub(crate) fn observe(&mut self, monitor: &mut HealthMonitor) {
        while !self.finished && self.consumed < monitor.snapshots().len() {
            let (severity, reasons, window_end, total_dwell_p99) = {
                let snap = &monitor.snapshots()[self.consumed];
                (
                    snap.verdict.severity(),
                    snap.verdict.reasons().to_vec(),
                    snap.window_end,
                    snap.total.dwell_p99_ns,
                )
            };
            self.consumed += 1;
            self.worst = self.worst.max(severity);
            for r in reasons {
                if !self.reasons.contains(&r) {
                    self.reasons.push(r);
                }
            }
            if window_end == self.waves[self.current].end as u64 {
                self.close_wave(monitor, total_dwell_p99);
            }
        }
    }

    /// All of the current wave's windows are in: fold them into one
    /// verdict and actuate.
    fn close_wave(&mut self, monitor: &mut HealthMonitor, total_dwell_p99: u64) {
        let wave = self.waves[self.current];
        let label = match self.worst {
            0 => "healthy",
            1 => "degraded",
            _ => "halt",
        };
        self.trail.waves.push(WaveOutcome {
            wave: self.current,
            start: wave.start,
            end: wave.end,
            verdict: label.to_string(),
        });
        match self.worst {
            0 => {
                // Canary closed Healthy: calibrate the ramp's dwell
                // budget from the cohort's own p99. The running totals
                // cover exactly the canary here because windows emit in
                // machine-index order.
                if self.current == 0 {
                    if let Some(margin) = self.dwell_margin_per_mille {
                        if total_dwell_p99 > 0 {
                            monitor.arm_dwell_budget(total_dwell_p99, margin);
                            self.trail.dwell_budget_ns = Some(total_dwell_p99);
                        }
                    }
                }
                if self.current + 1 == self.waves.len() {
                    self.gate.advance(wave.end, wave.end);
                    self.finished = true;
                } else {
                    self.current += 1;
                    self.gate.advance(wave.end, self.waves[self.current].end);
                }
                self.worst = 0;
                self.reasons.clear();
            }
            1 => {
                // Degraded: stop the ramp, keep the wave's patches.
                self.trail.halt_wave = Some(self.current);
                self.trail.halt_verdict = Some("degraded");
                self.trail.halt_reasons = std::mem::take(&mut self.reasons);
                self.gate.halt(wave.end, None);
                self.finished = true;
            }
            _ => {
                // Halt: stop the ramp and revert the wave's patched
                // machines. Because a wave is only judged once every
                // machine in it has reported, no admitted machine is
                // still mid-patch here — the rollback set is exactly
                // the wave's held (patched) sessions.
                self.trail.halt_wave = Some(self.current);
                self.trail.halt_verdict = Some("halt");
                self.trail.halt_reasons = std::mem::take(&mut self.reasons);
                self.gate.halt(wave.start, Some(wave));
                self.finished = true;
            }
        }
    }

    /// The monitor failed and no verdict will come: halt the wave in
    /// flight as a Halt verdict would, so no worker waits forever.
    pub(crate) fn fail_closed(&mut self) {
        if !self.finished {
            let wave = self.waves[self.current];
            self.gate.halt(wave.start, Some(wave));
            self.finished = true;
        }
    }

    pub(crate) fn into_trail(self) -> RolloutTrail {
        self.trail
    }
}

/// One wave's folded verdict, as run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveOutcome {
    /// Wave index (0 = canary).
    pub wave: usize,
    /// First machine index (inclusive).
    pub start: usize,
    /// Last machine index (exclusive).
    pub end: usize,
    /// Folded verdict label: `healthy`, `degraded`, or `halt`.
    pub verdict: String,
}

/// The rollout half of a [`crate::CampaignReport`]: which waves ran,
/// where (and why) the ramp stopped, and what the rollback actuated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutReport {
    /// Resolved canary cohort size (also the health-window size).
    pub canary: usize,
    /// Ramp growth factor the plan ran with.
    pub growth: u32,
    /// Waves the plan partitioned the fleet into.
    pub planned_waves: usize,
    /// Waves actually run to a verdict, in order.
    pub waves: Vec<WaveOutcome>,
    /// Wave index the ramp stopped at, if it did not complete.
    pub halt_wave: Option<usize>,
    /// `"degraded"` (ramp paused, patches kept) or `"halt"` (patched
    /// cohort rolled back); `None` when the ramp completed.
    pub halt_verdict: Option<String>,
    /// Policy reasons behind the stop (deduplicated, in emission order).
    pub halt_reasons: Vec<String>,
    /// Canary-calibrated dwell budget armed for the ramp waves, when
    /// [`RolloutPlan::with_dwell_calibration`] was set and the canary
    /// closed Healthy.
    pub dwell_budget_ns: Option<u64>,
    /// Machines whose patch was reverted by the halt.
    pub rolled_back: u64,
    /// Non-revertible sites skipped across all rollbacks
    /// ([`kshot_core::RollbackOutcome::skipped`] totals) — non-zero
    /// means those machines still carry data edits and need re-patching.
    pub rollback_skipped_sites: u64,
    /// Machines whose rollback failed even after journal recovery.
    pub rollback_failed: u64,
    /// Machines never admitted because the ramp stopped first (they
    /// count as `failed` in the campaign totals, with
    /// `MachineOutcome::admitted == false`).
    pub not_admitted: u64,
}

impl RolloutReport {
    pub(crate) fn assemble(
        plan: &RolloutPlan,
        machines: usize,
        trail: RolloutTrail,
        fold: &OutcomeFold,
    ) -> RolloutReport {
        RolloutReport {
            canary: plan.canary_size(machines),
            growth: plan.growth,
            planned_waves: plan.waves(machines).len(),
            waves: trail.waves,
            halt_wave: trail.halt_wave,
            halt_verdict: trail.halt_verdict.map(str::to_string),
            halt_reasons: trail.halt_reasons,
            dwell_budget_ns: trail.dwell_budget_ns,
            rolled_back: fold.rolled_back,
            rollback_skipped_sites: fold.rollback_skipped,
            rollback_failed: fold.rollback_failed,
            not_admitted: fold.not_admitted,
        }
    }

    /// Did the ramp run every planned wave without stopping?
    pub fn completed(&self) -> bool {
        self.halt_wave.is_none()
    }

    /// The rollout section of `CampaignReport::to_json` (one JSON
    /// object, no trailing newline).
    pub fn to_json(&self) -> String {
        let waves = self
            .waves
            .iter()
            .map(|w| {
                format!(
                    "{{\"wave\":{},\"start\":{},\"end\":{},\"verdict\":\"{}\"}}",
                    w.wave, w.start, w.end, w.verdict
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let reasons = self
            .halt_reasons
            .iter()
            .map(|r| json_escape(r))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"canary\":{},\"growth\":{},\"planned_waves\":{},\"waves\":[{}],",
                "\"halt_wave\":{},\"halt_verdict\":{},\"halt_reasons\":[{}],",
                "\"dwell_budget_ns\":{},\"rolled_back\":{},\"rollback_skipped_sites\":{},",
                "\"rollback_failed\":{},\"not_admitted\":{}}}"
            ),
            self.canary,
            self.growth,
            self.planned_waves,
            waves,
            self.halt_wave
                .map_or_else(|| "null".to_string(), |w| w.to_string()),
            self.halt_verdict
                .as_deref()
                .map_or_else(|| "null".to_string(), |v| format!("\"{v}\"")),
            reasons,
            self.dwell_budget_ns
                .map_or_else(|| "null".to_string(), |b| b.to_string()),
            self.rolled_back,
            self.rollback_skipped_sites,
            self.rollback_failed,
            self.not_admitted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_ramp_exponentially_and_clamp_to_the_fleet() {
        let plan = RolloutPlan::canary_machines(2);
        let waves = plan.waves(12);
        assert_eq!(
            waves,
            vec![
                Wave { start: 0, end: 2 },
                Wave { start: 2, end: 6 },
                Wave { start: 6, end: 12 },
            ]
        );
        // Every boundary except the final clamp is a multiple of the
        // canary size — the wave/window alignment invariant.
        assert!(waves.iter().all(|w| w.start % 2 == 0));
        // A growth-4 ramp over 64 machines: 2, 8, 32, clamp.
        let plan = RolloutPlan::canary_machines(2).with_growth(4);
        let sizes: Vec<usize> = plan.waves(64).iter().map(|w| w.end - w.start).collect();
        assert_eq!(sizes, vec![2, 8, 32, 22]);
        // Degenerate fleets.
        assert!(plan.waves(0).is_empty());
        assert_eq!(plan.waves(1), vec![Wave { start: 0, end: 1 }]);
        // Growth is clamped to ≥ 1 (constant-size waves, not an
        // infinite loop of zero-size ones).
        let flat = RolloutPlan::canary_machines(3).with_growth(0);
        assert_eq!(flat.waves(9).len(), 3);
    }

    #[test]
    fn canary_percent_resolves_against_the_fleet() {
        assert_eq!(RolloutPlan::canary_percent(10).canary_size(64), 6);
        // Never resolves to zero machines.
        assert_eq!(RolloutPlan::canary_percent(1).canary_size(8), 1);
        // Nor beyond the fleet.
        assert_eq!(RolloutPlan::canary_machines(100).canary_size(8), 8);
        assert_eq!(RolloutPlan::canary_percent(100).canary_size(8), 8);
    }

    #[test]
    fn gate_orders_admission_finalization_and_rollback() {
        let gate = RolloutGate::new(2);
        assert!(gate.may_admit(0) && gate.may_admit(1));
        assert!(!gate.may_admit(2));
        assert!(!gate.halted());
        assert_eq!(gate.action_for(0), None, "canary still being judged");
        // Canary healthy: machines 0..2 finalize, 2..6 admitted.
        gate.advance(2, 6);
        assert_eq!(gate.action_for(1), Some(WaveAction::Finalize));
        assert_eq!(gate.action_for(2), None);
        assert!(gate.may_admit(5) && !gate.may_admit(6));
        // Wave [2,6) halts: its machines roll back, admission stops.
        gate.halt(2, Some(Wave { start: 2, end: 6 }));
        assert!(gate.halted());
        assert!(!gate.may_admit(6));
        assert_eq!(gate.action_for(1), Some(WaveAction::Finalize));
        assert_eq!(gate.action_for(2), Some(WaveAction::Rollback));
        assert_eq!(gate.action_for(5), Some(WaveAction::Rollback));
        assert_eq!(gate.action_for(6), None, "never patched, nothing to revert");
    }

    #[test]
    fn rollout_report_json_shape() {
        let plan = RolloutPlan::canary_machines(2).with_dwell_calibration(1500);
        let trail = RolloutTrail {
            waves: vec![
                WaveOutcome {
                    wave: 0,
                    start: 0,
                    end: 2,
                    verdict: "healthy".to_string(),
                },
                WaveOutcome {
                    wave: 1,
                    start: 2,
                    end: 6,
                    verdict: "halt".to_string(),
                },
            ],
            halt_wave: Some(1),
            halt_verdict: Some("halt"),
            halt_reasons: vec!["failure rate 500 per-mille exceeds halt ceiling 300".to_string()],
            dwell_budget_ns: Some(40_000),
        };
        let report = RolloutReport::assemble(&plan, 12, trail, &OutcomeFold::new());
        assert_eq!(report.planned_waves, 3);
        assert!(!report.completed());
        let json = report.to_json();
        assert!(json.contains("\"halt_wave\":1"), "{json}");
        assert!(json.contains("\"halt_verdict\":\"halt\""), "{json}");
        assert!(json.contains("\"dwell_budget_ns\":40000"), "{json}");
        assert!(json.contains("\"verdict\":\"healthy\""), "{json}");
        assert!(json.contains("halt ceiling 300"), "{json}");
    }
}
