//! The merged campaign report: latency percentiles, throughput in both
//! time domains, failure accounting, and a hand-rolled JSON emitter for
//! the benchmark artefacts.

use std::sync::Arc;
use std::time::Duration;

use kshot_machine::{SimTime, SmiCause};
use kshot_telemetry::{HealthReport, IntegrityReport, PhaseProfile, Recorder};

use crate::campaign::MachineOutcome;
use crate::config::FleetConfig;
use crate::fold::OutcomeFold;
use crate::rollout::RolloutReport;

/// Most dwell anomalies the report attributes individually. A fleet
/// where *every* machine overstays its budget would otherwise grow the
/// anomaly vectors linearly with fleet size — at a million machines,
/// the unbounded attribution list was itself the memory leak. Flagged
/// machines beyond the cap are counted in
/// [`CampaignReport::dwell_anomalies_truncated`]; the cap covers any
/// plausible *anomaly* population, and a fleet-wide overrun is a
/// campaign configuration problem the count still surfaces.
pub const DWELL_ANOMALY_CAP: usize = 64;

/// What the live health monitor produced for one campaign: the full
/// [`HealthReport`] plus how much of it was *live* — snapshots emitted
/// (and degradations flagged) while workers were still running, i.e.
/// the mid-campaign detection a completion-barrier aggregator can't do.
#[derive(Debug, Clone)]
pub struct CampaignHealth {
    /// The monitor's snapshots, totals, and aggregation accounting.
    pub report: HealthReport,
    /// Snapshots emitted before the last worker finished.
    pub live_snapshots: u64,
    /// Whether any *live* snapshot carried a Degraded verdict (exactly
    /// severity 1 — a live Halt sets `halt_live`, not this).
    pub degraded_live: bool,
    /// Whether any *live* snapshot carried a Halt verdict. Tracked
    /// separately from `degraded_live` because Halt is the verdict the
    /// rollout plane actuates on — collapsing it into "degraded" hid
    /// the one signal that stops a campaign.
    pub halt_live: bool,
}

/// How one worker spent its scheduling loop: stepping sessions (busy)
/// versus sleeping on delivery/backoff deadlines (in flight). The ratio
/// is the pipelining win made observable — at depth 1 a latency-bound
/// worker is almost entirely in flight; with a deep enough pipeline the
/// same worker approaches fully busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerOccupancy {
    /// Worker index (0-based).
    pub worker: usize,
    /// Wall-clock time spent executing session steps (CPU phases).
    pub busy: Duration,
    /// Wall-clock time slept waiting for the earliest deadline because
    /// no session had CPU work ready.
    pub in_flight: Duration,
}

impl WorkerOccupancy {
    /// Fraction of the worker's scheduling loop spent busy, in `0..=1`
    /// (1.0 when the worker never waited).
    pub fn busy_fraction(&self) -> f64 {
        let total = self.busy + self.in_flight;
        if total.is_zero() {
            return 1.0;
        }
        self.busy.as_secs_f64() / total.as_secs_f64()
    }
}

/// Everything a campaign produced, merged across machines and workers.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Machines the campaign drove.
    pub machines: usize,
    /// Worker threads they ran on (`FleetConfig::workers`, at least 1).
    pub workers: usize,
    /// Per-worker pipeline depth the campaign ran with (1 = sequential).
    pub pipeline_depth: usize,
    /// Machines whose patch ultimately applied.
    pub succeeded: usize,
    /// Machines that exhausted their attempts.
    pub failed: usize,
    /// Total failed-then-retried attempts across the fleet.
    pub retries: u64,
    /// Faults the injection engine actually fired across the fleet.
    pub faults_injected: u64,
    /// Median successful-session latency (simulated), read from the
    /// fold's [`kshot_telemetry::QuantileSketch`]: never below the exact
    /// nearest-rank sample, at most
    /// [`kshot_telemetry::QuantileSketch::MAX_RELATIVE_ERROR_PER_MILLE`]
    /// above it, and exact when every latency is equal.
    pub latency_p50: SimTime,
    /// 95th-percentile successful-session latency (simulated), from the
    /// same sketch and with the same bound as `latency_p50`.
    pub latency_p95: SimTime,
    /// Worst successful-session latency (simulated), exact.
    pub latency_max: SimTime,
    /// Wall-clock duration of the whole campaign.
    pub wall: Duration,
    /// Applied patches per wall-clock second.
    pub throughput_wall: f64,
    /// Applied patches per simulated second, where campaign simulated
    /// time is the *slowest machine's* clock (machines run in parallel
    /// in the modelled world, so the fleet finishes when the laggard
    /// does).
    pub throughput_sim: f64,
    /// Bundle-cache hits across the fleet.
    pub cache_hits: u64,
    /// Bundle-cache misses (decodes) across the fleet.
    pub cache_misses: u64,
    /// Per-machine outcomes, ordered by machine index. Empty unless the
    /// campaign ran with [`crate::FleetConfig::retain_outcomes`].
    pub outcomes: Vec<MachineOutcome>,
    /// The campaign's merged fold — counters, the latency sketch, and
    /// the Merkle digest roll-up every summary in this report is read
    /// from. Always `Some` for a report `run_campaign` returns.
    pub fold: Option<OutcomeFold>,
    /// Machines (by index) the SMM dwell watchdog flagged — at least
    /// one SMI exceeded [`crate::FleetConfig::smm_dwell_budget`].
    /// Always empty when no budget was armed; capped at
    /// [`DWELL_ANOMALY_CAP`] entries.
    pub dwell_anomalies: Vec<usize>,
    /// SMI-level attribution for [`CampaignReport::dwell_anomalies`]:
    /// for each flagged machine, the index and declared cause of the
    /// SMI behind its worst dwell — the anomaly names the exact SMI,
    /// not just the machine. Parallel to `dwell_anomalies` (entries
    /// whose worst SMI was never observed are omitted).
    pub dwell_anomaly_smis: Vec<(usize, u64, SmiCause)>,
    /// Flagged machines beyond [`DWELL_ANOMALY_CAP`]: their individual
    /// attribution was dropped, but the overrun is still counted.
    pub dwell_anomalies_truncated: u64,
    /// Each worker's busy/in-flight wall-time split, in worker order.
    pub worker_occupancy: Vec<WorkerOccupancy>,
    /// The live health monitor's output, when the campaign armed one
    /// via [`FleetConfig::with_health`](crate::FleetConfig::with_health).
    pub health: Option<CampaignHealth>,
    /// The staged-rollout trail (waves run, halt point, rollback
    /// actuation), when the campaign ran under
    /// [`FleetConfig::with_rollout`](crate::FleetConfig::with_rollout).
    pub rollout: Option<RolloutReport>,
    /// The detached integrity monitor's end-of-campaign report
    /// (records replayed, violations, reasons, resident bytes), when
    /// the campaign armed
    /// [`FleetConfig::with_integrity`](crate::FleetConfig::with_integrity).
    pub integrity: Option<IntegrityReport>,
    /// Every kept machine's telemetry, merged into one recorder in
    /// machine order (metric totals only, and only when streaming, when
    /// the campaign kept no outcomes).
    pub recorder: Arc<Recorder>,
}

impl CampaignReport {
    /// Summarize a campaign from its merged fold. `outcomes` are the
    /// kept outcomes, carried through untouched.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        config: &FleetConfig,
        outcomes: Vec<MachineOutcome>,
        fold: OutcomeFold,
        recorder: Arc<Recorder>,
        worker_occupancy: Vec<WorkerOccupancy>,
        wall: Duration,
        cache_hits: u64,
        cache_misses: u64,
        health: Option<CampaignHealth>,
        rollout: Option<RolloutReport>,
    ) -> CampaignReport {
        let succeeded = fold.succeeded as usize;
        // The integrity section is the health monitor's detached
        // replay; lift it to the report root so readers need not know
        // it rides inside the health plane.
        let integrity = health.as_ref().and_then(|h| h.report.integrity.clone());
        let wall_secs = wall.as_secs_f64();
        let throughput_wall = if wall_secs > 0.0 {
            succeeded as f64 / wall_secs
        } else {
            0.0
        };
        let slowest_ns = fold.slowest_sim_clock.as_ns();
        let throughput_sim = if slowest_ns > 0 {
            succeeded as f64 / (slowest_ns as f64 / 1e9)
        } else {
            0.0
        };

        CampaignReport {
            machines: config.machines,
            workers: config.workers.max(1),
            pipeline_depth: config.pipeline_depth.max(1),
            succeeded,
            failed: fold.failed as usize,
            retries: fold.retries,
            faults_injected: fold.faults_injected,
            latency_p50: SimTime::from_ns(fold.latency.quantile_per_mille(500)),
            latency_p95: SimTime::from_ns(fold.latency.quantile_per_mille(950)),
            latency_max: SimTime::from_ns(fold.latency.max()),
            wall,
            throughput_wall,
            throughput_sim,
            cache_hits,
            cache_misses,
            outcomes,
            dwell_anomalies: fold.dwell_anomalies.clone(),
            dwell_anomaly_smis: fold.dwell_anomaly_smis.clone(),
            dwell_anomalies_truncated: fold.dwell_anomalies_truncated,
            fold: Some(fold),
            worker_occupancy,
            health,
            rollout,
            integrity,
            recorder,
        }
    }

    /// Per-phase timing breakdown reconstructed from the merged
    /// recorder's `phase.*` spans. Empty when the campaign kept no
    /// outcomes (records were dropped); re-aggregate from the streamed
    /// shard files instead
    /// ([`kshot_telemetry::PhaseProfile::from_json_lines`]).
    pub fn phase_profile(&self) -> PhaseProfile {
        PhaseProfile::from_recorder(&self.recorder)
    }

    /// Whether every machine ended with the same text/`mem_X` digest —
    /// the fleet-wide "byte-identical applied state" property, answered
    /// by the fold's O(1) uniformity tracker. Vacuously true for an
    /// empty campaign.
    pub fn all_identical_digests(&self) -> bool {
        self.fold
            .as_ref()
            .is_none_or(OutcomeFold::all_identical_digests)
    }

    /// Merkle root over every machine's state digest, in machine order
    /// — 32 bytes that stand in for the whole digest vector. Two
    /// campaigns over the same fleet are byte-identical iff their roots
    /// are equal, whatever their placement and whether they kept
    /// outcomes.
    pub fn digest_root(&self) -> [u8; 32] {
        self.fold.as_ref().map_or_else(
            || OutcomeFold::new().merkle_root(),
            OutcomeFold::merkle_root,
        )
    }

    /// Serialize the summary (not per-machine outcomes) as a JSON
    /// object, stamped with the telemetry schema version so downstream
    /// readers can reject drift the same way shard parsers do.
    pub fn to_json(&self) -> String {
        let dwell_anomalies = self
            .dwell_anomalies
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let occupancy = self
            .worker_occupancy
            .iter()
            .map(|o| {
                format!(
                    "{{\"worker\":{},\"busy_ms\":{:.3},\"in_flight_ms\":{:.3},\"busy_fraction\":{:.4}}}",
                    o.worker,
                    o.busy.as_secs_f64() * 1e3,
                    o.in_flight.as_secs_f64() * 1e3,
                    o.busy_fraction(),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        // The health section is additive: campaigns without a monitor
        // emit exactly the shape they always did.
        let health = match &self.health {
            None => String::new(),
            Some(h) => format!(
                concat!(
                    "\"health\":{{\"final_verdict\":\"{}\",\"snapshots\":{},",
                    "\"live_snapshots\":{},\"degraded_live\":{},\"halt_live\":{},",
                    "\"machines_seen\":{},\"lines_consumed\":{},",
                    "\"max_failure_per_mille\":{},\"max_retry_per_mille\":{},",
                    "\"max_dwell_p99_ns\":{},\"resident_sketch_bytes\":{}}},"
                ),
                h.report.final_verdict().label(),
                h.report.snapshots.len(),
                h.live_snapshots,
                h.degraded_live,
                h.halt_live,
                h.report.machines_seen,
                h.report.lines_consumed,
                h.report.max_failure_per_mille(),
                h.report.max_retry_per_mille(),
                h.report.max_dwell_p99_ns(),
                h.report.resident_sketch_bytes,
            ),
        };
        // Likewise additive: only rollout campaigns carry the section.
        let rollout = match &self.rollout {
            None => String::new(),
            Some(r) => format!("\"rollout\":{},", r.to_json()),
        };
        // Additive again: only integrity campaigns carry the section.
        let integrity = match &self.integrity {
            None => String::new(),
            Some(i) => format!("\"integrity\":{},", i.to_json()),
        };
        // SMI-level dwell attribution, additive next to the classic
        // machine-index list.
        let dwell_anomaly_smis = self
            .dwell_anomaly_smis
            .iter()
            .map(|(machine, smi, cause)| {
                format!(
                    "{{\"machine\":{},\"smi\":{},\"cause\":\"{}\"}}",
                    machine,
                    smi,
                    cause.label()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let fold = match &self.fold {
            None => String::new(),
            Some(f) => format!(
                concat!(
                    "\"fold\":{{\"machines\":{},\"merkle_root\":\"{}\",",
                    "\"resident_bytes\":{},\"latency_sketch_buckets\":{},",
                    "\"first_divergence\":{}}},"
                ),
                f.machines(),
                kshot_telemetry::merkle::digest_hex(&f.merkle_root()),
                f.resident_bytes(),
                f.latency.bucket_len(),
                f.first_divergence()
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "null".to_string()),
            ),
        };
        format!(
            concat!(
                "{{\"v\":{},\"machines\":{},\"workers\":{},\"pipeline_depth\":{},",
                "\"succeeded\":{},\"failed\":{},",
                "\"retries\":{},\"faults_injected\":{},",
                "\"latency_ns\":{{\"p50\":{},\"p95\":{},\"max\":{}}},",
                "\"wall_ms\":{:.3},",
                "\"throughput_wall_patches_per_sec\":{:.3},",
                "\"throughput_sim_patches_per_sec\":{:.3},",
                "\"cache\":{{\"hits\":{},\"misses\":{}}},",
                "\"dwell_anomalies\":[{}],",
                "\"dwell_anomaly_smis\":[{}],",
                "\"dwell_anomalies_truncated\":{},",
                "\"occupancy\":[{}],",
                "{}{}{}{}\"identical_digests\":{}}}"
            ),
            kshot_telemetry::SCHEMA_VERSION,
            self.machines,
            self.workers,
            self.pipeline_depth,
            self.succeeded,
            self.failed,
            self.retries,
            self.faults_injected,
            self.latency_p50.as_ns(),
            self.latency_p95.as_ns(),
            self.latency_max.as_ns(),
            self.wall.as_secs_f64() * 1e3,
            self.throughput_wall,
            self.throughput_sim,
            self.cache_hits,
            self.cache_misses,
            dwell_anomalies,
            dwell_anomaly_smis,
            self.dwell_anomalies_truncated,
            occupancy,
            health,
            rollout,
            integrity,
            fold,
            self.all_identical_digests(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kshot_telemetry::QuantileSketch;

    fn outcome(machine: usize, ok: bool, latency_ns: u64, digest: u8) -> MachineOutcome {
        MachineOutcome {
            attempts: 1,
            retries: 0,
            ok,
            error: (!ok).then(|| "boom".to_string()),
            latency: ok.then(|| SimTime::from_ns(latency_ns)),
            sim_clock: SimTime::from_ns(latency_ns * 2),
            state_digest: [digest; 32],
            ..MachineOutcome::new(machine, 0)
        }
    }

    fn fold_of(outcomes: &[MachineOutcome]) -> OutcomeFold {
        let mut fold = OutcomeFold::new();
        for o in outcomes {
            fold.absorb(o);
        }
        fold
    }

    #[test]
    fn assemble_summarizes_percentiles_and_throughput() {
        let config = FleetConfig::new(3, 2);
        let mut flagged = outcome(1, true, 3_000, 7);
        flagged.smm_overbudget = 2;
        flagged.max_smm_dwell = SimTime::from_us(120);
        let outcomes = vec![
            outcome(0, true, 1_000, 7),
            flagged,
            outcome(2, false, 9_000, 8),
        ];
        let report = CampaignReport::assemble(
            &config,
            outcomes.clone(),
            fold_of(&outcomes),
            Recorder::new(),
            vec![
                WorkerOccupancy {
                    worker: 0,
                    busy: Duration::from_millis(4),
                    in_flight: Duration::from_millis(4),
                },
                WorkerOccupancy {
                    worker: 1,
                    busy: Duration::from_millis(9),
                    in_flight: Duration::ZERO,
                },
            ],
            Duration::from_millis(10),
            2,
            1,
            None,
            None,
        );
        assert_eq!(report.succeeded, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.outcomes.len(), 3, "kept outcomes pass through");
        // The median sample is 1000 ns; the sketch never undershoots it
        // and overshoots by at most its documented γ − 1.
        let p50 = report.latency_p50.as_ns();
        assert!(p50 >= 1_000, "{p50}");
        assert!(p50 * 1000 <= 1_000 * (1000 + QuantileSketch::MAX_RELATIVE_ERROR_PER_MILLE));
        assert_eq!(report.latency_max.as_ns(), 3_000);
        // 2 successes in 10 ms of wall time.
        assert!((report.throughput_wall - 200.0).abs() < 1.0);
        // Simulated campaign time is the slowest clock (18 µs).
        assert!((report.throughput_sim - 2.0 / 18e-6).abs() < 1.0);
        assert!(!report.all_identical_digests());
        assert_eq!(report.dwell_anomalies, vec![1]);
        let json = report.to_json();
        assert!(json.starts_with(&format!("{{\"v\":{}", kshot_telemetry::SCHEMA_VERSION)));
        assert!(json.contains("\"succeeded\":2"));
        assert!(json.contains("\"identical_digests\":false"));
        assert!(json.contains(&format!("\"p50\":{p50}")), "{json}");
        assert!(json.contains("\"dwell_anomalies\":[1]"));
        assert!(json.contains("\"pipeline_depth\":1"));
        assert!(json.contains("\"fold\":{\"machines\":3"), "{json}");
        // Occupancy serializes per worker; a half-busy worker reads as
        // a 0.5 busy fraction.
        assert!(json.contains("\"occupancy\":[{\"worker\":0"), "{json}");
        assert!(json.contains("\"busy_fraction\":0.5000"));
        assert!((report.worker_occupancy[1].busy_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_campaign_is_vacuously_consistent() {
        let report = CampaignReport::assemble(
            &FleetConfig::new(0, 1),
            Vec::new(),
            OutcomeFold::new(),
            Recorder::new(),
            Vec::new(),
            Duration::ZERO,
            0,
            0,
            None,
            None,
        );
        assert!(report.all_identical_digests());
        assert_eq!(report.latency_p50.as_ns(), 0);
        assert_eq!(report.throughput_wall, 0.0);
        assert_eq!(report.throughput_sim, 0.0);
    }

    /// The dwell-anomaly vectors cap at [`DWELL_ANOMALY_CAP`] and the
    /// overflow is counted, not dropped.
    #[test]
    fn dwell_anomalies_cap_with_truncation_counter() {
        let outcomes: Vec<MachineOutcome> = (0..DWELL_ANOMALY_CAP + 9)
            .map(|m| {
                let mut o = outcome(m, true, 1_000, 5);
                o.smm_overbudget = 1;
                o.dwell_worst = Some((2, SmiCause::Patch));
                o
            })
            .collect();
        let report = CampaignReport::assemble(
            &FleetConfig::new(outcomes.len(), 2),
            Vec::new(),
            fold_of(&outcomes),
            Recorder::new(),
            Vec::new(),
            Duration::from_millis(10),
            0,
            0,
            None,
            None,
        );
        assert_eq!(report.dwell_anomalies.len(), DWELL_ANOMALY_CAP);
        assert_eq!(report.dwell_anomaly_smis.len(), DWELL_ANOMALY_CAP);
        assert_eq!(report.dwell_anomalies_truncated, 9);
        let json = report.to_json();
        assert!(json.contains("\"dwell_anomalies_truncated\":9"), "{json}");
    }
}
