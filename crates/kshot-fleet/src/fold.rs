//! Streaming outcome folding: the memory-bounded summary every
//! campaign reports from.
//!
//! Carrying one [`MachineOutcome`] per machine to the report assembler
//! is fine at thousands of machines and fatal at a million (an outcome
//! owns an error string, a flight ring, and ~200 fixed bytes; a million
//! of them is gigabytes). An [`OutcomeFold`] absorbs each outcome the
//! moment its session retires and keeps only what the report derives:
//! counters, a mergeable latency [`QuantileSketch`], capped dwell-anomaly
//! attribution, and a [`DigestTree`] Merkle roll-up whose root replaces
//! the all-pairs digest comparison. Resident size is O(log machines)
//! for the tree plus O(1) for everything else, independent of fleet
//! size. Keeping the outcomes as well is an option of the campaign
//! (`FleetConfig::retain_outcomes`), not a second summary path.
//!
//! Folds compose exactly like the digest trees inside them: each worker
//! folds each of its placement blocks (a contiguous machine range) in
//! ascending order, and the campaign merges the block folds left to
//! right. Every aggregate here is either a sum, a max, a sketch merge,
//! or an adjacent-range tree join, so fold-then-merge is identical to
//! one sequential fold — the property the
//! `fold_merge_equals_sequential_fold` test pins.

use kshot_machine::{SimTime, SmiCause};
use kshot_telemetry::{DigestTree, MerkleError, QuantileSketch};

use crate::campaign::MachineOutcome;
use crate::report::DWELL_ANOMALY_CAP;

/// Running summary of a contiguous machine range's outcomes.
#[derive(Debug, Clone)]
pub struct OutcomeFold {
    /// First machine index of the range this fold covers.
    start: usize,
    /// One past the last absorbed machine index.
    next: usize,
    /// Machines whose patch ultimately applied.
    pub succeeded: u64,
    /// Machines that exhausted their attempts (or were never admitted).
    pub failed: u64,
    /// Total failed-then-retried attempts.
    pub retries: u64,
    /// Faults the injection engine actually fired.
    pub faults_injected: u64,
    /// SMM-context writes observed under armed injection plans.
    pub injection_writes_seen: u64,
    /// SMIs that exceeded the campaign dwell budget, fleet-wide.
    pub smm_overbudget: u64,
    /// Machines whose `recover()` failed terminally.
    pub recovery_failed: u64,
    /// Machines rolled back after a wave Halt.
    pub rolled_back: u64,
    /// Non-revertible sites skipped across all rollbacks.
    pub rollback_skipped: u64,
    /// Machines whose rollback failed even after journal recovery.
    pub rollback_failed: u64,
    /// Machines a stopped rollout never admitted.
    pub not_admitted: u64,
    /// Successful-session latency distribution (mergeable sketch; the
    /// exact maximum is tracked on the side because the sketch's max
    /// is already exact but its percentiles are γ-approximate).
    pub latency: QuantileSketch,
    /// Slowest machine clock — the simulated-domain campaign duration.
    pub slowest_sim_clock: SimTime,
    /// Longest single SMM dwell observed anywhere in the range.
    pub max_smm_dwell: SimTime,
    /// First [`DWELL_ANOMALY_CAP`] flagged machine indices.
    pub dwell_anomalies: Vec<usize>,
    /// SMI attribution parallel to `dwell_anomalies`, same cap.
    pub dwell_anomaly_smis: Vec<(usize, u64, SmiCause)>,
    /// Flagged machines beyond the cap — attribution dropped, count kept.
    pub dwell_anomalies_truncated: u64,
    /// Merkle accumulator over the range's state digests, in machine
    /// order. Root equality across campaigns replaces comparing a
    /// million 32-byte digests pairwise.
    pub tree: DigestTree,
    /// The range's first state digest — the uniformity reference.
    reference_digest: Option<[u8; 32]>,
    /// First machine whose digest differs from `reference_digest`,
    /// if any. O(1) divergence tracking: the full locator
    /// ([`kshot_telemetry::FullDigestTree`]) needs the leaves, which a
    /// fold deliberately does not keep.
    first_divergence: Option<usize>,
}

impl OutcomeFold {
    /// An empty fold over the range starting at machine 0.
    pub fn new() -> OutcomeFold {
        OutcomeFold::starting_at(0)
    }

    /// An empty fold whose first absorbed machine must be `start` —
    /// one per placement block, at the block's first machine.
    pub fn starting_at(start: usize) -> OutcomeFold {
        OutcomeFold {
            start,
            next: start,
            succeeded: 0,
            failed: 0,
            retries: 0,
            faults_injected: 0,
            injection_writes_seen: 0,
            smm_overbudget: 0,
            recovery_failed: 0,
            rolled_back: 0,
            rollback_skipped: 0,
            rollback_failed: 0,
            not_admitted: 0,
            latency: QuantileSketch::new(),
            slowest_sim_clock: SimTime::ZERO,
            max_smm_dwell: SimTime::ZERO,
            dwell_anomalies: Vec::new(),
            dwell_anomaly_smis: Vec::new(),
            dwell_anomalies_truncated: 0,
            tree: DigestTree::starting_at(start as u64),
            reference_digest: None,
            first_divergence: None,
        }
    }

    /// First machine index of the range this fold covers.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Machines absorbed so far.
    pub fn machines(&self) -> usize {
        self.next - self.start
    }

    /// Absorb one retired machine's outcome. Outcomes must arrive in
    /// canonical machine order within the fold's range — that is what
    /// makes the digest tree's root order-canonical — so the caller
    /// (the worker's reorder buffer) must not skip or repeat indices.
    pub fn absorb(&mut self, o: &MachineOutcome) {
        assert_eq!(
            o.machine, self.next,
            "fold absorbs machines in canonical order"
        );
        self.next += 1;
        if o.ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
        self.retries += o.retries;
        self.faults_injected += o.faults_injected;
        self.injection_writes_seen += o.injection_writes_seen;
        self.smm_overbudget += o.smm_overbudget;
        self.recovery_failed += u64::from(o.recovery_failed);
        self.rolled_back += u64::from(o.rolled_back);
        self.rollback_skipped += o.rollback_skipped;
        self.rollback_failed += u64::from(o.rollback_failed);
        self.not_admitted += u64::from(!o.admitted);
        if let Some(latency) = o.latency {
            self.latency.observe(latency.as_ns());
        }
        self.slowest_sim_clock = self.slowest_sim_clock.max(o.sim_clock);
        self.max_smm_dwell = self.max_smm_dwell.max(o.max_smm_dwell);
        if o.smm_overbudget > 0 {
            if self.dwell_anomalies.len() < DWELL_ANOMALY_CAP {
                self.dwell_anomalies.push(o.machine);
                if let Some((smi, cause)) = o.dwell_worst {
                    self.dwell_anomaly_smis.push((o.machine, smi, cause));
                }
            } else {
                self.dwell_anomalies_truncated += 1;
            }
        }
        self.tree.append(o.state_digest);
        match self.reference_digest {
            None => self.reference_digest = Some(o.state_digest),
            Some(reference) => {
                if self.first_divergence.is_none() && o.state_digest != reference {
                    self.first_divergence = Some(o.machine);
                }
            }
        }
    }

    /// Merge the fold of the adjacent range to the right. Sums, maxes
    /// and sketch merges are order-free; the digest tree join and the
    /// divergence rule are not, so `right` must start exactly where
    /// this fold ends (the campaign merges block folds left to right).
    pub fn merge(&mut self, right: &OutcomeFold) -> Result<(), MerkleError> {
        self.tree.merge(&right.tree)?;
        self.next = right.next;
        self.succeeded += right.succeeded;
        self.failed += right.failed;
        self.retries += right.retries;
        self.faults_injected += right.faults_injected;
        self.injection_writes_seen += right.injection_writes_seen;
        self.smm_overbudget += right.smm_overbudget;
        self.recovery_failed += right.recovery_failed;
        self.rolled_back += right.rolled_back;
        self.rollback_skipped += right.rollback_skipped;
        self.rollback_failed += right.rollback_failed;
        self.not_admitted += right.not_admitted;
        self.latency.merge_from(&right.latency);
        self.slowest_sim_clock = self.slowest_sim_clock.max(right.slowest_sim_clock);
        self.max_smm_dwell = self.max_smm_dwell.max(right.max_smm_dwell);
        self.dwell_anomalies_truncated += right.dwell_anomalies_truncated;
        // Attribution entries are a (possibly shorter) parallel list —
        // match them to anomalies by machine index, not position.
        let mut attrs = right.dwell_anomaly_smis.iter().peekable();
        for &machine in &right.dwell_anomalies {
            let attr = attrs.next_if(|(m, _, _)| *m == machine).copied();
            if self.dwell_anomalies.len() < DWELL_ANOMALY_CAP {
                self.dwell_anomalies.push(machine);
                if let Some(attr) = attr {
                    self.dwell_anomaly_smis.push(attr);
                }
            } else {
                self.dwell_anomalies_truncated += 1;
            }
        }
        // Divergence composes left to right: a divergence inside the
        // left range wins; otherwise, if the right range's reference
        // digest differs from ours, the divergence is exactly the
        // right range's first machine; otherwise the right range's own
        // internal divergence (relative to the now-shared reference).
        match (self.reference_digest, right.reference_digest) {
            (Some(mine), Some(theirs)) => {
                if self.first_divergence.is_none() {
                    self.first_divergence = if mine != theirs {
                        Some(right.start)
                    } else {
                        right.first_divergence
                    };
                }
            }
            (None, theirs) => {
                self.reference_digest = theirs;
                self.first_divergence = right.first_divergence;
            }
            (Some(_), None) => {}
        }
        Ok(())
    }

    /// Root of the Merkle roll-up over every absorbed digest.
    pub fn merkle_root(&self) -> [u8; 32] {
        self.tree.root()
    }

    /// Whether every absorbed digest was identical — the fleet-wide
    /// byte-identical-state property, answered without retaining a
    /// single digest beyond the reference. Vacuously true when empty.
    pub fn all_identical_digests(&self) -> bool {
        self.first_divergence.is_none()
    }

    /// First machine whose digest differed from the range's first, if
    /// any. For the exact *leaf-level* locator over two full campaigns,
    /// use [`kshot_telemetry::FullDigestTree::first_divergence`] on
    /// retained runs; a fold answers the within-run question in O(1).
    pub fn first_divergence(&self) -> Option<usize> {
        self.first_divergence
    }

    /// Bytes of state this fold keeps resident: the struct itself, the
    /// latency sketch's buckets, the capped anomaly lists, and the
    /// logarithmic digest-tree frontier. This is the number the scale
    /// benchmark compares against `machines × sizeof(MachineOutcome)`.
    pub fn resident_bytes(&self) -> u64 {
        std::mem::size_of::<OutcomeFold>() as u64
            + self.latency.resident_bytes()
            + (self.dwell_anomalies.capacity() * std::mem::size_of::<usize>()) as u64
            + (self.dwell_anomaly_smis.capacity() * std::mem::size_of::<(usize, u64, SmiCause)>())
                as u64
            + self.tree.resident_bytes()
    }
}

impl Default for OutcomeFold {
    fn default() -> Self {
        OutcomeFold::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(machine: usize, ok: bool, latency_ns: u64, digest: u8) -> MachineOutcome {
        MachineOutcome {
            attempts: 1,
            retries: u64::from(!ok),
            ok,
            error: (!ok).then(|| "boom".to_string()),
            latency: ok.then(|| SimTime::from_ns(latency_ns)),
            sim_clock: SimTime::from_ns(latency_ns * 2),
            state_digest: [digest; 32],
            ..MachineOutcome::new(machine, 0)
        }
    }

    #[test]
    fn fold_merge_equals_sequential_fold() {
        // 23 machines, a retry, a failure, a digest divergence — split
        // across three adjacent folds, merged left to right, must match
        // one sequential fold bit for bit where it matters.
        let outcomes: Vec<MachineOutcome> = (0..23)
            .map(|m| {
                let ok = m != 7;
                let digest = if m == 19 { 9 } else { 4 };
                outcome(m, ok, 1_000 + m as u64 * 37, digest)
            })
            .collect();
        let mut sequential = OutcomeFold::new();
        for o in &outcomes {
            sequential.absorb(o);
        }
        let mut merged = OutcomeFold::new();
        for range in [0..10usize, 10..16, 16..23] {
            let mut part = OutcomeFold::starting_at(range.start);
            for o in &outcomes[range] {
                part.absorb(o);
            }
            merged.merge(&part).expect("adjacent ranges merge");
        }
        assert_eq!(merged.machines(), 23);
        assert_eq!(merged.succeeded, sequential.succeeded);
        assert_eq!(merged.failed, sequential.failed);
        assert_eq!(merged.retries, sequential.retries);
        assert_eq!(merged.merkle_root(), sequential.merkle_root());
        assert_eq!(merged.slowest_sim_clock, sequential.slowest_sim_clock);
        assert_eq!(merged.latency.count(), sequential.latency.count());
        assert_eq!(merged.latency.max(), sequential.latency.max());
        assert_eq!(merged.first_divergence(), Some(19));
        assert_eq!(sequential.first_divergence(), Some(19));
        assert!(!merged.all_identical_digests());
    }

    #[test]
    fn uniform_fleet_reads_as_identical() {
        let mut fold = OutcomeFold::new();
        for m in 0..64 {
            fold.absorb(&outcome(m, true, 500, 3));
        }
        assert!(fold.all_identical_digests());
        assert_eq!(fold.first_divergence(), None);
        // The root matches a tree built from the digest vector — the
        // equality the scale benchmark asserts at fleet size.
        let leaves = vec![[3u8; 32]; 64];
        assert_eq!(fold.merkle_root(), DigestTree::from_leaves(&leaves).root());
    }

    #[test]
    fn divergence_at_a_merge_boundary_names_the_right_start() {
        // Left range uniform with digest A; right range uniform with
        // digest B: the divergence is the right range's first machine,
        // which no within-range tracker saw.
        let mut left = OutcomeFold::new();
        for m in 0..8 {
            left.absorb(&outcome(m, true, 100, 1));
        }
        let mut right = OutcomeFold::starting_at(8);
        for m in 8..16 {
            right.absorb(&outcome(m, true, 100, 2));
        }
        assert!(left.all_identical_digests());
        assert!(right.all_identical_digests());
        left.merge(&right).expect("adjacent");
        assert_eq!(left.first_divergence(), Some(8));
    }

    #[test]
    fn non_adjacent_merge_is_rejected() {
        let mut left = OutcomeFold::new();
        left.absorb(&outcome(0, true, 100, 1));
        let mut gap = OutcomeFold::starting_at(5);
        gap.absorb(&outcome(5, true, 100, 1));
        assert!(left.merge(&gap).is_err());
    }

    #[test]
    fn dwell_anomalies_cap_and_count_truncation() {
        let mut fold = OutcomeFold::new();
        for m in 0..DWELL_ANOMALY_CAP + 10 {
            let mut o = outcome(m, true, 100, 1);
            o.smm_overbudget = 1;
            o.dwell_worst = Some((3, SmiCause::Patch));
            fold.absorb(&o);
        }
        assert_eq!(fold.dwell_anomalies.len(), DWELL_ANOMALY_CAP);
        assert_eq!(fold.dwell_anomaly_smis.len(), DWELL_ANOMALY_CAP);
        assert_eq!(fold.dwell_anomalies_truncated, 10);
        // Merging another saturated fold keeps the cap and folds the
        // overflow into the truncation counter.
        let mut right = OutcomeFold::starting_at(DWELL_ANOMALY_CAP + 10);
        for m in DWELL_ANOMALY_CAP + 10..DWELL_ANOMALY_CAP + 20 {
            let mut o = outcome(m, true, 100, 1);
            o.smm_overbudget = 1;
            right.absorb(&o);
        }
        fold.merge(&right).expect("adjacent");
        assert_eq!(fold.dwell_anomalies.len(), DWELL_ANOMALY_CAP);
        assert_eq!(fold.dwell_anomalies_truncated, 20);
    }

    #[test]
    fn resident_bytes_stay_logarithmic_in_machines() {
        let mut fold = OutcomeFold::new();
        for m in 0..100_000 {
            fold.absorb(&outcome(m, true, 1_000 + (m as u64 % 977), 6));
        }
        // 100k absorbed outcomes; the fold keeps well under 16 KiB —
        // retaining the outcomes would be tens of megabytes.
        assert!(
            fold.resident_bytes() < 16 * 1024,
            "resident: {}",
            fold.resident_bytes()
        );
        assert_eq!(fold.machines(), 100_000);
        assert_eq!(fold.succeeded, 100_000);
    }
}
