//! Detached SMM integrity monitor.
//!
//! Replays the `smi` flight-record stream (one JSON line per SMI,
//! emitted into the per-worker shards by the fleet and decoded into a
//! [`SmiLine`] by the one shard-line decoder) against declarative
//! per-SMI invariants, from *outside* the machine — the monitor trusts
//! only the stream written by the simulated hardware, never the SMM
//! handler itself. This reproduces the detection side of the SMM
//! literature the flight recorder reproduces the observation side of:
//! behaviour monitoring (Chevalier et al.) plus sealed-image
//! measurement (SmmPack).
//!
//! Invariants, each gated on the corresponding [`IntegrityPolicy`]
//! field:
//!
//! 1. **Measurement** — the handler-image measurement taken at SMI
//!    entry equals the sealed/expected hash (install SMIs, which run
//!    before sealing, report 0 and are exempt).
//! 2. **Write-set** — every SMM write range lies inside the union of
//!    allowed extents (SMRAM + kernel text/data + the reserved patch
//!    region); a truncated write-set is itself a violation, since the
//!    dropped ranges cannot be verified.
//! 3. **Journal well-formedness** — ops follow the window grammar
//!    (`Begin` opens, `Commit` closes, entries/segments only inside an
//!    open window, segment indices ascending from 0, total entries
//!    within capacity). A bare `Commit` with no `Begin` is legal: crash
//!    recovery closes a window opened in an earlier, interrupted SMI.
//! 4. **Dwell** — the SMI's dwell stays within the calibrated budget.
//!
//! Every violated invariant produces a specific, golden-tested reason
//! string naming the machine, SMI index and cause. Resident memory is
//! bounded: at most 64 reasons are retained (further violations are
//! still counted, their text dropped) and per-record state is dropped
//! as soon as the record is checked.

use std::collections::BTreeSet;

use crate::shard::SmiLine;

/// Journal undo entries one SMI may log: the SMRAM journal's capacity
/// (`JENTRY_CAP`).
const JOURNAL_ENTRY_CAP: u64 = 256;

/// Reason strings a monitor retains across the run.
const MAX_REASONS: usize = 64;

/// Declarative per-SMI invariants the monitor enforces. Checks whose
/// policy field is unset are skipped; the journal grammar and its
/// capacity are always checked.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityPolicy {
    /// Expected handler-image measurement (FNV-1a). Records reporting
    /// measurement 0 (pre-seal, i.e. the install SMI) are exempt.
    pub expected_measurement: Option<u64>,
    /// Allowed write extents `(base, len)`. Empty disables the check.
    pub allowed_extents: Vec<(u64, u64)>,
    /// Per-SMI dwell ceiling in nanoseconds.
    pub dwell_budget_ns: Option<u64>,
}

impl Default for IntegrityPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl IntegrityPolicy {
    /// A policy with every optional check disabled.
    pub fn new() -> Self {
        Self {
            expected_measurement: None,
            allowed_extents: Vec::new(),
            dwell_budget_ns: None,
        }
    }

    /// Pin the expected handler-image measurement.
    pub fn with_expected_measurement(mut self, m: u64) -> Self {
        self.expected_measurement = Some(m);
        self
    }

    /// Allow SMM writes inside `[base, base + len)`.
    pub fn with_allowed_extent(mut self, base: u64, len: u64) -> Self {
        self.allowed_extents.push((base, len));
        self
    }

    /// Set the per-SMI dwell ceiling.
    pub fn with_dwell_budget_ns(mut self, ns: u64) -> Self {
        self.dwell_budget_ns = Some(ns);
        self
    }
}

/// The monitor's verdict on one flight record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityVerdict {
    /// Every enabled invariant held.
    Clean,
    /// At least one invariant was violated.
    Violation {
        /// One specific reason per violated invariant.
        reasons: Vec<String>,
    },
}

impl IntegrityVerdict {
    /// Numeric severity: 0 clean, 2 violation (matching
    /// `HealthVerdict::severity`, where 2 halts a rollout wave).
    pub fn severity(&self) -> u8 {
        match self {
            IntegrityVerdict::Clean => 0,
            IntegrityVerdict::Violation { .. } => 2,
        }
    }

    /// Stable lower-case label.
    pub fn label(&self) -> &'static str {
        match self {
            IntegrityVerdict::Clean => "clean",
            IntegrityVerdict::Violation { .. } => "violation",
        }
    }

    /// The reasons, empty when clean.
    pub fn reasons(&self) -> &[String] {
        match self {
            IntegrityVerdict::Clean => &[],
            IntegrityVerdict::Violation { reasons } => reasons,
        }
    }
}

/// The detached monitor: feed it every decoded `smi` line, read the
/// verdicts and the end-of-run [`IntegrityReport`]. See the module docs
/// for the invariants.
#[derive(Debug, Clone)]
pub struct IntegrityMonitor {
    policy: IntegrityPolicy,
    merged_extents: Vec<(u64, u64)>,
    records_checked: u64,
    violations: u64,
    violating_machines: BTreeSet<u64>,
    reasons: Vec<String>,
    reasons_dropped: u64,
}

impl IntegrityMonitor {
    /// Build a monitor enforcing `policy`.
    pub fn new(policy: IntegrityPolicy) -> Self {
        // Merge the allowed extents once so a coalesced write range
        // spanning two adjacent extents still verifies.
        let mut ext = policy.allowed_extents.clone();
        ext.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (base, len) in ext {
            match merged.last_mut() {
                Some((mb, ml)) if base <= *mb + *ml => {
                    let end = (base + len).max(*mb + *ml);
                    *ml = end - *mb;
                }
                _ => merged.push((base, len)),
            }
        }
        Self {
            policy,
            merged_extents: merged,
            records_checked: 0,
            violations: 0,
            violating_machines: BTreeSet::new(),
            reasons: Vec::new(),
            reasons_dropped: 0,
        }
    }

    /// The enforced policy.
    pub fn policy(&self) -> &IntegrityPolicy {
        &self.policy
    }

    /// Check one decoded `smi` line against the policy, recording any
    /// violation into the run totals and returning the verdict. A
    /// malformed line never gets here: it fails to decode, as a typed
    /// shard error naming the line.
    pub fn check(&mut self, rec: &SmiLine) -> IntegrityVerdict {
        self.records_checked += 1;
        let mut reasons = Vec::new();
        let who = format!("machine {} smi {} ({})", rec.machine, rec.smi, rec.cause);
        if let Some(expected) = self.policy.expected_measurement {
            if rec.measurement != 0 && rec.measurement != expected {
                reasons.push(format!(
                    "{who}: handler measurement {:#018x} != sealed {:#018x}",
                    rec.measurement, expected
                ));
            }
        }
        if !self.merged_extents.is_empty() {
            for &(base, len) in &rec.writes {
                let end = base.saturating_add(len);
                let covered = self
                    .merged_extents
                    .iter()
                    .any(|&(eb, el)| base >= eb && end <= eb + el);
                if !covered {
                    reasons.push(format!(
                        "{who}: write [{base:#x}..{end:#x}) outside allowed extents"
                    ));
                }
            }
            if rec.writes_truncated > 0 {
                reasons.push(format!(
                    "{who}: write-set truncated ({} ranges dropped)",
                    rec.writes_truncated
                ));
            }
        }
        self.check_journal(&who, rec, &mut reasons);
        if let Some(budget) = self.policy.dwell_budget_ns {
            if rec.dwell_ns > budget {
                reasons.push(format!(
                    "{who}: dwell {}ns exceeds integrity budget {budget}ns",
                    rec.dwell_ns
                ));
            }
        }
        if reasons.is_empty() {
            IntegrityVerdict::Clean
        } else {
            self.flag(rec.machine, reasons)
        }
    }

    fn check_journal(&self, who: &str, rec: &SmiLine, reasons: &mut Vec<String>) {
        if rec.journal_truncated > 0 {
            reasons.push(format!(
                "{who}: journal op stream truncated ({} ops dropped)",
                rec.journal_truncated
            ));
        }
        let mut open = false;
        let mut next_segment = 0u64;
        let mut entries = 0u64;
        for op in &rec.journal {
            match op.as_str() {
                "B:a" | "B:r" => {
                    if open {
                        reasons.push(format!("{who}: nested journal begin"));
                    }
                    open = true;
                    next_segment = 0;
                }
                "C" => {
                    // A bare commit with no open window is legal:
                    // recovery closes a window opened in an earlier SMI.
                    open = false;
                }
                s if s.starts_with("E:") => {
                    let count: u64 = s[2..].parse().unwrap_or(u64::MAX);
                    if !open {
                        reasons.push(format!("{who}: journal entry outside an open window"));
                    }
                    entries = entries.saturating_add(count);
                }
                s if s.starts_with("S:") => {
                    if !open {
                        reasons.push(format!("{who}: segment marker outside an open window"));
                    }
                    let index = s[2..]
                        .split(':')
                        .next()
                        .and_then(|i| i.parse::<u64>().ok())
                        .unwrap_or(u64::MAX);
                    if index != next_segment {
                        reasons.push(format!("{who}: journal segment markers out of order"));
                    }
                    next_segment = next_segment.saturating_add(1);
                }
                _ => reasons.push(format!("{who}: unrecognized journal op {op:?}")),
            }
        }
        if entries > JOURNAL_ENTRY_CAP {
            reasons.push(format!(
                "{who}: journal entries {entries} exceed capacity {JOURNAL_ENTRY_CAP}"
            ));
        }
    }

    fn flag(&mut self, machine: u64, reasons: Vec<String>) -> IntegrityVerdict {
        self.violations += 1;
        self.violating_machines.insert(machine);
        for r in &reasons {
            if self.reasons.len() < MAX_REASONS {
                self.reasons.push(r.clone());
            } else {
                self.reasons_dropped += 1;
            }
        }
        IntegrityVerdict::Violation { reasons }
    }

    /// Records checked so far.
    pub fn records_checked(&self) -> u64 {
        self.records_checked
    }

    /// Records that violated at least one invariant.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// True when no record has violated anything.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }

    /// Approximate resident memory of the monitor in bytes (the
    /// quantity the clean-run acceptance bound covers): the fixed
    /// struct plus retained reasons and the violating-machine set.
    pub fn resident_bytes(&self) -> u64 {
        let reasons: usize = self.reasons.iter().map(|r| r.len() + 24).sum();
        (std::mem::size_of::<Self>()
            + self.merged_extents.len() * 16
            + self.policy.allowed_extents.len() * 16
            + reasons
            + self.violating_machines.len() * 8) as u64
    }

    /// Snapshot the run totals.
    pub fn report(&self) -> IntegrityReport {
        IntegrityReport {
            records_checked: self.records_checked,
            violations: self.violations,
            violating_machines: self.violating_machines.iter().copied().collect(),
            reasons: self.reasons.clone(),
            reasons_dropped: self.reasons_dropped,
            resident_bytes: self.resident_bytes(),
        }
    }
}

/// End-of-run summary of an [`IntegrityMonitor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Flight records checked.
    pub records_checked: u64,
    /// Records that violated at least one invariant.
    pub violations: u64,
    /// Machines with at least one violating record, ascending.
    pub violating_machines: Vec<u64>,
    /// Retained reason strings (capped; see `reasons_dropped`).
    pub reasons: Vec<String>,
    /// Reason strings dropped past the cap.
    pub reasons_dropped: u64,
    /// Approximate resident monitor memory in bytes.
    pub resident_bytes: u64,
}

impl IntegrityReport {
    /// Render as a JSON object (stable key order, machine-readable).
    pub fn to_json(&self) -> String {
        let machines: Vec<String> = self.violating_machines.iter().map(u64::to_string).collect();
        let reasons: Vec<String> = self
            .reasons
            .iter()
            .map(|r| crate::record::json_escape(r))
            .collect();
        format!(
            concat!(
                "{{\"records_checked\":{},\"violations\":{},\"clean\":{},",
                "\"violating_machines\":[{}],\"reasons\":[{}],",
                "\"reasons_dropped\":{},\"resident_bytes\":{}}}"
            ),
            self.records_checked,
            self.violations,
            self.violations == 0,
            machines.join(","),
            reasons.join(","),
            self.reasons_dropped,
            self.resident_bytes,
        )
    }

    /// Render a human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("SMM integrity monitor\n");
        out.push_str(&format!("  records checked   {}\n", self.records_checked));
        out.push_str(&format!("  violations        {}\n", self.violations));
        out.push_str(&format!(
            "  violating machines {:?}\n",
            self.violating_machines
        ));
        out.push_str(&format!("  resident bytes    {}\n", self.resident_bytes));
        for r in &self.reasons {
            out.push_str(&format!("  ! {r}\n"));
        }
        if self.reasons_dropped > 0 {
            out.push_str(&format!("  … {} reasons dropped\n", self.reasons_dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardData, ShardLine};

    fn smi_line(
        machine: u64,
        smi: u64,
        cause: &str,
        measurement: u64,
        writes: &str,
        journal: &str,
        dwell_ns: u64,
    ) -> String {
        format!(
            concat!(
                "{{\"type\":\"smi\",\"v\":1,\"machine\":{},\"smi\":{},",
                "\"cause\":\"{}\",\"measurement\":\"{:#018x}\",\"writes\":[{}],",
                "\"writes_truncated\":0,\"journal\":[{}],\"journal_truncated\":0,",
                "\"dwell_ns\":{},\"exit\":\"ok\"}}"
            ),
            machine, smi, cause, measurement, writes, journal, dwell_ns
        )
    }

    fn check(monitor: &mut IntegrityMonitor, line: &str) -> IntegrityVerdict {
        match ShardLine::decode(line).unwrap() {
            ShardLine::Smi(smi) => monitor.check(&smi),
            other => panic!("not an smi line: {other:?}"),
        }
    }

    fn policy() -> IntegrityPolicy {
        IntegrityPolicy::new()
            .with_expected_measurement(0xABCD)
            .with_allowed_extent(0x1000, 0x1000)
            .with_allowed_extent(0x2000, 0x1000)
            .with_dwell_budget_ns(100_000)
    }

    #[test]
    fn clean_record_passes_every_invariant() {
        let mut m = IntegrityMonitor::new(policy());
        let line = smi_line(
            3,
            2,
            "patch",
            0xABCD,
            "[4096,16],[8192,8]",
            "\"B:a\",\"S:0:ff\",\"E:5\",\"C\"",
            50_000,
        );
        assert_eq!(check(&mut m, &line), IntegrityVerdict::Clean);
        assert!(m.is_clean());
        assert_eq!(m.records_checked(), 1);
    }

    #[test]
    fn each_attack_yields_its_specific_reason() {
        let mut m = IntegrityMonitor::new(policy());
        // Handler tamper: wrong measurement.
        let v = check(&mut m, &smi_line(1, 2, "patch", 0xBEEF, "", "", 1));
        assert_eq!(
            v.reasons(),
            ["machine 1 smi 2 (patch): handler measurement 0x000000000000beef != sealed 0x000000000000abcd"]
        );
        // Rogue write outside every extent.
        let v = check(&mut m, &smi_line(1, 3, "patch", 0xABCD, "[64,8]", "", 1));
        assert_eq!(
            v.reasons(),
            ["machine 1 smi 3 (patch): write [0x40..0x48) outside allowed extents"]
        );
        // Journal abuse: entries after the commit closed the window.
        let v = check(
            &mut m,
            &smi_line(
                1,
                4,
                "patch",
                0xABCD,
                "",
                "\"B:a\",\"E:2\",\"C\",\"E:9\"",
                1,
            ),
        );
        assert_eq!(
            v.reasons(),
            ["machine 1 smi 4 (patch): journal entry outside an open window"]
        );
        // Dwell exhaustion.
        let v = check(&mut m, &smi_line(1, 5, "patch", 0xABCD, "", "", 250_000));
        assert_eq!(
            v.reasons(),
            ["machine 1 smi 5 (patch): dwell 250000ns exceeds integrity budget 100000ns"]
        );
        assert_eq!(m.violations(), 4);
        assert_eq!(m.report().violating_machines, vec![1]);
    }

    #[test]
    fn install_smi_measurement_zero_is_exempt() {
        let mut m = IntegrityMonitor::new(policy());
        let line = smi_line(0, 1, "install", 0, "[4096,64]", "", 1);
        assert_eq!(check(&mut m, &line), IntegrityVerdict::Clean);
    }

    #[test]
    fn coalesced_range_spanning_adjacent_extents_is_allowed() {
        let mut m = IntegrityMonitor::new(policy());
        // [0x1800, 0x2800) spans both extents, which merge into one.
        let line = smi_line(0, 2, "patch", 0xABCD, "[6144,4096]", "", 1);
        assert_eq!(check(&mut m, &line), IntegrityVerdict::Clean);
    }

    #[test]
    fn journal_grammar_accepts_recovery_and_rejects_malformed_streams() {
        let mut m = IntegrityMonitor::new(policy());
        // Bare commit: recovery closing a window torn in an earlier SMI.
        let v = check(&mut m, &smi_line(0, 3, "recover", 0xABCD, "", "\"C\"", 1));
        assert_eq!(v, IntegrityVerdict::Clean);
        // Open window with no commit: a faulted apply — legal.
        let v = check(
            &mut m,
            &smi_line(0, 4, "patch", 0xABCD, "", "\"B:a\",\"E:3\"", 1),
        );
        assert_eq!(v, IntegrityVerdict::Clean);
        // Nested begin.
        let v = check(
            &mut m,
            &smi_line(0, 5, "patch", 0xABCD, "", "\"B:a\",\"B:r\"", 1),
        );
        assert_eq!(
            v.reasons(),
            ["machine 0 smi 5 (patch): nested journal begin"]
        );
        // Out-of-order segment markers.
        let v = check(
            &mut m,
            &smi_line(0, 6, "patch", 0xABCD, "", "\"B:a\",\"S:1:aa\"", 1),
        );
        assert_eq!(
            v.reasons(),
            ["machine 0 smi 6 (patch): journal segment markers out of order"]
        );
        // Entry-capacity overflow.
        let v = check(
            &mut m,
            &smi_line(0, 7, "patch", 0xABCD, "", "\"B:a\",\"E:300\",\"C\"", 1),
        );
        assert_eq!(
            v.reasons(),
            ["machine 0 smi 7 (patch): journal entries 300 exceed capacity 256"]
        );
    }

    /// A malformed smi line never reaches the monitor as if it were
    /// clean: decoding it fails, naming the line and the bad field.
    #[test]
    fn malformed_record_is_flagged_not_ignored() {
        assert_eq!(
            ShardData::parse("{\"type\":\"smi\",\"v\":1}").unwrap_err(),
            "line 1: missing/invalid \"machine\""
        );
        let unmeasured = smi_line(3, 2, "patch", 0xABCD, "", "", 1).replace(
            "\"measurement\":\"0x000000000000abcd\"",
            "\"measurement\":43981",
        );
        assert_eq!(
            ShardLine::decode(&unmeasured).unwrap_err(),
            "missing/invalid \"measurement\""
        );
    }

    #[test]
    fn reason_retention_is_bounded() {
        let mut m = IntegrityMonitor::new(policy());
        let first = MAX_REASONS as u64 + 3;
        for i in 0..first {
            check(&mut m, &smi_line(i, 2, "patch", 0xBEEF, "", "", 1));
        }
        let report = m.report();
        assert_eq!(report.violations, first);
        assert_eq!(report.reasons.len(), MAX_REASONS);
        assert_eq!(report.reasons_dropped, 3);
        let baseline = m.resident_bytes();
        for i in first..50 + first {
            check(&mut m, &smi_line(i % 8, 2, "patch", 0xBEEF, "", "", 1));
        }
        // Resident memory does not grow with violation count once the
        // reason cap is hit and the machine set saturates.
        assert!(m.resident_bytes() <= baseline + 8 * 8);
        let json = m.report().to_json();
        assert!(json.contains(&format!("\"violations\":{}", 50 + first)));
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"resident_bytes\":"));
        let table = m.report().render_table();
        assert!(table.contains(&format!("violations        {}", 50 + first)));
        assert!(table.contains("reasons dropped"));
    }
}
