//! Per-SMI flight recorder types.
//!
//! Every SMI serviced by the [`crate::Machine`] produces one bounded,
//! schema-versioned [`SmiFlightRecord`] describing *what the handler
//! actually did* inside the SMI: the declared cause, the handler-image
//! measurement taken at entry, the ordered SMM write-set, the journal
//! operations performed, the dwell, and how the SMI exited. Records
//! accumulate in a bounded ring on the machine; the fleet streams them
//! as `smi` JSON lines so a detached integrity monitor can replay the
//! SMI against declarative invariants (see `kshot-telemetry`'s
//! `integrity` module) without trusting the handler.
//!
//! The design reproduces two ideas from the SMM-security literature:
//! behaviour-level monitoring of the handler from outside the CPU
//! (Chevalier et al.) and sealed handler images whose tampering is
//! detectable by measurement (SmmPack). The recorder is written by the
//! *machine* (the simulated hardware), not by the handler, so a
//! compromised handler cannot forge its own flight records.

use crate::timing::SimTime;

/// Completed records retained per machine (oldest dropped beyond this).
pub const FLIGHT_RING_CAP: usize = 128;

/// Write-set ranges retained per SMI (further writes are counted in
/// [`SmiFlightRecord::writes_truncated`] but their addresses dropped).
pub const FLIGHT_WRITE_CAP: usize = 64;

/// Journal operations retained per SMI.
pub const FLIGHT_JOURNAL_CAP: usize = 48;

/// Why an SMI was raised, declared by the orchestrator immediately
/// before delivery (see `Machine::declare_smi_cause`). SMIs raised
/// without a declaration record [`SmiCause::Unattributed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmiCause {
    /// No cause was declared before delivery.
    Unattributed,
    /// First SMI: firmware installs the SMM handler.
    Install,
    /// Live-patch application.
    Patch,
    /// Rollback of the most recent patch.
    Rollback,
    /// Crash recovery (journal roll-forward/unwind).
    Recover,
    /// Read-only introspection of the record store.
    Introspect,
    /// Active-site inventory.
    Inventory,
    /// Trampoline repair.
    Repair,
    /// Denial-of-service probe (rejected re-trigger).
    Probe,
}

impl SmiCause {
    /// Stable lower-case label used in streamed lines and reports.
    pub fn label(self) -> &'static str {
        match self {
            SmiCause::Unattributed => "unattributed",
            SmiCause::Install => "install",
            SmiCause::Patch => "patch",
            SmiCause::Rollback => "rollback",
            SmiCause::Recover => "recover",
            SmiCause::Introspect => "introspect",
            SmiCause::Inventory => "inventory",
            SmiCause::Repair => "repair",
            SmiCause::Probe => "probe",
        }
    }
}

/// How the SMI ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmiExit {
    /// `RSM` executed; the CPU resumed Protected Mode normally.
    Ok,
    /// A warm reset tore the machine out of SMM before `RSM`; the
    /// record's dwell covers delivery up to the reset instant.
    Interrupted,
}

impl SmiExit {
    /// Stable lower-case label used in streamed lines.
    pub fn label(self) -> &'static str {
        match self {
            SmiExit::Ok => "ok",
            SmiExit::Interrupted => "interrupted",
        }
    }
}

/// One journal operation observed during an SMI, as noted by the SMM
/// journal primitives. Consecutive [`JournalOp::Entries`] notes merge,
/// so a chunked original-bytes capture appears as one growing count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// A journal window opened (`apply` when `rollback` is false).
    Begin {
        /// True for a rollback window, false for an apply window.
        rollback: bool,
    },
    /// A segment marker landed in the SMRAM segment table.
    Segment {
        /// Segment index within the batch.
        index: u64,
        /// FNV-1a hash of the segment's package id.
        id_hash: u64,
    },
    /// Undo entries were appended to the journal.
    Entries {
        /// Number of entries appended (merged across consecutive notes).
        count: u64,
    },
    /// The journal window closed.
    Commit,
}

impl JournalOp {
    /// Compact stable encoding used in streamed lines: `B:a`/`B:r`,
    /// `S:<index>:<id_hash hex>`, `E:<count>`, `C`.
    pub fn encode(&self) -> String {
        match self {
            JournalOp::Begin { rollback: false } => "B:a".to_string(),
            JournalOp::Begin { rollback: true } => "B:r".to_string(),
            JournalOp::Segment { index, id_hash } => format!("S:{index}:{id_hash:x}"),
            JournalOp::Entries { count } => format!("E:{count}"),
            JournalOp::Commit => "C".to_string(),
        }
    }

    /// Parse the compact encoding produced by [`JournalOp::encode`].
    pub fn decode(s: &str) -> Option<JournalOp> {
        match s {
            "B:a" => return Some(JournalOp::Begin { rollback: false }),
            "B:r" => return Some(JournalOp::Begin { rollback: true }),
            "C" => return Some(JournalOp::Commit),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("E:") {
            return rest.parse().ok().map(|count| JournalOp::Entries { count });
        }
        if let Some(rest) = s.strip_prefix("S:") {
            let (idx, hash) = rest.split_once(':')?;
            return Some(JournalOp::Segment {
                index: idx.parse().ok()?,
                id_hash: u64::from_str_radix(hash, 16).ok()?,
            });
        }
        None
    }
}

/// A half-open physical range `[base, base + len)` written under SMM
/// context during one SMI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRange {
    /// Base physical address of the range.
    pub base: u64,
    /// Length of the range in bytes.
    pub len: u64,
}

/// What one SMI actually did, as observed by the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmiFlightRecord {
    /// 1-based SMI index on this machine (`Machine::smi_count` at entry).
    pub index: u64,
    /// Declared cause of the SMI.
    pub cause: SmiCause,
    /// FNV-1a measurement of the sealed handler image taken at SMI
    /// entry; 0 when no image has been sealed yet (the install SMI).
    pub measurement: u64,
    /// Ordered, coalesced SMM-context write ranges.
    pub writes: Vec<WriteRange>,
    /// Ranges dropped once [`FLIGHT_WRITE_CAP`] was reached.
    pub writes_truncated: u64,
    /// Journal operations in execution order.
    pub journal: Vec<JournalOp>,
    /// Journal operations dropped once [`FLIGHT_JOURNAL_CAP`] was
    /// reached.
    pub journal_truncated: u64,
    /// SMM dwell: delivery to `RSM` completion (or to the warm reset
    /// for [`SmiExit::Interrupted`] records).
    pub dwell: SimTime,
    /// How the SMI ended.
    pub exit: SmiExit,
}

impl SmiFlightRecord {
    pub(crate) fn open(index: u64, cause: SmiCause, measurement: u64) -> Self {
        Self {
            index,
            cause,
            measurement,
            writes: Vec::new(),
            writes_truncated: 0,
            journal: Vec::new(),
            journal_truncated: 0,
            dwell: SimTime::ZERO,
            exit: SmiExit::Ok,
        }
    }

    /// Note one SMM-context write, coalescing with the previous range
    /// when contiguous and bounding the list at [`FLIGHT_WRITE_CAP`].
    pub(crate) fn note_write(&mut self, base: u64, len: u64) {
        if len == 0 {
            return;
        }
        if let Some(last) = self.writes.last_mut() {
            if last.base + last.len == base {
                last.len += len;
                return;
            }
        }
        if self.writes.len() >= FLIGHT_WRITE_CAP {
            self.writes_truncated += 1;
            return;
        }
        self.writes.push(WriteRange { base, len });
    }

    /// Note one journal operation, merging consecutive `Entries` notes
    /// and bounding the list at [`FLIGHT_JOURNAL_CAP`].
    pub(crate) fn note_journal(&mut self, op: JournalOp) {
        if let (Some(JournalOp::Entries { count }), JournalOp::Entries { count: more }) =
            (self.journal.last_mut(), &op)
        {
            *count += more;
            return;
        }
        if self.journal.len() >= FLIGHT_JOURNAL_CAP {
            self.journal_truncated += 1;
            return;
        }
        self.journal.push(op);
    }
}

/// FNV-1a 64-bit hash — the measurement function for sealed handler
/// images and the segment-id digest in streamed journal ops.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_op_encoding_roundtrips() {
        let ops = [
            JournalOp::Begin { rollback: false },
            JournalOp::Begin { rollback: true },
            JournalOp::Segment {
                index: 3,
                id_hash: 0xdead_beef,
            },
            JournalOp::Entries { count: 17 },
            JournalOp::Commit,
        ];
        for op in ops {
            assert_eq!(JournalOp::decode(&op.encode()), Some(op), "{op:?}");
        }
        assert_eq!(JournalOp::decode("X:1"), None);
        assert_eq!(JournalOp::decode("S:1"), None);
        assert_eq!(JournalOp::decode("S:q:ff"), None);
    }

    #[test]
    fn write_notes_coalesce_and_truncate() {
        let mut r = SmiFlightRecord::open(1, SmiCause::Patch, 0);
        r.note_write(0x100, 8);
        r.note_write(0x108, 8); // contiguous: coalesces
        r.note_write(0x200, 4); // gap: new range
        assert_eq!(
            r.writes,
            vec![
                WriteRange {
                    base: 0x100,
                    len: 16
                },
                WriteRange {
                    base: 0x200,
                    len: 4
                },
            ]
        );
        // Zero-length writes are ignored.
        r.note_write(0x300, 0);
        assert_eq!(r.writes.len(), 2);
        // Overflowing the cap counts instead of growing.
        for i in 0..(FLIGHT_WRITE_CAP as u64 + 5) {
            r.note_write(0x1000 + i * 16, 1);
        }
        assert_eq!(r.writes.len(), FLIGHT_WRITE_CAP);
        assert_eq!(r.writes_truncated, 7);
    }

    #[test]
    fn journal_notes_merge_consecutive_entries() {
        let mut r = SmiFlightRecord::open(1, SmiCause::Patch, 0);
        r.note_journal(JournalOp::Begin { rollback: false });
        r.note_journal(JournalOp::Entries { count: 2 });
        r.note_journal(JournalOp::Entries { count: 3 });
        r.note_journal(JournalOp::Commit);
        assert_eq!(
            r.journal,
            vec![
                JournalOp::Begin { rollback: false },
                JournalOp::Entries { count: 5 },
                JournalOp::Commit,
            ]
        );
    }

    #[test]
    fn fnv1a_is_stable() {
        // Reference vectors for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"CVE-2016-5195"), fnv1a(b"CVE-2016-2543"));
    }
}
