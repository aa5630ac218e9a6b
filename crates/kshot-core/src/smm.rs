//! The SMM-resident live-patching handler (paper §V-C).
//!
//! Everything the handler persists — its DH key seed, the patch epoch,
//! the `mem_X` allocation cursor, and the rollback store — lives in the
//! SMRAM scratch area as real bytes written under SMM privilege. Nothing
//! is cached in host-side Rust state, so the security property "patch
//! state survives arbitrary kernel compromise because SMRAM is locked"
//! holds by construction and is exercised by the tests.
//!
//! Workflow per patch (paper's numbered steps):
//! 1. key generation (fresh per patch — replay defence),
//! 2. fetch + decrypt the staged package from `mem_W`,
//! 3. verify payload hashes (and the target's current bytes),
//! 4. apply global edits, place bodies in `mem_X`, install trampolines
//!    honouring the 5-byte ftrace pads,
//! 5. publish a fresh DH public for the next patch and `RSM`.
//!
//! # Crash consistency
//!
//! The paper's dependability claim (§V-C "Patch Rollback/Update") is
//! that a patch either takes effect completely or the original kernel
//! is restored. A fault mid-window — machine check, NMI-in-SMM, power
//! loss — must not leave kernel text half-patched. Both mutating entry
//! points are therefore journaled two-phase operations over a reserved
//! SMRAM journal region:
//!
//! * [`SmmHandler::handle_patch`] writes an **undo record** (original
//!   bytes) into the journal *before* every kernel-visible write, and
//!   commits (journal → idle) only after the last write. An interrupted
//!   apply is **unwound** by [`SmmHandler::recover`]: journaled
//!   originals are restored in reverse, and the record table and
//!   `mem_X` cursor snap back to their pre-op values.
//! * [`SmmHandler::handle_rollback`] journals the **intent** (the
//!   package id being rolled back); the per-site originals already live
//!   in the SMRAM record table, and each record is deactivated only
//!   *after* its restore write succeeds. An interrupted rollback is
//!   **rolled forward** by [`SmmHandler::recover`]: every still-active
//!   record of the journaled id is restored and deactivated.
//!
//! While a journal entry is pending, both entry points refuse with
//! [`SmmError::RecoveryPending`] — the orchestrator must run
//! [`SmmHandler::recover`] (on the next SMI) first. The fault-injection
//! sweep in `tests/fault_sweep.rs` drives every interruption point of
//! both operations and asserts the all-or-nothing invariant.

use std::fmt;
use std::sync::OnceLock;

use kshot_crypto::dh::{DhKeyPair, DhParams};
use kshot_machine::flight::{fnv1a, JournalOp};
use kshot_machine::{AccessCtx, CpuMode, Machine, MachineError, SimTime};
use kshot_patchserver::channel::{ChannelError, FrameLayout, SecureChannel};
use kshot_patchserver::wire::WireError;

use crate::package::{PackageOp, PatchPackage, VerificationAlgorithm};
use crate::reserved::{rw_offsets, ReservedLayout};

/// Per-stage SMM timing breakdown (Table III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SmmTimings {
    /// Switching into SMM (charged by the SMI itself).
    pub switch_in: SimTime,
    /// Session-key generation.
    pub keygen: SimTime,
    /// Reading and decrypting the staged package.
    pub decrypt: SimTime,
    /// Hash verification (payloads + patch targets).
    pub verify: SimTime,
    /// Global edits, body placement, trampoline installation.
    pub apply: SimTime,
    /// Resuming from SMM.
    pub switch_out: SimTime,
}

impl SmmTimings {
    /// Total OS pause time.
    pub fn total(&self) -> SimTime {
        self.switch_in + self.keygen + self.decrypt + self.verify + self.apply + self.switch_out
    }
}

/// Per-CVE sub-report of one (possibly batched) SMM apply: what each
/// journal segment installed and how many undo slots it consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentOutcome {
    /// The segment's own patch id (the real CVE, not the `BATCH(...)`
    /// envelope).
    pub id: String,
    /// Trampolines this segment installed.
    pub trampolines: usize,
    /// Global data writes this segment performed.
    pub global_writes: usize,
    /// Undo-journal slots this segment consumed.
    pub journal_slots: u64,
}

/// Result of applying one package in SMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmmPatchOutcome {
    /// Timing breakdown.
    pub timings: SmmTimings,
    /// Total payload bytes processed.
    pub payload_size: usize,
    /// Number of trampolines installed.
    pub trampolines: usize,
    /// Number of global writes performed.
    pub global_writes: usize,
    /// Per-CVE segment sub-reports, in application order. A single
    /// (non-batched) package yields exactly one segment carrying its
    /// own id.
    pub segments: Vec<SegmentOutcome>,
}

/// SMM handler failures. A verification failure touches no kernel
/// byte. A fault inside the journaled apply window leaves the journal
/// open: [`SmmHandler::recover`] unwinds the torn segment and keeps the
/// committed ones. Once every segment has committed the patch is
/// applied, and a later failure of the same SMI is
/// [`SmmError::Committed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmmError {
    /// Handler invoked while the CPU is not in SMM.
    NotInSmm,
    /// SMRAM scratch does not carry the handler's magic (not installed).
    NotInstalled,
    /// The staged frame failed authentication or decryption.
    Channel(ChannelError),
    /// The decrypted package failed to parse.
    Package(WireError),
    /// A payload hash mismatched.
    PayloadHashMismatch {
        /// Record sequence number.
        sequence: u32,
    },
    /// The running kernel's bytes at the target do not match what the
    /// patch was built against.
    TargetMismatch {
        /// Record sequence number.
        sequence: u32,
        /// Target address.
        taddr: u64,
    },
    /// A record's `paddr` is outside `mem_X` or overlaps prior patches.
    BadPlacement {
        /// Record sequence number.
        sequence: u32,
        /// Offending placement.
        paddr: u64,
    },
    /// The target function is too small to hold a trampoline.
    TargetTooSmall {
        /// Target address.
        taddr: u64,
    },
    /// The rollback store is full.
    StoreFull,
    /// Nothing to roll back.
    RollbackEmpty,
    /// Machine-level fault.
    Machine(MachineError),
    /// The staged ciphertext length in `mem_RW` is implausible.
    BadStagedLength(u64),
    /// The package needs more undo-journal slots than the SMRAM journal
    /// region holds (raised during verification, before any write).
    JournalFull {
        /// Slots the package would need.
        needed: u64,
        /// Slots available.
        capacity: u64,
    },
    /// A previous patch or rollback was interrupted mid-window and its
    /// journal entry is still pending; run [`SmmHandler::recover`]
    /// before any new operation.
    RecoveryPending,
    /// A journal undo slot carries an implausible length (zero or larger
    /// than [`JENTRY_ORIG`]). The journal region is SMM-only, so this
    /// means SMRAM corruption — recovery must fail loudly rather than
    /// silently restore a clamped prefix of the original bytes.
    JournalCorrupt {
        /// Journal slot index carrying the bad length.
        slot: u64,
        /// The implausible length as read.
        len: u32,
    },
    /// The package's segment table is malformed (out-of-order or
    /// out-of-range record indices, or more segments than the SMRAM
    /// segment table holds). Rejected during verification, before any
    /// kernel write.
    BadSegmentTable {
        /// Index of the offending segment.
        segment: u32,
    },
    /// The patch committed (every segment's protected writes landed),
    /// then a later write of the same SMI failed: the commit itself, the
    /// key rotation, the cursor publication or the staged-length clear.
    /// The kernel is patched; the published `mem_RW` view may be stale,
    /// and the journal still open, until [`SmmHandler::recover`] heals
    /// them without unwinding a segment.
    Committed {
        /// What the committed apply installed.
        outcome: Box<SmmPatchOutcome>,
        /// The failure after the commit point.
        error: Box<SmmError>,
    },
}

impl fmt::Display for SmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmmError::NotInSmm => write!(f, "SMM handler invoked outside SMM"),
            SmmError::NotInstalled => write!(f, "SMM handler not installed in SMRAM"),
            SmmError::Channel(e) => write!(f, "staged package rejected: {e}"),
            SmmError::Package(e) => write!(f, "package malformed: {e}"),
            SmmError::PayloadHashMismatch { sequence } => {
                write!(f, "payload hash mismatch in record {sequence}")
            }
            SmmError::TargetMismatch { sequence, taddr } => write!(
                f,
                "record {sequence}: target {taddr:#x} does not match expected pre-patch bytes"
            ),
            SmmError::BadPlacement { sequence, paddr } => {
                write!(f, "record {sequence}: bad mem_X placement {paddr:#x}")
            }
            SmmError::TargetTooSmall { taddr } => {
                write!(f, "target {taddr:#x} too small for a trampoline")
            }
            SmmError::StoreFull => write!(f, "SMRAM rollback store full"),
            SmmError::RollbackEmpty => write!(f, "no patch to roll back"),
            SmmError::Machine(e) => write!(f, "machine fault: {e}"),
            SmmError::BadStagedLength(n) => write!(f, "implausible staged length {n}"),
            SmmError::JournalFull { needed, capacity } => {
                write!(
                    f,
                    "SMRAM journal too small: {needed} slots needed, {capacity} available"
                )
            }
            SmmError::RecoveryPending => {
                write!(
                    f,
                    "interrupted operation pending in SMRAM journal; recover first"
                )
            }
            SmmError::JournalCorrupt { slot, len } => {
                write!(
                    f,
                    "SMRAM journal corrupt: slot {slot} carries implausible length {len}"
                )
            }
            SmmError::BadSegmentTable { segment } => {
                write!(f, "package segment table malformed at segment {segment}")
            }
            SmmError::Committed { error, .. } => write!(f, "patch committed, then: {error}"),
        }
    }
}

impl std::error::Error for SmmError {}

impl From<MachineError> for SmmError {
    fn from(e: MachineError) -> Self {
        SmmError::Machine(e)
    }
}

// ---- SMRAM scratch layout -------------------------------------------------

const MAGIC: u64 = 0x4B53_484F_545F_534D; // "KSHOT_SM"
const OFF_MAGIC: u64 = 0;
const OFF_EPOCH: u64 = 8;
const OFF_NEXT_PADDR: u64 = 16;
const OFF_DH_SEED: u64 = 24; // 32 bytes
const OFF_RECORDS: u64 = 0x100;
/// Fixed size of one rollback/introspection record in SMRAM.
pub(crate) const RECORD_LEN: u64 = 128;
/// Maximum records the scratch area holds.
pub(crate) const RECORD_CAP: u32 = 512;

// ---- SMRAM journal layout -------------------------------------------------
//
// The journal sits above the record store (records end at
// OFF_RECORDS + 8 + RECORD_CAP * RECORD_LEN = 0x10108) in the same
// SMM-only scratch area, so it inherits the SMRAM isolation argument:
// a compromised kernel can neither forge nor erase recovery state.
//
// Header (offsets relative to scratch + OFF_JOURNAL):
//   +0   STATE        u64   0 = idle, 1 = apply in progress,
//                            2 = rollback in progress
//   +8   ENTRY_COUNT  u64   undo entries valid so far
//   +16  INIT_RECORDS u64   record count when the op began
//   +24  INIT_PADDR   u64   mem_X cursor when the op began
//   +32  ID           len u8 + up to 55 bytes (package id)
//   +0x80 entries, JENTRY_LEN bytes each:
//        addr u64 | len u32 | orig bytes (JENTRY_ORIG max) | pad
//
// Write ordering is the consistency argument: an entry's bytes are
// written before ENTRY_COUNT acknowledges it, and ENTRY_COUNT is
// bumped before the kernel write the entry protects — so at every
// interruption point the counted prefix of the journal is exactly the
// set of kernel writes that may have landed. STATE is written last on
// begin and first on commit for the same reason.

const OFF_JOURNAL: u64 = 0x11000;
const JOFF_STATE: u64 = OFF_JOURNAL;
const JOFF_ENTRY_COUNT: u64 = OFF_JOURNAL + 8;
const JOFF_INIT_RECORDS: u64 = OFF_JOURNAL + 16;
const JOFF_INIT_PADDR: u64 = OFF_JOURNAL + 24;
const JOFF_ID: u64 = OFF_JOURNAL + 32;
/// Segments the open apply window has *started* (marker written).
const JOFF_SEG_COUNT: u64 = OFF_JOURNAL + 88;
/// Segments whose protected writes have all landed (committed prefix).
const JOFF_SEG_COMMITTED: u64 = OFF_JOURNAL + 96;
const JOFF_ENTRIES: u64 = OFF_JOURNAL + 0x80;
/// Fixed size of one undo-journal entry.
const JENTRY_LEN: u64 = 80;
/// Original bytes captured per undo entry; longer writes chain entries.
pub(crate) const JENTRY_ORIG: usize = 64;
/// Undo entries the journal region holds.
pub(crate) const JENTRY_CAP: u64 = 256;

// ---- SMRAM segment table --------------------------------------------------
//
// A batched package journals each CVE as its own *segment*: before any
// of segment i's journal entries or kernel writes, a marker is written
// at slot i of the segment table (where the segment starts — first
// journal entry index, record count, mem_X cursor — plus the real CVE
// id) and SEG_COUNT acknowledges it; after the segment's last protected
// write lands, SEG_COMMITTED advances. At every interruption point the
// committed prefix of segments is therefore fully applied and at most
// one segment (the SEG_COUNT'th) is torn — recovery replays only the
// journal suffix from that segment's marker and snaps the record count
// and cursor back to the marker's values, preserving every completed
// CVE. Sits above the journal entries (which end at 0x16080) in the
// same SMM-only scratch area.

const OFF_SEGTAB: u64 = 0x16100;
/// Scratch offset of the sealed handler image (above the segment
/// table, which ends at 0x17500; SMRAM is 1 MB so there is ample room).
const OFF_HANDLER_IMAGE: u64 = 0x18000;
/// Size of the sealed handler image.
pub(crate) const HANDLER_IMAGE_LEN: usize = 1024;

/// The handler image installed into SMRAM and sealed at install time —
/// a fixed pseudo-random blob standing in for the handler's code+rodata
/// (the same "binary" ships to every machine, so one expected
/// measurement covers the whole fleet, as with a real signed handler).
pub(crate) fn handler_image() -> [u8; HANDLER_IMAGE_LEN] {
    let mut img = [0u8; HANDLER_IMAGE_LEN];
    let mut x: u64 = 0x4B53_484F_545F_494D; // "KSHOT_IM"
    for b in img.iter_mut() {
        // splitmix64 step: deterministic, dependency-free.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *b = (z ^ (z >> 31)) as u8;
    }
    img
}

/// The FNV-1a measurement every untampered SMI entry must report for
/// the sealed handler image; integrity policies pin this value.
pub fn expected_handler_measurement() -> u64 {
    fnv1a(&handler_image())
}
/// Fixed size of one segment marker:
/// first_entry u64 | init_records u64 | init_paddr u64 | id len u8 +
/// up to 55 bytes.
const SEG_LEN: u64 = 80;
/// Segments one batched apply may carry.
pub(crate) const SEG_CAP: u64 = 64;

/// One segment marker, SMRAM-serialized.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegMarker {
    /// Journal entry count when the segment opened.
    first_entry: u64,
    /// Record count when the segment opened.
    init_records: u64,
    /// `mem_X` cursor when the segment opened.
    init_paddr: u64,
    /// The segment's own patch id (truncated to 55 bytes).
    id: String,
}

impl SegMarker {
    fn encode(&self) -> [u8; SEG_LEN as usize] {
        let mut b = [0u8; SEG_LEN as usize];
        b[0..8].copy_from_slice(&self.first_entry.to_le_bytes());
        b[8..16].copy_from_slice(&self.init_records.to_le_bytes());
        b[16..24].copy_from_slice(&self.init_paddr.to_le_bytes());
        let id = self.id.as_bytes();
        let n = id.len().min(55);
        b[24] = n as u8;
        b[25..25 + n].copy_from_slice(&id[..n]);
        b
    }

    fn decode(b: &[u8]) -> SegMarker {
        let n = (b[24] as usize).min(55);
        SegMarker {
            first_entry: u64::from_le_bytes(b[0..8].try_into().expect("8")),
            init_records: u64::from_le_bytes(b[8..16].try_into().expect("8")),
            init_paddr: u64::from_le_bytes(b[16..24].try_into().expect("8")),
            id: String::from_utf8_lossy(&b[25..25 + n]).into_owned(),
        }
    }
}

/// Journal state tags (`STATE` field values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalState {
    /// No operation in flight; nothing to recover.
    Idle,
    /// A `handle_patch` was interrupted; recovery unwinds it.
    ApplyInProgress,
    /// A `handle_rollback` was interrupted; recovery completes it.
    RollbackInProgress,
}

const JSTATE_IDLE: u64 = 0;
const JSTATE_APPLY: u64 = 1;
const JSTATE_ROLLBACK: u64 = 2;

/// What [`SmmHandler::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// The journal was idle; nothing was interrupted.
    Clean,
    /// An interrupted patch apply was unwound: every journaled original
    /// byte range was restored and the record table / `mem_X` cursor
    /// reset, so the kernel is byte-identical to its pre-patch state.
    UnwoundApply {
        /// Package id of the unwound patch. For an interrupted *batched*
        /// apply this is the interrupted segment's own CVE id, not the
        /// `BATCH(...)` envelope.
        id: String,
        /// Undo entries replayed (in reverse).
        writes_undone: usize,
        /// Completed per-CVE segments the unwind preserved: only the
        /// journal suffix belonging to the interrupted segment was
        /// replayed; the first `segments_preserved` segments remain
        /// fully applied. Zero for non-batched applies.
        segments_preserved: usize,
    },
    /// An interrupted rollback was rolled forward to completion: every
    /// still-active record of the journaled package id was restored and
    /// deactivated.
    CompletedRollback {
        /// Package id of the completed rollback.
        id: String,
        /// Target addresses restored during recovery.
        restored: Vec<u64>,
        /// Non-revertible data-write targets skipped (operator must
        /// re-patch; see [`SmmHandler::handle_rollback`]).
        skipped: Vec<u64>,
    },
}

/// Result of a completed rollback.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RollbackOutcome {
    /// Target addresses whose original bytes were restored.
    pub restored: Vec<u64>,
    /// Targets of `NOT_REVERTIBLE` data writes: deactivated but *not*
    /// restored. A non-empty list means the kernel still carries those
    /// data edits and the operator must re-patch to reach a consistent
    /// configuration.
    pub skipped: Vec<u64>,
}

/// A rollback that stopped partway: `error` says why, `restored` lists
/// the sites already reverted (their records are already deactivated,
/// so a later retry or [`SmmHandler::recover`] continues from here —
/// nothing is double-restored and nothing is forgotten).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackFailure {
    /// The underlying failure.
    pub error: SmmError,
    /// Sites restored before the failure.
    pub restored: Vec<u64>,
}

impl fmt::Display for RollbackFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rollback interrupted after {} site(s): {}",
            self.restored.len(),
            self.error
        )
    }
}

impl std::error::Error for RollbackFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// What a record undoes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordKind {
    /// A trampoline installed at `taddr + skip`; `orig` holds the 5
    /// overwritten bytes; `paddr`/`size`/`memx_hash` describe the placed
    /// body for introspection.
    Trampoline,
    /// A Type 3 data write at `taddr`; `orig` holds up to 16 original
    /// bytes so rollback can restore them. Writes longer than 16 bytes
    /// are recorded with `orig_len == NOT_REVERTIBLE` and skipped on
    /// rollback (surfaced to the operator).
    DataWrite,
}

/// Marker for data writes too large to be captured for rollback.
pub(crate) const NOT_REVERTIBLE: u8 = 0xFF;

/// Maximum original bytes captured per data write.
pub(crate) const MAX_ORIG: usize = 16;

/// One rollback / introspection record, SMRAM-serialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SmramRecord {
    pub active: bool,
    pub kind: RecordKind,
    /// Target address (function entry or data address).
    pub taddr: u64,
    /// Ftrace skip applied when the trampoline was installed.
    pub skip: u8,
    /// Number of valid bytes in `orig` (or [`NOT_REVERTIBLE`]).
    pub orig_len: u8,
    /// Original bytes the write overwrote.
    pub orig: [u8; MAX_ORIG],
    /// Placement of the patched body (trampolines only).
    pub paddr: u64,
    /// Patched body / written data size.
    pub size: u32,
    /// SHA-256 of the placed body (for `mem_X` integrity introspection).
    pub memx_hash: [u8; 32],
    /// Patch identifier (truncated to 55 bytes).
    pub id: String,
}

impl SmramRecord {
    fn encode(&self) -> [u8; RECORD_LEN as usize] {
        let mut b = [0u8; RECORD_LEN as usize];
        b[0] = self.active as u8;
        b[1] = match self.kind {
            RecordKind::Trampoline => 0,
            RecordKind::DataWrite => 1,
        };
        b[2..10].copy_from_slice(&self.taddr.to_le_bytes());
        b[10] = self.skip;
        b[11] = self.orig_len;
        b[12..28].copy_from_slice(&self.orig);
        b[28..36].copy_from_slice(&self.paddr.to_le_bytes());
        b[36..40].copy_from_slice(&self.size.to_le_bytes());
        b[40..72].copy_from_slice(&self.memx_hash);
        let id = self.id.as_bytes();
        let n = id.len().min(55);
        b[72] = n as u8;
        b[73..73 + n].copy_from_slice(&id[..n]);
        b
    }

    fn decode(b: &[u8]) -> SmramRecord {
        let n = (b[72] as usize).min(55);
        SmramRecord {
            active: b[0] != 0,
            kind: if b[1] == 0 {
                RecordKind::Trampoline
            } else {
                RecordKind::DataWrite
            },
            taddr: u64::from_le_bytes(b[2..10].try_into().expect("8")),
            skip: b[10],
            orig_len: b[11],
            orig: b[12..28].try_into().expect("16"),
            paddr: u64::from_le_bytes(b[28..36].try_into().expect("8")),
            size: u32::from_le_bytes(b[36..40].try_into().expect("4")),
            memx_hash: b[40..72].try_into().expect("32"),
            id: String::from_utf8_lossy(&b[73..73 + n]).into_owned(),
        }
    }
}

/// The SMM handler. Carries no host-side state beyond the scratch base;
/// see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct SmmHandler {
    scratch: u64,
    params_id: DhGroup,
}

/// Which DH group the handler uses (a small tag; the group itself is
/// built once per process, see [`DhGroup::params`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhGroup {
    /// The fast 512-bit default group.
    Default,
    /// RFC 3526 MODP-2048.
    Modp2048,
}

impl DhGroup {
    /// The group's parameters, built (and their Montgomery context
    /// precomputed) on first use and shared by every later call.
    pub(crate) fn params(self) -> &'static DhParams {
        static DEFAULT: OnceLock<DhParams> = OnceLock::new();
        static MODP_2048: OnceLock<DhParams> = OnceLock::new();
        match self {
            DhGroup::Default => DEFAULT.get_or_init(DhParams::default_group),
            DhGroup::Modp2048 => MODP_2048.get_or_init(DhParams::modp_2048),
        }
    }
}

impl SmmHandler {
    /// Install the handler: requires the CPU to be in SMM (the firmware
    /// installs it from the first SMI). Initializes the SMRAM state,
    /// generates the initial DH key pair from `entropy`, and publishes
    /// the public value and `mem_X` cursor in `mem_RW`.
    ///
    /// # Errors
    ///
    /// [`SmmError::NotInSmm`] outside SMM; machine faults otherwise.
    pub fn install(
        machine: &mut Machine,
        reserved: &ReservedLayout,
        entropy: &[u8; 32],
        group: DhGroup,
    ) -> Result<SmmHandler, SmmError> {
        if machine.mode() != CpuMode::Smm {
            return Err(SmmError::NotInSmm);
        }
        let h = SmmHandler {
            scratch: machine.smram_scratch_base(),
            params_id: group,
        };
        h.write_u64(machine, OFF_MAGIC, MAGIC)?;
        h.write_u64(machine, OFF_EPOCH, 0)?;
        h.write_u64(machine, OFF_NEXT_PADDR, reserved.x_base)?;
        machine.write_bytes(AccessCtx::Smm, h.scratch + OFF_DH_SEED, entropy)?;
        h.set_record_count(machine, 0)?;
        h.write_u64(machine, JOFF_STATE, JSTATE_IDLE)?;
        h.write_u64(machine, JOFF_ENTRY_COUNT, 0)?;
        h.write_u64(machine, JOFF_SEG_COUNT, 0)?;
        h.write_u64(machine, JOFF_SEG_COMMITTED, 0)?;
        h.publish_public(machine, reserved)?;
        h.publish_cursor(machine, reserved)?;
        // Install and seal the handler image: every later SMI entry
        // measures this region into its flight record, so tampering
        // between SMIs is detectable by the detached monitor.
        let image = handler_image();
        machine.write_bytes(AccessCtx::Smm, h.scratch + OFF_HANDLER_IMAGE, &image)?;
        machine.seal_handler_image(h.scratch + OFF_HANDLER_IMAGE, image.len() as u64);
        Ok(h)
    }

    /// Re-attach to an already-installed handler (e.g. after the
    /// orchestrator was rebuilt). Verifies the SMRAM magic.
    ///
    /// # Errors
    ///
    /// [`SmmError::NotInstalled`] when the magic is absent.
    pub fn attach(machine: &mut Machine, group: DhGroup) -> Result<SmmHandler, SmmError> {
        if machine.mode() != CpuMode::Smm {
            return Err(SmmError::NotInSmm);
        }
        let h = SmmHandler {
            scratch: machine.smram_scratch_base(),
            params_id: group,
        };
        if h.read_u64(machine, OFF_MAGIC)? != MAGIC {
            return Err(SmmError::NotInstalled);
        }
        Ok(h)
    }

    // ---- scratch primitives ------------------------------------------

    fn read_u64(&self, machine: &mut Machine, off: u64) -> Result<u64, SmmError> {
        Ok(machine.read_u64(AccessCtx::Smm, self.scratch + off)?)
    }

    fn write_u64(&self, machine: &mut Machine, off: u64, v: u64) -> Result<(), SmmError> {
        Ok(machine.write_u64(AccessCtx::Smm, self.scratch + off, v)?)
    }

    pub(crate) fn record_count(&self, machine: &mut Machine) -> Result<u32, SmmError> {
        Ok(self.read_u64(machine, OFF_RECORDS)? as u32)
    }

    fn set_record_count(&self, machine: &mut Machine, n: u32) -> Result<(), SmmError> {
        self.write_u64(machine, OFF_RECORDS, n as u64)
    }

    pub(crate) fn read_record(
        &self,
        machine: &mut Machine,
        idx: u32,
    ) -> Result<SmramRecord, SmmError> {
        let mut buf = [0u8; RECORD_LEN as usize];
        let addr = self.scratch + OFF_RECORDS + 8 + idx as u64 * RECORD_LEN;
        machine.read_bytes(AccessCtx::Smm, addr, &mut buf)?;
        Ok(SmramRecord::decode(&buf))
    }

    pub(crate) fn write_record(
        &self,
        machine: &mut Machine,
        idx: u32,
        rec: &SmramRecord,
    ) -> Result<(), SmmError> {
        let addr = self.scratch + OFF_RECORDS + 8 + idx as u64 * RECORD_LEN;
        Ok(machine.write_bytes(AccessCtx::Smm, addr, &rec.encode())?)
    }

    /// Append a record chronologically; when the store fills, compact it
    /// (drop rolled-back records, preserving order). Long-running hosts
    /// cycle through thousands of patch/rollback events (the §VI-C3
    /// 1,000-patch experiment), so the store must reclaim.
    fn append_record(&self, machine: &mut Machine, rec: &SmramRecord) -> Result<(), SmmError> {
        let mut count = self.record_count(machine)?;
        if count >= RECORD_CAP {
            let mut keep = Vec::new();
            for i in 0..count {
                let r = self.read_record(machine, i)?;
                if r.active {
                    keep.push(r);
                }
            }
            if keep.len() as u32 >= RECORD_CAP {
                return Err(SmmError::StoreFull);
            }
            for (i, r) in keep.iter().enumerate() {
                self.write_record(machine, i as u32, r)?;
            }
            count = keep.len() as u32;
            self.set_record_count(machine, count)?;
        }
        self.write_record(machine, count, rec)?;
        self.set_record_count(machine, count + 1)
    }

    /// Make room for `needed` more records *before* the journaled window
    /// opens, compacting inactive records if required. Compaction moves
    /// records and is therefore not crash-atomic — running it outside
    /// the journal window keeps the window itself append-only (undone by
    /// resetting the count). A crash mid-compaction can at worst leave a
    /// duplicated *active* record below the old count, which is benign:
    /// both copies restore the same original bytes.
    fn ensure_record_capacity(&self, machine: &mut Machine, needed: u32) -> Result<(), SmmError> {
        let count = self.record_count(machine)?;
        if count.saturating_add(needed) <= RECORD_CAP {
            return Ok(());
        }
        let mut keep = Vec::new();
        for i in 0..count {
            let r = self.read_record(machine, i)?;
            if r.active {
                keep.push(r);
            }
        }
        if keep.len() as u32 + needed > RECORD_CAP {
            return Err(SmmError::StoreFull);
        }
        for (i, r) in keep.iter().enumerate() {
            self.write_record(machine, i as u32, r)?;
        }
        self.set_record_count(machine, keep.len() as u32)
    }

    // ---- journal primitives ------------------------------------------

    /// Read the journal state tag. Unknown tags (corrupted SMRAM would
    /// require an SMM-level compromise, but be defensive) map to the
    /// in-progress state that forces recovery.
    pub(crate) fn journal_state(&self, machine: &mut Machine) -> Result<JournalState, SmmError> {
        Ok(match self.read_u64(machine, JOFF_STATE)? {
            JSTATE_IDLE => JournalState::Idle,
            JSTATE_ROLLBACK => JournalState::RollbackInProgress,
            _ => JournalState::ApplyInProgress,
        })
    }

    /// Open the journal window: init the header fields, then write STATE
    /// *last* so a crash mid-begin leaves the journal idle (nothing has
    /// been applied yet at that point).
    fn journal_begin(&self, machine: &mut Machine, state: u64, id: &str) -> Result<(), SmmError> {
        self.write_u64(machine, JOFF_ENTRY_COUNT, 0)?;
        let records = self.record_count(machine)? as u64;
        self.write_u64(machine, JOFF_INIT_RECORDS, records)?;
        let paddr = self.read_u64(machine, OFF_NEXT_PADDR)?;
        self.write_u64(machine, JOFF_INIT_PADDR, paddr)?;
        let id_bytes = id.as_bytes();
        let n = id_bytes.len().min(55);
        let mut idbuf = [0u8; 56];
        idbuf[0] = n as u8;
        idbuf[1..1 + n].copy_from_slice(&id_bytes[..n]);
        machine.write_bytes(AccessCtx::Smm, self.scratch + JOFF_ID, &idbuf)?;
        // Segment fields start zeroed (non-segmented until the first
        // marker lands) — before STATE, like every other header field.
        self.write_u64(machine, JOFF_SEG_COUNT, 0)?;
        self.write_u64(machine, JOFF_SEG_COMMITTED, 0)?;
        self.write_u64(machine, JOFF_STATE, state)?;
        machine.flight_note_journal(JournalOp::Begin {
            rollback: state == JSTATE_ROLLBACK,
        });
        Ok(())
    }

    /// Close the journal window: STATE goes back to idle *first*; the
    /// stale header/entries behind it are ignored once idle.
    fn journal_commit(&self, machine: &mut Machine) -> Result<(), SmmError> {
        self.write_u64(machine, JOFF_STATE, JSTATE_IDLE)?;
        self.write_u64(machine, JOFF_ENTRY_COUNT, 0)?;
        self.write_u64(machine, JOFF_SEG_COUNT, 0)?;
        self.write_u64(machine, JOFF_SEG_COMMITTED, 0)?;
        machine.flight_note_journal(JournalOp::Commit);
        kshot_telemetry::counter("smm.journal_commit", 1);
        Ok(())
    }

    fn journal_read_id(&self, machine: &mut Machine) -> Result<String, SmmError> {
        let mut idbuf = [0u8; 56];
        machine.read_bytes(AccessCtx::Smm, self.scratch + JOFF_ID, &mut idbuf)?;
        let n = (idbuf[0] as usize).min(55);
        Ok(String::from_utf8_lossy(&idbuf[1..1 + n]).into_owned())
    }

    /// Capture the current bytes at `addr..addr + len` into fresh undo
    /// entries (chained in [`JENTRY_ORIG`]-byte chunks). Each entry's
    /// bytes land *before* `ENTRY_COUNT` acknowledges it, and the caller
    /// performs the protected kernel write only after this returns — so
    /// the counted journal prefix always covers every write that may
    /// have landed.
    fn journal_log_orig(
        &self,
        machine: &mut Machine,
        addr: u64,
        len: usize,
    ) -> Result<(), SmmError> {
        let mut count = self.read_u64(machine, JOFF_ENTRY_COUNT)?;
        let mut off = 0usize;
        while off < len {
            let chunk = (len - off).min(JENTRY_ORIG);
            if count >= JENTRY_CAP {
                return Err(SmmError::JournalFull {
                    needed: count + 1,
                    capacity: JENTRY_CAP,
                });
            }
            let mut buf = [0u8; JENTRY_LEN as usize];
            buf[..8].copy_from_slice(&(addr + off as u64).to_le_bytes());
            buf[8..12].copy_from_slice(&(chunk as u32).to_le_bytes());
            machine.read_bytes(AccessCtx::Smm, addr + off as u64, &mut buf[12..12 + chunk])?;
            let slot = self.scratch + JOFF_ENTRIES + count * JENTRY_LEN;
            machine.write_bytes(AccessCtx::Smm, slot, &buf)?;
            count += 1;
            self.write_u64(machine, JOFF_ENTRY_COUNT, count)?;
            machine.flight_note_journal(JournalOp::Entries { count: 1 });
            off += chunk;
        }
        Ok(())
    }

    fn journal_entry(
        &self,
        machine: &mut Machine,
        idx: u64,
    ) -> Result<(u64, usize, [u8; JENTRY_ORIG]), SmmError> {
        let mut buf = [0u8; JENTRY_LEN as usize];
        let slot = self.scratch + JOFF_ENTRIES + idx * JENTRY_LEN;
        machine.read_bytes(AccessCtx::Smm, slot, &mut buf)?;
        let addr = u64::from_le_bytes(buf[..8].try_into().expect("8"));
        let len = u32::from_le_bytes(buf[8..12].try_into().expect("4"));
        // A slot length outside (0, JENTRY_ORIG] cannot have been
        // written by journal_log_orig — the journal is corrupt. Fail
        // loudly instead of silently restoring a clamped prefix.
        if len == 0 || len as usize > JENTRY_ORIG {
            return Err(SmmError::JournalCorrupt { slot: idx, len });
        }
        let len = len as usize;
        let mut orig = [0u8; JENTRY_ORIG];
        orig.copy_from_slice(&buf[12..12 + JENTRY_ORIG]);
        Ok((addr, len, orig))
    }

    /// Write segment marker `idx` into the SMRAM segment table. The
    /// caller acknowledges it by bumping SEG_COUNT *after* the marker's
    /// bytes land (same ordering discipline as journal entries).
    fn write_segment_marker(
        &self,
        machine: &mut Machine,
        idx: u64,
        marker: &SegMarker,
    ) -> Result<(), SmmError> {
        let addr = self.scratch + OFF_SEGTAB + idx * SEG_LEN;
        machine.write_bytes(AccessCtx::Smm, addr, &marker.encode())?;
        machine.flight_note_journal(JournalOp::Segment {
            index: idx,
            id_hash: fnv1a(marker.id.as_bytes()),
        });
        Ok(())
    }

    fn read_segment_marker(&self, machine: &mut Machine, idx: u64) -> Result<SegMarker, SmmError> {
        let mut buf = [0u8; SEG_LEN as usize];
        let addr = self.scratch + OFF_SEGTAB + idx * SEG_LEN;
        machine.read_bytes(AccessCtx::Smm, addr, &mut buf)?;
        Ok(SegMarker::decode(&buf))
    }

    fn current_keypair(&self, machine: &mut Machine) -> Result<DhKeyPair, SmmError> {
        let mut seed = [0u8; 32];
        machine.read_bytes(AccessCtx::Smm, self.scratch + OFF_DH_SEED, &mut seed)?;
        DhKeyPair::from_entropy(self.params_id.params(), &seed)
            .map_err(|e| SmmError::Channel(ChannelError::Dh(e)))
    }

    /// Publish the current DH public value into `mem_RW` so the enclave
    /// can derive the session key for the *next* patch.
    fn publish_public(
        &self,
        machine: &mut Machine,
        reserved: &ReservedLayout,
    ) -> Result<(), SmmError> {
        let kp = self.current_keypair(machine)?;
        let pub_bytes = kp.public().to_bytes_be();
        let base = reserved.rw_base + rw_offsets::SMM_PUB;
        machine.write_u64(AccessCtx::Smm, base, pub_bytes.len() as u64)?;
        machine.write_bytes(AccessCtx::Smm, base + 8, &pub_bytes)?;
        let epoch = self.read_u64(machine, OFF_EPOCH)?;
        machine.write_u64(AccessCtx::Smm, reserved.rw_base + rw_offsets::EPOCH, epoch)?;
        Ok(())
    }

    fn publish_cursor(
        &self,
        machine: &mut Machine,
        reserved: &ReservedLayout,
    ) -> Result<(), SmmError> {
        let next = self.read_u64(machine, OFF_NEXT_PADDR)?;
        machine.write_u64(
            AccessCtx::Smm,
            reserved.rw_base + rw_offsets::NEXT_PADDR,
            next,
        )?;
        Ok(())
    }

    /// Rotate the DH key: new seed, bumped epoch, re-published public.
    fn rotate_key(
        &self,
        machine: &mut Machine,
        reserved: &ReservedLayout,
        entropy: &[u8; 32],
    ) -> Result<(), SmmError> {
        machine.write_bytes(AccessCtx::Smm, self.scratch + OFF_DH_SEED, entropy)?;
        let epoch = self.read_u64(machine, OFF_EPOCH)? + 1;
        self.write_u64(machine, OFF_EPOCH, epoch)?;
        self.publish_public(machine, reserved)
    }

    // ---- the patch path ----------------------------------------------

    /// Apply the package staged in `mem_W`.
    ///
    /// `fresh_entropy` seeds the *next* patch's DH key (rotation).
    ///
    /// # Errors
    ///
    /// Any [`SmmError`]; verification failures abort before any byte of
    /// kernel state is modified.
    pub fn handle_patch(
        &self,
        machine: &mut Machine,
        reserved: &ReservedLayout,
        fresh_entropy: &[u8; 32],
    ) -> Result<SmmPatchOutcome, SmmError> {
        if machine.mode() != CpuMode::Smm {
            return Err(SmmError::NotInSmm);
        }
        if self.journal_state(machine)? != JournalState::Idle {
            return Err(SmmError::RecoveryPending);
        }
        let mut timings = SmmTimings {
            switch_in: machine.cost().smm_entry,
            switch_out: machine.cost().smm_exit,
            ..Default::default()
        };
        let mut hp_span = kshot_telemetry::span_at("smm.handle_patch", machine.now().as_ns());
        // 1. Key generation.
        let t0 = machine.now();
        // The four stage spans are also the phase-breakdown profiler's
        // key_exchange/decrypt/verify/apply samples
        // (`kshot_telemetry::PhaseProfile`).
        let keygen_span = kshot_telemetry::span_at("smm.keygen", t0.as_ns());
        let kp = self.current_keypair(machine)?;
        let helper_pub = read_public(machine, reserved.rw_base + rw_offsets::HELPER_PUB)?;
        let key = kp
            .agree(self.params_id.params(), &helper_pub)
            .map_err(|e| SmmError::Channel(ChannelError::Dh(e)))?;
        let keygen_cost = machine.cost().smm_keygen;
        machine.charge(keygen_cost);
        timings.keygen = machine.now() - t0;
        keygen_span.end_at(machine.now().as_ns());
        // 2. Fetch + decrypt.
        let t1 = machine.now();
        let mut decrypt_span = kshot_telemetry::span_at("smm.decrypt", t1.as_ns());
        let staged_len =
            machine.read_u64(AccessCtx::Smm, reserved.rw_base + rw_offsets::STAGED_LEN)?;
        if staged_len == 0 || staged_len > reserved.w_size {
            return Err(SmmError::BadStagedLength(staged_len));
        }
        // Copy the staged frame out of mem_W first: the OS can rewrite
        // mem_W at any time, so SMM verifies and decrypts only its own
        // copy, and does both in that copy.
        let mut staged = vec![0u8; staged_len as usize];
        machine.read_bytes(AccessCtx::Smm, reserved.w_base, &mut staged)?;
        let decrypt_cost = machine.cost().smm_decrypt.for_bytes(staged.len());
        machine.charge(decrypt_cost);
        let frame = FrameLayout::parse(&staged).map_err(SmmError::Package)?;
        let mut channel = SecureChannel::new(key);
        let plaintext = &mut staged[frame.ciphertext];
        channel
            .open_in_place(frame.seq, plaintext, &frame.mac)
            .map_err(SmmError::Channel)?;
        let package = PatchPackage::decode(plaintext).map_err(SmmError::Package)?;
        timings.decrypt = machine.now() - t1;
        decrypt_span.field("bytes", staged_len);
        decrypt_span.end_at(machine.now().as_ns());
        // 3. Verify everything before touching kernel state.
        let t2 = machine.now();
        let mut verify_span = kshot_telemetry::span_at("smm.verify", t2.as_ns());
        let mut verify_bytes = 0usize;
        // Placement validation walks a virtual cursor so records within
        // one package cannot overlap each other either — the enclave's
        // assignment is re-checked, not trusted.
        let mut virtual_next = self.read_u64(machine, OFF_NEXT_PADDR)?;
        // Undo-journal slots this package will need: one per trampoline
        // site, ceil(len / JENTRY_ORIG) per global write. Checked here,
        // before any byte of kernel state changes, so JournalFull can
        // never strike mid-apply.
        let mut journal_slots = 0u64;
        let mut new_records = 0u32;
        for rec in &package.records {
            verify_bytes += rec.payload.len();
            match rec.op {
                PackageOp::GlobalWrite => {
                    journal_slots += (rec.payload.len() as u64).div_ceil(JENTRY_ORIG as u64);
                    new_records += 1;
                }
                PackageOp::Patch => {
                    journal_slots += 1;
                    new_records += 1;
                }
                PackageOp::PlaceOnly => {}
            }
            if !rec.verify_payload(package.algorithm) {
                return Err(SmmError::PayloadHashMismatch {
                    sequence: rec.sequence,
                });
            }
            if rec.op == PackageOp::Patch {
                // Check the running kernel matches the build the patch
                // was prepared against.
                let mut cur = vec![0u8; rec.tsize as usize];
                machine.read_bytes(AccessCtx::Smm, rec.taddr, &mut cur)?;
                verify_bytes += cur.len();
                if VerificationAlgorithm::Sha256.digest(&cur) != rec.expected_pre_hash {
                    return Err(SmmError::TargetMismatch {
                        sequence: rec.sequence,
                        taddr: rec.taddr,
                    });
                }
                if (rec.tsize as usize) < rec.ftrace_skip as usize + kshot_isa::JMP_LEN {
                    return Err(SmmError::TargetTooSmall { taddr: rec.taddr });
                }
            }
            // Placement validation against the virtual cursor, so later
            // records in the same package cannot claim bytes an earlier
            // record already placed.
            if matches!(rec.op, PackageOp::Patch | PackageOp::PlaceOnly) {
                let end = rec.paddr.checked_add(rec.payload.len() as u64);
                let in_range = rec.paddr >= virtual_next
                    && end.is_some_and(|e| e <= reserved.x_base + reserved.x_size);
                if !in_range {
                    return Err(SmmError::BadPlacement {
                        sequence: rec.sequence,
                        paddr: rec.paddr,
                    });
                }
                virtual_next = end.expect("checked above");
            }
        }
        if journal_slots > JENTRY_CAP {
            return Err(SmmError::JournalFull {
                needed: journal_slots,
                capacity: JENTRY_CAP,
            });
        }
        // Segment-table validation: the table partitions `records` in
        // order (first segment starts at 0, starts strictly increase and
        // stay in range) and fits the SMRAM segment table. The enclave's
        // table is re-checked, not trusted.
        let segtab = package.segment_table();
        if segtab.len() as u64 > SEG_CAP {
            return Err(SmmError::BadSegmentTable {
                segment: SEG_CAP as u32,
            });
        }
        for (si, seg) in segtab.iter().enumerate() {
            let bad = if si == 0 {
                seg.first_record != 0
            } else {
                seg.first_record <= segtab[si - 1].first_record
                    || seg.first_record as usize >= package.records.len()
            };
            if bad {
                return Err(SmmError::BadSegmentTable { segment: si as u32 });
            }
        }
        let verify_cost = machine.cost().smm_verify.for_bytes(verify_bytes);
        let verify_cost = match package.algorithm {
            VerificationAlgorithm::Sha256 => verify_cost,
            VerificationAlgorithm::Sdbm => machine.cost().smm_verify_sdbm.for_bytes(verify_bytes),
        };
        machine.charge(verify_cost);
        timings.verify = machine.now() - t2;
        verify_span.field("bytes", verify_bytes);
        verify_span.end_at(machine.now().as_ns());
        // 4. Apply, under an open undo-journal window. Record-store
        // compaction (if due) happens first so the journaled window
        // itself only ever *appends* records — undone by resetting the
        // count to INIT_RECORDS.
        let t3 = machine.now();
        let mut apply_span = kshot_telemetry::span_at("smm.apply", t3.as_ns());
        self.ensure_record_capacity(machine, new_records)?;
        self.journal_begin(machine, JSTATE_APPLY, &package.id)?;
        let mut trampolines = 0usize;
        let mut global_writes = 0usize;
        let mut applied_bytes = 0usize;
        let mut segments = Vec::with_capacity(segtab.len());
        // Each segment is its own crash-consistency unit: marker +
        // SEG_COUNT land before any of the segment's journal entries or
        // kernel writes, SEG_COMMITTED advances only after its last
        // protected write — so recovery preserves the committed prefix
        // and unwinds at most the one torn segment.
        for (si, seg) in segtab.iter().enumerate() {
            let rec_start = seg.first_record as usize;
            let rec_end = segtab
                .get(si + 1)
                .map_or(package.records.len(), |s| s.first_record as usize);
            let first_entry = self.read_u64(machine, JOFF_ENTRY_COUNT)?;
            let marker = SegMarker {
                first_entry,
                init_records: self.record_count(machine)? as u64,
                init_paddr: self.read_u64(machine, OFF_NEXT_PADDR)?,
                id: seg.id.clone(),
            };
            self.write_segment_marker(machine, si as u64, &marker)?;
            self.write_u64(machine, JOFF_SEG_COUNT, si as u64 + 1)?;
            let mut seg_trampolines = 0usize;
            let mut seg_global_writes = 0usize;
            for rec in &package.records[rec_start..rec_end] {
                match rec.op {
                    PackageOp::GlobalWrite => {
                        // Capture the original bytes for rollback (up to
                        // MAX_ORIG; longer writes are not revertible).
                        let mut orig = [0u8; MAX_ORIG];
                        let orig_len = if rec.payload.len() <= MAX_ORIG {
                            machine.read_bytes(
                                AccessCtx::Smm,
                                rec.taddr,
                                &mut orig[..rec.payload.len()],
                            )?;
                            rec.payload.len() as u8
                        } else {
                            NOT_REVERTIBLE
                        };
                        // The undo journal captures the *full* original
                        // (chunked), so even writes too long for the record
                        // store are unwound if this apply is interrupted.
                        self.journal_log_orig(machine, rec.taddr, rec.payload.len())?;
                        machine.write_bytes(AccessCtx::Smm, rec.taddr, &rec.payload)?;
                        self.append_record(
                            machine,
                            &SmramRecord {
                                active: true,
                                kind: RecordKind::DataWrite,
                                taddr: rec.taddr,
                                skip: 0,
                                orig_len,
                                orig,
                                paddr: 0,
                                size: rec.payload.len() as u32,
                                memx_hash: [0; 32],
                                id: seg.id.clone(),
                            },
                        )?;
                        seg_global_writes += 1;
                        applied_bytes += rec.payload.len();
                    }
                    PackageOp::PlaceOnly | PackageOp::Patch => {
                        machine.write_bytes(AccessCtx::Smm, rec.paddr, &rec.payload)?;
                        applied_bytes += rec.payload.len();
                        let end = rec.paddr + rec.payload.len() as u64;
                        let next = self.read_u64(machine, OFF_NEXT_PADDR)?;
                        if end > next {
                            self.write_u64(machine, OFF_NEXT_PADDR, end)?;
                        }
                        if rec.op == PackageOp::Patch {
                            let site = rec.taddr + rec.skip_u64();
                            let mut orig = [0u8; 5];
                            machine.read_bytes(AccessCtx::Smm, site, &mut orig)?;
                            let mut jmp = [0u8; 5];
                            kshot_isa::write_jmp_rel32(&mut jmp, site, rec.paddr).map_err(
                                |_| SmmError::BadPlacement {
                                    sequence: rec.sequence,
                                    paddr: rec.paddr,
                                },
                            )?;
                            self.journal_log_orig(machine, site, jmp.len())?;
                            machine.write_bytes(AccessCtx::Smm, site, &jmp)?;
                            applied_bytes += jmp.len();
                            seg_trampolines += 1;
                            kshot_telemetry::event_with(
                                "smm.trampoline",
                                Some(machine.now().as_ns()),
                                |f| {
                                    f.push(("site", site.into()));
                                    f.push(("target", rec.paddr.into()));
                                },
                            );
                            // Record for rollback + introspection. The
                            // record carries the *segment's* id so
                            // rollback pops one CVE, not the envelope.
                            let mut orig16 = [0u8; MAX_ORIG];
                            orig16[..5].copy_from_slice(&orig);
                            self.append_record(
                                machine,
                                &SmramRecord {
                                    active: true,
                                    kind: RecordKind::Trampoline,
                                    taddr: rec.taddr,
                                    skip: rec.ftrace_skip,
                                    orig_len: 5,
                                    orig: orig16,
                                    paddr: rec.paddr,
                                    size: rec.payload.len() as u32,
                                    memx_hash: rec.memx_hash(package.algorithm),
                                    id: seg.id.clone(),
                                },
                            )?;
                        }
                    }
                }
            }
            self.write_u64(machine, JOFF_SEG_COMMITTED, si as u64 + 1)?;
            let entries_now = self.read_u64(machine, JOFF_ENTRY_COUNT)?;
            segments.push(SegmentOutcome {
                id: seg.id.clone(),
                trampolines: seg_trampolines,
                global_writes: seg_global_writes,
                journal_slots: entries_now - first_entry,
            });
            trampolines += seg_trampolines;
            global_writes += seg_global_writes;
        }
        let apply_cost = machine.cost().smm_apply.for_bytes(applied_bytes);
        machine.charge(apply_cost);
        timings.apply = machine.now() - t3;
        apply_span.field("bytes", applied_bytes);
        apply_span.end_at(machine.now().as_ns());
        let outcome = SmmPatchOutcome {
            timings,
            payload_size: package.payload_size(),
            trampolines,
            global_writes,
            segments,
        };
        // 5. Commit: every protected write has landed, so close the
        // journal window. 6. Rotate the key for the next patch, publish
        // the cursor, and clear the staged length so a re-trigger cannot
        // re-apply.
        let finished = self
            .journal_commit(machine)
            .and_then(|()| self.rotate_key(machine, reserved, fresh_entropy))
            .and_then(|()| self.publish_cursor(machine, reserved))
            .and_then(|()| {
                let staged = reserved.rw_base + rw_offsets::STAGED_LEN;
                Ok(machine.write_u64(AccessCtx::Smm, staged, 0)?)
            });
        if let Err(error) = finished {
            // Nothing can unwind the patch once the journal reads idle,
            // nor while it is still open with every started segment
            // committed (SEG_COMMITTED == SEG_COUNT > 0, the window
            // `recover()` keeps whole): say so, with what was applied,
            // instead of a plain error that reads like a failed apply.
            let started = self.read_u64(machine, JOFF_SEG_COUNT)?;
            let kept = self.journal_state(machine)? == JournalState::Idle
                || (started > 0 && self.read_u64(machine, JOFF_SEG_COMMITTED)? == started);
            return Err(if kept {
                SmmError::Committed {
                    outcome: Box::new(outcome),
                    error: Box::new(error),
                }
            } else {
                error
            });
        }
        hp_span.field("trampolines", trampolines);
        hp_span.field("global_writes", global_writes);
        hp_span.end_at(machine.now().as_ns());
        Ok(outcome)
    }

    /// Roll back the most recent patch (all trampolines installed under
    /// its package id), restoring the original entry bytes (paper §V-C,
    /// "Patch Rollback/Update").
    ///
    /// Each record is deactivated only *after* its restore write
    /// succeeds, so the set of active records is always exactly the set
    /// of sites still carrying patched bytes. `NOT_REVERTIBLE` data
    /// writes cannot be restored; they are deactivated and surfaced in
    /// [`RollbackOutcome::skipped`] — the kernel still carries those
    /// edits and the operator must re-patch.
    ///
    /// # Errors
    ///
    /// [`RollbackFailure`] carrying the underlying [`SmmError`]
    /// ([`SmmError::RollbackEmpty`] when nothing is active) plus the
    /// sites already restored before the failure. A mid-loop failure
    /// leaves the journal open; [`SmmHandler::recover`] rolls the
    /// remainder forward.
    pub fn handle_rollback(
        &self,
        machine: &mut Machine,
    ) -> Result<RollbackOutcome, RollbackFailure> {
        fn fail(error: SmmError) -> RollbackFailure {
            RollbackFailure {
                error,
                restored: Vec::new(),
            }
        }
        if machine.mode() != CpuMode::Smm {
            return Err(fail(SmmError::NotInSmm));
        }
        match self.journal_state(machine).map_err(fail)? {
            JournalState::Idle => {}
            _ => return Err(fail(SmmError::RecoveryPending)),
        }
        let count = self.record_count(machine).map_err(fail)?;
        // Find the last active record; its package id is the rollback
        // target.
        let mut target = None;
        for i in (0..count).rev() {
            let r = self.read_record(machine, i).map_err(fail)?;
            if r.active {
                target = Some(r.id);
                break;
            }
        }
        let Some(id) = target else {
            return Err(fail(SmmError::RollbackEmpty));
        };
        // Journal the intent (package id) before the first restore; the
        // per-site originals already live in the record table, so the
        // journal needs no undo entries — recovery rolls *forward*.
        self.journal_begin(machine, JSTATE_ROLLBACK, &id)
            .map_err(fail)?;
        let mut restored = Vec::new();
        let mut skipped = Vec::new();
        if let Err(error) = self.restore_run(machine, &id, &mut restored, &mut skipped) {
            return Err(RollbackFailure { error, restored });
        }
        if let Err(error) = self.journal_commit(machine) {
            return Err(RollbackFailure { error, restored });
        }
        Ok(RollbackOutcome { restored, skipped })
    }

    /// Restore and deactivate the topmost contiguous run of active
    /// records carrying package `id`, newest first. Shared by
    /// [`SmmHandler::handle_rollback`] and the roll-forward path of
    /// [`SmmHandler::recover`]; because deactivation follows each
    /// restore, re-running after an interruption resumes exactly where
    /// the previous attempt stopped (re-restoring an already-restored
    /// site is idempotent).
    fn restore_run(
        &self,
        machine: &mut Machine,
        id: &str,
        restored: &mut Vec<u64>,
        skipped: &mut Vec<u64>,
    ) -> Result<(), SmmError> {
        let count = self.record_count(machine)?;
        let mut last_active = None;
        for i in (0..count).rev() {
            let r = self.read_record(machine, i)?;
            if r.active {
                last_active = Some((i, r.id));
                break;
            }
        }
        // Nothing active, or a different package on top: the run for
        // `id` is already fully restored.
        let Some((last, lid)) = last_active else {
            return Ok(());
        };
        if lid != id {
            return Ok(());
        }
        for i in (0..=last).rev() {
            let mut r = self.read_record(machine, i)?;
            if !r.active || r.id != id {
                break;
            }
            match r.kind {
                RecordKind::Trampoline => {
                    let site = r.taddr + r.skip as u64;
                    machine.write_bytes(AccessCtx::Smm, site, &r.orig[..5])?;
                    restored.push(r.taddr);
                }
                RecordKind::DataWrite => {
                    if r.orig_len != NOT_REVERTIBLE {
                        machine.write_bytes(
                            AccessCtx::Smm,
                            r.taddr,
                            &r.orig[..r.orig_len as usize],
                        )?;
                        restored.push(r.taddr);
                    } else {
                        // Non-revertible data writes are deactivated but
                        // not restored; surfaced so the operator knows
                        // the kernel still carries them.
                        skipped.push(r.taddr);
                    }
                }
            }
            // Deactivate only after the restore landed: active records
            // remain an exact inventory of still-patched sites.
            r.active = false;
            self.write_record(machine, i, &r)?;
        }
        Ok(())
    }

    /// Recover from an operation interrupted mid-SMM-window (power loss,
    /// injected fault): called from the next SMI before any new patch or
    /// rollback is accepted.
    ///
    /// * An interrupted **apply** is unwound — the journaled original
    ///   bytes are replayed newest-first, the record count and `mem_X`
    ///   cursor are reset to their pre-patch values, and the staged
    ///   ciphertext is discarded.
    /// * An interrupted **rollback** is rolled forward — every
    ///   still-active record of the journaled package id is restored and
    ///   deactivated.
    ///
    /// Recovery is idempotent: if it is itself interrupted the journal
    /// stays open and a later call resumes (replayed undo writes and
    /// re-restored sites write the same bytes again).
    ///
    /// In every case — including a clean (already-committed) journal —
    /// recovery re-derives the published `mem_RW` view from SMRAM: the
    /// DH public value, the key epoch, and the `mem_X` cursor. A fault
    /// *after* the commit point (during key rotation or cursor
    /// publication) leaves the kernel fully patched but the published
    /// key material stale, which would wedge the next session; the
    /// republish heals it.
    ///
    /// # Errors
    ///
    /// [`SmmError::NotInSmm`] outside SMM; machine faults otherwise (the
    /// journal window stays open so recovery can be retried).
    pub fn recover(
        &self,
        machine: &mut Machine,
        reserved: &ReservedLayout,
    ) -> Result<Recovery, SmmError> {
        if machine.mode() != CpuMode::Smm {
            return Err(SmmError::NotInSmm);
        }
        let outcome: Recovery = match self.journal_state(machine)? {
            JournalState::Idle => Recovery::Clean,
            JournalState::ApplyInProgress => {
                let n = self.read_u64(machine, JOFF_ENTRY_COUNT)?;
                let seg_count = self.read_u64(machine, JOFF_SEG_COUNT)?;
                let committed = self.read_u64(machine, JOFF_SEG_COMMITTED)?;
                // Three cases: a pre-segmentation window (no marker
                // landed — unwind everything from the journal header's
                // snapshot), a fully-committed window (every started
                // segment's writes landed before the fault — preserve
                // them all, unwind nothing), or a torn segment (unwind
                // only the journal suffix from the interrupted
                // segment's marker).
                let (id, first_entry, init_records, init_paddr, preserved) = if seg_count == 0 {
                    (
                        self.journal_read_id(machine)?,
                        0u64,
                        self.read_u64(machine, JOFF_INIT_RECORDS)?,
                        self.read_u64(machine, JOFF_INIT_PADDR)?,
                        0usize,
                    )
                } else if committed >= seg_count {
                    let records = self.record_count(machine)? as u64;
                    let paddr = self.read_u64(machine, OFF_NEXT_PADDR)?;
                    (
                        self.journal_read_id(machine)?,
                        n,
                        records,
                        paddr,
                        committed as usize,
                    )
                } else {
                    let m = self.read_segment_marker(machine, committed)?;
                    (
                        m.id,
                        m.first_entry,
                        m.init_records,
                        m.init_paddr,
                        committed as usize,
                    )
                };
                for i in (first_entry..n).rev() {
                    let (addr, len, orig) = self.journal_entry(machine, i)?;
                    machine.write_bytes(AccessCtx::Smm, addr, &orig[..len])?;
                }
                self.set_record_count(machine, init_records as u32)?;
                self.write_u64(machine, OFF_NEXT_PADDR, init_paddr)?;
                self.publish_cursor(machine, reserved)?;
                // Discard the staged ciphertext: the interrupted package
                // must be re-staged (and re-examined) to be retried.
                machine.write_u64(AccessCtx::Smm, reserved.rw_base + rw_offsets::STAGED_LEN, 0)?;
                self.journal_commit(machine)?;
                kshot_telemetry::counter("smm.recover_unwound_apply", 1);
                Recovery::UnwoundApply {
                    id,
                    writes_undone: (n - first_entry) as usize,
                    segments_preserved: preserved,
                }
            }
            JournalState::RollbackInProgress => {
                let id = self.journal_read_id(machine)?;
                let mut restored = Vec::new();
                let mut skipped = Vec::new();
                self.restore_run(machine, &id, &mut restored, &mut skipped)?;
                self.journal_commit(machine)?;
                kshot_telemetry::counter("smm.recover_completed_rollback", 1);
                Recovery::CompletedRollback {
                    id,
                    restored,
                    skipped,
                }
            }
        };
        // Heal the published view unconditionally (idempotent): a fault
        // after the journal commit can leave mem_RW stale even though
        // the journal reads Idle.
        self.publish_public(machine, reserved)?;
        self.publish_cursor(machine, reserved)?;
        Ok(outcome)
    }
}

impl crate::package::PackageRecord<'_> {
    fn skip_u64(&self) -> u64 {
        self.ftrace_skip as u64
    }

    /// The SHA-256 of the placed body, which introspection checks
    /// `mem_X` against. Under SHA-256 verification it is the payload
    /// hash [`verify_payload`](Self::verify_payload) has just checked
    /// against these very bytes; under SDBM it is computed here.
    fn memx_hash(&self, algorithm: VerificationAlgorithm) -> [u8; 32] {
        match algorithm {
            VerificationAlgorithm::Sha256 => self.payload_hash,
            VerificationAlgorithm::Sdbm => kshot_crypto::sha256(&self.payload),
        }
    }
}

/// Read a length-prefixed DH public value from `mem_RW`.
pub(crate) fn read_public(
    machine: &mut Machine,
    base: u64,
) -> Result<kshot_crypto::BigUint, SmmError> {
    let len = machine.read_u64(AccessCtx::Smm, base)?;
    if len > rw_offsets::MAX_PUB {
        return Err(SmmError::BadStagedLength(len));
    }
    let mut bytes = vec![0u8; len as usize];
    machine.read_bytes(AccessCtx::Smm, base + 8, &mut bytes)?;
    Ok(kshot_crypto::BigUint::from_bytes_be(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kshot_machine::MemLayout;

    fn setup() -> (Machine, ReservedLayout, SmmHandler) {
        let mut m = Machine::new(MemLayout::standard()).unwrap();
        let r = ReservedLayout::from_machine(&m);
        r.install(&mut m).unwrap();
        m.raise_smi().unwrap();
        let h = SmmHandler::install(&mut m, &r, &[7u8; 32], DhGroup::Default).unwrap();
        m.rsm().unwrap();
        (m, r, h)
    }

    #[test]
    fn install_publishes_public_and_cursor() {
        let (mut m, r, _) = setup();
        // The kernel (and thus the helper) can read mem_RW.
        let len = m
            .read_u64(AccessCtx::Kernel, r.rw_base + rw_offsets::SMM_PUB)
            .unwrap();
        assert!(len > 0 && len < 200);
        let cursor = m
            .read_u64(AccessCtx::Kernel, r.rw_base + rw_offsets::NEXT_PADDR)
            .unwrap();
        assert_eq!(cursor, r.x_base);
        let epoch = m
            .read_u64(AccessCtx::Kernel, r.rw_base + rw_offsets::EPOCH)
            .unwrap();
        assert_eq!(epoch, 0);
    }

    #[test]
    fn install_requires_smm() {
        let mut m = Machine::new(MemLayout::standard()).unwrap();
        let r = ReservedLayout::from_machine(&m);
        r.install(&mut m).unwrap();
        assert!(matches!(
            SmmHandler::install(&mut m, &r, &[0u8; 32], DhGroup::Default),
            Err(SmmError::NotInSmm)
        ));
    }

    #[test]
    fn attach_checks_magic() {
        let (mut m, _, _) = setup();
        m.raise_smi().unwrap();
        SmmHandler::attach(&mut m, DhGroup::Default).unwrap();
        m.rsm().unwrap();
        // A fresh machine has no magic.
        let mut m2 = Machine::new(MemLayout::standard()).unwrap();
        m2.raise_smi().unwrap();
        assert!(matches!(
            SmmHandler::attach(&mut m2, DhGroup::Default),
            Err(SmmError::NotInstalled)
        ));
    }

    #[test]
    fn dh_group_params_are_built_once_per_process() {
        for group in [DhGroup::Default, DhGroup::Modp2048] {
            assert!(std::ptr::eq(group.params(), group.params()));
        }
        assert!(!std::ptr::eq(
            DhGroup::Default.params(),
            DhGroup::Modp2048.params()
        ));
        assert_eq!(DhGroup::Default.params(), &DhParams::default_group());
        assert_eq!(DhGroup::Modp2048.params(), &DhParams::modp_2048());
    }

    #[test]
    fn record_roundtrip_in_smram() {
        let (mut m, _, h) = setup();
        m.raise_smi().unwrap();
        let mut orig = [0u8; MAX_ORIG];
        orig[..5].copy_from_slice(&[1, 2, 3, 4, 5]);
        let rec = SmramRecord {
            active: true,
            kind: RecordKind::Trampoline,
            taddr: 0x10_0040,
            skip: 5,
            orig_len: 5,
            orig,
            paddr: 0x0200_0000,
            size: 99,
            memx_hash: [0xAB; 32],
            id: "CVE-2016-5195".into(),
        };
        h.write_record(&mut m, 0, &rec).unwrap();
        assert_eq!(h.read_record(&mut m, 0).unwrap(), rec);
        m.rsm().unwrap();
    }

    #[test]
    fn record_long_id_truncates() {
        let (mut m, _, h) = setup();
        m.raise_smi().unwrap();
        let rec = SmramRecord {
            active: false,
            kind: RecordKind::DataWrite,
            taddr: 0,
            skip: 0,
            orig_len: 0,
            orig: [0; MAX_ORIG],
            paddr: 0,
            size: 0,
            memx_hash: [0; 32],
            id: "X".repeat(100),
        };
        h.write_record(&mut m, 1, &rec).unwrap();
        let back = h.read_record(&mut m, 1).unwrap();
        assert_eq!(back.id.len(), 55);
        m.rsm().unwrap();
    }

    #[test]
    fn record_store_compacts_when_full() {
        // Fill the store beyond capacity with mostly-inactive records
        // (the patch/rollback churn of a long-lived host): compaction
        // must reclaim the inactive slots and preserve active ones in
        // order.
        let (mut m, _, h) = setup();
        m.raise_smi().unwrap();
        let mk = |i: u32, active: bool| SmramRecord {
            active,
            kind: RecordKind::Trampoline,
            taddr: 0x10_0000 + i as u64,
            skip: 5,
            orig_len: 5,
            orig: [0; MAX_ORIG],
            paddr: 0x200_0000 + i as u64,
            size: 1,
            memx_hash: [0; 32],
            id: format!("CVE-{i}"),
        };
        // Fill to capacity; every third record stays active.
        for i in 0..RECORD_CAP {
            h.append_record(&mut m, &mk(i, i % 3 == 0)).unwrap();
        }
        assert_eq!(h.record_count(&mut m).unwrap(), RECORD_CAP);
        // The next append triggers compaction.
        h.append_record(&mut m, &mk(9999, true)).unwrap();
        let count = h.record_count(&mut m).unwrap();
        let expected_active = RECORD_CAP.div_ceil(3) + 1;
        assert_eq!(count, expected_active);
        // Order preserved: taddrs strictly increase.
        let mut prev = 0;
        for i in 0..count {
            let r = h.read_record(&mut m, i).unwrap();
            assert!(r.active);
            assert!(r.taddr > prev || i == 0);
            prev = r.taddr;
        }
        let last = h.read_record(&mut m, count - 1).unwrap();
        assert_eq!(last.taddr, 0x10_0000 + 9999);
        m.rsm().unwrap();
    }

    #[test]
    fn record_store_full_of_active_records_errors() {
        let (mut m, _, h) = setup();
        m.raise_smi().unwrap();
        let mk = |i: u32| SmramRecord {
            active: true,
            kind: RecordKind::Trampoline,
            taddr: i as u64,
            skip: 0,
            orig_len: 5,
            orig: [0; MAX_ORIG],
            paddr: 0,
            size: 1,
            memx_hash: [0; 32],
            id: "CVE".into(),
        };
        for i in 0..RECORD_CAP {
            h.append_record(&mut m, &mk(i)).unwrap();
        }
        assert!(matches!(
            h.append_record(&mut m, &mk(RECORD_CAP)),
            Err(SmmError::StoreFull)
        ));
        m.rsm().unwrap();
    }

    #[test]
    fn rollback_on_empty_store_fails() {
        let (mut m, _, h) = setup();
        m.raise_smi().unwrap();
        assert!(matches!(
            h.handle_rollback(&mut m),
            Err(RollbackFailure {
                error: SmmError::RollbackEmpty,
                ..
            })
        ));
        m.rsm().unwrap();
    }

    #[test]
    fn journal_begin_then_recover_on_clean_state_is_a_noop() {
        let (mut m, r, h) = setup();
        m.raise_smi().unwrap();
        assert_eq!(h.journal_state(&mut m).unwrap(), JournalState::Idle);
        assert_eq!(h.recover(&mut m, &r).unwrap(), Recovery::Clean);
        m.rsm().unwrap();
    }

    #[test]
    fn open_apply_journal_blocks_new_operations() {
        let (mut m, r, h) = setup();
        m.raise_smi().unwrap();
        h.journal_begin(&mut m, JSTATE_APPLY, "stuck").unwrap();
        assert!(matches!(
            h.handle_patch(&mut m, &r, &[7u8; 32]),
            Err(SmmError::RecoveryPending)
        ));
        assert!(matches!(
            h.handle_rollback(&mut m),
            Err(RollbackFailure {
                error: SmmError::RecoveryPending,
                ..
            })
        ));
        // Recovery (here: unwinding zero journaled writes) clears it.
        assert_eq!(
            h.recover(&mut m, &r).unwrap(),
            Recovery::UnwoundApply {
                id: "stuck".into(),
                writes_undone: 0,
                segments_preserved: 0
            }
        );
        assert_eq!(h.journal_state(&mut m).unwrap(), JournalState::Idle);
        m.rsm().unwrap();
    }

    #[test]
    fn journal_log_orig_chunks_and_unwinds_long_writes() {
        let (mut m, r, h) = setup();
        let data = m.layout().kernel_data_base;
        let original: Vec<u8> = (0..150u8).collect();
        m.write_bytes(AccessCtx::Kernel, data, &original).unwrap();
        m.raise_smi().unwrap();
        h.journal_begin(&mut m, JSTATE_APPLY, "long").unwrap();
        // 150 bytes chain ceil(150/64) = 3 entries.
        h.journal_log_orig(&mut m, data, 150).unwrap();
        assert_eq!(h.read_u64(&mut m, JOFF_ENTRY_COUNT).unwrap(), 3);
        machine_scribble(&mut m, data, 150);
        let rec = h.recover(&mut m, &r).unwrap();
        assert_eq!(
            rec,
            Recovery::UnwoundApply {
                id: "long".into(),
                writes_undone: 3,
                segments_preserved: 0
            }
        );
        let mut back = vec![0u8; 150];
        m.read_bytes(AccessCtx::Smm, data, &mut back).unwrap();
        assert_eq!(back, original);
        m.rsm().unwrap();
    }

    fn machine_scribble(m: &mut Machine, addr: u64, len: usize) {
        m.write_bytes(AccessCtx::Smm, addr, &vec![0xEE; len])
            .unwrap();
    }

    #[test]
    fn corrupted_journal_slot_length_fails_loudly() {
        // A journal slot whose length field is implausible (0 or > 64)
        // must abort recovery with JournalCorrupt, not silently restore
        // a clamped prefix.
        let (mut m, r, h) = setup();
        let data = m.layout().kernel_data_base;
        m.raise_smi().unwrap();
        h.journal_begin(&mut m, JSTATE_APPLY, "corrupt").unwrap();
        h.journal_log_orig(&mut m, data, 8).unwrap();
        let len_field = m.smram_scratch_base() + JOFF_ENTRIES + 8;
        m.write_bytes(AccessCtx::Smm, len_field, &65u32.to_le_bytes())
            .unwrap();
        assert_eq!(
            h.recover(&mut m, &r).unwrap_err(),
            SmmError::JournalCorrupt { slot: 0, len: 65 }
        );
        m.write_bytes(AccessCtx::Smm, len_field, &0u32.to_le_bytes())
            .unwrap();
        assert_eq!(
            h.recover(&mut m, &r).unwrap_err(),
            SmmError::JournalCorrupt { slot: 0, len: 0 }
        );
        m.rsm().unwrap();
    }

    #[test]
    fn segment_marker_roundtrips_in_smram() {
        let (mut m, _, h) = setup();
        m.raise_smi().unwrap();
        let marker = SegMarker {
            first_entry: 17,
            init_records: 3,
            init_paddr: 0x0200_0040,
            id: "CVE-2016-5195".into(),
        };
        h.write_segment_marker(&mut m, 5, &marker).unwrap();
        assert_eq!(h.read_segment_marker(&mut m, 5).unwrap(), marker);
        m.rsm().unwrap();
    }

    #[test]
    fn segmented_recovery_preserves_committed_segments() {
        // Build an interrupted two-segment window by hand: segment 0
        // fully committed, segment 1 torn after one journaled write.
        // Recovery must unwind only segment 1's write and report the
        // interrupted segment's own id.
        let (mut m, r, h) = setup();
        let data = m.layout().kernel_data_base;
        let original: Vec<u8> = (0..16u8).collect();
        m.write_bytes(AccessCtx::Kernel, data, &original).unwrap();
        m.raise_smi().unwrap();
        h.journal_begin(&mut m, JSTATE_APPLY, "BATCH(CVE-A+CVE-B)")
            .unwrap();
        // Segment 0: one journaled+applied 8-byte write, committed.
        let marker0 = SegMarker {
            first_entry: 0,
            init_records: 0,
            init_paddr: r.x_base,
            id: "CVE-A".into(),
        };
        h.write_segment_marker(&mut m, 0, &marker0).unwrap();
        h.write_u64(&mut m, JOFF_SEG_COUNT, 1).unwrap();
        h.journal_log_orig(&mut m, data, 8).unwrap();
        machine_scribble(&mut m, data, 8);
        h.write_u64(&mut m, JOFF_SEG_COMMITTED, 1).unwrap();
        // Segment 1: one journaled+applied write, then "power loss".
        let marker1 = SegMarker {
            first_entry: 1,
            init_records: 0,
            init_paddr: r.x_base,
            id: "CVE-B".into(),
        };
        h.write_segment_marker(&mut m, 1, &marker1).unwrap();
        h.write_u64(&mut m, JOFF_SEG_COUNT, 2).unwrap();
        h.journal_log_orig(&mut m, data + 8, 8).unwrap();
        machine_scribble(&mut m, data + 8, 8);
        let rec = h.recover(&mut m, &r).unwrap();
        assert_eq!(
            rec,
            Recovery::UnwoundApply {
                id: "CVE-B".into(),
                writes_undone: 1,
                segments_preserved: 1
            }
        );
        // Segment 0's scribble survives; segment 1's bytes restored.
        let mut back = vec![0u8; 16];
        m.read_bytes(AccessCtx::Smm, data, &mut back).unwrap();
        assert_eq!(&back[..8], &[0xEE; 8]);
        assert_eq!(&back[8..], &original[8..]);
        m.rsm().unwrap();
    }

    #[test]
    fn fully_committed_window_recovers_without_unwinding() {
        // All started segments committed before the fault (the window
        // just never reached journal_commit): recovery preserves every
        // write and reports zero undone.
        let (mut m, r, h) = setup();
        let data = m.layout().kernel_data_base;
        m.raise_smi().unwrap();
        h.journal_begin(&mut m, JSTATE_APPLY, "BATCH(CVE-A)")
            .unwrap();
        let marker = SegMarker {
            first_entry: 0,
            init_records: 0,
            init_paddr: r.x_base,
            id: "CVE-A".into(),
        };
        h.write_segment_marker(&mut m, 0, &marker).unwrap();
        h.write_u64(&mut m, JOFF_SEG_COUNT, 1).unwrap();
        h.journal_log_orig(&mut m, data, 8).unwrap();
        machine_scribble(&mut m, data, 8);
        h.write_u64(&mut m, JOFF_SEG_COMMITTED, 1).unwrap();
        let rec = h.recover(&mut m, &r).unwrap();
        assert_eq!(
            rec,
            Recovery::UnwoundApply {
                id: "BATCH(CVE-A)".into(),
                writes_undone: 0,
                segments_preserved: 1
            }
        );
        let mut back = vec![0u8; 8];
        m.read_bytes(AccessCtx::Smm, data, &mut back).unwrap();
        assert_eq!(back, [0xEE; 8]);
        m.rsm().unwrap();
    }

    #[test]
    fn handle_patch_requires_smm_mode() {
        let (mut m, r, h) = setup();
        assert!(matches!(
            h.handle_patch(&mut m, &r, &[1u8; 32]),
            Err(SmmError::NotInSmm)
        ));
    }

    #[test]
    fn staged_garbage_is_rejected() {
        let (mut m, r, h) = setup();
        // Kernel stages nonsense (it can write mem_W and mem_RW).
        m.write_bytes(AccessCtx::Kernel, r.w_base, &[0xFF; 64])
            .unwrap();
        m.write_u64(AccessCtx::Kernel, r.rw_base + rw_offsets::STAGED_LEN, 64)
            .unwrap();
        // Also stage a "helper public" so keygen succeeds.
        let params = DhParams::default_group();
        let kp = DhKeyPair::from_entropy(&params, &[9u8; 32]).unwrap();
        let pb = kp.public().to_bytes_be();
        m.write_u64(
            AccessCtx::Kernel,
            r.rw_base + rw_offsets::HELPER_PUB,
            pb.len() as u64,
        )
        .unwrap();
        m.write_bytes(
            AccessCtx::Kernel,
            r.rw_base + rw_offsets::HELPER_PUB + 8,
            &pb,
        )
        .unwrap();
        m.raise_smi().unwrap();
        let err = h.handle_patch(&mut m, &r, &[2u8; 32]).unwrap_err();
        assert!(
            matches!(err, SmmError::Package(_) | SmmError::Channel(_)),
            "{err:?}"
        );
        m.rsm().unwrap();
    }

    #[test]
    fn zero_staged_length_rejected() {
        let (mut m, r, h) = setup();
        m.raise_smi().unwrap();
        // Provide a valid helper public but no staged data.
        let params = DhParams::default_group();
        let kp = DhKeyPair::from_entropy(&params, &[9u8; 32]).unwrap();
        let pb = kp.public().to_bytes_be();
        m.write_u64(
            AccessCtx::Smm,
            r.rw_base + rw_offsets::HELPER_PUB,
            pb.len() as u64,
        )
        .unwrap();
        m.write_bytes(AccessCtx::Smm, r.rw_base + rw_offsets::HELPER_PUB + 8, &pb)
            .unwrap();
        assert!(matches!(
            h.handle_patch(&mut m, &r, &[2u8; 32]),
            Err(SmmError::BadStagedLength(0))
        ));
        m.rsm().unwrap();
    }
}
