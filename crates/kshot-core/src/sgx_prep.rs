//! SGX-based patch preparation (paper §V-B).
//!
//! The helper is an untrusted userspace application hosting a trusted
//! enclave. The *enclave* holds the server session, the decrypted patch
//! bundle, and the enclave↔SMM session key; the *application* only ever
//! moves ciphertext between the network, `mem_RW`, and `mem_W`. The
//! division is visible in the code: everything inside `enclave.ecall`
//! closures is trusted, everything else handles opaque bytes.
//!
//! Stages (timed separately, matching Table II):
//! 1. **Fetching** — receive the encrypted bundle frame from the server.
//! 2. **Pre-processing** — verify bundle integrity, assign `mem_X`
//!    placements, resolve call relocations against assigned addresses,
//!    build the Fig. 3 package.
//! 3. **Passing** — derive the SMM session key (DH public from
//!    `mem_RW`), encrypt the package, and stage it in `mem_W`.

use std::borrow::Cow;
use std::fmt;

use kshot_crypto::dh::{DhError, DhKeyPair, DhParams};
use kshot_crypto::BigUint;
use kshot_enclave::{Enclave, SgxPlatform};
use kshot_machine::{AccessCtx, Machine, MachineError, SimTime};
use kshot_patchserver::bundle::{BundleLayout, RelocTarget};
use kshot_patchserver::channel::{ChannelError, Frame, SecureChannel, FRAME_HEADER_LEN};
use kshot_patchserver::wire::{WireError, Writer};

use crate::package::{PackageOp, PackageRecord, PatchPackage, VerificationAlgorithm};
use crate::reserved::{rw_offsets, ReservedLayout};

/// The enclave code identity (its measurement derives from this).
pub const HELPER_CODE_IDENTITY: &[u8] = b"kshot-helper-enclave-v1";

/// Per-stage SGX timing breakdown (Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SgxTimings {
    /// Fetching the bundle from the remote server.
    pub fetch: SimTime,
    /// Pre-processing (verification, placement, relocation, packaging).
    pub preprocess: SimTime,
    /// Encrypting and staging into shared memory.
    pub pass: SimTime,
}

impl SgxTimings {
    /// Total enclave-side preparation time (does not pause the OS).
    pub fn total(&self) -> SimTime {
        self.fetch + self.preprocess + self.pass
    }
}

/// Helper failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// No server session has been established.
    NoSession,
    /// No bundle has been fetched yet.
    NoBundle,
    /// Transport failure (tampering shows up here).
    Channel(ChannelError),
    /// Bundle/package (de)serialization failure.
    Wire(WireError),
    /// Machine fault while touching shared memory.
    Machine(MachineError),
    /// The bundle does not fit the remaining `mem_X` space.
    NoSpace {
        /// Bytes needed.
        need: u64,
        /// Bytes available.
        have: u64,
    },
    /// The staged package exceeds `mem_W`.
    PackageTooLarge {
        /// Ciphertext size.
        size: u64,
        /// `mem_W` capacity.
        capacity: u64,
    },
    /// The SMM public value in `mem_RW` is invalid.
    BadSmmPublic(DhError),
    /// A relocation referenced an unknown new function.
    DanglingReloc(String),
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::NoSession => write!(f, "no server session established"),
            SgxError::NoBundle => write!(f, "no patch bundle fetched"),
            SgxError::Channel(e) => write!(f, "transport failure: {e}"),
            SgxError::Wire(e) => write!(f, "serialization failure: {e}"),
            SgxError::Machine(e) => write!(f, "machine fault: {e}"),
            SgxError::NoSpace { need, have } => {
                write!(f, "mem_X exhausted: need {need} bytes, have {have}")
            }
            SgxError::PackageTooLarge { size, capacity } => {
                write!(f, "package of {size} bytes exceeds mem_W ({capacity})")
            }
            SgxError::BadSmmPublic(e) => write!(f, "SMM public value invalid: {e}"),
            SgxError::DanglingReloc(n) => write!(f, "relocation to unknown function `{n}`"),
        }
    }
}

impl std::error::Error for SgxError {}

impl From<MachineError> for SgxError {
    fn from(e: MachineError) -> Self {
        SgxError::Machine(e)
    }
}

/// Enclave-private state. Never leaves [`Enclave::ecall`] closures.
#[derive(Default)]
struct HelperState {
    server_channel: Option<SecureChannel>,
    /// The fetched bundle: its verified bytes and their layout.
    bundle: Option<(Vec<u8>, BundleLayout)>,
}

/// The helper application plus its enclave.
pub struct Helper {
    enclave: Enclave<HelperState>,
}

impl fmt::Debug for Helper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Helper({:?})", self.enclave)
    }
}

/// What [`Helper::fetch_bundle`] reports back: the fetch time, and the
/// bundle as the enclave's checked decode describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Fetching time (Table II).
    pub fetch: SimTime,
    /// Patch identifier.
    pub id: String,
    /// Patch type flags (t1, t2, t3).
    pub types: (bool, bool, bool),
    /// Names of the patched functions, in bundle order.
    pub patched_functions: Vec<String>,
}

/// What `prepare_and_stage` reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageOutcome {
    /// Pre-processing + passing times (fetch is reported by
    /// [`Helper::fetch_bundle`]).
    pub preprocess: SimTime,
    /// Passing (encrypt + stage) time.
    pub pass: SimTime,
    /// Total plaintext payload bytes.
    pub payload_size: usize,
    /// Ciphertext bytes staged into `mem_W`.
    pub staged_size: usize,
    /// Number of package records.
    pub records: usize,
}

impl Helper {
    /// Create the helper and its enclave on the platform.
    pub fn create(platform: &mut SgxPlatform) -> Helper {
        Helper {
            enclave: platform.create_enclave(HELPER_CODE_IDENTITY, HelperState::default()),
        }
    }

    /// The enclave measurement (the patch server checks this via an
    /// attestation report before releasing patches — MITM defence,
    /// paper §V-C).
    pub fn measurement(&self) -> [u8; 32] {
        self.enclave.measurement()
    }

    /// Produce a local-attestation report binding `data` (typically the
    /// enclave's DH public) to the enclave identity. The patch server
    /// verifies this before releasing patches (paper §V-C: "KShot can
    /// verify the enclave's identity via the trusted patch server and
    /// thus mitigate the MITM attack").
    pub fn attestation(&self, platform: &SgxPlatform, data: &[u8]) -> kshot_enclave::Report {
        platform.report(&self.enclave, data)
    }

    /// Begin a DH session with the patch server; returns the enclave's
    /// public value to send to the server.
    ///
    /// # Errors
    ///
    /// [`SgxError::BadSmmPublic`] style DH failures on bad entropy.
    pub fn begin_server_session(
        &mut self,
        params: &DhParams,
        entropy: &[u8],
    ) -> Result<BigUint, SgxError> {
        let kp = DhKeyPair::from_entropy(params, entropy).map_err(SgxError::BadSmmPublic)?;
        let public = kp.public().clone();
        self.enclave.ecall(move |s| {
            // Stash the keypair via the channel-to-be; completed in
            // finish_server_session.
            s.server_channel = None;
            s.bundle = None;
            PENDING.with(|p| *p.borrow_mut() = Some(kp));
        });
        Ok(public)
    }

    /// Complete the server session with the server's public value.
    ///
    /// # Errors
    ///
    /// DH failures on degenerate publics; `NoSession` if
    /// [`Helper::begin_server_session`] was never called.
    pub fn finish_server_session(
        &mut self,
        params: &DhParams,
        server_public: &BigUint,
    ) -> Result<(), SgxError> {
        let kp = PENDING
            .with(|p| p.borrow_mut().take())
            .ok_or(SgxError::NoSession)?;
        let key = kp
            .agree(params, server_public)
            .map_err(SgxError::BadSmmPublic)?;
        self.enclave.ecall(move |s| {
            s.server_channel = Some(SecureChannel::new(key));
        });
        Ok(())
    }

    /// Stage 1 — receive the encrypted bundle frame from the server.
    ///
    /// The enclave decrypts the frame in its own buffer, then verifies
    /// the bundle there and keeps that buffer. Returns what the checked
    /// parse says the bundle is. Charges Table II "Fetching" time against
    /// the machine clock.
    ///
    /// # Errors
    ///
    /// Channel errors on tampering; wire errors on corruption that
    /// slipped past the MAC (cannot happen in practice, but handled).
    pub fn fetch_bundle(
        &mut self,
        machine: &mut Machine,
        frame: Frame,
    ) -> Result<FetchOutcome, SgxError> {
        let t0 = machine.now();
        let mut span = kshot_telemetry::span_at("sgx.fetch", t0.as_ns());
        let Frame {
            seq,
            mut ciphertext,
            mac,
        } = frame;
        let bytes = ciphertext.len();
        let cost = machine.cost().sgx_fetch.for_bytes(bytes);
        machine.charge(cost);
        let (id, types, patched_functions) = self.enclave.ecall(|s| {
            let channel = s.server_channel.as_mut().ok_or(SgxError::NoSession)?;
            channel
                .open_in_place(seq, &mut ciphertext, &mac)
                .map_err(SgxError::Channel)?;
            let bundle = BundleLayout::parse(&ciphertext).map_err(SgxError::Wire)?;
            let described = (
                bundle.id.clone(),
                (bundle.types.t1, bundle.types.t2, bundle.types.t3),
                bundle.entries.iter().map(|e| e.name.clone()).collect(),
            );
            s.bundle = Some((ciphertext, bundle));
            Ok::<_, SgxError>(described)
        })?;
        span.field("bytes", bytes);
        span.end_at(machine.now().as_ns());
        Ok(FetchOutcome {
            fetch: machine.now() - t0,
            id,
            types,
            patched_functions,
        })
    }

    /// Stages 2+3 — preprocess the fetched bundle and stage the
    /// encrypted package for the SMM handler.
    ///
    /// # Errors
    ///
    /// See [`SgxError`].
    pub fn prepare_and_stage(
        &mut self,
        machine: &mut Machine,
        reserved: &ReservedLayout,
        params: &DhParams,
        algorithm: VerificationAlgorithm,
        entropy: &[u8],
    ) -> Result<StageOutcome, SgxError> {
        let mut stage_span =
            kshot_telemetry::span_at("sgx.prepare_and_stage", machine.now().as_ns());
        // The untrusted application reads the public inputs from mem_RW.
        let next_paddr =
            machine.read_u64(AccessCtx::Kernel, reserved.rw_base + rw_offsets::NEXT_PADDR)?;
        let smm_pub_len =
            machine.read_u64(AccessCtx::Kernel, reserved.rw_base + rw_offsets::SMM_PUB)?;
        if smm_pub_len == 0 || smm_pub_len > rw_offsets::MAX_PUB {
            return Err(SgxError::BadSmmPublic(DhError::InvalidPeerPublic));
        }
        let mut smm_pub_bytes = vec![0u8; smm_pub_len as usize];
        machine.read_bytes(
            AccessCtx::Kernel,
            reserved.rw_base + rw_offsets::SMM_PUB + 8,
            &mut smm_pub_bytes,
        )?;
        let smm_public = BigUint::from_bytes_be(&smm_pub_bytes);
        // Stage 2: preprocess inside the enclave.
        let t_pre = machine.now();
        let mut pre_span = kshot_telemetry::span_at("sgx.preprocess", t_pre.as_ns());
        let x_end = reserved.x_base + reserved.x_size;
        let (mut frame_bytes, payload_size, records) = self.enclave.ecall(|s| {
            let (wire, bundle) = s.bundle.as_ref().ok_or(SgxError::NoBundle)?;
            build_package(wire, bundle, algorithm, next_paddr, x_end)
        })?;
        let pre_cost = machine.cost().sgx_preprocess.for_bytes(payload_size);
        machine.charge(pre_cost);
        let preprocess = machine.now() - t_pre;
        pre_span.field("payload_size", payload_size);
        pre_span.end_at(machine.now().as_ns());
        // Stage 3: derive the SMM session key and stage ciphertext.
        let t_pass = machine.now();
        let mut pass_span = kshot_telemetry::span_at("sgx.pass", t_pass.as_ns());
        let kp = DhKeyPair::from_entropy(params, entropy).map_err(SgxError::BadSmmPublic)?;
        let helper_public = kp.public().to_bytes_be();
        self.enclave.ecall(|_| {
            let key = kp
                .agree(params, &smm_public)
                .map_err(SgxError::BadSmmPublic)?;
            SecureChannel::new(key).seal_in_place(&mut frame_bytes);
            Ok::<_, SgxError>(())
        })?;
        if frame_bytes.len() as u64 > reserved.w_size {
            return Err(SgxError::PackageTooLarge {
                size: frame_bytes.len() as u64,
                capacity: reserved.w_size,
            });
        }
        // The untrusted application writes the public value and the
        // ciphertext into shared memory (it can: mem_RW is rw-, mem_W is
        // write-only).
        let pub_base = reserved.rw_base + rw_offsets::HELPER_PUB;
        machine.write_u64(AccessCtx::Kernel, pub_base, helper_public.len() as u64)?;
        machine.write_bytes(AccessCtx::Kernel, pub_base + 8, &helper_public)?;
        machine.write_bytes(AccessCtx::Kernel, reserved.w_base, &frame_bytes)?;
        machine.write_u64(
            AccessCtx::Kernel,
            reserved.rw_base + rw_offsets::STAGED_LEN,
            frame_bytes.len() as u64,
        )?;
        // Progress marker for DOS detection (paper §V-D).
        machine.write_u64(
            AccessCtx::Kernel,
            reserved.rw_base + rw_offsets::PROGRESS,
            1,
        )?;
        let pass_cost = machine.cost().sgx_pass.for_bytes(frame_bytes.len());
        machine.charge(pass_cost);
        let pass = machine.now() - t_pass;
        pass_span.field("staged_size", frame_bytes.len());
        pass_span.end_at(machine.now().as_ns());
        stage_span.field("records", records);
        stage_span.end_at(machine.now().as_ns());
        Ok(StageOutcome {
            preprocess,
            pass,
            payload_size,
            staged_size: frame_bytes.len(),
            records,
        })
    }
}

// The in-flight DH keypair between begin/finish of the server session.
// (An artefact of splitting one logical ECALL into two for testability;
// thread-local keeps it out of the public state.)
thread_local! {
    static PENDING: std::cell::RefCell<Option<DhKeyPair>> = const { std::cell::RefCell::new(None) };
}

/// Pure packaging logic: assign placements, resolve relocations, build
/// the Fig. 3 records. Runs inside the enclave, on the verified bundle
/// `wire`. Returns the package written once behind room for the frame
/// header (each body relocated and hashed there), its payload bytes and
/// its record count.
///
/// A merged (batched) bundle is packaged segment by segment — each
/// segment's entries, new functions, then global ops, sharing one
/// `mem_X` cursor — so a batched package places the same bodies at the
/// same addresses, in the same order, as k sequential single-CVE
/// builds would. Relocation scope is per segment: a segment's relocs
/// may only reference its own new functions.
fn build_package(
    wire: &[u8],
    bundle: &BundleLayout,
    algorithm: VerificationAlgorithm,
    mut next_paddr: u64,
    x_end: u64,
) -> Result<(Vec<u8>, usize, usize), SgxError> {
    use kshot_patchserver::bundle::{GlobalOp, PatchEntry};
    use std::ops::Range;

    struct SegSlice<'a> {
        id: &'a str,
        entries: &'a [PatchEntry<Range<usize>>],
        new_functions: &'a [PatchEntry<Range<usize>>],
        global_ops: &'a [GlobalOp<Range<usize>>],
    }

    // Assign a placement: 16-byte aligned, in order (p_i.paddr =
    // p_{i-1}.paddr + p_{i-1}.size, paper §V-C).
    fn assign(
        placements: &mut std::collections::BTreeMap<String, u64>,
        name: &str,
        size: usize,
        cursor: &mut u64,
        x_end: u64,
    ) -> Result<u64, SgxError> {
        let aligned = (*cursor + 15) & !15;
        let end = aligned + size as u64;
        if end > x_end {
            return Err(SgxError::NoSpace {
                need: end - aligned,
                have: x_end.saturating_sub(aligned),
            });
        }
        *cursor = end;
        placements.insert(name.to_string(), aligned);
        Ok(aligned)
    }

    let mut seg_slices = Vec::new();
    if bundle.segments.is_empty() {
        seg_slices.push(SegSlice {
            id: &bundle.id,
            entries: &bundle.entries,
            new_functions: &bundle.new_functions,
            global_ops: &bundle.global_ops,
        });
    } else {
        let (mut eo, mut no, mut go) = (0usize, 0usize, 0usize);
        for s in &bundle.segments {
            let e1 = eo + s.entries as usize;
            let n1 = no + s.new_functions as usize;
            let g1 = go + s.global_ops as usize;
            if e1 > bundle.entries.len()
                || n1 > bundle.new_functions.len()
                || g1 > bundle.global_ops.len()
            {
                return Err(SgxError::Wire(WireError::Truncated {
                    what: "bundle segment table",
                }));
            }
            seg_slices.push(SegSlice {
                id: &s.id,
                entries: &bundle.entries[eo..e1],
                new_functions: &bundle.new_functions[no..n1],
                global_ops: &bundle.global_ops[go..g1],
            });
            (eo, no, go) = (e1, n1, g1);
        }
        // The table must cover every record — silently dropping a
        // bundle tail would be a corrupt merge.
        if eo != bundle.entries.len()
            || no != bundle.new_functions.len()
            || go != bundle.global_ops.len()
        {
            return Err(SgxError::Wire(WireError::Truncated {
                what: "bundle segment table",
            }));
        }
    }

    let mut records = Vec::new();
    // (record, offset, rel32) per call fixup, made in the package.
    let mut fixups = Vec::new();
    let mut segments = Vec::new();
    for seg in &seg_slices {
        segments.push(crate::package::PackageSegment {
            id: seg.id.to_string(),
            first_record: records.len() as u32,
        });
        let mut placements = std::collections::BTreeMap::new();
        let mut placed = Vec::new();
        for e in seg.entries.iter().chain(seg.new_functions) {
            let paddr = assign(
                &mut placements,
                &e.name,
                e.body.len(),
                &mut next_paddr,
                x_end,
            )?;
            placed.push((e, paddr));
        }
        // Resolve relocations and build records.
        let n_entries = seg.entries.len();
        for (i, (e, paddr)) in placed.iter().enumerate() {
            for r in &e.relocs {
                let target = match &r.target {
                    RelocTarget::Absolute(a) => *a,
                    RelocTarget::NewFunction(n) => *placements
                        .get(n)
                        .ok_or_else(|| SgxError::DanglingReloc(n.clone()))?,
                };
                let at = *paddr + r.offset as u64;
                let rel = kshot_isa::rel32_for(at, target)
                    .map_err(|_| SgxError::DanglingReloc(e.name.clone()))?;
                fixups.push((records.len(), r.offset as usize, rel));
            }
            let is_new = i >= n_entries;
            let ftrace_skip = if e.ftrace_offset.is_some() {
                kshot_isa::JMP_LEN as u8
            } else {
                0
            };
            records.push(PackageRecord {
                sequence: records.len() as u32,
                op: if is_new {
                    PackageOp::PlaceOnly
                } else {
                    PackageOp::Patch
                },
                ptype: 1,
                taddr: e.taddr,
                paddr: *paddr,
                ftrace_skip,
                payload_hash: [0; 32],
                expected_pre_hash: e.expected_pre_hash,
                tsize: e.tsize as u32,
                payload: Cow::Borrowed(&wire[e.body.clone()]),
            });
        }
        for g in seg.global_ops {
            records.push(PackageRecord {
                sequence: records.len() as u32,
                op: PackageOp::GlobalWrite,
                ptype: 3,
                taddr: g.addr(),
                paddr: 0,
                ftrace_skip: 0,
                payload_hash: [0; 32],
                expected_pre_hash: [0; 32],
                tsize: 0,
                payload: Cow::Borrowed(&wire[g.bytes().clone()]),
            });
        }
    }
    // Only merged bundles carry an explicit table; single-CVE packages
    // keep the classic wire shape (one implicit segment).
    let segments = if bundle.segments.is_empty() {
        Vec::new()
    } else {
        segments
    };
    let package = PatchPackage {
        id: bundle.id.clone(),
        algorithm,
        records,
        segments,
    };
    let mut w = Writer::new();
    w.put_raw(&[0; FRAME_HEADER_LEN]);
    // Each payload is relocated, then hashed, where it was written; that
    // digest, not the records' zero placeholder, is its payload hash.
    let mut fixups = fixups.into_iter().peekable();
    let frame = package.encode_into(w, |i, payload| {
        while let Some((_, o, rel)) = fixups.next_if(|f| f.0 == i) {
            payload[o + 1..o + 5].copy_from_slice(&rel.to_le_bytes());
        }
        algorithm.digest(payload)
    });
    let frame = frame.map_err(SgxError::Wire)?;
    Ok((frame, package.payload_size(), package.records.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kshot_patchserver::bundle::{GlobalOp, PatchBundle, PatchEntry};

    /// The enclave's packaging of `bundle`'s encoding: the package read
    /// back from behind the frame header's room, and its payload bytes.
    fn build_package(
        bundle: &PatchBundle,
        algorithm: VerificationAlgorithm,
        next_paddr: u64,
        x_end: u64,
    ) -> Result<(PatchPackage<'static>, usize), SgxError> {
        let wire = bundle.encode();
        let layout = BundleLayout::parse(&wire).unwrap();
        let (frame, size, records) =
            super::build_package(&wire, &layout, algorithm, next_paddr, x_end)?;
        assert_eq!(frame[..FRAME_HEADER_LEN], [0; FRAME_HEADER_LEN]);
        // Leaked so the package can borrow its payloads for the test.
        let frame: &'static [u8] = Box::leak(frame.into_boxed_slice());
        let package = PatchPackage::decode(&frame[FRAME_HEADER_LEN..]).unwrap();
        assert_eq!(package.records.len(), records);
        Ok((package, size))
    }

    fn entry(name: &str, body_len: usize, taddr: u64) -> PatchEntry {
        PatchEntry {
            name: name.into(),
            taddr,
            tsize: 64,
            ftrace_offset: Some(0),
            expected_pre_hash: [1; 32],
            body: vec![0x90; body_len],
            relocs: vec![],
        }
    }

    #[test]
    fn placements_are_sequential_and_aligned() {
        let bundle = PatchBundle {
            id: "CVE".into(),
            kernel_version: "kv".into(),
            entries: vec![entry("a", 30, 0x10_0000), entry("b", 50, 0x10_0100)],
            ..Default::default()
        };
        let (pkg, size) = build_package(
            &bundle,
            VerificationAlgorithm::Sha256,
            0x200_0000,
            0x300_0000,
        )
        .unwrap();
        assert_eq!(size, 80);
        assert_eq!(pkg.records[0].paddr, 0x200_0000);
        // 30 bytes → next aligned slot is +32.
        assert_eq!(pkg.records[1].paddr, 0x200_0020);
        assert_eq!(pkg.records[0].ftrace_skip, 5);
    }

    #[test]
    fn new_function_relocs_resolve_to_placements() {
        let mut caller = entry("caller", 20, 0x10_0000);
        let mut body = vec![0u8; 20];
        body[0] = kshot_isa::opcodes::CALL;
        caller.body = body;
        caller.relocs = vec![kshot_patchserver::bundle::BundleReloc {
            offset: 0,
            target: RelocTarget::NewFunction("fresh".into()),
        }];
        let bundle = PatchBundle {
            id: "CVE".into(),
            kernel_version: "kv".into(),
            entries: vec![caller],
            new_functions: vec![entry("fresh", 10, 0)],
            ..Default::default()
        };
        let (pkg, _) = build_package(
            &bundle,
            VerificationAlgorithm::Sha256,
            0x200_0000,
            0x300_0000,
        )
        .unwrap();
        // fresh placed after caller (20 → aligned 32).
        let fresh_paddr = pkg.records[1].paddr;
        assert_eq!(pkg.records[1].op, PackageOp::PlaceOnly);
        let call_at = pkg.records[0].paddr;
        let rel = i32::from_le_bytes(pkg.records[0].payload[1..5].try_into().unwrap());
        assert_eq!(call_at + 5 + rel as u64, fresh_paddr);
    }

    #[test]
    fn no_space_detected() {
        let bundle = PatchBundle {
            id: "CVE".into(),
            kernel_version: "kv".into(),
            entries: vec![entry("big", 100, 0x10_0000)],
            ..Default::default()
        };
        let err = build_package(
            &bundle,
            VerificationAlgorithm::Sha256,
            0x200_0000,
            0x200_0040,
        )
        .unwrap_err();
        assert!(matches!(err, SgxError::NoSpace { .. }));
    }

    #[test]
    fn dangling_new_function_reloc_detected() {
        let mut caller = entry("caller", 20, 0x10_0000);
        caller.body[0] = kshot_isa::opcodes::CALL;
        caller.relocs = vec![kshot_patchserver::bundle::BundleReloc {
            offset: 0,
            target: RelocTarget::NewFunction("ghost".into()),
        }];
        let bundle = PatchBundle {
            id: "CVE".into(),
            kernel_version: "kv".into(),
            entries: vec![caller],
            ..Default::default()
        };
        assert!(matches!(
            build_package(
                &bundle,
                VerificationAlgorithm::Sha256,
                0x200_0000,
                0x300_0000
            ),
            Err(SgxError::DanglingReloc(_))
        ));
    }

    #[test]
    fn segmented_bundle_packages_per_segment() {
        use kshot_patchserver::bundle::BundleSegment;
        // Two segments: A = {entry a, one global}, B = {entry b}. The
        // record order must interleave per segment (a, g, b) and the
        // package segment table must mark each segment's first record.
        let bundle = PatchBundle {
            id: "BATCH(A+B)".into(),
            kernel_version: "kv".into(),
            entries: vec![entry("a", 30, 0x10_0000), entry("b", 50, 0x10_0100)],
            global_ops: vec![GlobalOp::SetBytes {
                name: "g".into(),
                addr: 0x90_0008,
                bytes: vec![1, 2],
            }],
            segments: vec![
                BundleSegment {
                    id: "A".into(),
                    entries: 1,
                    new_functions: 0,
                    global_ops: 1,
                },
                BundleSegment {
                    id: "B".into(),
                    entries: 1,
                    new_functions: 0,
                    global_ops: 0,
                },
            ],
            ..Default::default()
        };
        let (pkg, _) = build_package(
            &bundle,
            VerificationAlgorithm::Sha256,
            0x200_0000,
            0x300_0000,
        )
        .unwrap();
        assert_eq!(pkg.records.len(), 3);
        assert_eq!(pkg.records[0].op, PackageOp::Patch);
        assert_eq!(pkg.records[1].op, PackageOp::GlobalWrite);
        assert_eq!(pkg.records[2].op, PackageOp::Patch);
        // Placements share one cursor across segments: a at the base,
        // b after a's 30 bytes aligned to 32.
        assert_eq!(pkg.records[0].paddr, 0x200_0000);
        assert_eq!(pkg.records[2].paddr, 0x200_0020);
        let tab = pkg.segment_table();
        assert_eq!(tab.len(), 2);
        assert_eq!((tab[0].id.as_str(), tab[0].first_record), ("A", 0));
        assert_eq!((tab[1].id.as_str(), tab[1].first_record), ("B", 2));
    }

    #[test]
    fn segment_table_must_cover_the_whole_bundle() {
        use kshot_patchserver::bundle::BundleSegment;
        let bundle = PatchBundle {
            id: "BATCH(A)".into(),
            kernel_version: "kv".into(),
            entries: vec![entry("a", 30, 0x10_0000), entry("b", 50, 0x10_0100)],
            segments: vec![BundleSegment {
                id: "A".into(),
                entries: 1,
                new_functions: 0,
                global_ops: 0,
            }],
            ..Default::default()
        };
        assert!(matches!(
            build_package(
                &bundle,
                VerificationAlgorithm::Sha256,
                0x200_0000,
                0x300_0000
            ),
            Err(SgxError::Wire(WireError::Truncated { .. }))
        ));
    }

    #[test]
    fn global_ops_become_globalwrite_records() {
        let bundle = PatchBundle {
            id: "CVE".into(),
            kernel_version: "kv".into(),
            global_ops: vec![GlobalOp::SetBytes {
                name: "g".into(),
                addr: 0x90_0008,
                bytes: vec![1, 2, 3],
            }],
            ..Default::default()
        };
        let (pkg, size) = build_package(
            &bundle,
            VerificationAlgorithm::Sha256,
            0x200_0000,
            0x300_0000,
        )
        .unwrap();
        assert_eq!(size, 3);
        assert_eq!(pkg.records[0].op, PackageOp::GlobalWrite);
        assert_eq!(pkg.records[0].taddr, 0x90_0008);
        assert_eq!(pkg.records[0].ptype, 3);
    }
}
