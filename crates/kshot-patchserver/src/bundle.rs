//! The binary patch bundle: what the server ships to the SGX enclave.

use std::ops::Range;

use kshot_crypto::sha256::{sha256, DIGEST_LEN};

use crate::wire::{Reader, WireError, Writer};

/// Where a relocated call should land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelocTarget {
    /// An address in the running (pre-patch) kernel — calls to existing
    /// functions always go through the original entry, so trampolines
    /// chain naturally when the callee is itself patched.
    Absolute(u64),
    /// A function newly added by this patch, placed in `mem_X`; the SGX
    /// preprocessor resolves the address once placements are assigned.
    NewFunction(String),
}

/// One call-site fixup in a patch body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleReloc {
    /// Offset of the `call` instruction within the body.
    pub offset: u32,
    /// Target.
    pub target: RelocTarget,
}

/// One patched function (`B`: the body, or its range in a [`BundleLayout`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchEntry<B = Vec<u8>> {
    /// Function name.
    pub name: String,
    /// Entry address of the vulnerable function in the running kernel
    /// (the paper's `taddr`).
    pub taddr: u64,
    /// Size of the running function's body.
    pub tsize: u64,
    /// Offset of the running function's ftrace pad, if any — the
    /// trampoline must be installed after it (paper §V-A).
    pub ftrace_offset: Option<u64>,
    /// SHA-256 of the running function's expected bytes; the SMM handler
    /// verifies the target before redirecting it.
    pub expected_pre_hash: [u8; DIGEST_LEN],
    /// The patched body (ftrace pad stripped, call rel32s zeroed).
    pub body: B,
    /// Call fixups.
    pub relocs: Vec<BundleReloc>,
}

/// A global-data operation (Type 3 support, paper §V-C step 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalOp<B = Vec<u8>> {
    /// Overwrite bytes of an existing global (value/type change).
    SetBytes {
        /// Symbol name (for logs).
        name: String,
        /// Physical address in the kernel data segment.
        addr: u64,
        /// Replacement bytes.
        bytes: B,
    },
    /// Initialize storage for a global added by the patch (fresh,
    /// append-only space in the data segment).
    InitBytes {
        /// Symbol name.
        name: String,
        /// Physical address.
        addr: u64,
        /// Initial bytes.
        bytes: B,
    },
}

impl<B> GlobalOp<B> {
    /// The affected address.
    pub fn addr(&self) -> u64 {
        match self {
            GlobalOp::SetBytes { addr, .. } | GlobalOp::InitBytes { addr, .. } => *addr,
        }
    }

    /// The bytes written.
    pub fn bytes(&self) -> &B {
        match self {
            GlobalOp::SetBytes { bytes, .. } | GlobalOp::InitBytes { bytes, .. } => bytes,
        }
    }
}

/// Patch types, mirrored from `kshot-analysis` for wire transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BundleTypes {
    /// Type 1 present.
    pub t1: bool,
    /// Type 2 present.
    pub t2: bool,
    /// Type 3 present.
    pub t3: bool,
}

/// One per-CVE slice of a merged (batched) bundle: its own patch id and
/// how many of the flattened `entries`/`new_functions`/`global_ops` it
/// contributed. Segments partition each list in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleSegment {
    /// The segment's own patch id (the real CVE, not the merged
    /// `BATCH(...)` envelope id).
    pub id: String,
    /// Entries this segment contributed.
    pub entries: u32,
    /// New functions this segment contributed.
    pub new_functions: u32,
    /// Global ops this segment contributed.
    pub global_ops: u32,
}

/// The complete patch artefact for one CVE.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PatchBundle<B = Vec<u8>> {
    /// Patch identifier (CVE number).
    pub id: String,
    /// Kernel version the bundle was built for.
    pub kernel_version: String,
    /// Patched existing functions (sorted by name; applied in order).
    pub entries: Vec<PatchEntry<B>>,
    /// Functions newly added by the patch (placed in `mem_X` but with no
    /// trampoline target of their own).
    pub new_functions: Vec<PatchEntry<B>>,
    /// Global data operations.
    pub global_ops: Vec<GlobalOp<B>>,
    /// Classification.
    pub types: BundleTypes,
    /// Per-CVE segment table for merged (batched) bundles. Empty means
    /// the bundle is one implicit segment carrying `id` — the classic
    /// single-CVE shape. The SGX preprocessor turns this into the
    /// package's segment table so SMM journals each CVE as its own
    /// crash-consistency unit.
    pub segments: Vec<BundleSegment>,
}

impl PatchBundle {
    /// Serialize to wire bytes (integrity hash appended).
    ///
    /// # Panics
    ///
    /// If any field exceeds the `u32` length-prefix range — see
    /// [`PatchBundle::try_encode`] for the fallible form used on paths
    /// that carry attacker- or fleet-sized payloads.
    pub fn encode(&self) -> Vec<u8> {
        self.try_encode()
            .expect("bundle fields fit the wire format")
    }

    /// Serialize to wire bytes (integrity hash appended), rejecting
    /// fields too large for their `u32` length prefix instead of
    /// truncating them.
    pub fn try_encode(&self) -> Result<Vec<u8>, WireError> {
        let mut w = Writer::new();
        w.put_str(&self.id).put_str(&self.kernel_version);
        w.put_u8(self.types.t1 as u8)
            .put_u8(self.types.t2 as u8)
            .put_u8(self.types.t3 as u8);
        for list in [&self.entries, &self.new_functions] {
            w.put_u32(list.len() as u32);
            for e in list {
                encode_entry(&mut w, e);
            }
        }
        w.put_u32(self.global_ops.len() as u32);
        for g in &self.global_ops {
            match g {
                GlobalOp::SetBytes { name, addr, bytes } => {
                    w.put_u8(0).put_str(name).put_u64(*addr).put_bytes(bytes);
                }
                GlobalOp::InitBytes { name, addr, bytes } => {
                    w.put_u8(1).put_str(name).put_u64(*addr).put_bytes(bytes);
                }
            }
        }
        w.put_u32(self.segments.len() as u32);
        for s in &self.segments {
            w.put_str(&s.id)
                .put_u32(s.entries)
                .put_u32(s.new_functions)
                .put_u32(s.global_ops);
        }
        // Trailing integrity hash over everything prior (paper: "we
        // verify the integrity of the received patch to guard against
        // network transmission errors").
        let mut out = w.into_bytes()?;
        let digest = sha256(&out);
        out.extend_from_slice(&digest);
        Ok(out)
    }

    /// The id an encoded bundle names in its first field, read without
    /// verifying anything else: a label for telemetry ahead of the
    /// checked [`PatchBundle::decode`].
    pub fn peek_id(bytes: &[u8]) -> Option<String> {
        Reader::new(bytes).get_str("id").ok()
    }

    /// Deserialize from wire bytes, verifying the integrity hash.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed input, including a special
    /// `BadTag { what: "integrity" }` when the trailing hash mismatches.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        PatchBundle::parse_with(bytes, |body| bytes[body].to_vec())
    }
}

/// A bundle whose bodies are the ranges they occupy in its encoding.
pub type BundleLayout = PatchBundle<Range<usize>>;

impl BundleLayout {
    /// Parse `bytes` with [`PatchBundle::decode`]'s checks and errors,
    /// copying no body.
    pub fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        PatchBundle::parse_with(bytes, |body| body)
    }
}

impl<B> PatchBundle<B> {
    /// The one bundle parser, making each body's range in `bytes` a `B`.
    fn parse_with(bytes: &[u8], body: impl Fn(Range<usize>) -> B) -> Result<Self, WireError> {
        if bytes.len() < DIGEST_LEN {
            return Err(WireError::Truncated { what: "bundle" });
        }
        let (payload, hash) = bytes.split_at(bytes.len() - DIGEST_LEN);
        if sha256(payload) != *hash {
            return Err(WireError::BadTag {
                what: "integrity",
                tag: 0,
            });
        }
        let mut r = Reader::new(payload);
        let id = r.get_str("id")?;
        let kernel_version = r.get_str("kernel_version")?;
        let types = BundleTypes {
            t1: r.get_u8("t1")? != 0,
            t2: r.get_u8("t2")? != 0,
            t3: r.get_u8("t3")? != 0,
        };
        let mut lists: [Vec<PatchEntry<B>>; 2] = [Vec::new(), Vec::new()];
        for list in &mut lists {
            // Minimum entry footprint: four length prefixes, three u64
            // fields, the ftrace flag, and the 32-byte pre-hash.
            let n = r.get_count("entry count", 4 + 8 + 8 + 1 + 8 + 32 + 4 + 4)?;
            list.reserve(n);
            for _ in 0..n {
                list.push(decode_entry(&mut r, &body)?);
            }
        }
        let [entries, new_functions] = lists;
        // Minimum op footprint: tag, name prefix, addr, bytes prefix.
        let n = r.get_count("global op count", 1 + 4 + 8 + 4)?;
        let mut global_ops = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = r.get_u8("global op tag")?;
            let name = r.get_str("global name")?;
            let addr = r.get_u64("global addr")?;
            let bytes = body(r.get_bytes_range("global bytes")?);
            global_ops.push(match tag {
                0 => GlobalOp::SetBytes { name, addr, bytes },
                1 => GlobalOp::InitBytes { name, addr, bytes },
                tag => {
                    return Err(WireError::BadTag {
                        what: "global op",
                        tag,
                    })
                }
            });
        }
        // Minimum segment footprint: id prefix + three u32 counts.
        let n = r.get_count("segment count", 4 + 4 + 4 + 4)?;
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            segments.push(BundleSegment {
                id: r.get_str("segment id")?,
                entries: r.get_u32("segment entries")?,
                new_functions: r.get_u32("segment new functions")?,
                global_ops: r.get_u32("segment global ops")?,
            });
        }
        r.finish()?;
        Ok(Self {
            id,
            kernel_version,
            entries,
            new_functions,
            global_ops,
            types,
            segments,
        })
    }
}

fn encode_entry(w: &mut Writer, e: &PatchEntry) {
    w.put_str(&e.name)
        .put_u64(e.taddr)
        .put_u64(e.tsize)
        .put_u8(e.ftrace_offset.is_some() as u8)
        .put_u64(e.ftrace_offset.unwrap_or(0))
        .put_raw(&e.expected_pre_hash)
        .put_bytes(&e.body)
        .put_u32(e.relocs.len() as u32);
    for r in &e.relocs {
        w.put_u32(r.offset);
        match &r.target {
            RelocTarget::Absolute(a) => {
                w.put_u8(0).put_u64(*a);
            }
            RelocTarget::NewFunction(n) => {
                w.put_u8(1).put_str(n);
            }
        }
    }
}

fn decode_entry<B>(
    r: &mut Reader<'_>,
    body: impl Fn(Range<usize>) -> B,
) -> Result<PatchEntry<B>, WireError> {
    let name = r.get_str("entry name")?;
    let taddr = r.get_u64("taddr")?;
    let tsize = r.get_u64("tsize")?;
    let has_ftrace = r.get_u8("ftrace flag")? != 0;
    let ftrace_raw = r.get_u64("ftrace offset")?;
    let mut expected_pre_hash = [0u8; DIGEST_LEN];
    expected_pre_hash.copy_from_slice(r.get_raw(DIGEST_LEN, "pre hash")?);
    let body = body(r.get_bytes_range("body")?);
    // Minimum reloc footprint: offset, tag, and a name-prefix target.
    let n = r.get_count("reloc count", 4 + 1 + 4)?;
    let mut relocs = Vec::with_capacity(n);
    for _ in 0..n {
        let offset = r.get_u32("reloc offset")?;
        let tag = r.get_u8("reloc tag")?;
        let target = match tag {
            0 => RelocTarget::Absolute(r.get_u64("reloc addr")?),
            1 => RelocTarget::NewFunction(r.get_str("reloc name")?),
            tag => return Err(WireError::BadTag { what: "reloc", tag }),
        };
        relocs.push(BundleReloc { offset, target });
    }
    Ok(PatchEntry {
        name,
        taddr,
        tsize,
        ftrace_offset: has_ftrace.then_some(ftrace_raw),
        expected_pre_hash,
        body,
        relocs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> PatchBundle {
        PatchBundle {
            id: "CVE-2017-17806".into(),
            kernel_version: "kv-4.4".into(),
            entries: vec![PatchEntry {
                name: "hmac_create".into(),
                taddr: 0x10_0040,
                tsize: 120,
                ftrace_offset: Some(0),
                expected_pre_hash: sha256(b"pre body"),
                body: vec![0x90, 0xC3],
                relocs: vec![
                    BundleReloc {
                        offset: 0,
                        target: RelocTarget::Absolute(0x10_2000),
                    },
                    BundleReloc {
                        offset: 9,
                        target: RelocTarget::NewFunction("helper_new".into()),
                    },
                ],
            }],
            new_functions: vec![PatchEntry {
                name: "helper_new".into(),
                taddr: 0,
                tsize: 0,
                ftrace_offset: None,
                expected_pre_hash: [0; 32],
                body: vec![0xC3],
                relocs: vec![],
            }],
            global_ops: vec![
                GlobalOp::SetBytes {
                    name: "limit".into(),
                    addr: 0x90_0010,
                    bytes: vec![1, 2, 3, 4, 5, 6, 7, 8],
                },
                GlobalOp::InitBytes {
                    name: "fresh".into(),
                    addr: 0x90_0100,
                    bytes: vec![0; 16],
                },
            ],
            types: BundleTypes {
                t1: true,
                t2: true,
                t3: true,
            },
            segments: vec![],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let b = sample_bundle();
        let bytes = b.encode();
        let back = PatchBundle::decode(&bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn empty_bundle_roundtrip() {
        let b = PatchBundle {
            id: "x".into(),
            kernel_version: "v".into(),
            ..Default::default()
        };
        assert_eq!(PatchBundle::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn segmented_bundle_roundtrips() {
        let mut b = sample_bundle();
        b.id = "BATCH(CVE-A+CVE-B)".into();
        b.segments = vec![
            BundleSegment {
                id: "CVE-A".into(),
                entries: 1,
                new_functions: 1,
                global_ops: 0,
            },
            BundleSegment {
                id: "CVE-B".into(),
                entries: 0,
                new_functions: 0,
                global_ops: 2,
            },
        ];
        let back = PatchBundle::decode(&b.encode()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn corruption_detected_by_integrity_hash() {
        let mut bytes = sample_bundle().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            PatchBundle::decode(&bytes),
            Err(WireError::BadTag {
                what: "integrity",
                ..
            })
        ));
    }

    #[test]
    fn peek_id_reads_the_first_field() {
        let bytes = sample_bundle().encode();
        assert_eq!(
            PatchBundle::peek_id(&bytes).as_deref(),
            Some("CVE-2017-17806")
        );
        assert_eq!(PatchBundle::peek_id(&bytes[..6]), None);
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample_bundle().encode();
        assert!(PatchBundle::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(PatchBundle::decode(&bytes[..10]).is_err());
        assert!(PatchBundle::decode(&[]).is_err());
    }

    #[test]
    fn global_op_accessors() {
        let b = sample_bundle();
        assert_eq!(b.global_ops[0].addr(), 0x90_0010);
        assert_eq!(b.global_ops[1].bytes().len(), 16);
    }
}
