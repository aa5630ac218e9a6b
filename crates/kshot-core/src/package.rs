//! The SGX→SMM patch package (paper Fig. 3).
//!
//! Each record carries a fixed 42-byte header — `{sequence, opt, type,
//! taddr, paddr, size, …}` exactly as Fig. 3 sketches (§VI-C3 confirms
//! "each function requires 42 bytes of header data in the transmitted
//! patch package") — followed by the payload hash, the expected hash of
//! the *target's current bytes* (so SMM can refuse to patch a diverged
//! kernel), and the payload itself.

use std::borrow::Cow;

use kshot_crypto::sdbm::sdbm;
use kshot_crypto::sha256::{sha256, DIGEST_LEN};
use kshot_patchserver::wire::{Reader, WireError, Writer};

/// Fixed header length per record (paper §VI-C3).
pub const HEADER_LEN: usize = 42;

/// The operation a record requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackageOp {
    /// Place `payload` at `paddr` in `mem_X` and install a trampoline at
    /// `taddr` (+ ftrace skip).
    Patch = 0,
    /// Write `payload` at `taddr` in the kernel data segment (Type 3
    /// global edit).
    GlobalWrite = 1,
    /// Place `payload` at `paddr` with **no** trampoline (a function
    /// newly added by the patch).
    PlaceOnly = 2,
}

impl PackageOp {
    fn from_u8(v: u8) -> Option<PackageOp> {
        match v {
            0 => Some(PackageOp::Patch),
            1 => Some(PackageOp::GlobalWrite),
            2 => Some(PackageOp::PlaceOnly),
            _ => None,
        }
    }
}

/// Which hash verifies payloads — SHA-256 per the paper, or the cheaper
/// SDBM the paper suggests as an optimisation (§VI-C2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerificationAlgorithm {
    /// SHA-256 (default; collision resistant).
    #[default]
    Sha256 = 0,
    /// SDBM (fast, *not* collision resistant — opt-in ablation only).
    Sdbm = 1,
}

impl VerificationAlgorithm {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(VerificationAlgorithm::Sha256),
            1 => Some(VerificationAlgorithm::Sdbm),
            _ => None,
        }
    }

    /// Hash `data` into a 32-byte field (SDBM fills the first 8 bytes).
    pub fn digest(self, data: &[u8]) -> [u8; DIGEST_LEN] {
        match self {
            VerificationAlgorithm::Sha256 => sha256(data),
            VerificationAlgorithm::Sdbm => {
                let mut out = [0u8; DIGEST_LEN];
                out[..8].copy_from_slice(&sdbm(data).to_le_bytes());
                out
            }
        }
    }
}

/// One record of the package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageRecord<'a> {
    /// Position in the package (the paper's `sequence`).
    pub sequence: u32,
    /// Operation.
    pub op: PackageOp,
    /// Patch type tag (1/2/3) for logging.
    pub ptype: u8,
    /// Target address: function entry (Patch), data address
    /// (GlobalWrite), unused (PlaceOnly).
    pub taddr: u64,
    /// Placement address in `mem_X` (Patch/PlaceOnly).
    pub paddr: u64,
    /// Bytes to skip at `taddr` before the trampoline — 5 when the
    /// target has an ftrace pad, 0 otherwise (paper §V-A).
    pub ftrace_skip: u8,
    /// Hash of `payload` under the package's verification algorithm.
    pub payload_hash: [u8; DIGEST_LEN],
    /// Expected hash of the target's *current* bytes (`tsize` bytes at
    /// `taddr`); all-zero to skip the check (GlobalWrite/PlaceOnly).
    pub expected_pre_hash: [u8; DIGEST_LEN],
    /// Size of the target's current body (for the pre-hash check).
    pub tsize: u32,
    /// The patch body or data bytes (borrowed when decoded).
    pub payload: Cow<'a, [u8]>,
}

impl PackageRecord<'_> {
    /// Verify the payload hash.
    pub fn verify_payload(&self, alg: VerificationAlgorithm) -> bool {
        alg.digest(&self.payload) == self.payload_hash
    }
}

/// One per-CVE segment of a (possibly batched) package: the patch id
/// and the index of its first record. Segments partition `records` in
/// order; segment `i` covers `first_record..next.first_record` (the
/// last runs to the end). The SMM handler journals each segment as its
/// own crash-consistency unit, so recovery after a mid-batch fault
/// preserves completed segments and unwinds only the interrupted one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageSegment {
    /// Patch identifier of this segment (the real CVE id, not the
    /// merged `BATCH(...)` envelope id).
    pub id: String,
    /// Index into `records` of this segment's first record.
    pub first_record: u32,
}

/// A complete package: records plus the verification algorithm tag.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PatchPackage<'a> {
    /// Patch identifier (CVE string).
    pub id: String,
    /// Hash algorithm for payload verification.
    pub algorithm: VerificationAlgorithm,
    /// Records in application order.
    pub records: Vec<PackageRecord<'a>>,
    /// Per-CVE segment table for batched packages. Empty means the
    /// package is one implicit segment carrying `id` — the single-patch
    /// wire shape every pre-batching package has.
    pub segments: Vec<PackageSegment>,
}

impl<'a> PatchPackage<'a> {
    /// Total payload bytes (the "patch size" of Tables II/III).
    pub fn payload_size(&self) -> usize {
        self.records.iter().map(|r| r.payload.len()).sum()
    }

    /// The effective segment table: the explicit one for batched
    /// packages, or one implicit segment covering every record for the
    /// classic single-patch shape.
    pub fn segment_table(&self) -> Vec<PackageSegment> {
        if self.segments.is_empty() {
            vec![PackageSegment {
                id: self.id.clone(),
                first_record: 0,
            }]
        } else {
            self.segments.clone()
        }
    }

    /// Serialize.
    ///
    /// # Panics
    ///
    /// If a field exceeds the `u32` length-prefix range — see
    /// [`PatchPackage::encode_into`] for the fallible form.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(Writer::new(), |i, _| self.records[i].payload_hash)
            .expect("package fields fit the wire format")
    }

    /// Append the encoding to `w`'s bytes, rejecting fields too large for
    /// the wire format. Record `i`'s payload hash is `finish(i, payload)`,
    /// which sees the payload where it lies and may rewrite it there.
    pub fn encode_into(
        &self,
        mut w: Writer,
        mut finish: impl FnMut(usize, &mut [u8]) -> [u8; DIGEST_LEN],
    ) -> Result<Vec<u8>, WireError> {
        w.put_str(&self.id);
        w.put_u8(self.algorithm as u8);
        w.put_u32(self.records.len() as u32);
        for (i, r) in self.records.iter().enumerate() {
            // 42-byte fixed header.
            let mut header = [0u8; HEADER_LEN];
            header[0..4].copy_from_slice(&r.sequence.to_le_bytes());
            header[4] = r.op as u8;
            header[5] = r.ptype;
            header[6..14].copy_from_slice(&r.taddr.to_le_bytes());
            header[14..22].copy_from_slice(&r.paddr.to_le_bytes());
            // The payload length lives in a fixed u32 header slot, not a
            // writer-managed prefix, so the same oversize check applies
            // here by hand.
            let payload_len = u32::try_from(r.payload.len()).map_err(|_| WireError::Oversize {
                len: r.payload.len(),
            })?;
            header[22..26].copy_from_slice(&payload_len.to_le_bytes());
            header[26] = r.ftrace_skip;
            header[27..31].copy_from_slice(&r.tsize.to_le_bytes());
            // header[31..42] reserved; then a slot for the payload hash.
            w.put_raw(&header)
                .put_raw(&[0; DIGEST_LEN])
                .put_raw(&r.expected_pre_hash)
                .put_raw(&r.payload);
            if w.error().is_none() {
                let at = w.len() - r.payload.len();
                let buf = w.bytes_mut();
                let hash = finish(i, &mut buf[at..]);
                buf[at - 2 * DIGEST_LEN..at - DIGEST_LEN].copy_from_slice(&hash);
            }
        }
        // Segment table (count 0 for the implicit single-segment shape).
        w.put_u32(self.segments.len() as u32);
        for s in &self.segments {
            w.put_str(&s.id);
            w.put_u32(s.first_record);
        }
        w.into_bytes()
    }

    /// Deserialize. Each record's payload borrows from `bytes`.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed bytes.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let id = r.get_str("package id")?;
        let algorithm =
            VerificationAlgorithm::from_u8(r.get_u8("algorithm")?).ok_or(WireError::BadTag {
                what: "algorithm",
                tag: 255,
            })?;
        // Minimum record footprint: fixed header plus the two digests.
        let count = r.get_count("record count", HEADER_LEN + 2 * DIGEST_LEN)?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let header = r.get_raw(HEADER_LEN, "record header")?;
            let sequence = u32::from_le_bytes(header[0..4].try_into().expect("4"));
            let op = PackageOp::from_u8(header[4]).ok_or(WireError::BadTag {
                what: "package op",
                tag: header[4],
            })?;
            let ptype = header[5];
            let taddr = u64::from_le_bytes(header[6..14].try_into().expect("8"));
            let paddr = u64::from_le_bytes(header[14..22].try_into().expect("8"));
            let size = u32::from_le_bytes(header[22..26].try_into().expect("4"));
            let ftrace_skip = header[26];
            let tsize = u32::from_le_bytes(header[27..31].try_into().expect("4"));
            let mut payload_hash = [0u8; DIGEST_LEN];
            payload_hash.copy_from_slice(r.get_raw(DIGEST_LEN, "payload hash")?);
            let mut expected_pre_hash = [0u8; DIGEST_LEN];
            expected_pre_hash.copy_from_slice(r.get_raw(DIGEST_LEN, "pre hash")?);
            let payload = Cow::Borrowed(r.get_raw(size as usize, "payload")?);
            records.push(PackageRecord {
                sequence,
                op,
                ptype,
                taddr,
                paddr,
                ftrace_skip,
                payload_hash,
                expected_pre_hash,
                tsize,
                payload,
            });
        }
        // Minimum segment footprint: id prefix + first_record.
        let n = r.get_count("segment count", 4 + 4)?;
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.get_str("segment id")?;
            let first_record = r.get_u32("segment first record")?;
            segments.push(PackageSegment { id, first_record });
        }
        r.finish()?;
        Ok(Self {
            id,
            algorithm,
            records,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u32, op: PackageOp, payload: Vec<u8>) -> PackageRecord<'static> {
        let alg = VerificationAlgorithm::Sha256;
        PackageRecord {
            sequence: seq,
            op,
            ptype: 1,
            taddr: 0x10_0040,
            paddr: 0x0200_0000,
            ftrace_skip: 5,
            payload_hash: alg.digest(&payload),
            expected_pre_hash: sha256(b"pre"),
            tsize: 77,
            payload: payload.into(),
        }
    }

    fn package() -> PatchPackage<'static> {
        PatchPackage {
            id: "CVE-2016-5195".into(),
            algorithm: VerificationAlgorithm::Sha256,
            records: vec![
                record(0, PackageOp::Patch, vec![1, 2, 3, 4]),
                record(1, PackageOp::GlobalWrite, vec![9; 16]),
                record(2, PackageOp::PlaceOnly, vec![0xC3]),
            ],
            segments: vec![],
        }
    }

    #[test]
    fn header_is_42_bytes() {
        assert_eq!(HEADER_LEN, 42, "paper §VI-C3");
    }

    #[test]
    fn roundtrip() {
        let p = package();
        let bytes = p.encode();
        assert_eq!(PatchPackage::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn payload_and_wire_sizes() {
        let p = package();
        assert_eq!(p.payload_size(), 4 + 16 + 1);
        // wire = id-prefix + id + alg + count + 3*(42+32+32) + payloads
        //        + segment count
        assert_eq!(
            p.encode().len(),
            4 + 13 + 1 + 4 + 3 * (42 + 32 + 32) + p.payload_size() + 4
        );
    }

    #[test]
    fn segmented_package_roundtrips() {
        let mut p = package();
        p.id = "BATCH(CVE-A+CVE-B)".into();
        p.segments = vec![
            PackageSegment {
                id: "CVE-A".into(),
                first_record: 0,
            },
            PackageSegment {
                id: "CVE-B".into(),
                first_record: 2,
            },
        ];
        let bytes = p.encode();
        let back = PatchPackage::decode(&bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.segment_table(), p.segments);
    }

    #[test]
    fn implicit_segment_table_covers_the_whole_package() {
        let p = package();
        let tab = p.segment_table();
        assert_eq!(tab.len(), 1);
        assert_eq!(tab[0].id, p.id);
        assert_eq!(tab[0].first_record, 0);
    }

    #[test]
    fn payload_verification_sha256() {
        let p = package();
        for r in &p.records {
            assert!(r.verify_payload(VerificationAlgorithm::Sha256));
            assert!(!r.verify_payload(VerificationAlgorithm::Sdbm));
        }
        let mut bad = p.records[0].clone();
        bad.payload.to_mut()[0] ^= 1;
        assert!(!bad.verify_payload(VerificationAlgorithm::Sha256));
    }

    #[test]
    fn payload_verification_sdbm() {
        let alg = VerificationAlgorithm::Sdbm;
        let payload = vec![5u8; 100];
        let r = PackageRecord {
            payload_hash: alg.digest(&payload),
            ..record(0, PackageOp::Patch, payload)
        };
        assert!(r.verify_payload(alg));
    }

    #[test]
    fn truncation_and_bad_tags_detected() {
        let bytes = package().encode();
        assert!(PatchPackage::decode(&bytes[..bytes.len() - 2]).is_err());
        assert!(PatchPackage::decode(&bytes[..8]).is_err());
        // Corrupt the op byte of record 0 to an invalid tag.
        let mut corrupt = bytes.clone();
        // id(4+13) + alg(1) + count(4) → header starts at 22; op at +4.
        corrupt[22 + 4] = 9;
        assert!(matches!(
            PatchPackage::decode(&corrupt),
            Err(WireError::BadTag {
                what: "package op",
                ..
            })
        ));
    }

    #[test]
    fn empty_package_roundtrips() {
        let p = PatchPackage {
            id: "x".into(),
            ..Default::default()
        };
        assert_eq!(PatchPackage::decode(&p.encode()).unwrap(), p);
        assert_eq!(p.payload_size(), 0);
    }
}
