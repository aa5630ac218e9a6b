//! Decoder robustness: every wire-format parser in the system consumes
//! arbitrary attacker-controlled bytes (a compromised kernel writes
//! `mem_W`; the network writes frames). None of them may panic, loop, or
//! over-allocate on garbage — only return clean errors.

use kshot_crypto::dh::SessionKey;
use kshot_patchserver::bundle::PatchBundle;
use kshot_patchserver::channel::{Frame, FrameLayout, SecureChannel};
use kshot_patchserver::wire::{Reader, WireError};
use proptest::prelude::*;

/// The frame format read field by field with the wire primitives: the
/// reference [`FrameLayout::parse`] and `Frame::decode` are checked
/// against.
fn reference_frame_decode(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(bytes);
    let seq = r.get_u64("seq")?;
    let ciphertext = r.get_bytes("ciphertext")?;
    let mut mac = [0u8; 32];
    mac.copy_from_slice(r.get_raw(32, "mac")?);
    r.finish()?;
    Ok(Frame {
        seq,
        ciphertext,
        mac,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn bundle_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = PatchBundle::decode(&bytes);
    }

    #[test]
    fn frame_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Frame::decode(&bytes);
    }

    #[test]
    fn reader_primitives_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut r = Reader::new(&bytes);
        let _ = r.get_u8("a");
        let _ = r.get_u32("b");
        let _ = r.get_u64("c");
        let _ = r.get_bytes("d");
        let _ = r.get_str("e");
        let _ = r.finish();
    }

    /// The in-place frame parse and `Frame::decode` agree with the
    /// reference on every input: well-formed frames, truncated ones,
    /// ones with trailing bytes, and ones whose ciphertext length
    /// claims more or fewer bytes than follow. Where a frame parses,
    /// opening its ciphertext in place gives what `open` gives.
    #[test]
    fn in_place_frame_parse_agrees_with_frame_decode(
        plaintext in prop::collection::vec(any::<u8>(), 0..96),
        mutation in 0u8..5,
        at in any::<prop::sample::Index>(),
        extra in prop::collection::vec(any::<u8>(), 1..8),
        delta in 1u32..64,
    ) {
        let key = SessionKey([7; 32]);
        let mut bytes = SecureChannel::new(key.clone()).seal(&plaintext).encode();
        let claimed = plaintext.len() as u32;
        match mutation {
            0 => {}
            1 => bytes.truncate(at.index(bytes.len())),
            2 => bytes.extend_from_slice(&extra),
            3 => bytes[8..12].copy_from_slice(&(claimed + delta).to_le_bytes()),
            _ => bytes[8..12].copy_from_slice(&claimed.saturating_sub(delta).to_le_bytes()),
        }
        let reference = reference_frame_decode(&bytes);
        let layout = FrameLayout::parse(&bytes);
        let via_layout = layout.clone().map(|l| Frame {
            seq: l.seq,
            ciphertext: bytes[l.ciphertext].to_vec(),
            mac: l.mac,
        });
        prop_assert_eq!(&via_layout, &reference);
        prop_assert_eq!(&Frame::decode(&bytes), &reference);
        if let (Ok(frame), Ok(layout)) = (reference, layout) {
            let opened = SecureChannel::new(key.clone()).open(&frame);
            let ciphertext = &mut bytes[layout.ciphertext];
            let in_place = SecureChannel::new(key)
                .open_in_place(layout.seq, ciphertext, &layout.mac)
                .map(|()| ciphertext.to_vec());
            prop_assert_eq!(&in_place, &opened);
            if mutation == 0 {
                prop_assert_eq!(opened.unwrap(), plaintext);
            }
        }
    }

    /// Length prefixes claiming enormous payloads must be rejected
    /// without allocating (the classic length-bomb).
    #[test]
    fn length_bombs_are_rejected(claim in 1024u32..u32::MAX) {
        let mut bytes = claim.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let mut r = Reader::new(&bytes);
        prop_assert!(r.get_bytes("payload").is_err());
    }

    /// Mutating any single byte of a valid encoded bundle must never
    /// produce a *different* successfully decoded bundle (the trailing
    /// hash covers every byte).
    #[test]
    fn bundle_bytes_are_tamper_evident(
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let bundle = PatchBundle {
            id: "CVE-2016-5195".into(),
            kernel_version: "kv-4.4".into(),
            ..Default::default()
        };
        let mut bytes = bundle.encode();
        let i = flip.index(bytes.len());
        bytes[i] ^= 1 << bit;
        if let Ok(decoded) = PatchBundle::decode(&bytes) {
            prop_assert_eq!(decoded, bundle, "silent mutation accepted");
        }
    }
}

mod isa_robustness {
    use kshot_isa::Inst;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

        /// The instruction decoder over arbitrary bytes: no panics, and
        /// any successful decode must re-encode to the exact consumed
        /// bytes (round-trip fidelity even on hostile input).
        #[test]
        fn inst_decode_total_and_faithful(bytes in prop::collection::vec(any::<u8>(), 1..16)) {
            if let Ok((inst, len)) = Inst::decode(&bytes, 0) {
                prop_assert!(len <= bytes.len());
                prop_assert_eq!(inst.encode(), &bytes[..len]);
            }
        }
    }
}

mod package_robustness {
    use std::borrow::Cow;

    use kshot_core::package::{
        PackageOp, PackageRecord, PackageSegment, PatchPackage, VerificationAlgorithm, HEADER_LEN,
    };
    use kshot_crypto::sha256::DIGEST_LEN;
    use kshot_patchserver::wire::{Reader, WireError};
    use proptest::prelude::*;

    /// The Fig. 3 format read field by field with the wire primitives,
    /// every payload copied out: the owned reference the borrowing
    /// `PatchPackage::decode` is checked against.
    fn reference_package_decode(bytes: &[u8]) -> Result<PatchPackage<'static>, WireError> {
        let mut r = Reader::new(bytes);
        let id = r.get_str("package id")?;
        let algorithm = match r.get_u8("algorithm")? {
            0 => VerificationAlgorithm::Sha256,
            1 => VerificationAlgorithm::Sdbm,
            _ => {
                return Err(WireError::BadTag {
                    what: "algorithm",
                    tag: 255,
                })
            }
        };
        let count = r.get_count("record count", HEADER_LEN + 2 * DIGEST_LEN)?;
        let mut records = Vec::new();
        for _ in 0..count {
            let h = r.get_raw(HEADER_LEN, "record header")?;
            let op = match h[4] {
                0 => PackageOp::Patch,
                1 => PackageOp::GlobalWrite,
                2 => PackageOp::PlaceOnly,
                tag => {
                    return Err(WireError::BadTag {
                        what: "package op",
                        tag,
                    })
                }
            };
            let u32_at = |i: usize| u32::from_le_bytes(h[i..i + 4].try_into().unwrap());
            let u64_at = |i: usize| u64::from_le_bytes(h[i..i + 8].try_into().unwrap());
            let payload_hash = r.get_raw(DIGEST_LEN, "payload hash")?.try_into().unwrap();
            let expected_pre_hash = r.get_raw(DIGEST_LEN, "pre hash")?.try_into().unwrap();
            let payload = r.get_raw(u32_at(22) as usize, "payload")?.to_vec();
            records.push(PackageRecord {
                sequence: u32_at(0),
                op,
                ptype: h[5],
                taddr: u64_at(6),
                paddr: u64_at(14),
                ftrace_skip: h[26],
                payload_hash,
                expected_pre_hash,
                tsize: u32_at(27),
                payload: Cow::Owned(payload),
            });
        }
        let n = r.get_count("segment count", 4 + 4)?;
        let mut segments = Vec::new();
        for _ in 0..n {
            let id = r.get_str("segment id")?;
            let first_record = r.get_u32("segment first record")?;
            segments.push(PackageSegment { id, first_record });
        }
        r.finish()?;
        Ok(PatchPackage {
            id,
            algorithm,
            records,
            segments,
        })
    }

    prop_compose! {
        fn arb_package()(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 0..4),
            ops in prop::collection::vec(0u8..3, 4),
            sdbm in any::<bool>(),
            segmented in any::<bool>(),
        ) -> PatchPackage<'static> {
            let algorithm = if sdbm {
                VerificationAlgorithm::Sdbm
            } else {
                VerificationAlgorithm::Sha256
            };
            let records = payloads
                .into_iter()
                .enumerate()
                .map(|(i, payload)| PackageRecord {
                    sequence: i as u32,
                    op: [PackageOp::Patch, PackageOp::GlobalWrite, PackageOp::PlaceOnly]
                        [ops[i] as usize],
                    ptype: 1,
                    taddr: 0x10_0000 + i as u64,
                    paddr: 0x200_0000 + 64 * i as u64,
                    ftrace_skip: 5,
                    payload_hash: algorithm.digest(&payload),
                    expected_pre_hash: [i as u8; 32],
                    tsize: 40,
                    payload: payload.into(),
                })
                .collect();
            let segments = if segmented {
                vec![PackageSegment { id: "CVE-A".into(), first_record: 0 }]
            } else {
                vec![]
            };
            PatchPackage { id: "CVE-PROP".into(), algorithm, records, segments }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn package_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = PatchPackage::decode(&bytes);
        }

        /// The borrowing decode equals the owned reference field by
        /// field, and fails with the same error, on garbage and on a
        /// package truncated, extended, or carrying a bad algorithm tag,
        /// a bad op tag or a flipped byte.
        #[test]
        fn borrowed_package_decode_equals_the_owned_reference(
            garbage in prop::collection::vec(any::<u8>(), 0..512),
            package in arb_package(),
            mutation in 0u8..6,
            at in any::<prop::sample::Index>(),
            tag in 3u8..=255,
        ) {
            prop_assert_eq!(PatchPackage::decode(&garbage), reference_package_decode(&garbage));
            let mut bytes = package.encode();
            // id (4 + 8 bytes) then the algorithm, the count and record 0.
            let (alg_at, op_at) = (12, 12 + 1 + 4 + 4);
            match mutation {
                0 => {}
                1 => bytes.truncate(at.index(bytes.len())),
                2 => bytes.push(tag),
                3 => bytes[alg_at] = tag,
                4 if !package.records.is_empty() => bytes[op_at] = tag,
                _ => {
                    let i = at.index(bytes.len());
                    bytes[i] ^= tag;
                }
            }
            let decoded = PatchPackage::decode(&bytes);
            prop_assert_eq!(&decoded, &reference_package_decode(&bytes));
            if mutation == 0 {
                prop_assert_eq!(decoded.unwrap(), package);
            }
        }
    }
}

mod bundle_layout {
    use std::ops::Range;

    use kshot_crypto::sha256::{sha256, DIGEST_LEN};
    use kshot_patchserver::bundle::{
        BundleLayout, BundleReloc, BundleSegment, GlobalOp, PatchBundle, PatchEntry, RelocTarget,
    };
    use proptest::prelude::*;

    /// The layout with each body copied out of the bytes it lays out.
    fn owned(layout: BundleLayout, bytes: &[u8]) -> PatchBundle {
        let entry = |e: PatchEntry<Range<usize>>| PatchEntry {
            name: e.name,
            taddr: e.taddr,
            tsize: e.tsize,
            ftrace_offset: e.ftrace_offset,
            expected_pre_hash: e.expected_pre_hash,
            body: bytes[e.body].to_vec(),
            relocs: e.relocs,
        };
        PatchBundle {
            id: layout.id,
            kernel_version: layout.kernel_version,
            entries: layout.entries.into_iter().map(entry).collect(),
            new_functions: layout.new_functions.into_iter().map(entry).collect(),
            global_ops: layout
                .global_ops
                .into_iter()
                .map(|g| match g {
                    GlobalOp::SetBytes {
                        name,
                        addr,
                        bytes: b,
                    } => GlobalOp::SetBytes {
                        name,
                        addr,
                        bytes: bytes[b].to_vec(),
                    },
                    GlobalOp::InitBytes {
                        name,
                        addr,
                        bytes: b,
                    } => GlobalOp::InitBytes {
                        name,
                        addr,
                        bytes: bytes[b].to_vec(),
                    },
                })
                .collect(),
            types: layout.types,
            segments: layout.segments,
        }
    }

    fn entry(name: &str, body: Vec<u8>, relocs: usize) -> PatchEntry {
        PatchEntry {
            name: name.into(),
            taddr: 0x10_0040,
            tsize: 64,
            ftrace_offset: Some(0),
            expected_pre_hash: sha256(name.as_bytes()),
            body,
            relocs: (0..relocs)
                .map(|i| BundleReloc {
                    offset: 5 * i as u32,
                    target: if i % 2 == 0 {
                        RelocTarget::Absolute(0x10_2000)
                    } else {
                        RelocTarget::NewFunction("fresh".into())
                    },
                })
                .collect(),
        }
    }

    prop_compose! {
        fn arb_bundle()(
            bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..4),
            global in prop::collection::vec(any::<u8>(), 0..24),
            relocs in 0usize..3,
            segmented in any::<bool>(),
        ) -> PatchBundle {
            let n = bodies.len();
            PatchBundle {
                id: "CVE-PROP".into(),
                kernel_version: "kv-4.4".into(),
                entries: bodies
                    .into_iter()
                    .enumerate()
                    .map(|(i, b)| entry(&format!("f{i}"), b, relocs))
                    .collect(),
                new_functions: vec![entry("fresh", vec![0xC3], 0)],
                global_ops: vec![
                    GlobalOp::SetBytes { name: "g".into(), addr: 0x90_0010, bytes: global },
                    GlobalOp::InitBytes { name: "h".into(), addr: 0x90_0100, bytes: vec![0; 8] },
                ],
                segments: if segmented {
                    vec![BundleSegment {
                        id: "CVE-A".into(),
                        entries: n as u32,
                        new_functions: 1,
                        global_ops: 2,
                    }]
                } else {
                    vec![]
                },
                ..Default::default()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The enclave's layout parse accepts exactly what
        /// `PatchBundle::decode` accepts, fails with the same error, and
        /// lays out the bodies decode copies. Mutated bundles get a fresh
        /// trailer hash, so the parse reaches their structure: truncated,
        /// extended, or with one byte changed (tags, counts, lengths).
        #[test]
        fn bundle_layout_parse_rejects_what_decode_rejects(
            garbage in prop::collection::vec(any::<u8>(), 0..512),
            bundle in arb_bundle(),
            mutation in 0u8..4,
            at in any::<prop::sample::Index>(),
            byte in any::<u8>(),
        ) {
            let layout = BundleLayout::parse(&garbage).map(|l| owned(l, &garbage));
            prop_assert_eq!(layout, PatchBundle::decode(&garbage));
            let mut bytes = bundle.encode();
            bytes.truncate(bytes.len() - DIGEST_LEN);
            match mutation {
                0 => {}
                1 => bytes.truncate(at.index(bytes.len())),
                2 => bytes.push(byte),
                _ => {
                    let i = at.index(bytes.len());
                    bytes[i] = byte;
                }
            }
            let trailer = sha256(&bytes);
            bytes.extend_from_slice(&trailer);
            let decoded = PatchBundle::decode(&bytes);
            let layout = BundleLayout::parse(&bytes).map(|l| owned(l, &bytes));
            prop_assert_eq!(&layout, &decoded);
            if mutation == 0 {
                prop_assert_eq!(decoded.unwrap(), bundle);
            }
        }
    }
}
