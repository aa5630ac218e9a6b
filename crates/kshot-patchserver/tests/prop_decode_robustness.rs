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
    use kshot_core::package::PatchPackage;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn package_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = PatchPackage::decode(&bytes);
        }
    }
}
