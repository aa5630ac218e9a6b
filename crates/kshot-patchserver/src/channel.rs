//! The encrypted, authenticated, replay-protected transport between the
//! patch server and the SGX enclave (and, reusing the same construction,
//! between the enclave and the SMM handler via shared memory).
//!
//! Paper §V-B: "we encrypt communication when obtaining the binary patch
//! from the remote server… Both communications are handled by untrusted
//! applications or network drivers — we encrypt data while in transit."
//! §V-C adds per-patch key rotation against replay and MITM detection via
//! identity verification; the MAC-with-sequence construction here is the
//! mechanical counterpart, and [`Tamper`] provides the attackers.

use std::fmt;
use std::ops::Range;

use kshot_crypto::chacha::ChaCha20;
use kshot_crypto::dh::{DhError, DhKeyPair, DhParams, SessionKey};
use kshot_crypto::hmac::{hmac_sha256_parts, verify};

use crate::wire::{Reader, WireError, Writer};

/// Bytes in front of an encoded frame's ciphertext: seq and length.
pub const FRAME_HEADER_LEN: usize = 8 + 4;

/// An encrypted frame on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sequence number (also the nonce seed; never reused under a key).
    pub seq: u64,
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA256 over `seq || ciphertext`.
    pub mac: [u8; 32],
}

impl Frame {
    /// Serialize. Ciphertext length is bounded by the plaintext the
    /// sealer accepted, which itself passed the writer's `u32` length
    /// check — so the encode cannot be poisoned in practice.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.seq)
            .put_bytes(&self.ciphertext)
            .put_raw(&self.mac);
        w.into_bytes().expect("ciphertext fits the wire format")
    }

    /// Deserialize: [`FrameLayout::parse`], then a copy of the
    /// ciphertext.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let layout = FrameLayout::parse(bytes)?;
        Ok(Self {
            seq: layout.seq,
            ciphertext: bytes[layout.ciphertext].to_vec(),
            mac: layout.mac,
        })
    }
}

/// Where an encoded frame's fields lie in its bytes. This is the one
/// frame parser: [`Frame::decode`] copies the ciphertext out, and a
/// receiver that owns the encoded bytes decrypts the ciphertext where
/// it lies with [`SecureChannel::open_in_place`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameLayout {
    /// Sequence number.
    pub seq: u64,
    /// Where the ciphertext lies in the encoded bytes.
    pub ciphertext: Range<usize>,
    /// HMAC-SHA256 over `seq || ciphertext`.
    pub mac: [u8; 32],
}

impl FrameLayout {
    /// Locate the fields of the encoded frame `bytes`.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed bytes: truncated, a ciphertext length
    /// past the end, or trailing bytes.
    pub fn parse(bytes: &[u8]) -> Result<FrameLayout, WireError> {
        let mut r = Reader::new(bytes);
        let seq = r.get_u64("seq")?;
        let ciphertext = r.get_bytes_range("ciphertext")?;
        let mut mac = [0u8; 32];
        mac.copy_from_slice(r.get_raw(32, "mac")?);
        r.finish()?;
        Ok(FrameLayout {
            seq,
            ciphertext,
            mac,
        })
    }
}

/// Channel failures. [`ChannelError::BadMac`] and
/// [`ChannelError::Replay`] are *attack detected* signals in the
/// security experiments; [`ChannelError::Desync`] is a *loss* signal —
/// an authenticated frame from the future means earlier frames were
/// dropped in the untrusted transport, which a resend fixes (see
/// [`SecureChannel::resync_ack`]). Conflating the two (the old
/// behaviour) made operators treat routine packet loss as replay
/// attacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// MAC verification failed (tampering or wrong key).
    BadMac,
    /// Sequence number regressed or repeated (`got < expected`): a
    /// genuinely old frame was presented again.
    Replay {
        /// Expected next sequence.
        expected: u64,
        /// Received sequence.
        got: u64,
    },
    /// Sequence number from the future (`got > expected`): frames in
    /// between were lost. The receiver's state is untouched; recover by
    /// resending from `expected` (cheaply, via
    /// [`SecureChannel::resync_ack`]) — no rekey needed.
    Desync {
        /// Expected next sequence.
        expected: u64,
        /// Received sequence.
        got: u64,
    },
    /// Frame bytes were malformed.
    Malformed(WireError),
    /// Key agreement failed.
    Dh(DhError),
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::BadMac => write!(f, "frame authentication failed"),
            ChannelError::Replay { expected, got } => {
                write!(f, "replay detected: expected seq {expected}, got {got}")
            }
            ChannelError::Desync { expected, got } => {
                write!(
                    f,
                    "sequence gap: expected seq {expected}, got {got}; resend from {expected}"
                )
            }
            ChannelError::Malformed(e) => write!(f, "malformed frame: {e}"),
            ChannelError::Dh(e) => write!(f, "key agreement failed: {e}"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// One endpoint of a secure channel.
#[derive(Debug, Clone)]
pub struct SecureChannel {
    key: SessionKey,
    send_seq: u64,
    recv_seq: u64,
    /// Highest sequence ever sealed (the resync high-water mark;
    /// survives rewinds).
    sent_high: u64,
}

impl SecureChannel {
    /// Build an endpoint over an agreed session key.
    pub fn new(key: SessionKey) -> Self {
        Self {
            key,
            send_seq: 0,
            recv_seq: 0,
            sent_high: 0,
        }
    }

    /// Run Diffie–Hellman with the supplied entropy and produce the two
    /// connected endpoints (a test/setup convenience that plays both
    /// sides; real deployments exchange the public values over the
    /// untrusted transport).
    ///
    /// # Errors
    ///
    /// [`ChannelError::Dh`] if entropy is insufficient or a public value
    /// is degenerate.
    pub fn pair_via_dh(
        params: &DhParams,
        entropy_a: &[u8],
        entropy_b: &[u8],
    ) -> Result<(SecureChannel, SecureChannel), ChannelError> {
        let a = DhKeyPair::from_entropy(params, entropy_a).map_err(ChannelError::Dh)?;
        let b = DhKeyPair::from_entropy(params, entropy_b).map_err(ChannelError::Dh)?;
        let ka = a.agree(params, b.public()).map_err(ChannelError::Dh)?;
        let kb = b.agree(params, a.public()).map_err(ChannelError::Dh)?;
        kshot_telemetry::counter("channel.handshakes", 1);
        Ok((SecureChannel::new(ka), SecureChannel::new(kb)))
    }

    /// Encrypt and authenticate a copy of `plaintext` into the next
    /// frame ([`SecureChannel::seal_owned`] on the copy).
    pub fn seal(&mut self, plaintext: &[u8]) -> Frame {
        self.seal_owned(plaintext.to_vec())
    }

    /// Encrypt and authenticate the plaintext `data` into the next
    /// frame. The buffer is encrypted where it lies and becomes the
    /// frame's ciphertext.
    pub fn seal_owned(&mut self, mut data: Vec<u8>) -> Frame {
        let (seq, mac) = self.seal_slice(&mut data);
        Frame {
            seq,
            ciphertext: data,
            mac,
        }
    }

    /// Seal the plaintext `frame[FRAME_HEADER_LEN..]` where it lies into
    /// the encoded frame: the bytes and channel state of `seal_owned` on
    /// it followed by [`Frame::encode`].
    pub fn seal_in_place(&mut self, frame: &mut Vec<u8>) {
        let (header, data) = frame.split_at_mut(FRAME_HEADER_LEN);
        let len = u32::try_from(data.len()).expect("ciphertext fits the wire format");
        let (seq, mac) = self.seal_slice(data);
        header[..8].copy_from_slice(&seq.to_le_bytes());
        header[8..].copy_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&mac);
    }

    /// Encrypt `data` in place as the next frame; its seq and MAC.
    fn seal_slice(&mut self, data: &mut [u8]) -> (u64, [u8; 32]) {
        kshot_telemetry::counter("channel.frames_sealed", 1);
        let seq = self.send_seq;
        self.send_seq += 1;
        self.sent_high = self.sent_high.max(self.send_seq);
        let nonce = self.key.nonce_for(seq);
        ChaCha20::new(self.key.as_bytes(), &nonce).apply(data);
        (seq, mac_for(&self.key, seq, data))
    }

    /// Verify and decrypt a copy of a frame's ciphertext
    /// ([`SecureChannel::open_in_place`] on the copy).
    ///
    /// # Errors
    ///
    /// As [`SecureChannel::open_in_place`].
    pub fn open(&mut self, frame: &Frame) -> Result<Vec<u8>, ChannelError> {
        let mut plaintext = frame.ciphertext.clone();
        self.open_in_place(frame.seq, &mut plaintext, &frame.mac)?;
        Ok(plaintext)
    }

    /// Verify the frame (`seq`, `data`, `mac`) and decrypt `data` where
    /// it lies. The MAC and the sequence are checked before any byte is
    /// decrypted, so on every error `data` and the channel state are
    /// left as they were.
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadMac`] on tampering, [`ChannelError::Replay`]
    /// on repeated/regressed sequence numbers,
    /// [`ChannelError::Desync`] on a sequence gap (dropped frames; a
    /// resend recovers).
    pub fn open_in_place(
        &mut self,
        seq: u64,
        data: &mut [u8],
        mac: &[u8; 32],
    ) -> Result<(), ChannelError> {
        let expected_mac = mac_for(&self.key, seq, data);
        if !verify(&expected_mac, mac) {
            kshot_telemetry::counter("channel.bad_mac", 1);
            kshot_telemetry::event_with("channel.bad_mac", None, |f| {
                f.push(("seq", seq.into()));
            });
            return Err(ChannelError::BadMac);
        }
        match seq.cmp(&self.recv_seq) {
            std::cmp::Ordering::Less => {
                // A frame we already consumed: replay.
                kshot_telemetry::counter("channel.replay", 1);
                kshot_telemetry::event_with("channel.replay", None, |f| {
                    f.push(("expected", self.recv_seq.into()));
                    f.push(("got", seq.into()));
                });
                return Err(ChannelError::Replay {
                    expected: self.recv_seq,
                    got: seq,
                });
            }
            std::cmp::Ordering::Greater => {
                // A frame from the future: the ones in between were
                // dropped. Not an attack signal — do not bump the
                // replay counter.
                kshot_telemetry::counter("channel.desync", 1);
                kshot_telemetry::event_with("channel.desync", None, |f| {
                    f.push(("expected", self.recv_seq.into()));
                    f.push(("got", seq.into()));
                });
                return Err(ChannelError::Desync {
                    expected: self.recv_seq,
                    got: seq,
                });
            }
            std::cmp::Ordering::Equal => {}
        }
        kshot_telemetry::counter("channel.frames_opened", 1);
        self.recv_seq += 1;
        let nonce = self.key.nonce_for(seq);
        ChaCha20::new(self.key.as_bytes(), &nonce).apply(data);
        Ok(())
    }

    /// Produce an authenticated acknowledgement of the next sequence
    /// this endpoint expects. After a [`ChannelError::Desync`], the
    /// receiver hands this to the sender, whose
    /// [`SecureChannel::resync`] rewinds and resends — recovering from
    /// dropped frames without a re-handshake or rekey.
    pub fn resync_ack(&self) -> ResyncAck {
        ResyncAck {
            expected: self.recv_seq,
            mac: resync_mac(&self.key, self.recv_seq),
        }
    }

    /// Rewind this endpoint's send sequence to `ack.expected` so the
    /// lost frames are resent.
    ///
    /// Sequence numbers double as nonces, so rewinding re-uses them —
    /// sound only because [`SecureChannel::seal`] is deterministic: the
    /// resend of the *same plaintext* at the same seq is byte-identical
    /// to the lost frame, revealing nothing new. Callers must replay
    /// the original plaintext stream from `ack.expected`, not new data.
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadMac`] if the ack was forged or belongs to a
    /// different session; [`ChannelError::Desync`] if the ack claims a
    /// sequence this sender has never sealed (`expected` beyond the
    /// high-water mark) — rewinds only go backwards.
    pub fn resync(&mut self, ack: &ResyncAck) -> Result<(), ChannelError> {
        if !verify(&resync_mac(&self.key, ack.expected), &ack.mac) {
            kshot_telemetry::counter("channel.bad_mac", 1);
            return Err(ChannelError::BadMac);
        }
        if ack.expected > self.sent_high {
            return Err(ChannelError::Desync {
                expected: ack.expected,
                got: self.sent_high,
            });
        }
        kshot_telemetry::counter("channel.resyncs", 1);
        self.send_seq = ack.expected;
        Ok(())
    }

    /// The session key (the SMM side derives its own copy from DH).
    pub fn session_key(&self) -> &SessionKey {
        &self.key
    }
}

/// An authenticated "next sequence I expect" message (see
/// [`SecureChannel::resync_ack`]). Travels over the same untrusted
/// transport as frames; the MAC stops a man-in-the-middle from
/// rewinding a sender arbitrarily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncAck {
    /// The receiver's next expected sequence.
    pub expected: u64,
    /// HMAC-SHA256 over a domain-separation tag and `expected`.
    pub mac: [u8; 32],
}

fn resync_mac(key: &SessionKey, expected: u64) -> [u8; 32] {
    // Domain-separated from frame MACs (those cover seq || ciphertext;
    // this covers a tag || seq) so an ack can never be confused with an
    // empty frame.
    hmac_sha256_parts(key.as_bytes(), &[b"RESYNC", &expected.to_le_bytes()])
}

fn mac_for(key: &SessionKey, seq: u64, ciphertext: &[u8]) -> [u8; 32] {
    hmac_sha256_parts(key.as_bytes(), &[&seq.to_le_bytes(), ciphertext])
}

/// Man-in-the-middle mutations for the security experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Flip one bit of the ciphertext.
    FlipCiphertextBit {
        /// Byte index (modulo length).
        index: usize,
    },
    /// Truncate the ciphertext.
    Truncate {
        /// Bytes to keep.
        keep: usize,
    },
    /// Rewrite the sequence number (replay staging).
    Reseq {
        /// The forged sequence.
        seq: u64,
    },
    /// Flip a MAC byte.
    CorruptMac,
}

impl Tamper {
    /// Apply the mutation to a frame, producing the attacked frame.
    pub fn apply(self, frame: &Frame) -> Frame {
        let mut f = frame.clone();
        match self {
            Tamper::FlipCiphertextBit { index } => {
                if !f.ciphertext.is_empty() {
                    let i = index % f.ciphertext.len();
                    f.ciphertext[i] ^= 0x80;
                }
            }
            Tamper::Truncate { keep } => {
                f.ciphertext.truncate(keep);
            }
            Tamper::Reseq { seq } => f.seq = seq,
            Tamper::CorruptMac => f.mac[0] ^= 0x01,
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (SecureChannel, SecureChannel) {
        let params = DhParams::default_group();
        SecureChannel::pair_via_dh(&params, &[7u8; 32], &[9u8; 32]).unwrap()
    }

    #[test]
    fn seal_open_roundtrip() {
        let (mut tx, mut rx) = pair();
        let msgs: [&[u8]; 3] = [b"first", b"", b"a longer patch bundle payload"];
        for m in msgs {
            let frame = tx.seal(m);
            assert_eq!(rx.open(&frame).unwrap(), m);
        }
    }

    #[test]
    fn frames_differ_even_for_same_plaintext() {
        let (mut tx, _) = pair();
        let a = tx.seal(b"same");
        let b = tx.seal(b"same");
        assert_ne!(a.ciphertext, b.ciphertext, "nonce must vary by seq");
    }

    #[test]
    fn tampering_detected() {
        let (mut tx, rx) = pair();
        let frame = tx.seal(b"patch bytes");
        for tamper in [
            Tamper::FlipCiphertextBit { index: 3 },
            Tamper::Truncate { keep: 4 },
            Tamper::CorruptMac,
            Tamper::Reseq { seq: 99 },
        ] {
            let mut rx = rx.clone();
            let attacked = tamper.apply(&frame);
            let err = rx.open(&attacked).unwrap_err();
            match tamper {
                // Changing seq invalidates the MAC too.
                Tamper::Reseq { .. } => assert_eq!(err, ChannelError::BadMac),
                _ => assert_eq!(err, ChannelError::BadMac, "{tamper:?}"),
            }
        }
    }

    #[test]
    fn replay_detected() {
        let (mut tx, mut rx) = pair();
        let f0 = tx.seal(b"one");
        let f1 = tx.seal(b"two");
        rx.open(&f0).unwrap();
        rx.open(&f1).unwrap();
        // Replaying a valid old frame (MAC intact) trips the sequence
        // check.
        let err = rx.open(&f0).unwrap_err();
        assert!(matches!(
            err,
            ChannelError::Replay {
                expected: 2,
                got: 0
            }
        ));
    }

    #[test]
    fn gap_is_desync_not_replay() {
        let (mut tx, mut rx) = pair();
        let _f0 = tx.seal(b"dropped");
        let f1 = tx.seal(b"arrives early");
        // f0 lost in transit; the future frame must NOT be classified
        // as a replay.
        let err = rx.open(&f1).unwrap_err();
        assert_eq!(
            err,
            ChannelError::Desync {
                expected: 0,
                got: 1
            }
        );
        // Receiver state untouched: the in-order frame still opens.
        assert_eq!(rx.open(&_f0).unwrap(), b"dropped");
    }

    #[test]
    fn drop_then_resend_recovers_without_rekey() {
        let (mut tx, mut rx) = pair();
        let key_before = tx.session_key().clone();
        let plaintexts: [&[u8]; 3] = [b"one", b"two", b"three"];
        let frames: Vec<Frame> = plaintexts.iter().map(|p| tx.seal(p)).collect();
        // Frame 1 is dropped; 0 and 2 arrive.
        assert_eq!(rx.open(&frames[0]).unwrap(), b"one");
        assert_eq!(
            rx.open(&frames[2]).unwrap_err(),
            ChannelError::Desync {
                expected: 1,
                got: 2
            }
        );
        // Receiver acks its expected seq; sender rewinds and resends
        // the original plaintext stream from there.
        let ack = rx.resync_ack();
        tx.resync(&ack).unwrap();
        let resent1 = tx.seal(plaintexts[1]);
        // Deterministic seal: the resend is byte-identical to the lost
        // frame (same seq → same nonce → same ciphertext and MAC).
        assert_eq!(resent1, frames[1]);
        assert_eq!(rx.open(&resent1).unwrap(), b"two");
        let resent2 = tx.seal(plaintexts[2]);
        assert_eq!(resent2, frames[2]);
        assert_eq!(rx.open(&resent2).unwrap(), b"three");
        // No re-handshake happened: same session key throughout.
        assert_eq!(*tx.session_key(), key_before);
        // And the channel keeps working normally afterwards.
        let f3 = tx.seal(b"four");
        assert_eq!(rx.open(&f3).unwrap(), b"four");
    }

    #[test]
    fn forged_resync_ack_rejected() {
        let (mut tx, rx) = pair();
        tx.seal(b"advance");
        // Tampered expected value: the MAC no longer covers it.
        let forged = ResyncAck {
            expected: 99,
            ..rx.resync_ack()
        };
        assert_eq!(tx.resync(&forged).unwrap_err(), ChannelError::BadMac);
        // An ack from a different session fails too.
        let (_, other_rx) = pair_with(&[3u8; 32], &[4u8; 32]);
        assert_eq!(
            tx.resync(&other_rx.resync_ack()).unwrap_err(),
            ChannelError::BadMac
        );
    }

    #[test]
    fn resync_cannot_fast_forward_the_sender() {
        let (mut tx, mut rx) = pair();
        // Receiver somehow claims to expect seq 5 while the sender has
        // sent nothing: refused (rewinds only go backwards).
        rx.recv_seq = 5;
        let ack = rx.resync_ack();
        assert_eq!(
            tx.resync(&ack).unwrap_err(),
            ChannelError::Desync {
                expected: 5,
                got: 0
            }
        );
    }

    fn pair_with(a: &[u8], b: &[u8]) -> (SecureChannel, SecureChannel) {
        let params = DhParams::default_group();
        SecureChannel::pair_via_dh(&params, a, b).unwrap()
    }

    #[test]
    fn key_rotation_defeats_cross_session_replay() {
        // Paper §V-C: the key is rotated before each patch, so a frame
        // captured under an old key fails outright under the new one.
        let (mut tx1, _) = pair();
        let old_frame = tx1.seal(b"old patch");
        let params = DhParams::default_group();
        let (_, mut rx2) = SecureChannel::pair_via_dh(&params, &[1u8; 32], &[2u8; 32]).unwrap();
        assert_eq!(rx2.open(&old_frame).unwrap_err(), ChannelError::BadMac);
    }

    #[test]
    fn wrong_key_cannot_open() {
        let (mut tx, _) = pair();
        let frame = tx.seal(b"secret");
        let mut eve = SecureChannel::new(SessionKey([0xEE; 32]));
        assert_eq!(eve.open(&frame).unwrap_err(), ChannelError::BadMac);
    }

    #[test]
    fn seal_owned_equals_seal_and_leaves_the_same_state() {
        let (tx, _) = pair();
        let (mut by_ref, mut owned) = (tx.clone(), tx);
        for m in [&b"first"[..], b"", &[0xA5; 1500]] {
            assert_eq!(owned.seal_owned(m.to_vec()), by_ref.seal(m));
            assert_eq!(
                (owned.send_seq, owned.recv_seq, owned.sent_high),
                (by_ref.send_seq, by_ref.recv_seq, by_ref.sent_high)
            );
        }
    }

    /// Seal `plaintext` in place on a clone of `tx` and check the frame
    /// against `seal_owned` then `Frame::encode` on another clone: the
    /// same bytes (seq, length, ciphertext and MAC), the same channel
    /// state after, and one `channel.frames_sealed`.
    fn assert_seal_in_place_matches(tx: &SecureChannel, plaintext: &[u8]) {
        let (mut owned, mut in_place) = (tx.clone(), tx.clone());
        let want = owned.seal_owned(plaintext.to_vec()).encode();
        let mut frame = vec![0; FRAME_HEADER_LEN];
        frame.extend_from_slice(plaintext);
        let recorder = kshot_telemetry::Recorder::new();
        kshot_telemetry::with_recorder(recorder.clone(), || in_place.seal_in_place(&mut frame));
        assert_eq!(frame, want, "{} bytes", plaintext.len());
        assert_eq!(
            (in_place.send_seq, in_place.recv_seq, in_place.sent_high),
            (owned.send_seq, owned.recv_seq, owned.sent_high)
        );
        let sealed = recorder.metrics_snapshot().counter("channel.frames_sealed");
        assert_eq!(sealed, 1);
    }

    /// Lengths around the 64-byte block and the AVX2 keystream's whole
    /// 512 bytes, at fresh, advanced and rewound send sequences (a
    /// rewound sender keeps its high-water mark).
    #[test]
    fn seal_in_place_equals_seal_owned_then_encode() {
        let (mut tx, mut rx) = pair();
        for round in 0..3 {
            for len in [0, 1, 63, 64, 511, 512, 513] {
                let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 + round) as u8).collect();
                assert_seal_in_place_matches(&tx, &plaintext);
            }
            tx.seal(b"advance");
            tx.seal(b"advance again");
            if round == 1 {
                rx.recv_seq = 1;
                tx.resync(&rx.resync_ack()).unwrap();
                assert!(tx.send_seq < tx.sent_high, "rewound");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn seal_in_place_equals_seal_owned_over_random_plaintexts(
            plaintext in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..2100),
            sealed_before in 0u64..4,
        ) {
            let (mut tx, _) = pair();
            for _ in 0..sealed_before {
                tx.seal(b"earlier");
            }
            assert_seal_in_place_matches(&tx, &plaintext);
        }
    }

    #[test]
    fn open_in_place_failures_leave_buffer_and_sequence_untouched() {
        let (mut tx, mut rx) = pair();
        let f0 = tx.seal(b"zero");
        let f1 = tx.seal(b"one");
        let f2 = tx.seal(b"two");
        rx.open(&f0).unwrap();
        let tampered = Tamper::FlipCiphertextBit { index: 1 }.apply(&f1);
        let cases = [
            (&tampered, ChannelError::BadMac),
            (
                &f0,
                ChannelError::Replay {
                    expected: 1,
                    got: 0,
                },
            ),
            (
                &f2,
                ChannelError::Desync {
                    expected: 1,
                    got: 2,
                },
            ),
        ];
        for (frame, want) in cases {
            let mut buf = frame.ciphertext.clone();
            let err = rx.open_in_place(frame.seq, &mut buf, &frame.mac);
            assert_eq!(err, Err(want));
            assert_eq!(buf, frame.ciphertext, "buffer untouched");
            assert_eq!(rx.recv_seq, 1, "receive sequence untouched");
        }
        // The in-order frame opens in place afterwards.
        let mut buf = f1.ciphertext.clone();
        rx.open_in_place(f1.seq, &mut buf, &f1.mac).unwrap();
        assert_eq!(buf, b"one");
        assert_eq!(rx.recv_seq, 2);
    }

    #[test]
    fn frame_wire_roundtrip() {
        let (mut tx, mut rx) = pair();
        let frame = tx.seal(b"wire me");
        let bytes = frame.encode();
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(rx.open(&back).unwrap(), b"wire me");
        assert!(Frame::decode(&bytes[..5]).is_err());
    }
}
