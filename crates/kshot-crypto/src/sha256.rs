//! SHA-256 (FIPS 180-4).
//!
//! The SMM handler verifies every patch payload against the SHA-256 digest
//! carried in the package header before applying it (paper §V-C, step 1).
//! The paper notes that this verification dominates SMM patching time,
//! which our Table III reproduction confirms — see `kshot-core::smm`.
//!
//! Every compression goes through one `compress_blocks`: the bulk of an
//! [`Sha256::update`] in one call, a completed buffer block, and the
//! padding blocks of [`Sha256::finalize`]. On x86_64 CPUs that report
//! the SHA extensions (with SSSE3 and SSE4.1) it runs a SHA-NI
//! compressor. Everywhere else it runs the portable compressor, which
//! is also the reference the SHA-NI path is tested against.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size in bytes (used by HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use kshot_crypto::sha256::{Sha256, sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Start a fresh hash computation.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        crate::counters::add_sha256(data.len());
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress_blocks(&mut self.state, &[self.buf]);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<BLOCK_LEN>();
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // The buffered tail, 0x80, zeros to 56 mod 64, then the bit
        // length: one block, or two when the tail leaves no room for
        // the nine trailing bytes.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let len = if self.buf_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, tail[..len].as_chunks().0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Fold whole blocks into `state`: through SHA-NI when the CPU has it,
/// else through the portable compressor.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_available() {
        // SAFETY: `compress_sha_ni` needs sha, sse2, ssse3 and sse4.1.
        // The CPU reports sha, ssse3 and sse4.1, and every x86_64 CPU
        // has sse2.
        unsafe { x86::compress_sha_ni(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// Whether [`compress_blocks`] takes the SHA-NI path on this CPU.
#[cfg(target_arch = "x86_64")]
fn sha_ni_available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The portable FIPS 180-4 compression function, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::*;

    /// The compression function on the SHA extensions. The state
    /// travels as the two vectors `sha256rnds2` works on, ABEF and
    /// CDGH; each block runs 16 groups of four rounds, and from the
    /// fifth group on each group's message words come from
    /// `sha256msg1`/`sha256msg2` over the previous 16 words.
    ///
    /// Calling it is undefined behaviour unless the CPU has every
    /// enabled feature; the caller checks with `is_x86_feature_detected!`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_sha_ni(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        // Reverses the bytes of each 32-bit lane: message words are
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let lane = |i: usize| state[i] as i32;
        let dcba = _mm_set_epi32(lane(3), lane(2), lane(1), lane(0));
        let hgfe = _mm_set_epi32(lane(7), lane(6), lane(5), lane(4));
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let word4 = |i: usize| {
                let half =
                    |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8 bytes"));
                _mm_shuffle_epi8(_mm_set_epi64x(half(16 * i + 8), half(16 * i)), bswap)
            };
            let (mut w0, mut w1, mut w2, mut w3) = (word4(0), word4(1), word4(2), word4(3));
            for group in 0..16 {
                let w = if group < 4 {
                    w0
                } else {
                    let msg = _mm_sha256msg1_epu32(w0, w1);
                    let msg = _mm_add_epi32(msg, _mm_alignr_epi8(w3, w2, 4));
                    _mm_sha256msg2_epu32(msg, w3)
                };
                let k = |j: usize| K[4 * group + j] as i32;
                let wk = _mm_add_epi32(w, _mm_set_epi32(k(3), k(2), k(1), k(0)));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                (w0, w1, w2, w3) = (w1, w2, w3, w);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        let lanes = [
            _mm_extract_epi32(dcba, 0),
            _mm_extract_epi32(dcba, 1),
            _mm_extract_epi32(dcba, 2),
            _mm_extract_epi32(dcba, 3),
            _mm_extract_epi32(hgfe, 0),
            _mm_extract_epi32(hgfe, 1),
            _mm_extract_epi32(hgfe, 2),
            _mm_extract_epi32(hgfe, 3),
        ];
        for (word, lane) in state.iter_mut().zip(lanes) {
            *word = lane as u32;
        }
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Format a digest as lowercase hex (for reports and logs).
pub fn hex(digest: &[u8]) -> String {
    let mut s = String::with_capacity(digest.len() * 2);
    for b in digest {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST / well-known vectors.
    #[test]
    fn vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn vector_two_blocks() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let want = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split {split}");
        }
    }

    #[test]
    fn byte_at_a_time() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(
            hex(&h.finalize()),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    #[test]
    fn hex_format() {
        assert_eq!(hex(&[0x00, 0xff, 0x0a]), "00ff0a");
    }

    type Compressor = fn(&mut [u32; 8], &[[u8; BLOCK_LEN]]);

    /// The whole message padded in one buffer and compressed in one
    /// call: an oracle that shares no buffering code with [`Sha256`].
    fn padded_digest(compress: Compressor, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            msg.push(0);
        }
        msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, msg.as_chunks().0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn fips_vectors_through_both_compressors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (data, want) in vectors {
            let portable: Compressor = compress_portable;
            let dispatched: Compressor = compress_blocks;
            for compress in [portable, dispatched] {
                assert_eq!(
                    hex(&padded_digest(compress, data)),
                    want,
                    "len {}",
                    data.len()
                );
            }
            assert_eq!(hex(&sha256(data)), want, "len {}", data.len());
        }
    }

    /// Prints the compressor this CPU dispatches to, so a test log
    /// shows whether the SHA-NI path was exercised.
    #[test]
    fn dispatched_compressor_is_reported() {
        #[cfg(target_arch = "x86_64")]
        let path = if sha_ni_available() {
            "sha-ni"
        } else {
            "portable"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let path = "portable";
        println!("sha256 compressor: {path}");
        assert_eq!(sha256(b"abc"), padded_digest(compress_portable, b"abc"));
    }

    proptest::proptest! {
        /// The dispatched hasher, fed in three random pieces, equals
        /// the portable compressor over the whole message.
        #[test]
        fn dispatched_sha256_equals_portable_over_random_splits(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..600),
            a in proptest::arbitrary::any::<proptest::sample::Index>(),
            b in proptest::arbitrary::any::<proptest::sample::Index>(),
        ) {
            let (i, j) = (a.index(data.len() + 1), b.index(data.len() + 1));
            let (i, j) = (i.min(j), i.max(j));
            let mut h = Sha256::new();
            h.update(&data[..i]);
            h.update(&data[i..j]);
            h.update(&data[j..]);
            proptest::prop_assert_eq!(h.finalize(), padded_digest(compress_portable, &data));
        }
    }
}
