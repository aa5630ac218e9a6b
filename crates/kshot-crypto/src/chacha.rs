//! ChaCha20 stream cipher (RFC 8439 block function).
//!
//! Used as the symmetric cipher protecting patch payloads written by the
//! SGX enclave into the shared `mem_W` region and decrypted inside the SMM
//! handler (paper §V-B: "we encrypt data while in transit"). Encryption and
//! decryption are the same keystream XOR, so a single [`ChaCha20::apply`]
//! serves both directions.
//!
//! On x86_64 CPUs that report AVX2, [`ChaCha20::apply`] XORs each whole
//! 512-byte chunk with eight blocks computed at once, one block per
//! 32-bit lane. Every other byte, and every byte on other CPUs, goes
//! through the portable block function, which is also the reference
//! the AVX2 path is tested against. Both paths advance the block
//! counter one per 64 bytes, so the keystream does not depend on the
//! path or on how the data is split across calls.

/// Key size in bytes.
pub const KEY_LEN: usize = 32;

/// Nonce size in bytes (RFC 8439, 96-bit nonce).
pub const NONCE_LEN: usize = 12;

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// A ChaCha20 cipher instance bound to a key and nonce.
///
/// # Examples
///
/// ```
/// use kshot_crypto::ChaCha20;
///
/// let key = [7u8; 32];
/// let nonce = [9u8; 12];
/// let mut data = b"patch payload".to_vec();
/// ChaCha20::new(&key, &nonce).apply(&mut data);          // encrypt
/// ChaCha20::new(&key, &nonce).apply(&mut data);          // decrypt
/// assert_eq!(data, b"patch payload");
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
}

impl ChaCha20 {
    /// Create a cipher with block counter starting at 1 (RFC 8439
    /// convention for AEAD payloads; counter 0 is reserved for the Poly
    /// key in the RFC — we simply start at 1 for symmetry).
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        Self::with_counter(key, nonce, 1)
    }

    /// Create a cipher with an explicit initial block counter.
    pub fn with_counter(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut k = [0u32; 8];
        for (i, item) in k.iter_mut().enumerate() {
            *item =
                u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
        }
        let mut n = [0u32; 3];
        for (i, item) in n.iter_mut().enumerate() {
            *item = u32::from_le_bytes([
                nonce[i * 4],
                nonce[i * 4 + 1],
                nonce[i * 4 + 2],
                nonce[i * 4 + 3],
            ]);
        }
        Self {
            key: k,
            nonce: n,
            counter,
        }
    }

    fn block(&self, counter: u32) -> [u8; 64] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);
        let mut w = state;
        for _ in 0..10 {
            // Column rounds.
            quarter(&mut w, 0, 4, 8, 12);
            quarter(&mut w, 1, 5, 9, 13);
            quarter(&mut w, 2, 6, 10, 14);
            quarter(&mut w, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter(&mut w, 0, 5, 10, 15);
            quarter(&mut w, 1, 6, 11, 12);
            quarter(&mut w, 2, 7, 8, 13);
            quarter(&mut w, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let v = w[i].wrapping_add(state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// XOR the keystream into `data` in place, advancing the block counter.
    ///
    /// Calling `apply` twice on the same instance continues the keystream;
    /// to decrypt, construct a fresh instance with the same key/nonce.
    pub fn apply(&mut self, data: &mut [u8]) {
        crate::counters::add_chacha20(data.len());
        #[cfg(target_arch = "x86_64")]
        let data = if avx2_available() {
            let (groups, rest) = data.as_chunks_mut::<{ 8 * 64 }>();
            // SAFETY: `xor_eight_blocks` needs avx2, which the CPU reports.
            unsafe { x86::xor_eight_blocks(&self.key, &self.nonce, self.counter, groups) };
            self.counter = self
                .counter
                .wrapping_add((groups.len() as u32).wrapping_mul(8));
            rest
        } else {
            data
        };
        self.apply_portable(data);
    }

    /// [`apply`](Self::apply) through the portable block function alone.
    fn apply_portable(&mut self, data: &mut [u8]) {
        for chunk in data.chunks_mut(64) {
            let ks = self.block(self.counter);
            self.counter = self.counter.wrapping_add(1);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

#[inline]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// Whether [`ChaCha20::apply`] takes the AVX2 path on this CPU.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::SIGMA;
    use std::arch::x86_64::*;

    /// XOR the keystream into each 512-byte group, eight blocks at a
    /// time: group `g` takes blocks `counter + 8g … counter + 8g + 7`
    /// (wrapping). The sixteen state words are sixteen vectors, block
    /// `i` of the group in lane `i`; after the rounds and the
    /// feed-forward, two 8×8 transposes turn the lanes back into
    /// blocks. Loads and stores are unaligned.
    ///
    /// Calling it is undefined behaviour unless the CPU has AVX2; the
    /// caller checks with `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub(super) fn xor_eight_blocks(
        key: &[u32; 8],
        nonce: &[u32; 3],
        counter: u32,
        groups: &mut [[u8; 8 * 64]],
    ) {
        let splat = |word: u32| _mm256_set1_epi32(word as i32);
        let mut input = [_mm256_setzero_si256(); 16];
        for (lane, word) in input.iter_mut().zip(SIGMA.iter().chain(key)) {
            *lane = splat(*word);
        }
        input[12] = _mm256_add_epi32(splat(counter), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        for (lane, word) in input[13..].iter_mut().zip(nonce) {
            *lane = splat(*word);
        }
        for group in groups {
            let mut x = input;
            for _ in 0..10 {
                quarter(&mut x, 0, 4, 8, 12);
                quarter(&mut x, 1, 5, 9, 13);
                quarter(&mut x, 2, 6, 10, 14);
                quarter(&mut x, 3, 7, 11, 15);
                quarter(&mut x, 0, 5, 10, 15);
                quarter(&mut x, 1, 6, 11, 12);
                quarter(&mut x, 2, 7, 8, 13);
                quarter(&mut x, 3, 4, 9, 14);
            }
            for (word, start) in x.iter_mut().zip(input) {
                *word = _mm256_add_epi32(*word, start);
            }
            let low = transpose(x[..8].try_into().expect("eight words"));
            let high = transpose(x[8..].try_into().expect("eight words"));
            for (block, (low, high)) in group.chunks_exact_mut(64).zip(low.into_iter().zip(high)) {
                let (first, second) = block.split_at_mut(32);
                xor_into(first, low);
                xor_into(second, high);
            }
            input[12] = _mm256_add_epi32(input[12], splat(8));
        }
    }

    /// One quarter round on eight blocks at once.
    #[target_feature(enable = "avx2")]
    fn quarter(s: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        // Byte shuffles rotate each 32-bit lane left by 16 and by 8.
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        s[a] = _mm256_add_epi32(s[a], s[b]);
        s[d] = _mm256_shuffle_epi8(_mm256_xor_si256(s[d], s[a]), rot16);
        s[c] = _mm256_add_epi32(s[c], s[d]);
        let t = _mm256_xor_si256(s[b], s[c]);
        s[b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
        s[a] = _mm256_add_epi32(s[a], s[b]);
        s[d] = _mm256_shuffle_epi8(_mm256_xor_si256(s[d], s[a]), rot8);
        s[c] = _mm256_add_epi32(s[c], s[d]);
        let t = _mm256_xor_si256(s[b], s[c]);
        s[b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
    }

    /// Transpose eight vectors of eight 32-bit words: word `i` of the
    /// result's vector `j` is word `j` of the input's vector `i`.
    #[target_feature(enable = "avx2")]
    fn transpose(x: [__m256i; 8]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(x[0], x[1]);
        let t1 = _mm256_unpackhi_epi32(x[0], x[1]);
        let t2 = _mm256_unpacklo_epi32(x[2], x[3]);
        let t3 = _mm256_unpackhi_epi32(x[2], x[3]);
        let t4 = _mm256_unpacklo_epi32(x[4], x[5]);
        let t5 = _mm256_unpackhi_epi32(x[4], x[5]);
        let t6 = _mm256_unpacklo_epi32(x[6], x[7]);
        let t7 = _mm256_unpackhi_epi32(x[6], x[7]);
        // Each 128-bit half of `u[k]` holds word k (low half) or word
        // k + 4 (high half) of four consecutive input vectors.
        let u = [
            _mm256_unpacklo_epi64(t0, t2),
            _mm256_unpackhi_epi64(t0, t2),
            _mm256_unpacklo_epi64(t1, t3),
            _mm256_unpackhi_epi64(t1, t3),
            _mm256_unpacklo_epi64(t4, t6),
            _mm256_unpackhi_epi64(t4, t6),
            _mm256_unpacklo_epi64(t5, t7),
            _mm256_unpackhi_epi64(t5, t7),
        ];
        [
            _mm256_permute2x128_si256::<0x20>(u[0], u[4]),
            _mm256_permute2x128_si256::<0x20>(u[1], u[5]),
            _mm256_permute2x128_si256::<0x20>(u[2], u[6]),
            _mm256_permute2x128_si256::<0x20>(u[3], u[7]),
            _mm256_permute2x128_si256::<0x31>(u[0], u[4]),
            _mm256_permute2x128_si256::<0x31>(u[1], u[5]),
            _mm256_permute2x128_si256::<0x31>(u[2], u[6]),
            _mm256_permute2x128_si256::<0x31>(u[3], u[7]),
        ]
    }

    /// XOR `keystream` into 32 bytes, loaded and stored unaligned.
    #[target_feature(enable = "avx2")]
    fn xor_into(bytes: &mut [u8], keystream: __m256i) {
        let quad =
            |i: usize| i64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let data = _mm256_set_epi64x(quad(3), quad(2), quad(1), quad(0));
        let out = _mm256_xor_si256(data, keystream);
        let quads = [
            _mm256_extract_epi64::<0>(out),
            _mm256_extract_epi64::<1>(out),
            _mm256_extract_epi64::<2>(out),
            _mm256_extract_epi64::<3>(out),
        ];
        for (chunk, quad) in bytes.chunks_exact_mut(8).zip(quads) {
            chunk.copy_from_slice(&quad.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 block-function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let c = ChaCha20::with_counter(&key, &nonce, 1);
        let block = c.block(1);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(block, expected);
    }

    /// RFC 8439 §2.4.2's plaintext.
    const SUNSCREEN: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

    /// RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        ChaCha20::with_counter(&key, &nonce, 1).apply(&mut data);
        assert_eq!(
            &data[..16],
            &[
                0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
                0x69, 0x81
            ]
        );
        assert_eq!(
            &data[data.len() - 6..],
            &[0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d]
        );
    }

    /// The path [`ChaCha20::apply`] takes for whole 512-byte groups on
    /// this CPU.
    fn keystream_path() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            return "avx2";
        }
        "portable"
    }

    /// RFC 8439 §2.3.2's serialized block.
    const RFC8439_BLOCK: [u8; 64] = [
        0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20, 0x71,
        0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4,
        0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05, 0xd9,
        0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9, 0xcb, 0xd0, 0x83, 0xe8,
        0xa2, 0x50, 0x3c, 0x4e,
    ];

    /// RFC 8439 §2.4.2's full ciphertext.
    const RFC8439_CIPHERTEXT: [u8; 114] = [
        0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d, 0x69,
        0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc, 0xfd, 0x9f,
        0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59, 0x3d, 0xab, 0xcd,
        0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab, 0x8f, 0x53, 0x0c, 0x35,
        0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d, 0x6a, 0x61, 0x56, 0xa3, 0x8e,
        0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d, 0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c,
        0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9, 0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4,
        0x0b, 0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d,
    ];

    /// The §2.3.2 block (its keystream XORed into zeros) and the
    /// §2.4.2 encryption, each through the portable block function and
    /// through the eight-block AVX2 function: zero-padded to one
    /// 512-byte group, a vector goes through `apply` in one AVX2 call.
    #[test]
    fn rfc8439_vectors_through_both_paths() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let block = ChaCha20::with_counter(&key, &[0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0], 1);
        let encryption = ChaCha20::with_counter(&key, &[0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0], 1);
        let vectors: [(&ChaCha20, &[u8], &[u8]); 2] = [
            (&block, &[0; 64], &RFC8439_BLOCK),
            (&encryption, SUNSCREEN, &RFC8439_CIPHERTEXT),
        ];
        for (cipher, plaintext, want) in vectors {
            let mut portable = plaintext.to_vec();
            cipher.clone().apply_portable(&mut portable);
            assert_eq!(portable, want, "portable");
            if keystream_path() == "avx2" {
                let mut group = [0u8; 8 * 64];
                group[..plaintext.len()].copy_from_slice(plaintext);
                cipher.clone().apply(&mut group);
                assert_eq!(&group[..want.len()], want, "avx2");
            } else {
                println!("chacha20 rfc8439 vectors: avx2 half skipped, the CPU lacks avx2");
            }
        }
    }

    /// splitmix64: reproducible random cases.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `apply` over `data` in place, in two calls split at byte
    /// `split`, equals the portable path over the whole of it, and
    /// leaves the same counter.
    fn assert_matches_portable(cipher: &ChaCha20, data: &mut [u8], split: usize) {
        let mut want = data.to_vec();
        let mut reference = cipher.clone();
        reference.apply_portable(&mut want);
        let mut dispatched = cipher.clone();
        let (head, tail) = data.split_at_mut(split);
        dispatched.apply(head);
        dispatched.apply(tail);
        let at = data.iter().zip(&want).position(|(a, b)| a != b);
        assert_eq!(
            at,
            None,
            "first differing byte, len {} counter {:#x} split {split}",
            data.len(),
            cipher.counter
        );
        assert_eq!(dispatched.counter, reference.counter);
    }

    /// The dispatched `apply` against the portable path: random lengths
    /// up to 4 KiB and one 1 MiB buffer; starting counters
    /// `u32::MAX - 7 ..= u32::MAX` (the counter wraps inside an
    /// eight-block group) and random ones; slices starting at every
    /// byte offset 0–31 of one allocation; and `apply` continued
    /// across splits at multiples of 64 that are not multiples of 512.
    #[test]
    fn dispatched_keystream_equals_portable() {
        let mut rng = 0xC4A7_C4A2_0FA5_7000_u64;
        let mut arena: Vec<u8> = (0..32 + (1 << 20)).map(|_| next(&mut rng) as u8).collect();
        let key: [u8; 32] = core::array::from_fn(|_| next(&mut rng) as u8);
        let nonce: [u8; 12] = core::array::from_fn(|_| next(&mut rng) as u8);
        let mut counters: Vec<u32> = (u32::MAX - 7..=u32::MAX).collect();
        counters.extend((0..8).map(|_| next(&mut rng) as u32));
        for &counter in &counters {
            let cipher = ChaCha20::with_counter(&key, &nonce, counter);
            for offset in 0..32 {
                let len = next(&mut rng) as usize % (4096 + 1);
                assert_matches_portable(&cipher, &mut arena[offset..offset + len], 0);
            }
            for split in [64, 448, 576, 4032] {
                let offset = next(&mut rng) as usize % 32;
                let len = split + next(&mut rng) as usize % (4096 + 1);
                assert_matches_portable(&cipher, &mut arena[offset..offset + len], split);
            }
        }
        let cipher = ChaCha20::with_counter(&key, &nonce, u32::MAX - 3);
        assert_matches_portable(&cipher, &mut arena[7..7 + (1 << 20)], 0);
    }

    /// Prints the keystream path this CPU dispatches to, so a test log
    /// shows whether the AVX2 path was exercised.
    #[test]
    fn dispatched_keystream_is_reported() {
        println!("chacha20 keystream: {}", keystream_path());
        let cipher = ChaCha20::new(&[5; 32], &[6; 12]);
        assert_matches_portable(&cipher, &mut [0; 8 * 64], 0);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = [0x42u8; 32];
        let nonce = [0x17u8; 12];
        for len in [0usize, 1, 63, 64, 65, 128, 1000] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut enc = data.clone();
            ChaCha20::new(&key, &nonce).apply(&mut enc);
            if len > 8 {
                assert_ne!(enc, data, "len {len}");
            }
            ChaCha20::new(&key, &nonce).apply(&mut enc);
            assert_eq!(enc, data, "len {len}");
        }
    }

    #[test]
    fn different_keys_differ() {
        let nonce = [0u8; 12];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ChaCha20::new(&[1u8; 32], &nonce).apply(&mut a);
        ChaCha20::new(&[2u8; 32], &nonce).apply(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn streaming_continues_counter() {
        let key = [9u8; 32];
        let nonce = [3u8; 12];
        let data: Vec<u8> = (0..200u8).collect();
        let mut whole = data.clone();
        ChaCha20::new(&key, &nonce).apply(&mut whole);
        // Chunked apply over 64-byte boundaries must match.
        let mut chunked = data.clone();
        let mut c = ChaCha20::new(&key, &nonce);
        let (x, y) = chunked.split_at_mut(128);
        c.apply(x);
        c.apply(y);
        assert_eq!(chunked, whole);
    }
}
