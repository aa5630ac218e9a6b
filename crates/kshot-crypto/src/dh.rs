//! Finite-field Diffie–Hellman key agreement.
//!
//! The paper (§V-B/§V-C) uses Diffie–Hellman to establish a fresh session
//! key between the SGX enclave and the SMM handler before *every* patch
//! ("this cryptographic key is dynamically changed before each kernel patch
//! to guard against replay attacks"). The `mem_RW` shared region carries
//! the public values; the derived session key drives the [`crate::ChaCha20`]
//! payload cipher and [`crate::hmac`] package MACs.
//!
//! Entropy is supplied by the caller as raw bytes so this crate stays
//! dependency-free; the enclave/SMM components pass in RNG output.
//!
//! [`DhParams::new`] picks the group's arithmetic from the modulus
//! once. A modulus 2^512 − c with c < 2^32, such as the default
//! 2^512 − 569, gets the [`PseudoMersenne`] fold. Every other modulus
//! gets a [`Montgomery`] context: 8 limbs up to 512 bits, 32 up to
//! 2048 (MODP-2048).
//!
//! The two exponentiations cost differently:
//!
//! * A keygen ([`DhKeyPair::from_entropy`]) raises the fixed generator.
//!   It runs through the group's comb (8 teeth × 33 columns, a table of
//!   256 elements built on the group's first keygen): 32 squarings and
//!   at most 33 multiplies for any exponent below 2^264, which holds
//!   every key drawn from at most 32 bytes of entropy. A wider key
//!   takes the 4-bit window.
//! * An agreement ([`DhKeyPair::agree`]) raises the peer's value. It
//!   uses a 4-bit window: about 252 squarings and 64 multiplies for a
//!   256-bit private key.
//!
//! [`BigUint::modpow`] is the reference both are tested against.
//!
//! The two shipped groups differ in strength. [`DhParams::modp_2048`]
//! is a safe-prime group. [`DhParams::default_group`] is not: its
//! `p − 1` has small factors, so [`DhKeyPair::agree`] accepts peer
//! values of small order. The threat model (paper §III) does not rely
//! on the group: the attacker it considers controls the kernel, not the
//! DH exchange between the enclave and SMM.

use std::sync::OnceLock;

use crate::bignum::BigUint;
use crate::field::{self, Comb, Field, COLUMNS, TEETH};
use crate::montgomery::Montgomery;
use crate::pseudo_mersenne::PseudoMersenne;
use crate::sha256::Sha256;

/// A Diffie–Hellman group (prime modulus and generator), with the
/// modulus's arithmetic chosen once at construction and the
/// generator's comb built on the group's first keygen.
///
/// Two groups are equal when their modulus and generator are: the
/// arithmetic follows from the modulus, and the comb is a cache.
#[derive(Clone)]
pub struct DhParams {
    p: BigUint,
    g: BigUint,
    exp: Exponentiator,
}

/// The fastest arithmetic that serves the modulus: the pseudo-Mersenne
/// fold for 2^512 − c, otherwise Montgomery at the narrowest width. The
/// 32-limb context and its 64 KiB comb are boxed, so that every group
/// stays the size of a 512-bit one.
#[derive(Clone)]
enum Exponentiator {
    PseudoMersenne(Powers<PseudoMersenne>),
    Limbs8(Powers<Montgomery<8>>),
    Limbs32(Box<Powers<Montgomery<32>>>),
}

/// One arithmetic, and the comb for the group's generator. The comb
/// lives inline, so a group in a `static` keeps its table there.
#[derive(Clone)]
struct Powers<F: Field> {
    field: F,
    comb: OnceLock<Comb<F::Elem>>,
}

impl<F: Field> Powers<F> {
    fn new(field: F) -> Self {
        Self {
            field,
            comb: OnceLock::new(),
        }
    }

    /// `base^exp mod p` through the 4-bit window.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        field::pow(&self.field, base, exp)
    }

    /// `g^exp mod p` through the comb for `g`, which the first call
    /// builds from `g mod p`. Exponents of 2^264 and above, which only
    /// entropy wider than 32 bytes produces, take the window.
    fn pow_generator(&self, p: &BigUint, g: &BigUint, exp: &BigUint) -> BigUint {
        let comb = self.comb.get_or_init(|| Comb::new(&self.field, &g.rem(p)));
        comb.pow(&self.field, exp)
            .unwrap_or_else(|| self.pow(g, exp))
    }
}

impl PartialEq for DhParams {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p && self.g == other.g
    }
}

impl Eq for DhParams {}

impl std::fmt::Debug for DhParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DhParams")
            .field("p", &self.p)
            .field("g", &self.g)
            .field("arithmetic", &self.arithmetic())
            .finish()
    }
}

impl DhParams {
    /// Construct a group from an explicit prime and generator.
    ///
    /// # Panics
    ///
    /// Panics if `p < 3`, or if `g ≡ 0, 1 or p − 1 (mod p)`: such groups
    /// are degenerate, and every public value would be 0, 1 or p − 1.
    /// Panics as well if `p` is even or wider than 2048 bits, which the
    /// Montgomery exponentiation cannot serve. Both shipped groups are
    /// odd and at most 2048 bits.
    pub fn new(p: BigUint, g: BigUint) -> Self {
        let one = BigUint::one();
        assert!(
            p.cmp_to(&BigUint::from_u64(3)) != std::cmp::Ordering::Less,
            "DH modulus too small"
        );
        let g_mod_p = g.rem(&p);
        assert!(
            g_mod_p.cmp_to(&one) == std::cmp::Ordering::Greater && g_mod_p.add(&one) != p,
            "DH generator is degenerate: g ≡ 0, 1 or p − 1 (mod p)"
        );
        assert!(!p.is_even(), "DH modulus must be odd");
        assert!(p.bit_len() <= 2048, "DH modulus wider than 2048 bits");
        let exp = if let Some(field) = PseudoMersenne::new(&p) {
            Exponentiator::PseudoMersenne(Powers::new(field))
        } else if p.bit_len() <= 512 {
            Exponentiator::Limbs8(Powers::new(
                Montgomery::new(&p).expect("odd, 3 ≤ p < 2^512"),
            ))
        } else {
            Exponentiator::Limbs32(Box::new(Powers::new(
                Montgomery::new(&p).expect("odd, 2^512 ≤ p < 2^2048"),
            )))
        };
        Self { p, g, exp }
    }

    /// The default group used by the reproduction: the 512-bit prime
    /// 2^512 − 569, generator 2.
    ///
    /// It is prime but **not** a safe prime: `p − 1 = 2·23·41·353·c`
    /// with `c` a 493-bit composite, so the group has subgroups of small
    /// order (for example, one of order 23). Use [`DhParams::modp_2048`]
    /// for a safe-prime group. The reproduction's threat model (paper
    /// §III) does not rely on the group's strength.
    ///
    /// Chosen so that per-patch key generation stays fast in debug builds
    /// while still exercising full multi-limb bignum arithmetic. Its
    /// shape, 2^512 − c with a small `c`, puts it on the
    /// [`PseudoMersenne`] fold. The paper's 5.2 µs SMM key-generation
    /// figure is modelled separately by the calibrated cost model in
    /// `kshot-machine`.
    pub fn default_group() -> Self {
        let p = BigUint::from_u64(1)
            .shl(512)
            .checked_sub(&BigUint::from_u64(569))
            .expect("2^512 > 569");
        Self::new(p, BigUint::from_u64(2))
    }

    /// RFC 3526 MODP group 14 (2048-bit, a safe prime), for
    /// full-strength runs.
    pub fn modp_2048() -> Self {
        let p = BigUint::from_hex(concat!(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
            "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
            "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
            "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
            "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D",
            "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F",
            "83655D23DCA3AD961C62F356208552BB9ED529077096966D",
            "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B",
            "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9",
            "DE2BCBF6955817183995497CEA956AE515D2261898FA0510",
            "15728E5A8AACAA68FFFFFFFFFFFFFFFF"
        ))
        .expect("valid RFC 3526 hex");
        Self::new(p, BigUint::from_u64(2))
    }

    /// The prime modulus.
    pub fn prime(&self) -> &BigUint {
        &self.p
    }

    /// The generator.
    pub fn generator(&self) -> &BigUint {
        &self.g
    }

    /// The group's arithmetic, for example
    /// `pseudo-mersenne 2^512-569, comb 8x33`.
    fn arithmetic(&self) -> String {
        let field = match &self.exp {
            Exponentiator::PseudoMersenne(f) => format!("pseudo-mersenne 2^512-{}", f.field.c()),
            Exponentiator::Limbs8(_) => "montgomery 8 limbs".to_string(),
            Exponentiator::Limbs32(_) => "montgomery 32 limbs".to_string(),
        };
        format!("{field}, comb {TEETH}x{COLUMNS}")
    }

    /// `base^exp mod p`, through the 4-bit window.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match &self.exp {
            Exponentiator::PseudoMersenne(f) => f.pow(base, exp),
            Exponentiator::Limbs8(f) => f.pow(base, exp),
            Exponentiator::Limbs32(f) => f.pow(base, exp),
        }
    }

    /// `g^exp mod p`, through the generator's comb.
    fn pow_generator(&self, exp: &BigUint) -> BigUint {
        let (p, g) = (&self.p, &self.g);
        match &self.exp {
            Exponentiator::PseudoMersenne(f) => f.pow_generator(p, g, exp),
            Exponentiator::Limbs8(f) => f.pow_generator(p, g, exp),
            Exponentiator::Limbs32(f) => f.pow_generator(p, g, exp),
        }
    }
}

/// A private/public DH key pair within a group.
#[derive(Debug, Clone)]
pub struct DhKeyPair {
    private: BigUint,
    public: BigUint,
}

impl DhKeyPair {
    /// Derive a key pair from caller-supplied entropy bytes.
    ///
    /// The private exponent is `entropy mod (p − 2) + 2`, guaranteeing
    /// `2 ≤ x < p`. At least 16 bytes of entropy are required.
    ///
    /// # Errors
    ///
    /// Returns `Err` if fewer than 16 entropy bytes are supplied.
    pub fn from_entropy(params: &DhParams, entropy: &[u8]) -> Result<Self, DhError> {
        if entropy.len() < 16 {
            return Err(DhError::InsufficientEntropy {
                need: 16,
                have: entropy.len(),
            });
        }
        let two = BigUint::from_u64(2);
        let span = params
            .p
            .checked_sub(&two)
            .expect("modulus ≥ 3 by construction");
        let private = BigUint::from_bytes_be(entropy).rem(&span).add(&two);
        let public = params.pow_generator(&private);
        Ok(Self { private, public })
    }

    /// The public value to be shared with the peer.
    pub fn public(&self) -> &BigUint {
        &self.public
    }

    /// Compute the shared secret with the peer's public value and derive a
    /// 32-byte session key via SHA-256 over the secret's big-endian bytes.
    ///
    /// # Errors
    ///
    /// Rejects degenerate peer values (`0`, `1`, `p−1`, or ≥ `p`), which
    /// would let an active attacker force a predictable key.
    ///
    /// This is not a subgroup check. In a group whose `p − 1` has small
    /// factors, such as [`DhParams::default_group`], an element of small
    /// order passes it and confines the secret to a few values. Only a
    /// safe-prime group ([`DhParams::modp_2048`]) has no such elements
    /// beyond the ones rejected here.
    pub fn agree(&self, params: &DhParams, peer_public: &BigUint) -> Result<SessionKey, DhError> {
        use std::cmp::Ordering::*;
        let pm1 = params
            .p
            .checked_sub(&BigUint::from_u64(1))
            .expect("modulus ≥ 3");
        let bad = peer_public.is_zero()
            || peer_public.cmp_to(&BigUint::one()) == Equal
            || peer_public.cmp_to(&pm1) == Equal
            || peer_public.cmp_to(&params.p) != Less;
        if bad {
            return Err(DhError::InvalidPeerPublic);
        }
        let secret = params.pow(peer_public, &self.private);
        let mut h = Sha256::new();
        h.update(b"kshot-dh-kdf-v1");
        h.update(&secret.to_bytes_be());
        Ok(SessionKey(h.finalize()))
    }
}

/// A 32-byte symmetric session key derived from a DH agreement.
#[derive(Clone, PartialEq, Eq)]
pub struct SessionKey(pub [u8; 32]);

impl SessionKey {
    /// Key bytes, sized for [`crate::ChaCha20`].
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Derive a per-message nonce from a sequence number.
    ///
    /// Distinct sequence numbers yield distinct nonces under the same key,
    /// which is all ChaCha20 requires.
    pub fn nonce_for(&self, sequence: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&sequence.to_le_bytes());
        n[8..].copy_from_slice(&[0x6b, 0x73, 0x68, 0x74]); // "ksht"
        n
    }
}

impl std::fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SessionKey(<32 bytes>)")
    }
}

/// Errors from DH key agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhError {
    /// Not enough entropy bytes were supplied to generate a private key.
    InsufficientEntropy {
        /// Minimum bytes required.
        need: usize,
        /// Bytes supplied.
        have: usize,
    },
    /// The peer's public value is degenerate or out of range.
    InvalidPeerPublic,
}

impl std::fmt::Display for DhError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhError::InsufficientEntropy { need, have } => {
                write!(f, "insufficient entropy: need {need} bytes, have {have}")
            }
            DhError::InvalidPeerPublic => write!(f, "peer public value is degenerate"),
        }
    }
}

impl std::error::Error for DhError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn entropy(tag: u8) -> Vec<u8> {
        (0..32u8)
            .map(|i| i.wrapping_mul(31).wrapping_add(tag))
            .collect()
    }

    #[test]
    fn agreement_produces_shared_key() {
        let params = DhParams::default_group();
        let alice = DhKeyPair::from_entropy(&params, &entropy(1)).unwrap();
        let bob = DhKeyPair::from_entropy(&params, &entropy(2)).unwrap();
        let k1 = alice.agree(&params, bob.public()).unwrap();
        let k2 = bob.agree(&params, alice.public()).unwrap();
        assert_eq!(k1.as_bytes(), k2.as_bytes());
    }

    #[test]
    fn distinct_entropy_distinct_keys() {
        let params = DhParams::default_group();
        let a1 = DhKeyPair::from_entropy(&params, &entropy(1)).unwrap();
        let a2 = DhKeyPair::from_entropy(&params, &entropy(3)).unwrap();
        assert_ne!(a1.public().to_bytes_be(), a2.public().to_bytes_be());
    }

    #[test]
    fn eavesdropper_with_wrong_private_gets_wrong_key() {
        let params = DhParams::default_group();
        let alice = DhKeyPair::from_entropy(&params, &entropy(1)).unwrap();
        let bob = DhKeyPair::from_entropy(&params, &entropy(2)).unwrap();
        let eve = DhKeyPair::from_entropy(&params, &entropy(9)).unwrap();
        let real = alice.agree(&params, bob.public()).unwrap();
        let guess = eve.agree(&params, bob.public()).unwrap();
        assert_ne!(real.as_bytes(), guess.as_bytes());
    }

    #[test]
    fn rejects_degenerate_peer_values() {
        let params = DhParams::default_group();
        let alice = DhKeyPair::from_entropy(&params, &entropy(1)).unwrap();
        let pm1 = params.prime().checked_sub(&BigUint::one()).unwrap();
        for bad in [
            BigUint::zero(),
            BigUint::one(),
            pm1,
            params.prime().clone(),
            params.prime().add(&BigUint::from_u64(5)),
        ] {
            assert_eq!(alice.agree(&params, &bad), Err(DhError::InvalidPeerPublic));
        }
    }

    #[test]
    fn rejects_insufficient_entropy() {
        let params = DhParams::default_group();
        assert!(matches!(
            DhKeyPair::from_entropy(&params, &[1, 2, 3]),
            Err(DhError::InsufficientEntropy { .. })
        ));
    }

    #[test]
    fn nonce_distinct_per_sequence() {
        let k = SessionKey([0u8; 32]);
        assert_ne!(k.nonce_for(0), k.nonce_for(1));
        assert_eq!(k.nonce_for(7), k.nonce_for(7));
    }

    #[test]
    fn modp_2048_parses() {
        let params = DhParams::modp_2048();
        assert_eq!(params.prime().bit_len(), 2048);
    }

    /// Pins one public value and one session key per group, so a change
    /// of exponentiation or KDF cannot silently move every DH value.
    fn assert_golden(params: &DhParams, public_hex: &str, key_hex: &str) {
        let alice = DhKeyPair::from_entropy(params, &entropy(1)).unwrap();
        let bob = DhKeyPair::from_entropy(params, &entropy(2)).unwrap();
        assert_eq!(alice.public().to_string(), public_hex);
        let key = alice.agree(params, bob.public()).unwrap();
        assert_eq!(crate::sha256::hex(key.as_bytes()), key_hex);
    }

    #[test]
    fn golden_dh_values_default_group() {
        assert_golden(
            &DhParams::default_group(),
            concat!(
                "74de8f2a83870a8d110cd3822499938b2044657304518a1cf85cd76afcdc583c",
                "07c0c6e446c63d7c0a27bd75ca21a041be145d178a24e0ee7686ff39f8287437"
            ),
            "662e409d2ef1e3416196fc71ed77a3d248753ae5c36a0f8488444fbbdf71d5b0",
        );
    }

    #[test]
    fn golden_dh_values_modp_2048() {
        assert_golden(
            &DhParams::modp_2048(),
            concat!(
                "a7fca5d6b2c37859e41ee514885cb0f2964a3481e5d730e86d982dbb9a6ef00d",
                "0d7e59bd3494182dcb0fb95416923972f325416b3ff5e4ecb080e9e3c9104d53",
                "8cdf9d1bc2894c1529cc6fae01444acb3bbdaa169fc398287f04aa11bf6fd88f",
                "7d659867b873ce8a5123e37629f345929f71cdb1d77724c488741d5421deb700",
                "6d2cc7dca545840097c66885d29bf756784cb86b3fba337dd641c3ffafdb497c",
                "5a583169d751beeb0fae437502ca622536e815809353d2b49b4cfaf1d394870d",
                "653bb8582d3c738346861960afc0ad2971b1b606b54443bf3b8293cf24619712",
                "a29843b93a49b33fb671e4d63ee72337fea1982eff348527dfcd00a66d218328"
            ),
            "67b0f2e7834ab10cdbcc69f0f9712e3e34eb70703dfd9cc94635325a0f9fa05d",
        );
    }

    #[test]
    fn default_group_admits_small_order_peer_values() {
        // 23 divides p − 1, so h = 3^((p−1)/23) has order 23: it passes
        // `agree`'s range check, and h^x takes only 23 values. The docs
        // say so; this pins that they are right.
        let params = DhParams::default_group();
        let one = BigUint::one();
        let pm1 = params.prime().checked_sub(&one).unwrap();
        let (cofactor, r) = pm1.div_rem(&BigUint::from_u64(23));
        assert!(r.is_zero());
        let h = BigUint::from_u64(3).modpow(&cofactor, params.prime());
        assert_ne!(h, one);
        assert_eq!(h.modpow(&BigUint::from_u64(23), params.prime()), one);
        let alice = DhKeyPair::from_entropy(&params, &entropy(1)).unwrap();
        assert!(alice.agree(&params, &h).is_ok());
    }

    #[test]
    #[should_panic(expected = "DH modulus must be odd")]
    fn new_rejects_even_modulus() {
        let _ = DhParams::new(BigUint::from_u64(1 << 20), BigUint::from_u64(2));
    }

    #[test]
    #[should_panic(expected = "DH modulus wider than 2048 bits")]
    fn new_rejects_modulus_wider_than_2048_bits() {
        let p = BigUint::one().shl(2048).add(&BigUint::one());
        let _ = DhParams::new(p, BigUint::from_u64(2));
    }

    #[test]
    fn new_rejects_degenerate_generator() {
        let p = DhParams::default_group().prime().clone();
        let one = BigUint::one();
        let pm1 = p.checked_sub(&one).unwrap();
        for g in [
            BigUint::zero(),
            one.clone(),
            pm1.clone(),
            p.clone(),
            p.add(&one),
            p.add(&pm1),
            p.mul(&BigUint::from_u64(7)),
        ] {
            let built = std::panic::catch_unwind(|| DhParams::new(p.clone(), g.clone()));
            let msg = built.err().and_then(|e| e.downcast::<&str>().ok());
            assert_eq!(
                msg.as_deref(),
                Some(&"DH generator is degenerate: g ≡ 0, 1 or p − 1 (mod p)"),
                "g = {g}"
            );
        }
    }

    /// Every keygen runs through the comb (exponents below 2^264) or
    /// the window (above): both equal `modpow` on both groups, for
    /// short, 32-byte, 64-byte and long entropy, and for entropy of
    /// 2^256 − 1, whose private key 2^256 + 1 has 257 bits.
    #[test]
    fn comb_keygens_match_modpow_on_both_groups() {
        let near_2_256 = vec![0xFF; 32];
        let entropies = [
            entropy(1)[..16].to_vec(),
            entropy(2),
            near_2_256,
            vec![0xA5; 64],
            vec![0x5A; 100],
        ];
        for params in [DhParams::default_group(), DhParams::modp_2048()] {
            for e in &entropies {
                let pair = DhKeyPair::from_entropy(&params, e).unwrap();
                let want = params.g.modpow(&pair.private, &params.p);
                assert_eq!(pair.public, want, "{} entropy bytes", e.len());
            }
        }
        let key = DhKeyPair::from_entropy(&DhParams::default_group(), &[0xFF; 32]).unwrap();
        assert_eq!(key.private.bit_len(), 257);
    }

    /// Keys from 32 and 33 bytes of entropy fit the comb's 264 bits;
    /// keys from 34 and 64 bytes do not and take the window. On both
    /// groups every public value equals `modpow`, and the two keys of
    /// each width agree on one session key.
    #[test]
    fn keygens_at_and_past_the_comb_width_match_modpow_and_agree() {
        let wide = |len: usize, tag: u8| {
            let mut e: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(67) ^ tag).collect();
            e[0] |= 0x80;
            e
        };
        for params in [DhParams::default_group(), DhParams::modp_2048()] {
            for len in [32, 33, 34, 64] {
                let alice = DhKeyPair::from_entropy(&params, &wide(len, 1)).unwrap();
                let bob = DhKeyPair::from_entropy(&params, &wide(len, 2)).unwrap();
                for pair in [&alice, &bob] {
                    assert_eq!(pair.private.bit_len(), 8 * len, "{len} entropy bytes");
                    let want = params.g.modpow(&pair.private, &params.p);
                    assert_eq!(pair.public, want, "{len} entropy bytes");
                }
                assert_eq!(
                    alice.agree(&params, bob.public()).unwrap(),
                    bob.agree(&params, alice.public()).unwrap(),
                    "{len} entropy bytes"
                );
            }
        }
    }

    /// A generator given as `g + k·p` builds its comb from `g mod p`,
    /// so its keys and agreements equal those of `g`.
    #[test]
    fn comb_for_a_generator_at_or_above_p_agrees_with_its_residue() {
        let base = DhParams::default_group();
        let p = base.prime().clone();
        let wide = DhParams::new(
            p.clone(),
            p.mul(&BigUint::from_u64(5)).add(&BigUint::from_u64(2)),
        );
        assert_ne!(wide, base);
        let (a, b) = (entropy(1), entropy(2));
        let a1 = DhKeyPair::from_entropy(&base, &a).unwrap();
        let a2 = DhKeyPair::from_entropy(&wide, &a).unwrap();
        assert_eq!(a1.public(), a2.public());
        let b2 = DhKeyPair::from_entropy(&wide, &b).unwrap();
        assert_eq!(
            a1.agree(&base, b2.public()).unwrap(),
            a2.agree(&wide, b2.public()).unwrap()
        );
    }

    #[test]
    fn new_picks_the_arithmetic_from_the_modulus_shape() {
        let two = BigUint::from_u64(2);
        let below = |c: u64| {
            BigUint::one()
                .shl(512)
                .checked_sub(&BigUint::from_u64(c))
                .unwrap()
        };
        let arithmetic = |p: BigUint| DhParams::new(p, two.clone()).arithmetic();
        assert_eq!(
            arithmetic(below(569)),
            "pseudo-mersenne 2^512-569, comb 8x33"
        );
        assert_eq!(arithmetic(below(1)), "pseudo-mersenne 2^512-1, comb 8x33");
        assert_eq!(
            arithmetic(below((1 << 32) + 1)),
            "montgomery 8 limbs, comb 8x33"
        );
        assert_eq!(
            arithmetic(BigUint::one().shl(511).add(&BigUint::one())),
            "montgomery 8 limbs, comb 8x33"
        );
        assert_eq!(
            arithmetic(BigUint::from_u64(1_000_003)),
            "montgomery 8 limbs, comb 8x33"
        );
        assert_eq!(
            DhParams::modp_2048().arithmetic(),
            "montgomery 32 limbs, comb 8x33"
        );
    }

    /// Prints the default group's arithmetic and what one keygen and
    /// one agreement cost on this build. No timing is asserted; run with
    /// `--release -- --nocapture` for host numbers.
    #[test]
    fn default_group_arithmetic_is_reported() {
        let params = DhParams::default_group();
        println!("dh default group: {}", params.arithmetic());
        let median_us = |f: &mut dyn FnMut()| {
            let mut us: Vec<f64> = (0..21)
                .map(|_| {
                    let start = std::time::Instant::now();
                    f();
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            us.sort_by(f64::total_cmp);
            us[us.len() / 2]
        };
        let peer = DhKeyPair::from_entropy(&params, &entropy(2)).unwrap();
        let mut tag = 0u8;
        let keygen = median_us(&mut || {
            tag = tag.wrapping_add(1);
            std::hint::black_box(DhKeyPair::from_entropy(&params, &entropy(tag)).unwrap());
        });
        let agree = median_us(&mut || {
            std::hint::black_box(peer.agree(&params, peer.public()).unwrap());
        });
        let build = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        println!("dh default group: keygen {keygen:.1} us, agree {agree:.1} us ({build} build, median of 21)");
    }

    #[test]
    fn debug_never_leaks_key() {
        let k = SessionKey([0xAA; 32]);
        let s = format!("{k:?}");
        assert!(!s.contains("aa") && !s.contains("AA") && !s.contains("170"));
    }
}
