//! Arithmetic modulo a pseudo-Mersenne number 2^512 − c, c < 2^32.
//!
//! The default DH prime is 2^512 − 569. Because 2^512 ≡ c (mod m), a
//! 1024-bit product reduces with one multiply by `c` instead of a
//! division or a Montgomery REDC. Write the product as `hi·2^512 + lo`.
//! Then:
//!
//! 1. `lo + hi·c` is below `(c + 1)·2^512`. Its bits above 2^512, a
//!    word `top ≤ c`, fold back in as `top·c < 2^64`.
//! 2. That second fold can carry past 2^512 once more. The carry is
//!    worth `c`, and adding it cannot carry again.
//!
//! Elements stay in `[0, 2^512)` between operations, so they may be
//! `≥ m`. Only leaving the field subtracts `m`, once. Products use an
//! 8×8-limb schoolbook multiply, and squares a dedicated squaring of 36
//! limb products instead of 64. [`crate::dh::DhParams`] picks this
//! arithmetic for any modulus of this shape.
//!
//! [`BigUint::modpow`] is the reference the tests below check against.

use crate::bignum::BigUint;
use crate::field::{self, mac, to_limbs, Field};

/// Limbs of a 512-bit element.
const LIMBS: usize = 8;

/// The arithmetic modulo `m = 2^512 − c`, for `1 ≤ c < 2^32`.
///
/// # Examples
///
/// ```
/// use kshot_crypto::pseudo_mersenne::PseudoMersenne;
/// use kshot_crypto::BigUint;
///
/// let m = BigUint::one().shl(512).checked_sub(&BigUint::from_u64(569)).unwrap();
/// let field = PseudoMersenne::new(&m).unwrap();
/// let (b, e) = (BigUint::from_u64(7), BigUint::from_u64(1 << 40));
/// assert_eq!(field.pow(&b, &e), b.modpow(&e, &m));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PseudoMersenne {
    /// `2^512 − m`.
    c: u64,
}

impl PseudoMersenne {
    /// The arithmetic for modulus `m`, or `None` unless `m = 2^512 − c`
    /// with `1 ≤ c < 2^32`.
    pub fn new(m: &BigUint) -> Option<Self> {
        let c = BigUint::one().shl(64 * LIMBS).checked_sub(m)?;
        match c.limbs() {
            [c] if *c < 1 << 32 => Some(Self { c: *c }),
            _ => None,
        }
    }

    /// `base^exp mod m`, equal to [`BigUint::modpow`].
    ///
    /// A base wider than 512 bits is first reduced with
    /// [`BigUint::rem`]; narrower bases, `≥ m` or not, are used as they
    /// are.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        field::pow(self, base, exp)
    }

    /// `c`, the distance of the modulus below 2^512.
    pub(crate) fn c(&self) -> u64 {
        self.c
    }

    /// The modulus as a `BigUint`.
    fn modulus(&self) -> BigUint {
        BigUint::one()
            .shl(64 * LIMBS)
            .checked_sub(&BigUint::from_u64(self.c))
            .expect("c < 2^512")
    }

    /// `t mod m`, in `[0, 2^512)`, for any 1024-bit `t`.
    fn reduce(&self, t: &[u64; 2 * LIMBS]) -> [u64; LIMBS] {
        // First fold: r + top·2^512 = lo + hi·c, with top ≤ c.
        let mut r = [0u64; LIMBS];
        let mut top = 0u64;
        for j in 0..LIMBS {
            (r[j], top) = mac(t[j], t[LIMBS + j], self.c, top);
        }
        // Second fold: top·2^512 ≡ top·c < 2^64. A carry past 2^512 is
        // worth c once more; it leaves r below c², so adding c is final.
        if add_word(&mut r, top * self.c) {
            add_word(&mut r, self.c);
        }
        r
    }
}

impl Field for PseudoMersenne {
    type Elem = [u64; LIMBS];

    fn one(&self) -> [u64; LIMBS] {
        let mut one = [0u64; LIMBS];
        one[0] = 1;
        one
    }

    fn enter(&self, x: &BigUint) -> [u64; LIMBS] {
        if x.limbs().len() > LIMBS {
            to_limbs(&x.rem(&self.modulus()))
        } else {
            to_limbs(x)
        }
    }

    fn leave(&self, x: &[u64; LIMBS]) -> BigUint {
        // x < 2^512 < 2m, so one subtraction of m makes it canonical:
        // x ≥ m exactly when x + c carries out of 2^512, and the
        // wrapped sum is then x − m.
        let mut r = *x;
        if !add_word(&mut r, self.c) {
            r = *x;
        }
        BigUint::from_limbs(r.to_vec())
    }

    fn mul(&self, a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; LIMBS] {
        let mut t = [0u64; 2 * LIMBS];
        for i in 0..LIMBS {
            let mut carry = 0u64;
            for j in 0..LIMBS {
                (t[i + j], carry) = mac(t[i + j], a[i], b[j], carry);
            }
            t[i + LIMBS] = carry;
        }
        self.reduce(&t)
    }

    fn sqr(&self, a: &[u64; LIMBS]) -> [u64; LIMBS] {
        let mut t = [0u64; 2 * LIMBS];
        // The cross products a[i]·a[j], i < j, once each.
        for i in 0..LIMBS - 1 {
            let mut carry = 0u64;
            for j in i + 1..LIMBS {
                (t[i + j], carry) = mac(t[i + j], a[i], a[j], carry);
            }
            t[i + LIMBS] = carry;
        }
        // Doubled, since a[i]·a[j] and a[j]·a[i] are both in a².
        let mut shifted_out = 0u64;
        for limb in t.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | shifted_out;
            shifted_out = next;
        }
        // Plus the squares a[i]² on the diagonal.
        let mut carry = 0u64;
        for i in 0..LIMBS {
            let (lo, hi) = mac(t[2 * i], a[i], a[i], carry);
            t[2 * i] = lo;
            let (sum, over) = t[2 * i + 1].overflowing_add(hi);
            t[2 * i + 1] = sum;
            carry = u64::from(over);
        }
        self.reduce(&t)
    }
}

/// `r += w` modulo 2^512, returning whether the sum carried out.
fn add_word(r: &mut [u64; LIMBS], w: u64) -> bool {
    let mut carry = w;
    for limb in r.iter_mut() {
        if carry == 0 {
            return false;
        }
        let (sum, over) = limb.overflowing_add(carry);
        *limb = sum;
        carry = u64::from(over);
    }
    carry != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::tests::of_width;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// `2^512 − c`.
    fn modulus(c: u64) -> BigUint {
        BigUint::one()
            .shl(512)
            .checked_sub(&BigUint::from_u64(c))
            .unwrap()
    }

    /// A 512-bit element from bytes, and its value.
    fn element(bytes: &[u8; 64]) -> ([u64; LIMBS], BigUint) {
        let x = BigUint::from_bytes_be(bytes);
        (to_limbs(&x), x)
    }

    /// The bases the contract names: 0, 1, m − 1, the non-canonical
    /// m, m + 1 and 2^512 − 1, a base wider than 512 bits, and two
    /// random ones below m.
    fn edge_bases(m: &BigUint, rng: &mut TestRng) -> Vec<BigUint> {
        let one = BigUint::one();
        vec![
            BigUint::zero(),
            one.clone(),
            m.checked_sub(&one).unwrap(),
            m.clone(),
            m.add(&one),
            modulus(1),
            of_width(rng, 700),
            of_width(rng, 511),
            of_width(rng, 300),
        ]
    }

    #[test]
    fn pseudo_mersenne_pow_matches_modpow_at_every_exponent_width() {
        let m = modulus(569);
        let field = PseudoMersenne::new(&m).unwrap();
        let mut rng = TestRng::seed_from_u64(569);
        let bases = edge_bases(&m, &mut rng);
        // Entropy of 2^256 − 1 gives the 257-bit private key 2^256 + 1.
        let key_257 = BigUint::one().shl(256).add(&BigUint::one());
        for b in &bases {
            for e in [BigUint::zero(), BigUint::one(), key_257.clone()] {
                assert_eq!(field.pow(b, &e), b.modpow(&e, &m), "{b} ^ {e}");
            }
        }
        for width in 1..=512 {
            let e = of_width(&mut rng, width);
            let b = &bases[width % bases.len()];
            assert_eq!(field.pow(b, &e), b.modpow(&e, &m), "{b} ^ {e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn pseudo_mersenne_pow_matches_modpow_for_any_small_c(
            c in prop_oneof![Just(1u64), Just(569u64), 1u64..1 << 32, Just((1u64 << 32) - 1)],
            base in any::<[u8; 64]>(),
            exp in any::<[u8; 40]>(),
        ) {
            let m = modulus(c);
            let field = PseudoMersenne::new(&m).unwrap();
            let b = BigUint::from_bytes_be(&base);
            let e = BigUint::from_bytes_be(&exp);
            prop_assert_eq!(field.pow(&b, &e), b.modpow(&e, &m));
        }

        #[test]
        fn pseudo_mersenne_sqr_and_mul_match_the_reference(
            c in prop_oneof![Just(569u64), 1u64..1 << 32],
            a in any::<[u8; 64]>(),
            b in any::<[u8; 64]>(),
        ) {
            let m = modulus(c);
            let field = PseudoMersenne::new(&m).unwrap();
            let ((a, av), (b, bv)) = (element(&a), element(&b));
            prop_assert_eq!(field.sqr(&a), field.mul(&a, &a));
            prop_assert_eq!(field.leave(&field.sqr(&a)), av.mul(&av).rem(&m));
            prop_assert_eq!(field.leave(&field.mul(&a, &b)), av.mul(&bv).rem(&m));
        }
    }

    /// Products whose second fold carries past 2^512, so the reduction
    /// must add `c` once more. Each case first checks, on `BigUint`s,
    /// that it really takes that path.
    #[test]
    fn pseudo_mersenne_reduction_carries_past_2_512() {
        let two_512 = BigUint::one().shl(512);
        let all_ones = modulus(1);
        for c in [569u64, 3, (1 << 32) - 1] {
            let m = modulus(c);
            let field = PseudoMersenne::new(&m).unwrap();
            let cb = BigUint::from_u64(c);
            let cases = [
                (all_ones.clone(), all_ones.clone()),
                (all_ones.clone(), BigUint::one().shl(511)),
            ];
            for (a, b) in cases {
                let t = a.mul(&b);
                let (hi, lo) = t.div_rem(&two_512);
                let (top, r) = lo.add(&hi.mul(&cb)).div_rem(&two_512);
                assert!(r.add(&top.mul(&cb)).cmp_to(&two_512) != std::cmp::Ordering::Less);
                let (ea, eb) = (field.enter(&a), field.enter(&b));
                assert_eq!(field.leave(&field.mul(&ea, &eb)), t.rem(&m), "c = {c}");
                if a == b {
                    assert_eq!(field.leave(&field.sqr(&ea)), t.rem(&m), "c = {c}");
                }
            }
        }
    }

    #[test]
    fn pseudo_mersenne_leaves_non_canonical_elements_reduced() {
        let m = modulus(569);
        let field = PseudoMersenne::new(&m).unwrap();
        for k in [0u64, 1, 100, 568] {
            let x = m.add(&BigUint::from_u64(k));
            assert_eq!(field.leave(&field.enter(&x)), BigUint::from_u64(k));
        }
    }

    #[test]
    fn pseudo_mersenne_accepts_only_2_512_minus_small_c() {
        assert!(PseudoMersenne::new(&modulus(569)).is_some());
        assert!(PseudoMersenne::new(&modulus(1)).is_some());
        assert!(PseudoMersenne::new(&modulus((1 << 32) - 1)).is_some());
        assert!(PseudoMersenne::new(&modulus(1 << 32)).is_none());
        assert!(PseudoMersenne::new(&BigUint::one().shl(512)).is_none());
        assert!(PseudoMersenne::new(&BigUint::one().shl(512).add(&BigUint::one())).is_none());
        assert!(PseudoMersenne::new(&BigUint::from_u64(13)).is_none());
    }
}
