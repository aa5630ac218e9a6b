//! Fixed-width Montgomery modular arithmetic.
//!
//! [`Montgomery<N>`] works on `[u64; N]` stack arrays with coarsely
//! integrated operand scanning (CIOS) multiplication. It allocates
//! nothing, and every limb loop has a compile-time trip count.
//! [`crate::dh::DhParams`] uses it for every modulus that is not of the
//! form 2^512 − c (see [`crate::pseudo_mersenne`]): at `N = 8` up to 512
//! bits and at `N = 32` up to 2048 bits (MODP-2048). The 4-bit window
//! of [`Montgomery::pow`] and the DH generator's comb are written once
//! for both arithmetics.
//!
//! A square is a CIOS product of an element with itself. A separate
//! squaring (the half-size product, then a REDC) was tried and measured
//! no faster: 65.7 µs against 64–68 µs per 512-bit exponentiation on a
//! 2-vCPU Xeon.
//!
//! [`BigUint::modpow`] stays as the generic reference. It is the
//! differential oracle for the tests below.

use crate::bignum::BigUint;
use crate::field::{self, mac, to_limbs, Field};

/// A Montgomery context for one odd modulus `m < 2^(64·N)`, with
/// `R = 2^(64·N)`.
///
/// # Examples
///
/// ```
/// use kshot_crypto::montgomery::Montgomery;
/// use kshot_crypto::BigUint;
///
/// let m = BigUint::from_u64(13);
/// let ctx = Montgomery::<1>::new(&m).unwrap();
/// let (b, e) = (BigUint::from_u64(7), BigUint::from_u64(3));
/// assert_eq!(ctx.pow(&b, &e), b.modpow(&e, &m));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Montgomery<const N: usize> {
    /// The modulus.
    m: [u64; N],
    /// `−m⁻¹ mod 2^64`.
    m_inv: u64,
    /// `R mod m`: one, in Montgomery form.
    one: [u64; N],
    /// `R² mod m`: multiplying by it enters Montgomery form.
    r2: [u64; N],
}

impl<const N: usize> Montgomery<N> {
    /// The context for modulus `m`, or `None` unless `m` is odd, at
    /// least 3 and at most `64·N` bits wide.
    pub fn new(m: &BigUint) -> Option<Self> {
        if m.is_even() || m.bit_len() < 2 || m.bit_len() > 64 * N {
            return None;
        }
        let limbs = to_limbs::<N>(m);
        // Newton's iteration doubles the correct low bits each step;
        // an odd m is its own inverse mod 8, so five steps reach 96.
        let mut inv = limbs[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(limbs[0].wrapping_mul(inv)));
        }
        let r = BigUint::one().shl(64 * N);
        Some(Self {
            m: limbs,
            m_inv: inv.wrapping_neg(),
            one: to_limbs(&r.rem(m)),
            r2: to_limbs(&r.mul(&r).rem(m)),
        })
    }

    /// `base^exp mod m`, equal to [`BigUint::modpow`].
    ///
    /// A base wider than `N` limbs is first reduced with
    /// [`BigUint::rem`]; narrower bases, `≥ m` or not, enter Montgomery
    /// form directly.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        field::pow(self, base, exp)
    }

    /// The modulus as a `BigUint`.
    fn modulus(&self) -> BigUint {
        BigUint::from_limbs(self.m.to_vec())
    }
}

impl<const N: usize> Field for Montgomery<N> {
    type Elem = [u64; N];

    fn one(&self) -> [u64; N] {
        self.one
    }

    fn enter(&self, x: &BigUint) -> [u64; N] {
        let x = if x.limbs().len() > N {
            to_limbs(&x.rem(&self.modulus()))
        } else {
            to_limbs(x)
        };
        self.mul(&x, &self.r2)
    }

    fn leave(&self, x: &[u64; N]) -> BigUint {
        // Leaving Montgomery form is a multiplication by plain 1.
        let mut plain_one = [0u64; N];
        plain_one[0] = 1;
        BigUint::from_limbs(self.mul(x, &plain_one).to_vec())
    }

    /// CIOS Montgomery product `a·b·R⁻¹ mod m`. Needs `a < R` and
    /// `b < m`, which bounds the pre-subtraction result below `2m`.
    /// Every `b` the exponentiations pass is below `m`: a product,
    /// `R mod m`, `R² mod m` or plain 1.
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut t = [0u64; N];
        // Limb N of the running sum; limb N+1 (`t_top`) lives only
        // within one step.
        let mut t_hi = 0u64;
        for &bi in b {
            let mut carry = 0u64;
            for j in 0..N {
                (t[j], carry) = mac(t[j], a[j], bi, carry);
            }
            let (sum, over) = t_hi.overflowing_add(carry);
            t_hi = sum;
            let t_top = u64::from(over);

            let q = t[0].wrapping_mul(self.m_inv);
            let (_, mut carry) = mac(t[0], q, self.m[0], 0);
            for j in 1..N {
                (t[j - 1], carry) = mac(t[j], q, self.m[j], carry);
            }
            let (sum, over) = t_hi.overflowing_add(carry);
            t[N - 1] = sum;
            t_hi = t_top + u64::from(over);
        }
        if t_hi != 0 || !less_than(&t, &self.m) {
            let mut borrow = false;
            for (tj, &mj) in t.iter_mut().zip(&self.m) {
                let (d, b1) = tj.overflowing_sub(mj);
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                *tj = d;
                borrow = b1 | b2;
            }
        }
        t
    }
}

fn less_than<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for i in (0..N).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a seeded, dependency-free source of test operands.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A value of `1..=limbs` random limbs.
        fn big(&mut self, limbs: usize) -> BigUint {
            let n = 1 + (self.next() as usize) % limbs;
            BigUint::from_limbs((0..n).map(|_| self.next()).collect())
        }

        /// An odd modulus of `1..=limbs` limbs; every third one has a
        /// top limb of at most 16 bits.
        fn odd_modulus(&mut self, limbs: usize, case: usize) -> BigUint {
            let mut v: Vec<u64> = (0..1 + (self.next() as usize) % limbs)
                .map(|_| self.next())
                .collect();
            v[0] |= 1;
            if case.is_multiple_of(3) {
                *v.last_mut().unwrap() &= 0xFFFF;
            }
            let m = BigUint::from_limbs(v);
            if m.bit_len() < 2 {
                BigUint::from_u64(3)
            } else {
                m
            }
        }
    }

    fn default_prime() -> BigUint {
        crate::DhParams::default_group().prime().clone()
    }

    fn modp_2048() -> BigUint {
        crate::DhParams::modp_2048().prime().clone()
    }

    /// Every base and exponent shape the contract names: random bases,
    /// bases at and above the modulus, 0, 1 and m − 1; exponents 0, 1
    /// and random ones up to twice the width.
    fn check_against_modpow<const N: usize>(m: &BigUint, rng: &mut Rng) {
        let ctx = Montgomery::<N>::new(m).expect("odd modulus in range");
        let one = BigUint::one();
        let mut bases = vec![
            BigUint::zero(),
            one.clone(),
            m.checked_sub(&one).unwrap(),
            m.clone(),
            m.add(&one),
            rng.big(N),
            rng.big(2 * N),
        ];
        bases.push(BigUint::one().shl(64 * N).checked_sub(&one).unwrap());
        let exps = [BigUint::zero(), one.clone(), rng.big(N / 2), rng.big(2 * N)];
        for b in &bases {
            for e in &exps {
                assert_eq!(ctx.pow(b, e), b.modpow(e, m), "{b} ^ {e} mod {m}");
            }
        }
    }

    #[test]
    fn montgomery_pow_matches_modpow_at_8_limbs() {
        let mut rng = Rng(8);
        check_against_modpow::<8>(&default_prime(), &mut rng);
        for case in 0..40 {
            let m = rng.odd_modulus(8, case);
            check_against_modpow::<8>(&m, &mut rng);
        }
    }

    #[test]
    fn montgomery_pow_matches_modpow_at_32_limbs() {
        let mut rng = Rng(32);
        check_against_modpow::<32>(&modp_2048(), &mut rng);
        check_against_modpow::<32>(&default_prime(), &mut rng);
        for case in 0..4 {
            let m = rng.odd_modulus(32, case);
            check_against_modpow::<32>(&m, &mut rng);
        }
    }

    #[test]
    fn montgomery_rejects_even_tiny_and_oversized_moduli() {
        assert!(Montgomery::<8>::new(&BigUint::from_u64(1 << 20)).is_none());
        assert!(Montgomery::<8>::new(&BigUint::zero()).is_none());
        assert!(Montgomery::<8>::new(&BigUint::one()).is_none());
        assert!(Montgomery::<8>::new(&modp_2048()).is_none());
        assert!(Montgomery::<8>::new(&BigUint::from_u64(3)).is_some());
        assert!(Montgomery::<32>::new(&modp_2048()).is_some());
    }

    #[test]
    fn montgomery_fermat_on_both_dh_primes() {
        let one = BigUint::one();
        let p = default_prime();
        let ctx = Montgomery::<8>::new(&p).unwrap();
        let pm1 = p.checked_sub(&one).unwrap();
        assert_eq!(ctx.pow(&BigUint::from_u64(2), &pm1), one);
        let q = modp_2048();
        let ctx = Montgomery::<32>::new(&q).unwrap();
        let qm1 = q.checked_sub(&one).unwrap();
        assert_eq!(ctx.pow(&BigUint::from_u64(3), &qm1), one);
    }
}
