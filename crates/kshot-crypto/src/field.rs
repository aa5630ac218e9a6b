//! Exponentiation written once, over either fixed-width arithmetic.
//!
//! [`Field`] is the small interface that both of the crate's modular
//! arithmetics implement: [`Montgomery<N>`] for any odd modulus, and
//! [`PseudoMersenne`] for moduli 2^512 − c. Two exponentiations run
//! over it:
//!
//! * [`pow`] serves any base. It uses a fixed 4-bit window: about `k`
//!   squarings and at most `⌈k/4⌉` multiplies for a `k`-bit exponent,
//!   after 14 multiplies that fill the window table.
//! * [`Comb`] serves one fixed base, the DH generator. It is a comb of
//!   8 teeth by 33 columns over a 256-entry table. Any exponent below
//!   2^264 costs 32 squarings and at most 33 multiplies.
//!
//! [`BigUint::modpow`] is the reference both are tested against.
//!
//! [`Montgomery<N>`]: crate::montgomery::Montgomery
//! [`PseudoMersenne`]: crate::pseudo_mersenne::PseudoMersenne

use crate::bignum::BigUint;

/// Modular arithmetic on fixed-width elements in an internal
/// representation (Montgomery form, or residues that need not be fully
/// reduced).
pub(crate) trait Field {
    /// An element in the internal representation.
    type Elem: Copy;

    /// One, in the internal representation.
    fn one(&self) -> Self::Elem;

    /// `x mod m` in the internal representation, for `x` of any width.
    fn enter(&self, x: &BigUint) -> Self::Elem;

    /// The canonical value, below the modulus, of an element.
    fn leave(&self, x: &Self::Elem) -> BigUint;

    /// The product `a·b`.
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// The square `a²`. An arithmetic with a cheaper squaring than its
    /// product overrides it.
    fn sqr(&self, a: &Self::Elem) -> Self::Elem {
        self.mul(a, a)
    }
}

/// `acc + a·b + carry` as (low, high) limbs; never overflows 128 bits.
#[inline(always)]
pub(crate) fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = u128::from(acc) + u128::from(a) * u128::from(b) + u128::from(carry);
    (t as u64, (t >> 64) as u64)
}

/// `x`'s limbs, zero-extended to `N`. The caller guarantees the width.
pub(crate) fn to_limbs<const N: usize>(x: &BigUint) -> [u64; N] {
    let mut out = [0u64; N];
    out[..x.limbs().len()].copy_from_slice(x.limbs());
    out
}

/// `base^exp mod m` through a fixed 4-bit window.
pub(crate) fn pow<F: Field>(field: &F, base: &BigUint, exp: &BigUint) -> BigUint {
    // table[i] = base^i.
    let mut table = [field.one(); 16];
    table[1] = field.enter(base);
    for i in 2..16 {
        table[i] = field.mul(&table[i - 1], &table[1]);
    }
    let e = exp.limbs();
    let window = |k: usize| ((e[k / 16] >> (4 * (k % 16))) & 0xF) as usize;
    let windows = exp.bit_len().div_ceil(4);
    let mut acc = field.one();
    for k in (0..windows).rev() {
        if k + 1 < windows {
            for _ in 0..4 {
                acc = field.sqr(&acc);
            }
        }
        let w = window(k);
        if w != 0 {
            acc = field.mul(&acc, &table[w]);
        }
    }
    field.leave(&acc)
}

/// Teeth of the comb.
pub(crate) const TEETH: usize = 8;

/// Columns of the comb: the distance, in exponent bits, between two
/// adjacent teeth. Eight teeth 33 bits apart reach 264 bits, which
/// holds every private key drawn from at most 32 bytes of entropy
/// (those keys stay below 2^256 + 2).
pub(crate) const COLUMNS: usize = 33;

/// Limbs that hold every exponent the comb reaches.
const LIMBS: usize = (TEETH * COLUMNS).div_ceil(64);

/// A fixed-base comb for one generator `g`.
///
/// Tooth `j` reads exponent bit `33·j + col`. Column `col` of the
/// exponent therefore selects the table entry whose bit `j` is that
/// bit, and `table[i]` holds the product of `g^(2^(33·j))` over the set
/// bits `j` of `i`. Walking the columns from 32 down to 0 with one
/// squaring between them computes `g^exp`.
///
/// The table is 256 elements: 16 KiB at 512 bits, 64 KiB at 2048.
#[derive(Clone)]
pub(crate) struct Comb<E> {
    table: [E; 1 << TEETH],
}

impl<E: Copy> Comb<E> {
    /// The comb for generator `g`: 231 squarings and 247 multiplies.
    pub(crate) fn new<F: Field<Elem = E>>(field: &F, g: &BigUint) -> Self {
        let mut table = [field.one(); 1 << TEETH];
        // g^(2^(33·j)) for the tooth j being filled.
        let mut tooth = field.enter(g);
        for j in 0..TEETH {
            let bit = 1 << j;
            table[bit] = tooth;
            for i in 1..bit {
                table[bit | i] = field.mul(&table[i], &tooth);
            }
            if j + 1 < TEETH {
                for _ in 0..COLUMNS {
                    tooth = field.sqr(&tooth);
                }
            }
        }
        Self { table }
    }

    /// `g^exp mod m`, or `None` when `exp ≥ 2^264`, which is wider than
    /// the comb's eight teeth reach.
    pub(crate) fn pow<F: Field<Elem = E>>(&self, field: &F, exp: &BigUint) -> Option<BigUint> {
        if exp.bit_len() > TEETH * COLUMNS {
            return None;
        }
        let e = to_limbs::<LIMBS>(exp);
        // teeth[j] holds exponent bits 33·j up to 33·j + 32.
        let teeth: [u64; TEETH] = std::array::from_fn(|j| {
            let (limb, shift) = (COLUMNS * j / 64, COLUMNS * j % 64);
            let pair = u128::from(e[limb]) | u128::from(e[limb + 1]) << 64;
            (pair >> shift) as u64 & ((1 << COLUMNS) - 1)
        });
        let mut acc = field.one();
        for col in (0..COLUMNS).rev() {
            if col + 1 < COLUMNS {
                acc = field.sqr(&acc);
            }
            let idx = teeth
                .iter()
                .enumerate()
                .fold(0, |idx, (j, &t)| idx | (((t >> col) & 1) as usize) << j);
            if idx != 0 {
                acc = field.mul(&acc, &self.table[idx]);
            }
        }
        Some(field.leave(&acc))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::montgomery::Montgomery;
    use crate::pseudo_mersenne::PseudoMersenne;
    use proptest::TestRng;

    fn default_prime() -> BigUint {
        crate::DhParams::default_group().prime().clone()
    }

    /// A value of exactly `bits` bits (`bits ≥ 1`), the rest random.
    pub(crate) fn of_width(rng: &mut TestRng, bits: usize) -> BigUint {
        let n = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let top_bits = bits - 64 * (n - 1);
        limbs[n - 1] &= u64::MAX >> (64 - top_bits);
        limbs[n - 1] |= 1 << (top_bits - 1);
        BigUint::from_limbs(limbs)
    }

    /// The comb for `g` against `BigUint::modpow` at exponents 0, 1,
    /// the 257-bit key 2^256 + 1, 2^264 − 1, and every width in
    /// `widths`; exponents of 2^264 and 2^512, past its reach, are
    /// refused.
    fn check_comb<F: Field>(field: &F, m: &BigUint, g: &BigUint, widths: &[usize]) {
        let comb = Comb::new(field, g);
        let mut rng = TestRng::seed_from_u64(m.bit_len() as u64);
        let one = BigUint::one();
        let mut exps = vec![
            BigUint::zero(),
            one.clone(),
            one.shl(256).add(&one),
            one.shl(264).checked_sub(&one).unwrap(),
        ];
        exps.extend(widths.iter().map(|&w| of_width(&mut rng, w)));
        for e in &exps {
            assert_eq!(comb.pow(field, e), Some(g.modpow(e, m)), "{g} ^ {e}");
        }
        assert_eq!(comb.pow(field, &one.shl(264)), None);
        assert_eq!(comb.pow(field, &one.shl(512)), None);
    }

    #[test]
    fn comb_matches_modpow_at_every_exponent_width() {
        let p = default_prime();
        let all: Vec<usize> = (1..=264).collect();
        check_comb(
            &PseudoMersenne::new(&p).unwrap(),
            &p,
            &BigUint::from_u64(2),
            &all,
        );
        check_comb(
            &Montgomery::<8>::new(&p).unwrap(),
            &p,
            &BigUint::from_u64(2),
            &all,
        );
        let g = of_width(&mut TestRng::seed_from_u64(7), 509);
        check_comb(&PseudoMersenne::new(&p).unwrap(), &p, &g, &all);
    }

    #[test]
    fn comb_for_a_generator_at_or_above_p_matches_modpow() {
        let p = default_prime();
        let field = PseudoMersenne::new(&p).unwrap();
        let widths = [1, 32, 33, 34, 63, 64, 65, 231, 232, 255, 256, 257, 263, 264];
        for g in [
            p.add(&BigUint::from_u64(2)),
            BigUint::one()
                .shl(512)
                .checked_sub(&BigUint::one())
                .unwrap(),
            p.mul(&BigUint::from_u64(3)).add(&BigUint::from_u64(5)),
        ] {
            check_comb(&field, &p, &g, &widths);
            check_comb(&Montgomery::<8>::new(&p).unwrap(), &p, &g, &widths);
        }
    }
}
