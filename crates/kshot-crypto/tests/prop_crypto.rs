//! Property tests over the crypto substrate: bignum laws, cipher
//! round-trips, DH agreement, and hash consistency.

use kshot_crypto::bignum::BigUint;
use kshot_crypto::chacha::ChaCha20;
use kshot_crypto::dh::{DhKeyPair, DhParams};
use kshot_crypto::hmac::{hmac_sha256, hmac_sha256_parts};
use kshot_crypto::sha256::{sha256, Sha256};
use proptest::prelude::*;

fn arb_biguint() -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u8>(), 0..40).prop_map(|b| BigUint::from_bytes_be(&b))
}

proptest! {
    #[test]
    fn bytes_roundtrip(n in arb_biguint()) {
        let bytes = n.to_bytes_be();
        prop_assert_eq!(BigUint::from_bytes_be(&bytes), n);
    }

    #[test]
    fn add_commutes(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn mul_commutes_and_distributes(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn sub_inverts_add(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.add(&b).checked_sub(&b).unwrap(), a);
    }

    #[test]
    fn div_rem_invariant(a in arb_biguint(), d in arb_biguint()) {
        prop_assume!(!d.is_zero());
        let (q, r) = a.div_rem(&d);
        prop_assert!(r.cmp_to(&d) == std::cmp::Ordering::Less);
        prop_assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    fn modpow_product_law(a in arb_biguint(), x in 0u64..50, y in 0u64..50, m in arb_biguint()) {
        // a^(x+y) ≡ a^x · a^y (mod m)
        prop_assume!(m.cmp_to(&BigUint::from_u64(2)) != std::cmp::Ordering::Less);
        let ax = a.modpow(&BigUint::from_u64(x), &m);
        let ay = a.modpow(&BigUint::from_u64(y), &m);
        let axy = a.modpow(&BigUint::from_u64(x + y), &m);
        prop_assert_eq!(ax.mul(&ay).rem(&m), axy);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in arb_biguint(), k in 0usize..130) {
        let two_k = {
            let mut t = BigUint::one();
            for _ in 0..k { t = t.mul(&BigUint::from_u64(2)); }
            t
        };
        prop_assert_eq!(a.shl(k), a.mul(&two_k));
    }

    #[test]
    fn chacha_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                        data in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut enc = data.clone();
        ChaCha20::new(&key, &nonce).apply(&mut enc);
        ChaCha20::new(&key, &nonce).apply(&mut enc);
        prop_assert_eq!(enc, data);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..600),
                                         split in any::<prop::sample::Index>()) {
        let k = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..k]);
        h.update(&data[k..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_distinguishes_keys_and_messages(k1 in any::<[u8; 16]>(), k2 in any::<[u8; 16]>(),
                                            m in prop::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &m), hmac_sha256(&k2, &m));
    }

    #[test]
    fn hmac_parts_equal_the_concatenation(key in prop::collection::vec(any::<u8>(), 0..100),
                                          m in prop::collection::vec(any::<u8>(), 0..300),
                                          i in any::<prop::sample::Index>(),
                                          j in any::<prop::sample::Index>()) {
        let (a, b) = (i.index(m.len() + 1), j.index(m.len() + 1));
        let (lo, hi) = (a.min(b), a.max(b));
        let whole = hmac_sha256(&key, &m);
        prop_assert_eq!(hmac_sha256_parts(&key, &[&m[..lo], &m[lo..]]), whole);
        prop_assert_eq!(hmac_sha256_parts(&key, &[&m[..lo], &m[lo..hi], &m[hi..]]), whole);
        prop_assert_eq!(hmac_sha256_parts(&key, &[&[], &m, &[]]), whole);
    }

    #[test]
    fn dh_agreement_always_symmetric(e1 in any::<[u8; 24]>(), e2 in any::<[u8; 24]>()) {
        let params = DhParams::default_group();
        let a = DhKeyPair::from_entropy(&params, &e1).unwrap();
        let b = DhKeyPair::from_entropy(&params, &e2).unwrap();
        let k1 = a.agree(&params, b.public()).unwrap();
        let k2 = b.agree(&params, a.public()).unwrap();
        prop_assert_eq!(k1.as_bytes(), k2.as_bytes());
    }
}
