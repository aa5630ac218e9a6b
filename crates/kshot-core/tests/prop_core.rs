//! Property tests over KShot's core data paths: the Fig. 3 package
//! format, trampoline arithmetic under arbitrary placements, and the
//! byte-exactness of rollback across random patch sequences.

use kshot_core::package::{PackageOp, PackageRecord, PatchPackage, VerificationAlgorithm};
use kshot_crypto::sha256::sha256;
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = PackageOp> {
    prop_oneof![
        Just(PackageOp::Patch),
        Just(PackageOp::GlobalWrite),
        Just(PackageOp::PlaceOnly),
    ]
}

fn arb_alg() -> impl Strategy<Value = VerificationAlgorithm> {
    prop_oneof![
        Just(VerificationAlgorithm::Sha256),
        Just(VerificationAlgorithm::Sdbm),
    ]
}

prop_compose! {
    fn arb_record()(
        sequence in any::<u32>(),
        op in arb_op(),
        ptype in 1u8..4,
        taddr in any::<u64>(),
        paddr in any::<u64>(),
        ftrace_skip in prop_oneof![Just(0u8), Just(5u8)],
        tsize in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..300),
        alg in arb_alg(),
    ) -> PackageRecord<'static> {
        PackageRecord {
            sequence,
            op,
            ptype,
            taddr,
            paddr,
            ftrace_skip,
            payload_hash: alg.digest(&payload),
            expected_pre_hash: sha256(&payload),
            tsize,
            payload: payload.into(),
        }
    }
}

proptest! {
    #[test]
    fn package_roundtrips(
        id in "[A-Za-z0-9-]{1,40}",
        alg in arb_alg(),
        records in prop::collection::vec(arb_record(), 0..8),
    ) {
        let pkg = PatchPackage { id, algorithm: alg, records, segments: vec![] };
        let bytes = pkg.encode();
        let back = PatchPackage::decode(&bytes).unwrap();
        prop_assert_eq!(back, pkg);
    }

    #[test]
    fn truncated_packages_never_panic(
        records in prop::collection::vec(arb_record(), 1..4),
        cut in any::<prop::sample::Index>(),
    ) {
        let pkg = PatchPackage {
            id: "CVE-PROP".into(),
            algorithm: VerificationAlgorithm::Sha256,
            segments: vec![],
            records,
        };
        let bytes = pkg.encode();
        let k = cut.index(bytes.len());
        // Any prefix must either decode to the same package (only when
        // complete) or produce a clean error — never panic.
        if let Ok(p) = PatchPackage::decode(&bytes[..k]) {
            prop_assert_eq!(p, pkg);
        }
    }

    #[test]
    fn single_flipped_bit_is_never_silently_accepted(
        record in arb_record(),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        // Flipping any payload bit must break payload verification.
        prop_assume!(!record.payload.is_empty());
        let alg = VerificationAlgorithm::Sha256;
        let mut r = record;
        r.payload_hash = alg.digest(&r.payload);
        prop_assert!(r.verify_payload(alg));
        let i = byte.index(r.payload.len());
        r.payload.to_mut()[i] ^= 1 << bit;
        prop_assert!(!r.verify_payload(alg));
    }

    #[test]
    fn digest_algorithms_disagree_on_nonempty_payloads(
        payload in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        // SDBM's 8-byte digest padded to 32 never collides with the
        // SHA-256 digest of the same payload (would be a 2^-192 event).
        let a = VerificationAlgorithm::Sha256.digest(&payload);
        let b = VerificationAlgorithm::Sdbm.digest(&payload);
        prop_assert_ne!(a, b);
    }
}

mod rollback_exactness {
    use kshot_core::KShot;
    use kshot_kcc::ir::{CondExpr, Expr, Function, Global, InlineHint, Program, Stmt};
    use kshot_kcc::{link, CodegenOptions};
    use kshot_kernel::Kernel;
    use kshot_machine::{AccessCtx, MemLayout};
    use kshot_patchserver::{PatchServer, SourcePatch};
    use proptest::prelude::*;

    fn tree(n_funcs: usize) -> Program {
        let mut p = Program::new();
        p.add_global(Global::word("limit", 10));
        for i in 0..n_funcs {
            p.add_function(
                Function::new(format!("fn{i}"), 1, 0)
                    .with_inline(InlineHint::Never)
                    .returning(Expr::param(0).add(Expr::c(i as u64))),
            );
        }
        p
    }

    fn patch_of(i: usize, round: u64) -> SourcePatch {
        SourcePatch::new(format!("CVE-SEQ-{i}-{round}")).replacing(
            Function::new(format!("fn{i}"), 1, 0)
                .with_inline(InlineHint::Never)
                .with_body(vec![
                    Stmt::if_then(
                        CondExpr::new(Expr::param(0), kshot_isa::Cond::A, Expr::c(round + 50)),
                        vec![Stmt::Return(Expr::c(u64::MAX))],
                    ),
                    Stmt::Return(Expr::param(0).add(Expr::c(1000 + round))),
                ]),
        )
    }

    fn text_snapshot(kernel: &mut Kernel) -> Vec<u8> {
        let base = kernel.machine().layout().kernel_text_base;
        let len = kernel.image().text_size() as usize;
        let mut buf = vec![0u8; len];
        kernel
            .machine_mut()
            .read_bytes(AccessCtx::Kernel, base, &mut buf)
            .unwrap();
        buf
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Any sequence of patches, fully rolled back in LIFO order,
        /// restores the kernel text to its exact boot bytes.
        #[test]
        fn full_rollback_restores_exact_text(
            seq in prop::collection::vec(0usize..4, 1..6),
            seed in any::<u64>(),
        ) {
            let p = tree(4);
            let layout = MemLayout::standard();
            let image = link(
                &p,
                &CodegenOptions::default(),
                layout.kernel_text_base,
                layout.kernel_data_base,
            ).unwrap();
            let mut kernel = Kernel::boot(image, "kv-4.4", layout).unwrap();
            let boot_text = text_snapshot(&mut kernel);
            let mut server = PatchServer::new();
            server.register_tree("kv-4.4", p);
            let mut system = KShot::install(kernel, seed).unwrap();
            // Apply the random patch sequence. Re-patching an already
            // patched function is refused by the pre-hash check (the
            // target diverged) — skip those, exactly as an operator would.
            let mut applied = 0usize;
            let mut patched = std::collections::BTreeSet::new();
            for (round, &i) in seq.iter().enumerate() {
                if !patched.insert(i) {
                    continue;
                }
                system
                    .live_patch(&server, &patch_of(i, round as u64))
                    .unwrap();
                applied += 1;
            }
            prop_assume!(applied > 0);
            for _ in 0..applied {
                system.rollback_last().unwrap();
            }
            let final_text = text_snapshot(system.kernel_mut());
            prop_assert_eq!(final_text, boot_text, "text must be byte-identical");
            // And behaviour is the boot behaviour.
            for i in 0..4 {
                let rv = system
                    .kernel_mut()
                    .call_function(&format!("fn{i}"), &[7])
                    .unwrap();
                prop_assert_eq!(rv, 7 + i as u64);
            }
        }
    }
}
