//! Attacks staged by a *compromised helper* that owns a valid session
//! key: the SMM handler must still validate every placement itself —
//! the enclave's `paddr` assignment is defence-in-depth, not trust.

use kshot_core::package::{PackageOp, PackageRecord, PatchPackage, VerificationAlgorithm};
use kshot_core::reserved::{rw_offsets, ReservedLayout};
use kshot_core::smm::{DhGroup, SmmError, SmmHandler};
use kshot_crypto::dh::{DhKeyPair, DhParams};
use kshot_machine::{AccessCtx, Machine, MemLayout};
use kshot_patchserver::channel::SecureChannel;

struct Rig {
    machine: Machine,
    reserved: ReservedLayout,
    handler: SmmHandler,
    channel: SecureChannel,
}

/// Build a machine + installed handler, and a channel keyed exactly as a
/// (malicious) helper in possession of the session key would be.
fn rig() -> Rig {
    let mut machine = Machine::new(MemLayout::standard()).unwrap();
    let reserved = ReservedLayout::from_machine(&machine);
    reserved.install(&mut machine).unwrap();
    machine.raise_smi().unwrap();
    let handler =
        SmmHandler::install(&mut machine, &reserved, &[11u8; 32], DhGroup::Default).unwrap();
    machine.rsm().unwrap();
    // Read the SMM public from mem_RW, agree as the helper.
    let params = DhParams::default_group();
    let len = machine
        .read_u64(AccessCtx::Kernel, reserved.rw_base + rw_offsets::SMM_PUB)
        .unwrap();
    let mut pub_bytes = vec![0u8; len as usize];
    machine
        .read_bytes(
            AccessCtx::Kernel,
            reserved.rw_base + rw_offsets::SMM_PUB + 8,
            &mut pub_bytes,
        )
        .unwrap();
    let smm_public = kshot_crypto::BigUint::from_bytes_be(&pub_bytes);
    let helper = DhKeyPair::from_entropy(&params, &[13u8; 32]).unwrap();
    let key = helper.agree(&params, &smm_public).unwrap();
    // Publish the helper public so the handler derives the same key.
    let hp = helper.public().to_bytes_be();
    let base = reserved.rw_base + rw_offsets::HELPER_PUB;
    machine
        .write_u64(AccessCtx::Kernel, base, hp.len() as u64)
        .unwrap();
    machine
        .write_bytes(AccessCtx::Kernel, base + 8, &hp)
        .unwrap();
    Rig {
        machine,
        reserved,
        handler,
        channel: SecureChannel::new(key),
    }
}

fn stage(rig: &mut Rig, package: &PatchPackage) {
    let frame = rig.channel.seal(&package.encode()).encode();
    rig.machine
        .write_bytes(AccessCtx::Kernel, rig.reserved.w_base, &frame)
        .unwrap();
    rig.machine
        .write_u64(
            AccessCtx::Kernel,
            rig.reserved.rw_base + rw_offsets::STAGED_LEN,
            frame.len() as u64,
        )
        .unwrap();
}

fn place_record(seq: u32, paddr: u64, body: Vec<u8>) -> PackageRecord<'static> {
    PackageRecord {
        sequence: seq,
        op: PackageOp::PlaceOnly,
        ptype: 1,
        taddr: 0,
        paddr,
        ftrace_skip: 0,
        payload_hash: VerificationAlgorithm::Sha256.digest(&body),
        expected_pre_hash: [0; 32],
        tsize: 0,
        payload: body.into(),
    }
}

#[test]
fn overlapping_placements_within_one_package_are_rejected() {
    let mut rig = rig();
    let x = rig.reserved.x_base;
    // Two records claiming overlapping mem_X space.
    let package = PatchPackage {
        id: "CVE-FORGED".into(),
        algorithm: VerificationAlgorithm::Sha256,
        segments: vec![],
        records: vec![
            place_record(0, x, vec![0x90; 64]),
            place_record(1, x + 16, vec![0xC3; 16]), // overlaps record 0
        ],
    };
    stage(&mut rig, &package);
    rig.machine.raise_smi().unwrap();
    let err = rig
        .handler
        .handle_patch(&mut rig.machine, &rig.reserved, &[14u8; 32])
        .unwrap_err();
    rig.machine.rsm().unwrap();
    assert!(
        matches!(err, SmmError::BadPlacement { sequence: 1, .. }),
        "{err:?}"
    );
    // Nothing was written: the first 64 mem_X bytes are untouched zeros.
    rig.machine.raise_smi().unwrap();
    let mut probe = [0xAAu8; 64];
    rig.machine
        .read_bytes(AccessCtx::Smm, x, &mut probe)
        .unwrap();
    rig.machine.rsm().unwrap();
    assert_eq!(probe, [0u8; 64], "verification must precede application");
}

#[test]
fn placement_below_the_cursor_is_rejected() {
    let mut rig = rig();
    let x = rig.reserved.x_base;
    let package = PatchPackage {
        id: "CVE-LOW".into(),
        algorithm: VerificationAlgorithm::Sha256,
        segments: vec![],
        records: vec![place_record(0, x - 4096, vec![0x90; 8])],
    };
    stage(&mut rig, &package);
    rig.machine.raise_smi().unwrap();
    let err = rig
        .handler
        .handle_patch(&mut rig.machine, &rig.reserved, &[15u8; 32])
        .unwrap_err();
    rig.machine.rsm().unwrap();
    assert!(matches!(err, SmmError::BadPlacement { sequence: 0, .. }));
}

#[test]
fn placement_past_mem_x_end_is_rejected() {
    let mut rig = rig();
    let end = rig.reserved.x_base + rig.reserved.x_size;
    let package = PatchPackage {
        id: "CVE-HIGH".into(),
        algorithm: VerificationAlgorithm::Sha256,
        segments: vec![],
        records: vec![place_record(0, end - 4, vec![0x90; 8])],
    };
    stage(&mut rig, &package);
    rig.machine.raise_smi().unwrap();
    let err = rig
        .handler
        .handle_patch(&mut rig.machine, &rig.reserved, &[16u8; 32])
        .unwrap_err();
    rig.machine.rsm().unwrap();
    assert!(matches!(err, SmmError::BadPlacement { sequence: 0, .. }));
}

#[test]
fn wrapping_placement_is_rejected() {
    let mut rig = rig();
    let package = PatchPackage {
        id: "CVE-WRAP".into(),
        algorithm: VerificationAlgorithm::Sha256,
        segments: vec![],
        records: vec![place_record(0, u64::MAX - 3, vec![0x90; 8])],
    };
    stage(&mut rig, &package);
    rig.machine.raise_smi().unwrap();
    let err = rig
        .handler
        .handle_patch(&mut rig.machine, &rig.reserved, &[17u8; 32])
        .unwrap_err();
    rig.machine.rsm().unwrap();
    assert!(matches!(err, SmmError::BadPlacement { .. }));
}

#[test]
fn honest_disjoint_placements_still_apply() {
    let mut rig = rig();
    let x = rig.reserved.x_base;
    let package = PatchPackage {
        id: "CVE-OK".into(),
        algorithm: VerificationAlgorithm::Sha256,
        segments: vec![],
        records: vec![
            place_record(0, x, vec![0x90; 32]),
            place_record(1, x + 32, vec![0xC3; 8]),
        ],
    };
    stage(&mut rig, &package);
    rig.machine.raise_smi().unwrap();
    let outcome = rig
        .handler
        .handle_patch(&mut rig.machine, &rig.reserved, &[18u8; 32])
        .unwrap();
    rig.machine.rsm().unwrap();
    assert_eq!(outcome.payload_size, 40);
    assert_eq!(outcome.trampolines, 0, "PlaceOnly installs no trampolines");
}
