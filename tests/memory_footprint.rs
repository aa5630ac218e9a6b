//! Footprint of simulated physical memory, measured by the memory itself
//! (`PhysMemory::resident_bytes`, the bytes its runs own) rather than by
//! the host allocator, so the bound holds on any allocator and any host.

use kshot::core::KShot;
use kshot::cve::{find, patch_for};
use kshot::fleet::CampaignTarget;
use kshot::machine::{AccessCtx, Machine, MemLayout, PAGE_SIZE};

/// Most pages a fleet machine may own once booted, installed and
/// patched with CVE-2017-17806. The fleet layout installs 26 MB (6656
/// pages); the machine writes its kernel image, KShot's handler and key
/// material, the staged patch, the placed bodies and the journal.
const MAX_PATCHED_PAGES: u64 = 32;

fn patched_fleet_machine() -> KShot {
    let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
    let (target, server) = CampaignTarget::benchmark(spec.version);
    let mut system = KShot::install(target.boot_one(), 7).expect("KShot installs");
    system
        .live_patch(&server, &patch_for(spec))
        .expect("patch applies");
    system
}

#[test]
fn patched_fleet_machine_owns_at_most_32_pages() {
    let fresh = Machine::new(MemLayout::fleet()).expect("fleet layout is valid");
    assert_eq!(
        fresh.phys().resident_bytes(),
        0,
        "a new machine owns no RAM"
    );
    let system = patched_fleet_machine();
    let phys = system.kernel().machine().phys();
    let resident = phys.resident_bytes();
    assert_eq!(resident % PAGE_SIZE, 0, "runs hold whole pages");
    assert!(
        resident <= MAX_PATCHED_PAGES * PAGE_SIZE,
        "patched fleet machine owns {} pages of {} installed (limit {MAX_PATCHED_PAGES})",
        resident / PAGE_SIZE,
        phys.size() / PAGE_SIZE
    );
}

#[test]
fn snapshot_shares_every_run_until_the_next_write() {
    let mut system = patched_fleet_machine();
    let snap = system.kernel().machine().snapshot();
    assert!(
        snap.phys()
            .shares_runs_with(system.kernel().machine().phys()),
        "a snapshot copies no RAM"
    );
    let machine = system.kernel_mut().machine_mut();
    let data = machine.layout().kernel_data_base;
    let before = snap.phys().slice(data, 8).expect("one page").to_vec();
    machine
        .write_bytes(AccessCtx::Kernel, data, &[0xAB; 8])
        .expect("kernel data is writable");
    assert!(
        !snap.phys().shares_runs_with(machine.phys()),
        "the written run is copied on write"
    );
    assert_eq!(snap.phys().slice(data, 8).unwrap(), &before[..]);
    assert_eq!(machine.phys().slice(data, 8).unwrap(), &[0xAB; 8]);
}
