//! The buffer budget: how many payload-sized heap blocks one patch takes
//! on its way from the server to `mem_X`.
//!
//! Each payload byte crosses each hop of Fig. 2 in one buffer, so a
//! `live_patch_wire` makes five: the server's sealed frame (which the
//! enclave opens in place and keeps as its verified bundle), the
//! enclave's package frame (encoded, relocated, hashed and sealed where
//! it lies), the `mem_W` pages, SMM's private copy of `mem_W` (decrypted
//! in place, its records borrowing from it) and the `mem_X` pages. A
//! counting `#[global_allocator]` counts every allocation, and every
//! realloc that grows a block, of at least half the payload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kshot_core::KShot;
use kshot_kcc::ir::{Expr, Function, Global, InlineHint, Program, Stmt};
use kshot_kcc::{link, CodegenOptions};
use kshot_kernel::Kernel;
use kshot_machine::MemLayout;
use kshot_patchserver::bundle::{PatchBundle, PatchEntry};
use kshot_patchserver::{PatchServer, SourcePatch};

struct CountingAlloc;

/// Blocks of at least this many bytes are counted (none while it is
/// `usize::MAX`).
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PAYLOAD: usize = 1 << 20;

/// A kernel whose `target` calls `helper`, so a patch of `target`
/// carries a call relocation.
fn boot() -> (Kernel, PatchServer) {
    let mut tree = Program::new();
    tree.add_global(Global::word("sentinel", 0));
    tree.add_function(
        Function::new("helper", 1, 0)
            .with_inline(InlineHint::Never)
            .with_body(vec![Stmt::Return(Expr::param(0).add(Expr::c(1)))]),
    );
    tree.add_function(target(1));
    let layout = MemLayout::standard();
    let image = link(
        &tree,
        &CodegenOptions::default(),
        layout.kernel_text_base,
        layout.kernel_data_base,
    )
    .unwrap();
    let kernel = Kernel::boot(image, "kv-budget", layout).unwrap();
    let mut server = PatchServer::new();
    server.register_tree("kv-budget", tree);
    (kernel, server)
}

/// `target(x) = helper(x + k)`.
fn target(k: u64) -> Function {
    Function::new("target", 1, 0)
        .with_inline(InlineHint::Never)
        .with_body(vec![Stmt::Return(Expr::call(
            "helper",
            vec![Expr::param(0).add(Expr::c(k))],
        ))])
}

/// The fix of `target` as a `Patch` record, its body padded to
/// `PAYLOAD` bytes with NOPs after its `ret`.
fn patch_bundle(kernel: &Kernel, server: &PatchServer) -> PatchBundle {
    let fix = SourcePatch::new("CVE-BUDGET-PATCH").replacing(target(2));
    let mut bundle = server.build_patch(&kernel.info(), &fix).unwrap().bundle;
    assert_eq!(bundle.entries.len(), 1);
    assert!(!bundle.entries[0].relocs.is_empty(), "a call relocation");
    bundle.entries[0]
        .body
        .resize(PAYLOAD, kshot_isa::opcodes::NOP);
    bundle
}

/// One `PAYLOAD`-byte new function, placed without a trampoline.
fn place_only_bundle() -> PatchBundle {
    let mut body = vec![kshot_isa::opcodes::NOP; PAYLOAD];
    body[PAYLOAD - 1] = kshot_isa::opcodes::RET;
    PatchBundle {
        id: "CVE-BUDGET-PLACE".into(),
        kernel_version: "kv-budget".into(),
        new_functions: vec![PatchEntry {
            name: "blob".into(),
            taddr: 0,
            tsize: 0,
            ftrace_offset: None,
            expected_pre_hash: [0; 32],
            body,
            relocs: vec![],
        }],
        ..Default::default()
    }
}

/// Single test fn: a second test in this binary could allocate
/// payload-sized blocks while the counter is armed.
#[test]
fn a_patch_crosses_each_hop_in_one_buffer() {
    for patch in [false, true] {
        let (kernel, server) = boot();
        let bundle = if patch {
            patch_bundle(&kernel, &server)
        } else {
            place_only_bundle()
        };
        let wire = bundle.encode();
        let mut kshot = KShot::install(kernel, 5).unwrap();
        LARGE_BLOCKS.store(0, Ordering::SeqCst);
        THRESHOLD.store(PAYLOAD / 2, Ordering::SeqCst);
        let report = kshot.live_patch_wire(&wire);
        THRESHOLD.store(usize::MAX, Ordering::SeqCst);
        let report = report.unwrap();
        assert_eq!(report.trampolines, usize::from(patch));
        assert!(report.payload_size >= PAYLOAD);
        assert_eq!(
            LARGE_BLOCKS.load(Ordering::SeqCst),
            5,
            "payload-sized blocks per live_patch_wire, patch record {patch}"
        );
    }
}
