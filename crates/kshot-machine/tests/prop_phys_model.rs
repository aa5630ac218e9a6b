//! Model check of the sparse copy-on-write physical memory: random
//! writes, reads, slices, attribute changes and clone-then-diverge
//! sequences run against a dense model of the same memory (a `Vec<u8>`
//! of bytes and a `Vec<PageAttrs>` of page attributes). Addresses and
//! lengths are drawn to land on page edges, next to earlier writes, over
//! them, at zero length and at the very end of memory, where runs and
//! attribute stretches are created, extended and merged.

use kshot_machine::attrs::Access;
use kshot_machine::{MachineError, PageAttrs, PhysMemory, PAGE_SIZE};
use proptest::prelude::*;
use proptest::strategy::fn_strategy;
use proptest::TestRng;

/// Small enough that runs meet, merge and reach the end of memory often.
const PAGES: u64 = 12;
const SIZE: u64 = PAGES * PAGE_SIZE;
/// Most memories alive at once in one sequence (the source plus forks).
const MAX_FORKS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    /// Write `len` bytes counting up from `fill` at `addr`.
    Write {
        addr: u64,
        len: usize,
        fill: u8,
    },
    Read {
        addr: u64,
        len: usize,
    },
    Slice {
        addr: u64,
        len: usize,
    },
    SetAttrs {
        addr: u64,
        len: usize,
        attrs: PageAttrs,
    },
    CheckAttrs {
        addr: u64,
        len: usize,
        access: Access,
    },
    /// Clone the current memory; later ops go to the clone.
    Fork,
    /// Make memory `index` (modulo the live count) the current one.
    Switch {
        index: usize,
    },
}

/// A length: empty, a byte, a word, around a page, or a few pages.
fn arb_len(rng: &mut TestRng) -> usize {
    let page = PAGE_SIZE as usize;
    match rng.below(8) {
        0 => 0,
        1 => 1,
        2 => 8,
        3 => page - 1,
        4 => page,
        5 => page + 1,
        6 => rng.below(3 * PAGE_SIZE) as usize,
        _ => rng.below(64) as usize,
    }
}

/// An address near a page edge, anywhere, or ending exactly at (or just
/// past) the end of memory.
fn arb_addr(rng: &mut TestRng, len: usize) -> u64 {
    let page = rng.below(PAGES + 1) * PAGE_SIZE;
    match rng.below(7) {
        0 => page,
        1 => page.saturating_sub(1),
        2 => page.saturating_sub(8),
        3 => page + 1,
        4 => SIZE.saturating_sub(len as u64),
        5 => SIZE.saturating_sub(len as u64) + 1,
        _ => rng.below(SIZE),
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    fn_strategy(|rng: &mut TestRng| {
        let len = arb_len(rng);
        let addr = arb_addr(rng, len);
        match rng.below(12) {
            0..=3 => Op::Write {
                addr,
                len,
                // Zero fills write pages that still read as zero.
                fill: rng.below(4) as u8 * 0x55,
            },
            4 | 5 => Op::Read { addr, len },
            6 | 7 => Op::Slice { addr, len },
            8 => Op::SetAttrs {
                addr,
                len,
                attrs: [PageAttrs::NONE, PageAttrs::R, PageAttrs::RW, PageAttrs::RX]
                    [rng.below(4) as usize],
            },
            9 => Op::CheckAttrs {
                addr,
                len,
                access: [Access::Read, Access::Write, Access::Execute][rng.below(3) as usize],
            },
            10 => Op::Fork,
            _ => Op::Switch {
                index: rng.below(MAX_FORKS as u64) as usize,
            },
        }
    })
}

fn in_bounds(addr: u64, len: usize) -> bool {
    addr.checked_add(len as u64).is_some_and(|end| end <= SIZE)
}

fn range(addr: u64, len: usize) -> std::ops::Range<usize> {
    addr as usize..addr as usize + len
}

/// Pages `addr..addr+len` touches, as `set_attrs` counts them.
fn pages(addr: u64, len: usize) -> std::ops::Range<usize> {
    (addr / PAGE_SIZE) as usize..(addr + len as u64).div_ceil(PAGE_SIZE) as usize
}

/// The memory under test, its byte model and its attribute model.
type Pair = (PhysMemory, Vec<u8>, Vec<PageAttrs>);

fn read_all(mem: &PhysMemory) -> Vec<u8> {
    let mut all = vec![0xEEu8; SIZE as usize];
    mem.read_raw(0, &mut all)
        .expect("whole memory is in bounds");
    all
}

proptest! {
    /// The sparse memory is observationally a dense byte array with a
    /// dense attribute table: every read and attribute check matches the
    /// model, every slice matches it or fails typed, clones are
    /// isolated, and out-of-range access fails typed.
    #[test]
    fn sparse_memory_matches_dense_model(ops in prop::collection::vec(arb_op(), 1..48)) {
        let mut mems: Vec<Pair> = vec![(
            PhysMemory::new(SIZE),
            vec![0u8; SIZE as usize],
            vec![PageAttrs::RW; PAGES as usize],
        )];
        let mut cur = 0usize;
        for op in &ops {
            match *op {
                Op::Write { addr, len, fill } => {
                    let data: Vec<u8> =
                        (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    let before: Vec<Vec<u8>> =
                        mems.iter().map(|(m, ..)| read_all(m)).collect();
                    let (mem, model, _) = &mut mems[cur];
                    let result = mem.write_raw(addr, &data);
                    if in_bounds(addr, len) {
                        prop_assert!(result.is_ok(), "{op:?}: {result:?}");
                        model[range(addr, len)].copy_from_slice(&data);
                    } else {
                        let out_of_range = matches!(result, Err(MachineError::OutOfRange { .. }));
                        prop_assert!(out_of_range, "{op:?}: {result:?}");
                    }
                    // The write landed in the current memory only.
                    for (i, (m, model, _)) in mems.iter().enumerate() {
                        let now = read_all(m);
                        prop_assert!(
                            i == cur || now == before[i],
                            "{op:?} on memory {cur} changed memory {i}"
                        );
                        prop_assert!(now == *model, "memory {i} diverged from its model at {op:?}");
                    }
                }
                Op::Read { addr, len } => {
                    let (mem, model, _) = &mems[cur];
                    let mut out = vec![0xEEu8; len];
                    let result = mem.read_raw(addr, &mut out);
                    if in_bounds(addr, len) {
                        prop_assert!(result.is_ok(), "{op:?}: {result:?}");
                        prop_assert_eq!(&out[..], &model[range(addr, len)]);
                    } else {
                        let out_of_range = matches!(result, Err(MachineError::OutOfRange { .. }));
                        prop_assert!(out_of_range, "{op:?}: {result:?}");
                    }
                }
                Op::Slice { addr, len } => {
                    let (mem, model, _) = &mems[cur];
                    match mem.slice(addr, len) {
                        Ok(bytes) => {
                            prop_assert!(in_bounds(addr, len), "{op:?} borrowed out of range");
                            prop_assert_eq!(bytes, &model[range(addr, len)]);
                        }
                        Err(MachineError::NotContiguous { addr: a, len: l }) => {
                            prop_assert!(in_bounds(addr, len));
                            prop_assert_eq!((a, l), (addr, len));
                            // Runs hold whole pages, so a range inside one
                            // page always has a single backing.
                            let one_page = len == 0
                                || addr / PAGE_SIZE == (addr + len as u64 - 1) / PAGE_SIZE;
                            prop_assert!(!one_page, "{op:?} refused within one page");
                        }
                        Err(MachineError::OutOfRange { .. }) => {
                            prop_assert!(!in_bounds(addr, len), "{op:?} refused in range");
                        }
                        Err(other) => prop_assert!(false, "{op:?}: untyped refusal {other:?}"),
                    }
                }
                Op::SetAttrs { addr, len, attrs } => {
                    let (mem, _, model) = &mut mems[cur];
                    let result = mem.set_attrs(addr, len as u64, attrs);
                    if in_bounds(addr, len) {
                        prop_assert!(result.is_ok(), "{op:?}: {result:?}");
                        model[pages(addr, len)].fill(attrs);
                    } else {
                        let out_of_range = matches!(result, Err(MachineError::OutOfRange { .. }));
                        prop_assert!(out_of_range, "{op:?}: {result:?}");
                    }
                    for (i, (m, _, model)) in mems.iter().enumerate() {
                        for (page, &want) in model.iter().enumerate() {
                            let got = m.attrs_at(page as u64 * PAGE_SIZE);
                            prop_assert!(got == Ok(want), "memory {i} page {page}: {got:?} != {want:?} after {op:?}");
                        }
                    }
                }
                Op::CheckAttrs { addr, len, access } => {
                    let (mem, _, model) = &mems[cur];
                    let result = mem.check_attrs(addr, len, access);
                    if !in_bounds(addr, len) {
                        let out_of_range = matches!(result, Err(MachineError::OutOfRange { .. }));
                        prop_assert!(out_of_range, "{op:?}: {result:?}");
                    } else {
                        let touched = if len == 0 { 0..0 } else { pages(addr, len) };
                        let denied = touched
                            .into_iter()
                            .find(|&page| !model[page].allows(access.required()));
                        match (denied, result) {
                            (None, Ok(())) => {}
                            (Some(page), Err(MachineError::AccessViolation { addr: at, .. })) => {
                                prop_assert_eq!(at, page as u64 * PAGE_SIZE, "{op:?}");
                            }
                            (want, got) => prop_assert!(false, "{op:?}: want {want:?}, got {got:?}"),
                        }
                    }
                }
                Op::Fork => {
                    if mems.len() < MAX_FORKS {
                        let fork = mems[cur].clone();
                        prop_assert!(fork.0.shares_runs_with(&mems[cur].0));
                        mems.push(fork);
                        cur = mems.len() - 1;
                    }
                }
                Op::Switch { index } => cur = index % mems.len(),
            }
            for (mem, model, _) in &mems {
                // Storage is whole pages, never more than installed, and
                // covers every page holding a non-zero byte.
                let resident = mem.resident_bytes();
                let nonzero_pages = model
                    .chunks(PAGE_SIZE as usize)
                    .filter(|page| page.iter().any(|&b| b != 0))
                    .count() as u64;
                prop_assert_eq!(resident % PAGE_SIZE, 0);
                prop_assert!(resident <= SIZE);
                prop_assert!(resident >= nonzero_pages * PAGE_SIZE);
            }
        }
    }
}
