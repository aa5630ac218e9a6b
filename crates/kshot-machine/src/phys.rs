//! Sparse copy-on-write physical memory with a per-page attribute table.
//!
//! Installed memory is address space, not storage. A page owns bytes only
//! once something writes it; until then it reads as zero. Written memory
//! lives in maximal runs of whole pages, each an `Arc`'d buffer keyed by
//! its first page. A write inside a run goes through [`Arc::make_mut`],
//! and a write that touches or adjoins runs merges them into one, so runs
//! never overlap or adjoin: every page between two runs is unwritten.
//! Page attributes are likewise a step function over stretches of pages.
//! A new `PhysMemory` allocates nothing in proportion to its size, and
//! cloning one costs O(runs + stretches) and shares every run until the
//! next write to it.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::attrs::{Access, PageAttrs};
use crate::error::MachineError;

/// Page size in bytes (matches x86 4 KiB pages).
pub const PAGE_SIZE: u64 = 4096;

/// What every unwritten page reads as; [`PhysMemory::slice`] borrows
/// from it.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// Installed physical memory plus its page attribute table and the SMRAM
/// window descriptor.
///
/// `PhysMemory` itself performs *raw* bounds-checked access; permission
/// checks live in [`crate::Machine`], which knows the privilege context.
#[derive(Debug, Clone)]
pub struct PhysMemory {
    size: u64,
    /// Written memory: first page number → the bytes of that run.
    runs: BTreeMap<u64, Arc<Vec<u8>>>,
    /// First page of a stretch → the attributes of every page up to the
    /// next key. Always holds page 0.
    attrs: BTreeMap<u64, PageAttrs>,
    smram: Option<SmramWindow>,
}

/// The SMRAM range and its lock bit (D_LCK analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmramWindow {
    /// Base physical address (page-aligned).
    pub base: u64,
    /// Size in bytes (page-aligned).
    pub size: u64,
    /// Whether the firmware has locked the configuration.
    pub locked: bool,
}

impl SmramWindow {
    /// Whether `addr..addr+len` overlaps this window.
    pub fn overlaps(&self, addr: u64, len: usize) -> bool {
        let end = addr.saturating_add(len as u64);
        addr < self.base + self.size && end > self.base
    }
}

impl PhysMemory {
    /// Install `size` bytes of zeroed RAM with default kernel-owned
    /// `RW` attributes on every page. No page owns bytes yet.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not page-aligned (a configuration error).
    pub fn new(size: u64) -> Self {
        assert_eq!(size % PAGE_SIZE, 0, "memory size must be page aligned");
        Self {
            size,
            runs: BTreeMap::new(),
            attrs: BTreeMap::from([(0, PageAttrs::RW)]),
            smram: None,
        }
    }

    /// Installed memory size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes owned by runs of written pages: the host memory this
    /// machine's RAM actually occupies (shared runs count in full).
    pub fn resident_bytes(&self) -> u64 {
        self.runs.values().map(|run| run.len() as u64).sum()
    }

    /// Whether every run of `self` is shared with `other` (same buffer,
    /// same place) and neither owns a run the other lacks — true of a
    /// clone until either side writes.
    pub fn shares_runs_with(&self, other: &PhysMemory) -> bool {
        self.runs.len() == other.runs.len()
            && self
                .runs
                .iter()
                .zip(&other.runs)
                .all(|((a, ra), (b, rb))| a == b && Arc::ptr_eq(ra, rb))
    }

    /// The SMRAM window, if configured.
    pub fn smram(&self) -> Option<SmramWindow> {
        self.smram
    }

    /// Configure the SMRAM window. May only happen while unlocked. The
    /// window is widened to whole pages: it starts at the page holding
    /// `base` and ends at the page boundary at or after `base + size`.
    ///
    /// # Errors
    ///
    /// [`MachineError::SmramLocked`] if already locked;
    /// [`MachineError::OutOfRange`] if the window exceeds installed memory.
    pub fn configure_smram(&mut self, base: u64, size: u64) -> Result<(), MachineError> {
        if let Some(w) = self.smram {
            if w.locked {
                return Err(MachineError::SmramLocked);
            }
        }
        self.check_range(base, size as usize)?;
        let start = base - base % PAGE_SIZE;
        let end = (base + size).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.smram = Some(SmramWindow {
            base: start,
            size: end - start,
            locked: false,
        });
        Ok(())
    }

    /// Lock the SMRAM configuration (firmware D_LCK). Idempotent.
    ///
    /// # Errors
    ///
    /// [`MachineError::SmramUnconfigured`] if SMRAM was never configured.
    pub fn lock_smram(&mut self) -> Result<(), MachineError> {
        match &mut self.smram {
            Some(w) => {
                w.locked = true;
                Ok(())
            }
            None => Err(MachineError::SmramUnconfigured),
        }
    }

    /// Set page attributes for the page-aligned range `base..base+size`.
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfRange`] for ranges beyond installed memory.
    pub fn set_attrs(
        &mut self,
        base: u64,
        size: u64,
        attrs: PageAttrs,
    ) -> Result<(), MachineError> {
        self.check_range(base, size as usize)?;
        let first = base / PAGE_SIZE;
        let last = (base + size).div_ceil(PAGE_SIZE);
        if first == last {
            return Ok(());
        }
        let resume = self.stretch_at(last).1;
        let covered: Vec<u64> = self.attrs.range(first..=last).map(|(&p, _)| p).collect();
        for page in covered {
            self.attrs.remove(&page);
        }
        self.attrs.insert(first, attrs);
        if last < self.size / PAGE_SIZE {
            self.attrs.insert(last, resume);
        }
        Ok(())
    }

    /// The attributes in effect at `page`, and the first page of their
    /// stretch.
    fn stretch_at(&self, page: u64) -> (u64, PageAttrs) {
        self.attrs
            .range(..=page)
            .next_back()
            .map(|(&start, &attrs)| (start, attrs))
            .expect("page 0 always starts a stretch")
    }

    /// Attributes of the page containing `addr`.
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfRange`] if `addr` is beyond installed memory.
    pub fn attrs_at(&self, addr: u64) -> Result<PageAttrs, MachineError> {
        self.check_range(addr, 1)?;
        Ok(self.stretch_at(addr / PAGE_SIZE).1)
    }

    /// Verify that every page overlapped by `addr..addr+len` permits
    /// `access`.
    ///
    /// # Errors
    ///
    /// [`MachineError::AccessViolation`] naming the first offending page.
    pub fn check_attrs(&self, addr: u64, len: usize, access: Access) -> Result<(), MachineError> {
        self.check_range(addr, len)?;
        if len == 0 {
            return Ok(());
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len as u64 - 1) / PAGE_SIZE;
        let from = self.stretch_at(first).0;
        for (&start, attrs) in self.attrs.range(from..=last) {
            if !attrs.allows(access.required()) {
                return Err(MachineError::AccessViolation {
                    addr: start.max(first) * PAGE_SIZE,
                    access,
                    ctx: "kernel",
                    reason: "page attributes",
                });
            }
        }
        Ok(())
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<(), MachineError> {
        let end = addr.checked_add(len as u64);
        match end {
            Some(end) if end <= self.size() => Ok(()),
            _ => Err(MachineError::OutOfRange {
                addr,
                len,
                mem_size: self.size(),
            }),
        }
    }

    /// The run holding `page`, as its first page and its bytes.
    fn run_at(&self, page: u64) -> Option<(u64, &Arc<Vec<u8>>)> {
        let (&start, run) = self.runs.range(..=page).next_back()?;
        (page < start + run.len() as u64 / PAGE_SIZE).then_some((start, run))
    }

    /// The stored stretches of `addr..end`, in address order, as their
    /// address and bytes. Whatever lies between them is unwritten.
    fn stored(&self, addr: u64, end: u64) -> impl Iterator<Item = (u64, &[u8])> {
        let first = addr / PAGE_SIZE;
        let from = self.run_at(first).map_or(first, |(start, _)| start);
        self.runs
            .range(from..end.div_ceil(PAGE_SIZE))
            .filter_map(move |(&start, run)| {
                let base = start * PAGE_SIZE;
                let lo = addr.max(base);
                let hi = end.min(base + run.len() as u64);
                (lo < hi).then(|| (lo, &run[(lo - base) as usize..(hi - base) as usize]))
            })
    }

    /// Append the current contents of `from..to` to `buf`.
    fn append_contents(&self, buf: &mut Vec<u8>, from: u64, to: u64) {
        let mut at = from;
        for (lo, bytes) in self.stored(from, to) {
            buf.resize(buf.len() + (lo - at) as usize, 0);
            buf.extend_from_slice(bytes);
            at = lo + bytes.len() as u64;
        }
        buf.resize(buf.len() + (to - at) as usize, 0);
    }

    /// Raw read with bounds check only (no permission check). Total over
    /// installed memory: a range may mix runs and unwritten pages.
    pub fn read_raw(&self, addr: u64, out: &mut [u8]) -> Result<(), MachineError> {
        self.check_range(addr, out.len())?;
        let mut at = 0;
        for (lo, bytes) in self.stored(addr, addr + out.len() as u64) {
            let off = (lo - addr) as usize;
            out[at..off].fill(0);
            out[off..off + bytes.len()].copy_from_slice(bytes);
            at = off + bytes.len();
        }
        out[at..].fill(0);
        Ok(())
    }

    /// Raw write with bounds check only (no permission check).
    pub fn write_raw(&mut self, addr: u64, data: &[u8]) -> Result<(), MachineError> {
        self.check_range(addr, data.len())?;
        if data.is_empty() {
            return Ok(());
        }
        let end = addr + data.len() as u64;
        let (first, last) = (addr / PAGE_SIZE, (end - 1) / PAGE_SIZE);
        if let Some((&start, run)) = self.runs.range_mut(..=first).next_back() {
            let base = start * PAGE_SIZE;
            if end <= base + run.len() as u64 {
                let off = (addr - base) as usize;
                Arc::make_mut(run)[off..off + data.len()].copy_from_slice(data);
                return Ok(());
            }
        }
        // The new run spans the written pages plus every run that overlaps
        // or adjoins them.
        let lo = match self.runs.range(..first).next_back() {
            Some((&start, run)) if start + run.len() as u64 / PAGE_SIZE >= first => start,
            _ => first,
        };
        let hi = match self.runs.range(..=last + 1).next_back() {
            Some((&start, run)) => (last + 1).max(start + run.len() as u64 / PAGE_SIZE),
            None => last + 1,
        };
        let (base, run_end) = (lo * PAGE_SIZE, hi * PAGE_SIZE);
        let len = (run_end - base) as usize;
        // Build it in one pass. A run starting at `lo` that nobody shares
        // keeps its buffer up to `addr`, so appending page after page to
        // one run stays amortised O(1) per byte.
        let mut buf = match self.runs.remove(&lo).map(Arc::try_unwrap) {
            Some(Ok(mut own)) => {
                own.truncate((addr - base) as usize);
                own.reserve(len - own.len());
                own
            }
            Some(Err(shared)) => {
                let mut buf = Vec::with_capacity(len);
                buf.extend_from_slice(&shared[..shared.len().min((addr - base) as usize)]);
                buf
            }
            None => Vec::with_capacity(len),
        };
        let kept = base + buf.len() as u64;
        self.append_contents(&mut buf, kept, addr);
        buf.extend_from_slice(data);
        self.append_contents(&mut buf, end, run_end);
        let merged: Vec<u64> = self.runs.range(lo..hi).map(|(&start, _)| start).collect();
        for start in merged {
            self.runs.remove(&start);
        }
        self.runs.insert(lo, Arc::new(buf));
        Ok(())
    }

    /// Borrow `len` bytes at `addr` without copying.
    ///
    /// Memory is stored sparsely (see the module docs), so a borrow needs
    /// one backing buffer: the range must lie inside a single run of
    /// written pages, or inside unwritten memory and span at most a page.
    /// Because runs hold whole pages, any range within one page qualifies.
    /// The in-repo callers borrow only regions that are written whole:
    /// the loaded kernel text, the eight-byte placement cursor in
    /// `mem_RW`, and the packed, occupied prefix of `mem_X`. Use
    /// [`read_raw`](Self::read_raw) for a range that may mix written and
    /// unwritten pages.
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfRange`] for a range beyond installed memory;
    /// [`MachineError::NotContiguous`] for an in-bounds range that crosses
    /// the edge of a run.
    pub fn slice(&self, addr: u64, len: usize) -> Result<&[u8], MachineError> {
        self.check_range(addr, len)?;
        let end = addr + len as u64;
        match self.run_at(addr / PAGE_SIZE) {
            Some((start, run)) if end <= start * PAGE_SIZE + run.len() as u64 => {
                let off = (addr - start * PAGE_SIZE) as usize;
                Ok(&run[off..off + len])
            }
            None if len <= ZERO_PAGE.len() && self.stored(addr, end).next().is_none() => {
                Ok(&ZERO_PAGE[..len])
            }
            _ => Err(MachineError::NotContiguous { addr, len }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_read_write_roundtrip() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.write_raw(100, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        m.read_raw(100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        assert!(matches!(
            m.write_raw(PAGE_SIZE - 1, &[0, 0]),
            Err(MachineError::OutOfRange { .. })
        ));
        let mut buf = [0u8; 1];
        assert!(m.read_raw(PAGE_SIZE, &mut buf).is_err());
        // Address wrap-around must not panic or pass.
        assert!(m.read_raw(u64::MAX, &mut buf).is_err());
    }

    #[test]
    fn unwritten_memory_reads_zero_and_owns_nothing() {
        let mut m = PhysMemory::new(1 << 30);
        assert_eq!(m.resident_bytes(), 0);
        let mut buf = [0xffu8; 64];
        m.read_raw(123_456, &mut buf).unwrap();
        assert_eq!(buf, [0; 64]);
        m.write_raw(PAGE_SIZE + 10, &[7]).unwrap();
        assert_eq!(m.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn writes_that_touch_or_adjoin_runs_merge_them() {
        let mut m = PhysMemory::new(16 * PAGE_SIZE);
        m.write_raw(2 * PAGE_SIZE, &[1]).unwrap();
        m.write_raw(6 * PAGE_SIZE, &[3]).unwrap();
        assert_eq!(m.runs.len(), 2);
        // Adjoining on the left of the first run.
        m.write_raw(2 * PAGE_SIZE - 1, &[9]).unwrap();
        assert_eq!(m.runs.len(), 2);
        assert_eq!(m.resident_bytes(), 3 * PAGE_SIZE);
        // Bridging the gap between the two runs.
        m.write_raw(3 * PAGE_SIZE, &[2; 3 * PAGE_SIZE as usize])
            .unwrap();
        assert_eq!(m.runs.len(), 1);
        assert_eq!(m.resident_bytes(), 6 * PAGE_SIZE);
        let mut buf = [0u8; 4];
        m.read_raw(2 * PAGE_SIZE - 1, &mut buf).unwrap();
        assert_eq!(buf, [9, 1, 0, 0]);
        m.read_raw(6 * PAGE_SIZE - 1, &mut buf).unwrap();
        assert_eq!(buf, [2, 3, 0, 0]);
    }

    #[test]
    fn slice_borrows_within_one_backing_and_refuses_run_edges() {
        let mut m = PhysMemory::new(8 * PAGE_SIZE);
        m.write_raw(PAGE_SIZE, &[5; 2 * PAGE_SIZE as usize])
            .unwrap();
        assert_eq!(m.slice(PAGE_SIZE + 8, 100).unwrap(), &[5; 100][..]);
        assert_eq!(m.slice(5 * PAGE_SIZE, 16).unwrap(), &[0; 16][..]);
        assert_eq!(m.slice(8 * PAGE_SIZE, 0).unwrap(), &[] as &[u8]);
        for (addr, len) in [(PAGE_SIZE - 1, 2), (3 * PAGE_SIZE - 1, 2)] {
            assert_eq!(
                m.slice(addr, len),
                Err(MachineError::NotContiguous { addr, len })
            );
        }
        assert!(matches!(
            m.slice(8 * PAGE_SIZE - 1, 2),
            Err(MachineError::OutOfRange { .. })
        ));
    }

    #[test]
    fn attrs_apply_per_page() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        m.set_attrs(PAGE_SIZE, PAGE_SIZE, PageAttrs::X).unwrap();
        assert_eq!(m.attrs_at(0).unwrap(), PageAttrs::RW);
        assert_eq!(m.attrs_at(PAGE_SIZE).unwrap(), PageAttrs::X);
        assert_eq!(m.attrs_at(2 * PAGE_SIZE).unwrap(), PageAttrs::RW);
    }

    #[test]
    fn check_attrs_spanning_pages() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        m.set_attrs(PAGE_SIZE, PAGE_SIZE, PageAttrs::R).unwrap();
        // A write crossing from RW page 0 into R page 1 faults.
        let err = m.check_attrs(PAGE_SIZE - 8, 16, Access::Write).unwrap_err();
        assert!(matches!(err, MachineError::AccessViolation { addr, .. } if addr == PAGE_SIZE));
        // A read over the same range is fine.
        m.check_attrs(PAGE_SIZE - 8, 16, Access::Read).unwrap();
        // Zero-length access never faults on attributes.
        m.check_attrs(PAGE_SIZE, 0, Access::Write).unwrap();
    }

    #[test]
    fn smram_configure_and_lock() {
        let mut m = PhysMemory::new(16 * PAGE_SIZE);
        m.configure_smram(8 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        assert!(!m.smram().unwrap().locked);
        // Reconfiguration allowed before lock.
        m.configure_smram(4 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.lock_smram().unwrap();
        assert!(m.smram().unwrap().locked);
        assert_eq!(
            m.configure_smram(0, PAGE_SIZE),
            Err(MachineError::SmramLocked)
        );
    }

    #[test]
    fn smram_window_covers_every_requested_byte() {
        // 16 bytes starting 8 bytes before a page boundary straddle two
        // pages; the window must cover both.
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        m.configure_smram(0xff8, 16).unwrap();
        let w = m.smram().unwrap();
        assert_eq!((w.base, w.size), (0, 2 * PAGE_SIZE));
        assert!(w.overlaps(0x1000, 8));
        assert!(w.overlaps(0x1007, 1));
    }

    #[test]
    fn lock_unconfigured_smram_fails() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        assert_eq!(m.lock_smram(), Err(MachineError::SmramUnconfigured));
    }

    #[test]
    fn smram_overlap_detection() {
        let w = SmramWindow {
            base: 0x1000,
            size: 0x1000,
            locked: true,
        };
        assert!(w.overlaps(0x1000, 1));
        assert!(w.overlaps(0x1fff, 1));
        assert!(w.overlaps(0x0fff, 2));
        assert!(!w.overlaps(0x0fff, 1));
        assert!(!w.overlaps(0x2000, 16));
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn unaligned_size_panics() {
        let _ = PhysMemory::new(100);
    }
}
