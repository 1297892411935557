//! The page stack: how pages reach a store.
//!
//! Every store — bulkloaded, reopened, compacted, snapshotted or served
//! by a replica — reads and writes its pages through the same layers,
//! bottom to top:
//!
//! 1. the raw backend (a file, memory, a fault injector, a write
//!    capture, ...), supplied by the caller or a `PagerFactory`;
//! 2. the checksum layer, on format ≥ 3 stores only (format 2 has no
//!    page frames to seal or verify);
//! 3. an optional read-only journal overlay: the committed page images
//!    of a journal that has not been checkpointed yet. It sits *above*
//!    the checksum layer because journal images are unsealed page
//!    payloads (sealing happens on the way out);
//! 4. an optional read budget: each backend page read spends one unit,
//!    and an exhausted budget fails reads with [`StoreError::Timeout`];
//! 5. a [`BufferPool`] of `buffer_pages` frames.
//!
//! [`PageStack`] is the one place that decides this order; a site only
//! says which optional layers it uses.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::page::PAGE_SIZE;
use crate::pager::{BufferPool, ChecksummingPager, PageId, Pager, StoreError, StoreResult};

/// Committed page images served in place of backend pages.
pub(crate) type Overlay = HashMap<PageId, Box<[u8; PAGE_SIZE]>>;

/// Builder for a store's page stack (see the module docs for the order).
pub(crate) struct PageStack {
    format: u8,
    overlay: Option<Overlay>,
    budget: Option<(u64, Rc<Cell<bool>>)>,
    buffer_pages: usize,
}

impl PageStack {
    /// A stack for a store of on-disk `format` with a pool of
    /// `buffer_pages` frames and no optional layers.
    pub(crate) fn new(format: u8, buffer_pages: usize) -> PageStack {
        PageStack {
            format,
            overlay: None,
            budget: None,
            buffer_pages,
        }
    }

    /// Serve `pages` from memory instead of the backend. The overlay is
    /// read-only, so the resulting stack refuses every allocation and
    /// write.
    pub(crate) fn overlay(mut self, pages: Overlay) -> PageStack {
        self.overlay = Some(pages);
        self
    }

    /// Limit backend reads to `pages`; the first refused read sets
    /// `exhausted`.
    pub(crate) fn read_budget(mut self, pages: u64, exhausted: Rc<Cell<bool>>) -> PageStack {
        self.budget = Some((pages, exhausted));
        self
    }

    /// Stack the layers over `raw` and return the pool on top.
    pub(crate) fn build(self, raw: Box<dyn Pager>) -> BufferPool {
        let mut pager = raw;
        if self.format >= 3 {
            pager = Box::new(ChecksummingPager::new(pager));
        }
        if let Some(pages) = self.overlay {
            pager = Box::new(OverlayPager {
                inner: pager,
                pages,
            });
        }
        if let Some((budget, exhausted)) = self.budget {
            pager = Box::new(BudgetPager {
                inner: pager,
                remaining: budget,
                budget,
                exhausted,
            });
        }
        BufferPool::new(pager, self.buffer_pages)
    }
}

/// Read-only pager serving some pages from an in-memory overlay and the
/// rest from `inner`. Allocation and writes are refused: snapshot and
/// replica readers must never touch the backend.
struct OverlayPager {
    inner: Box<dyn Pager>,
    pages: Overlay,
}

impl Pager for OverlayPager {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        Err(StoreError::InvalidUpdate("snapshot is read-only"))
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        if let Some(p) = self.pages.get(&id) {
            buf.copy_from_slice(&p[..]);
            return Ok(());
        }
        self.inner.read(id, buf)
    }

    fn write(&mut self, _id: PageId, _buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        Err(StoreError::InvalidUpdate("snapshot is read-only"))
    }
}

/// Deadline budget at the pager seam: each backend page read spends one
/// unit; at zero, reads fail with [`StoreError::Timeout`]. Deterministic
/// by construction — no wall clocks in the read path.
struct BudgetPager {
    inner: Box<dyn Pager>,
    remaining: u64,
    budget: u64,
    exhausted: Rc<Cell<bool>>,
}

impl Pager for BudgetPager {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        self.inner.allocate()
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        if self.remaining == 0 {
            self.exhausted.set(true);
            return Err(StoreError::Timeout {
                what: "read",
                budget: self.budget,
            });
        }
        self.remaining -= 1;
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        self.inner.write(id, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::SharedMemPager;

    /// A format-3 backend of `n` sealed pages, page `i` filled with `i`.
    fn sealed_backend(n: u8) -> SharedMemPager {
        let disk = SharedMemPager::new();
        let mut pool = PageStack::new(3, 4).build(Box::new(disk.clone()));
        for i in 0..n {
            let id = pool.allocate().unwrap();
            pool.with_page(id, true, |buf| buf[..16].fill(i)).unwrap();
        }
        pool.flush().unwrap();
        disk
    }

    #[test]
    fn overlay_pages_win_over_backend_pages() {
        let disk = sealed_backend(3);
        let mut image = Box::new([0u8; PAGE_SIZE]);
        image[..16].fill(0xAB);
        let mut pool = PageStack::new(3, 4)
            .overlay(HashMap::from([(1, image)]))
            .build(Box::new(disk));
        let first = |pool: &mut BufferPool, id| pool.with_page(id, false, |buf| buf[0]).unwrap();
        assert_eq!(first(&mut pool, 0), 0);
        assert_eq!(
            first(&mut pool, 1),
            0xAB,
            "overlay image must shadow page 1"
        );
        assert_eq!(first(&mut pool, 2), 2);
    }

    #[test]
    fn overlay_refuses_allocate_and_write() {
        let disk = sealed_backend(2);
        let before = disk.snapshot();
        let mut pool = PageStack::new(3, 4)
            .overlay(Overlay::new())
            .build(Box::new(disk.clone()));
        assert!(matches!(pool.allocate(), Err(StoreError::InvalidUpdate(_))));
        assert!(matches!(
            pool.write_through(0, &[7u8; PAGE_SIZE]),
            Err(StoreError::InvalidUpdate(_))
        ));
        assert_eq!(disk.snapshot(), before, "the backend must stay untouched");
    }
}
