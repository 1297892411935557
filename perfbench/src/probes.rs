//! Measuring wrappers that plug into the public seams of the store: a
//! [`Pager`] that times backend calls and a [`PagerFactory`] that hands
//! out such pagers to snapshot readers. Both pass bytes through
//! unchanged.
//!
//! There is no counting `Navigator` wrapper: `Navigator::children` takes
//! `Vec<ChildInfo<_>>`, and `natix-xpath` does not export `ChildInfo`, so
//! no crate outside it can implement the trait. The query replay splits
//! evaluation from navigation by running the same query over the
//! in-memory document instead (see `query.rs`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use natix_store::{FilePager, PageId, Pager, PagerFactory, StoreResult, PAGE_SIZE};

use crate::trace;

/// Backend call counters shared by every [`TimingPager`] of one store or
/// collection.
#[derive(Debug, Default)]
pub struct PagerCounters {
    pub reads: AtomicU64,
    pub read_ns: AtomicU64,
    pub writes: AtomicU64,
    pub write_ns: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
    pub allocs: AtomicU64,
}

/// A plain copy of [`PagerCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerTotals {
    pub reads: u64,
    pub read_ns: u64,
    pub writes: u64,
    pub write_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
    pub allocs: u64,
}

impl PagerTotals {
    pub fn bytes_written(&self) -> u64 {
        self.writes * PAGE_SIZE as u64
    }
}

impl PagerCounters {
    pub fn totals(&self) -> PagerTotals {
        PagerTotals {
            reads: self.reads.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
        }
    }
}

/// Times every call into the wrapped backend pager.
pub struct TimingPager {
    inner: Box<dyn Pager>,
    counters: Arc<PagerCounters>,
}

impl TimingPager {
    pub fn new(inner: Box<dyn Pager>, counters: Arc<PagerCounters>) -> TimingPager {
        TimingPager { inner, counters }
    }
}

fn timed<T>(name: &'static str, count: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let _span = trace::span(name);
    let t = Instant::now();
    let out = f();
    ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    count.fetch_add(1, Ordering::Relaxed);
    out
}

impl Pager for TimingPager {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        self.counters.allocs.fetch_add(1, Ordering::Relaxed);
        self.inner.allocate()
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        let c = &self.counters;
        timed("pager.read", &c.reads, &c.read_ns, || {
            self.inner.read(id, buf)
        })
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        let c = &self.counters;
        timed("pager.write", &c.writes, &c.write_ns, || {
            self.inner.write(id, buf)
        })
    }

    fn sync(&mut self) -> StoreResult<()> {
        let c = &self.counters;
        timed("pager.sync", &c.syncs, &c.sync_ns, || self.inner.sync())
    }
}

/// Opens a [`TimingPager`] over the store file for each snapshot reader.
pub struct TimingFactory {
    pub path: PathBuf,
    pub counters: Arc<PagerCounters>,
}

impl PagerFactory for TimingFactory {
    fn open_pager(&self) -> StoreResult<Box<dyn Pager>> {
        Ok(Box::new(TimingPager::new(
            Box::new(FilePager::open(&self.path)?),
            Arc::clone(&self.counters),
        )))
    }
}
