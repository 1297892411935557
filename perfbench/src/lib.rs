//! End-to-end benchmark of the natix workspace.
//!
//! Four seeded workloads drive the public surfaces from outside: the
//! `serve` daemon over TCP (`query`, `update`), `bulkload_collection`
//! (`bulkload`) and the `natix partition` binary (`partition`). Every run
//! checks its outputs against an oracle. A traced run (`--trace 1`)
//! replays the same inputs in-process with timing wrappers plugged into
//! the store's public seams and reports per-layer metrics.

pub mod bulkload;
pub mod metrics;
pub mod partition;
pub mod probes;
pub mod query;
pub mod stats;
pub mod trace;
pub mod update;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use natix_core::Ekm;
use natix_datagen::GenConfig;
use natix_server::{serve, ServeConfig, ServerHandle};
use natix_store::{bulkload_with, FilePager, StoreConfig};

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `natix` binary (for the `partition` workload).
    pub natix: PathBuf,
    /// Scratch directory for store files and spans, inside the checkout.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn measure_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output check failures; empty when every check passed.
    pub check_failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub values: Values,
    /// The workload's own figures (`req_per_s`, `dhw_ms`, …) for the
    /// human-readable report.
    pub view: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// SplitMix64: a small seeded generator, so request streams depend only
/// on the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Largest peak resident set of any child process waited for so far, in
/// MB.
pub fn children_peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two timevals, then 14 longs; ru_maxrss
    // (KB) is the first long.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable, properly sized and aligned `struct
    // rusage` for 64-bit Linux; getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A fresh, empty scratch directory under the run's output directory.
pub fn fresh_dir(ctx: &Ctx, name: &str) -> std::io::Result<PathBuf> {
    let dir = ctx.out_dir.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Traffic sent to a freshly opened server before measuring, so the
/// first requests' cold caches and file growth stay out of the figures.
pub const WARM_UP: Duration = Duration::from_secs(2);

/// Record weight limit of the served store (EKM at K = 128).
pub const SERVED_K: u64 = 128;

/// XMark scale of the served document. Query cost follows the number of
/// keywords, which varies by about 7% from seed to seed at scale 0.05
/// and by about 2% at 0.2, so the larger document keeps the served
/// workloads' figures steady across seeds.
pub const SERVED_SCALE: f64 = 0.2;

/// The served document: XMark at [`SERVED_SCALE`], serialized.
pub fn served_document(seed: u64) -> String {
    natix_datagen::xmark(GenConfig {
        scale: SERVED_SCALE,
        seed,
    })
    .to_xml()
}

/// Size of a store built by [`build_store`].
#[derive(Debug, Clone, Copy)]
pub struct StoreShape {
    pub records: usize,
    pub pages: u32,
}

/// Parse `xml` and load it with EKM into a new store file at `path`.
pub fn build_store(xml: &str, path: &Path) -> Result<StoreShape, String> {
    let doc = natix_xml::parse(xml).map_err(|e| format!("parse: {e}"))?;
    let pager = FilePager::create(path).map_err(|e| format!("create store: {e}"))?;
    let store = bulkload_with(
        &doc,
        &Ekm,
        SERVED_K,
        Box::new(pager),
        StoreConfig {
            record_limit_slots: SERVED_K,
            ..StoreConfig::default()
        },
    )
    .map_err(|e| format!("load store: {e}"))?;
    Ok(StoreShape {
        records: store.record_count(),
        pages: store.page_count(),
    })
}

/// Start the in-process server on `path` with two workers.
pub fn start_server(path: &Path, pool_pages: Option<usize>) -> Result<ServerHandle, String> {
    serve(ServeConfig {
        store: path.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        pool_pages,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("serve: {e}"))
}

/// Build the store and open the server `reps` times, keeping the last
/// server; returns it with the store's shape and the median set-up time.
pub fn timed_setup(
    xml: &str,
    path: &Path,
    reps: usize,
    pool_pages: impl Fn(StoreShape) -> Option<usize>,
) -> Result<(ServerHandle, StoreShape, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        let t = Instant::now();
        let shape = build_store(xml, path)?;
        let server = start_server(path, pool_pages(shape))?;
        times.push(secs(t));
        if i + 1 == reps {
            last = Some((server, shape));
        } else {
            server.shutdown();
            server.join();
        }
    }
    let (server, shape) = last.expect("at least one set-up");
    let median = stats::median(&times).expect("at least one set-up");
    Ok((server, shape, median))
}

/// Latency of a failed operation: it missed every limit.
pub const FAILED: f64 = f64::INFINITY;

/// Largest value a metric reports; a percentile that lands on a failed
/// operation reads this.
pub const MISSED_LIMIT_MS: f64 = 1e12;

/// Percentile in ms of `samples` (failed ones are infinite).
pub fn latency_ms(samples: &[f64], p: f64) -> f64 {
    let v = stats::percentile(samples, p).unwrap_or(FAILED);
    if v.is_finite() {
        v
    } else {
        MISSED_LIMIT_MS
    }
}
