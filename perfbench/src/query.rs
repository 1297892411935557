//! `query`: read-only XPath traffic over the wire.
//!
//! An XMark document (scale 0.05) is loaded with EKM at K = 128 and served
//! by the in-process `serve` with its buffer pool capped at a third of
//! the store's pages. Two closed-loop connections send XPathMark Q1-Q7
//! (count only) and rendered Q1 hits, each request on its own snapshot.
//! Every answer's hit count is checked against the in-memory evaluator.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use natix_server::{Client, Request, ResponseBody};
use natix_store::{
    AdmissionConfig, FilePager, NodeRef, SharedStore, StoreConfig, StoreError, XmlStore,
};
use natix_xml::NodeKind;
use natix_xpath::{eval, xpathmark, MemNavigator, StoreNavigator};

use crate::probes::{PagerCounters, TimingFactory, TimingPager};
use crate::stats::{mean, median, ratio};
use crate::{latency_ms, peak_rss_mb, secs, timed_setup, trace, Ctx, Outcome, Rng, FAILED};

/// One kind of request in the mix.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    pub name: &'static str,
    pub xpath: &'static str,
    pub count_only: bool,
}

/// The query mix: Q1-Q7 count-only plus rendered Q1 hits.
pub fn kinds() -> Vec<Kind> {
    let mut k: Vec<Kind> = xpathmark::all()
        .iter()
        .map(|&(name, xpath)| Kind {
            name,
            xpath,
            count_only: true,
        })
        .collect();
    k.push(Kind {
        name: "Q1-render",
        xpath: xpathmark::Q1,
        count_only: false,
    });
    k
}

/// Rows of the server's rendered answer (it caps them).
const MAX_QUERY_LINES: usize = 10_000;

/// An endless, seeded stream of request-kind indices: shuffled rounds in
/// which every kind appears once, so every kind has the same share.
pub struct Stream {
    rng: Rng,
    round: Vec<usize>,
    n: usize,
}

impl Stream {
    pub fn new(seed: u64, n: usize) -> Stream {
        Stream {
            rng: Rng::new(seed),
            round: Vec::new(),
            n,
        }
    }
}

impl Iterator for Stream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.round.is_empty() {
            self.round = (0..self.n).collect();
            self.rng.shuffle(&mut self.round);
        }
        self.round.pop()
    }
}

fn client_seed(seed: u64, client: u64) -> u64 {
    seed.wrapping_mul(0x100_0000_01b3) ^ (client + 1)
}

/// Hit counts of each kind on the in-memory document.
pub fn oracle_counts(xml: &str, kinds: &[Kind]) -> Result<Vec<u32>, String> {
    let doc = natix_xml::parse(xml).map_err(|e| format!("parse: {e}"))?;
    kinds
        .iter()
        .map(|k| {
            let mut nav = MemNavigator::new(&doc);
            natix_xpath::eval_query(&mut nav, k.xpath)
                .map(|h| h.len() as u32)
                .map_err(|e| format!("{}: {e}", k.name))
        })
        .collect()
}

/// What one client connection saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// `(kind, seconds)`; failed requests are infinite.
    pub samples: Vec<(usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

/// Send one request; `Ok` carries the hit count and rendered line count.
fn query_once(client: &mut Client, kind: &Kind) -> Result<(u32, usize), String> {
    let resp = client
        .request(&Request::Query {
            xpath: kind.xpath.to_string(),
            count_only: kind.count_only,
        })
        .map_err(|e| e.to_string())?;
    match resp.body {
        ResponseBody::QueryResult { count, lines } => Ok((count, lines.len())),
        other => Err(format!("{other:?}")),
    }
}

/// A closed-loop client: send, wait for the answer, check it, repeat
/// until `deadline`.
pub fn run_client(
    addr: SocketAddr,
    client_id: u64,
    seed: u64,
    kinds: &[Kind],
    expected: &[u32],
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut stream = Stream::new(client_seed(seed, client_id), kinds.len());
    let mut client = None;
    while Instant::now() < deadline {
        let k = stream.next().expect("the stream is endless");
        let kind = &kinds[k];
        log.attempted += 1;
        trace::set_request((client_id << 40) | log.attempted);
        let _span = trace::span("server.request");
        let t = Instant::now();
        let answer = match client.as_mut() {
            Some(c) => query_once(c, kind),
            None => match Client::connect(addr) {
                Ok(c) => query_once(client.insert(c), kind),
                Err(e) => Err(e.to_string()),
            },
        };
        let elapsed = secs(t);
        match answer {
            Ok((count, lines)) => {
                log.samples.push((k, elapsed));
                let want = expected[k];
                let want_lines = if kind.count_only {
                    0
                } else {
                    (want as usize).min(MAX_QUERY_LINES)
                };
                if count != want || lines != want_lines {
                    log.mismatches.push(format!(
                        "{}: {count} hits / {lines} lines, oracle {want} / {want_lines}",
                        kind.name
                    ));
                }
            }
            Err(e) => {
                log.failed += 1;
                log.samples.push((k, FAILED));
                if log.failed <= 3 {
                    log.mismatches.push(format!("{} failed: {e}", kind.name));
                }
                client = None;
            }
        }
    }
    log
}

/// Run `clients` closed-loop connections against `addr` for `dur`.
pub fn drive(
    addr: SocketAddr,
    clients: u64,
    seed: u64,
    kinds: &[Kind],
    expected: &[u32],
    dur: Duration,
) -> (Vec<ClientLog>, f64) {
    let t = Instant::now();
    let deadline = t + dur;
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || run_client(addr, c, seed, kinds, expected, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, secs(t))
}

/// Render one hit the way the server does.
pub fn render_hit(store: &mut XmlStore, r: NodeRef) -> Result<String, StoreError> {
    let (kind, label) = store.with_node(r, |n| (n.kind, n.label))?;
    let name = store.label_name(label).to_string();
    let content = store.node_content(r)?;
    Ok(match (kind, content) {
        (NodeKind::Element, _) => format!("<{name}>"),
        (NodeKind::Attribute, Some(v)) => format!("@{name}=\"{v}\""),
        (_, Some(v)) => v,
        (_, None) => format!("<{name}>"),
    })
}

/// Timings and counters of one in-process request.
#[derive(Debug, Default, Clone, Copy)]
pub struct Handled {
    pub hits: u32,
    pub parse: f64,
    pub begin_read: f64,
    pub eval: f64,
    pub render: f64,
    pub switches: u64,
    pub decodes: u64,
    pub cache_hits: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub evictions: u64,
}

/// Handle one query in-process, as the server's store service does:
/// parse, per-request snapshot, evaluate, render.
pub fn handle_query(shared: &SharedStore, kind: &Kind) -> Result<Handled, String> {
    let mut h = Handled::default();
    let t = Instant::now();
    let path = {
        let _s = trace::span("xpath.parse");
        natix_xpath::parse(kind.xpath).map_err(|e| e.to_string())?
    };
    h.parse = secs(t);
    let t = Instant::now();
    let mut snap = {
        let _s = trace::span("concurrent.begin_read");
        shared.begin_read().map_err(|e| e.to_string())?
    };
    h.begin_read = secs(t);
    let store = snap.store();
    let t = Instant::now();
    let hits = {
        let _s = trace::span("xpath.eval");
        let mut nav = StoreNavigator::new(store);
        eval(&mut nav, &path).map_err(|e| e.to_string())?
    };
    h.eval = secs(t);
    h.hits = hits.len() as u32;
    if !kind.count_only {
        let t = Instant::now();
        let _s = trace::span("store.render");
        for r in hits.iter().take(MAX_QUERY_LINES) {
            std::hint::black_box(render_hit(store, *r).map_err(|e| e.to_string())?);
        }
        h.render = secs(t);
    }
    let nav = store.nav_stats();
    h.switches = nav.record_switches;
    h.decodes = nav.record_decodes;
    h.cache_hits = nav.record_cache_hits;
    let pool = store.buffer_stats();
    h.pool_hits = pool.hits;
    h.pool_misses = pool.misses;
    h.evictions = pool.evictions;
    Ok(h)
}

/// Open the store file for an in-process replay with timing pagers.
pub fn open_replay(
    path: &Path,
    config: StoreConfig,
    writer: Arc<PagerCounters>,
    readers: Arc<PagerCounters>,
) -> Result<SharedStore, String> {
    let backend = TimingPager::new(
        Box::new(FilePager::open(path).map_err(|e| e.to_string())?),
        writer,
    );
    SharedStore::open(
        Box::new(backend),
        Box::new(TimingFactory {
            path: path.to_path_buf(),
            counters: readers,
        }),
        config,
        AdmissionConfig::default(),
    )
    .map_err(|e| e.to_string())
}

/// Open the store file without any measuring wrapper, as the server does.
pub fn open_plain(path: &Path, config: StoreConfig) -> Result<SharedStore, String> {
    SharedStore::open(
        Box::new(FilePager::open(path).map_err(|e| e.to_string())?),
        Box::new(path.to_path_buf()),
        config,
        AdmissionConfig::default(),
    )
    .map_err(|e| e.to_string())
}

/// Median of each kind's wire latency in seconds, with sample counts.
fn per_kind_medians(logs: &[ClientLog], n: usize) -> Vec<(f64, usize)> {
    let mut by: Vec<Vec<f64>> = vec![Vec::new(); n];
    for log in logs {
        for &(k, s) in &log.samples {
            by[k].push(s);
        }
    }
    by.iter()
        .map(|v| (median(v).unwrap_or(0.0), v.len()))
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let kinds = kinds();
    let xml = crate::served_document(ctx.seed);
    let expected = oracle_counts(&xml, &kinds)?;
    let dir = crate::fresh_dir(ctx, "query").map_err(|e| e.to_string())?;
    let path = dir.join("store.natix");
    let pool = |s: crate::StoreShape| Some((s.pages as usize / 3).max(1));
    let (server, shape, setup_s) = timed_setup(&xml, &path, 3, pool)?;
    println!(
        "query: XMark {}, {} bytes XML, {} records on {} pages, pool {} pages, record cache {}",
        crate::SERVED_SCALE,
        xml.len(),
        shape.records,
        shape.pages,
        pool(shape).unwrap_or(0),
        StoreConfig::default().record_cache
    );

    let addr = server.addr();
    let (warm, _) = drive(addr, 2, ctx.seed, &kinds, &expected, crate::WARM_UP);
    let (logs, elapsed) = drive(addr, 2, ctx.seed, &kinds, &expected, ctx.measure_for());
    let summary = server.summary();
    server.shutdown();
    server.join();

    let mut out = Outcome::default();
    let samples: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.samples.iter().map(|&(_, s)| s * 1e3))
        .collect();
    for log in warm.iter().chain(&logs) {
        out.attempted += log.attempted;
        out.failed += log.failed;
        for m in &log.mismatches {
            out.check(false, || m.clone());
        }
    }
    let ok: u64 = logs.iter().map(|l| l.attempted - l.failed).sum();
    let (p50, p95) = (latency_ms(&samples, 50.0), latency_ms(&samples, 95.0));
    let req_per_s = ok as f64 / elapsed;
    let error_rate = ratio(out.failed as f64, out.attempted as f64);
    let rss = peak_rss_mb();
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    out.view = vec![
        ("setup_s", setup_s, "s"),
        ("req_per_s", req_per_s, "req/s"),
        ("read_p50_ms", p50, "ms"),
        ("read_p95_ms", p95, "ms"),
        ("partitions", shape.records as f64, "records"),
        ("error_rate", error_rate, "ratio"),
        ("peak_rss_mb", rss, "MB"),
        ("server.proto_errors", summary.proto_errors as f64, "count"),
    ];
    let wire = per_kind_medians(&logs, kinds.len());
    for (kind, &(med, _)) in kinds.iter().zip(&wire) {
        out.view.push((kind.name, med * 1e3, "ms (p50)"));
    }

    if !ctx.trace {
        out.values = BTreeMap::from([
            ("setup_s", setup_s),
            ("ops_per_s", req_per_s),
            ("p50_ms", p50),
            ("partitions", shape.records as f64),
            ("peak_rss_mb", rss),
        ]);
        std::fs::remove_dir_all(&dir).ok();
        return Ok(out);
    }

    // Traced run: replay the same request stream in-process, once plain
    // and once with spans and timing pagers, on the same store file.
    let config = StoreConfig {
        buffer_pages: pool(shape).unwrap_or(1),
        ..StoreConfig::default()
    };
    let writer = Arc::new(PagerCounters::default());
    let readers = Arc::new(PagerCounters::default());
    let shared = open_replay(&path, config, writer, Arc::clone(&readers))?;
    let plain_shared = open_plain(&path, config)?;
    let mut stream_a = Stream::new(client_seed(ctx.seed, 0), kinds.len());
    let mut stream_b = Stream::new(client_seed(ctx.seed, 1), kinds.len());
    let budget = ctx.measure_for().mul_f64(0.3);
    let mut order = Vec::new();
    let mut plain = vec![Vec::new(); kinds.len()];
    let t = Instant::now();
    while t.elapsed() < budget || order.is_empty() {
        let k = if order.len() % 2 == 0 {
            stream_a.next()
        } else {
            stream_b.next()
        }
        .expect("the stream is endless");
        let t1 = Instant::now();
        let h = trace::quiet(|| handle_query(&plain_shared, &kinds[k]))?.hits;
        plain[k].push(secs(t1));
        out.check(h == expected[k], || {
            format!("replay {}: {h} hits, oracle {}", kinds[k].name, expected[k])
        });
        order.push(k);
    }
    let plain_total = secs(t);
    drop(plain_shared);

    let before = readers.totals();
    let mut handled = Vec::with_capacity(order.len());
    let t = Instant::now();
    for (i, &k) in order.iter().enumerate() {
        trace::set_request((3 << 40) | i as u64);
        let _span = trace::span("replay.request");
        let h = handle_query(&shared, &kinds[k])?;
        out.check(h.hits == expected[k], || {
            format!(
                "traced replay {}: {} hits, oracle {}",
                kinds[k].name, h.hits, expected[k]
            )
        });
        handled.push((k, h));
    }
    let traced_total = secs(t);
    let after = readers.totals();

    // Evaluation with free navigation: the same plans over the in-memory
    // document, so the evaluator's own work can be split from the
    // store's navigation.
    let doc = natix_xml::parse(&xml).map_err(|e| e.to_string())?;
    let mem_eval: Vec<f64> = kinds
        .iter()
        .map(|k| {
            let path = natix_xpath::parse(k.xpath).expect("mix queries parse");
            let reps: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    let mut nav = MemNavigator::new(&doc);
                    std::hint::black_box(eval(&mut nav, &path).expect("in-memory eval").len());
                    secs(t)
                })
                .collect();
            median(&reps).unwrap_or(0.0)
        })
        .collect();

    let n = handled.len() as f64;
    let sum = |f: &dyn Fn(&Handled) -> f64| handled.iter().map(|(_, h)| f(h)).sum::<f64>();
    let eval_self = handled.iter().map(|(k, _)| mem_eval[*k]).sum::<f64>() / n;
    let eval_store = sum(&|h| h.eval) / n;
    let rendered: Vec<f64> = handled
        .iter()
        .filter(|(k, _)| !kinds[*k].count_only)
        .map(|(_, h)| h.render)
        .collect();
    let fetches = sum(&|h| (h.decodes + h.cache_hits) as f64);
    let pool_refs = sum(&|h| (h.pool_hits + h.pool_misses) as f64);
    let reads = (after.reads - before.reads) as f64;

    let plain_med: Vec<f64> = plain.iter().map(|v| median(v).unwrap_or(0.0)).collect();
    let wire_n: usize = wire.iter().map(|w| w.1).sum();
    let server_self = wire
        .iter()
        .zip(&plain_med)
        .map(|(&(w, c), p)| (w - p) * c as f64)
        .sum::<f64>()
        / wire_n.max(1) as f64;

    out.values = BTreeMap::from([
        ("server.self_us", server_self * 1e6),
        (
            "server.shed_frac",
            ratio(summary.shed as f64, summary.requests as f64),
        ),
        ("server.proto_errors", summary.proto_errors as f64),
        ("xpath.parse_us", sum(&|h| h.parse) / n * 1e6),
        ("xpath.eval_self_us", eval_self * 1e6),
        ("store.nav_us", (eval_store - eval_self) * 1e6),
        ("store.record_switches", sum(&|h| h.switches as f64) / n),
        ("store.record_decodes", sum(&|h| h.decodes as f64) / n),
        (
            "store.record_cache_hit_rate",
            ratio(sum(&|h| h.cache_hits as f64), fetches),
        ),
        ("store.render_us", mean(&rendered) * 1e6),
        (
            "store.stored_bytes_per_input_byte",
            ratio(file_bytes as f64, xml.len() as f64),
        ),
        ("concurrent.begin_read_us", sum(&|h| h.begin_read) / n * 1e6),
        (
            "pager.pool_hit_rate",
            ratio(sum(&|h| h.pool_hits as f64), pool_refs),
        ),
        ("pager.evictions_per_req", sum(&|h| h.evictions as f64) / n),
        ("pager.backend_reads_per_req", reads / n),
        (
            "pager.backend_read_us",
            ratio((after.read_ns - before.read_ns) as f64 / 1e3, reads),
        ),
        (
            "trace.overhead_pct",
            (traced_total - plain_total) / plain_total * 100.0,
        ),
    ]);
    println!(
        "query replay: {} requests, plain {:.1} ms, traced {:.1} ms",
        order.len(),
        plain_total * 1e3,
        traced_total * 1e3
    );
    drop(shared);
    std::fs::remove_dir_all(&dir).ok();
    Ok(out)
}
