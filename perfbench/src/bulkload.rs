//! `bulkload`: `bulkload_collection` over `small_docs`.
//!
//! 20,000 small documents (about 140 MB of XML) are generated and held in
//! memory before timing, then loaded into a new 4-shard collection by 2
//! loader threads with a 512-page pool per shard. Loads repeat until the
//! run's time is used. Checks on the last load: the collection's doc
//! count equals the input, sampled docs round-trip byte-exact, and
//! `fsck_collection` is clean.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use natix_core::{Partitioner, StreamingEkm};
use natix_store::{
    bulkload_collection, bulkload_collection_with, fsck_collection, read_catalog, BulkloadOptions,
    BulkloadReport, Collection, FilePager, Pager, StoreConfig,
};
use natix_xml::{parse_sax, ParseOptions, SaxHandler};

use crate::probes::{PagerCounters, TimingPager};
use crate::stats::{median, ratio};
use crate::{latency_ms, peak_rss_mb, secs, trace, Ctx, Outcome, Rng, FAILED};

pub const DOCS: usize = 20_000;
pub const SHARDS: u32 = 4;
pub const THREADS: usize = 2;
pub const POOL_PAGES: usize = 512;
/// Documents in each of the separate SAX and EKM passes of the traced
/// run (a multiple of the six generators `small_docs` cycles through).
pub const PASS_DOCS: usize = 6_000;
/// Documents whose round trip is checked after a load.
pub const SAMPLED: usize = 64;

fn options() -> BulkloadOptions {
    BulkloadOptions {
        shards: SHARDS,
        threads: THREADS,
        ..BulkloadOptions::default()
    }
}

fn config() -> StoreConfig {
    StoreConfig {
        buffer_pages: POOL_PAGES,
        ..StoreConfig::default()
    }
}

/// Bytes of the collection's files.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Load `docs` into a new collection at `dir`; returns the report and
/// the wall time.
fn load(dir: &Path, docs: &[String]) -> Result<(BulkloadReport, f64), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let t = Instant::now();
    let report = bulkload_collection(dir, docs.iter().cloned(), config(), options())
        .map_err(|e| format!("bulkload: {e}"))?;
    Ok((report, secs(t)))
}

/// Check a loaded collection against its input.
fn check(out: &mut Outcome, dir: &Path, docs: &[String], seed: u64) -> Result<(), String> {
    let mut coll = Collection::open(dir, config()).map_err(|e| format!("open: {e}"))?;
    out.check(coll.doc_count() == docs.len() as u64, || {
        format!(
            "collection holds {} docs, input {}",
            coll.doc_count(),
            docs.len()
        )
    });
    let mut rng = Rng::new(seed ^ 0xb01d);
    for _ in 0..SAMPLED {
        let id = rng.below(docs.len());
        let back = coll
            .get_document(id as u64)
            .map_err(|e| format!("doc {id}: {e}"))?
            .to_xml();
        out.check(back == docs[id], || format!("doc {id} does not round-trip"));
    }
    for (shard, report) in fsck_collection(dir, false).map_err(|e| format!("fsck: {e}"))? {
        out.check(report.clean(), || {
            format!("fsck of shard {shard} is not clean")
        });
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let docs: Vec<String> = natix_datagen::small_docs(DOCS, ctx.seed).collect();
    let input_bytes: usize = docs.iter().map(String::len).sum();
    println!(
        "bulkload: {} docs, {} bytes XML, {SHARDS} shards, {THREADS} loader threads, {POOL_PAGES}-page pool per shard",
        docs.len(),
        input_bytes
    );
    let dir = crate::fresh_dir(ctx, "bulkload").map_err(|e| e.to_string())?;
    let coll = dir.join("coll");

    // Set-up: the fixed cost of a load (shard files, catalog, loader
    // threads), measured on one document per shard.
    let mut setups = Vec::new();
    for _ in 0..5 {
        let (_, s) = load(&coll, &docs[..SHARDS as usize])?;
        setups.push(s);
    }
    let setup_s = median(&setups).expect("set-up ran");

    let mut out = Outcome::default();
    let mut per_doc_ms = Vec::new();
    let mut loaded = 0u64;
    let mut busy = 0.0;
    let mut last = None;
    let t = Instant::now();
    // The traced run times one plain load here and one traced load below.
    while per_doc_ms.is_empty() || (!ctx.trace && t.elapsed() < ctx.measure_for()) {
        out.attempted += docs.len() as u64;
        match load(&coll, &docs) {
            Ok((report, s)) => {
                loaded += report.docs;
                busy += s;
                per_doc_ms.push(s * 1e3 / docs.len() as f64);
                last = Some(report);
            }
            Err(e) => {
                out.failed += docs.len() as u64;
                per_doc_ms.push(FAILED);
                out.check(false, || e);
                break;
            }
        }
    }
    let Some(report) = last else {
        return Err("no load completed".into());
    };
    check(&mut out, &coll, &docs, ctx.seed)?;
    let stored = ratio(dir_bytes(&coll) as f64, input_bytes as f64);
    let docs_per_s = loaded as f64 / busy;
    let rss = peak_rss_mb();
    out.view = vec![
        ("setup_s", setup_s, "s"),
        ("docs_per_s", docs_per_s, "docs/s"),
        ("partitions", report.records as f64, "records"),
        ("stored_bytes_per_input_byte", stored, "ratio"),
        (
            "error_rate",
            ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        ),
        ("peak_rss_mb", rss, "MB"),
        ("loads", per_doc_ms.len() as f64, "count"),
    ];
    if !ctx.trace {
        out.values = BTreeMap::from([
            ("setup_s", setup_s),
            ("ops_per_s", docs_per_s),
            ("p50_ms", latency_ms(&per_doc_ms, 50.0)),
            ("partitions", report.records as f64),
            ("peak_rss_mb", rss),
        ]);
        std::fs::remove_dir_all(&dir).ok();
        return Ok(out);
    }

    // Traced load: the same input through timing shard pagers, under one
    // span that the loader threads' pager spans nest in.
    let counters = Arc::new(PagerCounters::default());
    let factory = {
        let counters = Arc::clone(&counters);
        move |_shard: u32, path: &Path| -> natix_store::StoreResult<Box<dyn Pager>> {
            Ok(Box::new(TimingPager::new(
                Box::new(FilePager::create(path)?),
                Arc::clone(&counters),
            )))
        }
    };
    std::fs::remove_dir_all(&coll).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let traced = {
        let _span = trace::ambient("collection.bulkload");
        bulkload_collection_with(&coll, docs.iter().cloned(), config(), options(), &factory)
            .map_err(|e| format!("traced bulkload: {e}"))?
    };
    let traced_s = secs(t);
    check(&mut out, &coll, &docs, ctx.seed)?;
    let (_, segments) = read_catalog(&coll).map_err(|e| e.to_string())?;
    let segments = segments.len() as f64;
    let pager = counters.totals();

    // Separate SAX and EKM passes over the first documents.
    let pass = &docs[..PASS_DOCS.min(docs.len())];
    let t = Instant::now();
    {
        let _span = trace::span("xml.sax");
        for xml in pass {
            parse_sax(xml, ParseOptions::default(), &mut NullSax)
                .map_err(|e| format!("sax: {e}"))?;
        }
    }
    let sax_us = secs(t) * 1e6 / pass.len() as f64;
    let ekm = StreamingEkm {
        sibling_budget: options().sibling_budget,
    };
    let k = config().record_limit_slots;
    let mut ekm_s = 0.0;
    for xml in pass {
        let doc = natix_xml::parse(xml).map_err(|e| format!("parse: {e}"))?;
        let t = Instant::now();
        let _span = trace::span("core.ekm");
        std::hint::black_box(ekm.partition(doc.tree(), k).map_err(|e| e.to_string())?);
        ekm_s += secs(t);
    }
    let ekm_us = ekm_s * 1e6 / pass.len() as f64;

    let n = traced.docs as f64;
    // Wall time per document not covered by pager calls, less the parse
    // and partition work the loader threads share.
    let spans = trace::snapshot();
    let root = spans
        .iter()
        .find(|s| s.name == "collection.bulkload")
        .map(|s| s.id);
    let selfs = trace::self_times(&spans);
    let root_self_ns = spans
        .iter()
        .zip(&selfs)
        .find(|(s, _)| Some(s.id) == root)
        .map_or(0, |(_, &ns)| ns);
    let collection_self = root_self_ns as f64 / 1e3 / n - (sax_us + ekm_us) / THREADS as f64;
    out.values = BTreeMap::from([
        ("store.stored_bytes_per_input_byte", stored),
        (
            "pager.backend_writes_per_commit",
            ratio(pager.writes as f64, segments),
        ),
        (
            "pager.write_bytes_per_user_byte",
            ratio(pager.bytes_written() as f64, input_bytes as f64),
        ),
        (
            "pager.syncs_per_commit",
            ratio(pager.syncs as f64, segments),
        ),
        (
            "pager.sync_us",
            ratio(pager.sync_ns as f64 / 1e3, pager.syncs as f64),
        ),
        ("xml.sax_us_per_doc", sax_us),
        ("core.ekm_us_per_doc", ekm_us),
        ("collection.self_us_per_doc", collection_self),
        ("collection.records_per_doc", traced.records as f64 / n),
        (
            "collection.syncs_per_segment",
            ratio(pager.syncs as f64, segments),
        ),
        (
            "collection.loader_resident_kb",
            traced.peak_loader_resident as f64 / 1024.0,
        ),
        ("trace.overhead_pct", (traced_s - busy) / busy * 100.0),
    ]);
    println!(
        "bulkload traced: plain load {:.3} s, traced load {:.3} s, {} segments",
        busy, traced_s, segments
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(out)
}

/// A SAX handler that does nothing: the pass times the parser alone.
struct NullSax;

impl SaxHandler for NullSax {
    type Error = std::convert::Infallible;

    fn start_element(&mut self, name: &str) -> Result<(), Self::Error> {
        std::hint::black_box(name);
        Ok(())
    }
    fn attribute(&mut self, name: &str, value: &str) -> Result<(), Self::Error> {
        std::hint::black_box((name, value));
        Ok(())
    }
    fn text(&mut self, data: &str) -> Result<(), Self::Error> {
        std::hint::black_box(data);
        Ok(())
    }
    fn comment(&mut self, data: &str) -> Result<(), Self::Error> {
        std::hint::black_box(data);
        Ok(())
    }
    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), Self::Error> {
        std::hint::black_box((target, data));
        Ok(())
    }
    fn end_element(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}
