//! Unit tests of the benchmark's own machinery: self-time computation,
//! percentiles, the measuring pager, and the definition file.

use std::sync::Arc;

use natix_core::Ekm;
use natix_perfbench::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};
use natix_perfbench::partition::parse_report;
use natix_perfbench::probes::{PagerCounters, TimingFactory, TimingPager};
use natix_perfbench::query::{kinds, open_plain, open_replay, Stream};
use natix_perfbench::stats::{median, percentile};
use natix_perfbench::trace::{self, self_times, totals_by_name, Span};
use natix_store::{
    bulkload_with, FilePager, MemPager, Pager, PagerFactory, StoreConfig, PAGE_SIZE,
};
use natix_xpath::{eval_query, xpathmark, StoreNavigator};

fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name,
        req: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_children_once() {
    // root [0, 100): child a [10, 30), child b [20, 50) overlaps a (two
    // threads), child c [90, 120) runs past the root's end.
    // a has a grandchild [12, 18).
    let spans = vec![
        span(1, None, "collection.bulkload", 0, 100),
        span(2, Some(1), "pager.write", 10, 30),
        span(3, Some(1), "pager.write", 20, 50),
        span(4, Some(1), "pager.sync", 90, 120),
        span(5, Some(2), "pager.inner", 12, 18),
        span(6, None, "xml.sax", 200, 260),
    ];
    let selfs = self_times(&spans);
    // Covered by children: [10, 50) and [90, 100) = 50 ns.
    assert_eq!(selfs[0], 50);
    assert_eq!(selfs[1], 14);
    assert_eq!(selfs[2], 30);
    assert_eq!(selfs[3], 30);
    assert_eq!(selfs[4], 6);
    assert_eq!(selfs[5], 60);

    let totals = totals_by_name(&spans);
    let w = totals["pager.write"];
    assert_eq!((w.count, w.total_ns, w.self_ns), (2, 50, 44));
}

#[test]
fn recorder_nests_spans_on_one_thread() {
    trace::enable();
    let req = 0xfeed_0000_0001;
    trace::set_request(req);
    {
        let _outer = trace::span("replay.request");
        {
            let _inner = trace::span("xpath.eval");
        }
    }
    trace::set_request(0);
    let mine: Vec<Span> = trace::snapshot()
        .into_iter()
        .filter(|s| s.req == req)
        .collect();
    assert_eq!(mine.len(), 2);
    let outer = mine.iter().find(|s| s.name == "replay.request").unwrap();
    let inner = mine.iter().find(|s| s.name == "xpath.eval").unwrap();
    assert_eq!(inner.parent, Some(outer.id));
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&v, 95.0), Some(95.0));
    assert_eq!(percentile(&v, 99.0), Some(99.0));
    assert_eq!(percentile(&v, 100.0), Some(100.0));
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[5.0, 1.0]), Some(1.0));
}

#[test]
fn failed_operations_miss_every_limit() {
    let mut v = vec![1.0; 98];
    v.push(f64::INFINITY);
    v.push(f64::INFINITY);
    assert_eq!(percentile(&v, 98.0), Some(1.0));
    assert_eq!(percentile(&v, 99.0), Some(f64::INFINITY));
    assert_eq!(
        natix_perfbench::latency_ms(&v, 99.0),
        natix_perfbench::MISSED_LIMIT_MS
    );
}

#[test]
fn timing_pager_passes_bytes_through_and_counts() {
    let counters = Arc::new(PagerCounters::default());
    let mut p = TimingPager::new(Box::new(MemPager::new()), Arc::clone(&counters));
    let id = p.allocate().unwrap();
    let mut page = [0u8; PAGE_SIZE];
    for (i, b) in page.iter_mut().enumerate() {
        *b = (i * 31 % 251) as u8;
    }
    p.write(id, &page).unwrap();
    p.sync().unwrap();
    let mut back = [0u8; PAGE_SIZE];
    p.read(id, &mut back).unwrap();
    assert_eq!(back, page);
    assert_eq!(p.page_count(), 1);
    let t = counters.totals();
    assert_eq!((t.allocs, t.writes, t.syncs, t.reads), (1, 1, 1, 1));
    assert_eq!(t.bytes_written(), PAGE_SIZE as u64);
}

fn small_xmark() -> natix_xml::Document {
    natix_datagen::xmark(natix_datagen::GenConfig {
        scale: 0.005,
        seed: 7,
    })
}

#[test]
fn timing_pager_leaves_query_results_unchanged() {
    let doc = small_xmark();
    let config = StoreConfig {
        record_limit_slots: 64,
        ..StoreConfig::default()
    };
    let counters = Arc::new(PagerCounters::default());
    let timed = TimingPager::new(Box::new(MemPager::new()), Arc::clone(&counters));
    let mut plain = bulkload_with(&doc, &Ekm, 64, Box::new(MemPager::new()), config).unwrap();
    let mut traced = bulkload_with(&doc, &Ekm, 64, Box::new(timed), config).unwrap();
    for (name, q) in xpathmark::all() {
        let a = eval_query(&mut StoreNavigator::new(&mut plain), q).unwrap();
        let b = eval_query(&mut StoreNavigator::new(&mut traced), q).unwrap();
        assert_eq!(a, b, "{name}");
    }
    assert!(counters.totals().writes > 0);
}

#[test]
fn traced_and_untraced_replays_count_the_same_hits() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replay-equal");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.natix");
    let xml = small_xmark().to_xml();
    let shape = natix_perfbench::build_store(&xml, &path).unwrap();
    let config = StoreConfig {
        buffer_pages: (shape.pages as usize / 3).max(1),
        ..StoreConfig::default()
    };
    let readers = Arc::new(PagerCounters::default());
    let traced = open_replay(
        &path,
        config,
        Arc::new(PagerCounters::default()),
        Arc::clone(&readers),
    )
    .unwrap();
    let plain = open_plain(&path, config).unwrap();
    for kind in kinds() {
        let a = natix_perfbench::query::handle_query(&plain, &kind).unwrap();
        let b = natix_perfbench::query::handle_query(&traced, &kind).unwrap();
        assert_eq!(a.hits, b.hits, "{}", kind.name);
    }
    assert!(readers.totals().reads > 0);
    // The factory opens independent readers over the same file.
    let mut r = TimingFactory {
        path: path.clone(),
        counters: Arc::clone(&readers),
    }
    .open_pager()
    .unwrap();
    let mut a = [0u8; PAGE_SIZE];
    let mut b = [0u8; PAGE_SIZE];
    r.read(0, &mut a).unwrap();
    FilePager::open(&path).unwrap().read(0, &mut b).unwrap();
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn request_stream_is_seeded_and_balanced() {
    let n = kinds().len();
    let a: Vec<usize> = Stream::new(9, n).take(n * 4).collect();
    let b: Vec<usize> = Stream::new(9, n).take(n * 4).collect();
    let c: Vec<usize> = Stream::new(10, n).take(n * 4).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);
    for round in a.chunks(n) {
        let mut r = round.to_vec();
        r.sort_unstable();
        assert_eq!(r, (0..n).collect::<Vec<_>>());
    }
}

#[test]
fn partition_report_is_parsed() {
    let out = "document   : 18 nodes, 40 slots\n\
               algorithm  : DHW-P (K = 256)\n\
               partitions : 3\n\
               root weight: 10\n";
    let p = parse_report(out).unwrap();
    assert_eq!((p.label.as_str(), p.partitions), ("DHW-P", 3));
    assert!(parse_report("partitions : 3\n").is_none());
    for label in ["DHW-P", "GHDW-P", "DHW-C", "GHDW-C", "DHW", "GHDW"] {
        let e = natix_perfbench::partition::engine(label).unwrap();
        assert_eq!(e.name(), label);
    }
}

#[test]
fn benchmark_json_matches_the_definition() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).unwrap();
    assert_eq!(on_disk, metrics::describe());
}

#[test]
fn definition_meets_the_format_limits() {
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!((2..=8).contains(&WORKLOADS.len()));
    for w in WORKLOADS {
        assert!(
            name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
            "{}",
            w.name
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    for m in END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    for m in PER_LAYER {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
    }
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");
    assert!(metrics::describe().len() <= 64 * 1024);
}
