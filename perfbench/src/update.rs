//! `update`: write traffic over the wire beside pinned-session reads.
//!
//! The `query` document is served with a pool larger than the store.
//! Connection 1 appends a marker element under a person and then deletes
//! that marker, so the document returns to its start after every pair
//! and no update targets a missing node. Connection 2 runs short
//! child-path reads inside pinned sessions (`begin` … `end`) that hold a
//! snapshot across the writer's commits. Checks: epochs never regress,
//! a session reads one epoch, read counts match the in-memory oracle,
//! the final dump equals the pre-run dump, and fsck is clean.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use natix_server::{Client, Request, ResponseBody, UpdateOp};
use natix_store::{SharedStore, StoreConfig, StoreError};
use natix_xml::NodeKind;
use natix_xpath::{eval, StoreNavigator};

use crate::probes::PagerCounters;
use crate::query::{open_plain, open_replay, oracle_counts, Kind};
use crate::stats::{mean, median, ratio};
use crate::{latency_ms, peak_rss_mb, secs, timed_setup, trace, Ctx, Outcome, FAILED};

/// Short child paths the pinned reader cycles through.
pub const READS: &[&str] = &[
    "/site/people/person",
    "/site/regions/europe/item",
    "/site/categories/category",
    "/site/catgraph/edge",
    "/site/open_auctions/open_auction",
    "/site/closed_auctions/closed_auction",
];

/// Reads per pinned session.
pub const SESSION_READS: usize = 8;

fn read_kinds() -> Vec<Kind> {
    READS
        .iter()
        .map(|&xpath| Kind {
            name: xpath,
            xpath,
            count_only: true,
        })
        .collect()
}

/// Marker element name of write pair `i` of a run seeded with `seed`.
fn marker(seed: u64, i: u64) -> String {
    format!("bm{}x{i}", seed % 1000)
}

/// Persons the writer appends under (`person0` … `person255`). A commit
/// costs 1–2 ms or 5–6 ms depending on the fill of the target's record,
/// which varies with the seed; under one target (`/site`, say) the
/// workload's speed moved 2.5× between seeds. Spread over 256 targets,
/// the mix of cheap and dear commits is nearly the same for every seed.
pub const PERSON_TARGETS: u64 = 256;

/// The `i`-th write of a run seeded with `seed`: even writes append
/// marker `i / 2` under a person, odd writes delete it again.
pub fn write_op(seed: u64, i: u64) -> (String, UpdateOp) {
    let name = marker(seed, i / 2);
    let person = format!(
        "/site/people/person[@id='person{}']",
        (i / 2 * 97) % PERSON_TARGETS
    );
    if i.is_multiple_of(2) {
        (person, UpdateOp::AppendElement { name })
    } else {
        (format!("{person}/{name}"), UpdateOp::DeleteSubtree)
    }
}

#[derive(Debug, Default)]
struct Log {
    /// Seconds per request; failed ones are infinite.
    samples: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Log {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.samples.push(FAILED);
        if self.failed <= 3 {
            self.problems.push(what);
        }
    }
}

fn connect(client: &mut Option<Client>, addr: SocketAddr) -> Result<&mut Client, String> {
    if client.is_none() {
        *client = Some(Client::connect(addr).map_err(|e| e.to_string())?);
    }
    Ok(client.as_mut().expect("connected above"))
}

/// Connection 1: strictly paired append/delete until `deadline`, always
/// finishing a started pair.
fn writer(addr: SocketAddr, seed: u64, deadline: Instant) -> Log {
    let mut log = Log::default();
    let mut client = None;
    let mut last_epoch = 0u64;
    let mut i = 0u64;
    while i % 2 == 1 || Instant::now() < deadline {
        let (target, op) = write_op(seed, i);
        log.attempted += 1;
        trace::set_request((1 << 40) | i);
        let _span = trace::span("server.request");
        let t = Instant::now();
        let resp = connect(&mut client, addr).and_then(|c| {
            c.request(&Request::Update { target, op })
                .map_err(|e| e.to_string())
        });
        let elapsed = secs(t);
        match resp {
            Ok(r) if matches!(r.body, ResponseBody::UpdateDone) => {
                log.samples.push(elapsed);
                if r.epoch <= last_epoch {
                    log.problems
                        .push(format!("write epoch {} after {last_epoch}", r.epoch));
                }
                last_epoch = r.epoch;
            }
            Ok(r) => {
                log.fail(format!("write {i}: {:?}", r.body));
                if i.is_multiple_of(2) {
                    // The marker was not added: skip its delete.
                    i += 1;
                }
            }
            Err(e) => {
                log.fail(format!("write {i}: {e}"));
                client = None;
                if i.is_multiple_of(2) {
                    i += 1;
                }
            }
        }
        i += 1;
    }
    log
}

/// Connection 2: pinned sessions of [`SESSION_READS`] reads until
/// `deadline`.
fn reader(addr: SocketAddr, expected: &[u32], deadline: Instant) -> Log {
    let mut log = Log::default();
    let mut client = None;
    let mut last_session_epoch = 0u64;
    let mut r = 0usize;
    while Instant::now() < deadline {
        let c = match connect(&mut client, addr) {
            Ok(c) => c,
            Err(e) => {
                log.attempted += 1;
                log.fail(format!("connect: {e}"));
                continue;
            }
        };
        log.attempted += 1;
        let t = Instant::now();
        let epoch = match c.begin() {
            Ok(e) => {
                log.samples.push(secs(t));
                e
            }
            Err(e) => {
                log.fail(format!("begin: {e}"));
                client = None;
                continue;
            }
        };
        if epoch < last_session_epoch {
            log.problems
                .push(format!("session epoch {epoch} after {last_session_epoch}"));
        }
        last_session_epoch = epoch;
        for _ in 0..SESSION_READS {
            let k = r % READS.len();
            r += 1;
            log.attempted += 1;
            trace::set_request((2 << 40) | r as u64);
            let _span = trace::span("server.request");
            let t = Instant::now();
            let resp = c.request(&Request::Query {
                xpath: READS[k].to_string(),
                count_only: true,
            });
            let elapsed = secs(t);
            match resp {
                Ok(resp) => match resp.body {
                    ResponseBody::QueryResult { count, .. } => {
                        log.samples.push(elapsed);
                        if resp.epoch != epoch {
                            log.problems.push(format!(
                                "pinned read at epoch {} in a session pinned at {epoch}",
                                resp.epoch
                            ));
                        }
                        if count != expected[k] {
                            log.problems.push(format!(
                                "{}: {count} hits, oracle {}",
                                READS[k], expected[k]
                            ));
                        }
                    }
                    other => log.fail(format!("read: {other:?}")),
                },
                Err(e) => {
                    log.fail(format!("read: {e}"));
                    break;
                }
            }
        }
        log.attempted += 1;
        let t = Instant::now();
        match c.end() {
            Ok(()) => log.samples.push(secs(t)),
            Err(e) => {
                log.fail(format!("end: {e}"));
                client = None;
            }
        }
    }
    log
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let xml = crate::served_document(ctx.seed);
    let expected = oracle_counts(&xml, &read_kinds())?;
    if u64::from(expected[0]) < PERSON_TARGETS {
        return Err(format!("the document has only {} persons", expected[0]));
    }
    let dir = crate::fresh_dir(ctx, "update").map_err(|e| e.to_string())?;
    let path = dir.join("store.natix");
    let (server, shape, setup_s) = timed_setup(&xml, &path, 5, |_| None)?;
    let addr = server.addr();
    println!(
        "update: XMark {}, {} bytes XML, {} records on {} pages, pool {} pages",
        crate::SERVED_SCALE,
        xml.len(),
        shape.records,
        shape.pages,
        StoreConfig::default().buffer_pages
    );

    let mut out = Outcome::default();
    // The server pins each connection to one of its two workers, so the
    // checking connection is closed while the two load connections run.
    let dump = || -> Result<String, String> {
        let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
        Ok(admin.dump().map_err(|e| format!("dump: {e}"))?.1)
    };
    let before = dump()?;

    let drive = |dur: Duration| {
        let deadline = Instant::now() + dur;
        std::thread::scope(|s| {
            let w = s.spawn(|| writer(addr, ctx.seed, deadline));
            let r = s.spawn(|| reader(addr, &expected, deadline));
            (
                w.join().expect("writer thread panicked"),
                r.join().expect("reader thread panicked"),
            )
        })
    };
    let (warm_w, warm_r) = drive(crate::WARM_UP);
    let t = Instant::now();
    let (wlog, rlog) = drive(ctx.measure_for());
    let elapsed = secs(t);

    let after = dump()?;
    out.check(after == before, || {
        format!(
            "final dump ({} bytes) differs from the pre-run dump ({} bytes)",
            after.len(),
            before.len()
        )
    });
    let (clean, report) = Client::connect(addr)
        .and_then(|mut admin| admin.fsck())
        .map_err(|e| format!("fsck: {e}"))?;
    out.check(clean, || format!("post-run fsck: {report}"));
    let summary = server.summary();
    server.shutdown();
    server.join();

    for log in [&warm_w, &warm_r, &wlog, &rlog] {
        out.attempted += log.attempted;
        out.failed += log.failed;
        for p in &log.problems {
            out.check(false, || p.clone());
        }
    }
    let wms: Vec<f64> = wlog.samples.iter().map(|s| s * 1e3).collect();
    let rms: Vec<f64> = rlog.samples.iter().map(|s| s * 1e3).collect();
    let writes_ok = (wlog.attempted - wlog.failed) as f64;
    let all_ok = (wlog.attempted + rlog.attempted - wlog.failed - rlog.failed) as f64;
    let (p50, p95) = (latency_ms(&wms, 50.0), latency_ms(&wms, 95.0));
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let stored = ratio(file_bytes as f64, xml.len() as f64);
    let rss = peak_rss_mb();
    out.view = vec![
        ("setup_s", setup_s, "s"),
        ("req_per_s", all_ok / elapsed, "req/s"),
        ("update_per_s", writes_ok / elapsed, "req/s"),
        ("read_p50_ms", latency_ms(&rms, 50.0), "ms"),
        ("read_p95_ms", latency_ms(&rms, 95.0), "ms"),
        ("update_p50_ms", p50, "ms"),
        ("update_p95_ms", p95, "ms"),
        ("stored_bytes_per_input_byte", stored, "ratio"),
        (
            "error_rate",
            ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        ),
        ("peak_rss_mb", rss, "MB"),
        ("server.proto_errors", summary.proto_errors as f64, "count"),
    ];

    if !ctx.trace {
        out.values = BTreeMap::from([
            ("setup_s", setup_s),
            ("ops_per_s", writes_ok / elapsed),
            ("p50_ms", p50),
            ("partitions", shape.records as f64),
            ("peak_rss_mb", rss),
        ]);
        std::fs::remove_dir_all(&dir).ok();
        return Ok(out);
    }

    let replay = replay(ctx, &path, &xml)?;
    for p in &replay.problems {
        out.check(false, || p.clone());
    }
    // The server's own time on a write: wire latency minus the same
    // write handled in-process.
    let server_self =
        median(&wlog.samples).unwrap_or(0.0) - median(&replay.plain_write).unwrap_or(0.0);
    out.values = replay.values;
    out.values.insert("server.self_us", server_self * 1e6);
    out.values.insert(
        "server.shed_frac",
        ratio(summary.shed as f64, summary.requests as f64),
    );
    out.values
        .insert("server.proto_errors", summary.proto_errors as f64);
    out.values
        .insert("store.stored_bytes_per_input_byte", stored);
    std::fs::remove_dir_all(&dir).ok();
    Ok(out)
}

struct Replay {
    values: crate::Values,
    plain_write: Vec<f64>,
    problems: Vec<String>,
}

/// Parse, take the writer and apply write `i` in-process, as the
/// server's store service does.
fn apply_write(shared: &SharedStore, seed: u64, i: u64) -> Result<(f64, f64, f64), String> {
    let (target, op) = write_op(seed, i);
    let t = Instant::now();
    let path = {
        let _s = trace::span("xpath.parse");
        natix_xpath::parse(&target).map_err(|e| e.to_string())?
    };
    let parse = secs(t);
    let t = Instant::now();
    let mut writer = {
        let _s = trace::span("concurrent.begin_write");
        shared.begin_write().map_err(|e| e.to_string())?
    };
    let begin = secs(t);
    let t = Instant::now();
    {
        let _s = trace::span("concurrent.mutate");
        writer
            .mutate(|store| {
                let hit = {
                    let mut nav = StoreNavigator::new(store);
                    eval(&mut nav, &path)?.into_iter().next()
                };
                let Some(node) = hit else {
                    return Err(StoreError::InvalidUpdate("update target matched no node"));
                };
                match &op {
                    UpdateOp::AppendElement { name } => store
                        .append_child(node, NodeKind::Element, name, None)
                        .map(|_| ()),
                    UpdateOp::DeleteSubtree => store.delete_subtree(node),
                    _ => unreachable!("the writer only appends and deletes"),
                }
            })
            .map_err(|e| e.to_string())?;
    }
    Ok((parse, begin, secs(t)))
}

/// Replay the interleaving in-process: a pinned session, then
/// [`SESSION_READS`] rounds of one write and one pinned read. Once
/// plain, once with spans and timing pagers, over the same number of
/// rounds.
fn replay(ctx: &Ctx, path: &Path, xml: &str) -> Result<Replay, String> {
    let kinds = read_kinds();
    let expected = oracle_counts(xml, &kinds)?;
    let mut problems = Vec::new();
    let config = StoreConfig::default();

    let plain_shared = open_plain(path, config)?;
    let budget = ctx.measure_for().mul_f64(0.3);
    let mut plain_write = Vec::new();
    let mut i = 0u64;
    let t = Instant::now();
    while t.elapsed() < budget || i == 0 {
        let mut snap = plain_shared.begin_read().map_err(|e| e.to_string())?;
        for r in 0..SESSION_READS {
            let t1 = Instant::now();
            trace::quiet(|| apply_write(&plain_shared, ctx.seed, i))?;
            plain_write.push(secs(t1));
            i += 1;
            let path =
                natix_xpath::parse(kinds[r % kinds.len()].xpath).map_err(|e| e.to_string())?;
            let mut nav = StoreNavigator::new(snap.store());
            std::hint::black_box(eval(&mut nav, &path).map_err(|e| e.to_string())?.len());
        }
    }
    let plain_total = secs(t);
    drop(plain_shared);
    let write_count = i;

    let writer = Arc::new(PagerCounters::default());
    let readers = Arc::new(PagerCounters::default());
    let shared = open_replay(path, config, Arc::clone(&writer), readers)?;
    let c0 = shared.stats();
    let w0 = writer.totals();
    let (mut parse, mut mutate, mut begin_read) = (Vec::new(), Vec::new(), Vec::new());
    let mut user_bytes = 0u64;
    let t = Instant::now();
    let mut i = 0u64;
    while i < write_count {
        trace::set_request((3 << 40) | i);
        let t1 = Instant::now();
        let mut snap = {
            let _s = trace::span("concurrent.begin_read");
            shared.begin_read().map_err(|e| e.to_string())?
        };
        begin_read.push(secs(t1));
        for r in 0..SESSION_READS {
            {
                trace::set_request((3 << 40) | i);
                let _span = trace::span("replay.request");
                let (p, _, m) = apply_write(&shared, ctx.seed, i)?;
                parse.push(p);
                mutate.push(m);
                user_bytes += marker(ctx.seed, i / 2).len() as u64 + 3;
            }
            i += 1;
            let k = r % kinds.len();
            let _span = trace::span("replay.request");
            let path = {
                let _s = trace::span("xpath.parse");
                natix_xpath::parse(kinds[k].xpath).map_err(|e| e.to_string())?
            };
            let hits = {
                let _s = trace::span("xpath.eval");
                let mut nav = StoreNavigator::new(snap.store());
                eval(&mut nav, &path).map_err(|e| e.to_string())?.len() as u32
            };
            if hits != expected[k] {
                problems.push(format!(
                    "replay {}: {hits} hits, oracle {}",
                    kinds[k].name, expected[k]
                ));
            }
        }
    }
    let traced_total = secs(t);
    let c1 = shared.stats();
    let w1 = writer.totals();
    drop(shared);

    let commits = (c1.commits - c0.commits) as f64;
    let syncs = (w1.syncs - w0.syncs) as f64;
    let values = BTreeMap::from([
        ("xpath.parse_us", mean(&parse) * 1e6),
        ("concurrent.begin_read_us", mean(&begin_read) * 1e6),
        ("concurrent.mutate_us", mean(&mutate) * 1e6),
        (
            "concurrent.checkpoints_deferred_frac",
            ratio(
                (c1.checkpoints_deferred - c0.checkpoints_deferred) as f64,
                commits,
            ),
        ),
        (
            "concurrent.reclaim_blocked_frac",
            ratio(
                (c1.reclaim_blocked_by_pins - c0.reclaim_blocked_by_pins) as f64,
                commits,
            ),
        ),
        (
            "pager.backend_writes_per_commit",
            ratio((w1.writes - w0.writes) as f64, commits),
        ),
        (
            "pager.write_bytes_per_user_byte",
            ratio(
                (w1.bytes_written() - w0.bytes_written()) as f64,
                user_bytes as f64,
            ),
        ),
        ("pager.syncs_per_commit", ratio(syncs, commits)),
        (
            "pager.sync_us",
            ratio((w1.sync_ns - w0.sync_ns) as f64 / 1e3, syncs),
        ),
        (
            "trace.overhead_pct",
            (traced_total - plain_total) / plain_total * 100.0,
        ),
    ]);
    println!(
        "update replay: {write_count} writes in {} sessions, plain {:.1} ms, traced {:.1} ms",
        begin_read.len(),
        plain_total * 1e3,
        traced_total * 1e3
    );
    Ok(Replay {
        values,
        plain_write,
        problems,
    })
}
