//! End-to-end tests of the `natix serve` daemon over real sockets:
//! verb round trips, graceful shutdown, protocol abuse (malformed
//! frames, bad lengths, mid-frame disconnects, randomized frame
//! mutations), the backpressure round trip, and a miniature
//! concurrent-client soak asserting snapshot isolation at the wire.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use natix_core::Ekm;
use natix_server::wire::{read_frame, write_frame, OP_SHUTDOWN};
use natix_server::{
    serve, Client, ErrKind, Request, Response, ResponseBody, ServeConfig, ServerHandle,
};
use natix_store::{bulkload_with, FilePager, StoreConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEED_XML: &str = "<list><e>one entry of text</e><e>two entry of text</e>\
                        <e>three entry of text</e></list>";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("natix-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build_store(dir: &Path) -> PathBuf {
    let path = dir.join("store.natix");
    let doc = natix_xml::parse(SEED_XML).unwrap();
    let pager = FilePager::create(&path).unwrap();
    drop(bulkload_with(&doc, &Ekm, 16, Box::new(pager), StoreConfig::default()).unwrap());
    path
}

fn start(store: PathBuf, tweak: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let mut config = ServeConfig {
        store,
        workers: 3,
        ..ServeConfig::default()
    };
    tweak(&mut config);
    // Even an ephemeral-port bind can transiently fail with AddrInUse
    // when parallel test binaries churn through the port range; retry a
    // bounded number of times before declaring the environment broken.
    let mut last = None;
    for attempt in 0..10 {
        match serve(config.clone()) {
            Ok(handle) => return handle,
            Err(natix_server::ServeError::Bind(io))
                if io.kind() == std::io::ErrorKind::AddrInUse =>
            {
                std::thread::sleep(std::time::Duration::from_millis(25 * (attempt + 1)));
                last = Some(io);
            }
            Err(e) => panic!("serve: {e}"),
        }
    }
    panic!("bind kept failing with AddrInUse after 10 attempts: {last:?}")
}

/// Every verb round-trips, an update is visible to a later query, and a
/// wire-initiated shutdown drains cleanly with zero worker panics.
#[test]
fn verbs_round_trip_and_graceful_shutdown() {
    let dir = scratch_dir("verbs");
    let handle = start(build_store(&dir), |_| {});
    let mut c = Client::connect(handle.addr()).unwrap();

    let epoch0 = c.ping().unwrap();
    let (qe, count, lines) = c.query("//e").unwrap();
    assert_eq!(count, 3);
    assert_eq!(lines, vec!["<e>"; 3]);
    assert!(qe >= epoch0);

    let (_, xml) = c.dump().unwrap();
    assert_eq!(xml, natix_xml::parse(SEED_XML).unwrap().to_xml());

    let stats = c.stats().unwrap();
    assert!(stats.contains("epoch"), "{stats}");
    assert!(stats.contains("snapshots"), "{stats}");

    let (clean, report) = c.fsck().unwrap();
    assert!(clean, "{report}");

    // Update through the wire, observed by a later query on the same
    // connection at a strictly newer epoch.
    let resp = c
        .request(&Request::Update {
            target: "/list".to_string(),
            op: natix_server::UpdateOp::AppendElement {
                name: "fresh".to_string(),
            },
        })
        .unwrap();
    assert_eq!(resp.body, ResponseBody::UpdateDone);
    assert!(resp.epoch > epoch0);
    let (_, count, _) = c.query("//fresh").unwrap();
    assert_eq!(count, 1);

    // A bad XPath is a typed BadRequest, not a dropped connection.
    let resp = c
        .request(&Request::Query {
            xpath: "///".to_string(),
            count_only: true,
        })
        .unwrap();
    assert!(
        matches!(
            &resp.body,
            ResponseBody::Error {
                kind: ErrKind::BadRequest,
                ..
            }
        ),
        "{resp:?}"
    );
    // ... and an update matching nothing reports InvalidUpdate.
    let resp = c
        .request(&Request::Update {
            target: "//absent".to_string(),
            op: natix_server::UpdateOp::DeleteSubtree,
        })
        .unwrap();
    assert!(
        matches!(
            &resp.body,
            ResponseBody::Error {
                kind: ErrKind::InvalidUpdate,
                ..
            }
        ),
        "{resp:?}"
    );

    c.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    assert_eq!(summary.proto_errors, 0, "{summary}");
    assert!(summary.ok >= 8, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Session pins hold their epoch: a pinned connection keeps seeing the
/// begin-time document while another connection commits updates.
#[test]
fn session_pin_isolates_from_concurrent_commits() {
    let dir = scratch_dir("pin");
    let handle = start(build_store(&dir), |_| {});

    let mut reader = Client::connect(handle.addr()).unwrap();
    let pinned_epoch = reader.begin().unwrap();
    let (_, before_xml) = reader.dump().unwrap();

    let mut writer = Client::connect(handle.addr()).unwrap();
    for i in 0..3 {
        let resp = writer
            .request(&Request::Update {
                target: "/list".to_string(),
                op: natix_server::UpdateOp::AppendText {
                    text: format!("wire payload number {i}"),
                },
            })
            .unwrap();
        assert_eq!(resp.body, ResponseBody::UpdateDone, "update {i}");
    }

    // The pinned reader still serves its epoch ...
    let (e, xml) = reader.dump().unwrap();
    assert_eq!(e, pinned_epoch);
    assert_eq!(xml, before_xml);
    // ... and after releasing the pin it sees the new state.
    reader.end().unwrap();
    let (e2, xml2) = reader.dump().unwrap();
    assert!(e2 > pinned_epoch);
    assert!(xml2.contains("wire payload number 2"));

    reader.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A malformed body is answered with a typed protocol error and the
/// connection keeps working; an undelimitable length prefix is answered
/// and then the connection is closed.
#[test]
fn malformed_frames_get_typed_errors() {
    let dir = scratch_dir("malformed");
    let handle = start(build_store(&dir), |_| {});

    // Unknown opcode: typed error, connection survives.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut s, &[0xEE]).unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(
        matches!(
            &resp.body,
            ResponseBody::Error {
                kind: ErrKind::Proto,
                ..
            }
        ),
        "{resp:?}"
    );
    write_frame(&mut s, &Request::Ping.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert_eq!(resp.body, ResponseBody::Pong, "connection must survive");

    // Oversized length prefix: typed error, then close.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(
        matches!(
            &resp.body,
            ResponseBody::Error {
                kind: ErrKind::Proto,
                ..
            }
        ),
        "{resp:?}"
    );
    assert!(
        matches!(read_frame(&mut s), Err(natix_server::ProtoError::Closed)),
        "server must close after an undelimitable prefix"
    );

    // Mid-frame disconnect: claim 100 bytes, send 10, hang up. The
    // server must shrug it off and keep serving.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[7u8; 10]).unwrap();
    drop(s);

    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(c.ping().is_ok());
    c.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    assert!(summary.proto_errors >= 2, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Randomized network fuzz: mutations and truncations of valid frames,
/// plus raw byte soup, sent over real connections. Every exchange ends
/// in a typed response or a clean close — the server never panics and
/// still serves valid traffic afterwards.
#[test]
fn fuzzed_frames_never_kill_the_server() {
    let dir = scratch_dir("fuzz");
    let handle = start(build_store(&dir), |_| {});
    let mut rng = StdRng::seed_from_u64(0xF0A2);

    let valid: Vec<Vec<u8>> = vec![
        Request::Ping.encode(),
        Request::Query {
            xpath: "//e".to_string(),
            count_only: false,
        }
        .encode(),
        Request::Dump { degraded_ok: true }.encode(),
        Request::Stats.encode(),
        Request::Fsck.encode(),
        Request::Begin.encode(),
        Request::End.encode(),
        Request::Update {
            target: "/list".to_string(),
            op: natix_server::UpdateOp::AppendElement {
                name: "fz".to_string(),
            },
        }
        .encode(),
    ];

    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    for round in 0..300 {
        let mut body = valid[rng.gen_range(0..valid.len())].clone();
        match rng.gen_range(0..4u8) {
            0 => {
                // Flip 1..4 bytes.
                for _ in 0..rng.gen_range(1..4u8) {
                    let i = rng.gen_range(0..body.len());
                    body[i] = rng.gen_range(0..=255u8);
                }
            }
            1 => {
                // Truncate.
                let keep = rng.gen_range(0..body.len());
                body.truncate(keep.max(1));
            }
            2 => {
                // Raw byte soup.
                body = (0..rng.gen_range(1..48usize))
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect();
            }
            _ => {} // leave valid
        }
        // A mutation may fabricate the shutdown opcode; skip those so the
        // fuzz loop keeps a live server to abuse.
        if body[0] == OP_SHUTDOWN {
            continue;
        }
        write_frame(&mut conn, &body).unwrap();
        match read_frame(&mut conn) {
            Ok(frame) => {
                // Whatever came back must at least be a decodable
                // response; content is free.
                Response::decode(&frame)
                    .unwrap_or_else(|e| panic!("round {round}: undecodable response: {e}"));
            }
            Err(_) => {
                // Clean close (or reset) — reconnect and go on.
                conn = TcpStream::connect(handle.addr()).unwrap();
            }
        }
    }

    // The server is still healthy.
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(c.ping().is_ok());
    let (clean, report) = c.fsck().unwrap();
    assert!(clean, "store must stay consistent under fuzz:\n{report}");
    c.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: the backpressure round trip. Saturate the pin budget and
/// the next session gets a typed retry-after (not a hang, not a reset);
/// honoring the hint after a pin frees succeeds.
#[test]
fn backpressure_round_trip() {
    let dir = scratch_dir("backpressure");
    let handle = start(build_store(&dir), |c| {
        c.max_pins = 2;
    });

    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    a.begin().unwrap();
    b.begin().unwrap();

    // Budget exhausted: a typed retry-after with a usable hint.
    let resp = c.request(&Request::Begin).unwrap();
    match &resp.body {
        ResponseBody::RetryAfter { millis, what, .. } => {
            assert!(*millis > 0, "{resp:?}");
            assert!(!what.is_empty(), "{resp:?}");
        }
        other => panic!("expected RetryAfter, got {other:?}"),
    }

    // Unpinned reads still work under a saturated pin budget via the
    // degraded path (reads are served, never hung).
    let resp = c.request(&Request::Dump { degraded_ok: true }).unwrap();
    assert!(
        matches!(&resp.body, ResponseBody::DumpResult { .. }),
        "{resp:?}"
    );

    // Release one pin; a client that honors retry-after gets through.
    a.end().unwrap();
    let (resp, _retries) = c.request_retry(&Request::Begin, 50).unwrap();
    assert_eq!(resp.body, ResponseBody::SessionPinned);

    c.shutdown_server().unwrap();
    let summary = handle.join();
    assert!(summary.shed >= 1, "{summary}");
    assert_eq!(summary.worker_panics, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite (miniature soak): concurrent reader clients race a writer
/// over the wire. Every response is consistent with exactly one
/// committed epoch — equal-epoch dumps hash identically, per-connection
/// epochs never regress — and the store fscks clean afterwards.
#[test]
fn concurrent_clients_observe_single_epoch_states() {
    let dir = scratch_dir("soak-mini");
    let handle = start(build_store(&dir), |_| {});
    let addr = handle.addr();

    let readers: Vec<_> = (0..3)
        .map(|r| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut last_epoch = 0u64;
                let mut dumps: Vec<(u64, u64)> = Vec::new();
                for _ in 0..15 {
                    let (resp, _) = c
                        .request_retry(&Request::Dump { degraded_ok: false }, 50)
                        .unwrap();
                    let ResponseBody::DumpResult { full, xml, .. } = &resp.body else {
                        panic!("reader {r}: {resp:?}");
                    };
                    assert!(full, "pinned-free reads must still be full reads");
                    assert!(
                        resp.epoch >= last_epoch,
                        "epoch regressed on one connection"
                    );
                    last_epoch = resp.epoch;
                    let mut h = DefaultHasher::new();
                    xml.hash(&mut h);
                    dumps.push((resp.epoch, h.finish()));

                    let (resp, _) = c
                        .request_retry(
                            &Request::Query {
                                xpath: "//e".to_string(),
                                count_only: true,
                            },
                            50,
                        )
                        .unwrap();
                    assert!(
                        matches!(&resp.body, ResponseBody::QueryResult { .. }),
                        "reader {r}: {resp:?}"
                    );
                }
                dumps
            })
        })
        .collect();

    let mut w = Client::connect(addr).unwrap();
    for i in 0..12 {
        let (resp, _) = w
            .request_retry(
                &Request::Update {
                    target: "/list".to_string(),
                    op: natix_server::UpdateOp::AppendText {
                        text: format!("soak payload number {i}"),
                    },
                },
                50,
            )
            .unwrap();
        assert_eq!(resp.body, ResponseBody::UpdateDone, "update {i}: {resp:?}");
    }

    // Exactly one document hash per committed epoch, across all clients.
    let mut by_epoch: HashMap<u64, u64> = HashMap::new();
    for t in readers {
        for (epoch, hash) in t.join().unwrap() {
            if let Some(prev) = by_epoch.insert(epoch, hash) {
                assert_eq!(
                    prev, hash,
                    "two clients saw different documents at epoch {epoch}"
                );
            }
        }
    }
    assert!(!by_epoch.is_empty());

    let (clean, report) = w.fsck().unwrap();
    assert!(clean, "{report}");
    w.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Pull `{n} active` out of the stats text's snapshots line.
fn active_snapshots(stats: &str) -> u64 {
    let line = stats
        .lines()
        .find(|l| l.trim_start().starts_with("snapshots"))
        .expect("snapshots line");
    line.split(',')
        .nth(1)
        .and_then(|s| s.trim().split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("active count")
}

/// A session that goes idle past its lease TTL has its pin reaped: the
/// freed slot admits another client, the leaker's next request gets the
/// typed session-expired answer exactly once, and a fresh `begin` on the
/// same connection recovers it.
#[test]
fn expired_lease_frees_the_pin_and_answers_typed() {
    let dir = scratch_dir("lease");
    let handle = start(build_store(&dir), |c| {
        c.max_pins = 1;
        c.lease_ttl_ms = 200;
    });

    let mut leaker = Client::connect(handle.addr()).unwrap();
    leaker.begin().unwrap();

    // The only pin slot is held: a second session sheds.
    let mut other = Client::connect(handle.addr()).unwrap();
    let resp = other.request(&Request::Begin).unwrap();
    assert!(
        matches!(&resp.body, ResponseBody::RetryAfter { .. }),
        "{resp:?}"
    );

    // Let the lease lapse (TTL + reaper ticks), then the slot is free.
    std::thread::sleep(std::time::Duration::from_millis(450));
    other.begin().unwrap();
    other.end().unwrap();

    // The leaker is told once, typed; afterwards the connection works
    // normally and can re-pin.
    match leaker.query("//e") {
        Err(natix_server::ClientError::SessionExpired) => {}
        other => panic!("expected the typed session-expired answer, got {other:?}"),
    }
    let (_, count, _) = leaker.query("//e").unwrap();
    assert_eq!(count, 3, "connection must keep working after the notice");
    leaker.begin().unwrap();
    leaker.end().unwrap();

    leaker.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.lease_expirations, 1, "{summary}");
    assert_eq!(summary.worker_panics, 0, "{summary}");
    assert_eq!(summary.proto_errors, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: shutdown racing an expired lease. The reaper releases the
/// overdue pin; the shutdown drain must not release it a second time —
/// pin accounting stays exact (no underflow in the active-snapshot
/// gauge), the drain completes, and the store scrubs clean afterwards.
#[test]
fn shutdown_does_not_double_release_a_reaped_pin() {
    let dir = scratch_dir("lease-race");
    let store = build_store(&dir);
    let handle = start(store.clone(), |c| {
        c.lease_ttl_ms = 150;
    });

    let mut leaker = Client::connect(handle.addr()).unwrap();
    leaker.begin().unwrap();
    // Reaped while idle.
    std::thread::sleep(std::time::Duration::from_millis(350));

    // A store-touching request processes the reaper's deferred release;
    // the gauge must come back to a sane small number (an over-release
    // would underflow it) and no session may still be pinned.
    let mut probe = Client::connect(handle.addr()).unwrap();
    probe.begin().unwrap();
    probe.end().unwrap();
    let stats = probe.stats().unwrap();
    assert!(stats.contains("0 session-pinned"), "{stats}");
    assert!(active_snapshots(&stats) <= 1, "{stats}");

    // Shutdown immediately after: the drain clears a session table that
    // no longer holds the reaped pin.
    probe.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.lease_expirations, 1, "{summary}");
    assert_eq!(summary.worker_panics, 0, "{summary}");

    // The drain's deferred maintenance ran on exact pin accounting: the
    // store file reopens and scrubs clean.
    let mut pager = FilePager::open(&store).unwrap();
    let report = natix_store::fsck(&mut pager, false);
    assert!(report.clean(), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `serve` reports store-open failures as errors instead of panicking
/// or leaking threads.
#[test]
fn serve_reports_missing_store() {
    let dir = scratch_dir("missing");
    let config = ServeConfig {
        store: dir.join("nope.natix"),
        ..ServeConfig::default()
    };
    match serve(config) {
        Err(natix_server::ServeError::Store(_)) => {}
        other => panic!("expected store error, got {:?}", other.map(|h| h.addr())),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A caught-up replica answers reads exactly like its primary: the same
/// count-only and rendered query bodies, the same dump, at the same epoch.
#[test]
fn caught_up_replica_answers_reads_like_the_primary() {
    let dir = scratch_dir("replica-reads");
    let primary = start(build_store(&dir), |_| {});
    let mut p = Client::connect(primary.addr()).unwrap();
    for name in ["alpha", "beta", "gamma"] {
        let resp = p
            .request(&Request::Update {
                target: "/list".to_string(),
                op: natix_server::UpdateOp::AppendElement {
                    name: name.to_string(),
                },
            })
            .unwrap();
        assert_eq!(resp.body, ResponseBody::UpdateDone);
    }
    let resp = p
        .request(&Request::Update {
            target: "/list/e".to_string(),
            op: natix_server::UpdateOp::DeleteSubtree,
        })
        .unwrap();
    assert_eq!(resp.body, ResponseBody::UpdateDone);
    let committed = p.ping().unwrap();

    let replica_of = primary.addr().to_string();
    let replica = start(dir.join("replica.natix"), |c| {
        c.replica_of = Some(replica_of);
    });
    let mut r = Client::connect(replica.addr()).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while r.ping().unwrap() != committed {
        assert!(
            std::time::Instant::now() < deadline,
            "replica never reached epoch {committed}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let reads = [
        Request::Query {
            xpath: "//e".to_string(),
            count_only: true,
        },
        Request::Query {
            xpath: "/list/*".to_string(),
            count_only: false,
        },
        Request::Dump { degraded_ok: false },
    ];
    for req in &reads {
        let from_primary = p.request(req).unwrap();
        let from_replica = r.request(req).unwrap();
        assert_eq!(from_primary.epoch, committed, "{req:?}");
        assert_eq!(from_replica, from_primary, "{req:?}");
    }
    // The rendered query really rendered, and the dump is non-trivial.
    match p.request(&reads[1]).unwrap().body {
        ResponseBody::QueryResult { count, lines } => {
            assert_eq!(count, 5);
            assert_eq!(lines.len(), 5);
        }
        other => panic!("expected a query result, got {other:?}"),
    }

    r.shutdown_server().unwrap();
    p.shutdown_server().unwrap();
    let summary = replica.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    let summary = primary.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}
