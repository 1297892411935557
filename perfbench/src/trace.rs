//! In-memory span recorder.
//!
//! A span is a named interval with a parent and a request id. Spans are
//! kept in memory while the traced run works and written out once it
//! ends. Recording is off unless [`enable`] was called, so the untraced
//! run pays one relaxed atomic load per span site.
//!
//! Parent links come from a per-thread stack of open spans. A span opened
//! on a thread with no open span (a loader thread inside a bulk load, for
//! example) takes the innermost [`ambient`] span as its parent, so work
//! that a library call fans out to its own threads still nests under the
//! call that caused it.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    ambient: Mutex<Vec<u32>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        origin: Instant::now(),
        next_id: AtomicU32::new(1),
        spans: Mutex::new(Vec::new()),
        ambient: Mutex::new(Vec::new()),
    })
}

/// Turn recording on for the rest of the process.
pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Run `f` with recording off on this thread: the untraced half of a
/// traced-minus-untraced overhead measurement.
pub fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let was = QUIET.with(|q| q.replace(true));
    let out = f();
    QUIET.with(|q| q.set(was));
    out
}

/// Tag spans opened on this thread from now on with request `req`.
pub fn set_request(req: u64) {
    REQUEST.with(|r| r.set(req));
}

/// An open span; it is recorded when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    open: Option<(u32, Option<u32>, &'static str, u64, u64)>,
    ambient: bool,
}

fn now_ns(rec: &Recorder) -> u64 {
    rec.origin.elapsed().as_nanos() as u64
}

fn open(name: &'static str, ambient: bool) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) || QUIET.with(Cell::get) {
        return Guard {
            open: None,
            ambient: false,
        };
    }
    let rec = recorder();
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied()).or_else(|| {
        rec.ambient
            .lock()
            .expect("ambient span stack poisoned")
            .last()
            .copied()
    });
    STACK.with(|s| s.borrow_mut().push(id));
    if ambient {
        rec.ambient
            .lock()
            .expect("ambient span stack poisoned")
            .push(id);
    }
    let req = REQUEST.with(|r| r.get());
    Guard {
        open: Some((id, parent, name, req, now_ns(rec))),
        ambient,
    }
}

/// Open a span named `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    open(name, false)
}

/// Open a span that also parents spans opened on other threads while it
/// is open and they have no open span of their own.
pub fn ambient(name: &'static str) -> Guard {
    open(name, true)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, req, start_ns)) = self.open.take() else {
            return;
        };
        let rec = recorder();
        let end_ns = now_ns(rec);
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        if self.ambient {
            if let Ok(mut a) = rec.ambient.lock() {
                if let Some(pos) = a.iter().rposition(|&x| x == id) {
                    a.remove(pos);
                }
            }
        }
        if let Ok(mut spans) = rec.spans.lock() {
            spans.push(Span {
                id,
                parent,
                name,
                req,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    match RECORDER.get() {
        Some(rec) => std::mem::take(&mut *rec.spans.lock().expect("span buffer poisoned")),
        None => Vec::new(),
    }
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    match RECORDER.get() {
        Some(rec) => rec.spans.lock().expect("span buffer poisoned").clone(),
        None => Vec::new(),
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover. Overlapping children (from several threads)
/// are counted once. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals per span name, sorted by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
