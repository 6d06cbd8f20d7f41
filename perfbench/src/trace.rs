//! The benchmark's own tracer.
//!
//! Spans wrap each call the benchmark makes into a layer of the program:
//! every span records its name, an optional tag (the scheme it served), its
//! start, its end and the span that was open around it on the same thread.
//! Counts are taken at the same boundaries and attached to the innermost open
//! span.  Everything stays in memory until [`write_json`] runs at the end.
//!
//! Tracing is off unless [`start`] turns it on; an off span costs one atomic
//! load and takes no clock reading.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static COUNTS: Mutex<Vec<CountRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// One count, taken inside span `span` (0 when no span was open).
#[derive(Debug, Clone)]
pub struct CountRecord {
    pub span: u64,
    pub name: &'static str,
    pub tag: &'static str,
    pub value: f64,
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn lock<T>(m: &'static Mutex<T>) -> std::sync::MutexGuard<'static, T> {
    m.lock().expect("a thread panicked while recording a trace")
}

/// Clears every record and turns tracing on.
pub fn start() {
    lock(&SPANS).clear();
    lock(&COUNTS).clear();
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing off; the records stay for aggregation and [`write_json`].
pub fn stop() {
    ENABLED.store(false, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closing happens on drop.
#[must_use = "a span closes when dropped"]
pub struct Span {
    open: Option<(u64, u64, &'static str, &'static str, u64)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((id, parent, name, tag, start_ns)) = self.open.take() {
            let end_ns = now_ns();
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(pos) = open.iter().rposition(|&o| o == id) {
                    open.remove(pos);
                }
            });
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(SpanRecord { id, parent, name, tag, start_ns, end_ns });
            }
        }
    }
}

fn open(name: &'static str, tag: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Span { open: Some((id, parent, name, tag, now_ns())) }
}

/// Opens a span under the innermost span open on this thread.
pub fn span(name: &'static str) -> Span {
    open(name, "")
}

/// [`span`] with a tag, such as the scheme being served.
pub fn span_tagged(name: &'static str, tag: &'static str) -> Span {
    open(name, tag)
}

/// Records a count inside the innermost open span.
pub fn count(name: &'static str, tag: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let span = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
    lock(&COUNTS).push(CountRecord { span, name, tag, value });
}

/// Durations in seconds of every closed span named `name` with tag `tag`.
pub fn durations(name: &str, tag: &str) -> Vec<f64> {
    lock(&SPANS).iter().filter(|s| s.name == name && s.tag == tag).map(SpanRecord::secs).collect()
}

/// Every count named `name` with tag `tag`.
pub fn counts(name: &str, tag: &str) -> Vec<f64> {
    lock(&COUNTS).iter().filter(|c| c.name == name && c.tag == tag).map(|c| c.value).collect()
}

/// Writes every span and count as one JSON document to `path`.
pub fn write_json(path: &std::path::Path, header: &str) -> std::io::Result<()> {
    let spans = lock(&SPANS);
    let counts = lock(&COUNTS);
    let mut out = String::with_capacity(96 * (spans.len() + counts.len()) + 256);
    let _ = write!(out, "{{{header},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.tag, s.start_ns, s.end_ns
        );
    }
    out.push_str("],\"counts\":[");
    for (i, c) in counts.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"span\":{},\"name\":\"{}\",\"tag\":\"{}\",\"value\":{}}}",
            c.span, c.name, c.tag, c.value
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
