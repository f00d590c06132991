//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public API — nothing is recorded inside the program.
//! Every span carries the id of the span that caused it (`parent`) and
//! the id of the unit of work it belongs to (`cause`: a workload pass,
//! a design point, a request), so spans of one unit can be grouped
//! after the fact. Spans stay in memory and are written out once, when
//! the run ends.
//!
//! The same [`Open`] handle times the call whether or not tracing is
//! active, so the traced and untraced paths execute the same clock
//! reads; an inactive tracer only skips the push.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub cause: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub thread: u64,
}

/// A span that has started; [`Tracer::end`] closes it.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    cause: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The span's id (0 while the tracer is inactive), for children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    enabled: bool,
    active: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Least share of a traced round's wall that layer spans must cover.
pub const MIN_COVERAGE_PCT: f64 = 95.0;

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

impl Tracer {
    /// A tracer for a traced (`enabled`) or untraced run. A traced run
    /// starts active; [`Tracer::set_active`] toggles recording so the
    /// run can interleave traced and untraced units and measure the
    /// tracing overhead.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            active: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (a no-op on an untraced run).
    pub fn set_active(&self, on: bool) {
        self.active.store(self.enabled && on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded right now.
    pub fn active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Starts a span.
    pub fn begin(&self, name: &'static str, parent: u64, cause: u64) -> Open {
        let id = if self.active() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            cause,
            name,
            start: Instant::now(),
        }
    }

    /// Ends a span and returns its duration in seconds.
    pub fn end(&self, open: Open) -> f64 {
        let end = Instant::now();
        if open.id != 0 {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            let span = Span {
                id: open.id,
                parent: open.parent,
                cause: open.cause,
                name: open.name,
                start: ns(open.start),
                end: ns(end),
                thread: thread_tag(),
            };
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Records a span whose start and end were taken elsewhere (a
    /// request timed from its scheduled send to its reply). Records on
    /// any traced run: the caller decides which units to trace.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        cause: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            cause,
            name,
            start: ns(start),
            end: ns(end),
            thread: thread_tag(),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        cause: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let open = self.begin(name, parent, cause);
        let out = f(open.id());
        (out, self.end(open))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON object per line, after a header
    /// line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"cause\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
                s.id, s.parent, s.cause, s.name, s.start, s.end, s.thread
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (children may run concurrently on
/// other threads, so their intervals are merged first).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for (a, b) in iv {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

/// Per-root totals: for every root span (no parent), the summed self
/// time of each span name beneath it, in seconds, keyed by root id.
pub fn self_time_by_root(spans: &[Span]) -> HashMap<u64, HashMap<&'static str, f64>> {
    let parent: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let root_of = |mut id: u64| {
        while let Some(&p) = parent.get(&id) {
            if p == 0 {
                break;
            }
            id = p;
        }
        id
    };
    let selfs = self_times(spans);
    let mut out: HashMap<u64, HashMap<&'static str, f64>> = HashMap::new();
    for s in spans {
        *out.entry(root_of(s.id))
            .or_default()
            .entry(s.name)
            .or_default() += selfs[&s.id] as f64 / 1e9;
    }
    out
}
