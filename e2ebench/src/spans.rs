//! Wall-clock spans around the benchmark's own calls into each layer.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Recorder::span`], which always times it (the untimed phases need
//! per-op durations too) and, in a traced run, also keeps a [`Span`]
//! in memory: name, start, end, parent, op id and worker. The spans
//! are written out once, at the end, as Chrome trace-event JSON, which
//! Perfetto and `chrome://tracing` read. Spans inside the program are
//! not recorded here; a later in-program ledger can append its own
//! events to the same file format.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within one recorder.
    pub id: u64,
    /// The span this call was made from, if any.
    pub parent: Option<u64>,
    /// `layer.function`, e.g. `driver.run_trace`.
    pub name: &'static str,
    /// The operation (cell or cut) the call served, if any.
    pub op: Option<u64>,
    /// Benchmark-assigned id of the thread that made the call.
    pub worker: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_WORKER: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static WORKER: Cell<Option<u32>> = const { Cell::new(None) };
}

/// A small id for the calling thread, assigned on first use. Pool
/// threads are fresh per pass, so ids keep growing across passes.
pub fn worker_id() -> u32 {
    WORKER.with(|w| match w.get() {
        Some(id) => id,
        None => {
            // Relaxed: the counter only hands out distinct ids and
            // publishes no other data.
            let id = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
            w.set(Some(id));
            id
        }
    })
}

/// Times calls, and keeps them as spans when tracing is on.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// What [`Recorder::span`] hands back besides the call's result.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Timed {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` as one call named `name`. `f` receives the new span's
    /// id (when tracing) so the calls it makes can name it as parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> (R, Timed) {
        // Relaxed: ids only need to be distinct.
        let id = self
            .enabled
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        if let Some(id) = id {
            let span = Span {
                id,
                parent,
                name,
                op,
                worker: worker_id(),
                start_ns,
                end_ns,
            };
            self.spans
                .lock()
                .expect("span store poisoned: a span push panicked")
                .push(span);
        }
        (r, Timed { start_ns, end_ns })
    }

    /// Every span kept so far, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span store poisoned: a span push panicked")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the time covered by same-thread child
    /// spans, seconds.
    pub self_s: f64,
}

/// Self time per span name. A child on another thread (a pool worker
/// serving a pass) runs alongside its parent rather than inside it, so
/// only same-thread children are subtracted.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let worker_of: BTreeMap<u64, u32> = spans.iter().map(|s| (s.id, s.worker)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if worker_of.get(&p) == Some(&s.worker) {
                *child_ns.entry(p).or_insert(0) += s.dur_ns();
            }
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        e.calls += 1;
        e.total_s += s.dur_ns() as f64 * 1e-9;
        e.self_s += own as f64 * 1e-9;
    }
    out
}

/// Renders spans as Chrome trace-event JSON: one complete (`"X"`)
/// event per span, microsecond timestamps, the worker as thread id,
/// and the span/parent/op ids under `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}",
            s.name,
            s.layer(),
            s.worker,
            s.start_ns as f64 / 1000.0,
            s.dur_ns() as f64 / 1000.0,
            s.id
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(op) = s.op {
            let _ = write!(out, ",\"op\":{op}");
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, worker: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_some() {
                "child.x"
            } else {
                "root.x"
            },
            op: None,
            worker,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = [
            span(1, None, 0, 0, 100),
            span(2, Some(1), 0, 10, 40),
            span(3, Some(1), 1, 0, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root.x"].calls, 1);
        assert!((t["root.x"].self_s - 70e-9).abs() < 1e-15);
        assert_eq!(t["child.x"].calls, 2);
        assert!((t["child.x"].self_s - 120e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let r = Recorder::new(false);
        let (v, t) = r.span("a.b", None, None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.end_ns >= t.start_ns);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_trace_links_children_to_parents() {
        let r = Recorder::new(true);
        r.span("pass.run", None, None, |p| {
            r.span("driver.run_trace", p, Some(3), |_| ());
        });
        let spans = r.spans();
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":[{") && json.ends_with("}\n"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        let parent = spans
            .iter()
            .find(|s| s.name == "pass.run")
            .expect("root span");
        assert!(json.contains(&format!("\"parent\":{},\"op\":3", parent.id)));
    }
}
