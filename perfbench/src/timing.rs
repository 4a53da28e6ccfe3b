//! Every wall-clock read of the benchmark lives in this module (the
//! workspace lint allows `Instant` only in `::timing` modules, bench
//! crates and the CLI).
//!
//! Besides plain stopwatches it holds the span ledger of traced runs:
//! spans are kept in memory — name, start, end, parent, and an
//! operation id shared by every span of one request, session or fit —
//! and written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A started wall-clock interval.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sw = Stopwatch::start();
    let r = f();
    (r, sw.ms())
}

/// The end of a measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after_secs(secs: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(secs))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// In-memory span ledger shared by the load threads of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Per-operation scalars recorded at the same boundaries as the
    /// spans (byte counts, hit rates): `(name, op, value)`.
    values: Mutex<Vec<(&'static str, u64, f64)>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            values: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` of operation `op`; `f`
    /// receives the new span's id so nested calls can name it as
    /// their parent. Returns `f`'s result and the span's duration, ms.
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, f64) {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span ledger poisoned");
            spans.push(Span {
                name,
                op,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let r = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span ledger poisoned")[id].end_ns = end_ns;
        (r, end_ns.saturating_sub(start_ns) as f64 / 1e6)
    }

    /// Records an already-measured interval (a derived span such as
    /// "round trip minus server-side parts") ending now, or at its
    /// length if that is later than now. Negative lengths record 0.
    pub fn record(&self, name: &'static str, op: u64, ms: f64) {
        let len = (ms.max(0.0) * 1e6) as u64;
        let end_ns = self.now_ns().max(len);
        self.spans.lock().expect("span ledger poisoned").push(Span {
            name,
            op,
            parent: None,
            start_ns: end_ns - len,
            end_ns,
        });
    }

    /// Records a per-operation scalar.
    pub fn record_value(&self, op: u64, name: &'static str, value: f64) {
        self.values
            .lock()
            .expect("value ledger poisoned")
            .push((name, op, value));
    }

    /// Every recorded value of `name`, in recording order.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.values
            .lock()
            .expect("value ledger poisoned")
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
            .collect()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span ledger poisoned").clone()
    }

    /// The ledger as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let t = Tracer::new();
        let ((), _) = t.span("outer", 7, None, |id| {
            t.span("inner", 7, Some(id), |_| ());
        });
        t.record("derived", 7, 1.5);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!((spans[2].ms() - 1.5).abs() < 1e-6);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"name\":\"inner\",\"op\":7,\"parent\":0"));
    }
}
