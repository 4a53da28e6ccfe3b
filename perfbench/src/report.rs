//! The run's result line, host record and peak resident memory.

use crate::stats::Tally;
use std::fmt::Write as _;

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// False when any output check failed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct with the x86-64 Linux
    // `struct rusage` layout (two timevals then fourteen longs), which
    // is all getrusage(2) writes through the pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss_kb as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// The host the numbers come from: cores, vector extensions, profile.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512f) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512f) = (false, false);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("host: nproc={nproc} avx2={avx2} avx512f={avx512f} profile={profile}")
}

/// Writes a traced run's span ledger to
/// `perfbench/out/spans-<workload>-<seed>.jsonl` and notes the path.
pub fn write_spans(tracer: &crate::timing::Tracer, workload: &str, seed: u64) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => format!("spans: {}", path.display()),
        Err(e) => format!("spans: not written ({e})"),
    }
}

/// A finite metric value as JSON (non-finite values become `null`,
/// which the reader treats as a missing measurement).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct, out.tally.attempted, out.tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut out = Outcome {
            correct: true,
            metrics: vec![("setup_s", 0.25, "s"), ("latency_p50_ms", f64::NAN, "ms")],
            ..Outcome::default()
        };
        out.tally.record(true);
        out.tally.record(false);
        assert_eq!(
            result_line(&out),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"latency_p50_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
