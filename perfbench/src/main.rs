//! The repository benchmark: one command per workload, driven by a
//! seed, printing every end-to-end metric (untraced) or every
//! per-layer metric (traced) as one JSON object on its last line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-samples --seed 7 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metric
//! definitions and the layer → metric → workload map.

mod calib;
mod fleet;
mod hostspeed;
mod report;
mod stats;
mod timing;
mod tune;

use report::{Metric, Outcome};
use stats::Tally;

/// End-to-end metrics, printed by every untraced run, in this order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer the
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("proto.request_decode_ms", "ms"),
    ("proto.reply_encode_ms", "ms"),
    ("proto.reply_decode_ms", "ms"),
    ("proto.reply_bytes", "B"),
    ("tcp.round_trip_ms", "ms"),
    ("tcp.transport_ms", "ms"),
    ("broker.round_trip_ms", "ms"),
    ("broker.wait_ms", "ms"),
    ("service.handle_ms", "ms"),
    ("cluster.fleet.plan_ms", "ms"),
    ("cluster.fleet.propose_sum_ms", "ms"),
    ("cluster.fleet.propose_max_ms", "ms"),
    ("cluster.fleet.merge_ms", "ms"),
    ("cluster.fleet.cdf_ms", "ms"),
    ("service.admission.queued", "count"),
    ("service.admission.shed_busy", "count"),
    ("service.admission.peak_queue_depth", "count"),
    ("service.pool.panics_caught", "count"),
    ("core.caches.cross_payload_hit_rate", "frac"),
    ("core.caches.cross_exec_hit_rate", "frac"),
    ("core.payload.codegen_ms", "ms"),
    ("core.payload.code_bytes", "B"),
    ("sim.exec.decode_ms", "ms"),
    ("sim.exec.uops", "count"),
    ("sim.exec.functional_ms", "ms"),
    ("power.edc.throttle_ms", "ms"),
    ("sim.system.events_ms", "ms"),
    ("metrics.series.window_ms", "ms"),
    ("tuning.nsga2.residual_ms", "ms"),
    ("tuning.nsga2.distinct_evals", "count"),
    ("tuning.nsga2.dup_hits", "count"),
    ("tuning.result.best_w", "W"),
    ("calib.trace.parse_ms", "ms"),
    ("calib.trace.targets_ms", "ms"),
    ("cluster.fleet.run_ms", "ms"),
    ("calib.residual_ms", "ms"),
    ("calib.evaluations", "count"),
    ("calib.nsga_cache_hits", "count"),
    ("calib.result.cdf_distance", "frac"),
    ("trace.overhead_ms", "ms"),
    ("trace.ops", "count"),
    ("host.probe_ms", "ms"),
];

pub const WORKLOADS: [&str; 4] = ["tune-rome", "serve-samples", "fleet-budget", "calibrate"];

/// Derives an independent 64-bit seed from the workload seed and a
/// stream coordinate (splitmix64 finalizer over the mixed inputs).
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each repeated set-up, s.
    pub setup_s: Vec<f64>,
    /// Client-observed latency of each completed operation, ms.
    pub op_ms: Vec<f64>,
    /// Completed operations per second of load (see
    /// [`stats::closed_loop_rate`]).
    pub ops_per_s: f64,
    /// Host-speed probe samples taken between operations, ms.
    pub probe_ms: Vec<f64>,
    /// Whether the time metrics are scaled to the nominal host speed
    /// (the compute-bound workloads).
    pub scaled: bool,
    /// The workload's fixed tail percentile.
    pub tail_q: f64,
    /// Peak resident memory read at a fixed point of the work, MB;
    /// `None` reads it when the run ends.
    pub peak_rss_mb: Option<f64>,
    /// Host-speed probes alive during the load; their buffers are
    /// left out of the peak resident memory.
    pub probes: u32,
    pub tally: Tally,
    /// False when any output check failed.
    pub correct: bool,
    /// Per-layer values of a traced run (absent names read 0).
    pub layers: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

/// The time metrics as measured: set-up s, operations per s, p50 ms,
/// tail ms.
fn raw_times(m: &Measured) -> [f64; 4] {
    [
        stats::median(&m.setup_s).unwrap_or(f64::NAN),
        m.ops_per_s,
        stats::median(&m.op_ms).unwrap_or(f64::NAN),
        stats::tail(&m.op_ms, m.tail_q).map_or(f64::NAN, |t| t.value),
    ]
}

/// The factor the time metrics are multiplied by (rates divided by).
fn scale(m: &Measured) -> f64 {
    if m.scaled {
        hostspeed::speed(&m.probe_ms)
    } else {
        1.0
    }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let [setup, rate, p50, tail] = raw_times(m);
    let k = scale(m);
    let values = [
        setup * k,
        m.peak_rss_mb.unwrap_or_else(report::peak_rss_mb)
            - f64::from(m.probes) * hostspeed::RESIDENT_MB,
        rate / k,
        p50 * k,
        tail * k,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn tail_note(m: &Measured) -> String {
    match stats::tail(&m.op_ms, m.tail_q) {
        Some(t) => match t.q {
            Some(q) => format!(
                "latency_tail_ms: p{} of {} operations, {} beyond it",
                q * 100.0,
                t.samples,
                t.beyond
            ),
            None => format!(
                "latency_tail_ms: maximum of {} operations (too few for a percentile \
                 with ten beyond it)",
                t.samples
            ),
        },
        None => "latency_tail_ms: no completed operations".to_string(),
    }
}

fn per_layer(m: &Measured) -> Vec<Metric> {
    let probe = ("host.probe_ms", stats::median(&m.probe_ms).unwrap_or(0.0));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = m
                .layers
                .iter()
                .chain(std::iter::once(&probe))
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, v, unit)
        })
        .collect()
}

fn parse_args(argv: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok((
        workload,
        RunCfg {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let measured = match workload.as_str() {
        "tune-rome" => tune::run(&cfg),
        "serve-samples" => fleet::run_serve_samples(&cfg),
        "fleet-budget" => fleet::run_fleet_budget(&cfg),
        _ => calib::run(&cfg),
    };
    for note in &measured.notes {
        println!("{note}");
    }
    println!("{}", report::host_line());
    println!(
        "workload={workload} seed={} seconds={} trace={}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let reps: Vec<String> = measured.setup_s.iter().map(|s| format!("{s:.6}")).collect();
    println!("setup_s reps: {}", reps.join(" "));
    let metrics = if cfg.trace {
        per_layer(&measured)
    } else {
        println!("{}", tail_note(&measured));
        let [setup, rate, p50, tail] = raw_times(&measured);
        println!(
            "host speed {:.4} from {} probe samples (median {:.4} ms, nominal {} ms), {}; \
             unscaled: setup_s {setup:.6} ops_per_s {rate:.4} latency_p50_ms {p50:.3} \
             latency_tail_ms {tail:.3}",
            hostspeed::speed(&measured.probe_ms),
            measured.probe_ms.len(),
            stats::median(&measured.probe_ms).unwrap_or(f64::NAN),
            hostspeed::NOMINAL_MS,
            if measured.scaled {
                "applied to the time metrics"
            } else {
                "not applied"
            },
        );
        let q = |q| stats::percentile(&measured.op_ms, q).unwrap_or(f64::NAN);
        println!(
            "latency_ms: p50 {:.3} p75 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
            q(0.5),
            q(0.75),
            q(0.9),
            q(0.95),
            q(0.99),
            q(1.0)
        );
        end_to_end(&measured)
    };
    let out = Outcome {
        tally: measured.tally,
        correct: measured.correct && measured.tally.failed == 0 && measured.tally.attempted > 0,
        metrics,
    };
    println!("{}", report::result_line(&out));
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let (w, c) = parse_args(&argv(
            "--workload calibrate --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, "calibrate");
        assert_eq!((c.seed, c.seconds, c.trace), (42, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload tune-rome --trace 2")).is_err());
        assert!(parse_args(&argv("--workload tune-rome --seconds")).is_err());
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        assert_eq!(derive(1, 2, 3), derive(1, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
        assert_ne!(derive(1, 2, 3), derive(1, 3, 3));
        assert_ne!(derive(1, 2, 3), derive(2, 2, 3));
    }

    #[test]
    fn failed_operations_make_the_run_incorrect() {
        let mut m = Measured {
            correct: true,
            op_ms: vec![1.0, 2.0, 3.0],
            ops_per_s: 2.0,
            tail_q: 0.9,
            setup_s: vec![0.2, 0.1, 0.3],
            peak_rss_mb: Some(5.0 + hostspeed::RESIDENT_MB),
            probes: 1,
            ..Measured::default()
        };
        m.tally.record(true);
        m.tally.record(false);
        let e2e = end_to_end(&m);
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(e2e[0], ("setup_s", 0.2, "s"));
        assert_eq!(e2e[2], ("ops_per_s", 2.0, "1/s"));
        assert_eq!(e2e[3], ("latency_p50_ms", 2.0, "ms"));
        assert_eq!(e2e[1], ("peak_rss_mb", 5.0, "MB"));
        assert_eq!(e2e[4], ("latency_tail_ms", 3.0, "ms"));
        assert_eq!(m.tally.failed_frac(), 0.5);
        // A run at half the nominal host speed: scaled times halve and
        // the rate doubles; an unscaled workload keeps its raw values.
        m.probe_ms = vec![2.0 * hostspeed::NOMINAL_MS];
        assert_eq!(end_to_end(&m)[3], ("latency_p50_ms", 2.0, "ms"));
        m.scaled = true;
        let scaled = end_to_end(&m);
        assert_eq!(scaled[0], ("setup_s", 0.1, "s"));
        assert_eq!(scaled[1], ("peak_rss_mb", 5.0, "MB"));
        assert_eq!(scaled[2], ("ops_per_s", 4.0, "1/s"));
        assert_eq!(scaled[3], ("latency_p50_ms", 1.0, "ms"));
        // A traced run reports every per-layer metric; the probe's
        // median is one of them, and a layer the run never called
        // reads 0.
        let layers = per_layer(&m);
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.contains(&("host.probe_ms", 2.0 * hostspeed::NOMINAL_MS, "ms")));
        assert!(layers
            .iter()
            .all(|&(n, v, _)| v == 0.0 || n == "host.probe_ms"));
    }
}
