//! `calibrate`: repeated `fs2_calib::calibrate` fits (default
//! `CalibConfig`) of one labelled 96-node × 1200-tick episode trace.
//!
//! Set-up emits the trace from the seed as CSV text; every fit parses
//! that text again, so a fit is the whole `--calibrate TRACE.csv`
//! path minus file I/O. The traced run times the trace parse and
//! target extraction, and estimates the fleet-run share of a fit from
//! one candidate-sized and one clone-sized `FleetSim::run_with`.

use crate::hostspeed::Probe;
use crate::stats::{closed_loop_rate, mean, mean_op_ms, median};
use crate::timing::{Deadline, Stopwatch, Tracer};
use crate::{derive, Measured, RunCfg};
use fs2_calib::{calibrate, CalibConfig, CalibrationResult, FleetProfile, Trace};
use fs2_cluster::{FleetConfig, FleetSim, TemporalMode};
use fs2_core::{EngineCaches, EngineRegistry};
use std::sync::Arc;

const TRACE_NODES: u32 = 96;
/// Untraced fits between two timed set-ups.
const RESETUP_EVERY: usize = 5;
const TRACE_TICKS: u32 = 1200;

fn trace_config(seed: u64) -> FleetConfig {
    FleetConfig {
        samples_per_node: TRACE_TICKS,
        seed,
        temporal: TemporalMode::Episodes,
        ..FleetConfig::taurus_haswell_scaled(TRACE_NODES)
    }
}

/// The labelled trace of the workload seed, as CSV text.
fn emit_trace(seed: u64) -> String {
    let cfg = trace_config(seed);
    let run = FleetSim::new(cfg.clone()).run();
    Trace::from_fleet(&cfg, &run.samples).to_csv()
}

fn fit(csv: &str, cfg: &CalibConfig) -> Option<CalibrationResult> {
    let trace = Trace::from_csv(csv).ok()?;
    calibrate(&trace, cfg).ok()
}

/// Milliseconds of one `FleetSim::run_with` of `profile` on a fleet of
/// `nodes` × `ticks`, measured on a warm registry (the fit's candidate
/// fleets share one cache tier, so all but the first run warm).
fn fleet_run_ms(t: &Tracer, op: u64, profile: &FleetProfile, nodes: u32, ticks: u32) -> f64 {
    let seed = derive(op, 4, u64::from(nodes));
    let mut cfg = FleetConfig {
        samples_per_node: ticks,
        seed,
        ..FleetConfig::taurus_haswell_scaled(nodes)
    };
    profile.apply(&mut cfg);
    let registry = EngineRegistry::with_caches(seed, Arc::new(EngineCaches::new()));
    let sim = FleetSim::new(cfg);
    let _ = sim.run_with(&registry);
    t.span("cluster.fleet.run", op, None, |_| sim.run_with(&registry))
        .1
}

pub fn run(cfg: &RunCfg) -> Measured {
    let mut m = Measured {
        tail_q: 0.6,
        correct: true,
        scaled: true,
        probes: 1,
        ..Measured::default()
    };
    let trace_seed = derive(cfg.seed, 3, 0);
    let sw = Stopwatch::start();
    let csv = emit_trace(trace_seed);
    m.setup_s.push(sw.secs());
    let calib = CalibConfig::default();

    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut profiles: Vec<Option<String>> = Vec::new();
    let mut distances = Vec::new();
    let mut same_trace = true;
    // Set-ups and probe samples between fits, left out of the window.
    let mut between_s = 0.0;
    let mut probe = Probe::new();
    let load = Stopwatch::start();
    let deadline = Deadline::after_secs(untraced_s);
    while profiles.is_empty() || !deadline.passed() {
        // Set-up is timed again every few fits, outside the load
        // window, so its samples span the run: a shared host can
        // change speed within seconds. Each re-emitted trace must
        // match the first byte for byte.
        if profiles.len() % RESETUP_EVERY == RESETUP_EVERY - 1 {
            let sw = Stopwatch::start();
            same_trace &= emit_trace(trace_seed) == csv;
            m.setup_s.push(sw.secs());
            between_s += sw.secs();
        }
        let probe_ms = probe.sample();
        m.probe_ms.push(probe_ms);
        between_s += probe_ms / 1e3;
        let sw = Stopwatch::start();
        let result = fit(&csv, &calib);
        m.op_ms.push(sw.ms());
        if let Some(r) = &result {
            distances.push(r.report.cdf_distance);
        }
        profiles.push(result.map(|r| r.profile.to_text()));
    }
    m.ops_per_s = closed_loop_rate(&[(m.op_ms.len(), load.secs(), between_s)]);
    m.correct &= same_trace;

    let tracer = Tracer::new();
    let mut traced_ms = Vec::new();
    if cfg.trace {
        let deadline = Deadline::after_secs(cfg.seconds - untraced_s);
        let mut op = 0u64;
        while op == 0 || !deadline.passed() {
            let (result, ms) = tracer.span("calib.fit", op, None, |_| fit(&csv, &calib));
            traced_ms.push(ms);
            let (trace, parse_ms) =
                tracer.span("calib.trace.parse", op, None, |_| Trace::from_csv(&csv));
            if let (Some(r), Ok(trace)) = (&result, trace) {
                let (targets, targets_ms) =
                    tracer.span("calib.trace.targets", op, None, |_| trace.targets());
                let clone_ticks = (targets.n_ticks / targets.n_nodes.max(1)) as u32;
                let candidate =
                    fleet_run_ms(&tracer, op, &r.profile, calib.eval_nodes, calib.eval_ticks);
                let clone = fleet_run_ms(
                    &tracer,
                    op,
                    &r.profile,
                    targets.n_nodes as u32,
                    clone_ticks.max(2),
                );
                let fleet_ms = f64::from(r.evaluations) * candidate + clone;
                tracer.record_value(op, "cluster.fleet.run_ms", fleet_ms);
                tracer.record_value(
                    op,
                    "calib.residual_ms",
                    ms - parse_ms - targets_ms - fleet_ms,
                );
                tracer.record_value(op, "calib.evaluations", f64::from(r.evaluations));
                tracer.record_value(op, "calib.nsga_cache_hits", f64::from(r.nsga_cache_hits));
                tracer.record_value(op, "calib.result.cdf_distance", r.report.cdf_distance);
            }
            profiles.push(result.map(|r| r.profile.to_text()));
            op += 1;
        }
    }

    // Output check: every fit of the one trace and seed yields a
    // byte-identical profile.
    let reference = profiles.first().cloned().flatten();
    for p in &profiles {
        let ok = p.is_some() && *p == reference;
        m.tally.record(ok);
        m.correct &= ok;
    }
    m.notes.push(format!(
        "calib_cdf_distance (median over {} fits): {}",
        distances.len(),
        median(&distances).unwrap_or(f64::NAN)
    ));

    if cfg.trace {
        let spans = tracer.spans();
        m.layers.extend([
            (
                "calib.trace.parse_ms",
                mean_op_ms(&spans, "calib.trace.parse"),
            ),
            (
                "calib.trace.targets_ms",
                mean_op_ms(&spans, "calib.trace.targets"),
            ),
            (
                "cluster.fleet.run_ms",
                mean(&tracer.values("cluster.fleet.run_ms")),
            ),
            (
                "calib.residual_ms",
                mean(&tracer.values("calib.residual_ms")),
            ),
            (
                "calib.evaluations",
                mean(&tracer.values("calib.evaluations")),
            ),
            (
                "calib.nsga_cache_hits",
                mean(&tracer.values("calib.nsga_cache_hits")),
            ),
            (
                "calib.result.cdf_distance",
                mean(&tracer.values("calib.result.cdf_distance")),
            ),
            (
                "trace.overhead_ms",
                median(&traced_ms).unwrap_or(0.0) - median(&m.op_ms).unwrap_or(0.0),
            ),
            ("trace.ops", traced_ms.len() as f64),
        ]);
        m.notes
            .push(crate::report::write_spans(&tracer, "calibrate", cfg.seed));
    }
    m
}
