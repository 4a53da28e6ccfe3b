//! `tune-rome`: back-to-back `--optimize` sessions on the AMD EPYC
//! 7502 in the paper configuration (NSGA-II 40 × 20, m = 0.35,
//! `-t 10`, `--preheat 240`), each on a fresh `Engine` exactly like
//! the CLI.
//!
//! The traced run replays each session's distinct evaluated genomes,
//! in history order, on a fresh engine, timing one public call per
//! layer: payload codegen, kernel decode, the functional pass, the EDC
//! throttle solve, the event model, and the windowed trace summary.

use crate::hostspeed::Probe;
use crate::stats::{closed_loop_rate, mean, mean_op_ms, median};
use crate::timing::{timed, Deadline, SpanId, Stopwatch, Tracer};
use crate::{derive, Measured, RunCfg};
use fs2_arch::Sku;
use fs2_core::autotune::genes_to_groups;
use fs2_core::payload::build_payload;
use fs2_core::{
    default_unroll, AccessGroup, Engine, MixRegistry, PayloadConfig, RunConfig, TuneConfig,
};
use fs2_metrics::{Summary, TimeSeries};
use fs2_power::solve_throttle;
use fs2_sim::{run_functional, DecodedKernel, InitScheme};
use fs2_tuning::Nsga2Config;
use std::collections::BTreeSet;

/// Load threads: a session is single-threaded, so two run side by
/// side on a two-core host.
const LOAD_THREADS: u64 = 2;
/// Trace sample rate of a run (the runner's default).
const SAMPLE_HZ: f64 = 20.0;

fn tune_config(seed: u64) -> TuneConfig {
    let sku = Sku::amd_epyc_7502();
    TuneConfig {
        nsga2: Nsga2Config {
            individuals: 40,
            generations: 20,
            mutation_prob: 0.35,
            crossover_prob: 0.9,
            seed,
        },
        test_duration_s: 10.0,
        preheat_s: 240.0,
        freq_mhz: 0.0,
        mix: MixRegistry::default_for(sku.uarch),
        unroll: None,
        max_count: 8,
        prescreen: false,
    }
}

/// One session's outcome: selected genome, its power, the distinct
/// evaluated genomes in history order, and the duplicate-cache hits.
struct Session {
    seed: u64,
    best_genes: Vec<u32>,
    best_w: f64,
    distinct: Vec<Vec<u32>>,
    dup_hits: u32,
}

fn session(seed: u64) -> Session {
    let engine = Engine::with_seed(Sku::amd_epyc_7502(), seed);
    let result = engine.session().tune(&tune_config(seed));
    let mut seen = BTreeSet::new();
    let distinct = result
        .nsga2
        .history
        .iter()
        .filter(|ind| seen.insert(ind.genes.clone()))
        .map(|ind| ind.genes.clone())
        .collect();
    Session {
        seed,
        best_genes: result.best.genes.clone(),
        best_w: result.best.objectives[0],
        distinct,
        dup_hits: result.nsga2.cache_hits,
    }
}

/// What every session does before NSGA-II starts: build the engine,
/// derive the unroll factor and run the 240 s `REG:1` preheat.
fn setup_once() {
    let sku = Sku::amd_epyc_7502();
    let cfg = tune_config(0);
    let engine = Engine::with_seed(sku.clone(), 0);
    let reg = vec![AccessGroup::reg(1)];
    let unroll = default_unroll(&sku, cfg.mix, &reg);
    let preheat = PayloadConfig {
        mix: cfg.mix,
        groups: reg,
        unroll,
    };
    let _ = engine.session().run(
        &preheat,
        &RunConfig {
            freq_mhz: f64::from(sku.nominal_mhz()),
            duration_s: cfg.preheat_s,
            start_delta_s: 0.0,
            stop_delta_s: 0.0,
            functional_iters: 200,
            ..RunConfig::default()
        },
    );
}

/// Replays one session layer by layer (see the module docs). Spans
/// are children of `parent` in operation `op`.
fn replay(t: &Tracer, op: u64, parent: SpanId, s: &Session) -> (u64, u64) {
    let sku = Sku::amd_epyc_7502();
    let cfg = tune_config(s.seed);
    let engine = Engine::with_seed(sku.clone(), s.seed);
    let freq = f64::from(sku.nominal_mhz());
    let reg = vec![AccessGroup::reg(1)];
    let unroll = default_unroll(&sku, cfg.mix, &reg);
    let mut series = TimeSeries::new();
    let mut now_s = 0.0;
    let mut code_bytes = 0u64;
    let mut uops = 0u64;
    // The preheat run first, then every distinct candidate, with the
    // tuner's functional iterations and window deltas.
    let runs =
        std::iter::once((reg, cfg.preheat_s, 200u64, 0.0, 0.0)).chain(s.distinct.iter().map(|g| {
            let d = cfg.test_duration_s;
            (
                genes_to_groups(g),
                d,
                64u64,
                (d * 0.2).min(5.0),
                (d * 0.1).min(2.0),
            )
        }));
    for (groups, duration_s, iters, start_delta, stop_delta) in runs {
        let config = PayloadConfig {
            mix: cfg.mix,
            groups,
            unroll,
        };
        let (payload, _) = t.span("core.payload.codegen", op, Some(parent), |_| {
            build_payload(&sku, &config)
        });
        code_bytes += payload.machine_code.len() as u64;
        let (decoded, _) = t.span("sim.exec.decode", op, Some(parent), |_| {
            DecodedKernel::new(&payload.kernel)
        });
        uops += decoded.len() as u64;
        let (outcome, _) = t.span("sim.exec.functional", op, Some(parent), |_| {
            run_functional(&decoded, InitScheme::V2Safe, s.seed, iters)
        });
        let (throttle, _) = t.span("power.edc.throttle", op, Some(parent), |_| {
            solve_throttle(
                engine.sim(),
                engine.power_model(),
                &payload.kernel,
                freq,
                None,
                outcome.stats.trivial_fraction(),
            )
        });
        t.span("sim.system.events", op, Some(parent), |_| {
            engine.sim().run(
                &payload.kernel,
                throttle.applied_mhz,
                duration_s * 1e9,
                None,
            )
        });
        // The session trace grows by one sample per 1/SAMPLE_HZ s.
        let t_start = now_s;
        let w = throttle.power.total_w();
        while now_s < t_start + duration_s {
            series.push(now_s, w);
            now_s += 1.0 / SAMPLE_HZ;
        }
        t.span("metrics.series.window", op, Some(parent), |_| {
            Summary::windowed(&series, t_start, now_s, start_delta, stop_delta)
        });
    }
    (code_bytes, uops)
}

/// One finished session of the load loop.
struct Done {
    k: u64,
    /// The host-speed probe sample taken before the set-up, ms.
    probe_ms: f64,
    /// The set-up timed just before the session, s.
    setup_s: f64,
    ms: f64,
    /// Wall time since the load started at completion, s.
    at_s: f64,
    session: Session,
    /// `(code bytes, micro-ops)` of its replay (traced phase only).
    replayed: Option<(u64, u64)>,
}

/// Runs sessions on [`LOAD_THREADS`] threads until `deadline`: thread
/// `t` runs session numbers `t`, `t + LOAD_THREADS`, … with seed
/// `seed_of(k)`. With a tracer, each session is a `tune.session` span
/// of operation `k`, followed by its layer replay.
///
/// Thread `t` samples `probes[t]`. Each session is preceded by one
/// host-speed probe sample and one
/// timed [`setup_once`], so both are spread over the run like the
/// sessions. A shared host can change speed within seconds, and
/// set-ups timed back to back at process start would all land in one
/// such phase.
fn load(
    probes: &mut [Probe],
    seed_of: &(dyn Fn(u64) -> u64 + Sync),
    deadline: Deadline,
    tracer: Option<&Tracer>,
) -> Vec<Done> {
    let start = Stopwatch::start();
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .zip(probes.iter_mut())
            .map(|(t, probe)| {
                let start = &start;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut k = t;
                    while k < LOAD_THREADS || !deadline.passed() {
                        let probe_ms = probe.sample();
                        let ((), setup_ms) = timed(setup_once);
                        let seed = seed_of(k);
                        let (session, ms, replayed) = match tracer {
                            None => {
                                let (s, ms) = timed(|| session(seed));
                                (s, ms, None)
                            }
                            Some(tr) => {
                                let (s, ms) = tr.span("tune.session", k, None, |_| session(seed));
                                let (r, _) =
                                    tr.span("tune.replay", k, None, |id| replay(tr, k, id, &s));
                                (s, ms, Some(r))
                            }
                        };
                        out.push(Done {
                            k,
                            probe_ms,
                            setup_s: setup_ms / 1e3,
                            ms,
                            at_s: start.secs(),
                            session,
                            replayed,
                        });
                        k += LOAD_THREADS;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tuning thread panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.k);
    done
}

/// Sessions per second over the load. The probe samples and set-ups
/// between sessions are left out of each thread's window; a set-up
/// repeats work the session does, so it must not count twice.
fn session_rate(done: &[Done]) -> f64 {
    let threads: Vec<_> = (0..LOAD_THREADS)
        .map(|t| {
            let mine: Vec<&Done> = done.iter().filter(|d| d.k % LOAD_THREADS == t).collect();
            (
                mine.len(),
                mine.iter().map(|d| d.at_s).fold(0.0, f64::max),
                mine.iter().map(|d| d.setup_s + d.probe_ms / 1e3).sum(),
            )
        })
        .collect();
    closed_loop_rate(&threads)
}

pub fn run(cfg: &RunCfg) -> Measured {
    let mut m = Measured {
        tail_q: 0.6,
        correct: true,
        scaled: true,
        probes: LOAD_THREADS as u32,
        ..Measured::default()
    };
    let seed_of = |k: u64| derive(cfg.seed, 1, k);

    // Untraced sessions: the whole window, or its first half when
    // tracing. The traced half re-runs the same session seeds, so the
    // difference of the halves' medians is the tracing overhead and
    // every traced optimum is checked against its untraced twin.
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    // The probes live for the whole run, so their buffers sit in
    // every reading of peak memory and can be subtracted from it.
    let mut probes: Vec<Probe> = (0..LOAD_THREADS).map(|_| Probe::new()).collect();
    let untraced = load(
        &mut probes,
        &seed_of,
        Deadline::after_secs(untraced_s),
        None,
    );
    m.setup_s = untraced.iter().map(|d| d.setup_s).collect();
    m.op_ms = untraced.iter().map(|d| d.ms).collect();
    m.probe_ms = untraced.iter().map(|d| d.probe_ms).collect();
    m.ops_per_s = session_rate(&untraced);

    let tracer = Tracer::new();
    let traced = if cfg.trace {
        load(
            &mut probes,
            &seed_of,
            Deadline::after_secs(cfg.seconds - untraced_s),
            Some(&tracer),
        )
    } else {
        // Untimed re-run of the first seed for the repeat check.
        vec![Done {
            k: 0,
            probe_ms: 0.0,
            setup_s: 0.0,
            ms: 0.0,
            at_s: 0.0,
            session: session(seed_of(0)),
            replayed: None,
        }]
    };
    let traced_ms: Vec<f64> = traced.iter().map(|d| d.ms).collect();
    let mut results: Vec<&Session> = untraced.iter().map(|d| &d.session).collect();
    results.extend(traced.iter().map(|d| &d.session));

    // Output checks: a repeated seed must find the same optimum (same
    // genome, same power bits), traced or untraced.
    for s in &results {
        let reference = results
            .iter()
            .find(|r| r.seed == s.seed)
            .expect("a session matches its own seed");
        let ok = s.best_w.is_finite()
            && s.best_w > 0.0
            && !s.best_genes.is_empty()
            && s.best_genes == reference.best_genes
            && s.best_w.to_bits() == reference.best_w.to_bits();
        m.tally.record(ok);
        m.correct &= ok;
    }
    let best: Vec<f64> = results.iter().map(|s| s.best_w).collect();
    m.notes.push(format!(
        "tune_best_w (median over {} sessions): {:.4} W",
        best.len(),
        median(&best).unwrap_or(f64::NAN)
    ));

    if cfg.trace {
        let spans = tracer.spans();
        let layer_names = [
            ("core.payload.codegen", "core.payload.codegen_ms"),
            ("sim.exec.decode", "sim.exec.decode_ms"),
            ("sim.exec.functional", "sim.exec.functional_ms"),
            ("power.edc.throttle", "power.edc.throttle_ms"),
            ("sim.system.events", "sim.system.events_ms"),
            ("metrics.series.window", "metrics.series.window_ms"),
        ];
        let mut layers_ms = 0.0;
        for (span, metric) in layer_names {
            let ms = mean_op_ms(&spans, span);
            layers_ms += ms;
            m.layers.push((metric, ms));
        }
        // Session time the six layers above do not account for.
        m.layers.push((
            "tuning.nsga2.residual_ms",
            mean_op_ms(&spans, "tune.session") - layers_ms,
        ));
        let per_session =
            |f: &dyn Fn(&Done) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
        m.layers.extend([
            (
                "tuning.nsga2.distinct_evals",
                per_session(&|d| d.session.distinct.len() as f64),
            ),
            (
                "tuning.nsga2.dup_hits",
                per_session(&|d| f64::from(d.session.dup_hits)),
            ),
            ("tuning.result.best_w", per_session(&|d| d.session.best_w)),
            (
                "core.payload.code_bytes",
                per_session(&|d| d.replayed.map_or(0.0, |(b, _)| b as f64)),
            ),
            (
                "sim.exec.uops",
                per_session(&|d| d.replayed.map_or(0.0, |(_, u)| u as f64)),
            ),
        ]);
        m.layers.push((
            "trace.overhead_ms",
            median(&traced_ms).unwrap_or(0.0) - median(&m.op_ms).unwrap_or(0.0),
        ));
        m.layers.push(("trace.ops", traced_ms.len() as f64));
        m.notes
            .push(crate::report::write_spans(&tracer, "tune-rome", cfg.seed));
    }
    m
}
