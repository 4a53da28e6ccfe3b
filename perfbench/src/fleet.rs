//! The two fleet-service workloads.
//!
//! * `serve-samples`: two persistent TCP clients against an in-process
//!   `serve()` server; i.i.d. 64-node × 500-sample requests that want
//!   the raw samples.
//! * `fleet-budget`: two callers on the in-process `Broker` (the CLI
//!   `--fleet` path); the Fig. 1 fleet in episode mode under a 90 kW
//!   shed-to-floor budget, wanting only the CDF.
//!
//! In both, even-numbered requests of a caller reuse one repeat-tenant
//! seed and odd-numbered ones use fresh derived seeds. The traced run
//! additionally replays each request on a shadow service
//! (decode → `handle` → encode) and on `FleetSim` directly (plan →
//! per-shard propose → merge → CDF), so the client-observed time can
//! be split across transport, protocol, service and fleet layers.

use crate::hostspeed::Probe;
use crate::stats::{closed_loop_rate, mean, mean_op_ms, median, Tally};
use crate::timing::{Deadline, SpanId, Stopwatch, Tracer};
use crate::{derive, report, Measured, RunCfg};
use fs2_cluster::{shard_ranges, BudgetPolicy, FleetSim, PowerCdf, TemporalMode};
use fs2_core::{EngineCaches, EngineRegistry};
use fs2_service::{
    serve, Broker, CdfWire, Client, FleetReply, FleetRequest, FleetService, Server, ServiceConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

/// Load threads (one client connection or broker caller each).
const CALLERS: usize = 2;
/// Completed requests at which peak memory is read. The service keeps
/// an engine registry for every tenant seed it has served, so memory
/// grows with the fresh tenants a run reaches; read at a fixed count
/// (half of them fresh), it does not depend on how fast the run went.
const RSS_AFTER: u64 = 160;
/// Timed set-ups per run; setup_s is their median.
const SETUPS: usize = 15;
/// Requests per caller between two host-speed probe pauses.
const PROBE_EVERY: u64 = 8;

fn serve_request(seed: u64) -> FleetRequest {
    FleetRequest {
        nodes: 64,
        samples_per_node: 500,
        seed: Some(seed),
        want_samples: true,
        want_cdf: false,
        ..FleetRequest::fig1()
    }
}

fn budget_request(seed: u64) -> FleetRequest {
    FleetRequest {
        seed: Some(seed),
        temporal: TemporalMode::Episodes,
        budget_w: Some(90_000.0),
        budget_policy: BudgetPolicy::ShedToFloor,
        want_samples: false,
        want_cdf: true,
        ..FleetRequest::fig1()
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 0,
        default_shards: 0,
        ..ServiceConfig::default()
    }
}

/// FNV-1a over 64-bit words: a bitwise fingerprint of an output.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

fn samples_digest(samples: &[f64]) -> u64 {
    fnv(std::iter::once(samples.len() as u64).chain(samples.iter().map(|v| v.to_bits())))
}

fn cdf_digest(bins: &[(f64, f64)], min_w: f64, max_w: f64, samples: usize) -> u64 {
    fnv([min_w.to_bits(), max_w.to_bits(), samples as u64]
        .into_iter()
        .chain(bins.iter().flat_map(|&(w, f)| [w.to_bits(), f.to_bits()])))
}

/// The output a reply is checked on: the sample bits or the CDF.
fn reply_digest(reply: &FleetReply, want_cdf: bool) -> Option<u64> {
    if !reply.ok {
        return None;
    }
    if want_cdf {
        let CdfWire {
            bins,
            min_w,
            max_w,
            samples,
        } = reply.cdf.as_ref()?;
        Some(cdf_digest(bins, *min_w, *max_w, *samples))
    } else {
        Some(samples_digest(&reply.samples))
    }
}

/// The same output from a one-shot in-process `FleetSim` run.
fn oracle_digest(req: &FleetRequest) -> u64 {
    let run = FleetSim::new(req.to_config()).run();
    if req.want_cdf {
        let c = PowerCdf::from_samples(&run.samples, 0.1);
        cdf_digest(&c.bins, c.min_w, c.max_w, c.samples)
    } else {
        samples_digest(&run.samples)
    }
}

/// One caller's transport handle.
enum Caller {
    Tcp(Client),
    Broker(Arc<Broker>),
}

impl Caller {
    fn call(&mut self, line: &str) -> Option<String> {
        match self {
            Caller::Tcp(c) => c.request(line).ok(),
            Caller::Broker(b) => b.call(line),
        }
    }

    fn round_trip_span(&self) -> &'static str {
        match self {
            Caller::Tcp(_) => "tcp.round_trip",
            Caller::Broker(_) => "broker.round_trip",
        }
    }

    fn wait_span(&self) -> &'static str {
        match self {
            Caller::Tcp(_) => "tcp.transport",
            Caller::Broker(_) => "broker.wait",
        }
    }
}

/// One served system: the service, its callers, and the TCP server
/// when the callers are clients of one.
struct Stack {
    service: Arc<FleetService>,
    server: Option<Server>,
    callers: Vec<Caller>,
}

impl Stack {
    fn start(tcp: bool) -> Stack {
        let service = Arc::new(FleetService::new(service_config()));
        let (server, callers) = if tcp {
            let server = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind localhost");
            let addr = server.local_addr().to_string();
            let callers = (0..CALLERS)
                .map(|_| Caller::Tcp(Client::connect(&addr).expect("connect to the local server")))
                .collect();
            (Some(server), callers)
        } else {
            let broker = Arc::new(Broker::new(Arc::clone(&service), 0));
            let callers = (0..CALLERS)
                .map(|_| Caller::Broker(Arc::clone(&broker)))
                .collect();
            (None, callers)
        };
        Stack {
            service,
            server,
            callers,
        }
    }

    fn stop(self) {
        drop(self.callers);
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// One completed request, as the checks need it.
struct Record {
    seed: u64,
    fresh: bool,
    digest: Option<u64>,
}

/// Shadow stack of the traced run: a second service for the
/// decode → handle → encode replay and one cache tier for the direct
/// `FleetSim` layer replay.
struct Shadow {
    service: FleetService,
    caches: Arc<EngineCaches>,
    shards: usize,
}

impl Shadow {
    /// Replays one request line; returns the server-side milliseconds
    /// (decode + handle + encode).
    fn replay(&self, t: &Tracer, op: u64, line: &str) -> f64 {
        let (out, _) = t.span("replay", op, None, |root| {
            let (req, dec_ms) = t.span("proto.request_decode", op, Some(root), |_| {
                FleetRequest::from_line(line).expect("the benchmark's own request decodes")
            });
            let (reply, handle_ms) = t.span("service.handle", op, Some(root), |_| {
                self.service.handle(&req)
            });
            let (out, enc_ms) = t.span("proto.reply_encode", op, Some(root), |_| reply.to_line());
            t.record_value(op, "proto.reply_bytes", out.len() as f64);
            self.fleet_layers(t, op, root, &req);
            dec_ms + handle_ms + enc_ms
        });
        out
    }

    /// The fleet layers of `handle`, called one by one.
    fn fleet_layers(&self, t: &Tracer, op: u64, parent: SpanId, req: &FleetRequest) {
        let cfg = req.to_config();
        let registry = EngineRegistry::with_caches(cfg.seed, Arc::clone(&self.caches));
        let sim = FleetSim::new(cfg);
        let (plan, _) = t.span("cluster.fleet.plan", op, Some(parent), |_| {
            sim.plan(&registry)
        });
        let ranges = shard_ranges(plan.total_nodes(), self.shards);
        let mut max_ms = 0.0f64;
        let parts: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let (shard, ms) = t.span("cluster.fleet.propose", op, Some(parent), |_| {
                    sim.run_shard(&plan, lo, hi)
                });
                max_ms = max_ms.max(ms);
                shard
            })
            .collect();
        t.record_value(op, "cluster.fleet.propose_max_ms", max_ms);
        let (run, _) = t.span("cluster.fleet.merge", op, Some(parent), |_| {
            sim.try_merge_shards(&registry, &plan, parts)
                .expect("shard ranges tile the plan")
        });
        if req.want_cdf {
            t.span("cluster.fleet.cdf", op, Some(parent), |_| {
                PowerCdf::from_samples(&run.samples, 0.1)
            });
        }
    }
}

/// What one load thread measured.
#[derive(Default)]
struct CallerRun {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    records: Vec<Record>,
    /// Completion of its last untraced request, s into the load.
    last_done_s: f64,
    /// Host-speed probe samples it took, ms.
    probe_ms: Vec<f64>,
    /// Time it spent in probe pauses, s.
    paused_s: f64,
}

/// One traced request: the client-observed call in a `request` span
/// (round trip + reply decode), then the shadow replay, and the
/// transport/queue wait derived as round trip minus server-side parts.
fn traced_call(
    t: &Tracer,
    shadow: &Shadow,
    caller: &mut Caller,
    op: u64,
    line: &str,
) -> (Option<FleetReply>, f64) {
    let ((reply, rt_ms), ms) = t.span("request", op, None, |root| {
        let (l, rt_ms) = t.span(caller.round_trip_span(), op, Some(root), |_| {
            caller.call(line)
        });
        let (r, _) = t.span("proto.reply_decode", op, Some(root), |_| {
            l.and_then(|l| FleetReply::from_line(&l).ok())
        });
        (r, rt_ms)
    });
    let server_ms = shadow.replay(t, op, line);
    t.record(caller.wait_span(), op, rt_ms - server_ms);
    if let Some(r) = &reply {
        let payload_rate = r.registry.cross_payload_hit_rate();
        let exec_rate = r.registry.cross_exec_hit_rate();
        t.record_value(op, "core.caches.cross_payload_hit_rate", payload_rate);
        t.record_value(op, "core.caches.cross_exec_hit_rate", exec_rate);
    }
    (reply, ms)
}

/// `k` indices spread evenly over `0..n`, the first and the last
/// included; every index when `n <= k`.
fn spread_picks(n: usize, k: usize) -> Vec<usize> {
    if n <= k {
        return (0..n).collect();
    }
    if k < 2 {
        return vec![n - 1; k];
    }
    (0..k).map(|j| j * (n - 1) / (k - 1)).collect()
}

struct Spec {
    name: &'static str,
    tcp: bool,
    tail_q: f64,
    request: fn(u64) -> FleetRequest,
    /// Fresh-seed replies checked against their own one-shot run, per
    /// caller, spread over the run (every repeat-tenant reply is
    /// checked).
    fresh_checks: usize,
    /// Whether the time metrics are scaled to the nominal host speed:
    /// yes where a request's time is computation (fleet-budget), no
    /// where most of it is waiting in the transport (serve-samples),
    /// which the probe does not track.
    scaled: bool,
}

pub fn run_serve_samples(cfg: &RunCfg) -> Measured {
    run(
        cfg,
        &Spec {
            name: "serve-samples",
            tcp: true,
            // The latency has a second mode about 40 ms above the
            // first, whose share moves between runs from under 1 % to
            // over 10 %, so p90 sits on its knee; p75 stays below it.
            tail_q: 0.75,
            request: serve_request,
            fresh_checks: usize::MAX,
            scaled: false,
        },
    )
}

pub fn run_fleet_budget(cfg: &RunCfg) -> Measured {
    run(
        cfg,
        &Spec {
            name: "fleet-budget",
            tcp: false,
            tail_q: 0.9,
            request: budget_request,
            fresh_checks: 4,
            scaled: true,
        },
    )
}

fn run(cfg: &RunCfg, spec: &Spec) -> Measured {
    let mut m = Measured {
        tail_q: spec.tail_q,
        correct: true,
        scaled: spec.scaled,
        probes: 1,
        ..Measured::default()
    };
    let repeat_seed = derive(cfg.seed, 2, 0);
    let warm_line = (spec.request)(repeat_seed).to_line();

    // Set-up: start the service and its transport, connect, and warm
    // the engine caches with one repeat-tenant request.
    let set_up = |m: &mut Measured| {
        let sw = Stopwatch::start();
        let mut s = Stack::start(spec.tcp);
        let warm = s.callers[0].call(&warm_line);
        m.setup_s.push(sw.secs());
        m.correct &= warm
            .and_then(|l| FleetReply::from_line(&l).ok())
            .is_some_and(|r| r.ok);
        s
    };
    let mut stack = set_up(&mut m);

    let tracer = Tracer::new();
    let shadow = cfg.trace.then(|| {
        let shadow = Shadow {
            service: FleetService::new(service_config()),
            caches: Arc::new(EngineCaches::new()),
            shards: stack.service.pool_stats().live_workers.max(1),
        };
        let _ = shadow.replay(&Tracer::new(), 0, &warm_line);
        shadow
    });
    let callers = std::mem::take(&mut stack.callers);

    // Traced runs measure the first half of the window untraced, so
    // the tracing overhead is the difference of the halves' medians.
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let want_cdf = (spec.request)(0).want_cdf;
    let load = Stopwatch::start();
    let untraced_end = Deadline::after_secs(untraced_s);
    let end = Deadline::after_secs(cfg.seconds);
    let completed = AtomicU64::new(0);
    let rss_mb = OnceLock::new();
    let pause = Barrier::new(CALLERS);
    let stop = AtomicBool::new(false);
    let threads: Vec<CallerRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(t, mut caller)| {
                let (tracer, shadow, load) = (&tracer, shadow.as_ref(), &load);
                let (completed, rss_mb, pause, stop) = (&completed, &rss_mb, &pause, &stop);
                scope.spawn(move || {
                    let mut run = CallerRun::default();
                    let mut probe = (t == 0).then(Probe::new);
                    let mut i = 0u64;
                    loop {
                        let fresh = i % 2 == 1;
                        let seed = if fresh {
                            derive(cfg.seed, 10 + t as u64, i)
                        } else {
                            repeat_seed
                        };
                        let line = (spec.request)(seed).to_line();
                        let reply = match shadow.filter(|_| untraced_end.passed()) {
                            None => {
                                let sw = Stopwatch::start();
                                let r = caller
                                    .call(&line)
                                    .and_then(|l| FleetReply::from_line(&l).ok());
                                run.untraced_ms.push(sw.ms());
                                run.last_done_s = load.secs();
                                r
                            }
                            Some(shadow) => {
                                let op = (t as u64) << 32 | i;
                                let r = traced_call(tracer, shadow, &mut caller, op, &line);
                                run.traced_ms.push(r.1);
                                r.0
                            }
                        };
                        if completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER {
                            let _ = rss_mb.set(report::peak_rss_mb());
                        }
                        run.records.push(Record {
                            seed,
                            fresh,
                            digest: reply.as_ref().and_then(|r| reply_digest(r, want_cdf)),
                        });
                        i += 1;
                        if i % PROBE_EVERY == 0 {
                            // Every caller pauses between two requests
                            // while caller 0 samples the probe on a
                            // quiet host and decides for all of them
                            // whether the run has ended.
                            let sw = Stopwatch::start();
                            pause.wait();
                            if let Some(p) = probe.as_mut() {
                                run.probe_ms.push(p.sample());
                                stop.store(end.passed(), Ordering::Relaxed);
                            }
                            pause.wait();
                            run.paused_s += sw.secs();
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    // Pauses are left out of each caller's window. (A traced run
    // reports no rate, so its pauses after the untraced half do not
    // matter.)
    let windows: Vec<_> = threads
        .iter()
        .map(|r| (r.untraced_ms.len(), r.last_done_s, r.paused_s))
        .collect();
    m.ops_per_s = closed_loop_rate(&windows);
    m.probe_ms = threads.iter().flat_map(|r| r.probe_ms.clone()).collect();
    m.notes.push(match rss_mb.get() {
        Some(_) => format!("peak_rss_mb: read after {RSS_AFTER} completed requests"),
        None => format!(
            "peak_rss_mb: fewer than {RSS_AFTER} requests completed; read at the end of the load"
        ),
    });
    m.peak_rss_mb = Some(rss_mb.get().copied().unwrap_or_else(report::peak_rss_mb));
    let traced_ms: Vec<f64> = threads.iter().flat_map(|r| r.traced_ms.clone()).collect();
    m.op_ms = threads.iter().flat_map(|r| r.untraced_ms.clone()).collect();

    // Output checks, outside the timed loop.
    let repeat_oracle = oracle_digest(&(spec.request)(repeat_seed));
    let mut tally = Tally::default();
    for CallerRun { records, .. } in &threads {
        let fresh = records.iter().filter(|r| r.fresh).count();
        let picks = spread_picks(fresh, spec.fresh_checks);
        let mut nth_fresh = 0;
        for r in records {
            let check_fresh = r.fresh && picks.contains(&nth_fresh);
            nth_fresh += usize::from(r.fresh);
            let ok = match r.digest {
                None => false,
                Some(d) if !r.fresh => d == repeat_oracle,
                Some(d) => !check_fresh || d == oracle_digest(&(spec.request)(r.seed)),
            };
            tally.record(ok);
        }
    }
    m.correct &= tally.failed == 0;
    m.tally = tally;
    m.notes.push(format!(
        "{}: {} requests, {} failed or refused or wrong",
        spec.name, m.tally.attempted, m.tally.failed
    ));

    if cfg.trace {
        let spans = tracer.spans();
        for (span, metric) in [
            ("proto.request_decode", "proto.request_decode_ms"),
            ("proto.reply_encode", "proto.reply_encode_ms"),
            ("proto.reply_decode", "proto.reply_decode_ms"),
            ("service.handle", "service.handle_ms"),
            ("cluster.fleet.plan", "cluster.fleet.plan_ms"),
            ("cluster.fleet.propose", "cluster.fleet.propose_sum_ms"),
            ("cluster.fleet.merge", "cluster.fleet.merge_ms"),
            ("cluster.fleet.cdf", "cluster.fleet.cdf_ms"),
            ("tcp.round_trip", "tcp.round_trip_ms"),
            ("tcp.transport", "tcp.transport_ms"),
            ("broker.round_trip", "broker.round_trip_ms"),
            ("broker.wait", "broker.wait_ms"),
        ] {
            m.layers.push((metric, mean_op_ms(&spans, span)));
        }
        for metric in [
            "proto.reply_bytes",
            "cluster.fleet.propose_max_ms",
            "core.caches.cross_payload_hit_rate",
            "core.caches.cross_exec_hit_rate",
        ] {
            m.layers.push((metric, mean(&tracer.values(metric))));
        }
        let adm = stack.service.admission_stats();
        let pool = stack.service.pool_stats();
        m.layers
            .push(("service.admission.queued", adm.queued as f64));
        m.layers
            .push(("service.admission.shed_busy", adm.shed_busy as f64));
        m.layers.push((
            "service.admission.peak_queue_depth",
            adm.peak_queue_depth as f64,
        ));
        m.layers
            .push(("service.pool.panics_caught", pool.panics_caught as f64));
        m.layers.push((
            "trace.overhead_ms",
            median(&traced_ms).unwrap_or(0.0) - median(&m.op_ms).unwrap_or(0.0),
        ));
        m.layers.push(("trace.ops", traced_ms.len() as f64));
        m.notes
            .push(report::write_spans(&tracer, spec.name, cfg.seed));
    }
    stack.stop();

    // The other set-ups, each on a fresh stack, run after the load:
    // memory a stopped stack leaves with the allocator would otherwise
    // add a varying amount to peak_rss_mb.
    for _ in 1..SETUPS {
        set_up(&mut m).stop();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::spread_picks;

    #[test]
    fn checks_spread_over_the_run_and_include_the_last() {
        assert_eq!(spread_picks(3, 4), vec![0, 1, 2]);
        assert_eq!(spread_picks(250, 4), vec![0, 83, 166, 249]);
        assert_eq!(spread_picks(5, 1), vec![4]);
        assert!(spread_picks(5, 0).is_empty());
        assert!(spread_picks(0, 4).is_empty());
    }
}
