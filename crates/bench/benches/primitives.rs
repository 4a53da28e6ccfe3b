//! Manual micro-benchmarks for the moving parts: the costs that bound
//! how fast the self-tuning loop can evaluate candidates.
//!
//! Criterion is not available offline, so this is a plain
//! `harness = false` timing loop: each case is warmed up, then run for a
//! fixed number of iterations with the median-of-5 wall time reported.
//! Run with `cargo bench -p fs2-bench --bench primitives`.

use fs2_arch::Sku;
use fs2_bench::timing::median_ns;
use fs2_core::groups::parse_groups;
use fs2_core::mix::MixRegistry;
use fs2_core::payload::{build_payload, PayloadConfig};
use fs2_power::{solve_throttle, NodePowerModel};
use fs2_sim::core::{steady_state, ActiveSet};
use fs2_sim::{DecodedKernel, Executor, InitScheme, SystemSim};
use fs2_tuning::{Nsga2, Nsga2Config};
use std::hint::black_box;

/// Times `f` over `iters` calls, median of 5 repetitions, in ns/call.
pub fn time_ns(iters: u32, f: impl FnMut()) -> f64 {
    median_ns(iters.div_ceil(4), iters, 5, f)
}

fn report(name: &str, ns: f64) {
    println!("{name:<34} {:>12.0} ns/iter", ns);
}

fn bench_encoder() {
    let sku = Sku::amd_epyc_7502();
    let mix = MixRegistry::default_for(sku.uarch);
    let groups = parse_groups("REG:4,L1_L:2,L2_L:1").unwrap();
    let payload = build_payload(
        &sku,
        &PayloadConfig {
            mix,
            groups,
            unroll: 1400,
        },
    );
    let insts: Vec<_> = payload.kernel.insts_iter().copied().collect();

    report(
        "encode_5k_inst_payload",
        time_ns(50, || {
            black_box(fs2_isa::encoder::encode_sequence(black_box(&insts)));
        }),
    );
    report(
        "decode_24kb_code_buffer",
        time_ns(50, || {
            black_box(fs2_isa::decode_all(black_box(&payload.machine_code)).unwrap());
        }),
    );
}

fn bench_payload_build() {
    let sku = Sku::amd_epyc_7502();
    let mix = MixRegistry::default_for(sku.uarch);
    let groups = parse_groups("REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1").unwrap();
    report(
        "build_payload_u1400",
        time_ns(20, || {
            black_box(build_payload(
                black_box(&sku),
                &PayloadConfig {
                    mix,
                    groups: groups.clone(),
                    unroll: 1400,
                },
            ));
        }),
    );
}

fn bench_simulation() {
    let sku = Sku::amd_epyc_7502();
    let mix = MixRegistry::default_for(sku.uarch);
    let groups = parse_groups("REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1").unwrap();
    let payload = build_payload(
        &sku,
        &PayloadConfig {
            mix,
            groups,
            unroll: 1400,
        },
    );
    let sim = SystemSim::new(sku.clone());
    let model = NodePowerModel::new(sku.clone());

    report(
        "steady_state_eval",
        time_ns(200, || {
            black_box(steady_state(
                black_box(&sku),
                black_box(&payload.kernel),
                2500.0,
                ActiveSet::full(&sku),
            ));
        }),
    );
    // The ablation pair of DESIGN.md §6: a plain evaluation vs. the full
    // EDC/PPT-aware frequency solve.
    report(
        "node_eval_no_throttle_solve",
        time_ns(200, || {
            black_box(sim.evaluate(black_box(&payload.kernel), 2500.0, None));
        }),
    );
    report(
        "node_eval_with_throttle_solve",
        time_ns(100, || {
            black_box(solve_throttle(
                &sim,
                &model,
                black_box(&payload.kernel),
                2500.0,
                None,
                0.0,
            ));
        }),
    );
}

fn bench_executor() {
    let sku = Sku::amd_epyc_7502();
    let mix = MixRegistry::default_for(sku.uarch);
    let groups = parse_groups("REG:2,L1_LS:1").unwrap();
    let payload = build_payload(
        &sku,
        &PayloadConfig {
            mix,
            groups,
            unroll: 63,
        },
    );
    report(
        "functional_exec_100_iters",
        time_ns(50, || {
            let mut ex = Executor::new(InitScheme::V2Safe, 42);
            ex.run_decoded(&DecodedKernel::new(black_box(&payload.kernel)), 100);
            black_box(ex.state_hash());
        }),
    );
}

fn bench_nsga2() {
    report(
        "nsga2_sch_40x20",
        time_ns(10, || {
            let mut problem = fs2_tuning::testfns::Sch::new();
            black_box(
                Nsga2::new(Nsga2Config {
                    individuals: 40,
                    generations: 20,
                    mutation_prob: 0.35,
                    crossover_prob: 0.9,
                    seed: 1,
                })
                .run(black_box(&mut problem)),
            );
        }),
    );
}

fn main() {
    println!("### primitives — micro-benchmarks (median of 5)\n");
    bench_encoder();
    bench_payload_build();
    bench_simulation();
    bench_executor();
    bench_nsga2();
}
