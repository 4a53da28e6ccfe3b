//! Cross-crate property tests: any valid workload specification yields a
//! well-formed, decodable, simulatable payload.
//!
//! proptest is not available offline, so the properties are exercised
//! over a deterministic pseudo-random case list (fixed seed, 96+ cases
//! per property — the same budget the proptest version used).

use firestarter2::prelude::*;

/// xorshift64* — deterministic case generator for the property loops.
struct Cases {
    state: u64,
}

impl Cases {
    fn new(seed: u64) -> Cases {
        Cases { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, n).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Random gene vector over the 17 valid items, at least one non-zero.
    fn groups(&mut self) -> Vec<AccessGroup> {
        loop {
            let counts: Vec<u32> = (0..17).map(|_| self.below(6) as u32).collect();
            if counts.iter().any(|&c| c > 0) {
                return firestarter2::core::autotune::genes_to_groups(&counts);
            }
        }
    }

    fn mix(&mut self) -> InstructionMix {
        match self.below(3) {
            0 => InstructionMix::FMA,
            1 => InstructionMix::AVX,
            _ => InstructionMix::SQRT,
        }
    }
}

#[test]
fn any_valid_workload_builds_and_simulates() {
    let sku = Sku::amd_epyc_7502();
    let model = NodePowerModel::new(sku.clone());
    let sim = SystemSim::new(sku.clone());
    let mut cases = Cases::new(0xF12E_57A2);
    for case in 0..96 {
        let groups = cases.groups();
        let mix = cases.mix();
        let unroll = 1 + cases.below(299) as u32;
        let freq = [1500.0, 2200.0, 2500.0][cases.below(3) as usize];
        let payload = build_payload(
            &sku,
            &PayloadConfig {
                mix,
                groups: groups.clone(),
                unroll,
            },
        );

        // 1. Machine code decodes completely.
        let decoded =
            firestarter2::isa::decode_all(&payload.machine_code).expect("payload must decode");
        assert!(
            decoded.len() as u64 >= payload.kernel.insts(),
            "case {case}: decoded {} < kernel {}",
            decoded.len(),
            payload.kernel.insts()
        );

        // 2. Steady state is finite and positive.
        let node = sim.evaluate(&payload.kernel, freq, None);
        assert!(node.core.cycles_per_iter.is_finite());
        assert!(node.core.cycles_per_iter > 0.0);
        assert!(
            node.core.ipc > 0.0 && node.core.ipc < 8.0,
            "case {case}: ipc {}",
            node.core.ipc
        );

        // 3. Power is finite, above idle, below a sane node ceiling.
        let p = model.workload_power(&node, &payload.kernel, 0.0);
        let total = p.total_w();
        assert!(total.is_finite());
        assert!(total > model.idle_power().total_w());
        assert!(
            total < 1200.0,
            "case {case}: implausible node power {total}"
        );
    }
}

#[test]
fn group_strings_round_trip() {
    let mut cases = Cases::new(0x5EED);
    for _ in 0..96 {
        let groups = cases.groups();
        let s = format_groups(&groups);
        let parsed = parse_groups(&s).expect("canonical form parses");
        assert_eq!(parsed, groups, "round trip failed for `{s}`");
    }
}

#[test]
fn unroll_scales_code_size_linearly() {
    let sku = Sku::amd_epyc_7502();
    let groups = parse_groups("REG:1").unwrap();
    let mut cases = Cases::new(0xC0DE);
    for _ in 0..32 {
        let u = 10 + cases.below(190) as u32;
        let build = |unroll: u32| {
            build_payload(
                &sku,
                &PayloadConfig {
                    mix: InstructionMix::FMA,
                    groups: groups.clone(),
                    unroll,
                },
            )
            .kernel
            .code_bytes
        };
        // Affine in u: equal increments for equal unroll steps.
        let (b1, b2, b3) = (build(u), build(2 * u), build(3 * u));
        assert_eq!(b2 - b1, b3 - b2, "nonlinear code growth at u = {u}");
        assert!(b2 > b1);
    }
}

#[test]
fn functional_execution_never_goes_trivial_with_v2_init() {
    // §III-D: the v2.0 initialization must keep every FMA operand
    // non-trivial (no ±∞/0/NaN) regardless of the access-group mix —
    // otherwise the generated workload silently loses power.
    let sku = Sku::amd_epyc_7502();
    let mut cases = Cases::new(0x111D);
    for case in 0..24 {
        let groups = cases.groups();
        let unroll = 8 + cases.below(56) as u32;
        let seed = cases.next_u64();
        let payload = build_payload(
            &sku,
            &PayloadConfig {
                mix: InstructionMix::FMA,
                groups: groups.clone(),
                unroll,
            },
        );
        let mut ex = firestarter2::sim::Executor::new(firestarter2::sim::InitScheme::V2Safe, seed);
        ex.run_decoded(&firestarter2::sim::DecodedKernel::new(&payload.kernel), 500);
        assert_eq!(
            ex.stats().trivial_lane_ops,
            0,
            "case {case}: trivial operands for {} @u{unroll}",
            format_groups(&groups)
        );
        assert!(
            !ex.any_trivial_register(),
            "case {case}: register went trivial for {}",
            format_groups(&groups)
        );
    }
}

#[test]
fn distribution_preserves_counts() {
    use firestarter2::core::distribute::distribute;
    let mut cases = Cases::new(0xD157);
    for _ in 0..96 {
        let counts: Vec<u32> = (0..1 + cases.below(5))
            .map(|_| 1 + cases.below(8) as u32)
            .collect();
        let groups: Vec<AccessGroup> = counts.iter().map(|&c| AccessGroup::reg(c)).collect();
        // Same-target groups are fine for the scheduler itself.
        let seq = distribute(&groups);
        let total: u32 = counts.iter().sum();
        assert_eq!(seq.len() as u32, total);
        for (k, &c) in counts.iter().enumerate() {
            let got = seq.iter().filter(|&&g| g == k).count() as u32;
            assert_eq!(got, c, "group {k} count mismatch");
        }
    }
}
