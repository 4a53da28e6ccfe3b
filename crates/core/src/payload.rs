//! Payload generation — the AsmJit-equivalent backend (Fig. 5).
//!
//! "The binary carries only the instruction mix definitions but not the
//! concrete representation of the workloads. Users can define the unroll
//! factor u and the memory accesses M at runtime. FIRESTARTER uses these
//! runtime parameters to create the binary representation of the
//! workload."
//!
//! [`build_payload`] turns `(I, u, M)` into both a [`fs2_sim::Kernel`]
//! (for the simulator) and real x86-64 machine code (prologue + unrolled
//! loop + epilogue) via the `fs2-isa` assembler. The machine code is
//! validated by decoding it back (see tests) — the execution itself runs
//! on the simulator per DESIGN.md §2.

use crate::distribute::{distribute, unroll_sequence};
use crate::groups::{format_groups, AccessGroup, Target};
use crate::mix::{level_base_addr, level_pointer, InstructionMix};
use fs2_arch::{MemLevel, Sku};
use fs2_isa::prelude::*;
use fs2_sim::kernel::TaggedInst;
use fs2_sim::Kernel;

/// A workload specification `(I, u, M)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PayloadConfig {
    pub mix: InstructionMix,
    /// The memory accesses `M`.
    pub groups: Vec<AccessGroup>,
    /// The unroll factor `u` (`--set-line-count`): instruction sets per
    /// loop iteration.
    pub unroll: u32,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Payload {
    /// Simulator-executable kernel (one loop iteration).
    pub kernel: Kernel,
    /// Complete generated function: prologue, unrolled loop, `ret`.
    pub machine_code: Vec<u8>,
    /// Group index (into `config.groups`) of each unrolled set.
    pub sequence: Vec<usize>,
    pub config: PayloadConfig,
}

impl Payload {
    /// Levels referenced by the access groups.
    pub fn used_levels(&self) -> Vec<MemLevel> {
        let mut levels: Vec<MemLevel> = self
            .config
            .groups
            .iter()
            .filter_map(|g| match g.target {
                Target::Mem(l) => Some(l),
                Target::Reg => None,
            })
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels
    }
}

/// Computes the default unroll factor for a mix on a SKU: large enough
/// that the loop cannot live in the µop cache (keeping fetch+decode
/// busy — §III's power rationale), small enough to stay L1I-resident
/// ("we choose the unroll factor so that the loop fits into the L1-I
/// cache", §IV-C).
pub fn default_unroll(sku: &Sku, mix: InstructionMix, groups: &[AccessGroup]) -> u32 {
    let window = distribute(groups);
    // Measure one window's code size and µop count.
    let mut bytes = 0usize;
    let mut uops = 0u64;
    for (i, &gi) in window.iter().enumerate() {
        let access = match (groups[gi].target, groups[gi].pattern) {
            (Target::Mem(level), Some(p)) => Some((level, p)),
            _ => None,
        };
        let set = mix.emit_group(i as u32, access);
        for t in &set {
            bytes += fs2_isa::encoder::encoded_len(&t.inst);
            uops += u64::from(fs2_isa::meta::meta(&t.inst).uops);
        }
    }
    let bytes_per_set = bytes as f64 / window.len() as f64;
    let uops_per_set = uops as f64 / window.len() as f64;

    // Target ~¾ of L1I so the loop plus tail fits comfortably.
    let by_l1i = (sku.l1i_bytes as f64 * 0.75 / bytes_per_set) as u32;
    // Must exceed the µop cache to force decoder activity.
    let min_by_opcache = if sku.frontend.opcache_capacity_uops > 0 {
        (f64::from(sku.frontend.opcache_capacity_uops) * 1.25 / uops_per_set) as u32
    } else {
        0
    };
    let u = by_l1i.max(min_by_opcache).max(window.len() as u32);
    // Round to a whole number of windows for exact access ratios.
    let w = window.len() as u32;
    u.div_ceil(w) * w
}

/// Builds the payload for `(mix, unroll, groups)` on `sku`.
pub fn build_payload(sku: &Sku, config: &PayloadConfig) -> Payload {
    assert!(!config.groups.is_empty(), "M must not be empty");
    assert!(config.unroll > 0, "unroll factor must be positive");
    let _ = sku; // reserved: per-SKU emission choices (e.g. AVX-512)

    let window = distribute(&config.groups);
    let sequence = unroll_sequence(&window, config.unroll);

    let mut body: Vec<TaggedInst> = Vec::with_capacity(sequence.len() * 4 + 8);
    for (i, &gi) in sequence.iter().enumerate() {
        let g = &config.groups[gi];
        let access = match (g.target, g.pattern) {
            (Target::Mem(level), Some(p)) => Some((level, p)),
            _ => None,
        };
        body.extend(config.mix.emit_group(i as u32, access));
    }

    // Per-iteration pointer resets keep each access stream inside its
    // level-sized buffer (FIRESTARTER sizes walks to the buffer and
    // rewinds between iterations).
    let mut used_levels: Vec<MemLevel> = config
        .groups
        .iter()
        .filter_map(|g| match g.target {
            Target::Mem(l) => Some(l),
            Target::Reg => None,
        })
        .collect();
    used_levels.sort_unstable();
    used_levels.dedup();
    for &level in &used_levels {
        body.push(TaggedInst::reg(Inst::MovImm64 {
            dst: level_pointer(level),
            imm: level_base_addr(level),
        }));
    }

    // Loop tail.
    body.push(TaggedInst::reg(Inst::Dec(Gp::Rdi)));
    body.push(TaggedInst::reg(Inst::Jnz { rel: 0 }));

    let name = format!(
        "{}:{}@u{}",
        config.mix.name,
        format_groups(&config.groups),
        config.unroll
    );
    let kernel = Kernel::new(name, body.clone(), config.unroll);

    // Machine code: prologue initializes pointers; the loop branches back
    // with a resolved label; `ret` closes the function.
    let mut asm = Assembler::new();
    for &level in &used_levels {
        asm.push(Inst::MovImm64 {
            dst: level_pointer(level),
            imm: level_base_addr(level),
        });
    }
    let top = asm.label();
    asm.bind(top);
    for t in body.iter().take(body.len() - 1) {
        asm.push(t.inst);
    }
    asm.jnz(top);
    asm.push(Inst::Ret);
    let machine_code = asm.finish().expect("payload assembly cannot fail");

    Payload {
        kernel,
        machine_code,
        sequence,
        config: config.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::parse_groups;
    use fs2_arch::pipeline::FetchSource;
    use fs2_sim::core::{steady_state, ActiveSet};

    fn rome() -> Sku {
        Sku::amd_epyc_7502()
    }

    fn cfg(groups: &str, unroll: u32) -> PayloadConfig {
        PayloadConfig {
            mix: InstructionMix::FMA,
            groups: parse_groups(groups).unwrap(),
            unroll,
        }
    }

    #[test]
    fn kernel_matches_unroll_and_ratios() {
        let sku = rome();
        let p = build_payload(&sku, &cfg("REG:4,L1_L:2,L2_L:1", 70));
        assert_eq!(p.sequence.len(), 70);
        // 70 sets tile ten 7-slot windows exactly: 40/20/10 split.
        assert_eq!(p.sequence.iter().filter(|&&g| g == 0).count(), 40);
        assert_eq!(p.sequence.iter().filter(|&&g| g == 1).count(), 20);
        assert_eq!(p.sequence.iter().filter(|&&g| g == 2).count(), 10);
        // Traffic: 20 L1 loads × 32 B, 10 L2 loads × 32 B.
        assert_eq!(p.kernel.traffic.load_bytes[MemLevel::L1.idx()], 640);
        assert_eq!(p.kernel.traffic.load_bytes[MemLevel::L2.idx()], 320);
        assert_eq!(p.used_levels(), vec![MemLevel::L1, MemLevel::L2]);
    }

    #[test]
    fn machine_code_decodes_back_fully() {
        let sku = rome();
        let p = build_payload(&sku, &cfg("REG:2,L1_LS:1,RAM_P:1", 32));
        let decoded = fs2_isa::decode_all(&p.machine_code)
            .expect("generated payload must be fully decodable");
        // Prologue (2 pointer inits) + body + jnz + ret.
        assert!(decoded.len() > 32 * 4);
        assert_eq!(*decoded.last().unwrap(), Inst::Ret);
        // The back-edge lands exactly on the loop top: jnz displacement is
        // negative and within the code.
        let jnz = decoded
            .iter()
            .rev()
            .find_map(|i| match i {
                Inst::Jnz { rel } => Some(*rel),
                _ => None,
            })
            .expect("loop back-edge present");
        assert!(jnz < 0);
        assert!((-jnz as usize) < p.machine_code.len());
    }

    #[test]
    fn reg_only_payload_has_no_memory() {
        let sku = rome();
        let p = build_payload(&sku, &cfg("REG:1", 64));
        assert_eq!(p.kernel.traffic.total_accesses(), 0);
        assert!(p.used_levels().is_empty());
        // 64 groups × 4 insts + dec + jnz.
        assert_eq!(p.kernel.insts(), 64 * 4 + 2);
    }

    #[test]
    fn default_unroll_exceeds_opcache_but_fits_l1i() {
        let sku = rome();
        let groups = parse_groups("REG:1").unwrap();
        let u = default_unroll(&sku, InstructionMix::FMA, &groups);
        let p = build_payload(&sku, &cfg("REG:1", u));
        // Must spill the 4096-µop op cache...
        assert!(p.kernel.meta.uops > u64::from(sku.frontend.opcache_capacity_uops));
        // ...but stay inside L1I.
        assert!(p.kernel.code_bytes <= sku.l1i_bytes);
        // And the steady state confirms decoder delivery.
        let ss = steady_state(&sku, &p.kernel, 2500.0, ActiveSet::full(&sku));
        assert_eq!(ss.fetch_source, FetchSource::L1i);
    }

    #[test]
    fn small_unroll_lands_in_opcache_large_in_l2() {
        let sku = rome();
        let small = build_payload(&sku, &cfg("REG:1", 64));
        let ss = steady_state(&sku, &small.kernel, 2500.0, ActiveSet::full(&sku));
        assert_eq!(ss.fetch_source, FetchSource::OpCache);

        let huge = build_payload(&sku, &cfg("REG:1", 3000));
        let ss = steady_state(&sku, &huge.kernel, 2500.0, ActiveSet::full(&sku));
        assert_eq!(ss.fetch_source, FetchSource::L2);
    }

    #[test]
    fn default_unroll_is_window_multiple() {
        let sku = rome();
        let groups = parse_groups("REG:4,L1_L:2,L2_L:1").unwrap();
        let u = default_unroll(&sku, InstructionMix::FMA, &groups);
        assert_eq!(u % 7, 0, "u = {u} not a multiple of the 7-slot window");
    }

    #[test]
    fn store_groups_generate_store_traffic() {
        let sku = rome();
        let p = build_payload(&sku, &cfg("REG:1,L1_2LS:1", 16));
        let t = &p.kernel.traffic;
        assert!(t.load_bytes[MemLevel::L1.idx()] > 0);
        assert!(t.store_bytes[MemLevel::L1.idx()] > 0);
        // 2 loads : 1 store per 2LS group.
        assert_eq!(
            t.load_bytes[MemLevel::L1.idx()],
            2 * t.store_bytes[MemLevel::L1.idx()]
        );
    }

    #[test]
    fn sqrt_payload_builds() {
        let sku = rome();
        let p = build_payload(
            &sku,
            &PayloadConfig {
                mix: InstructionMix::SQRT,
                groups: parse_groups("REG:1").unwrap(),
                unroll: 16,
            },
        );
        assert!(p.kernel.meta.sqrt > 0);
        assert!(fs2_isa::decode_all(&p.machine_code).is_ok());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_groups_rejected() {
        let sku = rome();
        let _ = build_payload(
            &sku,
            &PayloadConfig {
                mix: InstructionMix::FMA,
                groups: vec![],
                unroll: 1,
            },
        );
    }

    #[test]
    fn functional_execution_of_generated_payload_is_stable() {
        // End-to-end: generated payload runs on the functional executor
        // without producing trivial values (v2 init).
        let sku = rome();
        let p = build_payload(&sku, &cfg("REG:2,L1_LS:1", 21));
        let mut ex = fs2_sim::Executor::new(fs2_sim::InitScheme::V2Safe, 99);
        ex.run_decoded(&fs2_sim::DecodedKernel::new(&p.kernel), 2000);
        assert_eq!(ex.stats().trivial_lane_ops, 0);
        assert!(!ex.any_trivial_register());
    }
}
