//! Whole-node error detection (§III-D, parallelized).
//!
//! FIRESTARTER runs the identical deterministic kernel on every hardware
//! thread, so correct cores must hold bit-identical register state after
//! the same number of iterations. Comparing the per-core state hashes
//! detects SIMD faults on overclocked or degraded silicon.
//!
//! The runner's inline check replays the kernel once and compares it
//! against a copy carrying any armed fault; this module replays the
//! kernel for *every* simulated core, fanned out over real OS threads
//! with std's scoped threads (the work is embarrassingly parallel and
//! read-only over the decoded kernel).

use fs2_sim::{DecodedKernel, Executor, InitScheme, Kernel};

/// A fault to inject on one simulated core (silent-data-corruption test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Core index the fault strikes.
    pub core: u32,
    /// Vector register index (0..=15).
    pub reg: usize,
    /// Lane (0..=3).
    pub lane: usize,
    /// Bit within the lane (0..=63).
    pub bit: u32,
}

/// Result of a whole-node check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Cores checked.
    pub cores: u32,
    /// The majority (reference) state hash.
    pub reference_hash: u64,
    /// Cores whose state diverged from the reference.
    pub divergent_cores: Vec<u32>,
}

impl CheckReport {
    /// All cores agree.
    pub fn passed(&self) -> bool {
        self.divergent_cores.is_empty()
    }
}

/// Executes `iterations` of `kernel` on `cores` simulated cores (same
/// seed, so correct cores are bit-identical) across up to `threads` OS
/// threads, applying `faults` before execution, and compares state
/// hashes.
pub fn check_all_cores(
    kernel: &Kernel,
    cores: u32,
    iterations: u64,
    init: InitScheme,
    seed: u64,
    faults: &[InjectedFault],
    threads: usize,
) -> CheckReport {
    assert!(cores > 0);
    let threads = threads.clamp(1, cores as usize);
    let mut hashes = vec![0u64; cores as usize];
    let decoded = &DecodedKernel::new(kernel);

    std::thread::scope(|scope| {
        // Static partition: contiguous chunks of cores per worker. The
        // work per core is identical, so finer-grained balancing buys
        // nothing.
        for (worker, chunk) in hashes.chunks_mut(cores as usize / threads + 1).enumerate() {
            let base = worker * (cores as usize / threads + 1);
            scope.spawn(move || {
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    let core = (base + offset) as u32;
                    let mut ex = Executor::new(init, seed);
                    for f in faults {
                        if f.core == core {
                            ex.inject_bit_flip(f.reg, f.lane, f.bit);
                        }
                    }
                    ex.run_decoded(decoded, iterations);
                    *slot = ex.state_hash();
                }
            });
        }
    });

    // Majority vote for the reference hash (a single faulty core must not
    // be able to define "correct"). BTreeMap, not HashMap: with a count
    // tie (e.g. 2 cores each on two hashes), max_by_key keeps the *last*
    // maximal entry, so hashed iteration order would pick a different
    // winner per process. Ordered iteration makes the tie-break "highest
    // hash among the most common" — a pure function of the inputs.
    let mut counts: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    for &h in &hashes {
        *counts.entry(h).or_insert(0) += 1;
    }
    let reference_hash = counts
        .iter()
        .max_by_key(|(_, &c)| c)
        .map(|(&h, _)| h)
        .expect("at least one core");
    let divergent_cores = hashes
        .iter()
        .enumerate()
        .filter(|(_, &h)| h != reference_hash)
        .map(|(i, _)| i as u32)
        .collect();

    CheckReport {
        cores,
        reference_hash,
        divergent_cores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::parse_groups;
    use crate::mix::InstructionMix;
    use crate::payload::{build_payload, PayloadConfig};
    use fs2_arch::Sku;

    fn kernel() -> Kernel {
        build_payload(
            &Sku::amd_epyc_7502(),
            &PayloadConfig {
                mix: InstructionMix::FMA,
                groups: parse_groups("REG:2,L1_LS:1").unwrap(),
                unroll: 30,
            },
        )
        .kernel
    }

    #[test]
    fn all_64_cores_agree_when_healthy() {
        let k = kernel();
        let report = check_all_cores(&k, 64, 200, InitScheme::V2Safe, 7, &[], 8);
        assert!(report.passed());
        assert_eq!(report.cores, 64);
        assert!(report.divergent_cores.is_empty());
    }

    #[test]
    fn faulty_cores_are_identified_exactly() {
        let k = kernel();
        let faults = [
            InjectedFault {
                core: 5,
                reg: 3,
                lane: 1,
                bit: 52,
            },
            InjectedFault {
                core: 17,
                reg: 8,
                lane: 0,
                bit: 3,
            },
        ];
        let report = check_all_cores(&k, 64, 200, InitScheme::V2Safe, 7, &faults, 8);
        assert!(!report.passed());
        assert_eq!(report.divergent_cores, vec![5, 17]);
    }

    #[test]
    fn majority_vote_survives_many_faults() {
        let k = kernel();
        // 3 of 8 cores corrupted: the healthy 5 still define the reference.
        let faults: Vec<InjectedFault> = (0..3)
            .map(|i| InjectedFault {
                core: i,
                reg: i as usize,
                lane: 0,
                bit: 10 + i,
            })
            .collect();
        let report = check_all_cores(&k, 8, 100, InitScheme::V2Safe, 3, &faults, 4);
        assert_eq!(report.divergent_cores, vec![0, 1, 2]);
    }

    #[test]
    fn parallel_matches_serial() {
        let k = kernel();
        let serial = check_all_cores(&k, 16, 150, InitScheme::V2Safe, 11, &[], 1);
        let parallel = check_all_cores(&k, 16, 150, InitScheme::V2Safe, 11, &[], 8);
        assert_eq!(serial.reference_hash, parallel.reference_hash);
        assert_eq!(serial.divergent_cores, parallel.divergent_cores);
    }

    #[test]
    fn single_core_check_is_trivially_green() {
        let k = kernel();
        let report = check_all_cores(&k, 1, 50, InitScheme::V2Safe, 1, &[], 4);
        assert!(report.passed());
    }
}
