//! The host-speed probe: fixed kernels owned by the benchmark, timed
//! between operations, by which the time metrics of the compute-bound
//! workloads are scaled to a nominal host speed.
//!
//! The reference host is shared, and the same fixed work takes up to
//! 1.5× longer in one ten-minute stretch than in another. Thread CPU
//! time drifts just as much as wall time (no time is stolen; the core
//! and the shared caches and memory run slower), so no clock makes two
//! sets of runs comparable. The probe times the three resources the
//! workloads lean on, one kernel each: a 64 MiB read stream (shared
//! cache and memory bandwidth), a 1 MiB table refilled from the shared
//! cache and walked with integer and floating-point work (cache
//! latency), and independent FMA chains in registers (core speed). Its
//! sample is the sum of the three times. The kernels live in this
//! package and are built with its own profile, so no change to the fs2
//! crates can change their speed.

use crate::stats::median;
use crate::timing::timed;
use std::hint::black_box;

/// Words in the streamed buffer: 64 MiB, far beyond a core's L2 on the
/// reference host, so the stream also evicts the table below.
const STREAM_WORDS: usize = 8 << 20;
/// Words in the walked table: 1 MiB, half of a core's L2.
const TABLE_WORDS: usize = 1 << 17;
/// Table-walk iterations per sample.
const WALK_ITERS: u32 = 1 << 18;
/// FMA rounds per sample (16 independent chains each).
const FMA_ROUNDS: u32 = 2_000_000;
/// Resident memory of one probe's buffers, MiB. They are filled when
/// the probe is made and live as long as it does, so a workload
/// subtracts this per live probe from its peak resident memory.
pub const RESIDENT_MB: f64 = ((STREAM_WORDS + TABLE_WORDS) * 8) as f64 / (1 << 20) as f64;
/// About the median sample on the reference host in a quiet phase, ms.
/// A scaled time metric reads what the operation would have taken on
/// a host whose probe sample takes this long.
pub const NOMINAL_MS: f64 = 14.0;

/// The kernels' buffers.
pub struct Probe {
    stream: Vec<u64>,
    table: Vec<u64>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Probe {
            stream: vec![1; STREAM_WORDS],
            table,
        }
    }

    /// Reads one word per cache line of the stream buffer.
    fn stream(&self) -> u64 {
        let sum = self
            .stream
            .chunks(8)
            .fold(0u64, |s, line| s.wrapping_add(line[0]));
        black_box(sum)
    }

    /// A dependent walk through the table (load latency) beside
    /// independent integer and floating-point chains, with a
    /// data-dependent branch.
    fn walk(&mut self) -> u64 {
        let mask = TABLE_WORDS - 1;
        let (mut x, mut h, mut f) = (1u64, 0x9E37_79B9_7F4A_7C15u64, 1.0f64);
        for i in 0..WALK_ITERS {
            let slot = (x >> 11) as usize & mask;
            let v = self.table[slot];
            x = (x ^ v).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(29);
            h = (h ^ u64::from(i)).wrapping_mul(0x94D0_49BB_1331_11EB);
            f = if h & 4 == 0 {
                f * 1.000_000_1
            } else {
                f + 1e-9
            };
            self.table[slot] = v.wrapping_add(h);
        }
        black_box(x ^ h ^ f.to_bits())
    }

    /// Sixteen independent fused multiply-add chains.
    fn fma() -> f64 {
        let m: [f64; 16] = black_box([1.000_000_001; 16]);
        let a: [f64; 16] = black_box([1e-9; 16]);
        let mut acc = [1.0f64; 16];
        for _ in 0..FMA_ROUNDS {
            for i in 0..16 {
                acc[i] = acc[i].mul_add(m[i], a[i]);
            }
        }
        black_box(acc.iter().sum())
    }

    /// Times the three kernels, ms.
    pub fn sample(&mut self) -> f64 {
        let (_, stream_ms) = timed(|| self.stream());
        let (_, walk_ms) = timed(|| self.walk());
        let (_, fma_ms) = timed(Probe::fma);
        stream_ms + walk_ms + fma_ms
    }
}

/// A run's host speed relative to the nominal one: nominal sample time
/// ÷ median sample time (1.0 without samples). A time scales to the
/// nominal speed as `raw × speed`, a rate as `raw ÷ speed`.
pub fn speed(samples_ms: &[f64]) -> f64 {
    median(samples_ms).map_or(1.0, |ms| NOMINAL_MS / ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_nominal_over_the_median_sample() {
        assert_eq!(speed(&[]), 1.0);
        assert_eq!(speed(&[28.0, 1.5, NOMINAL_MS]), 1.0);
        assert_eq!(speed(&[28.0, 1.5, NOMINAL_MS, 28.0, 28.0]), 0.5);
    }

    #[test]
    fn a_sample_takes_time() {
        assert!(Probe::new().sample() > 0.0);
    }
}
