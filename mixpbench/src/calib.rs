//! Host-speed calibration for the timed runs.
//!
//! The reference host (a 2-vCPU VM) runs the same fixed work faster or
//! slower by 10–30% in states lasting from seconds to minutes: the same
//! instructions simply run slower, and the fastest of many samples taken
//! through one run still moves with the state (see `README.md`, *Host
//! noise and bounds*). Three fixed loops of the benchmark's own, which
//! never call the program, sample the host's speed between passes: an ALU
//! chain, set-associative LRU lookups over a table that stays in the
//! core's private caches, and the same lookups over a 12 MiB table. Their
//! fastest bursts, against the fastest bursts seen on the reference host,
//! give the run's host factor, and the timed run reports its times divided
//! by it: seconds as the reference host runs them at its fastest.

use crate::stats::geomean;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of the ALU chain per burst.
const ALU_ITERS: u64 = 10_000_000;
/// Sets of the small lookup table (8 ways: 24 KiB of tags and stamps).
const SMALL_SETS: usize = 256;
/// Sets of the large lookup table (8 ways: 12 MiB of tags and stamps).
const LARGE_SETS: usize = 131_072;
/// Lookups per burst in either table.
const LOOKUPS: u64 = 1_000_000;

/// The fastest burst of each loop on the reference host, in seconds: the
/// ALU chain, the small table, the large table.
pub const REFERENCE_S: [f64; 3] = [0.0165, 0.0335, 0.046];

/// A multiply-xor-shift chain: one dependent ALU operation after another.
fn alu_chain(iters: u64) -> u64 {
    let mut x = 0x12345u64;
    for i in 0..iters {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29);
    }
    x
}

/// LRU lookups of xorshift line numbers in a `sets` × 8-way table that
/// holds about 1/12 of the lines touched; returns the hit count.
fn assoc_lookups(sets: usize, lookups: u64) -> u64 {
    const WAYS: usize = 8;
    let mut tags = vec![u64::MAX; sets * WAYS];
    let mut stamps = vec![0u32; sets * WAYS];
    let mut x = 0x9E37_79B9u64;
    let mut hits = 0u64;
    for i in 0..lookups {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = x % (sets as u64 * 12);
        let base = (line as usize % sets) * WAYS;
        let mut victim = base;
        let mut found = false;
        for w in base..base + WAYS {
            if tags[w] == line {
                stamps[w] = i as u32;
                hits += 1;
                found = true;
                break;
            }
            if stamps[w] < stamps[victim] {
                victim = w;
            }
        }
        if !found {
            tags[victim] = line;
            stamps[victim] = i as u32;
        }
    }
    hits
}

fn seconds_of(f: impl FnOnce() -> u64) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// The fastest burst of each loop seen so far in a run.
#[derive(Debug, Clone)]
pub struct Calibration {
    fastest: [f64; 3],
    bursts: usize,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            fastest: [f64::INFINITY; 3],
            bursts: 0,
        }
    }
}

impl Calibration {
    /// Runs each loop once (about 0.1 s in all) and keeps its fastest time.
    pub fn burst(&mut self) {
        let times = [
            seconds_of(|| alu_chain(black_box(ALU_ITERS))),
            seconds_of(|| assoc_lookups(black_box(SMALL_SETS), LOOKUPS)),
            seconds_of(|| assoc_lookups(black_box(LARGE_SETS), LOOKUPS)),
        ];
        for (f, t) in self.fastest.iter_mut().zip(times) {
            *f = f.min(t);
        }
        self.bursts += 1;
    }

    /// Bursts run so far.
    pub fn bursts(&self) -> usize {
        self.bursts
    }

    /// The fastest burst of each loop, in the order of [`REFERENCE_S`].
    pub fn fastest(&self) -> [f64; 3] {
        self.fastest
    }

    /// How much slower than the reference host at its fastest this run's
    /// host ran: the geometric mean over the loops of fastest ÷ reference.
    ///
    /// # Panics
    ///
    /// Panics before the first [`Calibration::burst`].
    pub fn host_factor(&self) -> f64 {
        assert!(self.bursts > 0, "host factor of no bursts");
        let ratios: Vec<f64> = self
            .fastest
            .iter()
            .zip(REFERENCE_S)
            .map(|(f, r)| f / r)
            .collect();
        geomean(&ratios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loops_are_deterministic_work() {
        assert_eq!(alu_chain(1000), alu_chain(1000));
        let hits = assoc_lookups(16, 10_000);
        assert_eq!(hits, assoc_lookups(16, 10_000));
        assert!(hits > 0 && hits < 10_000, "the table holds some lines");
    }

    #[test]
    fn host_factor_is_the_geomean_of_the_fastest_ratios() {
        let mut c = Calibration {
            fastest: [
                REFERENCE_S[0] * 2.0,
                REFERENCE_S[1] * 0.5,
                REFERENCE_S[2],
            ],
            bursts: 1,
        };
        assert!((c.host_factor() - 1.0).abs() < 1e-12);
        c.fastest[2] = REFERENCE_S[2] * 8.0;
        assert!((c.host_factor() - 2.0).abs() < 1e-12);
    }
}
