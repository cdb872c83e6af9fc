//! A reference for the host's speed.
//!
//! The benchmark shares its cores with other machines, and their load
//! moves the speed of everything that runs here by a common factor, over
//! minutes: the same seed's throughput and its set-up time rise and fall
//! together by up to half. This module times a fixed workload of its own —
//! hashing, formatting, allocation, sorting, tree inserts, the kinds of
//! work campaigns do — that uses no code of the program under test, so a
//! change to the program cannot move it. Its time, sampled before every
//! repetition of a run, gives the host's speed during that run.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Elements the reference kernel works through: one to two milliseconds.
const KERNEL_SIZE: u64 = 4_000;

/// The host speed the timing metrics are scaled to, as the median time of
/// one kernel run, ns: the reference box (2 vCPUs of a shared host) took
/// 1.2 to 2.2 ms as its host's load came and went. Only the scale of the
/// figures depends on it, not their ratios between runs.
pub const NOMINAL_NS: f64 = 1_500_000.0;

/// Runs the reference kernel once and returns its wall time, ns.
pub fn sample() -> u64 {
    let start = Instant::now();
    black_box(kernel(black_box(KERNEL_SIZE)));
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn kernel(n: u64) -> u64 {
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    let mut values = Vec::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..n {
        x = crate::workload::splitmix64(x ^ i);
        *counts
            .entry(format!("t{}.c{}", x % 61, x % 509))
            .or_default() += 1;
        tree.insert(x % 4093, i);
        values.push(x);
    }
    values.sort_unstable();
    let sum = values
        .iter()
        .step_by(7)
        .fold(0u64, |a, v| a.wrapping_add(*v));
    sum ^ counts.len() as u64 ^ tree.len() as u64
}
