//! A reference task of the benchmark's own code, timed beside the program
//! so that each wall time can be read at a fixed machine speed.
//!
//! On a shared machine a co-tenant slows a timed call by up to 2x. A CPU
//! flips between calm and contended within a second or so, and how much
//! of the time it is contended changes in phases that last minutes:
//! longer than a run, so no statistic over a run's own samples removes
//! them. The reference task does a fixed amount of work that no change to
//! the program can alter, of the kinds the contention slows most: random
//! reads over a table the size of the L2 cache, hash-map churn and small
//! allocations. [`Speed::time`] reads it right before and right after a
//! call of the program and scales the call's wall time by how much slower
//! than [`NOMINAL_MS`] the reference ran around it.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Milliseconds one reference task takes on the uncontended 2-vCPU VM
/// the benchmark was tuned on. It only sets the unit: a scaled time is
/// what the call would take when the reference task takes this long.
pub const NOMINAL_MS: f64 = 3.8;
/// Milliseconds of reference tasks read before a call.
const READING_MS: f64 = 12.0;
/// Share of a call's wall time spent reading after it, so that a long
/// call is scaled by the average of a longer stretch of the machine's
/// flips between calm and contended.
const AFTER_SHARE: f64 = 0.05;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A single random cycle through 256 KiB of `u32` (Sattolo's algorithm).
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let len = 1 << 16;
        let mut t: Vec<u32> = (0..len as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15;
        for i in (1..len).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            t.swap(i, j);
        }
        t
    })
}

fn chase() -> u64 {
    let t = chase_table();
    let mut at = 0u32;
    for _ in 0..200_000 {
        at = t[at as usize];
    }
    at as u64
}

fn hashing() -> u64 {
    let mut m: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = 0x2545_f491_4f6c_dd1d;
    for k in 0..12_000 {
        m.entry(xorshift(&mut x) % 6000).or_default().push(k);
    }
    (0..12_000)
        .map(|k| m.get(&k).map_or(0, |v| v.len() as u64))
        .sum()
}

fn allocs() -> u64 {
    let mut v: Vec<Box<[u64; 6]>> = Vec::new();
    let mut x = 3u64;
    for i in 0..40_000 {
        v.push(Box::new([i, xorshift(&mut x), 0, 0, 0, 0]));
        if i % 3 == 0 {
            let j = (xorshift(&mut x) % v.len() as u64) as usize;
            v.swap_remove(j);
        }
    }
    v.iter().map(|b| b[1] & 7).sum()
}

/// Milliseconds of one reference task.
fn task_ms() -> f64 {
    let t = Instant::now();
    std::hint::black_box(chase() ^ hashing() ^ allocs());
    t.elapsed().as_secs_f64() * 1e3
}

/// Reads the machine's current speed from the reference task.
pub struct Speed {
    /// Milliseconds and count of every reference task read.
    total: Cell<(f64, f64)>,
}

impl Speed {
    pub fn new() -> Self {
        chase_table();
        task_ms();
        Speed {
            total: Default::default(),
        }
    }

    /// Milliseconds of the mean reference task so far.
    pub fn mean_ms(&self) -> f64 {
        let (ms, n) = self.total.get();
        ms / n
    }

    /// Runs reference tasks for at least `ms` milliseconds; returns the
    /// sum of their milliseconds and their count.
    fn read(&self, ms: f64) -> (f64, f64) {
        let (mut sum, mut n) = (0.0, 0.0);
        while sum < ms {
            sum += task_ms();
            n += 1.0;
        }
        let (total, count) = self.total.get();
        self.total.set((total + sum, count + n));
        (sum, n)
    }

    /// Runs `f`; returns its result and its wall seconds scaled to the
    /// reference speed by the mean reference task right before and right
    /// after it.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let (before, n_before) = self.read(READING_MS);
        let t = Instant::now();
        let r = std::hint::black_box(f());
        let wall = t.elapsed().as_secs_f64();
        let (after, n_after) = self.read(READING_MS.max(wall * 1e3 * AFTER_SHARE));
        let mean_ms = (before + after) / (n_before + n_after);
        (r, wall * NOMINAL_MS / mean_ms)
    }
}
