//! Wall times scaled to a fixed host speed.
//!
//! The reference machine (a 2-core x86-64 VM on a shared host) runs the same
//! code up to twice as slowly in some stretches as in others. The slow
//! stretches last from a fraction of a second to tens of seconds and their
//! share drifts over tens of minutes, so a plain wall time measures the
//! neighbours as much as the program. A timed run therefore interleaves
//! calibration blocks with its samples, at most [`BLOCK_INTERVAL_MS`] of
//! timed work apart and always between two samples. A block runs each of the
//! workload's fixed [`Kernel`]s once and records the host's *slowness*: the
//! geometric mean over the kernels of kernel time ÷ the kernel's reference
//! time ([`Kernel::reference_ms`], its time on the reference machine in its
//! fast state). Every sample is scaled by the slowness around it:
//!
//! `scaled ms = wall ms ÷ slowness`,
//!
//! where `slowness` is the mean over the calibration blocks next to the
//! sample and every block within the sample's own duration of it (see
//! [`HostClock::slowness_around`]). A scaled time is the sample's wall time
//! on a host on which every kernel takes its reference time. The kernels are
//! the benchmark's own code and call nothing in the workspace, so a change
//! to the program moves the scaled times by exactly as much as the wall
//! times.

use std::collections::HashMap;
use std::time::Instant;

/// The longest stretch of timed work without a calibration block.
pub const BLOCK_INTERVAL_MS: f64 = 50.0;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn queens(n: usize, placed: &mut Vec<usize>) -> u64 {
    let row = placed.len();
    if row == n {
        return 1;
    }
    let mut solutions = 0;
    for col in 0..n {
        let free = placed
            .iter()
            .enumerate()
            .all(|(r, &c)| c != col && row - r != col.abs_diff(c));
        if free {
            placed.push(col);
            solutions += queens(n, placed);
            placed.pop();
        }
    }
    solutions
}

/// `n` boxed ternary tuples over `0..values`, hashed into a row map (and,
/// with `index`, a first-column index), probed reversed in a strided order
/// and sorted: the store work the engine does. Returns a checksum.
fn tuples(n: usize, values: u64, index: bool) -> u64 {
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut rows: HashMap<Box<[u32]>, usize> = HashMap::new();
    let mut by_first: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut all: Vec<Box<[u32]>> = Vec::with_capacity(n);
    for i in 0..n {
        let tuple: Box<[u32]> = (0..3).map(|_| (xorshift(&mut x) % values) as u32).collect();
        if index {
            by_first.entry(tuple[0]).or_default().push(i);
        }
        rows.entry(tuple.clone()).or_insert(i);
        all.push(tuple);
    }
    let mut hits = 0u64;
    for k in 0..n {
        let mut probe = all[k * 7919 % n].to_vec();
        probe.reverse();
        hits += u64::from(rows.contains_key(probe.as_slice()));
    }
    all.sort_unstable();
    let widest = by_first.values().map(Vec::len).max().unwrap_or(0) as u64;
    hits + widest + all.len() as u64
}

/// A calibration kernel. Which ones a workload uses follows its working
/// set: the host's slow stretches slow code with a small working set and
/// code that misses the caches by different factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Small working set (a few hundred KiB): 3000 boxed tuples in a row map
    /// and a column index, probed and sorted, then a backtracking search with
    /// a trail (7-queens). About 1–2 ms on the reference machine.
    Compute,
    /// Larger working set (a few MiB): 20000 boxed tuples over a million
    /// values in a row map, probed in a strided order and sorted. About 5–12
    /// ms on the reference machine.
    Memory,
}

impl Kernel {
    /// Runs the kernel once; deterministic, returns a checksum.
    pub fn run(self) -> u64 {
        match self {
            Kernel::Compute => tuples(3000, 64, true) + queens(7, &mut Vec::new()),
            Kernel::Memory => tuples(20_000, 1 << 20, false),
        }
    }

    /// The kernel's time on the reference machine in its fast state: the
    /// time a scaled sample is expressed at.
    pub fn reference_ms(self) -> f64 {
        match self {
            Kernel::Compute => 1.0,
            Kernel::Memory => 5.0,
        }
    }
}

/// One calibration block: one run of each kernel, when the block ran and
/// the slowness it measured.
#[derive(Debug, Clone, Copy)]
struct Block {
    start: Instant,
    end: Instant,
    slowness: f64,
}

/// One timed sample: its wall interval and wall time.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    start: Instant,
    end: Instant,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
}

/// The calibration blocks of one run, in time order.
#[derive(Debug)]
pub struct HostClock {
    kernels: &'static [Kernel],
    blocks: Vec<Block>,
}

impl HostClock {
    /// Starts a clock on `kernels` (at least one) with one calibration
    /// block.
    pub fn new(kernels: &'static [Kernel]) -> HostClock {
        assert!(!kernels.is_empty(), "a clock needs a kernel");
        let mut clock = HostClock {
            kernels,
            blocks: Vec::new(),
        };
        clock.block();
        clock
    }

    /// Runs one calibration block now.
    pub fn block(&mut self) {
        let start = Instant::now();
        let log_sum: f64 = self
            .kernels
            .iter()
            .map(|kernel| {
                let t = Instant::now();
                std::hint::black_box(kernel.run());
                (t.elapsed().as_secs_f64() * 1e3 / kernel.reference_ms()).ln()
            })
            .sum();
        self.blocks.push(Block {
            start,
            end: Instant::now(),
            slowness: (log_sum / self.kernels.len() as f64).exp(),
        });
    }

    /// Runs `f` as one timed sample, after a calibration block if the last
    /// one ended [`BLOCK_INTERVAL_MS`] ago or more. The run must end with
    /// [`HostClock::close`] before its samples are scaled.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Sample) {
        let last = self.blocks.last().expect("a clock starts with a block");
        if last.end.elapsed().as_secs_f64() * 1e3 >= BLOCK_INTERVAL_MS {
            self.block();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let wall_ms = (end - start).as_secs_f64() * 1e3;
        (
            out,
            Sample {
                start,
                end,
                wall_ms,
            },
        )
    }

    /// Ends the run with a calibration block, so that every sample has one
    /// after it.
    pub fn close(&mut self) {
        self.block();
    }

    /// The slowness around `sample`: the mean over the last block before
    /// it, the first block after it, and every block that started within the
    /// sample's own wall time before its start or after its end. A short
    /// sample meets the host in one state, which the blocks next to it
    /// measure; a long one averages the host over its length, and so do the
    /// blocks around it.
    pub fn slowness_around(&self, sample: &Sample) -> f64 {
        let length = sample.end - sample.start;
        let first_after = self.blocks.partition_point(|b| b.start < sample.end);
        let last_before = self.blocks[..first_after]
            .partition_point(|b| b.end <= sample.start)
            .saturating_sub(1);
        let from = self.blocks[..=last_before]
            .partition_point(|b| b.start + length < sample.start)
            .min(last_before);
        let to = self.blocks[first_after..]
            .partition_point(|b| b.start <= sample.end + length)
            .max(1)
            + first_after;
        let around = &self.blocks[from..to.min(self.blocks.len())];
        around.iter().map(|b| b.slowness).sum::<f64>() / around.len() as f64
    }

    /// `wall_ms`, measured in `sample` or inside it, scaled to the
    /// reference host speed.
    pub fn scale(&self, sample: &Sample, wall_ms: f64) -> f64 {
        wall_ms / self.slowness_around(sample)
    }

    /// `sample`'s wall time scaled to the reference host speed.
    pub fn scaled_ms(&self, sample: &Sample) -> f64 {
        self.scale(sample, sample.wall_ms)
    }

    /// The number of calibration blocks and their median slowness.
    pub fn summary(&self) -> (usize, f64) {
        let slowness: Vec<f64> = self.blocks.iter().map(|b| b.slowness).collect();
        (slowness.len(), crate::report::quantile(&slowness, 0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        for kernel in [Kernel::Compute, Kernel::Memory] {
            assert_eq!(kernel.run(), kernel.run());
        }
    }

    #[test]
    fn samples_are_scaled_by_the_blocks_around_them() {
        let mut clock = HostClock::new(&[Kernel::Compute]);
        let (_, first) = clock.time(|| ());
        clock.block();
        let (_, second) = clock.time(|| ());
        clock.close();
        assert_eq!(clock.blocks.len(), 3);
        let k = |i: usize| clock.blocks[i].slowness;
        assert_eq!(clock.slowness_around(&first), (k(0) + k(1)) / 2.0);
        assert_eq!(clock.slowness_around(&second), (k(1) + k(2)) / 2.0);
        let expected = 3.0 / clock.slowness_around(&first);
        assert!((clock.scale(&first, 3.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn a_long_sample_averages_the_blocks_within_its_length() {
        let mut clock = HostClock::new(&[Kernel::Compute]);
        clock.block();
        let (_, long) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(200)));
        clock.block();
        clock.close();
        let mean = clock.blocks.iter().map(|b| b.slowness).sum::<f64>() / 4.0;
        assert!((clock.slowness_around(&long) - mean).abs() < 1e-12);
    }
}
