//! Small helpers shared by the workloads: the seeded generator, order
//! statistics, digests, peak memory and the metric table.

use std::collections::BTreeMap;

/// SplitMix64: the whole input stream of a run is drawn from this, seeded
/// by `--seed`, so one seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (0..=1) of `xs` by the nearest-rank rule; `0.0` when
/// empty. Sorts in place.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// FNV-1a 64 over a byte stream — a stable digest for output identity
/// checks across iterations and runs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.update(bytes);
        d.0
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Worker count the benchmark loads the program with: every core, as the
/// CLI's `--jobs` default and `darm serve` sized to the machine would.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Outcome counts of a run: every operation attempted, and the ones that
/// failed, were refused or produced a wrong result, with the first few
/// reasons kept for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Records one operation: a failure when `result` is an error.
    pub fn check(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(),
            Err(e) => self.fail(e),
        }
    }
}

/// Time the calibration loop takes on the machine the first numbers were
/// measured on (2-core x86-64 container); see [`calibration_ms`].
pub const REFERENCE_CALIBRATION_MS: f64 = 7.0;

/// Times a fixed CPU-bound loop — xorshift updates scattered over a
/// 256 KiB table, nothing from the program under test — in ms. On a shared
/// machine the speed a run gets drifts by ±15% over tens of seconds, and
/// this loop slows down with it; timing it after every round lets the
/// benchmark state each round's times at reference machine speed.
pub fn calibration_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut table = vec![0u64; 32 * 1024];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (table.len() - 1);
        table[j] = table[j].wrapping_add(i ^ x);
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}

/// A measured loop cut into rounds of like work: a full cycle of the
/// inputs where the workload cycles, else a fixed number of operations.
/// The calibration loop runs after each round, while nothing else of the
/// benchmark runs, and the round's times are stated at reference speed.
/// That holds only for loops that keep their threads computing: a loop
/// whose threads wait on each other does not slow down with the
/// calibration loop.
#[derive(Default)]
pub struct Rounds {
    done: Vec<Round>,
    cur: Round,
}

#[derive(Default)]
struct Round {
    wall: f64,
    work: f64,
    latency_ms: Vec<f64>,
    /// Reference speed ÷ this round's speed: [`calibration_ms`] over
    /// [`REFERENCE_CALIBRATION_MS`].
    slowdown: f64,
}

impl Round {
    fn reference_rate(&self) -> f64 {
        self.work / (self.wall / self.slowdown)
    }
}

/// What a run reports from its rounds, at reference machine speed: every
/// time is divided by its round's slowdown. Other tenants only ever slow a
/// round down, so every figure then comes from the faster half of the
/// rounds: their total work over their total time, and the latency
/// percentiles of their operations pooled.
pub struct Estimate {
    pub throughput: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// The same throughput at the speed the run actually got.
    pub raw_throughput: f64,
    /// Median calibration time over the rounds, ms.
    pub calibration_ms: f64,
    pub rounds: usize,
    pub ops: usize,
}

impl Rounds {
    /// One operation of `work` units that took `ms`.
    pub fn op(&mut self, work: f64, ms: f64) {
        self.cur.work += work;
        self.cur.latency_ms.push(ms);
    }

    pub fn ops_in_round(&self) -> usize {
        self.cur.latency_ms.len()
    }

    /// Ends the current round, which took `wall` seconds, and calibrates.
    /// The caller must have nothing else running.
    pub fn close(&mut self, wall: f64) {
        if !self.cur.latency_ms.is_empty() {
            self.cur.wall = wall;
            self.cur.slowdown = calibration_ms() / REFERENCE_CALIBRATION_MS;
            self.done.push(std::mem::take(&mut self.cur));
        }
    }

    /// `tail` is the latency percentile to report beside the median.
    pub fn estimate(&mut self, tail: f64) -> Estimate {
        let rounds = self.done.len();
        let mut calibration: Vec<f64> = self
            .done
            .iter()
            .map(|r| r.slowdown * REFERENCE_CALIBRATION_MS)
            .collect();
        self.done
            .sort_by(|a, b| b.reference_rate().total_cmp(&a.reference_rate()));
        let fast = &self.done[..rounds.div_ceil(2)];
        let work: f64 = fast.iter().map(|r| r.work).sum();
        let wall: f64 = fast.iter().map(|r| r.wall).sum();
        let reference_wall: f64 = fast.iter().map(|r| r.wall / r.slowdown).sum();
        let mut latency: Vec<f64> = fast
            .iter()
            .flat_map(|r| r.latency_ms.iter().map(|ms| ms / r.slowdown))
            .collect();
        Estimate {
            throughput: work / reference_wall,
            p50_ms: quantile(&mut latency, 0.5),
            tail_ms: quantile(&mut latency, tail),
            raw_throughput: work / wall,
            calibration_ms: median(&mut calibration),
            rounds,
            ops: latency.len(),
        }
    }
}
