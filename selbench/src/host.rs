//! Host-speed calibration of every end-to-end timing.
//!
//! The benchmark is sized for a 2-vCPU virtual machine on a shared host,
//! whose speed moves with other tenants' load. Allocation- and cache-heavy
//! code, which the simulator is, flips between speeds that differ by up to
//! 1.7× for stretches from a fraction of a second to minutes, while a
//! register-only loop keeps its speed (so it is not the clock). Two sets of
//! runs of the same code a few minutes apart read medians a third apart,
//! and no statistic over one run removes that.
//!
//! So each timed unit of work (a set-up, one engine request, one pass of
//! client requests) is bracketed by runs of a fixed kernel that belongs to
//! the benchmark, and its time is divided by the host's speed over the unit:
//! the mean of the kernel's time just before and just after it, over
//! [`REF_MS`]. No change to the simulator moves the kernel. It does the
//! kinds of work the simulator does — small allocations into hash maps,
//! vectors and strings, and a set-associative cache model with LRU
//! replacement over a seeded address stream on an 8 MiB array — so it
//! speeds up and slows down with the host about as the simulator does.
//!
//! A calibrated time is in reference-host units: what the unit would have
//! taken with the kernel at [`REF_MS`]. Every run also prints its raw times
//! and the host factors it measured.

use crate::util::median;
use std::collections::HashMap;
use std::time::Instant;

/// The kernel's median time, in ms, on the 2-vCPU Xeon (Sapphire Rapids)
/// the benchmark was sized on (336 readings over both states: quartiles
/// 21.4 and 27.9 ms).
pub const REF_MS: f64 = 25.0;

/// Rounds of the allocation part and steps of the cache-model part of one
/// kernel run.
const ALLOC_ROUNDS: u64 = 40;
const CACHE_STEPS: usize = 100_000;
/// Words of the array the cache model reads and writes (8 MiB).
const IMAGE_WORDS: usize = 1 << 20;

/// The calibration kernel and the factors it has measured.
pub struct Host {
    image: Vec<u64>,
    /// The kernel time that closed the previous unit, ms; the next unit's
    /// opening time.
    last_ms: f64,
    /// Host factor (kernel time / `REF_MS`) of every unit timed so far.
    factors: Vec<f64>,
    /// Raw and calibrated seconds of every unit timed so far.
    raw_s: f64,
    calibrated_s: f64,
}

/// One timed unit.
pub struct Timed<R> {
    pub value: R,
    pub raw_s: f64,
    /// The raw time divided by the host factor over the unit.
    pub s: f64,
}

impl Host {
    pub fn new() -> Host {
        let mut host = Host {
            image: vec![0; IMAGE_WORDS],
            last_ms: 0.0,
            factors: Vec::new(),
            raw_s: 0.0,
            calibrated_s: 0.0,
        };
        // Fault the array in and warm the allocator before the first
        // reading counts.
        host.kernel_ms();
        host.last_ms = host.kernel_ms();
        host
    }

    /// Runs `f` as one unit between two kernel runs.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> Timed<R> {
        let before = self.last_ms;
        let t = Instant::now();
        let value = f();
        let raw_s = t.elapsed().as_secs_f64();
        self.last_ms = self.kernel_ms();
        let factor = (before + self.last_ms) / 2.0 / REF_MS;
        self.factors.push(factor);
        self.raw_s += raw_s;
        self.calibrated_s += raw_s / factor;
        Timed { value, raw_s, s: raw_s / factor }
    }

    /// Median host factor of the units timed so far (1 when none were).
    fn median_factor(&self) -> f64 {
        if self.factors.is_empty() {
            1.0
        } else {
            median(&self.factors)
        }
    }

    /// A header line: the factors measured and raw against calibrated time.
    pub fn describe(&self) -> String {
        let lo = self.factors.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = self.factors.iter().cloned().fold(0.0, f64::max);
        format!(
            "{} units, host factor median {:.3} (min {lo:.3}, max {hi:.3}; kernel reference {REF_MS} ms); \
raw {:.3} s = calibrated {:.3} s",
            self.factors.len(),
            self.median_factor(),
            self.raw_s,
            self.calibrated_s
        )
    }

    /// One run of the kernel, ms. The work is the same on every call.
    fn kernel_ms(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(alloc_work());
        std::hint::black_box(cache_model(&mut self.image));
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Small allocations: a hash map of vectors and a sorted vector of
/// strings, built and dropped `ALLOC_ROUNDS` times.
fn alloc_work() -> usize {
    let mut total = 0;
    for round in 0..ALLOC_ROUNDS {
        let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
        for i in 0..2000u64 {
            map.entry((i * 7919 + round) % 1500).or_default().push(i as u32);
        }
        let mut names: Vec<String> = (0..500).map(|i| format!("op{}", (i * 31) % 500)).collect();
        names.sort();
        total += map.len() + names.len();
    }
    total
}

/// A two-level set-associative cache with LRU replacement.
struct Cache {
    ways: usize,
    set_mask: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    now: u64,
}

impl Cache {
    fn new(bytes: usize, ways: usize) -> Cache {
        let lines = bytes / 64;
        Cache {
            ways,
            set_mask: lines / ways - 1,
            tags: vec![u64::MAX; lines],
            stamps: vec![0; lines],
            now: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.now += 1;
        let line = addr >> 6;
        let base = (line as usize & self.set_mask) * self.ways;
        let (mut victim, mut oldest) = (base, u64::MAX);
        for w in base..base + self.ways {
            if self.tags[w] == line {
                self.stamps[w] = self.now;
                return true;
            }
            if self.stamps[w] < oldest {
                (victim, oldest) = (w, self.stamps[w]);
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.now;
        false
    }
}

/// `CACHE_STEPS` accesses, a quarter random and the rest short strides,
/// through a 32 KiB L1 and a 1 MiB L2 model, each also updating the array.
fn cache_model(image: &mut [u64]) -> u64 {
    image.fill(1);
    let (mut l1, mut l2) = (Cache::new(32 << 10, 8), Cache::new(1 << 20, 16));
    let n = image.len() as u64;
    let (mut s, mut stride, mut cost) = (0x9e37_79b9_7f4a_7c15u64, 0u64, 0u64);
    for i in 0..CACHE_STEPS as u64 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let idx = if s & 3 == 0 {
            s % n
        } else {
            stride = (stride + 1 + (i & 7)) % n;
            stride
        };
        if !l1.access(idx * 8) {
            cost += if l2.access(idx * 8) { 1 } else { 4 };
        }
        let word = &mut image[idx as usize];
        *word = word.wrapping_add(cost);
        if *word & 1 == 1 {
            cost ^= s & 0xff;
        }
    }
    cost
}
