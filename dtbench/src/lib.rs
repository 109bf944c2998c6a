//! End-to-end and per-layer benchmark of the DebugTuner reproduction.
//!
//! Three workloads drive the repository's crates through their public
//! APIs, from outside, in one process:
//!
//! * [`rank`] — the tuner's core loop: one single-threaded
//!   [`debugtuner::DebugTuner`] evaluates every suite program at every
//!   tuned personality/level, then ranks the passes of each level;
//! * [`spec`] — speed of candidate `Ox-dy` levels: nested pass gates
//!   measured with [`debugtuner::measure_speedup`] on the `ref`
//!   workload;
//! * [`campaign`] — a cold, single-worker run of the whole experiment
//!   DAG into a fresh results directory.
//!
//! A workload runs in *rounds*: a timed set-up followed by a fixed
//! amount of work (its *ops*). Every op's output is checked against a
//! digest pinned in `pinned.txt`; traced rounds re-drive the same public
//! call sequence with a timer around each crate call and must reproduce
//! the untraced digests. Times of `rank` and `spec` are corrected for the
//! machine's speed by [`Calibration`]. `DESIGN.md` next to this file lists
//! the metrics, which layer metric should move which end-to-end metric,
//! and why each workload exists.

pub mod campaign;
pub mod rank;
pub mod spec;

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// FNV-1a over `bytes`: the digest every output check compares.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Digest of a value's JSON form (floats print shortest-round-trip, so
/// equal digests mean bit-equal values).
pub fn json_digest<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    fnv(serde_json::to_string(value)
        .expect("benchmark outputs serialize")
        .as_bytes())
}

/// SplitMix64: a small deterministic generator for seed-derived inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Output digests pinned with the benchmark (`pinned.txt`: one
/// `<key> <hex digest>` per line). Regenerate with `--pin` only when a
/// change deliberately alters results.
pub struct Pinned(HashMap<String, u64>);

impl Pinned {
    pub fn parse(text: &str) -> Self {
        let map = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (key, hex) = l.rsplit_once(' ').expect("pinned line is `<key> <hex>`");
                let digest = u64::from_str_radix(hex, 16).expect("pinned digest is hex");
                (key.to_string(), digest)
            })
            .collect();
        Pinned(map)
    }

    /// The digests committed next to this benchmark.
    pub fn committed() -> Self {
        Self::parse(include_str!("../pinned.txt"))
    }

    /// `Ok` when `digest` equals the pinned value for `key`.
    pub fn check(&self, key: &str, digest: u64) -> Result<(), String> {
        match self.0.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!("{key}: digest {digest:016x}, pinned {want:016x}")),
            None => Err(format!("{key}: no pinned digest")),
        }
    }
}

/// Calibration-kernel time, in seconds, of the machine that reference
/// seconds refer to (about the median on the 2-vCPU VMs the benchmark was
/// tuned on, so reference and measured seconds are close there).
pub const REFERENCE_KERNEL_S: f64 = 0.017;

/// Machine-speed calibration.
///
/// On shared 2-vCPU VMs the same single-threaded work runs up to 1.6×
/// slower from one minute to the next, with CPU time tracking wall time,
/// so no amount of work inside one run averages the drift out. A fixed
/// allocation-churn kernel timed *on the working thread* between ops
/// moves with it: over 10-s windows its mean time correlated 0.98 with
/// `spec`-style VM runs and 0.99 with `rank`-style evaluations, and
/// dividing by it cut the spread of those windows from 0.25 to 0.02
/// (the same kernel on the other vCPU tracks far worse). Timed
/// end-to-end metrics are therefore reported in *reference seconds*:
/// measured seconds × [`REFERENCE_KERNEL_S`] / mean kernel time over the
/// samples taken around and during the measurement. The kernel is the
/// benchmark's own code and calls nothing in the repository.
///
/// A cold campaign cannot be interleaved with samples (its jobs run on
/// the engine's threads), and samples taken only around it made its
/// spread worse, so `campaign` uses [`Calibration::off`] and reports
/// measured seconds.
pub struct Calibration {
    enabled: bool,
    samples: Vec<f64>,
    last: Instant,
    /// Wall time spent inside the kernel, excluded from round walls.
    spent: Duration,
}

impl Calibration {
    /// Time between samples while a round runs (~6% of a run).
    const INTERVAL: Duration = Duration::from_millis(300);
    /// Samples taken right before and right after a measurement.
    const BRACKET: usize = 5;

    /// A calibration whose first (cold) kernel run is discarded.
    pub fn new() -> Self {
        let mut cal = Calibration {
            enabled: true,
            samples: Vec::new(),
            last: Instant::now(),
            spent: Duration::ZERO,
        };
        cal.sample();
        cal.samples.clear();
        cal
    }

    /// No samples; [`Self::factor`] is 1 (measured seconds).
    pub fn off() -> Self {
        Calibration {
            enabled: false,
            samples: Vec::new(),
            last: Instant::now(),
            spent: Duration::ZERO,
        }
    }

    /// Times the kernel once: small vectors allocated and freed the way
    /// the compiler's IR and the debugger's traces are.
    pub fn sample(&mut self) {
        if !self.enabled {
            return;
        }
        let start = Instant::now();
        let mut live: Vec<Vec<u64>> = Vec::new();
        for i in 0..500_000u64 {
            live.push(vec![i; (i % 13) as usize + 1]);
            if live.len() > 5000 {
                live.drain(..2500);
            }
        }
        black_box(&live);
        self.last = Instant::now();
        let took = self.last - start;
        self.spent += took;
        self.samples.push(took.as_secs_f64());
    }

    /// [`Self::BRACKET`] samples in a row.
    pub fn bracket(&mut self) {
        (0..Self::BRACKET).for_each(|_| self.sample());
    }

    /// Samples if [`Self::INTERVAL`] has passed since the last sample.
    /// Rounds call this between ops.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= Self::INTERVAL {
            self.sample();
        }
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Wall time spent in the kernel so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Reference seconds per measured second, from the samples `from..`
    /// (1 when calibration is off).
    pub fn factor(&self, from: usize) -> f64 {
        let s = &self.samples[from..];
        if s.is_empty() {
            return 1.0;
        }
        REFERENCE_KERNEL_S * s.len() as f64 / s.iter().sum::<f64>()
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

/// One completed op.
#[derive(Debug, Clone)]
pub struct Op {
    pub ms: f64,
    /// Why the op's output check failed, if it did.
    pub error: Option<String>,
}

/// Per-layer metrics of one traced round: busy time per crate call
/// (`*_ms`, summed) and work counts, by name.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    /// Runs `f`, adding its wall time in milliseconds to `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one round produced.
#[derive(Debug, Default)]
pub struct Round {
    pub ops: Vec<Op>,
    /// Output digest of every op, by op key (compared between the
    /// untraced and the traced round of a run).
    pub digests: BTreeMap<String, u64>,
    /// Per-layer metrics (traced rounds only).
    pub layers: Layers,
    /// Failed consistency checks that are not tied to one op.
    pub problems: Vec<String>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

/// Linear-interpolated percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
