//! Shared measurement plumbing: timing loops, order statistics, digests,
//! operation tallies, host facts and span-profile queries.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use obs::SpanProfile;

/// One named measurement with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Attempted and failed operations. An operation is a sweep point, a
/// training run, a decide or a fleet run; it fails when it panics or one
/// of its correctness checks fails.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records `n` operations, all failed when `failure` is set.
    pub fn ops(&mut self, n: u64, failure: Option<String>) {
        self.attempted += n;
        if let Some(why) = failure {
            self.failed += n;
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }

    /// Records `n` operations that fail exactly when `ok` is false.
    pub fn check(&mut self, n: u64, ok: bool, why: impl FnOnce() -> String) {
        self.ops(n, (!ok).then(why));
    }
}

/// Runs `op`, turning a panic into `None` so the caller can count it.
pub fn guarded<R>(op: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(op)).ok()
}

/// Calls `body(rep)` until at least `min_reps` repetitions ran and
/// `seconds` of host time elapsed.
pub fn repeat_for(seconds: f64, min_reps: usize, mut body: impl FnMut(usize)) {
    let start = Instant::now();
    let mut rep = 0;
    while rep < min_reps || start.elapsed().as_secs_f64() < seconds {
        body(rep);
        rep += 1;
    }
}

/// A set-up round lasts at least this long (back-to-back set-ups).
const SETUP_ROUND_S: f64 = 0.02;
/// Set-up rounds take this share of the run's host time.
const SETUP_SHARE: f64 = 0.1;
/// Fewest set-up timings behind `setup_s`.
const SETUP_MIN_ROUNDS: usize = 3;

/// Times a workload's set-up in rounds spread over the whole run: the
/// workload calls [`SetupSampler::pace`] between repetitions, which takes
/// rounds while they have used less than `SETUP_SHARE` of the host time
/// since the first set-up. The host alternates between fast and slow
/// phases lasting seconds, so rounds taken in one stretch all land in one
/// phase; spread over the run and read at the lower quartile, they reach
/// the fast phase whenever it holds for a quarter of the run, as the
/// fastest repetition of the work does.
pub struct SetupSampler<'a> {
    /// One set-up: its host seconds and the digest of what it built
    /// (taken outside the timing).
    once: Box<dyn Fn() -> (f64, u64) + 'a>,
    expected: u64,
    per_round: usize,
    start: Instant,
    spent: f64,
    rounds: Vec<f64>,
    same: bool,
}

impl<'a> SetupSampler<'a> {
    /// Starts from the set-up that built the run's state, which took
    /// `first_s` and built inputs digested as `expected`.
    pub fn new(first_s: f64, expected: u64, once: impl Fn() -> (f64, u64) + 'a) -> Self {
        SetupSampler {
            once: Box::new(once),
            expected,
            per_round: ((SETUP_ROUND_S / first_s).ceil() as usize).clamp(1, 1_000),
            start: Instant::now() - std::time::Duration::from_secs_f64(first_s),
            spent: first_s,
            rounds: vec![first_s],
            same: true,
        }
    }

    /// Takes one round; records its seconds per set-up.
    fn round(&mut self) {
        let start = Instant::now();
        let mut total = 0.0;
        for _ in 0..self.per_round {
            let (s, digest) = (self.once)();
            total += s;
            self.same &= digest == self.expected;
        }
        self.spent += start.elapsed().as_secs_f64();
        self.rounds.push(total / self.per_round as f64);
    }

    /// Takes rounds until they have used `SETUP_SHARE` of the host time
    /// since the first set-up.
    pub fn pace(&mut self) {
        while self.spent < SETUP_SHARE * self.start.elapsed().as_secs_f64() {
            self.round();
        }
    }

    /// The lower quartile of the rounds' seconds per set-up (taking
    /// rounds up to `SETUP_MIN_ROUNDS` first), and whether every set-up
    /// built the same inputs.
    pub fn finish(mut self) -> (f64, bool) {
        while self.rounds.len() < SETUP_MIN_ROUNDS {
            self.round();
        }
        self.rounds.sort_by(f64::total_cmp);
        (quantile(&self.rounds, 0.25), self.same)
    }
}

/// Host seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median of `values` (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The best of repeated throughput readings. Interference from other
/// work on the host only ever slows a repetition down, so the fastest of
/// several identical repetitions is the reading least disturbed by it.
pub fn best(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

/// The fastest of repeated timings of identical work, for the same reason
/// as [`best`].
pub fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile `q` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a 64-bit digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a value's JSON serialisation.
pub fn digest_json<T: serde::Serialize>(value: &T) -> u64 {
    let mut h = Fnv::default();
    h.bytes(
        serde_json::to_string(value)
            .expect("results serialise")
            .as_bytes(),
    );
    h.finish()
}

/// Peak resident set size in MiB (`VmHWM`), or 0 without `/proc`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next())
                .and_then(|n| n.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Facts about the machine and build every result is tied to.
#[derive(Debug, serde::Serialize)]
pub struct Host {
    pub available_parallelism: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Self {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".into(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Host {
            available_parallelism,
            cpu,
            rustc,
            commit: git_commit(),
        }
    }
}

/// The source tree's commit, read from `.git` without running git.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (source tree is not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Aggregate of every span path whose leaf is `name`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanSum {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sums the span paths ending in `name`.
pub fn span_sum(profile: &SpanProfile, name: &str) -> SpanSum {
    profile
        .spans
        .iter()
        .filter(|s| s.name == name)
        .fold(SpanSum::default(), |acc, s| SpanSum {
            calls: acc.calls + s.calls,
            total_ns: acc.total_ns + s.total_ns,
            self_ns: acc.self_ns + s.self_ns,
        })
}

/// Total nanoseconds of spans named `child` nested anywhere under a span
/// named `ancestor`.
pub fn nested_ns(profile: &SpanProfile, ancestor: &str, child: &str) -> u64 {
    profile
        .spans
        .iter()
        .filter(|s| s.name == child && s.path.split(';').any(|p| p == ancestor))
        // Count each child once: skip paths where `child` itself nests
        // under another `child`.
        .filter(|s| s.path.split(';').filter(|p| *p == child).count() == 1)
        .map(|s| s.total_ns)
        .sum()
}

/// Per-kind trace-event counts gathered by [`crate::probes::CountingSink`].
pub type KindCounts = BTreeMap<&'static str, u64>;
