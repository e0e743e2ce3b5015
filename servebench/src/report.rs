//! Process counters from `/proc`, order statistics, and the result line.

use std::fmt::Write as _;

/// Process user + system CPU in seconds, from `/proc/self/stat` (fields 14
/// and 15, in 1/100 s ticks). It includes threads that have exited, which
/// matters: the federated executor spawns threads for every request.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    let after = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Log-linear latency histogram in nanoseconds: 64 buckets per power of
/// two (each at most 1/64 of its value wide), fixed memory. The load
/// generator records into these instead of keeping every sample, so its
/// own memory — part of `peak_rss_mb` — does not grow with throughput.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

const SUB: usize = 64;
const HIST_BUCKETS: usize = 36 * SUB;

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros() as usize;
        let m = (ns >> (e - 6)) as usize & (SUB - 1);
        ((e - 5) * SUB + m).min(HIST_BUCKETS - 1)
    }

    /// Lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let (e, m) = (i / SUB + 5, i % SUB);
        let width = (1u64 << (e - 6)) as f64;
        ((SUB + m) as f64 * width, width)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Hist::index(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile, placed linearly inside its bucket by rank.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if below + c >= rank {
                let (lo, width) = Hist::bucket(i);
                return lo + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank is at most the sample count")
    }
}

pub fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// Nearest-rank quantile of a sorted slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The human-readable table, then the result object as the last line.
pub fn emit(metrics: &[Metric], attempted: u64, failed: u64, correct: bool) {
    for m in metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let share = failed as f64 / attempted.max(1) as f64;
    println!(
        "{:<36} {:>16} of {attempted} attempted ({:.4}%)",
        "failed",
        failed,
        share * 100.0
    );
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
}
