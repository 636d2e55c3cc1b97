//! Statistics and process probes.

use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of sorted samples, linearly interpolated.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The highest percentile of the tail.  Requests on `table1-warm` take
/// 1 to 5 ms, and a shared 2-vCPU host takes a vCPU away for about 10 ms at
/// a time, often enough to delay about 1% of them: their p99 read the host's
/// scheduler and jumped from 5 to 15 ms between runs, while the p97 stayed
/// with the slowest Table 1 rows.
pub const TAIL_PERCENTILE: u32 = 97;

/// The highest percentile (at most [`TAIL_PERCENTILE`]) of a latency
/// sample that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub tail: f64,
    pub percentile: u32,
    pub samples: usize,
}

pub fn tail(latencies_ms: &[f64]) -> Tail {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut percentile = TAIL_PERCENTILE;
    while percentile > 50 && (n as f64) * (1.0 - f64::from(percentile) / 100.0) < 10.0 {
        percentile -= 1;
    }
    Tail {
        tail: quantile(&sorted, f64::from(percentile) / 100.0),
        percentile,
        samples: n,
    }
}

/// User plus system CPU time of process `pid` (`self` for this one).
pub fn cpu_time(pid: &str) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Blocks the timed phase is cut into.  The p50, rate and CPU figures are
/// medians over blocks, so a burst of load from outside the benchmark that
/// hits a few blocks moves them little.
pub const BLOCKS: u32 = 15;

/// Consecutive blocks that form one tail window.  The tail is the median
/// over windows of each window's tail: a window holds enough requests for
/// a high percentile (at 35 s, at least 300 on every workload), and the
/// median keeps a burst of load in one window out of it.
pub const TAIL_WINDOW: usize = 3;

/// The end-to-end figures of one timed run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup: Vec<Duration>,
    /// (completion time since the start of the timed phase, latency in ms)
    /// of every request.
    pub samples: Vec<(Duration, f64)>,
    /// (time since the start of the timed phase, CPU time of the verifying
    /// process) at the start and at each block boundary.
    pub cpu_marks: Vec<(Duration, Duration)>,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Records a CPU mark when `now` has crossed the next block boundary
    /// of a timed phase `seconds` long.
    pub fn mark(&mut self, now: Duration, seconds: Duration, cpu: impl FnOnce() -> Duration) {
        let boundary = seconds * self.cpu_marks.len() as u32 / BLOCKS;
        if self.cpu_marks.is_empty() || now >= boundary {
            self.cpu_marks.push((now, cpu()));
        }
    }

    /// Prints every end-to-end metric by name with its unit and returns
    /// them in the order of `BENCHMARK.json`.
    pub fn metrics(&self, attempted: usize, failed: usize) -> Metrics {
        let (mut p50s, mut rates, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
        let mut blocks = Vec::new();
        for pair in self.cpu_marks.windows(2) {
            let ((t0, c0), (t1, c1)) = (pair[0], pair[1]);
            let block: Vec<f64> = self
                .samples
                .iter()
                .filter(|(t, _)| *t > t0 && *t <= t1)
                .map(|(_, l)| *l)
                .collect();
            if block.is_empty() {
                continue;
            }
            p50s.push(median(&block));
            rates.push(block.len() as f64 / (t1 - t0).as_secs_f64());
            cpus.push(ms(c1.saturating_sub(c0)) / block.len() as f64);
            blocks.push(block);
        }
        let windows: Vec<Tail> = blocks
            .chunks(TAIL_WINDOW)
            .map(|window| tail(&window.concat()))
            .collect();
        let tails: Vec<f64> = windows.iter().map(|w| w.tail).collect();
        let show = |values: &[f64]| {
            values
                .iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("blocks: p50_ms [{}]", show(&p50s));
        println!("windows: tail_ms [{}]", show(&tails));
        println!("blocks: modules_per_s [{}]", show(&rates));
        println!("blocks: cpu_ms_per_module [{}]", show(&cpus));
        let setup: Vec<f64> = self.setup.iter().map(Duration::as_secs_f64).collect();
        let error_rate = failed as f64 / attempted.max(1) as f64;
        let percentiles: Vec<String> = windows
            .iter()
            .map(|w| format!("p{} of {}", w.percentile, w.samples))
            .collect();
        println!(
            "latency: {} samples in {} blocks and {} tail windows; each window's tail is its highest percentile with at least ten samples beyond it: {}",
            self.samples.len(),
            p50s.len(),
            windows.len(),
            percentiles.join(", ")
        );
        let mut all: Vec<f64> = self.samples.iter().map(|(_, l)| *l).collect();
        all.sort_by(f64::total_cmp);
        println!(
            "latency over the run: p90 {:.2} p95 {:.2} p97 {:.2} p98 {:.2} p99 {:.2} p99.9 {:.2} ms",
            quantile(&all, 0.90),
            quantile(&all, 0.95),
            quantile(&all, 0.97),
            quantile(&all, 0.98),
            quantile(&all, 0.99),
            quantile(&all, 0.999)
        );
        println!(
            "error_rate = {error_rate} ({failed} failed of {attempted} attempted); reported as success_ratio = 1 - error_rate"
        );
        let mut metrics = Metrics::default();
        metrics.push("setup_s", median(&setup), "s");
        metrics.push("latency_p50_ms", median(&p50s), "ms");
        metrics.push("latency_p97_ms", median(&tails), "ms");
        metrics.push("throughput_modules_per_s", median(&rates), "1/s");
        metrics.push("cpu_ms_per_module", median(&cpus), "ms");
        metrics.push("peak_rss_mb", self.peak_rss_mb, "MiB");
        metrics.push("success_ratio", 1.0 - error_rate, "ratio");
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).percentile, TAIL_PERCENTILE);
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        let small = tail(&two_hundred);
        assert_eq!(small.percentile, 95);
        assert!(two_hundred.iter().filter(|&&v| v > small.tail).count() >= 10);
    }
}
