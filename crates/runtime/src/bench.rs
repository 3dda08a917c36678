//! A minimal benchmark harness in the shape of Criterion.
//!
//! Bench targets are built with `harness = false` and a `main` generated
//! by [`bench_main!`]; each registered function receives a [`Criterion`]
//! and registers groups and benchmarks exactly as it would with the real
//! Criterion — only the import line differs. Per benchmark the harness
//! warms up, estimates the iteration cost, then records
//! `sample_size` timed samples and reports the median with MAD and SIQR
//! (the same robust statistics the repro harness prints for synthesis
//! runs).
//!
//! Extras over a plain loop:
//! * a positional CLI argument filters benchmarks by substring
//!   (`cargo bench -p cso-bench --bench micro -- bigint`);
//! * `CSO_BENCH_CSV=<dir>` appends one CSV row per benchmark to
//!   `<dir>/bench.csv` for machine-readable tracking.
//!
//! [`Provenance`] stamps result files written elsewhere (the perf ledger,
//! `cso-serve --bench`) with the environment they were recorded in.

use std::fmt;
use std::time::{Duration, Instant};

/// Where a benchmark result came from: enough environment identity to
/// tell whether two result files are comparable. Every field falls back
/// to `"unknown"` when it cannot be determined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
    pub git_sha: String,
    /// `std::thread::available_parallelism()` on the recording host.
    pub host_cores: String,
    /// Worker thread count the workload ran with (workload-specific;
    /// `"unknown"` for the micro-bench harness, stamped by `cso-serve`).
    pub threads: String,
    /// Sorted `NAME=value` list of every `CSO_*` environment variable
    /// set at record time (configuration that changes what is measured).
    pub flags: String,
}

impl Provenance {
    /// Capture the current process environment.
    #[must_use]
    pub fn capture() -> Provenance {
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get().to_string())
            .unwrap_or_else(|_| "unknown".to_owned());
        let mut flags: Vec<String> = std::env::vars()
            .filter(|(k, _)| {
                // An output destination doesn't change what is measured.
                k.starts_with("CSO_") && k != "CSO_BENCH_CSV"
            })
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        flags.sort();
        let flags = if flags.is_empty() { "none".to_owned() } else { flags.join(",") };
        Provenance { git_sha, host_cores, threads: "unknown".to_owned(), flags }
    }

    /// Render as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_sha\": \"{}\", \"host_cores\": \"{}\", \"threads\": \"{}\", \
             \"flags\": \"{}\"}}",
            json_escape(&self.git_sha),
            json_escape(&self.host_cores),
            json_escape(&self.threads),
            json_escape(&self.flags)
        )
    }
}

/// Top-level harness state: CLI filter and CSV sink.
pub struct Criterion {
    filter: Option<String>,
    csv: Option<std::path::PathBuf>,
    rows: Vec<CsvRow>,
}

struct CsvRow {
    group: String,
    name: String,
    median_ns: f64,
    mad_ns: f64,
    siqr_ns: f64,
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // Ignore harness flags cargo passes (e.g. `--bench`); the first
        // positional argument is a substring filter.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let csv = std::env::var_os("CSO_BENCH_CSV").map(std::path::PathBuf::from);
        Criterion { filter, csv, rows: Vec::new() }
    }
}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("{name}");
        BenchmarkGroup {
            parent: self,
            name: name.to_owned(),
            sample_size: 20,
            warm_up_time: Duration::from_millis(500),
            measurement_time: Duration::from_secs(3),
        }
    }

    /// Flush CSV rows (called by [`bench_main!`] after all groups ran).
    pub fn final_summary(&mut self) {
        let Some(dir) = &self.csv else { return };
        if self.rows.is_empty() {
            return;
        }
        let path = dir.join("bench.csv");
        let mut out = String::new();
        if !path.exists() {
            out.push_str("group,benchmark,median_ns,mad_ns,siqr_ns,samples\n");
        }
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                r.group, r.name, r.median_ns, r.mad_ns, r.siqr_ns, r.samples
            ));
        }
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
            use std::io::Write as _;
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| f.write_all(out.as_bytes()))
        }) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
    }
}

/// Escape `s` for the inside of a JSON string, by the trace encoder's
/// rules (quote, backslash and every control character).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    crate::trace::escape_into(&mut out, s);
    out
}

/// Identifier for a parameterized benchmark, mirroring Criterion's.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    #[must_use]
    pub fn new(function_name: &str, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId { id: format!("{function_name}/{parameter}") }
    }
}

/// A group of related benchmarks sharing tuning.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples to record (≥ 2 enforced).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run a benchmark.
    pub fn bench_function<F>(&mut self, name: impl fmt::Display, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(&name.to_string(), &mut f);
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run_one(&id.id, &mut |b| f(b, input));
    }

    fn run_one(&mut self, name: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let full = format!("{}/{name}", self.name);
        if let Some(filter) = &self.parent.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        let stats = SampleStats::of(&b.samples_ns);
        println!(
            "  {:<40} {:>12}  (MAD {}, SIQR {}, {} samples)",
            name,
            format_ns(stats.median),
            format_ns(stats.mad),
            format_ns(stats.siqr),
            b.samples_ns.len(),
        );
        self.parent.rows.push(CsvRow {
            group: self.name.clone(),
            name: name.to_owned(),
            median_ns: stats.median,
            mad_ns: stats.mad,
            siqr_ns: stats.siqr,
            samples: b.samples_ns.len(),
        });
    }

    /// Close the group (kept for API parity; printing is incremental).
    pub fn finish(self) {
        println!();
    }
}

/// Runs and times one benchmark body.
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Measure `routine`: warm up, pick an iteration count per sample so
    /// the whole measurement lands near `measurement_time`, then record
    /// per-iteration nanoseconds for each sample.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warmup + cost estimate.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            std::hint::black_box(routine());
            warm_iters += 1;
            // A single slow iteration (seconds) should not loop for the
            // full warmup budget.
            if warm_iters >= 1 && warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let est_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        let per_sample_budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((per_sample_budget / est_iter.max(1e-9)) as u64).max(1);

        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(routine());
            }
            let ns = t0.elapsed().as_nanos() as f64 / iters_per_sample as f64;
            self.samples_ns.push(ns);
        }
    }
}

/// Robust summary of a sample: median, MAD and SIQR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Median of the samples.
    pub median: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// Semi-interquartile range `(Q3 - Q1) / 2`.
    pub siqr: f64,
}

impl SampleStats {
    /// Summarize; zeros for an empty sample.
    #[must_use]
    pub fn of(samples: &[f64]) -> SampleStats {
        if samples.is_empty() {
            return SampleStats { median: 0.0, mad: 0.0, siqr: 0.0 };
        }
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
        let median = quantile(&v, 0.5);
        let mut dev: Vec<f64> = v.iter().map(|x| (x - median).abs()).collect();
        dev.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
        let mad = quantile(&dev, 0.5);
        let siqr = (quantile(&v, 0.75) - quantile(&v, 0.25)) / 2.0;
        SampleStats { median, mad, siqr }
    }
}

/// Linear-interpolation quantile of a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Generate `fn main()` running each listed `fn(&mut Criterion)`.
#[macro_export]
macro_rules! bench_main {
    ($($f:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::bench::Criterion::default();
            $($f(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_sample() {
        // 1..=9: median 5, Q1 3, Q3 7, SIQR 2, MAD 2.
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = SampleStats::of(&v);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.siqr, 2.0);
        assert_eq!(s.mad, 2.0);
    }

    #[test]
    fn stats_of_empty_and_singleton() {
        assert_eq!(SampleStats::of(&[]).median, 0.0);
        let s = SampleStats::of(&[4.2]);
        assert_eq!((s.median, s.mad, s.siqr), (4.2, 0.0, 0.0));
    }

    #[test]
    fn bencher_records_samples() {
        let mut b = Bencher {
            sample_size: 5,
            warm_up_time: Duration::from_millis(1),
            measurement_time: Duration::from_millis(5),
            samples_ns: Vec::new(),
        };
        let mut count = 0u64;
        b.iter(|| {
            count += 1;
            std::hint::black_box(count)
        });
        assert_eq!(b.samples_ns.len(), 5);
        assert!(b.samples_ns.iter().all(|&ns| ns >= 0.0));
        assert!(count > 5, "routine actually ran: {count}");
    }

    #[test]
    fn benchmark_ids_render() {
        assert_eq!(BenchmarkId::new("f", 3).id, "f/3");
    }

    #[test]
    fn provenance_json_escapes_control_characters() {
        let p = Provenance {
            git_sha: "abc1234".to_owned(),
            host_cores: "2".to_owned(),
            threads: "1".to_owned(),
            flags: "CSO_LINT=warn\tx,CSO_X=a\nb\"c\\d".to_owned(),
        };
        let json = p.to_json();
        assert!(!json.chars().any(|c| c < ' '), "raw control character in {json:?}");
        assert!(json.ends_with(r#""flags": "CSO_LINT=warn\tx,CSO_X=a\nb\"c\\d"}"#), "{json}");
    }

    #[test]
    fn format_ns_scales() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("µs"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(12_000_000_000.0).ends_with('s'));
    }
}
