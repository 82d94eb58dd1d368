//! Minimal timing harness replacing Criterion for the `harness = false`
//! bench targets.
//!
//! Each experiment binary builds a [`Harness`], registers benchmarks
//! with [`Harness::bench`], and calls [`Harness::finish`], which prints
//! a human-readable table to stderr and writes machine-readable timings
//! to `BENCH_<experiment>.json` (under `target/` by default, or
//! `$BENCH_OUT_DIR`). Sample counts can be overridden globally with
//! `$BENCH_SAMPLES`, which CI uses to keep bench runs short.
//!
//! Methodology: per benchmark, a few warm-up iterations followed by
//! `sample_size` timed iterations; the table reports min / median /
//! mean seconds and derived throughput. `std::hint::black_box` guards
//! the closure result so the optimizer cannot elide the measured work.

use cocci_trace::json::{self, Str};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Units for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// No throughput line, only times.
    None,
    /// Input size in bytes per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

struct Record {
    group: String,
    id: String,
    throughput: Throughput,
    samples_s: Vec<f64>,
}

struct Metric {
    group: String,
    id: String,
    value: f64,
}

impl Record {
    fn min(&self) -> f64 {
        self.samples_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn mean(&self) -> f64 {
        self.samples_s.iter().sum::<f64>() / self.samples_s.len() as f64
    }

    fn median(&self) -> f64 {
        let mut s = self.samples_s.clone();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        }
    }
}

/// Collects timed benchmarks for one experiment and emits the report.
pub struct Harness {
    experiment: String,
    sample_size: usize,
    warmup: usize,
    out_dir: PathBuf,
    records: Vec<Record>,
    metrics: Vec<Metric>,
}

impl Harness {
    /// A harness for `experiment` (names the output file). Sample size
    /// defaults to 10, overridable per-experiment with
    /// [`Harness::sample_size`] and globally with `$BENCH_SAMPLES`.
    pub fn new(experiment: &str) -> Self {
        // `cargo bench` runs the binary with cwd = the package root, so
        // a relative "target" would land in crates/bench/. The workspace
        // target dir is where the bench executable itself lives
        // (target/release/deps/<bench>), so derive it from there unless
        // `$BENCH_OUT_DIR` overrides.
        let out_dir = std::env::var_os("BENCH_OUT_DIR")
            .map(PathBuf::from)
            .or_else(|| {
                std::env::current_exe()
                    .ok()?
                    .ancestors()
                    .nth(3)
                    .map(PathBuf::from)
            })
            .unwrap_or_else(|| PathBuf::from("target"));
        Harness {
            experiment: experiment.to_string(),
            sample_size: 10,
            warmup: 2,
            out_dir,
            records: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Record a scalar, non-timed metric under `group/id` (a hit rate, a
    /// count, a ratio). Metrics land in the JSON next to the timing
    /// records so trend tracking sees them too.
    pub fn metric(&mut self, group: &str, id: &str, value: f64) {
        self.metrics.push(Metric {
            group: group.to_string(),
            id: id.to_string(),
            value,
        });
    }

    /// Best-of-samples seconds of an already-recorded benchmark. Noise
    /// on a loaded builder is one-sided (interference only ever slows a
    /// sample down), so the minimum is the steadiest basis for tight
    /// ratio gates like the tracing-overhead budget.
    pub fn min_s(&self, group: &str, id: &str) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.group == group && r.id == id)
            .map(Record::min)
    }

    /// Set the per-benchmark sample count (unless `$BENCH_SAMPLES`
    /// overrides it at run time).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Redirect the JSON report (used by tests; production runs use
    /// `$BENCH_OUT_DIR` or `target/`).
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = dir.into();
        self
    }

    fn effective_samples(&self) -> usize {
        std::env::var("BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(self.sample_size)
    }

    /// Time `f` and record it under `group/id`.
    pub fn bench<R>(
        &mut self,
        group: &str,
        id: &str,
        throughput: Throughput,
        mut f: impl FnMut() -> R,
    ) {
        let samples = self.effective_samples();
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut samples_s = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            black_box(f());
            samples_s.push(t0.elapsed().as_secs_f64());
        }
        self.records.push(Record {
            group: group.to_string(),
            id: id.to_string(),
            throughput,
            samples_s,
        });
    }

    /// Print the table and write `BENCH_<experiment>.json`. Returns the
    /// JSON path.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        // Every experiment records its memory high-water mark alongside
        // the timings (0 on platforms without /proc).
        self.metrics.push(Metric {
            group: "process".to_string(),
            id: "peak_rss_bytes".to_string(),
            value: peak_rss_bytes() as f64,
        });
        eprintln!(
            "\n{} ({} samples/benchmark):",
            self.experiment,
            self.effective_samples()
        );
        eprintln!(
            "{:<18} {:<12} {:>12} {:>12} {:>12}  throughput",
            "group", "id", "min", "median", "mean"
        );
        for r in &self.records {
            let tp = match r.throughput {
                Throughput::None => String::new(),
                Throughput::Bytes(b) => {
                    format!("{:.1} MiB/s", b as f64 / r.median() / (1024.0 * 1024.0))
                }
                Throughput::Elements(n) => format!("{:.3e} elem/s", n as f64 / r.median()),
            };
            eprintln!(
                "{:<18} {:<12} {:>12} {:>12} {:>12}  {}",
                r.group,
                r.id,
                fmt_secs(r.min()),
                fmt_secs(r.median()),
                fmt_secs(r.mean()),
                tp
            );
        }

        for m in &self.metrics {
            eprintln!("{:<18} {:<12} {:>38.4}  (metric)", m.group, m.id, m.value);
        }

        let path = self.out_dir.join(format!("BENCH_{}.json", self.experiment));
        std::fs::create_dir_all(&self.out_dir)?;
        std::fs::write(&path, self.to_json())?;
        eprintln!("wrote {}", path.display());
        Ok(path)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"experiment\": {},\n  \"sample_size\": {},\n  \"results\": [",
            Str(&self.experiment),
            self.effective_samples()
        );
        json::join(&mut out, ",", &self.records, |out, r| {
            let _ = write!(
                out,
                "\n    {{\"group\": {}, \"id\": {}, ",
                Str(&r.group),
                Str(&r.id)
            );
            match r.throughput {
                Throughput::None => {}
                Throughput::Bytes(b) => {
                    let _ = write!(out, "\"bytes\": {b}, ");
                }
                Throughput::Elements(n) => {
                    let _ = write!(out, "\"elements\": {n}, ");
                }
            }
            let _ = write!(
                out,
                "\"min_s\": {:e}, \"median_s\": {:e}, \"mean_s\": {:e}, \"samples_s\": [",
                r.min(),
                r.median(),
                r.mean()
            );
            json::join(out, ", ", &r.samples_s, |out, s| {
                let _ = write!(out, "{s:e}");
            });
            out.push_str("]}");
        });
        out.push_str("\n  ],\n  \"metrics\": [");
        json::join(&mut out, ",", &self.metrics, |out, m| {
            let _ = write!(
                out,
                "\n    {{\"group\": {}, \"id\": {}, \"value\": {:e}}}",
                Str(&m.group),
                Str(&m.id),
                m.value
            );
        });
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where the proc filesystem is unavailable.
/// A high-water mark, not a point sample: it covers everything the
/// process has done so far, which for a bench binary is exactly the
/// "how much memory did this experiment need" question.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_samples_and_writes_json() {
        let dir = std::env::temp_dir().join(format!("cocci-bench-{}", std::process::id()));
        let mut h = Harness::new("selftest").sample_size(3).out_dir(&dir);
        let mut runs = 0u64;
        h.bench("g", "work", Throughput::Bytes(1024), || {
            runs += 1;
            runs
        });
        h.metric("g", "hit_rate", 0.75);
        assert!(runs >= 3, "warmup + samples ran");
        let path = h.finish().unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"experiment\": \"selftest\""));
        assert!(json.contains("\"group\": \"g\""));
        assert!(json.contains("\"bytes\": 1024"));
        assert!(json.contains("\"median_s\""));
        assert!(json.contains("\"id\": \"hit_rate\""));
        assert!(json.contains("\"value\": 7.5e-1"));
        assert!(json.contains("\"id\": \"peak_rss_bytes\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peak_rss_is_sane() {
        let rss = peak_rss_bytes();
        // On Linux this is at least a few pages; elsewhere it is 0.
        if cfg!(target_os = "linux") {
            assert!(rss > 4096, "VmHWM should exceed a page, got {rss}");
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        let r = Record {
            group: String::new(),
            id: String::new(),
            throughput: Throughput::None,
            samples_s: vec![3.0, 1.0, 2.0],
        };
        assert_eq!(r.median(), 2.0);
        let r2 = Record {
            samples_s: vec![4.0, 1.0, 2.0, 3.0],
            ..r
        };
        assert_eq!(r2.median(), 2.5);
        assert_eq!(r2.min(), 1.0);
        assert_eq!(r2.mean(), 2.5);
    }

    /// The `BENCH_*.json` text, byte for byte: ci.sh reads gate values
    /// out of it by exact spacing. One record per throughput kind and
    /// one metric; the sample count is whatever `$BENCH_SAMPLES` makes it.
    #[test]
    fn bench_json_bytes_are_pinned() {
        let mut h = Harness::new("pin\"x");
        for (id, throughput, samples_s) in [
            ("plain", Throughput::None, vec![2.0, 1.0]),
            ("bytes", Throughput::Bytes(4096), vec![0.25]),
            ("elems", Throughput::Elements(12), vec![3e-6, 1e-6, 2e-6]),
        ] {
            h.records.push(Record {
                group: "g\\1".into(),
                id: id.into(),
                throughput,
                samples_s,
            });
        }
        h.metric("gate", "cost_ratio", 1.375);
        let expect = format!(
            r#"{{
  "experiment": "pin\"x",
  "sample_size": {},
  "results": [
    {{"group": "g\\1", "id": "plain", "min_s": 1e0, "median_s": 1.5e0, "mean_s": 1.5e0, "samples_s": [2e0, 1e0]}},
    {{"group": "g\\1", "id": "bytes", "bytes": 4096, "min_s": 2.5e-1, "median_s": 2.5e-1, "mean_s": 2.5e-1, "samples_s": [2.5e-1]}},
    {{"group": "g\\1", "id": "elems", "elements": 12, "min_s": 1e-6, "median_s": 2e-6, "mean_s": 2e-6, "samples_s": [3e-6, 1e-6, 2e-6]}}
  ],
  "metrics": [
    {{"group": "gate", "id": "cost_ratio", "value": 1.375e0}}
  ]
}}
"#,
            h.effective_samples()
        );
        assert_eq!(h.to_json(), expect);
    }
}
