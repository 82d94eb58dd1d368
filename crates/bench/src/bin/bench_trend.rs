//! `bench_trend` — compare a fresh `BENCH_*.json` against the previous
//! run's artifact and fail (exit 1) when any benchmark's best-of-samples
//! wall-clock regressed beyond the threshold.
//!
//! ```text
//! bench_trend <baseline.json> <current.json> [max-regression-pct]
//! ```
//!
//! The default threshold is 25%. Exit codes: 0 = within budget,
//! 1 = confirmed regression, 2 = usage/threshold error, 3 = baseline
//! unreadable (ci.sh reseeds), 4 = fresh artifact unreadable. `ci.sh`
//! runs this after every bench smoke, keeping the last artifact as the
//! rolling baseline.

use cocci_bench::trend;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, current_path) = match (args.first(), args.get(1)) {
        (Some(b), Some(c)) => (b, c),
        _ => {
            eprintln!("usage: bench_trend <baseline.json> <current.json> [max-regression-pct]");
            return ExitCode::from(2);
        }
    };
    let max_pct: f64 = match args.get(2).map(|s| s.parse()) {
        None => 25.0,
        Some(Ok(p)) => p,
        Some(Err(_)) => {
            eprintln!("bench_trend: bad threshold {:?}", args[2]);
            return ExitCode::from(2);
        }
    };

    let read = |path: &str| -> Result<Vec<trend::TrendEntry>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        trend::read_timings(&text).map_err(|e| format!("{path}: {e}"))
    };
    // Distinct exit codes so callers can tell "bad baseline — reseed"
    // (3) from "bad fresh artifact or configuration — fail" (2/4).
    let baseline = match read(baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_trend: {e}");
            return ExitCode::from(3);
        }
    };
    let current = match read(current_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_trend: {e}");
            return ExitCode::from(4);
        }
    };

    let regressions = trend::compare(&baseline, &current, max_pct / 100.0);
    if regressions.is_empty() {
        eprintln!(
            "bench_trend: {} benchmark(s) within the {max_pct}% budget vs {baseline_path}",
            current.len()
        );
        return ExitCode::SUCCESS;
    }
    for r in &regressions {
        eprintln!(
            "bench_trend: REGRESSION {}/{}: {:.3e}s -> {:.3e}s (+{:.1}%, budget {max_pct}%)",
            r.group,
            r.id,
            r.baseline_s,
            r.current_s,
            r.slowdown_pct()
        );
    }
    ExitCode::FAILURE
}
