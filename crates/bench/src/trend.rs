//! Bench trend comparison: detect wall-clock regressions between two
//! `BENCH_*.json` artifacts (the previous run's baseline and the fresh
//! run), so CI can fail instead of letting a hot path quietly rot.
//!
//! Only *timed* records are compared; scalar metrics (hit rates, match
//! counts) are informational trend data, not budgets. To keep the gate
//! honest on short-sample CI smoke runs (where any single statistic of
//! 3 samples can swing past 25% on scheduler noise alone), a benchmark
//! is flagged only when **both** its best-of-samples ("how fast can
//! this go" — the floor a genuine regression moves) *and* its median
//! exceed the budget. Benchmarks present in only one of the two files
//! are skipped — adding or retiring a benchmark is not a regression.

use cocci_trace::json::{self, Fields, Value};

/// The compared wall-clock statistic of one timed benchmark record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendEntry {
    /// Benchmark group (e.g. `flow_dots`).
    pub group: String,
    /// Benchmark id within the group (e.g. `linear`).
    pub id: String,
    /// Best (minimum) seconds over the run's samples — the
    /// noise-robust statistic the regression gate compares. Falls back
    /// to the median for artifacts without a `min_s` field.
    pub best_s: f64,
    /// Median seconds over the run's samples (equals `best_s` for
    /// artifacts without a `median_s` field).
    pub median_s: f64,
}

/// One benchmark whose fresh best-of-samples exceeded the allowed
/// regression.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Benchmark group.
    pub group: String,
    /// Benchmark id.
    pub id: String,
    /// Baseline best-of-samples seconds.
    pub baseline_s: f64,
    /// Fresh best-of-samples seconds.
    pub current_s: f64,
}

impl Regression {
    /// Slowdown as a percentage over baseline (e.g. `31.2`).
    pub fn slowdown_pct(&self) -> f64 {
        (self.current_s / self.baseline_s - 1.0) * 100.0
    }
}

/// Parse the timed records of a `BENCH_*.json` artifact.
pub fn read_timings(text: &str) -> Result<Vec<TrendEntry>, String> {
    let v = json::parse(text)?;
    let results = Fields::new(&v, "bench json")?.req("results", Value::as_array)?;
    results
        .iter()
        .map(|r| {
            let r = Fields::new(r, "bench json: result")?;
            let median_s = r.get("median_s").and_then(Value::as_f64);
            let best_s = (r.get("min_s").and_then(Value::as_f64))
                .or(median_s)
                .ok_or("bench json: result missing \"min_s\"/\"median_s\"")?;
            Ok(TrendEntry {
                group: r.str("group")?,
                id: r.str("id")?,
                best_s,
                median_s: median_s.unwrap_or(best_s),
            })
        })
        .collect()
}

/// Compare fresh timings against a baseline. A benchmark regresses when
/// both its fresh best-of-samples *and* its fresh median exceed
/// `(1 + max_regression)` times their baseline counterparts
/// (`max_regression = 0.25` is the CI default: fail on >25%).
/// Benchmarks missing from either side, and degenerate non-positive
/// baselines, are skipped.
pub fn compare(
    baseline: &[TrendEntry],
    current: &[TrendEntry],
    max_regression: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for cur in current {
        let Some(base) = baseline
            .iter()
            .find(|b| b.group == cur.group && b.id == cur.id)
        else {
            continue;
        };
        if base.best_s <= 0.0 || base.median_s <= 0.0 {
            continue;
        }
        if cur.best_s > base.best_s * (1.0 + max_regression)
            && cur.median_s > base.median_s * (1.0 + max_regression)
        {
            out.push(Regression {
                group: cur.group.clone(),
                id: cur.id.clone(),
                baseline_s: base.best_s,
                current_s: cur.best_s,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(entries: &[(&str, &str, f64)]) -> String {
        let mut out = String::from("{\"experiment\": \"t\", \"sample_size\": 3, \"results\": [");
        for (i, (g, id, m)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"group\": \"{g}\", \"id\": \"{id}\", \"min_s\": {m:e}, \"median_s\": {m:e}, \"mean_s\": {m:e}, \"samples_s\": [{m:e}]}}"
            ));
        }
        out.push_str("], \"metrics\": [{\"group\": \"m\", \"id\": \"x\", \"value\": 1e0}]}");
        out
    }

    #[test]
    fn reads_timings_from_harness_json() {
        let entries = read_timings(&bench_json(&[("g", "a", 0.5), ("g", "b", 1.0)])).unwrap();
        assert_eq!(entries.len(), 2, "metrics are not timed records");
        assert_eq!(entries[0].group, "g");
        assert_eq!(entries[0].id, "a");
        assert!((entries[0].best_s - 0.5).abs() < 1e-12);
        assert!(read_timings("{}").is_err());
        // Artifacts predating `min_s` fall back to the median.
        let legacy = r#"{"results": [{"group": "g", "id": "a", "median_s": 2e0}]}"#;
        assert!((read_timings(legacy).unwrap()[0].best_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flags_only_regressions_beyond_threshold() {
        let base = read_timings(&bench_json(&[("g", "a", 1.0), ("g", "b", 1.0)])).unwrap();
        // `a` regresses 50%, `b` improves; only `a` is flagged at 25%.
        let cur = read_timings(&bench_json(&[("g", "a", 1.5), ("g", "b", 0.8)])).unwrap();
        let regs = compare(&base, &cur, 0.25);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].id, "a");
        assert!((regs[0].slowdown_pct() - 50.0).abs() < 1e-9);
        // A 20% slip stays under the 25% budget.
        let cur = read_timings(&bench_json(&[("g", "a", 1.2)])).unwrap();
        assert!(compare(&base, &cur, 0.25).is_empty());
    }

    #[test]
    fn single_statistic_spikes_are_not_regressions() {
        // Noise that lifts the floor but not the median (or vice versa)
        // must not trip the gate — only a shift of both statistics is a
        // regression.
        let base = vec![TrendEntry {
            group: "g".into(),
            id: "a".into(),
            best_s: 1.0,
            median_s: 2.0,
        }];
        let min_spike = vec![TrendEntry {
            group: "g".into(),
            id: "a".into(),
            best_s: 1.5,
            median_s: 2.1,
        }];
        assert!(compare(&base, &min_spike, 0.25).is_empty());
        let median_spike = vec![TrendEntry {
            group: "g".into(),
            id: "a".into(),
            best_s: 1.1,
            median_s: 3.0,
        }];
        assert!(compare(&base, &median_spike, 0.25).is_empty());
        let both = vec![TrendEntry {
            group: "g".into(),
            id: "a".into(),
            best_s: 1.5,
            median_s: 3.0,
        }];
        assert_eq!(compare(&base, &both, 0.25).len(), 1);
    }

    #[test]
    fn new_and_retired_benchmarks_are_not_regressions() {
        let base = read_timings(&bench_json(&[("g", "old", 1.0)])).unwrap();
        let cur = read_timings(&bench_json(&[("g", "new", 9.0)])).unwrap();
        assert!(compare(&base, &cur, 0.25).is_empty());
    }
}
