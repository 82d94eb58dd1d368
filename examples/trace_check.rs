//! CI validator for `spatch --trace-out` profiles: checks that the
//! Chrome trace-event JSON is well-formed, that every engine phase
//! recorded at least one span, and that the per-phase duration totals
//! reconcile (within 5%) with the `metrics` block of the run's
//! `--report` JSON — the three telemetry surfaces must tell one story.
//!
//! ```text
//! cargo run -p cocci-examples --example trace_check -- TRACE.json REPORT.json
//! ```
//!
//! Exits non-zero with a diagnostic on the first violation.

use cocci_core::report::json::{self, Fields, Value};
use cocci_core::ApplyReport;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match (args.first(), args.get(1)) {
        (Some(t), Some(r)) => check(t, r),
        _ => Err("usage: trace_check <trace.json> <report.json>".to_string()),
    };
    match result {
        Ok(msg) => {
            println!("trace_check: ok — {msg}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("trace_check: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn check(trace_path: &str, report_path: &str) -> Result<String, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let trace = json::parse(&read(trace_path)?)
        .map_err(|e| format!("{trace_path}: not valid JSON: {e}"))?;
    let events = Fields::new(&trace, trace_path)?.req("traceEvents", Value::as_array)?;

    // Sum complete-event ("X") durations per phase name; µs -> ns.
    let mut spans: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for ev in events {
        let ev = Fields::new(ev, trace_path)?;
        match ev.opt_str("ph") {
            Some("X") => {
                for key in ["pid", "tid", "ts", "dur"] {
                    ev.req(key, Value::as_f64)?;
                }
                let e = spans.entry(ev.str("name")?).or_insert((0, 0));
                e.0 += 1;
                e.1 += (ev.num("dur") * 1e3).round() as u64;
            }
            Some(_) => {} // "M" metadata and any future event kinds
            None => return Err(format!("{trace_path}: event missing ph")),
        }
    }
    for phase in cocci_trace::Phase::ALL {
        if spans.get(phase.name()).is_none_or(|&(count, _)| count == 0) {
            return Err(format!("{trace_path}: no spans for phase {}", phase.name()));
        }
    }

    let report =
        ApplyReport::from_json(&read(report_path)?).map_err(|e| format!("{report_path}: {e}"))?;
    let metrics = (report.metrics.as_ref())
        .ok_or_else(|| format!("{report_path}: report has no metrics block"))?;

    // Both surfaces snapshot the same rings after the workers join, so
    // span counts must agree exactly and durations within rounding; the
    // 5% budget is pure slack for the µs quantisation of the trace file.
    for phase in cocci_trace::Phase::ALL {
        let name = phase.name();
        let (trace_count, trace_ns) = spans.get(name).copied().unwrap_or((0, 0));
        let report_count = metrics.phase_counts.get(name).copied().unwrap_or(0);
        let report_ns = metrics.phase_total_ns(name);
        if trace_count != report_count {
            return Err(format!(
                "phase {name}: {trace_count} trace spans vs {report_count} in the report metrics"
            ));
        }
        let drift = (trace_ns as f64 - report_ns as f64).abs();
        if drift > report_ns.max(1_000) as f64 * 0.05 {
            return Err(format!(
                "phase {name}: trace total {trace_ns}ns vs report {report_ns}ns (>5% apart)"
            ));
        }
    }
    Ok(format!(
        "{} events, {} phases reconciled against {report_path}",
        events.len(),
        cocci_trace::Phase::ALL.len()
    ))
}
