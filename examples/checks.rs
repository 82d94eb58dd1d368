//! The telemetry reconciliations CI runs after a traced and an explained
//! scan, callable from tests and from the `trace_check` and
//! `explain_check` example binaries.
//!
//! - [`trace_check`]: the `--trace-out` file, the `--stats` table's
//!   source (the report's `metrics` block) and the phase list tell one
//!   story, within 5% for durations.
//! - [`explain_check`]: the funnel counters, the `explain` block and the
//!   per-outcome `kill_stage` fields agree exactly: the three surfaces
//!   are written from the same `record_attempt` call per attempt, so any
//!   drift between them is a bug, not noise.

use cocci_core::explain::{funnel_rows, KillStage};
use cocci_core::report::json::{self, Fields, Value};
use cocci_core::ApplyReport;
use std::collections::BTreeMap;

/// Check a `--trace-out` file against the `--report` of the same run:
/// the trace is well-formed Chrome trace-event JSON, every engine phase
/// recorded at least one span, and each phase's span count equals the
/// report's `metrics` block and its total is within 5% of it. `Ok`
/// carries a one-line summary, `Err` the first violation.
pub fn trace_check(trace_path: &str, report_path: &str) -> Result<String, String> {
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

/// Check the `--report` of an `--explain` run: its funnel counters, its
/// `explain` block and its per-outcome `kill_stage` fields must agree
/// exactly. `Ok` carries a one-line summary, `Err` the first violation.
pub fn explain_check(report_path: &str) -> Result<String, String> {
    let report_text =
        std::fs::read_to_string(report_path).map_err(|e| format!("{report_path}: {e}"))?;
    let report = ApplyReport::from_json(&report_text).map_err(|e| format!("{report_path}: {e}"))?;
    let Some(block) = &report.explain else {
        return Err(format!(
            "{report_path}: no explain block — was the run made with --explain?"
        ));
    };
    let Some(metrics) = &report.metrics else {
        return Err(format!("{report_path}: report has no metrics block"));
    };
    if block.dropped > 0 {
        // Over the attempt cap the block is a sample, not a census, and
        // exact reconciliation is off the table; CI fixtures must stay
        // well under it.
        return Err(format!(
            "{report_path}: explain block dropped {} attempt(s); cannot reconcile exactly",
            block.dropped
        ));
    }

    // Counters vs the block: the attempts counter and every per-stage
    // kill counter must equal the block's census of the same thing.
    let attempts = metrics.counter("attempts");
    if attempts != block.attempts.len() as u64 {
        return Err(format!(
            "attempts counter {attempts} vs {} traced attempts in the explain block",
            block.attempts.len()
        ));
    }
    for stage in KillStage::ALL {
        let Some(counter) = stage.counter() else {
            continue;
        };
        let counted = metrics.counter(counter.name());
        let traced = block.attempts.iter().filter(|a| a.stage == stage).count() as u64;
        if counted != traced {
            return Err(format!(
                "counter {} is {counted} but the explain block holds {traced} {} attempt(s)",
                counter.name(),
                stage
            ));
        }
    }

    // The funnel derived from those counters must be monotone and land
    // exactly on the completed-attempt count.
    let rows = funnel_rows(|name| metrics.counter(name));
    if rows.windows(2).any(|w| w[0].1 < w[1].1) {
        return Err(format!("funnel is not monotone: {rows:?}"));
    }
    let completed = block
        .attempts
        .iter()
        .filter(|a| a.stage == KillStage::Completed)
        .count() as u64;
    match rows.last() {
        Some(&("completed", v)) if v == completed => {}
        other => {
            return Err(format!(
                "funnel bottom row {other:?} vs {completed} completed attempts"
            ))
        }
    }

    // Per-outcome attribution: each file's kill_stage is the deepest
    // stage of its traced attempts, and every per-rule kill_stage row
    // has a block attempt agreeing with it.
    for f in &report.files {
        let deepest = block
            .attempts
            .iter()
            .filter(|a| a.file == f.name)
            .map(|a| a.stage)
            .max();
        if deepest.is_some() && f.kill_stage != deepest {
            return Err(format!(
                "{}: kill_stage {:?} vs deepest traced stage {:?}",
                f.name, f.kill_stage, deepest
            ));
        }
        for r in &f.rules {
            let Some(stage) = r.kill_stage else {
                return Err(format!("{}: rule {} has no kill_stage", f.name, r.id));
            };
            if !block
                .attempts
                .iter()
                .any(|a| a.file == f.name && a.rule == r.id && a.stage == stage)
            {
                return Err(format!(
                    "{}: rule {} records kill_stage {stage} but no traced attempt agrees",
                    f.name, r.id
                ));
            }
        }
    }

    Ok(format!(
        "{} attempts across {} file(s) reconcile exactly with the funnel counters of {}",
        block.attempts.len(),
        report.files.len(),
        report_path
    ))
}
