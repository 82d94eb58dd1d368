//! CI validator for `spatch --trace-out` profiles: checks that the
//! Chrome trace-event JSON is well-formed, that every engine phase
//! recorded at least one span, and that the per-phase duration totals
//! reconcile (within 5%) with the `metrics` block of the run's
//! `--report` JSON — the three telemetry surfaces must tell one story
//! (see [`cocci_examples::checks::trace_check`]).
//!
//! ```text
//! cargo run -p cocci-examples --example trace_check -- TRACE.json REPORT.json
//! ```
//!
//! Exits non-zero with a diagnostic on the first violation.

use cocci_examples::checks::trace_check;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match (args.first(), args.get(1)) {
        (Some(t), Some(r)) => trace_check(t, r),
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
