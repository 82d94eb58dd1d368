//! CI validator for `spatch --explain` runs: checks that the report's
//! funnel counters, its embedded `explain` block, and the per-outcome
//! `kill_stage` fields all tell one story — **exactly**, no tolerance
//! (see [`cocci_examples::checks::explain_check`]).
//!
//! ```text
//! cargo run -p cocci-examples --example explain_check -- REPORT.json
//! ```
//!
//! Exits non-zero with a diagnostic on the first violation.

use cocci_examples::checks::explain_check;
use std::process::ExitCode;

fn main() -> ExitCode {
    let result = match std::env::args().nth(1) {
        Some(report) => explain_check(&report),
        None => Err("usage: explain_check <report.json>".to_string()),
    };
    match result {
        Ok(msg) => {
            println!("explain_check: ok — {msg}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("explain_check: {msg}");
            ExitCode::FAILURE
        }
    }
}
