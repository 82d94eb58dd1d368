//! `perfbench-replay`: the traced per-layer replay of one generated
//! workload (see [`replay`]).
//!
//! ```text
//! perfbench-replay --spans <file>        (run inside the workload directory)
//! ```
//!
//! A directory with `rules/` replays the scan; one with `patch.cocci`
//! replays an apply. Prints the per-layer metrics as one JSON line and
//! writes every recorded span to `<file>`.

/// The CLI's diff sink, compiled from the CLI's own source so the
/// in-process end-to-end run renders exactly what `spatch` prints.
#[path = "../../../crates/cli/src/diff.rs"]
mod cli_diff;
mod replay;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

/// Counts allocations for `cast.allocs_per_file`.
#[global_allocator]
static ALLOC: cocci_bench::alloc::CountingAlloc = cocci_bench::alloc::CountingAlloc::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some("--spans"), Some(spans), 2) =
        (args.first().map(String::as_str), args.get(1), args.len())
    else {
        eprintln!("usage: perfbench-replay --spans <file>");
        return ExitCode::from(2);
    };
    match replay::run(&PathBuf::from(spans)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-replay: {e}");
            ExitCode::FAILURE
        }
    }
}
