//! `perfbench-gen`: write one seeded benchmark workload.
//!
//! ```text
//! perfbench-gen --workload <name> --seed <n> [--scale <f>] --out <dir>
//! ```
//!
//! Writes `tree/`, the rules (`rules/` or `patch.cocci`) and the oracle
//! (`expected.tsv`) under `<dir>` (see [`workload`]) and prints the
//! manifest as one JSON line: walkable files and bytes, the input
//! digest, and the number of oracle lines.

mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = flag("--workload").as_deref().and_then(Workload::parse);
    let seed = flag("--seed").and_then(|s| s.parse::<u64>().ok());
    let scale = flag("--scale").map_or(Some(1.0), |s| s.parse::<f64>().ok());
    let (Some(w), Some(seed), Some(scale), Some(out)) = (workload, seed, scale, flag("--out"))
    else {
        eprintln!("usage: perfbench-gen --workload <name> --seed <n> [--scale <f>] --out <dir>");
        return ExitCode::from(2);
    };
    if !(scale > 0.0 && scale <= 1.0) {
        eprintln!("perfbench-gen: --scale must be in (0, 1]");
        return ExitCode::from(2);
    }
    let g = workload::generate(w, seed, scale);
    match workload::write(&PathBuf::from(out), w, &g) {
        Ok(m) => {
            println!(
                "{{\"files\": {}, \"bytes\": {}, \"input_digest\": \"{:016x}\", \"expected\": {}}}",
                m.files,
                m.bytes,
                m.digest,
                g.expected.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-gen: cannot write workload: {e}");
            ExitCode::FAILURE
        }
    }
}
