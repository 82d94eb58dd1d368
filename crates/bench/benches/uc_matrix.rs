//! Experiment E1: the use-case correctness/cost matrix.
//!
//! For each Section-3 use case, applies its semantic patch to the
//! matching generated corpus and measures wall time per application.
//! Correctness itself is asserted by the `e1_matrix_all_use_cases_fire`
//! unit test in `cocci-bench`; here the same rows are timed so the paper
//! table gains a cost column.
//!
//! A UC7+UC8 size sweep follows: one CUDA file at 25 and at 200
//! functions, applied in-process. Its rules that inherit run once per
//! inherited environment, and their number grows with the file, so
//! `uc78_fn_cost_ratio` (per-function time at 200 over per-function time
//! at 25) stays near 1 only while each environment costs the roots it can
//! reach rather than a walk of the whole file. CI gates it below 2.
//!
//! A write-path sweep closes it: a one-rule `old_api` → `new_api` apply
//! plus the CLI's unified diff (compiled from its source, as
//! perfbench's replay does) over files with one site per line, at 2,500
//! and 20,000 sites. `dense_site_cost_ratio` (per-site time at 20,000
//! over per-site time at 2,500) stays near 1 only while claims, edits
//! and the diff each cost linear time in the sites. CI gates it below 2.

/// The CLI's diff sink, compiled from the CLI's own source. Checking
/// this bench under `cfg(test)` compiles the module's test imports
/// without its tests.
#[path = "../../cli/src/diff.rs"]
#[allow(unused_imports)]
mod cli_diff;

use cocci_bench::corpus_for;
use cocci_bench::timing::{Harness, Throughput};
use cocci_core::{apply_to_files, Patcher};
use cocci_smpl::parse_semantic_patch;
use cocci_workloads::gen::{cuda_codebase, CodebaseSpec};
use cocci_workloads::patches;

fn main() {
    let mut h = Harness::new("uc_matrix").sample_size(20);
    for (uc, patch_text) in patches::ALL {
        let corpus = corpus_for(uc);
        let patch = parse_semantic_patch(patch_text).expect(uc);
        let inputs: Vec<(String, String)> = corpus
            .iter()
            .map(|f| (f.name.clone(), f.text.clone()))
            .collect();
        let bytes: usize = inputs.iter().map(|(_, t)| t.len()).sum();
        h.bench("uc_matrix", uc, Throughput::Bytes(bytes as u64), || {
            let outcomes = apply_to_files(&patch, &inputs, 1).unwrap();
            assert!(outcomes.iter().any(|o| o.output.is_some()));
            outcomes
        });
    }

    let patch = parse_semantic_patch(patches::UC78_CUDA_HIP_FULL).expect("UC78");
    let mut patcher = Patcher::new(&patch).expect("UC78 compiles");
    let mut per_fn = Vec::new();
    for functions in [25, 200] {
        let file = cuda_codebase(&CodebaseSpec {
            files: 1,
            functions_per_file: functions,
            seed: 0xE1,
        })
        .remove(0);
        let id = format!("{functions}_fns");
        let bytes = file.text.len() as u64;
        h.bench("uc78_size", &id, Throughput::Bytes(bytes), || {
            let out = patcher.apply(&file.name, &file.text).unwrap();
            assert!(out.is_some());
            out
        });
        per_fn.push(h.min_s("uc78_size", &id).expect("recorded") / functions as f64);
    }
    h.metric("uc78_size", "uc78_fn_cost_ratio", per_fn[1] / per_fn[0]);

    let patch = parse_semantic_patch("@@\nexpression e;\n@@\n- old_api(e);\n+ new_api(e);\n")
        .expect("old_api");
    let mut patcher = Patcher::new(&patch).expect("old_api compiles");
    let mut per_site = Vec::new();
    for sites in [2_500, 20_000] {
        let mut text = String::new();
        for site in 0..sites {
            if site % 50 == 0 {
                text.push_str(&format!("void dense_{}(double *buf) {{\n", site / 50));
            }
            text.push_str(&format!("    old_api(buf[{}]);\n", site % 64));
            if site % 50 == 49 {
                text.push_str("}\n\n");
            }
        }
        let id = format!("{sites}_sites");
        h.bench(
            "dense_sites",
            &id,
            Throughput::Bytes(text.len() as u64),
            || {
                let out = patcher.apply("dense.c", &text).unwrap().expect("rewritten");
                cli_diff::unified_diff("dense.c", &text, &out, 3)
            },
        );
        per_site.push(h.min_s("dense_sites", &id).expect("recorded") / sites as f64);
    }
    h.metric(
        "dense_sites",
        "dense_site_cost_ratio",
        per_site[1] / per_site[0],
    );
    h.finish().expect("write BENCH_uc_matrix.json");
}
