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
//! A write-path sweep follows: a one-rule `old_api` → `new_api` apply
//! plus the CLI's unified diff (compiled from its source, as
//! perfbench's replay does) over files with one site per line, at 2,500
//! and 20,000 sites. `dense_site_cost_ratio` (per-site time at 20,000
//! over per-site time at 2,500) stays near 1 only while claims, edits
//! and the diff each cost linear time in the sites. CI gates it below 2.
//!
//! A long-gap sweep closes it: one gap of 5,000 and of 50,000 elements,
//! in five shapes. Three span the statements of one function:
//!
//! * `flow` — `lock(x); ... unlock(x);` on the CFG route, over a
//!   function that can return early, so the answer is no match at any
//!   size;
//! * `tree` — `lock(x); mark(); ... unlock(x);`, whose two leading
//!   statements keep it on the tree matcher's dots;
//! * `stmt_list` — `lock(x); SL unlock(x);` with `unlock` right after
//!   `lock`, so the greedy statement list tries every longer run first.
//!
//! Two span the arguments of one call:
//!
//! * `args_dots` — `big(...)` with the callee renamed, which rewrites;
//! * `args_list` — `big(el, 0)` with `el` an expression list, whose last
//!   argument is never `0`, so the greedy list tries every run and the
//!   answer is no match at any size.
//!
//! `long_gap_cost_ratio` (the largest per-element time ratio, 50,000
//! over 5,000, of the five) stays near 1 only while a gap costs linear
//! time in its length, in statement sequences and argument lists alike.
//! Each shape times its two sizes alternately, sample by sample, so a
//! swing in host load hits both sides of the ratio. CI gates it below 2.

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

/// The text of a file with one gap of `n` elements.
type GapText = dyn Fn(usize) -> String;

/// A function whose `n` statements sit between `lock(a);` and `head`,
/// followed by `tail`.
fn stmts(head: &str, tail: &str, n: usize) -> String {
    let mut text = format!("void f(int c) {{\n    lock(a);\n    {head}");
    for i in 0..n {
        text.push_str(&format!("pad({});\n    ", i % 64));
    }
    text + &format!("{tail}}}\n")
}

/// A function with one call of `n` arguments, none of them `0`.
fn args(n: usize) -> String {
    let list: Vec<String> = (0..n).map(|i| (i % 64 + 1).to_string()).collect();
    format!("void f(int c) {{\n    big({});\n}}\n", list.join(", "))
}

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

    // (shape, rule, element unit, rewrites, file with a gap of n elements)
    let shapes: [(&str, &str, &str, bool, &GapText); 5] = [
        (
            "flow",
            "@@\nexpression x;\n@@\n- lock(x);\n+ lock2(x);\n...\nunlock(x);\n",
            "stmts",
            // The early return leaves no rewrite on the flow route.
            false,
            &|n| stmts("if (c) return;\n    ", "unlock(a);\n", n),
        ),
        (
            "tree",
            "@@\nexpression x;\n@@\n- lock(x);\n+ lock2(x);\nmark();\n...\nunlock(x);\n",
            "stmts",
            true,
            &|n| stmts("mark();\n    ", "unlock(a);\n", n),
        ),
        (
            "stmt_list",
            "@@\nexpression x;\nstatement list SL;\n@@\n- lock(x);\n+ lock2(x);\nSL\nunlock(x);\n",
            "stmts",
            true,
            &|n| stmts("unlock(a);\n    ", "", n),
        ),
        (
            "args_dots",
            "@@\n@@\n- big\n+ big2\n  (...);\n",
            "args",
            true,
            &args,
        ),
        (
            "args_list",
            "@@\nexpression list el;\n@@\n- big\n+ big2\n  (el, 0);\n",
            "args",
            false,
            &args,
        ),
    ];
    let mut ratio: f64 = 0.0;
    for (shape, rule, unit, rewrites, text_of) in shapes {
        let patch = parse_semantic_patch(rule).expect(shape);
        let mut patcher = Patcher::new(&patch).expect(shape);
        let sizes = [5_000, 50_000];
        let texts = sizes.map(text_of);
        let ids = sizes.map(|n| format!("{shape}_{n}_{unit}"));
        // The two sizes alternate sample by sample, so a swing in host
        // load moves both sides of the ratio.
        h.bench_pair(
            "long_gap",
            [&ids[0], &ids[1]],
            [0, 1].map(|i| Throughput::Bytes(texts[i].len() as u64)),
            |i| {
                let out = patcher.apply("gap.c", &texts[i]).unwrap();
                assert_eq!(out.is_some(), rewrites, "{}", ids[i]);
                out
            },
        );
        let per_elem =
            [0, 1].map(|i| h.min_s("long_gap", &ids[i]).expect("recorded") / sizes[i] as f64);
        ratio = ratio.max(per_elem[1] / per_elem[0]);
    }
    h.metric("long_gap", "long_gap_cost_ratio", ratio);
    h.finish().expect("write BENCH_uc_matrix.json");
}
