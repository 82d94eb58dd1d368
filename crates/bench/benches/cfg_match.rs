//! CFG path matching of statement dots.
//!
//! Four corpora from the CFG workload family:
//!
//! * **linear** — straight-line probe pairs: the price of building CFGs
//!   and walking paths where every path is one line of code.
//! * **branchy** — a rotation of join / early-return / loop shapes,
//!   where all-paths dots refuse an escaping path and match a pair split
//!   across both arms of a branch. The match total lands as the
//!   `matches/flow` metric.
//! * **forked** — every function binds a metavariable differently in
//!   the two arms of a branch, so the path engine forks per-path
//!   witnesses; the witness total lands as `witnesses/forked` and the
//!   timing prices the forking machinery.
//! * **report_scan** — the findings engine's workload: a
//!   reporting-only rule (`acquire(r)@p; ... release(r);`, pure
//!   context) over the `report_scan` corpus family. The finding total
//!   lands as `findings/report_scan` so the bench-trend gate baselines
//!   the report route, and the timing prices findings production.
//!
//! The measured rules are the canonical instrumentation pair
//! `probe_begin(b); ... probe_end(b);` (with an edit on the opening
//! anchor) and, for the forked corpus,
//! `checkpoint(); ... commit(e);` (with an edit on the commit anchor).

use cocci_bench::run_set;
use cocci_bench::timing::{Harness, Throughput};
use cocci_core::{CompiledPatch, CompiledRuleSet, CorpusOptions};
use cocci_smpl::parse_semantic_patch;
use cocci_workloads::gen::{
    branchy_codebase, forked_commit_codebase, linear_probe_codebase, report_scan_codebase,
    CodebaseSpec,
};

const PROBE_PATCH: &str =
    "@@\nexpression b;\n@@\n- probe_begin(b);\n+ probe_enter(b);\n...\nprobe_end(b);\n";

const FORK_PATCH: &str =
    "@@\nexpression e;\n@@\ncheckpoint();\n...\n- commit(e);\n+ commit_logged(e);\n";

const SCAN_PATCH: &str =
    "@scan@\nexpression r;\nposition p;\n@@\nacquire(r)@p;\n...\nrelease(r);\n";

fn total_matches(outcomes: &[cocci_core::FileOutcome]) -> usize {
    outcomes.iter().map(|o| o.report.matches).sum()
}

fn compile(patch: &str) -> CompiledRuleSet {
    let patch = parse_semantic_patch(patch).expect("patch parses");
    CompiledRuleSet::from_patch(CompiledPatch::compile(&patch).expect("compile"), 0)
}

fn main() {
    let spec = CodebaseSpec {
        files: 12,
        functions_per_file: 16,
        seed: 0xCF6,
    };
    let linear: Vec<(String, String)> = linear_probe_codebase(&spec)
        .into_iter()
        .map(|f| (f.name, f.text))
        .collect();
    let branchy: Vec<(String, String)> = branchy_codebase(&spec)
        .into_iter()
        .map(|f| (f.name, f.text))
        .collect();

    let compiled = compile(PROBE_PATCH);
    let flow = CorpusOptions {
        threads: 1,
        no_prefilter: true,
        ..Default::default()
    };

    let mut h = Harness::new("cfg_match").sample_size(10);

    // The branch-heavy corpus: all-paths dots refuse early returns and
    // match cross-branch pairs.
    let flow_out = run_set(&compiled, &branchy, &flow);
    h.metric("matches", "flow", total_matches(&flow_out) as f64);

    let bytes: usize = linear.iter().map(|(_, t)| t.len()).sum();
    h.bench(
        "flow_dots",
        "linear",
        Throughput::Bytes(bytes as u64),
        || run_set(&compiled, &linear, &flow),
    );
    let bbytes: usize = branchy.iter().map(|(_, t)| t.len()).sum();
    h.bench(
        "flow_dots",
        "branchy",
        Throughput::Bytes(bbytes as u64),
        || run_set(&compiled, &branchy, &flow),
    );

    // Witness forking: a corpus whose every branch binds the commit
    // metavariable differently per arm, so each function forks one
    // witness per path — prices the forking machinery and records the
    // witness volume as a trend metric.
    let forked: Vec<(String, String)> = forked_commit_codebase(&spec)
        .into_iter()
        .map(|f| (f.name, f.text))
        .collect();
    let fork_compiled = compile(FORK_PATCH);
    let fork_out = run_set(&fork_compiled, &forked, &flow);
    let witnesses: usize = fork_out.iter().map(|o| o.report.witnesses).sum();
    h.metric("witnesses", "forked", witnesses as f64);
    h.metric("matches", "forked", total_matches(&fork_out) as f64);
    let fbytes: usize = forked.iter().map(|(_, t)| t.len()).sum();
    h.bench(
        "flow_dots",
        "forked",
        Throughput::Bytes(fbytes as u64),
        || run_set(&fork_compiled, &forked, &flow),
    );

    // Report route: a reporting-only (pure-context) rule over the
    // report_scan family — every match witness becomes a finding
    // instead of an edit. The generator's shape rotation makes the
    // expected total exactly files × functions ÷ 2.
    let scan: Vec<(String, String)> = report_scan_codebase(&spec)
        .into_iter()
        .map(|f| (f.name, f.text))
        .collect();
    let scan_compiled = compile(SCAN_PATCH);
    let scan_out = run_set(&scan_compiled, &scan, &flow);
    let findings: usize = scan_out.iter().map(|o| o.report.findings.len()).sum();
    h.metric("findings", "report_scan", findings as f64);
    let sbytes: usize = scan.iter().map(|(_, t)| t.len()).sum();
    h.bench(
        "report_scan",
        "flow",
        Throughput::Bytes(sbytes as u64),
        || run_set(&scan_compiled, &scan, &flow),
    );

    h.finish().expect("write BENCH_cfg_match.json");
}
