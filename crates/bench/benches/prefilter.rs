//! Prefilter effectiveness on a synthetic many-file tree.
//!
//! The corpus mixes five generator families (OpenMP, CUDA, kernel,
//! raw-loop, LIBRSB) of which only one subtree can match each measured
//! patch — exactly the shape of a real codebase where a collateral
//! evolution touches one subsystem. Three patches exercise the three
//! prefilter sources: UC1 prunes on directive atoms (`<omp.h>`,
//! `pragma omp`), UC2 and UC11 prune on literal factors extracted from
//! their `=~` regex constraints (`kernel`, `rsb__BCSR_spmv_…`). For each
//! patch the bench times the corpus driver with the literal-atom
//! prefilter on and off, and records the **hit rate** (fraction of files
//! pruned before lexing/parsing) as a metric in `BENCH_prefilter.json`.

use cocci_bench::run_set;
use cocci_bench::timing::{Harness, Throughput};
use cocci_core::{CompiledPatch, CompiledRuleSet, CorpusOptions, FileStatus};
use cocci_smpl::parse_semantic_patch;
use cocci_workloads::corpus::{corpus_tree, is_walkable, CorpusTreeSpec};
use cocci_workloads::patches::{UC11_PRAGMA_INJECT, UC1_LIKWID, UC2_VARIANT};

fn main() {
    let spec = CorpusTreeSpec {
        files_per_family: 16,
        functions_per_file: 8,
        seed: 0xBF17,
    };
    // The walkable slice of the tree, as the directory walker would see it.
    let inputs: Vec<(String, String)> = corpus_tree(&spec)
        .into_iter()
        .filter(|f| is_walkable(&f.name))
        .map(|f| (f.name, f.text))
        .collect();
    let bytes: usize = inputs.iter().map(|(_, t)| t.len()).sum();

    let on = CorpusOptions {
        threads: 1,
        ..Default::default()
    };
    let off = CorpusOptions {
        no_prefilter: true,
        ..on.clone()
    };
    let mut h = Harness::new("prefilter").sample_size(10);
    for (uc, patch_text) in [
        ("UC1", UC1_LIKWID),
        ("UC2", UC2_VARIANT),
        ("UC11", UC11_PRAGMA_INJECT),
    ] {
        let patch = parse_semantic_patch(patch_text).expect(uc);
        let set = CompiledRuleSet::from_patch(CompiledPatch::compile(&patch).expect(uc), 0);

        let outcomes = run_set(&set, &inputs, &on);
        let pruned = outcomes
            .iter()
            .filter(|o| o.report.status == FileStatus::Pruned)
            .count();
        let errors = outcomes.iter().filter(|o| o.report.error.is_some()).count();
        h.metric(
            "prefilter_hit_rate",
            uc,
            pruned as f64 / inputs.len() as f64,
        );
        h.metric("prefilter_errors", uc, errors as f64);

        h.bench("prefilter_on", uc, Throughput::Bytes(bytes as u64), || {
            run_set(&set, &inputs, &on)
        });
        h.bench("prefilter_off", uc, Throughput::Bytes(bytes as u64), || {
            run_set(&set, &inputs, &off)
        });
    }
    h.metric("corpus", "files", inputs.len() as f64);
    h.finish().expect("write BENCH_prefilter.json");
}
