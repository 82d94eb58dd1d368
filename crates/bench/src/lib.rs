//! `cocci-bench`: shared fixtures and the in-house timing harness for
//! the experiment benchmarks.
//!
//! Each bench target (`harness = false`, built on [`timing::Harness`])
//! regenerates one experiment from DESIGN.md's index:
//!
//! | bench       | experiment | what it reports |
//! |-------------|------------|-----------------|
//! | `uc_matrix` | E1         | per-use-case apply time + correctness row |
//! | `precision` | E2         | semantic vs textual throughput, FP/FN table |
//! | `scaling`   | E3         | throughput vs codebase size and threads |
//! | `aos_soa`   | E4         | AoS vs SoA particle-update throughput |

pub mod alloc;
pub mod timing;
pub mod trend;

use cocci_core::{scan_corpus, CompiledRuleSet, CorpusOptions, FileOutcome, MemorySource};
use cocci_workloads::gen::{self, CodebaseSpec, GeneratedFile};

/// Run `set` over in-memory `files` through the corpus driver,
/// collecting every outcome in input order.
pub fn run_set(
    set: &CompiledRuleSet,
    files: &[(String, String)],
    opts: &CorpusOptions,
) -> Vec<FileOutcome> {
    let mut outcomes = Vec::with_capacity(files.len());
    let source = &mut MemorySource::new(files.iter().cloned());
    scan_corpus(set, source, opts, None, |_, _, o| outcomes.push(o.clone())).expect("corpus run");
    outcomes
}

/// The corpus each use case runs against in the E1 matrix.
pub fn corpus_for(uc: &str) -> Vec<GeneratedFile> {
    let spec = CodebaseSpec {
        files: 4,
        functions_per_file: 8,
        seed: 0xE1,
    };
    match uc {
        "UC1" => gen::omp_codebase(&spec),
        "UC2" => gen::kernel_codebase(&spec),
        "UC3" | "UC4" => gen::multiversion_codebase(&spec),
        "UC5-p0" | "UC5-p1r1" => gen::unrolled_codebase(&spec, 4),
        "UC6" => gen::stencil_codebase(&spec),
        "UC7" | "UC8" => gen::cuda_codebase(&spec),
        "UC9" => gen::openacc_codebase(&spec),
        "UC10" => gen::raw_loop_codebase(&spec),
        "UC11" => gen::librsb_codebase(&CodebaseSpec {
            files: 4,
            functions_per_file: 24,
            seed: 0xE1,
        }),
        other => panic!("unknown use case {other}"),
    }
}

/// A marker string whose presence in the output demonstrates the use
/// case's transformation fired (the "shape check" of the E1 row).
pub fn expected_marker(uc: &str) -> &'static str {
    match uc {
        "UC1" => "LIKWID_MARKER_START(__func__);",
        "UC2" => "avx512_kernel_",
        "UC3" => "avx512_specific_setup();",
        "UC4" => "", // UC4 deletes; checked by absence instead
        "UC5-p0" | "UC5-p1r1" => "#pragma omp unroll partial(4)",
        "UC6" => "a[i, j, ",
        "UC7" => "rocrand_uniform_double",
        "UC8" => "hipLaunchKernelGGL",
        "UC9" => "#pragma omp target teams",
        "UC10" => "find(begin(",
        "UC11" => "#pragma GCC push_options",
        other => panic!("unknown use case {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocci_core::apply_to_files;
    use cocci_smpl::parse_semantic_patch;
    use cocci_workloads::patches;

    /// The E1 correctness matrix as a test: every use case fires on its
    /// generated corpus and produces its marker.
    #[test]
    fn e1_matrix_all_use_cases_fire() {
        for (uc, patch_text) in patches::ALL {
            let corpus = corpus_for(uc);
            let patch = parse_semantic_patch(patch_text).unwrap_or_else(|e| panic!("{uc}: {e}"));
            let inputs: Vec<(String, String)> = corpus
                .iter()
                .map(|f| (f.name.clone(), f.text.clone()))
                .collect();
            let outcomes = apply_to_files(&patch, &inputs, 2).unwrap();
            let changed = outcomes.iter().filter(|o| o.output.is_some()).count();
            assert!(changed > 0, "{uc}: no file transformed");
            for o in &outcomes {
                let r = &o.report;
                assert!(r.error.is_none(), "{uc}: {}: {:?}", r.name, r.error);
            }
            let marker = expected_marker(uc);
            if !marker.is_empty() {
                let hit = outcomes
                    .iter()
                    .filter_map(|o| o.output.as_deref())
                    .any(|t| t.contains(marker));
                assert!(hit, "{uc}: marker {marker:?} missing");
            } else {
                // UC4: the avx512/avx2 clones must be gone.
                for o in outcomes.iter().filter_map(|o| o.output.as_deref()) {
                    assert!(!o.contains("target(\"avx512\")"), "{uc}: clone survived");
                }
            }
        }
    }
}
