//! Synthetic C/C++ codebase generators, one per experiment.
//!
//! All generators are deterministic in the seed so experiments are
//! reproducible run-to-run.

use crate::rng::SplitMix64;

/// Size parameters for generated codebases.
#[derive(Debug, Clone, Copy)]
pub struct CodebaseSpec {
    /// Number of files to generate.
    pub files: usize,
    /// Functions per file.
    pub functions_per_file: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CodebaseSpec {
    fn default() -> Self {
        CodebaseSpec {
            files: 8,
            functions_per_file: 16,
            seed: 0xC0CC1,
        }
    }
}

/// One generated file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedFile {
    /// File name.
    pub name: String,
    /// File contents.
    pub text: String,
}

fn array_name(rng: &mut SplitMix64) -> &'static str {
    const NAMES: [&str; 6] = ["x", "y", "vel", "acc_buf", "rho", "press"];
    NAMES[rng.gen_range(0..NAMES.len())]
}

/// UC1 / E3: files with OpenMP parallel regions (`#pragma omp` followed
/// by a braced block) interleaved with plain functions.
pub fn omp_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::from("#include <omp.h>\n#include <math.h>\n\n");
            for fj in 0..spec.functions_per_file {
                let a = array_name(&mut rng);
                let b = array_name(&mut rng);
                let parallel = rng.gen_bool(0.6);
                text.push_str(&format!(
                    "void work_{fi}_{fj}(int n, double *{a}_{fj}, double *{b}_in_{fj}) {{\n"
                ));
                if parallel {
                    text.push_str("#pragma omp parallel\n{\n");
                    text.push_str(&format!(
                        "    for (int i = 0; i < n; ++i)\n        {a}_{fj}[i] += 0.5 * {b}_in_{fj}[i];\n"
                    ));
                    text.push_str("}\n");
                } else {
                    text.push_str(&format!(
                        "    for (int i = 0; i < n; ++i)\n        {a}_{fj}[i] = {b}_in_{fj}[i];\n"
                    ));
                }
                text.push_str("}\n\n");
            }
            GeneratedFile {
                name: format!("omp_{fi}.c"),
                text,
            }
        })
        .collect()
}

/// UC2: files containing a mix of `*kernel*`-named functions (variant
/// candidates) and helpers.
pub fn kernel_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::new();
            for fj in 0..spec.functions_per_file {
                if rng.gen_bool(0.5) {
                    text.push_str(&format!(
                        "double kernel_dot_{fi}_{fj}(const double *a, const double *b, int n) {{\n    double s = 0.0;\n    for (int i = 0; i < n; ++i) s += a[i] * b[i];\n    return s;\n}}\n\n"
                    ));
                } else {
                    text.push_str(&format!(
                        "static void helper_{fi}_{fj}(int n) {{\n    (void)n;\n}}\n\n"
                    ));
                }
            }
            GeneratedFile {
                name: format!("kern_{fi}.c"),
                text,
            }
        })
        .collect()
}

/// UC3/UC4: multiversioned functions with `__attribute__((target(...)))`
/// specializations plus a default version.
pub fn multiversion_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::new();
            for fj in 0..spec.functions_per_file {
                let isas: &[&str] = if rng.gen_bool(0.5) {
                    &["avx512", "avx2", "default"]
                } else {
                    &["avx2", "default"]
                };
                for isa in isas {
                    text.push_str(&format!(
                        "__attribute__((target(\"{isa}\")))\ndouble spmv_{fi}_{fj}(const double *v, int n) {{\n    return impl_{isa}_{fi}_{fj}(v, n);\n}}\n"
                    ));
                }
                text.push('\n');
            }
            GeneratedFile {
                name: format!("mv_{fi}.c"),
                text,
            }
        })
        .collect()
}

/// UC5: loops unrolled by `factor` (the "generated by a script, generator
/// lost" scenario). Every statement in the body is identical modulo the
/// index offset, which is exactly what rules `p1`/`r1` require.
pub fn unrolled_codebase(spec: &CodebaseSpec, factor: usize) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::new();
            for fj in 0..spec.functions_per_file {
                let a = array_name(&mut rng);
                text.push_str(&format!(
                    "void unrolled_{fi}_{fj}(int n, double alpha, double *{a}_dst, double *{a}_src) {{\n"
                ));
                text.push_str(&format!(
                    "    for (int i = 0; i + {} < n; i += {factor})\n    {{\n",
                    factor - 1
                ));
                for u in 0..factor {
                    text.push_str(&format!(
                        "        {a}_dst[i+{u}] = alpha * {a}_src[i+{u}];\n"
                    ));
                }
                text.push_str("    }\n}\n\n");
            }
            GeneratedFile {
                name: format!("unroll_{fi}.c"),
                text,
            }
        })
        .collect()
}

/// UC6: 3-D stencil code full of `a[i][j][k]` accesses (array `a` is the
/// one being re-declared as an mdspan).
pub fn stencil_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    (0..spec.files)
        .map(|fi| {
            let mut text = String::from("void step(int n) {\n");
            for fj in 0..spec.functions_per_file {
                text.push_str(&format!(
                    "    a[i][j][{fj}] = a[i-1][j][{fj}] + a[i+1][j][{fj}] + b[i][j][{fj}];\n"
                ));
            }
            text.push_str("}\n");
            GeneratedFile {
                name: format!("stencil_{fi}.cpp"),
                text,
            }
        })
        .collect()
}

/// UC7/UC8: CUDA miniapp files with kernel launches and cuRAND calls.
pub fn cuda_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::new();
            for fj in 0..spec.functions_per_file {
                let with_rng = rng.gen_bool(0.5);
                text.push_str(&format!("void stage_{fi}_{fj}(int n, double *buf) {{\n"));
                if with_rng {
                    text.push_str("    __half h;\n");
                    text.push_str("    double r;\n    r = curand_uniform_double(rng_state);\n    buf[0] = r;\n");
                }
                text.push_str(&format!(
                    "    compute_{fj}<<<grid, block, 0, stream>>>(n, buf);\n"
                ));
                text.push_str("}\n\n");
            }
            GeneratedFile {
                name: format!("cuda_{fi}.cu"),
                text,
            }
        })
        .collect()
}

/// UC9: OpenACC-annotated loops.
pub fn openacc_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    (0..spec.files)
        .map(|fi| {
            let mut text = String::new();
            for fj in 0..spec.functions_per_file {
                text.push_str(&format!(
                    "void acc_stage_{fi}_{fj}(int n, double *a) {{\n#pragma acc parallel loop\n    for (int i = 0; i < n; ++i)\n        a[i] = 2.0 * a[i];\n}}\n\n"
                ));
            }
            GeneratedFile {
                name: format!("acc_{fi}.c"),
                text,
            }
        })
        .collect()
}

/// UC10: raw search loops waiting to become `std::find`.
pub fn raw_loop_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::from("#include <iostream>\n\n");
            for fj in 0..spec.functions_per_file {
                let needle = rng.gen_range(1..100);
                text.push_str(&format!(
                    "int lookup_{fi}_{fj}(int n) {{\n    bool found_{fj} = false;\n    for ( int &v : table_{fj} )\n    if ( v == {needle} )\n    {{\n        found_{fj} = true;\n        break;\n    }}\n    return found_{fj} ? 1 : 0;\n}}\n\n"
                ));
            }
            GeneratedFile {
                name: format!("raw_{fi}.cpp"),
                text,
            }
        })
        .collect()
}

/// UC11: LIBRSB-style generated kernels, a few of which hit the compiler
/// bug (identified by the naming convention the regex targets).
pub fn librsb_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::new();
            for fj in 0..spec.functions_per_file {
                let affected = rng.gen_bool(0.15);
                let name = if affected {
                    let c = if rng.gen_bool(0.5) { 'C' } else { 'H' };
                    let t = ['N', 'T', 'C'][rng.gen_range(0..3)];
                    let s = if rng.gen_bool(0.5) { 'H' } else { 'S' };
                    format!("rsb__BCSR_spmv_sasa_double_complex_{c}__t{t}_r1_c1_uu_s{s}_dE_uG")
                } else {
                    format!("rsb__BCSR_spmv_plain_{fi}_{fj}")
                };
                text.push_str(&format!(
                    "int {name}(const void *a, void *y) {{\n    return spmv_inner_{fj}(a, y);\n}}\n\n"
                ));
            }
            GeneratedFile {
                name: format!("rsb_{fi}.c"),
                text,
            }
        })
        .collect()
}

/// CFG family: branch-heavy functions exercising statement-dots path
/// semantics. Every function opens with `probe_begin(buf);`; what
/// follows rotates through the shapes where tree-sequence dots and
/// all-paths dots disagree:
///
/// * `linear` — straight-line filler then `probe_end(buf);` (both
///   engines match);
/// * `join` — `probe_end` in **both** arms of an `if`/`else` (only the
///   all-paths reading matches);
/// * `escape` — an early `return` before `probe_end` (only a
///   tree-sequence reading would match — wrongly);
/// * `loop` — a `for` loop between the probes (both match; the back
///   edge exercises loop cut-points).
pub fn branchy_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::new();
            for fj in 0..spec.functions_per_file {
                let shape = rng.gen_range(0..4);
                text.push_str(&format!(
                    "void stage_{fi}_{fj}(int n, double *buf) {{\n    probe_begin(buf);\n"
                ));
                match shape {
                    0 => {
                        text.push_str("    buf[0] = buf[0] * 1.5;\n    probe_end(buf);\n");
                    }
                    1 => {
                        text.push_str(
                            "    if (n > 4) {\n        buf[1] = 0.0;\n        probe_end(buf);\n    } else {\n        probe_end(buf);\n    }\n    buf[2] = 1.0;\n",
                        );
                    }
                    2 => {
                        text.push_str(
                            "    if (n > 4)\n        return;\n    buf[1] = 2.0;\n    probe_end(buf);\n",
                        );
                    }
                    _ => {
                        text.push_str(
                            "    for (int i = 0; i < n; ++i)\n        buf[i] = buf[i] + 1.0;\n    probe_end(buf);\n",
                        );
                    }
                }
                text.push_str("}\n\n");
            }
            GeneratedFile {
                name: format!("branchy_{fi}.c"),
                text,
            }
        })
        .collect()
}

/// CFG family, witness-forking slice: every function runs
/// `checkpoint(); ... commit(e);` where `e` binds to a *different*
/// expression in the two arms of a branch, so the path engine forks one
/// witness per arm (occasionally the arms agree, exercising the
/// reconciled single-witness path too). This is the workload the
/// `cfg_match` bench uses to price per-path witness forking.
pub fn forked_commit_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::new();
            for fj in 0..spec.functions_per_file {
                let a = rng.gen_range(0..16);
                let b = rng.gen_range(0..16);
                text.push_str(&format!(
                    "void txn_{fi}_{fj}(int n, double *buf) {{\n    checkpoint();\n    if (n > 4) {{\n        buf[0] = buf[0] + 1.0;\n        commit(buf[{a}]);\n    }} else {{\n        commit(buf[{b}]);\n    }}\n    wrap_up();\n}}\n\n"
                ));
            }
            GeneratedFile {
                name: format!("forked_{fi}.c"),
                text,
            }
        })
        .collect()
}

/// CFG family, dots-free-equivalent slice: purely straight-line probe
/// pairs, where tree-sequence and all-paths dots agree — the workload
/// the `cfg_match` bench uses to time the CFG route on straight-line
/// code.
pub fn linear_probe_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::new();
            for fj in 0..spec.functions_per_file {
                text.push_str(&format!(
                    "void stage_{fi}_{fj}(int n, double *buf) {{\n    probe_begin(buf);\n"
                ));
                for s in 0..rng.gen_range(2..6) {
                    text.push_str(&format!("    buf[{s}] = buf[{s}] * 0.5;\n"));
                }
                text.push_str("    probe_end(buf);\n}\n\n");
            }
            GeneratedFile {
                name: format!("linear_{fi}.c"),
                text,
            }
        })
        .collect()
}

/// Report-scan family: inspection targets for the findings engine.
/// Every function opens with `acquire(res); ... release(res);` — the
/// canonical reporting-only pattern (`acquire(r)@p; ... release(r);`)
/// matches exactly the functions where *every* path reaches the
/// release. Shapes rotate deterministically:
///
/// * straight-line pair — one finding;
/// * release in both branch arms — one finding (all paths covered);
/// * early return before the release — **no** finding (all-paths
///   semantics refuses; a tree-sequence reading of the dots would
///   match here);
/// * a resource leak (no release at all) — no finding.
///
/// With `functions_per_file` a multiple of 4 the expected finding count
/// is exactly `files * functions_per_file / 2`, which the `cfg_match`
/// bench records as the `findings/report_scan` metric.
pub fn report_scan_codebase(spec: &CodebaseSpec) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    (0..spec.files)
        .map(|fi| {
            let mut text = String::new();
            for fj in 0..spec.functions_per_file {
                let res = rng.gen_range(0..8);
                text.push_str(&format!(
                    "void scan_{fi}_{fj}(int n, double *buf) {{\n    acquire(buf[{res}]);\n"
                ));
                match fj % 4 {
                    0 => {
                        text.push_str(&format!(
                            "    buf[0] = buf[0] * 2.0;\n    release(buf[{res}]);\n"
                        ));
                    }
                    1 => {
                        text.push_str(&format!(
                            "    if (n > 2) {{\n        buf[1] = 0.0;\n        release(buf[{res}]);\n    }} else {{\n        release(buf[{res}]);\n    }}\n"
                        ));
                    }
                    2 => {
                        text.push_str(&format!(
                            "    if (n > 2)\n        return;\n    release(buf[{res}]);\n"
                        ));
                    }
                    _ => {
                        text.push_str("    buf[2] = 3.0;\n");
                    }
                }
                text.push_str("}\n\n");
            }
            GeneratedFile {
                name: format!("scan_{fi}.c"),
                text,
            }
        })
        .collect()
}

/// E3: a size-swept plain codebase used for throughput measurements:
/// `loops_per_function` loops each containing array expressions.
pub fn sized_codebase(
    files: usize,
    functions: usize,
    loops_per_function: usize,
    seed: u64,
) -> Vec<GeneratedFile> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..files)
        .map(|fi| {
            let mut text = String::from("#include <omp.h>\n\n");
            for fj in 0..functions {
                text.push_str(&format!("void f_{fi}_{fj}(int n, double *buf) {{\n"));
                for lj in 0..loops_per_function {
                    if rng.gen_bool(0.3) {
                        text.push_str("#pragma omp parallel\n{\n");
                        text.push_str(&format!(
                            "    for (int i = 0; i < n; ++i) buf[i] += {lj}.0;\n"
                        ));
                        text.push_str("}\n");
                    } else {
                        text.push_str(&format!(
                            "    for (int i = 0; i < n; ++i) buf[i] *= {}.5;\n",
                            lj % 9
                        ));
                    }
                }
                text.push_str("}\n\n");
            }
            GeneratedFile {
                name: format!("sized_{fi}.c"),
                text,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(files: usize, fns: usize) -> CodebaseSpec {
        CodebaseSpec {
            files,
            functions_per_file: fns,
            seed: 7,
        }
    }

    #[test]
    fn omp_codebase_contains_parallel_regions() {
        let files = omp_codebase(&spec(2, 10));
        assert_eq!(files.len(), 2);
        assert!(files[0].text.contains("#pragma omp parallel"));
        assert!(files[0].text.contains("#include <omp.h>"));
    }

    #[test]
    fn kernel_codebase_mixes_kernels_and_helpers() {
        let files = kernel_codebase(&spec(1, 20));
        assert!(files[0].text.contains("kernel_dot_"));
        assert!(files[0].text.contains("helper_"));
    }

    #[test]
    fn multiversion_codebase_has_all_targets() {
        let files = multiversion_codebase(&spec(1, 10));
        let t = &files[0].text;
        assert!(t.contains("target(\"avx512\")") || t.contains("target(\"avx2\")"));
        assert!(t.contains("target(\"default\")"));
    }

    #[test]
    fn unrolled_codebase_shape() {
        let files = unrolled_codebase(&spec(1, 3), 4);
        let t = &files[0].text;
        assert!(t.contains("i += 4"));
        assert!(t.contains("[i+0]"));
        assert!(t.contains("[i+3]"));
        assert!(!t.contains("[i+4]"));
    }

    #[test]
    fn cuda_codebase_launch_syntax() {
        let files = cuda_codebase(&spec(1, 8));
        assert!(files[0].text.contains("<<<grid, block, 0, stream>>>"));
    }

    #[test]
    fn librsb_codebase_affected_naming() {
        let files = librsb_codebase(&spec(4, 30));
        let all: String = files.iter().map(|f| f.text.as_str()).collect();
        assert!(all.contains("rsb__BCSR_spmv_sasa_double_complex_"));
        assert!(all.contains("rsb__BCSR_spmv_plain_"));
    }

    #[test]
    fn report_scan_codebase_rotates_shapes_deterministically() {
        let files = report_scan_codebase(&spec(2, 8));
        assert_eq!(files.len(), 2);
        let t = &files[0].text;
        assert!(t.contains("acquire(buf["));
        assert!(t.contains("release(buf["));
        assert!(t.contains("return;"), "early-return shape present");
        // Exactly one leak (no release) per 4 functions.
        let acquires = t.matches("acquire(").count();
        let releases = t.matches("release(").count();
        assert_eq!(acquires, 8);
        // Shapes: 2 straight (1 release) + 2 both-arms (2 releases)
        // + 2 early-return (1 release) + 2 leaks (0) = 8 releases.
        assert_eq!(releases, 8);
        // Deterministic in the seed.
        let again = report_scan_codebase(&spec(2, 8));
        assert_eq!(files[0].text, again[0].text);
    }

    #[test]
    fn branchy_codebase_mixes_flow_shapes() {
        let files = branchy_codebase(&spec(4, 12));
        let all: String = files.iter().map(|f| f.text.as_str()).collect();
        assert!(all.contains("probe_begin(buf);"));
        assert!(all.contains("return;"), "escape shape present");
        assert!(all.contains("} else {"), "join shape present");
        assert!(all.contains("for (int i = 0;"), "loop shape present");
        let linear = linear_probe_codebase(&spec(2, 4));
        assert!(linear[0].text.contains("probe_end(buf);"));
        assert!(
            !linear[0].text.contains("if ("),
            "linear slice stays straight-line"
        );
    }

    #[test]
    fn forked_commit_codebase_binds_arms_differently() {
        let files = forked_commit_codebase(&spec(3, 10));
        let all: String = files.iter().map(|f| f.text.as_str()).collect();
        assert!(all.contains("checkpoint();"));
        assert!(all.contains("} else {"), "every function branches");
        // At least one function commits different expressions per arm
        // (the forking case the workload exists for).
        let forks = files.iter().any(|f| {
            f.text.split("checkpoint();").skip(1).any(|fun| {
                let commits: Vec<&str> = fun
                    .lines()
                    .filter(|l| l.trim_start().starts_with("commit("))
                    .collect();
                commits.len() >= 2 && commits[0].trim() != commits[1].trim()
            })
        });
        assert!(forks, "no function binds its arms differently");
    }

    #[test]
    fn sized_codebase_scales() {
        let small = sized_codebase(1, 2, 2, 1);
        let large = sized_codebase(1, 2, 40, 1);
        assert!(large[0].text.len() > 5 * small[0].text.len());
    }

    #[test]
    fn generated_code_parses() {
        use cocci_cast::parser::{parse_translation_unit, NoMeta, ParseOptions};
        for f in omp_codebase(&spec(2, 6)) {
            parse_translation_unit(&f.text, ParseOptions::c(), &NoMeta)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", f.name, f.text));
        }
        for f in cuda_codebase(&spec(2, 6)) {
            parse_translation_unit(&f.text, ParseOptions::cpp(), &NoMeta)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", f.name, f.text));
        }
        for f in unrolled_codebase(&spec(2, 4), 4) {
            parse_translation_unit(&f.text, ParseOptions::c(), &NoMeta)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", f.name, f.text));
        }
        for f in raw_loop_codebase(&spec(1, 4)) {
            parse_translation_unit(&f.text, ParseOptions::cpp(), &NoMeta)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", f.name, f.text));
        }
        for f in branchy_codebase(&spec(2, 8)) {
            parse_translation_unit(&f.text, ParseOptions::c(), &NoMeta)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", f.name, f.text));
        }
        for f in linear_probe_codebase(&spec(2, 8)) {
            parse_translation_unit(&f.text, ParseOptions::c(), &NoMeta)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", f.name, f.text));
        }
        for f in forked_commit_codebase(&spec(2, 8)) {
            parse_translation_unit(&f.text, ParseOptions::c(), &NoMeta)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", f.name, f.text));
        }
    }
}
