//! CUDA→HIP migration of a generated miniapp codebase — the paper's
//! "Translation of very similar APIs" use case (UC7/UC8) at scale, with
//! a side-by-side comparison against the hipify-perl-style textual
//! rewriter.
//!
//! ```text
//! cargo run -p cocci-examples --bin cuda2hip --release
//! ```

use cocci_core::apply_to_files;
use cocci_examples::{section, timed};
use cocci_smpl::parse_semantic_patch;
use cocci_textpatch::{TextPatcher, CUDA_HIP_DICT};
use cocci_workloads::gen::{cuda_codebase, CodebaseSpec};

const PATCH: &str = r#"
#spatch --c++
@initialize:python@ @@
C2HF = { "curand_uniform_double": "rocrand_uniform_double" }
C2HT = { "__half": "rocblas_half" }

@cfe@
identifier fn;
expression list el;
position p;
@@
fn@p(el)

@script:python cf2hf@
fn << cfe.fn;
nf;
@@
coccinelle.nf = cocci.make_ident(C2HF[fn]);

@hfe@
identifier cfe.fn;
identifier cf2hf.nf;
position cfe.p;
@@
- fn@p
+ nf
(...)

@cte@
type c_t;
identifier i;
@@
c_t i;

@script:python ct2hf@
c_t << cte.c_t;
h_t;
@@
coccinelle.h_t = cocci.make_type(C2HT[c_t]);

@hte@
type ct2hf.h_t;
type cte.c_t;
identifier cte.i;
@@
- c_t i;
+ h_t i;

@chevron@
identifier k;
expression b,t,x,y;
expression list el;
@@
- k<<<b,t,x,y>>>(el)
+ hipLaunchKernelGGL(k,b,t,x,y,el)
"#;

fn main() {
    let spec = CodebaseSpec {
        files: 16,
        functions_per_file: 12,
        seed: 2024,
    };
    let files = cuda_codebase(&spec);
    let total_loc: usize = files.iter().map(|f| f.text.lines().count()).sum();
    section("workload");
    println!("{} CUDA files, {total_loc} LoC", files.len());

    let patch = parse_semantic_patch(PATCH).expect("patch parses");
    let inputs: Vec<(String, String)> = files
        .iter()
        .map(|f| (f.name.clone(), f.text.clone()))
        .collect();

    section("semantic engine");
    let (outcomes, secs) = timed(|| apply_to_files(&patch, &inputs, 0).unwrap());
    let changed = outcomes.iter().filter(|o| o.output.is_some()).count();
    let launches: usize = outcomes
        .iter()
        .filter_map(|o| o.output.as_deref())
        .map(|t| t.matches("hipLaunchKernelGGL").count())
        .sum();
    let rands: usize = outcomes
        .iter()
        .filter_map(|o| o.output.as_deref())
        .map(|t| t.matches("rocrand_uniform_double").count())
        .sum();
    println!(
        "{changed}/{} files transformed in {:.3}s: {launches} kernel launches, {rands} cuRAND calls, all __half decls retyped",
        outcomes.len(),
        secs
    );
    for o in &outcomes {
        if let Some(e) = &o.report.error {
            eprintln!("  ERROR {}: {e}", o.report.name);
        }
    }

    section("textual baseline (hipify-perl fidelity)");
    let tp = TextPatcher::word_boundary(CUDA_HIP_DICT);
    let (n_replacements, tsecs) = timed(|| {
        inputs
            .iter()
            .map(|(_, text)| tp.apply(text).1)
            .sum::<usize>()
    });
    println!("{n_replacements} text replacements in {tsecs:.3}s (no AST: strings/comments are fair game)");

    section("sample diff (first transformed file)");
    if let Some(o) = outcomes.iter().find(|o| o.output.is_some()) {
        let new_text = o.output.as_deref().unwrap();
        for (a, b) in inputs
            .iter()
            .find(|(n, _)| *n == o.report.name)
            .map(|(_, t)| t)
            .unwrap()
            .lines()
            .zip(new_text.lines())
        {
            if a != b {
                println!("- {a}\n+ {b}");
            }
        }
    }
}
