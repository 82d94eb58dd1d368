//! Allocation budgets for the per-file hot path: the parse, a pinned try
//! that fails, and an environment clone.
//!
//! The counter is process-wide, so this file holds one test: nothing
//! else allocates while it measures. Counts repeat exactly from run to
//! run, so the bounds are tight: each is the count measured when it was
//! set plus about 10%, with the count before flat environments, trail
//! backtracking and the parser's token classes beside it.

use cocci_bench::alloc::{AllocSnapshot, CountingAlloc};
use cocci_cast::parser::ParseOptions;
use cocci_core::{Env, FileContext, Patcher, Value};
use cocci_smpl::parse_semantic_patch;
use cocci_source::{Span, Symbol};
use cocci_workloads::{rule_matrix_codebase, RuleMatrixSpec};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The allocations `f` makes.
fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocSnapshot) {
    let before = ALLOC.snapshot();
    let out = f();
    (out, ALLOC.snapshot().delta(before))
}

#[test]
fn hot_path_allocations_stay_within_budget() {
    // A 512-function `rule_matrix` file, as `scan_rules50` scans it:
    // one statement per function, a quarter of them `api_g(buf[k], a);`
    // calls for each of ten callees.
    let spec = RuleMatrixSpec {
        rules: 50,
        files: 1,
        functions_per_file: 512,
        overlap: 5,
        seed: 7,
    };
    let file = rule_matrix_codebase(&spec).remove(0);

    // The parse, with the identifier table the context keeps.
    let mut ctx = FileContext::new(file.name.as_str(), file.text.as_str());
    let (parsed, parse) = counted(|| ctx.parse(ParseOptions::c()).map(|_| ()));
    parsed.expect("the matrix file parses");
    let per_function = parse.allocs as f64 / 512.0;
    eprintln!(
        "parse: {} allocations, {per_function:.2} per function",
        parse.allocs
    );
    // 9.36 when set; 17.3 before.
    assert!(
        per_function <= 10.3,
        "{per_function:.2} allocations per function"
    );

    // A one-rule scan pinned to `api_3` whose every try binds `e` and
    // then fails at the second argument (no call has arm 9).
    let patch = parse_semantic_patch("@r@\nexpression e;\nposition p;\n@@\napi_3(e, 9)@p;\n")
        .expect("rule parses");
    let mut patcher = Patcher::new(&patch).expect("rule compiles");
    let tries = file.text.matches("api_3(").count();
    assert!(tries > 20, "the file holds {tries} calls of api_3");
    // Debug builds repeat every pinned search as a full walk, whose tries
    // at the other roots fail before they bind anything.
    let walks = if cfg!(debug_assertions) { 2 } else { 1 };
    let (out, scan) = counted(|| patcher.apply_ctx(&mut ctx));
    assert_eq!(out.expect("scan runs"), None, "no call matches");
    let per_try = scan.allocs as f64 / (tries * walks) as f64;
    eprintln!(
        "scan: {} allocations over {tries} tries, {per_try:.2} per try",
        scan.allocs
    );
    // The rule's own setup (its pin, its search) is spread over the tries.
    // 4.40 when set (3.84 in a debug build); 7.42 before.
    assert!(per_try <= 4.9, "{per_try:.2} allocations per try");

    // An environment of three bindings whose values own no heap memory
    // clones in one allocation of at most four slots.
    let mut env = Env::new();
    env.bind("n", Value::Int(3));
    env.bind(
        "f",
        Value::Ident {
            name: Symbol::intern("api_3"),
            span: Span::new(4, 9),
        },
    );
    env.bind(
        "p",
        Value::Pos {
            file: Arc::from("matrix_0.c"),
            span: Span::new(4, 9),
            resolved: None,
        },
    );
    let (copy, clone) = counted(|| env.clone());
    assert_eq!(copy.len(), 3);
    eprintln!(
        "env clone: {} allocations, {} bytes",
        clone.allocs, clone.bytes
    );
    assert_eq!(clone.allocs, 1, "one allocation for the bindings");
    let slot = std::mem::size_of::<(Symbol, Value)>() as u64;
    // 288 bytes when set; before, one 2,176-byte B-tree leaf.
    assert!(clone.bytes <= 4 * slot, "{} bytes", clone.bytes);
}
