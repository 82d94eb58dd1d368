//! Engine-level integration tests beyond the paper's use cases: rule
//! orchestration (dependencies, negation, inheritance chains), matcher
//! edge cases, edit interplay, and cross-crate behaviour (CFG of patched
//! output).

use cocci_core::Patcher;
use cocci_core::{apply_to_files, scan_corpus, CompiledRuleSet, CorpusOptions, MemorySource};
use cocci_smpl::parse_semantic_patch;
use cocci_workloads::rule_matrix::{rule_matrix_codebase, rule_matrix_rules, RuleMatrixSpec};

fn apply(patch: &str, target: &str) -> Option<String> {
    let sp = parse_semantic_patch(patch).unwrap_or_else(|e| panic!("patch parse: {e}"));
    let mut p = Patcher::new(&sp).unwrap_or_else(|e| panic!("compile: {e}"));
    p.apply("t.c", target)
        .unwrap_or_else(|e| panic!("apply: {e}"))
}

// ---- orchestration ----

#[test]
fn depends_on_negation_fires_when_rule_missing() {
    let patch = r#"
@has_omp@
@@
#include <omp.h>

@depends on !has_omp@
@@
#include <stdio.h>
+ #include <omp.h>
"#;
    // File without omp: the second rule adds it.
    let out = apply(patch, "#include <stdio.h>\nint x;\n").unwrap();
    assert!(out.contains("#include <omp.h>"));
    // File with omp already: nothing to do.
    assert!(apply(patch, "#include <omp.h>\n#include <stdio.h>\nint x;\n").is_none());
}

#[test]
fn depends_on_conjunction() {
    let patch = r#"
@a@
@@
first_marker();

@b@
@@
second_marker();

@depends on a && b@
@@
- both_present();
+ confirmed();
"#;
    let both = "void f(void) { first_marker(); second_marker(); both_present(); }\n";
    let out = apply(patch, both).unwrap();
    assert!(out.contains("confirmed();"));

    let only_a = "void f(void) { first_marker(); both_present(); }\n";
    assert!(apply(patch, only_a).is_none());
}

#[test]
fn depends_on_disjunction() {
    let patch = r#"
@a@
@@
first_marker();

@b@
@@
second_marker();

@depends on a || b@
@@
- target();
+ hit();
"#;
    let only_b = "void f(void) { second_marker(); target(); }\n";
    assert!(apply(patch, only_b).unwrap().contains("hit();"));
    let neither = "void f(void) { target(); }\n";
    assert!(apply(patch, neither).is_none());
}

#[test]
fn sequential_rules_see_previous_transformations() {
    // Rule 2 matches code created by rule 1 — Coccinelle's sequential
    // application semantics.
    let patch = r#"
@one@
@@
- step_a();
+ step_b();

@two@
@@
- step_b();
+ step_c();
"#;
    let out = apply(patch, "void f(void) { step_a(); }\n").unwrap();
    assert!(out.contains("step_c();"), "{out}");
    assert!(!out.contains("step_b();"), "{out}");
}

#[test]
fn inherited_identifier_narrows_later_rule() {
    // Rule `find` locates the deprecated call and binds the argument
    // variable; the dependent rule renames only that variable's decl.
    let patch = r#"
@find@
identifier v;
@@
deprecated_use(v);

@depends on find@
identifier find.v;
type T;
@@
- T v;
+ T v = 0;
"#;
    let src =
        "void f(void) {\n    double amount;\n    double other;\n    deprecated_use(amount);\n}\n";
    let out = apply(patch, src).unwrap();
    assert!(out.contains("double amount = 0;"), "{out}");
    assert!(out.contains("double other;"), "{out}");
}

#[test]
fn rule_chain_through_two_scripts() {
    let patch = r#"
@initialize:python@ @@
STEP1 = { "alpha": "beta" }
STEP2 = { "beta": "gamma" }

@m@
identifier f;
expression list el;
@@
f(el)

@script:python s1@
f << m.f;
g;
@@
coccinelle.g = cocci.make_ident(STEP1[f]);

@script:python s2@
g << s1.g;
h;
@@
coccinelle.h = cocci.make_ident(STEP2[g]);

@r@
identifier m.f;
identifier s2.h;
expression list m.el;
@@
- f(el)
+ h(el)
"#;
    let out = apply(patch, "void t(void) { alpha(1, 2); other(3); }\n").unwrap();
    assert!(out.contains("gamma(1, 2);"), "{out}");
    assert!(out.contains("other(3);"), "{out}");
}

#[test]
fn script_dropping_every_environment_leaves_none() {
    let patch = r#"
@initialize:python@ @@
D = { "bar": "baz" }

@r@
identifier fn;
position p;
@@
fn@p(...)

@script:python s@
fn << r.fn;
nf;
@@
coccinelle.nf = cocci.make_ident(D[fn]);

@t@
identifier r.fn;
position r.p;
@@
- fn@p(...)
+ gone()
"#;
    // The script drops the only environment: `t` has no seed left.
    assert_eq!(apply(patch, "void f(void) { foo(1); }\n"), None);
    // It keeps `bar`'s environment and drops `foo`'s.
    assert_eq!(
        apply(patch, "void f(void) { foo(1); bar(2); }\n").as_deref(),
        Some("void f(void) { foo(1); gone(); }\n")
    );
}

// ---- matcher edges ----

#[test]
fn nested_dots_in_two_blocks() {
    let patch = r#"
@@
expression e;
@@
while (e)
{
...
- legacy_poll();
+ modern_poll();
...
}
"#;
    let src = "void f(int n) {\n    while (n > 0) {\n        prep();\n        legacy_poll();\n        post();\n    }\n}\n";
    let out = apply(patch, src).unwrap();
    assert!(out.contains("modern_poll();"), "{out}");
    assert!(out.contains("prep();"), "{out}");
    assert!(out.contains("post();"), "{out}");
}

#[test]
fn expression_list_reuse_must_agree() {
    let patch = r#"
@@
identifier f;
expression list el;
@@
- first(el);
- second(el);
+ fused(el);
"#;
    let same = "void g(void) { first(a, b); second(a, b); }\n";
    let out = apply(patch, same).unwrap();
    assert!(out.contains("fused(a, b);"), "{out}");
    assert!(!out.contains("first"), "{out}");

    let diff = "void g(void) { first(a, b); second(a, c); }\n";
    assert!(apply(patch, diff).is_none());
}

#[test]
fn statement_list_metavar_captures_body() {
    let patch = r#"
@@
identifier f;
statement list SL;
@@
void f(void)
{
+ prologue();
SL
}
"#;
    let src = "void target(void)\n{\n    a();\n    b();\n}\n";
    let out = apply(patch, src).unwrap();
    let p = out.find("prologue();").unwrap();
    assert!(p < out.find("a();").unwrap(), "{out}");
}

#[test]
fn type_metavar_consistency_across_params() {
    let patch = r#"
@@
type T;
identifier f, x, y;
@@
- T f(T x, T y);
+ T f(T x, T y, T z);
"#;
    let same = "double combine(double a, double b);\n";
    let out = apply(patch, same).unwrap();
    assert!(
        out.contains("double combine(double a, double b, double z);"),
        "{out}"
    );
    // Mixed types must not match a single type metavariable.
    let mixed = "double combine(double a, float b);\n";
    assert!(apply(patch, mixed).is_none());
}

#[test]
fn constant_metavar_set_constraint() {
    let patch = r#"
@@
constant c = {8, 16};
expression e;
@@
- aligned_alloc(c, e)
+ smart_alloc(e)
"#;
    let out = apply(
        patch,
        "void f(void) { p = aligned_alloc(16, n); q = aligned_alloc(4, n); }\n",
    )
    .unwrap();
    assert!(out.contains("smart_alloc(n)"), "{out}");
    assert!(out.contains("aligned_alloc(4, n)"), "{out}");
}

#[test]
fn regex_not_constraint() {
    let patch = r#"
@@
identifier f !~ "^debug_";
expression list el;
@@
- f(el);
+ traced(f, el);
"#;
    let out = apply(patch, "void g(void) { compute(1); debug_log(2); }\n").unwrap();
    assert!(out.contains("traced(compute, 1);"), "{out}");
    assert!(out.contains("debug_log(2);"), "{out}");
}

#[test]
fn member_access_patterns() {
    let patch = r#"
@@
expression p;
identifier fld;
@@
- p->fld = 0;
+ reset_field(p, &p->fld);
"#;
    let out = apply(
        patch,
        "void f(struct node *n) { n->next = 0; n->prev = q; }\n",
    )
    .unwrap();
    assert!(out.contains("reset_field(n, &n->next);"), "{out}");
    assert!(out.contains("n->prev = q;"), "{out}");
}

#[test]
fn cast_and_sizeof_matching() {
    let patch = r#"
@@
type T;
expression n;
@@
- (T)malloc(n * sizeof(T))
+ new_array(T, n)
"#;
    let out = apply(
        patch,
        "void f(int n) { double *p; p = (double)malloc(n * sizeof(double)); }\n",
    );
    // `(double)` casts the result; consistency of T across cast and
    // sizeof is required.
    let out = out.unwrap();
    assert!(out.contains("new_array(double, n)"), "{out}");
}

#[test]
fn if_condition_rewrite_rerenders_whole_statement() {
    let patch = r#"
@@
expression a, b;
@@
- if (a == b) flag_equal();
+ if (cmp(a, b)) flag_equal();
"#;
    let out = apply(
        patch,
        "void f(int x, int y) { if (x == y) flag_equal(); }\n",
    )
    .unwrap();
    assert!(out.contains("if (cmp(x, y)) flag_equal();"), "{out}");
}

#[test]
fn do_while_and_switch_matching() {
    let patch = r#"
@@
expression e;
@@
do {
- spin_old(e);
+ spin_new(e);
} while (e);
"#;
    let out = apply(patch, "void f(int n) { do { spin_old(n); } while (n); }\n").unwrap();
    assert!(out.contains("spin_new(n);"), "{out}");
}

// ---- multi-file / driver ----

#[test]
fn driver_reports_mixed_outcomes() {
    let patch = parse_semantic_patch("@@ @@\n- hit();\n+ HIT();\n").unwrap();
    let files = vec![
        ("a.c".to_string(), "void f(void) { hit(); }\n".to_string()),
        ("b.c".to_string(), "void f(void) { miss(); }\n".to_string()),
        ("broken.c".to_string(), "void f( {".to_string()),
    ];
    let outcomes = apply_to_files(&patch, &files, 2).unwrap();
    assert!(outcomes[0].output.is_some());
    assert!(outcomes[1].output.is_none() && outcomes[1].report.error.is_none());
    assert!(outcomes[2].report.error.is_some());
}

/// The scan oracle: an N-rule scan finds exactly the union of N one-rule
/// scans' (file, line, col, rule) sets — the shared parse and merged
/// prefilter are pure optimizations.
#[test]
fn n_rule_scan_equals_union_of_one_rule_scans() {
    let spec = RuleMatrixSpec {
        rules: 10,
        files: 8,
        functions_per_file: 8,
        overlap: 2,
        seed: 0x5CA2,
    };
    let sources: Vec<(String, String, String)> = rule_matrix_rules(&spec)
        .into_iter()
        .map(|f| {
            let stem = f.name.trim_end_matches(".cocci").to_string();
            (f.name, stem, f.text)
        })
        .collect();
    let files: Vec<(String, String)> = rule_matrix_codebase(&spec)
        .into_iter()
        .map(|f| (f.name, f.text))
        .collect();
    let findings = |sources: &[(String, String, String)]| {
        let set = CompiledRuleSet::from_sources(sources).unwrap();
        let mut keys = Vec::new();
        let source = &mut MemorySource::new(files.clone());
        let opts = CorpusOptions::default();
        let report = scan_corpus(&set, source, &opts, None, |_, _, _| {}).unwrap();
        for f in report.files.iter().flat_map(|f| &f.findings) {
            keys.push((f.path.clone(), f.line, f.col, f.rule.clone()));
        }
        keys.sort();
        keys
    };
    let merged = findings(&sources);
    let mut union: Vec<_> = sources
        .iter()
        .flat_map(|s| findings(std::slice::from_ref(s)))
        .collect();
    union.sort();
    assert!(!merged.is_empty(), "the matrix corpus has matching arms");
    assert_eq!(merged, union, "N-rule scan == union of one-rule scans");
}

// ---- cross-crate: CFG of patched output ----

#[test]
fn patched_output_has_wellformed_cfg() {
    use cocci_cast::parser::{parse_translation_unit, NoMeta, ParseOptions};
    use cocci_cast::Item;
    use cocci_flow::{build_cfg, walk_gap, Cfg, GapFailure, NodeId, Quant};

    let patch = r#"
@@
@@
#pragma omp ...
{
+ LIKWID_MARKER_START(__func__);
...
+ LIKWID_MARKER_STOP(__func__);
}
"#;
    let src = "void f(int n, double *a) {\n#pragma omp parallel\n{\n    for (int i = 0; i < n; ++i) a[i] = 0;\n}\n}\n";
    let out = apply(patch, src).unwrap();
    let tu = parse_translation_unit(&out, ParseOptions::c(), &NoMeta).unwrap();
    let Item::Function(f) = &tu.items[0] else {
        panic!()
    };
    let cfg = build_cfg(f);
    // Instrumentation must not break structure: the loop is still there
    // (one edge closing back onto a depth-first path from the entry)…
    fn back_edges(cfg: &Cfg, n: NodeId, on_path: &mut [Option<bool>]) -> usize {
        on_path[n.index()] = Some(true);
        let mut count = 0;
        for &s in cfg.succs(n) {
            match on_path[s.index()] {
                None => count += back_edges(cfg, s, on_path),
                Some(true) => count += 1,
                Some(false) => {}
            }
        }
        on_path[n.index()] = Some(false);
        count
    }
    assert_eq!(back_edges(&cfg, cfg.entry(), &mut vec![None; cfg.len()]), 1);
    // …and every node is reachable: a gap walk from the entry that never
    // hits visits them all.
    let mut reach = vec![false; cfg.len()];
    let walk = walk_gap(
        &cfg,
        &[cfg.entry()],
        Quant::Exists,
        &mut |n| {
            reach[n.index()] = true;
            false
        },
        &mut |_| true,
    );
    assert_eq!(walk, Err(GapFailure::NoHit));
    assert!(reach.iter().all(|&r| r));
}

// ---- whole-file shape preservation ----

#[test]
fn untouched_regions_are_byte_identical() {
    let patch = r#"
@@
expression e;
@@
- old_call(e);
+ new_call(e);
"#;
    let src = "/* header   comment\n   with  weird    spacing */\nvoid f(void) {\n\tint  x   =  1;\n\told_call(x);\n\t/* tail */\n}\n";
    let out = apply(patch, src).unwrap();
    assert!(out.contains("/* header   comment\n   with  weird    spacing */"));
    assert!(out.contains("\tint  x   =  1;"));
    assert!(out.contains("\t/* tail */"));
    assert!(out.contains("new_call(x);"));
}

// ---- when-constrained dots ----

#[test]
fn when_not_constrains_skipped_region() {
    // Lock/unlock pairing: insert a check only when the skipped region
    // does not already release the lock.
    let patch = r#"
@@
expression l;
@@
lock(l);
... when != unlock(l)
- finish();
+ unlock(l); finish();
"#;
    // Case 1: no unlock in between → rewrite fires.
    let src1 = "void f(void) { lock(m); work(); finish(); }\n";
    let out1 = apply(patch, src1).unwrap();
    assert!(out1.contains("unlock(m); finish();"), "{out1}");

    // Case 2: unlock already present in the skipped region → no match.
    let src2 = "void f(void) { lock(m); work(); unlock(m); finish(); }\n";
    assert!(apply(patch, src2).is_none());
}

#[test]
fn when_any_is_unconstrained() {
    let patch = r#"
@@
@@
start();
... when any
- stop();
+ halt();
"#;
    let src = "void f(void) { start(); anything(); stop(); }\n";
    assert!(apply(patch, src).unwrap().contains("halt();"));
}

#[test]
fn when_not_with_metavariable_consistency() {
    // The forbidden expression uses the same metavariable bound by the
    // anchor statement: only re-assignments of THAT variable block.
    let patch = r#"
@@
identifier v;
expression e;
@@
v = checked_init(e);
... when != v
- use_raw(v);
+ use_checked(v);
"#;
    // v untouched between init and use → fires.
    let ok = "void f(void) { x = checked_init(0); other = 3; use_raw(x); }\n";
    assert!(apply(patch, ok).unwrap().contains("use_checked(x);"));
    // v mentioned in between → blocked.
    let blocked = "void f(void) { x = checked_init(0); log(x); use_raw(x); }\n";
    assert!(apply(patch, blocked).is_none());
}

// ---- `+` lines and dots ----

const BRACE_TARGET: &str = "void h(void) {\n    f(1, 2);\n    f();\n}\n";

#[test]
fn plus_line_after_an_opening_brace_gets_its_own_line() {
    let patch = "@@\n@@\n  void h(void) {\n+ init();\n  ...\n  }\n";
    assert_eq!(
        apply(patch, BRACE_TARGET).as_deref(),
        Some("void h(void) {\n    init();\n    f(1, 2);\n    f();\n}\n")
    );
    // A varargs prototype is C, and inserts the same way.
    let patch = "@@\n@@\n  void h(void) {\n+ int logf(const char *fmt, ...);\n  ...\n  }\n";
    assert_eq!(
        apply(patch, BRACE_TARGET).as_deref(),
        Some("void h(void) {\n    int logf(const char *fmt, ...);\n    f(1, 2);\n    f();\n}\n")
    );
}

#[test]
fn dots_on_a_plus_line_are_a_compile_error() {
    for patch in [
        "@@\n@@\n- f(...);\n+ g(...);\n",
        "@@\nexpression e;\n@@\n- f(e, ...);\n+ g(e, ...);\n",
    ] {
        let sp = parse_semantic_patch(patch).unwrap();
        let err = Patcher::new(&sp).err().expect("refused at compile time");
        assert!(err.message.contains("`- f` / `+ g` / `(...);`"), "{err}");
    }
    // The context spelling keeps each call's arguments.
    let patch = "@@\n@@\n- f\n+ g\n  (...);\n";
    assert_eq!(
        apply(patch, BRACE_TARGET).as_deref(),
        Some("void h(void) {\n    g(1, 2);\n    g();\n}\n")
    );
}
