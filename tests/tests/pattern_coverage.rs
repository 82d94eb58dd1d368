//! Coverage tests for pattern constructs not exercised by the paper's
//! use cases: ternary patterns, initializer lists, kernel-launch dots,
//! expression disjunction with rewrites, switch/case matching, labels,
//! C++ range-for patterns, and statement dots over control flow
//! (all-paths CFG semantics vs the legacy tree-sequence reading).

use cocci_core::Patcher;
use cocci_smpl::parse_semantic_patch;

fn apply(patch: &str, target: &str) -> Option<String> {
    let sp = parse_semantic_patch(patch).unwrap_or_else(|e| panic!("patch parse: {e}"));
    let mut p = Patcher::new(&sp).unwrap_or_else(|e| panic!("compile: {e}"));
    p.apply("t.c", target)
        .unwrap_or_else(|e| panic!("apply: {e}"))
}

/// Like [`apply`], but with CFG flow routing forced on or off — the
/// tree/flow disagreement tests below use both sides.
fn apply_flow(patch: &str, target: &str, flow: bool) -> Option<String> {
    let sp = parse_semantic_patch(patch).unwrap_or_else(|e| panic!("patch parse: {e}"));
    let mut p = Patcher::new(&sp).unwrap_or_else(|e| panic!("compile: {e}"));
    p.flow_enabled = flow;
    p.apply("t.c", target)
        .unwrap_or_else(|e| panic!("apply: {e}"))
}

const PROBE_PATCH: &str = r#"
@@
expression b;
@@
- probe_begin(b);
+ probe_enter(b);
...
probe_end(b);
"#;

#[test]
fn dots_match_across_if_else_join() {
    // probe_end sits in *both* arms of the branch: every path reaches
    // it, so the CFG engine matches — the tree matcher cannot see a
    // sequence [probe_begin; ...; probe_end] in any single block and
    // wrongly refuses.
    let src = "void f(int x, double *q) {\n    probe_begin(q);\n    if (x) {\n        work(q);\n        probe_end(q);\n    } else {\n        probe_end(q);\n    }\n    done();\n}\n";
    let out = apply(PROBE_PATCH, src).expect("all paths reach probe_end");
    assert!(out.contains("probe_enter(q);"), "{out}");
    assert!(
        apply_flow(PROBE_PATCH, src, false).is_none(),
        "tree matcher misses the cross-branch pair"
    );
}

#[test]
fn dots_refuse_early_return_where_tree_overmatches() {
    // The acceptance disagreement case: a path escapes through `return`
    // without reaching probe_end. The tree matcher absorbs the whole
    // `if (x) return;` into the dots and matches anyway — the CFG
    // engine's refusal is the correct (all-paths) answer and is what
    // the default configuration produces.
    let src = "void f(int x, double *q) {\n    probe_begin(q);\n    if (x)\n        return;\n    probe_end(q);\n}\n";
    assert!(
        apply(PROBE_PATCH, src).is_none(),
        "default (CFG) semantics must refuse the escaping path"
    );
    assert!(
        apply_flow(PROBE_PATCH, src, false).is_some(),
        "tree semantics over-matches, demonstrating the disagreement"
    );
}

#[test]
fn dots_across_loop_reach_join_after_exit() {
    // All paths leave the loop eventually (loop cut-points) and reach
    // probe_end after it.
    let src = "void f(int n, double *q) {\n    probe_begin(q);\n    while (n > 0) {\n        step(q);\n        n = n - 1;\n    }\n    probe_end(q);\n}\n";
    let out = apply(PROBE_PATCH, src).unwrap();
    assert!(out.contains("probe_enter(q);"), "{out}");
    // But a probe_end only *inside* the loop body does not hold on the
    // zero-iteration path.
    let src2 = "void f(int n, double *q) {\n    probe_begin(q);\n    while (n > 0) {\n        probe_end(q);\n        n = n - 1;\n    }\n}\n";
    assert!(apply(PROBE_PATCH, src2).is_none());
}

#[test]
fn dots_refuse_break_escape_inside_loop() {
    // Inside the loop body, the `break` path leaves the loop and exits
    // the function without passing probe_end.
    let src = "void f(int n, double *q) {\n    while (n > 0) {\n        probe_begin(q);\n        if (n == 2)\n            break;\n        probe_end(q);\n        n = n - 1;\n    }\n}\n";
    assert!(apply(PROBE_PATCH, src).is_none(), "break path escapes");
    let src_ok = "void f(int n, double *q) {\n    while (n > 0) {\n        probe_begin(q);\n        probe_end(q);\n        n = n - 1;\n    }\n}\n";
    assert!(apply(PROBE_PATCH, src_ok).is_some());
}

#[test]
fn dots_when_not_holds_on_every_path() {
    let patch = r#"
@@
expression b;
@@
- probe_begin(b);
+ probe_enter(b);
... when != reset(b)
probe_end(b);
"#;
    // Clean on the straight line…
    let ok = "void f(double *q) {\n    probe_begin(q);\n    mid(q);\n    probe_end(q);\n}\n";
    assert!(apply(patch, ok).is_some());
    // …but a reset on *one* branch poisons that path.
    let bad = "void f(int x, double *q) {\n    probe_begin(q);\n    if (x) {\n        reset(q);\n    }\n    probe_end(q);\n}\n";
    assert!(apply(patch, bad).is_none());
}

#[test]
fn dots_join_requires_consistent_bindings_when_pre_bound() {
    // `b` is pinned at probe_begin(p), so the else arm's probe_end(r)
    // is not a hit at all: that path escapes and the match refuses.
    // (Witness forking only applies to metavariables still *unbound*
    // when the paths diverge — see the forked-witness test below.)
    let src = "void f(int x) {\n    probe_begin(p);\n    if (x) {\n        probe_end(p);\n    } else {\n        probe_end(r);\n    }\n}\n";
    assert!(apply(PROBE_PATCH, src).is_none());
}

#[test]
fn forked_witnesses_rewrite_both_arms() {
    // The acceptance case: `e` binds differently in the two arms, so
    // the engine forks one witness per path and each witness rewrites
    // its own arm — the pre-fork engine rewrote neither.
    let patch = r#"
@@
expression e;
@@
begin();
...
- commit(e);
+ commit_logged(e);
"#;
    let src = "void f(int x) {\n    begin();\n    if (x) {\n        commit(a);\n    } else {\n        commit(b);\n    }\n    done();\n}\n";
    let out = apply(patch, src).expect("forked witnesses rewrite both arms");
    assert!(out.contains("commit_logged(a);"), "{out}");
    assert!(out.contains("commit_logged(b);"), "{out}");
    assert!(!out.contains("commit(a);"), "{out}");
    assert!(!out.contains("commit(b);"), "{out}");
    // The tree reading sees no [begin; ...; commit] sequence in any
    // single block and misses both.
    assert!(apply_flow(patch, src, false).is_none());
}

#[test]
fn when_exists_matches_where_all_paths_reading_refuses() {
    // The acceptance case for `when exists`: the early return escapes
    // the default (forall) gap, but some path does reach probe_end —
    // the existential reading accepts exactly that.
    let exists_patch = r#"
@@
expression b;
@@
- probe_begin(b);
+ probe_enter(b);
... when exists
probe_end(b);
"#;
    let src = "void f(int x, double *q) {\n    probe_begin(q);\n    if (x)\n        return;\n    probe_end(q);\n}\n";
    assert!(
        apply(PROBE_PATCH, src).is_none(),
        "default all-paths reading refuses the escaping path"
    );
    let out = apply(exists_patch, src).expect("when exists matches the surviving path");
    assert!(out.contains("probe_enter(q);"), "{out}");
}

#[test]
fn contradictory_forked_rewrites_refuse_cleanly() {
    // `e` forks at the gap but is substituted into the *shared* anchor's
    // replacement: the two witnesses demand different text for the same
    // span. That is a genuinely contradictory rewrite — the whole group
    // is rejected (no edits, no error), matching the pre-fork engine's
    // clean refusal rather than failing the file.
    let patch = r#"
@@
expression e;
@@
- a();
+ a2(e);
...
b(e);
"#;
    let src = "void f(int x) {\n    a();\n    if (x) {\n        b(1);\n    } else {\n        b(2);\n    }\n}\n";
    assert!(
        apply(patch, src).is_none(),
        "contradictory witnesses must not rewrite (and must not error)"
    );
    // With agreeing bindings the shared-anchor rewrite applies once.
    let agree = "void f(int x) {\n    a();\n    if (x) {\n        b(7);\n    } else {\n        b(7);\n    }\n}\n";
    let out = apply(patch, agree).expect("consistent bindings rewrite");
    assert!(out.contains("a2(7);"), "{out}");
}

#[test]
fn contradictory_forked_insertions_refuse_cleanly() {
    // The forked metavariable lands in an *insertion* at the shared
    // anchor point rather than a replacement: log(1) vs log(2) at one
    // site is just as contradictory, and must refuse (not insert both).
    let patch = r#"
@@
expression e;
@@
a();
+ log(e);
...
b(e);
"#;
    let src = "void f(int x) {\n    a();\n    if (x) {\n        b(1);\n    } else {\n        b(2);\n    }\n}\n";
    assert!(
        apply(patch, src).is_none(),
        "contradictory insertions at the shared anchor must refuse"
    );
}

#[test]
fn plus_group_between_anchor_and_dots_inserts_after_the_anchor() {
    // The CFG route's dots span begins right after the anchor's
    // semicolon (mid-line); the insertion must still land *after* the
    // anchor statement, like the tree route places it.
    let patch = r#"
@@
expression e;
@@
a();
+ log(e);
...
b(e);
"#;
    let src = "void f(void) {\n    a();\n    mid();\n    b(5);\n}\n";
    let out = apply(patch, src).expect("straight-line insert");
    let a_pos = out.find("a();").expect("anchor kept");
    let log_pos = out.find("log(5);").expect("inserted");
    let mid_pos = out.find("mid();").expect("mid kept");
    assert!(
        a_pos < log_pos && log_pos < mid_pos,
        "insertion must sit between the anchor and the skipped code: {out}"
    );
}

#[test]
fn independent_exists_witnesses_survive_a_contradicting_sibling() {
    // Pure-exists patterns fork one *independent* witness per surviving
    // path (EF: one path suffices). A sibling whose shared-anchor
    // rewrite contradicts an earlier-accepted one drops alone; the
    // attempt still rewrites via the first path — unlike the forall
    // reading, where the group is rejected as a whole.
    let patch = r#"
@@
expression e;
@@
- a();
+ a2(e);
... when exists
b(e);
"#;
    let src = "void f(int x) {\n    a();\n    if (x) {\n        b(1);\n    } else {\n        b(2);\n    }\n}\n";
    let out = apply(patch, src).expect("one exists path suffices");
    assert!(
        out.contains("a2(1);"),
        "first-in-source witness wins: {out}"
    );
}

#[test]
fn rejected_witness_group_does_not_claim_territory() {
    // The outer a() attempt forks contradictorily (a2(1) vs a2(2) at
    // the shared anchor) and is rejected — *before* claiming, so the
    // clean inner attempt (e binds only 3) must still rewrite.
    let patch = r#"
@@
expression e;
@@
- a();
+ a2(e);
...
b(e);
"#;
    let src = "void f(int x) {\n    a();\n    if (x) {\n        b(1);\n        a();\n        b(3);\n    } else {\n        b(2);\n    }\n}\n";
    let out = apply(patch, src).expect("inner attempt survives");
    assert!(out.contains("a2(3);"), "{out}");
    assert!(out.contains("a();"), "outer anchor stays: {out}");
    assert!(out.contains("b(1);") && out.contains("b(2);"), "{out}");
}

#[test]
fn rejected_witness_group_does_not_count_as_matched() {
    // The contradictory-fork refusal must be a *full* refusal: the rule
    // is not recorded as matched, so `depends on` rules downstream do
    // not fire (the pre-fork engine refused the match outright).
    let patch = r#"
@r1@
expression e;
@@
- a();
+ a2(e);
...
b(e);

@r2 depends on r1@
@@
- done();
+ done2();
"#;
    let src =
        "void f(int x) {\n    a();\n    if (x) {\n        b(1);\n    } else {\n        b(2);\n    }\n    done();\n}\n";
    assert!(
        apply(patch, src).is_none(),
        "r1's refusal must not satisfy r2's dependency"
    );
}

#[test]
fn claim_blocked_witness_groups_drop_atomically() {
    // Two seeds of an inheriting rule overlap: the x=q seed claims the
    // else arm first, blocking the x=p attempt's e=2 sibling. The x=p
    // attempt must then drop *atomically* — rewriting only its e=1 arm
    // would leave the attempt's all-paths obligation half-applied.
    let patch = r#"
@r1@
identifier x;
@@
init(x);

@r2@
identifier r1.x;
expression e;
@@
a(x);
...
- b(e);
+ b2(x, e);
"#;
    let src = "void g(void) {\n    init(q);\n    init(p);\n}\nvoid f(int c, int p, int q) {\n    a(p);\n    if (c) {\n        b(1);\n    } else {\n        a(q);\n        b(2);\n    }\n}\n";
    let out = apply(patch, src).expect("the x=q seed rewrites its arm");
    assert!(out.contains("b2(q, 2);"), "{out}");
    assert!(
        out.contains("b(1);"),
        "x=p attempt must drop atomically, leaving b(1) untouched: {out}"
    );
}

#[test]
fn no_flow_refuses_quantified_rules_loudly() {
    // `--no-flow` forces the tree reading, which has no path
    // quantifiers; silently running `when strict` there would
    // over-match (rewrite across an escaping path). It is a per-file
    // error instead.
    let patch = r#"
@@
expression b;
@@
- probe_begin(b);
+ probe_enter(b);
... when strict
probe_end(b);
"#;
    let sp = parse_semantic_patch(patch).unwrap();
    let mut p = Patcher::new(&sp).unwrap();
    p.flow_enabled = false;
    let src = "void f(int x, double *q) {\n    probe_begin(q);\n    if (x)\n        return;\n    probe_end(q);\n}\n";
    let err = p.apply("t.c", src).unwrap_err();
    assert!(err.message.contains("when exists"), "{}", err.message);
    assert!(err.message.contains("no-flow"), "{}", err.message);
}

#[test]
fn when_strict_is_the_explicit_all_paths_spelling() {
    let strict_patch = r#"
@@
expression b;
@@
- probe_begin(b);
+ probe_enter(b);
... when strict
probe_end(b);
"#;
    let escape = "void f(int x, double *q) {\n    probe_begin(q);\n    if (x)\n        return;\n    probe_end(q);\n}\n";
    assert!(
        apply(strict_patch, escape).is_none(),
        "strict refuses escapes"
    );
    let clean = "void f(double *q) {\n    probe_begin(q);\n    mid(q);\n    probe_end(q);\n}\n";
    let out = apply(strict_patch, clean).expect("strict matches the clean gap");
    assert!(out.contains("probe_enter(q);"), "{out}");
}

#[test]
fn loop_back_edge_rewrite_keeps_forward_region() {
    // do-while: the body's flush() is reached through the loop back
    // edge and *precedes* the anchor in the source; the post-loop
    // flush() is the forward hit. The dots span must not collapse, and
    // the anchor rewrite must land.
    let patch = r#"
@@
@@
- stage();
+ stage2();
...
flush();
"#;
    let src = "void f(int n) {\n    do {\n        flush();\n        stage();\n    } while (n);\n    flush();\n}\n";
    let out = apply(patch, src).expect("loop back-edge match");
    assert!(out.contains("stage2();"), "{out}");
    assert!(!out.contains("stage();"), "{out}");
}

#[test]
fn ternary_pattern() {
    let patch = r#"
@@
expression a, b;
@@
- a > b ? a : b
+ max(a, b)
"#;
    let out = apply(patch, "void f(void) { m = x > y ? x : y; }\n").unwrap();
    assert!(out.contains("m = max(x, y);"), "{out}");
    // Non-max ternaries untouched.
    assert!(apply(patch, "void f(void) { m = x > y ? y : x; }\n").is_none());
}

#[test]
fn initializer_list_pattern() {
    let patch = r#"
@@
expression a, b;
@@
- dim3 grid = {a, b};
+ dim3 grid = make_dim3(a, b);
"#;
    let out = apply(patch, "void f(void) { dim3 grid = {nx, ny}; use(grid); }\n").unwrap();
    assert!(out.contains("dim3 grid = make_dim3(nx, ny);"), "{out}");
}

#[test]
fn kernel_launch_with_dots_config() {
    // `k<<<...>>>(...)`: any launch configuration, any arguments.
    let patch = r#"
#spatch --c++
@@
identifier k =~ "^legacy_";
@@
- k<<<...>>>(...);
+ launch_shim();
"#;
    let src =
        "void f(void) {\n    legacy_sum<<<g, b>>>(n, x);\n    modern_sum<<<g, b>>>(n, x);\n}\n";
    let out = apply(patch, src).unwrap();
    assert!(out.contains("launch_shim();"), "{out}");
    assert!(out.contains("modern_sum<<<g, b>>>(n, x);"), "{out}");
}

#[test]
fn expression_disjunction_with_rewrite() {
    let patch = r#"
@@
expression x;
@@
- report( \( x == 0 \| 0 == x \) );
+ report_zero(x);
"#;
    let out = apply(
        patch,
        "void f(void) { report(n == 0); report(0 == m); report(k == 1); }\n",
    )
    .unwrap();
    assert!(out.contains("report_zero(n);"), "{out}");
    assert!(out.contains("report_zero(m);"), "{out}");
    assert!(out.contains("report(k == 1);"), "{out}");
}

#[test]
fn switch_case_value_pattern() {
    let patch = r#"
@@
expression s;
@@
switch (s) {
case 0:
- legacy_zero();
+ fast_zero();
break;
...
}
"#;
    let src = "void f(int mode) {\n    switch (mode) {\n    case 0:\n        legacy_zero();\n        break;\n    default:\n        other();\n    }\n}\n";
    let out = apply(patch, src).unwrap();
    assert!(out.contains("fast_zero();"), "{out}");
    assert!(out.contains("other();"), "{out}");
}

#[test]
fn label_and_goto_pattern() {
    let patch = r#"
@@
identifier lbl;
@@
- goto lbl;
+ return cleanup();
"#;
    let out = apply(
        patch,
        "int f(int n) { if (n) goto out; work(); out: return done(); }\n",
    )
    .unwrap();
    assert!(out.contains("return cleanup();"), "{out}");
}

#[test]
fn range_for_body_rewrite() {
    let patch = r#"
#spatch --c++
@@
type T;
identifier v;
expression c;
@@
for (T &v : c) {
- v = v * v;
+ v = square(v);
}
"#;
    let src = "void f(void) {\n    for (double &x : values) {\n        x = x * x;\n    }\n}\n";
    let out = apply(patch, src).unwrap();
    assert!(out.contains("x = square(x);"), "{out}");
}

#[test]
fn postfix_and_prefix_incdec() {
    let patch = r#"
@@
identifier i;
@@
- i++;
+ advance(&i);
"#;
    let out = apply(patch, "void f(void) { n++; ++m; }\n").unwrap();
    assert!(out.contains("advance(&n);"), "{out}");
    assert!(out.contains("++m;"), "{out}");
}

#[test]
fn nested_member_chain() {
    let patch = r#"
@@
expression p;
@@
- p->hdr.magic
+ header_magic(p)
"#;
    let out = apply(
        patch,
        "int ok(struct pkt *q) { return q->hdr.magic == 0xCAFE; }\n",
    )
    .unwrap();
    assert!(out.contains("header_magic(q) == 0xCAFE"), "{out}");
}

#[test]
fn comma_operator_expression() {
    let patch = r#"
@@
expression a, b;
@@
- swap_prep(a), swap_commit(b);
+ swap(a, b);
"#;
    let out = apply(patch, "void f(void) { swap_prep(x), swap_commit(y); }\n").unwrap();
    assert!(out.contains("swap(x, y);"), "{out}");
}

#[test]
fn hex_and_suffix_literals_compare_by_value() {
    let patch = r#"
@@
expression e;
@@
- mask(e, 255)
+ mask_byte(e)
"#;
    // 0xff written differently in source still matches (value equality).
    let out = apply(patch, "void f(void) { y = mask(x, 0xFF); }\n").unwrap();
    assert!(out.contains("mask_byte(x)"), "{out}");
    let out2 = apply(patch, "void f(void) { y = mask(x, 255u); }\n").unwrap();
    assert!(out2.contains("mask_byte(x)"), "{out2}");
}

#[test]
fn multiple_rules_compose_on_one_function() {
    // Three rules touching the same function: include, body, call.
    let patch = r#"
@inc@
@@
#include <omp.h>
+ #include <profiler.h>

@body depends on inc@
identifier f;
statement list SL;
@@
void f(void)
{
+ prof_enter();
SL
}

@call depends on body@
@@
- finish();
+ prof_exit(); finish();
"#;
    let src = "#include <omp.h>\n\nvoid stage(void)\n{\n    work();\n    finish();\n}\n";
    let out = apply(patch, src).unwrap();
    assert!(out.contains("#include <profiler.h>"), "{out}");
    assert!(out.contains("prof_enter();"), "{out}");
    assert!(out.contains("prof_exit(); finish();"), "{out}");
}

// ---- position metavariables and the findings route ----

/// Apply a reporting-only patch and return its findings (with the flow
/// route forced on or off).
fn findings_flow(patch: &str, target: &str, flow: bool) -> Vec<cocci_core::Finding> {
    let sp = parse_semantic_patch(patch).unwrap_or_else(|e| panic!("patch parse: {e}"));
    let mut p = Patcher::new(&sp).unwrap_or_else(|e| panic!("compile: {e}"));
    p.flow_enabled = flow;
    let out = p
        .apply("t.c", target)
        .unwrap_or_else(|e| panic!("apply: {e}"));
    assert!(out.is_none(), "reporting-only rules never edit");
    p.last_stats.findings.clone()
}

const SCAN_PAIR_PATCH: &str = r#"
@scan@
expression r;
position p;
@@
acquire(r)@p;
...
release(r);
"#;

#[test]
fn position_on_calls_binds_at_cfg_match_sites() {
    // Flow route: the position pins the matched CFG node (the acquire
    // call) — line 3, column 5 of this file.
    let src = "void f(int n, double *buf) {\n    prep();\n    acquire(buf[0]);\n    work();\n    release(buf[0]);\n}\n";
    let fs = findings_flow(SCAN_PAIR_PATCH, src, true);
    assert_eq!(fs.len(), 1);
    assert_eq!((fs[0].line, fs[0].col), (3, 5));
    assert_eq!(fs[0].rule, "scan");
    assert_eq!(fs[0].path, "t.c");
    // The bindings carry the witness's non-position metavariables.
    assert_eq!(
        fs[0].bindings,
        vec![("r".to_string(), "buf[0]".to_string())]
    );

    // All-paths semantics: an early return between the pair kills the
    // finding on the flow route; the tree reading (--no-flow) still
    // reports it — the disagreement the CFG route exists to fix.
    let escaping = "void f(int n, double *buf) {\n    acquire(buf[0]);\n    if (n)\n        return;\n    release(buf[0]);\n}\n";
    assert!(findings_flow(SCAN_PAIR_PATCH, escaping, true).is_empty());
    assert_eq!(findings_flow(SCAN_PAIR_PATCH, escaping, false).len(), 1);
}

#[test]
fn position_on_statement_metavars_reports_the_statement() {
    // `S@p`: the position rides a statement metavariable; the finding
    // pins the matched statement (tree route — statement metavariables
    // are not CFG anchors).
    let patch = r#"
@after@
statement S;
position p;
@@
barrier();
S@p
"#;
    let src = "void f(double *q) {\n    barrier();\n    q[0] = 1.0;\n}\n";
    let fs = findings_flow(patch, src, true);
    assert_eq!(fs.len(), 1);
    assert_eq!((fs[0].line, fs[0].col), (3, 5));
}

#[test]
fn forked_witnesses_yield_one_finding_per_path_with_distinct_positions() {
    // The release expression binds differently per arm, so the flow
    // engine forks one witness per path — and the findings route must
    // surface one finding per witness, each at its own arm's site.
    let patch = r#"
@fork@
expression e;
position p;
@@
checkpoint();
...
commit(e)@p;
"#;
    let src = "void f(int n, double *buf) {\n    checkpoint();\n    if (n) {\n        commit(buf[1]);\n    } else {\n        commit(buf[2]);\n    }\n    wrap_up();\n}\n";
    let mut fs = findings_flow(patch, src, true);
    fs.sort_by_key(|f| (f.line, f.col));
    assert_eq!(fs.len(), 2, "one finding per forked witness: {fs:?}");
    assert_eq!((fs[0].line, fs[0].col), (4, 9));
    assert_eq!((fs[1].line, fs[1].col), (6, 9));
    assert_eq!(
        fs[0].bindings,
        vec![("e".to_string(), "buf[1]".to_string())]
    );
    assert_eq!(
        fs[1].bindings,
        vec![("e".to_string(), "buf[2]".to_string())]
    );
}

#[test]
fn inherited_positions_resolve_per_file_across_a_corpus() {
    // Two files with byte-identical content: rule `use` inherits `decl`'s
    // position and must re-match at that exact spot *in its own file* —
    // positions carry file identity, so the (equal) offsets cannot alias
    // across the corpus, and each file's findings name that file.
    let patch = r#"
@decl@
expression e;
position p;
@@
old_api(e)@p;

@use depends on decl@
position decl.p;
expression e2;
@@
old_api(e2)@p;
"#;
    let sp = parse_semantic_patch(patch).unwrap();
    let text = "void f(void) {\n    old_api(1);\n}\n".to_string();
    let files = vec![
        ("first.c".to_string(), text.clone()),
        ("second.c".to_string(), text),
    ];
    let outcomes = cocci_core::apply_to_files(&sp, &files, 1).unwrap();
    for (o, name) in outcomes.iter().zip(["first.c", "second.c"]) {
        let r = &o.report;
        assert!(r.error.is_none(), "{:?}", r.error);
        let use_findings: Vec<_> = r.findings.iter().filter(|f| f.rule == "use").collect();
        assert_eq!(use_findings.len(), 1, "{name}: {:?}", r.findings);
        assert_eq!(use_findings[0].path, name);
        assert_eq!((use_findings[0].line, use_findings[0].col), (2, 5));
    }
}
