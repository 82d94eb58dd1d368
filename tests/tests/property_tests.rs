//! Property-based tests over the core invariants, driven by the
//! in-house harness in `cocci_tests` (see `tests/lib.rs`):
//!
//! * lexer: token spans partition the input (ordered, non-overlapping),
//!   and lexing is total on valid token soup;
//! * parser/renderer: `parse ∘ render` is the identity modulo spans
//!   (structural equality), and rendering is idempotent;
//! * regex engine: agrees with a naive reference on literal patterns and
//!   never diverges (no panics) on arbitrary inputs;
//! * edit sets: applying disjoint edits commutes with order of insertion,
//!   and output length is predictable;
//! * engine: a rename patch rewrites exactly the call sites present and
//!   is idempotent;
//! * flow route: on random small functions, `a(); ... b();` under every
//!   dots reading matches exactly what the simple paths of the
//!   function's CFG allow.

use cocci_cast::eq::expr_eq;
use cocci_cast::parser::{parse_expression, NoMeta, ParseOptions};
use cocci_cast::render::render_expr;
use cocci_cast::{lex, LexMode, TokenKind};
use cocci_core::{EditSet, Patcher};
use cocci_flow::{Cfg, NodeId, NodeKind};
use cocci_smpl::parse_semantic_patch;
use cocci_source::{Span, Symbol};
use cocci_tests::{arb_expr_text, ident_soup_word, string_of_len, Runner, SplitMix64};
use std::collections::BTreeSet;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

// ---- lexer ----

#[test]
fn lexer_spans_partition_input() {
    Runner::new("lexer_spans_partition_input").run(|rng| {
        let src = arb_expr_text(rng, 4);
        let toks = lex(&src, LexMode::C).unwrap();
        let mut prev_end = 0u32;
        for t in &toks {
            if t.kind == TokenKind::Eof {
                break;
            }
            assert!(
                t.span.start >= prev_end,
                "overlap at {:?} in {src:?}",
                t.span
            );
            assert!(t.span.end > t.span.start);
            // Gap text must be whitespace only.
            let gap = &src[prev_end as usize..t.span.start as usize];
            assert!(gap.chars().all(char::is_whitespace), "gap {gap:?}");
            prev_end = t.span.end;
        }
    });
}

#[test]
fn lexer_total_on_ascii_word_soup() {
    Runner::new("lexer_total_on_ascii_word_soup").run(|rng| {
        let words: Vec<String> = (0..rng.gen_range(0..20))
            .map(|_| ident_soup_word(rng))
            .collect();
        let src = words.join(" ");
        let toks = lex(&src, LexMode::C).unwrap();
        // One token per word plus EOF.
        assert_eq!(toks.len(), words.len() + 1, "{src:?}");
    });
}

// ---- parse/render round-trip ----

#[test]
fn parse_render_roundtrip() {
    Runner::new("parse_render_roundtrip").run(|rng| {
        let src = arb_expr_text(rng, 4);
        let e1 = parse_expression(&src, ParseOptions::cpp(), &NoMeta).unwrap();
        let rendered = render_expr(&e1);
        let e2 = parse_expression(&rendered, ParseOptions::cpp(), &NoMeta)
            .unwrap_or_else(|err| panic!("re-parse of {rendered:?} failed: {err}"));
        assert!(
            expr_eq(&e1, &e2),
            "{src:?} -> {rendered:?} not structurally equal"
        );
        // Idempotence of rendering.
        assert_eq!(rendered, render_expr(&e2));
    });
}

// ---- regex ----

#[test]
fn regex_literal_agrees_with_contains() {
    Runner::new("regex_literal_agrees_with_contains").run(|rng| {
        let needle = string_of_len(rng, LOWER, 1, 6);
        let hay = string_of_len(rng, "abcdefghijklmnopqrstuvwxyz_ ", 0, 30);
        let re = cocci_rex::Regex::new(&needle).unwrap();
        assert_eq!(
            re.is_match(&hay),
            hay.contains(&needle),
            "{needle:?} in {hay:?}"
        );
    });
}

#[test]
fn regex_never_panics() {
    Runner::new("regex_never_panics").run(|rng| {
        let pattern = string_of_len(
            rng,
            "abcdefghijklmnopqrstuvwxyz().|*+?[]{}0123456789,^$-",
            0,
            15,
        );
        let hay = string_of_len(rng, "abcdefghijklmnopqrstuvwxyz0123456789", 0, 20);
        if let Ok(re) = cocci_rex::Regex::new(&pattern) {
            let _ = re.is_match(&hay);
        }
    });
}

#[test]
fn regex_alternation_is_union() {
    Runner::new("regex_alternation_is_union").run(|rng| {
        let a = string_of_len(rng, LOWER, 1, 4);
        let b = string_of_len(rng, LOWER, 1, 4);
        let hay = string_of_len(rng, LOWER, 0, 12);
        let re = cocci_rex::Regex::new(&format!("{a}|{b}")).unwrap();
        assert_eq!(
            re.is_match(&hay),
            hay.contains(&a) || hay.contains(&b),
            "{a}|{b} on {hay:?}"
        );
    });
}

// ---- edit sets ----

#[test]
fn disjoint_edits_apply_in_any_order() {
    Runner::new("disjoint_edits_apply_in_any_order").run(|rng| {
        let src = string_of_len(rng, LOWER, 30, 60);
        let cuts: Vec<(usize, usize)> = (0..rng.gen_range(1..5))
            .map(|_| (rng.gen_range(0..10), rng.gen_range(0..3)))
            .collect();
        // Build disjoint spans deterministically from the cut list.
        let mut spans: Vec<(u32, u32)> = Vec::new();
        let mut pos = 0usize;
        for (gap, len) in cuts {
            let start = pos + gap;
            let end = (start + len).min(src.len());
            if start >= src.len() || start >= end {
                break;
            }
            spans.push((start as u32, end as u32));
            pos = end + 1;
        }
        if spans.is_empty() {
            return; // vacuous case, like prop_assume! discarding
        }

        let mut forward = EditSet::new();
        for (s, e) in &spans {
            forward.replace(Span::new(*s, *e), "X");
        }
        let mut backward = EditSet::new();
        for (s, e) in spans.iter().rev() {
            backward.replace(Span::new(*s, *e), "X");
        }
        assert_eq!(forward.apply(&src).unwrap(), backward.apply(&src).unwrap());
    });
}

#[test]
fn edit_output_length_is_predictable() {
    Runner::new("edit_output_length_is_predictable").run(|rng| {
        let src = string_of_len(rng, LOWER, 10, 40);
        let mut es = EditSet::new();
        es.delete(Span::new(2, 5));
        es.insert(7, "abc");
        let out = es.apply(&src).unwrap();
        assert_eq!(out.len(), src.len() - 3 + 3);
    });
}

// ---- engine ----

#[test]
fn rename_patch_rewrites_every_call_site() {
    Runner::new("rename_patch_rewrites_every_call_site")
        .cases(48)
        .run(|rng| {
            let calls = rng.gen_range(1..8);
            let decoys = rng.gen_range(0..5);
            let mut body = String::new();
            for i in 0..calls {
                body.push_str(&format!("    old_fn({i});\n"));
            }
            for i in 0..decoys {
                body.push_str(&format!("    other_fn({i});\n"));
            }
            let src = format!("void g(void) {{\n{body}}}\n");
            let patch =
                parse_semantic_patch("@@\nexpression e;\n@@\n- old_fn(e)\n+ new_fn(e)\n").unwrap();
            let mut p = Patcher::new(&patch).unwrap();
            let out = p.apply("t.c", &src).unwrap().expect("must match");
            assert_eq!(out.matches("new_fn(").count(), calls);
            assert_eq!(out.matches("old_fn(").count(), 0);
            assert_eq!(out.matches("other_fn(").count(), decoys);
            // Idempotence: nothing left to match.
            let again = p.apply("t.c", &out).unwrap();
            assert!(again.is_none());
        });
}

#[test]
fn prefilter_never_prunes_a_matching_file() {
    // Soundness of the compile-time prefilter: for any UC patch and any
    // generated workload file the prefilter skips, the full matcher must
    // find zero matches (no false prunes). Generators and patch are drawn
    // per case so the property sweeps the whole UC × generator matrix.
    use cocci_core::CompiledPatch;
    use cocci_workloads::gen::{self, CodebaseSpec};

    let compile = |uc: &str, patch_text: &str| {
        let patch = parse_semantic_patch(patch_text).unwrap_or_else(|e| panic!("{uc}: {e}"));
        CompiledPatch::compile(&patch).unwrap_or_else(|e| panic!("{uc}: {e}"))
    };
    let check = |uc: &str, compiled: &CompiledPatch, name: &str, text: &str| {
        if compiled.may_match(text) {
            return; // not pruned; nothing to check
        }
        // Pruned: the full pipeline must agree there is nothing here. A
        // parse error also means "no match possible".
        let mut p = Patcher::from_compiled(std::sync::Arc::new(compiled.clone()));
        if let Ok(out) = p.apply(name, text) {
            let matches: usize = p.last_stats.matches_per_rule.iter().sum();
            assert_eq!(
                matches, 0,
                "{uc}: prefilter pruned {name} which matches {matches}x\n{text}"
            );
            assert!(
                out.is_none(),
                "{uc}: prefilter pruned {name} which the engine changed"
            );
        }
    };

    // The const-fold isomorphism matches `'a'` against `97` and
    // `1 ? 5 : foo` against `5`: a fold must not cost a required atom.
    for (uc, patch_text, text) in [
        (
            "char-fold",
            "@@ @@\n- f('a');\n+ g(1);\n",
            "void h(void) { f(97); }\n",
        ),
        (
            "ternary-fold",
            "@@ @@\n- x = 1 ? 5 : foo;\n+ x = 6;\n",
            "void h(void) { x = 5; }\n",
        ),
    ] {
        let compiled = compile(uc, patch_text);
        let mut p = Patcher::from_compiled(std::sync::Arc::new(compiled.clone()));
        let out = p.apply("fold.c", text).unwrap();
        assert!(out.is_some(), "{uc}: the engine must rewrite the fold");
        check(uc, &compiled, "fold.c", text);
    }

    Runner::new("prefilter_never_prunes_a_matching_file")
        .cases(64)
        .run(|rng| {
            let spec = CodebaseSpec {
                files: rng.gen_range(1..4),
                functions_per_file: rng.gen_range(1..8),
                seed: rng.next_u64(),
            };
            let files = match rng.gen_range(0..9) {
                0 => gen::omp_codebase(&spec),
                1 => gen::kernel_codebase(&spec),
                2 => gen::multiversion_codebase(&spec),
                3 => gen::unrolled_codebase(&spec, 4),
                4 => gen::stencil_codebase(&spec),
                5 => gen::cuda_codebase(&spec),
                6 => gen::openacc_codebase(&spec),
                7 => gen::raw_loop_codebase(&spec),
                _ => gen::librsb_codebase(&spec),
            };
            let all = cocci_workloads::patches::ALL;
            let (uc, patch_text) = all[rng.gen_range(0..all.len())];
            let compiled = compile(uc, patch_text);
            for f in &files {
                check(uc, &compiled, &f.name, &f.text);
            }
        });
}

#[test]
fn when_exists_matches_superset_of_all_paths_on_branchy_workloads() {
    // `when exists` (EF) is implied by the default all-paths reading
    // (AF): every witness the forall engine produces has at least one
    // path behind it, so on any input the existential patch must match
    // wherever — and at least as often as — the forall patch does.
    use cocci_workloads::gen::{branchy_codebase, CodebaseSpec};

    const FORALL: &str =
        "@@\nexpression b;\n@@\n- probe_begin(b);\n+ probe_enter(b);\n...\nprobe_end(b);\n";
    const EXISTS: &str =
        "@@\nexpression b;\n@@\n- probe_begin(b);\n+ probe_enter(b);\n... when exists\nprobe_end(b);\n";
    let forall = parse_semantic_patch(FORALL).unwrap();
    let exists = parse_semantic_patch(EXISTS).unwrap();

    Runner::new("when_exists_matches_superset_of_all_paths")
        .cases(16)
        .run(|rng| {
            let spec = CodebaseSpec {
                files: 2,
                functions_per_file: 6,
                seed: rng.next_u64(),
            };
            for f in branchy_codebase(&spec) {
                let mut pa = Patcher::new(&forall).unwrap();
                let out_a = pa.apply(&f.name, &f.text).unwrap();
                let matches_a: usize = pa.last_stats.matches_per_rule.iter().sum();
                let mut pe = Patcher::new(&exists).unwrap();
                let out_e = pe.apply(&f.name, &f.text).unwrap();
                let matches_e: usize = pe.last_stats.matches_per_rule.iter().sum();
                assert!(
                    matches_e >= matches_a,
                    "{}: exists found {matches_e} < forall {matches_a}",
                    f.name
                );
                if out_a.is_some() {
                    assert!(
                        out_e.is_some(),
                        "{}: forall transformed but exists did not",
                        f.name
                    );
                }
            }
        });
}

#[test]
fn patched_output_still_parses() {
    Runner::new("patched_output_still_parses")
        .cases(48)
        .run(|rng| {
            let calls = rng.gen_range(1..6);
            let mut body = String::new();
            for i in 0..calls {
                body.push_str(&format!("    acc[{i}] = old_fn(acc[{i}]);\n"));
            }
            let src = format!("void g(double *acc) {{\n{body}}}\n");
            let patch =
                parse_semantic_patch("@@\nexpression e;\n@@\n- old_fn(e)\n+ scale(e, 2.0)\n")
                    .unwrap();
            let mut p = Patcher::new(&patch).unwrap();
            let out = p.apply("t.c", &src).unwrap().expect("must match");
            cocci_cast::parser::parse_translation_unit(&out, ParseOptions::c(), &NoMeta)
                .unwrap_or_else(|e| panic!("output no longer parses: {e}\n{out}"));
        });
}

// ---- findings engine ----

/// The reporting rule the findings properties drive: pure context, a
/// position metavariable on the opening call, statement dots to the
/// close (flow-routed).
const SCAN_DOTS: &str = "@scan@\nexpression r;\nposition p;\n@@\nacquire(r)@p;\n...\nrelease(r);\n";

#[test]
fn findings_lie_within_file_bounds() {
    // Every finding a reporting-only rule emits must point at a real
    // line/column of its file: 1-based, line within the line count,
    // column within the line's length (+1 for the just-past-end column
    // of an end offset).
    use cocci_workloads::gen::{report_scan_codebase, CodebaseSpec};

    let patch = parse_semantic_patch(SCAN_DOTS).unwrap();
    Runner::new("findings_lie_within_file_bounds")
        .cases(24)
        .run(|rng| {
            let spec = CodebaseSpec {
                files: 2,
                functions_per_file: 4 * rng.gen_range(1..4),
                seed: rng.next_u64(),
            };
            for f in report_scan_codebase(&spec) {
                let mut p = Patcher::new(&patch).unwrap();
                let out = p.apply(&f.name, &f.text).unwrap();
                assert!(out.is_none(), "a reporting-only rule never edits");
                let lines: Vec<&str> = f.text.lines().collect();
                for fd in &p.last_stats.findings {
                    assert_eq!(fd.path, f.name);
                    assert!(fd.line >= 1 && (fd.line as usize) <= lines.len(), "{fd:?}");
                    let text = lines[fd.line as usize - 1];
                    assert!(
                        fd.col >= 1 && (fd.col as usize) <= text.len() + 1,
                        "{fd:?} in {text:?}"
                    );
                    assert!(
                        (fd.end_line, fd.end_col) >= (fd.line, fd.col),
                        "end precedes start: {fd:?}"
                    );
                    assert!(fd.end_line >= 1 && (fd.end_line as usize) <= lines.len());
                    // The position pins the `acquire` call.
                    assert!(
                        text[fd.col as usize - 1..].starts_with("acquire("),
                        "{fd:?} does not point at the call in {text:?}"
                    );
                }
            }
        });
}

// ---- flow route vs a path oracle ----

/// A random statement list for [`flow_route_agrees_with_a_path_oracle`]:
/// anchors `a();`, targets `b();`, forbidden calls `g();` and padding
/// `s();`, mixed with `if`/`else`, `while` and `for` loops, `break`
/// inside loops and early `return`.
fn arb_flow_stmts(rng: &mut SplitMix64, depth: usize, in_loop: bool, out: &mut String) {
    for _ in 0..rng.gen_range(1..4) {
        match rng.gen_range(0..if depth == 0 { 8 } else { 13 }) {
            0 | 1 => out.push_str("a(); "),
            2 | 3 => out.push_str("b(); "),
            4 => out.push_str("g(); "),
            5 => out.push_str("s(); "),
            6 if in_loop => out.push_str("break; "),
            6 | 7 => out.push_str("if (c) return; "),
            8 | 9 => {
                out.push_str("if (c) { ");
                arb_flow_stmts(rng, depth - 1, in_loop, out);
                out.push_str("} ");
                if rng.gen_bool(0.5) {
                    out.push_str("else { ");
                    arb_flow_stmts(rng, depth - 1, in_loop, out);
                    out.push_str("} ");
                }
            }
            10 | 11 => {
                out.push_str("while (c) { ");
                arb_flow_stmts(rng, depth - 1, true, out);
                out.push_str("} ");
            }
            _ => {
                out.push_str("for (i = 0; i < n; i++) { ");
                arb_flow_stmts(rng, depth - 1, true, out);
                out.push_str("} ");
            }
        }
    }
}

/// What the simple paths from one anchor node end at.
#[derive(Default)]
struct PathEnds {
    /// Start offsets of the `b();` nodes that end a path.
    hits: BTreeSet<u32>,
    /// Some path reaches the function exit first.
    escape: bool,
    /// Some path reaches a `g();` node first (counted only when the gap
    /// forbids `g()`).
    violation: bool,
}

/// Follow every simple path from `n`: a path ends at its first `b();`
/// node, at the exit, at a `g();` node when `guard` is set, or where it
/// would revisit a node (a cut, which ends nothing).
fn simple_paths(
    cfg: &Cfg,
    is: &dyn Fn(NodeId, &str) -> bool,
    n: NodeId,
    guard: bool,
    on_path: &mut [bool],
    ends: &mut PathEnds,
) {
    for &m in cfg.succs(n) {
        if on_path[m.index()] {
            continue;
        }
        if is(m, "b();") {
            ends.hits.insert(cfg.span(m).start);
        } else if m == cfg.exit() {
            ends.escape = true;
        } else if guard && is(m, "g();") {
            ends.violation = true;
        } else {
            on_path[m.index()] = true;
            simple_paths(cfg, is, m, guard, on_path, ends);
            on_path[m.index()] = false;
        }
    }
}

#[test]
fn flow_route_agrees_with_a_path_oracle() {
    // For each reading of `a(); ... b();`, the flow route must match
    // exactly the anchors the simple paths of the function's CFG allow,
    // with exactly the `b();` nodes those paths end at as hits.
    use cocci_cast::parser::{parse_statements, parse_translation_unit};
    use cocci_core::explain::AttemptProbe;
    use cocci_core::flowmatch::lower_pattern;
    use cocci_core::{CfgCache, Env, FlowSearch, MatchCtx, PairKind};
    use std::cell::Cell;
    use std::collections::{BTreeMap, HashMap};

    // (pattern, all paths must hit, gap forbids g())
    const READINGS: [(&str, bool, bool); 5] = [
        ("a(); ... b();", true, false),
        ("a(); ... when strict b();", true, false),
        ("a(); ... when exists b();", false, false),
        ("a(); ... when != g() b();", true, true),
        ("a(); ... when != g() when exists b();", false, true),
    ];
    let matched = [(); 5].map(|_| Cell::new(0usize));
    let refused = [(); 5].map(|_| Cell::new(0usize));
    Runner::new("flow_route_agrees_with_a_path_oracle")
        .cases(256)
        .run(|rng| {
            let mut body = String::new();
            arb_flow_stmts(rng, 2, false, &mut body);
            if !body.contains("a();") {
                body.insert_str(0, "a(); ");
            }
            let src = format!("void f(int c, int n) {{ int i; {body}}}\n");
            let tu = parse_translation_unit(&src, ParseOptions::c(), &NoMeta).unwrap();
            let cocci_cast::Item::Function(func) = &tu.items[0] else {
                panic!("{src}");
            };
            let mut cache = CfgCache::default();
            let cfg = cache.get_or_build(func);
            let is = |m: NodeId, text: &str| {
                let sp = cfg.span(m);
                cfg.kind(m) == NodeKind::Stmt && &src[sp.start as usize..sp.end as usize] == text
            };
            let regexes = HashMap::new();
            let ctx = MatchCtx {
                file: "f.c",
                src: &src,
                decls: &[],
                regexes: &regexes,
            };
            for (r, &(pattern, forall, guard)) in READINGS.iter().enumerate() {
                // The reference: anchor start -> hit starts, for every
                // anchor the paths allow.
                let mut want = BTreeMap::new();
                for n in cfg.nodes().filter(|&n| is(n, "a();")) {
                    let mut on_path = vec![false; cfg.len()];
                    on_path[n.index()] = true;
                    let mut ends = PathEnds::default();
                    simple_paths(&cfg, &is, n, guard, &mut on_path, &mut ends);
                    let clean = !forall || !(ends.escape || ends.violation);
                    if clean && !ends.hits.is_empty() {
                        want.insert(cfg.span(n).start, ends.hits);
                    }
                }

                let pats = parse_statements(pattern, ParseOptions::pattern(), &NoMeta).unwrap();
                let fp = lower_pattern(&pats).expect("pattern lowers");
                let (a_pat, b_pat) = (pats[0].span(), pats[2].span());
                let mut got: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
                let witnesses = FlowSearch::with_cache(&fp, &tu, &mut cache).find(
                    &ctx,
                    &Env::new(),
                    &mut AttemptProbe::default(),
                );
                for w in &witnesses {
                    let stmt_srcs = |pat| {
                        w.pairs
                            .iter()
                            .filter(move |p| p.pat == pat && p.kind == PairKind::Stmt)
                            .map(|p| p.src.start)
                    };
                    let anchor = stmt_srcs(a_pat).next().expect("anchor pair");
                    got.entry(anchor).or_default().extend(stmt_srcs(b_pat));
                }
                assert_eq!(got, want, "{pattern} over\n{src}");
                matched[r].set(matched[r].get() + want.len());
                refused[r].set(refused[r].get() + usize::from(want.is_empty()));
            }
        });
    // Every reading both matched and refused somewhere.
    for (r, (pattern, ..)) in READINGS.iter().enumerate() {
        assert!(
            matched[r].get() > 0 && refused[r].get() > 0,
            "{pattern}: {} matched, {} refused",
            matched[r].get(),
            refused[r].get()
        );
    }
}

// ---- string interner ----

#[test]
fn intern_resolve_round_trips() {
    Runner::new("intern_resolve_round_trips")
        .cases(400)
        .run(|rng| {
            let s = ident_soup_word(rng);
            let sym = Symbol::intern(&s);
            assert_eq!(sym.as_str(), s, "resolve returns the interned text");
            // Re-interning is stable: same string, same handle.
            assert_eq!(Symbol::intern(&s), sym);
            assert_eq!(Symbol::from(s.as_str()), sym);
        });
}

#[test]
fn symbol_equality_is_string_equality() {
    Runner::new("symbol_equality_is_string_equality")
        .cases(400)
        .run(|rng| {
            let a = ident_soup_word(rng);
            // Half the cases compare equal strings, half independent
            // draws (which may still collide — that must agree too).
            let b = if rng.gen_range(0..2) == 0 {
                a.clone()
            } else {
                ident_soup_word(rng)
            };
            let (sa, sb) = (Symbol::intern(&a), Symbol::intern(&b));
            assert_eq!(sa == sb, a == b, "{a:?} vs {b:?}");
            assert_eq!(sa == b.as_str(), a == b, "Symbol == &str agrees");
            // Hash-map keying agrees with equality: one entry iff equal.
            let set: std::collections::HashSet<Symbol> = [sa, sb].into_iter().collect();
            assert_eq!(set.len() == 1, a == b);
        });
}
