//! Integration tests for the C/C++ parser over realistic code shapes:
//! the constructs appearing in the paper's use cases plus general
//! HPC-flavoured C.

use cocci_cast::parser::{
    parse_expression, parse_statements, parse_translation_unit, MetaKind, MetaLookup, NoMeta,
    ParseOptions,
};
use cocci_cast::{ast::*, render};

fn tu(src: &str) -> TranslationUnit {
    parse_translation_unit(src, ParseOptions::c(), &NoMeta)
        .unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"))
}

fn tu_cpp(src: &str) -> TranslationUnit {
    parse_translation_unit(src, ParseOptions::cpp(), &NoMeta)
        .unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"))
}

#[test]
fn parses_simple_function() {
    let t = tu("double dot(const double *a, const double *b, int n) {\n\
                double s = 0.0;\n\
                for (int i = 0; i < n; ++i) s += a[i] * b[i];\n\
                return s;\n\
                }");
    assert_eq!(t.items.len(), 1);
    match &t.items[0] {
        Item::Function(f) => {
            assert_eq!(f.name.name, "dot");
            assert_eq!(f.params.len(), 3);
            assert_eq!(f.body.stmts.len(), 3);
        }
        other => panic!("expected function, got {other:?}"),
    }
}

#[test]
fn parses_includes_and_pragmas() {
    let t = tu("#include <omp.h>\n#include \"util.h\"\n\
                void f(int n, double *a) {\n\
                #pragma omp parallel for\n\
                for (int i = 0; i < n; ++i) a[i] = 0;\n\
                }");
    match &t.items[0] {
        Item::Directive(d) => {
            assert_eq!(d.kind, DirectiveKind::Include);
            assert_eq!(d.payload, "<omp.h>");
        }
        other => panic!("{other:?}"),
    }
    match &t.items[2] {
        Item::Function(f) => match &f.body.stmts[0] {
            Stmt::Directive(d) => {
                assert_eq!(d.kind, DirectiveKind::Pragma);
                assert_eq!(d.pragma_namespace(), Some("omp"));
                assert_eq!(d.payload, "omp parallel for");
            }
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_attributes() {
    let t = tu("__attribute__((target(\"avx512\"))) static double norm(const double *x, int n) { return 0; }");
    match &t.items[0] {
        Item::Function(f) => {
            assert_eq!(f.attrs.len(), 1);
            let item = &f.attrs[0].items[0];
            assert_eq!(item.name.name, "target");
            let args = item.args.as_ref().unwrap();
            assert!(matches!(&args[0], Expr::StrLit { raw, .. } if raw == "\"avx512\""));
            assert_eq!(f.specifiers[0].name, "static");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_target_clones_attribute() {
    let t =
        tu("__attribute__((target_clones(\"avx2\",\"default\"))) void k(double *a) { a[0] = 1; }");
    match &t.items[0] {
        Item::Function(f) => {
            let item = &f.attrs[0].items[0];
            assert_eq!(item.name.name, "target_clones");
            assert_eq!(item.args.as_ref().unwrap().len(), 2);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_cuda_kernel_launch() {
    let t = tu_cpp(
        "void launch(int n, double *a) {\n\
                    saxpy<<<grid, block, 0, stream>>>(n, a);\n\
                    }",
    );
    match &t.items[0] {
        Item::Function(f) => match &f.body.stmts[0] {
            Stmt::Expr { expr, .. } => match expr {
                Expr::KernelCall { config, args, .. } => {
                    assert_eq!(config.len(), 4);
                    assert_eq!(args.len(), 2);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_multi_index_subscript() {
    let e = parse_expression("a[x, y, z]", ParseOptions::cpp(), &NoMeta).unwrap();
    match e {
        Expr::Index { indices, .. } => assert_eq!(indices.len(), 3),
        other => panic!("{other:?}"),
    }
    let e2 = parse_expression("a[x][y][z]", ParseOptions::cpp(), &NoMeta).unwrap();
    match e2 {
        Expr::Index { base, indices, .. } => {
            assert_eq!(indices.len(), 1);
            assert!(matches!(*base, Expr::Index { .. }));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_range_for() {
    let stmts =
        parse_statements("for (double &x : arr) x = 0;", ParseOptions::cpp(), &NoMeta).unwrap();
    match &stmts[0] {
        Stmt::RangeFor {
            ty, by_ref, var, ..
        } => {
            assert_eq!(ty.base_name(), Some("double"));
            assert!(*by_ref);
            assert_eq!(var.name, "x");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_struct_definition_and_typedef() {
    let t = tu("struct particle { double x; double y; double z; };\n\
                typedef struct particle particle_t;\n\
                particle_t ps[100];");
    assert_eq!(t.items.len(), 3);
    match &t.items[0] {
        Item::Decl(d) => match &d.ty.kind {
            TypeKind::Record {
                keyword,
                name,
                raw_body,
            } => {
                assert_eq!(keyword, "struct");
                assert_eq!(name.map(|n| n.as_str()), Some("particle"));
                assert!(raw_body.contains("double x"));
            }
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
    // particle_t registered via typedef so the array decl parses.
    match &t.items[2] {
        Item::Decl(d) => {
            assert_eq!(d.declarators[0].name.name, "ps");
            assert_eq!(d.declarators[0].array.len(), 1);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_unrolled_loop() {
    let stmts = parse_statements(
        "for (int i = 0; i + 3 < n; i += 4) {\n\
         y[i+0] = a * x[i+0];\n\
         y[i+1] = a * x[i+1];\n\
         y[i+2] = a * x[i+2];\n\
         y[i+3] = a * x[i+3];\n\
         }",
        ParseOptions::c(),
        &NoMeta,
    )
    .unwrap();
    match &stmts[0] {
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            assert!(matches!(init.as_deref(), Some(ForInit::Decl(_))));
            assert!(cond.is_some());
            assert!(matches!(
                step,
                Some(Expr::Assign {
                    op: AssignOp::AddAssign,
                    ..
                })
            ));
            match body.as_ref() {
                Stmt::Block(b) => assert_eq!(b.stmts.len(), 4),
                other => panic!("{other:?}"),
            }
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_do_while_switch_goto() {
    let src = "void f(int n) {\n\
               int i = 0;\n\
               do { i++; } while (i < n);\n\
               switch (n) { case 0: return; default: break; }\n\
               again: if (n) goto again;\n\
               }";
    let t = tu(src);
    match &t.items[0] {
        Item::Function(f) => assert_eq!(f.body.stmts.len(), 4),
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_prototypes_and_globals() {
    let t = tu("extern int solve(double *A, double *b, int n);\n\
                static const double EPS = 1e-9;\n\
                double buf[1024];");
    assert_eq!(t.items.len(), 3);
    match &t.items[0] {
        Item::Decl(d) => assert!(d.declarators[0].fn_params.is_some()),
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_pointer_heavy_decls() {
    let t = tu("void f(void) { const char **argv2; double *p = 0, *q = 0; int x, y[4], *z; }");
    match &t.items[0] {
        Item::Function(f) => {
            assert_eq!(f.body.stmts.len(), 3);
            match &f.body.stmts[2] {
                Stmt::Decl(d) => {
                    assert_eq!(d.declarators.len(), 3);
                    assert_eq!(d.declarators[1].array.len(), 1);
                    assert_eq!(d.declarators[2].ptr, 1);
                }
                other => panic!("{other:?}"),
            }
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn parses_casts_vs_parens() {
    let e = parse_expression("(double)n * 2", ParseOptions::c(), &NoMeta).unwrap();
    assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    let e2 = parse_expression("(n) * 2", ParseOptions::c(), &NoMeta).unwrap();
    // (n) is not a known type → multiplication, not cast-deref.
    assert!(matches!(e2, Expr::Binary { op: BinOp::Mul, .. }));
    let e3 = parse_expression("(size_t)(a + b)", ParseOptions::c(), &NoMeta).unwrap();
    assert!(matches!(e3, Expr::Cast { .. }));
}

#[test]
fn parses_ternary_comma_assignment_chain() {
    let e = parse_expression("a = b ? c : d, e += 1", ParseOptions::c(), &NoMeta).unwrap();
    assert!(matches!(
        e,
        Expr::Binary {
            op: BinOp::Comma,
            ..
        }
    ));
}

#[test]
fn parses_namespace_and_extern_c() {
    let t = tu_cpp(
        "namespace blas { double nrm2(int n, const double *x); }\n\
                    extern \"C\" { void c_api(void); }",
    );
    assert!(matches!(&t.items[0], Item::Namespace { .. }));
    assert!(matches!(&t.items[1], Item::ExternBlock { .. }));
}

#[test]
fn parses_cpp_paths_and_templates() {
    let t = tu_cpp("std::vector<double> v;\nvoid f(void) { std::sort(begin(v), end(v)); }");
    match &t.items[0] {
        Item::Decl(d) => match &d.ty.kind {
            TypeKind::Named {
                name,
                template_args,
            } => {
                assert_eq!(name, "std::vector");
                assert_eq!(template_args.as_deref(), Some("<double>"));
            }
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn sig_span_covers_signature() {
    let src = "static double f(int a, int b) { return a + b; }";
    let t = tu(src);
    match &t.items[0] {
        Item::Function(f) => {
            let sig = &src[f.sig_span.start as usize..f.sig_span.end as usize];
            assert_eq!(sig, "double f(int a, int b)");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn gcc_pragma_sequence() {
    let t = tu("#pragma GCC push_options\n\
                #pragma GCC optimize \"-O3\", \"-fno-tree-loop-vectorize\"\n\
                void hot(double *a) { a[0] = 1; }\n\
                #pragma GCC pop_options");
    let pragmas: Vec<_> = t
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Directive(d) if d.kind == DirectiveKind::Pragma => Some(d.payload.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(pragmas.len(), 3);
    assert!(pragmas[1].contains("optimize"));
}

// ---- pattern mode ----

struct Table(Vec<(&'static str, MetaKind)>);

impl MetaLookup for Table {
    fn kind(&self, name: &str) -> Option<MetaKind> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, k)| *k)
    }
}

#[test]
fn pattern_function_with_metavars() {
    let meta = Table(vec![
        ("T", MetaKind::Type),
        ("f", MetaKind::Ident),
        ("PL", MetaKind::ParamList),
        ("SL", MetaKind::StmtList),
    ]);
    let t = parse_translation_unit("T f (PL) { SL }", ParseOptions::pattern(), &meta).unwrap();
    match &t.items[0] {
        Item::Function(fd) => {
            assert!(matches!(fd.ret.kind, TypeKind::Meta { ref name } if name == "T"));
            assert_eq!(fd.name.name, "f");
            assert!(fd.params[0].meta_list);
            assert!(matches!(&fd.body.stmts[0], Stmt::MetaStmtList { name, .. } if name == "SL"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn pattern_dots_in_statements_and_args() {
    let meta = Table(vec![]);
    let stmts = parse_statements("{ ... f(...); ... }", ParseOptions::pattern(), &meta).unwrap();
    match &stmts[0] {
        Stmt::Block(b) => {
            assert!(matches!(b.stmts[0], Stmt::Dots { .. }));
            assert!(matches!(b.stmts[2], Stmt::Dots { .. }));
            match &b.stmts[1] {
                Stmt::Expr { expr, .. } => match expr {
                    Expr::Call { args, .. } => assert!(matches!(args[0], Expr::Dots { .. })),
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn pattern_dots_when_modifiers_set_the_quantifier() {
    let meta = Table(vec![]);
    let quant_of = |src: &str| -> DotsQuant {
        let stmts = parse_statements(src, ParseOptions::pattern(), &meta).unwrap();
        match &stmts[1] {
            Stmt::Dots { quant, .. } => *quant,
            other => panic!("{other:?}"),
        }
    };
    assert_eq!(quant_of("a(); ... b();"), DotsQuant::Default);
    assert_eq!(quant_of("a(); ... when any b();"), DotsQuant::Default);
    assert_eq!(quant_of("a(); ... when exists b();"), DotsQuant::Exists);
    assert_eq!(quant_of("a(); ... when strict b();"), DotsQuant::Strict);
    // Modifiers stack with `when !=` guards.
    let stmts = parse_statements(
        "a(); ... when != g() when exists b();",
        ParseOptions::pattern(),
        &meta,
    )
    .unwrap();
    match &stmts[1] {
        Stmt::Dots {
            quant, when_not, ..
        } => {
            assert_eq!(*quant, DotsQuant::Exists);
            assert_eq!(when_not.len(), 1);
        }
        other => panic!("{other:?}"),
    }
    // The two quantifiers are mutually exclusive — conflicting
    // modifiers are a parse error, not last-one-wins.
    assert!(parse_statements(
        "a(); ... when exists when strict b();",
        ParseOptions::pattern(),
        &meta
    )
    .is_err());
    assert!(parse_statements(
        "a(); ... when strict when exists b();",
        ParseOptions::pattern(),
        &meta
    )
    .is_err());
    // Repeating the same modifier is harmless.
    assert_eq!(
        quant_of("a(); ... when exists when exists b();"),
        DotsQuant::Exists
    );
}

#[test]
fn pattern_for_header_dots() {
    let meta = Table(vec![("c", MetaKind::Ident), ("n", MetaKind::Expr)]);
    let stmts = parse_statements(
        "for (...; c < n; ...) { ... }",
        ParseOptions::pattern(),
        &meta,
    )
    .unwrap();
    match &stmts[0] {
        Stmt::For {
            init, cond, step, ..
        } => {
            assert!(matches!(init.as_deref(), Some(ForInit::Dots { .. })));
            assert!(matches!(cond, Some(Expr::Binary { op: BinOp::Lt, .. })));
            assert!(matches!(step, Some(Expr::Dots { .. })));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn pattern_conjunction_group() {
    let meta = Table(vec![
        ("A", MetaKind::Stmt),
        ("B", MetaKind::Stmt),
        ("i", MetaKind::Ident),
    ]);
    let stmts = parse_statements(
        "{ \\( A \\& i+0 \\) \\( B \\& i+1 \\) }",
        ParseOptions::pattern(),
        &meta,
    )
    .unwrap();
    match &stmts[0] {
        Stmt::Block(b) => {
            assert_eq!(b.stmts.len(), 2);
            match &b.stmts[0] {
                Stmt::PatGroup { conj, branches, .. } => {
                    assert!(*conj);
                    assert_eq!(branches.len(), 2);
                    assert!(matches!(&branches[0][0], Stmt::MetaStmt { name, .. } if name == "A"));
                }
                other => panic!("{other:?}"),
            }
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn pattern_position_annotation() {
    let meta = Table(vec![
        ("fn", MetaKind::Ident),
        ("el", MetaKind::ExprList),
        ("p", MetaKind::Pos),
    ]);
    let e = parse_expression("fn@p(el)", ParseOptions::pattern(), &meta).unwrap();
    match e {
        Expr::Call { callee, args, .. } => {
            match *callee {
                Expr::PosAnn { pos, .. } => assert_eq!(pos, "p"),
                other => panic!("{other:?}"),
            }
            assert!(matches!(&args[0], Expr::Ident(i) if i.name == "el"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn pattern_expression_disjunction() {
    let meta = Table(vec![("elem", MetaKind::Ident), ("k", MetaKind::Ident)]);
    let stmts = parse_statements(
        "if ( \\( elem == k \\| k == elem \\) ) { ... }",
        ParseOptions::pattern(),
        &meta,
    )
    .unwrap();
    match &stmts[0] {
        Stmt::If { cond, .. } => match cond.unparen() {
            Expr::Disj { branches, .. } => assert_eq!(branches.len(), 2),
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn pattern_chevron_rule() {
    let meta = Table(vec![
        ("k", MetaKind::Ident),
        ("b", MetaKind::Expr),
        ("t", MetaKind::Expr),
        ("x", MetaKind::Expr),
        ("y", MetaKind::Expr),
        ("el", MetaKind::ExprList),
    ]);
    let e = parse_expression("k<<<b,t,x,y>>>(el)", ParseOptions::pattern(), &meta).unwrap();
    assert!(matches!(e, Expr::KernelCall { .. }));
}

#[test]
fn render_roundtrip_on_parsed_function() {
    let src = "int f(int n) { for (int i = 0; i < n; ++i) { g(i); } return n; }";
    let t = tu(src);
    match &t.items[0] {
        Item::Function(f) => {
            let body = render::render_stmt(&Stmt::Block(f.body.clone()));
            assert!(body.contains("for (int i = 0; i < n; ++i)"));
            assert!(body.contains("g(i);"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn adversarial_names_in_strings_and_comments() {
    // Text that defeats regex-based tools: identifiers inside strings and
    // comments must not produce AST identifier nodes.
    let src = "void log_it(void) {\n\
               // curand_uniform_double in a comment\n\
               printf(\"curand_uniform_double %d\", 1);\n\
               }";
    let t = tu(src);
    let mut idents = Vec::new();
    cocci_cast::visit::walk_all_exprs(&t, &mut |e| {
        if let Expr::Ident(i) = e {
            idents.push(i.name);
        }
    });
    assert!(idents.iter().any(|i| *i == "printf"));
    assert!(!idents.iter().any(|i| *i == "curand_uniform_double"));
}

#[test]
fn parse_hands_over_identifier_tokens_in_source_order() {
    let src = "#define N curand_x\n\
               void log_it(int n) {\n\
               // curand_x in a comment\n\
               printf(\"curand_x %d\", n);\n\
               }";
    let parsed = cocci_cast::parse_with_tables(src, ParseOptions::c(), &NoMeta).unwrap();
    let (t, idents) = (parsed.tu, parsed.idents);
    assert_eq!(t.items.len(), 2);
    let words: Vec<&str> = idents.iter().map(|(sym, _)| sym.as_str()).collect();
    // Keywords are identifier tokens; directives, comments and string
    // literals hold none.
    assert_eq!(words, ["void", "log_it", "int", "n", "printf", "n"]);
    for (sym, at) in &idents {
        assert!(src[*at as usize..].starts_with(sym.as_str()));
    }
}
