//! The benchmark's three workloads, generated from a seed.
//!
//! Every workload is an on-disk tree (`tree/`), the rules `spatch` runs
//! over it (`rules/` for the scan, `patch.cocci` for the applies), and an
//! oracle file (`expected.tsv`) computed from how the generators build
//! their files — never from the engine's output. The seed changes the
//! content (which arms match, which calls carry cuRAND, argument shapes)
//! but not the shape counts that set a run's cost, so two seeds give
//! inputs of comparable size.

use cocci_workloads::corpus::is_walkable;
use cocci_workloads::gen::{self, CodebaseSpec, GeneratedFile};
use cocci_workloads::patches::UC78_CUDA_HIP_FULL;
use cocci_workloads::rng::SplitMix64;
use cocci_workloads::{rule_matrix_codebase, rule_matrix_id, rule_matrix_rules, RuleMatrixSpec};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Rules per prefilter-atom group in the 50-rule matrix.
pub const OVERLAP: usize = 5;
/// Rules in the scan matrix.
pub const MATRIX_RULES: usize = 50;
/// Rule id of the scan's flow rule (sorts after every matrix id).
pub const FLOW_RULE_ID: &str = "scan-acquire-release";
/// The scan's flow rule: all-paths `acquire ... release` pairs.
pub const FLOW_RULE: &str = "// spatch-rule: scan-acquire-release\n\
     // spatch-severity: warning\n\
     // spatch-message: acquired resource is released on every path\n\
     @scan@\nexpression r;\nposition p;\n@@\nacquire(r)@p;\n...\nrelease(r);\n";
/// The dense workload's one-line transform.
pub const DENSE_PATCH: &str = "@@\nexpression e;\n@@\n- old_api(e);\n+ new_api(e);\n";

/// Which workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 50 report-only rules plus one flow rule, scanned to SARIF.
    ScanRules50,
    /// The UC7+UC8 CUDA→HIP port applied in diff mode.
    ApplyHip,
    /// `- old_api(e); + new_api(e);` over files with thousands of sites.
    ApplyDense,
}

impl Workload {
    /// Parse a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan_rules50" => Some(Workload::ScanRules50),
            "apply_hip" => Some(Workload::ApplyHip),
            "apply_dense" => Some(Workload::ApplyDense),
            _ => None,
        }
    }
}

/// One generated workload, in memory.
pub struct Generated {
    /// Files under `tree/`, root-relative (noise and ignored files too).
    pub tree: Vec<GeneratedFile>,
    /// Scan rules (`rules/*.cocci`) or the single `patch.cocci`.
    pub rules: Vec<GeneratedFile>,
    /// Oracle lines: `file\tline\tcol\trule` findings for the scan,
    /// `file\tkind\tcount` replacements for the applies.
    pub expected: Vec<String>,
}

/// `n` scaled down for smoke runs, never below one.
fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(1)
}

/// Prefix every file's name with `dir/`.
fn under(dir: &str, files: Vec<GeneratedFile>) -> impl Iterator<Item = GeneratedFile> + '_ {
    files.into_iter().map(move |f| GeneratedFile {
        name: format!("{dir}/{}", f.name),
        text: f.text,
    })
}

/// Build workload `w` from `seed`; `scale` (1.0 in timed runs) shrinks
/// every file count for smoke tests.
pub fn generate(w: Workload, seed: u64, scale: f64) -> Generated {
    match w {
        Workload::ScanRules50 => scan_rules50(seed, scale),
        Workload::ApplyHip => apply_hip(seed, scale),
        Workload::ApplyDense => apply_dense(seed, scale),
    }
}

/// Mostly `rule_matrix_codebase` files with a `report_scan_codebase`
/// slice, ~16.5 MB at scale 1.
fn scan_rules50(seed: u64, scale: f64) -> Generated {
    let matrix = RuleMatrixSpec {
        rules: MATRIX_RULES,
        files: scaled(440, scale),
        functions_per_file: 512,
        overlap: OVERLAP,
        seed,
    };
    let mut rules = rule_matrix_rules(&matrix);
    rules.push(GeneratedFile {
        name: "scan_flow.cocci".into(),
        text: FLOW_RULE.into(),
    });
    let mut tree: Vec<GeneratedFile> = Vec::new();
    for (fi, f) in rule_matrix_codebase(&matrix).into_iter().enumerate() {
        tree.push(GeneratedFile {
            name: format!("matrix/d{:02}/{}", fi % 16, f.name),
            text: f.text,
        });
    }
    let flow = CodebaseSpec {
        files: scaled(64, scale),
        functions_per_file: 256,
        seed: seed ^ 0x5CA7,
    };
    tree.extend(under("scan", gen::report_scan_codebase(&flow)));
    tree.extend(noise());

    let mut expected = Vec::new();
    for f in &tree {
        if f.name.starts_with("matrix/") {
            matrix_findings(f, &mut expected);
        } else if f.name.starts_with("scan/") {
            flow_findings(f, &mut expected);
        }
    }
    let flow_expected = expected
        .iter()
        .filter(|l| l.ends_with(FLOW_RULE_ID))
        .count();
    assert_eq!(
        flow_expected,
        flow.files * flow.functions_per_file / 2,
        "report_scan construction: half of all functions release on every path"
    );
    Generated {
        tree,
        rules,
        expected,
    }
}

/// Matrix oracle: a call `api_{g}(buf[k], {a});` with arm `a < OVERLAP`
/// is rule `g * OVERLAP + a`'s finding at the call; larger arms are
/// decoys that wake the group's prefilter atom but match nothing.
fn matrix_findings(f: &GeneratedFile, out: &mut Vec<String>) {
    for (i, line) in f.text.lines().enumerate() {
        let Some(rest) = line.strip_prefix("    api_") else {
            continue;
        };
        let (g, rest) = rest.split_once('(').expect("matrix call shape");
        let arm = rest
            .rsplit_once(", ")
            .and_then(|(_, a)| a.strip_suffix(");"))
            .expect("matrix call shape");
        let (g, arm): (usize, usize) = (g.parse().unwrap(), arm.parse().unwrap());
        if arm < OVERLAP {
            let id = rule_matrix_id(g * OVERLAP + arm, OVERLAP);
            out.push(format!("tree/{}\t{}\t5\t{id}", f.name, i + 1));
        }
    }
}

/// report_scan oracle: function `fj` releases on every path exactly
/// when `fj % 4` is 0 (straight line) or 1 (both arms); the finding
/// sits on its `acquire` statement.
fn flow_findings(f: &GeneratedFile, out: &mut Vec<String>) {
    let mut fj = 0usize;
    for (i, line) in f.text.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("void scan_") {
            let name = rest.split('(').next().expect("function header");
            fj = name.rsplit('_').next().unwrap().parse().unwrap();
        } else if line.starts_with("    acquire(") && fj % 4 < 2 {
            out.push(format!("tree/{}\t{}\t5\t{FLOW_RULE_ID}", f.name, i + 1));
        }
    }
}

/// Root metadata and files a compliant walker must skip.
fn noise() -> Vec<GeneratedFile> {
    vec![
        GeneratedFile {
            name: ".gitignore".into(),
            text: "build/\n*.tmp\n".into(),
        },
        GeneratedFile {
            name: "docs/NOTES.md".into(),
            text: "# synthetic corpus\nnot C at all {{{\n".into(),
        },
        GeneratedFile {
            name: "build/generated.c".into(),
            text: "void generated(void) { acquire(x); old_api(0); k<<<1, 1, 0, s>>>(); }\n".into(),
        },
    ]
}

/// Oracle counts `file\tkind\tcount` for every file with at least one
/// site of a kind.
fn replacement_counts(tree: &[GeneratedFile], kinds: &[(&str, &str)]) -> Vec<String> {
    let mut out = Vec::new();
    for f in tree.iter().filter(|f| is_walkable(&f.name)) {
        for (kind, needle) in kinds {
            let n = f.text.matches(needle).count();
            if n > 0 {
                out.push(format!("tree/{}\t{kind}\t{n}", f.name));
            }
        }
    }
    out
}

/// A `corpus_tree`-style mix weighted towards CUDA files whose sizes
/// range from a dozen to 150 functions.
fn apply_hip(seed: u64, scale: f64) -> Generated {
    let mut tree: Vec<GeneratedFile> = Vec::new();
    // (functions per file, files): every class holds a similar number
    // of functions, so large files weigh as much as small ones.
    for (class, (fns, files)) in [(12, 200), (25, 100), (50, 50), (100, 24), (150, 16)]
        .into_iter()
        .enumerate()
    {
        let spec = CodebaseSpec {
            files: scaled(files, scale),
            functions_per_file: fns,
            seed: seed.wrapping_add(class as u64),
        };
        tree.extend(under(&format!("gpu/f{fns:03}"), gen::cuda_codebase(&spec)));
    }
    let base = CodebaseSpec {
        files: scaled(32, scale),
        functions_per_file: 24,
        seed: seed ^ 0x41B,
    };
    tree.extend(under("omp", gen::omp_codebase(&base)));
    tree.extend(under("kernels", gen::kernel_codebase(&base)));
    tree.extend(under("cpp/search", gen::raw_loop_codebase(&base)));
    tree.extend(under("librsb", gen::librsb_codebase(&base)));
    tree.extend(under("scan", gen::report_scan_codebase(&base)));
    tree.extend(noise());
    let expected = replacement_counts(
        &tree,
        &[
            ("chevron", "<<<"),
            ("curand", "curand_uniform_double("),
            ("half", "__half "),
        ],
    );
    Generated {
        tree,
        rules: vec![GeneratedFile {
            name: "patch.cocci".into(),
            text: UC78_CUDA_HIP_FULL.into(),
        }],
        expected,
    }
}

/// One `old_api` argument shape.
fn dense_arg(rng: &mut SplitMix64, j: usize) -> String {
    match rng.gen_range(0..3) {
        0 => format!("buf[{}]", rng.gen_range(0..64)),
        1 => format!("n + {}", rng.gen_range(0..100)),
        _ => format!("w_{j}"),
    }
}

/// A file of `functions` functions, each making `calls` `old_api`
/// statement calls between ordinary statements.
fn dense_file(name: String, rng: &mut SplitMix64, functions: usize, calls: usize) -> GeneratedFile {
    let mut text = String::new();
    for fj in 0..functions {
        let _ = writeln!(text, "void dense_{fj}(int n, double *buf, int w_{fj}) {{");
        for c in 0..calls {
            let _ = writeln!(text, "    old_api({});", dense_arg(rng, fj));
            if c % 4 == 3 {
                let _ = writeln!(text, "    buf[{c}] = buf[{c}] * 0.5;");
            }
        }
        text.push_str("}\n\n");
    }
    GeneratedFile { name, text }
}

/// Deep but legal nesting, far below the parser's stack limit: nested
/// parentheses around an argument, nested blocks, and an else-if chain,
/// each with `old_api` sites at the bottom.
fn deep_file(name: String, rng: &mut SplitMix64, depth: usize) -> GeneratedFile {
    let mut text = String::new();
    let _ = writeln!(text, "void deep_parens(int n) {{");
    for d in 0..8 {
        let k = rng.gen_range(0..100);
        let _ = writeln!(
            text,
            "    old_api({}n + {k}{});",
            "(".repeat(depth - d),
            ")".repeat(depth - d)
        );
    }
    text.push_str("}\n\nvoid deep_blocks(int n, double *buf) {\n");
    for d in 0..depth {
        let _ = writeln!(text, "{}{{", " ".repeat(d % 16 + 4));
    }
    for _ in 0..8 {
        let _ = writeln!(text, "    old_api(buf[{}]);", rng.gen_range(0..64));
    }
    for d in (0..depth).rev() {
        let _ = writeln!(text, "{}}}", " ".repeat(d % 16 + 4));
    }
    text.push_str("}\n\nint deep_chain(int n) {\n");
    for d in 0..depth {
        let kw = if d == 0 { "if" } else { "} else if" };
        let _ = writeln!(text, "    {kw} (n == {d}) {{\n        old_api(n + {d});");
    }
    text.push_str("    }\n    return n;\n}\n");
    GeneratedFile { name, text }
}

/// Ordinary files with a few `old_api` sites, three dense files with
/// 5k–10k sites spread over many functions, and three deep files.
fn apply_dense(seed: u64, scale: f64) -> Generated {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut tree: Vec<GeneratedFile> = Vec::new();
    for fi in 0..scaled(64, scale) {
        let mut text = String::new();
        for fj in 0..24 {
            let _ = writeln!(text, "void plain_{fi}_{fj}(int n, double *buf) {{");
            for s in 0..4 {
                let _ = writeln!(text, "    buf[{s}] = buf[{s}] + {}.0;", rng.gen_range(0..9));
            }
            if rng.gen_bool(0.25) {
                let _ = writeln!(text, "    old_api({});", dense_arg(&mut rng, fj));
            }
            text.push_str("}\n\n");
        }
        tree.push(GeneratedFile {
            name: format!("src/plain_{fi}.c"),
            text,
        });
    }
    let base = CodebaseSpec {
        files: scaled(16, scale),
        functions_per_file: 24,
        seed: seed ^ 0xDE5,
    };
    tree.extend(under("omp", gen::omp_codebase(&base)));
    tree.extend(under("kernels", gen::kernel_codebase(&base)));
    // (functions, calls per function): 5k, 7.5k and 10k sites.
    for (i, (functions, calls)) in [(100, 50), (125, 60), (200, 50)].into_iter().enumerate() {
        let (functions, calls) = if scale < 1.0 {
            (scaled(functions, scale), calls)
        } else {
            (functions, calls)
        };
        tree.push(dense_file(
            format!("dense/dense_{i}.c"),
            &mut rng,
            functions,
            calls,
        ));
    }
    for (i, depth) in [40, 80, 120].into_iter().enumerate() {
        tree.push(deep_file(format!("deep/deep_{i}.c"), &mut rng, depth));
    }
    tree.extend(noise());
    let expected = replacement_counts(&tree, &[("old_api", "old_api(")]);
    Generated {
        tree,
        rules: vec![GeneratedFile {
            name: "patch.cocci".into(),
            text: DENSE_PATCH.into(),
        }],
        expected,
    }
}

/// Size and identity of a written workload.
pub struct Manifest {
    /// Walkable files.
    pub files: usize,
    /// Walkable bytes.
    pub bytes: usize,
    /// FNV-1a over every generated file's name and text, in order.
    pub digest: u64,
}

/// 64-bit FNV-1a, folded over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Write `g` under `out` (`tree/`, `rules/` or `patch.cocci`,
/// `expected.tsv`).
pub fn write(out: &Path, w: Workload, g: &Generated) -> io::Result<Manifest> {
    let mut m = Manifest {
        files: 0,
        bytes: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    let rules_dir = if w == Workload::ScanRules50 {
        out.join("rules")
    } else {
        out.to_path_buf()
    };
    for (dir, files) in [(out.join("tree"), &g.tree), (rules_dir, &g.rules)] {
        for f in files {
            let path = dir.join(&f.name);
            std::fs::create_dir_all(path.parent().expect("generated paths have a parent"))?;
            std::fs::write(&path, &f.text)?;
            m.digest = fnv1a(fnv1a(m.digest, f.name.as_bytes()), f.text.as_bytes());
        }
    }
    for f in g.tree.iter().filter(|f| is_walkable(&f.name)) {
        m.files += 1;
        m.bytes += f.text.len();
    }
    let mut expected = g.expected.join("\n");
    expected.push('\n');
    std::fs::write(out.join("expected.tsv"), expected)?;
    Ok(m)
}
