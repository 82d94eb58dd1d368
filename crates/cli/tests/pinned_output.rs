//! Pinned CLI output: what `spatch` prints, reports, and explains over
//! a small seeded tree is fixed by FNV fingerprint.
//!
//! The tree mixes `corpus_tree` families and `rule_matrix` files with a
//! dense `old_api` file, an unparsable file, an acquire/release flow
//! file, and a file carrying `// spatch-ignore` markers. Every run below
//! goes at `-j 1` and at `-j 4`; the two must agree byte for byte, and
//! their fingerprints must equal the pinned constants. Three streams are
//! fingerprinted per run: stdout, the `--report` JSON (timing fields,
//! the thread count, and the metrics block's timings and scheduler
//! counters normalized away), and the `spatch: explain:` lines of
//! stderr. Paths are relative to the run's working directory.
//!
//! A deliberate output change re-captures the constants with
//! `GOLDEN_PRINT=1 cargo test -p spatch --test pinned_output -- --nocapture`.

use cocci_workloads::corpus::{corpus_tree, CorpusTreeSpec};
use cocci_workloads::patches::UC78_CUDA_HIP_FULL;
use cocci_workloads::rule_matrix::{rule_matrix_codebase, rule_matrix_rules, RuleMatrixSpec};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const DENSE_PATCH: &str = "@@\nexpression e;\n@@\n- old_api(e);\n+ new_api(e);\n";
const FLOW_RULE: &str = "// spatch-rule: flow-acquire\n\
     // spatch-severity: warning\n\
     // spatch-message: acquired resource is released on every path\n\
     @scan@\nexpression r;\nposition p;\n@@\nacquire(r)@p;\n...\nrelease(r);\n";

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spatch-pinned-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(root: &Path, name: &str, text: &str) {
    let path = root.join(name);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

/// The seeded input tree under `root/tree`, plus the patches and rule
/// directory the runs use.
fn materialize(root: &Path) {
    let tree = root.join("tree");
    let spec = CorpusTreeSpec {
        files_per_family: 2,
        functions_per_file: 3,
        seed: 0x5EED,
    };
    for f in corpus_tree(&spec) {
        write(&tree, &f.name, &f.text);
    }
    let matrix = RuleMatrixSpec {
        rules: 8,
        files: 4,
        functions_per_file: 6,
        overlap: 2,
        seed: 0x5EED,
    };
    for f in rule_matrix_codebase(&matrix) {
        write(&tree, &format!("matrix/{}", f.name), &f.text);
    }
    let mut dense = String::from("void dense(int *v) {\n");
    for i in 0..40 {
        dense.push_str(&format!("    old_api(v[{}]);\n", i % 7));
    }
    dense.push_str("}\n");
    write(&tree, "dense/dense.c", &dense);
    write(
        &tree,
        "bad/broken.c",
        "void broken( { old_api(1); acquire(r); release(r); api_0(x, 0); cudaMalloc(&p, n);\n",
    );
    write(
        &tree,
        "flow/pairs.c",
        "void ok(int x) {\n    acquire(x);\n    work(x);\n    release(x);\n}\n\n\
         void leak(int x, int c) {\n    acquire(x);\n    if (c) {\n        return;\n    }\n    release(x);\n}\n\n\
         void both(int x, int c) {\n    acquire(x);\n    if (c) {\n        release(x);\n    } else {\n        release(x);\n    }\n}\n",
    );
    write(
        &tree,
        "flow/ignored.c",
        "void quiet(int y, double *buf) {\n    acquire(y); // spatch-ignore\n    release(y);\n    \
         api_0(buf[1], 0); // spatch-ignore r000-g0\n    api_0(buf[2], 1);\n    old_api(y);\n}\n",
    );

    write(root, "hip.cocci", UC78_CUDA_HIP_FULL);
    write(root, "dense.cocci", DENSE_PATCH);
    write(root, "flow.cocci", FLOW_RULE);
    let rules = root.join("rules");
    for f in rule_matrix_rules(&matrix) {
        write(&rules, &f.name, &f.text);
    }
    write(&rules, "flow.cocci", FLOW_RULE);
}

/// Replace the value after every `"key": ` occurrence with `0`.
fn zero_key(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\": ");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let start = at + needle.len();
        out.push_str(&rest[..start]);
        let tail = &rest[start..];
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '+')))
            .unwrap_or(tail.len());
        out.push('0');
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Normalize a report-shaped JSON document: timings and the thread count
/// zeroed; the metrics block (present when tracing is on) reduced to its
/// counters, which are exact, dropping phase timings and pool scheduling.
fn normalize(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    for line in json.split_inclusive('\n') {
        match line.strip_prefix("  \"metrics\": ") {
            Some(m) => {
                let counters = m
                    .find("\"counters\": {")
                    .map(|at| {
                        let c = &m[at..];
                        &c[..=c.find('}').unwrap()]
                    })
                    .unwrap_or("");
                out.push_str("  \"metrics\": {");
                out.push_str(counters);
                out.push_str("},\n");
            }
            None => out.push_str(line),
        }
    }
    ["seconds", "total_seconds", "threads"]
        .iter()
        .fold(out, |acc, k| zero_key(&acc, k))
}

/// The three fingerprinted streams of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Prints {
    stdout: u64,
    report: u64,
    explain: u64,
}

/// Run `spatch args... -j N --report <report> tree` in `root`.
fn run(root: &Path, args: &[&str], jobs: &str, report: &str) -> Prints {
    let out = Command::new(env!("CARGO_BIN_EXE_spatch"))
        .current_dir(root)
        .args(args)
        .args(["-j", jobs, "--report", report, "tree"])
        .output()
        .unwrap();
    let code = out.status.code();
    assert!(matches!(code, Some(0 | 1)), "{args:?}: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    let explain: String = stderr
        .lines()
        .filter(|l| l.starts_with("spatch: explain:"))
        .flat_map(|l| [l, "\n"])
        .collect();
    let report = fs::read_to_string(root.join(report)).unwrap();
    Prints {
        stdout: fnv1a(normalize(&stdout).as_bytes()),
        report: fnv1a(normalize(&report).as_bytes()),
        explain: fnv1a(explain.as_bytes()),
    }
}

/// Run at `-j 1` and `-j 4`, demand agreement, return the prints.
fn run_both(root: &Path, args: &[&str], report: &str) -> Prints {
    let one = run(root, args, "1", report);
    let four = run(root, args, "4", report);
    assert_eq!(one, four, "{args:?}: -j 1 and -j 4 disagree");
    one
}

/// Every pinned run of one mode: a plain run, a zero-budget run, and a
/// resume after editing one file. Editing happens in a fresh tree so the
/// other modes' inputs stay unchanged.
fn mode_runs(tag: &str, variants: &[&[&str]]) -> Vec<(String, Prints)> {
    let root = tmpdir(tag);
    materialize(&root);
    let mut prints = Vec::new();
    for (i, args) in variants.iter().enumerate() {
        prints.push((format!("{tag}/{i}"), run_both(&root, args, "plain.json")));
    }
    let base = variants[0];
    let timeout: Vec<&str> = base.iter().copied().chain(["--timeout-ms", "0"]).collect();
    prints.push((
        format!("{tag}/timeout"),
        run_both(&root, &timeout, "timeout.json"),
    ));
    // Resume: the first report is the baseline, then one file changes.
    run(&root, base, "1", "before.json");
    let edited = root.join("tree/flow/pairs.c");
    let mut text = fs::read_to_string(&edited).unwrap();
    text.push_str(
        "\nvoid added(int z, double *buf) {\n    acquire(z);\n    old_api(z);\n    \
         api_1(buf[0], 0);\n    buf[1] = curand_uniform_double(z);\n}\n",
    );
    fs::write(&edited, text).unwrap();
    let resume: Vec<&str> = base
        .iter()
        .copied()
        .chain(["--resume", "before.json"])
        .collect();
    prints.push((
        format!("{tag}/resume"),
        run_both(&root, &resume, "resumed.json"),
    ));
    let _ = fs::remove_dir_all(&root);
    prints
}

fn check(prints: &[(String, Prints)], pinned: &[(&str, u64, u64, u64)]) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (name, p) in prints {
            eprintln!(
                "    (\"{name}\", {:#018x}, {:#018x}, {:#018x}),",
                p.stdout, p.report, p.explain
            );
        }
    }
    assert_eq!(prints.len(), pinned.len());
    for ((name, p), (want, stdout, report, explain)) in prints.iter().zip(pinned) {
        assert_eq!(name, want);
        assert_eq!(p.stdout, *stdout, "{name}: stdout drifted");
        assert_eq!(p.report, *report, "{name}: report drifted");
        assert_eq!(p.explain, *explain, "{name}: explain lines drifted");
    }
}

#[test]
fn apply_diff_mode_output_is_pinned() {
    let mut prints = mode_runs("hip", &[&["--sp-file", "hip.cocci"]]);
    prints.extend(mode_runs("dense", &[&["--sp-file", "dense.cocci"]]));
    check(&prints, APPLY_DIFF);
}

#[test]
fn apply_report_mode_output_is_pinned() {
    let prints = mode_runs(
        "report",
        &[
            &["--sp-file", "flow.cocci", "--explain"],
            &["--sp-file", "flow.cocci", "--explain", "--format", "sarif"],
        ],
    );
    check(&prints, APPLY_REPORT);
}

#[test]
fn scan_output_is_pinned() {
    let prints = mode_runs(
        "scan",
        &[
            &["scan", "--rules", "rules", "--explain"],
            &["scan", "--rules", "rules", "--explain", "--format", "json"],
            &["scan", "--rules", "rules", "--explain", "--format", "sarif"],
        ],
    );
    check(&prints, SCAN);
}

// Captured with `GOLDEN_PRINT=1` (see module docs).
const APPLY_DIFF: &[(&str, u64, u64, u64)] = &[
    (
        "hip/0",
        0xda622e65409179f6,
        0x2cb5804e655b0010,
        0xcbf29ce484222325,
    ),
    (
        "hip/timeout",
        0xcbf29ce484222325,
        0xa6f6d39fd0dbebfb,
        0xcbf29ce484222325,
    ),
    (
        "hip/resume",
        0x1af88c98d2ff8fd0,
        0x612affb88cfba66d,
        0xcbf29ce484222325,
    ),
    (
        "dense/0",
        0xb2ffbd9f301458a4,
        0x85a0793af17d1a91,
        0xcbf29ce484222325,
    ),
    (
        "dense/timeout",
        0xcbf29ce484222325,
        0x7cd505d48e949e90,
        0xcbf29ce484222325,
    ),
    (
        "dense/resume",
        0x46c7825350d575dd,
        0xc547a290b019a4e2,
        0xcbf29ce484222325,
    ),
];
const APPLY_REPORT: &[(&str, u64, u64, u64)] = &[
    (
        "report/0",
        0xc3bc5c250e45869e,
        0x41fd13f8e693f370,
        0xd72b586498047dd5,
    ),
    (
        "report/1",
        0x19978b6d68297eff,
        0x41fd13f8e693f370,
        0xd72b586498047dd5,
    ),
    (
        "report/timeout",
        0xcbf29ce484222325,
        0xdded801e257d5d03,
        0xd714374e3352d58e,
    ),
    (
        "report/resume",
        0xc3bc5c250e45869e,
        0xc80192cc330a9cb1,
        0x0e85e4e228e456df,
    ),
];
const SCAN: &[(&str, u64, u64, u64)] = &[
    (
        "scan/0",
        0xc7c10eecc5530646,
        0x4ffaca49320754e9,
        0x5e75758627b35012,
    ),
    (
        "scan/1",
        0x4ffaca49320754e9,
        0x4ffaca49320754e9,
        0x5e75758627b35012,
    ),
    (
        "scan/2",
        0x8147c8e1e7850b88,
        0x4ffaca49320754e9,
        0x5e75758627b35012,
    ),
    (
        "scan/timeout",
        0xcbf29ce484222325,
        0x50be9e330b79f624,
        0x8fde72b655a5622b,
    ),
    (
        "scan/resume",
        0x35745896e311ae64,
        0x1ee7034b3b6b5b11,
        0x2f1fa722ef32e394,
    ),
];
