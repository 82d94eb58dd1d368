//! End-to-end tests of the `spatch` binary: diff output, in-place
//! rewriting, thread flag, and error reporting.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn spatch() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spatch"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spatch-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

const RENAME_PATCH: &str = "@@\nexpression e;\n@@\n- old_api(e);\n+ new_api(e);\n";

#[test]
fn prints_unified_diff_by_default() {
    let dir = tmpdir("diff");
    let patch = dir.join("p.cocci");
    let file = dir.join("t.c");
    fs::write(&patch, RENAME_PATCH).unwrap();
    fs::write(&file, "void f(void) {\n    old_api(1);\n}\n").unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("-    old_api(1);"), "{stdout}");
    assert!(stdout.contains("+    new_api(1);"), "{stdout}");
    // The file itself is untouched.
    assert!(fs::read_to_string(&file).unwrap().contains("old_api"));
}

#[test]
fn rewrite_to_text_already_in_the_file_prints_the_table_diff() {
    // The new `bar(1);` line also exists unchanged, so the shared lines
    // of old and new text differ and the diff takes the LCS table.
    let dir = tmpdir("repeat");
    fs::write(dir.join("p.cocci"), "@@ @@\n- foo(1);\n+ bar(1);\n").unwrap();
    fs::write(
        dir.join("t.c"),
        "void f(void) {\n    foo(1);\n    bar(1);\n}\n",
    )
    .unwrap();
    let out = spatch()
        .current_dir(&dir)
        .args(["--sp-file", "p.cocci", "t.c"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "--- a/t.c\n+++ b/t.c\n@@ -1,4 +1,4 @@\n void f(void) {\n-    foo(1);\n     bar(1);\n+    bar(1);\n }\n"
    );
}

#[test]
fn in_place_rewrites_files() {
    let dir = tmpdir("inplace");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let mut files = Vec::new();
    for i in 0..4 {
        let f = dir.join(format!("t{i}.c"));
        fs::write(&f, format!("void f{i}(void) {{ old_api({i}); }}\n")).unwrap();
        files.push(f);
    }

    let mut cmd = spatch();
    cmd.args(["--sp-file"])
        .arg(&patch)
        .args(["--in-place", "-j", "2", "--quiet"]);
    for f in &files {
        cmd.arg(f);
    }
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{out:?}");
    for (i, f) in files.iter().enumerate() {
        let text = fs::read_to_string(f).unwrap();
        assert!(text.contains(&format!("new_api({i});")), "{text}");
    }
}

#[test]
fn reports_parse_errors_and_fails() {
    let dir = tmpdir("err");
    let patch = dir.join("p.cocci");
    let file = dir.join("broken.c");
    fs::write(&patch, RENAME_PATCH).unwrap();
    // Contains the pattern's atoms (so the prefilter does not prune it)
    // but does not parse.
    fs::write(&file, "void f( {\n    old_api(1);\n").unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .arg(&file)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("broken.c"), "{stderr}");
}

#[test]
fn bad_patch_is_reported() {
    let dir = tmpdir("badpatch");
    let patch = dir.join("p.cocci");
    let file = dir.join("t.c");
    fs::write(&patch, "this is not SMPL").unwrap();
    fs::write(&file, "int x;\n").unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .arg(&file)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("semantic patch error"), "{stderr}");
}

#[test]
fn output_flag_writes_patched_file_elsewhere() {
    let dir = tmpdir("oflag");
    let patch = dir.join("p.cocci");
    let file = dir.join("t.c");
    let out_file = dir.join("patched.c");
    fs::write(&patch, RENAME_PATCH).unwrap();
    fs::write(&file, "void f(void) {\n    old_api(7);\n}\n").unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["-o"])
        .arg(&out_file)
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    // Original untouched, -o target holds the rewrite.
    assert!(fs::read_to_string(&file).unwrap().contains("old_api(7);"));
    let patched = fs::read_to_string(&out_file).unwrap();
    assert!(patched.contains("new_api(7);"), "{patched}");
    assert!(!patched.contains("old_api"), "{patched}");
}

#[test]
fn usage_errors_exit_code_2() {
    // No arguments at all.
    let out = spatch().output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "{stderr}");

    // --sp-file without any target files.
    let dir = tmpdir("nofiles");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let out = spatch().args(["--sp-file"]).arg(&patch).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // Unknown option.
    let out = spatch().args(["--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // Unreadable patch file.
    let out = spatch()
        .args(["--sp-file"])
        .arg(dir.join("missing.cocci"))
        .arg(dir.join("also-missing.c"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn whole_directory_diff_then_in_place_roundtrip() {
    // The workflow the paper describes: review the diff across a tree,
    // then enact it. Exercises both modes over the same temp directory.
    let dir = tmpdir("tree");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let mut files = Vec::new();
    for i in 0..3 {
        let f = dir.join(format!("mod{i}.c"));
        fs::write(
            &f,
            format!("void stage{i}(void) {{\n    old_api({i});\n    keep({i});\n}}\n"),
        )
        .unwrap();
        files.push(f);
    }
    // One file that must not match (and must not be rewritten).
    let untouched = dir.join("other.c");
    fs::write(&untouched, "void other(void) { keep(9); }\n").unwrap();
    files.push(untouched.clone());

    // Pass 1: diff mode shows every change, touches nothing.
    let mut cmd = spatch();
    cmd.args(["--sp-file"]).arg(&patch);
    for f in &files {
        cmd.arg(f);
    }
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for i in 0..3 {
        assert!(stdout.contains(&format!("-    old_api({i});")), "{stdout}");
        assert!(stdout.contains(&format!("+    new_api({i});")), "{stdout}");
    }
    for f in &files {
        assert!(!fs::read_to_string(f).unwrap().contains("new_api"));
    }

    // Pass 2: --in-place enacts exactly the reviewed diff.
    let mut cmd = spatch();
    cmd.args(["--sp-file"])
        .arg(&patch)
        .args(["--in-place", "--quiet"]);
    for f in &files {
        cmd.arg(f);
    }
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{out:?}");
    for (i, f) in files.iter().take(3).enumerate() {
        let text = fs::read_to_string(f).unwrap();
        assert!(text.contains(&format!("new_api({i});")), "{text}");
        assert!(text.contains(&format!("keep({i});")), "{text}");
    }
    assert_eq!(
        fs::read_to_string(&untouched).unwrap(),
        "void other(void) { keep(9); }\n"
    );
}

#[test]
fn directory_mode_walks_ignores_and_reports() {
    use cocci_core::{ApplyReport, FileStatus};

    // A nested tree: two matching files at different depths, one
    // non-matching (prefilter-prunable) file, one ignored directory, one
    // ignored-by-pattern file, and one non-source file.
    let dir = tmpdir("dirmode");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let tree = dir.join("tree");
    fs::create_dir_all(tree.join("sub/deep")).unwrap();
    fs::create_dir_all(tree.join("build")).unwrap();
    fs::write(tree.join(".gitignore"), "build/\n*.skip.c\n").unwrap();
    fs::write(tree.join("top.c"), "void t(void) { old_api(1); }\n").unwrap();
    fs::write(
        tree.join("sub/deep/leaf.c"),
        "void l(void) { old_api(2); }\n",
    )
    .unwrap();
    fs::write(tree.join("sub/other.c"), "void o(void) { keep(3); }\n").unwrap();
    fs::write(tree.join("sub/x.skip.c"), "void s(void) { old_api(4); }\n").unwrap();
    fs::write(tree.join("build/gen.c"), "void g(void) { old_api(5); }\n").unwrap();
    fs::write(tree.join("notes.md"), "not C at all {{{\n").unwrap();

    let report_path = dir.join("report.json");
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--in-place", "--quiet", "--report"])
        .arg(&report_path)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // Both matching files rewritten, at every depth.
    assert!(fs::read_to_string(tree.join("top.c"))
        .unwrap()
        .contains("new_api(1);"));
    assert!(fs::read_to_string(tree.join("sub/deep/leaf.c"))
        .unwrap()
        .contains("new_api(2);"));
    // Ignored / non-matching / non-source files untouched.
    for (path, marker) in [
        ("sub/other.c", "keep(3);"),
        ("sub/x.skip.c", "old_api(4);"),
        ("build/gen.c", "old_api(5);"),
    ] {
        assert!(
            fs::read_to_string(tree.join(path))
                .unwrap()
                .contains(marker),
            "{path} was modified"
        );
    }

    // The JSON report round-trips and accounts for exactly the walked
    // files: 2 changed + 1 pruned (ignored/non-source files never appear).
    let report = ApplyReport::from_json(&fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report.files.len(), 3, "{report:?}");
    assert_eq!(report.count(FileStatus::Changed), 2);
    assert_eq!(report.count(FileStatus::Pruned), 1);
    assert_eq!(report.count(FileStatus::Error), 0);
    assert!(report.prefilter);
    let changed_names: Vec<&str> = report
        .files
        .iter()
        .filter(|f| f.status == FileStatus::Changed)
        .map(|f| f.name.as_str())
        .collect();
    assert!(changed_names.iter().any(|n| n.ends_with("top.c")));
    assert!(changed_names.iter().any(|n| n.ends_with("leaf.c")));

    // --no-prefilter processes the same set, now fully parsed.
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--no-prefilter", "--quiet", "--report"])
        .arg(&report_path)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let report = ApplyReport::from_json(&fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report.files.len(), 3);
    assert_eq!(report.count(FileStatus::Pruned), 0);
    assert_eq!(report.count(FileStatus::Unmatched), 3); // already rewritten
    assert!(!report.prefilter);
}

#[test]
fn uc_patch_across_generated_corpus_tree() {
    use cocci_core::{ApplyReport, FileStatus};
    use cocci_workloads::corpus::{write_corpus_tree, CorpusTreeSpec};
    use cocci_workloads::patches::UC1_LIKWID;

    // The acceptance scenario: one command applies a UC patch across a
    // generated multi-directory tree, and the JSON report accounts for
    // every walked file with a pruned/matched/changed/error outcome.
    let dir = tmpdir("uccorpus");
    let tree = dir.join("tree");
    let spec = CorpusTreeSpec {
        files_per_family: 3,
        functions_per_file: 4,
        seed: 0xACCE,
    };
    let stats = write_corpus_tree(&tree, &spec).unwrap();
    let patch = dir.join("uc1.cocci");
    fs::write(&patch, UC1_LIKWID).unwrap();
    let report_path = dir.join("report.json");

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--in-place", "--quiet", "--jobs", "2", "--report"])
        .arg(&report_path)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let report = ApplyReport::from_json(&fs::read_to_string(&report_path).unwrap()).unwrap();
    // Every walkable file is accounted for, each with a classified outcome.
    assert_eq!(report.files.len(), stats.walkable, "{report:?}");
    assert_eq!(report.count(FileStatus::Error), 0, "{report:?}");
    // Only the omp/ subtree can match UC1; the rest is pruned before
    // parsing (cuda/kernel/raw families lack the patch's atoms).
    assert_eq!(report.count(FileStatus::Changed), spec.files_per_family);
    assert!(
        report.count(FileStatus::Pruned) >= 2 * spec.files_per_family,
        "{}",
        report.summary()
    );
    // And the transformation really landed on disk.
    let patched = fs::read_to_string(tree.join("omp/omp_0.c")).unwrap();
    assert!(patched.contains("#include <likwid-marker.h>"), "{patched}");
    assert!(
        patched.contains("LIKWID_MARKER_START(__func__);"),
        "{patched}"
    );
}

#[test]
fn extra_ignore_flag_excludes_subtrees() {
    let dir = tmpdir("ignoreflag");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let tree = dir.join("tree");
    fs::create_dir_all(tree.join("vendor")).unwrap();
    fs::write(tree.join("mine.c"), "void m(void) { old_api(1); }\n").unwrap();
    fs::write(
        tree.join("vendor/theirs.c"),
        "void v(void) { old_api(2); }\n",
    )
    .unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--in-place", "--quiet", "--ignore", "vendor/"])
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(fs::read_to_string(tree.join("mine.c"))
        .unwrap()
        .contains("new_api"));
    assert!(fs::read_to_string(tree.join("vendor/theirs.c"))
        .unwrap()
        .contains("old_api"));
}

#[test]
fn no_match_exits_zero() {
    let dir = tmpdir("nomatch");
    let patch = dir.join("p.cocci");
    let file = dir.join("t.c");
    fs::write(&patch, RENAME_PATCH).unwrap();
    fs::write(&file, "void f(void) { other(); }\n").unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(out.stdout.is_empty());
}

const PROBE_PATCH: &str =
    "@@\nexpression b;\n@@\n- probe_begin(b);\n+ probe_enter(b);\n...\nprobe_end(b);\n";

#[test]
fn dots_refuse_a_path_that_returns_early() {
    // An early return escapes the dots: the all-paths reading refuses,
    // so diff mode prints nothing and exits 0.
    let dir = tmpdir("early-return");
    let patch = dir.join("p.cocci");
    let file = dir.join("t.c");
    fs::write(&patch, PROBE_PATCH).unwrap();
    let src = "void f(int x, double *q) {\n    probe_begin(q);\n    if (x)\n        return;\n    probe_end(q);\n}\n";
    fs::write(&file, src).unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.is_empty(), "CFG semantics must refuse: {stdout}");
}

#[test]
fn timeout_ms_records_timeout_status_without_failing_run() {
    use cocci_core::{ApplyReport, FileStatus};

    let dir = tmpdir("timeout");
    let patch = dir.join("p.cocci");
    let file = dir.join("t.c");
    let report_path = dir.join("report.json");
    fs::write(&patch, RENAME_PATCH).unwrap();
    fs::write(&file, "void f(void) {\n    old_api(1);\n}\n").unwrap();

    // A zero budget trips at the first rule boundary for every file;
    // the run still succeeds (timeouts are quarantine, not failure).
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--timeout-ms", "0", "--report"])
        .arg(&report_path)
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("time budget"), "{stderr}");
    let report = ApplyReport::from_json(&fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report.count(FileStatus::Timeout), 1, "{report:?}");
    assert_eq!(report.count(FileStatus::Error), 0);
    // The file itself is untouched.
    assert!(fs::read_to_string(&file).unwrap().contains("old_api"));
}

#[test]
fn resume_skips_unchanged_files() {
    use cocci_core::{ApplyReport, FileStatus};

    let dir = tmpdir("resume");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let hit = dir.join("hit.c");
    let miss = dir.join("miss.c");
    fs::write(&hit, "void f(void) {\n    old_api(1);\n}\n").unwrap();
    fs::write(&miss, "void g(void) {\n    keep(2);\n}\n").unwrap();
    let r1 = dir.join("r1.json");
    let r2 = dir.join("r2.json");

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--quiet", "--report"])
        .arg(&r1)
        .arg(&hit)
        .arg(&miss)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // Touch only hit.c, then resume from the first report: miss.c must
    // be skipped with its previous status copied.
    fs::write(&hit, "void f(void) {\n    old_api(1);\n    more();\n}\n").unwrap();
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--resume"])
        .arg(&r1)
        .args(["--report"])
        .arg(&r2)
        .arg(&hit)
        .arg(&miss)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("resumed: 1"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("hit.c"),
        "changed file re-processed: {stdout}"
    );
    assert!(!stdout.contains("miss.c"), "{stdout}");
    let report = ApplyReport::from_json(&fs::read_to_string(&r2).unwrap()).unwrap();
    assert_eq!(report.resumed, 1);
    let miss_entry = report
        .files
        .iter()
        .find(|f| f.name.ends_with("miss.c"))
        .unwrap();
    assert_eq!(miss_entry.status, FileStatus::Pruned, "status copied");

    // A bogus resume report is a hard usage error, before any work.
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--resume"])
        .arg(dir.join("nope.json"))
        .arg(&hit)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn resume_retries_previously_timed_out_files() {
    use cocci_core::{ApplyReport, FileStatus};

    let dir = tmpdir("resume-retry");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let hit = dir.join("hit.c");
    let miss = dir.join("miss.c");
    fs::write(&hit, "void f(void) {\n    old_api(1);\n}\n").unwrap();
    fs::write(&miss, "void g(void) {\n    keep(2);\n}\n").unwrap();
    let r1 = dir.join("r1.json");
    let r2 = dir.join("r2.json");

    // First pass under a zero budget: hit.c times out before its first
    // rule (miss.c is pruned by the prefilter before the budget check).
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--timeout-ms", "0", "--quiet", "--report"])
        .arg(&r1)
        .arg(&hit)
        .arg(&miss)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let report = ApplyReport::from_json(&fs::read_to_string(&r1).unwrap()).unwrap();
    assert_eq!(report.count(FileStatus::Timeout), 1, "{report:?}");
    assert_eq!(report.count(FileStatus::Pruned), 1, "{report:?}");

    // Resume without the budget: the timed-out file is re-attempted
    // (and now transforms); only the pruned file's status is copied.
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--in-place", "--resume"])
        .arg(&r1)
        .args(["--report"])
        .arg(&r2)
        .arg(&hit)
        .arg(&miss)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let report = ApplyReport::from_json(&fs::read_to_string(&r2).unwrap()).unwrap();
    assert_eq!(report.resumed, 1, "only the pruned miss.c skips");
    assert_eq!(report.count(FileStatus::Changed), 1, "{report:?}");
    assert_eq!(report.count(FileStatus::Timeout), 0, "{report:?}");
    assert!(
        fs::read_to_string(&hit).unwrap().contains("new_api(1);"),
        "retried file was rewritten"
    );
}

#[test]
fn deeply_nested_resume_report_is_refused_not_a_crash() {
    // The JSON reader recurses per `[`/`{`: without a depth cap this
    // file overflowed the main stack (exit 134, no report written).
    let dir = tmpdir("resume-nested");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let file = dir.join("t.c");
    fs::write(&file, "void f(void) { old_api(1); }\n").unwrap();
    let prior = dir.join("prior.json");
    fs::write(&prior, "[".repeat(200_000)).unwrap();
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--resume"])
        .arg(&prior)
        .arg(&file)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot parse resume report"), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}

#[test]
fn resume_refuses_report_from_different_patch() {
    let dir = tmpdir("resume-mismatch");
    let patch_a = dir.join("a.cocci");
    let patch_b = dir.join("b.cocci");
    fs::write(&patch_a, RENAME_PATCH).unwrap();
    fs::write(&patch_b, PROBE_PATCH).unwrap();
    let file = dir.join("t.c");
    fs::write(&file, "void f(void) { old_api(1); }\n").unwrap();
    let r1 = dir.join("r1.json");

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch_a)
        .args(["--quiet", "--report"])
        .arg(&r1)
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // Resuming with a different patch must refuse before doing work.
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch_b)
        .args(["--resume"])
        .arg(&r1)
        .arg(&file)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("not produced by this semantic patch"),
        "{stderr}"
    );

    // Same patch resumes fine.
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch_a)
        .args(["--resume"])
        .arg(&r1)
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn output_flag_refuses_directory_and_multi_file_targets() {
    let dir = tmpdir("oflag-multi");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let tree = dir.join("tree");
    fs::create_dir_all(&tree).unwrap();
    fs::write(tree.join("a.c"), "void a(void) { old_api(1); }\n").unwrap();
    fs::write(tree.join("b.c"), "void b(void) { old_api(2); }\n").unwrap();

    // Directory target with -o: refused.
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["-o"])
        .arg(dir.join("out.c"))
        .arg(&tree)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("single input file"), "{stderr}");

    // Two explicit files with -o: refused.
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["-o"])
        .arg(dir.join("out.c"))
        .arg(tree.join("a.c"))
        .arg(tree.join("b.c"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

// ---- report mode ----

/// Transformation-free patch with a position metavariable: the findings
/// engine's canonical input.
const SCAN_PATCH: &str = "@scan@\nexpression e;\nposition p;\n@@\nold_api(e)@p;\n";

/// A flow-sensitive reporting patch (statement dots): positions bind at
/// CFG match sites.
const SCAN_DOTS_PATCH: &str =
    "@pair@\nexpression b;\nposition p;\n@@\nprobe_begin(b)@p;\n...\nprobe_end(b);\n";

fn write_scan_corpus(dir: &std::path::Path) -> PathBuf {
    let tree = dir.join("tree");
    fs::create_dir_all(&tree).unwrap();
    fs::write(
        tree.join("a.c"),
        "void f(void) {\n    setup();\n    old_api(1);\n    old_api(q + 2);\n}\n",
    )
    .unwrap();
    fs::write(tree.join("b.c"), "void g(void) {\n    old_api(7);\n}\n").unwrap();
    fs::write(tree.join("c.c"), "void h(void) {\n    other();\n}\n").unwrap();
    tree
}

/// Extract the `(path-suffix, line, col)` finding set from grep-style
/// text output.
fn text_finding_set(stdout: &str) -> Vec<(String, u32, u32)> {
    let mut out: Vec<(String, u32, u32)> = stdout
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut it = l.splitn(4, ':');
            let path = it.next().unwrap();
            let line: u32 = it.next().unwrap().parse().unwrap();
            let col: u32 = it.next().unwrap().parse().unwrap();
            let file = path.rsplit('/').next().unwrap().to_string();
            (file, line, col)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn report_mode_auto_detects_and_prints_grep_style_findings() {
    let dir = tmpdir("report-text");
    let patch = dir.join("p.cocci");
    fs::write(&patch, SCAN_PATCH).unwrap();
    let tree = write_scan_corpus(&dir);

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .arg("--quiet")
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        text_finding_set(&stdout),
        vec![
            ("a.c".to_string(), 3, 5),
            ("a.c".to_string(), 4, 5),
            ("b.c".to_string(), 2, 5),
        ],
        "{stdout}"
    );
    assert!(stdout.contains(": scan: "), "{stdout}");
    // No file was rewritten.
    assert!(fs::read_to_string(tree.join("a.c"))
        .unwrap()
        .contains("old_api(1);"));
}

#[test]
fn report_mode_refuses_in_place_and_output_and_patch_mode_refuses_format() {
    let dir = tmpdir("report-refuse");
    let patch = dir.join("p.cocci");
    let file = dir.join("t.c");
    fs::write(&patch, SCAN_PATCH).unwrap();
    fs::write(&file, "void f(void) { old_api(1); }\n").unwrap();

    for flags in [vec!["--in-place"], vec!["-o", "out.c"]] {
        let out = spatch()
            .args(["--sp-file"])
            .arg(&patch)
            .args(&flags)
            .arg(&file)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("report mode"), "{stderr}");
    }

    // --format needs report mode.
    let transform = dir.join("tp.cocci");
    fs::write(&transform, RENAME_PATCH).unwrap();
    let out = spatch()
        .args(["--sp-file"])
        .arg(&transform)
        .args(["--format", "json"])
        .arg(&file)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // A transforming patch cannot be forced into report mode either:
    // its rules rewrite the in-memory text between matches, so later
    // findings would carry line/col of a text no on-disk file has.
    let out = spatch()
        .args(["--sp-file"])
        .arg(&transform)
        .args(["--mode", "report", "--quiet"])
        .arg(&file)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("transformation-free"), "{stderr}");
    assert!(fs::read_to_string(&file).unwrap().contains("old_api"));
}

#[test]
fn report_formats_agree_on_the_finding_set() {
    use cocci_core::report::json;
    use cocci_core::ApplyReport;

    let dir = tmpdir("report-formats");
    let patch = dir.join("p.cocci");
    fs::write(&patch, SCAN_PATCH).unwrap();
    let tree = write_scan_corpus(&dir);

    let run = |format: &str| -> String {
        let out = spatch()
            .args(["--sp-file"])
            .arg(&patch)
            .args(["--format", format, "--quiet"])
            .arg(&tree)
            .output()
            .unwrap();
        assert!(out.status.success(), "{format}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };

    let text = text_finding_set(&run("text"));
    assert_eq!(text.len(), 3);

    // JSON: findings embedded in the apply report.
    let report = ApplyReport::from_json(&run("json")).unwrap();
    let mut from_json: Vec<(String, u32, u32)> = report
        .files
        .iter()
        .flat_map(|f| &f.findings)
        .map(|fd| {
            (
                fd.path.rsplit('/').next().unwrap().to_string(),
                fd.line,
                fd.col,
            )
        })
        .collect();
    from_json.sort();
    assert_eq!(from_json, text);

    // SARIF: same set out of the results array.
    let sarif = json::parse(&run("sarif")).unwrap();
    let runs = sarif
        .as_object()
        .unwrap()
        .get("runs")
        .unwrap()
        .as_array()
        .unwrap();
    let results = runs[0]
        .as_object()
        .unwrap()
        .get("results")
        .unwrap()
        .as_array()
        .unwrap();
    let mut from_sarif: Vec<(String, u32, u32)> = results
        .iter()
        .map(|r| {
            let loc = r
                .as_object()
                .unwrap()
                .get("locations")
                .unwrap()
                .as_array()
                .unwrap()[0]
                .as_object()
                .unwrap()
                .get("physicalLocation")
                .unwrap()
                .as_object()
                .unwrap();
            let uri = loc
                .get("artifactLocation")
                .unwrap()
                .as_object()
                .unwrap()
                .get("uri")
                .unwrap()
                .as_str()
                .unwrap();
            let region = loc.get("region").unwrap().as_object().unwrap();
            (
                uri.rsplit('/').next().unwrap().to_string(),
                region.get("startLine").unwrap().as_f64().unwrap() as u32,
                region.get("startColumn").unwrap().as_f64().unwrap() as u32,
            )
        })
        .collect();
    from_sarif.sort();
    assert_eq!(from_sarif, text);
}

#[test]
fn report_mode_reports_flow_rule_matches() {
    // A reporting-only flow rule: the finding sits on the position's
    // CFG match site.
    let dir = tmpdir("report-flow");
    let patch = dir.join("p.cocci");
    fs::write(&patch, SCAN_DOTS_PATCH).unwrap();
    let file = dir.join("t.c");
    fs::write(
        &file,
        "void f(double *q) {\n    probe_begin(q);\n    work(q);\n    probe_end(q);\n}\n",
    )
    .unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .arg("--quiet")
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let findings = text_finding_set(&String::from_utf8(out.stdout).unwrap());
    assert_eq!(findings, vec![("t.c".to_string(), 2, 5)]);
}

#[test]
fn resume_carries_findings_forward() {
    use cocci_core::ApplyReport;

    let dir = tmpdir("report-resume");
    let patch = dir.join("p.cocci");
    fs::write(&patch, SCAN_PATCH).unwrap();
    let tree = write_scan_corpus(&dir);
    let r1 = dir.join("r1.json");
    let r2 = dir.join("r2.json");

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--quiet", "--report"])
        .arg(&r1)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let first = text_finding_set(&String::from_utf8(out.stdout).unwrap());
    assert_eq!(first.len(), 3);

    // Nothing changed: every file resumes, and the findings — not just
    // the statuses — still come out in full.
    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .args(["--quiet", "--resume"])
        .arg(&r1)
        .args(["--report"])
        .arg(&r2)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let resumed = text_finding_set(&String::from_utf8(out.stdout).unwrap());
    assert_eq!(resumed, first, "findings carried through --resume");
    let report = ApplyReport::from_json(&fs::read_to_string(&r2).unwrap()).unwrap();
    assert_eq!(report.resumed, 3);
    let total: usize = report.files.iter().map(|f| f.findings.len()).sum();
    assert_eq!(total, 3);
}

#[test]
fn script_print_report_authors_messages() {
    let dir = tmpdir("report-script");
    let patch = dir.join("p.cocci");
    fs::write(
        &patch,
        "@r@\nexpression e;\nposition p;\n@@\nold_api(e)@p;\n\n\
         @script:python s depends on r@\np << r.p;\ne << r.e;\n@@\n\
         coccilib.report.print_report(p[0], \"old_api called with \" + e)\n",
    )
    .unwrap();
    let file = dir.join("t.c");
    fs::write(&file, "void f(void) {\n    old_api(q + 2);\n}\n").unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .arg("--quiet")
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(": s: old_api called with q + 2"),
        "{stdout}"
    );
    assert!(stdout.contains(":2:5:"), "{stdout}");
    // The scanned rule's own generic `matched` finding is suppressed —
    // the script authors the message, and emitting both would report
    // every site twice.
    assert!(!stdout.contains(": r: matched"), "{stdout}");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn non_reporting_script_does_not_swallow_findings() {
    // The inheriting script only *computes* (never calls print_report):
    // the scanned rule's generic findings must stand in — the matches
    // may not silently vanish from report output.
    let dir = tmpdir("report-script-silent");
    let patch = dir.join("p.cocci");
    fs::write(
        &patch,
        "@r@\nexpression e;\nposition p;\n@@\nold_api(e)@p;\n\n\
         @script:python s depends on r@\ne << r.e;\n@@\n\
         coccinelle.tag = \"seen_\" + e\n",
    )
    .unwrap();
    let file = dir.join("t.c");
    fs::write(&file, "void f(void) {\n    old_api(5);\n}\n").unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&patch)
        .arg("--quiet")
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(": r: matched"), "{stdout}");
    assert!(stdout.contains(":2:5:"), "{stdout}");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

// ---------------------------------------------------------------------------
// Scan mode: `spatch scan --rules <dir>` — N rules, one parse per file.

/// Two report-only rules with metadata headers: `use-beta` (warning,
/// custom message) fires on `alpha(...)`, `no-gamma` (default note) on
/// `gamma(...)`.
fn write_rules_dir(dir: &std::path::Path) -> PathBuf {
    let rules = dir.join("rules");
    fs::create_dir_all(&rules).unwrap();
    fs::write(
        rules.join("use_beta.cocci"),
        "// spatch-rule: use-beta\n// spatch-severity: warning\n\
         // spatch-message: alpha() is deprecated, use beta()\n\
         @r@\nexpression e;\nposition p;\n@@\nalpha(e)@p;\n",
    )
    .unwrap();
    fs::write(
        rules.join("no_gamma.cocci"),
        "// spatch-rule: no-gamma\n@r@\nexpression e;\nposition p;\n@@\ngamma(e)@p;\n",
    )
    .unwrap();
    rules
}

/// Corpus for the rule dir above: two `alpha` sites (one suppressed),
/// one `gamma` site, one file neither rule can touch.
fn write_scan_tree(dir: &std::path::Path) -> PathBuf {
    let tree = dir.join("tree");
    fs::create_dir_all(&tree).unwrap();
    fs::write(
        tree.join("a.c"),
        "void f(void) {\n    alpha(1);\n    // spatch-ignore use-beta\n    alpha(2);\n    gamma(3);\n}\n",
    )
    .unwrap();
    fs::write(tree.join("b.c"), "void g(void) {\n    alpha(q + 7);\n}\n").unwrap();
    fs::write(tree.join("c.c"), "void h(void) {\n    other();\n}\n").unwrap();
    tree
}

#[test]
fn scan_mode_attributes_findings_to_rules_and_counts_suppressions() {
    let dir = tmpdir("scan-happy");
    let rules = write_rules_dir(&dir);
    let tree = write_scan_tree(&dir);

    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();

    // a.c: alpha(1) + gamma(3) report, alpha(2) is suppressed; b.c: one.
    let findings = text_finding_set(&stdout);
    assert_eq!(findings.len(), 3, "{stdout}");
    assert!(
        stdout.contains(": use-beta: alpha() is deprecated, use beta()"),
        "{stdout}"
    );
    assert!(stdout.contains(": no-gamma: "), "{stdout}");
    assert!(!stdout.contains(":4:"), "suppressed site leaked: {stdout}");
    assert!(stderr.contains("1 suppressed"), "{stderr}");
    assert!(
        stderr.contains("3 finding(s), 1 suppressed, across 3 file(s) with 2 rule(s)"),
        "{stderr}"
    );
}

#[test]
fn scan_mode_flag_validation() {
    // scan without --rules.
    let out = spatch().arg("scan").arg("x.c").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("scan mode requires --rules"), "{stderr}");

    // Patch-only flags are rejected inside scan mode.
    for bad in [&["--in-place"][..], &["--sp-file", "p.cocci"][..]] {
        let dir = tmpdir("scan-flags");
        let rules = write_rules_dir(&dir);
        let out = spatch()
            .arg("scan")
            .arg("--rules")
            .arg(&rules)
            .args(bad)
            .arg("x.c")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
    }
}

#[test]
fn scan_refuses_duplicate_rule_ids_naming_both_sources() {
    let dir = tmpdir("scan-dup");
    let rules = dir.join("rules");
    fs::create_dir_all(&rules).unwrap();
    let rule = "// spatch-rule: dup\n@r@\nexpression e;\nposition p;\n@@\nalpha(e)@p;\n";
    fs::write(rules.join("one.cocci"), rule).unwrap();
    fs::write(rules.join("two.cocci"), rule).unwrap();

    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .arg("x.c")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("duplicate rule id `dup`"), "{stderr}");
    assert!(stderr.contains("one.cocci"), "{stderr}");
    assert!(stderr.contains("two.cocci"), "{stderr}");
}

#[test]
fn scan_load_error_names_the_offending_file() {
    let dir = tmpdir("scan-badrule");
    let rules = dir.join("rules");
    fs::create_dir_all(&rules).unwrap();
    fs::write(rules.join("broken.cocci"), "this is not smpl\n").unwrap();

    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .arg("x.c")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("broken.cocci"), "{stderr}");

    // An empty rules dir is refused too.
    let empty = dir.join("empty");
    fs::create_dir_all(&empty).unwrap();
    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&empty)
        .arg("x.c")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no .cocci files"), "{stderr}");
}

#[test]
fn scan_runs_transform_rules_without_writing() {
    let dir = tmpdir("scan-mixed");
    let rules = write_rules_dir(&dir);
    fs::write(
        rules.join("rename.cocci"),
        format!("// spatch-rule: rename-old\n{RENAME_PATCH}"),
    )
    .unwrap();
    let tree = dir.join("tree");
    fs::create_dir_all(&tree).unwrap();
    let body = "void f(void) {\n    old_api(1);\n    alpha(2);\n}\n";
    fs::write(tree.join("a.c"), body).unwrap();

    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .args(["--format", "json"])
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    // The transform rule reports would-change; the file is untouched.
    assert_eq!(fs::read_to_string(tree.join("a.c")).unwrap(), body);
    let report =
        cocci_core::ApplyReport::from_json(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let file = &report.files[0];
    let rename = file
        .rules
        .iter()
        .find(|r| r.id == "rename-old")
        .expect("per-rule outcome recorded");
    assert_eq!(rename.status, cocci_core::FileStatus::Changed);
    assert_eq!(rename.matches, 1);
    let beta = file.rules.iter().find(|r| r.id == "use-beta").unwrap();
    assert_eq!(beta.findings, 1);
}

#[test]
fn scan_resume_checks_ruleset_hash_and_skips_unchanged() {
    let dir = tmpdir("scan-resume");
    let rules = write_rules_dir(&dir);
    let tree = write_scan_tree(&dir);
    let report = dir.join("scan.json");

    let first = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .arg("--report")
        .arg(&report)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(first.status.success(), "{first:?}");

    // Resuming with a different rule set is refused up front.
    let other = dir.join("other-rules");
    fs::create_dir_all(&other).unwrap();
    fs::write(
        other.join("solo.cocci"),
        "@r@\nexpression e;\nposition p;\n@@\nalpha(e)@p;\n",
    )
    .unwrap();
    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&other)
        .arg("--resume")
        .arg(&report)
        .arg(&tree)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("not produced by this rule set"), "{stderr}");

    // Same rule set: every unchanged file is skipped, findings carried.
    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .arg("--resume")
        .arg(&report)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("resumed: 3 unchanged file(s) skipped"),
        "{stderr}"
    );
    let findings = text_finding_set(&String::from_utf8(out.stdout).unwrap());
    assert_eq!(findings.len(), 3, "carried findings");
}

#[test]
fn scan_sarif_lists_every_rule_with_severity_levels() {
    use cocci_core::report::json;

    let dir = tmpdir("scan-sarif");
    let rules = write_rules_dir(&dir);
    let tree = write_scan_tree(&dir);

    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .args(["--format", "sarif", "--quiet"])
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let sarif = json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let top = sarif.as_object().unwrap();
    assert_eq!(
        top.get("version").unwrap().as_str().unwrap(),
        "2.1.0",
        "required SARIF key"
    );
    assert!(top.contains_key("$schema"), "required SARIF key");
    let run = top.get("runs").unwrap().as_array().unwrap()[0]
        .as_object()
        .unwrap();
    let driver = run
        .get("tool")
        .unwrap()
        .as_object()
        .unwrap()
        .get("driver")
        .unwrap()
        .as_object()
        .unwrap();
    let listed: Vec<(String, String)> = driver
        .get("rules")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|r| {
            let o = r.as_object().unwrap();
            let level = o
                .get("defaultConfiguration")
                .unwrap()
                .as_object()
                .unwrap()
                .get("level")
                .unwrap()
                .as_str()
                .unwrap();
            (
                o.get("id").unwrap().as_str().unwrap().to_string(),
                level.to_string(),
            )
        })
        .collect();
    assert_eq!(
        listed,
        vec![
            ("no-gamma".to_string(), "note".to_string()),
            ("use-beta".to_string(), "warning".to_string()),
        ],
        "all loaded rules listed, sorted, with metadata severities"
    );
    // Every result carries a listed ruleId and its rule's level.
    for r in run.get("results").unwrap().as_array().unwrap() {
        let o = r.as_object().unwrap();
        let id = o.get("ruleId").unwrap().as_str().unwrap();
        assert!(listed.iter().any(|(lid, _)| lid == id), "{id}");
        assert!(o.contains_key("level"));
    }
}

#[test]
fn scan_output_is_byte_identical_across_runs_and_ignore_duplicates() {
    let dir = tmpdir("scan-determinism");
    let rules = write_rules_dir(&dir);
    let tree = write_scan_tree(&dir);

    let run = |fmt: &str| -> Vec<u8> {
        let out = spatch()
            .arg("scan")
            .arg("--rules")
            .arg(&rules)
            .args(["--format", fmt, "--quiet", "-j", "4"])
            // The same --ignore pattern twice: deduplicated, not an error.
            .args(["--ignore", "*.tmp", "--ignore", "*.tmp"])
            .arg(&tree)
            .output()
            .unwrap();
        assert!(out.status.success(), "{fmt}: {out:?}");
        out.stdout
    };
    for fmt in ["text", "sarif"] {
        assert_eq!(run(fmt), run(fmt), "{fmt} output drifted between runs");
    }
}

#[test]
fn thousands_of_findings_are_byte_identical_across_jobs() {
    // 12,800 findings, each built on a worker and freed on the thread
    // that sinks it: more workers than cores, and a block freed on
    // another thread than the one that allocated it on every file.
    let dir = tmpdir("scan-many");
    let rules = write_rules_dir(&dir);
    let tree = dir.join("tree");
    fs::create_dir_all(&tree).unwrap();
    for f in 0..64 {
        let calls: String = (0..200).map(|i| format!("    alpha({i});\n")).collect();
        fs::write(
            tree.join(format!("f{f:02}.c")),
            format!("void f{f}(void) {{\n{calls}}}\n"),
        )
        .unwrap();
    }
    let run = |fmt: &str, jobs: &str| -> Vec<u8> {
        let out = spatch()
            .arg("scan")
            .arg("--rules")
            .arg(&rules)
            .args(["--format", fmt, "--quiet", "-j", jobs])
            .arg(&tree)
            .output()
            .unwrap();
        assert!(out.status.success(), "{fmt} -j {jobs}: {out:?}");
        out.stdout
    };
    let text = run("text", "1");
    assert_eq!(text.iter().filter(|&&b| b == b'\n').count(), 64 * 200);
    assert_eq!(run("text", "8"), text, "text output: -j 1 vs -j 8");
    assert_eq!(run("sarif", "8"), run("sarif", "1"), "SARIF: -j 1 vs -j 8");
}

// ---------------------------------------------------------------------------
// Telemetry: --trace-out Chrome profiles and the --stats table.

/// Rules + corpus exercising every trace phase in one scan: a
/// report-only tree rule (tree_match) and a flow transform rule
/// (statement dots: cfg_build, flow_match, rewrite, render) over a
/// walked directory (walk, prefilter, parse, report).
fn write_telemetry_fixture(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let rules = dir.join("rules");
    fs::create_dir_all(&rules).unwrap();
    fs::write(
        rules.join("use_beta.cocci"),
        "// spatch-rule: use-beta\n@r@\nexpression e;\nposition p;\n@@\nalpha(e)@p;\n",
    )
    .unwrap();
    fs::write(
        rules.join("pair.cocci"),
        "// spatch-rule: probe-pair\n@pair@\nexpression b;\n@@\n\
         - probe_begin(b);\n+ probe_enter(b);\n...\nprobe_end(b);\n",
    )
    .unwrap();
    let corpus = dir.join("corpus");
    fs::create_dir_all(&corpus).unwrap();
    fs::write(corpus.join("a.c"), "void f(void) {\n    alpha(1);\n}\n").unwrap();
    fs::write(
        corpus.join("pair.c"),
        "void g(int x) {\n    probe_begin(x);\n    work(x);\n    probe_end(x);\n}\n",
    )
    .unwrap();
    // No atom of any rule: exercises the pruned path.
    fs::write(corpus.join("none.c"), "void h(void) {\n    other(2);\n}\n").unwrap();
    (rules, corpus)
}

#[test]
fn trace_out_writes_chrome_json_naming_every_phase() {
    let dir = tmpdir("traceout");
    let (rules, corpus) = write_telemetry_fixture(&dir);
    let trace = dir.join("trace.json");
    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .arg("--trace-out")
        .arg(&trace)
        .arg("--quiet")
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let text = fs::read_to_string(&trace).unwrap();
    let v = cocci_core::report::json::parse(&text).expect("trace JSON is well-formed");
    let events = v.as_object().unwrap()["traceEvents"].as_array().unwrap();
    let complete: Vec<_> = events
        .iter()
        .filter_map(|e| e.as_object())
        .filter(|o| o.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .collect();
    assert!(!complete.is_empty());
    // Every complete event carries the Chrome trace-event essentials.
    for o in &complete {
        for key in ["pid", "tid", "ts", "dur", "name"] {
            assert!(o.contains_key(key), "event missing {key}");
        }
    }
    for phase in cocci_trace::Phase::ALL {
        assert!(
            complete
                .iter()
                .any(|o| o.get("name").and_then(|n| n.as_str()) == Some(phase.name())),
            "trace has no {} span",
            phase.name()
        );
    }
}

#[test]
fn stats_count_totals_are_stable_across_thread_counts() {
    let dir = tmpdir("statsdet");
    let (rules, corpus) = write_telemetry_fixture(&dir);
    // Count-like stats lines (span counts, counters, per-rule match and
    // finding totals) must not depend on the worker count; wall-clock
    // columns and the pool line may, and are stripped. Sorted because
    // the rules table orders by per-run timing.
    let run = |jobs: &str| -> Vec<String> {
        let out = spatch()
            .arg("scan")
            .arg("--rules")
            .arg(&rules)
            .args(["--stats", "-j", jobs, "--quiet"])
            .arg(&corpus)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        let mut lines: Vec<String> = err
            .lines()
            .filter_map(|l| {
                let l = l.trim_start();
                if l.starts_with("phase ") || l.starts_with("rule ") {
                    l.split(" ms=").next().map(str::to_string)
                } else if l.starts_with("counter ") {
                    Some(l.to_string())
                } else {
                    None
                }
            })
            .collect();
        lines.sort();
        lines
    };
    let base = run("1");
    assert!(base.iter().any(|l| l == "phase parse: spans=2"), "{base:?}");
    assert_eq!(run("2"), base, "-j 2 drifted");
    assert_eq!(run("4"), base, "-j 4 drifted");
}

#[test]
fn stats_print_the_allocator_counters() {
    let dir = tmpdir("stats-alloc");
    let rules = write_rules_dir(&dir);
    let tree = write_scan_tree(&dir);
    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .args(["--stats", "-j", "2", "--quiet"])
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(!out.stdout.is_empty(), "the scan has findings");
    let err = String::from_utf8(out.stderr).unwrap();
    let lines: Vec<&str> = err.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("  alloc: "))
        .unwrap_or_else(|| panic!("no alloc line: {err}"));
    assert!(lines[at - 1].starts_with("  pool: "), "{err}");
    // `  alloc: chunks=N (M MiB) remote_frees=R`
    let field = |key: &str| -> u64 {
        let rest = lines[at]
            .split(key)
            .nth(1)
            .unwrap_or_else(|| panic!("{err}"));
        rest.split(' ').next().unwrap().parse().unwrap()
    };
    let chunks = field("chunks=");
    assert!(chunks >= 1, "{err}");
    let mib = format!("({:.1} MiB)", chunks as f64 / 16.0);
    assert!(lines[at].contains(&mib), "{err}");
    // The workers' outcomes are freed on the thread that sinks them.
    assert!(field("remote_frees=") >= 1, "{err}");
}

#[test]
fn each_rewritten_text_parses_once() {
    use cocci_workloads::gen::{cuda_codebase, CodebaseSpec};
    use cocci_workloads::patches::UC78_CUDA_HIP_FULL;
    let dir = tmpdir("parse-once");
    let patch = dir.join("hip.cocci");
    fs::write(&patch, UC78_CUDA_HIP_FULL).unwrap();
    let spec = CodebaseSpec {
        files: 1,
        functions_per_file: 6,
        seed: 7,
    };
    let file = cuda_codebase(&spec).remove(0);
    for site in ["__half h;", "curand_uniform_double(", "<<<"] {
        assert!(file.text.contains(site), "{site} missing:\n{}", file.text);
    }
    let path = dir.join(&file.name);
    fs::write(&path, &file.text).unwrap();
    let out = spatch()
        .arg("--sp-file")
        .arg(&patch)
        .args(["--stats", "-j", "1", "--quiet"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    // The original text (cfe, hfe), the text `hfe` rewrote (cte, hte),
    // and the text `hte` rewrote (chevron): one parse each.
    assert!(
        err.lines()
            .any(|l| l.trim_start() == "counter files_parsed: 3"),
        "{err}"
    );
}

/// `r1` rewrites `old_begin` to `probe_begin`; the flow rules after it,
/// a report (`r2`) and a rewrite (`r3`), match only the rewritten text.
const REWRITE_THEN_FLOW_PATCH: &str =
    "@r1@\nexpression b;\n@@\n- old_begin(b);\n+ probe_begin(b);\n\n\
     @r2@\nexpression b;\nposition p;\n@@\nprobe_begin(b)@p;\n...\nprobe_end(b);\n\n\
     @r3@\nexpression b;\n@@\nprobe_begin(b);\n...\n- probe_end(b);\n+ probe_exit(b);\n";

const REWRITE_THEN_FLOW_SRC: &str = "void one(int x) {\n    old_begin(x);\n    work(x);\n    \
     probe_end(x);\n}\n\nvoid two(int y, int c) {\n    old_begin(y);\n    if (c) {\n        \
     probe_end(y);\n    } else {\n        probe_end(y);\n    }\n}\n";

/// `json` with the value after every `"key": ` of `keys` replaced by 0.
fn zero_values(json: &str, keys: &[&str]) -> String {
    let mut out = json.to_string();
    for key in keys {
        let needle = format!("\"{key}\": ");
        let mut from = 0;
        while let Some(at) = out[from..].find(&needle) {
            let start = from + at + needle.len();
            let len = out[start..].find([',', '}', '\n']).unwrap();
            out.replace_range(start..start + len, "0");
            from = start;
        }
    }
    out
}

#[test]
fn flow_rules_after_a_rewrite_match_the_rewritten_text() {
    let dir = tmpdir("rewrite-then-flow");
    fs::write(dir.join("probe.cocci"), REWRITE_THEN_FLOW_PATCH).unwrap();
    fs::create_dir_all(dir.join("tree")).unwrap();
    fs::write(dir.join("tree/probe.c"), REWRITE_THEN_FLOW_SRC).unwrap();
    let diff = "--- a/tree/probe.c\n+++ b/tree/probe.c\n@@ -1,14 +1,14 @@\n \
         void one(int x) {\n-    old_begin(x);\n+    probe_begin(x);\n     work(x);\n-    \
         probe_end(x);\n+    probe_exit(x);\n }\n \n void two(int y, int c) {\n-    \
         old_begin(y);\n+    probe_begin(y);\n     if (c) {\n-        probe_end(y);\n+        \
         probe_exit(y);\n     } else {\n-        probe_end(y);\n+        probe_exit(y);\n     }\n }\n";
    let report = "{\n  \"patch\": \"probe.cocci\",\n  \"patch_hash\": \"8a5a8865ec18007e\",\n  \
         \"threads\": 0,\n  \"prefilter\": true,\n  \"resumed\": 0,\n  \"total_seconds\": 0,\n  \
         \"counts\": {\"pruned\": 0, \"unmatched\": 0, \"matched\": 0, \"changed\": 1, \"timeout\": 0, \
         \"error\": 0},\n  \"files\": [\n    {\"name\": \"tree/probe.c\", \"status\": \"changed\", \
         \"matches\": 6, \"witnesses\": 4, \"seconds\": 0, \"hash\": \"8737d7810fa36462\", \
         \"kill_stage\": \"completed\", \"findings\": [{\"path\": \"tree/probe.c\", \"line\": 2, \
         \"col\": 5, \"end_line\": 2, \"end_col\": 19, \"rule\": \"r2\", \"message\": \"matched\", \
         \"bindings\": [[\"b\", \"x\"]]}, {\"path\": \"tree/probe.c\", \"line\": 8, \"col\": 5, \
         \"end_line\": 8, \"end_col\": 19, \"rule\": \"r2\", \"message\": \"matched\", \
         \"bindings\": [[\"b\", \"y\"]]}]}\n  ]\n}\n";
    for jobs in ["1", "4"] {
        let out = spatch()
            .current_dir(&dir)
            .args([
                "--sp-file",
                "probe.cocci",
                "-j",
                jobs,
                "--report",
                "r.json",
                "tree",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        assert_eq!(String::from_utf8(out.stdout).unwrap(), diff, "-j {jobs}");
        let json = fs::read_to_string(dir.join("r.json")).unwrap();
        let json = zero_values(&json, &["threads", "total_seconds", "seconds"]);
        assert_eq!(json, report, "-j {jobs}");
    }
    // Both flow rules run on the one rewritten text, whose two functions
    // build their CFGs once.
    let out = spatch()
        .current_dir(&dir)
        .args([
            "--sp-file",
            "probe.cocci",
            "--stats",
            "-j",
            "1",
            "--quiet",
            "tree",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.lines()
            .any(|l| l.trim_start().split(" ms=").next() == Some("phase cfg_build: spans=2")),
        "{err}"
    );
}

// ---------------------------------------------------------------------------
// `spatch lint` and the load-time rule lint in scan/apply.

/// SPL03 deny: the `=~` regex requires a `-`, which no identifier has.
/// Compiles fine, so `--no-lint` bypass runs still succeed (matching
/// nothing).
const UNSATISFIABLE_PATCH: &str = "@r@\nidentifier f =~ \"foo-bar\";\n@@\n- f();\n";

/// SPL01 warn only: `dead` is declared and never referenced.
const UNUSED_MV_PATCH: &str =
    "@r@\nexpression e;\nidentifier dead;\n@@\n- old_api(e);\n+ new_api(e);\n";

#[test]
fn lint_clean_patch_exits_zero() {
    let dir = tmpdir("lint-clean");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let out = spatch().arg("lint").arg(&patch).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("0 deny, 0 warn"), "{err}");
}

#[test]
fn lint_deny_finding_exits_one() {
    let dir = tmpdir("lint-deny");
    let patch = dir.join("p.cocci");
    fs::write(&patch, UNSATISFIABLE_PATCH).unwrap();
    let out = spatch().arg("lint").arg(&patch).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Grep-style text: `path:line:col: SPL03: message`.
    assert!(stdout.contains("p.cocci:1:1: SPL03:"), "{stdout}");
    assert!(stdout.contains("can never match"), "{stdout}");
}

#[test]
fn lint_warnings_alone_exit_zero() {
    let dir = tmpdir("lint-warn");
    let patch = dir.join("p.cocci");
    fs::write(&patch, UNUSED_MV_PATCH).unwrap();
    let out = spatch().arg("lint").arg(&patch).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("SPL01"), "{stdout}");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("0 deny, 1 warn"));
}

#[test]
fn lint_level_overrides_change_exit_codes() {
    let dir = tmpdir("lint-levels");
    let patch = dir.join("p.cocci");
    fs::write(&patch, UNSATISFIABLE_PATCH).unwrap();
    // --allow SPL03 drops the diagnostic entirely.
    let out = spatch()
        .args(["lint", "--allow", "SPL03"])
        .arg(&patch)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    // --warn SPL03 keeps it visible but passing.
    let out = spatch()
        .args(["lint", "--warn", "SPL03"])
        .arg(&patch)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8(out.stdout).unwrap().contains("SPL03"));
    // --deny on a warn-class lint fails the run.
    let unused = dir.join("u.cocci");
    fs::write(&unused, UNUSED_MV_PATCH).unwrap();
    let out = spatch()
        .args(["lint", "--deny", "unused-metavar"])
        .arg(&unused)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // Unknown lint id is a usage error.
    let out = spatch()
        .args(["lint", "--deny", "SPL99"])
        .arg(&unused)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown lint"));
}

#[test]
fn lint_json_format_embeds_lints_block() {
    let dir = tmpdir("lint-json");
    let patch = dir.join("p.cocci");
    fs::write(&patch, UNSATISFIABLE_PATCH).unwrap();
    let out = spatch()
        .args(["lint", "--format", "json", "--quiet"])
        .arg(&patch)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"lints\": ["), "{stdout}");
    assert!(stdout.contains("\"rule\": \"SPL03\""), "{stdout}");
    // A lint run never walks the corpus: no per-file entries.
    assert!(stdout.contains("\"files\": ["), "{stdout}");
    assert!(!stdout.contains("\"findings\""), "{stdout}");
}

#[test]
fn lint_sarif_format_has_required_keys() {
    let dir = tmpdir("lint-sarif");
    let patch = dir.join("p.cocci");
    fs::write(&patch, UNSATISFIABLE_PATCH).unwrap();
    let out = spatch()
        .args(["lint", "--format", "sarif", "--quiet"])
        .arg(&patch)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"results\""), "{stdout}");
    assert!(stdout.contains("\"ruleId\": \"SPL03\""), "{stdout}");
    // The tool section lists the lint classes with their levels.
    assert!(stdout.contains("\"id\": \"SPL03\""), "{stdout}");
    assert!(stdout.contains("\"level\": \"error\""), "{stdout}");
}

#[test]
fn lint_and_scan_accept_the_same_rules_directory() {
    let dir = tmpdir("lint-scan-dir");
    let rules = write_rules_dir(&dir);
    // A directory named like a rule file is not a rule file.
    fs::create_dir_all(rules.join("sub.cocci")).unwrap();
    // A warn-level lint whose rule header sits on line 3.
    fs::write(
        rules.join("unused.cocci"),
        "// spatch-rule: unused-var\n\n@unusedvar@\nexpression e, x;\nposition p;\n@@\ndelta(e)@p;\n",
    )
    .unwrap();
    let corpus = write_scan_tree(&dir);
    let lint = spatch().arg("lint").arg(&rules).output().unwrap();
    assert_eq!(lint.status.code(), Some(0), "{lint:?}");
    let stdout = String::from_utf8(lint.stdout).unwrap();
    let at = stdout
        .lines()
        .find_map(|l| l.split_once(": SPL01:"))
        .map(|(at, _)| at.to_string())
        .unwrap_or_else(|| panic!("no SPL01 in {stdout}"));
    assert!(at.ends_with("unused.cocci:3:1"), "{at}");
    let scan = spatch()
        .args(["scan", "--rules"])
        .arg(&rules)
        .arg(&corpus)
        .output()
        .unwrap();
    assert_eq!(scan.status.code(), Some(0), "{scan:?}");
    let stderr = String::from_utf8(scan.stderr).unwrap();
    assert!(stderr.contains(&format!("{at}: SPL01:")), "{stderr}");
}

#[test]
fn lint_directory_flags_duplicate_rules() {
    let dir = tmpdir("lint-dir");
    let rules = dir.join("rules");
    fs::create_dir_all(&rules).unwrap();
    fs::write(rules.join("first.cocci"), RENAME_PATCH).unwrap();
    // Same pattern, different indentation — still the same normalized rule.
    fs::write(
        rules.join("second.cocci"),
        "@@\nexpression e;\n@@\n-   old_api(e);\n+   new_api(e);\n",
    )
    .unwrap();
    let out = spatch().arg("lint").arg(&rules).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("SPL08"), "{stdout}");
    assert!(stdout.contains("duplicates rule `first`"), "{stdout}");
    // Promoted to deny, the duplicate fails the lint run.
    let out = spatch()
        .args(["lint", "--deny", "SPL08"])
        .arg(&rules)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn lint_load_errors_exit_two() {
    let dir = tmpdir("lint-load-err");
    // Unparseable rule file.
    let broken = dir.join("broken.cocci");
    fs::write(&broken, "@@\nnot a decl\n").unwrap();
    let out = spatch().arg("lint").arg(&broken).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Bad `spatch-severity:` header names the offending file.
    let sev = dir.join("sev.cocci");
    fs::write(
        &sev,
        "// spatch-severity: critical\n@@\nexpression e;\n@@\n- old_api(e);\n+ new_api(e);\n",
    )
    .unwrap();
    let out = spatch().arg("lint").arg(&sev).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("sev.cocci"), "{err}");
    assert!(err.contains("bad spatch-severity `critical`"), "{err}");
}

#[test]
fn scan_refuses_deny_lints_before_walk_unless_no_lint() {
    let dir = tmpdir("scan-lint-refuse");
    let rules = dir.join("rules");
    let corpus = dir.join("src");
    fs::create_dir_all(&rules).unwrap();
    fs::create_dir_all(&corpus).unwrap();
    fs::write(rules.join("bad.cocci"), UNSATISFIABLE_PATCH).unwrap();
    fs::write(corpus.join("a.c"), "void f(void) { g(); }\n").unwrap();

    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .arg(&corpus)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("SPL03"), "{err}");
    assert!(err.contains("--no-lint"), "{err}");

    // The escape hatch: same rules, lint skipped, scan completes.
    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .arg("--no-lint")
        .arg(&corpus)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn apply_refuses_deny_lints_and_reports_warn_lints() {
    let dir = tmpdir("apply-lint");
    let bad = dir.join("bad.cocci");
    let file = dir.join("t.c");
    fs::write(&bad, UNSATISFIABLE_PATCH).unwrap();
    fs::write(&file, "void f(void) { old_api(1); }\n").unwrap();

    let out = spatch()
        .args(["--sp-file"])
        .arg(&bad)
        .arg(&file)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("SPL03"), "{err}");
    assert!(err.contains("--no-lint"), "{err}");

    let out = spatch()
        .args(["--sp-file"])
        .arg(&bad)
        .arg("--no-lint")
        .arg(&file)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Warn-level lints do not block the run and land in the JSON
    // report's `lints` block.
    let warn = dir.join("warn.cocci");
    let report = dir.join("report.json");
    fs::write(&warn, UNUSED_MV_PATCH).unwrap();
    let out = spatch()
        .args(["--sp-file"])
        .arg(&warn)
        .args(["--report"])
        .arg(&report)
        .arg(&file)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8(out.stderr).unwrap().contains("SPL01"));
    let json = fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"lints\": ["), "{json}");
    assert!(json.contains("\"rule\": \"SPL01\""), "{json}");
    // The rewrite itself still happened (diff on stdout).
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("new_api(1)"));
}

// ---------------------------------------------------------------------------
// The explain engine: --explain annotations, kill stages, and the funnel.

/// Parse `spatch: explain: <path>: <rule> [<stage>]...` stderr lines
/// into a sorted `(file-basename, rule, stage)` set.
fn explain_lines(stderr: &str) -> Vec<(String, String, String)> {
    let mut out: Vec<(String, String, String)> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("spatch: explain: "))
        .map(|l| {
            let (path, rest) = l.split_once(": ").unwrap();
            let (rule, rest) = rest.split_once(" [").unwrap();
            let stage = rest.split(']').next().unwrap();
            (
                path.rsplit('/').next().unwrap().to_string(),
                rule.to_string(),
                stage.to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Parse the `funnel:` rows out of `--stats` stderr.
fn stats_funnel(stderr: &str) -> Vec<(String, u64)> {
    stderr
        .lines()
        .skip_while(|l| l.trim() != "funnel:")
        .skip(1)
        .take_while(|l| l.starts_with("    ") && !l.trim_start().starts_with("rule "))
        .map(|l| {
            let (k, v) = l.trim().split_once(": ").unwrap();
            (k.to_string(), v.parse().unwrap())
        })
        .collect()
}

#[test]
fn explain_apply_stages_agree_with_report_across_jobs() {
    use cocci_core::explain::KillStage;
    use cocci_core::ApplyReport;

    let dir = tmpdir("explain-apply");
    let patch = dir.join("p.cocci");
    fs::write(&patch, RENAME_PATCH).unwrap();
    let tree = dir.join("tree");
    fs::create_dir_all(&tree).unwrap();
    fs::write(tree.join("hit.c"), "void f(void) {\n    old_api(1);\n}\n").unwrap();
    // The atom appears (so the file parses) but nothing anchors.
    fs::write(
        tree.join("anchor.c"),
        "void a(void) {\n    int old_api = 3;\n}\n",
    )
    .unwrap();
    fs::write(tree.join("none.c"), "void h(void) {\n    keep(2);\n}\n").unwrap();

    let run = |jobs: &str, report: &std::path::Path| -> Vec<(String, String, String)> {
        let out = spatch()
            .args(["--sp-file"])
            .arg(&patch)
            .args(["--explain", "-j", jobs, "--report"])
            .arg(report)
            .arg(&tree)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        explain_lines(&String::from_utf8(out.stderr).unwrap())
    };

    let r1 = dir.join("r1.json");
    let r4 = dir.join("r4.json");
    let lines = run("1", &r1);
    assert_eq!(run("4", &r4), lines, "-j 4 drifted from -j 1");

    let by_file = |file: &str| -> &str {
        &lines
            .iter()
            .find(|(f, _, _)| f == file)
            .unwrap_or_else(|| panic!("no explain line for {file}: {lines:?}"))
            .2
    };
    assert_eq!(by_file("hit.c"), "completed");
    assert_eq!(by_file("anchor.c"), "anchor");
    assert_eq!(by_file("none.c"), "prefilter");

    // The report tells the same story on every surface: per-file
    // kill_stage rows and the embedded explain block.
    for path in [&r1, &r4] {
        let report = ApplyReport::from_json(&fs::read_to_string(path).unwrap()).unwrap();
        for (file, stage) in [
            ("hit.c", KillStage::Completed),
            ("anchor.c", KillStage::Anchor),
            ("none.c", KillStage::Prefilter),
        ] {
            let f = report
                .files
                .iter()
                .find(|f| f.name.ends_with(file))
                .unwrap();
            assert_eq!(f.kill_stage, Some(stage), "{file}");
        }
        let block = report.explain.as_ref().expect("--explain embeds the block");
        assert_eq!(block.dropped, 0);
        let mut from_block: Vec<(String, String, String)> = block
            .attempts
            .iter()
            .map(|a| {
                (
                    a.file.rsplit('/').next().unwrap().to_string(),
                    a.rule.clone(),
                    a.stage.name().to_string(),
                )
            })
            .collect();
        from_block.sort();
        assert_eq!(from_block, lines, "explain block vs stderr annotations");
    }
}

#[test]
fn explain_scan_funnel_reconciles_exactly_with_report() {
    use cocci_core::explain::KillStage;
    use cocci_core::ApplyReport;

    let dir = tmpdir("explain-scan");
    let rules = write_rules_dir(&dir);
    let tree = write_scan_tree(&dir);
    let report_path = dir.join("scan.json");

    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .args(["--explain", "--stats", "-j", "4", "--report"])
        .arg(&report_path)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let report = ApplyReport::from_json(&fs::read_to_string(&report_path).unwrap()).unwrap();
    let block = report.explain.as_ref().expect("explain block present");
    assert_eq!(block.dropped, 0);

    // Fixture shape: a.c runs both rules to completion, b.c completes
    // use-beta and prunes no-gamma, c.c prunes both.
    let stage_count = |stage: KillStage| block.attempts.iter().filter(|a| a.stage == stage).count();
    assert_eq!(block.attempts.len(), 6, "{block:?}");
    assert_eq!(stage_count(KillStage::Completed), 3);
    assert_eq!(stage_count(KillStage::Prefilter), 3);

    // The --stats funnel must equal the one derived from the report's
    // own attempts — exactly, no tolerance.
    let funnel = stats_funnel(&stderr);
    let killed_through = |through: KillStage| {
        block
            .attempts
            .iter()
            .filter(|a| a.stage <= through && a.stage != KillStage::Completed)
            .count() as u64
    };
    let attempts = block.attempts.len() as u64;
    let expected: Vec<(String, u64)> = [
        ("attempts", attempts),
        (
            "survived_prefilter",
            attempts - killed_through(KillStage::Prefilter),
        ),
        ("parsed", attempts - killed_through(KillStage::Parse)),
        ("anchored", attempts - killed_through(KillStage::Anchor)),
        ("gaps_clean", attempts - killed_through(KillStage::GapWalk)),
        (
            "bindings_consistent",
            attempts - killed_through(KillStage::Bindings),
        ),
        ("completed", attempts - killed_through(KillStage::Timeout)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    assert_eq!(funnel, expected, "--stats funnel vs report explain block");

    // Per-rule kill_stage rows agree with the block's attribution.
    for f in &report.files {
        for r in &f.rules {
            let a = block
                .attempts
                .iter()
                .find(|a| a.file == f.name && a.rule == r.id && a.stage != KillStage::Prefilter)
                .unwrap_or_else(|| panic!("{}: no attempt for {}", f.name, r.id));
            assert_eq!(r.kill_stage, Some(a.stage), "{}: {}", f.name, r.id);
        }
    }
}

#[test]
fn explain_resume_carries_kill_stages_without_new_attempts() {
    use cocci_core::ApplyReport;

    let dir = tmpdir("explain-resume");
    let rules = write_rules_dir(&dir);
    let tree = write_scan_tree(&dir);
    let r1 = dir.join("r1.json");
    let r2 = dir.join("r2.json");

    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .args(["--explain", "--quiet", "-j", "1", "--report"])
        .arg(&r1)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // Nothing changed: every file resumes; kill stages are copied from
    // the previous report, and no fresh attempt is recorded.
    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .args(["--explain", "--stats", "--quiet", "-j", "4", "--resume"])
        .arg(&r1)
        .args(["--report"])
        .arg(&r2)
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();

    let first = ApplyReport::from_json(&fs::read_to_string(&r1).unwrap()).unwrap();
    let second = ApplyReport::from_json(&fs::read_to_string(&r2).unwrap()).unwrap();
    assert_eq!(second.resumed, 3);
    for f in &first.files {
        let carried = second.files.iter().find(|s| s.name == f.name).unwrap();
        assert!(f.kill_stage.is_some(), "{}", f.name);
        assert_eq!(carried.kill_stage, f.kill_stage, "{}", f.name);
    }
    let funnel = stats_funnel(&stderr);
    assert_eq!(
        funnel.first().map(|(k, v)| (k.as_str(), *v)),
        Some(("attempts", 0)),
        "resumed files bump no funnel counters: {funnel:?}"
    );
    assert_eq!(
        second.explain.as_ref().map(|b| b.attempts.len()),
        Some(0),
        "no fresh attempt traced"
    );
}

#[test]
fn explain_filter_narrows_annotations_to_file_and_rule() {
    let dir = tmpdir("explain-filter");
    let rules = write_rules_dir(&dir);
    let tree = write_scan_tree(&dir);

    let out = spatch()
        .arg("scan")
        .arg("--rules")
        .arg(&rules)
        .arg("--explain=b.c:use-beta")
        .arg(&tree)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let lines = explain_lines(&String::from_utf8(out.stderr).unwrap());
    assert_eq!(
        lines,
        vec![(
            "b.c".to_string(),
            "use-beta".to_string(),
            "completed".to_string()
        )],
        "only the filtered (file, rule) attempt is annotated"
    );
}

#[test]
fn failed_output_write_is_an_error_row() {
    let dir = tmpdir("write-fail");
    fs::write(dir.join("q.cocci"), "@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
    fs::write(dir.join("u.c"), "void f(void) {\n    old_api(1);\n}\n").unwrap();
    let out = spatch()
        .current_dir(&dir)
        .args(["--sp-file", "q.cocci", "-o", "no-such-dir/out.c"])
        .args(["--report", "r.json", "u.c"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let message = "cannot write no-such-dir/out.c: ";
    assert!(
        stderr.contains(&format!("spatch: u.c: {message}")),
        "{stderr}"
    );
    let text = fs::read_to_string(dir.join("r.json")).unwrap();
    assert!(
        text.contains(
            r#""counts": {"pruned": 0, "unmatched": 0, "matched": 0, "changed": 0, "timeout": 0, "error": 1}"#
        ),
        "{text}"
    );
    let report = cocci_core::ApplyReport::from_json(&text).unwrap();
    let row = &report.files[0];
    assert_eq!(row.status, cocci_core::FileStatus::Error);
    assert!(
        row.error.as_deref().unwrap().starts_with(message),
        "{:?}",
        row.error
    );
}

#[test]
fn unreadable_and_resumed_files_keep_their_walk_order_place() {
    use cocci_core::{to_sarif_with, ApplyReport, CompiledRuleSet};

    let dir = tmpdir("walk-order");
    let rules = write_rules_dir(&dir);
    let tree = dir.join("tree");
    fs::create_dir_all(&tree).unwrap();
    fs::write(tree.join("a.c"), "void f(void) {\n    alpha(1);\n}\n").unwrap();
    // Not UTF-8: the walker cannot read it.
    fs::write(tree.join("b.c"), b"void g(void) {\n    alpha(\xff);\n}\n").unwrap();
    fs::write(tree.join("c.c"), "void h(void) {\n    gamma(3);\n}\n").unwrap();
    fs::write(tree.join("d.c"), "void k(void) {\n    alpha(4);\n}\n").unwrap();
    let scan = |extra: &[&str]| {
        let out = spatch()
            .current_dir(&dir)
            .args(["scan", "--rules", "rules", "--quiet"])
            .args(extra)
            .arg("tree")
            .output()
            .unwrap();
        // The unreadable file is a failure.
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    scan(&["--report", "first.json"]);
    // `c.c` is unchanged and resumes; `a.c` and `d.c` run again.
    for name in ["a.c", "d.c"] {
        let text = fs::read_to_string(tree.join(name)).unwrap();
        fs::write(
            tree.join(name),
            format!("{text}void gamma_user(void) {{ gamma(9); }}\n"),
        )
        .unwrap();
    }
    // The `-j 1` output, equal to the `-j 4` one but for timings and the
    // thread count.
    let run = |format: &str| {
        let outputs: Vec<String> = ["1", "4"]
            .iter()
            .map(|jobs| scan(&["--resume", "first.json", "--format", format, "-j", jobs]))
            .collect();
        let [one, four] = [&outputs[0], &outputs[1]]
            .map(|out| zero_values(out, &["seconds", "total_seconds", "threads"]));
        assert_eq!(one, four, "--format {format}: -j 1 vs -j 4");
        outputs[0].clone()
    };
    let (text, json, sarif) = (run("text"), run("json"), run("sarif"));

    let report = ApplyReport::from_json(&json).unwrap();
    let names: Vec<&str> = report.files.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["tree/a.c", "tree/b.c", "tree/c.c", "tree/d.c"]);
    assert_eq!(report.resumed, 1);
    assert_eq!(report.files[1].status, cocci_core::FileStatus::Error);
    // Each output is the one the report's own writers give, in row order.
    assert_eq!(report.to_json(), json);
    let lines: String = report
        .files
        .iter()
        .flat_map(|f| &f.findings)
        .map(|fd| format!("{}\n", fd.text_line()))
        .collect();
    assert_eq!(lines, text);
    let files: Vec<&str> = text.lines().map(|l| l.split(':').next().unwrap()).collect();
    assert_eq!(
        files,
        ["tree/a.c", "tree/a.c", "tree/c.c", "tree/d.c", "tree/d.c"]
    );
    let set = CompiledRuleSet::load_dir(&rules).unwrap();
    assert_eq!(to_sarif_with(&report, &set.sarif_rules()), sarif);
}

#[cfg(target_os = "linux")]
#[test]
fn lint_output_to_a_full_device_is_an_error_not_a_panic() {
    let dir = tmpdir("lint-full");
    let patch = dir.join("p.cocci");
    fs::write(&patch, UNUSED_MV_PATCH).unwrap();
    for format in ["text", "sarif", "json"] {
        let full = fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        let out = spatch()
            .args(["lint", "--format", format])
            .arg(&patch)
            .stdout(full)
            .output()
            .unwrap();
        // The warning alone exits 0; the lost output makes it 1.
        assert_eq!(out.status.code(), Some(1), "--format {format}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("spatch: cannot write to stdout: "),
            "--format {format}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--format {format}: {stderr}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn diff_output_to_a_full_device_is_an_error_not_a_panic() {
    let dir = tmpdir("diff-full");
    fs::write(dir.join("q.cocci"), "@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
    for name in ["t.c", "u.c"] {
        fs::write(dir.join(name), "void f(void) {\n    old_api(1);\n}\n").unwrap();
    }
    for report in [&[][..], &["--report", "r.json"][..]] {
        let full = fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        let out = spatch()
            .current_dir(&dir)
            .args(["--sp-file", "q.cocci", "-j", "1"])
            .args(report)
            .args(["t.c", "u.c"])
            .stdout(full)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{report:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(!stderr.contains("panicked"), "{report:?}: {stderr}");
        // The first failed write is the run's one failure; the second
        // file's diff is not attempted.
        assert_eq!(
            stderr.matches("spatch: cannot write to stdout: ").count(),
            1,
            "{report:?}: {stderr}"
        );
        assert!(
            stderr.contains("2/2 file(s) transformed, 1 failure(s)"),
            "{report:?}: {stderr}"
        );
    }
    // The report is still written.
    let text = fs::read_to_string(dir.join("r.json")).unwrap();
    let report = cocci_core::ApplyReport::from_json(&text).unwrap();
    assert_eq!(report.files.len(), 2);
    assert!(report
        .files
        .iter()
        .all(|f| f.status == cocci_core::FileStatus::Changed));
}

/// Run `spatch <mode> --report first.json tree`, then edit the tree:
/// append to two files, make one non-UTF-8, delete one. A `--resume`
/// run of the edited tree must print what a fresh run prints: text and
/// SARIF byte for byte, JSON once timings and the resumed count are
/// zeroed, at `-j 1` and `-j 4`.
fn assert_resume_equals_a_fresh_run(tag: &str, mode: &[&str]) {
    let dir = tmpdir(tag);
    write_rules_dir(&dir);
    fs::write(
        dir.join("report.cocci"),
        "@r@\nexpression e;\nposition p;\n@@\nalpha(e)@p;\n",
    )
    .unwrap();
    let tree = write_scan_tree(&dir);
    fs::create_dir_all(tree.join("sub")).unwrap();
    for (name, text) in [
        ("d.c", "void d(void) {\n    alpha(4);\n    gamma(4);\n}\n"),
        ("sub/e.c", "void e(void) {\n    alpha(5);\n}\n"),
        ("sub/f.c", "void f(void) {\n    gamma(6);\n}\n"),
        ("sub/g.c", "void g(void) {\n    other(7);\n}\n"),
        ("sub/bad.c", "void broken( {\n    alpha(8);\n"),
    ] {
        fs::write(tree.join(name), text).unwrap();
    }
    let run = |extra: &[&str]| {
        let out = spatch()
            .current_dir(&dir)
            .args(mode)
            .args(["--quiet"])
            .args(extra)
            .arg("tree")
            .output()
            .unwrap();
        // `sub/bad.c` fails to parse, and later `c.c` cannot be read.
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    run(&["--report", "first.json"]);
    for name in ["a.c", "sub/f.c"] {
        let text = fs::read_to_string(tree.join(name)).unwrap();
        fs::write(
            tree.join(name),
            format!("{text}void more(void) {{\n    alpha(9);\n    gamma(9);\n}}\n"),
        )
        .unwrap();
    }
    fs::write(tree.join("c.c"), b"void h(void) {\n    alpha(\xff);\n}\n").unwrap();
    fs::remove_file(tree.join("sub/e.c")).unwrap();
    for jobs in ["1", "4"] {
        for format in ["text", "json", "sarif"] {
            let args = ["--format", format, "-j", jobs];
            let fresh = run(&args);
            let resumed = run(&[&args[..], &["--resume", "first.json"]].concat());
            if format == "json" {
                let keys = ["seconds", "total_seconds", "resumed"];
                assert!(resumed.contains("\"resumed\": 3,"), "{resumed}");
                assert_eq!(
                    zero_values(&resumed, &keys),
                    zero_values(&fresh, &keys),
                    "{tag}: --format json -j {jobs}"
                );
            } else {
                assert_eq!(resumed, fresh, "{tag}: --format {format} -j {jobs}");
            }
            assert!(fresh.contains("tree/a.c"), "{tag}: {fresh}");
        }
    }
}

#[test]
fn scan_resume_equals_a_fresh_run() {
    assert_resume_equals_a_fresh_run("resume-fresh-scan", &["scan", "--rules", "rules"]);
}

#[test]
fn report_resume_equals_a_fresh_run() {
    assert_resume_equals_a_fresh_run(
        "resume-fresh-report",
        &["--sp-file", "report.cocci", "--mode", "report"],
    );
}
