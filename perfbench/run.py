#!/usr/bin/env python3
"""spatch throughput benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds the release `spatch` binary
and the `perfbench-gen` helper from source (into $CARGO_TARGET_DIR,
default `.bench_build`), generates the workload from the seed under
`.bench_work/`, and then:

* measures `setup_s`: the median wall time of repeated `spatch` runs
  with the workload's rules over an empty tree (load, compile, lint);
* repeats the workload's `spatch` command as a child process for
  `--seconds`, timing each run from outside (wall clock, user+sys CPU
  and peak RSS from wait4), and checks every run against an oracle
  that does not come from the engine plus a determinism digest;
* with `--trace 1`, also builds `perfbench-replay`, replays the inputs
  in-process through each layer and reconciles its counts with the
  child's `--report`.

The last stdout line is one JSON object: `correct`, `attempted` and
`failed` (files, summed over the timed runs) and `metrics` (the
end-to-end metrics, or with `--trace 1` the per-layer ones). The line
before it records the seed, input digest and output digest. See
perfbench/README.md for the metric glossary.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan_rules50", "apply_hip", "apply_dense")
# Every timed run finishes the run it started; at least this many run,
# so the determinism digest always has two outputs to compare.
MIN_RUNS = 3
SETUP_RUNS = 21
CHILD_TIMEOUT_S = 150
# Oracle needles for the apply workloads: each original site in the
# input must turn into exactly one replacement on the diff's `+` lines.
REPLACEMENTS = {
    "chevron": ("<<<", "hipLaunchKernelGGL("),
    "curand": ("curand_uniform_double(", "rocrand_uniform_double("),
    "half": ("__half ", "rocblas_half "),
    "old_api": ("old_api(", "new_api("),
}
TIMING_FIELD = re.compile(rb'"(seconds|total_seconds)": [-+0-9.eE]+')
PER_LAYER = (
    "corpus.walk_s", "corpus.files", "corpus.bytes",
    "compile.load_s", "lint.lint_s",
    "prefilter.sieve_s", "prefilter.survival_ratio", "prefilter.files_pruned_frac",
    "cast.lex_s", "cast.tokens_per_s",
    "cast.parse_s", "cast.parse_mb_per_s", "cast.allocs_per_file",
    "flow.cfg_s", "flow.cfgs_built",
    "core.orchestrate_s", "core.us_per_match", "core.matches", "core.edits",
    "core.findings", "core.match_yield",
    "core.report_s", "core.report_bytes",
    "pool.cpu_util", "replay.unattributed_frac",
)
UNITS = {
    "mb_per_s": "MB/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "corpus.walk_s": "s", "corpus.files": "count", "corpus.bytes": "bytes",
    "compile.load_s": "s", "lint.lint_s": "s",
    "prefilter.sieve_s": "s", "prefilter.survival_ratio": "ratio",
    "prefilter.files_pruned_frac": "ratio",
    "cast.lex_s": "s", "cast.tokens_per_s": "1/s",
    "cast.parse_s": "s", "cast.parse_mb_per_s": "MB/s", "cast.allocs_per_file": "count",
    "flow.cfg_s": "s", "flow.cfgs_built": "count",
    "core.orchestrate_s": "s", "core.us_per_match": "us", "core.matches": "count",
    "core.edits": "count", "core.findings": "count", "core.match_yield": "ratio",
    "core.report_s": "s", "core.report_bytes": "bytes",
    "pool.cpu_util": "ratio", "replay.unattributed_frac": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, packages):
    """Build spatch plus the named benchmark packages (directories
    under perfbench/); return the release binary directory."""
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cargo = ["cargo", "build", "--release", "--offline", "-q"]
    builds = [cargo + ["-p", "spatch"]] + [
        cargo + ["--manifest-path", os.path.join(BENCH_DIR, p, "Cargo.toml")] for p in packages]
    for args in builds:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(args, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(args)}")
    return os.path.join(target, "release")


def threads():
    """`-j` for the parallel workloads: every core this process may use."""
    return len(os.sched_getaffinity(0))


def spatch_args(spatch, workload, target, report):
    if workload == "scan_rules50":
        return [spatch, "scan", "--rules", "rules", "--format", "sarif",
                "--report", report, "-j", str(threads()), target]
    jobs = 1 if workload == "apply_dense" else threads()
    return [spatch, "--sp-file", "patch.cocci", "--report", report, "-j", str(jobs), target]


def run_child(args, cwd, out_path, err_path):
    """Run one child to completion; time it from outside."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so it never waits on the pid.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def generate(bin_dir, workload, seed, scale, work):
    out = subprocess.run(
        [os.path.join(bin_dir, "perfbench-gen"), "--workload", workload, "--seed", str(seed),
         "--scale", str(scale), "--out", work],
        stdout=subprocess.PIPE, check=False)
    if out.returncode != 0:
        raise BenchError("workload generation failed")
    manifest = json.loads(out.stdout)
    os.makedirs(os.path.join(work, "empty"), exist_ok=True)
    return manifest


def load_expected(work):
    with open(os.path.join(work, "expected.tsv")) as f:
        return [tuple(line.split("\t")) for line in f.read().splitlines() if line]


def scan_failures(out_path, expected):
    """Files whose SARIF findings differ from the oracle's set."""
    with open(out_path, "rb") as f:
        sarif = json.load(f)
    got = set()
    for r in sarif["runs"][0]["results"]:
        loc = r["locations"][0]["physicalLocation"]
        region = loc["region"]
        got.add((loc["artifactLocation"]["uri"], str(region["startLine"]),
                 str(region.get("startColumn")), r["ruleId"]))
    want = set(expected)
    return {f for (f, *_rest) in got ^ want}


def diff_counts(out_path):
    """Per file and kind: (original sites on `-` lines, replacements on
    `+` lines, original sites surviving on `+` lines)."""
    counts = {}
    name = None
    with open(out_path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("+++ "):
                name = line[4:].strip()
                name = name[2:] if name.startswith("b/") else name
                continue
            if line.startswith("--- ") or not line or line[0] not in "+-":
                continue
            for kind, (orig, repl) in REPLACEMENTS.items():
                c = counts.setdefault((name, kind), [0, 0, 0])
                if line[0] == "-":
                    c[0] += line.count(orig)
                else:
                    c[1] += line.count(repl)
                    c[2] += line.count(orig)
    return counts


def apply_failures(out_path, expected):
    """Files whose diff lacks exactly one replacement per input site."""
    counts = diff_counts(out_path)
    want = {(f, kind): int(n) for (f, kind, n) in expected}
    bad = set()
    for (f, kind), n in want.items():
        if counts.get((f, kind), [0, 0, 0]) != [n, n, 0]:
            bad.add(f)
    for (f, kind), c in counts.items():
        if (f, kind) not in want and c != [0, 0, 0]:
            bad.add(f)
    return bad


def digest(*blobs):
    h = hashlib.sha256()
    for b in blobs:
        h.update(TIMING_FIELD.sub(rb'"\1": 0', b))
        h.update(b"\0")
    return h.hexdigest()


def check_run(workload, work, res, expected, n_files, checked):
    """Check one timed run; return (failed files, digest).

    Outputs are compared by digest first: a run whose stdout and report
    (timing fields removed) equal an already checked run's fails the
    same files, so the oracle parses each distinct output once.
    `checked` maps digest -> (failed files, parsed report).
    """
    out_path = os.path.join(work, "out.txt")
    try:
        with open(os.path.join(work, "report.json"), "rb") as f:
            raw = f.read()
        with open(out_path, "rb") as f:
            dig = digest(f.read(), raw)
    except OSError as e:
        log(f"run produced no readable report/output: {e}")
        return n_files, None
    if res["code"] != 0:
        log(f"spatch exited {res['code']}")
        return n_files, None
    if dig not in checked:
        try:
            report = json.loads(raw)
        except ValueError as e:
            log(f"unreadable report: {e}")
            return n_files, None
        if len(report["files"]) != n_files:
            log(f"{len(report['files'])} of {n_files} files reported")
            return n_files, None
        bad = {f["name"] for f in report["files"] if f["status"] in ("error", "timeout")}
        if workload == "scan_rules50":
            bad |= scan_failures(out_path, expected)
        else:
            bad |= apply_failures(out_path, expected)
        if bad:
            log(f"oracle mismatch in {len(bad)} file(s), e.g. {sorted(bad)[:3]}")
        checked[dig] = (len(bad), report)
    return checked[dig][0], dig


def measure_setup(spatch, workload, work):
    """Median wall time of the workload's command over an empty tree."""
    args = spatch_args(spatch, workload, "empty", "setup_report.json")
    walls = []
    for _ in range(SETUP_RUNS):
        res = run_child(args, work, os.path.join(work, "setup_out.txt"),
                        os.path.join(work, "setup_err.txt"))
        if res["code"] != 0:
            raise BenchError(f"setup run exited {res['code']}")
        walls.append(res["wall"])
    return statistics.median(walls)


def replay(bin_dir, work, spans_path):
    out = subprocess.run(
        [os.path.join(bin_dir, "perfbench-replay"), "--spans", spans_path],
        cwd=work, stdout=subprocess.PIPE, check=False)
    if out.returncode != 0:
        raise BenchError("replay failed")
    return json.loads(out.stdout)


def report_counts(report):
    files = report["files"]
    return (sum(f["matches"] for f in files),
            sum(len(f.get("findings", [])) for f in files))


def bench(args, root):
    bin_dir = build(root, ["gen", "replay"] if args.trace else ["gen"])
    spatch = os.path.join(bin_dir, "spatch")
    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        manifest = generate(bin_dir, args.workload, args.seed, args.scale, work)
        expected = load_expected(work)
        n_files = manifest["files"]
        setup_s = measure_setup(spatch, args.workload, work)

        cmd = spatch_args(spatch, args.workload, "tree", "report.json")
        runs, checked, digests = [], {}, set()
        attempted = failed = 0
        t0 = time.perf_counter()
        while True:
            started = time.perf_counter()
            res = run_child(cmd, work, os.path.join(work, "out.txt"),
                            os.path.join(work, "err.txt"))
            bad, dig = check_run(args.workload, work, res, expected, n_files, checked)
            attempted += n_files
            failed += bad
            if dig is not None:
                digests.add(dig)
            res["seconds"] = time.perf_counter() - started
            runs.append(res)
            elapsed = time.perf_counter() - t0
            typical = statistics.median(r["seconds"] for r in runs)
            if len(runs) >= MIN_RUNS and elapsed + typical > args.seconds:
                break
        correct = failed == 0 and len(digests) == 1
        if len(digests) > 1:
            log(f"nondeterministic output: {len(digests)} digests over {len(runs)} runs")

        walls = [r["wall"] for r in runs]
        jobs = int(cmd[cmd.index("-j") + 1])
        if args.trace:
            layers = replay(bin_dir, work,
                            os.path.join(work_root, f"spans_{args.workload}.tsv"))
            layers["pool.cpu_util"] = statistics.median(
                r["cpu"] / (r["wall"] * jobs) for r in runs)
            if checked:
                matches, findings = report_counts(next(iter(checked.values()))[1])
                edits = sum(int(n) for (_f, _kind, n) in expected) \
                    if args.workload != "scan_rules50" else 0
                want = {"core.matches": matches, "core.findings": findings, "core.edits": edits}
                for key, n in want.items():
                    if layers[key] != n:
                        log(f"replay does not reconcile: {key} {layers[key]} vs end-to-end {n}")
                        correct = False
            metrics = {k: layers[k] for k in PER_LAYER}
            extra = {"replay_e2e_cpu_s": layers["replay.e2e_cpu_s"]}
        else:
            # Throughput and CPU over all the work of the window, not a
            # median: one process's time is bimodal on some inputs (the
            # same apply_hip tree takes 3.3 s or 4.7 s at -j 1), and a
            # median snaps between the modes where a mean averages them.
            metrics = {
                "mb_per_s": manifest["bytes"] * len(walls) / 1e6 / sum(walls),
                "cpu_s": statistics.fmean(r["cpu"] for r in runs),
                "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
                "setup_s": setup_s,
            }
            extra = {}
        info = {
            "workload": args.workload, "seed": args.seed,
            "input_digest": manifest["input_digest"],
            "output_digest": sorted(digests)[0] if digests else None,
            "runs": len(runs), "jobs": jobs, "files": n_files, "bytes": manifest["bytes"],
            "walls": [round(w, 4) for w in walls], **extra,
        }
        print(json.dumps(info))
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every workload (smoke tests only)")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    try:
        result = bench(args, os.getcwd())
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
