#!/usr/bin/env bash
# CI entry point — everything runs offline; the workspace has zero
# crates.io dependencies by design (see Cargo.toml), so a network-less
# builder is the *supported* configuration, not a degraded one.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# Created up front so the CI workflow's always-run baseline-save step has
# a path to save even when an early phase (build/tests/clippy) fails.
BENCH_BASELINE_DIR="${BENCH_BASELINE_DIR:-target/bench-baseline}"
mkdir -p "$BENCH_BASELINE_DIR"

echo "== tier-1: release build =="
cargo build --release --workspace --locked

echo "== tier-1: test suite =="
cargo test -q --workspace --locked

# Release builds compile `debug_assert!` out; a side effect hidden in one
# (a character class whose `[` was only consumed in debug builds) passes
# the debug suite and breaks shipped binaries.
echo "== test suite (release) =="
cargo test --release -q --workspace --locked

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --locked -- -D warnings

# Doc links must resolve: deleting a documented item must not leave a
# dangling intra-doc link behind.
echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

# Bench trend tracking: each fresh BENCH_*.json is compared against the
# previous run's artifact (kept under $BENCH_BASELINE_DIR) and the build
# fails on a wall-clock regression beyond the budget (min AND median of
# the samples both over); the fresh artifact then becomes the next
# baseline. First runs just seed it.
BENCH_TREND_MAX_PCT="${BENCH_TREND_MAX_PCT:-25}"
BENCH_SAMPLES="${BENCH_SAMPLES:-10}"
export BENCH_SAMPLES
# Trend failures are collected and reported once at the end (instead of
# letting set -e abort on the first one) so every bench still runs and
# reseeds its baseline; the fresh artifact always becomes the next
# baseline — even on a regression — so a spurious (noise/codegen-drift)
# red run self-heals on the next push instead of wedging CI. An
# over-budget first reading gets one confirmation re-run before it
# counts: a genuine regression reproduces, a scheduler burst does not.
TREND_FAILURES=""
trend_check() {
  # bench_trend exits 1 on a confirmed regression, 3 on an unreadable
  # *baseline* (e.g. truncated by a cancelled run; just reseeds), and
  # 2/4 on a bad threshold or fresh artifact (a real failure).
  local name="$1" fresh="target/BENCH_$1.json" rc=0
  if [ -s "$BENCH_BASELINE_DIR/BENCH_$name.json" ]; then
    cargo run --release -q -p cocci-bench --bin bench_trend --locked -- \
      "$BENCH_BASELINE_DIR/BENCH_$name.json" "$fresh" "$BENCH_TREND_MAX_PCT" || rc=$?
    if [ "$rc" -eq 1 ]; then
      echo "trend: $name over budget; re-running once to confirm"
      cargo bench --bench "$name" --locked
      rc=0
      cargo run --release -q -p cocci-bench --bin bench_trend --locked -- \
        "$BENCH_BASELINE_DIR/BENCH_$name.json" "$fresh" "$BENCH_TREND_MAX_PCT" || rc=$?
      if [ "$rc" -eq 1 ]; then
        TREND_FAILURES="$TREND_FAILURES $name"
      fi
    fi
    if [ "$rc" -eq 3 ]; then
      # Only a *baseline*-side failure (e.g. truncated by a cancelled
      # run) reseeds quietly; a bad fresh artifact, bad threshold, or
      # infrastructure failure (cargo 101, OOM 137, …) must not pass
      # silently as a reseed.
      echo "trend: baseline for $name unusable (bench_trend exit 3); reseeding"
    elif [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
      echo "trend: bench_trend failed for $name (exit $rc)"
      TREND_FAILURES="$TREND_FAILURES $name"
    fi
  else
    echo "trend: no baseline for $name yet; seeding from this run"
  fi
  cp "$fresh" "$BENCH_BASELINE_DIR/"
}

# Read one gate value out of a BENCH_*.json artifact into the variable
# named VAR and fail unless it is below BOUND. BEFORE is the exact text
# ahead of the number, so this is the one place ci.sh depends on the
# bench writer's spacing. On failure MESSAGE is printed with {} replaced
# by the value.
#   gate VAR FILE BEFORE BOUND MESSAGE
gate() {
  local value
  value=$(grep -o "$3 [0-9.eE+-]*" "$2" | awk '{print $NF}')
  test -n "$value"
  awk -v v="$value" -v b="$4" 'BEGIN { exit !(v + 0 < b + 0) }' \
    || { echo "${5/"{}"/$value}"; exit 1; }
  printf -v "$1" '%s' "$value"
}

echo "== E1 bench smoke (short samples, JSON to target/) =="
cargo bench --bench uc_matrix --locked
test -s target/BENCH_uc_matrix.json
# Rules that inherit run once per inherited environment. With pinned and
# deduplicated seeds, UC7+UC8's per-function cost stays flat as a file
# grows from 25 to 200 functions; a walk of the whole file per
# environment made it grow with the file (ratio ~7).
gate FN_RATIO target/BENCH_uc_matrix.json '"id": "uc78_fn_cost_ratio", "value":' 2.0 \
  "UC78 per-function cost ratio {} >= 2.0"
# The write path (claims, edit dedup, the CLI diff) must cost the same
# per site at 20,000 one-line sites as at 2,500; a quadratic stage made
# the ratio grow with the file (~7 for the O(n*m) diff table).
gate DENSE_RATIO target/BENCH_uc_matrix.json '"id": "dense_site_cost_ratio", "value":' 2.0 \
  "dense per-site cost ratio {} >= 2.0"
# One gap must cost the same per element at 50,000 elements as at 5,000:
# over a function's statements on the CFG route and in the tree matcher's
# dots and statement lists, and over one call's arguments in its dots and
# expression lists. Re-folding or cloning the run at each length made the
# tree shapes quadratic.
gate GAP_RATIO target/BENCH_uc_matrix.json '"id": "long_gap_cost_ratio", "value":' 2.0 \
  "long-gap per-element cost ratio {} >= 2.0"
trend_check uc_matrix
echo "ok: target/BENCH_uc_matrix.json written (UC78 per-function cost ratio ${FN_RATIO}, dense per-site cost ratio ${DENSE_RATIO}, long-gap per-element cost ratio ${GAP_RATIO})"

echo "== prefilter bench smoke (hit-rate trend, JSON to target/) =="
cargo bench --bench prefilter --locked
test -s target/BENCH_prefilter.json
grep -q prefilter_hit_rate target/BENCH_prefilter.json
trend_check prefilter
echo "ok: target/BENCH_prefilter.json written (hit rates recorded)"

echo "== cfg_match bench smoke (CFG dots, JSON to target/) =="
cargo bench --bench cfg_match --locked
test -s target/BENCH_cfg_match.json
grep -q witnesses target/BENCH_cfg_match.json
grep -q findings target/BENCH_cfg_match.json
trend_check cfg_match
echo "ok: target/BENCH_cfg_match.json written (witness + findings metrics recorded)"

echo "== scaling bench smoke (corpus thread sweep + alloc probe; JSON to target/) =="
cargo bench --bench scaling --locked
test -s target/BENCH_scaling.json
grep -q allocs_per_parsed_file target/BENCH_scaling.json
grep -q peak_rss_bytes target/BENCH_scaling.json
grep -q pool_idle_frac target/BENCH_scaling.json
grep -q queue_depth_max target/BENCH_scaling.json
# Telemetry must be effectively free: the bench times the corpus driver
# with tracing enabled vs disabled (best-of-samples on both sides) and
# the enabled run — a strict upper bound on the disabled probes' cost —
# may exceed the untraced run by at most 2%.
gate OVERHEAD target/BENCH_scaling.json '"id": "trace_overhead_frac", "value":' 0.02 \
  "tracing overhead {} >= 2% budget"
# Explain's always-on half must be even cheaper: with --explain off,
# record_attempt is one relaxed load per (file x rule) attempt, and the
# projected cost over a corpus run may be at most 1% of its wall clock.
gate EXPLAIN_FRAC target/BENCH_scaling.json '"id": "explain_overhead_frac", "value":' 0.01 \
  "explain overhead {} >= 1% budget"
trend_check scaling
echo "ok: target/BENCH_scaling.json written (alloc/file + pool counters + trace overhead ${OVERHEAD} + explain overhead ${EXPLAIN_FRAC} recorded)"

echo "== report-mode e2e (findings over a generated corpus; format agreement + SARIF shape) =="
RPT_ROOT="target/report-e2e"
rm -rf "$RPT_ROOT"
# The example materializes the report_scan corpus family and the
# reporting-only patch (pure context + position metavariable).
cargo run --release -q -p cocci-examples --example report_scan --locked -- "$RPT_ROOT/corpus"
SPATCH=target/release/spatch
for fmt in text json sarif; do
  "$SPATCH" --sp-file "$RPT_ROOT/corpus/scan.cocci" --mode report --format "$fmt" \
    --quiet "$RPT_ROOT/corpus" > "$RPT_ROOT/findings.$fmt"
  test -s "$RPT_ROOT/findings.$fmt"
done
# All three formats must agree on the (file,line,col) finding set.
cut -d: -f1-3 "$RPT_ROOT/findings.text" | sort > "$RPT_ROOT/set.text"
test -s "$RPT_ROOT/set.text"
grep -o '"path": "[^"]*", "line": [0-9]*, "col": [0-9]*' "$RPT_ROOT/findings.json" \
  | sed 's/"path": "\([^"]*\)", "line": \([0-9]*\), "col": \([0-9]*\)/\1:\2:\3/' \
  | sort > "$RPT_ROOT/set.json"
grep -o '"uri": "[^"]*"}, "region": {"startLine": [0-9]*, "startColumn": [0-9]*' "$RPT_ROOT/findings.sarif" \
  | sed 's/"uri": "\([^"]*\)"}, "region": {"startLine": \([0-9]*\), "startColumn": \([0-9]*\)/\1:\2:\3/' \
  | sort > "$RPT_ROOT/set.sarif"
diff "$RPT_ROOT/set.text" "$RPT_ROOT/set.json"
diff "$RPT_ROOT/set.text" "$RPT_ROOT/set.sarif"
# SARIF sanity: the required 2.1.0 keys must be present before the
# document is published as a CI artifact.
for key in '"version": "2.1.0"' '"$schema"' '"runs"' '"results"' '"ruleId"' '"physicalLocation"' '"artifactLocation"'; do
  grep -qF "$key" "$RPT_ROOT/findings.sarif" || { echo "SARIF missing $key"; exit 1; }
done
cp "$RPT_ROOT/findings.sarif" target/REPORT_scan.sarif
echo "ok: $(wc -l < "$RPT_ROOT/set.text") findings agree across text/json/sarif (SARIF at target/REPORT_scan.sarif)"

echo "== scan_rules bench smoke (N rules, one parse; JSON to target/) =="
cargo bench --bench scan_rules --locked
test -s target/BENCH_scan_rules.json
grep -q scan_per_rule_ratio target/BENCH_scan_rules.json
grep -q sieve_survivors target/BENCH_scan_rules.json
grep -q lint_seconds target/BENCH_scan_rules.json
# Lint-at-load must be noise: statically analysing all 50 rules may cost
# at most 1% of actually scanning the corpus with them.
gate LINT_FRAC target/BENCH_scan_rules.json \
  '"group": "lint_overhead_frac", "id": "50_vs_scan", "value":' 0.01 \
  "lint overhead {} >= 1% budget"
trend_check scan_rules
echo "ok: target/BENCH_scan_rules.json written (per-rule scaling + survivor metrics + lint overhead ${LINT_FRAC} recorded)"

echo "== scan-mode e2e (rule matrix in every output format) =="
SCAN_ROOT="target/scan-e2e"
rm -rf "$SCAN_ROOT"
# The example materializes the rule_matrix rules/ + corpus/ trees. (The
# N-rule scan vs N one-rule scans oracle is a tier-1 test:
# engine_tests::n_rule_scan_equals_union_of_one_rule_scans.)
cargo run --release -q -p cocci-examples --example scan_matrix --locked -- "$SCAN_ROOT"
for fmt in text json sarif; do
  "$SPATCH" scan --rules "$SCAN_ROOT/rules" --format "$fmt" --report "$SCAN_ROOT/report.$fmt.json" \
    --quiet "$SCAN_ROOT/corpus" > "$SCAN_ROOT/scan.$fmt"
  test -s "$SCAN_ROOT/scan.$fmt"
done
# `--format json` prints the very report `--report` writes.
cmp "$SCAN_ROOT/scan.json" "$SCAN_ROOT/report.json.json"
# All three formats must agree on the (file,line,col,rule) finding set.
sed -E 's/^([^:]*):([0-9]+):([0-9]+): ([^:]*): .*/\1:\2:\3:\4/' "$SCAN_ROOT/scan.text" \
  | sort > "$SCAN_ROOT/set.text"
test -s "$SCAN_ROOT/set.text"
grep -o '"path": "[^"]*", "line": [0-9]*, "col": [0-9]*, "end_line": [0-9]*, "end_col": [0-9]*, "rule": "[^"]*"' "$SCAN_ROOT/scan.json" \
  | sed -E 's/"path": "([^"]*)", "line": ([0-9]*), "col": ([0-9]*), .*"rule": "([^"]*)"/\1:\2:\3:\4/' \
  | sort > "$SCAN_ROOT/set.json"
sed -n -E 's/^ *\{"ruleId": "([^"]*)".*"uri": "([^"]*)"\}, "region": \{"startLine": ([0-9]+), "startColumn": ([0-9]+).*/\2:\3:\4:\1/p' \
  "$SCAN_ROOT/scan.sarif" | sort > "$SCAN_ROOT/set.sarif"
diff "$SCAN_ROOT/set.text" "$SCAN_ROOT/set.json"
diff "$SCAN_ROOT/set.text" "$SCAN_ROOT/set.sarif"
# SARIF sanity on the merged run: one run, required keys, per-rule ids.
for key in '"version": "2.1.0"' '"$schema"' '"runs"' '"results"' '"ruleId"' '"defaultConfiguration"' '"artifactLocation"'; do
  grep -qF "$key" "$SCAN_ROOT/scan.sarif" || { echo "scan SARIF missing $key"; exit 1; }
done
cp "$SCAN_ROOT/scan.sarif" target/SCAN_matrix.sarif
echo "ok: $(wc -l < "$SCAN_ROOT/set.text") findings agree across text/json/sarif in the merged scan (SARIF at target/SCAN_matrix.sarif)"

echo "== traced scan e2e (Chrome trace + stats + metrics reconcile) =="
TRACE_ROOT="target/trace-e2e"
rm -rf "$TRACE_ROOT"
mkdir -p "$TRACE_ROOT/rules"
# The rule-matrix rules are all report-only tree rules; one extra flow
# transform rule (statement dots) makes the traced run exercise every
# phase — cfg_build, flow_match, rewrite, and render included.
cp "$SCAN_ROOT"/rules/*.cocci "$TRACE_ROOT/rules/"
cat > "$TRACE_ROOT/rules/flow_pair.cocci" <<'EOF'
// spatch-rule: flow-pair
@pair@
expression b;
@@
- probe_begin(b);
+ probe_enter(b);
...
probe_end(b);
EOF
cp -r "$SCAN_ROOT/corpus" "$TRACE_ROOT/corpus"
cat > "$TRACE_ROOT/corpus/pair.c" <<'EOF'
void pair(int x) {
    probe_begin(x);
    work(x);
    probe_end(x);
}
EOF
"$SPATCH" scan --rules "$TRACE_ROOT/rules" --trace-out target/TRACE_scan.json \
  --report "$TRACE_ROOT/report.json" --stats --quiet "$TRACE_ROOT/corpus" \
  > /dev/null 2> "$TRACE_ROOT/stats.txt"
test -s target/TRACE_scan.json
# Well-formed trace JSON, at least one span for every phase, per-phase
# totals within 5% of the report's metrics block (the --stats table is
# printed *from* that block, so this ties all three surfaces together).
cargo run --release -q -p cocci-examples --example trace_check --locked -- \
  target/TRACE_scan.json "$TRACE_ROOT/report.json"
grep -q '^  phase parse: spans=[1-9]' "$TRACE_ROOT/stats.txt"
grep -q '^  counter files_parsed: [1-9]' "$TRACE_ROOT/stats.txt"
grep -q '^  pool: workers=' "$TRACE_ROOT/stats.txt"
# The shipped binary allocates through cocci-alloc: its heaps cut chunks.
grep -q '^  alloc: chunks=[1-9]' "$TRACE_ROOT/stats.txt"
echo "ok: traced scan reconciles across trace/stats/report (trace at target/TRACE_scan.json)"

echo "== rewrite chain e2e (UC7+UC8: each rewritten text splices its parse) =="
CHAIN_ROOT="target/chain-e2e"
rm -rf "$CHAIN_ROOT"
mkdir -p "$CHAIN_ROOT/src"
# The paper's CUDA->HIP port chains rules: `hfe` and `hte` rewrite the
# file, and the rules after each rewrite parse the new text. That parse
# re-parses only the statements the rewrite touched and splices them
# into the previous tree.
cat > "$CHAIN_ROOT/hip.cocci" <<'EOF'
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
identifier kk;
expression b,t,x,y;
expression list el;
@@
- kk<<<b,t,x,y>>>(el)
+ hipLaunchKernelGGL(kk,b,t,x,y,el)
EOF
cat > "$CHAIN_ROOT/src/a.cu" <<'EOF'
#include <cuda_runtime.h>

void stage_a(int n, double *buf) {
    __half h;
    double r;
    r = curand_uniform_double(rng_state);
    buf[0] = r;
    compute_a<<<grid, block, 0, stream>>>(n, buf);
}

void stage_b(int n, double *buf) {
    for (int i = 0; i < n; ++i) {
        if (buf[i] > 0.5) {
            __half g;
            buf[i] = curand_uniform_double(rng_state); // resample
        }
    }
    compute_b<<<grid, block, 0, stream>>>(n, buf);
}
EOF
cat > "$CHAIN_ROOT/src/b.cu" <<'EOF'
/* Launch helpers. */
#define BLOCK 256

static void launch(int n, double *buf) {
    compute_c<<<(n + BLOCK - 1) / BLOCK, BLOCK, 0, stream>>>(n, buf);
}

void stage_c(int n, double *buf) {
    __half h;
#pragma unroll
    for (int i = 0; i < 4; ++i)
        buf[i] = curand_uniform_double(rng_state);
    launch(n, buf);
}
EOF
cat > "$CHAIN_ROOT/src/c.cu" <<'EOF'
void stage_d(int n, double *buf) {
    double r = 0.0;
    while (n-- > 0) {
        r += curand_uniform_double(rng_state);
    }
    buf[0] = r;
    compute_d<<<grid, block, 0, stream>>>(n, buf);
}
EOF
for jobs in 1 2; do
  "$SPATCH" --sp-file "$CHAIN_ROOT/hip.cocci" --stats -j "$jobs" "$CHAIN_ROOT/src" \
    > "$CHAIN_ROOT/diff.$jobs" 2> "$CHAIN_ROOT/stats.$jobs"
  grep -q '^  counter parse_splices: [1-9]' "$CHAIN_ROOT/stats.$jobs"
  grep -q '^  counter splice_fallbacks: 0$' "$CHAIN_ROOT/stats.$jobs"
done
grep -q '^+.*hipLaunchKernelGGL(' "$CHAIN_ROOT/diff.1"
cmp "$CHAIN_ROOT/diff.1" "$CHAIN_ROOT/diff.2"
echo "ok: the rewrite chain splices every reparse, with the same diff at -j 1 and -j 2"

echo "== explain e2e (kill-stage funnel reconciles exactly with the report) =="
EXPLAIN_ROOT="target/explain-e2e"
rm -rf "$EXPLAIN_ROOT"
mkdir -p "$EXPLAIN_ROOT"
# The rule-matrix scan again, now with --explain: every attempt is
# traced into the report's explain block and the funnel counters.
"$SPATCH" scan --rules "$SCAN_ROOT/rules" --explain --stats \
  --report target/EXPLAIN_scan.json --quiet "$SCAN_ROOT/corpus" \
  > /dev/null 2> "$EXPLAIN_ROOT/stats.txt"
test -s target/EXPLAIN_scan.json
grep -q '"explain"' target/EXPLAIN_scan.json
grep -q '"kill_stage"' target/EXPLAIN_scan.json
# Funnel counters vs the explain block vs per-outcome kill stages: the
# validator demands exact agreement (same record point per attempt).
cargo run --release -q -p cocci-examples --example explain_check --locked -- \
  target/EXPLAIN_scan.json
# The --stats table renders the same counters as a funnel.
grep -q '^  funnel:' "$EXPLAIN_ROOT/stats.txt"
grep -q '^    attempts: [1-9]' "$EXPLAIN_ROOT/stats.txt"
grep -q '^    completed: [0-9]' "$EXPLAIN_ROOT/stats.txt"
echo "ok: explain funnel reconciles exactly (report at target/EXPLAIN_scan.json)"

echo "== rule lint (every CI rule set must be deny-clean) =="
# The rule_matrix rules are property-tested lint-clean, so the merged
# scan set must produce zero findings of any level; the trace rules add
# the hand-written flow transform, which must at least be deny-clean
# (exit 0 = no deny findings; exit 1 would mean a broken CI fixture).
"$SPATCH" lint "$SCAN_ROOT/rules" > "$SCAN_ROOT/lint.txt" 2> /dev/null
if [ -s "$SCAN_ROOT/lint.txt" ]; then
  echo "rule_matrix rules are not lint-clean:"; cat "$SCAN_ROOT/lint.txt"; exit 1
fi
"$SPATCH" lint "$TRACE_ROOT/rules" > /dev/null
# SARIF shape for the lint surface: rule metadata plus required keys.
"$SPATCH" lint --format sarif "$TRACE_ROOT/rules" > target/LINT_rules.sarif
for key in '"version": "2.1.0"' '"results"' '"rules"' '"defaultConfiguration"'; do
  grep -qF "$key" target/LINT_rules.sarif || { echo "lint SARIF missing $key"; exit 1; }
done
echo "ok: CI rule sets lint deny-clean (SARIF at target/LINT_rules.sarif)"

if [ -n "$TREND_FAILURES" ]; then
  echo "bench trend: wall-clock regressions in:$TREND_FAILURES (budget ${BENCH_TREND_MAX_PCT}%)"
  exit 1
fi
echo "CI green."
