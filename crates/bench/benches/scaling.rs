//! Experiment E3: throughput and parallel scaling — the "thousands of
//! loops across a GADGET-scale codebase" claim.
//!
//! Three sweeps:
//!
//! * `size` — single-thread apply time vs. per-file size (loops per
//!   function), expecting ~linear growth;
//! * `threads` — multi-file driver over a fixed corpus with 1..=8
//!   workers, expecting near-linear speedup until core count;
//! * `corpus` — the generated mixed corpus tree through the streaming
//!   corpus driver at 1/2/4/all threads. The tree is about
//!   a millisecond of work, too small to measure parallel speedup (the
//!   `perfbench/` throughput benchmark does that at real size), so the
//!   sweep records timings only.
//!
//! The binary also installs a counting allocator and records allocator
//! traffic per parsed corpus file — the number string interning is
//! meant to keep down — plus the process peak RSS every harness run
//! records.

use cocci_bench::alloc::CountingAlloc;
use cocci_bench::timing::{Harness, Throughput};
use cocci_cast::parser::{parse_translation_unit, NoMeta, ParseOptions};
use cocci_core::{apply_to_corpus_resumed, apply_to_files, CorpusOptions, MemorySource};
use cocci_smpl::parse_semantic_patch;
use cocci_workloads::corpus::{corpus_tree, CorpusTreeSpec};
use cocci_workloads::gen::sized_codebase;
use cocci_workloads::patches::UC1_LIKWID;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn size_sweep(h: &mut Harness) {
    let patch = parse_semantic_patch(UC1_LIKWID).unwrap();
    for loops in [4usize, 16, 64, 256] {
        let files = sized_codebase(2, 4, loops, 0xE3);
        let inputs: Vec<(String, String)> = files
            .iter()
            .map(|f| (f.name.clone(), f.text.clone()))
            .collect();
        let bytes: usize = inputs.iter().map(|(_, t)| t.len()).sum();
        h.bench(
            "scaling_size",
            &loops.to_string(),
            Throughput::Bytes(bytes as u64),
            || apply_to_files(&patch, &inputs, 1).unwrap(),
        );
    }
}

fn thread_sweep(h: &mut Harness) {
    let patch = parse_semantic_patch(UC1_LIKWID).unwrap();
    let files = sized_codebase(32, 8, 32, 0xE3);
    let inputs: Vec<(String, String)> = files
        .iter()
        .map(|f| (f.name.clone(), f.text.clone()))
        .collect();
    let bytes: usize = inputs.iter().map(|(_, t)| t.len()).sum();

    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let mut t = 1usize;
    while t <= max {
        h.bench(
            "scaling_threads",
            &t.to_string(),
            Throughput::Bytes(bytes as u64),
            || apply_to_files(&patch, &inputs, t).unwrap(),
        );
        t *= 2;
    }
}

/// The mixed corpus tree through the streaming corpus driver (persistent
/// worker pool fed by one FIFO queue), small batches so the pool's
/// cross-batch overlap is actually exercised.
fn corpus_sweep(h: &mut Harness) {
    let patch = parse_semantic_patch(UC1_LIKWID).unwrap();
    let files = corpus_tree(&CorpusTreeSpec::default());
    let inputs: Vec<(String, String)> = files
        .iter()
        .map(|f| (f.name.clone(), f.text.clone()))
        .collect();
    let bytes: usize = inputs.iter().map(|(_, t)| t.len()).sum();

    let all = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize, 2, 4];
    if all > 4 {
        counts.push(all);
    }
    for &t in &counts {
        h.bench(
            "scaling_corpus",
            &t.to_string(),
            Throughput::Bytes(bytes as u64),
            || {
                let mut src = MemorySource::new(inputs.clone());
                apply_to_corpus_resumed(
                    &patch,
                    &mut src,
                    &CorpusOptions {
                        threads: t,
                        ..Default::default()
                    },
                    None,
                    |_, _, _| {},
                )
                .unwrap()
            },
        );
    }
}

/// Telemetry probe: what the instrumentation costs, plus the pool's
/// scheduler counters (idle fraction, max queue depth) from a
/// traced run's `metrics` block.
///
/// Two costs, kept apart because they answer different questions:
///
/// * `trace_overhead_frac` — the tax the *disabled* probes leave in a
///   production run (ci.sh gates this under 2%). A same-binary A/B
///   can't remove the probes, so it is computed as measured disabled
///   probe cost (one relaxed atomic load) × probe-site executions per
///   corpus run (from an enabled run's span count, doubled for slack
///   to cover counter probes), over the untraced run's wall clock.
/// * `trace_cost_enabled_frac` — enabled-vs-disabled wall clock, the
///   price of actually recording. Recorded, not gated: ring writes are
///   real work and sub-2% deltas of a loaded builder's wall clock are
///   noise, which is also why the ratio uses min-over-samples
///   (interference is one-sided).
fn telemetry_probe(h: &mut Harness) {
    let patch = parse_semantic_patch(UC1_LIKWID).unwrap();
    let files = corpus_tree(&CorpusTreeSpec::default());
    // Replicate the tree so one run is ~10ms+: a 2% fraction of a
    // millisecond-scale run would drown in scheduler jitter.
    let inputs: Vec<(String, String)> = (0..10)
        .flat_map(|copy| {
            files
                .iter()
                .map(move |f| (format!("copy{copy}/{}", f.name), f.text.clone()))
        })
        .collect();
    let bytes: usize = inputs.iter().map(|(_, t)| t.len()).sum();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut run = || {
        let mut src = MemorySource::new(inputs.clone());
        apply_to_corpus_resumed(
            &patch,
            &mut src,
            &CorpusOptions {
                threads,
                ..Default::default()
            },
            None,
            |_, _, _| {},
        )
        .unwrap()
    };

    cocci_trace::set_enabled(false);
    h.bench(
        "scaling_trace",
        "off",
        Throughput::Bytes(bytes as u64),
        &mut run,
    );
    cocci_trace::set_enabled(true);
    h.bench(
        "scaling_trace",
        "on",
        Throughput::Bytes(bytes as u64),
        &mut run,
    );

    // One more traced run with clean counters to harvest pool metrics
    // and the number of probe sites one corpus run executes.
    cocci_trace::reset();
    let report = run();
    let data = cocci_trace::collect();
    let probes_per_run = 2.0 * (data.span_count() as u64 + data.dropped()) as f64;
    cocci_trace::set_enabled(false);
    let pool = report
        .metrics
        .as_ref()
        .and_then(|m| m.pool.as_ref())
        .expect("traced corpus run embeds pool metrics");
    h.metric(
        "pool",
        "pool_idle_frac",
        pool.idle_frac(report.total_seconds),
    );
    h.metric("pool", "queue_depth_max", pool.queue_depth_max as f64);

    // Attempts one corpus run makes — the explain engine's probe-site
    // count, harvested from the same clean-counter traced run.
    let attempts_per_run = cocci_trace::counter_value(cocci_trace::Counter::Attempts) as f64;

    // Disabled probe unit cost: black_box keeps the guard construction
    // and drop (both one relaxed load) from being hoisted or elided.
    const PROBE_ITERS: u64 = 1_000_000;
    let t0 = std::time::Instant::now();
    for _ in 0..PROBE_ITERS {
        let _g = std::hint::black_box(cocci_trace::span(cocci_trace::Phase::TreeMatch));
    }
    let probe_ns = t0.elapsed().as_nanos() as f64 / PROBE_ITERS as f64;

    // Explain's always-on half, disabled: record_attempt bails on one
    // relaxed load per (file × rule) attempt. Same construction as
    // trace_overhead_frac — measured disabled unit cost × attempt
    // sites per corpus run (doubled for slack), over the untraced wall
    // clock. ci.sh gates this under 1%.
    let t0 = std::time::Instant::now();
    for _ in 0..PROBE_ITERS {
        cocci_core::explain::record_attempt(
            std::hint::black_box(cocci_core::explain::KillStage::Completed),
            std::hint::black_box("bench.c"),
            "bench-rule",
            None,
        );
    }
    let attempt_ns = t0.elapsed().as_nanos() as f64 / PROBE_ITERS as f64;

    let off = h.min_s("scaling_trace", "off").expect("off record");
    let on = h.min_s("scaling_trace", "on").expect("on record");
    h.metric(
        "scaling_trace",
        "trace_cost_enabled_frac",
        ((on - off) / off).max(0.0),
    );
    h.metric("scaling_trace", "probe_ns", probe_ns);
    h.metric(
        "scaling_trace",
        "trace_overhead_frac",
        (probe_ns * 1e-9 * probes_per_run) / off,
    );
    h.metric("scaling_trace", "explain_probe_ns", attempt_ns);
    h.metric(
        "scaling_trace",
        "explain_overhead_frac",
        (attempt_ns * 1e-9 * attempts_per_run * 2.0) / off,
    );
}

/// Allocator traffic per parsed corpus file — the interning payoff, as
/// a recorded (not trend-gated) metric next to the timings.
fn alloc_probe(h: &mut Harness) {
    let files = corpus_tree(&CorpusTreeSpec::default());
    // Warm up once so lazily-initialised tables (keyword sets, the
    // interner's steady-state vocabulary) don't land in the measurement.
    for f in &files {
        let _ = parse_translation_unit(&f.text, ParseOptions::cpp(), &NoMeta);
    }
    let before = ALLOC.snapshot();
    let mut parsed = 0u64;
    for f in &files {
        let opts = if f.name.ends_with(".cpp") || f.name.ends_with(".cu") {
            ParseOptions::cpp()
        } else {
            ParseOptions::c()
        };
        if parse_translation_unit(&f.text, opts, &NoMeta).is_ok() {
            parsed += 1;
        }
    }
    let d = ALLOC.snapshot().delta(before);
    h.metric("alloc", "parsed_files", parsed as f64);
    h.metric(
        "alloc",
        "allocs_per_parsed_file",
        d.allocs as f64 / parsed.max(1) as f64,
    );
    h.metric(
        "alloc",
        "bytes_per_parsed_file",
        d.bytes as f64 / parsed.max(1) as f64,
    );
}

fn main() {
    let mut h = Harness::new("scaling").sample_size(12);
    size_sweep(&mut h);
    thread_sweep(&mut h);
    corpus_sweep(&mut h);
    telemetry_probe(&mut h);
    alloc_probe(&mut h);
    h.finish().expect("write BENCH_scaling.json");
}
