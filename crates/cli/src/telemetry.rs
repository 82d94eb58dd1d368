//! Telemetry surfaces for `spatch`: the `--trace-out` Chrome trace
//! file, the `--stats` aggregate table, and the TTY heartbeat.
//!
//! All three views derive from the same recorded data — the engine
//! builds the report's `metrics` block from [`cocci_trace::collect`]
//! after its workers join, and this module re-reads the same rings for
//! the Chrome file — so phase totals agree across the trace JSON, the
//! stats table, and the report by construction.

use cocci_alloc::AllocStats;
use cocci_core::{ApplyReport, FileStatus, RunMetrics};
use std::collections::BTreeMap;
use std::io::{IsTerminal, Write};
use std::path::Path;
use std::time::Instant;

/// Turn tracing on when any telemetry surface was requested —
/// `--explain` included: its funnel counters and kill-site instant
/// events ride the same rings. Returns whether tracing is live so
/// callers can skip collection otherwise.
pub fn init(trace_out: Option<&Path>, stats: bool, explain: bool) -> bool {
    let on = trace_out.is_some() || stats || explain;
    if on {
        cocci_trace::set_enabled(true);
    }
    on
}

/// Write the Chrome trace-event file (open in Perfetto / `about:tracing`).
pub fn write_trace(path: &Path) -> std::io::Result<()> {
    let data = cocci_trace::collect();
    let mut buf = Vec::new();
    data.write_chrome(&mut buf)?;
    std::fs::write(path, buf)
}

/// Print the `--stats` table to stderr (stdout is reserved for diffs,
/// findings, and JSON/SARIF documents).
///
/// Count-like lines (span counts, counters, per-rule matches/findings)
/// are deterministic across `-j` values; timing columns are wall-clock
/// and vary run to run, as do the pool line and the `alloc` line (the
/// process allocator's counters, passed in as `alloc`).
pub fn print_stats(report: &ApplyReport, alloc: AllocStats) {
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "spatch stats:");
    match &report.metrics {
        Some(m) => print_metrics(&mut err, m, report.total_seconds),
        None => {
            let _ = writeln!(err, "  (no metrics recorded)");
        }
    }
    let _ = writeln!(
        err,
        "  alloc: chunks={} ({:.1} MiB) remote_frees={}",
        alloc.chunks,
        alloc.chunk_bytes() as f64 / (1u64 << 20) as f64,
        alloc.remote_frees
    );

    // Per-rule aggregate over every file's scan rows (patch-mode runs
    // have no per-rule rows and skip this table).
    let mut rules: BTreeMap<&str, (usize, usize, f64)> = BTreeMap::new();
    for f in &report.files {
        for r in &f.rules {
            let e = rules.entry(&r.id).or_insert((0, 0, 0.0));
            e.0 += r.matches;
            e.1 += r.findings;
            e.2 += r.seconds;
        }
    }
    if !rules.is_empty() {
        let _ = writeln!(err, "  rules:");
        let mut by_time: Vec<_> = rules.into_iter().collect();
        by_time.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2).then(a.0.cmp(b.0)));
        for (id, (matches, findings, secs)) in by_time {
            let _ = writeln!(
                err,
                "    rule {id}: matches={matches} findings={findings} ms={:.3}",
                secs * 1e3
            );
        }
    }

    // Top-10 slowest files. Satellite fix upstream guarantees every
    // status — timeout and error rows included — carries its elapsed
    // seconds, so quarantined work shows up here too.
    let mut slowest: Vec<&cocci_core::FileReport> = report.files.iter().collect();
    slowest.sort_by(|a, b| b.seconds.total_cmp(&a.seconds).then(a.name.cmp(&b.name)));
    if !slowest.is_empty() {
        let _ = writeln!(err, "  slowest files:");
        for f in slowest.iter().take(10) {
            let status = match f.status {
                FileStatus::Timeout => " [timeout]",
                FileStatus::Error => " [error]",
                _ => "",
            };
            let _ = writeln!(err, "    {:>10.3} ms  {}{status}", f.seconds * 1e3, f.name);
        }
    }
}

fn print_metrics(err: &mut impl Write, m: &RunMetrics, wall_seconds: f64) {
    // Every phase prints, zero or not: the table's shape is part of its
    // contract (CI greps it, tests diff it across thread counts).
    for phase in cocci_trace::Phase::ALL {
        let name = phase.name();
        let count = m.phase_counts.get(name).copied().unwrap_or(0);
        let ns = m.phase_total_ns(name);
        let _ = writeln!(
            err,
            "  phase {name}: spans={count} ms={:.3}",
            ns as f64 / 1e6
        );
    }
    for counter in cocci_trace::Counter::ALL {
        let name = counter.name();
        let _ = writeln!(err, "  counter {name}: {}", m.counter(name));
    }
    // The match funnel: attempts in at the top, survivors at each stage
    // below. Derived from the same counters printed above, so the two
    // views reconcile by construction.
    let _ = writeln!(err, "  funnel:");
    for (label, v) in cocci_core::explain::funnel_rows(|name| m.counter(name)) {
        let _ = writeln!(err, "    {label}: {v}");
    }
    if let Some(pool) = &m.pool {
        let _ = writeln!(
            err,
            "  pool: workers={} queue_depth_max={} idle={:.1}% utilization={:.1}%",
            pool.workers,
            pool.queue_depth_max,
            pool.idle_frac(wall_seconds) * 100.0,
            pool.utilization_pct(wall_seconds)
        );
    }
}

/// A single-line progress heartbeat on stderr for long corpus runs:
/// `done/total` files, findings so far, elapsed, throughput, and an ETA
/// extrapolated from it. Active only on a TTY (CI logs and piped runs
/// never see it) and redrawn in place with `\r`.
pub struct Heartbeat {
    active: bool,
    start: Instant,
    last_draw: Instant,
    total: usize,
    done: usize,
    findings: usize,
}

impl Heartbeat {
    pub fn new(total: usize, quiet: bool) -> Heartbeat {
        let start = Instant::now();
        Heartbeat {
            active: !quiet && std::io::stderr().is_terminal(),
            start,
            last_draw: start,
            total,
            done: 0,
            findings: 0,
        }
    }

    /// Record one finished file; redraw at most every 100 ms.
    pub fn tick(&mut self, findings: usize) {
        self.done += 1;
        self.findings += findings;
        if !self.active || self.last_draw.elapsed().as_millis() < 100 {
            return;
        }
        self.last_draw = Instant::now();
        let elapsed = self.start.elapsed().as_secs_f64();
        // A files/s rate extrapolated from under a second of work is
        // noise; show `--:--` until the rate means something rather
        // than flashing a wild ETA at the start of every run.
        let eta = if elapsed >= 1.0 && self.done > 0 {
            let rate = self.done as f64 / elapsed;
            format!(
                "{:.0} files/s, ETA {:.0}s",
                rate,
                self.total.saturating_sub(self.done) as f64 / rate.max(1e-9)
            )
        } else {
            "ETA --:--".to_string()
        };
        note!(
            "\r\x1b[2Kspatch: {}/{} files, {} finding(s), {:.1}s elapsed, {eta}",
            self.done,
            self.total,
            self.findings,
            elapsed
        );
        let _ = std::io::stderr().flush();
    }

    /// Clear the progress line so the run summary prints cleanly.
    pub fn finish(&self) {
        if self.active {
            note!("\r\x1b[2K");
            let _ = std::io::stderr().flush();
        }
    }
}
