//! Low-overhead tracing for the engine: phase spans, run counters, and
//! Chrome trace-event output.
//!
//! The probe API is designed so an *untraced* run pays (almost) nothing:
//! every probe starts with one relaxed atomic load of a global enable
//! flag, and when the flag is off no clock is read, no allocation is
//! made, and the returned [`SpanGuard`] drops without side effects.
//!
//! When enabled, each thread appends [`SpanEvent`]s to its own
//! fixed-capacity ring buffer (oldest events are overwritten and counted
//! as dropped), registered in a process-wide registry so [`collect`] can
//! aggregate across threads after the workers are gone. Counters are
//! plain global atomics. Timestamps are nanoseconds since a process-wide
//! monotonic epoch, so spans from different threads order correctly in
//! one timeline.
//!
//! Output paths:
//! - [`TraceData::write_chrome`] emits Chrome trace-event JSON (one lane
//!   per recorded thread) viewable in Perfetto or about:tracing.
//! - [`TraceData::phase_totals`] feeds the `--stats` table and the
//!   report `metrics` block. It sums exact per-lane totals that every
//!   span adds to as it is recorded, so they count the spans a wrapped
//!   ring overwrote too.
//!
//! [`json`] is the workspace's one JSON layer (escaper, reader, field
//! policy), shared by this writer and every report and bench file.

pub mod json;

use json::Str;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Pipeline phases a span can belong to. The string names are the
/// stable identifiers used in trace JSON, the `--stats` table, and the
/// report `metrics` block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Corpus directory walk + file read.
    Walk,
    /// Literal-atom prefilter (per file, or per file x rule set in scan).
    Prefilter,
    /// Lex + parse of a translation unit (the cast parser).
    Parse,
    /// Per-function CFG construction.
    CfgBuild,
    /// Tree (AST) pattern matching.
    TreeMatch,
    /// CTL/flow matching of dots rules over CFGs.
    FlowMatch,
    /// Computing replacement edits from witnesses.
    Rewrite,
    /// Applying edits to the source text / diff rendering.
    Render,
    /// Findings + report generation and serialization.
    Report,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 9] = [
        Phase::Walk,
        Phase::Prefilter,
        Phase::Parse,
        Phase::CfgBuild,
        Phase::TreeMatch,
        Phase::FlowMatch,
        Phase::Rewrite,
        Phase::Render,
        Phase::Report,
    ];

    /// Stable identifier used in every output format.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Walk => "walk",
            Phase::Prefilter => "prefilter",
            Phase::Parse => "parse",
            Phase::CfgBuild => "cfg_build",
            Phase::TreeMatch => "tree_match",
            Phase::FlowMatch => "flow_match",
            Phase::Rewrite => "rewrite",
            Phase::Render => "render",
            Phase::Report => "report",
        }
    }
}

/// Run counters. Like phases, the string names are stable identifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Files skipped entirely by the prefilter.
    FilesPruned,
    /// Translation units actually lexed + parsed.
    FilesParsed,
    /// Parses served from a `FileContext` memo instead of re-parsing.
    ParseCacheHits,
    /// Parses of rewritten texts spliced from the previous text's tree
    /// (each also counts in `FilesParsed`).
    Splices,
    /// Parses of rewritten texts that could not be spliced and parsed
    /// in full instead.
    SpliceFallbacks,
    /// Witnesses forked at binding-incompatible join points.
    WitnessesForked,
    /// Files quarantined by the per-file time budget.
    Timeouts,
    /// Matcher panics caught and isolated.
    Panics,
    /// Findings dropped by inline `spatch-ignore` suppressions.
    Suppressions,
    /// (file x rule) match attempts started (the explain funnel's top).
    Attempts,
    /// Attempts ended by the literal-atom prefilter.
    KillPrefilter,
    /// Attempts ended because the target file would not parse.
    KillParse,
    /// Attempts whose pattern anchor hit nothing in the file.
    KillAnchor,
    /// Attempts whose every anchor hit died in a dots gap walk
    /// (quantifier unsatisfied, escaped node, `when !=` kill).
    KillGapWalk,
    /// Attempts killed by witness-group binding conflicts.
    KillBindings,
    /// Attempts whose edits conflicted and were discarded.
    KillEditConflict,
    /// Attempts whose every finding was suppressed inline.
    KillSuppressed,
    /// Attempts ended by the per-file time budget.
    KillTimeout,
}

const COUNTER_COUNT: usize = 18;

impl Counter {
    /// Every counter.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::FilesPruned,
        Counter::FilesParsed,
        Counter::ParseCacheHits,
        Counter::Splices,
        Counter::SpliceFallbacks,
        Counter::WitnessesForked,
        Counter::Timeouts,
        Counter::Panics,
        Counter::Suppressions,
        Counter::Attempts,
        Counter::KillPrefilter,
        Counter::KillParse,
        Counter::KillAnchor,
        Counter::KillGapWalk,
        Counter::KillBindings,
        Counter::KillEditConflict,
        Counter::KillSuppressed,
        Counter::KillTimeout,
    ];

    /// Stable identifier used in every output format.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FilesPruned => "files_pruned",
            Counter::FilesParsed => "files_parsed",
            Counter::ParseCacheHits => "parse_cache_hits",
            Counter::Splices => "parse_splices",
            Counter::SpliceFallbacks => "splice_fallbacks",
            Counter::WitnessesForked => "witnesses_forked",
            Counter::Timeouts => "timeouts",
            Counter::Panics => "panics",
            Counter::Suppressions => "suppressions",
            Counter::Attempts => "attempts",
            Counter::KillPrefilter => "kill_prefilter",
            Counter::KillParse => "kill_parse",
            Counter::KillAnchor => "kill_anchor",
            Counter::KillGapWalk => "kill_gap_walk",
            Counter::KillBindings => "kill_bindings",
            Counter::KillEditConflict => "kill_edit_conflict",
            Counter::KillSuppressed => "kill_suppressed",
            Counter::KillTimeout => "kill_timeout",
        }
    }
}

/// One recorded span: a phase interval on some thread, optionally
/// labelled with a detail string (rule id, usually).
#[derive(Clone, Debug)]
pub struct SpanEvent {
    pub phase: Phase,
    pub detail: Option<Box<str>>,
    /// Nanoseconds since the process trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One recorded instant: a point-in-time marker on some thread (a kill
/// site in the explain engine, typically), rendered as a Chrome "i"
/// event so Perfetto shows where attempts die on the timeline.
#[derive(Clone, Debug)]
pub struct InstantEvent {
    /// Stable marker name (a kill-stage identifier, usually).
    pub name: &'static str,
    /// Free-form context (`file: rule`, absent atoms, ...).
    pub detail: Option<Box<str>>,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
}

/// Spans kept per thread before the oldest are overwritten.
pub const RING_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
#[allow(clippy::declare_interior_mutable_const)]
const COUNTER_ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; COUNTER_COUNT] = [COUNTER_ZERO; COUNTER_COUNT];

struct RingInner {
    buf: Vec<SpanEvent>,
    /// Next overwrite position once the buffer is full.
    next: usize,
    dropped: u64,
    /// Every span recorded, by phase (overwritten ones included).
    totals: [Total; Phase::ALL.len()],
    /// Instant markers, ring-buffered like the spans.
    instants: Vec<InstantEvent>,
    instants_next: usize,
    instants_dropped: u64,
}

struct Ring {
    tid: u64,
    name: String,
    inner: Mutex<RingInner>,
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static LOCAL_RING: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

fn with_local_ring(f: impl FnOnce(&mut RingInner)) {
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let ring = Arc::new(Ring {
                tid,
                name,
                inner: Mutex::new(RingInner {
                    buf: Vec::new(),
                    next: 0,
                    dropped: 0,
                    totals: Default::default(),
                    instants: Vec::new(),
                    instants_next: 0,
                    instants_dropped: 0,
                }),
            });
            registry().lock().unwrap().push(Arc::clone(&ring));
            ring
        });
        let mut inner = ring.inner.lock().unwrap();
        f(&mut inner);
    });
}

fn record(event: SpanEvent) {
    with_local_ring(|inner| {
        let total = &mut inner.totals[event.phase as usize];
        total.count += 1;
        total.total_ns += event.dur_ns;
        if inner.buf.len() < RING_CAPACITY {
            inner.buf.push(event);
        } else {
            let at = inner.next;
            inner.buf[at] = event;
            inner.next = (at + 1) % RING_CAPACITY;
            inner.dropped += 1;
        }
    });
}

fn record_instant(event: InstantEvent) {
    with_local_ring(|inner| {
        if inner.instants.len() < RING_CAPACITY {
            inner.instants.push(event);
        } else {
            let at = inner.instants_next;
            inner.instants[at] = event;
            inner.instants_next = (at + 1) % RING_CAPACITY;
            inner.instants_dropped += 1;
        }
    });
}

/// Record an instant marker (a Chrome "i" event) on the current
/// thread's lane. A no-op when tracing is disabled.
#[inline]
pub fn instant(name: &'static str, detail: Option<&str>) {
    if !is_enabled() {
        return;
    }
    record_instant(InstantEvent {
        name,
        detail: detail.map(Into::into),
        ts_ns: now_ns(),
    });
}

/// Turn tracing on or off for the whole process. Enabling also fixes
/// the trace epoch if this is the first trace call.
pub fn set_enabled(enabled: bool) {
    if enabled {
        epoch();
    }
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Is tracing currently on? One relaxed load; this is the check every
/// probe performs first.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded spans and counters (the enable flag and thread
/// registrations are kept). Lets one process run several traced runs.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for ring in registry().lock().unwrap().iter() {
        let mut inner = ring.inner.lock().unwrap();
        inner.buf.clear();
        inner.next = 0;
        inner.dropped = 0;
        inner.totals = Default::default();
        inner.instants.clear();
        inner.instants_next = 0;
        inner.instants_dropped = 0;
    }
}

/// RAII span: records a [`SpanEvent`] for `phase` from construction to
/// drop. A no-op (no clock read) when tracing is disabled.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    active: Option<(Phase, Option<Box<str>>, u64)>,
}

impl SpanGuard {
    /// A guard that records nothing; useful for conditional spans.
    pub fn disabled() -> SpanGuard {
        SpanGuard { active: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((phase, detail, start_ns)) = self.active.take() {
            let dur_ns = now_ns().saturating_sub(start_ns);
            record(SpanEvent {
                phase,
                detail,
                start_ns,
                dur_ns,
            });
        }
    }
}

/// Start an unlabelled span for `phase`.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard {
        active: Some((phase, None, now_ns())),
    }
}

/// Start a span for `phase` labelled with `detail` (typically a rule id).
#[inline]
pub fn span_with(phase: Phase, detail: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard {
        active: Some((phase, Some(detail.into()), now_ns())),
    }
}

/// Add `n` to a counter. A no-op when tracing is disabled.
#[inline]
pub fn count(counter: Counter, n: u64) {
    if is_enabled() {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of a counter.
pub fn counter_value(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// All spans recorded by one thread.
#[derive(Clone, Debug)]
pub struct Lane {
    pub tid: u64,
    pub name: String,
    /// In recording order (oldest surviving span first).
    pub spans: Vec<SpanEvent>,
    /// Spans overwritten because the ring filled up.
    pub dropped: u64,
    /// Count and time of every span recorded, indexed by phase
    /// ([`Phase::ALL`] order), overwritten spans included.
    pub totals: [Total; Phase::ALL.len()],
    /// Instant markers, oldest surviving first.
    pub instants: Vec<InstantEvent>,
    /// Instants overwritten because their ring filled up.
    pub instants_dropped: u64,
}

/// Aggregate time + count for one phase or one detail label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
}

/// A cross-thread snapshot of everything recorded so far.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    pub lanes: Vec<Lane>,
    /// Counter name -> value, for every counter (zeros included).
    pub counters: BTreeMap<&'static str, u64>,
}

/// Snapshot all rings and counters. Threads may keep recording after
/// the snapshot; call this after the run's workers have finished.
pub fn collect() -> TraceData {
    let mut lanes = Vec::new();
    for ring in registry().lock().unwrap().iter() {
        let inner = ring.inner.lock().unwrap();
        let mut spans = Vec::with_capacity(inner.buf.len());
        if inner.buf.len() == RING_CAPACITY {
            spans.extend_from_slice(&inner.buf[inner.next..]);
            spans.extend_from_slice(&inner.buf[..inner.next]);
        } else {
            spans.extend_from_slice(&inner.buf);
        }
        let mut instants = Vec::with_capacity(inner.instants.len());
        if inner.instants.len() == RING_CAPACITY {
            instants.extend_from_slice(&inner.instants[inner.instants_next..]);
            instants.extend_from_slice(&inner.instants[..inner.instants_next]);
        } else {
            instants.extend_from_slice(&inner.instants);
        }
        lanes.push(Lane {
            tid: ring.tid,
            name: ring.name.clone(),
            spans,
            dropped: inner.dropped,
            totals: inner.totals,
            instants,
            instants_dropped: inner.instants_dropped,
        });
    }
    lanes.sort_by_key(|l| l.tid);
    let mut counters = BTreeMap::new();
    for c in Counter::ALL {
        counters.insert(c.name(), counter_value(c));
    }
    TraceData { lanes, counters }
}

impl TraceData {
    /// Spans recorded across all lanes.
    pub fn span_count(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }

    /// Spans lost to ring wraparound across all lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// Per-phase totals across all lanes, keyed by [`Phase::name`], for
    /// every phase that recorded a span. Exact even when a ring wrapped.
    pub fn phase_totals(&self) -> BTreeMap<&'static str, Total> {
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for lane in &self.lanes {
            for (phase, lane_total) in Phase::ALL.iter().zip(&lane.totals) {
                if lane_total.count > 0 {
                    let t = totals.entry(phase.name()).or_default();
                    t.count += lane_total.count;
                    t.total_ns += lane_total.total_ns;
                }
            }
        }
        totals
    }

    /// Write Chrome trace-event JSON: metadata events naming the process
    /// and each lane (with a numeric `thread_sort_index` so Perfetto
    /// orders `worker-10` after `worker-2` instead of lexicographically),
    /// one complete ("X") event per span, and one instant ("i") event per
    /// recorded marker. Open the file in Perfetto (ui.perfetto.dev) or
    /// chrome://tracing.
    pub fn write_chrome<W: Write>(&self, w: &mut W) -> io::Result<()> {
        // The process metadata event always comes first, so every later
        // event starts with its separator.
        write!(
            w,
            "{{\"traceEvents\":[\n{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"spatch\"}}}}"
        )?;
        for lane in &self.lanes {
            write!(
                w,
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}},\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{}}}}}",
                Str(&lane.name),
                lane_sort_index(&lane.name, lane.tid),
                tid = lane.tid,
            )?;
        }
        // Ends a span or instant event, with its detail if it has one.
        let close = |w: &mut W, detail: &Option<Box<str>>| match detail {
            Some(d) => write!(w, ",\"args\":{{\"detail\":{}}}}}", Str(d)),
            None => write!(w, "}}"),
        };
        for lane in &self.lanes {
            for span in &lane.spans {
                write!(
                    w,
                    ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                     \"name\":\"{}\"",
                    lane.tid,
                    span.start_ns as f64 / 1000.0,
                    span.dur_ns as f64 / 1000.0,
                    span.phase.name()
                )?;
                close(w, &span.detail)?;
            }
            for inst in &lane.instants {
                write!(
                    w,
                    ",\n{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"s\":\"t\",\
                     \"name\":\"{}\"",
                    lane.tid,
                    inst.ts_ns as f64 / 1000.0,
                    inst.name
                )?;
                close(w, &inst.detail)?;
            }
        }
        writeln!(w, "\n]}}")
    }
}

/// Numeric Perfetto sort key for a lane: `worker-10` sorts after
/// `worker-2` by its trailing number; unnumbered lanes (the main
/// thread) come first, and ties fall back to registration order.
fn lane_sort_index(name: &str, tid: u64) -> u64 {
    match name.rsplit('-').next().and_then(|n| n.parse::<u64>().ok()) {
        // +1 keeps index 0 free for unnumbered lanes; the multiplier
        // leaves room for the tid tiebreak without collisions.
        Some(n) => (n + 1) * 1_000 + tid,
        None => tid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; serialize the tests that touch it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let _s = span(Phase::Parse);
            count(Counter::FilesParsed, 3);
        }
        let data = collect();
        assert_eq!(data.span_count(), 0);
        assert_eq!(data.counters["files_parsed"], 0);
    }

    #[test]
    fn span_nesting_is_preserved() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _outer = span(Phase::TreeMatch);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span_with(Phase::Rewrite, "rule-x");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let data = collect();
        set_enabled(false);
        // Inner drops first, so it is recorded first.
        let spans: Vec<&SpanEvent> = data.lanes.iter().flat_map(|l| &l.spans).collect();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.phase == Phase::Rewrite).unwrap();
        let outer = spans.iter().find(|s| s.phase == Phase::TreeMatch).unwrap();
        assert_eq!(inner.detail.as_deref(), Some("rule-x"));
        // The inner interval lies within the outer interval.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(
            inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns,
            "inner [{} +{}] escapes outer [{} +{}]",
            inner.start_ns,
            inner.dur_ns,
            outer.start_ns,
            outer.dur_ns
        );
    }

    #[test]
    fn ring_buffer_wraps_and_counts_dropped() {
        let _g = lock();
        set_enabled(true);
        reset();
        let extra = 100;
        for i in 0..RING_CAPACITY + extra {
            record(SpanEvent {
                phase: Phase::Parse,
                detail: Some(format!("s{i}").into()),
                start_ns: i as u64,
                dur_ns: 1,
            });
        }
        let data = collect();
        set_enabled(false);
        let lane = data
            .lanes
            .iter()
            .find(|l| !l.spans.is_empty())
            .expect("one lane recorded");
        assert_eq!(lane.spans.len(), RING_CAPACITY);
        assert_eq!(lane.dropped, extra as u64);
        // Oldest surviving span first, newest last.
        assert_eq!(lane.spans[0].start_ns, extra as u64);
        assert_eq!(
            lane.spans.last().unwrap().start_ns,
            (RING_CAPACITY + extra - 1) as u64
        );
        assert_eq!(data.dropped(), extra as u64);
        // Phase totals count the overwritten spans too.
        let parse = data.phase_totals()["parse"];
        assert_eq!(parse.count, (RING_CAPACITY + extra) as u64);
        assert_eq!(parse.total_ns, (RING_CAPACITY + extra) as u64);
    }

    #[test]
    fn cross_thread_aggregation_sums_lanes() {
        let _g = lock();
        set_enabled(true);
        reset();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for _ in 0..10 {
                        let _s = span_with(Phase::FlowMatch, &format!("rule-{t}"));
                        count(Counter::WitnessesForked, 1);
                    }
                });
            }
        });
        let data = collect();
        set_enabled(false);
        assert_eq!(data.counters["witnesses_forked"], 40);
        let totals = data.phase_totals();
        assert_eq!(totals["flow_match"].count, 40);
        // Four distinct lanes recorded spans.
        let active = data.lanes.iter().filter(|l| !l.spans.is_empty()).count();
        assert_eq!(active, 4);
    }

    #[test]
    fn chrome_output_is_wellformed_and_names_phases() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _a = span(Phase::Walk);
            let _b = span_with(Phase::Report, "quote\"me");
        }
        let data = collect();
        set_enabled(false);
        let mut out = Vec::new();
        data.write_chrome(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"name\":\"walk\""));
        assert!(text.contains("\"name\":\"report\""));
        assert!(text.contains("quote\\\"me"));
        assert!(text.contains("\"thread_name\""));
    }

    #[test]
    fn chrome_metadata_orders_workers_numerically() {
        // Perfetto sorts lanes by thread_sort_index when present;
        // without it, `worker-10` sorts before `worker-2`
        // lexicographically. The emitted metadata must give worker-10
        // the larger sort key.
        let _g = lock();
        set_enabled(true);
        reset();
        for w in [2usize, 10] {
            std::thread::Builder::new()
                .name(format!("worker-{w}"))
                .spawn(|| {
                    let _s = span(Phase::Parse);
                })
                .unwrap()
                .join()
                .unwrap();
        }
        let data = collect();
        set_enabled(false);
        let mut out = Vec::new();
        data.write_chrome(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"process_name\""));
        assert!(text.contains("\"args\":{\"name\":\"spatch\"}"));
        let sort_key = |name: &str| -> u64 {
            let lane = data
                .lanes
                .iter()
                .find(|l| l.name == name)
                .unwrap_or_else(|| panic!("no lane {name}"));
            let marker = format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":",
                lane.tid
            );
            let at = text.find(&marker).expect("sort_index metadata present");
            let rest = &text[at + marker.len()..];
            rest[..rest.find('}').unwrap()].parse().unwrap()
        };
        assert!(
            sort_key("worker-2") < sort_key("worker-10"),
            "worker-10 must sort after worker-2 numerically"
        );
    }

    #[test]
    fn instants_record_and_render_as_i_events() {
        let _g = lock();
        set_enabled(false);
        instant("kill_anchor", Some("ignored while disabled"));
        set_enabled(true);
        reset();
        instant("kill_gap_walk", Some("a.c: rule-x"));
        instant("kill_timeout", None);
        let data = collect();
        set_enabled(false);
        let instants: Vec<&InstantEvent> = data.lanes.iter().flat_map(|l| &l.instants).collect();
        assert_eq!(instants.len(), 2);
        assert_eq!(instants[0].name, "kill_gap_walk");
        assert_eq!(instants[0].detail.as_deref(), Some("a.c: rule-x"));
        let mut out = Vec::new();
        data.write_chrome(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"name\":\"kill_gap_walk\""));
        assert!(!text.contains("kill_anchor"), "disabled instants dropped");
    }

    /// The Chrome-trace writer's exact bytes on a hand-built snapshot:
    /// metadata for a plain and a numbered lane, a span whose detail
    /// needs every kind of escape, and instants with and without detail.
    #[test]
    fn chrome_output_bytes_are_pinned() {
        let span = |phase, detail: Option<&str>, start_ns, dur_ns| SpanEvent {
            phase,
            detail: detail.map(Into::into),
            start_ns,
            dur_ns,
        };
        let lane = |tid, name: &str, spans, instants| Lane {
            tid,
            name: name.to_string(),
            spans,
            dropped: 0,
            totals: Default::default(),
            instants,
            instants_dropped: 0,
        };
        let data = TraceData {
            lanes: vec![
                lane(
                    1,
                    "main",
                    vec![span(Phase::Walk, None, 1_500, 250_000)],
                    vec![InstantEvent {
                        name: "kill_anchor",
                        detail: Some("a.c: r\t1".into()),
                        ts_ns: 7,
                    }],
                ),
                lane(
                    3,
                    "worker-10",
                    vec![span(
                        Phase::TreeMatch,
                        Some("q\"b\\s\nn\u{1}é"),
                        1_234_567,
                        5,
                    )],
                    vec![InstantEvent {
                        name: "kill_timeout",
                        detail: None,
                        ts_ns: 2_000_001,
                    }],
                ),
            ],
            counters: BTreeMap::new(),
        };
        let mut out = Vec::new();
        data.write_chrome(&mut out).unwrap();
        let expect = r#"{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"spatch"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"main"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_sort_index","args":{"sort_index":1}},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"worker-10"}},
{"ph":"M","pid":1,"tid":3,"name":"thread_sort_index","args":{"sort_index":11003}},
{"ph":"X","pid":1,"tid":1,"ts":1.500,"dur":250.000,"name":"walk"},
{"ph":"i","pid":1,"tid":1,"ts":0.007,"s":"t","name":"kill_anchor","args":{"detail":"a.c: r\t1"}},
{"ph":"X","pid":1,"tid":3,"ts":1234.567,"dur":0.005,"name":"tree_match","args":{"detail":"q\"b\\s\nn\u0001é"}},
{"ph":"i","pid":1,"tid":3,"ts":2000.001,"s":"t","name":"kill_timeout"}
]}
"#;
        assert_eq!(String::from_utf8(out).unwrap(), expect);
    }

    #[test]
    fn funnel_counters_have_stable_names() {
        assert_eq!(Counter::ALL.len(), COUNTER_COUNT);
        assert_eq!(Counter::Attempts.name(), "attempts");
        assert_eq!(Counter::KillPrefilter.name(), "kill_prefilter");
        assert_eq!(Counter::KillTimeout.name(), "kill_timeout");
        // Names are unique: the counters BTreeMap keys on them.
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT);
    }
}
