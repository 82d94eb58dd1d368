//! Work-stealing queue and ordered result slots for corpus runs.
//!
//! The original drivers spawned a fresh scoped-thread team per batch and
//! joined it at the batch boundary — a barrier at which every worker
//! idles while the slowest file of the batch finishes, repeated once per
//! batch. The corpus drivers now keep **one persistent team** alive for
//! the whole run and feed it through a [`WorkQueue`]: the producer (the
//! walker thread) streams work units in chunks while workers drain, and
//! an idle worker steals from its neighbours instead of waiting for the
//! next batch.
//!
//! Determinism is preserved by separating *scheduling* from *output
//! order*: every unit carries the index of a preassigned cell in a
//! [`ResultSlots`], reserved by the producer in encounter order. Workers
//! complete cells in any order; the producer drains the filled prefix in
//! index order, so sinks and reports observe exactly the sequence the
//! walker produced, byte-identical across thread counts, steal patterns
//! and batch-size choices.
//!
//! Both types are std-only: shards are `Mutex<VecDeque>`s (an uncontended
//! lock is a compare-and-swap — the units here are whole-file parses, so
//! queue overhead is noise) and blocking uses one `Condvar`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Scheduler-health counters for one [`WorkQueue`] (one corpus run).
///
/// Kept unconditionally — each is a relaxed atomic touched only on the
/// push path or the already-expensive steal/block path — so scheduler
/// health is observable even in untraced runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Shards the queue was sized for (= worker count).
    pub workers: usize,
    /// Units a worker took from a neighbour's shard, per worker.
    pub steals: Vec<u64>,
    /// Nanoseconds each worker spent blocked waiting for work.
    pub idle_ns: Vec<u64>,
    /// High-water mark of units queued and not yet popped.
    pub queue_depth_max: u64,
}

impl PoolStats {
    /// Total steals across workers.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }

    /// Total idle nanoseconds across workers.
    pub fn total_idle_ns(&self) -> u64 {
        self.idle_ns.iter().sum()
    }

    /// Fraction of the team's wall-clock budget spent idle, given the
    /// run's wall time. Clamped to `0..=1`.
    pub fn idle_frac(&self, wall_seconds: f64) -> f64 {
        let budget_ns = wall_seconds * 1e9 * self.workers.max(1) as f64;
        if budget_ns <= 0.0 {
            return 0.0;
        }
        (self.total_idle_ns() as f64 / budget_ns).clamp(0.0, 1.0)
    }
}

/// A sharded work queue: one deque per worker plus an overflow shard for
/// producers, with stealing between shards.
///
/// * the producer pushes round-robin across shards (chunks land on one
///   shard each, keeping cache-warm runs of same-file units together);
/// * worker `w` pops from the **back** of shard `w` (LIFO — its own most
///   recent, cache-warm work);
/// * an idle worker steals from the **front** of the other shards (FIFO —
///   the oldest work, which the owner would reach last);
/// * `pop` blocks when everything is empty and returns `None` only after
///   [`close`](WorkQueue::close).
pub struct WorkQueue<T> {
    shards: Box<[Mutex<VecDeque<T>>]>,
    /// Round-robin cursor for producer pushes.
    cursor: AtomicUsize,
    /// Items pushed and not yet popped. Incremented under the shard lock
    /// that makes the items visible (so a pop can never run ahead of it
    /// and wrap it below zero) and *before* the wakeup notification;
    /// sleeping workers re-check it under the state lock, so a push
    /// between "shards look empty" and "wait" cannot be missed.
    pending: AtomicUsize,
    closed: Mutex<bool>,
    cond: Condvar,
    /// Per-worker counts of units taken from a neighbour's shard.
    steals: Box<[AtomicU64]>,
    /// Per-worker nanoseconds spent blocked in `pop`.
    idle_ns: Box<[AtomicU64]>,
    /// High-water mark of `pending`.
    depth_max: AtomicU64,
}

impl<T> WorkQueue<T> {
    /// A queue with one shard per worker (at least one).
    pub fn new(workers: usize) -> WorkQueue<T> {
        let n = workers.max(1);
        WorkQueue {
            shards: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            closed: Mutex::new(false),
            cond: Condvar::new(),
            steals: (0..n).map(|_| AtomicU64::new(0)).collect(),
            idle_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            depth_max: AtomicU64::new(0),
        }
    }

    /// Snapshot the scheduler-health counters accumulated so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.shards.len(),
            steals: self
                .steals
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            idle_ns: self
                .idle_ns
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            queue_depth_max: self.depth_max.load(Ordering::Relaxed),
        }
    }

    /// Number of shards (= workers the queue was sized for).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Push one unit onto the next shard (round-robin).
    pub fn push(&self, item: T) {
        let s = self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let depth = {
            let mut shard = self.shards[s].lock().unwrap();
            shard.push_back(item);
            self.pending.fetch_add(1, Ordering::SeqCst) + 1
        };
        self.depth_max.fetch_max(depth as u64, Ordering::Relaxed);
        let _guard = self.closed.lock().unwrap();
        self.cond.notify_one();
    }

    /// Push a chunk of units onto one shard, keeping them adjacent (a
    /// worker that grabs the shard processes the run back-to-back; other
    /// workers steal from the far end).
    pub fn push_chunk(&self, items: impl IntoIterator<Item = T>) {
        let s = self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut n = 0usize;
        let depth = {
            let mut shard = self.shards[s].lock().unwrap();
            for it in items {
                shard.push_back(it);
                n += 1;
            }
            self.pending.fetch_add(n, Ordering::SeqCst) + n
        };
        if n > 0 {
            self.depth_max.fetch_max(depth as u64, Ordering::Relaxed);
            let _guard = self.closed.lock().unwrap();
            self.cond.notify_all();
        }
    }

    /// Declare the stream finished: blocked and future `pop`s return
    /// `None` once the queue drains.
    pub fn close(&self) {
        let mut closed = self.closed.lock().unwrap();
        *closed = true;
        self.cond.notify_all();
    }

    /// Take one unit for worker `worker`: own shard's back first, then
    /// steal from the front of the others, then block. Returns `None`
    /// when the queue is closed and empty.
    pub fn pop(&self, worker: usize) -> Option<T> {
        let n = self.shards.len();
        let w = worker % n;
        loop {
            if let Some(item) = self.shards[w].lock().unwrap().pop_back() {
                self.taken();
                return Some(item);
            }
            for off in 1..n {
                if let Some(item) = self.shards[(w + off) % n].lock().unwrap().pop_front() {
                    self.taken();
                    self.steals[w].fetch_add(1, Ordering::Relaxed);
                    return Some(item);
                }
            }
            let closed = self.closed.lock().unwrap();
            // Re-check under the lock: a producer that pushed after our
            // scan has already bumped `pending`, so we scan again instead
            // of sleeping through its notification.
            if self.pending.load(Ordering::SeqCst) > 0 {
                continue;
            }
            if *closed {
                return None;
            }
            let blocked = Instant::now();
            let _unused = self.cond.wait(closed).unwrap();
            self.idle_ns[w].fetch_add(blocked.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Count one popped item out of `pending`.
    fn taken(&self) {
        let before = self.pending.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(before > 0, "pop ran ahead of its push's count");
    }
}

/// Preassigned, in-order result cells.
///
/// The producer [`reserve`](ResultSlots::reserve)s cells in encounter
/// order and hands each work unit its cell index; workers
/// [`set`](ResultSlots::set) cells as they finish, in any order. The
/// producer then [`drain_until`](ResultSlots::drain_until)s the *filled
/// prefix* — results come out exactly in reservation order, whatever the
/// completion order was, which is what keeps corpus output
/// byte-identical across thread counts.
pub struct ResultSlots<T> {
    inner: Mutex<Slots<T>>,
    cond: Condvar,
}

struct Slots<T> {
    /// Index of `cells[0]` in the global reservation sequence.
    base: usize,
    cells: VecDeque<Option<T>>,
}

impl<T> Default for ResultSlots<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ResultSlots<T> {
    /// An empty slot sequence.
    pub fn new() -> ResultSlots<T> {
        ResultSlots {
            inner: Mutex::new(Slots {
                base: 0,
                cells: VecDeque::new(),
            }),
            cond: Condvar::new(),
        }
    }

    /// Reserve `n` consecutive cells; returns the index of the first.
    pub fn reserve(&self, n: usize) -> usize {
        let mut s = self.inner.lock().unwrap();
        let start = s.base + s.cells.len();
        s.cells.extend((0..n).map(|_| None));
        start
    }

    /// Fill cell `index` (reserved earlier; filled exactly once).
    pub fn set(&self, index: usize, value: T) {
        let mut s = self.inner.lock().unwrap();
        let i = index - s.base;
        debug_assert!(s.cells[i].is_none(), "result slot {index} filled twice");
        s.cells[i] = Some(value);
        self.cond.notify_all();
    }

    /// Pop the filled prefix, blocking until at most `left` reserved
    /// cells remain undrained: `drain_until(0)` waits for every result.
    pub fn drain_until(&self, left: usize) -> Vec<T> {
        let mut s = self.inner.lock().unwrap();
        let mut out = Vec::new();
        loop {
            out.extend(s.take_ready());
            if s.cells.len() <= left {
                return out;
            }
            s = self.cond.wait(s).unwrap();
        }
    }
}

impl<T> Slots<T> {
    fn take_ready(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        while matches!(self.cells.front(), Some(Some(_))) {
            out.push(self.cells.pop_front().unwrap().unwrap());
            self.base += 1;
        }
        out
    }
}

/// Resolve a thread-count option: 0 means all available CPUs.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn queue_delivers_everything_once() {
        let q: WorkQueue<usize> = WorkQueue::new(4);
        assert_eq!(q.shards(), 4);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let (q, seen) = (&q, &seen);
            for w in 0..4 {
                scope.spawn(move || {
                    while let Some(i) = q.pop(w) {
                        seen.lock().unwrap().push(i);
                    }
                });
            }
            for i in 0..100 {
                q.push(i);
            }
            q.push_chunk(100..200);
            q.close();
        });
        let mut got = seen.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn idle_workers_steal_from_loaded_shards() {
        // All items land on shard 0 (single chunk), but worker 0 never
        // pops — workers 1..3 must steal everything through the fronts
        // of their neighbours' shards.
        let q: WorkQueue<usize> = WorkQueue::new(4);
        q.push_chunk(0..50);
        q.close();
        let stolen = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (q, stolen) = (&q, &stolen);
            for w in 1..4 {
                scope.spawn(move || {
                    while q.pop(w).is_some() {
                        stolen.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(stolen.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q: WorkQueue<u32> = WorkQueue::new(1);
        let got = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while let Some(v) = q.pop(0) {
                    got.fetch_add(v as usize, Ordering::SeqCst);
                }
                done.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.push(7);
            q.push(5);
            q.close();
        });
        assert_eq!(got.load(Ordering::SeqCst), 12);
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn pushes_are_counted_before_a_worker_can_pop_them() {
        // Workers pop the moment an item is visible; its push must
        // already be counted in `pending`, or the pop drives the count
        // below zero (a debug-build overflow that left the producer
        // panicking and the workers asleep).
        let q: WorkQueue<usize> = WorkQueue::new(2);
        // Miri interprets the CI pool tests; keep its run short.
        let total = if cfg!(miri) { 200 } else { 20_000 };
        let popped = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..2 {
                let (q, popped) = (&q, &popped);
                scope.spawn(move || {
                    while q.pop(w).is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for i in 0..total {
                if i % 2 == 0 {
                    q.push(i);
                } else {
                    q.push_chunk([i]);
                }
            }
            q.close();
        });
        assert_eq!(popped.load(Ordering::Relaxed), total);
        assert_eq!(q.pending.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn result_slots_reorder_out_of_order_completions() {
        let slots: ResultSlots<&str> = ResultSlots::new();
        assert_eq!(slots.reserve(3), 0);
        slots.set(2, "c");
        assert!(slots.drain_until(3).is_empty(), "prefix not filled yet");
        slots.set(0, "a");
        assert_eq!(slots.drain_until(3), ["a"], "only the filled prefix");
        assert_eq!(slots.reserve(1), 3, "indices keep counting after drain");
        slots.set(1, "b");
        slots.set(3, "d");
        assert_eq!(slots.drain_until(0), ["b", "c", "d"]);
    }

    #[test]
    fn drain_all_waits_for_stragglers() {
        let slots: ResultSlots<usize> = ResultSlots::new();
        slots.reserve(10);
        let out = std::thread::scope(|scope| {
            let h = scope.spawn(|| slots.drain_until(0));
            for i in (0..10).rev() {
                slots.set(i, i * i);
            }
            h.join().unwrap()
        });
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn stats_track_steals_and_queue_depth() {
        let q: WorkQueue<usize> = WorkQueue::new(4);
        q.push_chunk(0..50);
        assert_eq!(q.stats().queue_depth_max, 50);
        q.close();
        std::thread::scope(|scope| {
            let q = &q;
            for w in 1..4 {
                scope.spawn(move || while q.pop(w).is_some() {});
            }
        });
        let stats = q.stats();
        assert_eq!(stats.workers, 4);
        // Shard 0's owner never popped, so everything was stolen.
        assert_eq!(stats.total_steals(), 50);
        assert_eq!(stats.steals[0], 0);
    }

    #[test]
    fn blocked_pop_accrues_idle_time() {
        let q: WorkQueue<u32> = WorkQueue::new(1);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ = q.pop(0);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.push(1);
            q.close();
        });
        let stats = q.stats();
        assert!(stats.total_idle_ns() > 0, "{stats:?}");
        let frac = stats.idle_frac(1.0);
        assert!(frac > 0.0 && frac <= 1.0, "{frac}");
        assert_eq!(stats.idle_frac(0.0), 0.0);
    }

    #[test]
    fn resolve_threads_zero_means_all_cpus() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
