//! Work queue and ordered result slots for corpus runs.
//!
//! The original drivers spawned a fresh scoped-thread team per batch and
//! joined it at the batch boundary — a barrier at which every worker
//! idles while the slowest file of the batch finishes, repeated once per
//! batch. The corpus drivers now keep **one persistent team** alive for
//! the whole run and feed it through a [`WorkQueue`]: the producer (the
//! walker thread) queues work units one at a time while workers drain,
//! and a worker that finishes takes the oldest waiting unit instead of
//! waiting for the next batch.
//!
//! Determinism is preserved by separating *scheduling* from *output
//! order*: every unit carries the index of a preassigned cell in a
//! [`ResultSlots`], reserved by the producer in encounter order. Workers
//! complete cells in any order; the producer drains the filled prefix in
//! index order, so sinks and reports observe exactly the sequence the
//! walker produced, byte-identical across thread counts, completion
//! orders and batch-size choices.
//!
//! Both types are std-only: one `Mutex<VecDeque>` and one `Condvar`
//! each. The units here are whole-file parses and a worker holds the
//! queue's lock only to take one, so sharing that lock costs the team
//! nothing measurable.

use crate::report::PoolMetrics;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

const POISONED: &str = "a worker panicked holding the work queue";

/// A FIFO of work units shared by one worker team.
///
/// `pop` hands out the oldest unit, blocks while the queue is empty and
/// open, and returns `None` only after [`close`](WorkQueue::close) once
/// the queue has drained.
pub struct WorkQueue<T> {
    state: Mutex<Queue<T>>,
    cond: Condvar,
    workers: usize,
}

struct Queue<T> {
    items: VecDeque<T>,
    closed: bool,
    /// High-water mark of `items.len()`.
    depth_max: usize,
    /// Nanoseconds workers spent blocked in `pop`, summed.
    idle_ns: u64,
}

impl<T> WorkQueue<T> {
    /// A queue for a team of `workers` (at least one).
    pub fn new(workers: usize) -> WorkQueue<T> {
        WorkQueue {
            state: Mutex::new(Queue {
                items: VecDeque::new(),
                closed: false,
                depth_max: 0,
                idle_ns: 0,
            }),
            cond: Condvar::new(),
            workers: workers.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Queue<T>> {
        self.state.lock().expect(POISONED)
    }

    /// Snapshot the scheduler-health counters accumulated so far.
    pub fn stats(&self) -> PoolMetrics {
        let q = self.lock();
        PoolMetrics {
            workers: self.workers,
            idle_ns: q.idle_ns,
            queue_depth_max: q.depth_max as u64,
        }
    }

    /// Append one unit behind everything queued.
    pub fn push(&self, item: T) {
        let mut q = self.lock();
        q.items.push_back(item);
        q.depth_max = q.depth_max.max(q.items.len());
        self.cond.notify_all();
    }

    /// Declare the stream finished: blocked and future `pop`s return
    /// `None` once the queue drains.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    /// Take the oldest unit, blocking while the queue is empty and open.
    /// Returns `None` when the queue is closed and empty.
    pub fn pop(&self) -> Option<T> {
        let starved = |q: &mut Queue<T>| q.items.is_empty() && !q.closed;
        let mut q = self.lock();
        if starved(&mut q) {
            let blocked = Instant::now();
            q = self.cond.wait_while(q, starved).expect(POISONED);
            q.idle_ns += blocked.elapsed().as_nanos() as u64;
        }
        q.items.pop_front()
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

    /// Reserve the next cell; returns its index.
    pub fn reserve(&self) -> usize {
        let mut s = self.inner.lock().unwrap();
        s.cells.push_back(None);
        s.base + s.cells.len() - 1
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn queue_delivers_everything_once() {
        let q: WorkQueue<usize> = WorkQueue::new(4);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let (q, seen) = (&q, &seen);
            for _ in 0..4 {
                scope.spawn(move || {
                    while let Some(i) = q.pop() {
                        seen.lock().unwrap().push(i);
                    }
                });
            }
            for i in 0..200 {
                q.push(i);
            }
            q.close();
        });
        let mut got = seen.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_receives_units_in_push_order() {
        let q: WorkQueue<usize> = WorkQueue::new(2);
        (0..3).for_each(|i| q.push(i));
        let mut got = vec![q.pop().unwrap()];
        (3..8).for_each(|i| q.push(i));
        got.extend((0..3).map(|_| q.pop().unwrap()));
        (8..10).for_each(|i| q.push(i));
        q.close();
        got.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(got, (0..10).collect::<Vec<_>>(), "FIFO across pushes");
        let stats = q.stats();
        assert_eq!(stats.workers, 2);
        // 2 left + 5 pushed: the high-water mark, not the final depth
        // (6) or the units pushed (10).
        assert_eq!(stats.queue_depth_max, 7);
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q: WorkQueue<u32> = WorkQueue::new(1);
        let got = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while let Some(v) = q.pop() {
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
    fn result_slots_reorder_out_of_order_completions() {
        let slots: ResultSlots<&str> = ResultSlots::new();
        assert_eq!([(); 3].map(|_| slots.reserve()), [0, 1, 2]);
        slots.set(2, "c");
        assert!(slots.drain_until(3).is_empty(), "prefix not filled yet");
        slots.set(0, "a");
        assert_eq!(slots.drain_until(3), ["a"], "only the filled prefix");
        assert_eq!(slots.reserve(), 3, "indices keep counting after drain");
        slots.set(1, "b");
        slots.set(3, "d");
        assert_eq!(slots.drain_until(0), ["b", "c", "d"]);
    }

    #[test]
    fn drain_all_waits_for_stragglers() {
        let slots: ResultSlots<usize> = ResultSlots::new();
        for _ in 0..10 {
            slots.reserve();
        }
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
    fn blocked_pop_accrues_idle_time() {
        let q: WorkQueue<u32> = WorkQueue::new(1);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ = q.pop();
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.push(1);
            q.close();
        });
        let stats = q.stats();
        assert!(stats.idle_ns > 0, "{stats:?}");
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
