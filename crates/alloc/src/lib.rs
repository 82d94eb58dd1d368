//! A thread-caching slab allocator for the `spatch` binary, std only.
//!
//! A run makes millions of small allocations (AST nodes, bindings,
//! findings), and with glibc's malloc about a fifth of a one-worker
//! scan's CPU went to allocating and freeing them. [`SlabAlloc`] serves
//! every layout of at most 512 bytes and alignment at most 16 from the
//! calling thread's free list for its 16-byte size class (32 classes),
//! and passes every other layout to [`System`] unchanged:
//!
//! - Each thread has a *heap*: per class, a free list and the unused tail
//!   of the class's newest chunk. Only that thread touches them, so
//!   allocating and freeing a small block on its own thread takes no lock
//!   and no atomic operation.
//! - A heap refills a class from a 64 KiB chunk, aligned to its size
//!   and cut from a 4 MiB region that [`System`] gave and that is
//!   never returned. The chunk's header names the heap that cut it.
//! - A block freed on another thread goes onto its heap's lock-free
//!   remote list for its class, which the owner takes whole on its next
//!   miss. Blocks that workers allocate and the producer frees thus go
//!   back to the workers, and memory stays bounded by peak live bytes.
//! - Heaps live as long as the process. A thread that exits strands its
//!   heap's free blocks; `spatch` keeps one worker team per run, so a
//!   process has a few heaps.
//!
//! A binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cocci_alloc::SlabAlloc = cocci_alloc::SlabAlloc::new();
//! ```
//!
//! and [`SlabAlloc::stats`] reads the two slow paths it counts: chunks
//! cut and remote frees.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, UnsafeCell};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Size-class granularity, and the alignment of every block.
const QUANTUM: usize = 16;
/// Size classes: 16, 32, ..., 512 bytes.
const CLASSES: usize = 32;
/// The largest layout size served from a heap; larger ones go to
/// [`System`].
const MAX_SMALL: usize = QUANTUM * CLASSES;
/// The largest layout alignment served from a heap; larger ones go to
/// [`System`].
const MAX_ALIGN: usize = QUANTUM;
/// Bytes per chunk. A chunk is aligned to its size, so masking a block's
/// address finds its chunk's header.
const CHUNK: usize = 64 * 1024;
/// Bytes at the start of a chunk that hold its header; blocks follow.
const HEADER: usize = QUANTUM;
/// The regions asked of [`System`] and cut into chunks. Asking for each
/// aligned chunk on its own fragments System's heap: a one-worker apply
/// run's peak RSS grew by a fifth.
const REGION: Layout = match Layout::from_size_align(64 * CHUNK, CHUNK) {
    Ok(layout) => layout,
    Err(_) => panic!("a region is a whole number of aligned chunks"),
};

/// A free block; its first word links the next free block of its list.
struct Block {
    next: *mut Block,
}

/// The header at the start of every chunk.
struct Chunk {
    /// The heap that cut the chunk, which every block in it returns to.
    owner: *const Heap,
}

const _: () = assert!(std::mem::size_of::<Chunk>() <= HEADER);
const _: () = assert!(std::mem::size_of::<Block>() <= QUANTUM);
const _: () = assert!(CHUNK.is_power_of_two() && HEADER + MAX_SMALL <= CHUNK);

/// One thread's state for one size class.
#[derive(Clone, Copy)]
struct Class {
    /// Free blocks, linked through their first word.
    free: *mut Block,
    /// The unused tail of the class's newest chunk is `bump..end`; both
    /// are null before its first chunk.
    bump: *mut u8,
    end: *mut u8,
}

const EMPTY: Class = Class {
    free: ptr::null_mut(),
    bump: ptr::null_mut(),
    end: ptr::null_mut(),
};

/// One thread's heap. Made on the thread's first small allocation and
/// never freed, so a chunk header's `owner` stays valid for the life of
/// the process.
struct Heap {
    /// Per class; only the owning thread reads or writes these.
    classes: UnsafeCell<[Class; CLASSES]>,
    /// Per class, the blocks that other threads freed: they push, and the
    /// owner takes the whole list.
    remote: Remote,
}

/// Remote list heads, on cache lines of their own so that pushes from
/// other threads do not contend with the owner's free lists.
#[repr(align(64))]
struct Remote([AtomicPtr<Block>; CLASSES]);

thread_local! {
    /// The allocator that last served this thread, and this thread's heap
    /// in it. Const-initialised and without a destructor, so reading it
    /// never allocates and works for the whole life of the thread.
    static CACHE: Cell<(*const SlabAlloc, *const Heap)> =
        const { Cell::new((ptr::null(), ptr::null())) };
}

/// This thread's cached allocator and heap; nulls if it has none.
#[inline]
fn cached() -> (*const SlabAlloc, *const Heap) {
    CACHE
        .try_with(Cell::get)
        .unwrap_or((ptr::null(), ptr::null()))
}

/// The size class of `layout`, or `None` when it goes to [`System`].
#[inline]
fn class_of(layout: Layout) -> Option<usize> {
    if layout.size() <= MAX_SMALL && layout.align() <= MAX_ALIGN {
        Some(layout.size().saturating_sub(1) / QUANTUM)
    } else {
        None
    }
}

/// The header of the chunk that holds `block`.
#[inline]
fn chunk_of(block: *mut u8) -> *const Chunk {
    block.map_addr(|a| a & !(CHUNK - 1)).cast()
}

/// A thread-caching slab allocator for small layouts over [`System`];
/// see the crate docs.
///
/// Each thread keeps one heap, in the allocator that last served it. A
/// process installs one allocator, which keeps each thread's heap for
/// good; a thread that alternates between two allocators (only tests
/// make more than one) makes a new heap at each switch and strands the
/// old one's free blocks.
pub struct SlabAlloc {
    carver: Mutex<Carver>,
    chunks: AtomicU64,
    remote_frees: AtomicU64,
}

/// The region being cut into chunks is `next..end`; both are null before
/// the first region.
struct Carver {
    next: *mut u8,
    end: *mut u8,
}

// SAFETY: both pointers address a region that this allocator took from
// `System` and never frees, and they are read and moved only under the
// carver's lock, by whichever thread holds it.
unsafe impl Send for Carver {}

/// What an allocator's two slow paths have done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Chunks cut from regions, 64 KiB each.
    pub chunks: u64,
    /// Small blocks freed on a thread other than the one whose heap cut
    /// them.
    pub remote_frees: u64,
}

impl AllocStats {
    /// The bytes of the chunks cut.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunks * CHUNK as u64
    }
}

impl Default for SlabAlloc {
    fn default() -> Self {
        Self::new()
    }
}

impl SlabAlloc {
    /// An allocator with no heaps and no regions yet.
    pub const fn new() -> SlabAlloc {
        SlabAlloc {
            carver: Mutex::new(Carver {
                next: ptr::null_mut(),
                end: ptr::null_mut(),
            }),
            chunks: AtomicU64::new(0),
            remote_frees: AtomicU64::new(0),
        }
    }

    /// Read the counters.
    pub fn stats(&self) -> AllocStats {
        AllocStats {
            chunks: self.chunks.load(Ordering::Relaxed),
            remote_frees: self.remote_frees.load(Ordering::Relaxed),
        }
    }

    /// This thread's heap in this allocator, made on first use; null when
    /// [`System`] has no memory for it.
    #[inline]
    fn heap(&self) -> *const Heap {
        let (alloc, heap) = cached();
        if ptr::eq(alloc, self) {
            heap
        } else {
            self.new_heap()
        }
    }

    #[cold]
    fn new_heap(&self) -> *const Heap {
        // SAFETY: `Heap` has a nonzero size.
        let heap = unsafe { System.alloc(Layout::new::<Heap>()) }.cast::<Heap>();
        if !heap.is_null() {
            // SAFETY: `heap` is a fresh allocation of `Heap`'s layout.
            unsafe {
                heap.write(Heap {
                    classes: UnsafeCell::new([EMPTY; CLASSES]),
                    remote: Remote([const { AtomicPtr::new(ptr::null_mut()) }; CLASSES]),
                })
            };
            // Should the thread-local be gone, the next call makes another
            // heap: wasteful, never unsound.
            let _ = CACHE.try_with(|c| c.set((self, heap)));
        }
        heap
    }

    /// A block of class `c`; null when [`System`] is out of memory.
    #[inline]
    fn alloc_small(&self, c: usize) -> *mut u8 {
        let heap = self.heap();
        if heap.is_null() {
            return ptr::null_mut();
        }
        // SAFETY: `heap` is this thread's heap (`heap` caches it per
        // thread), it is never freed, and no other thread touches its
        // classes, so this is the only reference to them.
        let class = unsafe { &mut (*(*heap).classes.get())[c] };
        let block = class.free;
        if block.is_null() {
            // SAFETY: heaps are never freed, and `remote` is shared only
            // through atomics.
            let remote = unsafe { &(*heap).remote.0[c] };
            return self.refill(heap, class, remote, (c + 1) * QUANTUM);
        }
        // SAFETY: a block on a free list is free, at least one `Block` in
        // size and aligned to 16, and its first word links the next one.
        class.free = unsafe { (*block).next };
        block.cast()
    }

    /// A block of `size` bytes for `heap`'s `class`, whose free list is
    /// empty: from the blocks other threads freed (its `remote` list),
    /// else from the newest chunk's tail, else from a new chunk.
    #[inline(never)]
    fn refill(
        &self,
        heap: *const Heap,
        class: &mut Class,
        remote: &AtomicPtr<Block>,
        size: usize,
    ) -> *mut u8 {
        if !remote.load(Ordering::Relaxed).is_null() {
            // Acquire pairs with the Release push of every block on the
            // list (each push extends the release sequence), so their
            // links and the freeing threads' writes are visible here.
            let block = remote.swap(ptr::null_mut(), Ordering::Acquire);
            if !block.is_null() {
                // SAFETY: the list holds free blocks of this class, linked
                // as on a free list, and now only we hold it.
                class.free = unsafe { (*block).next };
                return block.cast();
            }
        }
        if class.end.addr() - class.bump.addr() < size {
            let chunk = self.cut_chunk();
            if chunk.is_null() {
                return chunk;
            }
            // SAFETY: `chunk` is `CHUNK` unused bytes aligned to `CHUNK`,
            // and the header fits in its first `HEADER` bytes.
            unsafe { chunk.cast::<Chunk>().write(Chunk { owner: heap }) };
            class.bump = chunk.wrapping_add(HEADER);
            class.end = chunk.wrapping_add(CHUNK);
        }
        let block = class.bump;
        class.bump = block.wrapping_add(size);
        block
    }

    /// A fresh chunk, cut from the current region or a new one; null when
    /// [`System`] is out of memory.
    fn cut_chunk(&self) -> *mut u8 {
        // Nothing panics while the lock is held, so it is never poisoned;
        // the recovery only keeps this path free of panics.
        let mut carver = self.carver.lock().unwrap_or_else(PoisonError::into_inner);
        if carver.next == carver.end {
            // SAFETY: `REGION` has a nonzero size.
            let region = unsafe { System.alloc(REGION) };
            if region.is_null() {
                return region;
            }
            carver.next = region;
            carver.end = region.wrapping_add(REGION.size());
        }
        let chunk = carver.next;
        carver.next = chunk.wrapping_add(CHUNK);
        drop(carver);
        self.chunks.fetch_add(1, Ordering::Relaxed);
        chunk
    }

    /// Return a block of class `c` to its heap: onto the free list if this
    /// thread owns the heap, else onto the heap's remote list.
    ///
    /// # Safety
    ///
    /// `block` came from [`alloc_small`](Self::alloc_small) for class `c`
    /// and is not yet freed.
    #[inline]
    unsafe fn free_small(&self, block: *mut u8, c: usize) {
        // SAFETY: `block` lies in a chunk cut by `refill`, whose header
        // names the heap that cut it.
        let owner = unsafe { (*chunk_of(block)).owner };
        let block = block.cast::<Block>();
        if ptr::eq(cached().1, owner) {
            // SAFETY: `owner` is this thread's heap, so no other thread
            // touches its classes, and the freed block, at least one
            // `Block` in size and aligned to 16, is ours to link.
            unsafe {
                let class = &mut (*(*owner).classes.get())[c];
                (*block).next = class.free;
                class.free = block;
            }
        } else {
            // SAFETY: heaps are never freed, and `remote` is shared only
            // through atomics; as above, `block` is a free block of
            // `owner`'s class `c`.
            unsafe { self.remote_free(&(*owner).remote.0[c], block) }
        }
    }

    /// Push a block onto the remote list `head`.
    ///
    /// # Safety
    ///
    /// `block` is a free block of the heap and class that own `head`, and
    /// no one else holds it.
    #[inline(never)]
    unsafe fn remote_free(&self, head: &AtomicPtr<Block>, block: *mut Block) {
        self.remote_frees.fetch_add(1, Ordering::Relaxed);
        let mut next = head.load(Ordering::Relaxed);
        loop {
            // SAFETY: the block is ours to write until the push below
            // publishes it.
            unsafe { (*block).next = next };
            // Release publishes the link, and the caller's last writes to
            // the block, to the owner's Acquire take. The owner only ever
            // takes the whole list, so a head that reads `next` again is
            // still the right successor (no ABA).
            match head.compare_exchange_weak(next, block, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => return,
                Err(now) => next = now,
            }
        }
    }
}

// SAFETY: every block returned is valid for its layout and disjoint from
// every other live block, because:
// - A layout of at most `MAX_SMALL` bytes and alignment at most
//   `MAX_ALIGN` is served from the size class `class_of` takes from its
//   size; every other layout goes to `System` with its own contract.
//   `dealloc` and `realloc` receive the layout the block was allocated
//   with (the `GlobalAlloc` contract), so they pick the same path and
//   class.
// - Chunks are `CHUNK` bytes aligned to `CHUNK`, cut once each from
//   regions that are never returned. A chunk serves one class of one
//   heap: `HEADER` bytes of header naming that heap, then blocks of the
//   class size, a multiple of 16, at 16-byte offsets. So every block is
//   aligned to 16 and holds its class size, and masking its address
//   finds the header.
// - A heap's free lists and chunk tails are touched only by the thread
//   that cached the heap (`CACHE`), and heaps are never freed. Other
//   threads reach a heap only through its remote lists, with atomics.
// - A block is on at most one list at a time, and on none while live.
// No path allocates through this allocator (heaps and regions come from
// `System`, the thread-local has no destructor) or panics, and the only
// lock, the carver's, is taken when a chunk is cut.
unsafe impl GlobalAlloc for SlabAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match class_of(layout) {
            Some(c) => self.alloc_small(c),
            // SAFETY: the caller meets `alloc`'s contract, which is
            // System's.
            None => unsafe { System.alloc(layout) },
        }
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let Some(c) = class_of(layout) else {
            // SAFETY: as in `alloc`.
            return unsafe { System.alloc_zeroed(layout) };
        };
        let block = self.alloc_small(c);
        if !block.is_null() {
            // SAFETY: the block holds at least `layout.size()` bytes.
            unsafe { ptr::write_bytes(block, 0, layout.size()) };
        }
        block
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        match class_of(layout) {
            // SAFETY: `ptr` was allocated with `layout` (the caller's
            // contract), so it came from `alloc_small` for class `c`.
            Some(c) => unsafe { self.free_small(ptr, c) },
            // SAFETY: likewise, it came from `System` with `layout`.
            None => unsafe { System.dealloc(ptr, layout) },
        }
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees that `new_size`, rounded up to the
        // alignment, does not overflow `isize`.
        let new = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        match (class_of(layout), class_of(new)) {
            // SAFETY: `ptr` came from `System` with `layout`, and the
            // caller meets the rest of `realloc`'s contract.
            (None, None) => unsafe { System.realloc(ptr, layout, new_size) },
            // The block already holds the class's size.
            (Some(old), Some(c)) if old == c => ptr,
            _ => {
                // SAFETY: `new` has a nonzero size (the caller's contract).
                let moved = unsafe { self.alloc(new) };
                if !moved.is_null() {
                    // SAFETY: both blocks hold the bytes copied, and a live
                    // block and a fresh one are disjoint; `ptr` was
                    // allocated with `layout`.
                    unsafe {
                        ptr::copy_nonoverlapping(ptr, moved, layout.size().min(new_size));
                        self.dealloc(ptr, layout);
                    }
                }
                moved
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    /// Allocate `l` from `a` and write `seed`'s pattern over it.
    fn alloc_filled(a: &SlabAlloc, l: Layout, seed: u8) -> *mut u8 {
        // SAFETY: every layout in these tests has a nonzero size.
        let block = unsafe { a.alloc(l) };
        assert!(!block.is_null(), "{l:?}");
        // SAFETY: the block is live and holds `l.size()` bytes.
        unsafe { fill(block, l.size(), seed) };
        block
    }

    /// Write `seed`'s pattern over the first `len` bytes of `block`.
    ///
    /// # Safety
    ///
    /// `block` is live and holds at least `len` bytes.
    unsafe fn fill(block: *mut u8, len: usize, seed: u8) {
        for i in 0..len {
            // SAFETY: `i < len`, within the block (the caller's contract).
            unsafe { block.add(i).write(seed.wrapping_add(i as u8)) };
        }
    }

    /// Whether the first `len` bytes of `block` hold `seed`'s pattern.
    ///
    /// # Safety
    ///
    /// As for [`fill`].
    unsafe fn holds(block: *mut u8, len: usize, seed: u8) -> bool {
        // SAFETY: `i < len`, within the block (the caller's contract).
        (0..len).all(|i| unsafe { block.add(i).read() } == seed.wrapping_add(i as u8))
    }

    #[test]
    fn class_edges_give_aligned_blocks_that_keep_their_bytes() {
        static A: SlabAlloc = SlabAlloc::new();
        let mut live = Vec::new();
        for size in [1, 16, 17, 512, 513] {
            for align in [8, 16, 32] {
                let l = layout(size, align);
                let seed = (live.len() as u8).wrapping_mul(37);
                let block = alloc_filled(&A, l, seed);
                assert_eq!(block.addr() % align, 0, "{l:?}");
                live.push((block, l, seed));
            }
        }
        // Every block keeps its bytes while all the others are written.
        for (block, l, seed) in live {
            // SAFETY: `block` is a live allocation of `l`, freed once.
            unsafe {
                assert!(holds(block, l.size(), seed), "{l:?}");
                A.dealloc(block, l);
            }
        }
    }

    #[test]
    fn large_sizes_and_alignments_go_to_system() {
        static A: SlabAlloc = SlabAlloc::new();
        for l in [layout(513, 8), layout(16, 32), layout(4096, 64)] {
            let block = alloc_filled(&A, l, 3);
            assert_eq!(block.addr() % l.align(), 0, "{l:?}");
            // SAFETY: `block` is a live allocation of `l`, freed once.
            unsafe {
                assert!(holds(block, l.size(), 3), "{l:?}");
                A.dealloc(block, l);
            }
        }
        assert_eq!(A.stats().chunks, 0, "no chunk is cut for System's layouts");
        let l = layout(MAX_SMALL, MAX_ALIGN);
        let block = alloc_filled(&A, l, 5);
        assert_eq!(A.stats().chunks, 1, "the largest small layout is a heap's");
        // SAFETY: as above.
        unsafe { A.dealloc(block, l) };
    }

    #[test]
    fn realloc_keeps_the_prefix_within_and_across_classes_and_the_edge() {
        static A: SlabAlloc = SlabAlloc::new();
        let mut l = layout(20, 8);
        let mut block = alloc_filled(&A, l, 11);
        // Within a class, across classes, up over the 512-byte edge,
        // within System, back down over the edge, and down across classes.
        for new_size in [30, 100, 600, 2000, 512, 513, 400, 10] {
            let new = layout(new_size, 8);
            // SAFETY: `block` is a live allocation of `l`, and `moved` one
            // of `new`, which replaces it.
            unsafe {
                let moved = A.realloc(block, l, new_size);
                assert!(!moved.is_null());
                let kept = l.size().min(new_size);
                assert!(holds(moved, kept, 11), "{} -> {new_size}", l.size());
                if class_of(l).is_some() && class_of(l) == class_of(new) {
                    assert_eq!(moved, block, "{} -> {new_size} stays put", l.size());
                }
                fill(moved, new_size, 11);
                (block, l) = (moved, new);
            }
        }
        // SAFETY: `block` is a live allocation of `l`.
        unsafe { A.dealloc(block, l) };
    }

    #[test]
    fn alloc_zeroed_clears_a_reused_block() {
        static A: SlabAlloc = SlabAlloc::new();
        let l = layout(64, 8);
        let block = alloc_filled(&A, l, 0xa5);
        // SAFETY: `block`, then `again`, are live allocations of `l`, each
        // freed once.
        unsafe {
            A.dealloc(block, l);
            let again = A.alloc_zeroed(l);
            assert_eq!(again, block, "the freed block is reused first");
            assert!((0..l.size()).all(|i| again.add(i).read() == 0));
            A.dealloc(again, l);
        }
    }

    #[test]
    fn blocks_freed_on_another_thread_go_back_to_their_owner() {
        static A: SlabAlloc = SlabAlloc::new();
        const N: usize = 100;
        let l = layout(48, 8);
        let freed = Barrier::new(2);
        let (to_b, from_a) = mpsc::channel::<Vec<usize>>();
        std::thread::scope(|s| {
            let freed = &freed;
            // Thread B frees what this thread, A, allocated.
            s.spawn(move || {
                for addr in from_a.recv().unwrap() {
                    let block = ptr::with_exposed_provenance_mut::<u8>(addr);
                    // SAFETY: A allocated `block` with `l` and handed it
                    // over; B frees it once.
                    unsafe { A.dealloc(block, l) };
                }
                freed.wait();
            });
            let mut first: Vec<usize> = (0..N)
                .map(|_| alloc_filled(&A, l, 0).expose_provenance())
                .collect();
            to_b.send(first.clone()).unwrap();
            freed.wait();
            let mut next: Vec<usize> = (0..N)
                .map(|_| alloc_filled(&A, l, 1).expose_provenance())
                .collect();
            first.sort_unstable();
            next.sort_unstable();
            assert_eq!(next, first, "A's next {N} blocks are the ones B freed");
            for addr in next {
                // SAFETY: each is a live allocation of `l`, freed once.
                unsafe { A.dealloc(ptr::with_exposed_provenance_mut(addr), l) };
            }
        });
        assert_eq!(A.stats().remote_frees, N as u64);
    }

    #[test]
    fn a_producer_consumer_loop_stops_cutting_chunks() {
        static A: SlabAlloc = SlabAlloc::new();
        const ROUNDS: usize = 100;
        const N: usize = 1_000;
        let sizes = [8, 40, 200, 500];
        // The worker allocates a batch per round and hands it over; this
        // thread frees it and then lets the worker start the next round.
        let (batches, from_worker) = mpsc::sync_channel::<Vec<(usize, Layout)>>(0);
        let (done, next_round) = mpsc::sync_channel::<()>(0);
        let mut warm = 0;
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    let batch = (0..N)
                        .map(|i| {
                            let l = layout(sizes[i % sizes.len()], 8);
                            (alloc_filled(&A, l, i as u8).expose_provenance(), l)
                        })
                        .collect();
                    batches.send(batch).unwrap();
                    next_round.recv().unwrap();
                }
            });
            for round in 0..ROUNDS {
                for (i, (addr, l)) in from_worker.recv().unwrap().into_iter().enumerate() {
                    let block = ptr::with_exposed_provenance_mut(addr);
                    // SAFETY: the worker allocated `block` with `l` and
                    // handed it over; it is freed once, here.
                    unsafe {
                        assert!(holds(block, l.size(), i as u8), "round {round}, block {i}");
                        A.dealloc(block, l);
                    }
                }
                if round == 0 {
                    warm = A.stats().chunks;
                }
                done.send(()).unwrap();
            }
        });
        let stats = A.stats();
        assert!(warm > 0);
        assert_eq!(stats.chunks, warm, "only the first round cuts chunks");
        assert_eq!(stats.remote_frees, (ROUNDS * N) as u64);
    }
}
