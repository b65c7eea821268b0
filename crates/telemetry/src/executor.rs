//! Persistent executor backing [`crate::pool`].
//!
//! Parallel calls sit inside the innermost per-timestep loops of the fleet
//! and cluster drivers, so dispatch must cost far less than spawning
//! threads or locking once per item. The executor provides:
//!
//! * **Long-lived workers**, created lazily on first use and parked on a
//!   condvar when idle, so steady-state dispatch is "push a job pointer,
//!   wake k parked threads" instead of k `thread::spawn` calls;
//! * **One shared claim cursor** per batch: every participant (the
//!   submitting thread plus at most `workers - 1` helpers) claims the next
//!   run of input indices from one atomic cursor. Each claim takes
//!   `remaining / (2 * participants)` items, at least one, so early claims
//!   are large and the tail is single items: a participant stuck on a slow
//!   item holds back at most the run it claimed, and the others drain the
//!   rest. Every claim is one CAS, with no lock and no per-item handshake;
//! * **Input-order reassembly**: every claimed index writes its result
//!   into output slot `i`, so the returned `Vec` is bit-identical to a
//!   serial `items.iter().map(f).collect()` for any worker count and any
//!   claim schedule. Scheduling decides only *who* computes item `i`,
//!   never *what* item `i`'s result is or where it lands;
//! * **Nesting safety**: a parallel call issued *from a pool worker*
//!   (e.g. `DramSystem::run_with_threads` reached from inside a parallel
//!   fleet tick) runs inline on that worker instead of blocking it — the
//!   worker helps execute the nested batch itself, so nesting can neither
//!   deadlock nor oversubscribe the configured worker count. A nested
//!   call from a non-worker thread (e.g. the submitting thread's own
//!   chunk reaching the DRAM backend) re-enters the executor as a new
//!   job, which is re-entrancy-safe: helpers come from the same bounded
//!   pool, so live workers never exceed the configured parallelism.
//!
//! # Safety protocol
//!
//! Jobs live on the submitting call's stack and are published to the
//! worker pool as lifetime-erased raw pointers, so every dereference must
//! stay inside the submitter's stack frame. The protocol that guarantees it:
//!
//! 1. the submitter publishes the job under the injector lock, then helps
//!    execute it;
//! 2. workers may *attach* to a published job only under the injector
//!    lock (bounded by the job's helper cap);
//! 3. when the submitter finds no more claimable work it **unpublishes
//!    the job first** (under the same lock — after this no new worker can
//!    observe the pointer), and only then blocks on the job's latch until
//!    every attached helper has detached and every item is accounted for;
//! 4. a helper touches the job only between its attach and detach.
//!
//! A panicking item closure cancels the rest of the batch (the cursor
//! jumps to the end, and the unclaimed items are accounted for unexecuted),
//! is captured once, and re-raised on the submitting thread after
//! quiescence — the pool itself survives.

use std::any::Any;
use std::cell::Cell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Hard cap on persistent worker threads, a backstop far above any
/// realistic `FACIL_THREADS` value.
const MAX_WORKERS: usize = 256;

thread_local! {
    /// True on threads owned by the executor.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is one of the executor's workers. Parallel
/// entry points use this to fall back to inline execution for nested
/// calls.
pub(crate) fn on_worker_thread() -> bool {
    IS_WORKER.with(Cell::get)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Worker loops and latch signalers never panic while holding these
    // locks (item panics are caught before the lock is touched); recover
    // from poison regardless so one bad batch cannot wedge the pool.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Completion latch.
// ---------------------------------------------------------------------------

/// Tracks a job's outstanding items and attached helpers; the submitter
/// blocks here until both hit zero.
struct Latch {
    pending: AtomicUsize,
    attached: AtomicUsize,
    mx: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    fn new(pending: usize) -> Self {
        Latch {
            pending: AtomicUsize::new(pending),
            attached: AtomicUsize::new(0),
            mx: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Account for `k` items leaving the batch (executed or canceled),
    /// waking the submitter when the last one lands. Only participants call
    /// this: the submitter, or a helper that is still attached and so keeps
    /// the job alive, which is why the decrement may precede the lock here
    /// but not in [`Latch::detach`].
    fn finish_items(&self, k: usize) {
        if k > 0 && self.pending.fetch_sub(k, Ordering::AcqRel) == k {
            let _g = lock(&self.mx);
            self.cv.notify_all();
        }
    }

    /// Reserve a helper slot, bounded by `cap`.
    fn try_attach(&self, cap: usize) -> bool {
        let mut cur = self.attached.load(Ordering::Acquire);
        loop {
            if cur >= cap {
                return false;
            }
            match self.attached.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(v) => cur = v,
            }
        }
    }

    /// Release a helper slot. The decrement happens under the latch mutex:
    /// as soon as `attached` reads zero the submitter may return and free
    /// the job, so unlocking must be this helper's last touch of the latch.
    fn detach(&self) {
        let _g = lock(&self.mx);
        self.attached.fetch_sub(1, Ordering::AcqRel);
        self.cv.notify_all();
    }

    /// Block until every item is accounted for and every helper detached.
    /// The acquire loads here pair with the releases in
    /// [`Latch::finish_items`]/[`Latch::detach`], making all helper-side
    /// writes (including output-slot writes) visible to the submitter.
    fn wait_quiescent(&self) {
        let mut g = lock(&self.mx);
        while self.pending.load(Ordering::Acquire) != 0
            || self.attached.load(Ordering::Acquire) != 0
        {
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

// ---------------------------------------------------------------------------
// Jobs.
// ---------------------------------------------------------------------------

/// A parallel map batch over the indices `0..end`: `run_chunk(a, b)`
/// executes items `a..b`, writing each result into its input-order output
/// slot. Stack-allocated in the submitting call; see the module-level
/// safety protocol.
struct MapJob<'f> {
    run_chunk: &'f (dyn Fn(usize, usize) + Sync),
    /// First unclaimed index. Claims advance it and cancellation swaps it
    /// to `end`, so it never passes `end`. It publishes no data (results
    /// reach the submitter through the latch), so it is accessed relaxed.
    next: AtomicUsize,
    end: usize,
    /// The submitter plus the most helpers that may attach.
    participants: usize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    latch: Latch,
}

impl<'f> MapJob<'f> {
    fn new(run_chunk: &'f (dyn Fn(usize, usize) + Sync), n: usize, participants: usize) -> Self {
        MapJob {
            run_chunk,
            next: AtomicUsize::new(0),
            end: n,
            participants,
            panic: Mutex::new(None),
            latch: Latch::new(n),
        }
    }

    /// Claim the next run of indices: `remaining / (2 * participants)`
    /// items, at least one. `None` once the cursor reached the end.
    fn claim(&self) -> Option<(usize, usize)> {
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            let left = self.end - cur;
            if left == 0 {
                return None;
            }
            let take = (left / self.participants.saturating_mul(2)).max(1);
            match self.next.compare_exchange_weak(
                cur,
                cur + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some((cur, cur + take)),
                Err(v) => cur = v,
            }
        }
    }

    /// Claim everything left without running it, accounting for it once:
    /// a second cancel finds the cursor at the end and accounts for none.
    fn cancel(&self) {
        let claimed = self.next.swap(self.end, Ordering::Relaxed);
        self.latch.finish_items(self.end - claimed);
    }

    /// Claim and run chunks until none is left. A panicking chunk is
    /// caught so the pool survives: the first payload is kept for the
    /// submitter and the batch is canceled.
    fn run(&self) {
        while let Some((a, b)) = self.claim() {
            let result = catch_unwind(AssertUnwindSafe(|| (self.run_chunk)(a, b)));
            self.latch.finish_items(b - a);
            if let Err(payload) = result {
                lock(&self.panic).get_or_insert(payload);
                self.cancel();
            }
        }
    }

    /// Whether a new helper could still find claimable work.
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.end
    }

    /// Reserve a helper slot; false when every helper slot is taken.
    fn attach(&self) -> bool {
        self.latch.try_attach(self.participants - 1)
    }
}

/// A published job: a pointer to a submitter's [`MapJob`] with its
/// lifetime erased. Valid only between publish and unpublish (see the
/// module-level safety protocol).
#[derive(Clone, Copy)]
struct JobRef(*const MapJob<'static>);

// SAFETY: the pointer is only dereferenced by workers between attach and
// detach, which the publish/unpublish protocol keeps inside the submitting
// call's stack frame; `MapJob` is `Sync` (its closure is `Sync`, the rest
// is atomics and mutexes).
unsafe impl Send for JobRef {}

// ---------------------------------------------------------------------------
// The executor proper.
// ---------------------------------------------------------------------------

struct Inner {
    /// Published jobs, oldest first. Submitters remove their own entry
    /// before waiting on the latch.
    jobs: Vec<JobRef>,
    /// Worker threads spawned and not yet exited.
    live: usize,
    /// Workers currently parked on `work_cv`.
    parked: usize,
    /// Workers asked to exit by [`shutdown`].
    exiting: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct Executor {
    inner: Mutex<Inner>,
    work_cv: Condvar,
}

fn executor() -> &'static Executor {
    static EXEC: OnceLock<Executor> = OnceLock::new();
    EXEC.get_or_init(|| Executor {
        inner: Mutex::new(Inner {
            jobs: Vec::new(),
            live: 0,
            parked: 0,
            exiting: 0,
            handles: Vec::new(),
        }),
        work_cv: Condvar::new(),
    })
}

/// The worker main loop: pick the oldest published job with claimable work
/// and an open helper slot, help until dry, repeat; park when idle; exit
/// when [`shutdown`] asks.
fn worker_loop(ex: &'static Executor) {
    IS_WORKER.with(|w| w.set(true));
    let mut g = lock(&ex.inner);
    loop {
        if g.exiting > 0 {
            g.exiting -= 1;
            g.live -= 1;
            return;
        }
        let picked = g.jobs.iter().copied().find(|&JobRef(job)| {
            // SAFETY: the job is published, so the pointer is live; attach
            // happens under the injector lock, which is what keeps it live
            // until the matching detach.
            let job = unsafe { &*job };
            job.has_work() && job.attach()
        });
        match picked {
            Some(JobRef(job)) => {
                drop(g);
                // SAFETY: attached above; the submitter cannot reclaim the
                // job's stack frame until this thread detaches.
                let job = unsafe { &*job };
                job.run();
                job.latch.detach();
                g = lock(&ex.inner);
            }
            None => {
                g.parked += 1;
                g = ex.work_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                g.parked -= 1;
            }
        }
    }
}

/// Publish `job`, growing the pool toward one live worker per helper slot
/// and waking that many parked ones.
fn publish(job: &MapJob<'_>) -> JobRef {
    let ex = executor();
    let published = JobRef((job as *const MapJob<'_>).cast());
    let helpers_wanted = job.participants - 1;
    let mut g = lock(&ex.inner);
    g.jobs.push(published);
    let want = helpers_wanted.min(MAX_WORKERS);
    while g.live - g.exiting < want && g.live < MAX_WORKERS {
        let builder = std::thread::Builder::new().name("facil-pool".into());
        match builder.spawn(|| worker_loop(executor())) {
            Ok(h) => {
                g.live += 1;
                g.handles.push(h);
            }
            // Out of threads: degrade to fewer helpers — the submitter
            // claims whatever no helper does, so results are unaffected.
            Err(_) => break,
        }
    }
    for _ in 0..helpers_wanted.min(g.parked) {
        ex.work_cv.notify_one();
    }
    published
}

/// Remove `job` from the published list, so no new helper can attach.
fn unpublish(job: JobRef) {
    let ex = executor();
    let mut g = lock(&ex.inner);
    g.jobs.retain(|j| !std::ptr::eq(j.0, job.0));
}

/// Join all persistent workers and return how many were joined. Workers
/// respawn lazily on the next parallel call, so this is safe to call at
/// any point — even concurrently with running batches, whose submitters
/// simply finish the work themselves.
pub(crate) fn shutdown_workers() -> usize {
    let ex = executor();
    let handles = {
        let mut g = lock(&ex.inner);
        g.exiting = g.live;
        ex.work_cv.notify_all();
        std::mem::take(&mut g.handles)
    };
    let n = handles.len();
    for h in handles {
        // Worker loops never panic (item panics are caught inside the
        // job); a join error here would mean a bug worth surfacing loudly,
        // but not worth poisoning shutdown for.
        let _ = h.join();
    }
    n
}

/// A raw pointer that may cross threads. Used for output slots and
/// mutable input bases, where the index-claiming protocol guarantees
/// disjoint access.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer. Going through a method (whole-struct receiver)
    /// rather than field access keeps closures capturing the `SendPtr` —
    /// which is `Sync` — instead of the bare `*mut T`, which is not, under
    /// edition-2021 disjoint field capture.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: every index in a batch is claimed by exactly one chunk, so no
// two threads touch the same element through this pointer, and the
// submitter does not read results until the batch is quiescent.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — the pointer itself is shared, the pointees are not.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Run `g(i)` for every `i in 0..n` on up to `workers` participants (the
/// caller plus at most `workers - 1` pool helpers), returning results in
/// input order — bit-identical to `(0..n).map(g).collect()` for any
/// worker count and claim schedule.
///
/// Caller guarantees `workers >= 2`, `n >= 2` (smaller calls stay inline
/// in [`crate::pool`]) and must not be on a worker thread.
pub(crate) fn map_indexed<R, G>(workers: usize, n: usize, g: G) -> Vec<R>
where
    R: Send,
    G: Fn(usize) -> R + Sync,
{
    debug_assert!(workers >= 2 && n >= 2);
    debug_assert!(!on_worker_thread());
    let mut out: Vec<MaybeUninit<R>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
    let out_ptr = SendPtr(out.as_mut_ptr());
    let run_chunk = |a: usize, b: usize| {
        for i in a..b {
            let r = g(i);
            // SAFETY: index `i` is claimed by exactly this chunk, so the
            // slot is written once, with no concurrent access.
            unsafe { (*out_ptr.get().add(i)).write(r) };
        }
    };
    let job = MapJob::new(&run_chunk, n, workers.min(n));
    let published = publish(&job);
    // The submitter is participant #1; `run` only returns once the cursor
    // reached the end, so unpublishing immediately after is safe.
    job.run();
    unpublish(published);
    job.latch.wait_quiescent();
    if let Some(payload) = lock(&job.panic).take() {
        // Written results leak under a panic (MaybeUninit drops nothing);
        // acceptable, since the panic is about to unwind the caller.
        resume_unwind(payload);
    }
    // SAFETY: quiescent and not canceled, so all `n` slots were written
    // exactly once; reinterpret the buffer as initialized.
    let mut out = ManuallyDrop::new(out);
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), n, out.capacity()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(_: usize, _: usize) {}

    /// Claim until the cursor is dry, returning every claimed run.
    fn drain(job: &MapJob<'_>) -> Vec<(usize, usize)> {
        std::iter::from_fn(|| job.claim()).collect()
    }

    #[test]
    fn claims_cover_the_batch_once_in_order_and_shrink_to_single_items() {
        for n in [1, 2, 7, 1000] {
            for participants in [2, 3, 8, 256] {
                let job = MapJob::new(&noop, n, participants);
                let claims = drain(&job);
                let covered: Vec<usize> = claims.iter().flat_map(|&(a, b)| a..b).collect();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n {n}, {participants}");
                let sizes: Vec<usize> = claims.iter().map(|&(a, b)| b - a).collect();
                assert!(sizes.windows(2).all(|w| w[1] <= w[0]), "grew: {sizes:?}");
                let singles = sizes.iter().rev().take_while(|&&s| s == 1).count();
                assert!(singles >= n.min(2 * participants), "tail {sizes:?}");
                assert_eq!(job.claim(), None);
            }
        }
        // Early claims are large: a share of the whole batch, not one item.
        let job = MapJob::new(&noop, 1000, 2);
        assert_eq!(job.claim(), Some((0, 250)));
    }

    #[test]
    fn cancel_accounts_for_exactly_the_unclaimed_rest() {
        for k in [0, 1, 5, 20] {
            let n = 100;
            let job = MapJob::new(&noop, n, 3);
            let claimed: usize = (0..k).filter_map(|_| job.claim()).map(|(a, b)| b - a).sum();
            job.cancel();
            // Claimed items are their claimers' to account for; cancel
            // settles the rest.
            assert_eq!(job.latch.pending.load(Ordering::Relaxed), claimed, "after {k} claims");
            assert!(!job.has_work());
            assert_eq!(job.claim(), None);
            job.cancel();
            assert_eq!(job.latch.pending.load(Ordering::Relaxed), claimed, "second cancel");
        }
    }

    #[test]
    fn chunk_arithmetic_stays_in_range_for_huge_batches() {
        // Bare jobs only: no batch ever starts this many workers.
        for n in [u32::MAX as usize, usize::MAX] {
            for participants in [8, 1 << 20, usize::MAX] {
                let job = MapJob::new(&noop, n, participants);
                let mut cur = 0;
                for _ in 0..4 {
                    let (a, b) = job.claim().unwrap();
                    assert!(a == cur && a < b && b <= n, "{n}, {participants}: {a}..{b}");
                    cur = b;
                }
                job.cancel();
                assert_eq!(job.latch.pending.load(Ordering::Relaxed), cur);
            }
            // The last items of a full-width batch are single claims.
            let job = MapJob::new(&noop, n, 256);
            job.next.store(n - 3, Ordering::Relaxed);
            assert_eq!(drain(&job), [(n - 3, n - 2), (n - 2, n - 1), (n - 1, n)]);
        }
    }

    #[test]
    fn map_indexed_matches_serial() {
        let out = map_indexed(4, 1000, |i| i * 3 + 1);
        assert_eq!(out, (0..1000).map(|i| i * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn map_indexed_propagates_panics_and_pool_survives() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(4, 64, |i| {
                assert!(i != 17, "boom at {i}");
                i
            })
        }));
        assert!(caught.is_err());
        // The pool is still usable after a panicking batch.
        let out = map_indexed(4, 64, |i| i + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }
}
