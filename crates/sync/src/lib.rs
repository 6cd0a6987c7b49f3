//! # melissa-sync — the parallel sweeps and the locks of the workspace
//!
//! Two things every other crate leans on, with no dependency of their own.
//!
//! * **The span pool.**  [`for_each_index`] and [`for_each_item`] are how
//!   a statistics sweep runs in parallel.  A call cuts its work into a few
//!   contiguous *spans* and publishes them to one process-wide pool of
//!   helper threads, started on the first parallel call and parked on a
//!   condvar between calls.  The **caller participates**: spans are
//!   claimed from an atomic cursor by whoever gets there first, and the
//!   caller keeps claiming until none is left, then waits only for the
//!   spans a helper has in flight.  So a call never spawns a thread; a
//!   nested call (a span that sweeps in turn) cannot deadlock, because a
//!   thread only ever waits for spans another thread is running; and a
//!   panicking span is rethrown on the caller once the others are over.
//!   Sleeping helpers are woken *rent-then-buy*: only once the call has
//!   run for as long as waking one costs, so a sweep shorter than a
//!   wake-up runs inline on its caller.  Which items a span gets is a
//!   function of the call alone, never of timing, which is what keeps the
//!   statistics bit-identical however the spans land.
//! * **Poison-free locks.**  [`Mutex`], [`RwLock`] and [`Condvar`] over
//!   `std::sync`: `lock`/`read`/`write` return the guard, and a lock whose
//!   holder panicked stays usable (what these locks guard is bookkeeping
//!   that is consistent between statements).  A wait takes the guard and
//!   gives it back, as std's does.  In debug builds [`Mutex::lock`] and
//!   [`RwLock::write`] remember, per thread, which locks the thread holds
//!   and where it took them: taking one again on the same thread — a
//!   deadlock in a release build — panics and names both call sites.
//!   Release builds compile none of that.
//!
//! `RAYON_NUM_THREADS` (a positive integer) overrides the number of
//! threads a sweep is cut for, the caller included; `1` runs every sweep
//! inline.  Without it the number is the available parallelism.
//!
//! ## Atomics and their orderings
//!
//! Every atomic the pool and the transport's HWM queue rely on.  All other
//! state they share is read and written under a lock.
//!
//! | atomic | operations | ordering | why that is enough |
//! |---|---|---|---|
//! | pool `Job::cursor` | `fetch_add` to claim a span; `load` to ask whether one is left | `Relaxed` | a claim only has to be unique, which every read-modify-write of one atomic is; the job itself (its closure and span count) reaches a helper through the pool lock it is listed under |
//! | pool `Job::in_flight` | a helper's `fetch_add` before a span, taken under the pool lock; its `fetch_sub` after the span; the caller's `load` until it reads 0 | `Relaxed` / `Release` / `Acquire` | the `Release` decrement pairs with the caller's `Acquire` load, so a span's writes happen before the call returns; the caller delists the job under the pool lock before it waits, which orders every increment before that wait, so the count can only fall from there |
//! | pool `wake_cost` | `load`, and `store` of a running average | `Relaxed` | a heuristic: a stale or lost update only moves the moment helpers are woken, never what runs |
//! | pool `HELPERS_STARTED` | `fetch_add` per helper started; `load` | `Relaxed` | a count; nothing is published through it |
//! | `melissa_transport::LinkStats` counters | `fetch_add` per send; `load` for a snapshot | `Relaxed` | independent monotone counters read as a racy snapshot; no other memory is published through them (the HWM queue itself keeps every count under its lock) |

use std::num::NonZeroUsize;
use std::ops::{Deref, DerefMut, Range};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{self as std_sync, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Threads a sweep is cut for, the caller included: the
/// `RAYON_NUM_THREADS` override, else the available parallelism, else 1.
fn threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    })
}

/// Spans a call is cut into per thread: more than one, so a helper that
/// wakes late still finds a share of the range unclaimed.
const SPANS_PER_THREAD: usize = 4;

/// Calls `f` once for every index of `range`, in parallel, and returns
/// when every call has.  The range runs inline on the caller when it is
/// shorter than `min_len` (or than 2, or there is one thread); otherwise
/// it is cut into spans of consecutive indices for the pool.  A panic in
/// `f` is rethrown here.
pub fn for_each_index<F: Fn(usize) + Sync>(range: Range<usize>, min_len: usize, f: F) {
    let len = range.len();
    let threads = threads();
    if threads <= 1 || len <= 1 || len < min_len {
        range.for_each(f);
        return;
    }
    let n_spans = len.min(threads * SPANS_PER_THREAD);
    let lo = range.start;
    run(n_spans, &|s| {
        for i in lo + s * len / n_spans..lo + (s + 1) * len / n_spans {
            f(i);
        }
    });
}

/// Hands out the items of a `Vec` by index, each exactly once.
struct ItemTaker<T>(*mut T);
// SAFETY: distinct calls take distinct indices, and `T: Send` lets the
// taken item move to the taking thread.
unsafe impl<T: Send> Sync for ItemTaker<T> {}

/// Calls `f` once with every item of `items`, in parallel, as
/// [`for_each_index`] does with their indices.  The usual items are
/// disjoint `&mut` chunks of the outputs zipped with the chunks of the
/// inputs they are computed from.
pub fn for_each_item<T: Send, F: Fn(T) + Sync>(mut items: Vec<T>, min_len: usize, f: F) {
    let len = items.len();
    // The vector keeps the allocation, the calls take the items: should
    // one panic, the items not yet taken leak instead of dropping twice.
    // SAFETY: 0 ≤ capacity, and no element is read through `items` again.
    unsafe { items.set_len(0) };
    let taker = ItemTaker(items.as_mut_ptr());
    let taker = &taker;
    for_each_index(0..len, min_len, move |i| {
        // SAFETY: `i < len` indexes an initialised element of the live
        // allocation, and every index is visited exactly once.
        f(unsafe { taker.0.add(i).read() });
    });
}

/// One parallel call, living on its caller's stack for the call's
/// duration.
struct Job {
    /// Runs span `i` (a lifetime-erased borrow of the caller's closure).
    span: *const (dyn Fn(usize) + Sync),
    n_spans: usize,
    /// Next unclaimed span; anything `≥ n_spans` means none is left.
    cursor: AtomicUsize,
    /// Spans claimed by helpers and still running.
    in_flight: AtomicUsize,
    /// First panic payload of a helper-run span, rethrown by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    caller: Thread,
    started: Instant,
}

impl Job {
    fn claim(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.n_spans).then_some(i)
    }

    fn has_unclaimed(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.n_spans
    }
}

/// A published job.  Helpers dereference it only under the pool lock or
/// while they hold one of its spans in flight.
struct JobRef(*const Job);
// SAFETY: a `Job` is only shared for reading and through atomics, and its
// `span` closure is `Sync`.
unsafe impl Send for JobRef {}

#[derive(Default)]
struct PoolState {
    /// Jobs that may still have unclaimed spans, oldest first.
    jobs: Vec<JobRef>,
    /// Helpers parked on `work`.
    sleepers: usize,
}

/// The process-wide span pool.
struct Pool {
    state: Mutex<PoolState>,
    work: Condvar,
    /// What waking one sleeping helper costs the waker, in nanoseconds: a
    /// running average of the time `notify_one` took.  (Microseconds where
    /// the wake-up has to kick an idle virtual CPU; a fraction of that on
    /// a busy host.)
    wake_cost: AtomicU64,
}

/// Helper threads the pool has started (over the process's lifetime).
static HELPERS_STARTED: AtomicUsize = AtomicUsize::new(0);

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        static STARTED: std::sync::Once = std::sync::Once::new();
        let pool = POOL.get_or_init(|| Pool {
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            wake_cost: AtomicU64::new(0),
        });
        // Helpers live as long as the process and park between calls;
        // nothing ever joins them.
        STARTED.call_once(|| {
            for k in 1..threads() {
                let spawned = std::thread::Builder::new()
                    .name(format!("span-pool-{k}"))
                    .spawn(move || pool.help());
                // A host that refuses the thread runs those spans on the
                // callers instead.
                if spawned.is_ok() {
                    HELPERS_STARTED.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        pool
    }

    /// Wakes up to `want` sleeping helpers, and learns what that costs.
    fn wake(&self, want: usize) {
        let wake = self.state.lock().sleepers.min(want);
        if wake == 0 {
            return;
        }
        let began = Instant::now();
        for _ in 0..wake {
            self.work.notify_one();
        }
        let cost = began.elapsed().as_nanos() as u64 / wake as u64;
        let old = self.wake_cost.load(Ordering::Relaxed);
        self.wake_cost
            .store((3 * old + cost) / 4, Ordering::Relaxed);
    }

    /// A helper's life: claim a span of the oldest job that has one, run
    /// it, report it; park when there is none.
    fn help(&self) {
        let mut state = self.state.lock();
        loop {
            // SAFETY: a listed job is alive — its caller delists it (under
            // this lock) before it returns.
            let claimed = state
                .jobs
                .iter()
                .find_map(|j| unsafe { (*j.0).claim().map(|i| (j.0, i)) });
            let Some((job, i)) = claimed else {
                state.sleepers += 1;
                state = self.work.wait(state);
                state.sleepers -= 1;
                continue;
            };
            // SAFETY: still under the lock, so the job is listed and
            // alive; from this increment until the decrement below its
            // caller waits for us.
            let job = unsafe { &*job };
            job.in_flight.fetch_add(1, Ordering::Relaxed);
            drop(state);
            // SAFETY: the caller's closure outlives its in-flight spans
            // (see `Retire`).
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.span)(i) })) {
                job.panic.lock().get_or_insert(payload);
            }
            // The decrement releases the job: take the wake-up handle
            // first, touch nothing of the job after.
            let caller = job.caller.clone();
            if job.in_flight.fetch_sub(1, Ordering::Release) == 1 {
                caller.unpark();
            }
            state = self.state.lock();
        }
    }
}

/// Ends a call on every exit path, unwinding included: delists the job,
/// then waits for the spans helpers still run, so neither the `Job` nor
/// the closure it points to is freed under a helper.
struct Retire<'a>(&'a Pool, &'a Job);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let Retire(pool, job) = *self;
        pool.state.lock().jobs.retain(|j| !std::ptr::eq(j.0, job));
        // Delisted under the lock helpers claim under: the count can only
        // fall from here.  A span still in flight is running on another
        // core right now and is over within about the time one span takes
        // — less than a park and the unpark it needs cost — so spin that
        // long first; only a helper that lost its core mid-span makes the
        // caller sleep.
        let a_span = job.started.elapsed() / job.n_spans as u32;
        let spinning = Instant::now();
        while job.in_flight.load(Ordering::Acquire) != 0 {
            if spinning.elapsed() < a_span {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }
}

/// Runs `span(0)`, …, `span(n_spans − 1)`, each exactly once, on the
/// calling thread and whichever helpers get to a span first; returns when
/// all have run.  A panicking span is rethrown here.
fn run(n_spans: usize, span: &(dyn Fn(usize) + Sync)) {
    let pool = Pool::global();
    let job = Job {
        // SAFETY: erases the borrow's lifetime; `Retire` below keeps this
        // frame alive for as long as a helper can call through the pointer.
        span: unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                span,
            )
        },
        n_spans,
        cursor: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: std::thread::current(),
        started: Instant::now(),
    };
    // Listed, so a helper that is awake finds the job by itself.
    pool.state.lock().jobs.push(JobRef(&job));
    let retire = Retire(pool, &job);
    let mut woke_helpers = false;
    while let Some(i) = job.claim() {
        span(i);
        // Sleeping helpers are woken once the call has run for as long as
        // waking one costs (rent, then buy: the call then costs at most
        // twice what the better choice would have).  A sweep shorter than
        // a wake-up never pays for one; a long one gives up a span's worth
        // of parallelism.
        if !woke_helpers
            && job.has_unclaimed()
            && job.started.elapsed().as_nanos() as u64 >= pool.wake_cost.load(Ordering::Relaxed)
        {
            pool.wake(n_spans - i - 1);
            woke_helpers = true;
        }
    }
    drop(retire);
    let payload = job.panic.lock().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// A mutual-exclusion lock that a panicking holder does not poison.
#[derive(Debug, Default)]
pub struct Mutex<T>(std_sync::Mutex<T>);

/// The guard of a locked [`Mutex`]; unlocks on drop.
pub struct MutexGuard<'a, T> {
    guard: std_sync::MutexGuard<'a, T>,
    held: Held,
}

impl<T> Mutex<T> {
    /// A lock owning `value`.
    pub const fn new(value: T) -> Self {
        Self(std_sync::Mutex::new(value))
    }

    /// Blocks until the lock is free and takes it.
    ///
    /// # Panics
    /// In debug builds, if this thread holds it already.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::take(self);
        MutexGuard {
            guard: self.0.lock().unwrap_or_else(PoisonError::into_inner),
            held,
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A reader-writer lock that a panicking holder does not poison.
#[derive(Debug, Default)]
pub struct RwLock<T>(std_sync::RwLock<T>);

/// Exclusive guard of an [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    guard: std_sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> RwLock<T> {
    /// A lock owning `value`.
    pub const fn new(value: T) -> Self {
        Self(std_sync::RwLock::new(value))
    }

    /// Blocks until no writer holds the lock and takes a shared hold.
    pub fn read(&self) -> std_sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until nobody holds the lock and takes it exclusively.
    ///
    /// # Panics
    /// In debug builds, if this thread holds it exclusively already.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = Held::take(self);
        RwLockWriteGuard {
            guard: self.0.write().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A condition variable over a [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std_sync::Condvar);

impl Condvar {
    /// A condition variable nobody waits on.
    pub const fn new() -> Self {
        Self(std_sync::Condvar::new())
    }

    /// Unlocks `guard`'s mutex, sleeps until notified (or spuriously), and
    /// returns holding the mutex again.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { guard, held } = guard;
        MutexGuard {
            guard: self.0.wait(guard).unwrap_or_else(PoisonError::into_inner),
            held,
        }
    }

    /// [`wait`](Self::wait) for at most `timeout`; the caller tells a
    /// timeout from a notification by what the guarded state says.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        let MutexGuard { guard, held } = guard;
        let (guard, _) = self
            .0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard { guard, held }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// The locks this thread holds, as `(address, size)`, and where it took
/// each.  The size tells a lock from one at the start of the value it
/// guards: that one is always smaller.
#[cfg(debug_assertions)]
type HeldLocks = Vec<((usize, usize), &'static std::panic::Location<'static>)>;

#[cfg(debug_assertions)]
thread_local! {
    static HELD: std::cell::RefCell<HeldLocks> = const { std::cell::RefCell::new(Vec::new()) };
}

/// A debug build's record that this thread holds a lock; dropping it (with
/// the guard it sits in) strikes the lock off the thread's list.
#[cfg(debug_assertions)]
struct Held((usize, usize));

#[cfg(debug_assertions)]
impl Held {
    /// Puts `lock` on this thread's list before it is taken, or panics
    /// with both call sites if it is on the list already.
    #[track_caller]
    fn take<L>(lock: &L) -> Held {
        let key = (lock as *const L as usize, std::mem::size_of::<L>());
        let here = std::panic::Location::caller();
        let first = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            let first = held.iter().find(|(k, _)| *k == key).map(|&(_, at)| at);
            if first.is_none() {
                held.push((key, here));
            }
            first
        });
        if let Ok(Some(first)) = first {
            panic!("this thread already holds the lock it takes: taken at {first}, taken again at {here}");
        }
        Held(key)
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // A thread past its thread-locals has no list left to strike from.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().position(|(k, _)| *k == self.0) {
                held.swap_remove(i);
            }
        });
    }
}

/// Nothing: release builds keep no list.
#[cfg(not(debug_assertions))]
struct Held;

#[cfg(not(debug_assertions))]
impl Held {
    #[inline(always)]
    fn take<L>(_lock: &L) -> Held {
        Held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;
    use std::thread;

    fn hit_counters(n: usize) -> Vec<AtomicU32> {
        (0..n).map(|_| AtomicU32::new(0)).collect()
    }

    fn assert_each_hit_once(hits: &[AtomicU32]) {
        assert!(hits.iter().all(|h| h.load(Relaxed) == 1));
    }

    #[test]
    fn chunks_mut_zip_writes_disjointly() {
        let mut a = vec![0u64; 10_000];
        let b: Vec<u64> = (0..10_000).collect();
        let chunks: Vec<_> = a.chunks_mut(256).zip(b.chunks(256)).collect();
        for_each_item(chunks, 0, |(xs, ys)| {
            for (x, y) in xs.iter_mut().zip(ys) {
                *x = y * 2;
            }
        });
        assert!(a.iter().enumerate().all(|(i, &v)| v == (i as u64) * 2));
    }

    #[test]
    fn enumerate_indices_match_chunk_order() {
        let mut a = vec![0usize; 1000];
        for_each_item(a.chunks_mut(100).enumerate().collect(), 0, |(c, xs)| {
            for x in xs.iter_mut() {
                *x = c;
            }
        });
        for (i, &v) in a.iter().enumerate() {
            assert_eq!(v, i / 100);
        }
    }

    #[test]
    fn for_each_index_covers_all_indices() {
        let hits = hit_counters(500);
        for_each_index(0..500, 0, |i| {
            hits[i].fetch_add(1, Relaxed);
        });
        assert_each_hit_once(&hits);
        // An offset range, and one under its `min_len` (run inline).
        let hits = hit_counters(40);
        for_each_index(7..40, 0, |i| {
            hits[i].fetch_add(1, Relaxed);
        });
        for_each_index(0..7, 100, |i| {
            hits[i].fetch_add(1, Relaxed);
        });
        assert_each_hit_once(&hits);
    }

    #[test]
    fn ten_thousand_calls_start_no_thread_beyond_the_pool() {
        let total = AtomicU64::new(0);
        for _ in 0..10_000 {
            for_each_index(0..64, 0, |i| {
                total.fetch_add(i as u64, Relaxed);
            });
        }
        assert_eq!(total.load(Relaxed), 10_000 * (63 * 64 / 2));
        // The helpers, plus the calling thread, make `threads()`.
        assert!(HELPERS_STARTED.load(Relaxed) < threads().max(2));
    }

    #[test]
    fn concurrent_and_nested_calls_cover_every_index_exactly_once() {
        // All four callers publish their call before any runs a span, so
        // the helpers meet four jobs at once; every span then makes a
        // nested call of its own.
        let barrier = std::sync::Barrier::new(4);
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let outer = hit_counters(64);
                    let inner = hit_counters(64 * 32);
                    barrier.wait();
                    for_each_index(0..64, 0, |i| {
                        outer[i].fetch_add(1, Relaxed);
                        for_each_index(0..32, 0, |j| {
                            inner[i * 32 + j].fetch_add(1, Relaxed);
                        });
                    });
                    assert_each_hit_once(&outer);
                    assert_each_hit_once(&inner);
                });
            }
        });
    }

    #[test]
    fn a_panicking_span_is_rethrown_on_the_caller_after_the_others_end() {
        let hits = hit_counters(256);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for_each_index(0..256, 0, |i| {
                hits[i].fetch_add(1, Relaxed);
                assert_ne!(i, 200, "span failure under test");
            });
        }));
        assert!(result.is_err());
        // The pool survives it.
        let again = hit_counters(256);
        for_each_index(0..256, 0, |i| {
            again[i].fetch_add(1, Relaxed);
        });
        assert_each_hit_once(&again);
    }

    #[test]
    fn lock_returns_guard_directly() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn rwlock_read_write_guards() {
        let l = RwLock::new(1);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 2);
        }
        *l.write() += 4;
        assert_eq!(*l.read(), 5);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let g = cv.wait_timeout(m.lock(), Duration::from_millis(10));
        assert!(!*g, "nobody notified");
    }

    #[test]
    fn condvar_notifies_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                done = cv.wait(done);
            }
        });
        thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn a_poisoned_lock_stays_usable() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder failure under test");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_same_thread_relock_panics_naming_both_call_sites() {
        fn message(payload: Box<dyn std::any::Any + Send>) -> String {
            payload
                .downcast::<String>()
                .map(|s| *s)
                .expect("a formatted panic message")
        }
        let m = Mutex::new(0);
        let (first, again) = (line!() + 2, line!() + 3);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _held = m.lock();
            let _again = m.lock();
        }))
        .expect_err("a re-lock panics");
        let msg = message(err);
        for line in [first, again] {
            assert!(msg.contains(&format!("{}:{line}:", file!())), "{msg}");
        }
        // The unwind released the first hold: the lock is usable again.
        assert_eq!(*m.lock(), 0);

        let l = RwLock::new(0);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _held = l.write();
            let _again = l.write();
        }))
        .expect_err("a write re-lock panics");
        assert!(message(err).contains("taken again at"));
    }

    #[test]
    fn lock_then_drop_then_lock_on_one_thread_does_not_panic() {
        let m = Mutex::new(0);
        for _ in 0..3 {
            let mut g = m.lock();
            *g += 1;
            drop(g);
        }
        *m.lock() += 1;
        let l = RwLock::new(0);
        *l.write() += 1;
        *l.write() += 1;
        assert_eq!((*m.lock(), *l.read()), (4, 2));
    }

    #[test]
    fn a_guard_held_across_a_notified_wait_does_not_panic() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let other = Mutex::new(0);
        let held_across = other.lock();
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        let notifier = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (m, cv) = &*pair;
                *m.lock() = true;
                cv.notify_one();
            })
        };
        while !*ready {
            ready = cv.wait(ready);
        }
        drop(ready);
        drop(held_across);
        notifier.join().unwrap();
        // Both locks were struck off this thread's list on drop.
        assert!(*m.lock());
        assert_eq!(*other.lock(), 0);
    }

    #[test]
    fn a_lock_at_the_start_of_a_locked_value_is_not_a_relock() {
        struct Outer {
            inner: Mutex<u64>,
        }
        let outer = Mutex::new(Outer {
            inner: Mutex::new(7),
        });
        let g = outer.lock();
        assert_eq!(*g.inner.lock(), 7);
    }
}
