//! # melissa-sync — the locks of the workspace
//!
//! [`Mutex`], [`RwLock`] and [`Condvar`] over `std::sync`, with no
//! dependency of their own: `lock`/`read`/`write` return the guard, and a
//! lock whose holder panicked stays usable (what these locks guard is
//! bookkeeping that is consistent between statements).  A wait takes the
//! guard and gives it back, as std's does.  In debug builds
//! [`Mutex::lock`] and [`RwLock::write`] remember, per thread, which locks
//! the thread holds and where it took them: taking one again on the same
//! thread — a deadlock in a release build — panics and names both call
//! sites.  Release builds compile none of that.
//!
//! ## Atomics and their orderings
//!
//! The atomics the transport's HWM queue relies on.  All other state it
//! shares is read and written under a lock.
//!
//! | atomic | operations | ordering | why that is enough |
//! |---|---|---|---|
//! | `melissa_transport::LinkStats` counters | `fetch_add` per send; `load` for a snapshot | `Relaxed` | independent monotone counters read as a racy snapshot; no other memory is published through them (the HWM queue itself keeps every count under its lock) |

use std::ops::{Deref, DerefMut};
use std::sync::{self as std_sync, PoisonError};
use std::time::Duration;

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
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;
    use std::thread;

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
