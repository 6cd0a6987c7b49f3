//! The locks of the workspace.
//!
//! [`Mutex`], [`RwLock`] and [`Condvar`] over `std::sync`:
//! `lock`/`read`/`write` return the guard, and a lock whose holder
//! panicked stays usable (what these locks guard is bookkeeping that is
//! consistent between statements).  A wait takes the guard and gives it
//! back, as std's does.  In debug builds
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
//! | [`LinkStats`](crate::LinkStats) counters | `fetch_add` per send; `load` for a snapshot | `Relaxed` | independent monotone counters read as a racy snapshot; no other memory is published through them (the HWM queue itself keeps every count under its lock) |

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
