//! Timeout-based liveness tracking.
//!
//! The fault-tolerance protocol (paper Section 4.2) is built on two kinds
//! of timeouts: the server detects *unfinished groups* whose inter-message
//! gap exceeds a timeout, and the launcher runs a heartbeat with the server
//! processes.  [`LivenessTracker`] implements both: record a sign of life
//! per id, then ask which ids have been silent for too long.
//!
//! Fixed timeouts misfire on oversubscribed hosts: when the OS scheduler
//! starves the whole study, silence stops meaning death.  [`LoadMonitor`]
//! measures that starvation directly — how late a loop's timed wait, or
//! a periodic heartbeat, comes back — and supervisors scale their timeouts by the
//! observed factor ([`LivenessTracker::set_timeout`]) instead of shipping
//! inflated wall-clock limits that slow down failure detection on healthy
//! hosts.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::sync::Mutex;

/// Tracks the last sign of life of a set of peers and reports timeouts.
#[derive(Debug)]
pub struct LivenessTracker<K: Eq + Hash + Clone> {
    timeout_nanos: AtomicU64,
    last_seen: Mutex<HashMap<K, Instant>>,
}

impl<K: Eq + Hash + Clone> LivenessTracker<K> {
    /// Creates a tracker that declares a peer late after `timeout` of
    /// silence.
    pub fn new(timeout: Duration) -> Self {
        Self {
            timeout_nanos: AtomicU64::new(timeout.as_nanos() as u64),
            last_seen: Mutex::new(HashMap::new()),
        }
    }

    /// The configured timeout.
    pub fn timeout(&self) -> Duration {
        Duration::from_nanos(self.timeout_nanos.load(Ordering::Relaxed))
    }

    /// Adjusts the timeout; takes effect on the next expiry check.  The
    /// load-aware supervisors use this to scale the nominal timeout by
    /// the scheduling delay a [`LoadMonitor`] observes.
    pub fn set_timeout(&self, timeout: Duration) {
        self.timeout_nanos
            .store(timeout.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records a sign of life from `peer` at `at`.
    pub fn record_at(&self, peer: K, at: Instant) {
        self.last_seen.lock().insert(peer, at);
    }

    /// Stops tracking a peer (it finished cleanly).
    pub fn forget(&self, peer: &K) {
        self.last_seen.lock().remove(peer);
    }

    /// Peers whose last sign of life is older than the timeout, as of
    /// `now`.
    pub fn expired_at(&self, now: Instant) -> Vec<K> {
        let timeout = self.timeout();
        self.last_seen
            .lock()
            .iter()
            .filter(|(_, &seen)| now.duration_since(seen) > timeout)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Whether one tracked peer is late as of `now` (untracked peers are
    /// never late).  This is the per-key lease check the directory
    /// service uses on every resolve.
    pub fn is_late_at(&self, peer: &K, now: Instant) -> bool {
        self.last_seen
            .lock()
            .get(peer)
            .is_some_and(|&seen| now.duration_since(seen) > self.timeout())
    }

    /// Number of tracked peers.
    pub fn tracked(&self) -> usize {
        self.last_seen.lock().len()
    }

    /// Whether a peer is currently tracked.
    pub fn is_tracked(&self, peer: &K) -> bool {
        self.last_seen.lock().contains_key(peer)
    }
}

/// Observed scheduling-delay monitor for load-aware supervision.
///
/// Anything a loop expects at a known interval is a free, continuous
/// probe of how starved the process is: on an idle host a
/// `recv_timeout(10 ms)` that times out returns after ~10 ms, and a
/// heartbeat sent every 50 ms arrives every ~50 ms; on an oversubscribed
/// one either can take arbitrarily longer, because some thread involved
/// was not scheduled.  Feed each such interval (the server's main loop
/// feeds its timed-out waits, a launcher supervisor — which blocks on
/// events and has no timed wait to measure — the gaps between the
/// server's heartbeats) into [`observe`](LoadMonitor::observe) and the
/// monitor keeps an exponentially-weighted average of the overshoot ratio —
/// [`factor`](LoadMonitor::factor), clamped to `[1, MAX_FACTOR]` — by
/// which liveness timeouts should be stretched before declaring a silent
/// peer dead.  On a healthy host the factor sits at 1 and detection
/// latency is unchanged; under overload it grows with the *measured*
/// delay, which is what fixes the congestion-collapse failure mode
/// (groups killed for running slow, kill/resubmit multiplying the load)
/// without inflating any timeout a fast run would feel.
#[derive(Debug)]
pub struct LoadMonitor {
    /// EWMA of the overshoot ratio, in fixed-point thousandths.
    factor_milli: AtomicU64,
}

impl Default for LoadMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl LoadMonitor {
    /// Upper clamp on the stretch factor: even a fully wedged host never
    /// stretches timeouts more than this (the wall limit stays the
    /// backstop against a truly dead study).
    pub const MAX_FACTOR: f64 = 8.0;

    /// EWMA smoothing weight of one new observation.
    const ALPHA: f64 = 0.25;

    /// Creates a monitor that has observed no delay (factor 1).
    pub fn new() -> Self {
        Self {
            factor_milli: AtomicU64::new(1000),
        }
    }

    /// Feeds one timed wait: the loop asked to sleep `nominal` and woke
    /// after `actual`.  Overshoot below 5 % reads as an on-time wake-up
    /// (ratio 1); only genuinely late wake-ups raise the factor.
    pub fn observe(&self, nominal: Duration, actual: Duration) {
        if nominal.is_zero() {
            return;
        }
        let ratio = (actual.as_secs_f64() / nominal.as_secs_f64()).clamp(1.0, Self::MAX_FACTOR);
        let ratio = if ratio < 1.05 { 1.0 } else { ratio };
        let old = self.factor_milli.load(Ordering::Relaxed) as f64 / 1000.0;
        let new = (1.0 - Self::ALPHA) * old + Self::ALPHA * ratio;
        self.factor_milli.store(
            (new.clamp(1.0, Self::MAX_FACTOR) * 1000.0) as u64,
            Ordering::Relaxed,
        );
    }

    /// The current stretch factor in `[1, MAX_FACTOR]`.
    pub fn factor(&self) -> f64 {
        self.factor_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Scales a nominal timeout by the observed factor.
    pub fn scale(&self, nominal: Duration) -> Duration {
        nominal.mul_f64(self.factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_peers_are_not_expired() {
        let t = LivenessTracker::new(Duration::from_secs(1));
        let now = Instant::now();
        t.record_at(1u64, now);
        assert!(t.expired_at(now).is_empty());
        assert_eq!(t.tracked(), 1);
    }

    #[test]
    fn silent_peers_expire() {
        let t = LivenessTracker::new(Duration::from_millis(100));
        let now = Instant::now();
        t.record_at(7u64, now - Duration::from_millis(500));
        t.record_at(8u64, now);
        let expired = t.expired_at(now);
        assert_eq!(expired, vec![7]);
    }

    #[test]
    fn recording_again_resets_the_clock() {
        let t = LivenessTracker::new(Duration::from_millis(100));
        let now = Instant::now();
        t.record_at(7u64, now - Duration::from_millis(500));
        t.record_at(7u64, now);
        assert!(t.expired_at(now).is_empty());
    }

    #[test]
    fn forgotten_peers_never_expire() {
        let t = LivenessTracker::new(Duration::from_millis(10));
        let now = Instant::now();
        t.record_at(3u64, now - Duration::from_secs(1));
        t.forget(&3);
        assert!(t.expired_at(now).is_empty());
        assert!(!t.is_tracked(&3));
    }

    #[test]
    fn expiry_boundary_is_strict() {
        let t = LivenessTracker::new(Duration::from_millis(100));
        let now = Instant::now();
        t.record_at(1u64, now - Duration::from_millis(100));
        // Exactly at the timeout: not yet expired (strictly greater).
        assert!(t.expired_at(now).is_empty());
        assert_eq!(t.expired_at(now + Duration::from_millis(1)), vec![1]);
    }

    #[test]
    fn set_timeout_rescales_expiry_live() {
        let t = LivenessTracker::new(Duration::from_millis(100));
        let now = Instant::now();
        t.record_at(1u64, now - Duration::from_millis(300));
        assert_eq!(t.expired_at(now), vec![1]);
        // A loaded host stretched the timeout: the same silence is fine.
        t.set_timeout(Duration::from_millis(500));
        assert!(t.expired_at(now).is_empty());
        assert_eq!(t.timeout(), Duration::from_millis(500));
    }

    #[test]
    fn load_monitor_idles_at_one() {
        let m = LoadMonitor::new();
        assert_eq!(m.factor(), 1.0);
        for _ in 0..100 {
            m.observe(Duration::from_millis(10), Duration::from_millis(10));
        }
        assert_eq!(m.factor(), 1.0);
        assert_eq!(m.scale(Duration::from_secs(2)), Duration::from_secs(2));
    }

    #[test]
    fn load_monitor_tracks_overshoot_and_recovers() {
        let m = LoadMonitor::new();
        // Sustained 4× overshoot converges toward 4.
        for _ in 0..40 {
            m.observe(Duration::from_millis(10), Duration::from_millis(40));
        }
        assert!(m.factor() > 3.5, "factor {}", m.factor());
        let stretched = m.scale(Duration::from_millis(1000));
        assert!(stretched > Duration::from_millis(3500));
        // Load clears: the factor decays back toward 1.
        for _ in 0..60 {
            m.observe(Duration::from_millis(10), Duration::from_millis(10));
        }
        assert!(m.factor() < 1.05, "factor {}", m.factor());
    }

    #[test]
    fn load_monitor_is_clamped() {
        let m = LoadMonitor::new();
        for _ in 0..200 {
            m.observe(Duration::from_millis(1), Duration::from_secs(10));
        }
        assert!(m.factor() <= LoadMonitor::MAX_FACTOR);
        m.observe(Duration::ZERO, Duration::from_secs(1)); // ignored
        assert!(m.factor() <= LoadMonitor::MAX_FACTOR);
    }
}
