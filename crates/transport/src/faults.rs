//! Deterministic fault injection on messaging links.
//!
//! The paper evaluates Melissa's fault tolerance by killing simulation
//! groups and the server (Section 5.4).  The production failure
//! environment is replaced by an explicit, deterministic fault layer so
//! the detection/restart/discard-on-replay protocol can be *tested*:
//!
//! * [`KillSwitch`] — cooperative cancellation observed by jobs and
//!   message pumps (the launcher "kills" a job by flipping its switch);
//! * [`FaultySender`] — wraps any backend's [`Sender`] with message
//!   drops, delays (stragglers) and a kill switch.  Because it implements
//!   [`Sender`] itself, fault injection composes with the in-process and
//!   TCP backends alike, and faulty links can be wrapped again.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::api::{BoxSender, Disconnected, FlushError, SendTimeoutError, Sender};
use parking_lot::Mutex;

use crate::endpoint::{Frame, LinkStats};

/// A callback registered with [`KillSwitch::on_kill`].
type KillHook = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct KillState {
    killed: AtomicBool,
    /// Hooks waiting for the flip; drained (and run) by [`KillSwitch::kill`].
    hooks: Mutex<Vec<KillHook>>,
}

/// Cooperative cancellation token.
#[derive(Clone, Default)]
pub struct KillSwitch {
    state: Arc<KillState>,
}

impl std::fmt::Debug for KillSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KillSwitch")
            .field("killed", &self.is_killed())
            .finish()
    }
}

impl KillSwitch {
    /// Creates a live (not killed) switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flips the switch; every holder observes it, and every hook
    /// registered with [`on_kill`](Self::on_kill) runs on this thread.
    pub fn kill(&self) {
        self.state.killed.store(true, Ordering::SeqCst);
        // Run the hooks outside the lock: a hook may register another.
        let hooks = std::mem::take(&mut *self.state.hooks.lock());
        for hook in hooks {
            hook();
        }
    }

    /// Whether the switch has been flipped.
    pub fn is_killed(&self) -> bool {
        self.state.killed.load(Ordering::SeqCst)
    }

    /// Runs `hook` exactly once: when the switch flips (on the thread
    /// that calls [`kill`](Self::kill)), or right away if it already
    /// has.  This is how a blocked waiter learns of a kill without
    /// polling [`is_killed`](Self::is_killed) — the hook posts to
    /// whatever the waiter blocks on.
    pub fn on_kill(&self, hook: impl FnOnce() + Send + 'static) {
        {
            // `kill` stores the flag before it takes this lock, so a flag
            // still clear here means its drain has not happened yet and
            // will see the hook.
            let mut hooks = self.state.hooks.lock();
            if !self.is_killed() {
                hooks.push(Box::new(hook));
                return;
            }
        }
        hook();
    }
}

/// Link-level fault policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPolicy {
    /// Probability in `[0, 1]` of silently dropping a frame.
    pub drop_probability: f64,
    /// Extra delay injected before every send (straggler emulation).
    pub delay: Duration,
}

/// A [`Sender`] wrapper that injects faults per a [`FaultPolicy`] and
/// dies when its [`KillSwitch`] flips.  Works over any backend.
#[derive(Debug)]
pub struct FaultySender {
    inner: BoxSender,
    policy: FaultPolicy,
    kill: KillSwitch,
    /// Deterministic counter-based "randomness": frame `i` is dropped when
    /// `fract(i · φ) < drop_probability` (low-discrepancy, reproducible).
    counter: Arc<AtomicU64>,
}

impl Clone for FaultySender {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone_box(),
            policy: self.policy.clone(),
            kill: self.kill.clone(),
            counter: Arc::clone(&self.counter),
        }
    }
}

impl FaultySender {
    /// Wraps a sender with a fault policy and a kill switch.
    pub fn new(inner: BoxSender, policy: FaultPolicy, kill: KillSwitch) -> Self {
        Self {
            inner,
            policy,
            kill,
            counter: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Applies the fault policy to one frame: `Err(frame)` when the kill
    /// switch has flipped (the undelivered frame comes back), `Ok(None)`
    /// when the frame is dropped, and `Ok(Some(frame))` when it should be
    /// forwarded (after any scripted delay).
    fn inject(&self, frame: Frame) -> Result<Option<Frame>, Frame> {
        if self.kill.is_killed() {
            return Err(frame);
        }
        if !self.policy.delay.is_zero() {
            std::thread::sleep(self.policy.delay);
        }
        let i = self.counter.fetch_add(1, Ordering::Relaxed);
        if self.policy.drop_probability > 0.0 {
            const PHI: f64 = 0.618_033_988_749_894_9;
            let u = (i as f64 * PHI).fract();
            if u < self.policy.drop_probability {
                return Ok(None); // silently lost
            }
        }
        Ok(Some(frame))
    }

    /// The kill switch governing this sender.
    pub fn kill_switch(&self) -> &KillSwitch {
        &self.kill
    }

    /// The wrapped sender (for stats).
    pub fn inner(&self) -> &dyn Sender {
        self.inner.as_ref()
    }
}

impl Sender for FaultySender {
    /// Sends through the fault layer.  Returns `Err(Disconnected)` if the
    /// kill switch has flipped (the process is "dead").
    fn send(&self, frame: Frame) -> Result<(), Disconnected> {
        match self.inject(frame) {
            Err(_) => Err(Disconnected),
            Ok(None) => Ok(()),
            Ok(Some(frame)) => self.inner.send(frame),
        }
    }

    /// Deadline send through the fault layer (kill → `Disconnected`,
    /// drops swallow the frame, delays apply *before* the deadline clock
    /// starts — a straggler is slow, not timed out).
    fn send_timeout(&self, frame: Frame, timeout: Duration) -> Result<(), SendTimeoutError> {
        match self.inject(frame) {
            Err(frame) => Err(SendTimeoutError::Disconnected(frame)),
            Ok(None) => Ok(()),
            Ok(Some(frame)) => self.inner.send_timeout(frame, timeout),
        }
    }

    /// The barrier passes through the fault layer untouched (drops lose
    /// data frames, never delivery confirmation), but a killed link
    /// cannot confirm anything.
    fn flush(&self, timeout: Duration) -> Result<(), FlushError> {
        if self.kill.is_killed() {
            return Err(FlushError::Disconnected);
        }
        self.inner.flush(timeout)
    }

    fn stats(&self) -> Arc<LinkStats> {
        self.inner.stats()
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn clone_box(&self) -> BoxSender {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::channel;

    fn frame() -> Frame {
        bytes::Bytes::from_static(b"x")
    }

    #[test]
    fn kill_switch_stops_sends() {
        let (tx, rx) = channel(8);
        let kill = KillSwitch::new();
        let faulty = FaultySender::new(Box::new(tx), FaultPolicy::default(), kill.clone());
        faulty.send(frame()).unwrap();
        kill.kill();
        assert_eq!(faulty.send(frame()), Err(Disconnected));
        assert!(matches!(
            faulty.send_timeout(frame(), Duration::from_millis(10)),
            Err(SendTimeoutError::Disconnected(_))
        ));
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn drop_probability_loses_roughly_that_fraction() {
        let (tx, rx) = channel(10_000);
        let faulty = FaultySender::new(
            Box::new(tx),
            FaultPolicy {
                drop_probability: 0.25,
                delay: Duration::ZERO,
            },
            KillSwitch::new(),
        );
        for _ in 0..1000 {
            faulty.send(frame()).unwrap();
        }
        let delivered = rx.len() as f64;
        assert!((delivered - 750.0).abs() < 30.0, "delivered {delivered}");
    }

    #[test]
    fn zero_policy_is_transparent() {
        let (tx, rx) = channel(8);
        let faulty = FaultySender::new(Box::new(tx), FaultPolicy::default(), KillSwitch::new());
        for _ in 0..5 {
            faulty.send(frame()).unwrap();
        }
        assert_eq!(rx.len(), 5);
    }

    #[test]
    fn clones_share_the_drop_sequence() {
        // Two clones must consume one deterministic φ-sequence, not two.
        let (tx, rx) = channel(10_000);
        let faulty = FaultySender::new(
            Box::new(tx),
            FaultPolicy {
                drop_probability: 0.5,
                delay: Duration::ZERO,
            },
            KillSwitch::new(),
        );
        let clone = faulty.clone();
        for i in 0..1000 {
            if i % 2 == 0 {
                faulty.send(frame()).unwrap();
            } else {
                clone.send(frame()).unwrap();
            }
        }
        let delivered = rx.len() as f64;
        assert!((delivered - 500.0).abs() < 30.0, "delivered {delivered}");
    }

    #[test]
    fn kill_switch_clones_share_state() {
        let a = KillSwitch::new();
        let b = a.clone();
        b.kill();
        assert!(a.is_killed());
    }

    #[test]
    fn on_kill_hooks_run_exactly_once_before_or_after_the_flip() {
        let kill = KillSwitch::new();
        let runs = Arc::new(AtomicU64::new(0));
        let hook = |runs: &Arc<AtomicU64>| {
            let runs = Arc::clone(runs);
            move || {
                runs.fetch_add(1, Ordering::SeqCst);
            }
        };
        kill.on_kill(hook(&runs));
        kill.clone().on_kill(hook(&runs));
        assert_eq!(
            runs.load(Ordering::SeqCst),
            0,
            "nothing runs before the flip"
        );
        kill.kill();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        kill.kill();
        assert_eq!(runs.load(Ordering::SeqCst), 2, "a second kill runs nothing");
        kill.on_kill(hook(&runs));
        assert_eq!(runs.load(Ordering::SeqCst), 3, "late hooks run at once");
    }
}
