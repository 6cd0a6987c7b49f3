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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{BoxSender, Disconnected, FlushError, SendBatchError, SendTimeoutError, Sender};
use crate::endpoint::{Frame, LinkStats};
use crate::sync::{Condvar, Mutex};

/// A callback registered with [`KillSwitch::on_kill`].
type KillHook = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct KillState {
    killed: AtomicBool,
    /// Hooks waiting for the flip; drained (and run) by [`KillSwitch::kill`].
    hooks: Mutex<Vec<KillHook>>,
    /// Notified, under `hooks`, when the switch flips.
    flipped: Condvar,
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
        let hooks = {
            let mut hooks = self.state.hooks.lock();
            self.state.flipped.notify_all();
            std::mem::take(&mut *hooks)
        };
        for hook in hooks {
            hook();
        }
    }

    /// Blocks until the switch flips or `timeout` passes, and says
    /// whether it flipped.  A killed job that is waiting out a scripted
    /// pause ends at once instead of at the end of the pause.
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        let mut hooks = self.state.hooks.lock();
        // `kill` stores the flag before it takes this lock, so a flag
        // still clear here means its notification is still to come.
        while !self.is_killed() {
            hooks = match deadline {
                None => self.state.flipped.wait(hooks),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    self.state.flipped.wait_timeout(hooks, left)
                }
            };
        }
        true
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

/// What the fault layer does with one frame.
enum Verdict {
    /// The kill switch has flipped: the frame goes back to the caller.
    Killed,
    /// The frame is silently lost.
    Drop,
    /// The frame goes to the wrapped sender.
    Forward,
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

    /// The fault policy's verdict on the next frame of this link: the
    /// kill switch first, then the scripted delay, then the frame's place
    /// in the drop sequence.
    fn admit(&self) -> Verdict {
        if self.kill.is_killed() {
            return Verdict::Killed;
        }
        if !self.policy.delay.is_zero() {
            std::thread::sleep(self.policy.delay);
        }
        let i = self.counter.fetch_add(1, Ordering::Relaxed);
        if self.policy.drop_probability > 0.0 {
            const PHI: f64 = 0.618_033_988_749_894_9;
            let u = (i as f64 * PHI).fract();
            if u < self.policy.drop_probability {
                return Verdict::Drop; // silently lost
            }
        }
        Verdict::Forward
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
        match self.admit() {
            Verdict::Killed => Err(Disconnected),
            Verdict::Drop => Ok(()),
            Verdict::Forward => self.inner.send(frame),
        }
    }

    /// Deadline send through the fault layer (kill → `Disconnected`,
    /// drops swallow the frame, delays apply *before* the deadline clock
    /// starts — a straggler is slow, not timed out).
    fn send_timeout(&self, frame: Frame, timeout: Duration) -> Result<(), SendTimeoutError> {
        match self.admit() {
            Verdict::Killed => Err(SendTimeoutError::Disconnected(frame)),
            Verdict::Drop => Ok(()),
            Verdict::Forward => self.inner.send_timeout(frame, timeout),
        }
    }

    /// The policy is applied frame by frame, in order, as a send per
    /// frame would apply it — the same frames are dropped, each pays its
    /// delay, a kill stops the batch where it stands — and the survivors
    /// up to that point go to the wrapped sender as one batch.
    fn send_batch(
        &self,
        frames: &mut VecDeque<Frame>,
        timeout: Duration,
    ) -> Result<(), SendBatchError> {
        let mut admitted = 0;
        let mut after_kill = None;
        while admitted < frames.len() {
            match self.admit() {
                Verdict::Killed => {
                    after_kill = Some(frames.split_off(admitted));
                    break;
                }
                Verdict::Drop => drop(frames.remove(admitted)),
                Verdict::Forward => admitted += 1,
            }
        }
        let sent = self.inner.send_batch(frames, timeout);
        match after_kill {
            None => sent,
            Some(mut tail) => {
                frames.append(&mut tail);
                sent.and(Err(SendBatchError::Disconnected))
            }
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

    fn numbered(i: u64) -> Frame {
        bytes::Bytes::from(i.to_le_bytes().to_vec())
    }

    fn number_of(frame: &Frame) -> u64 {
        u64::from_le_bytes(frame[..].try_into().unwrap())
    }

    #[test]
    fn batches_drop_exactly_the_frames_single_sends_drop() {
        const N: u64 = 1000;
        const P_DROP: f64 = 0.3;
        const PHI: f64 = 0.618_033_988_749_894_9;
        let survivors: Vec<u64> = (0..N)
            .filter(|&i| (i as f64 * PHI).fract() >= P_DROP)
            .collect();
        let (tx, rx) = channel(N as usize);
        let faulty = FaultySender::new(
            Box::new(tx),
            FaultPolicy {
                drop_probability: P_DROP,
                delay: Duration::ZERO,
            },
            KillSwitch::new(),
        );
        // Batches of 0, 1, 2, … frames with single sends in between: the
        // drop sequence runs through them as through one stream.
        let mut next = 0;
        let mut size = 0;
        while next < N {
            let end = (next + size).min(N);
            let mut batch: VecDeque<Frame> = (next..end).map(numbered).collect();
            faulty
                .send_batch(&mut batch, Duration::from_secs(1))
                .unwrap();
            assert!(batch.is_empty());
            next = end;
            if next < N {
                faulty.send(numbered(next)).unwrap();
                next += 1;
            }
            size += 1;
        }
        let mut delivered = Vec::new();
        while let Ok(f) = rx.try_recv() {
            delivered.push(number_of(&f));
        }
        assert_eq!(delivered, survivors);
    }

    #[test]
    fn a_kill_mid_batch_delivers_what_came_before_and_returns_the_rest() {
        let (tx, rx) = channel(64);
        let kill = KillSwitch::new();
        // A per-frame delay gives the batch a middle to be killed in.
        let faulty = FaultySender::new(
            Box::new(tx),
            FaultPolicy {
                drop_probability: 0.0,
                delay: Duration::from_millis(2),
            },
            kill.clone(),
        );
        let admitted = Arc::clone(&faulty.counter);
        let killer = std::thread::spawn(move || {
            while admitted.load(Ordering::Relaxed) < 5 {
                std::thread::yield_now();
            }
            kill.kill();
        });
        let mut batch: VecDeque<Frame> = (0..40).map(numbered).collect();
        assert_eq!(
            faulty.send_batch(&mut batch, Duration::from_secs(1)),
            Err(SendBatchError::Disconnected)
        );
        killer.join().unwrap();
        let mut delivered = Vec::new();
        while let Ok(f) = rx.try_recv() {
            delivered.push(number_of(&f));
        }
        let returned: Vec<u64> = batch.iter().map(number_of).collect();
        assert!(delivered.len() >= 5 && !returned.is_empty());
        assert_eq!(delivered, (0..delivered.len() as u64).collect::<Vec<_>>());
        assert_eq!(returned, (delivered.len() as u64..40).collect::<Vec<_>>());
    }

    #[test]
    fn a_batch_the_link_cannot_take_comes_back_from_the_first_unsent_frame() {
        // Nobody drains a 3-deep link: frames 0..3 get in, 3.. come back.
        let (tx, rx) = channel(3);
        let faulty = FaultySender::new(Box::new(tx), FaultPolicy::default(), KillSwitch::new());
        let mut batch: VecDeque<Frame> = (0..7).map(numbered).collect();
        assert_eq!(
            faulty.send_batch(&mut batch, Duration::from_millis(10)),
            Err(SendBatchError::Timeout)
        );
        assert_eq!(
            batch.iter().map(number_of).collect::<Vec<_>>(),
            [3, 4, 5, 6]
        );
        assert_eq!(rx.len(), 3);
        assert_eq!(faulty.stats().messages_sent(), 3);
        assert_eq!(faulty.stats().sends_blocked(), 1);
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

    #[test]
    fn wait_returns_at_the_flip_or_at_the_timeout() {
        let kill = KillSwitch::new();
        assert!(!kill.wait(Duration::ZERO));
        assert!(!kill.wait(Duration::from_millis(5)));
        let k2 = kill.clone();
        let waiter = std::thread::spawn(move || {
            let started = Instant::now();
            (k2.wait(Duration::from_secs(30)), started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        kill.kill();
        let (flipped, waited) = waiter.join().unwrap();
        assert!(flipped);
        assert!(waited < Duration::from_secs(5), "woke after {waited:?}");
        assert!(kill.wait(Duration::MAX), "a flipped switch returns at once");
    }
}
