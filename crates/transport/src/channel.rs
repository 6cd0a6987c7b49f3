//! Tests of the HWM queue behind [`crate::endpoint::channel`]: blocking at
//! the high-water mark, disconnects, the waiter-counted wake-ups, and two
//! model checks that a batch call is the same sequence of single calls.
//! Frames carry a `u32` each, so order and loss are visible.

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::VecDeque;
    use std::thread;
    use std::time::Duration;

    use proptest::prelude::*;

    use crate::api::{
        Disconnected, RecvTimeoutError, SendBatchError, SendTimeoutError, TryRecvError,
    };
    use crate::endpoint::{channel, ChannelReceiver, Frame, HwmSender};

    thread_local! {
        /// `wake_one` calls made by this thread.
        pub(crate) static WAKES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn wakes() -> u64 {
        WAKES.with(|n| n.get())
    }

    fn frame(v: u32) -> Frame {
        Frame::copy_from_slice(&v.to_le_bytes())
    }

    fn value(f: &Frame) -> u32 {
        u32::from_le_bytes(f[..].try_into().expect("a 4-byte frame"))
    }

    fn values<'a>(frames: impl IntoIterator<Item = &'a Frame>) -> Vec<u32> {
        frames.into_iter().map(value).collect()
    }

    fn frames(values: std::ops::Range<u32>) -> VecDeque<Frame> {
        values.map(frame).collect()
    }

    /// Spins until the receiver sleeps on the queue: the interleaving the
    /// wake-up tests need, forced rather than slept for.
    fn await_sleeping_receiver(tx: &HwmSender) {
        while !tx.queue.state.lock().recv_waiting {
            thread::yield_now();
        }
    }

    fn await_sleeping_senders(rx: &ChannelReceiver, n: usize) {
        while rx.queue.state.lock().send_waiting < n {
            thread::yield_now();
        }
    }

    #[test]
    fn bounded_blocks_at_capacity_and_drains() {
        let (tx, rx) = channel(2);
        tx.send(frame(1)).unwrap();
        tx.send(frame(2)).unwrap();
        assert!(matches!(
            tx.send_timeout(frame(3), Duration::ZERO),
            Err(SendTimeoutError::Timeout(f)) if value(&f) == 3
        ));
        let t = thread::spawn(move || {
            await_sleeping_senders(&rx, 1);
            let v = rx.recv().unwrap();
            (value(&v), rx) // keep the receiver alive until after the send
        });
        tx.send(frame(3)).unwrap(); // unblocks once the receiver drains
        let (v, rx) = t.join().unwrap();
        assert_eq!(v, 1);
        drop(rx);
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = channel(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(frame(7)).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(frame(7)));
    }

    #[test]
    fn disconnects_propagate_both_ways() {
        let (tx, rx) = channel(1);
        drop(rx);
        assert!(matches!(
            tx.send_timeout(frame(1), Duration::ZERO),
            Err(SendTimeoutError::Disconnected(f)) if value(&f) == 1
        ));
        let (tx2, rx2) = channel(1);
        tx2.send(frame(9)).unwrap();
        drop(tx2);
        assert_eq!(rx2.recv(), Ok(frame(9))); // queued frames drain first
        assert_eq!(rx2.recv(), Err(Disconnected));
    }

    #[test]
    fn a_timed_out_batch_leaves_its_unsent_tail_and_counts_one_blocked_send() {
        let (tx, rx) = channel(2);
        let mut batch = frames(0..5);
        let timeout = Duration::from_millis(20);
        assert_eq!(
            tx.send_batch(&mut batch, Some(timeout)),
            Err(SendBatchError::Timeout)
        );
        assert_eq!(values(&batch), [2, 3, 4], "the unsent tail, in order");
        assert_eq!(
            tx.stats().sends_blocked(),
            1,
            "frame 2 found the buffer full"
        );
        assert!(tx.stats().blocked_time() >= timeout);
        let mut got = Vec::new();
        assert_eq!(rx.recv_batch(&mut got, 10, None), Ok(2));
        assert_eq!(values(&got), [0, 1]);
        // Room for two again: the tail stops at the next frame over.
        assert_eq!(
            tx.send_batch(&mut batch, Some(Duration::ZERO)),
            Err(SendBatchError::Timeout)
        );
        assert_eq!(values(&batch), [4]);
        assert_eq!(tx.stats().sends_blocked(), 2);
        assert_eq!(rx.recv_batch(&mut got, 2, None), Ok(2));
        assert_eq!(tx.send_batch(&mut batch, None), Ok(()));
        assert!(batch.is_empty());
        assert_eq!(
            tx.stats().sends_blocked(),
            2,
            "a send that finds room is not blocked"
        );
        assert_eq!(rx.recv(), Ok(frame(4)));
        assert_eq!(values(&got), [0, 1, 2, 3]);
        assert_eq!(tx.stats().messages_sent(), 5, "each frame counted once");
    }

    #[test]
    fn a_batch_blocks_mid_way_at_capacity_and_resumes_in_order() {
        let (tx, rx) = channel(3);
        let producer = thread::spawn(move || {
            let mut batch = frames(0..10);
            tx.send_batch(&mut batch, None).unwrap();
            tx.stats().clone()
        });
        // Nothing is taken before the producer sleeps on a full buffer, so
        // frames 3.. provably waited mid-batch.
        await_sleeping_senders(&rx, 1);
        assert_eq!(rx.len(), 3);
        let got: Vec<u32> = (0..10).map(|_| value(&rx.recv().unwrap())).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        let stats = producer.join().unwrap();
        assert!(stats.sends_blocked() >= 1 && stats.sends_blocked() <= 7);
        assert!(stats.blocked_time() > Duration::ZERO);
    }

    #[test]
    fn a_batch_to_no_receiver_comes_back_whole_and_mid_batch_loses_nothing() {
        let (tx, rx) = channel(4);
        drop(rx);
        let mut batch = frames(0..3);
        assert_eq!(
            tx.send_batch(&mut batch, None),
            Err(SendBatchError::Disconnected)
        );
        assert_eq!(values(&batch), [0, 1, 2]);

        // Receiver dropped while the batch waits at capacity: what was
        // buffered plus the returned tail is the whole batch, in order.
        let (tx, rx) = channel(2);
        let producer = thread::spawn(move || {
            let mut batch = frames(0..6);
            let res = tx.send_batch(&mut batch, None);
            (res, values(&batch))
        });
        await_sleeping_senders(&rx, 1);
        let mut got = Vec::new();
        rx.recv_batch(&mut got, 1, None).unwrap();
        drop(rx);
        let (res, tail) = producer.join().unwrap();
        assert_eq!(res, Err(SendBatchError::Disconnected));
        assert_eq!(values(&got), [0]);
        assert!(tail.len() == 3 || tail.len() == 4, "tail {tail:?}");
        assert!(tail.iter().copied().eq(6 - tail.len() as u32..6));
    }

    #[test]
    fn recv_many_takes_what_is_queued_up_to_max_then_reports_the_disconnect() {
        let (tx, rx) = channel(8);
        for v in 0..5 {
            tx.send(frame(v)).unwrap();
        }
        let mut got = Vec::new();
        assert_eq!(rx.recv_batch(&mut got, 3, None), Ok(3));
        assert_eq!(rx.recv_batch(&mut got, 0, None), Ok(0));
        drop(tx);
        assert_eq!(rx.recv_batch(&mut got, 9, None), Ok(2));
        assert_eq!(values(&got), [0, 1, 2, 3, 4]);
        assert_eq!(
            rx.recv_batch(&mut got, 9, None),
            Err(RecvTimeoutError::Disconnected)
        );
        let (_tx, rx) = channel(1);
        assert_eq!(
            rx.recv_batch(&mut got, 9, Some(Duration::from_millis(5))),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn nobody_waiting_means_no_wake_up_and_a_batch_wakes_once() {
        let (tx, rx) = channel(16);
        let before = wakes();
        for v in 0..4 {
            tx.send(frame(v)).unwrap();
        }
        tx.send_batch(&mut frames(4..8), None).unwrap();
        assert_eq!(
            wakes(),
            before,
            "the receiver did not sleep: nothing to wake"
        );
        let mut got = Vec::new();
        rx.recv_batch(&mut got, 16, None).unwrap();
        assert_eq!(wakes(), before, "no sender slept either");

        let sleeper = thread::spawn(move || {
            let mut got = Vec::new();
            rx.recv_batch(&mut got, 16, None).unwrap();
            values(&got)
        });
        await_sleeping_receiver(&tx);
        tx.send_batch(&mut frames(0..8), None).unwrap();
        assert_eq!(wakes(), before + 1, "one wake-up for the whole batch");
        assert_eq!(sleeper.join().unwrap(), (0..8).collect::<Vec<_>>());
    }

    /// One step of a single-threaded script run against the queue and
    /// against a plain bounded queue.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        SendMany(usize),
        SendEach(usize),
        RecvMany(usize),
        RecvEach(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..4, 0usize..9).prop_map(|(kind, n)| match kind {
            0 => Step::SendMany(n),
            1 => Step::SendEach(n),
            2 => Step::RecvMany(n),
            _ => Step::RecvEach(n),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// With nobody on the other side and a zero timeout, a batch call
        /// buffers, returns and counts exactly what the same frames sent
        /// (received) one by one do.
        #[test]
        fn batches_equal_the_same_sequence_of_single_calls(
            cap in 1usize..7,
            script in prop::collection::vec(step(), 1..24),
        ) {
            let now = Duration::ZERO;
            let (tx, rx) = channel(cap);
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut next = 0u32;
            let mut buffered = 0u64;
            for step in script {
                match step {
                    Step::SendMany(n) | Step::SendEach(n) => {
                        let values_sent: Vec<u32> = (next..next + n as u32).collect();
                        let fits = n.min(cap - model.len());
                        model.extend(&values_sent[..fits]);
                        let blocked_before = tx.stats().sends_blocked();
                        let tail: Vec<u32> = if matches!(step, Step::SendMany(_)) {
                            let mut batch = frames(next..next + n as u32);
                            let res = tx.send_batch(&mut batch, Some(now));
                            prop_assert_eq!(res.is_ok(), fits == n);
                            values(&batch)
                        } else {
                            let mut unsent = values_sent.iter().copied();
                            let mut tail = Vec::new();
                            for v in unsent.by_ref() {
                                if let Err(e) = tx.send_timeout(frame(v), now) {
                                    prop_assert!(matches!(e, SendTimeoutError::Timeout(ref f) if value(f) == v));
                                    tail.push(v);
                                    break;
                                }
                            }
                            tail.extend(unsent);
                            tail
                        };
                        prop_assert_eq!(&tail[..], &values_sent[fits..], "unsent tail");
                        prop_assert_eq!(
                            tx.stats().sends_blocked() - blocked_before,
                            u64::from(fits < n)
                        );
                        buffered += fits as u64;
                        prop_assert_eq!(tx.stats().messages_sent(), buffered);
                        // A later step re-sends nothing: the tail is dropped.
                        next += n as u32;
                    }
                    Step::RecvMany(n) | Step::RecvEach(n) => {
                        let want: Vec<u32> = model.drain(..n.min(model.len())).collect();
                        let mut got = Vec::new();
                        if matches!(step, Step::RecvMany(_)) {
                            let res = rx.recv_batch(&mut got, n, Some(now));
                            if n > 0 && want.is_empty() {
                                prop_assert_eq!(res, Err(RecvTimeoutError::Timeout));
                            } else {
                                prop_assert_eq!(res, Ok(want.len()));
                            }
                        } else {
                            for _ in 0..n {
                                match rx.try_recv() {
                                    Ok(f) => got.push(f),
                                    Err(e) => {
                                        prop_assert_eq!(e, TryRecvError::Empty);
                                        break;
                                    }
                                }
                            }
                        }
                        prop_assert_eq!(values(&got), want, "received run");
                    }
                }
                prop_assert_eq!(rx.len(), model.len());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A producer mixing batches and single sends against a consumer
        /// mixing `recv_batch` and `recv` on a small buffer: every frame
        /// arrives once, in order, whatever blocks where.
        #[test]
        fn mixed_batch_and_single_traffic_arrives_in_order_exactly_once(
            cap in 1usize..6,
            sends in prop::collection::vec(0usize..12, 1..16),
            takes in prop::collection::vec(1usize..9, 1..8),
        ) {
            let (tx, rx) = channel(cap);
            let total: usize = sends.iter().sum();
            let producer = thread::spawn(move || {
                let mut next = 0u32;
                for (i, n) in sends.into_iter().enumerate() {
                    let mut batch = frames(next..next + n as u32);
                    next += n as u32;
                    if i % 2 == 0 {
                        tx.send_batch(&mut batch, None).unwrap();
                    } else {
                        for f in batch {
                            tx.send(f).unwrap();
                        }
                    }
                }
            });
            let mut got = Vec::with_capacity(total);
            let mut takes = takes.iter().copied().cycle();
            loop {
                let max = takes.next().expect("cycle");
                let res = if max == 1 {
                    rx.recv().map(|f| got.push(f)).map_err(|_| ())
                } else {
                    rx.recv_batch(&mut got, max, None).map(|_| ()).map_err(|_| ())
                };
                if res.is_err() {
                    break; // producer done and buffer drained
                }
            }
            producer.join().unwrap();
            prop_assert_eq!(values(&got), (0..total as u32).collect::<Vec<_>>());
        }
    }
}
