//! Bounded FIFO queues with explicit backpressure.
//!
//! Every hand-off inside the broker — ingest, match completion, control
//! ops, per-connection outboxes — goes through a [`BoundedQueue`]: a
//! `VecDeque` behind a `Mutex` with two `Condvar`s, a hard capacity, and
//! a configurable policy for what happens at the high-water mark. Nothing
//! in the pipeline is ever an unbounded `Vec`, and consumers never
//! busy-wait: producers park on `not_full`, consumers on `not_empty`.
//!
//! Two policies cover the two legitimate overload responses:
//!
//! * [`Backpressure::Block`] — the producer parks until space frees up.
//!   Right for ingest: a client pushing documents faster than the matcher
//!   pool drains them should feel the broker slow down (TCP backpressure
//!   propagates all the way to the peer's `write`).
//! * [`Backpressure::Shed`] — the item is dropped and counted. Right for
//!   per-subscriber outboxes: one slow consumer must not stall fan-out to
//!   everyone else.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// What a [`BoundedQueue`] does when a push finds the queue at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Park the producer until the consumer frees a slot.
    Block,
    /// Drop the pushed item and bump the shed counter.
    Shed,
}

/// Outcome of a [`BoundedQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The item is in the queue.
    Enqueued,
    /// The queue was full under [`Backpressure::Shed`]; the item was
    /// dropped and counted.
    Shed,
    /// The queue was closed; the item was dropped.
    Closed,
}

impl PushOutcome {
    /// True if the item made it into the queue.
    pub fn is_enqueued(self) -> bool {
        self == PushOutcome::Enqueued
    }
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    shed: u64,
}

/// A bounded multi-producer multi-consumer FIFO queue.
///
/// ```
/// use pxf_broker::queue::{Backpressure, BoundedQueue};
/// let q = BoundedQueue::new(2, Backpressure::Shed);
/// assert!(q.push(1).is_enqueued());
/// assert!(q.push(2).is_enqueued());
/// assert!(!q.push(3).is_enqueued()); // at capacity: shed
/// assert_eq!(q.pop(), Some(1));      // strictly FIFO
/// assert_eq!(q.pop(), Some(2));
/// q.close();
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.shed_count(), 1);
/// ```
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    policy: Backpressure,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize, policy: Backpressure) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                shed: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            policy,
        }
    }

    /// Enqueues an item at the tail. At capacity, either parks
    /// ([`Backpressure::Block`]) or drops the item ([`Backpressure::Shed`]).
    /// Pushing to a closed queue always drops.
    pub fn push(&self, item: T) -> PushOutcome {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if inner.closed {
                return PushOutcome::Closed;
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                drop(inner);
                self.not_empty.notify_one();
                return PushOutcome::Enqueued;
            }
            match self.policy {
                Backpressure::Shed => {
                    inner.shed += 1;
                    return PushOutcome::Shed;
                }
                Backpressure::Block => {
                    inner = self.not_full.wait(inner).expect("queue poisoned");
                }
            }
        }
    }

    /// Enqueues `items` in order under one lock and wakes consumers once,
    /// so a batch costs its consumer one wake-up, not one per item (on a
    /// shared CPU each wake-up can preempt the producer). Each item meets
    /// the policy as in [`Self::push`]; returns how many were enqueued.
    pub(crate) fn push_all(&self, items: impl IntoIterator<Item = T>) -> usize {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let mut enqueued = 0;
        for item in items {
            loop {
                if inner.closed {
                    break;
                }
                if inner.items.len() < self.capacity {
                    inner.items.push_back(item);
                    enqueued += 1;
                    break;
                }
                match self.policy {
                    Backpressure::Shed => {
                        inner.shed += 1;
                        break;
                    }
                    Backpressure::Block => {
                        // What is queued must reach a consumer first.
                        self.not_empty.notify_all();
                        inner = self.not_full.wait(inner).expect("queue poisoned");
                    }
                }
            }
        }
        drop(inner);
        self.not_empty.notify_all();
        enqueued
    }

    /// Dequeues the head item, parking until one is available. Returns
    /// `None` once the queue is closed *and* drained — a closed queue
    /// still yields every item pushed before the close.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue poisoned");
        }
    }

    /// Dequeues up to `max` items into `out`, parking until at least one
    /// is available. Returns the number taken; 0 means closed-and-drained.
    /// Consumers that pin per-batch state (the matcher pool pins one
    /// engine snapshot per batch) use this instead of item-at-a-time pops.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> usize {
        let max = max.max(1);
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if !inner.items.is_empty() {
                let n = max.min(inner.items.len());
                out.extend(inner.items.drain(..n));
                drop(inner);
                self.not_full.notify_all();
                return n;
            }
            if inner.closed {
                return 0;
            }
            inner = self.not_empty.wait(inner).expect("queue poisoned");
        }
    }

    /// Dequeues up to `max` items into `out` without ever parking.
    /// Returns the number taken — 0 simply means the queue is empty right
    /// now (or closed). The subscription-writer thread uses this to
    /// opportunistically batch control ops behind a blocking [`Self::pop`]
    /// so one snapshot publish covers the whole batch.
    pub fn try_drain(&self, max: usize, out: &mut Vec<T>) -> usize {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let n = max.min(inner.items.len());
        if n > 0 {
            out.extend(inner.items.drain(..n));
            drop(inner);
            self.not_full.notify_all();
        }
        n
    }

    /// Closes the queue: subsequent pushes drop, consumers drain what is
    /// left and then observe the end of the queue.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// True if nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items dropped at the high-water mark (shed policy only).
    pub fn shed_count(&self) -> u64 {
        self.inner.lock().expect("queue poisoned").shed
    }

    /// The configured capacity (high-water mark).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured overload policy.
    pub fn policy(&self) -> Backpressure {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// The PR-8 delivery-order satellite, at the primitive level: items
    /// come out in exactly the order they went in (the example's previous
    /// shared `Vec` + `pop()` was LIFO).
    #[test]
    fn strictly_fifo_across_threads() {
        let q = BoundedQueue::new(8, Backpressure::Block);
        std::thread::scope(|scope| {
            let q = &q;
            scope.spawn(move || {
                for i in 0..1000u32 {
                    assert!(q.push(i).is_enqueued());
                }
                q.close();
            });
            let mut expected = 0u32;
            while let Some(i) = q.pop() {
                assert_eq!(i, expected, "FIFO order violated");
                expected += 1;
            }
            assert_eq!(expected, 1000);
        });
    }

    #[test]
    fn block_policy_parks_producer_until_space() {
        let q = BoundedQueue::new(1, Backpressure::Block);
        assert!(q.push(0u32).is_enqueued());
        let parked = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let q = &q;
            let parked = &parked;
            scope.spawn(move || {
                // Full queue: this parks until the main thread pops.
                assert!(q.push(1).is_enqueued());
                parked.store(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(
                parked.load(Ordering::SeqCst),
                0,
                "push must block at capacity"
            );
            assert_eq!(q.pop(), Some(0));
        });
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.shed_count(), 0);
    }

    #[test]
    fn shed_policy_drops_and_counts_at_high_water() {
        let q = BoundedQueue::new(2, Backpressure::Shed);
        assert!(q.push('a').is_enqueued());
        assert!(q.push('b').is_enqueued());
        assert_eq!(q.push('c'), PushOutcome::Shed);
        assert_eq!(q.push('d'), PushOutcome::Shed);
        assert_eq!(q.shed_count(), 2);
        assert_eq!(q.pop(), Some('a'));
        assert!(q.push('e').is_enqueued());
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), Some('e'));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4, Backpressure::Block);
        q.push(1);
        q.push(2);
        q.close();
        assert_eq!(q.push(3), PushOutcome::Closed);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_unblocks_waiting_consumer() {
        let q = BoundedQueue::<u32>::new(4, Backpressure::Block);
        std::thread::scope(|scope| {
            let q = &q;
            let waiter = scope.spawn(move || q.pop());
            std::thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(waiter.join().unwrap(), None);
        });
    }

    #[test]
    fn try_drain_never_blocks() {
        let q = BoundedQueue::new(8, Backpressure::Block);
        let mut out = Vec::new();
        assert_eq!(q.try_drain(4, &mut out), 0);
        q.push(7u32);
        q.push(8);
        assert_eq!(q.try_drain(4, &mut out), 2);
        assert_eq!(out, vec![7, 8]);
    }

    /// A batch keeps its order and meets each policy item by item; under
    /// `Block` a batch larger than the queue reaches a consumer that was
    /// already parked on the empty queue.
    #[test]
    fn push_all_is_push_per_item_with_one_wake_up() {
        let q = BoundedQueue::new(3, Backpressure::Shed);
        assert_eq!(q.push_all(0..5u32), 3);
        assert_eq!(q.shed_count(), 2);
        q.close();
        assert_eq!(q.push_all([9]), 0);
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, [0, 1, 2]);

        let q = BoundedQueue::new(2, Backpressure::Block);
        std::thread::scope(|scope| {
            let q = &q;
            let consumer = scope.spawn(move || (0..50).map(|_| q.pop()).collect::<Vec<_>>());
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(q.push_all(0..50u32), 50);
            let got = consumer.join().unwrap();
            assert_eq!(got, (0..50).map(Some).collect::<Vec<_>>());
        });
    }

    #[test]
    fn pop_batch_takes_up_to_max_in_order() {
        let q = BoundedQueue::new(16, Backpressure::Block);
        for i in 0..10u32 {
            q.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(4, &mut out), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.pop_batch(100, &mut out), 6);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        q.close();
        assert_eq!(q.pop_batch(4, &mut out), 0);
    }
}
