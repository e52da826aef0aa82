//! Admission control for the serve loop: a bounded inflight queue with
//! explicit load shedding.
//!
//! The producer (protocol reader) calls [`AdmissionQueue::offer`],
//! which either admits the batch or returns [`Admission::Shed`] when
//! the queue is at capacity — the client gets a distinct `shed`
//! response instead of unbounded queueing. The consumer (the pipeline
//! loop) pops batches with [`AdmissionQueue::take`], blocking until
//! one arrives or the queue is closed. Backpressure is the pipeline's
//! own depth bound: the consumer takes a new batch only when the
//! executor has room, so the queue depth — sampled into
//! `serve.inflight_depth` on every offer — is the service's lag
//! signal.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

use crate::stats::ServeStats;

/// Why an offer was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The batch was queued.
    Admitted,
    /// The queue was full; the batch was dropped (load shedding).
    Shed,
    /// The queue was closed; no further batches are accepted.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer single-consumer queue with shed-on-full
/// semantics, instrumented into [`ServeStats`].
pub struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
    stats: Arc<ServeStats>,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` batches at a time.
    pub fn new(capacity: usize, stats: Arc<ServeStats>) -> Self {
        assert!(capacity >= 1, "admission capacity must be at least 1");
        AdmissionQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
            stats,
        }
    }

    /// The shared serve statistics.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// Offers a batch: admitted if there is room, shed otherwise.
    /// Never blocks the producer.
    pub fn offer(&self, item: T) -> Admission {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.stats.depth.lock().observe(st.items.len() as u64);
        if st.closed {
            return Admission::Closed;
        }
        if st.items.len() >= self.capacity {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Admission::Shed;
        }
        st.items.push_back(item);
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.ready.notify_one();
        Admission::Admitted
    }

    /// Enqueues unconditionally, bypassing the capacity bound and the
    /// admission counters. For control-plane items (drain markers,
    /// shutdown) that must never be shed; data batches go through
    /// [`AdmissionQueue::offer`].
    pub fn push(&self, item: T) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.items.push_back(item);
        drop(st);
        self.ready.notify_one();
    }

    /// Takes the oldest admitted batch, blocking until one arrives.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn take(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: pending batches remain takeable, new offers
    /// return [`Admission::Closed`], and blocked consumers wake.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(cap: usize) -> AdmissionQueue<u32> {
        AdmissionQueue::new(cap, Arc::new(ServeStats::default()))
    }

    #[test]
    fn sheds_when_full_and_admits_after_a_take() {
        let q = queue(2);
        assert_eq!(q.offer(1), Admission::Admitted);
        assert_eq!(q.offer(2), Admission::Admitted);
        assert_eq!(q.offer(3), Admission::Shed);
        assert_eq!(q.take(), Some(1));
        assert_eq!(q.offer(4), Admission::Admitted);
        let r = q.stats().report();
        assert_eq!((r.admitted, r.shed), (3, 1));
        // Depth was sampled at every offer, including the shed one.
        assert_eq!(q.stats().depth.lock().count(), 4);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = queue(4);
        assert_eq!(q.offer(7), Admission::Admitted);
        q.close();
        assert_eq!(q.offer(8), Admission::Closed);
        assert_eq!(q.take(), Some(7));
        assert_eq!(q.take(), None);
    }

    #[test]
    fn blocked_consumer_wakes_on_offer_and_on_close() {
        let q = Arc::new(queue(4));
        let taker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (q.take(), q.take()))
        };
        q.offer(5);
        q.close();
        let (a, b) = taker.join().unwrap();
        assert_eq!((a, b), (Some(5), None));
    }
}
