//! Per-thread event rings and the recorder that collects them.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{AbortReason, Event, EventKind, Verdict};

/// The trace recorder: hands out one [`RingHandle`] per worker thread
/// and collects their event rings when the handles drop.
///
/// The recorder itself is contended only at registration and teardown;
/// the recording hot path is confined to the owning thread's ring.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    capacity: usize,
    next_tid: AtomicU64,
    finished: Mutex<Vec<ThreadTrace>>,
}

impl Recorder {
    /// Default per-thread ring capacity, in events.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Creates a recorder with the default per-thread ring capacity.
    pub fn new() -> Arc<Recorder> {
        Recorder::with_capacity(Recorder::DEFAULT_CAPACITY)
    }

    /// Creates a recorder whose per-thread rings hold at most `capacity`
    /// events; once full, the oldest events are overwritten (and counted
    /// as dropped), so a long run keeps its most recent history.
    pub fn with_capacity(capacity: usize) -> Arc<Recorder> {
        assert!(capacity >= 1, "ring capacity must be positive");
        Arc::new(Recorder {
            epoch: Instant::now(),
            capacity,
            next_tid: AtomicU64::new(0),
            finished: Mutex::new(Vec::new()),
        })
    }

    /// Registers the calling worker thread: returns the handle it
    /// records through. The ring is flushed back into the recorder when
    /// the handle drops.
    pub fn register(self: &Arc<Self>, label: impl Into<String>) -> RingHandle {
        RingHandle {
            recorder: Arc::clone(self),
            tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
            label: label.into(),
            clock: Cell::new(0),
            ring: RefCell::new(Ring {
                buf: Vec::new(),
                head: 0,
                dropped: 0,
            }),
        }
    }

    /// Collects every flushed thread trace, ordered by registration.
    /// Call after all handles have dropped (e.g. after the worker scope
    /// ends); handles still live at this point simply contribute later.
    pub fn finish(&self) -> Trace {
        let mut threads = std::mem::take(&mut *self.finished.lock().expect("recorder mutex"));
        threads.sort_by_key(|t| t.tid);
        Trace { threads }
    }
}

#[derive(Debug)]
struct Ring {
    buf: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

/// One worker thread's recording handle: an exclusively-owned bounded
/// event ring plus the thread's view of the commit clock.
///
/// The handle is deliberately `!Sync`: all recording goes through a
/// shared reference on the owning thread, with no atomics and no locks.
/// Instrumentation sites receive `Option<&RingHandle>` — the disabled
/// path is a single branch and performs zero allocations.
#[derive(Debug)]
pub struct RingHandle {
    recorder: Arc<Recorder>,
    tid: u64,
    label: String,
    clock: Cell<u64>,
    ring: RefCell<Ring>,
}

impl RingHandle {
    /// Updates the commit-clock stamp used by subsequent [`record`]
    /// calls (the runtime refreshes it whenever it reads the clock).
    ///
    /// [`record`]: RingHandle::record
    pub fn set_clock(&self, clock: u64) {
        self.clock.set(clock);
    }

    /// The current commit-clock stamp.
    pub fn clock(&self) -> u64 {
        self.clock.get()
    }

    /// Records one event, stamped with the handle's current clock and
    /// the elapsed monotonic time. Allocation-free once the ring has
    /// reached capacity; until then it grows the preallocated buffer
    /// amortized, like any `Vec` push.
    pub fn record(&self, kind: EventKind) {
        let ts_ns = u64::try_from(self.recorder.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let event = Event {
            clock: self.clock.get(),
            ts_ns,
            kind,
        };
        let capacity = self.recorder.capacity;
        let mut ring = self.ring.borrow_mut();
        if ring.buf.len() < capacity {
            ring.buf.push(event);
        } else {
            let head = ring.head;
            ring.buf[head] = event;
            ring.head = (head + 1) % capacity;
            ring.dropped += 1;
        }
    }
}

impl Drop for RingHandle {
    fn drop(&mut self) {
        let ring = self.ring.get_mut();
        // Rotate so events come out oldest-first.
        let mut events = std::mem::take(&mut ring.buf);
        events.rotate_left(ring.head);
        self.recorder
            .finished
            .lock()
            .expect("recorder mutex")
            .push(ThreadTrace {
                tid: self.tid,
                label: std::mem::take(&mut self.label),
                events,
                dropped: ring.dropped,
            });
    }
}

/// One worker thread's recorded events, oldest first.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Registration-order thread id (the Chrome-trace track id).
    pub tid: u64,
    /// The thread's label ("worker-0", ...).
    pub label: String,
    /// The recorded events, in recording order.
    pub events: Vec<Event>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
}

/// A completed trace: every worker thread's event ring.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-thread traces, ordered by registration.
    pub threads: Vec<ThreadTrace>,
}

impl Trace {
    /// Iterates over every event of every thread.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.threads.iter().flat_map(|t| t.events.iter())
    }

    /// Total events recorded (excluding dropped ones).
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten across all rings.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Number of events whose kind label is `label`.
    pub fn count(&self, label: &str) -> u64 {
        self.events().filter(|e| e.kind.label() == label).count() as u64
    }

    /// Aborts carrying the given reason.
    pub fn aborts_with_reason(&self, reason: AbortReason) -> u64 {
        self.events()
            .filter(|e| matches!(e.kind, EventKind::Abort { reason: r, .. } if r == reason))
            .count() as u64
    }

    /// Per-cell checks that returned a conflict verdict.
    pub fn conflict_checks(&self) -> u64 {
        self.events()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::PerCellCheck {
                        verdict: Verdict::Conflict,
                        ..
                    }
                )
            })
            .count() as u64
    }

    /// Checks lifecycle well-formedness per thread: every `begin` is
    /// closed by exactly one `commit` or `abort` of the same task before
    /// the next `begin`, validation and per-cell events occur only
    /// inside an open attempt, and timestamps are monotone within each
    /// thread. Returns the first violation found. Traces with dropped
    /// events are rejected (their prefix is gone).
    pub fn check_well_formed(&self) -> Result<(), String> {
        for t in &self.threads {
            if t.dropped > 0 {
                return Err(format!(
                    "thread {} dropped {} events; the trace is partial",
                    t.label, t.dropped
                ));
            }
            let mut open: Option<u64> = None;
            let mut last_ts = 0u64;
            for (i, e) in t.events.iter().enumerate() {
                if e.ts_ns < last_ts {
                    return Err(format!(
                        "thread {} event {i}: timestamp regressed ({} < {last_ts})",
                        t.label, e.ts_ns
                    ));
                }
                last_ts = e.ts_ns;
                match (&e.kind, open) {
                    (EventKind::Begin { task }, None) => open = Some(*task),
                    (EventKind::Begin { .. }, Some(prev)) => {
                        return Err(format!(
                            "thread {} event {i}: begin while task {prev} is still open",
                            t.label
                        ));
                    }
                    (EventKind::Commit { task } | EventKind::Abort { task, .. }, Some(prev)) => {
                        if *task != prev {
                            return Err(format!(
                                "thread {} event {i}: task {task} closed an attempt \
                                 opened by task {prev}",
                                t.label
                            ));
                        }
                        open = None;
                    }
                    (EventKind::Commit { .. } | EventKind::Abort { .. }, None) => {
                        return Err(format!(
                            "thread {} event {i}: {} without an open attempt",
                            t.label,
                            e.kind.label()
                        ));
                    }
                    (
                        EventKind::ValidateOpen { .. }
                        | EventKind::DeltaRevalidate { .. }
                        | EventKind::PerCellCheck { .. },
                        None,
                    ) => {
                        return Err(format!(
                            "thread {} event {i}: {} outside any attempt",
                            t.label,
                            e.kind.label()
                        ));
                    }
                    _ => {}
                }
            }
            if let Some(task) = open {
                return Err(format!(
                    "thread {}: attempt of task {task} never closed",
                    t.label
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(h: &RingHandle, task: u64) {
        h.record(EventKind::Begin { task });
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let rec = Recorder::with_capacity(4);
        {
            let h = rec.register("w0");
            for task in 1..=6 {
                begin(&h, task);
            }
        }
        let trace = rec.finish();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.dropped(), 2);
        let tasks: Vec<u64> = trace
            .events()
            .map(|e| match e.kind {
                EventKind::Begin { task } => task,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            tasks,
            vec![3, 4, 5, 6],
            "oldest events overwritten, order kept"
        );
    }

    #[test]
    fn clock_and_timestamps_are_stamped() {
        let rec = Recorder::new();
        {
            let h = rec.register("w0");
            h.set_clock(7);
            begin(&h, 1);
            h.set_clock(8);
            h.record(EventKind::Commit { task: 1 });
        }
        let trace = rec.finish();
        let events: Vec<&Event> = trace.events().collect();
        assert_eq!(events[0].clock, 7);
        assert_eq!(events[1].clock, 8);
        assert!(events[0].ts_ns <= events[1].ts_ns, "monotone timestamps");
        assert_eq!(trace.threads[0].label, "w0");
    }

    #[test]
    fn well_formedness_accepts_and_rejects() {
        let rec = Recorder::new();
        {
            let h = rec.register("w0");
            begin(&h, 1);
            h.record(EventKind::ValidateOpen { window_segments: 0 });
            h.record(EventKind::Abort {
                task: 1,
                reason: AbortReason::Conflict,
            });
            // Scheduler events are legal between attempts.
            h.record(EventKind::SchedBackoff { task: 1, steps: 3 });
            begin(&h, 1);
            h.record(EventKind::Commit { task: 1 });
        }
        let trace = rec.finish();
        assert!(trace.check_well_formed().is_ok());
        assert_eq!(trace.aborts_with_reason(AbortReason::Conflict), 1);
        assert_eq!(trace.aborts_with_reason(AbortReason::Poisoned), 0);

        let rec = Recorder::new();
        {
            let h = rec.register("w0");
            begin(&h, 1);
            begin(&h, 2); // nested begin: malformed
        }
        assert!(rec.finish().check_well_formed().is_err());

        let rec = Recorder::new();
        {
            let h = rec.register("w0");
            h.record(EventKind::Commit { task: 1 }); // commit without begin
        }
        assert!(rec.finish().check_well_formed().is_err());
    }

    #[test]
    fn multiple_threads_sorted_by_registration() {
        let rec = Recorder::new();
        let h1 = rec.register("w1");
        let h0 = rec.register("w0-but-second");
        drop(h0);
        drop(h1);
        let trace = rec.finish();
        assert_eq!(trace.threads.len(), 2);
        assert_eq!(trace.threads[0].label, "w1");
        assert_eq!(trace.threads[0].tid, 0);
    }
}
