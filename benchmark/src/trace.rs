//! In-memory spans recorded from outside the program, and the layer
//! ledger derived from them.
//!
//! Spans are opened by the bench-owned wrappers in [`crate::seams`] (and
//! by the in-process drivers around `BlockExecutor::submit`, `Janus::run`
//! and friends) — never from inside the program's source. Each thread
//! records into its own buffer; buffers are registered globally on first
//! use so they survive the thread (the program spawns and retires
//! worker threads on its own schedule). Nothing is written anywhere
//! until the measurement is over.
//!
//! A span's *self time* is its duration minus the part its child spans
//! cover. Spans nest per thread; across threads they are tied together
//! by `id`, the transaction / batch / round they belong to.

use std::cell::{Cell, OnceCell};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// The layer boundaries spans are recorded at. The text before the dot
/// is the layer (= crate) the time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    /// One closed-loop round on the client thread (id: round).
    ServeRound,
    /// `BlockExecutor::submit` (id: batch).
    BlockSubmit,
    /// `BlockExecutor::drain` (id: round).
    BlockDrain,
    /// `Janus::run` (id: repetition).
    CoreRun,
    /// A task body (id: transaction).
    CoreExecute,
    /// `ConflictDetector::begin_validation_traced` (id: transaction).
    DetectBegin,
    /// `ValidationSession::extend` (id: transaction).
    DetectExtend,
    /// `SequenceOracle::query` (id: transaction).
    TrainQuery,
    /// `TaskSource::next_task` (id: worker).
    SchedDispatch,
    /// `TaskSource::on_abort` (id: task).
    SchedAbort,
    /// `CommitSink::committed` forwarded to the journal (id: transaction).
    WalAppend,
    /// `Wal::flush` behind a `drained` (id: round).
    WalFlush,
    /// `janus_wal::recover` (id: 0).
    WalRecover,
}

impl Name {
    /// Every span name, in ledger order.
    pub const ALL: [Name; 13] = [
        Name::ServeRound,
        Name::BlockSubmit,
        Name::BlockDrain,
        Name::CoreRun,
        Name::CoreExecute,
        Name::DetectBegin,
        Name::DetectExtend,
        Name::TrainQuery,
        Name::SchedDispatch,
        Name::SchedAbort,
        Name::WalAppend,
        Name::WalFlush,
        Name::WalRecover,
    ];

    /// The span's name in the span file and the ledger.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::ServeRound => "serve.round",
            Name::BlockSubmit => "block.submit",
            Name::BlockDrain => "block.drain",
            Name::CoreRun => "core.run",
            Name::CoreExecute => "core.execute",
            Name::DetectBegin => "detect.begin_validation",
            Name::DetectExtend => "detect.extend",
            Name::TrainQuery => "train.query",
            Name::SchedDispatch => "sched.next_task",
            Name::SchedAbort => "sched.on_abort",
            Name::WalAppend => "wal.append",
            Name::WalFlush => "wal.flush",
            Name::WalRecover => "wal.recover",
        }
    }

    /// Whether the span is recorded on a worker thread, inside the
    /// per-transaction protocol. These are the spans whose self times
    /// the ledger sums against `wall x workers`; the others run on the
    /// client or consumer thread and mostly wait for workers.
    pub fn on_worker(self) -> bool {
        matches!(
            self,
            Name::CoreExecute
                | Name::DetectBegin
                | Name::DetectExtend
                | Name::TrainQuery
                | Name::SchedDispatch
                | Name::SchedAbort
                | Name::WalAppend
        )
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which boundary.
    pub name: Name,
    /// Index of the enclosing span in the same thread's buffer, or
    /// `u32::MAX`.
    parent: u32,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch; 0 while open.
    pub end_ns: u64,
    /// Transaction, batch or round the span belongs to.
    pub id: u64,
}

#[derive(Default)]
struct ThreadBuf {
    spans: Vec<Span>,
    /// Innermost open span.
    open: u32,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());

thread_local! {
    static BUF: OnceCell<Arc<Mutex<ThreadBuf>>> = const { OnceCell::new() };
    /// The transaction whose attempt this worker thread is running: set
    /// by the task-body wrapper, read by the validation and sink
    /// wrappers that run later in the same attempt.
    static CURRENT_TXN: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    BUF.with(|cell| {
        let buf = cell.get_or_init(|| {
            let buf = Arc::new(Mutex::new(ThreadBuf {
                spans: Vec::with_capacity(1024),
                open: NO_PARENT,
            }));
            REGISTRY
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&buf));
            buf
        });
        // Only this thread and the end-of-run collector ever lock it.
        f(&mut buf.lock().unwrap_or_else(|e| e.into_inner()))
    })
}

/// Marks `txn` as the transaction this thread is now working on.
pub fn set_current_txn(txn: u64) {
    CURRENT_TXN.with(|c| c.set(txn));
}

/// The transaction this thread last started executing.
pub fn current_txn() -> u64 {
    CURRENT_TXN.with(Cell::get)
}

/// An open span; closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    index: u32,
}

/// Opens a span on the calling thread.
pub fn span(name: Name, id: u64) -> SpanGuard {
    let start_ns = now_ns();
    let index = with_buf(|buf| {
        let index = buf.spans.len() as u32;
        buf.spans.push(Span {
            name,
            parent: buf.open,
            start_ns,
            end_ns: 0,
            id,
        });
        buf.open = index;
        index
    });
    SpanGuard { index }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        with_buf(|buf| {
            // A collector may have taken the buffer while this span was
            // open (it never does during a measurement); then there is
            // nothing left to close.
            if let Some(span) = buf.spans.get_mut(self.index as usize) {
                span.end_ns = end_ns;
                buf.open = span.parent;
            }
        });
    }
}

/// Everything recorded since the last [`take`], one buffer per thread.
pub struct Trace {
    threads: Vec<Vec<Span>>,
}

/// Takes every thread's spans and forgets threads that have ended.
/// Call between measurements, when no span is open.
pub fn take() -> Trace {
    let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let threads = registry
        .iter()
        .map(|buf| {
            let mut buf = buf.lock().unwrap_or_else(|e| e.into_inner());
            buf.open = NO_PARENT;
            std::mem::take(&mut buf.spans)
        })
        .filter(|spans| !spans.is_empty())
        .collect();
    // A buffer only the registry still holds belongs to a dead thread.
    registry.retain(|buf| Arc::strong_count(buf) > 1);
    Trace { threads }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Row {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus child spans), ns.
    pub self_ns: u64,
}

impl Row {
    /// Mean duration in ns (0 with no spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Per-name totals of a [`Trace`].
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    rows: [Row; Name::ALL.len()],
}

impl Ledger {
    /// The totals for `name`.
    pub fn row(&self, name: Name) -> Row {
        self.rows[name as usize]
    }

    /// Sum of self times over the worker-side spans, ns.
    pub fn worker_self_ns(&self) -> u64 {
        Name::ALL
            .iter()
            .filter(|n| n.on_worker())
            .map(|n| self.row(*n).self_ns)
            .sum()
    }
}

impl Trace {
    /// Total spans recorded.
    pub fn len(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sums durations and self times per span name.
    pub fn ledger(&self) -> Ledger {
        let mut ledger = Ledger::default();
        for spans in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for span in spans {
                let dur = span.end_ns.saturating_sub(span.start_ns);
                if let Some(covered) = child_ns.get_mut(span.parent as usize) {
                    *covered += dur;
                }
            }
            for (span, covered) in spans.iter().zip(&child_ns) {
                let dur = span.end_ns.saturating_sub(span.start_ns);
                let row = &mut ledger.rows[span.name as usize];
                row.count += 1;
                row.total_ns += dur;
                row.self_ns += dur.saturating_sub(*covered);
            }
        }
        ledger
    }

    /// The span file: a header and at most `cap` spans (the earliest of
    /// each thread, so whole transactions stay together). Span ids are
    /// `thread * 2^32 + index`; `parent` is a span id or `null`.
    pub fn to_json(&self, header: Vec<(&'static str, Json)>, cap: usize) -> Json {
        let per_thread = cap / self.threads.len().max(1);
        let mut written = Vec::new();
        for (t, spans) in self.threads.iter().enumerate() {
            let gid = |i: u32| Json::Num(((t as u64) << 32 | u64::from(i)) as f64);
            for (i, s) in spans.iter().take(per_thread).enumerate() {
                written.push(Json::obj([
                    ("span", gid(i as u32)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            gid(s.parent)
                        },
                    ),
                    ("name", Json::Str(s.name.as_str().into())),
                    ("thread", Json::Num(t as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("id", Json::Num(s.id as f64)),
                ]));
            }
        }
        let mut doc: Vec<(&'static str, Json)> = header;
        doc.push(("spans_recorded", Json::Num(self.len() as f64)));
        doc.push(("spans_written", Json::Num(written.len() as f64)));
        doc.push(("spans", Json::Arr(written)));
        Json::obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_threads_are_kept_apart() {
        // Own thread so parallel tests cannot interleave their spans
        // into the nesting checked here.
        std::thread::spawn(|| {
            let outer = span(Name::DetectExtend, 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span(Name::TrainQuery, 7);
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
            drop(outer);
        })
        .join()
        .unwrap();
        let trace = take();
        let ledger = trace.ledger();
        let (outer, inner) = (ledger.row(Name::DetectExtend), ledger.row(Name::TrainQuery));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 4_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 2_000_000);
        let doc = trace.to_json(vec![], 10);
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent"), spans[0].get("span"));
    }
}
