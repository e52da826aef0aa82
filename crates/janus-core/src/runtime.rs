//! The parallel runtime: `DOPARALLEL` / `RUNTASK` / `CREATETRANSACTION` /
//! `COMMIT` of Figure 7.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use janus_detect::{ConflictDetector, ValidationSession};
use janus_fault::{FaultKind, FaultPlan, INJECTED_PANIC_PREFIX};
use janus_log::{CommittedLog, HistoryWindow, Op, SHARD_SPACE};
use janus_obs::{AbortReason, EventKind, Recorder, RingHandle};
use janus_sched::{backoff, Fifo, Parker, SchedStats, SchedulePolicy, TaskSource};
use janus_train::{train, CommutativityCache, TrainConfig, TrainReport, TrainingRun};

use crate::exec::{run_jobs, Job};
use crate::shard::{
    merge_slots, partition_slots, report, snapshot_slots, ActiveBegins, Oracle, SeqEntry, Shard,
    ShardReport, DEFAULT_SHARDS,
};
use crate::store::{SnapshotState, Store};
use crate::txview::TxView;

/// What the runtime does with a panic escaping a task body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanicPolicy {
    /// Fail-stop (the default, the seed behavior): the run is poisoned,
    /// other workers stop picking up work, ordered waiters bail out, and
    /// the first panic payload is re-raised from [`Janus::run`].
    #[default]
    Poison,
    /// Fault isolation: the panicking task's transaction is discarded,
    /// the task is recorded in [`Outcome::failed`] (payload message and
    /// attempt count), and the remaining tasks run to completion. In
    /// ordered runs the failed task's commit turn is released so
    /// successors never hang.
    Isolate,
}

/// One task isolated after a body panic under [`PanicPolicy::Isolate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// The failed task's 1-based id.
    pub task: u64,
    /// The panic payload, rendered to a string when possible.
    pub message: String,
    /// Attempts the task made, including the failing one.
    pub attempts: u32,
}

/// Renders a panic payload as a string when possible (for
/// [`TaskFailure::message`] and a failed block's error).
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker-phase encoding for the watchdog's diagnostic dump: each worker
/// publishes `phase | task << 3` into one relaxed atomic, so the dump
/// can name what every worker was doing when progress stopped.
mod phase {
    pub const IDLE: u64 = 0;
    pub const RUNNING: u64 = 1;
    pub const ORDERED_WAIT: u64 = 2;
    pub const VALIDATING: u64 = 3;
    pub const COMMITTING: u64 = 4;
    pub const BACKOFF: u64 = 5;
    pub const DONE: u64 = 6;

    pub fn label(p: u64) -> &'static str {
        match p {
            IDLE => "idle",
            RUNNING => "running",
            ORDERED_WAIT => "ordered-wait",
            VALIDATING => "validating",
            COMMITTING => "committing",
            BACKOFF => "backoff",
            DONE => "done",
            _ => "unknown",
        }
    }

    /// Phases in which the worker is parked waiting for someone else.
    pub fn is_parked(p: u64) -> bool {
        matches!(p, ORDERED_WAIT | BACKOFF)
    }
}

/// One published phase word per worker (see [`phase`]).
struct WorkerPhases(Vec<AtomicU64>);

impl WorkerPhases {
    fn new(workers: usize) -> Self {
        WorkerPhases((0..workers).map(|_| AtomicU64::new(phase::IDLE)).collect())
    }

    fn set(&self, worker: usize, phase: u64, task: u64) {
        self.0[worker].store(phase | (task << 3), Ordering::Relaxed);
    }

    fn get(&self, worker: usize) -> (u64, u64) {
        let v = self.0[worker].load(Ordering::Relaxed);
        (v & 7, v >> 3)
    }
}

/// Decrements the live-worker count when its worker exits — by return,
/// break, or unwind — so the watchdog can never wait on a dead worker.
struct LiveGuard<'a>(&'a AtomicU64);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        // AcqRel: the release half publishes everything the exiting
        // worker did (its final phase word, counter updates) to the
        // watchdog's Acquire load of the live count.
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An observer of every commit ticket the session oracle issues — the
/// seam the durable commit journal (`janus-wal`) hangs off.
///
/// [`CommitSink::committed`] is invoked inside the commit critical
/// section, with every touched shard's write lock still held,
/// immediately after the ticket draw and the shard publishes. That
/// placement is the durability contract: the oracle draws tickets only
/// for commits, and every ticket reaches the sink exactly once, so a
/// sink can reconstruct the dense commit sequence. Commits touching
/// disjoint shards run concurrently, so *calls arrive out of ticket
/// order*; an ordering sink must reorder internally (the WAL buffers by
/// ticket and drains the contiguous prefix).
///
/// Implementations must not block and must do no I/O, and must never
/// take a shard lock: they run under all of the committer's shard
/// locks, and anything heavier than an append to a queue lengthens
/// every conflicting commit's critical section. The WAL's sink only
/// frames the record onto its journal thread's queue; the write and the
/// fsync happen on that thread, outside every shard lock.
pub trait CommitSink: Send + Sync {
    /// One committed transaction: its commit ticket, the bitmask of
    /// store shards it touched, and its full operation log (reads
    /// included; sinks that persist effects filter on
    /// [`Op::is_write`]).
    fn committed(&self, seq: u64, shard_mask: u64, ops: &[Op]);

    /// Never called: the oracle draws no ticket for a failed task. Kept
    /// with an empty body so existing implementations still compile.
    fn skipped(&self, _seq: u64) {}
}

/// The state that outlives one batch: the commit-sequence oracle, the
/// ordered commit turn, the in-flight begin multiset (the GC
/// watermark), and the sharded store. Everything per-batch lives in
/// `BatchCtx` instead.
struct SessionCore {
    /// The commit-sequence oracle: one fetch-add ticket counter,
    /// monotone across every batch of the session.
    oracle: Oracle,
    /// The ordered-mode commit turn: the global task id whose commit is
    /// next, starting at 1. Task ids are dense across the session, so
    /// one turn orders every ordered batch's commits. Untouched by
    /// unordered batches.
    turn: AtomicU64,
    /// In-flight begin tickets across *all* concurrent batches — the
    /// epoch watermark that fences cross-batch history reclamation.
    active: ActiveBegins,
    /// The class-hash-routed store shards, each behind its own lock.
    shards: Vec<Shard>,
}

/// A session's tasks, reserved by [`Session::reserve`] and run by
/// [`Session::run`]: task `i` runs as global id `first_tid + i`.
///
/// On an ordered session a batch owns its ids' commit turns. Dropping
/// it — drained, poisoned, unwound or never run — first waits for its
/// own first turn (a committing predecessor's turn stores would undo an
/// early release), then hands the turn on past its last id. So on any
/// one thread, run or drop an ordered session's batches in reservation
/// order. Locals drop in reverse order: two ordered batches held in one
/// scope hang that thread if the scope unwinds or returns before both
/// ran.
#[must_use = "an ordered batch holds its ids' turns until it is run or dropped"]
pub struct Batch {
    core: Arc<SessionCore>,
    ordered: bool,
    tasks: Vec<Task>,
    first_tid: u64,
    end_tid: u64,
}

impl Batch {
    /// Global id of the batch's first task.
    pub fn first_tid(&self) -> u64 {
        self.first_tid
    }
}

impl Drop for Batch {
    fn drop(&mut self) {
        if self.ordered {
            let turn = &self.core.turn;
            let mut parker = Parker::new();
            // Acquire pairs with the predecessor's Release turn advance.
            while turn.load(Ordering::Acquire) < self.first_tid {
                parker.pause();
            }
            // Release pairs with successors' Acquire turn loads: taking a
            // released turn implies seeing this batch's shard publishes. A
            // drained batch finds the turn already at `end_tid`.
            turn.fetch_max(self.end_tid, Ordering::Release);
        }
    }
}

/// A long-lived execution session over one store, under the [`Janus`]
/// configuration that opened it: batches run through [`Session::run`]
/// share the session's oracle, watermark and shards, so a later batch
/// validates against — and is reclaimed with — everything earlier
/// batches committed. Created by [`Janus::open_session`]; [`Janus::run`]
/// is the one-batch special case.
pub struct Session {
    janus: Arc<Janus>,
    core: Arc<SessionCore>,
    /// The store the session was opened over, minus its slots (which
    /// live in the shards until [`Session::finish`]).
    base: Store,
    /// The next unassigned global task id (1-based, dense across
    /// batches so fault-plan subjects and ordered turns stay unique).
    next_tid: AtomicU64,
}

impl Session {
    /// A point-in-time copy of the store, without closing the session
    /// (read-locks one shard at a time; concurrent batches keep
    /// committing).
    pub fn store(&self) -> Store {
        let mut store = self.base.clone();
        store.slots = snapshot_slots(&self.core.shards);
        store
    }

    /// The committed value of one location now, read-locking only the
    /// shard that owns it.
    pub fn value(&self, loc: janus_log::LocId) -> Option<janus_relational::Value> {
        let shard = &self.core.shards[loc.shard(self.core.shards.len())];
        shard.data.read().slots.get(&loc).map(|s| s.value.clone())
    }

    /// Per-shard commit-path statistics since the session opened.
    pub fn shard_report(&self) -> ShardReport {
        report(&self.core.shards)
    }

    /// Commit tickets issued so far: the commits of every batch.
    pub fn commit_seq(&self) -> u64 {
        self.core.oracle.now() - 1
    }

    /// Reserves the next dense range of global task ids for `tasks`, on
    /// the calling thread: batches reserved in order get their ids in
    /// that order however their workers are scheduled. On an ordered
    /// session they also commit in that order; run or hand off each
    /// batch before reserving the next (see [`Batch`]).
    pub fn reserve(&self, tasks: Vec<Task>) -> Batch {
        let n = tasks.len() as u64;
        let first_tid = self.next_tid.fetch_add(n, Ordering::Relaxed);
        Batch {
            core: Arc::clone(&self.core),
            ordered: self.janus.ordered,
            tasks,
            first_tid,
            end_tid: first_tid + n,
        }
    }

    /// Runs one batch of this session, worker 0 on the calling thread
    /// and the other workers on the process-wide pool.
    ///
    /// Batches on one session may run concurrently: the block pipeline
    /// overlaps batch N+1 with batch N, and the shared oracle/watermark
    /// keep cross-batch snapshots and GC sound. Unordered batches commit
    /// as they validate, interleaved; every commit is validated against
    /// the session's whole history, so the result stays serializable.
    /// Ordered batches follow the session's turn. Poisoning is
    /// batch-scoped: a panic under [`PanicPolicy::Poison`] propagates
    /// from this call without stopping sibling batches.
    pub fn run(&self, mut batch: Batch) -> BatchOutcome {
        assert!(
            Arc::ptr_eq(&batch.core, &self.core),
            "batch of another session"
        );
        // A copy per batch: in-flight batches sharing the session's one
        // ran serve-wal about 5 % slower (2-core host, paired runs).
        let janus = &Arc::new((*self.janus).clone());
        let started = Instant::now();
        let at_start = self.cumulative_counters();
        let tasks = std::mem::take(&mut batch.tasks);
        let workers = janus.threads.min(tasks.len().max(1));
        let ctx = Arc::new(BatchCtx {
            core: Arc::clone(&self.core),
            first_tid: batch.first_tid,
            counters: RunCounters::default(),
            // One dispatch state per batch: the policy is reusable
            // config, the source is this batch's shared queue state.
            source: janus.schedule.bind(tasks.len(), workers),
            poisoned: AtomicBool::new(false),
            phases: WorkerPhases::new(workers),
            failed: parking_lot::Mutex::new(Vec::new()),
            panic_payload: parking_lot::Mutex::new(None),
            dumps: parking_lot::Mutex::new(Vec::new()),
            live: AtomicU64::new(workers as u64),
            tasks,
        });
        let mut jobs: Vec<Job> = Vec::with_capacity(workers + 1);
        for w in 0..workers {
            let (cfg, ctx) = (Arc::clone(janus), Arc::clone(&ctx));
            jobs.push(Box::new(move || cfg.worker_loop(w, &ctx)));
        }
        if let Some(interval) = janus.watchdog {
            let (cfg, ctx) = (Arc::clone(janus), Arc::clone(&ctx));
            jobs.push(Box::new(move || cfg.watchdog_loop(interval, &ctx)));
        }
        run_jobs(jobs);

        if let Some(payload) = ctx.panic_payload.lock().take() {
            std::panic::resume_unwind(payload);
        }
        let counters = &ctx.counters;
        let at_end = self.cumulative_counters();
        let [ops_scanned, segments_skipped, segments_scanned, faults_injected, history_reclaimed] =
            std::array::from_fn(|i| at_end[i].saturating_sub(at_start[i]));
        let sched = ctx.source.stats();
        let mut failed = std::mem::take(&mut *ctx.failed.lock());
        failed.sort_by_key(|f| f.task);
        let watchdog_dumps = std::mem::take(&mut *ctx.dumps.lock());
        BatchOutcome {
            sched,
            failed,
            watchdog_dumps,
            first_tid: batch.first_tid,
            poisoned: ctx.poisoned.load(Ordering::Acquire),
            stats: RunStats {
                commits: counters.commits.load(Ordering::Relaxed),
                retries: counters.retries.load(Ordering::Relaxed),
                wall: started.elapsed(),
                history_reclaimed,
                detect_ops_scanned: ops_scanned,
                delta_revalidations: counters.delta_revalidations.load(Ordering::Relaxed),
                fastpath_segments_skipped: segments_skipped,
                fastpath_segments_scanned: segments_scanned,
                zero_copy_windows: counters.zero_copy_windows.load(Ordering::Relaxed),
                faults_injected,
                tasks_failed: counters.tasks_failed.load(Ordering::Relaxed),
                watchdog_fires: counters.watchdog_fires.load(Ordering::Relaxed),
            },
        }
    }

    /// The session-cumulative counters a batch reports as deltas:
    /// detector operations scanned, prefilter segments skipped and
    /// scanned, faults injected, history entries reclaimed.
    fn cumulative_counters(&self) -> [u64; 5] {
        let (detect, faults) = (self.janus.detector.stats(), &self.janus.faults);
        [
            detect.ops_scanned(),
            detect.segments_skipped(),
            detect.segments_scanned(),
            faults.as_ref().map_or(0, |f| f.stats().injected()),
            self.core
                .shards
                .iter()
                .map(|s| s.stats.reclaimed_total())
                .sum(),
        ]
    }

    /// Closes the session: tears the shards down into the final store
    /// and the cumulative shard report.
    ///
    /// # Panics
    ///
    /// Panics if a batch of the session is still reserved or running.
    pub fn finish(self) -> (Store, ShardReport) {
        let core = Arc::try_unwrap(self.core)
            .ok()
            .expect("no batch may be reserved or running when a session finishes");
        let (slots, shard_stats) = merge_slots(core.shards);
        let mut store = self.base;
        store.slots = slots;
        (store, shard_stats)
    }
}

/// One batch's shared state, bundled so every worker, the watchdog, and
/// each attempt see the same view without Figure 7's parameter list
/// growing past readability. `Arc`-owned so worker jobs are `'static`
/// and can run on pooled threads that outlive the batch call.
struct BatchCtx {
    core: Arc<SessionCore>,
    tasks: Vec<Task>,
    /// Global id of `tasks[0]`; task `i` runs as `first_tid + i`.
    first_tid: u64,
    counters: RunCounters,
    source: Box<dyn TaskSource>,
    /// Batch-scoped: a poisoned batch stops its own workers and waiters
    /// without touching sibling batches on the same session.
    poisoned: AtomicBool,
    phases: WorkerPhases,
    failed: parking_lot::Mutex<Vec<TaskFailure>>,
    panic_payload: parking_lot::Mutex<Option<Box<dyn std::any::Any + Send>>>,
    dumps: parking_lot::Mutex<Vec<String>>,
    /// Workers still running (the watchdog's exit condition).
    live: AtomicU64,
}

/// One shard's slots, privatized by an O(1) persistent-map clone.
type ShardMap = janus_persist::PersistentMap<janus_log::LocId, crate::store::Slot>;

/// What every `RUNTASK` stage shares: the task's global id, its worker,
/// the attempt number (consecutive conflict aborts so far — it drives
/// backoff and fault sites), the batch and the ring.
#[derive(Clone, Copy)]
struct TaskCtx<'c> {
    tid: u64,
    worker: usize,
    attempt: u32,
    ctx: &'c BatchCtx,
    obs: Option<&'c RingHandle>,
}

/// A begin ticket pinned in the session's [`ActiveBegins`] (the GC
/// watermark) until dropped. Every exit of an attempt — commit,
/// conflict, isolation, poison bail, unwind — releases it by dropping
/// its [`Attempt`]; the commit path does so before reading the floor.
struct Registration<'c> {
    active: &'c ActiveBegins,
    begin: u64,
}

impl<'c> Registration<'c> {
    fn pin(active: &'c ActiveBegins, begin: u64) -> Self {
        active.register(begin);
        Registration { active, begin }
    }
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        self.active.unregister(self.begin);
    }
}

/// `CREATETRANSACTION`'s result: the pinned begin ticket and the
/// per-shard snapshot taken under it.
struct Attempt<'c> {
    _registration: Registration<'c>,
    /// Each shard's absolute history head at snapshot time — where this
    /// attempt's validation window opens.
    begin_pos: Vec<u64>,
    maps: Arc<[ShardMap]>,
}

/// What an executed attempt will publish, resolved outside the locks.
struct CommitPlan {
    /// The attempt's log, decomposed exactly once for every validation
    /// pass and every published segment.
    log: Arc<CommittedLog>,
    /// The shards the log touches, ascending — the commit's lock order.
    touched: Vec<usize>,
    /// Per touched shard, the history entry it receives; its
    /// per-location index is also the shard's replay plan.
    publish: Vec<Arc<CommittedLog>>,
}

impl CommitPlan {
    /// Decomposes the log once and plans its publish to each of the
    /// `n` shards it touches.
    fn new(ops: Vec<Op>, n: usize) -> Self {
        let log = Arc::new(CommittedLog::new(ops));
        let mut touched: Vec<usize> = log.index().locs.keys().map(|l| l.shard(n)).collect();
        touched.sort_unstable();
        touched.dedup();
        // The whole log when one shard holds the entire footprint, else
        // a per-shard view sharing its ops and index entries —
        // publishing the full log to several shards would make
        // multi-shard validators see each operation once per shard.
        let publish = if touched.len() <= 1 {
            touched.iter().map(|_| Arc::clone(&log)).collect()
        } else {
            touched
                .iter()
                .map(|&s| Arc::new(log.restrict(|loc| loc.shard(n) == s)))
                .collect()
        };
        CommitPlan {
            log,
            touched,
            publish,
        }
    }
}

/// An open validation: the detector session and, per touched shard, the
/// absolute history position validated up to (positional, not
/// ticket-indexed — pruned prefixes leave no holes).
struct Validation<'a> {
    session: Box<dyn ValidationSession + 'a>,
    validated: Vec<u64>,
    served_nonempty: bool,
}

/// The one wait in `RUNTASK`: parks `worker` in the ordered-wait phase
/// until the session's turn reaches `tid`. Returns `false` if the batch
/// is poisoned first: a predecessor turn may then never come.
///
/// Acquire pairs with the committer's Release turn advance: holding the
/// turn implies every predecessor's shard publishes are visible.
fn await_turn(ctx: &BatchCtx, worker: usize, tid: u64) -> bool {
    ctx.phases.set(worker, phase::ORDERED_WAIT, tid);
    ctx.source.on_park(worker);
    let mut parker = Parker::new();
    let ready = loop {
        if ctx.core.turn.load(Ordering::Acquire) == tid {
            break true;
        }
        // Acquire pairs with the Release poison store.
        if ctx.poisoned.load(Ordering::Acquire) {
            break false;
        }
        parker.pause();
    };
    ctx.source.on_unpark(worker);
    ready
}

/// Closes an attempt cut short by a poisoned batch. The distinct reason
/// keeps these aborts out of contention attribution.
fn record_poisoned(obs: Option<&RingHandle>, tid: u64) {
    if let Some(o) = obs {
        o.record(EventKind::Abort {
            task: tid,
            reason: AbortReason::Poisoned,
        });
    }
}

/// The result of one batch on a session: statistics only — the store
/// stays in the session until [`Session::finish`].
#[derive(Debug)]
pub struct BatchOutcome {
    /// Execution statistics of this batch.
    pub stats: RunStats,
    /// Scheduling statistics of this batch.
    pub sched: SchedStats,
    /// Tasks isolated after a body panic under [`PanicPolicy::Isolate`],
    /// sorted by global task id.
    pub failed: Vec<TaskFailure>,
    /// Diagnostic dumps emitted by the commit-clock watchdog, in order.
    pub watchdog_dumps: Vec<String>,
    /// Global id of the batch's first task.
    pub first_tid: u64,
    /// Whether the batch was poisoned without an unwinding payload
    /// (a watchdog fire under [`PanicPolicy::Isolate`]): some tasks may
    /// not have run. Always `false` when the batch drained normally.
    pub poisoned: bool,
}

/// One unit of work: a program plus its initial data values (`o ↦ ν`),
/// captured in a closure that runs against a [`TxView`].
#[derive(Clone)]
pub struct Task {
    body: Arc<dyn Fn(&mut TxView) + Send + Sync>,
}

impl Task {
    /// Wraps a closure as a task.
    pub fn new(body: impl Fn(&mut TxView) + Send + Sync + 'static) -> Self {
        Task {
            body: Arc::new(body),
        }
    }

    /// Runs the task body against a view.
    pub fn run(&self, tx: &mut TxView) {
        (self.body)(tx)
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Task")
    }
}

/// Execution statistics of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of tasks (= committed transactions).
    pub commits: u64,
    /// Number of aborted transaction attempts (`RUNTASK` returning
    /// `false`). The retries-to-transactions ratio of Figure 10 is
    /// `retries / commits`.
    pub retries: u64,
    /// Wall-clock duration of the parallel region.
    pub wall: Duration,
    /// Commit-log entries reclaimed by history GC.
    pub history_reclaimed: u64,
    /// Operations handed to per-cell conflict checks during this run —
    /// the cost driver incremental validation exists to bound.
    pub detect_ops_scanned: u64,
    /// Residual passes: attempts whose touched shards moved between
    /// the open validation and the commit locks, and that re-detected
    /// only the moved entries under those locks. At most one per attempt.
    pub delta_revalidations: u64,
    /// History segments dismissed by the footprint-fingerprint prefilter
    /// without decomposition-index inspection (disjoint in O(1)).
    pub fastpath_segments_skipped: u64,
    /// History segments whose fingerprints overlapped the transaction's
    /// and that therefore went through full per-location inspection.
    pub fastpath_segments_scanned: u64,
    /// History windows served zero-copy (shared pre-decomposed segments;
    /// no operation cloned, no log re-decomposed).
    pub zero_copy_windows: u64,
    /// Faults injected by the attached [`FaultPlan`] during this run
    /// (zero with no plan attached).
    pub faults_injected: u64,
    /// Tasks isolated after a body panic ([`PanicPolicy::Isolate`]).
    pub tasks_failed: u64,
    /// Times the commit-clock watchdog observed no progress for a full
    /// interval and emitted a diagnostic dump.
    pub watchdog_fires: u64,
}

impl RunStats {
    /// The retries-to-transactions ratio (Figure 10's metric).
    pub fn retry_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.retries as f64 / self.commits as f64
        }
    }
}

impl janus_obs::Snapshot for RunStats {
    fn source(&self) -> &'static str {
        "run"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        [
            ("commits", self.commits),
            ("retries", self.retries),
            (
                "wall_ns",
                u64::try_from(self.wall.as_nanos()).unwrap_or(u64::MAX),
            ),
            ("history_reclaimed", self.history_reclaimed),
            ("detect_ops_scanned", self.detect_ops_scanned),
            ("delta_revalidations", self.delta_revalidations),
            ("fastpath_segments_skipped", self.fastpath_segments_skipped),
            ("fastpath_segments_scanned", self.fastpath_segments_scanned),
            ("zero_copy_windows", self.zero_copy_windows),
            ("faults_injected", self.faults_injected),
            ("tasks_failed", self.tasks_failed),
            ("watchdog_fires", self.watchdog_fires),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect()
    }
}

/// The result of a parallel run: the final shared state and statistics.
#[derive(Debug)]
pub struct Outcome {
    /// The shared state after all tasks committed.
    pub store: Store,
    /// Run statistics.
    pub stats: RunStats,
    /// Scheduling statistics (dispatch, backoff).
    pub sched: SchedStats,
    /// Tasks isolated after a body panic under [`PanicPolicy::Isolate`],
    /// sorted by task id. Empty under [`PanicPolicy::Poison`] (the panic
    /// propagates instead) and in fault-free runs.
    pub failed: Vec<TaskFailure>,
    /// Diagnostic dumps emitted by the commit-clock watchdog, in order.
    pub watchdog_dumps: Vec<String>,
    /// Per-shard commit-path statistics: commits, write-lock wait,
    /// history retention and reclamation, one entry per store shard.
    pub shard_stats: ShardReport,
}

/// Monotone counters shared by the worker threads of one run.
#[derive(Default)]
struct RunCounters {
    /// Committed transactions, counted at each `COMMIT` — the commit
    /// clock mirrors it, but statistics must not be derived from clock
    /// arithmetic (poisoned runs stop the clock mid-flight).
    commits: AtomicU64,
    retries: AtomicU64,
    delta_revalidations: AtomicU64,
    zero_copy_windows: AtomicU64,
    tasks_failed: AtomicU64,
    watchdog_fires: AtomicU64,
}

/// The JANUS runtime: a conflict detector plus execution policy. Mirrors
/// the `run`, `runInOrder` and `runOutOfOrder` entry points of the
/// prototype's Java API via the [`Janus::ordered`] switch.
///
/// Cheap to clone: configuration is a handful of `Arc`s and scalars.
/// Each [`Session`] keeps a copy, and each batch its own copy of that.
#[derive(Clone)]
pub struct Janus {
    detector: Arc<dyn ConflictDetector>,
    threads: usize,
    shards: usize,
    ordered: bool,
    recorder: Option<Arc<Recorder>>,
    schedule: Arc<dyn SchedulePolicy>,
    panic_policy: PanicPolicy,
    watchdog: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
    commit_sink: Option<Arc<dyn CommitSink>>,
}

impl Janus {
    /// Creates a runtime over a conflict detector, with unordered commits
    /// and one thread per available core.
    pub fn new(detector: Arc<dyn ConflictDetector>) -> Self {
        Janus {
            detector,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            shards: DEFAULT_SHARDS,
            ordered: false,
            recorder: None,
            schedule: Arc::new(Fifo),
            panic_policy: PanicPolicy::default(),
            watchdog: None,
            faults: None,
            commit_sink: None,
        }
    }

    /// Sets the panic policy: [`PanicPolicy::Poison`] (the default)
    /// fails the whole run on a task-body panic; [`PanicPolicy::Isolate`]
    /// discards only the panicking task's transaction and records it in
    /// [`Outcome::failed`].
    pub fn panic_policy(mut self, policy: PanicPolicy) -> Self {
        self.panic_policy = policy;
        self
    }

    /// Arms the commit-clock watchdog: when neither the clock nor any
    /// progress counter moves for `interval`, the watchdog emits a
    /// diagnostic dump (per-worker phase, hot classes, parked waiters)
    /// to stderr and [`Outcome::watchdog_dumps`], then escalates per
    /// the panic policy — the run is treated as hung and poisoned
    /// (under [`PanicPolicy::Poison`] the payload propagates from
    /// [`Janus::run`]). Default: disarmed.
    pub fn watchdog(mut self, interval: Duration) -> Self {
        assert!(
            !interval.is_zero(),
            "the watchdog interval must be positive"
        );
        self.watchdog = Some(interval);
        self
    }

    /// Attaches a deterministic fault-injection plan: task-body panics,
    /// forced validation conflicts and commit-stall delays are injected
    /// at the plan's sites. With no plan attached (the default), every
    /// injection site is a single branch on `None`.
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a commit sink: every commit ticket the session oracle
    /// issues is reported to the sink from inside the commit critical
    /// section (see [`CommitSink`] for the ordering contract). With no
    /// sink attached (the default), the commit path pays a single
    /// branch on `None`.
    pub fn commit_sink(mut self, sink: Arc<dyn CommitSink>) -> Self {
        self.commit_sink = Some(sink);
        self
    }

    /// Sets the scheduling policy. The default, [`janus_sched::Fifo`],
    /// preserves the original dispatch bit for bit: one shared atomic
    /// counter, immediate retry on abort. Another policy can wrap or
    /// replace it through the [`janus_sched::TaskSource`] seam; a
    /// non-zero [`janus_sched::BackoffHint`] from its `on_abort` makes
    /// the aborted worker wait before re-executing.
    pub fn schedule(mut self, policy: Arc<dyn SchedulePolicy>) -> Self {
        self.schedule = policy;
        self
    }

    /// Attaches a lifecycle-trace recorder: every worker thread registers
    /// an event ring and records `begin`/`validate_open`/
    /// `delta_revalidate`/`per_cell_check`/`abort`/`commit`/`gc_reclaim`
    /// events through it. With no recorder attached (the default), every
    /// instrumentation site is a single branch on `None` — no event is
    /// constructed and nothing is allocated.
    pub fn recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Sets the number of worker threads.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one worker thread");
        self.threads = threads;
        self
    }

    /// Sets the number of store shards (default 8, max
    /// [`janus_log::SHARD_SPACE`]). Locations are routed to shards by
    /// their class hash; commits lock only the shards they touch, so
    /// disjoint-class workloads commit without contending. One shard
    /// reproduces the seed's single-lock store.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(
            shards >= 1 && shards as u64 <= SHARD_SPACE,
            "shard count must be in 1..={SHARD_SPACE}"
        );
        self.shards = shards;
        self
    }

    /// Commits tasks in submission order (`runInOrder`): a task may
    /// commit only after the task of every smaller task id of the
    /// session has committed or failed, across batches too.
    pub fn ordered(mut self, ordered: bool) -> Self {
        self.ordered = ordered;
        self
    }

    /// `DOPARALLEL`: runs every task to successful commit and returns the
    /// final state.
    ///
    /// # Panics
    ///
    /// Under [`PanicPolicy::Poison`] (the default), a task-body panic
    /// poisons the run: other workers stop picking up work (and ordered
    /// waiters bail out instead of spinning forever), and the first
    /// panic payload is propagated from `run`. Committed transactions
    /// keep their effects; the panicking transaction's privatized
    /// effects are discarded, as for any abort.
    ///
    /// Under [`PanicPolicy::Isolate`], only the panicking task is lost:
    /// its transaction is discarded, the task lands in
    /// [`Outcome::failed`], and `run` returns normally. An armed
    /// watchdog ([`Janus::watchdog`]) that declares the run hung still
    /// panics under `Poison`.
    ///
    /// One session, one batch: [`Janus::open_session`],
    /// [`Session::reserve`], [`Session::run`], [`Session::finish`].
    pub fn run(&self, store: Store, tasks: Vec<Task>) -> Outcome {
        let session = self.open_session(store);
        let batch = session.run(session.reserve(tasks));
        // Commits come from the dedicated counter; the oracle mirrors
        // it but is an implementation detail of sequencing, not a
        // statistic. Poisoned runs stop drawing tickets mid-flight, so
        // the identity only holds for runs that drained normally.
        if !batch.poisoned {
            debug_assert_eq!(batch.stats.commits, session.commit_seq());
        }
        let (final_store, shard_stats) = session.finish();
        Outcome {
            store: final_store,
            sched: batch.sched,
            failed: batch.failed,
            watchdog_dumps: batch.watchdog_dumps,
            stats: batch.stats,
            shard_stats,
        }
    }

    /// Opens a long-lived [`Session`] over a store, under a copy of this
    /// configuration: the oracle, the GC watermark and the sharded slots
    /// persist across every batch run on it, so later batches validate
    /// against earlier batches' commits, and every batch runs with the
    /// session's threads, policies and orderedness.
    pub fn open_session(&self, store: Store) -> Session {
        let shards = partition_slots(&store.slots, self.shards);
        let mut base = store;
        base.slots = Default::default();
        Session {
            janus: Arc::new(self.clone()),
            core: Arc::new(SessionCore {
                oracle: Oracle::new(),
                turn: AtomicU64::new(1),
                active: ActiveBegins::default(),
                shards,
            }),
            base,
            next_tid: AtomicU64::new(1),
        }
    }

    /// One worker's batch loop: pull a task index from the source, run
    /// it to commit (or isolation), bail out when the batch is
    /// poisoned. Under [`PanicPolicy::Poison`] the first escaping
    /// payload is parked in the batch context and re-raised from
    /// [`Session::run`].
    fn worker_loop(&self, w: usize, ctx: &BatchCtx) {
        // The decrement rides a drop guard so the watchdog can never
        // wait on a worker that already unwound.
        let _live = LiveGuard(&ctx.live);
        // One event ring per worker, registered up front so the
        // per-task path never touches the recorder.
        let obs = self
            .recorder
            .as_ref()
            .map(|r| r.register(format!("worker-{w}")));
        loop {
            // Acquire pairs with the Release poison store so a bailing
            // worker sees why it is bailing.
            if ctx.poisoned.load(Ordering::Acquire) {
                break;
            }
            ctx.phases.set(w, phase::IDLE, 0);
            let dispatch = match ctx.source.next_task(w) {
                Some(d) => d,
                None => break,
            };
            let i = dispatch.task;
            let tid = ctx.first_tid + i as u64;
            let t = TaskCtx {
                tid,
                worker: w,
                attempt: 0,
                ctx,
                obs: obs.as_ref(),
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_task(&ctx.tasks[i], t)
            }));
            if let Err(payload) = result {
                // Release publishes the failure to every worker's and
                // waiter's Acquire load.
                ctx.poisoned.store(true, Ordering::Release);
                // Close the panicking attempt's lifecycle so abort
                // attribution does not lose it.
                record_poisoned(obs.as_ref(), tid);
                ctx.panic_payload.lock().get_or_insert(payload);
                break;
            }
        }
        ctx.phases.set(w, phase::DONE, 0);
    }

    /// The commit-clock watchdog: ticks at a tenth of the interval,
    /// resetting whenever the clock or any progress counter moves. A
    /// full interval with no movement means the run is stuck (a hung
    /// task body, a stalled commit, a scheduling bug): the watchdog
    /// emits one diagnostic dump — per-worker phase, hot classes,
    /// parked waiters — to stderr and [`Outcome::watchdog_dumps`], then
    /// poisons the run so waiters drain instead of spinning forever
    /// (under [`PanicPolicy::Poison`] the hang also propagates as a
    /// panic from [`Janus::run`]).
    fn watchdog_loop(&self, interval: Duration, ctx: &BatchCtx) {
        let tick = (interval / 10).max(Duration::from_millis(1));
        let mut last = self.progress_vector(ctx);
        let mut stalled = Duration::ZERO;
        let mut fired = false;
        // Acquire pairs with the LiveGuard's AcqRel decrement: once the
        // count hits zero, every worker's final state is visible here.
        while ctx.live.load(Ordering::Acquire) > 0 {
            std::thread::sleep(tick);
            let cur = self.progress_vector(ctx);
            if cur != last {
                last = cur;
                stalled = Duration::ZERO;
                continue;
            }
            if fired {
                continue; // already escalated: just wait for the drain
            }
            stalled += tick;
            if stalled < interval {
                continue;
            }
            fired = true;
            ctx.counters.watchdog_fires.fetch_add(1, Ordering::Relaxed);
            let dump = self.render_watchdog_dump(stalled, ctx);
            eprintln!("{dump}");
            ctx.dumps.lock().push(dump);
            if self.panic_policy == PanicPolicy::Poison {
                ctx.panic_payload.lock().get_or_insert_with(|| {
                    Box::new(format!(
                        "janus watchdog: no commit progress within {interval:?}"
                    )) as Box<dyn std::any::Any + Send>
                });
            }
            // Release publishes the poison to waiters' Acquire loads.
            ctx.poisoned.store(true, Ordering::Release);
        }
    }

    /// Everything whose movement counts as progress to the watchdog.
    fn progress_vector(&self, ctx: &BatchCtx) -> [u64; 6] {
        [
            ctx.core.oracle.now(),
            // Relaxed: diagnostic sampling only — any observed movement
            // counts as progress, staleness just delays one tick.
            ctx.core.turn.load(Ordering::Relaxed),
            ctx.counters.commits.load(Ordering::Relaxed),
            ctx.counters.retries.load(Ordering::Relaxed),
            ctx.counters.tasks_failed.load(Ordering::Relaxed),
            self.faults.as_ref().map_or(0, |f| f.stats().injected()),
        ]
    }

    /// The watchdog's diagnostic dump: what every worker was doing when
    /// progress stopped, how many were parked behind someone else, and
    /// which location classes were carrying the conflicts.
    fn render_watchdog_dump(&self, stalled: Duration, ctx: &BatchCtx) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "janus watchdog: no commit progress for {stalled:?} \
             (commit seq {}, {} commits, {} retries, {} failed)",
            ctx.core.oracle.now(),
            ctx.counters.commits.load(Ordering::Relaxed),
            ctx.counters.retries.load(Ordering::Relaxed),
            ctx.counters.tasks_failed.load(Ordering::Relaxed),
        );
        let mut parked = 0;
        for w in 0..ctx.phases.0.len() {
            let (p, task) = ctx.phases.get(w);
            if phase::is_parked(p) {
                parked += 1;
            }
            if task > 0 {
                let _ = writeln!(out, "  worker {w}: {} (task {task})", phase::label(p));
            } else {
                let _ = writeln!(out, "  worker {w}: {}", phase::label(p));
            }
        }
        let _ = writeln!(out, "  parked waiters: {parked}");
        let hot = self.detector.stats().conflicts_by_class();
        if !hot.is_empty() {
            let _ = writeln!(out, "  hot classes:");
            for (class, conflicts) in hot.iter().take(5) {
                let _ = writeln!(out, "    {class}: {conflicts} conflicts");
            }
        }
        out
    }

    /// `RUNTASK`, retried until it commits (or, under
    /// [`PanicPolicy::Isolate`], until its body panics and the task is
    /// recorded as failed): `begin` → `execute` → ordered turn →
    /// `CommitPlan::new` → `validate` → `await_commit` → `commit`, whose
    /// residual pass under the locks validates whatever landed since
    /// `validate`. A conflict in either pass restarts from `begin`.
    fn run_task(&self, task: &Task, mut t: TaskCtx<'_>) {
        let (tid, worker, ctx, obs) = (t.tid, t.worker, t.ctx, t.obs);
        loop {
            let txn = self.begin(t);
            let ops = match self.execute(task, t, &txn) {
                Ok(ops) => ops,
                Err(payload) => return self.isolate_failure(t, txn, payload),
            };
            // In-order execution: wait until all preceding transactions
            // have committed, so their publishes are in this validation.
            if self.ordered && !await_turn(ctx, worker, tid) {
                return record_poisoned(obs, tid);
            }
            let plan = CommitPlan::new(ops, ctx.core.shards.len());
            let entry = SnapshotState::sharded(Arc::clone(&txn.maps));
            let mut v = Validation {
                session: self
                    .detector
                    .begin_validation_traced(&entry, &plan.log, obs),
                validated: plan.touched.iter().map(|&s| txn.begin_pos[s]).collect(),
                served_nonempty: false,
            };
            if self.validate(t, &mut v, &plan) {
                self.abort(t, txn);
            } else {
                self.await_commit(t);
                if self.commit(t, txn, &plan, &mut v) {
                    break;
                }
            }
            t.attempt += 1; // abort: rerun from scratch
        }
        if self.ordered {
            // Release pairs with successors' Acquire turn loads: taking
            // the turn implies seeing this commit's shard publishes.
            ctx.core.turn.store(tid + 1, Ordering::Release);
        }
        // Scheduler bookkeeping happens after the shard locks are
        // released: none of it is on the commit critical path.
        ctx.source.on_commit(worker, (tid - ctx.first_tid) as usize);
    }

    /// `CREATETRANSACTION`: draw the begin timestamp from the oracle, pin
    /// the GC watermark, then snapshot shard by shard. The order is load
    /// → register → snapshot: once the begin is registered the watermark
    /// can no longer pass it, so every entry a window position of this
    /// transaction could reference survives pruning (the GC-safety note
    /// in `shard.rs`). The per-shard snapshots are taken one read lock at
    /// a time — a torn cut across shards is sound because validation is
    /// per-location and each location lives in exactly one shard (its
    /// snapshot value and its window entries come from one consistent
    /// cut).
    fn begin<'c>(&self, t: TaskCtx<'c>) -> Attempt<'c> {
        let ctx = t.ctx;
        let begin = ctx.core.oracle.now();
        let registration = Registration::pin(&ctx.core.active, begin);
        let n = ctx.core.shards.len();
        let mut begin_pos = Vec::with_capacity(n);
        let mut maps: Vec<ShardMap> = Vec::with_capacity(n);
        for shard in &ctx.core.shards {
            let g = shard.data.read();
            begin_pos.push(g.head());
            maps.push(g.slots.clone()); // O(1) persistent snapshot
        }
        if let Some(o) = t.obs {
            o.set_clock(begin);
            o.record(EventKind::Begin { task: t.tid });
        }
        Attempt {
            _registration: registration,
            begin_pos,
            maps: maps.into(),
        }
    }

    /// `RUNSEQUENTIAL` against the privatized copy, returning the
    /// operation log. The body runs inside its own catch so a panic can
    /// be attributed to this task: under [`PanicPolicy::Poison`] it is
    /// rethrown (the worker loop's outer catch poisons the batch and
    /// stores the payload); under [`PanicPolicy::Isolate`] the payload
    /// comes back as `Err`. An injected panic takes the identical path a
    /// genuine one would.
    fn execute(
        &self,
        task: &Task,
        t: TaskCtx<'_>,
        txn: &Attempt<'_>,
    ) -> Result<Vec<Op>, Box<dyn std::any::Any + Send>> {
        let mut tx = TxView::new_sharded(Arc::clone(&txn.maps));
        t.ctx.phases.set(t.worker, phase::RUNNING, t.tid);
        let (tid, attempt) = (t.tid, t.attempt);
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = &self.faults {
                if plan.should_inject(FaultKind::TaskPanic, tid, attempt) {
                    panic!(
                        "{INJECTED_PANIC_PREFIX} injected panic (task {tid}, attempt {attempt})"
                    );
                }
            }
            task.run(&mut tx);
        }));
        match body {
            Ok(()) => Ok(std::mem::take(&mut tx.log)),
            Err(payload) if self.panic_policy == PanicPolicy::Poison => {
                std::panic::resume_unwind(payload)
            }
            Err(payload) => Err(payload),
        }
    }

    /// `GETCOMMITTEDHISTORY` and the conflict check, per touched shard:
    /// each read lock only clones `Arc`s to that shard's committed
    /// segments since the begin position; detection runs with no lock
    /// held and no operation copied. Cross-shard concatenation order is
    /// irrelevant: the detector checks per-location subsequences and
    /// every location lives in exactly one shard. Returns whether the
    /// attempt conflicts.
    fn validate(&self, t: TaskCtx<'_>, v: &mut Validation<'_>, plan: &CommitPlan) -> bool {
        let ctx = t.ctx;
        ctx.phases.set(t.worker, phase::VALIDATING, t.tid);
        if let Some(o) = t.obs {
            o.set_clock(ctx.core.oracle.now());
        }
        let mut delta: Vec<Arc<CommittedLog>> = Vec::new();
        for (k, &s) in plan.touched.iter().enumerate() {
            let g = ctx.core.shards[s].data.read();
            g.collect_from(v.validated[k], &mut delta);
            v.validated[k] = g.head();
        }
        // A forced conflict flips a clean verdict so the full genuine
        // abort path (counters, events, backoff) runs; a
        // real conflict is never masked.
        self.extend(t, v, &delta)
            || self
                .faults
                .as_ref()
                .is_some_and(|plan| plan.should_inject(FaultKind::ForcedConflict, t.tid, t.attempt))
    }

    /// Feeds one pass's delta into the session, counting a non-empty
    /// window: the first one opens the validation, a later one (the
    /// residual pass) is a delta re-validation.
    fn extend(&self, t: TaskCtx<'_>, v: &mut Validation<'_>, delta: &[Arc<CommittedLog>]) -> bool {
        if !delta.is_empty() {
            let counters = &t.ctx.counters;
            let window_segments = delta.len() as u64;
            counters.zero_copy_windows.fetch_add(1, Ordering::Relaxed);
            if v.served_nonempty {
                counters.delta_revalidations.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = t.obs {
                    o.record(EventKind::DeltaRevalidate { window_segments });
                }
            } else if let Some(o) = t.obs {
                o.record(EventKind::ValidateOpen { window_segments });
            }
            v.served_nonempty = true;
        }
        v.session.extend(&HistoryWindow::new(delta))
    }

    /// Closes a conflicting attempt: its registration is released first
    /// (so backing off never pins the watermark), the abort is counted
    /// and attributed, and the source decides how long to back off.
    fn abort(&self, t: TaskCtx<'_>, txn: Attempt<'_>) {
        drop(txn);
        let ctx = t.ctx;
        ctx.counters.retries.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = t.obs {
            o.record(EventKind::Abort {
                task: t.tid,
                reason: AbortReason::Conflict,
            });
        }
        let hint = ctx
            .source
            .on_abort(t.worker, (t.tid - ctx.first_tid) as usize, t.attempt);
        if hint.steps > 0 {
            if let Some(o) = t.obs {
                o.record(EventKind::SchedBackoff {
                    task: t.tid,
                    steps: hint.steps,
                });
            }
            ctx.phases.set(t.worker, phase::BACKOFF, t.tid);
            // Yield the slot instead of hot-restarting; bail promptly if
            // the batch is poisoned meanwhile.
            ctx.source.on_park(t.worker);
            backoff::wait(hint.steps, || ctx.poisoned.load(Ordering::SeqCst));
            ctx.source.on_unpark(t.worker);
        }
    }

    /// The last stop before the locks: an injected stall widens commit
    /// races at the most sensitive point (validated, not yet committed);
    /// the commit's residual pass catches whatever lands meanwhile.
    fn await_commit(&self, t: TaskCtx<'_>) {
        if let Some(faults) = &self.faults {
            if faults.should_inject(FaultKind::CommitStall, t.tid, t.attempt) {
                std::thread::sleep(Duration::from_micros(faults.stall_micros(t.tid, t.attempt)));
            }
        }
    }

    /// `COMMIT`: write-lock exactly the touched shards, in ascending
    /// shard order (the global lock-ordering invariant that makes
    /// per-shard commits deadlock-free). If a shard moved past what was
    /// validated, the residual pass validates the moved entries from the
    /// held guards — nothing can land meanwhile, so one pass is the last.
    /// Then draw the ticket, replay, publish, report to the sink and
    /// reclaim, all under the locks. Returns whether the attempt
    /// committed; a residual conflict releases the locks and aborts it.
    fn commit(
        &self,
        t: TaskCtx<'_>,
        txn: Attempt<'_>,
        plan: &CommitPlan,
        v: &mut Validation<'_>,
    ) -> bool {
        let ctx = t.ctx;
        ctx.phases.set(t.worker, phase::COMMITTING, t.tid);
        let mut guards = Vec::with_capacity(plan.touched.len());
        for &s in &plan.touched {
            let t0 = Instant::now();
            guards.push(ctx.core.shards[s].data.write());
            ctx.core.shards[s].stats.lock_wait(t0.elapsed());
        }
        let mut residual: Vec<Arc<CommittedLog>> = Vec::new();
        for (g, validated) in guards.iter().zip(&mut v.validated) {
            g.collect_from(*validated, &mut residual);
            *validated = g.head();
        }
        if !residual.is_empty() && self.extend(t, v, &residual) {
            drop(guards);
            self.abort(t, txn);
            return false;
        }
        // Draw the commit ticket while all touched shard locks are held:
        // two committers sharing a shard are fully ordered by that
        // shard's lock, so every shard's history stays seq-monotone and
        // pruning below the watermark drops exactly a prefix.
        let seq = ctx.core.oracle.ticket();
        for (k, g) in guards.iter_mut().enumerate() {
            // REPLAYLOGGEDOPERATIONS from the publish log's per-location
            // index: each touched value is cloned out of the persistent
            // store once, mutated in place, and written back once.
            let log = &plan.publish[k];
            for (loc, dl) in &log.index().locs {
                let mut slot = g
                    .slots
                    .get(loc)
                    .expect("committed op targets an allocated location")
                    .clone();
                for &i in &dl.ops {
                    log.ops()[i as usize].kind.apply(&mut slot.value);
                }
                g.slots.insert(*loc, slot);
            }
            // The decomposition computed in `plan` is shared as-is.
            g.history.push_back(SeqEntry {
                seq,
                log: Arc::clone(log),
            });
            ctx.core.shards[plan.touched[k]].stats.commit();
        }
        ctx.counters.commits.fetch_add(1, Ordering::Relaxed);
        // The durability seam: report the committed ticket while the
        // touched shard locks are still held, so every ticket reaches
        // the sink exactly once (see [`CommitSink`] for why calls may
        // still arrive out of ticket order across disjoint shards).
        if let Some(sink) = &self.commit_sink {
            let mask = plan.touched.iter().fold(0u64, |m, &s| m | (1u64 << s));
            sink.committed(seq, mask, plan.log.ops());
        }
        if let Some(o) = t.obs {
            o.set_clock(seq + 1);
            o.record(EventKind::Commit { task: t.tid });
        }
        // Epoch reclamation: unpin this begin, then prune the held shards
        // below the minimum active begin ticket (capped by the oracle
        // when no transaction is in flight). The watermark read is
        // lock-free.
        drop(txn);
        let floor = ctx.core.active.watermark().min(ctx.core.oracle.now());
        let mut reclaimed = 0;
        for (k, g) in guards.iter_mut().enumerate() {
            let dropped = g.prune(floor);
            if dropped > 0 {
                ctx.core.shards[plan.touched[k]].stats.reclaimed(dropped);
            }
            reclaimed += dropped;
        }
        if reclaimed > 0 {
            if let Some(o) = t.obs {
                o.record(EventKind::GcReclaim { reclaimed });
            }
        }
        true
    }

    /// Closes a panicking attempt under [`PanicPolicy::Isolate`]: the
    /// transaction's privatized effects are dropped (nothing was ever
    /// published) and the task is recorded as failed.
    ///
    /// In ordered runs the failed task still owns a commit turn: every
    /// successor waits for `turn == tid + 1`, so it waits for its own
    /// turn and releases it. It draws no ticket and publishes nothing:
    /// shard windows are positional, so a released turn leaves no hole
    /// for successors to validate against, and the journal sees only
    /// commits.
    fn isolate_failure(
        &self,
        t: TaskCtx<'_>,
        txn: Attempt<'_>,
        payload: Box<dyn std::any::Any + Send>,
    ) {
        // Unpin before the turn wait below.
        drop(txn);
        let ctx = t.ctx;
        ctx.counters.tasks_failed.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = t.obs {
            o.record(EventKind::Abort {
                task: t.tid,
                reason: AbortReason::Failed,
            });
        }
        ctx.failed.lock().push(TaskFailure {
            task: t.tid,
            message: payload_message(payload.as_ref()),
            attempts: t.attempt + 1,
        });
        // Release on the turn as in the commit path. A poisoned batch
        // is already failing wholesale; successors bail on the poison
        // flag, not the turn.
        if self.ordered && await_turn(ctx, t.worker, t.tid) {
            ctx.core.turn.store(t.tid + 1, Ordering::Release);
        }
    }

    /// Executes the tasks sequentially (single-threaded,
    /// synchronization-free), returning the final state and the
    /// [`TrainingRun`] trace that the training phase consumes.
    pub fn run_sequential(store: Store, tasks: &[Task]) -> (Store, TrainingRun) {
        let initial = store.to_map_state();
        let mut slots = store.slots.clone();
        let mut task_logs = Vec::with_capacity(tasks.len());
        for task in tasks {
            let mut tx = TxView::new(slots.clone());
            task.run(&mut tx);
            let log = std::mem::take(&mut tx.log);
            slots = tx.into_state();
            task_logs.push(log);
        }
        let mut final_store = store;
        final_store.slots = slots;
        (final_store, TrainingRun { initial, task_logs })
    }

    /// Convenience wrapper: runs the tasks sequentially on training data
    /// and trains a commutativity cache from the trace (Figure 6's
    /// offline path).
    pub fn train_sequential(
        store: Store,
        tasks: &[Task],
        config: TrainConfig,
    ) -> (Store, CommutativityCache, TrainReport) {
        let (final_store, run) = Self::run_sequential(store, tasks);
        let (cache, report) = train(&[run], config);
        (final_store, cache, report)
    }
}

impl std::fmt::Debug for Janus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Janus")
            .field("detector", &self.detector.name())
            .field("threads", &self.threads)
            .field("ordered", &self.ordered)
            .field("schedule", &self.schedule.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_detect::{SequenceDetector, WriteSetDetector};
    use janus_relational::Value;
    use janus_sched::{BackoffHint, Dispatch};

    fn identity_tasks(work: janus_log::LocId, n: i64) -> Vec<Task> {
        (1..=n)
            .map(|w| {
                Task::new(move |tx: &mut TxView| {
                    tx.add(work, w);
                    tx.add(work, -w);
                })
            })
            .collect()
    }

    #[test]
    fn parallel_identity_run_preserves_state() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let janus = Janus::new(Arc::new(SequenceDetector::new())).threads(4);
        let outcome = janus.run(store, identity_tasks(work, 16));
        assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
        assert_eq!(outcome.stats.commits, 16);
    }

    #[test]
    fn write_set_detector_still_terminates() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let janus = Janus::new(Arc::new(WriteSetDetector::new())).threads(4);
        let outcome = janus.run(store, identity_tasks(work, 8));
        assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
        assert_eq!(outcome.stats.commits, 8);
    }

    #[test]
    fn unordered_adds_serialize_to_sum() {
        let mut store = Store::new();
        let acc = store.alloc("acc", Value::int(0));
        let tasks: Vec<Task> = (1..=20)
            .map(|d| Task::new(move |tx: &mut TxView| tx.add(acc, d)))
            .collect();
        let janus = Janus::new(Arc::new(SequenceDetector::new())).threads(4);
        let outcome = janus.run(store, tasks);
        assert_eq!(outcome.store.value(acc), Some(&Value::int(210)));
    }

    #[test]
    fn ordered_run_matches_sequential() {
        // Tasks whose effect depends on order: append task id scaled by
        // position via read-modify-write.
        let mk = || {
            let mut store = Store::new();
            let x = store.alloc("x", Value::int(1));
            let tasks: Vec<Task> = (1..=6)
                .map(|i| {
                    Task::new(move |tx: &mut TxView| {
                        let v = tx.read_int(x);
                        tx.write(x, v * 3 + i);
                    })
                })
                .collect();
            (store, tasks, x)
        };
        let (store_seq, tasks_seq, x) = mk();
        let (seq_store, _) = Janus::run_sequential(store_seq, &tasks_seq);

        let (store_par, tasks_par, _) = mk();
        let janus = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(3)
            .ordered(true);
        let outcome = janus.run(store_par, tasks_par);
        assert_eq!(outcome.store.value(x), seq_store.value(x));
    }

    #[test]
    fn sequential_run_produces_training_logs() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let tasks = identity_tasks(work, 3);
        let (final_store, run) = Janus::run_sequential(store, &tasks);
        assert_eq!(final_store.value(work), Some(&Value::int(0)));
        assert_eq!(run.task_logs.len(), 3);
        assert!(run.task_logs.iter().all(|log| log.len() == 2));
        assert_eq!(run.initial.0[&work], Value::int(0));
    }

    #[test]
    fn trained_cache_plugs_into_cached_detector() {
        use janus_detect::CachedSequenceDetector;

        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let (_, cache, report) = Janus::train_sequential(
            store.clone(),
            &identity_tasks(work, 4),
            TrainConfig::default(),
        );
        assert!(report.entries_added > 0);

        let detector = Arc::new(CachedSequenceDetector::new(cache.freeze()));
        let janus = Janus::new(detector.clone()).threads(4);
        let outcome = janus.run(store, identity_tasks(work, 12));
        assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
        let (_, _, hits, _) = detector.stats().snapshot();
        // With contention we expect at least some conflict queries to have
        // been answered from the cache; absence of any retry also proves
        // the point.
        let _ = hits;
        assert_eq!(outcome.stats.commits, 12);
    }

    #[test]
    fn traced_run_matches_run_stats_and_is_well_formed() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let recorder = Recorder::new();
        let janus = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .recorder(Arc::clone(&recorder));
        let outcome = janus.run(store, identity_tasks(work, 16));
        let trace = recorder.finish();
        trace
            .check_well_formed()
            .expect("lifecycle trace well-formed");
        assert_eq!(trace.count("commit"), outcome.stats.commits);
        assert_eq!(trace.count("abort"), outcome.stats.retries);
        assert_eq!(
            trace.count("begin"),
            outcome.stats.commits + outcome.stats.retries,
            "every attempt begins exactly once"
        );
        assert_eq!(
            trace.count("validate_open") + trace.count("delta_revalidate"),
            outcome.stats.zero_copy_windows
        );
        assert_eq!(
            trace.count("delta_revalidate"),
            outcome.stats.delta_revalidations
        );
    }

    #[test]
    fn untraced_run_records_nothing() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let janus = Janus::new(Arc::new(SequenceDetector::new())).threads(2);
        let outcome = janus.run(store, identity_tasks(work, 4));
        assert_eq!(outcome.stats.commits, 4);
    }

    #[test]
    fn retry_ratio_computation() {
        let stats = RunStats {
            commits: 10,
            retries: 5,
            wall: Duration::ZERO,
            ..Default::default()
        };
        assert!((stats.retry_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(RunStats::default().retry_ratio(), 0.0);
    }

    #[test]
    fn detection_cost_counters_are_populated() {
        // Force two transactions to overlap: each task body spins until
        // both have started, so whichever commits second must validate
        // against a non-empty window on the shared location.
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let started = Arc::new(AtomicU64::new(0));
        let tasks: Vec<Task> = (0..2)
            .map(|_| {
                let started = Arc::clone(&started);
                Task::new(move |tx: &mut TxView| {
                    tx.add(work, 1);
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                    tx.add(work, -1);
                })
            })
            .collect();
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(2)
            .run(store, tasks);
        assert_eq!(outcome.stats.commits, 2);
        assert!(
            outcome.stats.zero_copy_windows > 0,
            "the second committer must fetch a non-empty window"
        );
        assert!(
            outcome.stats.detect_ops_scanned > 0,
            "common-location cell checks must scan operations"
        );
        // Every re-validation is bounded by the number of served windows.
        assert!(outcome.stats.delta_revalidations <= outcome.stats.zero_copy_windows);
    }

    #[test]
    fn uncontended_run_scans_nothing() {
        // Disjoint locations: windows may be served, but no common cell
        // ever forms, so detection scans zero operations.
        let mut store = Store::new();
        let locs: Vec<_> = (0..8)
            .map(|i| store.alloc(format!("x{i}").as_str(), Value::int(0)))
            .collect();
        let tasks: Vec<Task> = locs
            .iter()
            .map(|&l| Task::new(move |tx: &mut TxView| tx.add(l, 1)))
            .collect();
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .run(store, tasks);
        assert_eq!(outcome.stats.commits, 8);
        assert_eq!(outcome.stats.detect_ops_scanned, 0);
        assert_eq!(outcome.stats.retries, 0);
    }

    #[test]
    fn task_panic_propagates_and_poisons_the_run() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let mut tasks = identity_tasks(work, 6);
        tasks.insert(3, Task::new(|_tx: &mut TxView| panic!("boom in task body")));
        let recorder = Recorder::new();
        let janus = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(2)
            .recorder(Arc::clone(&recorder));
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| janus.run(store, tasks)));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "original payload preserved: {msg:?}");
        // Even a poisoned run's trace is well-formed: the panicking
        // attempt is closed by a poisoned abort, so every begin is
        // accounted for by a commit or an abort.
        let trace = recorder.finish();
        trace
            .check_well_formed()
            .expect("poisoned trace still well-formed");
        assert_eq!(
            trace.count("begin"),
            trace.count("commit") + trace.count("abort"),
            "commits + aborts (conflict and in-flight poisoned) close every attempt"
        );
        assert!(
            trace.aborts_with_reason(janus_obs::AbortReason::Poisoned) >= 1,
            "the panicking attempt is attributed to poisoning, not contention"
        );
    }

    #[test]
    fn ordered_run_with_panicking_task_does_not_hang() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let mut tasks = identity_tasks(work, 6);
        // The panicking task blocks every successor's turn; poisoning
        // must release them.
        tasks[1] = Task::new(|_tx: &mut TxView| panic!("ordered boom"));
        let janus = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(3)
            .ordered(true);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| janus.run(store, tasks)));
        assert!(result.is_err(), "panic must propagate, not hang");
    }

    fn hot_rmw_tasks(loc: janus_log::LocId, n: i64) -> Vec<Task> {
        (1..=n)
            .map(|d| {
                Task::new(move |tx: &mut TxView| {
                    let v = tx.read_int(loc);
                    tx.write(loc, v + d);
                })
            })
            .collect()
    }

    /// FIFO dispatch with a fixed non-zero backoff on every abort.
    #[derive(Debug)]
    struct FixedBackoff;

    const FIXED_STEPS: u64 = 3;

    impl SchedulePolicy for FixedBackoff {
        fn name(&self) -> &'static str {
            "fixed-backoff"
        }

        fn bind(&self, tasks: usize, workers: usize) -> Box<dyn TaskSource> {
            Box::new(FixedBackoffSource(Fifo.bind(tasks, workers)))
        }
    }

    struct FixedBackoffSource(Box<dyn TaskSource>);

    impl TaskSource for FixedBackoffSource {
        fn next_task(&self, worker: usize) -> Option<Dispatch> {
            self.0.next_task(worker)
        }

        fn on_abort(&self, _worker: usize, _task: usize, _attempt: u32) -> BackoffHint {
            BackoffHint { steps: FIXED_STEPS }
        }

        fn stats(&self) -> SchedStats {
            self.0.stats()
        }
    }

    #[test]
    fn a_non_zero_hint_backs_off_every_conflict_abort() {
        let mut store = Store::new();
        let hot = store.alloc("hot", Value::int(0));
        // One forced conflict guarantees the branch runs even when the
        // hot read-modify-writes happen not to overlap.
        let forced = janus_fault::FaultSite {
            kind: FaultKind::ForcedConflict,
            subject: 1,
            attempt: 0,
        };
        let recorder = Recorder::new();
        let outcome = Janus::new(Arc::new(WriteSetDetector::new()))
            .threads(4)
            .schedule(Arc::new(FixedBackoff))
            .faults(Arc::new(FaultPlan::from_sites(vec![forced])))
            .recorder(Arc::clone(&recorder))
            .run(store, hot_rmw_tasks(hot, 16));
        assert_eq!(outcome.stats.commits, 16);
        assert_eq!(outcome.store.value(hot), Some(&Value::int((1..=16).sum())));
        assert_eq!(outcome.sched.dispatched, 16);
        let trace = recorder.finish();
        let conflicts = trace.aborts_with_reason(AbortReason::Conflict);
        assert!(conflicts >= 1);
        assert_eq!(conflicts, outcome.stats.retries);
        let backoffs: Vec<u64> = trace
            .events()
            .filter_map(|e| match e.kind {
                EventKind::SchedBackoff { steps, .. } => Some(steps),
                _ => None,
            })
            .collect();
        assert_eq!(
            backoffs.len() as u64,
            conflicts,
            "every conflict abort backs off exactly once"
        );
        assert!(backoffs.iter().all(|&s| s == FIXED_STEPS), "{backoffs:?}");
    }

    #[test]
    fn fifo_outcome_exposes_sched_stats() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .run(store, identity_tasks(work, 12));
        assert_eq!(outcome.sched.dispatched, 12);
        assert_eq!(outcome.sched.backoff_waits, 0, "fifo never backs off");
    }

    #[test]
    fn history_gc_reclaims_committed_logs() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let tasks = identity_tasks(work, 32);
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .run(store, tasks);
        assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
        assert!(
            outcome.stats.history_reclaimed > 0,
            "GC should reclaim logs once older transactions drain"
        );
        assert!(outcome.stats.history_reclaimed <= 32);
    }

    #[test]
    fn gc_preserves_correctness_under_contention() {
        // Heavy write-write conflicts + GC: windows must stay valid
        // across pruning.
        let mut store = Store::new();
        let hot = store.alloc("hot", Value::int(0));
        let tasks: Vec<Task> = (0..24)
            .map(|i| Task::new(move |tx: &mut TxView| tx.write(hot, i as i64)))
            .collect();
        let outcome = Janus::new(Arc::new(WriteSetDetector::new()))
            .threads(4)
            .run(store, tasks);
        assert_eq!(outcome.stats.commits, 24);
        let v = outcome
            .store
            .value(hot)
            .and_then(Value::as_int)
            .expect("int");
        assert!((0..24).contains(&v));
    }

    #[test]
    fn isolated_panic_records_failure_and_commits_the_rest() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let mut tasks = identity_tasks(work, 6);
        tasks[3] = Task::new(|_tx: &mut TxView| panic!("boom in task 4"));
        let recorder = Recorder::new();
        let janus = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(3)
            .panic_policy(PanicPolicy::Isolate)
            .recorder(Arc::clone(&recorder));
        let outcome = janus.run(store, tasks);
        assert_eq!(outcome.stats.commits, 5);
        assert_eq!(outcome.stats.tasks_failed, 1);
        assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
        assert_eq!(outcome.failed.len(), 1);
        assert_eq!(outcome.failed[0].task, 4);
        assert_eq!(outcome.failed[0].attempts, 1);
        assert!(outcome.failed[0].message.contains("boom"));
        let trace = recorder.finish();
        trace
            .check_well_formed()
            .expect("well-formed under Isolate");
        assert_eq!(trace.aborts_with_reason(AbortReason::Failed), 1);
    }

    #[test]
    fn ordered_isolation_releases_the_failed_turn() {
        // The failed task owns turn 2; unless it releases the turn, tasks
        // 3..=6 would wait on `turn == tid` forever. Releasing it draws
        // no ticket: the oracle counts only the five commits.
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let mut tasks = identity_tasks(work, 6);
        tasks[1] = Task::new(|_tx: &mut TxView| panic!("ordered boom"));
        let janus = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(3)
            .ordered(true)
            .panic_policy(PanicPolicy::Isolate);
        let session = janus.open_session(store);
        let b = session.run(session.reserve(tasks));
        assert_eq!(b.stats.commits, 5, "every survivor commits");
        assert_eq!(session.commit_seq(), 5, "the released turn drew no ticket");
        assert_eq!(b.stats.tasks_failed, 1);
        assert_eq!(b.failed.len(), 1);
        assert_eq!(b.failed[0].task, 2);
        assert_eq!(session.value(work), Some(Value::int(0)));
    }

    #[test]
    fn seeded_panic_is_isolated_like_a_genuine_one() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let plan = Arc::new(FaultPlan::from_sites(vec![janus_fault::FaultSite {
            kind: FaultKind::TaskPanic,
            subject: 3,
            attempt: 0,
        }]));
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(3)
            .panic_policy(PanicPolicy::Isolate)
            .faults(Arc::clone(&plan))
            .run(store, identity_tasks(work, 6));
        assert_eq!(outcome.stats.commits, 5);
        assert_eq!(outcome.stats.faults_injected, 1);
        assert_eq!(outcome.failed.len(), 1);
        assert_eq!(outcome.failed[0].task, 3);
        assert!(outcome.failed[0].message.contains("janus-fault"));
        assert_eq!(plan.stats().injected_of(FaultKind::TaskPanic), 1);
    }

    #[test]
    fn forced_conflicts_retry_until_the_plan_stops_injecting() {
        // Explicit sites: every task's attempts 0..3 are forced to
        // conflict, so each task commits on attempt 3 — the schedule of
        // aborts is fully deterministic.
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let sites: Vec<janus_fault::FaultSite> = (1..=8u64)
            .flat_map(|t| {
                (0..3u32).map(move |a| janus_fault::FaultSite {
                    kind: FaultKind::ForcedConflict,
                    subject: t,
                    attempt: a,
                })
            })
            .collect();
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .faults(Arc::new(FaultPlan::from_sites(sites)))
            .run(store, identity_tasks(work, 8));
        assert_eq!(outcome.stats.commits, 8);
        assert_eq!(outcome.stats.retries, 24, "three forced aborts per task");
        assert_eq!(outcome.stats.faults_injected, 24);
        assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
    }

    #[test]
    fn commit_stall_injection_preserves_results() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let sites = Arc::new(FaultPlan::from_sites(
            (1..=8u64)
                .map(|t| janus_fault::FaultSite {
                    kind: FaultKind::CommitStall,
                    subject: t,
                    attempt: 0,
                })
                .collect(),
        ));
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .faults(Arc::clone(&sites))
            .run(store, identity_tasks(work, 8));
        assert_eq!(outcome.stats.commits, 8);
        assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
        assert!(sites.stats().injected_of(FaultKind::CommitStall) >= 8);
    }

    #[test]
    fn commit_stalls_cost_at_most_one_residual_pass_per_attempt() {
        // Every first attempt stalls between validation and the locks,
        // so committers keep moving each other's heads: each attempt
        // still validates at most twice (open + residual), and the
        // write-set run's residual conflicts abort cleanly.
        for det in [
            Arc::new(SequenceDetector::new()) as Arc<dyn ConflictDetector>,
            Arc::new(WriteSetDetector::new()),
        ] {
            let mut store = Store::new();
            let work = store.alloc("work", Value::int(0));
            let started = Arc::new(AtomicU64::new(0));
            let tasks: Vec<Task> = (0..12)
                .map(|_| {
                    let started = Arc::clone(&started);
                    Task::new(move |tx: &mut TxView| {
                        tx.add(work, 1);
                        started.fetch_add(1, Ordering::SeqCst);
                        while started.load(Ordering::SeqCst) < 4 {
                            std::thread::yield_now();
                        }
                        tx.add(work, -1);
                    })
                })
                .collect();
            let sites = (1..=12u64)
                .map(|t| janus_fault::FaultSite {
                    kind: FaultKind::CommitStall,
                    subject: t,
                    attempt: 0,
                })
                .collect();
            let outcome = Janus::new(det)
                .threads(4)
                .faults(Arc::new(FaultPlan::from_sites(sites)))
                .run(store, tasks);
            let s = &outcome.stats;
            assert_eq!(s.commits, 12);
            assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
            assert!(
                s.delta_revalidations <= s.commits + s.retries,
                "more than one residual pass in some attempt: {s:?}"
            );
        }
    }

    #[test]
    fn watchdog_dump_names_the_stuck_worker() {
        // One task sleeps far past the watchdog interval: the watchdog
        // fires mid-sleep, dumps, and (under Isolate) lets the task
        // finish and commit normally.
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let tasks = vec![Task::new(move |tx: &mut TxView| {
            std::thread::sleep(Duration::from_millis(400));
            tx.add(work, 1);
        })];
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(1)
            .panic_policy(PanicPolicy::Isolate)
            .watchdog(Duration::from_millis(50))
            .run(store, tasks);
        assert_eq!(outcome.stats.commits, 1, "the sleeper still commits");
        assert!(outcome.stats.watchdog_fires >= 1);
        assert_eq!(outcome.watchdog_dumps.len(), 1, "the watchdog fires once");
        let dump = &outcome.watchdog_dumps[0];
        assert!(dump.contains("no commit progress"), "dump: {dump}");
        assert!(dump.contains("worker 0: running (task 1)"), "dump: {dump}");
    }

    #[test]
    fn watchdog_under_poison_policy_fails_the_run() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let tasks = vec![Task::new(move |tx: &mut TxView| {
            std::thread::sleep(Duration::from_millis(400));
            tx.add(work, 1);
        })];
        let janus = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(1)
            .watchdog(Duration::from_millis(50));
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| janus.run(store, tasks)));
        let payload = result.expect_err("a hung run panics under Poison");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("watchdog"), "payload: {msg:?}");
    }

    #[test]
    fn session_batches_accumulate_and_assign_global_tids() {
        // Two batches on one session: the second validates against (and
        // builds on) the first's commits, and its task ids continue
        // where the first stopped.
        let mut store = Store::new();
        let acc = store.alloc("acc", Value::int(0));
        let janus = Janus::new(Arc::new(SequenceDetector::new())).threads(3);
        let session = janus.open_session(store);
        let batch = |lo: i64, hi: i64| -> Vec<Task> {
            (lo..=hi)
                .map(|d| Task::new(move |tx: &mut TxView| tx.add(acc, d)))
                .collect()
        };
        let b1 = session.run(session.reserve(batch(1, 10)));
        assert_eq!(b1.stats.commits, 10);
        assert_eq!(b1.first_tid, 1);
        assert_eq!(
            session.store().value(acc),
            Some(&Value::int((1..=10).sum()))
        );
        let b2 = session.run(session.reserve(batch(11, 20)));
        assert_eq!(b2.stats.commits, 10);
        assert_eq!(b2.first_tid, 11, "task ids are dense across batches");
        assert_eq!(session.commit_seq(), 20);
        let (final_store, report) = session.finish();
        assert_eq!(final_store.value(acc), Some(&Value::int((1..=20).sum())));
        assert_eq!(report.0.iter().map(|s| s.commits).sum::<u64>(), 20);
    }

    #[test]
    fn an_ordered_batch_dropped_unrun_hands_on_its_turns() {
        // The dropped batch owns turns 1..=3: unless its drop releases
        // them, the next batch's tasks wait for `turn == 4` forever.
        let (done, result) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let mut store = Store::new();
            let acc = store.alloc("acc", Value::int(0));
            let session = Janus::new(Arc::new(SequenceDetector::new()))
                .threads(2)
                .ordered(true)
                .open_session(store);
            let adds = || -> Vec<Task> {
                (1..=3)
                    .map(|d| Task::new(move |tx: &mut TxView| tx.add(acc, d)))
                    .collect()
            };
            drop(session.reserve(adds()));
            let b = session.run(session.reserve(adds()));
            let _ = done.send((b.first_tid, b.stats.commits, session.value(acc)));
        });
        let (first_tid, commits, value) = result
            .recv_timeout(Duration::from_secs(10))
            .expect("the batch after an unrun one stalled");
        runner.join().expect("the session thread exits cleanly");
        assert_eq!((first_tid, commits), (4, 3));
        assert_eq!(value, Some(Value::int(6)));
    }

    #[test]
    #[should_panic(expected = "batch of another session")]
    fn a_batch_runs_only_on_the_session_that_reserved_it() {
        let janus = Janus::new(Arc::new(SequenceDetector::new())).threads(1);
        let (a, b) = (
            janus.open_session(Store::new()),
            janus.open_session(Store::new()),
        );
        b.run(a.reserve(Vec::new()));
    }

    #[test]
    fn batch_poison_is_scoped_to_its_batch() {
        // A Poison panic fails its own `Session::run` call; the session —
        // and a subsequent batch — keep working.
        let mut store = Store::new();
        let acc = store.alloc("acc", Value::int(0));
        let janus = Janus::new(Arc::new(SequenceDetector::new())).threads(2);
        let session = janus.open_session(store);
        let mut tasks: Vec<Task> = (1..=4)
            .map(|d| Task::new(move |tx: &mut TxView| tx.add(acc, d)))
            .collect();
        tasks.push(Task::new(|_tx: &mut TxView| panic!("batch boom")));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.run(session.reserve(tasks))
        }));
        assert!(result.is_err(), "the poisoned batch propagates its panic");
        let survivors: Vec<Task> = (1..=4)
            .map(|d| Task::new(move |tx: &mut TxView| tx.add(acc, 10 * d)))
            .collect();
        let b2 = session.run(session.reserve(survivors));
        assert_eq!(b2.stats.commits, 4, "the session stays live");
        assert!(!b2.poisoned);
        let v = session
            .store()
            .value(acc)
            .and_then(Value::as_int)
            .expect("int");
        assert!(v >= 100, "second batch's adds all landed: {v}");
    }

    #[test]
    fn quiet_run_never_wakes_the_watchdog() {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .watchdog(Duration::from_secs(5))
            .run(store, identity_tasks(work, 16));
        assert_eq!(outcome.stats.commits, 16);
        assert_eq!(outcome.stats.watchdog_fires, 0);
        assert!(outcome.watchdog_dumps.is_empty());
        assert!(outcome.failed.is_empty());
    }

    #[test]
    fn every_exit_path_releases_its_begin_ticket() {
        // One ordered batch whose tasks leave RUNTASK through every exit:
        // task 1 is forced to conflict once and then commits, task 2
        // panics and is isolated (releasing its turn), task 3's body
        // outlasts the watchdog and then commits, and tasks 4..=6 wait
        // for task 3's turn. The watchdog poisons the stalled batch, so
        // the ordered waiters bail out.
        let mut store = Store::new();
        let acc = store.alloc("acc", Value::int(0));
        let site = |kind, subject| janus_fault::FaultSite {
            kind,
            subject,
            attempt: 0,
        };
        let plan = FaultPlan::from_sites(vec![
            site(FaultKind::ForcedConflict, 1),
            site(FaultKind::TaskPanic, 2),
        ]);
        let recorder = Recorder::new();
        let janus = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .ordered(true)
            .panic_policy(PanicPolicy::Isolate)
            .watchdog(Duration::from_millis(500))
            .faults(Arc::new(plan))
            .recorder(Arc::clone(&recorder));
        let session = janus.open_session(store);
        let adds = |n: i64| -> Vec<Task> {
            (1..=n)
                .map(|d| Task::new(move |tx: &mut TxView| tx.add(acc, d)))
                .collect()
        };
        let mut tasks = adds(6);
        tasks[2] = Task::new(move |tx: &mut TxView| {
            // Four times the watchdog interval: no commit, retry or
            // failure moves meanwhile, so the watchdog fires first.
            std::thread::sleep(Duration::from_secs(2));
            tx.add(acc, 3);
        });
        let b = session.run(session.reserve(tasks));
        assert!(b.poisoned, "the watchdog poisons the stalled batch");
        assert_eq!(b.stats.watchdog_fires, 1);
        assert_eq!((b.stats.commits, b.stats.retries), (2, 1));
        assert_eq!(b.failed.iter().map(|f| f.task).collect::<Vec<_>>(), [2]);
        assert_eq!(session.commit_seq(), 2, "only commits drew a ticket");
        let trace = recorder.finish();
        trace.check_well_formed().expect("every attempt is closed");
        assert_eq!(trace.aborts_with_reason(AbortReason::Conflict), 1);
        assert_eq!(trace.aborts_with_reason(AbortReason::Failed), 1);
        assert_eq!(
            trace.aborts_with_reason(AbortReason::Poisoned),
            3,
            "the three ordered waiters bail"
        );
        assert_eq!(
            session.core.active.watermark(),
            u64::MAX,
            "no begin ticket outlives its attempt"
        );

        // The poisoned batch handed on the turns of tasks 4..=6, so a
        // quiet ordered batch on the same session commits every task.
        // Its last commit has nothing pinned and prunes its shards below
        // the oracle: no shard retains more than the entry just
        // published.
        let quiet = session.run(session.reserve(adds(4)));
        assert_eq!((quiet.stats.commits, quiet.stats.watchdog_fires), (4, 0));
        for shard in session.shard_report().0 {
            assert!(shard.history_len <= 1, "shard {shard:?} kept history");
        }
    }
}
