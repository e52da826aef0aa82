//! The conflict-detector implementations: write-set baseline, online
//! sequence-based detection, and cached sequence-based detection with
//! write-set fallback.
//!
//! All three detectors share one incremental engine: a
//! [`ValidationSession`] opened once per validation attempt consumes
//! committed history as zero-copy [`HistoryWindow`]s of pre-decomposed
//! [`CommittedLog`] segments. The first `extend` validates the initial
//! window; if the commit clock advances before the transaction wins the
//! write lock, later `extend`s feed only the *delta* segments, and the
//! session rechecks exactly the locations those deltas touch — verdicts
//! for untouched locations cannot change, because a cell's verdict
//! depends only on the transaction's and the committed history's
//! subsequences for that cell.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use janus_log::{CellKey, ClassId, CommittedLog, DecomposedLoc, HistoryWindow, LocId, Op};
use janus_obs::{CheckReason, EventKind, RingHandle, Verdict};
use janus_relational::{Key, Value};

use crate::projection::conflict_cell_attributed;
use crate::{Relaxation, RelaxationSpec};

/// Read access to a transaction's entry state (`t.SharedSnapshot` in
/// Figure 7): the value each shared location had when the transaction
/// began. Conflict queries are evaluated in this state (`G` in Figure 8).
pub trait EntryState {
    /// The value of `loc` in the entry state, if the location exists.
    fn value_of(&self, loc: LocId) -> Option<Value>;
}

/// A simple map-backed [`EntryState`], convenient for tests and offline
/// (training-time) evaluation.
#[derive(Debug, Clone, Default)]
pub struct MapState(pub BTreeMap<LocId, Value>);

impl EntryState for MapState {
    fn value_of(&self, loc: LocId) -> Option<Value> {
        self.0.get(&loc).cloned()
    }
}

/// Number of class-attribution shards. Threads are assigned stripes
/// round-robin, so on typical worker counts each thread owns its stripe
/// outright and the hot-path lock is never contended.
const CLASS_SHARDS: usize = 16;

/// The stripe this thread records class conflicts into. Assigned once
/// per thread, round-robin — per-thread sharding without a global
/// registry of threads.
fn class_shard() -> usize {
    use std::sync::atomic::AtomicUsize;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % CLASS_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Counters describing a detector's activity. All counters are monotone
/// and thread-safe; they are shared by reference with the runtime's
/// statistics reporting.
#[derive(Debug)]
pub struct DetectorStats {
    /// `DETECTCONFLICTS` invocations (validation sessions opened).
    pub queries: AtomicU64,
    /// Queries that reported a conflict.
    pub conflicts: AtomicU64,
    /// Per-cell queries answered by the commutativity cache.
    pub cache_hits: AtomicU64,
    /// Per-cell queries that missed the cache and fell back to the
    /// write-set test.
    pub cache_misses: AtomicU64,
    /// Operations handed to per-cell conflict checks (both sides). The
    /// cost driver of detection: incremental re-validation exists to keep
    /// this from growing quadratically with the history window.
    pub ops_scanned: AtomicU64,
    /// Per-cell verdicts rendered (every judge invocation, pass or
    /// conflict) — the denominator of abort attribution, and the count
    /// recorded `per_cell_check` trace events must match.
    pub cells_checked: AtomicU64,
    /// History segments admitted past the fingerprint prefilter and
    /// handed to per-location checking.
    pub segments_scanned: AtomicU64,
    /// History segments dismissed in O(1) because their footprint
    /// fingerprint is disjoint from the transaction's.
    pub segments_skipped: AtomicU64,
    /// Conflicting cells attributed to the class of their location —
    /// the data behind "which data structure serializes this benchmark"
    /// discussions (§7.2). Striped per thread: the hot path locks only
    /// this thread's (practically uncontended) shard; snapshots merge
    /// all shards.
    by_class: [std::sync::Mutex<BTreeMap<ClassId, u64>>; CLASS_SHARDS],
}

impl Default for DetectorStats {
    fn default() -> Self {
        DetectorStats {
            queries: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            ops_scanned: AtomicU64::new(0),
            cells_checked: AtomicU64::new(0),
            segments_scanned: AtomicU64::new(0),
            segments_skipped: AtomicU64::new(0),
            by_class: std::array::from_fn(|_| std::sync::Mutex::new(BTreeMap::new())),
        }
    }
}

impl DetectorStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        DetectorStats::default()
    }

    /// Snapshot of (queries, conflicts, hits, misses).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.queries.load(Ordering::Relaxed),
            self.conflicts.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Operations scanned by per-cell conflict checks so far.
    pub fn ops_scanned(&self) -> u64 {
        self.ops_scanned.load(Ordering::Relaxed)
    }

    /// Per-cell verdicts rendered so far.
    pub fn cells_checked(&self) -> u64 {
        self.cells_checked.load(Ordering::Relaxed)
    }

    /// Segments admitted past the fingerprint prefilter so far.
    pub fn segments_scanned(&self) -> u64 {
        self.segments_scanned.load(Ordering::Relaxed)
    }

    /// Segments dismissed by the fingerprint prefilter so far.
    pub fn segments_skipped(&self) -> u64 {
        self.segments_skipped.load(Ordering::Relaxed)
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.conflicts.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.ops_scanned.store(0, Ordering::Relaxed);
        self.cells_checked.store(0, Ordering::Relaxed);
        self.segments_scanned.store(0, Ordering::Relaxed);
        self.segments_skipped.store(0, Ordering::Relaxed);
        for shard in &self.by_class {
            shard.lock().expect("stats mutex").clear();
        }
    }

    /// Attributes one conflicting cell to a location class. Locks only
    /// the calling thread's shard.
    pub fn record_class_conflict(&self, class: &ClassId) {
        *self.by_class[class_shard()]
            .lock()
            .expect("stats mutex")
            .entry(class.clone())
            .or_insert(0) += 1;
    }

    /// Conflicting cells per class, most conflicted first (all shards
    /// merged).
    pub fn conflicts_by_class(&self) -> Vec<(ClassId, u64)> {
        let mut merged: BTreeMap<ClassId, u64> = BTreeMap::new();
        for shard in &self.by_class {
            for (c, n) in shard.lock().expect("stats mutex").iter() {
                *merged.entry(c.clone()).or_insert(0) += n;
            }
        }
        let mut v: Vec<(ClassId, u64)> = merged.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

impl janus_obs::Snapshot for DetectorStats {
    fn source(&self) -> &'static str {
        "detector"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let (queries, conflicts, cache_hits, cache_misses) = self.snapshot();
        let mut v = vec![
            ("queries".to_string(), queries),
            ("conflicts".to_string(), conflicts),
            ("cache_hits".to_string(), cache_hits),
            ("cache_misses".to_string(), cache_misses),
            ("ops_scanned".to_string(), self.ops_scanned()),
            ("cells_checked".to_string(), self.cells_checked()),
            ("segments_scanned".to_string(), self.segments_scanned()),
            ("segments_skipped".to_string(), self.segments_skipped()),
        ];
        for (class, n) in self.conflicts_by_class() {
            v.push((format!("by_class.{}", class.label()), n));
        }
        v
    }
}

/// An in-progress, incrementally extensible conflict validation for one
/// transaction attempt.
///
/// Committed history reaches the session monotonically: the first
/// [`extend`](ValidationSession::extend) carries the window
/// `[begin, now)`, later ones carry only the delta `[validated_to, now)`
/// observed when the commit clock advanced mid-validation. A conflict
/// verdict is sticky — once `true`, every later call returns `true`
/// without scanning.
pub trait ValidationSession {
    /// Feeds the next run of committed segments into the session and
    /// returns whether any conflict has been detected so far.
    fn extend(&mut self, delta: &HistoryWindow<'_>) -> bool;

    /// Whether a conflict has been detected so far.
    fn conflicted(&self) -> bool;
}

/// A conflict-detection algorithm, pluggable into the Figure 7 protocol.
///
/// A detector is *sound* if it never misses a real non-commutativity and
/// *valid* if it reports no conflict for an empty conflict history
/// (Theorem 4.1's requirements).
pub trait ConflictDetector: Send + Sync {
    /// Opens an incremental validation session for one transaction
    /// attempt, recording one `per_cell_check` trace event per judged
    /// cell into `obs` when it is present. `txn` is the transaction's own
    /// log, pre-decomposed; the committed history is fed in through
    /// [`ValidationSession::extend`].
    fn begin_validation_traced<'a>(
        &'a self,
        entry: &'a dyn EntryState,
        txn: &'a CommittedLog,
        obs: Option<&'a RingHandle>,
    ) -> Box<dyn ValidationSession + 'a>;

    /// [`begin_validation_traced`](ConflictDetector::begin_validation_traced)
    /// without tracing.
    fn begin_validation<'a>(
        &'a self,
        entry: &'a dyn EntryState,
        txn: &'a CommittedLog,
    ) -> Box<dyn ValidationSession + 'a> {
        self.begin_validation_traced(entry, txn, None)
    }

    /// `DETECTCONFLICTS(t.SharedSnapshot, t.Log, window)`: whether the
    /// transaction's operations conflict with the committed window. The
    /// window is zero-copy — no operation is cloned and no committed log
    /// is re-decomposed.
    fn detect(
        &self,
        entry: &dyn EntryState,
        txn: &CommittedLog,
        window: HistoryWindow<'_>,
    ) -> bool {
        self.begin_validation(entry, txn).extend(&window)
    }

    /// Convenience over raw operation slices (tests, training-time
    /// evaluation): wraps both sides in throwaway [`CommittedLog`]s.
    fn detect_ops(&self, entry: &dyn EntryState, txn: &[Op], committed: &[Op]) -> bool {
        let txn = CommittedLog::new(txn.to_vec());
        let committed = [Arc::new(CommittedLog::new(committed.to_vec()))];
        self.detect(entry, &txn, HistoryWindow::new(&committed))
    }

    /// A short human-readable name ("write-set", "sequence", ...).
    fn name(&self) -> &'static str;

    /// The detector's activity counters.
    fn stats(&self) -> &DetectorStats;
}

/// The per-cell verdict function of one detector — the only part that
/// differs between the write-set, online-sequence and cached-sequence
/// algorithms. Everything around it (decomposition reuse, common-cell
/// iteration, incremental re-validation) is shared.
trait CellJudge: Sync {
    /// The detector's counters.
    fn judge_stats(&self) -> &DetectorStats;

    /// Whether sessions may dismiss history segments whose footprint
    /// fingerprint is disjoint from the transaction's (on by default;
    /// the equivalence tests turn it off to compare against exhaustive
    /// scanning).
    fn prefilter_enabled(&self) -> bool;

    /// Whether the cell's subsequences conflict, plus the rule that
    /// decided the verdict (for abort attribution). Class attribution,
    /// counter updates and trace events are handled centrally by the
    /// session.
    fn judge(
        &self,
        class: &ClassId,
        entry: Option<&Value>,
        cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
    ) -> (bool, CheckReason);
}

/// The shared incremental engine: accumulates committed segments and
/// rechecks only the locations each delta touches.
struct Session<'a, D: ?Sized> {
    judge: &'a D,
    entry: &'a dyn EntryState,
    txn: &'a CommittedLog,
    /// Accumulated committed segments, in commit order. `Arc` clones, so
    /// the session stays valid even if the runtime's history is pruned
    /// concurrently.
    segments: Vec<Arc<CommittedLog>>,
    conflicted: bool,
    /// Whether to intersect footprint fingerprints before admitting a
    /// delta segment (cached from the judge at open time).
    prefilter: bool,
    /// The owning worker's event ring, when lifecycle tracing is on.
    obs: Option<&'a RingHandle>,
}

/// Opens a session over a per-cell judge, counting the query.
fn open_session<'a, D: CellJudge>(
    judge: &'a D,
    entry: &'a dyn EntryState,
    txn: &'a CommittedLog,
    obs: Option<&'a RingHandle>,
) -> Box<dyn ValidationSession + 'a> {
    judge.judge_stats().queries.fetch_add(1, Ordering::Relaxed);
    Box::new(Session {
        judge,
        entry,
        txn,
        segments: Vec::new(),
        conflicted: false,
        prefilter: judge.prefilter_enabled(),
        obs,
    })
}

impl<D: CellJudge + ?Sized> Session<'_, D> {
    /// Runs one per-cell judgement and handles everything around it:
    /// counter updates, class attribution for conflicting cells, and the
    /// `per_cell_check` trace event. The event's `class` clone is an
    /// `Arc` bump — the traced path allocates nothing per check.
    fn judge_cell(
        &self,
        loc: LocId,
        class: &ClassId,
        entry: Option<&Value>,
        cell: &CellKey,
        t_ops: &[&Op],
        c_ops: &[&Op],
    ) -> bool {
        let stats = self.judge.judge_stats();
        let ops_scanned = (t_ops.len() + c_ops.len()) as u64;
        stats.ops_scanned.fetch_add(ops_scanned, Ordering::Relaxed);
        stats.cells_checked.fetch_add(1, Ordering::Relaxed);
        let (hit, reason) = self.judge.judge(class, entry, cell, t_ops, c_ops);
        if hit {
            stats.record_class_conflict(class);
        }
        if let Some(obs) = self.obs {
            obs.record(EventKind::PerCellCheck {
                loc,
                class: class.clone(),
                verdict: if hit {
                    Verdict::Conflict
                } else {
                    Verdict::Pass
                },
                reason,
                ops_scanned,
            });
        }
        hit
    }

    /// Re-evaluates every common cell of one location against the *full*
    /// accumulated committed subsequence for that location. Sound because
    /// a cell's verdict is a function of the two subsequences alone; the
    /// caller only invokes this for locations a new delta touched.
    ///
    /// The committed side is joined to the transaction's keys, never
    /// folded whole: a first pass picks the segments that index the
    /// location (no decomposition happens here — every segment was
    /// decomposed once, at commit time), and on the keyed path only the
    /// keys both sides index are resolved, so the cost follows the cells
    /// the two sides share rather than everything the window touched.
    fn check_loc(&self, loc: LocId) -> bool {
        let ht = self.txn.loc(loc).expect("dirty location is txn-touched");
        let mut c_has_whole = false;
        let hits: Vec<(&CommittedLog, &DecomposedLoc)> = self
            .segments
            .iter()
            .filter_map(|seg| {
                let dc = seg.loc(loc)?;
                c_has_whole |= dc.has_whole;
                Some((&**seg, dc))
            })
            .collect();
        if hits.is_empty() {
            return false;
        }
        if ht.has_whole || c_has_whole {
            let mut t_ops: Vec<&Op> = Vec::with_capacity(ht.ops.len());
            self.txn.resolve(&ht.ops, &mut t_ops);
            let mut c_ops: Vec<&Op> = Vec::new();
            for (seg, dc) in &hits {
                seg.resolve(&dc.ops, &mut c_ops);
            }
            let entry_value = self.entry.value_of(loc);
            return self.judge_cell(
                loc,
                &ht.class,
                entry_value.as_ref(),
                &CellKey::Whole,
                &t_ops,
                &c_ops,
            );
        }
        let shared = shared_keys(&ht.per_key, &hits);
        if shared.is_empty() {
            return false;
        }
        let entry_value = self.entry.value_of(loc);
        let (mut t_ops, mut c_ops): (Vec<&Op>, Vec<&Op>) = (Vec::new(), Vec::new());
        for key in shared {
            t_ops.clear();
            self.txn.resolve(&ht.per_key[key], &mut t_ops);
            c_ops.clear();
            for (seg, dc) in &hits {
                if let Some(idxs) = dc.per_key.get(key) {
                    seg.resolve(idxs, &mut c_ops);
                }
            }
            let cell = CellKey::Key(key.clone());
            // The subsequences of a per-key cell only touch that key,
            // so sequence evaluation may run against a relation pruned
            // to the key — avoiding whole-object clones per replay.
            let pruned = entry_value.as_ref().map(|v| prune_to_key(v, key));
            if self.judge_cell(loc, &ht.class, pruned.as_ref(), &cell, &t_ops, &c_ops) {
                return true;
            }
        }
        false
    }
}

/// The keys the transaction's per-key index shares with at least one
/// committed segment's, in key order (the order the transaction's index
/// iterates them). Each segment is joined by walking both sorted indices
/// in step: one comparison per key of either side, and no lookups.
fn shared_keys<'k>(
    txn: &'k BTreeMap<Key, Vec<u32>>,
    hits: &[(&CommittedLog, &DecomposedLoc)],
) -> Vec<&'k Key> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let mut shared: Vec<&'k Key> = Vec::new();
    for (_, dc) in hits {
        let (mut t, mut c) = (txn.keys().peekable(), dc.per_key.keys().peekable());
        while let (Some(tk), Some(ck)) = (t.peek(), c.peek()) {
            match tk.cmp(ck) {
                Less => {
                    t.next();
                }
                Greater => {
                    c.next();
                }
                Equal => {
                    shared.push(tk);
                    t.next();
                    c.next();
                }
            }
        }
    }
    if hits.len() > 1 {
        shared.sort_unstable();
        shared.dedup();
    }
    shared
}

impl<D: CellJudge + ?Sized> ValidationSession for Session<'_, D> {
    fn extend(&mut self, delta: &HistoryWindow<'_>) -> bool {
        if self.conflicted {
            return true;
        }
        let stats = self.judge.judge_stats();
        let txn_fp = *self.txn.fingerprint();
        // The dirty set: locations the delta touches *and* the
        // transaction touches. Only their verdicts can change; private
        // locations and unshared keys never meet (§5.3's projection).
        let mut dirty: BTreeSet<LocId> = BTreeSet::new();
        for seg in delta.segments() {
            // Fingerprint prefilter: a segment whose footprint is
            // provably disjoint from the transaction's can never
            // contribute an operation to any cell check (check_loc only
            // folds segments that index a txn-touched location), so it
            // is dismissed in O(1) — and not accumulated, keeping later
            // re-validations over `self.segments` shorter too. False
            // positives merely fall through to the per-location walk.
            if self.prefilter && !txn_fp.may_intersect(seg.fingerprint()) {
                stats.segments_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            stats.segments_scanned.fetch_add(1, Ordering::Relaxed);
            for loc in seg.index().locs.keys() {
                if self.txn.loc(*loc).is_some() {
                    dirty.insert(*loc);
                }
            }
            self.segments.push(Arc::clone(seg));
        }
        for loc in dirty {
            if self.check_loc(loc) {
                self.conflicted = true;
                self.judge
                    .judge_stats()
                    .conflicts
                    .fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    fn conflicted(&self) -> bool {
        self.conflicted
    }
}

/// Restricts a relational value to the tuples under one key (identity on
/// scalars). Sound for per-key subsequences, whose operations neither
/// read nor write any other key.
fn prune_to_key(value: &Value, key: &janus_relational::Key) -> Value {
    match value {
        Value::Rel(r) => {
            let mut pruned = janus_relational::Relation::empty(r.schema().clone());
            if let Some(t) = r.lookup(key) {
                pruned.insert(t);
            }
            Value::Rel(pruned)
        }
        Value::Scalar(_) => value.clone(),
    }
}

/// Whether the subsequence has an *exposed* read: a read whose footprint
/// is not covered by the subsequence's own earlier writes. A read of a
/// cell the transaction already wrote observes its own buffered value, so
/// — as in write-buffering STMs — it does not enter the read set.
fn has_exposed_read(ops: &[&Op]) -> bool {
    let mut written = janus_relational::CellSet::Empty;
    for op in ops {
        if !op.footprint.read.is_empty() && !op.footprint.read.subset_of(&written) {
            return true;
        }
        written.extend(&op.footprint.write);
    }
    false
}

/// The write-set conflict test for one cell's subsequences, optionally
/// weakened by a relaxation (used both by the baseline detector, with the
/// strict relaxation, and as the cache-miss fallback).
fn write_set_cell(txn: &[&Op], committed: &[&Op], relax: Relaxation) -> bool {
    let t_writes = txn.iter().any(|op| op.is_write());
    let c_writes = committed.iter().any(|op| op.is_write());
    let t_reads = has_exposed_read(txn);
    let c_reads = has_exposed_read(committed);
    let rw = (t_reads && c_writes) || (c_reads && t_writes);
    let ww = t_writes && c_writes;
    (rw && !relax.tolerate_raw) || (ww && !relax.tolerate_waw)
}

/// The standard write-set detector: a conflict is a common location (or
/// key) that one of the histories writes and the other accesses.
///
/// Implemented over the same decomposition machinery as the
/// sequence-based detector — "the write-set-based algorithm is
/// implemented as a subset of its sequence-based counterpart, which
/// cancels out differences due to implementation choices" (§7.1).
#[derive(Debug)]
pub struct WriteSetDetector {
    stats: DetectorStats,
    prefilter: bool,
}

impl Default for WriteSetDetector {
    fn default() -> Self {
        WriteSetDetector {
            stats: DetectorStats::new(),
            prefilter: true,
        }
    }
}

impl WriteSetDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        WriteSetDetector::default()
    }

    /// Enables or disables the footprint-fingerprint prefilter (on by
    /// default).
    pub fn prefilter(mut self, on: bool) -> Self {
        self.prefilter = on;
        self
    }
}

impl CellJudge for WriteSetDetector {
    fn judge_stats(&self) -> &DetectorStats {
        &self.stats
    }

    fn prefilter_enabled(&self) -> bool {
        self.prefilter
    }

    fn judge(
        &self,
        _class: &ClassId,
        _entry: Option<&Value>,
        _cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
    ) -> (bool, CheckReason) {
        let hit = write_set_cell(txn, committed, Relaxation::strict());
        (hit, CheckReason::WritesetOverlap)
    }
}

impl ConflictDetector for WriteSetDetector {
    fn begin_validation_traced<'a>(
        &'a self,
        entry: &'a dyn EntryState,
        txn: &'a CommittedLog,
        obs: Option<&'a RingHandle>,
    ) -> Box<dyn ValidationSession + 'a> {
        open_session(self, entry, txn, obs)
    }

    fn name(&self) -> &'static str {
        "write-set"
    }

    fn stats(&self) -> &DetectorStats {
        &self.stats
    }
}

/// The online sequence-based detector: evaluates `SAMEREAD`/`COMMUTE`
/// directly (Figure 8) on every conflict query.
///
/// Exact, but each query costs a full re-evaluation of both subsequences;
/// the paper keeps this mode for completeness and uses the cached
/// detector in production; the gap is ablation D3 (DESIGN.md §4).
#[derive(Debug)]
pub struct SequenceDetector {
    relax: RelaxationSpec,
    stats: DetectorStats,
    prefilter: bool,
}

impl Default for SequenceDetector {
    fn default() -> Self {
        SequenceDetector::with_relaxations(RelaxationSpec::default())
    }
}

impl SequenceDetector {
    /// Creates the detector with no relaxations.
    pub fn new() -> Self {
        SequenceDetector::default()
    }

    /// Creates the detector with the given relaxation specification.
    pub fn with_relaxations(relax: RelaxationSpec) -> Self {
        SequenceDetector {
            relax,
            stats: DetectorStats::new(),
            prefilter: true,
        }
    }

    /// Enables or disables the footprint-fingerprint prefilter (on by
    /// default).
    pub fn prefilter(mut self, on: bool) -> Self {
        self.prefilter = on;
        self
    }
}

impl CellJudge for SequenceDetector {
    fn judge_stats(&self) -> &DetectorStats {
        &self.stats
    }

    fn prefilter_enabled(&self) -> bool {
        self.prefilter
    }

    fn judge(
        &self,
        class: &ClassId,
        entry: Option<&Value>,
        cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
    ) -> (bool, CheckReason) {
        let relax = self.relax.effective(class, txn, committed);
        match entry {
            Some(v) => conflict_cell_attributed(v, cell, txn, committed, relax),
            // No entry value (location unknown to the snapshot):
            // conservatively fall back to the write-set test.
            None => (
                write_set_cell(txn, committed, relax),
                CheckReason::WritesetOverlap,
            ),
        }
    }
}

impl ConflictDetector for SequenceDetector {
    fn begin_validation_traced<'a>(
        &'a self,
        entry: &'a dyn EntryState,
        txn: &'a CommittedLog,
        obs: Option<&'a RingHandle>,
    ) -> Box<dyn ValidationSession + 'a> {
        open_session(self, entry, txn, obs)
    }

    fn name(&self) -> &'static str {
        "sequence-online"
    }

    fn stats(&self) -> &DetectorStats {
        &self.stats
    }
}

/// The interface to a commutativity cache populated by offline training
/// (§5.1). `janus-train` provides the implementation.
pub trait SequenceOracle: Send + Sync {
    /// Answers one per-cell conflict query from the cache: `Some(true)` if
    /// the cached condition says the subsequences conflict, `Some(false)`
    /// if it proves they do not, `None` on a cache miss. `relax` is the
    /// effective relaxation for the pair: checks it tolerates must be
    /// skipped.
    fn query(
        &self,
        class: &ClassId,
        entry: Option<&Value>,
        cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
        relax: Relaxation,
    ) -> Option<bool>;
}

impl<T: SequenceOracle + ?Sized> SequenceOracle for std::sync::Arc<T> {
    fn query(
        &self,
        class: &ClassId,
        entry: Option<&Value>,
        cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
        relax: Relaxation,
    ) -> Option<bool> {
        (**self).query(class, entry, cell, txn, committed, relax)
    }
}

/// The production detector: per-cell queries are answered from a trained
/// commutativity cache; misses fall back to the write-set test (§5.1,
/// Figure 6).
pub struct CachedSequenceDetector<O> {
    oracle: O,
    relax: RelaxationSpec,
    stats: DetectorStats,
    faults: Option<std::sync::Arc<janus_fault::FaultPlan>>,
    prefilter: bool,
}

impl<O: SequenceOracle> CachedSequenceDetector<O> {
    /// Creates the detector over a trained oracle.
    pub fn new(oracle: O) -> Self {
        CachedSequenceDetector::with_relaxations(oracle, RelaxationSpec::default())
    }

    /// Creates the detector with relaxations.
    pub fn with_relaxations(oracle: O, relax: RelaxationSpec) -> Self {
        CachedSequenceDetector {
            oracle,
            relax,
            stats: DetectorStats::new(),
            faults: None,
            prefilter: true,
        }
    }

    /// Enables or disables the footprint-fingerprint prefilter (on by
    /// default).
    pub fn prefilter(mut self, on: bool) -> Self {
        self.prefilter = on;
        self
    }

    /// Attaches a fault plan: [`janus_fault::FaultKind::CacheMiss`]
    /// sites (addressed by [`janus_fault::stable_key`] of the class
    /// label) skip the oracle entirely, forcing the write-set fallback —
    /// a chaos probe for degraded detection. With no plan attached (the
    /// default), the query path pays one branch on `None`.
    pub fn with_faults(mut self, plan: std::sync::Arc<janus_fault::FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The underlying oracle.
    pub fn oracle(&self) -> &O {
        &self.oracle
    }
}

impl<O: SequenceOracle> CellJudge for CachedSequenceDetector<O> {
    fn judge_stats(&self) -> &DetectorStats {
        &self.stats
    }

    fn prefilter_enabled(&self) -> bool {
        self.prefilter
    }

    fn judge(
        &self,
        class: &ClassId,
        entry: Option<&Value>,
        cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
    ) -> (bool, CheckReason) {
        let relax = self.relax.effective(class, txn, committed);
        if relax.tolerate_raw && relax.tolerate_waw {
            // Everything the cell check could flag is tolerated.
            return (false, CheckReason::Commute);
        }
        if let Some(plan) = &self.faults {
            // Forced miss: the oracle is never consulted, so the
            // write-set fallback decides — sound (it can only add
            // conflicts), merely less precise.
            if plan.should_inject(
                janus_fault::FaultKind::CacheMiss,
                janus_fault::stable_key(class.label()),
                0,
            ) {
                self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                return (
                    write_set_cell(txn, committed, relax),
                    CheckReason::CacheMiss,
                );
            }
        }
        match self.oracle.query(class, entry, cell, txn, committed, relax) {
            Some(answer) => {
                self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                (answer, CheckReason::Commute)
            }
            None => {
                self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                (
                    write_set_cell(txn, committed, relax),
                    CheckReason::CacheMiss,
                )
            }
        }
    }
}

impl<O: SequenceOracle> ConflictDetector for CachedSequenceDetector<O> {
    fn begin_validation_traced<'a>(
        &'a self,
        entry: &'a dyn EntryState,
        txn: &'a CommittedLog,
        obs: Option<&'a RingHandle>,
    ) -> Box<dyn ValidationSession + 'a> {
        open_session(self, entry, txn, obs)
    }

    fn name(&self) -> &'static str {
        "sequence-cached"
    }

    fn stats(&self) -> &DetectorStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_log::{OpKind, ScalarOp};
    use janus_relational::{tuple, Fd, Formula, RelOp, Relation, Scalar, Schema};

    fn mk_ops(loc: u64, class: &str, kinds: Vec<OpKind>, entry: &mut MapState) -> Vec<Op> {
        let v = entry.0.entry(LocId(loc)).or_insert_with(|| Value::int(0));
        let mut v = v.clone();
        kinds
            .into_iter()
            .map(|k| Op::execute(LocId(loc), ClassId::new(class), k, &mut v).0)
            .collect()
    }

    fn add(d: i64) -> OpKind {
        OpKind::Scalar(ScalarOp::Add(d))
    }

    fn read() -> OpKind {
        OpKind::Scalar(ScalarOp::Read)
    }

    fn write(v: i64) -> OpKind {
        OpKind::Scalar(ScalarOp::Write(Scalar::Int(v)))
    }

    #[test]
    fn write_set_flags_identity_sequences() {
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        let a = mk_ops(0, "work", vec![add(2), add(-2)], &mut s);
        let b = mk_ops(0, "work", vec![add(3), add(-3)], &mut s);
        let ws = WriteSetDetector::new();
        assert!(ws.detect_ops(&s, &a, &b), "write-set is conservative");
        let seq = SequenceDetector::new();
        assert!(
            !seq.detect_ops(&s, &a, &b),
            "sequence detection sees the identity"
        );
    }

    #[test]
    fn validity_empty_history_never_conflicts() {
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        let a = mk_ops(0, "x", vec![write(1), read()], &mut s);
        let empty: Vec<Op> = Vec::new();
        for det in [
            &WriteSetDetector::new() as &dyn ConflictDetector,
            &SequenceDetector::new(),
        ] {
            assert!(
                !det.detect_ops(&s, &a, &empty),
                "{} must be valid",
                det.name()
            );
        }
    }

    #[test]
    fn disjoint_locations_never_conflict() {
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        s.0.insert(LocId(1), Value::int(0));
        let a = mk_ops(0, "x", vec![write(1)], &mut s);
        let b = mk_ops(1, "y", vec![write(2)], &mut s);
        assert!(!WriteSetDetector::new().detect_ops(&s, &a, &b));
        assert!(!SequenceDetector::new().detect_ops(&s, &a, &b));
    }

    #[test]
    fn sequence_conflicts_subset_of_write_set() {
        // Soundness-direction sanity: anything the sequence detector
        // flags, the write-set detector flags too.
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        let cases: Vec<(Vec<OpKind>, Vec<OpKind>)> = vec![
            (vec![add(1)], vec![read()]),
            (vec![write(1)], vec![write(2)]),
            (vec![read(), write(1)], vec![write(1)]),
            (vec![add(5), add(-5)], vec![read(), add(2)]),
        ];
        for (ka, kb) in cases {
            let a = mk_ops(0, "x", ka, &mut s);
            let b = mk_ops(0, "x", kb, &mut s);
            let seq_conflict = SequenceDetector::new().detect_ops(&s, &a, &b);
            let ws_conflict = WriteSetDetector::new().detect_ops(&s, &a, &b);
            assert!(
                !seq_conflict || ws_conflict,
                "sequence flagged a conflict write-set missed"
            );
        }
    }

    #[test]
    fn stats_count_queries_and_conflicts() {
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        let a = mk_ops(0, "x", vec![write(1)], &mut s);
        let b = mk_ops(0, "x", vec![write(2)], &mut s);
        let det = WriteSetDetector::new();
        det.detect_ops(&s, &a, &b);
        det.detect_ops(&s, &a, &[]);
        let (q, c, _, _) = det.stats().snapshot();
        assert_eq!((q, c), (2, 1));
        assert!(det.stats().ops_scanned() > 0, "cell checks scanned ops");
        det.stats().reset();
        assert_eq!(det.stats().snapshot(), (0, 0, 0, 0));
        assert_eq!(det.stats().ops_scanned(), 0);
    }

    #[test]
    fn session_extends_incrementally_and_sticks() {
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        let a = mk_ops(0, "x", vec![read(), add(1)], &mut s);
        let ok_seg = [Arc::new(CommittedLog::new(mk_ops(
            0,
            "x",
            vec![add(2), add(-2)],
            &mut s,
        )))];
        let bad_seg = [Arc::new(CommittedLog::new(mk_ops(
            0,
            "x",
            vec![write(9)],
            &mut s,
        )))];
        let txn = CommittedLog::new(a);
        let det = SequenceDetector::new();
        let mut session = det.begin_validation(&s, &txn);
        assert!(!session.extend(&HistoryWindow::empty()));
        // A commuting delta: still no conflict.
        assert!(!session.extend(&HistoryWindow::new(&ok_seg)));
        assert!(!session.conflicted());
        // A conflicting delta (writes under an exposed read): conflict,
        // and the verdict is sticky from then on.
        assert!(session.extend(&HistoryWindow::new(&bad_seg)));
        assert!(session.conflicted());
        assert!(session.extend(&HistoryWindow::empty()), "verdict is sticky");
    }

    #[test]
    fn delta_on_foreign_location_is_not_rescanned() {
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        s.0.insert(LocId(7), Value::int(0));
        let a = mk_ops(0, "x", vec![read(), read()], &mut s);
        let seg = [Arc::new(CommittedLog::new(mk_ops(
            0,
            "x",
            vec![read()],
            &mut s,
        )))];
        let foreign = [Arc::new(CommittedLog::new(mk_ops(
            7,
            "y",
            vec![write(3)],
            &mut s,
        )))];
        let txn = CommittedLog::new(a);
        let det = WriteSetDetector::new();
        let mut session = det.begin_validation(&s, &txn);
        assert!(!session.extend(&HistoryWindow::new(&seg)));
        let scanned = det.stats().ops_scanned();
        // Delta touching only a location the transaction never accessed:
        // no cell check runs at all.
        assert!(!session.extend(&HistoryWindow::new(&foreign)));
        assert_eq!(
            det.stats().ops_scanned(),
            scanned,
            "foreign delta must not trigger any scan"
        );
    }

    #[test]
    fn prefilter_skips_disjoint_segments_without_changing_verdicts() {
        let mut s = MapState::default();
        for loc in 0..20 {
            s.0.insert(LocId(loc), Value::int(0));
        }
        let txn = CommittedLog::new(mk_ops(0, "mine", vec![read(), add(1)], &mut s));
        let segs: Vec<Arc<CommittedLog>> = (1..16)
            .map(|loc| {
                Arc::new(CommittedLog::new(mk_ops(
                    loc,
                    &format!("c{loc}"),
                    vec![write(1)],
                    &mut s,
                )))
            })
            .collect();
        let filtered = SequenceDetector::new();
        let unfiltered = SequenceDetector::new().prefilter(false);
        for det in [&filtered, &unfiltered] {
            let mut session = det.begin_validation(&s, &txn);
            assert!(!session.extend(&HistoryWindow::new(&segs)));
        }
        // The filtered detector dismissed every foreign segment in O(1);
        // the unfiltered one admitted them all and found the disjointness
        // the slow way. Identical verdicts either way.
        assert_eq!(
            filtered.stats().segments_scanned() + filtered.stats().segments_skipped(),
            segs.len() as u64
        );
        assert!(
            filtered.stats().segments_skipped() > 0,
            "foreign singleton segments must be fingerprint-skipped"
        );
        assert_eq!(unfiltered.stats().segments_skipped(), 0);
        assert_eq!(unfiltered.stats().segments_scanned(), segs.len() as u64);
        assert_eq!(filtered.stats().ops_scanned(), 0, "no cell overlapped");
        // A genuinely overlapping segment still gets through and
        // conflicts.
        let hot = [Arc::new(CommittedLog::new(mk_ops(
            0,
            "mine",
            vec![write(9)],
            &mut s,
        )))];
        let mut session = filtered.begin_validation(&s, &txn);
        assert!(session.extend(&HistoryWindow::new(&hot)));
    }

    /// A trivial oracle: answers "no conflict" for classes named
    /// "known", misses otherwise.
    struct TestOracle;

    impl SequenceOracle for TestOracle {
        fn query(
            &self,
            class: &ClassId,
            _entry: Option<&Value>,
            _cell: &CellKey,
            _txn: &[&Op],
            _committed: &[&Op],
            _relax: Relaxation,
        ) -> Option<bool> {
            (class.label() == "known").then_some(false)
        }
    }

    #[test]
    fn cached_detector_hits_and_falls_back() {
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        s.0.insert(LocId(1), Value::int(0));
        let det = CachedSequenceDetector::new(TestOracle);

        // Known class: cache answers no-conflict even though write-set
        // would flag it.
        let a = mk_ops(0, "known", vec![add(1), add(-1)], &mut s);
        let b = mk_ops(0, "known", vec![add(2), add(-2)], &mut s);
        assert!(!det.detect_ops(&s, &a, &b));

        // Unknown class: miss, write-set fallback flags the conflict.
        let a = mk_ops(1, "unknown", vec![add(1), add(-1)], &mut s);
        let b = mk_ops(1, "unknown", vec![add(2), add(-2)], &mut s);
        assert!(det.detect_ops(&s, &a, &b));

        let (_, _, hits, misses) = det.stats().snapshot();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn forced_cache_miss_skips_the_oracle() {
        use janus_fault::{stable_key, FaultKind, FaultPlan, FaultSite};

        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        // The oracle would answer "no conflict" for "known"; the forced
        // miss makes the write-set fallback flag the overlap instead.
        let plan = std::sync::Arc::new(FaultPlan::from_sites(vec![FaultSite {
            kind: FaultKind::CacheMiss,
            subject: stable_key("known"),
            attempt: 0,
        }]));
        let det = CachedSequenceDetector::new(TestOracle).with_faults(std::sync::Arc::clone(&plan));
        let a = mk_ops(0, "known", vec![add(1), add(-1)], &mut s);
        let b = mk_ops(0, "known", vec![add(2), add(-2)], &mut s);
        assert!(det.detect_ops(&s, &a, &b), "fallback flags the overlap");
        let (_, _, hits, misses) = det.stats().snapshot();
        assert_eq!((hits, misses), (0, 1), "the oracle was never consulted");
        assert_eq!(plan.stats().injected_of(FaultKind::CacheMiss), 1);
    }

    #[test]
    fn conflicts_are_attributed_to_classes() {
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        s.0.insert(LocId(1), Value::int(0));
        let ws = WriteSetDetector::new();
        let a0 = mk_ops(0, "hot", vec![write(1)], &mut s);
        let b0 = mk_ops(0, "hot", vec![write(2)], &mut s);
        let a1 = mk_ops(1, "cold", vec![read()], &mut s);
        let b1 = mk_ops(1, "cold", vec![read()], &mut s);
        // Conflict on "hot" twice, never on "cold".
        ws.detect_ops(&s, &a0, &b0);
        ws.detect_ops(&s, &a0, &b0);
        let mut both_a = a1.clone();
        both_a.extend(a0.clone());
        let _ = ws.detect_ops(&s, &both_a, &b1); // cold-only overlap: no conflict
        let by_class = ws.stats().conflicts_by_class();
        assert_eq!(by_class.len(), 1);
        assert_eq!(by_class[0].0.label(), "hot");
        assert_eq!(by_class[0].1, 2);
        ws.stats().reset();
        assert!(ws.stats().conflicts_by_class().is_empty());
    }

    /// Keyed inserts of `keys` into a fresh `k → v` relation at `loc`.
    fn keyed_inserts(loc: u64, class: &str, keys: &[i64], extra: Vec<RelOp>) -> Vec<Op> {
        let schema = Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]));
        let mut v = Value::Rel(Relation::empty(schema));
        keys.iter()
            .map(|&k| RelOp::insert(tuple![k, k * 10]))
            .chain(extra)
            .map(|op| Op::execute(LocId(loc), ClassId::new(class), OpKind::Rel(op), &mut v).0)
            .collect()
    }

    /// The fold-every-key reference the join replaces: folds every
    /// committed key of `loc` into one map, then counts the cells and
    /// ops a check would judge, without judging.
    fn fold_every_key(txn: &CommittedLog, window: &[Arc<CommittedLog>], loc: LocId) -> (u64, u64) {
        let ht = txn.loc(loc).expect("txn touches loc");
        let mut c_per_key: BTreeMap<&Key, Vec<&Op>> = BTreeMap::new();
        for seg in window {
            if let Some(dc) = seg.loc(loc) {
                for (k, idxs) in &dc.per_key {
                    seg.resolve(idxs, c_per_key.entry(k).or_default());
                }
            }
        }
        let (mut cells, mut ops) = (0, 0);
        for (key, t_idxs) in &ht.per_key {
            if let Some(c) = c_per_key.get(key) {
                cells += 1;
                ops += (t_idxs.len() + c.len()) as u64;
            }
        }
        (cells, ops)
    }

    #[test]
    fn key_join_judges_exactly_the_shared_keys() {
        let state = MapState::default();
        // The oracle passes every "known" cell, so no check stops early.
        let txn_keys: Vec<i64> = (0..60).map(|i| i * 3).collect();
        let txn = CommittedLog::new(keyed_inserts(
            0,
            "known",
            &txn_keys,
            vec![RelOp::select(Formula::eq(0, 3i64))],
        ));
        let seg_keys: [Vec<i64>; 3] = [
            (0..200).map(|i| i * 2).collect(),
            (0..5).map(|i| i * 7 + 1).collect(),
            vec![1000, 1001],
        ];
        let window: Vec<Arc<CommittedLog>> = seg_keys
            .iter()
            .map(|keys| Arc::new(CommittedLog::new(keyed_inserts(0, "known", keys, vec![]))))
            .collect();
        let txn_set: BTreeSet<i64> = txn_keys.iter().copied().collect();
        let window_set: BTreeSet<i64> = seg_keys.iter().flatten().copied().collect();
        let shared = txn_set.intersection(&window_set).count() as u64;
        assert!(shared > 0 && shared < txn_set.len() as u64);
        let (ref_cells, ref_ops) = fold_every_key(&txn, &window, LocId(0));
        assert_eq!(ref_cells, shared);
        // One-shot, and incrementally segment by segment: either way
        // each shared cell is judged once per extension that touches it.
        let det = CachedSequenceDetector::new(TestOracle);
        assert!(!det.detect(&state, &txn, HistoryWindow::new(&window)));
        assert_eq!(det.stats().cells_checked(), shared);
        assert_eq!(det.stats().ops_scanned(), ref_ops);
        det.stats().reset();
        let mut session = det.begin_validation(&state, &txn);
        let (mut cells, mut ops) = (0, 0);
        for i in 0..window.len() {
            assert!(!session.extend(&HistoryWindow::new(&window[i..=i])));
            let (c, o) = fold_every_key(&txn, &window[..=i], LocId(0));
            if window[i].loc(LocId(0)).is_some() {
                cells += c;
                ops += o;
            }
        }
        assert_eq!(det.stats().cells_checked(), cells);
        assert_eq!(det.stats().ops_scanned(), ops);

        // A whole-object access on either side makes the location one
        // cell, judged once over every op of both sides.
        let scan = Arc::new(CommittedLog::new(keyed_inserts(
            0,
            "known",
            &[3],
            vec![RelOp::select(Formula::eq(1, 30i64))],
        )));
        assert!(scan.loc(LocId(0)).expect("indexed").has_whole);
        let mut with_scan = window.clone();
        with_scan.push(scan);
        det.stats().reset();
        assert!(!det.detect(&state, &txn, HistoryWindow::new(&with_scan)));
        assert_eq!(det.stats().cells_checked(), 1);
        let all_ops: usize = with_scan.iter().map(|s| s.len()).sum::<usize>() + txn.len();
        assert_eq!(det.stats().ops_scanned(), all_ops as u64);
    }

    #[test]
    fn fully_relaxed_class_skips_cells() {
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        let mut relax = RelaxationSpec::new();
        relax.relax(
            ClassId::new("scratch"),
            Relaxation {
                tolerate_raw: true,
                tolerate_waw: true,
            },
        );
        let det = CachedSequenceDetector::with_relaxations(TestOracle, relax);
        let a = mk_ops(0, "scratch", vec![write(1), read()], &mut s);
        let b = mk_ops(0, "scratch", vec![write(2), read()], &mut s);
        assert!(!det.detect_ops(&s, &a, &b));
        let (_, _, hits, misses) = det.stats().snapshot();
        assert_eq!(
            (hits, misses),
            (0, 0),
            "relaxed cells never reach the oracle"
        );
    }

    #[test]
    fn traced_session_records_per_cell_checks() {
        use janus_obs::Recorder;

        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        let a = mk_ops(0, "hot", vec![read(), add(1)], &mut s);
        let ok_seg = [Arc::new(CommittedLog::new(mk_ops(
            0,
            "hot",
            vec![add(2), add(-2)],
            &mut s,
        )))];
        let bad_seg = [Arc::new(CommittedLog::new(mk_ops(
            0,
            "hot",
            vec![write(9)],
            &mut s,
        )))];
        let txn = CommittedLog::new(a);
        let det = SequenceDetector::new();
        let rec = Recorder::new();
        {
            let h = rec.register("w0");
            let mut session = det.begin_validation_traced(&s, &txn, Some(&h));
            assert!(!session.extend(&HistoryWindow::new(&ok_seg)));
            assert!(session.extend(&HistoryWindow::new(&bad_seg)));
        }
        let trace = rec.finish();
        assert_eq!(trace.count("per_cell_check"), 2);
        assert_eq!(trace.conflict_checks(), 1);
        assert_eq!(det.stats().cells_checked(), 2, "events match the counter");
        let reasons: Vec<CheckReason> = trace
            .events()
            .filter_map(|e| match &e.kind {
                EventKind::PerCellCheck { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, vec![CheckReason::Commute, CheckReason::SameRead]);
    }

    #[test]
    fn ooo_inference_admits_shared_as_local_in_cached_fallback() {
        let mut s = MapState::default();
        s.0.insert(LocId(0), Value::int(0));
        let relax = RelaxationSpec::new().with_ooo_inference();
        let det = CachedSequenceDetector::with_relaxations(TestOracle, relax);
        let a = mk_ops(0, "ctx.file", vec![write(1), read()], &mut s);
        let b = mk_ops(0, "ctx.file", vec![write(2), read()], &mut s);
        assert!(
            !det.detect_ops(&s, &a, &b),
            "covered-read WAW chain tolerated out of order"
        );
    }
}
