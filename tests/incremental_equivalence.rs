//! Incremental-vs-full validation equivalence.
//!
//! The incremental pipeline must be *semantically invisible*: for any
//! transaction log, any committed history split into any segments, and
//! any interleaving of clock advances (i.e. any grouping of those
//! segments into delta extensions), the verdict must equal both
//!
//! * the one-shot zero-copy verdict over the full window, and
//! * the legacy flat verdict over the concatenated operation slice,
//!
//! for the write-set, online-sequence and cached-sequence detectors —
//! on scalar locations (one whole-object cell each) and on a keyed
//! relation, whose inserts, removes and key-pinned selects are judged
//! per key.
//! This is the safety net behind the zero-copy commit pipeline: segments
//! are decomposed once, windows share them, and mid-validation clock
//! advances re-validate only deltas — none of which may change what is
//! (or is not) a conflict.

use std::sync::Arc;

use janus::detect::{
    CachedSequenceDetector, ConflictDetector, MapState, SequenceDetector, WriteSetDetector,
};
use janus::log::{ClassId, CommittedLog, HistoryWindow, LocId, Op, OpKind, ScalarOp};
use janus::relational::{tuple, Fd, Formula, RelOp, Relation, Scalar, Schema, Value};
use janus::train::{train, TrainConfig, TrainingRun};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum K {
    Read,
    Add(i64),
    Write(i64),
    Max(i64),
    /// Keyed relational ops on the `k → v` relation at [`REL`].
    Insert(i64, i64),
    Remove(i64, i64),
    SelectKey(i64),
}

/// The keyed relation's location; `0..REL` are scalar locations.
const REL: u64 = 3;

fn kind(k: K) -> OpKind {
    match k {
        K::Read => OpKind::Scalar(ScalarOp::Read),
        K::Add(d) => OpKind::Scalar(ScalarOp::Add(d)),
        K::Write(v) => OpKind::Scalar(ScalarOp::Write(Scalar::Int(v))),
        K::Max(v) => OpKind::Scalar(ScalarOp::Max(v)),
        K::Insert(k, v) => OpKind::Rel(RelOp::insert(tuple![k, v])),
        K::Remove(k, v) => OpKind::Rel(RelOp::remove(tuple![k, v])),
        K::SelectKey(k) => OpKind::Rel(RelOp::select(Formula::eq(0, k))),
    }
}

/// One random logged access: a location choice plus an operation kind
/// that fits it.
fn access_strategy() -> impl Strategy<Value = (u64, K)> {
    prop_oneof![
        (
            0u64..REL,
            prop_oneof![
                Just(K::Read),
                (-2i64..3).prop_map(K::Add),
                (0i64..3).prop_map(K::Write),
                (0i64..3).prop_map(K::Max),
            ],
        ),
        prop_oneof![
            (0i64..4, 0i64..2).prop_map(|(k, v)| K::Insert(k, v)),
            (0i64..4, 0i64..2).prop_map(|(k, v)| K::Remove(k, v)),
            (0i64..4).prop_map(K::SelectKey),
        ]
        .prop_map(|k| (REL, k)),
    ]
}

/// Executes a sequence of accesses against an evolving per-location
/// state, producing a log with real footprints and results.
fn mk_log(accesses: &[(u64, K)], state: &mut MapState) -> Vec<Op> {
    accesses
        .iter()
        .map(|&(loc, k)| {
            let v = state
                .0
                .get_mut(&LocId(loc))
                .expect("all locations preallocated");
            let class = if loc == REL { "rel" } else { "x" };
            Op::execute(LocId(loc), ClassId::new(class), kind(k), v).0
        })
        .collect()
}

fn initial_state() -> MapState {
    let mut s = MapState::default();
    for loc in 0..REL {
        s.0.insert(LocId(loc), Value::int(0));
    }
    let schema = Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]));
    let rel = Relation::from_tuples(schema, [tuple![0, 0], tuple![1, 1]]);
    s.0.insert(LocId(REL), Value::Rel(rel));
    s
}

/// The three verdicts that must agree:
/// flat (legacy slice), one-shot window, and incremental extensions
/// grouped by `cuts` (a new delta starts before segment `i` iff
/// `cuts[i]` — the random clock-advance interleaving).
fn verdicts(
    det: &dyn ConflictDetector,
    entry: &MapState,
    txn_ops: &[Op],
    segments: &[Arc<CommittedLog>],
    cuts: &[bool],
) -> (bool, bool, bool) {
    let flat_committed: Vec<Op> = segments
        .iter()
        .flat_map(|s| s.ops().iter().cloned())
        .collect();
    let flat = det.detect_ops(entry, txn_ops, &flat_committed);

    let txn = CommittedLog::new(txn_ops.to_vec());
    let one_shot = det.detect(entry, &txn, HistoryWindow::new(segments));

    let mut session = det.begin_validation(entry, &txn);
    let mut incremental = false;
    let mut batch_start = 0;
    for i in 0..=segments.len() {
        let at_cut = i == segments.len() || (i > 0 && cuts.get(i).copied().unwrap_or(false));
        if at_cut {
            incremental = session.extend(&HistoryWindow::new(&segments[batch_start..i]));
            batch_start = i;
        }
    }
    // A trailing empty extension must never change the verdict.
    assert_eq!(incremental, session.extend(&HistoryWindow::empty()));

    (flat, one_shot, incremental)
}

fn mk_segments(committed: &[Vec<(u64, K)>], state: &mut MapState) -> Vec<Arc<CommittedLog>> {
    committed
        .iter()
        .map(|accesses| Arc::new(CommittedLog::new(mk_log(accesses, state))))
        .collect()
}

fn trained_cached_detector() -> CachedSequenceDetector<janus::train::FrozenCache> {
    let mut initial = initial_state();
    let mut mk = |accesses: &[(u64, K)]| mk_log(accesses, &mut initial);
    let task_logs = vec![
        mk(&[(0, K::Add(1)), (0, K::Add(-1))]),
        mk(&[(1, K::Write(2)), (1, K::Read)]),
        mk(&[(2, K::Max(1)), (2, K::Max(2))]),
        mk(&[(0, K::Read), (1, K::Add(1))]),
        mk(&[(REL, K::Insert(2, 1)), (REL, K::SelectKey(2))]),
        mk(&[(REL, K::Remove(0, 0)), (REL, K::Insert(0, 0))]),
        mk(&[(REL, K::Insert(3, 0)), (REL, K::Insert(1, 1))]),
    ];
    let run = TrainingRun {
        initial: initial_state(),
        task_logs,
    };
    let (cache, _) = train(&[run], TrainConfig::default());
    CachedSequenceDetector::new(cache.freeze())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Write-set and online-sequence detection: flat, one-shot-window and
    /// incremental validation all agree, for every random log and every
    /// random clock-advance interleaving.
    #[test]
    fn incremental_matches_full_for_both_detectors(
        txn_accesses in proptest::collection::vec(access_strategy(), 0..8),
        committed in proptest::collection::vec(
            proptest::collection::vec(access_strategy(), 0..5),
            0..5,
        ),
        cuts in proptest::collection::vec(any::<bool>(), 0..6),
    ) {
        let entry = initial_state();
        let mut evolving = initial_state();
        let segments = mk_segments(&committed, &mut evolving);
        let txn_ops = mk_log(&txn_accesses, &mut initial_state());

        let ws = WriteSetDetector::new();
        let (flat, one_shot, incremental) =
            verdicts(&ws, &entry, &txn_ops, &segments, &cuts);
        prop_assert_eq!(flat, one_shot, "write-set: flat vs one-shot window");
        prop_assert_eq!(flat, incremental, "write-set: flat vs incremental");

        let seq = SequenceDetector::new();
        let (flat, one_shot, incremental) =
            verdicts(&seq, &entry, &txn_ops, &segments, &cuts);
        prop_assert_eq!(flat, one_shot, "sequence: flat vs one-shot window");
        prop_assert_eq!(flat, incremental, "sequence: flat vs incremental");
    }

    /// The cached production detector agrees with itself across the three
    /// validation shapes as well (its verdict is per-cell, so hit/miss
    /// bookkeeping may differ but verdicts may not).
    #[test]
    fn incremental_matches_full_for_cached_detector(
        txn_accesses in proptest::collection::vec(access_strategy(), 0..8),
        committed in proptest::collection::vec(
            proptest::collection::vec(access_strategy(), 0..5),
            0..5,
        ),
        cuts in proptest::collection::vec(any::<bool>(), 0..6),
    ) {
        let entry = initial_state();
        let mut evolving = initial_state();
        let segments = mk_segments(&committed, &mut evolving);
        let txn_ops = mk_log(&txn_accesses, &mut initial_state());

        let cached = trained_cached_detector();
        let (flat, one_shot, incremental) =
            verdicts(&cached, &entry, &txn_ops, &segments, &cuts);
        prop_assert_eq!(flat, one_shot, "cached: flat vs one-shot window");
        prop_assert_eq!(flat, incremental, "cached: flat vs incremental");
    }

    /// Segmentation invariance: how the committed ops are carved into
    /// segments (commit boundaries) does not change the verdict either —
    /// one big segment equals many small ones.
    #[test]
    fn segment_boundaries_are_invisible(
        txn_accesses in proptest::collection::vec(access_strategy(), 0..8),
        committed_flat in proptest::collection::vec(access_strategy(), 0..10),
        cuts in proptest::collection::vec(any::<bool>(), 0..10),
    ) {
        let entry = initial_state();
        let txn_ops = mk_log(&txn_accesses, &mut initial_state());
        let txn = CommittedLog::new(txn_ops.clone());

        // One big segment.
        let mut evolving = initial_state();
        let whole = [Arc::new(CommittedLog::new(mk_log(&committed_flat, &mut evolving)))];

        // The same ops carved at every cut point.
        let mut evolving = initial_state();
        let mut pieces: Vec<Vec<(u64, K)>> = vec![Vec::new()];
        for (i, &a) in committed_flat.iter().enumerate() {
            if cuts.get(i).copied().unwrap_or(false) && !pieces.last().unwrap().is_empty() {
                pieces.push(Vec::new());
            }
            pieces.last_mut().unwrap().push(a);
        }
        let carved = mk_segments(&pieces, &mut evolving);

        for det in [
            &WriteSetDetector::new() as &dyn ConflictDetector,
            &SequenceDetector::new(),
        ] {
            let v_whole = det.detect(&entry, &txn, HistoryWindow::new(&whole));
            let v_carved = det.detect(&entry, &txn, HistoryWindow::new(&carved));
            prop_assert_eq!(v_whole, v_carved, "{} verdict changed with segmentation", det.name());
        }
    }
}
