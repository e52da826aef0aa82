//! Cross-detector relationships on exhaustively enumerated scalar
//! sequence pairs:
//!
//! * **refinement** — anything the sequence detector flags, the write-set
//!   detector flags too (sequence detection only *removes* false
//!   conflicts, never adds new ones);
//! * **exactness of the ideal check** — the sequence detector's verdict
//!   agrees with brute-force commutativity of the two transaction
//!   histories evaluated in both orders, whenever the histories observe
//!   nothing (no reads): for blind histories the final state is the whole
//!   story;
//! * **cache/online agreement** — the cached detector with a trained
//!   cache never disagrees with the online detector on a hit.

use janus::detect::{
    CachedSequenceDetector, ConflictDetector, MapState, SequenceDetector, WriteSetDetector,
};
use janus::log::{ClassId, LocId, Op, OpKind, ScalarOp};
use janus::relational::{Scalar, Value};
use janus::train::{train, TrainConfig, TrainingRun};

#[derive(Debug, Clone, Copy, PartialEq)]
enum K {
    Read,
    Add(i64),
    Write(i64),
}

fn kind(k: K) -> OpKind {
    match k {
        K::Read => OpKind::Scalar(ScalarOp::Read),
        K::Add(d) => OpKind::Scalar(ScalarOp::Add(d)),
        K::Write(v) => OpKind::Scalar(ScalarOp::Write(Scalar::Int(v))),
    }
}

fn mk_ops(ks: &[K], entry: i64) -> Vec<Op> {
    let mut v = Value::int(entry);
    ks.iter()
        .map(|&k| Op::execute(LocId(0), ClassId::new("x"), kind(k), &mut v).0)
        .collect()
}

/// All sequences of length ≤ 2 over a tiny alphabet.
fn universe() -> Vec<Vec<K>> {
    let alphabet = [K::Read, K::Add(1), K::Add(-1), K::Write(0), K::Write(5)];
    let mut out: Vec<Vec<K>> = vec![vec![]];
    for &a in &alphabet {
        out.push(vec![a]);
        for &b in &alphabet {
            out.push(vec![a, b]);
        }
    }
    out
}

#[test]
fn sequence_conflicts_are_a_subset_of_write_set_conflicts() {
    let ws = WriteSetDetector::new();
    let seq = SequenceDetector::new();
    let mut refined = 0u32;
    for entry in [0i64, 5] {
        let mut state = MapState::default();
        state.0.insert(LocId(0), Value::int(entry));
        for a in universe() {
            for b in universe() {
                let oa = mk_ops(&a, entry);
                let ob = mk_ops(&b, entry);
                let s = seq.detect_ops(&state, &oa, &ob);
                let w = ws.detect_ops(&state, &oa, &ob);
                assert!(
                    !s || w,
                    "sequence flagged {a:?} vs {b:?} at {entry} but write-set did not"
                );
                if w && !s {
                    refined += 1;
                }
            }
        }
    }
    assert!(refined > 50, "refinement must actually remove conflicts");
}

#[test]
fn blind_histories_agree_with_ground_truth_commutativity() {
    let seq = SequenceDetector::new();
    let blind: Vec<Vec<K>> = universe()
        .into_iter()
        .filter(|s| s.iter().all(|k| !matches!(k, K::Read)))
        .collect();
    for entry in [0i64, 3] {
        let mut state = MapState::default();
        state.0.insert(LocId(0), Value::int(entry));
        for a in &blind {
            for b in &blind {
                let oa = mk_ops(a, entry);
                let ob = mk_ops(b, entry);
                let detected = seq.detect_ops(&state, &oa, &ob);
                // Ground truth: replay both orders.
                let replay = |first: &[Op], second: &[Op]| -> i64 {
                    let mut v = Value::int(entry);
                    for op in first.iter().chain(second) {
                        op.kind.apply(&mut v);
                    }
                    v.as_int().expect("int")
                };
                let commutes = replay(&oa, &ob) == replay(&ob, &oa);
                assert_eq!(
                    detected, !commutes,
                    "{a:?} vs {b:?} at {entry}: detector vs ground truth"
                );
            }
        }
    }
}

#[test]
fn cached_hits_agree_with_online_detection() {
    // Train on a run exercising a mix of the universe's patterns.
    let mut initial = MapState::default();
    initial.0.insert(LocId(0), Value::int(0));
    let logs: Vec<Vec<Op>> = vec![
        mk_ops(&[K::Add(2), K::Add(-2)], 0),
        mk_ops(&[K::Add(3), K::Add(-3)], 0),
        mk_ops(&[K::Write(5)], 0),
        mk_ops(&[K::Write(5)], 5),
        mk_ops(&[K::Read], 5),
        mk_ops(&[K::Add(1)], 5),
    ];
    let run = TrainingRun {
        initial,
        task_logs: logs,
    };
    let (cache, _) = train(&[run], TrainConfig::default());
    let cached = CachedSequenceDetector::new(cache.freeze());
    let online = SequenceDetector::new();

    for entry in [0i64, 5] {
        let mut state = MapState::default();
        state.0.insert(LocId(0), Value::int(entry));
        for a in universe() {
            for b in universe() {
                let oa = mk_ops(&a, entry);
                let ob = mk_ops(&b, entry);
                let (_, _, h0, _) = cached.stats().snapshot();
                let c = cached.detect_ops(&state, &oa, &ob);
                let (_, _, h1, _) = cached.stats().snapshot();
                if h1 > h0 {
                    // Cache hit: must match online verdict exactly.
                    let o = online.detect_ops(&state, &oa, &ob);
                    assert_eq!(c, o, "hit disagreement on {a:?} vs {b:?} at {entry}");
                }
            }
        }
    }
}
