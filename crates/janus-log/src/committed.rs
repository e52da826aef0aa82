//! Committed-log segments and zero-copy history windows.
//!
//! The Figure 7 protocol hands every validating transaction the window of
//! logs committed since its begin time. Materializing that window as a
//! flat `Vec<Op>` clones every operation once per validation attempt and
//! forces each detector to re-run `DECOMPOSE` over the same committed
//! ops again and again. A [`CommittedLog`] instead pairs a committed
//! log with its decomposition, computed exactly once at commit time, and
//! a [`HistoryWindow`] is a borrowed run of `Arc`'d segments — handing a
//! window to a detector shares the segments instead of copying them.

use std::collections::BTreeMap;
use std::sync::Arc;

use janus_relational::{CellSet, Key};

use crate::{ClassId, LocId, Op};

/// A 128-bit Bloom-style summary of a log's footprint: one filter over
/// the touched [`LocId`]s and one over their [`ClassId`]s, each setting
/// two bits per member. Two logs whose location filters are disjoint —
/// or whose class filters are disjoint — provably share no location, so
/// a validation session can dismiss the pair in O(1) without walking
/// either per-location index.
///
/// The filter is one-sided: bit collisions can make disjoint footprints
/// *look* overlapping (the segment is then scanned for nothing), but an
/// overlap can never look disjoint, because inserted members always set
/// their bits. With two bits per member the false-intersection
/// probability for footprints of `n` and `m` members is at most
/// `min(1, 2n/128) · min(1, 2m/128)` per filter, and both filters must
/// collide for a segment to be scanned needlessly. A saturated filter
/// (every bit set, ~64+ distinct members) intersects everything and so
/// degrades to scan-everything — never to skip-everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    locs: u128,
    classes: u128,
}

/// The 64-bit finalizer of splitmix64: a cheap, well-mixed hash for
/// word-sized keys.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string; stable across runs (class labels must hash
/// identically in the trainer and the production runtime). Shared with
/// the class shard-hint routing in `loc.rs`, which needs the same
/// stability guarantee.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Two bit positions (k = 2) derived from one 64-bit hash.
fn bloom_bits(h: u64) -> u128 {
    (1u128 << (h & 127)) | (1u128 << ((h >> 32) & 127))
}

impl Fingerprint {
    /// The empty fingerprint (no footprint: disjoint from everything).
    pub fn empty() -> Self {
        Fingerprint::default()
    }

    /// The saturated fingerprint: every bit set, so it *may intersect*
    /// any non-empty fingerprint. The degenerate worst case of a huge
    /// footprint — a prefilter holding one behaves exactly like no
    /// prefilter at all.
    pub fn saturated() -> Self {
        Fingerprint {
            locs: u128::MAX,
            classes: u128::MAX,
        }
    }

    /// Inserts one location (and its class) into the footprint.
    pub fn insert(&mut self, loc: LocId, class: &ClassId) {
        self.locs |= bloom_bits(splitmix64(loc.0));
        self.classes |= bloom_bits(fnv1a(class.label().as_bytes()));
    }

    /// Whether the two footprints may share a location. `false` is
    /// definitive (the footprints are disjoint — both on locations and,
    /// independently, on classes); `true` may be a false positive.
    pub fn may_intersect(&self, other: &Fingerprint) -> bool {
        // Each location carries exactly one class, so a shared location
        // implies both a loc-filter hit and a class-filter hit; either
        // filter alone may therefore veto the pair.
        (self.locs & other.locs) != 0 && (self.classes & other.classes) != 0
    }

    /// Whether no member was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.locs == 0 && self.classes == 0
    }

    /// Whether both filters have every bit set (see
    /// [`Fingerprint::saturated`]).
    pub fn is_saturated(&self) -> bool {
        self.locs == u128::MAX && self.classes == u128::MAX
    }
}

/// The decomposition of one committed log restricted to one location,
/// stored as indices into the owning [`CommittedLog`]'s operation vector
/// (indices, not references, so the structure is self-contained and
/// shareable behind an `Arc`).
#[derive(Debug, Clone)]
pub struct DecomposedLoc {
    /// The location's static class.
    pub class: ClassId,
    /// Indices of every operation on this location, in log order.
    pub ops: Vec<u32>,
    /// Whether any operation has a whole-object footprint.
    pub has_whole: bool,
    /// Key-granular index subsequences, in log order per key.
    pub per_key: BTreeMap<Key, Vec<u32>>,
}

/// The per-location index of one committed log: which locations it
/// touches, and the index subsequence for each (the `DECOMPOSE` of
/// Figure 8, computed once instead of per conflict query). Entries are
/// `Arc`'d so a [`CommittedLog::restrict`]ed view shares them.
#[derive(Debug, Clone, Default)]
pub struct DecomposedLog {
    /// Per-location index entries.
    pub locs: BTreeMap<LocId, Arc<DecomposedLoc>>,
}

impl DecomposedLog {
    fn build(ops: &[Op]) -> Self {
        let mut locs: BTreeMap<LocId, Arc<DecomposedLoc>> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            let i = u32::try_from(i).expect("committed log longer than u32::MAX ops");
            let entry = locs.entry(op.loc).or_insert_with(|| {
                Arc::new(DecomposedLoc {
                    class: op.class.clone(),
                    ops: Vec::new(),
                    has_whole: false,
                    per_key: BTreeMap::new(),
                })
            });
            let entry = Arc::get_mut(entry).expect("entries are unshared while building");
            entry.ops.push(i);
            let accessed = op.footprint.accessed();
            match accessed {
                CellSet::All => entry.has_whole = true,
                CellSet::One(_) | CellSet::Keys(_) => {
                    for k in accessed.iter() {
                        entry.per_key.entry(k.clone()).or_default().push(i);
                    }
                }
                CellSet::Empty => {}
            }
        }
        DecomposedLog { locs }
    }

    /// The footprint fingerprint of the indexed locations — one insert
    /// per distinct location, not per operation.
    fn fingerprint(&self) -> Fingerprint {
        let mut fingerprint = Fingerprint::empty();
        for (loc, dl) in &self.locs {
            fingerprint.insert(*loc, &dl.class);
        }
        fingerprint
    }
}

/// One committed transaction log together with its per-location index.
///
/// The index is computed exactly once, in [`CommittedLog::new`]; every
/// later conflict query against this log — from any concurrent
/// transaction, at any clock — reuses it, and so does every per-shard
/// view cut from it by [`CommittedLog::restrict`].
#[derive(Debug, Clone)]
pub struct CommittedLog {
    /// The whole log's operations, shared by every view of it.
    ops: Arc<[Op]>,
    index: DecomposedLog,
    fingerprint: Fingerprint,
    /// Operations the index names (all of `ops` unless this is a view).
    len: usize,
}

impl CommittedLog {
    /// Wraps a log, decomposing it once. The footprint fingerprint is
    /// derived from the finished index.
    pub fn new(ops: Vec<Op>) -> Self {
        let index = DecomposedLog::build(&ops);
        let fingerprint = index.fingerprint();
        CommittedLog {
            len: ops.len(),
            ops: ops.into(),
            index,
            fingerprint,
        }
    }

    /// The view of this log restricted to the locations `keep` accepts:
    /// it shares the operations and the kept index entries, so nothing
    /// is cloned or decomposed again. Its fingerprint, `len` and
    /// [`own_ops`](CommittedLog::own_ops) cover the kept locations only.
    pub fn restrict(&self, mut keep: impl FnMut(LocId) -> bool) -> Self {
        let index = DecomposedLog {
            locs: self
                .index
                .locs
                .iter()
                .filter(|(loc, _)| keep(**loc))
                .map(|(loc, dl)| (*loc, Arc::clone(dl)))
                .collect(),
        };
        CommittedLog {
            ops: Arc::clone(&self.ops),
            len: index.locs.values().map(|dl| dl.ops.len()).sum(),
            fingerprint: index.fingerprint(),
            index,
        }
    }

    /// The log's footprint fingerprint, computed once at construction.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// The operations of the whole log, in log order. A
    /// [`restrict`](CommittedLog::restrict)ed view shares its parent's
    /// slice; its own operations are the ones its index names.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// This log's (or view's) own operations, in log order.
    pub fn own_ops(&self) -> impl Iterator<Item = &Op> {
        let whole = self.len == self.ops.len();
        self.ops
            .iter()
            .filter(move |op| whole || self.index.locs.contains_key(&op.loc))
    }

    /// The per-location index.
    pub fn index(&self) -> &DecomposedLog {
        &self.index
    }

    /// The index entry for one location, if the log touches it.
    pub fn loc(&self, loc: LocId) -> Option<&DecomposedLoc> {
        self.index.locs.get(&loc).map(|dl| &**dl)
    }

    /// Number of own operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log has no own operations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resolves an index subsequence to operation references.
    pub fn resolve<'a>(&'a self, indices: &[u32], out: &mut Vec<&'a Op>) {
        out.extend(indices.iter().map(|&i| &self.ops[i as usize]));
    }
}

impl From<Vec<Op>> for CommittedLog {
    fn from(ops: Vec<Op>) -> Self {
        CommittedLog::new(ops)
    }
}

/// A zero-copy window over committed history: a borrowed run of shared
/// segments, in commit order. Constructing one never clones an [`Op`];
/// consumers that need to outlive the borrow clone the `Arc`s.
#[derive(Debug, Clone, Copy)]
pub struct HistoryWindow<'a> {
    segments: &'a [Arc<CommittedLog>],
}

impl<'a> HistoryWindow<'a> {
    /// A window over the given segments.
    pub fn new(segments: &'a [Arc<CommittedLog>]) -> Self {
        HistoryWindow { segments }
    }

    /// The empty window.
    pub fn empty() -> Self {
        HistoryWindow { segments: &[] }
    }

    /// The segments, in commit order.
    pub fn segments(&self) -> &'a [Arc<CommittedLog>] {
        self.segments
    }

    /// Whether the window holds no operations.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpKind, ScalarOp};
    use janus_relational::{tuple, Fd, Formula, RelOp, Relation, Scalar, Schema, Value};

    fn scalar_op(loc: u64, kind: ScalarOp, v: &mut Value) -> Op {
        Op::execute(
            LocId(loc),
            ClassId::new(format!("c{loc}")),
            OpKind::Scalar(kind),
            v,
        )
        .0
    }

    #[test]
    fn index_matches_reference_decomposition() {
        let mut a = Value::int(0);
        let mut b = Value::int(0);
        let ops = vec![
            scalar_op(1, ScalarOp::Add(1), &mut a),
            scalar_op(2, ScalarOp::Write(Scalar::Int(5)), &mut b),
            scalar_op(1, ScalarOp::Add(-1), &mut a),
        ];
        let reference: Vec<_> = crate::decompose(ops.iter())
            .into_iter()
            .map(|(loc, h)| {
                let kinds: Vec<_> = h.ops.iter().map(|op| op.kind.clone()).collect();
                (loc, kinds, h.has_whole)
            })
            .collect();
        let log = CommittedLog::new(ops);
        assert_eq!(log.index().locs.len(), reference.len());
        for (loc, kinds, has_whole) in &reference {
            let dl = log.loc(*loc).expect("location indexed");
            assert_eq!(dl.ops.len(), kinds.len());
            assert_eq!(dl.has_whole, *has_whole);
            let mut resolved = Vec::new();
            log.resolve(&dl.ops, &mut resolved);
            for (got, want) in resolved.iter().zip(kinds) {
                assert_eq!(&got.kind, want);
            }
        }
    }

    #[test]
    fn relational_per_key_index() {
        let schema = Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]));
        let mut v = Value::Rel(Relation::empty(schema));
        let (l, c) = (LocId(7), ClassId::new("map"));
        let mut ops = Vec::new();
        for kind in [
            OpKind::Rel(RelOp::insert(tuple![1, 10])),
            OpKind::Rel(RelOp::insert(tuple![2, 20])),
            OpKind::Rel(RelOp::select(Formula::eq(0, 1i64))),
        ] {
            ops.push(Op::execute(l, c.clone(), kind, &mut v).0);
        }
        let log = CommittedLog::new(ops);
        let dl = log.loc(l).expect("indexed");
        assert!(!dl.has_whole);
        assert_eq!(dl.per_key.len(), 2);
        assert_eq!(dl.per_key[&Key::scalar(1i64)], vec![0, 2]);
    }

    /// A log over three scalar locations and one keyed relation,
    /// interleaved so every location's ops are scattered through it.
    fn mixed_log() -> Vec<Op> {
        let schema = Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]));
        let mut rel = Value::Rel(Relation::empty(schema));
        let mut scalars = [Value::int(0), Value::int(0), Value::int(0)];
        let map = ClassId::new("map");
        let mut ops = Vec::new();
        for i in 0..12i64 {
            let s = (i % 3) as usize;
            ops.push(scalar_op(s as u64, ScalarOp::Add(i), &mut scalars[s]));
            let kind = match i % 4 {
                0 | 1 => RelOp::insert(tuple![i % 5, i]),
                2 => RelOp::remove(tuple![i % 5, i - 1]),
                _ => RelOp::select(Formula::eq(0, i % 5)),
            };
            ops.push(Op::execute(LocId(9), map.clone(), OpKind::Rel(kind), &mut rel).0);
        }
        ops
    }

    #[test]
    fn restrict_is_a_view_equal_to_decomposing_the_filtered_ops() {
        let ops = mixed_log();
        let log = CommittedLog::new(ops.clone());
        for keep in [
            &(|l: LocId| l.0 == 9) as &dyn Fn(LocId) -> bool,
            &|l: LocId| l.0.is_multiple_of(2),
            &|l: LocId| l.0 != 1,
            &|_| true,
            &|_| false,
        ] {
            let view = log.restrict(keep);
            let filtered: Vec<Op> = ops.iter().filter(|op| keep(op.loc)).cloned().collect();
            let fresh = CommittedLog::new(filtered.clone());
            assert!(Arc::ptr_eq(&view.ops, &log.ops), "the view shares the ops");
            assert_eq!(view.fingerprint(), fresh.fingerprint());
            assert_eq!(view.len(), filtered.len());
            assert_eq!(view.is_empty(), filtered.is_empty());
            assert_eq!(view.own_ops().cloned().collect::<Vec<_>>(), filtered);
            assert_eq!(
                view.index().locs.keys().collect::<Vec<_>>(),
                fresh.index().locs.keys().collect::<Vec<_>>()
            );
            for (loc, dl) in &fresh.index().locs {
                let vl = view.loc(*loc).expect("kept location indexed");
                assert!(Arc::ptr_eq(&view.index().locs[loc], &log.index().locs[loc]));
                assert_eq!((vl.has_whole, &vl.class), (dl.has_whole, &dl.class));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                view.resolve(&vl.ops, &mut got);
                fresh.resolve(&dl.ops, &mut want);
                assert_eq!(got, want, "{loc:?}: same ops in the same order");
                assert_eq!(
                    vl.per_key.keys().collect::<Vec<_>>(),
                    dl.per_key.keys().collect::<Vec<_>>()
                );
                for (key, idxs) in &dl.per_key {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    view.resolve(&vl.per_key[key], &mut got);
                    fresh.resolve(idxs, &mut want);
                    assert_eq!(got, want, "{loc:?}/{key:?}");
                }
            }
        }
        // A view of a view still shares the original slice.
        let inner = log.restrict(|l| l.0 != 0).restrict(|l| l.0 != 9);
        assert!(Arc::ptr_eq(&inner.ops, &log.ops));
        assert_eq!(inner.len(), 8);
    }

    #[test]
    fn window_over_segments() {
        let mut v = Value::int(0);
        let seg = |n: u64, v: &mut Value| {
            Arc::new(CommittedLog::new(vec![
                scalar_op(n, ScalarOp::Add(1), v),
                scalar_op(n, ScalarOp::Add(-1), v),
            ]))
        };
        let segments = vec![seg(1, &mut v), seg(2, &mut v)];
        let w = HistoryWindow::new(&segments);
        assert!(!w.is_empty());
        assert_eq!(w.segments().len(), 2);
        assert!(HistoryWindow::empty().is_empty());
    }

    #[test]
    fn empty_log() {
        let log = CommittedLog::new(Vec::new());
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert!(log.index().locs.is_empty());
        assert!(log.fingerprint().is_empty());
    }

    #[test]
    fn fingerprint_reflects_footprint_overlap() {
        let mut a = Value::int(0);
        let mut b = Value::int(0);
        let on_one = CommittedLog::new(vec![scalar_op(1, ScalarOp::Add(1), &mut a)]);
        let on_two = CommittedLog::new(vec![scalar_op(2, ScalarOp::Add(1), &mut b)]);
        let on_both = CommittedLog::new(vec![
            scalar_op(1, ScalarOp::Add(1), &mut a),
            scalar_op(2, ScalarOp::Add(1), &mut b),
        ]);
        // A shared location always intersects (no false negatives).
        assert!(on_one.fingerprint().may_intersect(on_both.fingerprint()));
        assert!(on_two.fingerprint().may_intersect(on_both.fingerprint()));
        assert!(on_one.fingerprint().may_intersect(on_one.fingerprint()));
        // These two particular singletons happen to be bit-disjoint.
        assert!(!on_one.fingerprint().may_intersect(on_two.fingerprint()));
    }

    #[test]
    fn fingerprint_insert_is_monotone_and_sound() {
        // Whatever else is inserted around it, a shared member keeps the
        // pair intersecting — the Bloom filter never un-sets a bit.
        let mut fp_a = Fingerprint::empty();
        let mut fp_b = Fingerprint::empty();
        let shared = ClassId::new("shared");
        fp_a.insert(LocId(77), &shared);
        fp_b.insert(LocId(77), &shared);
        for i in 0..300u64 {
            fp_a.insert(LocId(i * 2 + 1000), &ClassId::new(format!("a{i}")));
            fp_b.insert(LocId(i * 2 + 5001), &ClassId::new(format!("b{i}")));
            assert!(fp_a.may_intersect(&fp_b), "insert #{i} broke soundness");
        }
    }

    #[test]
    fn saturated_fingerprint_intersects_everything() {
        let sat = Fingerprint::saturated();
        assert!(sat.is_saturated());
        let mut v = Value::int(0);
        let log = CommittedLog::new(vec![scalar_op(9, ScalarOp::Add(1), &mut v)]);
        // Saturation = scan-everything: any non-empty footprint passes.
        assert!(sat.may_intersect(log.fingerprint()));
        assert!(log.fingerprint().may_intersect(&sat));
        assert!(sat.may_intersect(&sat));
        // ... except the empty footprint, which cannot conflict with
        // anything and is always skippable.
        assert!(!sat.may_intersect(&Fingerprint::empty()));
        assert!(!Fingerprint::empty().may_intersect(&sat));
    }
}
