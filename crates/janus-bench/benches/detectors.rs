//! Microbenchmark: per-query conflict-detection cost.
//!
//! Validates the paper's central performance claim (§3): sequence-based
//! detection through the trained cache costs about the same per conflict
//! query as the write-set check, while the *online* sequence check is
//! markedly more expensive (which is why it is not the production mode).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use janus_detect::{
    CachedSequenceDetector, ConflictDetector, MapState, SequenceDetector, WriteSetDetector,
};
use janus_log::{ClassId, LocId, Op, OpKind, ScalarOp};
use janus_relational::Value;
use janus_train::{train, TrainConfig, TrainingRun};

/// Builds a balanced add/sub log of the given length over one location.
fn identity_log(len: usize) -> Vec<Op> {
    let mut v = Value::int(0);
    let mut out = Vec::with_capacity(len);
    for i in 0..(len / 2) {
        let d = i as i64 + 1;
        for delta in [d, -d] {
            out.push(
                Op::execute(
                    LocId(0),
                    ClassId::new("work"),
                    OpKind::Scalar(ScalarOp::Add(delta)),
                    &mut v,
                )
                .0,
            );
        }
    }
    out
}

fn trained_cache() -> janus_train::FrozenCache {
    let mut initial = MapState::default();
    initial.0.insert(LocId(0), Value::int(0));
    let run = TrainingRun {
        initial,
        task_logs: vec![identity_log(4), identity_log(8)],
    };
    train(&[run], TrainConfig::default()).0.freeze()
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect_query");
    let mut entry = MapState::default();
    entry.0.insert(LocId(0), Value::int(0));

    for len in [2usize, 8, 32, 128] {
        let txn = identity_log(len);
        let committed = identity_log(len);

        let ws = WriteSetDetector::new();
        group.bench_with_input(BenchmarkId::new("write-set", len), &len, |b, _| {
            b.iter(|| ws.detect_ops(&entry, &txn, &committed))
        });

        let online = SequenceDetector::new();
        group.bench_with_input(BenchmarkId::new("sequence-online", len), &len, |b, _| {
            b.iter(|| online.detect_ops(&entry, &txn, &committed))
        });

        let cached = CachedSequenceDetector::new(trained_cache());
        group.bench_with_input(BenchmarkId::new("sequence-cached", len), &len, |b, _| {
            b.iter(|| cached.detect_ops(&entry, &txn, &committed))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .plotting_backend(criterion::PlottingBackend::None)
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_detectors
}
criterion_main!(benches);
