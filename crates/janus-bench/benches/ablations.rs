//! Ablation benchmarks for the design decisions called out in DESIGN.md.
//!
//! * **D3 — cached vs online sequence checks**: end-to-end simulated runs
//!   under the online detector vs the trained cache. The online mode
//!   re-evaluates `SAMEREAD`/`COMMUTE` per query (quadratic in sequence
//!   length); the cache answers in one summary fold.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use janus_bench::experiments::{grid_input, trained_cache};
use janus_bench::sim::simulate;
use janus_detect::{CachedSequenceDetector, ConflictDetector, SequenceDetector};
use janus_workloads::workload_by_name;

/// D3: online vs cached sequence detection on the identity-heavy
/// JFileSync workload.
fn bench_online_vs_cached(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_d3_online_vs_cached");
    let workload = workload_by_name("jfilesync").expect("workload exists");
    let w = workload.as_ref();
    let input = grid_input(w, true);

    let online: Arc<dyn ConflictDetector> =
        Arc::new(SequenceDetector::with_relaxations(w.relaxations()));
    group.bench_with_input(
        BenchmarkId::new("online", input.scale),
        &input,
        |b, input| {
            b.iter(|| {
                let scenario = w.build(input);
                simulate(scenario.store, &scenario.tasks, &online, 8, false)
            })
        },
    );

    let cached: Arc<dyn ConflictDetector> = Arc::new(CachedSequenceDetector::with_relaxations(
        trained_cache(w, true),
        w.relaxations(),
    ));
    group.bench_with_input(
        BenchmarkId::new("cached", input.scale),
        &input,
        |b, input| {
            b.iter(|| {
                let scenario = w.build(input);
                simulate(scenario.store, &scenario.tasks, &cached, 8, false)
            })
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .plotting_backend(criterion::PlottingBackend::None)
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_online_vs_cached
}
criterion_main!(benches);
