//! The in-process half of the benchmark on tiny inputs: the replica and
//! the loops commit what they were sent, the wrappers see every layer
//! they should and none they should not. (The subprocess half needs the
//! built `janus-serve`; `bench run --all --smoke` covers it.)

use std::time::Duration;

use janus_benchmark::gen::generate;
use janus_benchmark::loops;
use janus_benchmark::replica::run_replica;
use janus_benchmark::report::Tally;
use janus_benchmark::serve::SERVE_WORKLOADS;
use janus_benchmark::trace::{self, Name};

/// One test, because the span registry is process-wide.
#[test]
fn traced_and_plain_runs_agree_with_the_books() {
    let brief = Duration::from_millis(200);
    // Under benchmark/out, which git ignores.
    let scratch = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("out/test-{}", std::process::id()));

    for workload in SERVE_WORKLOADS {
        let stream = generate(workload.profile, 5, 32);
        for traced in [false, true] {
            let wal_dir = workload
                .wal
                .then(|| scratch.join(format!("{}-{traced}", workload.name)));
            let mut tally = Tally::default();
            drop(trace::take());
            let run = run_replica(&stream, wal_dir.as_deref(), brief, traced, &mut tally).unwrap();
            assert!(tally.correct(), "{}: {:?}", workload.name, tally.notes);
            assert!(run.totals.commits > 0 && run.totals.commits.is_multiple_of(256));
            assert_eq!(run.wal.is_some(), workload.wal);

            let ledger = trace::take().ledger();
            let attempts = ledger.row(Name::CoreExecute).count;
            if traced {
                assert!(attempts >= run.totals.commits);
                assert!(ledger.row(Name::DetectBegin).count >= run.totals.commits);
                assert_eq!(ledger.row(Name::BlockSubmit).count, run.totals.blocks);
                assert_eq!(
                    ledger.row(Name::WalAppend).count,
                    if workload.wal { run.totals.commits } else { 0 }
                );
                assert_eq!(ledger.row(Name::WalRecover).count, u64::from(workload.wal));
                assert_eq!(ledger.row(Name::TrainQuery).count, 0);
                assert_eq!(ledger.row(Name::SchedDispatch).count, 0);
                assert!(!run.logs.is_empty());
            } else {
                assert_eq!(attempts, 0, "the plain run records no spans");
                assert!(run.logs.is_empty());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let setup = loops::set_up(9, true);
    assert_eq!(setup.loops.len(), loops::LOOP_NAMES.len());
    for traced in [false, true] {
        let mut tally = Tally::default();
        drop(trace::take());
        let runs = loops::run_all(&setup, brief, traced, &mut tally);
        assert!(tally.correct(), "{:?}", tally.notes);
        assert!(loops::txn_per_s(&runs) > 0.0);
        let ledger = trace::take().ledger();
        if traced {
            let commits: u64 = runs.iter().map(|r| r.commits).sum();
            let reps: usize = runs.iter().map(|r| r.par_wall_s.len()).sum();
            assert!(ledger.row(Name::CoreExecute).count >= commits);
            assert_eq!(ledger.row(Name::CoreRun).count, reps as u64);
            assert!(ledger.row(Name::SchedDispatch).count >= commits);
            assert!(ledger.row(Name::TrainQuery).count > 0);
            assert_eq!(ledger.row(Name::BlockSubmit).count, 0);
            assert_eq!(ledger.row(Name::WalAppend).count, 0);
        } else {
            assert!(loops::loop_speedup(&runs) > 0.0);
            assert_eq!(ledger.row(Name::CoreExecute).count, 0);
        }
    }
}
