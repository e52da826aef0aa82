//! Crash-recovery properties of the commit journal.
//!
//! For any random stream of commits, any fsync policy and any crash
//! point, recovery must rebuild exactly the durable prefix of the
//! committed sequence:
//!
//! * the recovered `commit_seq` equals what the crash-site semantics
//!   promise — everything fsynced survives, a mid-write kill tears only
//!   the record being written (earlier buffered records ride along,
//!   modeling page-cache survival), and a pre-append kill loses the
//!   whole unsynced group-commit window;
//! * the recovered store equals a sequential replay of exactly the
//!   commits at or below that watermark — a torn tail never resurrects
//!   an unfsynced commit;
//! * recovery is idempotent: the tail truncation is physical, so a
//!   second recovery sees a whole journal and reports zero truncations.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use janus::core::{CommitSink as _, Janus, PanicPolicy, Store, Task, TxView};
use janus::detect::SequenceDetector;
use janus::fault::{silence_injected_panics, CrashSite, FaultKind, FaultPlan, FaultSite};
use janus::log::{LocId, Op};
use janus::relational::Value;
use janus::wal::{recover, FsyncPolicy, Wal};
use proptest::prelude::*;

const LOCS: usize = 4;

/// One journaled commit: the `(location index, delta)` adds it made.
type Action = Vec<(usize, i64)>;

/// A fresh scratch directory per proptest case, inside the cargo target
/// tree (the tests never write outside the repo checkout).
fn scratch() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("wal-prop-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The base store every "boot" reconstructs before replaying.
fn base_store() -> (Store, Vec<LocId>) {
    let mut store = Store::new();
    let locs = (0..LOCS)
        .map(|i| store.alloc(format!("l{i}").as_str(), Value::int(0)))
        .collect();
    (store, locs)
}

/// Harvests the op log of one committed action.
fn ops_for(store: &Store, locs: &[LocId], accesses: &[(usize, i64)]) -> Vec<Op> {
    let mut tx: TxView = store.begin();
    for &(i, d) in accesses {
        tx.add(locs[i], d);
    }
    tx.into_log()
}

/// Waits until the journal thread has taken ticket `seq` (or died), so
/// the next record starts a turn of its own and the fsync policy sees
/// one record at a time.
fn settle(wal: &Wal, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while wal.buffered_seq() < seq && !wal.is_dead() {
        assert!(
            Instant::now() < deadline,
            "journal thread never took ticket {seq}"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// What the crash-site semantics promise recovery will see: the durable
/// watermark and whether the tail is torn. `k` is the crashed global
/// sequence, fed strictly in order, one record per journal turn.
fn durable_prefix(policy: FsyncPolicy, site: CrashSite, k: u64) -> (u64, u64) {
    match site {
        // The record never exists; the whole unsynced window is lost.
        CrashSite::PreAppend => {
            let synced = match policy {
                FsyncPolicy::EveryN(n) => (k - 1) / n * n,
                FsyncPolicy::IntervalMs(_) => unreachable!("not exercised here"),
            };
            (synced, 0)
        }
        // A strict prefix reaches the file: earlier buffered records
        // ride along un-torn, record `k` is cut in half.
        CrashSite::PostAppendPreFsync => (k - 1, 1),
        // Everything through `k` is flushed and fsynced before death.
        CrashSite::PostFsync => (k, 0),
    }
}

/// Feeds the workload through a journal (with the crash point armed),
/// recovers twice, and checks the watermark, the store, the torn-tail
/// accounting and idempotence.
fn check_recovery(actions: &[Action], policy: FsyncPolicy, crash: Option<(u64, CrashSite)>) {
    let dir = scratch();
    let (store, locs) = base_store();

    let plan = crash.map(|(seq, site)| {
        Arc::new(FaultPlan::from_sites(vec![FaultSite {
            kind: FaultKind::CrashPoint,
            subject: seq,
            attempt: site.attempt(),
        }]))
    });
    let wal = Wal::open_with_faults(&dir, policy, 0, plan).expect("open");
    let sink = wal.sink();

    // Feed strictly in ticket order, one record per journal turn, evolving
    // a shadow store so each op log is harvested against the state it
    // would really see.
    let mut shadow = store.clone();
    let mut logs: Vec<Vec<Op>> = Vec::new();
    for accesses in actions {
        let seq = logs.len() as u64 + 1;
        let ops = ops_for(&shadow, &locs, accesses);
        shadow.apply_log(&ops);
        sink.committed(seq, 1, &ops);
        logs.push(ops);
        settle(&wal, seq);
    }
    let (want_seq, want_torn) = match crash {
        Some((k, site)) => {
            prop_assert!(wal.is_dead(), "the armed crash point must fire");
            prop_assert_eq!(wal.stats().crash_points(), 1);
            durable_prefix(policy, site, k)
        }
        None => {
            wal.flush().expect("flush");
            (actions.len() as u64, 0)
        }
    };
    drop(wal);

    let rec = recover(&dir, base_store().0).expect("recover");
    prop_assert_eq!(rec.commit_seq, want_seq, "durable watermark");
    prop_assert_eq!(rec.torn_tail_truncations, want_torn, "torn-tail count");
    prop_assert!(!rec.clean, "no clean marker was written");

    // The recovered store is a sequential replay of exactly the commits
    // at or below the watermark — nothing resurrected, nothing lost.
    let (mut expect, expect_locs) = base_store();
    for ops in logs.iter().take(want_seq as usize) {
        expect.apply_log(ops);
    }
    for (r, e) in locs.iter().zip(&expect_locs) {
        prop_assert_eq!(rec.store.value(*r), expect.value(*e), "recovered state");
    }

    // Double recovery is idempotent: the truncation was physical.
    let again = recover(&dir, base_store().0).expect("recover twice");
    prop_assert_eq!(again.commit_seq, want_seq);
    prop_assert_eq!(again.torn_tail_truncations, 0, "no tail left to tear");
    for (r, e) in locs.iter().zip(&expect_locs) {
        prop_assert_eq!(again.store.value(*r), expect.value(*e));
    }
}

/// Order-dependent tasks, one per id: task `i` maps location
/// `i % LOCS` from `v` to `2v + i`, so a missing, extra or reordered
/// commit changes the final state.
fn chain_tasks(locs: &[LocId], ids: impl IntoIterator<Item = u64>) -> Vec<Task> {
    ids.into_iter()
        .map(|i| {
            let loc = locs[i as usize % LOCS];
            Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(loc);
                tx.write(loc, v * 2 + i as i64);
            })
        })
        .collect()
}

/// A failed ordered task releases its turn without drawing a ticket, so
/// the journal holds exactly the commits: its sequence equals
/// `stats.commits`, recovery replays that many records, and the
/// recovered store is the sequential run of the surviving tasks in task
/// order.
#[test]
fn ordered_isolated_failures_journal_only_commits() {
    silence_injected_panics();
    const N: u64 = 32;
    let dir = scratch();
    let (store, locs) = base_store();
    let wal = Wal::open(&dir, FsyncPolicy::EveryN(4), 0).expect("open");
    let outcome = Janus::new(Arc::new(SequenceDetector::new()))
        .threads(3)
        .ordered(true)
        .panic_policy(PanicPolicy::Isolate)
        .faults(Arc::new(FaultPlan::seeded(7, 0.2)))
        .commit_sink(wal.sink())
        .run(store, chain_tasks(&locs, 1..=N));
    assert!(!outcome.failed.is_empty(), "seed 7 fails some task");
    assert_eq!(outcome.stats.commits + outcome.stats.tasks_failed, N);
    wal.flush().expect("flush");
    assert_eq!(wal.synced_seq(), outcome.stats.commits);
    drop(wal);

    let rec = recover(&dir, base_store().0).expect("recover");
    assert_eq!(rec.commit_seq, outcome.stats.commits);
    assert_eq!(rec.commits_replayed, outcome.stats.commits);
    let failed: Vec<u64> = outcome.failed.iter().map(|f| f.task).collect();
    let (seq_store, seq_locs) = base_store();
    let survivors = chain_tasks(&seq_locs, (1..=N).filter(|i| !failed.contains(i)));
    let (expect, _) = Janus::run_sequential(seq_store, &survivors);
    for (r, e) in locs.iter().zip(&seq_locs) {
        assert_eq!(rec.store.value(*r), expect.value(*e), "recovered state");
        assert_eq!(outcome.store.value(*r), expect.value(*e), "live state");
    }
}

fn policies() -> impl Strategy<Value = FsyncPolicy> {
    prop_oneof![
        Just(FsyncPolicy::EveryN(1)),
        (1u64..=5).prop_map(FsyncPolicy::EveryN),
    ]
}

fn workloads() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..LOCS, -5i64..6), 1..4),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kill the journal at every site of a random ticket under a random
    /// fsync policy: recovery rebuilds exactly the durable prefix.
    #[test]
    fn recovery_rebuilds_exactly_the_durable_prefix(
        actions in workloads(),
        policy in policies(),
        crash_at in 0u64..64,
        site_idx in 0usize..3,
    ) {
        let crash_seq = crash_at % actions.len() as u64 + 1;
        let site = CrashSite::ALL[site_idx];
        check_recovery(&actions, policy, Some((crash_seq, site)));
    }

    /// No crash: after an explicit flush the whole sequence is durable
    /// under every policy, and double recovery agrees.
    #[test]
    fn flushed_journal_recovers_everything(
        actions in workloads(),
        policy in policies(),
    ) {
        check_recovery(&actions, policy, None);
    }
}
