//! Journal + recovery integration tests, on real files under
//! `CARGO_TARGET_TMPDIR`.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use janus_core::{CommitSink as _, Janus, Store, Task, TxView};
use janus_detect::SequenceDetector;
use janus_fault::{CrashSite, FaultKind, FaultPlan, FaultSite};
use janus_log::{wire, LocId, Op};
use janus_relational::Value;
use janus_wal::{recover, FsyncPolicy, Wal, WalError, CLEAN_MARKER};

/// A fresh scratch directory for one test, inside the cargo target tree
/// (the tests never write outside the repo checkout).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Two int locations and the base store every "boot" reconstructs.
fn base_store() -> (Store, LocId, LocId) {
    let mut store = Store::new();
    let a = store.alloc("acct", Value::int(0));
    let b = store.alloc("acct", Value::int(100));
    (store, a, b)
}

/// Waits until the journal thread has published ticket `seq` as
/// buffered, or died: the next record then starts a turn of its own.
fn settle(wal: &Wal, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while wal.buffered_seq() < seq && !wal.is_dead() {
        assert!(
            Instant::now() < deadline,
            "journal thread never took ticket {seq}"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Harvests a task body's op log against the store's current state.
fn ops_for(store: &Store, body: impl Fn(&mut TxView)) -> Vec<Op> {
    let mut tx = store.begin();
    body(&mut tx);
    tx.into_log()
}

#[test]
fn out_of_order_appends_recover_in_ticket_order() {
    let dir = scratch("ooo");
    let (store, a, b) = base_store();
    let ops1 = ops_for(&store, |tx| tx.add(a, 7));
    let ops2 = ops_for(&store, |tx| tx.add(b, -30));

    let wal = Wal::open(&dir, FsyncPolicy::Always, 0).expect("open");
    let sink = wal.sink();
    // Disjoint-shard committers may reach the sink out of ticket order;
    // the journal reorders on its pending map.
    sink.committed(2, 1 << b.shard(64), &ops2);
    assert_eq!(wal.buffered_seq(), 0, "ticket 2 parks until 1 arrives");
    sink.committed(1, 1 << a.shard(64), &ops1);
    wal.flush().expect("flush");
    assert_eq!(wal.synced_seq(), 2);
    assert_eq!(wal.stats().appends(), 2);
    assert!(wal.stats().bytes() > 0);
    drop(wal);

    let rec = recover(&dir, base_store().0).expect("recover");
    assert_eq!(rec.commit_seq, 2);
    assert_eq!(rec.commits_replayed, 2);
    assert_eq!(rec.store.value(a), Some(&Value::int(7)));
    assert_eq!(rec.store.value(b), Some(&Value::int(70)));

    // Double recovery is idempotent.
    let again = recover(&dir, base_store().0).expect("recover twice");
    assert_eq!(again.commit_seq, 2);
    assert_eq!(again.store.value(a), Some(&Value::int(7)));
    assert_eq!(again.store.value(b), Some(&Value::int(70)));
}

#[test]
fn group_commit_buffers_until_the_batch_fills() {
    let dir = scratch("group");
    let (store, a, _b) = base_store();
    let wal = Wal::open(&dir, FsyncPolicy::EveryN(2), 0).expect("open");
    let sink = wal.sink();
    sink.committed(1, 1, &ops_for(&store, |tx| tx.add(a, 1)));
    settle(&wal, 1);
    assert_eq!(wal.buffered_seq(), 1);
    assert_eq!(wal.synced_seq(), 0, "one record sits in the batch window");
    sink.committed(2, 1, &ops_for(&store, |tx| tx.add(a, 2)));
    settle(&wal, 2);
    assert_eq!(wal.synced_seq(), 2, "the second record closes the batch");
    assert_eq!(wal.stats().fsync_batches(), 1);
    wal.mark_clean().expect("clean");
    drop(wal);

    let rec = recover(&dir, base_store().0).expect("recover");
    assert!(rec.clean, "the marker vouched for the tail");
    assert_eq!(rec.commit_seq, 2);
    assert_eq!(rec.store.value(a), Some(&Value::int(3)));
}

#[test]
fn interval_policy_flushes_from_the_background_thread() {
    let dir = scratch("interval");
    let (store, a, _b) = base_store();
    let wal = Wal::open(&dir, FsyncPolicy::IntervalMs(5), 0).expect("open");
    wal.sink()
        .committed(1, 1, &ops_for(&store, |tx| tx.add(a, 4)));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while wal.synced_seq() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the journal thread never synced the record"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    drop(wal); // joins the journal thread
    let rec = recover(&dir, base_store().0).expect("recover");
    assert_eq!(rec.store.value(a), Some(&Value::int(4)));
}

#[test]
fn crash_sites_lose_exactly_the_undurable_suffix() {
    // One crash point per durability boundary, always killing ticket 2
    // under `always` fsync, one record per journal turn: the recovered
    // prefix is exactly what the site semantics promise.
    for (site, expect_seq) in [
        (CrashSite::PreAppend, 1),          // record 2 never existed
        (CrashSite::PostAppendPreFsync, 1), // record 2 torn, truncated
        (CrashSite::PostFsync, 2),          // record 2 durable
    ] {
        let dir = scratch(&format!("crash-{}", site.label()));
        let (store, a, _b) = base_store();
        let plan = Arc::new(FaultPlan::from_sites(vec![FaultSite {
            kind: FaultKind::CrashPoint,
            subject: 2,
            attempt: site.attempt(),
        }]));
        let wal = Wal::open_with_faults(&dir, FsyncPolicy::Always, 0, Some(plan)).expect("open");
        let sink = wal.sink();
        sink.committed(1, 1, &ops_for(&store, |tx| tx.add(a, 1)));
        settle(&wal, 1);
        sink.committed(2, 1, &ops_for(&store, |tx| tx.add(a, 2)));
        settle(&wal, 2);
        assert!(wal.is_dead(), "site {} kills the journal", site.label());
        // Post-crash traffic must vanish, like writes of a dead process.
        sink.committed(3, 1, &ops_for(&store, |tx| tx.add(a, 4)));
        assert_eq!(wal.stats().crash_points(), 1);
        drop(wal);

        let rec = recover(&dir, base_store().0).expect("recover");
        assert_eq!(rec.commit_seq, expect_seq, "site {}", site.label());
        let want = (1..=expect_seq).map(|s| 1i64 << (s - 1)).sum::<i64>();
        assert_eq!(rec.store.value(a), Some(&Value::int(want)));
        assert_eq!(
            rec.torn_tail_truncations,
            u64::from(site == CrashSite::PostAppendPreFsync),
            "only the mid-write kill tears the tail"
        );
        assert!(!rec.clean, "a crashed journal never marks clean");

        // The torn tail, once truncated, stays recovered-identical.
        let again = recover(&dir, base_store().0).expect("recover twice");
        assert_eq!(again.commit_seq, expect_seq);
        assert_eq!(again.torn_tail_truncations, 0, "truncation is physical");
    }
}

#[test]
fn group_commit_crash_loses_the_whole_buffered_window() {
    // Under every-n:10 nothing is synced; a pre-append kill at ticket 3
    // loses the *userspace* buffer too — records 1 and 2 were never
    // written anywhere.
    let dir = scratch("crash-window");
    let (store, a, _b) = base_store();
    let plan = Arc::new(FaultPlan::from_sites(vec![FaultSite {
        kind: FaultKind::CrashPoint,
        subject: 3,
        attempt: CrashSite::PreAppend.attempt(),
    }]));
    let wal = Wal::open_with_faults(&dir, FsyncPolicy::EveryN(10), 0, Some(plan)).expect("open");
    let sink = wal.sink();
    for seq in 1..=3 {
        sink.committed(seq, 1, &ops_for(&store, |tx| tx.add(a, 1)));
    }
    drop(wal);
    let rec = recover(&dir, base_store().0).expect("recover");
    assert_eq!(rec.commit_seq, 0, "the unflushed window is gone");
    assert_eq!(rec.store.value(a), Some(&Value::int(0)));
}

#[test]
fn snapshot_truncates_segments_and_dedupes_replay() {
    let dir = scratch("snapshot");
    let (store, a, b) = base_store();
    let wal = Wal::open(&dir, FsyncPolicy::Always, 0).expect("open");
    let sink = wal.sink();
    let mut expected = store.clone();
    for seq in 1..=4 {
        let ops = ops_for(&expected, |tx| {
            tx.add(a, 10);
            tx.add(b, -10);
        });
        expected.apply_log(&ops);
        sink.committed(seq, 0b11, &ops);
    }
    let watermark = wal.snapshot_and_truncate(&expected).expect("snapshot");
    assert_eq!(watermark, 4);
    let names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("snap-")),
        "snapshot file exists: {names:?}"
    );
    assert!(
        !names.contains(&janus_wal::segment_name(1)),
        "the pre-snapshot segment is truncated away: {names:?}"
    );
    assert!(
        names.contains(&janus_wal::segment_name(5)),
        "a fresh segment starts above the watermark: {names:?}"
    );

    // One more commit past the snapshot, then recover.
    let ops = ops_for(&expected, |tx| tx.add(a, 1));
    expected.apply_log(&ops);
    sink.committed(5, 0b1, &ops);
    wal.flush().expect("flush");
    drop(wal);

    let rec = recover(&dir, base_store().0).expect("recover");
    assert_eq!(rec.snapshot_seq, Some(4));
    assert_eq!(rec.commit_seq, 5);
    assert_eq!(
        rec.commits_replayed, 1,
        "only the post-snapshot record replays"
    );
    assert_eq!(rec.store.value(a), Some(&Value::int(41)));
    assert_eq!(rec.store.value(b), Some(&Value::int(60)));
    assert_eq!(
        rec.store.alloc_count(),
        expected.alloc_count(),
        "the allocation counter survives the snapshot"
    );
}

#[test]
fn corrupt_mid_log_record_fails_loudly_with_both_hashes() {
    let dir = scratch("corrupt");
    let (store, a, _b) = base_store();
    let wal = Wal::open(&dir, FsyncPolicy::Always, 0).expect("open");
    let sink = wal.sink();
    for seq in 1..=3 {
        sink.committed(seq, 1, &ops_for(&store, |tx| tx.add(a, 1)));
    }
    wal.flush().expect("flush");
    drop(wal);

    // Flip one payload byte in the *first* record: damage ahead of the
    // tail is corruption, not a torn write, even without a clean marker.
    let seg = dir.join(janus_wal::segment_name(1));
    let mut bytes = fs::read(&seg).unwrap();
    bytes[16 + 4 + 2] ^= 0xff;
    fs::write(&seg, &bytes).unwrap();

    let err = recover(&dir, base_store().0).expect_err("corruption is fatal");
    match &err {
        WalError::Corrupt {
            stored, computed, ..
        } => {
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("{stored:016x}"))
                    && msg.contains(&format!("{computed:016x}")),
                "both hashes in the report: {msg}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn a_clean_marker_makes_tail_damage_fatal() {
    let dir = scratch("clean-tail");
    let (store, a, _b) = base_store();
    let wal = Wal::open(&dir, FsyncPolicy::Always, 0).expect("open");
    wal.sink()
        .committed(1, 1, &ops_for(&store, |tx| tx.add(a, 1)));
    wal.mark_clean().expect("clean");
    drop(wal);

    // Sanity: the marked journal recovers clean.
    let rec = recover(&dir, base_store().0).expect("recover");
    assert!(rec.clean);
    assert_eq!(rec.commit_seq, 1);

    // Garbage past the last record would be torn-tolerated on an
    // unclean boot; the marker promised a sound tail, so it is fatal.
    // (Recovery consumed nothing: re-mark by hand.)
    let seg = dir.join(janus_wal::segment_name(1));
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0xde, 0xad]);
    fs::write(&seg, &bytes).unwrap();
    assert!(
        dir.join(CLEAN_MARKER).exists(),
        "recover() leaves the marker in place"
    );
    let err = recover(&dir, base_store().0).expect_err("marker makes damage fatal");
    assert!(matches!(err, WalError::Truncated { .. }), "got {err:?}");

    // Without the marker the same bytes are a torn tail: truncated.
    fs::remove_file(dir.join(CLEAN_MARKER)).unwrap();
    let rec = recover(&dir, base_store().0).expect("unclean boot tolerates the tail");
    assert_eq!(rec.torn_tail_truncations, 1);
    assert_eq!(rec.commit_seq, 1);
}

#[test]
fn a_record_of_unknown_type_fails_recovery() {
    // Journals write only commit records (type 1). A valid frame of any
    // other type — such as type 2, which older journals wrote for a
    // failed ordered task's turn — is refused, not replayed.
    let dir = scratch("unknown-type");
    let (store, a, _b) = base_store();
    let wal = Wal::open(&dir, FsyncPolicy::Always, 0).expect("open");
    wal.sink()
        .committed(1, 1, &ops_for(&store, |tx| tx.add(a, 1)));
    wal.flush().expect("flush");
    drop(wal);

    let mut payload = vec![2u8];
    wire::put_u64(&mut payload, 2);
    let seg = dir.join(janus_wal::segment_name(1));
    let mut bytes = fs::read(&seg).unwrap();
    wire::put_u32(&mut bytes, payload.len() as u32);
    bytes.extend_from_slice(&payload);
    wire::put_u64(&mut bytes, wire::checksum(&payload));
    fs::write(&seg, &bytes).unwrap();

    let err = recover(&dir, base_store().0).expect_err("an unknown record type is fatal");
    assert!(matches!(err, WalError::Wire { .. }), "got {err:?}");
    assert!(err.to_string().contains("unknown record type 2"), "{err}");
}

#[test]
fn missing_dir_is_a_fresh_start() {
    let dir = scratch("fresh");
    let (store, a, _b) = base_store();
    let rec = recover(&dir, store).expect("fresh");
    assert_eq!(rec.commit_seq, 0);
    assert_eq!(rec.snapshot_seq, None);
    assert_eq!(rec.store.value(a), Some(&Value::int(0)));
}

#[test]
fn reopen_continues_the_global_sequence() {
    // Boot 1 journals 1..=2; boot 2 opens at base 2 and journals 3; the
    // final recovery stitches both segments into one dense stream.
    let dir = scratch("reopen");
    let (store, a, _b) = base_store();
    {
        let wal = Wal::open(&dir, FsyncPolicy::Always, 0).expect("boot 1");
        let sink = wal.sink();
        sink.committed(1, 1, &ops_for(&store, |tx| tx.add(a, 1)));
        sink.committed(2, 1, &ops_for(&store, |tx| tx.add(a, 2)));
        wal.flush().expect("flush");
    }
    let rec = recover(&dir, base_store().0).expect("mid recover");
    assert_eq!(rec.commit_seq, 2);
    {
        let wal = Wal::open(&dir, FsyncPolicy::Always, rec.commit_seq).expect("boot 2");
        // Session-local ticket 1 lands at global 3.
        wal.sink()
            .committed(1, 1, &ops_for(&store, |tx| tx.add(a, 4)));
        settle(&wal, 3);
        assert_eq!(wal.synced_seq(), 3);
    }
    let rec = recover(&dir, base_store().0).expect("final recover");
    assert_eq!(rec.commit_seq, 3);
    assert_eq!(rec.store.value(a), Some(&Value::int(7)));
}

#[test]
fn runtime_seam_journals_a_real_session() {
    // End to end through the CommitSink seam: a parallel run's committed
    // effects, journaled live, recover to the runtime's own final store.
    let dir = scratch("seam");
    let mut store = Store::new();
    let locs: Vec<LocId> = (0..8)
        .map(|i| store.alloc(format!("acct{i}").as_str(), Value::int(0)))
        .collect();
    let base = store.clone();

    let tasks: Vec<Task> = (0..32)
        .map(|i: usize| {
            let from = locs[i % locs.len()];
            let to = locs[(i * 7 + 3) % locs.len()];
            Task::new(move |tx: &mut TxView| {
                tx.add(from, -5);
                tx.add(to, 5);
            })
        })
        .collect();

    let wal = Wal::open(&dir, FsyncPolicy::EveryN(4), 0).expect("open");
    let outcome = Janus::new(Arc::new(SequenceDetector::new()))
        .threads(4)
        .commit_sink(wal.sink())
        .run(store, tasks);
    assert_eq!(outcome.stats.commits, 32);
    wal.flush().expect("flush");
    assert_eq!(wal.synced_seq(), 32);
    drop(wal);

    let rec = recover(&dir, base).expect("recover");
    assert_eq!(rec.commit_seq, 32);
    assert_eq!(rec.commits_replayed, 32);
    let mut total = 0i64;
    for &loc in &locs {
        let got = rec.store.value(loc);
        assert_eq!(got, outcome.store.value(loc), "loc {loc} diverged");
        total += got.and_then(Value::as_int).unwrap();
    }
    assert_eq!(total, 0, "transfers conserve the balance through replay");
}

#[test]
fn concurrent_submitters_and_barriers_recover_the_sequential_replay() {
    // Four threads hand tickets 1..=N to the sink out of order while a
    // fifth loops on the barrier: the journal reorders across turns, and
    // the final barrier makes the whole dense sequence durable.
    const N: u64 = 400;
    let dir = scratch("concurrent");
    let (store, a, b) = base_store();
    let logs: Vec<Vec<Op>> = (1..=N as i64)
        .map(|s| {
            ops_for(&store, |tx| {
                tx.add(a, s);
                tx.add(b, -s);
            })
        })
        .collect();
    let wal = Wal::open(&dir, FsyncPolicy::EveryN(8), 0).expect("open");
    let submitting = std::sync::atomic::AtomicBool::new(true);
    // All five threads start together, so barriers land mid-stream.
    let start = std::sync::Barrier::new(5);
    std::thread::scope(|scope| {
        let (wal, logs, submitting, start) = (&wal, &logs, &submitting, &start);
        let flusher = scope.spawn(move || {
            start.wait();
            loop {
                wal.flush().expect("flush");
                if !submitting.load(std::sync::atomic::Ordering::Acquire) {
                    break;
                }
            }
        });
        let submitters: Vec<_> = (0..4u64)
            .map(|t| {
                let sink = wal.sink();
                scope.spawn(move || {
                    // Thread t owns tickets t+1, t+5, …, and hands them
                    // over in descending runs of four.
                    let mine: Vec<u64> = (1..=N).filter(|s| (s - 1) % 4 == t).collect();
                    start.wait();
                    for run in mine.chunks(4) {
                        for &s in run.iter().rev() {
                            sink.committed(s, 0b11, &logs[s as usize - 1]);
                        }
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().expect("submitter");
        }
        submitting.store(false, std::sync::atomic::Ordering::Release);
        flusher.join().expect("flusher");
    });
    wal.flush().expect("final flush");
    assert_eq!(wal.synced_seq(), N);
    drop(wal);

    let rec = recover(&dir, base_store().0).expect("recover");
    assert_eq!(rec.commit_seq, N);
    let mut expect = base_store().0;
    for ops in &logs {
        expect.apply_log(ops);
    }
    assert_eq!(rec.commits_replayed, N);
    assert_eq!(rec.store.value(a), expect.value(a));
    assert_eq!(rec.store.value(b), expect.value(b));
}

#[test]
fn a_burst_under_group_commit_fsyncs_at_most_once_per_n_records() {
    // However the burst splits into turns, a turn fsyncs only once eight
    // records are unsynced, and the barrier adds at most one more.
    const N: u64 = 1000;
    let dir = scratch("burst");
    let (store, a, _b) = base_store();
    let ops = ops_for(&store, |tx| tx.add(a, 1));
    let wal = Wal::open(&dir, FsyncPolicy::EveryN(8), 0).expect("open");
    let sink = wal.sink();
    for s in 1..=N {
        sink.committed(s, 1, &ops);
    }
    wal.flush().expect("flush");
    let stats = wal.stats();
    assert!(
        stats.fsync_batches() <= N / 8 + 1,
        "{} fsyncs for {N} records",
        stats.fsync_batches()
    );
    assert!(stats.turns() >= 1);
    assert!((1..=N).contains(&stats.turn_records_max()));
    assert_eq!(wal.synced_seq(), N);
    drop(wal);

    let rec = recover(&dir, base_store().0).expect("recover");
    assert_eq!(rec.commit_seq, N);
    assert_eq!(rec.store.value(a), Some(&Value::int(N as i64)));
}
