//! The in-process replica of `janus-serve`: the library composed exactly
//! as the binary's `consume` composes it — `AdmissionQueue` →
//! `BlockExecutor::submit`/`drain` → optional `Wal::sink()` — fed the
//! same generated rounds by the same closed loop, minus pipes, parsing
//! and reply formatting. Run untraced it is the base line the protocol
//! cost is measured against; run traced, through the wrappers of
//! [`crate::seams`], it yields the layer ledger.

use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use janus_block::{
    Admission, AdmissionQueue, BlockExecutor, BlockOutcome, BlockStatus, PipelineMode, ServeStats,
};
use janus_core::{CommitSink, Janus, PanicPolicy, ShardReport, Store, Task};
use janus_detect::{ConflictDetector, SequenceDetector};
use janus_log::{LocId, Op};
use janus_obs::MetricsRegistry;
use janus_relational::Value;
use janus_wal::{recover, FsyncPolicy, Wal};

use crate::drive::{drive, Samples, Sent, Target};
use crate::gen::{Item, Stream, BATCHES_PER_ROUND, ITEMS_PER_BATCH, TXNS_PER_ROUND};
use crate::report::Tally;
use crate::seams::{traced_task, TracedDetector, TracedSink};
use crate::serve::{WAL_FSYNC, WARMUP_ROUNDS};
use crate::trace::{span, Name};

/// Worker threads (`--threads`), store shards (`--shards`) and admission
/// capacity (`--max-inflight`): the flags the subprocess is given.
const THREADS: usize = 2;
const SHARDS: usize = 8;
const MAX_INFLIGHT: usize = 32;

/// What the consumer is handed, as in `janus-serve`.
enum Cmd {
    Block(Vec<Task>),
    Drain,
    Quit,
}

/// Totals over every retired block.
#[derive(Debug, Default, Clone, Copy)]
pub struct BlockTotals {
    /// Blocks retired.
    pub blocks: u64,
    /// Blocks with `status=failed`.
    pub failed: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Sum of block wall times (dispatch to completion), ns.
    pub wall_ns: u64,
    /// Operations handed to per-cell conflict checks.
    pub ops_scanned: u64,
    /// History segments dismissed by the fingerprint prefilter.
    pub segments_skipped: u64,
    /// History segments that went through per-location checks.
    pub segments_scanned: u64,
}

impl BlockTotals {
    fn note(&mut self, retired: Vec<BlockOutcome>) {
        for outcome in retired {
            self.blocks += 1;
            self.failed += u64::from(outcome.status == BlockStatus::Failed);
            self.wall_ns += outcome.latency.as_nanos() as u64;
            if let Some(batch) = &outcome.batch {
                self.commits += batch.stats.commits;
                self.ops_scanned += batch.stats.detect_ops_scanned;
                self.segments_skipped += batch.stats.fastpath_segments_skipped;
                self.segments_scanned += batch.stats.fastpath_segments_scanned;
            }
        }
    }
}

/// What the consumer thread returns when it is told to quit.
struct Consumed {
    store: Store,
    shards: ShardReport,
    totals: BlockTotals,
}

/// `janus-serve`'s `consume`, without the reply formatting.
fn consume(
    mut exec: BlockExecutor,
    queue: Arc<AdmissionQueue<Cmd>>,
    wal: Option<Arc<Wal>>,
    acks: mpsc::Sender<u64>,
    traced: bool,
) -> Consumed {
    let stats = Arc::clone(queue.stats());
    let mut totals = BlockTotals::default();
    let mut rounds = 0u64;
    while let Some(cmd) = queue.take() {
        match cmd {
            Cmd::Block(tasks) => {
                let submitted = {
                    let _span = traced.then(|| span(Name::BlockSubmit, totals.blocks));
                    exec.submit(tasks)
                };
                stats.note_completed(submitted.retired.len() as u64);
                totals.note(submitted.retired);
            }
            Cmd::Drain => {
                let retired = {
                    let _span = traced.then(|| span(Name::BlockDrain, rounds));
                    exec.drain()
                };
                stats.note_completed(retired.len() as u64);
                totals.note(retired);
                if let Some(wal) = &wal {
                    let _span = traced.then(|| span(Name::WalFlush, rounds));
                    wal.flush().expect("journal flush");
                }
                rounds += 1;
                if acks.send(exec.commit_seq()).is_err() {
                    break;
                }
            }
            Cmd::Quit => break,
        }
    }
    totals.note(exec.drain());
    let (store, shards, tail) = exec.finish();
    debug_assert!(tail.is_empty(), "drained before finish");
    Consumed {
        store,
        shards,
        totals,
    }
}

/// The client's end of the replica: the in-process [`Target`].
struct InProcess {
    queue: Arc<AdmissionQueue<Cmd>>,
    acks: mpsc::Receiver<u64>,
    /// `blocks[round][batch]`: the pool's transactions as ready tasks.
    blocks: Vec<Vec<Vec<Task>>>,
    refused: u64,
    rounds: u64,
    traced: bool,
}

impl Target for InProcess {
    fn round(&mut self, index: usize) -> Result<u64, String> {
        let _span = self.traced.then(|| span(Name::ServeRound, self.rounds));
        self.rounds += 1;
        for tasks in &self.blocks[index] {
            match self.queue.offer(Cmd::Block(tasks.clone())) {
                Admission::Admitted => self.queue.stats().note_txns_in(tasks.len() as u64),
                Admission::Shed | Admission::Closed => self.refused += 1,
            }
        }
        self.queue.push(Cmd::Drain);
        self.acks
            .recv()
            .map_err(|_| "replica consumer ended early".to_string())
    }
}

/// `janus-serve`'s `parse_txn`, from the generated item instead of its
/// token.
fn task_of(item: Item, accounts: &[LocId]) -> Task {
    match item {
        Item::Transfer { src, dst, amt } => {
            let (src, dst) = (accounts[src as usize], accounts[dst as usize]);
            Task::new(move |tx| {
                tx.add(src, -amt);
                tx.add(dst, amt);
            })
        }
        Item::Add { acct, delta } => {
            let loc = accounts[acct as usize];
            Task::new(move |tx| tx.add(loc, delta))
        }
    }
}

fn provision(accounts: usize) -> (Store, Vec<LocId>) {
    let mut store = Store::new();
    let locs = (0..accounts)
        .map(|i| store.alloc(format!("acct{i}").as_str(), Value::int(0)))
        .collect();
    (store, locs)
}

/// Everything one in-process measurement yields.
pub struct ReplicaRun {
    /// Client-side timings of the window.
    pub samples: Samples,
    /// Totals over the blocks of the timed window and the warm-up.
    pub totals: BlockTotals,
    /// Worker threads each block ran on.
    pub workers: u64,
    /// Validation sessions opened, and how many reported a conflict.
    pub detect_queries: u64,
    /// See `detect_queries`.
    pub detect_conflicts: u64,
    /// Sum of shard write-lock waits, ns.
    pub lock_wait_ns: u64,
    /// Longest history any shard still retained at the end.
    pub history_retained_max: u64,
    /// Mean admission-queue depth seen by `offer`.
    pub inflight_depth_mean: f64,
    /// Journal counters: `(appends, framed bytes, fsync batches)`.
    pub wal: Option<(u64, u64, u64)>,
    /// Committed logs kept at the sink seam (traced runs).
    pub logs: Vec<Vec<Op>>,
}

/// Runs `stream` through the in-process replica (journaling into
/// `wal_dir`, if given) for `duration`, then checks the final store (and, journaled, the
/// recovered one) against the client's books. With `traced`, the library
/// is composed through the span-recording wrappers.
pub fn run_replica(
    stream: &Stream,
    wal_dir: Option<&Path>,
    duration: Duration,
    traced: bool,
    tally: &mut Tally,
) -> Result<ReplicaRun, String> {
    let (mut store, accounts) = provision(stream.accounts);

    let base: Arc<dyn ConflictDetector> = Arc::new(SequenceDetector::new());
    let detector: Arc<dyn ConflictDetector> = if traced {
        Arc::new(TracedDetector::new(Arc::clone(&base)))
    } else {
        Arc::clone(&base)
    };
    let mut janus = Janus::new(detector)
        .threads(THREADS)
        .shards(SHARDS)
        .ordered(false)
        .panic_policy(PanicPolicy::Poison);

    // As the binary boots: replay whatever the (empty) directory holds,
    // open the journal above it, hang its sink off the runtime.
    let policy: FsyncPolicy = WAL_FSYNC.parse()?;
    let wal = match wal_dir {
        None => None,
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let rec = recover(dir, store).map_err(|e| format!("wal recovery: {e}"))?;
            let wal = Wal::open(dir, policy, rec.commit_seq).map_err(|e| format!("wal: {e}"))?;
            store = rec.store;
            Some(wal)
        }
    };
    let wal_sink = wal.as_ref().map(|w| w.sink() as Arc<dyn CommitSink>);
    let traced_sink = traced.then(|| Arc::new(TracedSink::new(wal_sink.clone())));
    match (&traced_sink, wal_sink) {
        (Some(sink), _) => janus = janus.commit_sink(Arc::clone(sink) as Arc<dyn CommitSink>),
        (None, Some(sink)) => janus = janus.commit_sink(sink),
        (None, None) => {}
    }

    let exec = BlockExecutor::new(janus, store, PipelineMode::Pipelined);
    let queue = Arc::new(AdmissionQueue::new(
        MAX_INFLIGHT,
        Arc::new(ServeStats::default()),
    ));
    let (ack_tx, ack_rx) = mpsc::channel();
    let consumer = {
        let (queue, wal) = (Arc::clone(&queue), wal.clone());
        std::thread::Builder::new()
            .name("replica-consumer".into())
            .spawn(move || consume(exec, queue, wal, ack_tx, traced))
            .map_err(|e| e.to_string())?
    };

    let blocks = stream
        .rounds
        .iter()
        .enumerate()
        .map(|(r, round)| {
            round
                .items
                .chunks(ITEMS_PER_BATCH)
                .enumerate()
                .map(|(b, items)| {
                    items
                        .iter()
                        .enumerate()
                        .map(|(k, item)| {
                            let task = task_of(*item, &accounts);
                            if traced {
                                let txn = (r * BATCHES_PER_ROUND + b) * ITEMS_PER_BATCH + k;
                                traced_task(task, txn as u64)
                            } else {
                                task
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut target = InProcess {
        queue: Arc::clone(&queue),
        acks: ack_rx,
        blocks,
        refused: 0,
        rounds: 0,
        traced,
    };
    let mut sent = Sent::new(stream.rounds.len());
    for _ in 0..WARMUP_ROUNDS {
        sent.send(&mut target)?;
    }
    let driven = drive(&mut target, &mut sent, duration);
    queue.push(Cmd::Quit);
    let consumed = consumer
        .join()
        .map_err(|_| "replica consumer panicked".to_string())?;
    let samples = driven?;

    let model = sent.model(stream);
    let wrong = |store: &Store| {
        accounts
            .iter()
            .zip(&model)
            .filter(|(loc, m)| store.value(**loc).and_then(Value::as_int) != Some(**m))
            .count() as u64
    };
    tally.ops(
        stream.accounts as u64,
        wrong(&consumed.store),
        "replica account values differ from the model",
    );
    tally.ops(
        sent.txns(),
        sent.txns().abs_diff(consumed.totals.commits),
        "replica transactions not committed exactly once",
    );
    tally.check(target.refused == 0 && consumed.totals.failed == 0, || {
        format!(
            "replica refused {} batches, failed {} blocks",
            target.refused, consumed.totals.failed
        )
    });

    let wal_counts = wal.as_ref().map(|w| {
        let s = w.stats();
        (s.appends(), s.bytes(), s.fsync_batches())
    });
    // Every `drained` was flushed, so the journal on disk is complete:
    // dropping it here is the in-process stand-in for a kill.
    drop(wal);
    if let Some(dir) = wal_dir {
        let (fresh, _) = provision(stream.accounts);
        let rec = {
            let _span = traced.then(|| span(Name::WalRecover, 0));
            recover(dir, fresh).map_err(|e| format!("wal recovery: {e}"))?
        };
        tally.check(rec.commit_seq == sent.last_commit_seq, || {
            format!(
                "replica recovered commit_seq {}, acknowledged {}",
                rec.commit_seq, sent.last_commit_seq
            )
        });
        tally.ops(
            stream.accounts as u64,
            wrong(&rec.store),
            "replica account values lost or changed by recovery",
        );
    }

    let mut registry = MetricsRegistry::new();
    queue.stats().export(&mut registry);
    let (queries, conflicts, _, _) = base.stats().snapshot();
    debug_assert_eq!(sent.txns() % TXNS_PER_ROUND as u64, 0);
    Ok(ReplicaRun {
        samples,
        totals: consumed.totals,
        workers: THREADS.min(ITEMS_PER_BATCH) as u64,
        detect_queries: queries,
        detect_conflicts: conflicts,
        lock_wait_ns: consumed.shards.lock_wait_ns().sum(),
        history_retained_max: consumed
            .shards
            .0
            .iter()
            .map(|s| s.history_len)
            .max()
            .unwrap_or(0),
        inflight_depth_mean: registry
            .histogram("serve.inflight_depth")
            .map_or(0.0, |h| h.mean()),
        wal: wal_counts,
        logs: traced_sink.map_or_else(Vec::new, |s| s.take_logs()),
    })
}
