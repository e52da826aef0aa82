//! `janus-serve` — a long-running block-execution service over one
//! persistent JANUS store.
//!
//! ```text
//! janus-serve [--threads N] [--shards N] [--locs N]
//!             [--mode pipelined] [--ordered]
//!             [--max-inflight N] [--detector sequence|write-set]
//!             [--panic-policy poison|isolate] [--watchdog-ms N]
//!             [--fault-seed N] [--fault-rate R]
//!             [--metrics] [--listen ADDR]
//!             [--wal-dir DIR] [--wal-fsync always|every-n:N|interval-ms:N]
//! ```
//!
//! The service boots `--locs` integer accounts (classes `acct0..`,
//! value 0) and then speaks a line protocol on stdin/stdout — or, with
//! `--listen ADDR` (port 0 binds a free one), on successive TCP
//! connections:
//!
//! ```text
//! batch <id> <item> ...     submit one block; items are `i:+d` (add d
//!                           to account i) or `i>j:d` (transfer d from
//!                           i to j, two ops in one transaction)
//!   -> admitted <id> txns=<n>   queued for execution
//!   -> shed <id>                inflight queue full; batch dropped
//! read <i>                  -> value <i> <v>   committed value now
//! stats                     -> stats admitted=... shed=... ...
//! drain                     wait for every admitted block
//!   -> done <id> ... (one per block, as blocks retire)
//!   -> drained commit_seq=<n>
//! quit                      drain, report, exit (EOF does the same)
//!   -> bye commit_seq=<n> txns_committed=<n>
//! ```
//!
//! Every admitted block eventually produces exactly one
//! `done <id> status=committed|failed commits=<c> ...` line. Failure is
//! block-scoped: a poison panic or watchdog fire inside one block
//! yields `status=failed` for that block and the service keeps
//! serving.
//!
//! Admission control is a bounded inflight queue (`--max-inflight`,
//! default 4): when the pipeline lags, new batches are *shed* with a
//! distinct response instead of queueing without bound, and the queue
//! depth histogram lands in the `--metrics` report under
//! `serve.inflight_depth`.
//!
//! # Durability
//!
//! With `--wal-dir DIR` every committed transaction is journaled to a
//! write-ahead log. The commit path only queues the framed record; one
//! `janus-wal` journal thread takes everything queued in a turn, writes
//! it in ticket order and fsyncs per `--wal-fsync`:
//!
//! * `always` (`every-n:1`) — at the end of every turn that took a record;
//! * `every-n:N` (the default, `every-n:8`) — at the end of a turn once
//!   at least N records are unsynced (group commit);
//! * `interval-ms:N` — once the oldest unsynced record has waited N ms.
//!
//! On boot the service replays any existing journal into the freshly
//! provisioned store before serving, reporting `recovered
//! commit_seq=<n>` on stderr, and continues the global commit sequence
//! from there — exactly once, deduped by commit ticket. `drained
//! commit_seq=<n>` waits on the journal thread: it is only printed once
//! every record through `n` is written and fsynced. If an I/O error
//! killed the journal, `drain` answers `error wal flush failed: ...`
//! in its place.
//!
//! Shutdown: `quit` (or EOF) drains the pipeline, flushes + fsyncs the
//! journal, snapshots the store (truncating journaled segments below
//! the watermark) and writes a clean-shutdown marker, so the next boot
//! skips torn-tail scanning. SIGTERM and SIGKILL are deliberately *not*
//! handled — the process dies mid-flight and the next boot recovers
//! from the journal; kill-safety is the design, not a gap. A boot
//! without the marker forces full tail verification (and truncates a
//! torn tail, counting it in `wal.torn_tail_truncations`).

use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use janus::block::{
    Admission, AdmissionQueue, BlockExecutor, BlockOutcome, BlockStatus, PipelineMode, ServeStats,
};
use janus::core::{Janus, Store, Task};
use janus::detect::{ConflictDetector, SequenceDetector, WriteSetDetector};
use janus::fault::silence_injected_panics;
use janus::log::LocId;
use janus::obs::MetricsRegistry;
use janus::relational::Value;
use janus::wal::{recover, FsyncPolicy, Wal};

mod cli;

use cli::{usage_error, Args, Runtime};

const USAGE: &str = "usage:
  janus-serve [--threads N] [--shards N] [--locs N] [--mode pipelined]
              [--ordered] [--max-inflight N] [--detector sequence|write-set]
              [--panic-policy poison|isolate] [--watchdog-ms N]
              [--fault-seed N] [--fault-rate R] [--metrics] [--listen ADDR]
              [--wal-dir DIR] [--wal-fsync always|every-n:N|interval-ms:N]";

/// One protocol command, as handed to the pipeline consumer. Batches go
/// through bounded admission; everything else is control plane.
enum Item {
    Block { id: String, tasks: Vec<Task> },
    Read { acct: usize },
    Stats,
    Drain,
    Quit,
}

/// Parses one `batch` item token into a transaction over the accounts.
/// `i:+d` / `i:-d` adds `d` to account `i`; `i>j:d` moves `d` from `i`
/// to `j` as a single two-op transaction.
fn parse_txn(token: &str, accounts: &[LocId]) -> Result<Task, String> {
    let account = |s: &str| -> Result<LocId, String> {
        let i: usize = s.parse().map_err(|_| format!("bad account {s:?}"))?;
        accounts
            .get(i)
            .copied()
            .ok_or_else(|| format!("account {i} out of range (locs={})", accounts.len()))
    };
    if let Some((from, rest)) = token.split_once('>') {
        let (to, amt) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad transfer {token:?} (want i>j:d)"))?;
        let (src, dst) = (account(from)?, account(to)?);
        let amt: i64 = amt.parse().map_err(|_| format!("bad amount {amt:?}"))?;
        Ok(Task::new(move |tx| {
            tx.add(src, -amt);
            tx.add(dst, amt);
        }))
    } else if let Some((acct, delta)) = token.split_once(':') {
        let loc = account(acct)?;
        let delta: i64 = delta.parse().map_err(|_| format!("bad delta {delta:?}"))?;
        Ok(Task::new(move |tx| tx.add(loc, delta)))
    } else {
        Err(format!("bad item {token:?} (want i:d or i>j:d)"))
    }
}

/// Renders one retired block as its `done` protocol line.
fn done_line(id: &str, outcome: &BlockOutcome) -> String {
    let status = match outcome.status {
        BlockStatus::Committed => "committed",
        BlockStatus::Failed => "failed",
    };
    let mut line = format!(
        "done {id} status={status} commits={} retries={} latency_us={}",
        outcome.commits(),
        outcome.batch.as_ref().map_or(0, |b| b.stats.retries),
        outcome.latency.as_micros(),
    );
    if let Some(err) = &outcome.error {
        line.push_str(&format!(" error={:?}", err));
    }
    line
}

/// Where protocol lines go: stdout, or under `--listen` whichever
/// connection is current.
type Out = Arc<Mutex<Box<dyn Write + Send>>>;

/// Writes one protocol line and flushes it.
fn say(out: &Out, line: impl std::fmt::Display) {
    let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

/// The pipeline consumer: owns the executor, drains the admission
/// queue, writes `done`/`value`/`stats` lines. With a journal attached,
/// `drained commit_seq=<n>` is only printed once the journal thread has
/// fsynced through `n`, and the final exit path snapshots the store and
/// leaves a clean-shutdown marker.
fn consume(
    mut exec: BlockExecutor,
    queue: Arc<AdmissionQueue<Item>>,
    accounts: Vec<LocId>,
    out: Out,
    metrics: bool,
    wal: Option<Arc<Wal>>,
) {
    let stats = Arc::clone(queue.stats());
    // Block ids admitted but not yet reported, in submission order
    // (the executor retires strictly FIFO).
    let mut pending: std::collections::VecDeque<String> = Default::default();
    let report = |retired: Vec<BlockOutcome>, pending: &mut std::collections::VecDeque<String>| {
        for outcome in retired {
            let id = pending.pop_front().unwrap_or_else(|| "?".into());
            stats.note_completed(1);
            say(&out, done_line(&id, &outcome));
        }
    };
    while let Some(item) = queue.take() {
        match item {
            Item::Block { id, tasks } => {
                pending.push_back(id);
                let submitted = exec.submit(tasks);
                report(submitted.retired, &mut pending);
            }
            Item::Read { acct } => match accounts.get(acct) {
                Some(&loc) => {
                    let v = exec.value(loc).and_then(|v| v.as_int()).unwrap_or(0);
                    say(&out, format!("value {acct} {v}"));
                }
                None => say(&out, format!("error account {acct} out of range")),
            },
            Item::Stats => {
                report(exec.drain(), &mut pending);
                let s = stats.report();
                let b = exec.stats().report(exec.stream_wall_micros());
                // `gate_waits=0` stays only because the benchmark's
                // stats-line parser (`benchmark/src/serve.rs`) requires
                // the key; no gate remains to wait on.
                say(
                    &out,
                    format!(
                        "stats admitted={} shed={} completed={} txns_in={} txns_committed={} \
                     blocks_failed={} gate_waits=0 overlap_permille={}",
                        s.admitted,
                        s.shed,
                        s.completed,
                        s.txns_in,
                        b.txns_committed,
                        b.blocks_failed,
                        b.overlap_permille,
                    ),
                );
            }
            Item::Drain => {
                report(exec.drain(), &mut pending);
                // The drained line is a durability promise: everything
                // at or below this sequence survives a kill. A journal
                // that cannot keep it answers with the error instead.
                match wal.as_ref().map_or(Ok(()), |wal| wal.flush()) {
                    Ok(()) => say(&out, format!("drained commit_seq={}", exec.commit_seq())),
                    Err(e) => say(&out, format!("error wal flush failed: {e}")),
                }
            }
            Item::Quit => break,
        }
    }
    report(exec.drain(), &mut pending);
    let commit_seq = exec.commit_seq();
    let wall = exec.stream_wall_micros();
    let block_stats = Arc::clone(exec.stats());
    let txns_committed = block_stats.report(wall).txns_committed;
    let (store, shard_report, tail) = exec.finish();
    debug_assert!(tail.is_empty(), "drained before finish");
    if let Some(wal) = &wal {
        // Clean shutdown: everything is drained, so the store is
        // quiescent — snapshot it, truncate journaled history below the
        // watermark, and leave the marker that lets the next boot skip
        // tail verification.
        match wal.snapshot_and_truncate(&store) {
            Ok(seq) => eprintln!("janus-serve: snapshot at commit_seq={seq}"),
            Err(e) => eprintln!("janus-serve: snapshot failed: {e}"),
        }
        if let Err(e) = wal.mark_clean() {
            eprintln!("janus-serve: clean-shutdown marker failed: {e}");
        }
    }
    if metrics {
        let mut m = MetricsRegistry::new();
        block_stats.export(wall, &mut m);
        stats.export(&mut m);
        m.absorb(&shard_report);
        m.merge_histogram("shard.lock_wait_ns", &shard_report.lock_wait_ns());
        if let Some(wal) = &wal {
            m.absorb(wal.stats().as_ref());
        }
        say(&out, "--- metrics ---");
        let rendered = m.render();
        for line in rendered.lines() {
            say(&out, line);
        }
    }
    say(
        &out,
        format!("bye commit_seq={commit_seq} txns_committed={txns_committed}"),
    );
}

/// The protocol reader: parses lines, offers batches through admission,
/// forwards control commands. Returns when the client quits or EOF.
fn serve_connection(
    input: impl BufRead,
    queue: &AdmissionQueue<Item>,
    accounts: &[LocId],
    out: &Out,
) -> bool {
    let stats = Arc::clone(queue.stats());
    for line in input.lines() {
        let Ok(line) = line else { break };
        let mut words = line.split_whitespace();
        match words.next() {
            None => {}
            Some("batch") => {
                let Some(id) = words.next() else {
                    say(out, "error batch needs an id");
                    continue;
                };
                let tasks: Result<Vec<Task>, String> =
                    words.map(|t| parse_txn(t, accounts)).collect();
                match tasks {
                    Err(e) => say(out, format!("error {e}")),
                    Ok(tasks) if tasks.is_empty() => say(out, "error empty batch"),
                    Ok(tasks) => {
                        let n = tasks.len() as u64;
                        match queue.offer(Item::Block {
                            id: id.to_string(),
                            tasks,
                        }) {
                            Admission::Admitted => {
                                stats.note_txns_in(n);
                                say(out, format!("admitted {id} txns={n}"));
                            }
                            Admission::Shed => say(out, format!("shed {id}")),
                            Admission::Closed => say(out, format!("closed {id}")),
                        }
                    }
                }
            }
            Some("read") => match words.next().and_then(|w| w.parse().ok()) {
                Some(acct) => queue.push(Item::Read { acct }),
                None => say(out, "error read needs an account index"),
            },
            Some("stats") => queue.push(Item::Stats),
            Some("drain") => queue.push(Item::Drain),
            Some("quit") => {
                queue.push(Item::Quit);
                return true;
            }
            Some(other) => say(out, format!("error unknown command {other:?}")),
        }
    }
    false
}

fn main() -> ExitCode {
    let args = match Args::parse(
        &[
            "locs",
            "mode",
            "max-inflight",
            "detector",
            "listen",
            "wal-dir",
            "wal-fsync",
        ],
        &["ordered", "metrics"],
    ) {
        Ok(args) => args,
        Err(e) => return usage_error(USAGE, &e),
    };
    let flags = (|| -> Result<_, String> {
        if let Some(arg) = args.positional.first() {
            return Err(format!("unexpected argument {arg:?}"));
        }
        let wal_policy = args
            .value("wal-fsync")
            .unwrap_or("every-n:8")
            .parse::<FsyncPolicy>()
            .map_err(|e| format!("flag --wal-fsync: {e}"))?;
        // One pipeline shape: `--mode pipelined` is accepted because the
        // standalone benchmark passes it.
        args.one_of("mode", &["pipelined"])?;
        Ok((
            Runtime::parse(&args)?,
            args.positive::<usize>("locs", 64)?,
            args.positive::<usize>("max-inflight", 4)?,
            match args.one_of("detector", &["sequence", "write-set"])? {
                "write-set" => Arc::new(WriteSetDetector::new()) as Arc<dyn ConflictDetector>,
                _ => Arc::new(SequenceDetector::new()),
            },
            wal_policy,
        ))
    })();
    let (rt, locs, max_inflight, detector, wal_policy) = match flags {
        Ok(flags) => flags,
        Err(e) => return usage_error(USAGE, &e),
    };

    let mut store = Store::new();
    let accounts: Vec<LocId> = (0..locs)
        .map(|i| store.alloc(format!("acct{i}").as_str(), Value::int(0)))
        .collect();

    // With a journal directory, replay whatever survived the last run
    // into the freshly provisioned store before serving anything, and
    // restart the global commit sequence where it left off.
    let mut seq_base = 0u64;
    let wal: Option<Arc<Wal>> = match args.value("wal-dir") {
        None => None,
        Some(dir) => {
            let rec = match recover(std::path::Path::new(dir), store) {
                Ok(rec) => rec,
                Err(e) => {
                    eprintln!("error: wal recovery failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "janus-serve: recovered commit_seq={} (commits={} dupes={} \
                 torn_truncated={} snapshot={:?} clean={})",
                rec.commit_seq,
                rec.commits_replayed,
                rec.duplicates_skipped,
                rec.torn_tail_truncations,
                rec.snapshot_seq,
                rec.clean,
            );
            seq_base = rec.commit_seq;
            match Wal::open(std::path::Path::new(dir), wal_policy, rec.commit_seq) {
                Ok(wal) => {
                    wal.stats().note_recovery(&rec);
                    store = rec.store;
                    Some(wal)
                }
                Err(e) => {
                    eprintln!("error: cannot open wal in {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let mut janus = rt.apply(Janus::new(detector)).ordered(args.flag("ordered"));
    if let Some(wal) = &wal {
        janus = janus.commit_sink(wal.sink());
    }
    if rt.faults.is_some() {
        // Injected panics are expected (and block-scoped under either
        // policy); keep their backtraces out of the service log.
        silence_injected_panics();
    }

    let exec = BlockExecutor::new(janus, store, PipelineMode::Pipelined).with_seq_base(seq_base);
    let queue = Arc::new(AdmissionQueue::new(
        max_inflight,
        Arc::new(ServeStats::default()),
    ));
    let metrics = args.flag("metrics");

    eprintln!(
        "janus-serve: {} threads, {} shards, {locs} accounts, max-inflight={max_inflight}",
        rt.threads, rt.shards
    );

    let listener = match args.value("listen") {
        None => None,
        Some(addr) => match std::net::TcpListener::bind(addr) {
            Ok(listener) => Some(listener),
            Err(e) => {
                eprintln!("error: cannot listen on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    // The bound address, not the flag's text: `--listen 127.0.0.1:0`
    // picks a free port.
    if let Some(bound) = listener.as_ref().and_then(|l| l.local_addr().ok()) {
        eprintln!("janus-serve: listening on {bound} (successive sessions; quit ends it)");
    }
    // One consumer thread outlives every client session. Under
    // `--listen` its sink starts as io::sink(), and each connection
    // swaps itself in for its lifetime, so chatter before the first
    // connection (and after a disconnect) goes nowhere surprising.
    let out: Out = Arc::new(Mutex::new(match listener {
        Some(_) => Box::new(std::io::sink()),
        None => Box::new(std::io::stdout()),
    }));
    let consumer = {
        let (queue, accounts, out) = (Arc::clone(&queue), accounts.clone(), Arc::clone(&out));
        std::thread::spawn(move || consume(exec, queue, accounts, out, metrics, wal))
    };

    let mut failed = false;
    if let Some(listener) = listener {
        // A transient accept() failure (EMFILE, aborted handshake, ...)
        // must not take down the whole service: retry with bounded
        // exponential backoff, and only give up after several failures
        // in a row with no intervening successful session.
        let mut consecutive_failures = 0u32;
        loop {
            match listener.accept() {
                Ok((conn, peer)) => {
                    consecutive_failures = 0;
                    eprintln!("janus-serve: client {peer}");
                    let write_half = match conn.try_clone() {
                        Ok(w) => w,
                        Err(e) => {
                            eprintln!("janus-serve: cannot clone connection for {peer}: {e}");
                            continue;
                        }
                    };
                    *out.lock().unwrap_or_else(|e| e.into_inner()) = Box::new(write_half);
                    if serve_connection(BufReader::new(conn), &queue, &accounts, &out) {
                        break;
                    }
                    *out.lock().unwrap_or_else(|e| e.into_inner()) = Box::new(std::io::sink());
                    eprintln!("janus-serve: client {peer} disconnected; awaiting next session");
                }
                Err(e) => {
                    consecutive_failures += 1;
                    if consecutive_failures > 5 {
                        eprintln!(
                            "error: accept failed {consecutive_failures} times in a row: {e}"
                        );
                        queue.push(Item::Quit);
                        failed = true;
                        break;
                    }
                    let wait_ms = 10u64 << consecutive_failures;
                    eprintln!("janus-serve: accept failed ({e}); retrying in {wait_ms}ms");
                    std::thread::sleep(std::time::Duration::from_millis(wait_ms));
                }
            }
        }
    } else if !serve_connection(std::io::stdin().lock(), &queue, &accounts, &out) {
        queue.push(Item::Quit);
    }
    let _ = consumer.join();
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
