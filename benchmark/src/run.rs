//! One benchmark run: a workload, a seed, a measurement length and a
//! trace mode in; the books and the named metric values out.
//!
//! Untraced runs (`trace == false`) produce the end-to-end metrics and
//! nothing else. Traced runs produce the per-layer metrics: they replay
//! the same generated inputs in-process, once plain and once through the
//! span-recording wrappers, and (for `serve-*`) also drive the real
//! binary for a third of the time so that the protocol's share can be
//! taken as a difference.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use janus_log::{wire, CommittedLog, Op};

use crate::gen::{generate, TXNS_PER_ROUND};
use crate::json::Json;
use crate::loops::{self, LoopRun, LOOP_NAMES};
use crate::replica::run_replica;
use crate::report::{Tally, Values};
use crate::serve::{run_subprocess, Ctx, ServeWorkload, POOL_ROUNDS, SERVE_WORKLOADS};
use crate::stats::{median, peak_rss_mb};
use crate::trace::{self, Ledger, Name, Trace};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["serve-uniform", "serve-hot", "serve-wal", "paper-loops"];

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 3] = ["txn_per_s", "peak_rss_mb", "setup_s"];

/// The per-layer metrics every traced run reports; a metric of a layer
/// the workload does not reach is reported as 0.
pub const PER_LAYER: [&str; 56] = [
    "round_p50_us",
    "round_p99_us",
    "loop_speedup",
    "wal_bytes_per_txn",
    "recover_txn_per_s",
    "failed_share",
    "serve.protocol_us_per_txn",
    "serve.shed_batches",
    "serve.inflight_depth_mean",
    "block.submit_us_per_batch",
    "block.drain_us_per_round",
    "block.gate_waits_per_batch",
    "block.overlap_permille",
    "block.blocks_failed",
    "core.execute_ns_per_attempt",
    "core.attempts_per_commit",
    "core.lock_wait_ns_per_commit",
    "core.history_retained_max",
    "core.run_wall_s",
    "core.overhead_ns_per_commit",
    "detect.validate_ns_per_attempt",
    "detect.extend_calls_per_attempt",
    "detect.segments_skipped_share",
    "detect.ops_scanned_per_commit",
    "detect.conflict_share",
    "train.query_ns",
    "train.queries_per_commit",
    "train.unique_miss_share",
    "train.train_s",
    "log.commit_build_ns_per_txn",
    "log.ops_per_txn",
    "log.wire_bytes_per_txn",
    "sched.dispatch_ns_per_task",
    "sched.abort_wait_ns_per_commit",
    "wal.append_ns_per_commit",
    "wal.flush_us_per_round",
    "wal.fsyncs_per_txn",
    "wal.bytes_per_txn",
    "wal.recover_s",
    "loops.jfilesync.par_wall_s",
    "loops.jfilesync.seq_wall_s",
    "loops.jfilesync.retries_per_txn",
    "loops.jgrapht-1.par_wall_s",
    "loops.jgrapht-1.seq_wall_s",
    "loops.jgrapht-1.retries_per_txn",
    "loops.jgrapht-2.par_wall_s",
    "loops.jgrapht-2.seq_wall_s",
    "loops.jgrapht-2.retries_per_txn",
    "loops.pmd.par_wall_s",
    "loops.pmd.seq_wall_s",
    "loops.pmd.retries_per_txn",
    "loops.weka.par_wall_s",
    "loops.weka.seq_wall_s",
    "loops.weka.retries_per_txn",
    "ledger.coverage",
    "ledger.trace_overhead_share",
];

/// Set-ups an untraced run performs (and times) before measuring.
const SETUPS: usize = 5;
/// Spans a span file holds at most; the ledger is computed from all.
const SPAN_FILE_CAP: usize = 50_000;

/// Where the benchmark lives and what it runs against.
pub struct Env {
    /// The repository (checkout) root.
    pub root: PathBuf,
    /// `benchmark/out/`: span files, results, per-run scratch.
    pub out: PathBuf,
    /// The built `janus-serve`.
    pub server_bin: PathBuf,
}

impl Env {
    /// Locates the checkout, creates `benchmark/out/` and builds the
    /// real `janus-serve` from the checkout's own source (a no-op when it
    /// is current). Compilation is no part of any metric.
    pub fn prepare() -> Result<Env, String> {
        let root = checkout_root();
        let out = root.join("benchmark/out");
        fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

        let status = Command::new("cargo")
            .args(["build", "--release", "--quiet", "--bin", "janus-serve"])
            .current_dir(&root)
            .status()
            .map_err(|e| format!("cargo build: {e}"))?;
        if !status.success() {
            return Err(format!("building janus-serve failed: {status}"));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        let server_bin = target.join("release/janus-serve");
        if !server_bin.is_file() {
            return Err(format!("{} was not built", server_bin.display()));
        }
        Ok(Env {
            root,
            out,
            server_bin,
        })
    }
}

/// The checkout the benchmark runs against: the working directory when
/// it is one (the driver starts the command at the root of a checkout),
/// else the directory the benchmark was compiled in.
pub fn checkout_root() -> PathBuf {
    let is_root =
        |dir: &Path| dir.join("benchmark/Cargo.toml").is_file() && dir.join("crates").is_dir();
    match std::env::current_dir() {
        Ok(cwd) if is_root(&cwd) => cwd,
        _ => Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("benchmark/ has a parent")
            .to_path_buf(),
    }
}

/// What one run measured.
pub struct RunResult {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metric values: [`END_TO_END`] or [`PER_LAYER`].
    pub values: Values,
}

/// Scale of a run: full size, or a reduced one for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Table 6 production inputs, [`SETUPS`] timed set-ups.
    Full,
    /// Loops at a tenth of their production size, one set-up.
    Smoke,
}

/// Runs `workload` once.
pub fn run_one(
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> Result<RunResult, String> {
    let scratch = env
        .out
        .join(format!("run-{workload}-{}", std::process::id()));
    fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        server_bin: env.server_bin.clone(),
        scratch: scratch.clone(),
    };
    let duration = Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let serve = SERVE_WORKLOADS.iter().find(|w| w.name == workload);
    let values = match (serve, workload, traced) {
        (Some(w), _, false) => serve_end_to_end(&ctx, *w, seed, duration, size, &mut tally),
        (Some(w), _, true) => serve_per_layer(env, &ctx, *w, seed, duration, &mut tally),
        (None, "paper-loops", false) => loops_end_to_end(seed, duration, size, &mut tally),
        (None, "paper-loops", true) => loops_per_layer(env, seed, duration, size, &mut tally),
        _ => Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        )),
    };
    let _ = fs::remove_dir_all(&scratch);
    let mut values = values?;
    if traced {
        values.insert("failed_share", tally.failed_share());
    }
    Ok(RunResult { tally, values })
}

fn setups(size: Size) -> usize {
    match size {
        Size::Full => SETUPS,
        Size::Smoke => 1,
    }
}

fn serve_end_to_end(
    ctx: &Ctx,
    workload: ServeWorkload,
    seed: u64,
    duration: Duration,
    size: Size,
    tally: &mut Tally,
) -> Result<Values, String> {
    let run = run_subprocess(ctx, workload, seed, duration, setups(size), tally)?;
    Ok(Values::from([
        ("txn_per_s", run.samples.txn_per_s()),
        ("peak_rss_mb", run.peak_rss_mb),
        ("setup_s", median(&run.setup_s)),
    ]))
}

fn loops_end_to_end(
    seed: u64,
    duration: Duration,
    size: Size,
    tally: &mut Tally,
) -> Result<Values, String> {
    let mut setup_s = Vec::new();
    let setup = loop {
        let t0 = Instant::now();
        let setup = loops::set_up(seed, size == Size::Smoke);
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() >= setups(size) {
            break setup;
        }
    };
    let runs = loops::run_all(&setup, duration, false, tally);
    Ok(Values::from([
        ("txn_per_s", loops::txn_per_s(&runs)),
        (
            "peak_rss_mb",
            peak_rss_mb("self").ok_or("cannot read own VmHWM")?,
        ),
        ("setup_s", median(&setup_s)),
    ]))
}

fn zeroed() -> Values {
    PER_LAYER.iter().map(|name| (*name, 0.0)).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `log.*`: what building a `CommittedLog` (decompose + fingerprint)
/// costs on the logs captured at the sink seam, their length, and their
/// size in the journal's effect encoding.
fn log_metrics(logs: &[Vec<Op>], values: &mut Values) {
    if logs.is_empty() {
        return;
    }
    let n = logs.len() as f64;
    let ops: usize = logs.iter().map(Vec::len).sum();
    let mut buf = Vec::new();
    for op in logs.iter().flatten() {
        // Reads are no effects and are not journaled.
        let _ = wire::encode_effect(&mut buf, op.loc, &op.kind);
    }
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let copies = logs.to_vec();
            let t0 = Instant::now();
            for ops in copies {
                black_box(CommittedLog::new(black_box(ops)));
            }
            t0.elapsed().as_nanos() as f64 / n
        })
        .collect();
    values.insert("log.commit_build_ns_per_txn", median(&passes));
    values.insert("log.ops_per_txn", ops as f64 / n);
    values.insert("log.wire_bytes_per_txn", buf.len() as f64 / n);
}

/// The rows every traced run derives the same way from its ledger.
fn ledger_metrics(ledger: &Ledger, commits: f64, worker_wall_ns: f64, values: &mut Values) {
    let row = |name| ledger.row(name);
    let attempts = row(Name::CoreExecute).count as f64;
    values.insert(
        "core.execute_ns_per_attempt",
        row(Name::CoreExecute).mean_ns(),
    );
    values.insert("core.attempts_per_commit", ratio(attempts, commits));
    values.insert(
        "core.overhead_ns_per_commit",
        ratio(worker_wall_ns - ledger.worker_self_ns() as f64, commits),
    );
    let validate = row(Name::DetectBegin).total_ns + row(Name::DetectExtend).total_ns;
    values.insert(
        "detect.validate_ns_per_attempt",
        ratio(validate as f64, attempts),
    );
    values.insert(
        "detect.extend_calls_per_attempt",
        ratio(row(Name::DetectExtend).count as f64, attempts),
    );
    values.insert("train.query_ns", row(Name::TrainQuery).mean_ns());
    values.insert(
        "train.queries_per_commit",
        ratio(row(Name::TrainQuery).count as f64, commits),
    );
    values.insert(
        "sched.abort_wait_ns_per_commit",
        ratio(row(Name::SchedAbort).total_ns as f64, commits),
    );
    values.insert(
        "wal.append_ns_per_commit",
        ratio(row(Name::WalAppend).total_ns as f64, commits),
    );
    values.insert(
        "wal.flush_us_per_round",
        row(Name::WalFlush).mean_ns() / 1e3,
    );
    values.insert("wal.recover_s", row(Name::WalRecover).total_ns as f64 / 1e9);
    values.insert(
        "ledger.coverage",
        ratio(ledger.worker_self_ns() as f64, worker_wall_ns),
    );
}

/// Books one check per layer the workload must not reach.
fn assert_unreached(ledger: &Ledger, names: &[Name], workload: &str, tally: &mut Tally) {
    for name in names {
        let calls = ledger.row(*name).count;
        tally.check(calls == 0, || {
            format!("{workload}: {calls} {} calls, expected none", name.as_str())
        });
    }
}

fn write_span_file(
    env: &Env,
    workload: &str,
    seed: u64,
    id_note: &str,
    trace: &Trace,
) -> Result<(), String> {
    let header = vec![
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("clock", Json::Str("ns since the first span".into())),
        ("id", Json::Str(id_note.into())),
    ];
    let path = env.out.join(format!("trace-{workload}.json"));
    fs::write(&path, trace.to_json(header, SPAN_FILE_CAP).render())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn serve_per_layer(
    env: &Env,
    ctx: &Ctx,
    workload: ServeWorkload,
    seed: u64,
    duration: Duration,
    tally: &mut Tally,
) -> Result<Values, String> {
    let third = duration / 3;
    let mut values = zeroed();

    // The real binary, untraced: latency, the server's own counters and
    // (journaled) the disk and recovery figures.
    let sub = run_subprocess(ctx, workload, seed, third, 1, tally)?;
    values.insert("round_p50_us", sub.samples.p50_us());
    values.insert("round_p99_us", sub.samples.p99_us());
    values.insert("wal_bytes_per_txn", sub.wal_bytes_per_txn.unwrap_or(0.0));
    values.insert(
        "recover_txn_per_s",
        sub.recovery
            .map_or(0.0, |r| ratio(r.txns as f64, r.recover_s)),
    );
    values.insert("serve.shed_batches", sub.stats.shed as f64);
    values.insert(
        "block.gate_waits_per_batch",
        ratio(sub.stats.gate_waits as f64, sub.stats.admitted as f64),
    );
    values.insert("block.overlap_permille", sub.stats.overlap_permille as f64);
    values.insert("block.blocks_failed", sub.stats.blocks_failed as f64);

    // The same rounds through the in-process replica, plain and traced.
    let stream = generate(workload.profile, seed, POOL_ROUNDS);
    let wal_dir = |name: &str| workload.wal.then(|| ctx.scratch.join(name));
    let plain = run_replica(
        &stream,
        wal_dir("wal-plain").as_deref(),
        third,
        false,
        tally,
    )?;
    let traced = run_replica(
        &stream,
        wal_dir("wal-traced").as_deref(),
        third,
        true,
        tally,
    )?;
    let spans = trace::take();
    let ledger = spans.ledger();
    write_span_file(
        env,
        workload.name,
        seed,
        "transaction spans: ((round*16)+batch)*16+item of the generated pool; \
         block.submit: block number; round spans: round number",
        &spans,
    )?;

    values.insert(
        "serve.protocol_us_per_txn",
        (sub.samples.p50_us() - plain.samples.p50_us()) / TXNS_PER_ROUND as f64,
    );
    values.insert("serve.inflight_depth_mean", plain.inflight_depth_mean);
    values.insert(
        "block.submit_us_per_batch",
        ledger.row(Name::BlockSubmit).mean_ns() / 1e3,
    );
    values.insert(
        "block.drain_us_per_round",
        ledger.row(Name::BlockDrain).mean_ns() / 1e3,
    );

    let commits = traced.totals.commits as f64;
    let worker_wall_ns = (traced.totals.wall_ns * traced.workers) as f64;
    ledger_metrics(&ledger, commits, worker_wall_ns, &mut values);
    values.insert(
        "core.lock_wait_ns_per_commit",
        ratio(traced.lock_wait_ns as f64, commits),
    );
    values.insert(
        "core.history_retained_max",
        traced.history_retained_max as f64,
    );
    values.insert("core.run_wall_s", traced.totals.wall_ns as f64 / 1e9);
    let segments = traced.totals.segments_skipped + traced.totals.segments_scanned;
    values.insert(
        "detect.segments_skipped_share",
        ratio(traced.totals.segments_skipped as f64, segments as f64),
    );
    values.insert(
        "detect.ops_scanned_per_commit",
        ratio(traced.totals.ops_scanned as f64, commits),
    );
    values.insert(
        "detect.conflict_share",
        ratio(traced.detect_conflicts as f64, traced.detect_queries as f64),
    );
    if let Some((appends, bytes, fsyncs)) = traced.wal {
        values.insert("wal.fsyncs_per_txn", ratio(fsyncs as f64, appends as f64));
        values.insert("wal.bytes_per_txn", ratio(bytes as f64, appends as f64));
    }
    log_metrics(&traced.logs, &mut values);
    values.insert(
        "ledger.trace_overhead_share",
        1.0 - ratio(traced.samples.txn_per_s(), plain.samples.txn_per_s()),
    );

    // janus-serve installs no schedule policy and no trained cache; only
    // the journaled workload has a sink.
    let mut unreached = vec![Name::TrainQuery, Name::SchedDispatch, Name::SchedAbort];
    if !workload.wal {
        unreached.extend([Name::WalAppend, Name::WalFlush, Name::WalRecover]);
    }
    assert_unreached(&ledger, &unreached, workload.name, tally);
    Ok(values)
}

fn loops_per_layer(
    env: &Env,
    seed: u64,
    duration: Duration,
    size: Size,
    tally: &mut Tally,
) -> Result<Values, String> {
    let mut values = zeroed();
    let setup = loops::set_up(seed, size == Size::Smoke);
    values.insert("train.train_s", setup.train_s);

    let plain = loops::run_all(&setup, duration / 2, false, tally);
    let traced = loops::run_all(&setup, duration / 2, true, tally);
    let spans = trace::take();
    let ledger = spans.ledger();
    write_span_file(
        env,
        "paper-loops",
        seed,
        "transaction spans: task index within its loop; core.run: repetition; \
         sched.next_task: worker",
        &spans,
    )?;

    values.insert("loop_speedup", loops::loop_speedup(&plain));
    for (name, run) in LOOP_NAMES.iter().zip(&plain) {
        let key = |metric: &str| {
            let name = format!("loops.{name}.{metric}");
            *PER_LAYER
                .iter()
                .find(|k| **k == name)
                .expect("every loop metric is listed in PER_LAYER")
        };
        values.insert(key("par_wall_s"), run.par_s());
        values.insert(key("seq_wall_s"), run.seq_s());
        values.insert(
            key("retries_per_txn"),
            ratio(run.retries as f64, run.commits as f64),
        );
    }

    let sum = |f: fn(&LoopRun) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let commits = sum(|r| r.commits);
    ledger_metrics(&ledger, commits, sum(|r| r.worker_wall_ns), &mut values);
    values.insert(
        "core.lock_wait_ns_per_commit",
        ratio(sum(|r| r.lock_wait_ns), commits),
    );
    values.insert(
        "core.history_retained_max",
        traced
            .iter()
            .map(|r| r.history_retained_max)
            .max()
            .unwrap_or(0) as f64,
    );
    values.insert(
        "core.run_wall_s",
        ledger.row(Name::CoreRun).total_ns as f64 / 1e9,
    );
    values.insert(
        "detect.segments_skipped_share",
        ratio(
            sum(|r| r.segments_skipped),
            sum(|r| r.segments_skipped + r.segments_scanned),
        ),
    );
    values.insert(
        "detect.ops_scanned_per_commit",
        ratio(sum(|r| r.ops_scanned), commits),
    );
    values.insert(
        "detect.conflict_share",
        ratio(sum(|r| r.detect_conflicts), sum(|r| r.detect_queries)),
    );
    values.insert(
        "train.unique_miss_share",
        ratio(
            sum(|r| r.unique_misses),
            sum(|r| r.unique_hits + r.unique_misses),
        ),
    );
    values.insert(
        "sched.dispatch_ns_per_task",
        ratio(
            ledger.row(Name::SchedDispatch).total_ns as f64,
            sum(|r| r.dispatched),
        ),
    );
    let logs: Vec<Vec<Op>> = traced.iter().flat_map(|r| r.logs.clone()).collect();
    log_metrics(&logs, &mut values);
    values.insert(
        "ledger.trace_overhead_share",
        1.0 - ratio(loops::txn_per_s(&traced), loops::txn_per_s(&plain)),
    );

    // Library mode: no block pipeline, no journal.
    assert_unreached(
        &ledger,
        &[
            Name::ServeRound,
            Name::BlockSubmit,
            Name::BlockDrain,
            Name::WalAppend,
            Name::WalFlush,
            Name::WalRecover,
        ],
        "paper-loops",
        tally,
    );
    Ok(values)
}
