//! `janus-run` — command-line driver for the JANUS runtime.
//!
//! ```text
//! janus-run list
//! janus-run train <workload> [--no-abstraction] [--cache <file>]
//! janus-run run   <workload> [--detector write-set|sequence|cached|online-learning]
//!                            [--threads N] [--shards N] [--scale N] [--seed N]
//!                            [--cache <file>]
//!                            [--panic-policy poison|isolate] [--watchdog-ms N]
//!                            [--fault-seed N] [--fault-rate R]
//!                            [--trace <file>] [--metrics]
//! ```
//!
//! `train` exercises the workload's Table 6 training inputs sequentially
//! and writes the learned commutativity cache to `--cache` (default
//! `<workload>.janus-cache`). `run` executes a production-style input in
//! parallel under the chosen detector; with `--detector cached` the cache
//! is loaded from the file, so training and production can live in
//! different processes — the offline/production split of Figure 6.
//!
//! `--trace FILE` records the full transaction lifecycle and writes a
//! Chrome-trace JSON loadable in `chrome://tracing` (one track per worker
//! thread); `--metrics` prints the unified metrics registry and the abort
//! attribution report.
//!
//! `--shards N` sets the sharded store's shard count (1..=64; default 8).
//! Disjoint-footprint tasks commit through different shard locks, so
//! raising the count relieves commit-path contention; per-shard commit,
//! history and lock-wait statistics land in the metrics registry under
//! `shard.*`.
//!
//! Tasks are dispatched as the paper's `DOPARALLEL` does: from one
//! shared counter in submission order, with an aborted attempt retried
//! at once. No retry budget is needed: an attempt aborts only on a
//! conflict with a commit made since it began, so every abort is paid
//! for by another task's progress.
//!
//! The robustness flags drive the failure model: `--panic-policy
//! isolate` survives task-body panics (the failed tasks are listed and
//! the state check is skipped), `--watchdog-ms N` arms the
//! commit-clock watchdog, and `--fault-seed`/`--fault-rate` inject
//! deterministic, seeded faults (panics, forced conflicts, commit
//! stalls, cache misses) for chaos testing.

use std::process::ExitCode;
use std::sync::Arc;

use janus::core::{Janus, PanicPolicy};
use janus::detect::{CachedSequenceDetector, ConflictDetector, SequenceDetector, WriteSetDetector};
use janus::fault::silence_injected_panics;
use janus::obs::{chrome_trace_json, text_report, MetricsRegistry, Recorder, Snapshot};
use janus::sat::global_solver_stats;
use janus::train::{train, CommutativityCache, FrozenCache, OnlineLearningCache, TrainConfig};
use janus::workloads::{all_workloads, training_runs, workload_by_name, InputSpec, Workload};

mod cli;

use cli::{usage_error, Args, Runtime};

const USAGE: &str = "usage:
  janus-run list
  janus-run train <workload> [--no-abstraction] [--cache FILE]
  janus-run run <workload> [--detector write-set|sequence|cached|online-learning]
                           [--threads N] [--shards N] [--scale N] [--seed N] [--cache FILE]
                           [--panic-policy poison|isolate] [--watchdog-ms N]
                           [--fault-seed N] [--fault-rate R]
                           [--trace FILE] [--metrics]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn cache_path(args: &Args, workload: &str) -> String {
    args.value("cache")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{workload}.janus-cache"))
}

fn cmd_list() -> ExitCode {
    println!("{:<12} {:<16} ordered  patterns", "name", "source");
    for w in all_workloads() {
        println!(
            "{:<12} {:<16} {:<8} {}",
            w.name(),
            w.source(),
            w.ordered(),
            w.patterns().join(", ")
        );
    }
    ExitCode::SUCCESS
}

fn cmd_train(args: &Args) -> ExitCode {
    let Some(name) = args.positional.get(1) else {
        return usage();
    };
    let Some(workload) = workload_by_name(name) else {
        eprintln!("unknown workload {name:?}; try `janus-run list`");
        return ExitCode::FAILURE;
    };
    let use_abstraction = !args.flag("no-abstraction");
    eprintln!(
        "training {name} on {:?} (abstraction={use_abstraction})...",
        workload.training_inputs()
    );
    let runs = training_runs(workload.as_ref());
    let (cache, report) = train(
        &runs,
        TrainConfig {
            use_abstraction,
            verify_symbolic: true,
        },
    );
    println!(
        "mined {} pairs -> {} entries ({} rejected; symbolic proofs {}/{})",
        report.pairs_mined,
        report.entries_added,
        report.pairs_rejected,
        report.symbolic_proved,
        report.symbolic_attempted,
    );
    let solver = global_solver_stats();
    if solver.decisions + solver.propagations > 0 {
        println!(
            "solver: {} decisions  {} conflicts  {} propagations  {} restarts",
            solver.decisions, solver.conflicts, solver.propagations, solver.restarts,
        );
    }
    let path = cache_path(args, name);
    if let Err(e) = std::fs::write(&path, cache.to_text()) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("cache written to {path}");
    ExitCode::SUCCESS
}

enum CacheLoadError {
    /// The file is absent or unreadable: the user has not trained yet.
    Unreadable(String),
    /// The file exists but fails version, parse or checksum validation.
    Corrupt(String),
}

fn load_cache(path: &str) -> Result<CommutativityCache, CacheLoadError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CacheLoadError::Unreadable(format!("cannot read {path}: {e}")))?;
    CommutativityCache::from_text(&text)
        .map_err(|e| CacheLoadError::Corrupt(format!("{path}: {e}")))
}

fn cmd_run(args: &Args) -> ExitCode {
    let Some(name) = args.positional.get(1) else {
        return usage();
    };
    let Some(workload) = workload_by_name(name) else {
        eprintln!("unknown workload {name:?}; try `janus-run list`");
        return ExitCode::FAILURE;
    };
    let w: &dyn Workload = workload.as_ref();
    let default_input = w.production_inputs()[0];
    let flags = (|| -> Result<_, String> {
        Ok((
            Runtime::parse(args)?,
            args.numeric::<usize>("scale", default_input.scale)?,
            args.numeric::<u64>("seed", default_input.seed)?,
            args.one_of(
                "detector",
                &["sequence", "write-set", "cached", "online-learning"],
            )?,
        ))
    })();
    let (rt, scale, seed, detector_name) = match flags {
        Ok(flags) => flags,
        Err(e) => return usage_error(USAGE, &e),
    };
    let input = InputSpec::new(scale, default_input.degree, seed);

    let relax = w.relaxations();
    let mut cache_for_metrics: Option<Arc<FrozenCache>> = None;
    let detector: Arc<dyn ConflictDetector> = match detector_name {
        "write-set" => Arc::new(WriteSetDetector::new()),
        "online-learning" => {
            let mut d =
                CachedSequenceDetector::with_relaxations(OnlineLearningCache::new(true), relax);
            if let Some(plan) = &rt.faults {
                d = d.with_faults(Arc::clone(plan));
            }
            Arc::new(d)
        }
        "cached" => {
            let path = cache_path(args, name);
            match load_cache(&path) {
                Ok(cache) => {
                    // Freeze at the load/production boundary: queries
                    // from the worker threads run against the immutable
                    // hash-indexed form, lock-free.
                    let cache = Arc::new(cache.freeze());
                    eprintln!("loaded {} cache entries from {path} (frozen)", cache.len());
                    cache_for_metrics = Some(Arc::clone(&cache));
                    let mut d = CachedSequenceDetector::with_relaxations(cache, relax);
                    if let Some(plan) = &rt.faults {
                        d = d.with_faults(Arc::clone(plan));
                    }
                    Arc::new(d)
                }
                Err(CacheLoadError::Unreadable(e)) => {
                    eprintln!("{e}\nhint: run `janus-run train {name}` first");
                    return ExitCode::FAILURE;
                }
                Err(CacheLoadError::Corrupt(e)) => {
                    // A rotten cache must not take the run down — only
                    // its speed: fall back to the oracle-free detector.
                    eprintln!(
                        "warning: {e}\nwarning: ignoring the corrupt cache; falling back to \
                         write-set detection (retrain with `janus-run train {name}`)"
                    );
                    Arc::new(WriteSetDetector::new())
                }
            }
        }
        _ => Arc::new(SequenceDetector::with_relaxations(relax)),
    };

    eprintln!(
        "running {name} (scale={scale}, seed={seed}) on {} threads under {detector_name}...",
        rt.threads
    );
    let trace_path = args.value("trace").map(str::to_string);
    let want_metrics = args.flag("metrics");
    let recorder = (trace_path.is_some() || want_metrics).then(Recorder::new);
    let scenario = w.build(&input);
    let mut janus = rt
        .apply(Janus::new(Arc::clone(&detector)))
        .ordered(w.ordered());
    if let Some(rec) = &recorder {
        janus = janus.recorder(Arc::clone(rec));
    }
    if rt.panic_policy == PanicPolicy::Isolate && rt.faults.is_some() {
        // Injected panics are expected by construction: keep their
        // backtraces out of the chaos run's output. Under `poison` the
        // panic message is the run's only report, so it stays.
        silence_injected_panics();
    }
    let outcome = janus.run(scenario.store, scenario.tasks);

    // A workload's state check assumes every task committed; once tasks
    // were isolated, the invariant no longer applies.
    let (ok, state) = if outcome.failed.is_empty() {
        let ok = (scenario.check)(&outcome.store);
        (ok, if ok { "ok" } else { "INVALID" })
    } else {
        (true, "skipped (failed tasks)")
    };
    println!(
        "commits: {}  retries: {}  retry/txn: {:.3}  wall: {:?}  gc-reclaimed: {}  state: {}",
        outcome.stats.commits,
        outcome.stats.retries,
        outcome.stats.retry_ratio(),
        outcome.stats.wall,
        outcome.stats.history_reclaimed,
        state,
    );
    let robust =
        outcome.stats.faults_injected + outcome.stats.tasks_failed + outcome.stats.watchdog_fires;
    if rt.faults.is_some() || robust > 0 {
        println!(
            "robustness: {} faults injected  {} tasks failed  {} watchdog fires",
            outcome.stats.faults_injected, outcome.stats.tasks_failed, outcome.stats.watchdog_fires,
        );
    }
    if !outcome.failed.is_empty() {
        println!("failed tasks ({}):", outcome.failed.len());
        for f in &outcome.failed {
            println!(
                "  task {}: {} (after {} attempts)",
                f.task, f.message, f.attempts
            );
        }
    }
    println!(
        "detection: {} ops scanned  {} cells checked  {} windows zero-copy  {} delta re-validations",
        outcome.stats.detect_ops_scanned,
        detector.stats().cells_checked(),
        outcome.stats.zero_copy_windows,
        outcome.stats.delta_revalidations,
    );
    println!(
        "fast path: {} segments skipped by fingerprint  {} segments scanned",
        outcome.stats.fastpath_segments_skipped, outcome.stats.fastpath_segments_scanned,
    );
    let by_class = detector.stats().conflicts_by_class();
    if !by_class.is_empty() {
        println!("conflicting classes:");
        for (class, n) in by_class.into_iter().take(6) {
            println!("  {class}: {n}");
        }
    }
    let solver = global_solver_stats();
    if solver.decisions + solver.propagations > 0 {
        println!(
            "solver: {} decisions  {} conflicts  {} propagations  {} restarts",
            solver.decisions, solver.conflicts, solver.propagations, solver.restarts,
        );
    }

    if let Some(rec) = recorder {
        let trace = rec.finish();
        if let Some(path) = &trace_path {
            if let Err(e) = std::fs::write(path, chrome_trace_json(&trace)) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "trace written to {path} ({} events, {} dropped; load in chrome://tracing)",
                trace.len(),
                trace.dropped()
            );
        }
        if want_metrics {
            let mut metrics = MetricsRegistry::new();
            metrics.absorb(&outcome.stats);
            metrics.absorb(&outcome.sched);
            metrics.absorb(&outcome.shard_stats);
            metrics.merge_histogram("shard.lock_wait_ns", &outcome.shard_stats.lock_wait_ns());
            metrics.absorb(detector.stats() as &dyn Snapshot);
            if let Some(cache) = &cache_for_metrics {
                metrics.absorb(cache.stats());
            }
            if let Some(plan) = &rt.faults {
                metrics.absorb(plan.stats());
            }
            metrics.absorb(&global_solver_stats());
            metrics.absorb_trace(&trace);
            println!("--- metrics ---");
            print!("{}", metrics.render());
            println!("{}", text_report(&trace, 6));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(
        &["detector", "scale", "seed", "cache", "trace"],
        &["no-abstraction", "metrics"],
    ) {
        Ok(args) => args,
        Err(e) => return usage_error(USAGE, &e),
    };
    match args.positional.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("train") => cmd_train(&args),
        Some("run") => cmd_run(&args),
        _ => usage(),
    }
}
