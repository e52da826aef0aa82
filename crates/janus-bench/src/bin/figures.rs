//! Regenerates every table and figure of the JANUS evaluation (§7).
//!
//! ```text
//! figures [--table5] [--table6] [--fig9] [--fig10] [--fig11] [--classes]
//!         [--pipeline] [--attribution] [--durability]
//!         [--all] [--quick]
//! ```
//!
//! With no selection flags, `--all` is assumed. `--quick` scales the
//! production inputs down for smoke runs.

use janus_bench::experiments::{
    attribution_traces, block_pipeline, commit_pipeline, conflict_classes, figure11, headline,
    pipeline_counters, speedup_retry_grid, table5, table6, GridPoint, THREAD_GRID,
};
use std::sync::Arc;

use janus_bench::report::{bar, f2, pct, render_table};
use janus_core::{Janus, Store, Task};
use janus_detect::SequenceDetector;
use janus_fault::{silence_injected_panics, CrashSite, FaultKind, FaultPlan, FaultSite};
use janus_obs::{text_report, MetricsRegistry};
use janus_relational::Value;
use janus_wal::{recover, FsyncPolicy, Wal};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let quick = has("--quick");
    let all = has("--all")
        || !(has("--table5")
            || has("--table6")
            || has("--fig9")
            || has("--fig10")
            || has("--fig11")
            || has("--classes")
            || has("--pipeline")
            || has("--attribution")
            || has("--durability"));

    if all || has("--table5") {
        println!("== Table 5: benchmark characteristics ==");
        println!(
            "{}",
            render_table(
                &["name", "source", "description", "prevalent patterns"],
                &table5()
            )
        );
    }

    if all || has("--table6") {
        println!("== Table 6: training and production inputs ==");
        println!(
            "{}",
            render_table(
                &["name", "input", "training data", "production data"],
                &table6()
            )
        );
    }

    let need_grid = all || has("--fig9") || has("--fig10");
    let grid: Vec<GridPoint> = if need_grid {
        eprintln!("running the Figure 9/10 grid (quick={quick})...");
        speedup_retry_grid(quick)
    } else {
        Vec::new()
    };

    if all || has("--fig9") {
        println!("== Figure 9: speedup vs sequential (virtual-time simulation) ==");
        let max_speedup = grid.iter().map(|p| p.speedup).fold(0.0f64, f64::max);
        let mut rows = Vec::new();
        for p in &grid {
            rows.push(vec![
                p.workload.to_string(),
                p.detector.to_string(),
                p.threads.to_string(),
                f2(p.speedup),
                bar(p.speedup, max_speedup, 24),
                if p.check_ok { "ok" } else { "WRONG" }.to_string(),
            ]);
        }
        println!(
            "{}",
            render_table(
                &["workload", "detector", "threads", "speedup", "", "state"],
                &rows
            )
        );
        let h = headline(&grid, *THREAD_GRID.last().expect("non-empty grid"));
        println!(
            "headline @ {} threads: sequence mean speedup {} (max {}), write-set mean {}",
            h.threads,
            f2(h.seq_mean_speedup),
            f2(h.seq_max_speedup),
            f2(h.ws_mean_speedup),
        );
        println!("paper @ 8 threads: sequence mean 1.5x (max ~2.5x), write-set mean 0.6x\n");
    }

    if all || has("--fig10") {
        println!("== Figure 10: retries per transaction ==");
        let mut rows = Vec::new();
        for p in &grid {
            rows.push(vec![
                p.workload.to_string(),
                p.detector.to_string(),
                p.threads.to_string(),
                p.retries.to_string(),
                f2(p.retry_ratio()),
            ]);
        }
        println!(
            "{}",
            render_table(
                &["workload", "detector", "threads", "retries", "retries/txn"],
                &rows
            )
        );
        let h = headline(&grid, *THREAD_GRID.last().expect("non-empty grid"));
        let factor = if h.seq_mean_retry_ratio > 0.0 {
            h.ws_mean_retry_ratio / h.seq_mean_retry_ratio
        } else {
            f64::INFINITY
        };
        println!(
            "headline @ {} threads: sequence {} retries/txn, write-set {} ({}x more)",
            h.threads,
            f2(h.seq_mean_retry_ratio),
            f2(h.ws_mean_retry_ratio),
            if factor.is_finite() {
                f2(factor)
            } else {
                "inf".to_string()
            },
        );
        println!("paper @ 8 threads: sequence 0.07, write-set 1.51 (22x more)\n");
    }

    if all || has("--classes") {
        eprintln!("attributing write-set conflicts to classes (quick={quick})...");
        println!("== Conflicting shared structures under write-set detection @ 8 threads ==");
        let rows: Vec<Vec<String>> = conflict_classes(quick)
            .into_iter()
            .map(|(w, c, n)| vec![w, c, n.to_string()])
            .collect();
        println!(
            "{}",
            render_table(&["workload", "class", "conflicting cells"], &rows)
        );
    }

    if all || has("--pipeline") {
        eprintln!("running the commit-pipeline comparison (quick={quick})...");
        println!("== Commit pipeline: validation cost vs window size (4 clock advances) ==");
        let rows: Vec<Vec<String>> = commit_pipeline(quick)
            .iter()
            .map(|r| {
                vec![
                    r.segments.to_string(),
                    r.window_ops.to_string(),
                    format!("{:.1}", r.flat_secs * 1e6),
                    format!("{:.1}", r.incremental_secs * 1e6),
                    f2(r.speedup()),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "segments",
                    "window ops",
                    "flat-reclone (us)",
                    "incremental (us)",
                    "speedup"
                ],
                &rows
            )
        );
        let (s, shards) = pipeline_counters(quick);
        println!(
            "live run @ 4 threads: {} commits, {} retries, {} windows served zero-copy, \
             {} delta re-validations, {} ops scanned",
            s.commits, s.retries, s.zero_copy_windows, s.delta_revalidations, s.detect_ops_scanned,
        );
        println!(
            "fingerprint fast path: {} segments skipped in O(1), {} segments scanned",
            s.fastpath_segments_skipped, s.fastpath_segments_scanned,
        );
        let busy: Vec<String> = shards
            .0
            .iter()
            .filter(|sh| sh.commits > 0 || sh.pruned > 0)
            .map(|sh| {
                format!(
                    "s{}: {} commits, {} pruned, lock-wait p99<={}ns",
                    sh.shard,
                    sh.commits,
                    sh.pruned,
                    sh.lock_wait_ns.percentile(99.0)
                )
            })
            .collect();
        println!(
            "sharded store: {} of {} shards active ({}); merged lock-wait {}",
            busy.len(),
            shards.0.len(),
            busy.join("; "),
            shards.lock_wait_ns().render(),
        );
        println!("(flat-reclone re-copies the whole window at every clock advance; the pipeline scans only deltas)\n");

        eprintln!("running the block-pipeline comparison (quick={quick})...");
        println!("== Block pipeline: barrier vs depth-2 pipelined stream (real timeline) ==");
        let points = block_pipeline(quick);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.mode.to_string(),
                    format!("{:.1}ms", p.wall_secs * 1e3),
                    format!("{:.0}", p.txns_per_s()),
                    p.report.gate_waits.to_string(),
                    p.report.overlapped_commits.to_string(),
                    format!("{}", p.report.overlap_permille),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "mode",
                    "wall",
                    "txn/s",
                    "gate waits",
                    "overlapped commits",
                    "overlap (permille)"
                ],
                &rows
            )
        );
        if let [barrier, pipelined] = points.as_slice() {
            println!(
                "block-pipeline headline: {}x sustained throughput from overlapping execution \
                 with the predecessor's commit\n",
                f2(pipelined.txns_per_s() / barrier.txns_per_s()),
            );
        }
    }

    if all || has("--attribution") {
        eprintln!("recording lifecycle traces under write-set detection (quick={quick})...");
        println!("== Abort attribution: lifecycle traces under write-set detection ==");
        // The faulted attribution entry injects panics on purpose.
        silence_injected_panics();
        for (name, trace, stats) in attribution_traces(quick) {
            let consistent = trace.count("commit") == stats.commits
                && trace.count("abort") == stats.retries + stats.tasks_failed
                && trace.check_well_formed().is_ok();
            println!(
                "-- {name} (trace consistency: {}) --",
                if consistent { "ok" } else { "BROKEN" }
            );
            if stats.faults_injected > 0 || stats.tasks_failed > 0 {
                println!(
                    "robustness: {} faults injected, {} tasks failed, {} watchdog fires",
                    stats.faults_injected, stats.tasks_failed, stats.watchdog_fires,
                );
            }
            println!("{}", text_report(&trace, 5));
        }
    }

    if all || has("--fig11") {
        eprintln!("running the Figure 11 experiment (quick={quick})...");
        println!("== Figure 11: unique-query cache miss rate @ 8 threads ==");
        let rows: Vec<Vec<String>> = figure11(quick)
            .iter()
            .map(|r| {
                vec![
                    r.workload.to_string(),
                    pct(r.miss_with()),
                    pct(r.miss_without()),
                    format!("{}/{}", r.with_abstraction.0, r.with_abstraction.1),
                    format!("{}/{}", r.without_abstraction.0, r.without_abstraction.1),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "workload",
                    "miss (abs)",
                    "miss (no abs)",
                    "hits/misses (abs)",
                    "hits/misses (no abs)"
                ],
                &rows
            )
        );
        println!("paper: ≤17% average miss rate with abstraction (worst 30%), 38% without (worst ~80%)\n");
    }

    if all || has("--durability") {
        eprintln!("running the durability demo (journal, mid-write kill, recovery)...");
        println!("== Durability: commit journal, mid-write kill, recovery ==");
        let dir = std::path::Path::new("target/tmp/figures-wal");
        let _ = std::fs::remove_dir_all(dir);
        let accounts_n = 16usize;
        let tasks_n: usize = if quick { 16 } else { 48 };
        let crash_at = (tasks_n / 2) as u64;

        // Every boot reconstructs the same base store; only the journal
        // carries history across the kill.
        let mk_store = || {
            let mut s = Store::new();
            let locs: Vec<_> = (0..accounts_n)
                .map(|i| s.alloc(format!("acct{i}").as_str(), Value::int(0)))
                .collect();
            (s, locs)
        };

        // Run 1: a transfer stream journaled under group commit, with a
        // deterministic kill landing mid-write of one ticket's record.
        let (store, locs) = mk_store();
        let plan = Arc::new(FaultPlan::from_sites(vec![FaultSite {
            kind: FaultKind::CrashPoint,
            subject: crash_at,
            attempt: CrashSite::PostAppendPreFsync.attempt(),
        }]));
        let wal = Wal::open_with_faults(dir, FsyncPolicy::EveryN(4), 0, Some(plan))
            .expect("open journal");
        let tasks: Vec<Task> = (0..tasks_n)
            .map(|i| {
                let src = locs[i % accounts_n];
                let dst = locs[(i * 7 + 3) % accounts_n];
                Task::new(move |tx| {
                    tx.add(src, -5);
                    tx.add(dst, 5);
                })
            })
            .collect();
        let _ = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .commit_sink(wal.sink())
            .run(store, tasks);
        println!(
            "run 1: {tasks_n} transfers journaled under every-n:4; the process dies mid-write \
             of ticket {crash_at}'s record"
        );
        // The barrier lets the journal thread reach the crash point.
        wal.flush().expect("a crashed journal's barrier is a no-op");
        drop(wal);

        // Run 2: recover from the journal, then shut down cleanly
        // (snapshot, truncate, clean marker).
        let (base, locs2) = mk_store();
        let rec = recover(dir, base).expect("recover");
        let balance: i64 = locs2
            .iter()
            .map(|&l| rec.store.value(l).and_then(Value::as_int).unwrap_or(0))
            .sum();
        println!(
            "run 2: recovered commit_seq={} ({} commits replayed, {} torn tail truncated, \
             balance conserved: {})",
            rec.commit_seq,
            rec.commits_replayed,
            rec.torn_tail_truncations,
            if balance == 0 { "ok" } else { "BROKEN" },
        );
        let wal2 =
            Wal::open(dir, FsyncPolicy::EveryN(4), rec.commit_seq).expect("open after recovery");
        wal2.stats().note_recovery(&rec);
        wal2.snapshot_and_truncate(&rec.store).expect("snapshot");
        wal2.mark_clean().expect("clean marker");
        let mut m = MetricsRegistry::new();
        m.absorb(wal2.stats().as_ref());
        println!("-- wal counters (run 2: recovery, snapshot, clean shutdown) --");
        println!("{}", m.render());
        drop(wal2);

        // Run 3: the clean marker and snapshot make the next boot
        // trivial — nothing to replay, no tail to scan.
        let again = recover(dir, mk_store().0).expect("recover again");
        println!(
            "run 3: clean={} snapshot={:?} commit_seq={} records_replayed={} — the snapshot \
             absorbed the history\n",
            again.clean, again.snapshot_seq, again.commit_seq, again.commits_replayed,
        );
    }
}
