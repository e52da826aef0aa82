//! Regenerates the tables and figures of the JANUS evaluation (§7):
//! Tables 5 and 6, Figure 9 (speedup, in virtual time), Figure 10
//! (retries per transaction), Figure 11 (cache miss rates) and the
//! write-set conflict classes behind §7.2.
//!
//! ```text
//! figures [--table5] [--table6] [--fig9] [--fig10] [--fig11] [--classes]
//!         [--all] [--quick]
//! ```
//!
//! With no selection flags, `--all` is assumed. `--quick` scales the
//! production inputs down for smoke runs. Any other argument is a usage
//! error (exit 2).

use std::process::ExitCode;

use janus_bench::experiments::{
    conflict_classes, figure11, headline, speedup_retry_grid, table5, table6, GridPoint,
    THREAD_GRID,
};
use janus_bench::report::{bar, f2, pct, render_table};

const USAGE: &str = "usage: figures [--table5] [--table6] [--fig9] [--fig10] [--fig11] \
[--classes] [--all] [--quick]";

/// The selection flags; none of them given means `--all`.
const SECTIONS: [&str; 6] = [
    "--table5",
    "--table6",
    "--fig9",
    "--fig10",
    "--fig11",
    "--classes",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| !SECTIONS.contains(&a.as_str()) && *a != "--all" && *a != "--quick")
    {
        eprintln!("error: unknown argument {bad:?}\n{USAGE}");
        return ExitCode::from(2);
    }
    let has = |f: &str| args.iter().any(|a| a == f);
    let quick = has("--quick");
    let all = has("--all") || !SECTIONS.iter().any(|f| has(f));

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
    ExitCode::SUCCESS
}
