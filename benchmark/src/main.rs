//! `bench` — the benchmark's one command.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//!     One run. The last line of stdout is the result object
//!     {"correct", "attempted", "failed", "metrics"}: the end-to-end
//!     metrics with --trace 0, the per-layer metrics with --trace 1.
//! bench run --all [--seed N] [--seconds S] [--repeat K] [--smoke] [--out FILE]
//!     Every workload, untraced (K times, seeds N..N+K) and traced (once),
//!     each run in a process of its own; prints every metric and writes a
//!     result file.
//! bench compare A.json B.json
//!     Two result files against the bounds in BENCHMARK.json.
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::process::{Command, ExitCode};
use std::time::Duration;

use janus_benchmark::compare::{compare, render, Verdict};
use janus_benchmark::json::Json;
use janus_benchmark::report::{Declared, MetricDef};
use janus_benchmark::run::{checkout_root, run_one, Env, Size, END_TO_END, PER_LAYER, WORKLOADS};
use janus_benchmark::stats::{median, spread};

/// The seed of the committed baseline (the paper's publication date).
const DEFAULT_SEED: u64 = 20120611;
/// A single run that takes longer than this is abandoned.
const SINGLE_RUN_LIMIT: Duration = Duration::from_secs(170);

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n  \
         bench run --all [--seed N] [--seconds S] [--repeat K] [--smoke] [--out FILE]\n  \
         bench compare A.json B.json\nworkloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

/// `--name value` pairs and bare `--flags`, in any order.
struct Flags(BTreeMap<String, Option<String>>);

impl Flags {
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Flags, String> {
        let mut flags = BTreeMap::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {arg:?}"))?;
            if valued.contains(&name) {
                let value = iter.next().ok_or(format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), Some(value.clone()));
            } else if bare.contains(&name) {
                flags.insert(name.to_string(), None);
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(Flags(flags))
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.get(name) {
            None => Ok(None),
            Some(v) => v
                .as_deref()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or(format!("--{name}: invalid value {v:?}")),
        }
    }
}

/// Reads `BENCHMARK.json` and checks it names what the code measures.
fn declared() -> Result<Declared, String> {
    let path = checkout_root().join("BENCHMARK.json");
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let declared = Declared::parse(&text)?;
    let names = |defs: &[MetricDef]| defs.iter().map(|d| d.name.clone()).collect::<Vec<_>>();
    if declared.workloads != WORKLOADS
        || names(&declared.end_to_end) != END_TO_END
        || names(&declared.per_layer) != PER_LAYER
    {
        return Err(
            "BENCHMARK.json and the benchmark's code name different workloads or metrics".into(),
        );
    }
    Ok(declared)
}

fn print_metrics(title: &str, defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) {
    println!("{title}");
    for d in defs {
        if let Some(v) = values.get(d.name.as_str()) {
            println!("  {:<34} {:>16.4} {}", d.name, v, d.unit);
        }
    }
}

/// The driver's entry: one run, result object last on stdout.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"], &["smoke"])?;
    let size = if flags.has("smoke") {
        Size::Smoke
    } else {
        Size::Full
    };
    let workload: String = flags.get("workload")?.ok_or("--workload is required")?;
    let seed = flags.get("seed")?.unwrap_or(DEFAULT_SEED);
    let traced = match flags.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other}")),
    };
    let env = Env::prepare()?;
    let declared = declared()?;
    let seconds = flags.get("seconds")?.unwrap_or(declared.run_seconds as f64);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }

    std::thread::spawn(|| {
        std::thread::sleep(SINGLE_RUN_LIMIT);
        eprintln!("bench: run exceeded {SINGLE_RUN_LIMIT:?}; giving up");
        std::process::exit(3);
    });

    let result = run_one(&env, &workload, seed, seconds, traced, size)?;
    let defs = if traced {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    print_metrics(
        &format!(
            "{workload} seed={seed} seconds={seconds} trace={}",
            traced as u8
        ),
        defs,
        &result.values,
    );
    for note in &result.tally.notes {
        eprintln!("FAILED: {note}");
    }
    let line = Json::obj([
        ("correct", Json::Bool(result.tally.correct())),
        ("attempted", Json::Num(result.tally.attempted as f64)),
        ("failed", Json::Num(result.tally.failed as f64)),
        ("metrics", Declared::metrics_json(defs, &result.values)?),
    ]);
    println!("{}", line.render());
    Ok(if result.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn git_commit(env: &Env) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&env.root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// One run in a process of its own — exactly what the driver starts —
/// so that no run inherits another's heap or peak memory. Echoes the
/// child's table and returns its result object.
fn run_in_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout.trim_end().rsplit_once('\n').ok_or(format!(
        "{workload}: the run printed no result ({})",
        output.status
    ))?;
    println!("{table}");
    Json::parse(line).map_err(|e| format!("{workload}: unreadable result line: {e}"))
}

/// `run --all`: every workload, both trace modes, one result file.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["seed", "seconds", "repeat", "out"],
        &["all", "smoke"],
    )?;
    if !flags.has("all") {
        return Err("run: only `run --all` is supported".into());
    }
    let env = Env::prepare()?;
    let declared = declared()?;
    let smoke = flags.has("smoke");
    let seed = flags.get("seed")?.unwrap_or(DEFAULT_SEED);
    let repeat: u64 = flags.get("repeat")?.unwrap_or(1).max(1);
    let seconds = match flags.get("seconds")? {
        Some(s) => s,
        None if smoke => 1.0,
        None => declared.run_seconds as f64,
    };
    let out = flags.get::<String>("out")?.map_or_else(
        || env.out.join(format!("result-{seed}.json")),
        std::path::PathBuf::from,
    );

    let mut correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut book = |result: &Json| {
            let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            attempted += count("attempted");
            // A run that does not say it was correct counts as failed.
            failed +=
                count("failed").max(f64::from(result.get("correct") != Some(&Json::Bool(true))));
        };

        // End to end: untraced only, one seed per repetition.
        let mut runs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for k in 0..repeat {
            let result = run_in_child(workload, seed + k, seconds, false, smoke)?;
            book(&result);
            for d in &declared.end_to_end {
                let v = result
                    .get("metrics")
                    .and_then(|m| m.get(&d.name)?.get("value")?.as_f64())
                    .ok_or(format!("{workload}: no {} in the result", d.name))?;
                runs.entry(&d.name).or_default().push(v);
            }
        }
        let end_to_end = declared.end_to_end.iter().map(|d| {
            let values = &runs[d.name.as_str()];
            let mut m = vec![
                ("value", Json::Num(median(values))),
                ("unit", Json::Str(d.unit.clone())),
                (
                    "runs",
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ];
            if values.len() >= 4 {
                m.push(("spread", Json::Num(spread(values))));
            }
            (d.name.clone(), Json::obj(m))
        });
        if repeat > 1 {
            println!("{workload}: medians of {repeat} untraced runs");
            for d in &declared.end_to_end {
                let values = &runs[d.name.as_str()];
                println!(
                    "  {:<34} {:>16.4} {}  (spread {:.2}%)",
                    d.name,
                    median(values),
                    d.unit,
                    spread(values) * 100.0
                );
            }
        }

        // Per layer: the traced run.
        let result = run_in_child(workload, seed, seconds, true, smoke)?;
        book(&result);
        let per_layer = result
            .get("metrics")
            .cloned()
            .ok_or(format!("{workload}: no metrics in the traced result"))?;

        correct &= failed == 0.0;
        workloads.push((
            workload,
            Json::obj([
                ("correct", Json::Bool(failed == 0.0)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", per_layer),
            ]),
        ));
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        (
            "header",
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("seed", Json::Num(seed as f64)),
                ("repeat", Json::Num(repeat as f64)),
                ("run_seconds", Json::Num(seconds)),
                ("smoke", Json::Bool(smoke)),
                ("git_commit", Json::Str(git_commit(&env))),
                ("timeline", Json::Str("wall".into())),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    fs::write(&out, doc.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result written to {}", out.display());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare wants exactly two result files".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        Json::parse(&fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let declared = declared()?;
    let rows = compare(&declared, &read(a)?, &read(b)?)?;
    println!("A = {a}\nB = {b}\n{}", render(&rows));
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(flag) if flag.starts_with("--") => single(&args),
        _ => return usage(),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
