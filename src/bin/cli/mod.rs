//! The command-line front end `janus-run` and `janus-serve` share: one
//! flag grammar, and one parser for the runtime flags both hand to
//! [`Janus`].
//!
//! Flags are `--name value` or a bare `--flag`. A value never starts
//! with `--`, so `--cache --metrics` is a missing value, not a cache
//! file named `--metrics`. Unknown flags, missing values, garbage
//! numbers and out-of-range counts are all errors; each binary prints
//! them as `error: …` followed by its usage and exits 2.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use janus::core::{Janus, PanicPolicy};
use janus::fault::FaultPlan;

/// The value flags [`Runtime::parse`] reads; every binary accepts them.
const RUNTIME_FLAGS: &[&str] = &[
    "threads",
    "shards",
    "panic-policy",
    "watchdog-ms",
    "fault-seed",
    "fault-rate",
];

/// Prints `error: {error}` and the binary's `usage`, and returns the
/// usage-error exit code 2.
pub fn usage_error(usage: &str, error: &str) -> ExitCode {
    eprintln!("error: {error}\n{usage}");
    ExitCode::from(2)
}

/// A parsed command line: positional words in order, and flags.
pub struct Args {
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process arguments. `values` and `bools` are the
    /// binary's own value and bare flags; the runtime flags are always
    /// accepted.
    pub fn parse(values: &[&str], bools: &[&str]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positional.push(arg);
                continue;
            };
            if values.contains(&name) || RUNTIME_FLAGS.contains(&name) {
                let value = iter
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag --{name} requires a value"))?;
                flags.push((name.to_string(), Some(value)));
            } else if bools.contains(&name) {
                flags.push((name.to_string(), None));
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(Args { positional, flags })
    }

    /// Whether the bare flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value of `--name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A numeric flag value, defaulting when absent, erroring on garbage
    /// (instead of silently substituting the default).
    pub fn numeric<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: invalid value {v:?}")),
        }
    }

    /// A numeric flag that must be at least 1.
    pub fn positive<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: FromStr + PartialOrd + From<u8> + Display,
    {
        let n = self.numeric(name, default)?;
        if n < T::from(1) {
            return Err(format!("flag --{name}: expected at least 1, got {n}"));
        }
        Ok(n)
    }

    /// A flag naming one of `choices`; absent means the first.
    pub fn one_of<'c>(&self, name: &str, choices: &[&'c str]) -> Result<&'c str, String> {
        let Some(v) = self.value(name) else {
            return Ok(choices[0]);
        };
        choices
            .iter()
            .copied()
            .find(|&c| c == v)
            .ok_or_else(|| format!("flag --{name}: expected {}, got {v:?}", choices.join("|")))
    }
}

/// The runtime flags both binaries hand to [`Janus`]: `--threads`,
/// `--shards`, `--panic-policy`, `--watchdog-ms` and the fault plan of
/// `--fault-seed`/`--fault-rate`.
pub struct Runtime {
    pub threads: usize,
    pub shards: usize,
    pub panic_policy: PanicPolicy,
    pub watchdog: Option<Duration>,
    /// Set when either fault flag is given; the other takes its default.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Runtime {
    /// Reads and range-checks the runtime flags.
    pub fn parse(args: &Args) -> Result<Runtime, String> {
        let shards = args.numeric("shards", 8)?;
        if !(1..=64).contains(&shards) {
            return Err(format!(
                "flag --shards: expected a count in 1..=64, got {shards}"
            ));
        }
        let watchdog_ms = args.numeric::<u64>("watchdog-ms", 0)?;
        let fault_seed = args.numeric::<u64>("fault-seed", 0)?;
        let fault_rate = args.numeric("fault-rate", FaultPlan::DEFAULT_RATE)?;
        if !(0.0..=1.0).contains(&fault_rate) {
            return Err(format!(
                "flag --fault-rate: expected a rate in [0, 1], got {fault_rate}"
            ));
        }
        let faulted = args.value("fault-seed").is_some() || args.value("fault-rate").is_some();
        Ok(Runtime {
            threads: args.positive("threads", 4)?,
            shards,
            panic_policy: match args.one_of("panic-policy", &["poison", "isolate"])? {
                "isolate" => PanicPolicy::Isolate,
                _ => PanicPolicy::Poison,
            },
            watchdog: (watchdog_ms > 0).then(|| Duration::from_millis(watchdog_ms)),
            faults: faulted.then(|| Arc::new(FaultPlan::seeded(fault_seed, fault_rate))),
        })
    }

    /// Applies every runtime flag to `janus`.
    pub fn apply(&self, janus: Janus) -> Janus {
        let mut janus = janus
            .threads(self.threads)
            .shards(self.shards)
            .panic_policy(self.panic_policy);
        if let Some(interval) = self.watchdog {
            janus = janus.watchdog(interval);
        }
        if let Some(plan) = &self.faults {
            janus = janus.faults(Arc::clone(plan));
        }
        janus
    }
}
