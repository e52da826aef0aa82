//! The untraced end-to-end driver: the real `janus-serve` binary as a
//! subprocess, spoken to over its stdin/stdout line protocol by one
//! client thread with one round in flight, then checked against the
//! client's own books — and, for the journaled workload, killed and
//! recovered.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::drive::{drive, Samples, Sent, Target};
use crate::gen::{generate, Profile, Stream, BATCHES_PER_ROUND};
use crate::report::Tally;
use crate::stats::peak_rss_mb;

/// Rounds in the pre-generated pool the driver cycles through.
pub const POOL_ROUNDS: usize = 1024;
/// Rounds sent (and acknowledged) before the timed window opens.
pub const WARMUP_ROUNDS: usize = 64;
/// Accounts the epilogue reads back at most. `janus-serve` rebuilds a
/// whole store snapshot for every `read` (about 4 ms at 4096 accounts),
/// so reading them all would take longer than the measurement; above
/// this count a seeded sample is compared instead. The commit count is
/// checked in full either way, and the traced run's in-process replica
/// compares every account.
pub const AUDITED_ACCOUNTS: usize = 128;
/// The journaled workload's group-commit policy, fixed and stated.
pub const WAL_FSYNC: &str = "every-n:8";

/// One of the three `serve-*` workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Request-stream shape.
    pub profile: Profile,
    /// Whether the server journals (`--wal-dir`, `--wal-fsync every-n:8`).
    pub wal: bool,
}

/// The three `serve-*` workloads.
pub const SERVE_WORKLOADS: [ServeWorkload; 3] = [
    ServeWorkload {
        name: "serve-uniform",
        profile: Profile::UNIFORM,
        wal: false,
    },
    ServeWorkload {
        name: "serve-hot",
        profile: Profile::HOT,
        wal: false,
    },
    // The uniform stream byte for byte; only the journal differs.
    ServeWorkload {
        name: "serve-wal",
        profile: Profile::UNIFORM,
        wal: true,
    },
];

/// Where a run finds the server and keeps its files.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The built `janus-serve`.
    pub server_bin: PathBuf,
    /// This run's private directory under `benchmark/out/`.
    pub scratch: PathBuf,
}

/// What the server said that the client counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProtocolCounts {
    /// `shed` and `closed` lines: batches the server refused.
    pub refused: u64,
    /// `done ... status=failed` lines.
    pub blocks_failed: u64,
    /// `error` lines.
    pub errors: u64,
}

/// The server's `stats` answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct StatsLine {
    /// Batches admitted.
    pub admitted: u64,
    /// Batches shed.
    pub shed: u64,
    /// Transactions committed.
    pub txns_committed: u64,
    /// Blocks failed.
    pub blocks_failed: u64,
    /// Committers that parked on the cross-batch gate.
    pub gate_waits: u64,
    /// Pipeline overlap.
    pub overlap_permille: u64,
}

/// A running `janus-serve` and the client's end of its pipes.
pub struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    line: String,
    /// Protocol answers counted so far.
    pub counts: ProtocolCounts,
}

fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

impl Server {
    /// Boots the server with the benchmark's fixed flags.
    pub fn spawn(ctx: &Ctx, accounts: usize, wal_dir: Option<&Path>) -> Result<Server, String> {
        let log = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(ctx.scratch.join("server.log"))
            .map_err(|e| format!("server log: {e}"))?;
        let mut cmd = Command::new(&ctx.server_bin);
        cmd.args(["--threads", "2", "--shards", "8", "--max-inflight", "32"])
            .args(["--mode", "pipelined", "--detector", "sequence", "--metrics"])
            .args(["--locs", &accounts.to_string()]);
        if let Some(dir) = wal_dir {
            cmd.arg("--wal-dir")
                .arg(dir)
                .args(["--wal-fsync", WAL_FSYNC]);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ctx.server_bin.display()))?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        Ok(Server {
            child,
            stdin,
            stdout,
            line: String::new(),
            counts: ProtocolCounts::default(),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stdin
            .write_all(bytes)
            .map_err(|e| format!("server stdin: {e}"))
    }

    /// Reads lines, counting the routine ones, until one starts with
    /// `prefix`; that line is then [`Server::last`].
    fn read_until(&mut self, prefix: &str) -> Result<(), String> {
        loop {
            self.line.clear();
            let n = self
                .stdout
                .read_line(&mut self.line)
                .map_err(|e| format!("server stdout: {e}"))?;
            if n == 0 {
                return Err(format!("server closed stdout while waiting for {prefix:?}"));
            }
            let line = self.line.trim_end();
            if line.starts_with(prefix) {
                return Ok(());
            } else if line.starts_with("shed ") || line.starts_with("closed ") {
                self.counts.refused += 1;
            } else if line.starts_with("done ") {
                if !line.contains("status=committed") {
                    self.counts.blocks_failed += 1;
                }
            } else if line.starts_with("error") {
                self.counts.errors += 1;
            }
        }
    }

    fn last(&self) -> &str {
        self.line.trim_end()
    }

    /// Sends `drain` and returns the acknowledged commit sequence.
    pub fn drain(&mut self) -> Result<u64, String> {
        self.send(b"drain\n")?;
        self.await_drained()
    }

    fn await_drained(&mut self) -> Result<u64, String> {
        self.read_until("drained ")?;
        let line = self.last();
        field(line, "commit_seq").ok_or(format!("unparseable {line:?}"))
    }

    /// Reads the given accounts with the `read` command.
    pub fn read_accounts(&mut self, indices: &[usize]) -> Result<Vec<i64>, String> {
        let mut values = Vec::with_capacity(indices.len());
        // Chunked so neither pipe ever holds more than a few KiB.
        for chunk in indices.chunks(256) {
            let request: String = chunk.iter().map(|i| format!("read {i}\n")).collect();
            self.send(request.as_bytes())?;
            for i in chunk {
                self.read_until("value ")?;
                let line = self.last();
                let mut words = line.split_whitespace().skip(1);
                let (acct, value) = (words.next(), words.next());
                if acct.and_then(|a| a.parse().ok()) != Some(*i) {
                    return Err(format!("asked for account {i}, got {line:?}"));
                }
                values.push(
                    value
                        .and_then(|v| v.parse().ok())
                        .ok_or(format!("unparseable {line:?}"))?,
                );
            }
        }
        Ok(values)
    }

    /// Asks for the server's own counters.
    pub fn stats(&mut self) -> Result<StatsLine, String> {
        self.send(b"stats\n")?;
        self.read_until("stats ")?;
        let line = self.last();
        let get = |key: &str| field(line, key).ok_or(format!("no {key} in {line:?}"));
        Ok(StatsLine {
            admitted: get("admitted")?,
            shed: get("shed")?,
            txns_committed: get("txns_committed")?,
            blocks_failed: get("blocks_failed")?,
            gate_waits: get("gate_waits")?,
            overlap_permille: get("overlap_permille")?,
        })
    }

    /// Peak resident memory of the server process so far, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string()).ok_or("cannot read the server's VmHWM".into())
    }

    /// Sends `quit`, reads the `bye` line — `(commit_seq,
    /// txns_committed)` — and waits for the process to end.
    pub fn quit(mut self) -> Result<(u64, u64), String> {
        self.send(b"quit\n")?;
        self.read_until("bye ")?;
        let line = self.last();
        let bye = field(line, "commit_seq")
            .zip(field(line, "txns_committed"))
            .ok_or(format!("unparseable {line:?}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(bye)
    }

    /// SIGKILLs the server and waits for it to be gone.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    /// No server outlives its driver, whichever way the driver leaves.
    fn drop(&mut self) {
        self.stop();
    }
}

/// A server fed from a generated stream: the subprocess [`Target`].
struct Piped<'a> {
    server: &'a mut Server,
    stream: &'a Stream,
}

impl Target for Piped<'_> {
    fn round(&mut self, index: usize) -> Result<u64, String> {
        self.server.send(&self.stream.rounds[index].wire)?;
        self.server.await_drained()
    }
}

/// What the durability epilogue measured.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// Seconds from spawning the fresh server to its first answered `read`.
    pub recover_s: f64,
    /// Transactions it had to replay.
    pub txns: u64,
}

/// Everything one subprocess measurement yields.
pub struct ServeRun {
    /// Client-side timings of the window.
    pub samples: Samples,
    /// One set-up time per set-up performed, seconds.
    pub setup_s: Vec<f64>,
    /// Server `VmHWM` before shutdown, MiB.
    pub peak_rss_mb: f64,
    /// The server's counters after the last `drain`.
    pub stats: StatsLine,
    /// Journal bytes on disk at the last `drained`, per transaction.
    pub wal_bytes_per_txn: Option<f64>,
    /// Kill-and-recover timing (journaled workload only).
    pub recovery: Option<Recovery>,
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Size of every journal segment in `dir`.
fn segment_sizes(dir: &Path) -> Result<Vec<(PathBuf, u64)>, String> {
    let mut sizes = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_name().to_string_lossy().ends_with(".jwal") {
            let len = entry.metadata().map_err(|e| e.to_string())?.len();
            sizes.push((entry.path(), len));
        }
    }
    Ok(sizes)
}

/// Generates the stream, boots a server and warms it up: everything a
/// run does before its timed window, compilation aside.
fn set_up(
    ctx: &Ctx,
    workload: ServeWorkload,
    seed: u64,
    wal_dir: Option<&Path>,
) -> Result<(Stream, Server, Sent, f64), String> {
    let t0 = Instant::now();
    let stream = generate(workload.profile, seed, POOL_ROUNDS);
    if let Some(dir) = wal_dir {
        fresh_dir(dir)?;
    }
    let mut server = Server::spawn(ctx, stream.accounts, wal_dir)?;
    let mut sent = Sent::new(stream.rounds.len());
    for _ in 0..WARMUP_ROUNDS {
        sent.send(&mut Piped {
            server: &mut server,
            stream: &stream,
        })?;
    }
    Ok((stream, server, sent, t0.elapsed().as_secs_f64()))
}

/// What a correct server answers after the last `drained`, by the
/// client's books.
struct Expected {
    /// The accounts an epilogue reads back: all of them up to
    /// [`AUDITED_ACCOUNTS`], else that many drawn from the seed.
    accounts: Vec<usize>,
    /// Their values.
    values: Vec<i64>,
    /// Transactions sent.
    txns: u64,
    /// Commit sequence of the last acknowledgement.
    commit_seq: u64,
    /// Accounts the server is booted with.
    server_accounts: usize,
}

impl Expected {
    fn of(stream: &Stream, sent: &Sent, seed: u64) -> Expected {
        let mut accounts: Vec<usize> = (0..stream.accounts).collect();
        if accounts.len() > AUDITED_ACCOUNTS {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x0a0d_17ed);
            for i in 0..AUDITED_ACCOUNTS {
                accounts.swap(i, rng.gen_range(i..stream.accounts));
            }
            accounts.truncate(AUDITED_ACCOUNTS);
        }
        let model = sent.model(stream);
        Expected {
            values: accounts.iter().map(|i| model[*i]).collect(),
            accounts,
            txns: sent.txns(),
            commit_seq: sent.last_commit_seq,
            server_accounts: stream.accounts,
        }
    }

    /// Reads the audited accounts back and books how many differ.
    fn audit(&self, server: &mut Server, what: &str, tally: &mut Tally) -> Result<(), String> {
        let values = server.read_accounts(&self.accounts)?;
        let wrong = values
            .iter()
            .zip(&self.values)
            .filter(|(v, m)| v != m)
            .count();
        tally.ops(self.accounts.len() as u64, wrong as u64, what);
        Ok(())
    }
}

/// Compares account values with the client's model and the server's
/// counters with the client's books.
fn verify(
    server: &mut Server,
    expected: &Expected,
    tally: &mut Tally,
) -> Result<StatsLine, String> {
    expected.audit(server, "account values differ from the model", tally)?;
    let stats = server.stats()?;
    let counts = server.counts;
    // A refused batch loses its 16 transactions; the difference between
    // sent and committed covers those and anything lost otherwise.
    tally.ops(
        expected.txns,
        expected.txns.abs_diff(stats.txns_committed),
        "transactions not committed exactly once",
    );
    tally.check(stats.shed == 0 && counts.refused == 0, || {
        format!("batches shed: stats={} seen={}", stats.shed, counts.refused)
    });
    tally.check(
        stats.blocks_failed == 0 && counts.blocks_failed == 0,
        || {
            format!(
                "blocks failed: stats={} seen={}",
                stats.blocks_failed, counts.blocks_failed
            )
        },
    );
    tally.check(counts.errors == 0, || {
        format!("{} error lines", counts.errors)
    });
    Ok(stats)
}

/// The durability epilogue: `half_round` more, never drained, then
/// SIGKILL, then a fresh server on the same directory. `sizes` are the
/// segment sizes recorded right after the last `drained`; anything the
/// journal gained since is cut off again after the kill, so the recovery
/// cannot lean on bytes that only the OS cache kept.
fn kill_and_recover(
    ctx: &Ctx,
    mut server: Server,
    wal_dir: &Path,
    half_round: &[u8],
    expected: &Expected,
    sizes: &[(PathBuf, u64)],
    tally: &mut Tally,
) -> Result<Recovery, String> {
    server.send(half_round)?;
    for _ in 0..BATCHES_PER_ROUND / 2 {
        server.read_until("admitted ")?;
    }
    server.kill();

    for entry in fs::read_dir(wal_dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        match sizes.iter().find(|(p, _)| *p == path) {
            Some((_, len)) => fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(*len))
                .map_err(|e| format!("truncate {}: {e}", path.display()))?,
            None => fs::remove_file(&path).map_err(|e| e.to_string())?,
        }
    }

    let t0 = Instant::now();
    let mut server = Server::spawn(ctx, expected.server_accounts, Some(wal_dir))?;
    server.send(b"read 0\n")?;
    server.read_until("value 0 ")?;
    let recover_s = t0.elapsed().as_secs_f64();

    let recovered_seq = server.drain()?;
    tally.check(recovered_seq == expected.commit_seq, || {
        format!(
            "recovered commit_seq {recovered_seq}, acknowledged {}",
            expected.commit_seq
        )
    });
    expected.audit(
        &mut server,
        "account values lost or changed by kill and recovery",
        tally,
    )?;
    server.quit()?;
    Ok(Recovery {
        recover_s,
        txns: expected.commit_seq,
    })
}

/// One untraced measurement of a `serve-*` workload: `setups` set-ups
/// (all timed, the last one kept), a `duration` window of whole rounds,
/// then the correctness epilogue and — journaled — the durability one.
pub fn run_subprocess(
    ctx: &Ctx,
    workload: ServeWorkload,
    seed: u64,
    duration: Duration,
    setups: usize,
    tally: &mut Tally,
) -> Result<ServeRun, String> {
    let wal_dir = workload.wal.then(|| ctx.scratch.join("wal"));
    let mut setup_s = Vec::new();
    let (stream, mut server, mut sent) = loop {
        let (stream, server, sent, took) = set_up(ctx, workload, seed, wal_dir.as_deref())?;
        setup_s.push(took);
        if setup_s.len() >= setups.max(1) {
            break (stream, server, sent);
        }
        server.quit()?;
    };

    let samples = drive(
        &mut Piped {
            server: &mut server,
            stream: &stream,
        },
        &mut sent,
        duration,
    )?;

    let sizes = match &wal_dir {
        Some(dir) => segment_sizes(dir)?,
        None => Vec::new(),
    };
    let expected = Expected::of(&stream, &sent, seed);
    let stats = verify(&mut server, &expected, tally)?;
    let peak_rss_mb = server.peak_rss_mb()?;
    let mut run = ServeRun {
        samples,
        setup_s,
        peak_rss_mb,
        stats,
        wal_bytes_per_txn: None,
        recovery: None,
    };
    match &wal_dir {
        Some(dir) => {
            let bytes: u64 = sizes.iter().map(|(_, len)| len).sum();
            run.wal_bytes_per_txn = Some(bytes as f64 / expected.txns as f64);
            // Half of the round that would have come next.
            let next = &stream.rounds[sent.rounds() as usize % stream.rounds.len()];
            let half_round: Vec<u8> = next
                .wire
                .split_inclusive(|b| *b == b'\n')
                .take(BATCHES_PER_ROUND / 2)
                .flatten()
                .copied()
                .collect();
            run.recovery = Some(kill_and_recover(
                ctx,
                server,
                dir,
                &half_round,
                &expected,
                &sizes,
                tally,
            )?);
            let _ = fs::remove_dir_all(dir);
        }
        None => {
            let (commit_seq, txns_committed) = server.quit()?;
            tally.check(
                txns_committed == expected.txns && commit_seq == expected.commit_seq,
                || {
                    format!(
                        "bye commit_seq={commit_seq} txns_committed={txns_committed}, sent {} acknowledged {}",
                        expected.txns, expected.commit_seq
                    )
                },
            );
        }
    }
    Ok(run)
}
