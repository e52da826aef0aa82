//! The journal writer: a commit sink that only enqueues, one journal
//! thread that reorders, writes and fsyncs in turns, a flush barrier,
//! store snapshots with segment truncation, and deterministic crash
//! points.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use janus_core::{CommitSink, Store};
use janus_fault::{CrashSite, FaultKind, FaultPlan};
use janus_log::{wire, Op};

use crate::stats::WalStats;

/// Segment-file magic, followed by the segment's first commit ticket.
pub const SEGMENT_MAGIC: [u8; 8] = *b"JWALSEG1";
/// Snapshot-file magic, followed by the checksummed snapshot body.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"JWALSNP1";
/// Clean-shutdown-marker magic, followed by the final synced ticket.
pub const CLEAN_MAGIC: [u8; 8] = *b"JWALCLN1";
/// The clean-shutdown marker's file name inside the journal directory.
pub const CLEAN_MARKER: &str = "CLEAN";

/// Record type: a committed transaction's effects.
pub(crate) const REC_COMMIT: u8 = 1;

/// The segment file name for a first ticket (`seg-<16hex>.jwal`).
pub fn segment_name(first_seq: u64) -> String {
    format!("seg-{first_seq:016x}.jwal")
}

/// The snapshot file name for a watermark (`snap-<16hex>.jsnap`).
pub fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:016x}.jsnap")
}

/// Parses the sequence number out of a `prefix<16hex>suffix` file name.
pub(crate) fn parse_seq_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// When the group-commit fsync happens.
///
/// The journal thread works in *turns*: each takes every record queued
/// since the previous one, reorders it into the contiguous ticket prefix
/// and appends that to a userspace buffer. The policy is applied once
/// per turn and decides whether the buffer is written and fsynced. Until
/// it is, the buffer is the group-commit window, and exactly what a
/// process kill can lose: recovery returns the fsynced prefix (plus
/// whatever of a written-but-unsynced tail the OS kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Write + fsync at the end of a turn once at least `n` records are
    /// unsynced (group commit). `EveryN(1)`, spelled `always`, leaves
    /// nothing the journal thread has seen unsynced past its turn.
    EveryN(u64),
    /// Write + fsync once the oldest unsynced record has waited `ms`
    /// milliseconds; the journal thread's timed wait fires it.
    IntervalMs(u64),
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// Parses `always` (`every-n:1`), `every-n:<N>` or `interval-ms:<N>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "always" {
            return Ok(FsyncPolicy::EveryN(1));
        }
        if let Some(n) = s.strip_prefix("every-n:") {
            return match n.parse::<u64>() {
                Ok(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!("every-n wants a positive count, got {n:?}")),
            };
        }
        if let Some(ms) = s.strip_prefix("interval-ms:") {
            return match ms.parse::<u64>() {
                Ok(ms) if ms > 0 => Ok(FsyncPolicy::IntervalMs(ms)),
                _ => Err(format!("interval-ms wants a positive duration, got {ms:?}")),
            };
        }
        Err(format!(
            "unknown fsync policy {s:?} (expected always, every-n:<N> or interval-ms:<N>)"
        ))
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::EveryN(n) => write!(f, "every-n:{n}"),
            FsyncPolicy::IntervalMs(ms) => write!(f, "interval-ms:{ms}"),
        }
    }
}

/// Why a journal stopped working.
#[derive(Debug, Clone)]
enum Death {
    /// A crash point fired. The journal models a dead process: every
    /// later call is a silent no-op.
    Crash,
    /// A write or fsync failed. Every later barrier reports it.
    Io(io::ErrorKind, String),
}

/// What committers, barriers and the journal thread share, under one
/// briefly held mutex: the queued frames and the published progress.
struct Queue {
    /// Whole frames in arrival order, encoded in place by the sink. The
    /// journal thread swaps the buffer for its empty spare each turn.
    frames: Vec<u8>,
    /// The journal thread is parked with nothing to do; the next record
    /// wakes it.
    idle: bool,
    /// Flush barriers asked for and served, as epochs.
    flush_asked: u64,
    flush_served: u64,
    /// The journal thread's progress, published after each turn so that
    /// readers never wait behind a write or an fsync.
    buffered_seq: u64,
    synced_seq: u64,
    death: Option<Death>,
    shutdown: bool,
}

/// The journal thread's state: reordering, the group-commit buffer and
/// the open segment. Held for one turn at a time, and by the snapshot
/// and the clean marker after their barrier.
struct Journal {
    file: File,
    pending: BTreeMap<u64, Vec<u8>>,
    next_seq: u64,
    buf: Vec<u8>,
    unsynced: u64,
    /// When the oldest unsynced record entered the buffer.
    oldest_unsynced: Option<Instant>,
    buffered_seq: u64,
    synced_seq: u64,
}

/// Everything the journal thread and the [`Wal`] handle both reach.
struct Shared {
    policy: FsyncPolicy,
    stats: Arc<WalStats>,
    faults: Option<Arc<FaultPlan>>,
    queue: Mutex<Queue>,
    /// The journal thread parks here.
    wake: Condvar,
    /// Flush barriers park here.
    settled: Condvar,
    journal: Mutex<Journal>,
}

/// The panic message of a poisoned journal mutex.
const POISONED: &str = "a thread panicked while holding a journal lock";

impl Shared {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect(POISONED)
    }

    fn journal(&self) -> MutexGuard<'_, Journal> {
        self.journal.lock().expect(POISONED)
    }

    fn crashed(&self) -> Death {
        self.stats.crash_points.fetch_add(1, Ordering::Relaxed);
        Death::Crash
    }
}

/// A segmented, checksummed write-ahead commit journal.
///
/// Hangs off the runtime's [`CommitSink`] seam (see [`Wal::sink`]). The
/// sink only frames each record into a shared queue; one `janus-wal`
/// journal thread per journal does the rest, a turn at a time. A turn
/// takes everything queued, reorders it by ticket — commits on disjoint
/// shards reach the sink out of ticket order, so records wait in a
/// `BTreeMap` until the contiguous prefix reaches them — appends that
/// prefix to a userspace buffer and applies the [`FsyncPolicy`] once.
/// [`Wal::flush`] is the barrier that waits for all of it.
///
/// Record frame: `u32 len | payload | u64 fnv1a(payload)`. The payload
/// carries the commit ticket, the touched-shard bitmask and the
/// transaction's mutating effects in `janus-log` wire encoding.
pub struct Wal {
    dir: PathBuf,
    base_seq: u64,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Wal {
    /// Opens a journal in `dir` (created if missing), journaling tickets
    /// above `base_seq` — the recovered commit floor, `0` for a fresh
    /// store — and starts its journal thread. Consumes any clean-shutdown
    /// marker (the journal is live again) and starts a fresh segment at
    /// `base_seq + 1`; an existing file under that name can only be the
    /// header-only remnant of a boot that appended nothing, so truncating
    /// it destroys no records.
    pub fn open(dir: impl AsRef<Path>, policy: FsyncPolicy, base_seq: u64) -> io::Result<Arc<Wal>> {
        Wal::open_with_faults(dir, policy, base_seq, None)
    }

    /// [`Wal::open`] with a fault plan: [`FaultKind::CrashPoint`] sites
    /// (subject: the global commit ticket; attempt: a
    /// [`CrashSite::attempt`]) kill the journal at that durability
    /// boundary — it stops accepting work, exactly like a dead process,
    /// while the files stay on disk for [`crate::recover`].
    pub fn open_with_faults(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
        base_seq: u64,
        faults: Option<Arc<FaultPlan>>,
    ) -> io::Result<Arc<Wal>> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let marker = dir.join(CLEAN_MARKER);
        if marker.exists() {
            fs::remove_file(&marker)?;
        }
        let (file, _path) = new_segment(&dir, base_seq + 1)?;
        let shared = Arc::new(Shared {
            policy,
            stats: Arc::new(WalStats::default()),
            faults,
            queue: Mutex::new(Queue {
                frames: Vec::new(),
                idle: false,
                flush_asked: 0,
                flush_served: 0,
                buffered_seq: base_seq,
                synced_seq: base_seq,
                death: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
            settled: Condvar::new(),
            journal: Mutex::new(Journal {
                file,
                pending: BTreeMap::new(),
                next_seq: base_seq + 1,
                buf: Vec::new(),
                unsynced: 0,
                oldest_unsynced: None,
                buffered_seq: base_seq,
                synced_seq: base_seq,
            }),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("janus-wal".into())
                .spawn(move || journal_thread(&shared))?
        };
        Ok(Arc::new(Wal {
            dir,
            base_seq,
            shared,
            thread: Some(thread),
        }))
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.shared.policy
    }

    /// The commit floor this journal opened above: session-local tickets
    /// are offset by this before journaling.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The journal's counters.
    pub fn stats(&self) -> &Arc<WalStats> {
        &self.shared.stats
    }

    /// The highest ticket the journal thread has published as durable
    /// (fsynced).
    pub fn synced_seq(&self) -> u64 {
        self.shared.queue().synced_seq
    }

    /// The highest ticket the journal thread has published as buffered.
    pub fn buffered_seq(&self) -> u64 {
        self.shared.queue().buffered_seq
    }

    /// Whether a crash point or fatal I/O error killed this journal.
    pub fn is_dead(&self) -> bool {
        self.shared.queue().death.is_some()
    }

    /// The [`CommitSink`] adapter to hand to
    /// [`janus_core::Janus::commit_sink`]. Session-local tickets are
    /// offset by [`Wal::base_seq`] into the global sequence.
    pub fn sink(self: &Arc<Self>) -> Arc<WalSink> {
        Arc::new(WalSink {
            wal: Arc::clone(self),
        })
    }

    /// The durability barrier: bumps the flush epoch and waits until the
    /// journal thread has taken every record submitted before this call,
    /// written it and fsynced it — one group-commit batch. `Err` whenever
    /// an I/O error killed the journal, now or earlier; a no-op on a
    /// journal a crash point killed, which models a process that is
    /// already dead.
    pub fn flush(&self) -> io::Result<()> {
        let shared = &self.shared;
        let mut q = shared.queue();
        if q.death.is_none() {
            q.flush_asked += 1;
            let epoch = q.flush_asked;
            shared.wake.notify_one();
            while q.flush_served < epoch && q.death.is_none() {
                q = shared.settled.wait(q).expect(POISONED);
            }
            if q.flush_served >= epoch {
                return Ok(());
            }
        }
        match &q.death {
            Some(Death::Io(kind, msg)) => Err(io::Error::new(*kind, msg.clone())),
            _ => Ok(()),
        }
    }

    /// Serializes the store and its commit watermark to a snapshot file,
    /// rolls the journal onto a fresh segment above the watermark, and
    /// deletes every segment (and older snapshot) at or below it.
    ///
    /// Must be called at a quiescent point: every issued ticket already
    /// handed to the sink (no reordering gaps) and the store reflecting
    /// all of them — in practice, after a drain barrier. Returns the
    /// snapshot watermark; `Err` if an I/O error killed the journal.
    pub fn snapshot_and_truncate(&self, store: &Store) -> io::Result<u64> {
        self.flush()?;
        let mut journal = self.shared.journal();
        if self.is_dead() {
            return Ok(journal.synced_seq);
        }
        journal.sync(&self.shared.stats)?;
        let seq = journal.synced_seq;

        let mut body = Vec::new();
        wire::put_u64(&mut body, seq);
        wire::put_u64(&mut body, store.alloc_count());
        let entries: Vec<_> = store.entries().collect();
        wire::put_u32(&mut body, entries.len() as u32);
        for (loc, class, value) in entries {
            wire::put_u64(&mut body, loc.0);
            wire::put_str(&mut body, class.label());
            wire::encode_value(&mut body, value);
        }
        let mut out = Vec::with_capacity(body.len() + 16);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&body);
        wire::put_u64(&mut out, wire::checksum(&body));

        // Write-then-rename so a crash mid-snapshot leaves either the
        // old state or the new one, never a half-written snapshot under
        // the real name.
        let tmp = self.dir.join("snap.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_data()?;
        drop(f);
        fs::rename(&tmp, self.dir.join(snapshot_name(seq)))?;

        let (file, _path) = new_segment(&self.dir, seq + 1)?;
        journal.file = file;
        journal.next_seq = journal.next_seq.max(seq + 1);
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = match parse_seq_name(name, "seg-", ".jwal") {
                Some(first) => first <= seq,
                None => matches!(
                    parse_seq_name(name, "snap-", ".jsnap"),
                    Some(s) if s < seq
                ),
            };
            if stale {
                fs::remove_file(entry.path())?;
            }
        }
        self.shared.stats.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Flushes, fsyncs and writes the clean-shutdown marker stating the
    /// final synced ticket: the next boot trusts the tail instead of
    /// torn-scanning it. No marker on a dead journal — a crashed process
    /// never shuts down cleanly — and `Err` if an I/O error killed it.
    pub fn mark_clean(&self) -> io::Result<()> {
        self.flush()?;
        let mut journal = self.shared.journal();
        if self.is_dead() {
            return Ok(());
        }
        journal.sync(&self.shared.stats)?;
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&CLEAN_MAGIC);
        wire::put_u64(&mut out, journal.synced_seq);
        let mut f = File::create(self.dir.join(CLEAN_MARKER))?;
        f.write_all(&out)?;
        f.sync_data()
    }
}

/// The journal thread: parks until there is work — queued records, a
/// flush barrier, or the interval policy's deadline — runs one turn,
/// publishes its progress, and stops at shutdown or death. Records still
/// queued at shutdown are dropped, as a process exit would drop them.
fn journal_thread(shared: &Shared) {
    let mut taken = Vec::new();
    let mut order = Vec::new();
    let mut deadline: Option<Instant> = None;
    let mut q = shared.queue();
    loop {
        while q.frames.is_empty()
            && q.flush_asked == q.flush_served
            && !q.shutdown
            && deadline.is_none_or(|at| Instant::now() < at)
        {
            q.idle = true;
            q = match deadline {
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    shared.wake.wait_timeout(q, left).expect(POISONED).0
                }
                None => shared.wake.wait(q).expect(POISONED),
            };
            q.idle = false;
        }
        if q.shutdown {
            return;
        }
        std::mem::swap(&mut q.frames, &mut taken);
        let flush_to = q.flush_asked;
        let flush = flush_to > q.flush_served;
        drop(q);

        let mut journal = shared.journal();
        let turn = journal.turn(shared, &taken, &mut order, flush);
        taken.clear();
        deadline = match shared.policy {
            FsyncPolicy::IntervalMs(ms) => journal
                .oldest_unsynced
                .map(|at| at + Duration::from_millis(ms)),
            _ => None,
        };
        let (buffered_seq, synced_seq) = (journal.buffered_seq, journal.synced_seq);
        drop(journal);

        q = shared.queue();
        q.buffered_seq = buffered_seq;
        q.synced_seq = synced_seq;
        match turn {
            Ok(()) => q.flush_served = flush_to,
            Err(death) => {
                q.death = Some(death);
                q.frames = Vec::new();
            }
        }
        if flush || q.death.is_some() {
            shared.settled.notify_all();
        }
        if q.death.is_some() {
            return;
        }
    }
}

impl Journal {
    /// One turn: reorders `taken` — whole frames in arrival order — into
    /// the contiguous ticket prefix, appends that prefix to the buffer,
    /// then applies the fsync policy once (a barrier always syncs).
    fn turn(
        &mut self,
        shared: &Shared,
        taken: &[u8],
        order: &mut Vec<(u64, Range<usize>)>,
        flush: bool,
    ) -> Result<(), Death> {
        let mut at = 0;
        while at < taken.len() {
            let len = u32::from_le_bytes(taken[at..at + 4].try_into().expect("4 bytes")) as usize;
            // Every payload starts with its type byte and its ticket.
            let seq = u64::from_le_bytes(taken[at + 5..at + 13].try_into().expect("8 bytes"));
            order.push((seq, at..at + 4 + len + 8));
            at += 4 + len + 8;
        }
        shared.stats.note_turn(order.len() as u64);
        order.sort_unstable_by_key(|(seq, _)| *seq);
        for (seq, frame) in order.drain(..) {
            self.append_pending(shared)?;
            if seq == self.next_seq {
                self.append(shared, &taken[frame])?;
            } else {
                self.pending.insert(seq, taken[frame].to_vec());
            }
        }
        self.append_pending(shared)?;
        let due = flush
            || match shared.policy {
                FsyncPolicy::EveryN(n) => self.unsynced >= n,
                FsyncPolicy::IntervalMs(ms) => self
                    .oldest_unsynced
                    .is_some_and(|at| at.elapsed() >= Duration::from_millis(ms)),
            };
        if due {
            if let Err(e) = self.sync(&shared.stats) {
                shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                return Err(Death::Io(e.kind(), e.to_string()));
            }
        }
        Ok(())
    }

    /// Appends every parked record the contiguous prefix has reached.
    fn append_pending(&mut self, shared: &Shared) -> Result<(), Death> {
        while let Some(frame) = self.pending.remove(&self.next_seq) {
            self.append(shared, &frame)?;
        }
        Ok(())
    }

    /// Appends the frame of ticket `next_seq` to the buffer, firing any
    /// crash point armed at its three boundaries.
    fn append(&mut self, shared: &Shared, frame: &[u8]) -> Result<(), Death> {
        let seq = self.next_seq;
        let crash = |site: CrashSite| {
            shared
                .faults
                .as_ref()
                .is_some_and(|plan| plan.should_inject(FaultKind::CrashPoint, seq, site.attempt()))
        };
        if crash(CrashSite::PreAppend) {
            // Dead before the record exists anywhere: this commit — and
            // the whole unsynced window — is lost to recovery.
            return Err(shared.crashed());
        }
        shared.stats.appends.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.buf.extend_from_slice(frame);
        self.oldest_unsynced.get_or_insert_with(Instant::now);
        self.buffered_seq = seq;
        self.next_seq = seq + 1;
        self.unsynced += 1;
        if crash(CrashSite::PostAppendPreFsync) {
            // The kill lands mid-write: a strict prefix of the buffered
            // bytes reaches the file — cutting this record in half — and
            // no fsync happens. Earlier buffered records ride along
            // un-torn, modeling page-cache survival of a process kill.
            let keep = self.buf.len() - frame.len().div_ceil(2);
            let _ = self.file.write_all(&self.buf[..keep]);
            self.buf.clear();
            return Err(shared.crashed());
        }
        if crash(CrashSite::PostFsync) {
            // The record reached disk; the process dies on the next
            // instruction. Recovery must replay it.
            let _ = self.sync(&shared.stats);
            return Err(shared.crashed());
        }
        Ok(())
    }

    /// Writes the buffer to the segment and fsyncs it: one group-commit
    /// batch.
    fn sync(&mut self, stats: &WalStats) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.file.sync_data()?;
            self.buf.clear();
            self.unsynced = 0;
            stats.fsync_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.oldest_unsynced = None;
        self.synced_seq = self.buffered_seq;
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.shutdown = true;
        drop(q);
        self.shared.wake.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("policy", &self.shared.policy)
            .field("base_seq", &self.base_seq)
            .finish()
    }
}

/// The [`CommitSink`] adapter over a journal: offsets session-local
/// tickets by the journal's recovered base and frames each record
/// straight into the journal thread's queue. It does no I/O and waits
/// for nothing but the queue's mutex.
pub struct WalSink {
    wal: Arc<Wal>,
}

impl WalSink {}

impl CommitSink for WalSink {
    /// Encodes the frame onto the queue and wakes the journal thread if
    /// it is parked. Traffic to a dead journal vanishes.
    fn committed(&self, seq: u64, shard_mask: u64, ops: &[Op]) {
        let global = self.wal.base_seq + seq;
        let shared = &self.wal.shared;
        let mut q = shared.queue();
        if q.death.is_some() {
            return;
        }
        put_commit_frame(&mut q.frames, global, shard_mask, ops);
        let wake = std::mem::take(&mut q.idle);
        drop(q);
        if wake {
            shared.wake.notify_one();
        }
    }
}

/// Creates (truncating) and headers a segment file.
fn new_segment(dir: &Path, first_seq: u64) -> io::Result<(File, PathBuf)> {
    let path = dir.join(segment_name(first_seq));
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(&SEGMENT_MAGIC);
    wire::put_u64(&mut header, first_seq);
    file.write_all(&header)?;
    file.sync_data()?;
    Ok((file, path))
}

/// Appends one frame, `u32 len | payload | u64 fnv1a(payload)`, to
/// `out`, with `payload` writing the payload in place.
fn put_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    wire::put_u32(out, 0);
    payload(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    let sum = wire::checksum(&out[at + 4..]);
    wire::put_u64(out, sum);
}

/// One frame read back by [`read_frame`]: its payload, the checksum it
/// carries (`stored`) and the payload's own (`computed`), and the offset
/// just past it.
pub(crate) struct Frame<'a> {
    pub(crate) payload: &'a [u8],
    pub(crate) stored: u64,
    pub(crate) computed: u64,
    pub(crate) next: usize,
}

impl Frame<'_> {
    /// Whether the payload matches its stored checksum.
    pub(crate) fn sound(&self) -> bool {
        self.stored == self.computed
    }
}

/// Reads the frame [`put_frame`] wrote at offset `at` of `bytes`, or
/// `None` when the bytes end mid-frame: shorter than a length prefix,
/// a zero length, or fewer bytes than the length and checksum need.
pub(crate) fn read_frame(bytes: &[u8], at: usize) -> Option<Frame<'_>> {
    let rest = bytes.get(at..)?;
    let len = u32::from_le_bytes(rest.get(..4)?.try_into().expect("4 bytes")) as usize;
    let payload = rest.get(4..4 + len).filter(|p| !p.is_empty())?;
    let stored = u64::from_le_bytes(rest.get(4 + len..12 + len)?.try_into().expect("8 bytes"));
    Some(Frame {
        payload,
        stored,
        computed: wire::checksum(payload),
        next: at + 12 + len,
    })
}

/// Appends one commit record: ticket, shard mask, and the log's mutating
/// effects (reads cost nothing to replay and are dropped).
fn put_commit_frame(out: &mut Vec<u8>, seq: u64, shard_mask: u64, ops: &[Op]) {
    put_frame(out, |payload| {
        payload.push(REC_COMMIT);
        wire::put_u64(payload, seq);
        wire::put_u64(payload, shard_mask);
        let count_at = payload.len();
        wire::put_u32(payload, 0);
        let mut n: u32 = 0;
        for op in ops {
            if !op.kind.is_write() {
                continue;
            }
            wire::encode_effect(payload, op.loc, &op.kind)
                .expect("a write op kind encodes as an effect");
            n += 1;
        }
        payload[count_at..count_at + 4].copy_from_slice(&n.to_le_bytes());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!("always".parse(), Ok(FsyncPolicy::EveryN(1)));
        for (s, want) in [
            ("every-n:1", FsyncPolicy::EveryN(1)),
            ("every-n:8", FsyncPolicy::EveryN(8)),
            ("interval-ms:25", FsyncPolicy::IntervalMs(25)),
        ] {
            let got: FsyncPolicy = s.parse().expect("policy parses");
            assert_eq!(got, want);
            assert_eq!(got.to_string(), s, "display is the parse inverse");
        }
        for bad in ["", "sometimes", "every-n:0", "every-n:x", "interval-ms:-1"] {
            assert!(
                bad.parse::<FsyncPolicy>().is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn file_names_roundtrip_their_sequence() {
        assert_eq!(segment_name(1), "seg-0000000000000001.jwal");
        assert_eq!(
            parse_seq_name(&segment_name(0xdead_beef), "seg-", ".jwal"),
            Some(0xdead_beef)
        );
        assert_eq!(
            parse_seq_name(&snapshot_name(42), "snap-", ".jsnap"),
            Some(42)
        );
        assert_eq!(parse_seq_name("seg-xyz.jwal", "seg-", ".jwal"), None);
        assert_eq!(parse_seq_name("seg-01.jwal", "seg-", ".jwal"), None);
    }

    #[test]
    fn frames_checksum_their_payload() {
        let mut f = Vec::new();
        put_commit_frame(&mut f, 7, 1, &[]);
        let len = u32::from_le_bytes(f[..4].try_into().unwrap()) as usize;
        assert_eq!(len, 21, "type, ticket, shard mask, effect count");
        assert_eq!(f.len(), 4 + len + 8);
        assert_eq!(f[4], REC_COMMIT);
        let payload = &f[4..4 + len];
        let stored = u64::from_le_bytes(f[4 + len..].try_into().unwrap());
        assert_eq!(stored, wire::checksum(payload));

        let frame = read_frame(&f, 0).expect("a whole frame");
        assert!(frame.sound());
        assert_eq!(frame.payload, payload);
        assert_eq!(frame.next, f.len());
        for cut in 0..f.len() {
            assert!(read_frame(&f[..cut], 0).is_none(), "cut at {cut}");
        }
        f[5] ^= 1;
        assert!(!read_frame(&f, 0).expect("still whole").sound());
    }

    #[test]
    fn an_io_error_fails_every_later_barrier() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp/wal-io-error");
        let _ = fs::remove_dir_all(&dir);
        let wal = Wal::open(&dir, FsyncPolicy::EveryN(64), 0).expect("open");
        // A read-only handle on the open segment: the journal thread's
        // next `write_all` fails on every platform.
        let segment = File::open(dir.join(segment_name(1))).expect("reopen read-only");
        wal.shared.journal().file = segment;
        wal.sink().committed(1, 1, &[]);
        assert!(wal.flush().is_err(), "the failed write reaches the barrier");
        assert_eq!(wal.stats().io_errors(), 1);
        assert!(wal.is_dead());
        assert!(wal.flush().is_err(), "a dead journal never promises again");
        assert!(wal.mark_clean().is_err());
        assert!(
            !dir.join(CLEAN_MARKER).exists(),
            "no marker on a failed journal"
        );
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }
}
