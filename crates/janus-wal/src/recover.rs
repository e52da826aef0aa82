//! Crash recovery: restore the newest snapshot, replay the journal
//! tail, tolerate torn tails, fail loudly on mid-log corruption.

use std::fs::{self, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

use janus_core::Store;
use janus_log::{wire, ClassId, LocId, OpKind};

use crate::journal::{
    parse_seq_name, read_frame, CLEAN_MAGIC, CLEAN_MARKER, REC_COMMIT, SEGMENT_MAGIC,
    SNAPSHOT_MAGIC,
};

/// Why a recovery refused to proceed. Everything here is loud on
/// purpose: the only silently-tolerated damage is a torn tail in the
/// final segment of an unclean shutdown, which is truncated and
/// counted, never errored.
#[derive(Debug)]
pub enum WalError {
    /// An I/O error against a journal file.
    Io {
        /// The file being read or truncated.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A file's magic or fixed header didn't parse.
    BadHeader {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A record in the durable body of the log failed its checksum —
    /// not a torn tail, real corruption.
    Corrupt {
        /// The offending segment.
        path: PathBuf,
        /// Byte offset of the record frame.
        offset: u64,
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum the payload actually hashes to.
        computed: u64,
    },
    /// A record frame in the durable body of the log was cut short —
    /// truncation anywhere but the unclean final tail is corruption.
    Truncated {
        /// The offending segment.
        path: PathBuf,
        /// Byte offset of the incomplete frame.
        offset: u64,
    },
    /// A checksummed record failed to decode: the bytes are as written,
    /// so this is a format bug, not bit rot.
    Wire {
        /// The offending file.
        path: PathBuf,
        /// The decode failure.
        source: wire::WireError,
    },
    /// The journaled ticket stream has a hole: a record skipped past
    /// `expected` — fsynced commits are missing.
    Gap {
        /// The offending segment.
        path: PathBuf,
        /// The ticket the dense stream required next.
        expected: u64,
        /// The ticket the record actually carried.
        found: u64,
    },
    /// A replayed effect targets a location the boot store never
    /// allocated: the journal and the provisioned store disagree.
    UnknownLoc {
        /// The commit ticket being replayed.
        seq: u64,
        /// The unallocated location.
        loc: LocId,
    },
    /// The clean-shutdown marker's stated final ticket disagrees with
    /// what the journal actually contains.
    CleanMismatch {
        /// The ticket the marker stated.
        stated: u64,
        /// The last ticket the journal replayed.
        found: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { path, source } => {
                write!(f, "journal i/o error on {}: {source}", path.display())
            }
            WalError::BadHeader { path, detail } => {
                write!(f, "bad journal header in {}: {detail}", path.display())
            }
            WalError::Corrupt {
                path,
                offset,
                stored,
                computed,
            } => write!(
                f,
                "corrupt journal record in {} at byte {offset}: checksum mismatch: \
                 file says {stored:016x}, contents hash to {computed:016x}",
                path.display()
            ),
            WalError::Truncated { path, offset } => write!(
                f,
                "truncated journal record in {} at byte {offset} (not the unclean final tail)",
                path.display()
            ),
            WalError::Wire { path, source } => {
                write!(f, "undecodable journal record in {}: {source}", path.display())
            }
            WalError::Gap {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal gap in {}: expected ticket {expected}, found {found}",
                path.display()
            ),
            WalError::UnknownLoc { seq, loc } => write!(
                f,
                "journal replay of commit {seq} targets unallocated location {loc}"
            ),
            WalError::CleanMismatch { stated, found } => write!(
                f,
                "clean-shutdown marker states commit_seq={stated} but the journal replays to {found}"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            WalError::Wire { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What a recovery produced.
#[derive(Debug)]
pub struct Recovered {
    /// The reconstructed store: snapshot state plus every replayed
    /// journal record, in ticket order, exactly once.
    pub store: Store,
    /// The last commit ticket the journal accounts for; the base the
    /// next [`crate::Wal::open`] must use.
    pub commit_seq: u64,
    /// Commit records replayed from segments (snapshot state excluded,
    /// duplicates excluded).
    pub commits_replayed: u64,
    /// Records skipped because the snapshot already covered their
    /// ticket — the exactly-once dedupe at work.
    pub duplicates_skipped: u64,
    /// Torn tails physically truncated (0 or 1; an unclean shutdown's
    /// final segment may end mid-record).
    pub torn_tail_truncations: u64,
    /// The snapshot watermark restored, if a snapshot existed.
    pub snapshot_seq: Option<u64>,
    /// Whether a clean-shutdown marker vouched for the tail.
    pub clean: bool,
}

fn io_err(path: &Path, source: io::Error) -> WalError {
    WalError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Rebuilds a store from a journal directory.
///
/// `base` is the boot-time provisioned store (the same initial state
/// every boot constructs); it seeds the replay when no snapshot exists
/// and is discarded when one does. A missing or empty directory is a
/// fresh start, not an error.
///
/// Invariants enforced:
///
/// * **Exactly once** — records at or below the snapshot watermark are
///   skipped (counted as duplicates), every record above it is applied
///   once, and the ticket stream must be dense ([`WalError::Gap`]).
/// * **Torn tail** — without a clean-shutdown marker, the final
///   segment may end in an incomplete or checksum-failing record: it is
///   physically truncated at the first bad frame and counted. With the
///   marker — or anywhere before the final tail — the same damage is a
///   hard error with both hashes.
/// * **Idempotence** — recovering twice (the second time over the
///   already-truncated files) yields the same store and watermark.
pub fn recover(dir: impl AsRef<Path>, base: Store) -> Result<Recovered, WalError> {
    let dir = dir.as_ref();
    let mut out = Recovered {
        store: base,
        commit_seq: 0,
        commits_replayed: 0,
        duplicates_skipped: 0,
        torn_tail_truncations: 0,
        snapshot_seq: None,
        clean: false,
    };
    if !dir.exists() {
        return Ok(out);
    }

    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    let mut snapshots: Vec<(u64, PathBuf)> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(first) = parse_seq_name(name, "seg-", ".jwal") {
            segments.push((first, entry.path()));
        } else if let Some(seq) = parse_seq_name(name, "snap-", ".jsnap") {
            snapshots.push((seq, entry.path()));
        }
    }
    segments.sort_unstable();
    snapshots.sort_unstable();

    let clean_stated = read_clean_marker(dir)?;
    out.clean = clean_stated.is_some();

    // Restore the newest snapshot; older ones are superseded leftovers.
    let mut applied = 0u64;
    if let Some((seq, path)) = snapshots.pop() {
        out.store = read_snapshot(path.as_path(), seq)?;
        out.snapshot_seq = Some(seq);
        applied = seq;
    }

    let last_idx = segments.len().wrapping_sub(1);
    for (idx, (first_seq, path)) in segments.iter().enumerate() {
        // Torn-tail tolerance applies only to the final segment of an
        // unclean shutdown; everywhere else damage is corruption.
        let tolerant = idx == last_idx && clean_stated.is_none();
        replay_segment(path, *first_seq, tolerant, &mut applied, &mut out)?;
    }
    out.commit_seq = applied;

    if let Some(stated) = clean_stated {
        if stated != applied {
            return Err(WalError::CleanMismatch {
                stated,
                found: applied,
            });
        }
    }
    Ok(out)
}

/// Reads and validates the clean-shutdown marker, if present.
fn read_clean_marker(dir: &Path) -> Result<Option<u64>, WalError> {
    let path = dir.join(CLEAN_MARKER);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path, e)),
    };
    if bytes.len() != 16 || bytes[..8] != CLEAN_MAGIC {
        return Err(WalError::BadHeader {
            path,
            detail: "clean marker is not 16 bytes of magic + ticket".to_string(),
        });
    }
    Ok(Some(u64::from_le_bytes(bytes[8..16].try_into().unwrap())))
}

/// Reads, checksums and decodes one snapshot file.
fn read_snapshot(path: &Path, name_seq: u64) -> Result<Store, WalError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < 16 || bytes[..8] != SNAPSHOT_MAGIC {
        return Err(WalError::BadHeader {
            path: path.to_path_buf(),
            detail: "missing snapshot magic".to_string(),
        });
    }
    let body = &bytes[8..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let computed = wire::checksum(body);
    if stored != computed {
        return Err(WalError::Corrupt {
            path: path.to_path_buf(),
            offset: 8,
            stored,
            computed,
        });
    }
    let wire_err = |source| WalError::Wire {
        path: path.to_path_buf(),
        source,
    };
    let mut c = wire::Cursor::new(body);
    let seq = c.take_u64().map_err(wire_err)?;
    if seq != name_seq {
        return Err(WalError::BadHeader {
            path: path.to_path_buf(),
            detail: format!("snapshot body says seq {seq}, file name says {name_seq}"),
        });
    }
    let next = c.take_u64().map_err(wire_err)?;
    let n = c.take_u32().map_err(wire_err)?;
    let mut entries = Vec::with_capacity((n as usize).min(1 << 20));
    for _ in 0..n {
        let loc = LocId(c.take_u64().map_err(wire_err)?);
        let class = ClassId::new(c.take_str().map_err(wire_err)?);
        let value = wire::decode_value(&mut c).map_err(wire_err)?;
        entries.push((loc, class, value));
    }
    Ok(Store::restore(next, entries))
}

/// Replays one segment's records above the applied floor.
fn replay_segment(
    path: &Path,
    first_seq: u64,
    tolerant: bool,
    applied: &mut u64,
    out: &mut Recovered,
) -> Result<(), WalError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < 16 || bytes[..8] != SEGMENT_MAGIC {
        return Err(WalError::BadHeader {
            path: path.to_path_buf(),
            detail: "missing segment magic".to_string(),
        });
    }
    let header_seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if header_seq != first_seq {
        return Err(WalError::BadHeader {
            path: path.to_path_buf(),
            detail: format!(
                "segment header says first seq {header_seq}, file name says {first_seq}"
            ),
        });
    }

    let mut off = 16usize;
    while off < bytes.len() {
        let Some(frame) = read_frame(&bytes, off) else {
            if tolerant {
                truncate_tail(path, off as u64)?;
                out.torn_tail_truncations += 1;
                return Ok(());
            }
            return Err(WalError::Truncated {
                path: path.to_path_buf(),
                offset: off as u64,
            });
        };
        if !frame.sound() {
            // A checksum failure is a torn write only if nothing sound
            // follows it; a valid record *after* the bad one means the
            // log's durable body is damaged, which no shutdown mode
            // tolerates.
            if tolerant && !has_valid_record_after(&bytes, frame.next) {
                truncate_tail(path, off as u64)?;
                out.torn_tail_truncations += 1;
                return Ok(());
            }
            return Err(WalError::Corrupt {
                path: path.to_path_buf(),
                offset: off as u64,
                stored: frame.stored,
                computed: frame.computed,
            });
        }
        apply_record(path, frame.payload, applied, out)?;
        off = frame.next;
    }
    Ok(())
}

/// Decodes and applies one checksummed record payload.
fn apply_record(
    path: &Path,
    payload: &[u8],
    applied: &mut u64,
    out: &mut Recovered,
) -> Result<(), WalError> {
    let wire_err = |source| WalError::Wire {
        path: path.to_path_buf(),
        source,
    };
    let mut c = wire::Cursor::new(payload);
    let rec_type = c.take_u8().map_err(wire_err)?;
    if rec_type != REC_COMMIT {
        return Err(wire_err(wire::WireError {
            offset: 0,
            message: format!("unknown record type {rec_type}"),
        }));
    }
    let seq = c.take_u64().map_err(wire_err)?;
    let duplicate = seq <= *applied;
    if !duplicate && seq != *applied + 1 {
        return Err(WalError::Gap {
            path: path.to_path_buf(),
            expected: *applied + 1,
            found: seq,
        });
    }
    let _shard_mask = c.take_u64().map_err(wire_err)?;
    let n = c.take_u32().map_err(wire_err)?;
    let mut effects: Vec<(LocId, OpKind)> = Vec::with_capacity((n as usize).min(1 << 16));
    for _ in 0..n {
        effects.push(wire::decode_effect(&mut c).map_err(wire_err)?);
    }
    if duplicate {
        out.duplicates_skipped += 1;
        return Ok(());
    }
    out.store
        .apply_effects(&effects)
        .map_err(|loc| WalError::UnknownLoc { seq, loc })?;
    out.commits_replayed += 1;
    *applied = seq;
    Ok(())
}

/// Whether any well-checksummed frame parses at or after `from` —
/// frames are self-delimiting, so a sound record past a bad one proves
/// the damage is mid-log, not a torn tail.
fn has_valid_record_after(bytes: &[u8], mut from: usize) -> bool {
    while let Some(frame) = read_frame(bytes, from) {
        if frame.sound() {
            return true;
        }
        from = frame.next;
    }
    false
}

/// Physically truncates a torn tail so later recoveries see a clean
/// segment end — what makes double recovery idempotent.
fn truncate_tail(path: &Path, offset: u64) -> Result<(), WalError> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    file.set_len(offset).map_err(|e| io_err(path, e))?;
    file.sync_data().map_err(|e| io_err(path, e))
}
