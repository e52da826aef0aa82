//! Deterministic fault injection for the JANUS runtime.
//!
//! Robustness claims ("a panicking task cannot take the run down",
//! "forced conflicts cannot stop a task from committing", "ordered
//! successors never hang behind a failed predecessor") are only
//! trustworthy if the failure paths can be exercised
//! *deterministically*: the same fault plan must inject the same faults
//! at the same sites on every run, regardless of thread interleaving.
//! This crate provides that plan:
//!
//! * [`FaultPlan`] — either a *seeded* plan (`seed × rate`, every
//!   injection decision a pure function of `(seed, kind, subject,
//!   attempt)`) or an *explicit* plan (a finite site list, for
//!   regression tests that need one precise fault).
//! * [`FaultKind`] — the five injection points threaded through the
//!   runtime: task-body panics and forced validation conflicts and
//!   commit-stall delays (`janus-core`), forced commutativity-cache
//!   misses (`janus-detect`), and deterministic crash points in the
//!   durable commit journal (`janus-wal`), addressed per [`CrashSite`].
//! * [`FaultStats`] — monotone injection counters implementing
//!   [`janus_obs::Snapshot`], so chaos runs surface `faults_injected`
//!   through the same metrics registry as every other subsystem.
//!
//! The plan is consulted behind an `Option` exactly like the lifecycle
//! recorder: with no plan attached, every injection site is a single
//! branch on `None` — nothing is hashed, counted or allocated.
//!
//! Seeded plans bound injection by attempt ([`FaultPlan::max_attempt`]):
//! past the bound no site fires, so even a rate-1.0 plan cannot starve
//! a task forever — the "no configuration hangs" guarantee the chaos
//! suite asserts. Explicit site lists are exempt (each site names one
//! `(kind, subject, attempt)` and fires exactly there).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};

/// The injection points the runtime threads a plan through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Panic inside the task body (exercises `PanicPolicy`). Subject:
    /// the 1-based task id.
    TaskPanic,
    /// Force the validation verdict to "conflict" even though the
    /// detector passed the attempt (exercises the abort-and-retry
    /// path). Subject: the 1-based task id.
    ForcedConflict,
    /// Delay the attempt just before it takes the commit write lock
    /// (exercises the commit-clock watchdog and ordered waiters).
    /// Subject: the 1-based task id.
    CommitStall,
    /// Force a commutativity-cache miss so the write-set fallback
    /// decides the verdict (exercises degraded detection). Subject:
    /// [`stable_key`] of the location class label.
    CacheMiss,
    /// Kill the process model at a durability boundary in the commit
    /// journal (exercises crash recovery). Subject: the commit ticket
    /// being journaled; attempt: the [`CrashSite`] being crossed.
    CrashPoint,
}

impl FaultKind {
    /// All kinds, in a stable order (the per-kind counter layout).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TaskPanic,
        FaultKind::ForcedConflict,
        FaultKind::CommitStall,
        FaultKind::CacheMiss,
        FaultKind::CrashPoint,
    ];

    /// A short lower-case label ("panic", "conflict", "stall",
    /// "cache-miss", "crash").
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TaskPanic => "panic",
            FaultKind::ForcedConflict => "conflict",
            FaultKind::CommitStall => "stall",
            FaultKind::CacheMiss => "cache-miss",
            FaultKind::CrashPoint => "crash",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultKind::TaskPanic => 0,
            FaultKind::ForcedConflict => 1,
            FaultKind::CommitStall => 2,
            FaultKind::CacheMiss => 3,
            FaultKind::CrashPoint => 4,
        }
    }
}

/// The durability boundaries a [`FaultKind::CrashPoint`] site can kill
/// at, encoded into the site's `attempt` coordinate ([`CrashSite::attempt`])
/// so explicit plans address one boundary of one commit precisely.
///
/// The three sites bracket the journal append: before the record exists
/// anywhere, after it is buffered but before it is forced to disk (the
/// group-commit window — a crash here models a torn tail), and after
/// the fsync returns (the record must survive recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashSite {
    /// Before the record is appended: the commit is lost entirely.
    PreAppend,
    /// After the append, before the fsync: the record may be torn or
    /// missing on recovery, but never half-applied.
    PostAppendPreFsync,
    /// After the fsync returned: recovery must replay the record.
    PostFsync,
}

impl CrashSite {
    /// All sites, in append order.
    pub const ALL: [CrashSite; 3] = [
        CrashSite::PreAppend,
        CrashSite::PostAppendPreFsync,
        CrashSite::PostFsync,
    ];

    /// The site's `attempt` coordinate in a [`FaultSite`] /
    /// [`FaultPlan::should_inject`] call.
    pub fn attempt(self) -> u32 {
        match self {
            CrashSite::PreAppend => 0,
            CrashSite::PostAppendPreFsync => 1,
            CrashSite::PostFsync => 2,
        }
    }

    /// A short label ("pre-append", "pre-fsync", "post-fsync").
    pub fn label(self) -> &'static str {
        match self {
            CrashSite::PreAppend => "pre-append",
            CrashSite::PostAppendPreFsync => "pre-fsync",
            CrashSite::PostFsync => "post-fsync",
        }
    }
}

/// One explicit injection site: `kind` fires for `subject` on exactly
/// attempt `attempt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultSite {
    /// Which injection point fires.
    pub kind: FaultKind,
    /// The site's subject (task id, or [`stable_key`] of a class label
    /// for [`FaultKind::CacheMiss`]).
    pub subject: u64,
    /// The 0-based attempt the site fires on.
    pub attempt: u32,
}

/// How a plan decides.
#[derive(Debug)]
enum Mode {
    /// Pseudo-random: fire iff `mix(seed, kind, subject, attempt)`
    /// lands below the rate threshold (53-bit fixed point).
    Seeded { seed: u64, threshold: u64 },
    /// Explicit: fire iff the site is listed (sorted for binary search).
    Sites(Vec<FaultSite>),
}

/// Monotone injection counters, shared by every thread consulting the
/// plan. Implements [`janus_obs::Snapshot`] (source `"fault"`).
#[derive(Debug, Default)]
pub struct FaultStats {
    by_kind: [AtomicU64; 5],
}

impl FaultStats {
    /// Total faults injected, across all kinds.
    pub fn injected(&self) -> u64 {
        self.by_kind.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Faults injected for one kind.
    pub fn injected_of(&self, kind: FaultKind) -> u64 {
        self.by_kind[kind.index()].load(Ordering::Relaxed)
    }
}

impl janus_obs::Snapshot for FaultStats {
    fn source(&self) -> &'static str {
        "fault"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let mut out = vec![("faults_injected".to_string(), self.injected())];
        for kind in FaultKind::ALL {
            out.push((
                format!("injected_{}", kind.label().replace('-', "_")),
                self.injected_of(kind),
            ));
        }
        out
    }
}

/// A deterministic fault-injection plan.
///
/// Decisions are pure: [`FaultPlan::decide`] depends only on the plan's
/// configuration and the `(kind, subject, attempt)` triple, never on
/// time, thread identity or interleaving — so the *set* of injected
/// sites is identical across runs with the same plan, even though the
/// order the runtime visits them in may vary.
#[derive(Debug)]
pub struct FaultPlan {
    mode: Mode,
    max_attempt: u32,
    stats: FaultStats,
}

impl FaultPlan {
    /// The default injection bound for seeded plans: no site fires at
    /// attempt 3 or later, so retries always drain.
    pub const DEFAULT_MAX_ATTEMPT: u32 = 3;

    /// The default injection rate for chaos runs that pick a seed but
    /// no rate: one site in twenty fires.
    pub const DEFAULT_RATE: f64 = 0.05;

    /// A seeded plan: each `(kind, subject, attempt)` site fires
    /// independently with probability `rate` (clamped to `[0, 1]`),
    /// decided by a pure hash of the seed and the triple.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        let rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        // 53-bit fixed point: compare the hash's top 53 bits against
        // rate * 2^53, so rate 1.0 fires always and 0.0 never.
        let threshold = (rate * (1u64 << 53) as f64) as u64;
        FaultPlan {
            mode: Mode::Seeded { seed, threshold },
            max_attempt: Self::DEFAULT_MAX_ATTEMPT,
            stats: FaultStats::default(),
        }
    }

    /// An explicit plan firing exactly at the listed sites (duplicates
    /// are collapsed). Sites are exempt from the attempt bound: each
    /// names its own attempt.
    pub fn from_sites(mut sites: Vec<FaultSite>) -> Self {
        sites.sort_unstable();
        sites.dedup();
        FaultPlan {
            mode: Mode::Sites(sites),
            max_attempt: Self::DEFAULT_MAX_ATTEMPT,
            stats: FaultStats::default(),
        }
    }

    /// Overrides the seeded-plan injection bound: no seeded site fires
    /// at `attempt >= bound`. `bound = 0` disables seeded injection
    /// entirely.
    pub fn max_attempt(mut self, bound: u32) -> Self {
        self.max_attempt = bound;
        self
    }

    /// The pure injection decision for one site. No side effects; the
    /// same plan configuration and triple always agree.
    pub fn decide(&self, kind: FaultKind, subject: u64, attempt: u32) -> bool {
        match &self.mode {
            Mode::Seeded { seed, threshold } => {
                attempt < self.max_attempt && site_hash(*seed, kind, subject, attempt) < *threshold
            }
            Mode::Sites(sites) => sites
                .binary_search(&FaultSite {
                    kind,
                    subject,
                    attempt,
                })
                .is_ok(),
        }
    }

    /// [`FaultPlan::decide`], counting the injection when it fires.
    /// This is what the runtime's injection sites call.
    pub fn should_inject(&self, kind: FaultKind, subject: u64, attempt: u32) -> bool {
        let fire = self.decide(kind, subject, attempt);
        if fire {
            self.stats.by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// The stall length for a [`FaultKind::CommitStall`] site, in
    /// microseconds — deterministic in the site, bounded to `[50, 2000]`
    /// so stalls are observable (to the watchdog) but never hang-like.
    pub fn stall_micros(&self, subject: u64, attempt: u32) -> u64 {
        let seed = match &self.mode {
            Mode::Seeded { seed, .. } => *seed,
            Mode::Sites(_) => 0,
        };
        50 + site_hash(seed, FaultKind::CommitStall, subject, attempt) % 1951
    }

    /// The plan's injection counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

/// A pure mix of one injection site into a 53-bit value, compared
/// against the rate threshold. The splitmix64 finalizer over a
/// golden-ratio combination of the coordinates — the same recipe as
/// `janus_sched`'s deterministic backoff schedule.
fn site_hash(seed: u64, kind: FaultKind, subject: u64, attempt: u32) -> u64 {
    let mut z = seed
        ^ (kind.index() as u64).wrapping_mul(0xff51_afd7_ed55_8ccd)
        ^ subject.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(attempt).wrapping_mul(0xd6e8_feb8_6659_fd93);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 11
}

/// The prefix of every panic message an injected
/// [`FaultKind::TaskPanic`] raises; [`silence_injected_panics`] keys on it.
pub const INJECTED_PANIC_PREFIX: &str = "janus-fault:";

/// Whether a panic payload is an injected [`FaultKind::TaskPanic`]
/// rather than a genuine panic.
fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|s| s.starts_with(INJECTED_PANIC_PREFIX))
}

/// Installs, once per process, a panic hook that keeps injected panics'
/// messages and backtraces out of the output. Genuine panics still go
/// through the previously installed hook.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !is_injected_panic(info.payload()) {
                hook(info);
            }
        }));
    });
}

/// A stable 64-bit key for string subjects (FNV-1a), used to address
/// [`FaultKind::CacheMiss`] sites by location-class label.
pub fn stable_key(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_obs::Snapshot as _;

    /// Every injection decision a plan makes over a site matrix, in a
    /// canonical order — the "injected-fault site sequence" of the
    /// determinism guarantee.
    fn decision_sequence(plan: &FaultPlan) -> Vec<(FaultKind, u64, u32, bool)> {
        let mut out = Vec::new();
        for kind in FaultKind::ALL {
            for subject in 0..64 {
                for attempt in 0..8 {
                    out.push((kind, subject, attempt, plan.decide(kind, subject, attempt)));
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_same_site_sequence() {
        let a = FaultPlan::seeded(42, 0.2);
        let b = FaultPlan::seeded(42, 0.2);
        assert_eq!(decision_sequence(&a), decision_sequence(&b));
        // And the sequence is non-trivial at this rate.
        assert!(decision_sequence(&a).iter().any(|&(_, _, _, f)| f));
        assert!(decision_sequence(&a).iter().any(|&(_, _, _, f)| !f));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::seeded(1, 0.2);
        let b = FaultPlan::seeded(2, 0.2);
        assert_ne!(decision_sequence(&a), decision_sequence(&b));
    }

    #[test]
    fn rate_extremes() {
        let never = FaultPlan::seeded(7, 0.0);
        let always = FaultPlan::seeded(7, 1.0);
        for kind in FaultKind::ALL {
            for subject in 0..32 {
                assert!(!never.decide(kind, subject, 0));
                assert!(always.decide(kind, subject, 0), "rate 1.0 always fires");
            }
        }
        // NaN and out-of-range rates are defused, not propagated.
        assert!(!FaultPlan::seeded(7, f64::NAN).decide(FaultKind::TaskPanic, 1, 0));
        assert!(FaultPlan::seeded(7, 9.0).decide(FaultKind::TaskPanic, 1, 0));
    }

    #[test]
    fn seeded_injection_respects_the_attempt_bound() {
        let plan = FaultPlan::seeded(3, 1.0).max_attempt(2);
        assert!(plan.decide(FaultKind::ForcedConflict, 5, 0));
        assert!(plan.decide(FaultKind::ForcedConflict, 5, 1));
        assert!(
            !plan.decide(FaultKind::ForcedConflict, 5, 2),
            "no seeded site fires at or past the bound — retries drain"
        );
        assert!(!FaultPlan::seeded(3, 1.0)
            .max_attempt(0)
            .decide(FaultKind::TaskPanic, 1, 0));
    }

    #[test]
    fn explicit_sites_fire_exactly_as_listed() {
        let plan = FaultPlan::from_sites(vec![
            FaultSite {
                kind: FaultKind::TaskPanic,
                subject: 3,
                attempt: 0,
            },
            FaultSite {
                kind: FaultKind::ForcedConflict,
                subject: 2,
                attempt: 5,
            },
        ]);
        assert!(plan.decide(FaultKind::TaskPanic, 3, 0));
        assert!(!plan.decide(FaultKind::TaskPanic, 3, 1));
        assert!(!plan.decide(FaultKind::TaskPanic, 2, 0));
        assert!(
            plan.decide(FaultKind::ForcedConflict, 2, 5),
            "explicit sites are exempt from the attempt bound"
        );
    }

    #[test]
    fn should_inject_counts_per_kind() {
        let plan = FaultPlan::from_sites(vec![FaultSite {
            kind: FaultKind::CommitStall,
            subject: 1,
            attempt: 0,
        }]);
        assert!(plan.should_inject(FaultKind::CommitStall, 1, 0));
        assert!(!plan.should_inject(FaultKind::CommitStall, 1, 1));
        assert_eq!(plan.stats().injected(), 1);
        assert_eq!(plan.stats().injected_of(FaultKind::CommitStall), 1);
        assert_eq!(plan.stats().injected_of(FaultKind::TaskPanic), 0);
        let counters = plan.stats().counters();
        assert_eq!(plan.stats().source(), "fault");
        assert!(counters.contains(&("faults_injected".to_string(), 1)));
        assert!(counters.contains(&("injected_stall".to_string(), 1)));
    }

    #[test]
    fn stall_lengths_are_deterministic_and_bounded() {
        let plan = FaultPlan::seeded(11, 1.0);
        for attempt in 0..4 {
            let a = plan.stall_micros(9, attempt);
            assert_eq!(a, plan.stall_micros(9, attempt));
            assert!((50..=2000).contains(&a), "stall {a}µs within bounds");
        }
    }

    #[test]
    fn crash_sites_address_one_boundary_of_one_commit() {
        // Kill commit 7 exactly in the group-commit window.
        let plan = FaultPlan::from_sites(vec![FaultSite {
            kind: FaultKind::CrashPoint,
            subject: 7,
            attempt: CrashSite::PostAppendPreFsync.attempt(),
        }]);
        for site in CrashSite::ALL {
            for seq in [6, 7, 8] {
                let fires = plan.should_inject(FaultKind::CrashPoint, seq, site.attempt());
                assert_eq!(
                    fires,
                    seq == 7 && site == CrashSite::PostAppendPreFsync,
                    "seq={seq} site={}",
                    site.label()
                );
            }
        }
        assert_eq!(plan.stats().injected_of(FaultKind::CrashPoint), 1);
        assert!(plan
            .stats()
            .counters()
            .contains(&("injected_crash".to_string(), 1)));
        // The attempt coordinates are dense and ordered like the append.
        let attempts: Vec<u32> = CrashSite::ALL.iter().map(|s| s.attempt()).collect();
        assert_eq!(attempts, vec![0, 1, 2]);
    }

    #[test]
    fn injected_panics_are_told_apart_from_genuine_ones() {
        let (tid, attempt) = (3u64, 1u32);
        // The runtime's task-panic injection site, verbatim.
        let injected = std::panic::catch_unwind(|| {
            panic!("{INJECTED_PANIC_PREFIX} injected panic (task {tid}, attempt {attempt})")
        })
        .expect_err("the injection site panics");
        assert!(is_injected_panic(injected.as_ref()));
        let genuine = std::panic::catch_unwind(|| panic!("index {tid} out of bounds"))
            .expect_err("a genuine panic");
        assert!(!is_injected_panic(genuine.as_ref()));
        let literal = std::panic::catch_unwind(|| panic!("boom")).expect_err("a literal panic");
        assert!(!is_injected_panic(literal.as_ref()));
    }

    #[test]
    fn stable_key_is_stable_and_discriminating() {
        assert_eq!(stable_key("acct"), stable_key("acct"));
        assert_ne!(stable_key("acct"), stable_key("queue"));
        assert_ne!(stable_key(""), stable_key("a"));
    }
}
