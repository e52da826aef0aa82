//! The deterministic retry wait and the shared waiting primitive.

use std::time::Duration;

use rand::{rngs::SmallRng, Rng, SeedableRng};

/// How long an aborted attempt should wait before re-executing, in
/// abstract steps consumed by [`wait`]. Zero means retry immediately
/// (the seed behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffHint {
    /// Wait steps; one step is one spin/yield/park unit of [`wait`].
    pub steps: u64,
}

impl BackoffHint {
    /// An immediate retry (no waiting at all).
    pub fn none() -> Self {
        BackoffHint { steps: 0 }
    }
}

/// Waits for `steps` backoff units, escalating from busy spins through
/// scheduler yields to short parks, so long waits cede the core to
/// workers that can still make progress instead of hot-spinning.
/// `bail` is polled between units; when it returns true the wait ends
/// early (used to drain waiters out of poisoned runs).
pub fn wait(steps: u64, bail: impl Fn() -> bool) {
    for step in 0..steps {
        if bail() {
            return;
        }
        match step {
            0..=15 => std::hint::spin_loop(),
            16..=63 => std::thread::yield_now(),
            _ => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

/// A progressive waiting cell for condition loops (the ordered-commit
/// wait): spins briefly, then yields, then parks in short sleeps. One
/// `Parker` tracks a single wait; call [`Parker::reset`] after the
/// condition is met to reuse it.
#[derive(Debug, Default)]
pub struct Parker {
    rounds: u32,
}

impl Parker {
    /// A fresh parker, starting at the spinning stage.
    pub fn new() -> Self {
        Parker::default()
    }

    /// Waits one escalating unit.
    pub fn pause(&mut self) {
        match self.rounds {
            0..=31 => std::hint::spin_loop(),
            32..=95 => std::thread::yield_now(),
            _ => std::thread::sleep(Duration::from_micros(
                // Cap the park at 100µs so wakeups stay prompt even
                // for long waits.
                u64::from((self.rounds - 95).min(2)) * 50,
            )),
        }
        self.rounds = self.rounds.saturating_add(1);
    }

    /// Forgets the wait's history; the next [`Parker::pause`] spins again.
    pub fn reset(&mut self) {
        self.rounds = 0;
    }
}

/// The deterministic wait for one `(seed, task, attempt)` triple: a
/// uniform draw from `[1, min(cap, base << attempt)]`. Pure — the same
/// triple yields the same wait on every run regardless of thread
/// interleaving, so backoff schedules are reproducible.
pub fn deterministic_steps(seed: u64, task: u64, attempt: u32, base: u64, cap: u64) -> u64 {
    let ceiling = base.saturating_shl(attempt.min(32)).clamp(1, cap.max(1));
    let mut rng = SmallRng::seed_from_u64(
        seed ^ task.wrapping_mul(0x9e3779b97f4a7c15) ^ u64::from(attempt).wrapping_mul(0xd6e8feb8),
    );
    rng.gen_range(1..=ceiling)
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= 64 || self > (u64::MAX >> shift) {
            u64::MAX
        } else {
            self << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_steps_are_reproducible_and_bounded() {
        for attempt in 0..20 {
            let a = deterministic_steps(7, 3, attempt, 16, 4096);
            let b = deterministic_steps(7, 3, attempt, 16, 4096);
            assert_eq!(a, b, "same triple, same wait");
            assert!((1..=4096).contains(&a), "wait {a} within [1, cap]");
        }
        // Different tasks draw different schedules (with overwhelming
        // probability for this seed).
        let streams: Vec<u64> = (0..16)
            .map(|t| deterministic_steps(7, t, 3, 16, 4096))
            .collect();
        assert!(streams.iter().any(|&s| s != streams[0]));
    }

    #[test]
    fn ceiling_doubles_then_caps() {
        // The draw is uniform in [1, ceiling]; sample many tasks and
        // check the observed max tracks the ceiling.
        let max_at = |attempt: u32| {
            (0..512)
                .map(|t| deterministic_steps(1, t, attempt, 16, 256))
                .max()
                .unwrap()
        };
        assert!(max_at(0) <= 16);
        assert!(max_at(1) <= 32);
        assert!(max_at(10) <= 256, "cap bounds the wait");
        assert!(max_at(10) > 128, "large attempts reach the cap region");
    }

    #[test]
    fn wait_bails_early() {
        let t0 = std::time::Instant::now();
        wait(1_000_000, || true);
        assert!(t0.elapsed() < Duration::from_millis(100), "bail is prompt");
    }

    #[test]
    fn parker_escalates_without_panicking() {
        let mut p = Parker::new();
        for _ in 0..200 {
            p.pause();
        }
        p.reset();
        p.pause();
    }
}
