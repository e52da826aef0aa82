//! The retry wait and the shared waiting primitive.

use std::time::Duration;

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

#[cfg(test)]
mod tests {
    use super::*;

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
