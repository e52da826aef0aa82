//! The closed loop shared by the subprocess and in-process drivers:
//! one client, one round in flight, the next round sent only after the
//! previous one was acknowledged.

use std::time::{Duration, Instant};

use crate::gen::{Stream, TXNS_PER_ROUND};
use crate::stats::{median, percentile};

/// Something that executes one round of the stream and returns the
/// commit sequence its `drained` acknowledgement carried.
pub trait Target {
    /// Sends round `index` of the pool and waits for its acknowledgement.
    fn round(&mut self, index: usize) -> Result<u64, String>;
}

/// Which pool rounds have been sent how often: the client's side of the
/// books, from which the expected account values follow.
#[derive(Debug, Clone)]
pub struct Sent {
    next: usize,
    counts: Vec<u32>,
    /// Commit sequence of the last acknowledgement.
    pub last_commit_seq: u64,
}

impl Sent {
    /// Nothing sent yet, over a pool of `pool` rounds.
    pub fn new(pool: usize) -> Sent {
        Sent {
            next: 0,
            counts: vec![0; pool],
            last_commit_seq: 0,
        }
    }

    /// Rounds sent so far.
    pub fn rounds(&self) -> u64 {
        self.counts.iter().map(|c| u64::from(*c)).sum()
    }

    /// Transactions sent so far.
    pub fn txns(&self) -> u64 {
        self.rounds() * TXNS_PER_ROUND as u64
    }

    /// The account values a correct server holds after the rounds sent
    /// so far, starting from zero.
    pub fn model(&self, stream: &Stream) -> Vec<i64> {
        let mut model = vec![0i64; stream.accounts];
        for (round, &times) in stream.rounds.iter().zip(&self.counts) {
            if times > 0 {
                for item in &round.items {
                    item.apply(&mut model, i64::from(times));
                }
            }
        }
        model
    }

    /// Sends the next round of the pool (cycling) to `target`.
    pub fn send(&mut self, target: &mut dyn Target) -> Result<(), String> {
        let index = self.next;
        self.last_commit_seq = target.round(index)?;
        self.counts[index] += 1;
        self.next = (index + 1) % self.counts.len();
        Ok(())
    }
}

/// Client-side timings of one measurement window.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Window length in seconds: start to the last acknowledgement.
    pub window_s: f64,
    /// Per round: acknowledgement time (seconds since the window
    /// started) and latency (µs from the first byte sent).
    pub rounds: Vec<(f64, f64)>,
}

/// Segments the window is cut into for a tail percentile that repeats.
const SEGMENTS: usize = 5;

impl Samples {
    fn segments(&self) -> Vec<Vec<f64>> {
        let mut segments = vec![Vec::new(); SEGMENTS];
        for &(end_s, latency_us) in &self.rounds {
            let k = ((end_s / self.window_s) * SEGMENTS as f64) as usize;
            segments[k.min(SEGMENTS - 1)].push(latency_us);
        }
        segments
    }

    /// Committed transactions per second: acknowledged rounds x 256 over
    /// the window. (The whole window rather than a median of segments:
    /// a server that slows down as it runs makes up later for a slow
    /// start, so the total repeats better than any one segment.)
    pub fn txn_per_s(&self) -> f64 {
        if self.window_s <= 0.0 {
            return 0.0;
        }
        (self.rounds.len() * TXNS_PER_ROUND) as f64 / self.window_s
    }

    /// Median round latency, µs.
    pub fn p50_us(&self) -> f64 {
        let all: Vec<f64> = self.rounds.iter().map(|r| r.1).collect();
        median(&all)
    }

    /// 99th-percentile round latency, µs: the median of the five
    /// segments' p99s.
    pub fn p99_us(&self) -> f64 {
        let p99s: Vec<f64> = self
            .segments()
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| percentile(s, 99.0))
            .collect();
        median(&p99s)
    }
}

/// Runs whole rounds against `target` for `duration`.
pub fn drive(
    target: &mut dyn Target,
    sent: &mut Sent,
    duration: Duration,
) -> Result<Samples, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let t0 = Instant::now();
        sent.send(target)?;
        let t1 = Instant::now();
        rounds.push(((t1 - start).as_secs_f64(), (t1 - t0).as_secs_f64() * 1e6));
        if t1 - start >= duration {
            return Ok(Samples {
                window_s: (t1 - start).as_secs_f64(),
                rounds,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Profile};

    struct Instant0;
    impl Target for Instant0 {
        fn round(&mut self, index: usize) -> Result<u64, String> {
            Ok(index as u64)
        }
    }

    #[test]
    fn books_follow_the_rounds_sent() {
        let stream = generate(Profile::HOT, 1, 3);
        let mut sent = Sent::new(3);
        for _ in 0..4 {
            sent.send(&mut Instant0).unwrap();
        }
        assert_eq!(sent.rounds(), 4);
        assert_eq!(sent.txns(), 4 * 256);
        // Round 0 went out twice, rounds 1 and 2 once.
        let mut expect = vec![0i64; 64];
        for (i, round) in stream.rounds.iter().enumerate() {
            for item in &round.items {
                item.apply(&mut expect, if i == 0 { 2 } else { 1 });
            }
        }
        assert_eq!(sent.model(&stream), expect);
    }

    #[test]
    fn rate_and_percentiles() {
        // 10 s window, 100 rounds/s; every round of the second segment
        // is slow, which must not move the median of the segment p99s.
        let rounds: Vec<(f64, f64)> = (1..=1000)
            .map(|i| {
                let t = f64::from(i) * 0.01;
                (
                    t,
                    if (2.0..4.0).contains(&t) {
                        50_000.0
                    } else {
                        10_000.0
                    },
                )
            })
            .collect();
        let s = Samples {
            window_s: 10.0,
            rounds,
        };
        assert_eq!(s.txn_per_s(), 25_600.0);
        assert_eq!(s.p50_us(), 10_000.0);
        assert_eq!(s.p99_us(), 10_000.0);
    }
}
