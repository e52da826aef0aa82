//! The seeded request generator for the `serve-*` workloads.
//!
//! A *round* is 16 `batch` lines of 16 items each followed by `drain`;
//! the server acknowledges it with one `drained commit_seq=` line. The
//! item mix is 80 % transfers `i>j:d` and 20 % single adds `i:+d`, with
//! `d` in `1..=9`. What varies between workloads is the account space
//! and how the source account is drawn: the two axes — hot-key fraction
//! and footprint overlap — that decide how much real work conflict
//! detection has to do.
//!
//! Everything here is a pure function of `(profile, seed)`: the program
//! under test receives only the generated lines.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// `batch` lines per round.
pub const BATCHES_PER_ROUND: usize = 16;
/// Items (transactions) per `batch` line.
pub const ITEMS_PER_BATCH: usize = 16;
/// Transactions per round.
pub const TXNS_PER_ROUND: usize = BATCHES_PER_ROUND * ITEMS_PER_BATCH;

/// One transaction of the line protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// `i:+d` — add `delta` to `acct`.
    Add {
        /// Account index.
        acct: u32,
        /// Amount added.
        delta: i64,
    },
    /// `i>j:d` — move `amt` from `src` to `dst` in one transaction.
    Transfer {
        /// Debited account.
        src: u32,
        /// Credited account.
        dst: u32,
        /// Amount moved.
        amt: i64,
    },
}

impl Item {
    /// The item's protocol token.
    pub fn token(&self) -> String {
        match self {
            Item::Add { acct, delta } => format!("{acct}:+{delta}"),
            Item::Transfer { src, dst, amt } => format!("{src}>{dst}:{amt}"),
        }
    }

    /// Applies the item to a client-side model of the account values.
    pub fn apply(&self, model: &mut [i64], times: i64) {
        match *self {
            Item::Add { acct, delta } => model[acct as usize] += delta * times,
            Item::Transfer { src, dst, amt } => {
                model[src as usize] -= amt * times;
                model[dst as usize] += amt * times;
            }
        }
    }
}

/// One pre-generated round: its items (batch-major) and the exact bytes
/// sent to the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// `TXNS_PER_ROUND` items; batch `b` is `items[b*16..(b+1)*16]`.
    pub items: Vec<Item>,
    /// 16 `batch` lines and one `drain` line.
    pub wire: Vec<u8>,
}

/// What distinguishes one `serve-*` request stream from another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Number of accounts the server is booted with.
    pub accounts: usize,
    /// `Some(s)`: the source account (and the account of a single add)
    /// is Zipf(s)-distributed over the accounts; `None`: uniform. The
    /// destination of a transfer is always uniform.
    pub zipf_s: Option<f64>,
}

impl Profile {
    /// 4096 accounts, everything uniform: footprints almost never
    /// overlap recent history.
    pub const UNIFORM: Profile = Profile {
        accounts: 4096,
        zipf_s: None,
    };
    /// 64 accounts, Zipf(1.2) sources: every transaction overlaps
    /// recent history.
    pub const HOT: Profile = Profile {
        accounts: 64,
        zipf_s: Some(1.2),
    };
}

/// A Zipf(s) sampler over ranks `0..n` by inverse CDF lookup; rank 0 is
/// the most frequent.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities scaled to the `u64` range.
    cdf: Vec<u64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<u64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                (acc.min(1.0) * u64::MAX as f64) as u64
            })
            .collect();
        // Rounding must not leave a gap at the top of the range.
        *cdf.last_mut().expect("n >= 1") = u64::MAX;
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut impl RngCore) -> usize {
        let u = rng.next_u64();
        self.cdf.partition_point(|&c| c < u)
    }
}

/// A generated request stream: `rounds` is a pool the driver cycles
/// through for as long as the measurement runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Accounts the stream addresses (`--locs`).
    pub accounts: usize,
    /// The pre-generated rounds.
    pub rounds: Vec<Round>,
}

impl Stream {
    /// Every byte the pool would send, in order.
    pub fn wire(&self) -> Vec<u8> {
        self.rounds.iter().flat_map(|r| r.wire.clone()).collect()
    }
}

/// Generates `rounds` rounds for `profile` from `seed`.
pub fn generate(profile: Profile, seed: u64, rounds: usize) -> Stream {
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = profile.zipf_s.map(|s| Zipf::new(profile.accounts, s));
    let n = profile.accounts as u32;
    let source = |rng: &mut SmallRng| match &zipf {
        Some(z) => z.sample(rng) as u32,
        None => rng.gen_range(0..n),
    };
    let rounds = (0..rounds)
        .map(|r| {
            let mut items = Vec::with_capacity(TXNS_PER_ROUND);
            let mut wire = Vec::with_capacity(TXNS_PER_ROUND * 12);
            for b in 0..BATCHES_PER_ROUND {
                wire.extend_from_slice(format!("batch r{r}.{b}").as_bytes());
                for _ in 0..ITEMS_PER_BATCH {
                    let transfer = rng.gen_range(0u32..10) < 8;
                    let src = source(&mut rng);
                    let amount = rng.gen_range(1i64..=9);
                    let item = if transfer {
                        Item::Transfer {
                            src,
                            dst: rng.gen_range(0..n),
                            amt: amount,
                        }
                    } else {
                        Item::Add {
                            acct: src,
                            delta: amount,
                        }
                    };
                    wire.push(b' ');
                    wire.extend_from_slice(item.token().as_bytes());
                    items.push(item);
                }
                wire.push(b'\n');
            }
            wire.extend_from_slice(b"drain\n");
            Round { items, wire }
        })
        .collect();
    Stream {
        accounts: profile.accounts,
        rounds,
    }
}
