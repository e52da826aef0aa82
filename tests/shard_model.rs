//! Exhaustive model check of the sharded commit path.
//!
//! A hand-rolled DFS explores *every* interleaving of an abstract model
//! of the protocol — transactions stepping through begin → register →
//! per-shard snapshot → window collect → ascending lock acquisition →
//! residual collect → ticket → publish → prune → unlock → unregister —
//! and checks the properties the real runtime's correctness rests on:
//!
//! * **deadlock freedom**: canonical ascending lock order admits no
//!   cyclic wait (and the checker is not vacuous: a descending-order
//!   mutant does deadlock);
//! * **per-shard sequence monotonicity**: tickets drawn under all
//!   touched write locks publish in strictly increasing order per shard;
//! * **watermark soundness**: the published watermark never exceeds the
//!   begin ticket of any registered transaction;
//! * **prune safety**: no reachable interleaving prunes a shard's window
//!   beneath a snapshotted transaction's begin position (the real
//!   `collect_from` would panic) — and the register-*before*-snapshot
//!   order is load-bearing: a mutant that registers after snapshotting
//!   is caught by this very check;
//! * **validation coverage**: no transaction publishes into a shard that
//!   holds an entry it has not validated — the residual collect under
//!   the write locks closes the gap the open pass leaves, and a mutant
//!   that skips it is caught.
//!
//! The model is small (two shards, three transactions) but the
//! exploration is exhaustive, so every race the abstraction can express
//! is covered.

use std::collections::HashSet;

const NO_OWNER: usize = usize::MAX;

/// One transaction's static description: the shards it touches, in the
/// order it will lock them.
#[derive(Debug, Clone)]
struct TxnSpec {
    lock_order: Vec<usize>,
    /// Model mutant: register with the active set only *after* the
    /// per-shard snapshots (the real protocol registers first).
    register_late: bool,
    /// Model mutant: publish straight after locking, without the
    /// residual collect of entries that landed since the open pass.
    skip_residual: bool,
}

impl TxnSpec {
    fn ascending(shards: &[usize]) -> Self {
        let mut lock_order = shards.to_vec();
        lock_order.sort_unstable();
        TxnSpec {
            lock_order,
            register_late: false,
            skip_residual: false,
        }
    }
}

/// Transaction program counters. Each phase over `m` touched shards
/// expands to `m` micro-steps, so snapshots, lock acquisitions and
/// publishes interleave shard by shard, exactly like the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    Begin,
    Register,
    Snap(usize),
    Collect(usize),
    Lock(usize),
    Residual(usize),
    Ticket,
    Publish(usize),
    Prune,
    Unlock,
    Unregister,
    Done,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TxnState {
    pc: Pc,
    begin: u64,
    begin_pos: Vec<u64>,
    /// Per touched shard, the head position validated up to.
    validated: Vec<u64>,
    registered: bool,
    snapped: Vec<bool>,
    seq: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ShardState {
    /// Positional offset of the first retained entry (prune floor).
    start: u64,
    /// Sequence numbers of retained entries, in publish order.
    entries: Vec<u64>,
    /// Write-lock owner (txn index), or `NO_OWNER`.
    owner: usize,
}

impl ShardState {
    fn head(&self) -> u64 {
        self.start + self.entries.len() as u64
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Model {
    oracle: u64,
    txns: Vec<TxnState>,
    shards: Vec<ShardState>,
}

/// Everything the exploration tallies.
#[derive(Debug, Default)]
struct Verdict {
    states: usize,
    terminals: usize,
    deadlocks: usize,
    monotonicity_violations: usize,
    watermark_violations: usize,
    prune_violations: usize,
    unvalidated_publishes: usize,
}

struct Explorer<'a> {
    specs: &'a [TxnSpec],
    visited: HashSet<Model>,
    verdict: Verdict,
}

impl<'a> Explorer<'a> {
    fn new(specs: &'a [TxnSpec]) -> Self {
        Explorer {
            specs,
            visited: HashSet::new(),
            verdict: Verdict::default(),
        }
    }

    fn initial(&self) -> Model {
        let n_shards = self
            .specs
            .iter()
            .flat_map(|s| s.lock_order.iter().copied())
            .max()
            .map_or(1, |m| m + 1);
        Model {
            oracle: 1,
            txns: self
                .specs
                .iter()
                .map(|s| TxnState {
                    pc: Pc::Begin,
                    begin: 0,
                    begin_pos: vec![0; s.lock_order.len()],
                    validated: vec![0; s.lock_order.len()],
                    registered: false,
                    snapped: vec![false; s.lock_order.len()],
                    seq: 0,
                })
                .collect(),
            shards: (0..n_shards)
                .map(|_| ShardState {
                    start: 0,
                    entries: Vec::new(),
                    owner: NO_OWNER,
                })
                .collect(),
        }
    }

    /// The model's watermark: minimum begin ticket over registered
    /// transactions, `u64::MAX` when none (matches `ActiveBegins`).
    fn watermark(m: &Model) -> u64 {
        m.txns
            .iter()
            .filter(|t| t.registered)
            .map(|t| t.begin)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Shards `specs[i]` touches, in canonical (sorted) order — the
    /// order snapshots and publishes walk, whatever the lock order.
    fn touched(&self, i: usize) -> Vec<usize> {
        let mut t = self.specs[i].lock_order.clone();
        t.sort_unstable();
        t
    }

    fn enabled(&self, m: &Model, i: usize) -> bool {
        match m.txns[i].pc {
            Pc::Done => false,
            Pc::Lock(k) => m.shards[self.specs[i].lock_order[k]].owner == NO_OWNER,
            // Snapshots and window collects run under the shard's *read*
            // lock: they exclude a write-lock holder (but not each
            // other — each is one atomic step here, so reader-reader
            // concurrency is preserved by construction).
            Pc::Snap(k) | Pc::Collect(k) => m.shards[self.touched(i)[k]].owner == NO_OWNER,
            _ => true,
        }
    }

    /// Advances transaction `i` by one micro-step, recording violations.
    fn step(&mut self, m: &mut Model, i: usize) {
        let spec = &self.specs[i];
        let touched = self.touched(i);
        let n = touched.len();
        let pc = m.txns[i].pc;
        match pc {
            Pc::Begin => {
                m.txns[i].begin = m.oracle;
                m.txns[i].pc = if spec.register_late {
                    Pc::Snap(0)
                } else {
                    Pc::Register
                };
            }
            Pc::Register => {
                m.txns[i].registered = true;
                m.txns[i].pc = if spec.register_late {
                    Pc::Collect(0)
                } else {
                    Pc::Snap(0)
                };
            }
            Pc::Snap(k) => {
                let s = touched[k];
                m.txns[i].begin_pos[k] = m.shards[s].head();
                m.txns[i].snapped[k] = true;
                m.txns[i].pc = if k + 1 < n {
                    Pc::Snap(k + 1)
                } else if spec.register_late {
                    Pc::Register
                } else {
                    Pc::Collect(0)
                };
            }
            Pc::Collect(k) => {
                // The model of `collect_from`: the window's base must not
                // have been pruned out from under the snapshot.
                let s = touched[k];
                if m.txns[i].begin_pos[k] < m.shards[s].start {
                    self.verdict.prune_violations += 1;
                }
                m.txns[i].validated[k] = m.shards[s].head();
                m.txns[i].pc = if k + 1 < n {
                    Pc::Collect(k + 1)
                } else {
                    Pc::Lock(0)
                };
            }
            Pc::Lock(k) => {
                let s = spec.lock_order[k];
                debug_assert_eq!(m.shards[s].owner, NO_OWNER, "lock step gated on free");
                m.shards[s].owner = i;
                m.txns[i].pc = if k + 1 < spec.lock_order.len() {
                    Pc::Lock(k + 1)
                } else if spec.skip_residual {
                    Pc::Ticket
                } else {
                    Pc::Residual(0)
                };
            }
            Pc::Residual(k) => {
                // The residual pass reads each held shard from its own
                // write guard: whatever landed since the open pass.
                let s = touched[k];
                debug_assert_eq!(m.shards[s].owner, i, "residual runs under the lock");
                m.txns[i].validated[k] = m.shards[s].head();
                m.txns[i].pc = if k + 1 < n {
                    Pc::Residual(k + 1)
                } else {
                    Pc::Ticket
                };
            }
            Pc::Ticket => {
                m.txns[i].seq = m.oracle;
                m.oracle += 1;
                m.txns[i].pc = Pc::Publish(0);
            }
            Pc::Publish(k) => {
                let s = touched[k];
                let seq = m.txns[i].seq;
                if m.shards[s].entries.last().is_some_and(|&last| last >= seq) {
                    self.verdict.monotonicity_violations += 1;
                }
                if m.shards[s].head() != m.txns[i].validated[k] {
                    self.verdict.unvalidated_publishes += 1;
                }
                m.shards[s].entries.push(seq);
                m.txns[i].pc = if k + 1 < n {
                    Pc::Publish(k + 1)
                } else {
                    Pc::Prune
                };
            }
            Pc::Prune => {
                let floor = Self::watermark(m).min(m.oracle);
                for &s in &touched {
                    while m.shards[s].entries.first().is_some_and(|&e| e < floor) {
                        m.shards[s].entries.remove(0);
                        m.shards[s].start += 1;
                    }
                    // Positional prune safety: the retained prefix must
                    // still cover every snapshotted live window.
                    for (j, t) in m.txns.iter().enumerate() {
                        if j == i || matches!(t.pc, Pc::Done) {
                            continue;
                        }
                        if let Some(k) = self.touched(j).iter().position(|&ts| ts == s) {
                            if t.snapped[k] && t.begin_pos[k] < m.shards[s].start {
                                self.verdict.prune_violations += 1;
                            }
                        }
                    }
                }
                m.txns[i].pc = Pc::Unlock;
            }
            Pc::Unlock => {
                for &s in &spec.lock_order {
                    m.shards[s].owner = NO_OWNER;
                }
                m.txns[i].pc = Pc::Unregister;
            }
            Pc::Unregister => {
                m.txns[i].registered = false;
                m.txns[i].pc = Pc::Done;
            }
            Pc::Done => unreachable!("done transactions are never enabled"),
        }
        // Watermark soundness holds after every step.
        let wm = Self::watermark(m);
        if m.txns.iter().any(|t| t.registered && t.begin < wm) {
            self.verdict.watermark_violations += 1;
        }
    }

    /// Depth-first exploration of every interleaving, deduplicated on
    /// full model states.
    fn explore(&mut self, m: Model) {
        if !self.visited.insert(m.clone()) {
            return;
        }
        self.verdict.states += 1;
        let enabled: Vec<usize> = (0..m.txns.len()).filter(|&i| self.enabled(&m, i)).collect();
        if enabled.is_empty() {
            if m.txns.iter().all(|t| t.pc == Pc::Done) {
                self.verdict.terminals += 1;
            } else {
                self.verdict.deadlocks += 1;
            }
            return;
        }
        for i in enabled {
            let mut next = m.clone();
            self.step(&mut next, i);
            self.explore(next);
        }
    }

    fn run(mut self) -> Verdict {
        let init = self.initial();
        self.explore(init);
        self.verdict
    }
}

#[test]
fn ascending_lock_order_has_no_deadlock_and_prunes_safely() {
    // One single-shard txn per shard plus one spanning both: the exact
    // shape where unordered acquisition would deadlock.
    let specs = vec![
        TxnSpec::ascending(&[0]),
        TxnSpec::ascending(&[1]),
        TxnSpec::ascending(&[0, 1]),
    ];
    let v = Explorer::new(&specs).run();
    assert!(v.states > 1_000, "exploration is non-trivial: {v:?}");
    assert!(v.terminals > 0, "some interleaving terminates: {v:?}");
    assert_eq!(v.deadlocks, 0, "{v:?}");
    assert_eq!(v.monotonicity_violations, 0, "{v:?}");
    assert_eq!(v.watermark_violations, 0, "{v:?}");
    assert_eq!(v.prune_violations, 0, "{v:?}");
    assert_eq!(v.unvalidated_publishes, 0, "{v:?}");
}

#[test]
fn two_cross_shard_transactions_stay_deadlock_free() {
    let specs = vec![TxnSpec::ascending(&[0, 1]), TxnSpec::ascending(&[0, 1])];
    let v = Explorer::new(&specs).run();
    assert_eq!(v.deadlocks, 0, "{v:?}");
    assert_eq!(v.prune_violations, 0, "{v:?}");
    assert_eq!(v.monotonicity_violations, 0, "{v:?}");
    assert_eq!(v.unvalidated_publishes, 0, "{v:?}");
}

#[test]
fn descending_lock_order_mutant_deadlocks() {
    // The checker is not vacuous: opposite acquisition orders across two
    // shards must expose the classic cyclic wait.
    let specs = vec![
        TxnSpec::ascending(&[0, 1]),
        TxnSpec {
            lock_order: vec![1, 0],
            ..TxnSpec::ascending(&[0, 1])
        },
    ];
    let v = Explorer::new(&specs).run();
    assert!(v.deadlocks > 0, "mutant must deadlock: {v:?}");
}

#[test]
fn late_registration_mutant_is_caught_by_the_prune_check() {
    // Registering after snapshotting leaves a window unpinned: two
    // committers can advance the oracle and prune beneath it. The real
    // protocol's register-before-snapshot order forbids this.
    let specs = vec![
        TxnSpec {
            register_late: true,
            ..TxnSpec::ascending(&[0])
        },
        TxnSpec::ascending(&[0]),
        TxnSpec::ascending(&[0]),
    ];
    let v = Explorer::new(&specs).run();
    assert_eq!(v.deadlocks, 0, "{v:?}");
    assert!(
        v.prune_violations > 0,
        "late registration must be caught: {v:?}"
    );
    // And the correct ordering of the same shape is clean.
    let clean = vec![
        TxnSpec::ascending(&[0]),
        TxnSpec::ascending(&[0]),
        TxnSpec::ascending(&[0]),
    ];
    let v = Explorer::new(&clean).run();
    assert_eq!(v.prune_violations, 0, "{v:?}");
    assert_eq!(v.deadlocks, 0, "{v:?}");
}

#[test]
fn skipping_the_residual_pass_is_caught() {
    // Without the residual collect, a committer that lost the race
    // between its open pass and its locks publishes over an entry it
    // never validated — single-shard and cross-shard alike.
    for shape in [vec![vec![0], vec![0]], vec![vec![0, 1], vec![1], vec![0]]] {
        let mutant: Vec<TxnSpec> = shape
            .iter()
            .map(|s| TxnSpec {
                skip_residual: true,
                ..TxnSpec::ascending(s)
            })
            .collect();
        let v = Explorer::new(&mutant).run();
        assert!(
            v.unvalidated_publishes > 0,
            "a skipped residual pass must be caught: {v:?}"
        );
        let real: Vec<TxnSpec> = shape.iter().map(|s| TxnSpec::ascending(s)).collect();
        let v = Explorer::new(&real).run();
        assert_eq!(v.unvalidated_publishes, 0, "{v:?}");
        assert_eq!(v.deadlocks, 0, "{v:?}");
    }
}
