//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! Standard architecture: two-watched-literal unit propagation, first-UIP
//! conflict analysis with clause learning, exponential-decay variable
//! activities (VSIDS-style branching) and Luby-sequence restarts. Complete
//! for any CNF; no preprocessing.

use crate::{Clause, Cnf, Lit, Var};

/// The outcome of [`Solver::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum Solution {
    /// Satisfiable, with a witnessing total assignment indexed by variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

impl Solution {
    /// Whether the instance was satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, Solution::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            Solution::Sat(m) => Some(m),
            Solution::Unsat => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assign {
    Unassigned,
    True,
    False,
}

impl Assign {
    fn of(b: bool) -> Assign {
        if b {
            Assign::True
        } else {
            Assign::False
        }
    }
}

/// A CDCL SAT solver over a fixed clause database.
///
/// # Example
///
/// ```
/// use janus_sat::{Cnf, Solver, Var};
///
/// let mut cnf = Cnf::new();
/// let (a, b) = (cnf.fresh_var(), cnf.fresh_var());
/// cnf.add_clause(vec![a.pos(), b.pos()]);
/// cnf.add_clause(vec![a.neg()]);
/// let solution = Solver::new(&cnf).solve();
/// let model = solution.model().expect("satisfiable");
/// assert!(!model[a.index()] && model[b.index()]);
/// ```
#[derive(Debug)]
pub struct Solver {
    num_vars: usize,
    clauses: Vec<Clause>,
    /// watches[lit.code()] = clause indices watching `lit`.
    watches: Vec<Vec<usize>>,
    assign: Vec<Assign>,
    /// Decision level of each assigned variable.
    level: Vec<u32>,
    /// Index into `clauses` of the clause that implied each variable
    /// (`usize::MAX` for decisions).
    reason: Vec<usize>,
    trail: Vec<Lit>,
    /// Trail indices where each decision level starts.
    trail_lims: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Last polarity each variable was assigned (phase saving): the
    /// solver re-tries a variable's previous polarity first, which keeps
    /// it exploring near a partial solution across restarts.
    saved_phase: Vec<bool>,
    /// Conflicts seen since the last restart.
    conflicts_since_restart: u64,
    restarts: u32,
    empty_clause: bool,
    stats: SolverStats,
}

/// Search statistics, for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Conflicts analyzed (= clauses learnt).
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
}

impl SolverStats {
    /// Adds another solver's counters into this one.
    pub fn merge(&mut self, other: &SolverStats) {
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
    }
}

/// Process-wide solver-activity totals. Solvers are created deep inside
/// the symbolic verifier (one per equivalence query) and dropped
/// immediately, so per-instance stats are unreachable from the CLI; each
/// solver folds its counters in here when it drops.
#[derive(Debug, Default)]
struct GlobalSolverStats {
    decisions: std::sync::atomic::AtomicU64,
    conflicts: std::sync::atomic::AtomicU64,
    propagations: std::sync::atomic::AtomicU64,
    restarts: std::sync::atomic::AtomicU64,
}

static GLOBAL_STATS: GlobalSolverStats = GlobalSolverStats {
    decisions: std::sync::atomic::AtomicU64::new(0),
    conflicts: std::sync::atomic::AtomicU64::new(0),
    propagations: std::sync::atomic::AtomicU64::new(0),
    restarts: std::sync::atomic::AtomicU64::new(0),
};

/// The totals accumulated by every [`Solver`] dropped so far in this
/// process.
pub fn global_solver_stats() -> SolverStats {
    use std::sync::atomic::Ordering::Relaxed;
    SolverStats {
        decisions: GLOBAL_STATS.decisions.load(Relaxed),
        conflicts: GLOBAL_STATS.conflicts.load(Relaxed),
        propagations: GLOBAL_STATS.propagations.load(Relaxed),
        restarts: GLOBAL_STATS.restarts.load(Relaxed),
    }
}

impl Drop for Solver {
    fn drop(&mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        GLOBAL_STATS
            .decisions
            .fetch_add(self.stats.decisions, Relaxed);
        GLOBAL_STATS
            .conflicts
            .fetch_add(self.stats.conflicts, Relaxed);
        GLOBAL_STATS
            .propagations
            .fetch_add(self.stats.propagations, Relaxed);
        GLOBAL_STATS
            .restarts
            .fetch_add(self.stats.restarts, Relaxed);
    }
}

const NO_REASON: usize = usize::MAX;

impl Solver {
    /// Builds a solver over the given CNF.
    pub fn new(cnf: &Cnf) -> Self {
        let n = cnf.num_vars as usize;
        let mut s = Solver {
            num_vars: n,
            clauses: Vec::with_capacity(cnf.clauses.len()),
            watches: vec![Vec::new(); 2 * n],
            assign: vec![Assign::Unassigned; n],
            level: vec![0; n],
            reason: vec![NO_REASON; n],
            trail: Vec::new(),
            trail_lims: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            saved_phase: vec![false; n],
            conflicts_since_restart: 0,
            restarts: 0,
            empty_clause: false,
            stats: SolverStats::default(),
        };
        for clause in &cnf.clauses {
            s.add_clause(clause.clone());
        }
        s
    }

    fn add_clause(&mut self, mut clause: Clause) {
        clause.sort();
        clause.dedup();
        // A clause containing both polarities of a variable is a tautology.
        if clause
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0] != w[1])
        {
            return;
        }
        match clause.len() {
            0 => self.empty_clause = true,
            1 => {
                // Enqueue at level 0; conflicting units surface during solve.
                let l = clause[0];
                match self.value(l) {
                    Assign::False => self.empty_clause = true,
                    Assign::True => {}
                    Assign::Unassigned => self.enqueue(l, NO_REASON),
                }
            }
            _ => {
                let idx = self.clauses.len();
                self.watches[clause[0].code()].push(idx);
                self.watches[clause[1].code()].push(idx);
                self.clauses.push(clause);
            }
        }
    }

    fn value(&self, l: Lit) -> Assign {
        match self.assign[l.var().index()] {
            Assign::Unassigned => Assign::Unassigned,
            Assign::True => Assign::of(l.is_positive()),
            Assign::False => Assign::of(!l.is_positive()),
        }
    }

    fn enqueue(&mut self, l: Lit, reason: usize) {
        let v = l.var().index();
        self.assign[v] = Assign::of(l.is_positive());
        self.level[v] = self.trail_lims.len() as u32;
        self.reason[v] = reason;
        self.saved_phase[v] = l.is_positive();
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            // Clauses watching ¬p must find a new watch or be unit/conflicting.
            let mut watchers = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < watchers.len() {
                let ci = watchers[i];
                // Normalize: watched literals are positions 0 and 1.
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci][1], false_lit);
                let first = self.clauses[ci][0];
                if self.value(first) == Assign::True {
                    i += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                let mut found = false;
                for k in 2..self.clauses[ci].len() {
                    if self.value(self.clauses[ci][k]) != Assign::False {
                        self.clauses[ci].swap(1, k);
                        let new_watch = self.clauses[ci][1];
                        self.watches[new_watch.code()].push(ci);
                        watchers.swap_remove(i);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.value(first) == Assign::False {
                    // Conflict: restore remaining watchers.
                    // Entries already swap_removed were re-watched
                    // elsewhere; everything still in `watchers` keeps
                    // watching ¬p.
                    self.watches[false_lit.code()].append(&mut watchers);
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
            self.watches[false_lit.code()] = watchers;
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, confl: usize) -> (Clause, u32) {
        let current_level = self.trail_lims.len() as u32;
        let mut learnt: Clause = Vec::new();
        let mut seen = vec![false; self.num_vars];
        let mut counter = 0usize; // literals of current level still to resolve
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();
        let mut clause_idx = confl;

        loop {
            // Resolve on the literals of the reason clause.
            let start = usize::from(p.is_some()); // skip asserting lit of reason
            let lits: Vec<Lit> = self.clauses[clause_idx][start..].to_vec();
            for q in lits {
                let v = q.var();
                if !seen[v.index()] && self.level[v.index()] > 0 {
                    seen[v.index()] = true;
                    self.bump(v);
                    if self.level[v.index()] == current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                trail_idx -= 1;
                if seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let lit = self.trail[trail_idx];
            seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            clause_idx = self.reason[lit.var().index()];
            debug_assert_ne!(clause_idx, NO_REASON);
            // Normalize reason clause so its asserting literal is first.
            if self.clauses[clause_idx][0] != lit {
                let pos = self.clauses[clause_idx]
                    .iter()
                    .position(|&l| l == lit)
                    .expect("asserting literal in reason clause");
                self.clauses[clause_idx].swap(0, pos);
            }
            p = Some(lit);
        }

        let uip = !p.expect("first UIP exists");
        // Backjump level: highest level among the other learnt literals.
        let bt = learnt
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        let mut clause = vec![uip];
        clause.extend(learnt);
        (clause, bt)
    }

    fn backtrack(&mut self, level: u32) {
        while self.trail_lims.len() as u32 > level {
            let lim = self.trail_lims.pop().expect("non-empty trail limits");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty trail");
                self.assign[l.var().index()] = Assign::Unassigned;
                self.reason[l.var().index()] = NO_REASON;
            }
        }
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<(f64, usize)> = None;
        for v in 0..self.num_vars {
            if self.assign[v] == Assign::Unassigned {
                let a = self.activity[v];
                if best.is_none_or(|(ba, _)| a > ba) {
                    best = Some((a, v));
                }
            }
        }
        best.map(|(_, v)| {
            self.stats.decisions += 1;
            // Phase saving: re-try the variable's previous polarity.
            Lit::new(Var(v as u32), self.saved_phase[v])
        })
    }

    fn luby(x: u32) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        let mut x = x as u64;
        let (mut size, mut seq) = (1u64, 0u32);
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// Decides satisfiability of the clause database.
    pub fn solve(&mut self) -> Solution {
        if self.empty_clause {
            return Solution::Unsat;
        }
        // Propagate level-0 units first.
        if self.propagate().is_some() {
            return Solution::Unsat;
        }
        let mut restart_limit = 64 * Self::luby(self.restarts);
        loop {
            if let Some(confl) = self.propagate() {
                if self.trail_lims.is_empty() {
                    return Solution::Unsat;
                }
                self.conflicts_since_restart += 1;
                self.stats.conflicts += 1;
                self.var_inc /= 0.95;
                let (learnt, bt_level) = self.analyze(confl);
                self.backtrack(bt_level);
                if learnt.len() == 1 {
                    // Asserting unit at level 0 — backtrack fully first.
                    self.backtrack(0);
                    if self.value(learnt[0]) == Assign::False {
                        return Solution::Unsat;
                    }
                    if self.value(learnt[0]) == Assign::Unassigned {
                        self.enqueue(learnt[0], NO_REASON);
                    }
                } else {
                    let mut learnt = learnt;
                    // Watch invariant: position 1 must hold the
                    // highest-level (last-to-unassign) remaining literal,
                    // otherwise backtracking can strand a false watch and
                    // miss propagations.
                    let hi = (1..learnt.len())
                        .max_by_key(|&k| self.level[learnt[k].var().index()])
                        .expect("learnt clause has a second literal");
                    learnt.swap(1, hi);
                    let idx = self.clauses.len();
                    self.watches[learnt[0].code()].push(idx);
                    self.watches[learnt[1].code()].push(idx);
                    let assert_lit = learnt[0];
                    self.clauses.push(learnt);
                    self.enqueue(assert_lit, idx);
                }
                if self.conflicts_since_restart >= restart_limit {
                    self.conflicts_since_restart = 0;
                    self.restarts += 1;
                    self.stats.restarts += 1;
                    restart_limit = 64 * Self::luby(self.restarts);
                    self.backtrack(0);
                }
            } else {
                match self.decide() {
                    None => {
                        let model = self.assign.iter().map(|&a| a == Assign::True).collect();
                        return Solution::Sat(model);
                    }
                    Some(l) => {
                        self.trail_lims.push(self.trail.len());
                        self.enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }

    /// Number of restarts performed so far (diagnostic).
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cnf;

    fn solve(cnf: &Cnf) -> Solution {
        Solver::new(cnf).solve()
    }

    #[test]
    fn empty_cnf_is_sat() {
        assert!(solve(&Cnf::new()).is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_clause(vec![]);
        assert_eq!(solve(&cnf), Solution::Unsat);
    }

    #[test]
    fn unit_conflict_is_unsat() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        cnf.add_clause(vec![a.pos()]);
        cnf.add_clause(vec![a.neg()]);
        assert_eq!(solve(&cnf), Solution::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // a, a→b, b→c  ⊢ c
        let mut cnf = Cnf::new();
        let (a, b, c) = (cnf.fresh_var(), cnf.fresh_var(), cnf.fresh_var());
        cnf.add_clause(vec![a.pos()]);
        cnf.add_clause(vec![a.neg(), b.pos()]);
        cnf.add_clause(vec![b.neg(), c.pos()]);
        let sol = solve(&cnf);
        let m = sol.model().expect("sat");
        assert!(m[a.index()] && m[b.index()] && m[c.index()]);
    }

    #[test]
    fn model_satisfies_cnf() {
        let mut cnf = Cnf::new();
        let vars: Vec<_> = (0..6).map(|_| cnf.fresh_var()).collect();
        cnf.add_clause(vec![vars[0].pos(), vars[1].neg(), vars[2].pos()]);
        cnf.add_clause(vec![vars[1].pos(), vars[3].neg()]);
        cnf.add_clause(vec![vars[2].neg(), vars[4].pos(), vars[5].pos()]);
        cnf.add_clause(vec![vars[0].neg(), vars[5].neg()]);
        cnf.add_clause(vec![vars[3].pos(), vars[4].neg()]);
        if let Solution::Sat(m) = solve(&cnf) {
            assert!(cnf.eval(&m));
        } else {
            panic!("expected sat");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index form mirrors the encoding
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| cnf.fresh_var()).collect())
            .collect();
        for i in 0..3 {
            cnf.add_clause(vec![p[i][0].pos(), p[i][1].pos()]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    cnf.add_clause(vec![p[i1][j].neg(), p[i2][j].neg()]);
                }
            }
        }
        assert_eq!(solve(&cnf), Solution::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index form mirrors the encoding
    fn pigeonhole_4_into_3_is_unsat() {
        let (np, nh) = (4, 3);
        let mut cnf = Cnf::new();
        let p: Vec<Vec<Var>> = (0..np)
            .map(|_| (0..nh).map(|_| cnf.fresh_var()).collect())
            .collect();
        for row in &p {
            cnf.add_clause(row.iter().map(|v| v.pos()).collect());
        }
        for j in 0..nh {
            for i1 in 0..np {
                for i2 in (i1 + 1)..np {
                    cnf.add_clause(vec![p[i1][j].neg(), p[i2][j].neg()]);
                }
            }
        }
        assert_eq!(solve(&cnf), Solution::Unsat);
    }

    #[test]
    fn tautological_clauses_ignored() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        cnf.add_clause(vec![a.pos(), a.neg()]);
        assert!(solve(&cnf).is_sat());
    }

    #[test]
    fn duplicate_literals_deduped() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        cnf.add_clause(vec![a.pos(), a.pos()]);
        let sol = solve(&cnf);
        assert!(sol.model().expect("sat")[a.index()]);
    }

    #[test]
    fn stats_are_populated() {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..8).map(|_| cnf.fresh_var()).collect();
        for w in vars.windows(2) {
            cnf.add_clause(vec![w[0].neg(), w[1].pos()]);
        }
        cnf.add_clause(vec![vars[0].pos()]);
        let mut solver = Solver::new(&cnf);
        assert!(solver.solve().is_sat());
        let stats = solver.stats();
        assert!(stats.propagations >= 8, "chain must propagate");
    }

    #[test]
    fn phase_saving_still_finds_models() {
        // Random-ish instance solved twice: determinism and correctness
        // with phase saving in play.
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..10).map(|_| cnf.fresh_var()).collect();
        for i in 0..9 {
            cnf.add_clause(vec![vars[i].pos(), vars[i + 1].neg()]);
            cnf.add_clause(vec![vars[i].neg(), vars[(i + 3) % 10].pos()]);
        }
        let a = Solver::new(&cnf).solve();
        let b = Solver::new(&cnf).solve();
        assert_eq!(a, b, "solving is deterministic");
        assert!(a.is_sat());
        assert!(cnf.eval(a.model().expect("sat")));
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(Solver::luby(i as u32), e, "luby({i})");
        }
    }

    /// Brute-force cross-check on small random 3-CNF instances.
    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let n = 3 + (next() % 6) as u32; // 3..8 vars
            let m = 2 + (next() % 20) as usize; // 2..21 clauses
            let mut cnf = Cnf::new();
            for _ in 0..n {
                cnf.fresh_var();
            }
            for _ in 0..m {
                let len = 1 + (next() % 3) as usize;
                let clause: Clause = (0..len)
                    .map(|_| {
                        let v = Var((next() % n as u64) as u32);
                        if next() % 2 == 0 {
                            v.pos()
                        } else {
                            v.neg()
                        }
                    })
                    .collect();
                cnf.add_clause(clause);
            }
            let brute_sat = (0..(1u32 << n)).any(|bits| {
                let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                cnf.eval(&assignment)
            });
            let sol = solve(&cnf);
            assert_eq!(sol.is_sat(), brute_sat, "cnf: {cnf}");
            if let Some(m) = sol.model() {
                assert!(cnf.eval(m), "model must satisfy: {cnf}");
            }
        }
    }
}
