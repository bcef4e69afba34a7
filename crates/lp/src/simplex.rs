//! Bounded-variable primal simplex on a dense tableau.
//!
//! The solver brings a [`Problem`] into the form
//!
//! ```text
//!   minimize c·y   subject to   A y = b,   0 ≤ y ≤ u
//! ```
//!
//! with one column per variable (finite lower bounds shifted to zero, an
//! upper-bounded-only variable mirrored, a free variable split in two) and
//! one row per constraint (`≤`/`≥` rows gain a slack column). Upper bounds
//! never become rows: the ratio test enforces them, so a step either drives
//! a basic variable to its lower bound, drives it to its upper bound, or
//! flips the entering variable to its other bound without a pivot.
//!
//! Each row starts with a basic column that needs no phase 1 when one
//! exists: its slack, or a singleton column (a column with no other nonzero)
//! whose value `b_r / a` lies within its bounds. Only the remaining rows get
//! an artificial column, and phase 1 runs only when some row did.
//!
//! Pricing is Dantzig's rule (largest reduced-cost violation) with a Harris
//! two-pass ratio test that prefers large pivots among near-ties. Decoding
//! exact answers is massively degenerate — hundreds of steps in a row can
//! leave the point where it is — and Dantzig's rule gets through such
//! stalls far faster than Bland's. So the solver keeps Dantzig's rule and
//! only watches for a cycle: it hashes every basis it visits during a stall
//! and, should one repeat, prices by Bland's rule (which cannot cycle) until
//! a step makes progress.
//!
//! The starting basis is diagonal, so the tableau columns of the starting
//! columns hold `B⁻¹` at every step. The solver uses them to recompute the
//! basic values from scratch at the end of each phase and to read off the
//! dual prices it returns with the optimum.

use std::collections::BTreeSet;

use crate::problem::{Objective, Problem, Relation};

/// Solver tuning knobs.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Hard cap on simplex steps (basis pivots plus bound flips) across
    /// both phases.
    pub max_iterations: usize,
    /// Numerical tolerance for zero tests.
    pub tolerance: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_iterations: 200_000,
            tolerance: 1e-9,
        }
    }
}

/// Hard solver failures (distinct from well-defined LP outcomes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// Pivot budget exhausted (numerical trouble or pathological instance).
    IterationLimit,
    /// Floating-point breakdown: a value overflowed to a non-finite number,
    /// or phase 1 found a ray along which its objective (a sum of
    /// non-negative artificials) falls without bound.
    NumericalBreakdown,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::IterationLimit => write!(f, "simplex iteration limit reached"),
            LpError::NumericalBreakdown => write!(f, "simplex numerical breakdown"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution in the problem's original coordinates.
#[derive(Debug, Clone)]
pub struct OptimalSolution {
    /// Optimal variable assignment.
    pub x: Vec<f64>,
    /// Objective value at `x` (in the problem's own sense).
    pub objective: f64,
    /// Simplex pivots (basis changes) across both phases — the solver's
    /// cost measure, surfaced so callers (and the `so-obs` metrics) can
    /// report LP effort per attack.
    pub iterations: usize,
    /// Steps that moved a nonbasic variable from one bound to the other
    /// without a pivot.
    pub bound_flips: usize,
    /// One price per constraint, in insertion order and in the problem's
    /// own sense. With reduced costs `r = c − Aᵀ·duals`, a minimization
    /// prices `≤` rows ≤ 0 and `≥` rows ≥ 0 (maximization reverses both),
    /// each nonzero `r_v` sits at the bound its sign selects, and
    /// `c·x = Σ_r duals_r·b_r + Σ_v r_v·x_v` — the certificate of
    /// optimality.
    pub duals: Vec<f64>,
}

/// LP outcome.
#[derive(Debug, Clone)]
pub enum Solution {
    /// Optimum found.
    Optimal(OptimalSolution),
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded in the optimization direction.
    Unbounded,
}

impl Solution {
    /// Unwraps the optimal solution.
    ///
    /// # Panics
    /// Panics if the outcome is not `Optimal`.
    pub fn expect_optimal(self) -> OptimalSolution {
        match self {
            Solution::Optimal(s) => s,
            other => panic!("expected optimal solution, got {other:?}"),
        }
    }

    /// True iff the outcome is `Optimal`.
    pub fn is_optimal(&self) -> bool {
        matches!(self, Solution::Optimal(_))
    }
}

/// How an original variable maps onto standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = shift + y[col]`
    Shifted { col: usize, shift: f64 },
    /// `x = hi − y[col]` (upper bound only)
    Mirrored { col: usize, hi: f64 },
    /// `x = y[pos] − y[neg]` (free variable split)
    Split { pos: usize, neg: usize },
}

/// Standard-form program: minimize `c·y` s.t. `A y (rel) b`, `0 ≤ y ≤ u`.
struct StandardForm {
    costs: Vec<f64>,
    upper: Vec<f64>,
    /// Sparse rows, sorted by column, duplicates summed, zeros dropped.
    rows: Vec<Vec<(usize, f64)>>,
    relations: Vec<Relation>,
    rhs: Vec<f64>,
    var_map: Vec<VarMap>,
}

fn to_standard_form(p: &Problem) -> StandardForm {
    let mut upper = Vec::with_capacity(p.n_vars());
    let mut var_map = Vec::with_capacity(p.n_vars());
    for b in p.bounds() {
        let col = upper.len();
        match (b.lo, b.hi) {
            (Some(lo), hi) => {
                var_map.push(VarMap::Shifted { col, shift: lo });
                upper.push(hi.map_or(f64::INFINITY, |hi| hi - lo));
            }
            (None, Some(hi)) => {
                var_map.push(VarMap::Mirrored { col, hi });
                upper.push(f64::INFINITY);
            }
            (None, None) => {
                var_map.push(VarMap::Split {
                    pos: col,
                    neg: col + 1,
                });
                upper.extend([f64::INFINITY, f64::INFINITY]);
            }
        }
    }

    let sign = if p.sense() == Objective::Maximize {
        -1.0
    } else {
        1.0
    };
    let mut costs = vec![0.0; upper.len()];
    for (v, &c) in p.objective().iter().enumerate() {
        match var_map[v] {
            VarMap::Shifted { col, .. } => costs[col] += sign * c,
            VarMap::Mirrored { col, .. } => costs[col] -= sign * c,
            VarMap::Split { pos, neg } => {
                costs[pos] += sign * c;
                costs[neg] -= sign * c;
            }
        }
    }

    let m = p.constraints().len();
    let (mut rows, mut relations, mut rhs) = (
        Vec::with_capacity(m),
        Vec::with_capacity(m),
        Vec::with_capacity(m),
    );
    for c in p.constraints() {
        let mut row = Vec::with_capacity(c.coeffs.len() + 1);
        let mut b = c.rhs;
        for &(v, a) in &c.coeffs {
            match var_map[v] {
                VarMap::Shifted { col, shift } => {
                    row.push((col, a));
                    b -= a * shift;
                }
                VarMap::Mirrored { col, hi } => {
                    row.push((col, -a));
                    b -= a * hi;
                }
                VarMap::Split { pos, neg } => {
                    row.push((pos, a));
                    row.push((neg, -a));
                }
            }
        }
        // Stable sort keeps duplicate entries in insertion order, so their
        // sum is the same on every run.
        row.sort_by_key(|&(col, _)| col);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(row.len());
        for (col, a) in row {
            match merged.last_mut() {
                Some(last) if last.0 == col => last.1 += a,
                _ => merged.push((col, a)),
            }
        }
        merged.retain(|&(_, a)| a != 0.0);
        rows.push(merged);
        relations.push(c.relation);
        rhs.push(b);
    }

    StandardForm {
        costs,
        upper,
        rows,
        relations,
        rhs,
        var_map,
    }
}

/// Where a column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Basic,
    AtLower,
    AtUpper,
}

/// One simplex step chosen by the ratio test.
enum Step {
    /// The entering variable moves to its other bound; the basis stays.
    Flip,
    /// The basic variable of `row` leaves at a bound after a step of
    /// length `step`.
    Pivot {
        row: usize,
        step: f64,
        to_upper: bool,
    },
    /// Nothing limits the entering variable.
    Unbounded,
}

/// Dense bounded-variable tableau. Rows `0..m` hold `B⁻¹A`; row `m` holds
/// the reduced costs of the current phase. Basic values live in `beta`, not
/// in a right-hand-side column.
struct Tableau {
    m: usize,
    width: usize,
    data: Vec<f64>,
    beta: Vec<f64>,
    basis: Vec<usize>,
    state: Vec<State>,
    upper: Vec<f64>,
    first_artificial: usize,
    iterations: usize,
    flips: usize,
    /// Nonzero positions of the current pivot row (scratch).
    nonzeros: Vec<usize>,
}

impl Tableau {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.width + c]
    }

    fn cost_row(&self) -> &[f64] {
        &self.data[self.m * self.width..]
    }

    /// Value of nonbasic column `c`.
    fn nonbasic_value(&self, c: usize) -> f64 {
        match self.state[c] {
            State::AtUpper => self.upper[c],
            _ => 0.0,
        }
    }

    /// Entering column among `0..limit` and its direction (`+1` to increase
    /// from the lower bound, `−1` to decrease from the upper bound).
    fn entering(&self, limit: usize, tol: f64, bland: bool) -> Option<(usize, f64)> {
        let costs = &self.cost_row()[..limit];
        let mut best: Option<(usize, f64, f64)> = None;
        for (c, &d) in costs.iter().enumerate() {
            let (score, dir) = match self.state[c] {
                State::Basic => continue,
                State::AtLower if d < -tol && self.upper[c] > 0.0 => (-d, 1.0),
                State::AtUpper if d > tol => (d, -1.0),
                _ => continue,
            };
            if bland {
                return Some((c, dir));
            }
            if best.map_or(true, |(_, s, _)| score > s) {
                best = Some((c, score, dir));
            }
        }
        best.map(|(c, _, dir)| (c, dir))
    }

    /// Distance row `r`'s basic variable may travel when the entering
    /// column moves by `dir`, and whether it stops at its upper bound.
    /// `None` when the row does not limit the step.
    fn row_limit(&self, r: usize, alpha: f64, tol: f64, slack: f64) -> Option<(f64, bool)> {
        if alpha > tol {
            Some(((self.beta[r] + slack).max(0.0) / alpha, false))
        } else if alpha < -tol {
            let u = self.upper[self.basis[r]];
            (u < f64::INFINITY).then(|| ((u - self.beta[r] + slack).max(0.0) / -alpha, true))
        } else {
            None
        }
    }

    /// Ratio test for column `col` moving in direction `dir`.
    fn ratio_test(&self, col: usize, dir: f64, tol: f64, bland: bool) -> Result<Step, LpError> {
        let flip = self.upper[col];
        if bland {
            // Textbook test: exact minimum ratio, ties to the smallest
            // basic column index (Bland's leaving rule).
            let mut best: Option<(usize, f64, bool)> = None;
            for r in 0..self.m {
                let Some((ratio, to_upper)) = self.row_limit(r, dir * self.at(r, col), tol, 0.0)
                else {
                    continue;
                };
                if !ratio.is_finite() {
                    return Err(LpError::NumericalBreakdown);
                }
                let better = best.map_or(true, |(br, b, _)| {
                    ratio < b || (ratio == b && self.basis[r] < self.basis[br])
                });
                if better {
                    best = Some((r, ratio, to_upper));
                }
            }
            return Ok(match best {
                Some((_, ratio, _)) if flip <= ratio => Step::Flip,
                Some((row, step, to_upper)) => Step::Pivot {
                    row,
                    step,
                    to_upper,
                },
                None if flip < f64::INFINITY => Step::Flip,
                None => Step::Unbounded,
            });
        }
        // Harris pass 1: the longest step that keeps every basic variable
        // within its bounds relaxed by the tolerance.
        let mut theta = f64::INFINITY;
        for r in 0..self.m {
            if let Some((ratio, _)) = self.row_limit(r, dir * self.at(r, col), tol, tol) {
                if !ratio.is_finite() {
                    return Err(LpError::NumericalBreakdown);
                }
                theta = theta.min(ratio);
            }
        }
        if flip <= theta {
            return Ok(if flip < f64::INFINITY {
                Step::Flip
            } else {
                Step::Unbounded
            });
        }
        // Pass 2: among the rows blocking within that step, the largest
        // pivot.
        let mut best: Option<(usize, f64, bool, f64)> = None;
        for r in 0..self.m {
            let alpha = dir * self.at(r, col);
            let Some((ratio, to_upper)) = self.row_limit(r, alpha, tol, 0.0) else {
                continue;
            };
            if ratio <= theta && best.map_or(true, |(.., a)| alpha.abs() > a) {
                best = Some((r, ratio, to_upper, alpha.abs()));
            }
        }
        let (row, step, to_upper, _) = best.ok_or(LpError::NumericalBreakdown)?;
        Ok(Step::Pivot {
            row,
            step,
            to_upper,
        })
    }

    /// Moves nonbasic `col` to its other bound.
    fn flip(&mut self, col: usize, dir: f64) {
        let delta = dir * self.upper[col];
        for r in 0..self.m {
            self.beta[r] -= self.data[r * self.width + col] * delta;
        }
        self.state[col] = if dir > 0.0 {
            State::AtUpper
        } else {
            State::AtLower
        };
        self.flips += 1;
    }

    /// Moves `col` by `step` in direction `dir` and swaps it into the basis
    /// at `row`.
    fn exchange(&mut self, col: usize, dir: f64, row: usize, step: f64, to_upper: bool) {
        let entering_value = self.nonbasic_value(col) + dir * step;
        if step != 0.0 {
            for r in 0..self.m {
                self.beta[r] -= dir * self.data[r * self.width + col] * step;
            }
        }
        let leaving = self.basis[row];
        if leaving >= self.first_artificial {
            // An artificial that leaves has done its job: pin it at zero.
            self.upper[leaving] = 0.0;
            self.state[leaving] = State::AtLower;
        } else {
            self.state[leaving] = if to_upper {
                State::AtUpper
            } else {
                State::AtLower
            };
        }
        self.beta[row] = entering_value;
        self.basis[row] = col;
        self.state[col] = State::Basic;
        self.pivot(row, col);
    }

    /// Gauss–Jordan elimination on `(row, col)`, cost row included.
    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.width;
        let (head, rest) = self.data.split_at_mut(row * w);
        let (prow, tail) = rest.split_at_mut(w);
        let inv = 1.0 / prow[col];
        for v in prow.iter_mut() {
            *v *= inv;
        }
        prow[col] = 1.0;
        // Early on the pivot row is mostly zeros; skipping them gives the
        // same floating-point result as the dense loop.
        self.nonzeros.clear();
        self.nonzeros.extend(
            prow.iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(c, _)| c),
        );
        let sparse = self.nonzeros.len() * 3 < w;
        for other in head.chunks_exact_mut(w).chain(tail.chunks_exact_mut(w)) {
            let f = other[col];
            if f == 0.0 {
                continue;
            }
            if sparse {
                for &c in &self.nonzeros {
                    other[c] -= f * prow[c];
                }
            } else {
                for (a, &b) in other.iter_mut().zip(prow.iter()) {
                    *a -= f * b;
                }
            }
            other[col] = 0.0;
        }
        self.iterations += 1;
    }

    /// Replaces the cost row with the reduced costs of `costs` (one per
    /// column) against the current basis.
    fn price_out(&mut self, costs: &[f64]) {
        let (w, m) = (self.width, self.m);
        let (body, cost_row) = self.data.split_at_mut(m * w);
        cost_row.copy_from_slice(costs);
        for (r, row) in body.chunks_exact(w).enumerate() {
            let cb = costs[self.basis[r]];
            if cb != 0.0 {
                for (d, &a) in cost_row.iter_mut().zip(row) {
                    *d -= cb * a;
                }
            }
        }
        for &b in &self.basis {
            cost_row[b] = 0.0;
        }
    }
}

/// The starting basic column of each row: `(column, coefficient)`.
type Starters = Vec<(usize, f64)>;

/// Recomputes the basic values as `B⁻¹(b − Σ_{upper} A_j u_j)`, reading
/// `B⁻¹` off the starting columns.
fn refresh_beta(t: &mut Tableau, sf: &StandardForm, starters: &Starters) {
    let mut b = sf.rhs.clone();
    for (r, row) in sf.rows.iter().enumerate() {
        for &(c, a) in row {
            if t.state[c] == State::AtUpper {
                b[r] -= a * t.upper[c];
            }
        }
    }
    for i in 0..t.m {
        let mut v = 0.0;
        for (r, &(s, a)) in starters.iter().enumerate() {
            if b[r] != 0.0 {
                v += t.at(i, s) * b[r] / a;
            }
        }
        t.beta[i] = v;
    }
}

enum PhaseEnd {
    Optimal,
    Unbounded,
}

/// Zobrist key of column `c` for the basis hash (the splitmix64 mix).
fn column_key(c: usize) -> u64 {
    let mut z = (c as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cycle watch: the hashes of the bases visited since the last step that
/// made progress. A degenerate step leaves the point unchanged, so meeting
/// one of them again means Dantzig's rule is cycling, and pricing falls
/// back to Bland's rule until the next step that makes progress.
struct CycleGuard {
    seen: BTreeSet<u64>,
    hash: u64,
    bland: bool,
}

impl CycleGuard {
    fn new(basis: &[usize]) -> Self {
        let hash = basis.iter().fold(0, |h, &c| h ^ column_key(c));
        CycleGuard {
            seen: BTreeSet::from([hash]),
            hash,
            bland: false,
        }
    }

    /// Records a pivot that swapped `leaving` for `entering`.
    fn pivoted(&mut self, leaving: usize, entering: usize, progress: bool) {
        self.hash ^= column_key(leaving) ^ column_key(entering);
        if progress {
            self.moved();
        } else if !self.seen.insert(self.hash) {
            self.bland = true;
        }
    }

    /// Records a step that moved the point.
    fn moved(&mut self) {
        self.seen.clear();
        self.seen.insert(self.hash);
        self.bland = false;
    }
}

/// Runs one phase over entering columns `0..limit`. `always_bland` prices
/// by Bland's rule throughout (tests use it to exercise that path).
fn run_phase(
    t: &mut Tableau,
    cfg: &SolverConfig,
    limit: usize,
    always_bland: bool,
) -> Result<PhaseEnd, LpError> {
    let tol = cfg.tolerance;
    let mut guard = CycleGuard::new(&t.basis);
    loop {
        if t.iterations + t.flips >= cfg.max_iterations {
            return Err(LpError::IterationLimit);
        }
        let bland = always_bland || guard.bland;
        let Some((col, dir)) = t.entering(limit, tol, bland) else {
            return Ok(PhaseEnd::Optimal);
        };
        match t.ratio_test(col, dir, tol, bland)? {
            Step::Flip => {
                t.flip(col, dir);
                guard.moved();
            }
            Step::Pivot {
                row,
                step,
                to_upper,
            } => {
                // The ratio test only picks pivots above the tolerance, so
                // the one thing left to rule out is an overflowed entry.
                if !t.at(row, col).is_finite() {
                    return Err(LpError::NumericalBreakdown);
                }
                guard.pivoted(t.basis[row], col, step > tol);
                t.exchange(col, dir, row, step, to_upper);
            }
            Step::Unbounded => return Ok(PhaseEnd::Unbounded),
        }
    }
}

/// Solves `p` with the given configuration.
pub fn solve(p: &Problem, cfg: &SolverConfig) -> Result<Solution, LpError> {
    solve_with(p, cfg, false)
}

fn solve_with(p: &Problem, cfg: &SolverConfig, always_bland: bool) -> Result<Solution, LpError> {
    let sf = to_standard_form(p);
    let m = sf.rows.len();
    let n_cols = sf.upper.len();

    // Column layout: structural | slack (one per ≤/≥ row) | artificial.
    let mut uses = vec![0usize; n_cols];
    for row in &sf.rows {
        for &(c, _) in row {
            uses[c] += 1;
        }
    }
    // Each ≤ row gains a slack `+s`, each ≥ row a surplus `−s`.
    let mut slack_of = Vec::with_capacity(m);
    let mut next = n_cols;
    for rel in &sf.relations {
        slack_of.push(match rel {
            Relation::Le => Some((next, 1.0)),
            Relation::Ge => Some((next, -1.0)),
            Relation::Eq => None,
        });
        next += usize::from(*rel != Relation::Eq);
    }
    let first_artificial = next;

    // Each row's starting basic column: its slack, else the cheapest
    // singleton column, provided the value `b / a` lies within the column's
    // bounds; else a fresh artificial. All other columns start at zero.
    let mut n_artificial = 0;
    let mut starters: Starters = Vec::with_capacity(m);
    for ((row, &b), &slack) in sf.rows.iter().zip(&sf.rhs).zip(&slack_of) {
        let fits = |(c, a): (usize, f64)| {
            let upper = sf.upper.get(c).copied().unwrap_or(f64::INFINITY);
            (0.0..=upper).contains(&(b / a))
        };
        let singleton = || {
            let mut best: Option<(usize, f64)> = None;
            for &(c, a) in row {
                if uses[c] == 1
                    && fits((c, a))
                    && best.map_or(true, |(bc, _)| sf.costs[c] < sf.costs[bc])
                {
                    best = Some((c, a));
                }
            }
            best
        };
        let start = slack
            .filter(|&s| fits(s))
            .or_else(singleton)
            .unwrap_or_else(|| {
                n_artificial += 1;
                (
                    first_artificial + n_artificial - 1,
                    if b < 0.0 { -1.0 } else { 1.0 },
                )
            });
        starters.push(start);
    }
    let width = first_artificial + n_artificial;

    // Tableau rows: each constraint divided by its starter's coefficient.
    let mut data = vec![0.0; (m + 1) * width];
    let mut beta = vec![0.0; m];
    let mut basis = vec![0usize; m];
    let mut state = vec![State::AtLower; width];
    for (r, &(s, a)) in starters.iter().enumerate() {
        let row = &mut data[r * width..(r + 1) * width];
        for &(c, v) in &sf.rows[r] {
            row[c] = v / a;
        }
        if let Some((sc, v)) = slack_of[r] {
            row[sc] = v / a;
        }
        row[s] = 1.0;
        beta[r] = sf.rhs[r] / a;
        basis[r] = s;
        state[s] = State::Basic;
    }
    let mut upper = sf.upper.clone();
    upper.resize(width, f64::INFINITY);
    let mut t = Tableau {
        m,
        width,
        data,
        beta,
        basis,
        state,
        upper,
        first_artificial,
        iterations: 0,
        flips: 0,
        nonzeros: Vec::with_capacity(width),
    };

    // ---- Phase 1: minimize the sum of artificials ----------------------
    if n_artificial > 0 {
        let mut phase1 = vec![0.0; width];
        phase1[first_artificial..].fill(1.0);
        t.price_out(&phase1);
        if let PhaseEnd::Unbounded = run_phase(&mut t, cfg, width, always_bland)? {
            return Err(LpError::NumericalBreakdown);
        }
        refresh_beta(&mut t, &sf, &starters);
        let infeasibility: f64 = (0..m)
            .filter(|&r| t.basis[r] >= first_artificial)
            .map(|r| t.beta[r].abs())
            .sum();
        if !infeasibility.is_finite() {
            return Err(LpError::NumericalBreakdown);
        }
        if infeasibility > 1e-6 {
            return Ok(Solution::Infeasible);
        }
        // Artificials still basic sit at zero in redundant rows; pinning
        // them keeps every later ratio test from moving them.
        for r in 0..m {
            if t.basis[r] >= first_artificial {
                t.upper[t.basis[r]] = 0.0;
                t.beta[r] = 0.0;
            }
        }
    }

    // ---- Phase 2: the real objective ------------------------------------
    let mut costs = sf.costs.clone();
    costs.resize(width, 0.0);
    t.price_out(&costs);
    if let PhaseEnd::Unbounded = run_phase(&mut t, cfg, first_artificial, always_bland)? {
        return Ok(Solution::Unbounded);
    }
    refresh_beta(&mut t, &sf, &starters);
    if t.beta.iter().any(|v| !v.is_finite()) {
        return Err(LpError::NumericalBreakdown);
    }

    // ---- Extract the solution and its certificate -----------------------
    let mut y: Vec<f64> = (0..n_cols).map(|c| t.nonbasic_value(c)).collect();
    for (r, &b) in t.basis.iter().enumerate() {
        if b < n_cols {
            y[b] = t.beta[r];
        }
    }
    let x: Vec<f64> = sf
        .var_map
        .iter()
        .map(|vm| match *vm {
            VarMap::Shifted { col, shift } => shift + y[col],
            VarMap::Mirrored { col, hi } => hi - y[col],
            VarMap::Split { pos, neg } => y[pos] - y[neg],
        })
        .collect();
    // π_r = (c_s − d_s) / a_s for row r's starter s, since the starter's
    // only nonzero is a_s in row r.
    let sign = if p.sense() == Objective::Maximize {
        -1.0
    } else {
        1.0
    };
    let reduced = t.cost_row();
    let duals = starters
        .iter()
        .map(|&(s, a)| sign * (costs[s] - reduced[s]) / a)
        .collect();
    Ok(Solution::Optimal(OptimalSolution {
        objective: p.objective_value(&x),
        x,
        iterations: t.iterations,
        bound_flips: t.flips,
        duals,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Bound, Constraint};

    #[test]
    fn trivial_zero_problem() {
        let p = Problem::new(2, Objective::Minimize);
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert_eq!(s.x, vec![0.0, 0.0]);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn single_equality() {
        // min 2x s.t. x = 7 → 14.
        let mut p = Problem::new(1, Objective::Minimize);
        p.set_objective_coeff(0, 2.0);
        p.add_constraint(Constraint::new(vec![(0, 1.0)], Relation::Eq, 7.0));
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.x[0] - 7.0).abs() < 1e-8);
        assert!((s.objective - 14.0).abs() < 1e-8);
        assert!((s.duals[0] - 2.0).abs() < 1e-8, "duals {:?}", s.duals);
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        // min x s.t. (0.5 + 0.5)x >= 3 → x = 3.
        let mut p = Problem::new(1, Objective::Minimize);
        p.set_objective_coeff(0, 1.0);
        p.add_constraint(Constraint::new(vec![(0, 0.5), (0, 0.5)], Relation::Ge, 3.0));
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.x[0] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn redundant_equalities_do_not_break_phase1() {
        // x + y = 4 twice, min x → x = 0, y = 4.
        let mut p = Problem::new(2, Objective::Minimize);
        p.set_objective_coeff(0, 1.0);
        for _ in 0..2 {
            p.add_constraint(Constraint::new(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 4.0));
        }
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!(s.x[0].abs() < 1e-8);
        assert!((s.x[1] - 4.0).abs() < 1e-8);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut p = Problem::new(2, Objective::Maximize);
        p.set_objective_coeff(0, 1.0);
        p.add_constraint(Constraint::new(vec![(0, 1.0), (1, 1.0)], Relation::Le, 1.0));
        let cfg = SolverConfig {
            max_iterations: 0,
            ..SolverConfig::default()
        };
        assert!(matches!(solve(&p, &cfg), Err(LpError::IterationLimit)));
    }

    /// Beale (1955): textbook Dantzig pricing with smallest-index ties
    /// cycles through six degenerate bases here. Optimum −5/4 at x₀ = 1,
    /// x₂ = 1.
    fn beale() -> Problem {
        let mut p = Problem::new(4, Objective::Minimize);
        for (v, c) in [-0.75, 20.0, -0.5, 6.0].into_iter().enumerate() {
            p.set_objective_coeff(v, c);
        }
        let rows = [
            (vec![0.25, -8.0, -1.0, 9.0], 0.0),
            (vec![0.5, -12.0, -0.5, 3.0], 0.0),
            (vec![0.0, 0.0, 1.0, 0.0], 1.0),
        ];
        for (a, b) in rows {
            p.add_constraint(Constraint::new(
                a.into_iter().enumerate().collect(),
                Relation::Le,
                b,
            ));
        }
        p
    }

    #[test]
    fn beale_cycling_example_terminates_at_the_optimum() {
        let s = solve(&beale(), &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!(
            (s.objective + 1.25).abs() < 1e-12,
            "objective {}",
            s.objective
        );
        assert!((s.x[0] - 1.0).abs() < 1e-12 && (s.x[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_guard_falls_back_to_bland_on_a_repeated_basis() {
        let mut g = CycleGuard::new(&[0, 1]);
        g.pivoted(0, 2, false); // {2, 1}
        g.pivoted(1, 3, false); // {2, 3}
        assert!(!g.bland);
        g.pivoted(3, 1, false); // {2, 1} again: a cycle
        assert!(g.bland);
        g.pivoted(2, 4, true); // progress ends the stall
        assert!(!g.bland);
        g.pivoted(4, 0, false); // {0, 1}: seen before the progress step,
        assert!(!g.bland); // but the point has moved since
    }

    #[test]
    fn bland_pricing_reaches_the_same_optima() {
        let mut problems = vec![beale()];
        // A decoding-shaped LP with a negative answer and a boxed variable
        // at its upper bound, plus an infeasible-start ≥ row.
        let mut decode = Problem::new(7, Objective::Minimize);
        for i in 0..3 {
            decode.set_bound(i, Bound::between(0.0, 1.0));
        }
        for e in 3..7 {
            decode.set_objective_coeff(e, 1.0);
        }
        decode.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 1.0), (3, -1.0), (4, 1.0)],
            Relation::Eq,
            2.0,
        ));
        decode.add_constraint(Constraint::new(
            vec![(1, 1.0), (2, 1.0), (5, -1.0), (6, 1.0)],
            Relation::Eq,
            -0.5,
        ));
        decode.add_constraint(Constraint::new(vec![(0, 1.0), (2, 1.0)], Relation::Ge, 1.0));
        problems.push(decode);
        for p in &problems {
            let dantzig = solve(p, &SolverConfig::default()).unwrap().expect_optimal();
            let bland = solve_with(p, &SolverConfig::default(), true)
                .unwrap()
                .expect_optimal();
            assert!(p.is_feasible(&bland.x, 1e-9), "{:?}", bland.x);
            assert!((dantzig.objective - bland.objective).abs() < 1e-12);
        }
    }

    #[test]
    fn overflow_is_a_numerical_breakdown_not_a_limit_or_a_ray() {
        // max x s.t. 1e-3·x ≤ 1e306: the optimum x = 1e309 is beyond f64,
        // so the ratio test overflows. That is neither an unbounded LP nor
        // an exhausted pivot budget.
        let mut p = Problem::new(1, Objective::Maximize);
        p.set_objective_coeff(0, 1.0);
        p.add_constraint(Constraint::new(vec![(0, 1e-3)], Relation::Le, 1e306));
        let err = solve(&p, &SolverConfig::default()).unwrap_err();
        assert_eq!(err, LpError::NumericalBreakdown);
        assert_eq!(err.to_string(), "simplex numerical breakdown");
    }

    #[test]
    fn singleton_columns_start_basic_so_phase_one_is_skipped() {
        // x₀ + x₁ − e⁺ + e⁻ = 3 with x ∈ [0, 1]: e⁻ starts basic at 3, so
        // the solve needs no artificial; the optimum leaves residual 1.
        let mut p = Problem::new(4, Objective::Minimize);
        p.set_bound(0, Bound::between(0.0, 1.0));
        p.set_bound(1, Bound::between(0.0, 1.0));
        p.set_objective_coeff(2, 1.0);
        p.set_objective_coeff(3, 1.0);
        p.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 1.0), (2, -1.0), (3, 1.0)],
            Relation::Eq,
            3.0,
        ));
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.objective - 1.0).abs() < 1e-12);
        assert_eq!(s.x[..2], [1.0, 1.0]);
        assert!((s.duals[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn upper_bounded_only_variables_are_mirrored() {
        // max x with x ≤ 4 as its only bound and x ≥ −1 as a row → 4.
        let mut p = Problem::new(1, Objective::Maximize);
        p.set_objective_coeff(0, 1.0);
        p.set_bound(
            0,
            Bound {
                lo: None,
                hi: Some(4.0),
            },
        );
        p.add_constraint(Constraint::new(vec![(0, 1.0)], Relation::Ge, -1.0));
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.x[0] - 4.0).abs() < 1e-12);
        // Minimizing instead walks down to the row.
        let mut q = p.clone();
        q.set_objective_coeff(0, -1.0);
        let s = solve(&q, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.x[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solution_is_feasible_for_random_like_instance() {
        // A small fixed instance with all relation kinds; verify feasibility
        // via Problem::is_feasible rather than a known optimum.
        let mut p = Problem::new(3, Objective::Maximize);
        p.set_objective_coeff(0, 1.0);
        p.set_objective_coeff(1, 2.0);
        p.set_objective_coeff(2, -1.0);
        p.set_bound(2, Bound::between(0.0, 4.0));
        p.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            Relation::Le,
            10.0,
        ));
        p.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, -1.0)],
            Relation::Ge,
            -2.0,
        ));
        p.add_constraint(Constraint::new(vec![(1, 1.0), (2, 1.0)], Relation::Eq, 6.0));
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!(p.is_feasible(&s.x, 1e-6), "solution {:?}", s.x);
    }
}
