//! Test oracles for the simplex solver: an optimality certificate check and
//! a brute-force vertex enumerator. They live with the tests, not in the
//! solver's API; `so-recon`'s decoder tests include this file by path.

#![allow(dead_code)]

use so_lp::{Objective, OptimalSolution, Problem, Relation};

/// Checks that `s` is optimal for `p` by its own certificate:
///
/// * primal feasibility of `s.x` within `tol`;
/// * dual feasibility — each row price has the sign its relation allows,
///   and each reduced cost `r_v = c_v − Σ_r duals_r·a_rv` that is not zero
///   points at a finite bound that `x_v` sits on;
/// * a duality gap `|c·x − dual objective|` of at most `tol`.
///
/// Weak duality then bounds every feasible point by the dual objective, so
/// the three together prove `s` optimal. Returns the gap.
pub fn certify(p: &Problem, s: &OptimalSolution, tol: f64) -> Result<f64, String> {
    if !p.is_feasible(&s.x, tol) {
        return Err(format!("primal infeasible: x = {:?}", s.x));
    }
    let constraints = p.constraints();
    if s.duals.len() != constraints.len() {
        return Err(format!(
            "{} duals for {} constraints",
            s.duals.len(),
            constraints.len()
        ));
    }
    // Work in minimization sense throughout.
    let sense = match p.sense() {
        Objective::Minimize => 1.0,
        Objective::Maximize => -1.0,
    };
    let mut reduced: Vec<f64> = p.objective().iter().map(|c| sense * c).collect();
    let mut dual_objective = 0.0;
    for (r, (c, &y)) in constraints.iter().zip(&s.duals).enumerate() {
        let y = sense * y;
        if !y.is_finite() {
            return Err(format!("row {r}: non-finite price {y}"));
        }
        let sign_ok = match c.relation {
            Relation::Le => y <= tol,
            Relation::Ge => y >= -tol,
            Relation::Eq => true,
        };
        if !sign_ok {
            return Err(format!(
                "row {r} ({:?}): price {y} has the wrong sign",
                c.relation
            ));
        }
        dual_objective += y * c.rhs;
        for &(v, a) in &c.coeffs {
            reduced[v] -= y * a;
        }
    }
    for (v, (&r, b)) in reduced.iter().zip(p.bounds()).enumerate() {
        let x = s.x[v];
        let bound = if r > tol {
            b.lo.filter(|lo| (x - lo).abs() <= tol).ok_or(format!(
                "x{v} = {x}: reduced cost {r} > 0 off its lower bound {:?}",
                b.lo
            ))?
        } else if r < -tol {
            b.hi.filter(|hi| (x - hi).abs() <= tol).ok_or(format!(
                "x{v} = {x}: reduced cost {r} < 0 off its upper bound {:?}",
                b.hi
            ))?
        } else {
            x
        };
        dual_objective += r * bound;
    }
    let primal_objective = sense * p.objective_value(&s.x);
    let gap = (primal_objective - dual_objective).abs();
    if gap.is_nan() || gap > tol {
        return Err(format!(
            "duality gap {gap:e}: primal {primal_objective}, dual {dual_objective}"
        ));
    }
    Ok(gap)
}

/// The best objective over every vertex of `p`'s feasible region, by
/// enumeration: each choice of `n` hyperplanes among the constraint rows
/// and the finite variable bounds that meet in one point is a candidate.
/// `None` when no candidate is feasible. Exponential in the number of
/// hyperplanes — meant for `n ≤ 4`. The optimum of a bounded LP over a
/// region with a vertex is attained at one, so on such problems this must
/// agree with `solve`.
pub fn brute_force_optimum(p: &Problem, tol: f64) -> Option<f64> {
    let n = p.n_vars();
    assert!(n <= 4, "brute force is for tiny problems");
    let mut planes: Vec<(Vec<f64>, f64)> = Vec::new();
    for c in p.constraints() {
        let mut a = vec![0.0; n];
        for &(v, coeff) in &c.coeffs {
            a[v] += coeff;
        }
        planes.push((a, c.rhs));
    }
    for (v, b) in p.bounds().iter().enumerate() {
        for bound in [b.lo, b.hi].into_iter().flatten() {
            let mut a = vec![0.0; n];
            a[v] = 1.0;
            planes.push((a, bound));
        }
    }
    let better = |a: f64, b: f64| match p.sense() {
        Objective::Minimize => a < b,
        Objective::Maximize => a > b,
    };
    let mut best: Option<f64> = None;
    let mut chosen = Vec::with_capacity(n);
    for_each_subset(planes.len(), n, &mut chosen, &mut |subset| {
        let Some(x) = solve_square(subset.iter().map(|&i| &planes[i]), n) else {
            return;
        };
        if p.is_feasible(&x, tol) {
            let obj = p.objective_value(&x);
            if best.map_or(true, |b| better(obj, b)) {
                best = Some(obj);
            }
        }
    });
    best
}

fn for_each_subset(len: usize, k: usize, chosen: &mut Vec<usize>, visit: &mut dyn FnMut(&[usize])) {
    if chosen.len() == k {
        visit(chosen);
        return;
    }
    let start = chosen.last().map_or(0, |&i| i + 1);
    for i in start..len {
        chosen.push(i);
        for_each_subset(len, k, chosen, visit);
        chosen.pop();
    }
}

/// Solves the square system given by `rows` with partial pivoting; `None`
/// when it is (numerically) singular.
fn solve_square<'a>(rows: impl Iterator<Item = &'a (Vec<f64>, f64)>, n: usize) -> Option<Vec<f64>> {
    let mut m: Vec<Vec<f64>> = rows
        .map(|(a, b)| {
            let mut row = a.clone();
            row.push(*b);
            row
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))?;
        if m[pivot][col].abs() < 1e-9 {
            return None;
        }
        m.swap(col, pivot);
        let pivot_row = m[col].clone();
        for (r, row) in m.iter_mut().enumerate() {
            if r != col {
                let f = row[col] / pivot_row[col];
                for (v, p) in row.iter_mut().zip(&pivot_row).skip(col) {
                    *v -= f * p;
                }
            }
        }
    }
    Some((0..n).map(|i| m[i][n] / m[i][i]).collect())
}
