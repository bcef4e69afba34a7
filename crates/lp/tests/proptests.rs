//! Property-based tests for the simplex solver.
//!
//! Strategy: generate LPs that are feasible *by construction* (constraints
//! derived from a known point), and LPs whose feasibility is left to
//! chance. Every optimum the solver reports must pass its own certificate
//! (primal feasibility, dual feasibility, duality gap ≤ 1e-6), and on
//! problems with at most four variables it must agree with a brute-force
//! vertex enumeration, including on which problems are infeasible.

mod support;

use proptest::prelude::*;
use so_lp::{solve, Bound, Constraint, Objective, Problem, Relation, Solution, SolverConfig};
use support::{brute_force_optimum, certify};

const TOL: f64 = 1e-6;

fn small_f64() -> impl Strategy<Value = f64> {
    // Well-conditioned coefficients: avoid denormals and huge magnitudes.
    (-50i32..=50).prop_map(|v| f64::from(v) / 5.0)
}

#[derive(Debug, Clone)]
struct GeneratedLp {
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, Relation, f64)>,
}

fn arb_feasible_lp() -> impl Strategy<Value = GeneratedLp> {
    arb_feasible_lp_with(2..6)
}

fn arb_feasible_lp_with(vars: std::ops::Range<usize>) -> impl Strategy<Value = GeneratedLp> {
    (vars, 1usize..7).prop_flat_map(|(n_vars, n_rows)| {
        let witness =
            proptest::collection::vec((0i32..=20).prop_map(|v| f64::from(v) / 2.0), n_vars);
        let objective = proptest::collection::vec(small_f64(), n_vars);
        let row = (
            proptest::collection::vec(small_f64(), n_vars),
            prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
            0i32..=10,
        );
        let rows = proptest::collection::vec(row, n_rows);
        (witness, objective, rows).prop_map(|(witness, objective, rows)| {
            let rows = rows
                .into_iter()
                .map(|(coeffs, rel, slackish)| {
                    let lhs: f64 = coeffs.iter().zip(&witness).map(|(a, x)| a * x).sum();
                    // Choose rhs so the witness satisfies the row.
                    let rhs = match rel {
                        Relation::Le => lhs + f64::from(slackish),
                        Relation::Ge => lhs - f64::from(slackish),
                        Relation::Eq => lhs,
                    };
                    (coeffs, rel, rhs)
                })
                .collect();
            GeneratedLp { objective, rows }
        })
    })
}

fn build(glp: &GeneratedLp, sense: Objective, boxed: bool) -> Problem {
    let n = glp.objective.len();
    let mut p = Problem::new(n, sense);
    for (v, &c) in glp.objective.iter().enumerate() {
        p.set_objective_coeff(v, c);
    }
    if boxed {
        for v in 0..n {
            // Box is wide enough to contain every witness coordinate (≤ 10).
            p.set_bound(v, Bound::between(0.0, 100.0));
        }
    }
    for (coeffs, rel, rhs) in &glp.rows {
        let sparse: Vec<(usize, f64)> = coeffs.iter().enumerate().map(|(v, &a)| (v, a)).collect();
        p.add_constraint(Constraint::new(sparse, *rel, *rhs));
    }
    p
}

/// Boxed LPs on at most four variables whose right-hand sides are drawn
/// independently of any witness, so some are infeasible.
fn arb_tiny_lp() -> impl Strategy<Value = Problem> {
    (1usize..=4, 1usize..6, any::<bool>()).prop_flat_map(|(n_vars, n_rows, maximize)| {
        let objective = proptest::collection::vec(small_f64(), n_vars);
        let row = (
            proptest::collection::vec(small_f64(), n_vars),
            prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
            -20i32..=20,
        );
        let rows = proptest::collection::vec(row, n_rows);
        let boxes = proptest::collection::vec((-3i32..=3, 0i32..=6), n_vars);
        (objective, rows, boxes).prop_map(move |(objective, rows, boxes)| {
            let sense = if maximize {
                Objective::Maximize
            } else {
                Objective::Minimize
            };
            let mut p = Problem::new(n_vars, sense);
            for (v, (&c, (lo, width))) in objective.iter().zip(boxes).enumerate() {
                p.set_objective_coeff(v, c);
                p.set_bound(v, Bound::between(f64::from(lo), f64::from(lo + width)));
            }
            for (coeffs, rel, rhs) in rows {
                let sparse = coeffs.into_iter().enumerate().collect();
                p.add_constraint(Constraint::new(sparse, rel, f64::from(rhs)));
            }
            p
        })
    })
}

fn certified(p: &Problem) -> Result<f64, TestCaseError> {
    match solve(p, &SolverConfig::default()).unwrap() {
        Solution::Optimal(s) => {
            certify(p, &s, TOL).map_err(TestCaseError::fail)?;
            Ok(s.objective)
        }
        other => Err(TestCaseError::fail(format!(
            "expected optimal, got {other:?}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Boxed (hence bounded) feasible problems are solved to a certified
    /// optimum.
    #[test]
    fn boxed_feasible_lp_solved_optimally(glp in arb_feasible_lp()) {
        certified(&build(&glp, Objective::Maximize, true))?;
    }

    /// Minimization mirrors maximization.
    #[test]
    fn boxed_feasible_lp_minimized(glp in arb_feasible_lp()) {
        certified(&build(&glp, Objective::Minimize, true))?;
    }

    /// Unboxed problems may be unbounded but must never be reported
    /// infeasible (the witness proves feasibility), and every optimum they
    /// report is certified.
    #[test]
    fn unboxed_feasible_lp_never_infeasible(glp in arb_feasible_lp()) {
        let p = build(&glp, Objective::Maximize, false);
        match solve(&p, &SolverConfig::default()).unwrap() {
            Solution::Infeasible => prop_assert!(false, "witness exists, cannot be infeasible"),
            Solution::Optimal(s) => {
                certify(&p, &s, TOL).map_err(TestCaseError::fail)?;
            }
            Solution::Unbounded => {}
        }
    }

    /// On tiny boxed problems the solver and the vertex enumerator agree on
    /// feasibility and on the optimal objective.
    #[test]
    fn tiny_lp_agrees_with_vertex_enumeration(p in arb_tiny_lp()) {
        let brute = brute_force_optimum(&p, 1e-7);
        match solve(&p, &SolverConfig::default()).unwrap() {
            Solution::Optimal(s) => {
                certify(&p, &s, TOL).map_err(TestCaseError::fail)?;
                let best = brute.ok_or_else(|| {
                    TestCaseError::fail(format!("solver found {:?}, enumeration found no vertex", s.x))
                })?;
                prop_assert!(
                    (s.objective - best).abs() <= TOL,
                    "solver {} vs vertex enumeration {}",
                    s.objective,
                    best
                );
            }
            Solution::Infeasible => prop_assert!(brute.is_none(), "enumeration found {brute:?}"),
            Solution::Unbounded => prop_assert!(false, "a boxed LP cannot be unbounded"),
        }
    }

    /// The same agreement on problems feasible by construction, with at
    /// most four variables.
    #[test]
    fn tiny_feasible_lp_agrees_with_vertex_enumeration(glp in arb_feasible_lp_with(1..5)) {
        for sense in [Objective::Maximize, Objective::Minimize] {
            let p = build(&glp, sense, true);
            let objective = certified(&p)?;
            let best = brute_force_optimum(&p, 1e-7).expect("the witness region has a vertex");
            prop_assert!((objective - best).abs() <= TOL, "solver {objective} vs {best}");
        }
    }
}
