#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # so-lp — a pure-Rust linear-programming solver
//!
//! Substrate for the LP-decoding reconstruction attack (Theorem 1.1(ii) of
//! the paper, after Dinur–Nissim 2003 and Dwork–McSherry–Talwar 2007). The
//! attack recovers a private bit vector from noisy subset-sum answers by
//! solving the L1 decoding program, one equality row per query,
//!
//! ```text
//!   minimize   Σ_q (e⁺_q + e⁻_q)
//!   subject to Σ_{i∈q} x_i − e⁺_q + e⁻_q = a_q,   0 ≤ x_i ≤ 1,   e± ≥ 0
//! ```
//!
//! and rounding. The solver is a **bounded-variable primal simplex** on a
//! dense tableau: variable bounds are enforced by the ratio test (a step can
//! flip a variable between its bounds without a pivot) instead of becoming
//! rows, slack and singleton columns start basic so that phase 1 runs only
//! for rows that need an artificial, and pricing is Dantzig's rule with a
//! Bland's-rule fallback on degenerate stalls. It supports
//! minimization/maximization, `≤`/`=`/`≥` constraints, and per-variable
//! bounds (finite bounds by shifting or mirroring, free variables by
//! splitting). Every optimum comes with dual prices, so a caller can check
//! its optimality by certificate rather than trust it.
//!
//! Scale target: thousands of variables/constraints — plenty for the paper's
//! experiments, with no external dependencies to audit.

//! ```
//! use so_lp::{solve, Constraint, Objective, Problem, Relation, SolverConfig};
//! // max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  →  36 at (2, 6).
//! let mut p = Problem::new(2, Objective::Maximize);
//! p.set_objective_coeff(0, 3.0);
//! p.set_objective_coeff(1, 5.0);
//! p.add_constraint(Constraint::new(vec![(0, 1.0)], Relation::Le, 4.0));
//! p.add_constraint(Constraint::new(vec![(1, 2.0)], Relation::Le, 12.0));
//! p.add_constraint(Constraint::new(vec![(0, 3.0), (1, 2.0)], Relation::Le, 18.0));
//! let s = solve(&p, &SolverConfig::default()).unwrap().expect_optimal();
//! assert!((s.objective - 36.0).abs() < 1e-7);
//! // The certificate: the row prices (0, 1.5, 1) reproduce the optimum,
//! // 4·0 + 12·1.5 + 18·1 = 36.
//! let dual_objective: f64 = [4.0, 12.0, 18.0].iter().zip(&s.duals).map(|(b, y)| b * y).sum();
//! assert!((dual_objective - 36.0).abs() < 1e-7);
//! ```

pub mod problem;
pub mod simplex;

pub use problem::{Bound, Constraint, Objective, Problem, Relation};
pub use simplex::{solve, LpError, OptimalSolution, Solution, SolverConfig};

#[cfg(test)]
mod integration_tests {
    use super::*;

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
        // Optimum: x=2, y=6, objective 36 (classic Dantzig example).
        let mut p = Problem::new(2, Objective::Maximize);
        p.set_objective_coeff(0, 3.0);
        p.set_objective_coeff(1, 5.0);
        p.add_constraint(Constraint::new(vec![(0, 1.0)], Relation::Le, 4.0));
        p.add_constraint(Constraint::new(vec![(1, 2.0)], Relation::Le, 12.0));
        p.add_constraint(Constraint::new(
            vec![(0, 3.0), (1, 2.0)],
            Relation::Le,
            18.0,
        ));
        let sol = solve(&p, &SolverConfig::default()).unwrap();
        let s = sol.expect_optimal();
        assert!((s.objective - 36.0).abs() < 1e-7);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
        assert!((s.x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y s.t. x + y = 10, x >= 3, y >= 2 → objective 10.
        let mut p = Problem::new(2, Objective::Minimize);
        p.set_objective_coeff(0, 1.0);
        p.set_objective_coeff(1, 1.0);
        p.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 1.0)],
            Relation::Eq,
            10.0,
        ));
        p.set_bound(0, Bound::at_least(3.0));
        p.set_bound(1, Bound::at_least(2.0));
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.objective - 10.0).abs() < 1e-7);
        assert!((s.x[0] + s.x[1] - 10.0).abs() < 1e-7);
        assert!(s.x[0] >= 3.0 - 1e-9 && s.x[1] >= 2.0 - 1e-9);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2 cannot both hold.
        let mut p = Problem::new(1, Objective::Minimize);
        p.set_objective_coeff(0, 1.0);
        p.add_constraint(Constraint::new(vec![(0, 1.0)], Relation::Le, 1.0));
        p.add_constraint(Constraint::new(vec![(0, 1.0)], Relation::Ge, 2.0));
        let sol = solve(&p, &SolverConfig::default()).unwrap();
        assert!(matches!(sol, Solution::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        // max x with no upper constraint.
        let mut p = Problem::new(1, Objective::Maximize);
        p.set_objective_coeff(0, 1.0);
        let sol = solve(&p, &SolverConfig::default()).unwrap();
        assert!(matches!(sol, Solution::Unbounded));
    }

    #[test]
    fn free_variables_split_correctly() {
        // min-|·| style LP: min e s.t. -e <= x - 3 <= e with x free → x = 3, e = 0.
        let mut p = Problem::new(2, Objective::Minimize);
        let (x, e) = (0, 1);
        p.set_bound(x, Bound::free());
        p.set_objective_coeff(e, 1.0);
        // x - e <= 3  and  x + e >= 3
        p.add_constraint(Constraint::new(
            vec![(x, 1.0), (e, -1.0)],
            Relation::Le,
            3.0,
        ));
        p.add_constraint(Constraint::new(vec![(x, 1.0), (e, 1.0)], Relation::Ge, 3.0));
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.x[x] - 3.0).abs() < 1e-7, "x = {}", s.x[x]);
        assert!(s.x[e].abs() < 1e-7);
    }

    #[test]
    fn boxed_variables_respect_upper_bounds() {
        // max x + y with x,y in [0, 2.5] → 5, by two bound flips and no
        // pivot: the bounds are never rows.
        let mut p = Problem::new(2, Objective::Maximize);
        p.set_objective_coeff(0, 1.0);
        p.set_objective_coeff(1, 1.0);
        p.set_bound(0, Bound::between(0.0, 2.5));
        p.set_bound(1, Bound::between(0.0, 2.5));
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.objective - 5.0).abs() < 1e-7);
        assert_eq!((s.iterations, s.bound_flips), (0, 2));
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // min x s.t. -x <= -4 (i.e. x >= 4) → 4.
        let mut p = Problem::new(1, Objective::Minimize);
        p.set_objective_coeff(0, 1.0);
        p.add_constraint(Constraint::new(vec![(0, -1.0)], Relation::Le, -4.0));
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.objective - 4.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the same vertex — exercises
        // anti-cycling.
        let mut p = Problem::new(2, Objective::Maximize);
        p.set_objective_coeff(0, 1.0);
        p.set_objective_coeff(1, 1.0);
        for k in 1..=10 {
            let k = k as f64;
            p.add_constraint(Constraint::new(vec![(0, k), (1, k)], Relation::Le, 2.0 * k));
        }
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn shifted_lower_bounds_report_original_coordinates() {
        // min x s.t. x >= -5 (lower bound), x <= -1 → x = -5? No: lower bound
        // -5 and constraint x <= -1; minimizing x gives -5.
        let mut p = Problem::new(1, Objective::Minimize);
        p.set_objective_coeff(0, 1.0);
        p.set_bound(0, Bound::at_least(-5.0));
        p.add_constraint(Constraint::new(vec![(0, 1.0)], Relation::Le, -1.0));
        let s = solve(&p, &SolverConfig::default())
            .unwrap()
            .expect_optimal();
        assert!((s.x[0] + 5.0).abs() < 1e-7);
        assert!((s.objective + 5.0).abs() < 1e-7);
    }
}
