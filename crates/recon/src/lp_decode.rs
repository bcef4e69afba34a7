//! LP-decoding reconstruction — Theorem 1.1(ii) in the linear-programming
//! form of Dwork–McSherry–Talwar ("The price of privacy and the limits of
//! LP decoding", cited as \[18\] by the paper).
//!
//! The attacker issues `m` random subset queries (each index included
//! independently with probability ½), collects noisy answers `a_q`, and
//! solves the L1 decoding program (the form of KRS, arXiv:1210.2381), one
//! equality row per query:
//!
//! ```text
//!   minimize   Σ_q (e⁺_q + e⁻_q)
//!   subject to Σ_{i∈q} x̃_i − e⁺_q + e⁻_q = a_q
//!              0 ≤ x̃_i ≤ 1,  e⁺_q, e⁻_q ≥ 0
//! ```
//!
//! then rounds `x̃` at ½. When the per-answer error is `O(√n)` the rounded
//! solution agrees with the secret on `1 − o(1)` of the entries. Each row's
//! `e⁻_q` (or `e⁺_q` when `a_q < 0`) starts basic at `|a_q|`, so the
//! simplex needs no phase 1.

use rand::Rng;

use so_data::BitVec;
use so_lp::{Bound, Constraint, Objective, Problem, Relation, Solution, SolverConfig};
use so_query::{SubsetQuery, SubsetSumMechanism};

/// Outcome of the LP-decoding attack.
#[derive(Debug, Clone)]
pub struct LpReconResult {
    /// Rounded reconstruction.
    pub reconstruction: BitVec,
    /// The fractional LP solution before rounding.
    pub fractional: Vec<f64>,
    /// Number of queries issued.
    pub queries_issued: usize,
    /// Total residual `Σ_q |a_q − Σ_{i∈q} x̃_i|` at the optimum.
    pub total_residual: f64,
    /// Simplex pivot iterations spent solving the decoding LP.
    pub lp_iterations: usize,
}

/// Errors from the attack.
#[derive(Debug)]
pub enum LpReconError {
    /// The LP solver failed (iteration limit or numerical breakdown) or
    /// the LP was infeasible /
    /// unbounded — both impossible for well-formed inputs.
    Solver(String),
}

impl std::fmt::Display for LpReconError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpReconError::Solver(s) => write!(f, "LP decoding failed: {s}"),
        }
    }
}

impl std::error::Error for LpReconError {}

/// The density-½ random subset workload of the attack: each of `n` indices
/// is included in each of `m` queries independently with probability ½.
/// Exposed so clients that speak to a *remote* mechanism (the `so-serve`
/// wire protocol) can declare exactly the workload [`lp_reconstruct`] would.
pub fn lp_attack_queries<R: Rng>(n: usize, m: usize, rng: &mut R) -> Vec<SubsetQuery> {
    // Bits stream into whole words in index order, drawing exactly as a
    // bit-at-a-time `set` loop would but without its data-dependent branch.
    (0..m)
        .map(|_| SubsetQuery::new(BitVec::from_iter_bits((0..n).map(|_| rng.gen::<bool>()))))
        .collect()
}

/// Runs the LP-decoding attack with `m` random subset queries.
pub fn lp_reconstruct<R: Rng>(
    mechanism: &mut dyn SubsetSumMechanism,
    m: usize,
    rng: &mut R,
) -> Result<LpReconResult, LpReconError> {
    let n = mechanism.n();
    // Declare the full (non-adaptive) query set, then submit it as one
    // batch — the mechanism sees the workload, not a drip of single queries.
    let queries = lp_attack_queries(n, m, rng);
    let answers = mechanism.answer_all(&queries);
    lp_decode(n, &queries, &answers)
}

/// The decoding LP of [`lp_decode`]: variables `0..n` are `x̃ ∈ [0, 1]`,
/// `n..n+m` are `e⁺_q` and `n+m..n+2m` are `e⁻_q`, one equality row per
/// query. Exposed so benches and tests solve exactly the program the attack
/// solves.
///
/// # Panics
/// Panics when `queries` and `answers` have different lengths.
pub fn decoding_lp(n: usize, queries: &[SubsetQuery], answers: &[f64]) -> Problem {
    assert_eq!(queries.len(), answers.len(), "one answer per query");
    let m = queries.len();
    let mut p = Problem::new(n + 2 * m, Objective::Minimize);
    for i in 0..n {
        p.set_bound(i, Bound::between(0.0, 1.0));
    }
    for (j, (q, &a)) in queries.iter().zip(answers).enumerate() {
        let (plus, minus) = (n + j, n + m + j);
        p.set_objective_coeff(plus, 1.0);
        p.set_objective_coeff(minus, 1.0);
        let mut coeffs: Vec<(usize, f64)> = (0..n)
            .filter(|&i| q.contains(i))
            .map(|i| (i, 1.0))
            .collect();
        coeffs.push((plus, -1.0));
        coeffs.push((minus, 1.0));
        p.add_constraint(Constraint::new(coeffs, Relation::Eq, a));
    }
    p
}

/// Decodes collected `answers` to the declared `queries` into a rounded
/// reconstruction — the solve half of [`lp_reconstruct`], split out so the
/// answers may come from anywhere (an in-process mechanism, or a statistical
/// query service spoken to over a socket).
///
/// # Panics
/// Panics when `queries` and `answers` have different lengths.
pub fn lp_decode(
    n: usize,
    queries: &[SubsetQuery],
    answers: &[f64],
) -> Result<LpReconResult, LpReconError> {
    let span = so_obs::span("recon.lp");
    let m = queries.len();
    let p = decoding_lp(n, queries, answers);
    let sol = so_lp::solve(&p, &SolverConfig::default())
        .map_err(|e| LpReconError::Solver(e.to_string()))?;
    let opt = match sol {
        Solution::Optimal(s) => s,
        Solution::Infeasible => return Err(LpReconError::Solver("infeasible (impossible)".into())),
        Solution::Unbounded => return Err(LpReconError::Solver("unbounded (impossible)".into())),
    };

    let fractional: Vec<f64> = opt.x[..n].to_vec();
    let mut reconstruction = BitVec::zeros(n);
    for (i, &v) in fractional.iter().enumerate() {
        reconstruction.set(i, v >= 0.5);
    }
    let metrics = crate::obs::recon_metrics();
    metrics.lp_attacks.inc();
    metrics.lp_queries.add(m as u64);
    metrics.lp_iterations.add(opt.iterations as u64);
    metrics.lp_bound_flips.add(opt.bound_flips as u64);
    if so_obs::enabled() {
        span.finish_with(&[
            ("n", n.to_string()),
            ("queries", m.to_string()),
            ("rows", p.constraints().len().to_string()),
            ("cols", p.n_vars().to_string()),
            ("iterations", opt.iterations.to_string()),
            ("bound_flips", opt.bound_flips.to_string()),
        ]);
    }
    Ok(LpReconResult {
        reconstruction,
        fractional,
        queries_issued: m,
        total_residual: opt.objective,
        lp_iterations: opt.iterations,
    })
}

// The solver's certificate check, shared with `so-lp`'s own tests.
#[cfg(test)]
#[path = "../../lp/tests/support/mod.rs"]
mod lp_support;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruction_accuracy;
    use so_data::dist::RecordDistribution;
    use so_data::rng::derive_seed;
    use so_data::rng::seeded_rng;
    use so_data::UniformBits;
    use so_query::{BoundedNoiseSum, ExactSum, SubsetSumMechanism};

    fn random_secret(n: usize, seed: u64) -> BitVec {
        UniformBits::new(n).sample(&mut seeded_rng(seed))
    }

    #[test]
    fn exact_answers_reconstruct_exactly() {
        let n = 32;
        let x = random_secret(n, 2);
        let mut m = ExactSum::new(x.clone());
        let r = lp_reconstruct(&mut m, 4 * n, &mut seeded_rng(3)).unwrap();
        assert_eq!(r.reconstruction, x);
        assert!(r.total_residual < 1e-6);
    }

    #[test]
    fn sqrt_n_noise_reconstructs_most_entries() {
        let n = 48;
        let alpha = 0.5 * (n as f64).sqrt(); // c'·√n with c' = 0.5
        let x = random_secret(n, 4);
        let mut m = BoundedNoiseSum::new(x.clone(), alpha, seeded_rng(5));
        let r = lp_reconstruct(&mut m, 8 * n, &mut seeded_rng(6)).unwrap();
        let acc = reconstruction_accuracy(&x, &r.reconstruction);
        // 1 − o(1) accuracy is asymptotic; at n = 48 a handful of boundary
        // bits can still round wrong, so require 80% rather than a value one
        // flipped bit away from the observed run.
        assert!(acc >= 0.8, "accuracy {acc}");
    }

    #[test]
    fn linear_noise_defeats_the_decoder() {
        // With α = n/3 (well past the √n regime) the decoder should fail to
        // reconstruct much better than chance.
        let n = 48;
        let alpha = n as f64 / 3.0;
        let x = random_secret(n, 7);
        let mut m = BoundedNoiseSum::new(x.clone(), alpha, seeded_rng(8));
        let r = lp_reconstruct(&mut m, 6 * n, &mut seeded_rng(9)).unwrap();
        let acc = reconstruction_accuracy(&x, &r.reconstruction);
        assert!(
            acc <= 0.85,
            "accuracy {acc} suspiciously high under heavy noise"
        );
    }

    #[test]
    fn fractional_solution_within_bounds() {
        let n = 24;
        let x = random_secret(n, 10);
        let mut m = BoundedNoiseSum::new(x, 2.0, seeded_rng(11));
        let r = lp_reconstruct(&mut m, 4 * n, &mut seeded_rng(12)).unwrap();
        for &v in &r.fractional {
            assert!((-1e-9..=1.0 + 1e-9).contains(&v), "fractional {v}");
        }
        assert_eq!(r.queries_issued, 4 * n);
    }

    #[test]
    fn attack_queries_draw_one_bit_per_index_in_order() {
        let queries = lp_attack_queries(70, 5, &mut seeded_rng(21));
        let mut rng = seeded_rng(21);
        for q in &queries {
            for i in 0..70 {
                assert_eq!(q.contains(i), rng.gen::<bool>());
            }
        }
    }

    /// E2-regime decodes (`α = 0.5·√n`, `m = 6n`) are optimal by
    /// certificate, and `lp_decode` reports exactly that optimum.
    #[test]
    fn e2_regime_decodes_are_certified_optimal() {
        for n in [16usize, 24, 32] {
            let m = 6 * n;
            let seed = derive_seed(0xCE27, n as u64);
            let x = random_secret(n, seed);
            let queries = lp_attack_queries(n, m, &mut seeded_rng(seed ^ 2));
            let mut mech = BoundedNoiseSum::new(x, 0.5 * (n as f64).sqrt(), seeded_rng(seed ^ 1));
            let answers = mech.answer_all(&queries);
            let p = decoding_lp(n, &queries, &answers);
            assert_eq!((p.constraints().len(), p.n_vars()), (m, n + 2 * m));
            let opt = so_lp::solve(&p, &SolverConfig::default())
                .unwrap()
                .expect_optimal();
            let gap = lp_support::certify(&p, &opt, 1e-6)
                .unwrap_or_else(|e| panic!("n = {n}: certificate rejected: {e}"));
            assert!(gap <= 1e-6);
            let r = lp_decode(n, &queries, &answers).unwrap();
            assert_eq!(r.fractional, opt.x[..n]);
            assert_eq!(r.total_residual, opt.objective);
            assert_eq!(r.lp_iterations, opt.iterations);
        }
    }

    /// Exact answers make the decoding LP massively degenerate (every
    /// residual is zero at the optimum). These seeds once ended in a
    /// phase-1 breakdown reported as an iteration limit; they must decode
    /// exactly.
    #[test]
    fn degenerate_exact_answer_seeds_decode_exactly() {
        for s in [0u64, 2, 7, 16] {
            let x = random_secret(24, s);
            let r = lp_reconstruct(
                &mut ExactSum::new(x.clone()),
                144,
                &mut seeded_rng(1000 + s),
            )
            .unwrap_or_else(|e| panic!("seed {s}: {e}"));
            assert_eq!(r.reconstruction, x, "seed {s}");
            assert!(
                r.total_residual.abs() < 1e-6,
                "seed {s}: residual {}",
                r.total_residual
            );
        }
    }
}
