//! Stress test of the simplex solver on the decoding LP the attack really
//! solves (built by `decoding_lp`, the code path of `lp_decode`): exact,
//! `√n`-regime and linear noise at `m = 6n`. Every solve must reach an
//! optimum that passes the certificate check.

#[path = "../../lp/tests/support/mod.rs"]
mod support;

use so_data::dist::RecordDistribution;
use so_data::rng::{derive_seed, seeded_rng};
use so_data::UniformBits;
use so_lp::{solve, SolverConfig};
use so_query::{BoundedNoiseSum, ExactSum, SubsetSumMechanism};
use so_recon::{decoding_lp, lp_attack_queries};

#[test]
fn lp_decode_shape_stress() {
    for n in [16usize, 32, 64] {
        let m = 6 * n;
        let seed = derive_seed(0x57E5, n as u64);
        let x = UniformBits::new(n).sample(&mut seeded_rng(seed));
        let queries = lp_attack_queries(n, m, &mut seeded_rng(seed ^ 1));
        let sqrt_n = (n as f64).sqrt();
        let mechanisms: [(&str, Box<dyn SubsetSumMechanism>); 3] = [
            ("exact", Box::new(ExactSum::new(x.clone()))),
            (
                "0.5·√n",
                Box::new(BoundedNoiseSum::new(
                    x.clone(),
                    0.5 * sqrt_n,
                    seeded_rng(seed ^ 2),
                )),
            ),
            (
                "n/3",
                Box::new(BoundedNoiseSum::new(
                    x.clone(),
                    n as f64 / 3.0,
                    seeded_rng(seed ^ 3),
                )),
            ),
        ];
        for (noise, mut mech) in mechanisms {
            let p = decoding_lp(n, &queries, &mech.answer_all(&queries));
            let t = std::time::Instant::now();
            let sol = solve(&p, &SolverConfig::default()).expect("solver error");
            eprintln!("n={n} m={m} noise {noise}: {:?}", t.elapsed());
            assert!(sol.is_optimal(), "n={n} noise {noise}: {sol:?}");
            let opt = sol.expect_optimal();
            support::certify(&p, &opt, 1e-6).unwrap_or_else(|e| panic!("n={n} noise {noise}: {e}"));
        }
    }
}
