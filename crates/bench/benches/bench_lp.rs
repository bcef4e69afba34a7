//! Criterion benches for the simplex solver (substrate of E2/E3), on the
//! decoding LP the attack really solves: `decoding_lp` (the code path of
//! `lp_decode`) over the E2 regime — `m = 6n` density-½ subset queries
//! answered with bounded noise `α = 0.5·√n`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use so_data::dist::RecordDistribution;
use so_data::rng::{derive_seed, seeded_rng};
use so_data::UniformBits;
use so_lp::{solve, Problem, SolverConfig};
use so_query::{BoundedNoiseSum, SubsetSumMechanism};
use so_recon::{decoding_lp, lp_attack_queries};

/// The E2-regime decoding LP for an `n`-bit secret: `m = 6n` rows,
/// `n + 2m` columns.
fn decode_instance(n: usize, seed: u64) -> Problem {
    let m = 6 * n;
    let x = UniformBits::new(n).sample(&mut seeded_rng(derive_seed(seed, 0)));
    let queries = lp_attack_queries(n, m, &mut seeded_rng(derive_seed(seed, 1)));
    let alpha = 0.5 * (n as f64).sqrt();
    let answers =
        BoundedNoiseSum::new(x, alpha, seeded_rng(derive_seed(seed, 2))).answer_all(&queries);
    decoding_lp(n, &queries, &answers)
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_lp_decode_shape");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let p = decode_instance(n, 7);
        let m = p.constraints().len();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}")),
            &p,
            |b, p| {
                b.iter(|| solve(p, &SolverConfig::default()).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simplex);
criterion_main!(benches);
