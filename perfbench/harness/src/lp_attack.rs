//! `lp_attack`: the offline LP-decoding reconstruction attack, in process.
//!
//! Each operation is one attack instance: a uniformly random secret
//! `x ∈ {0,1}^n`, `m = 6n` density-½ subset queries
//! ([`lp_attack_queries`]), answers from [`BoundedNoiseSum`] with
//! `α = 0.5·√n` (the E2 regime of Theorem 1.1(ii)), then [`lp_decode`].
//! The run replays a fixed list of twenty instances, generated from
//! [`WORK_SEED`], again and again: thirteen `n = 24` decodes (the timed main
//! class), six `n = 16` and one `n = 32`. The two side sizes show how the
//! decoder scales, which is what a faster LP should change most.

use std::time::Instant;

use so_data::dist::RecordDistribution;
use so_data::rng::{derive_seed, seeded_rng};
use so_data::{BitVec, UniformBits};
use so_query::{BoundedNoiseSum, SubsetSumMechanism};
use so_recon::{lp_attack_queries, lp_decode, reconstruction_accuracy};

use crate::common::{ms_since, HostClock, Latency, Report, Samples, Setups, WORK_SEED};
use crate::trace::{total_us, Capture, Reconcile};

/// Instance sizes of one cycle, in replay order.
const CYCLE: [usize; 20] = [
    24, 16, 24, 24, 16, 24, 24, 16, 24, 24, 16, 24, 24, 16, 24, 24, 16, 24, 24, 32,
];
/// Cycles per requested second, sized so a run takes about `--seconds` on a
/// 2-core x86-64 host at the time the benchmark was written.
const CYCLES_PER_SECOND: f64 = 0.75;
/// Queries per secret bit (`m = 6n`).
const QUERIES_PER_N: usize = 6;
/// Decodes per host-speed chunk: about a third of a second.
const CHUNK_DECODES: usize = 5;
/// Noise bound as a multiple of `√n`.
const NOISE_C: f64 = 0.5;
/// Floor on the mean accuracy of each size class. Theorem 1.1(ii) promises
/// accuracy `1 − o(1)` in expectation, not on every instance: at these small
/// `n` a single decode can round to half its bits wrong while its class
/// mean stays near 0.9.
const MEAN_ACCURACY_FLOOR: f64 = 0.8;

struct Instance {
    n: usize,
    seed: u64,
    secret: BitVec,
}

/// The fixed instance list, one per entry of [`CYCLE`].
fn instances(seed: u64) -> Vec<Instance> {
    CYCLE
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let s = derive_seed(seed, i as u64);
            let secret = UniformBits::new(n).sample(&mut seeded_rng(derive_seed(s, 0)));
            Instance { n, seed: s, secret }
        })
        .collect()
}

/// The attacked mechanism of an instance: bounded noise `α = 0.5·√n`.
fn mechanism(inst: &Instance) -> BoundedNoiseSum<rand::rngs::StdRng> {
    let alpha = NOISE_C * (inst.n as f64).sqrt();
    BoundedNoiseSum::new(
        inst.secret.clone(),
        alpha,
        seeded_rng(derive_seed(inst.seed, 1)),
    )
}

/// The attack's query workload and the mechanism's answers to it.
fn collect(inst: &Instance) -> (Vec<so_query::SubsetQuery>, Vec<f64>) {
    let queries = lp_attack_queries(
        inst.n,
        QUERIES_PER_N * inst.n,
        &mut seeded_rng(derive_seed(inst.seed, 2)),
    );
    let answers = mechanism(inst).answer_all(&queries);
    (queries, answers)
}

/// Runs the workload; `capture` is set in the traced run.
pub fn run(seconds: u64, capture: Option<&Capture>) -> Result<Report, String> {
    let cycles = ((seconds as f64) * CYCLES_PER_SECOND).ceil().max(1.0) as usize;
    // Set-up: generate the instance list and run one untimed warm-up decode
    // of each size (allocator and caches warm).
    let setup = || {
        let warm = instances(derive_seed(WORK_SEED, u64::MAX));
        for inst in [&warm[0], &warm[1], &warm[19]] {
            let (queries, answers) = collect(inst);
            std::hint::black_box(lp_decode(inst.n, &queries, &answers).ok());
        }
        instances(WORK_SEED)
    };
    let mut setups = Setups::new(cycles * CYCLE.len() / CHUNK_DECODES);
    let list = setups.time(setup);

    let mut report = Report::default();
    let mut clock = HostClock::default();
    let mut collect = Latency::default();
    let mut decode: [Latency; 3] = Default::default();
    let mut queries_ms = Samples::default();
    let mut answer_all_ms = Samples::default();
    let mut pivots_main = 0u64;
    let mut us_per_pivot = Samples::default();
    let mut worst_ratio = 0.0f64;
    let mut rec = Reconcile::default();

    let sequence = (0..cycles).flat_map(|_| list.iter().enumerate());
    for (op, (i, inst)) in sequence.enumerate() {
        if op % CHUNK_DECODES == 0 {
            if setups.due() {
                // Outside every chunk: set-up time is not loop time.
                clock.close();
                drop(setups.time(setup));
            }
            clock.mark();
        }
        let n = inst.n;
        let m = QUERIES_PER_N * n;
        let request_id = format!("lp-{op}");
        let _rid = so_obs::with_request_id(&request_id);

        let t0 = Instant::now();
        let queries = lp_attack_queries(n, m, &mut seeded_rng(derive_seed(inst.seed, 2)));
        let q_ms = ms_since(t0);
        let t1 = Instant::now();
        let answers = mechanism(inst).answer_all(&queries);
        let a_ms = ms_since(t1);
        let collect_ms = ms_since(t0);
        let t2 = Instant::now();
        let decoded = lp_decode(n, &queries, &answers);
        let decode_ms = ms_since(t2);
        let t3 = Instant::now();

        let (class, slot) = match n {
            24 => ("decode", 0),
            16 => ("decode_n16", 1),
            _ => ("decode_n32", 2),
        };
        decode[slot].push(&clock, decode_ms);
        if n == 24 {
            collect.push(&clock, collect_ms);
            queries_ms.push(q_ms);
            answer_all_ms.push(a_ms);
        }
        report.count(&format!("decodes_n{n}"), 1);
        for q in &queries {
            for w in q.members().words() {
                report.fingerprint.u64(*w);
            }
        }
        for a in &answers {
            report.fingerprint.f64(*a);
        }
        let outcome = match decoded {
            Err(e) => Err(format!("instance {i} (n={n}): {e}")),
            Ok(r) => {
                let accuracy = reconstruction_accuracy(&inst.secret, &r.reconstruction);
                let injected: f64 = queries
                    .iter()
                    .zip(&answers)
                    .map(|(q, a)| (a - q.true_answer(&inst.secret) as f64).abs())
                    .sum();
                // The true secret with e_q = |η_q| is feasible, so the
                // optimum can never exceed the injected noise.
                let ratio = r.total_residual / injected.max(f64::MIN_POSITIVE);
                worst_ratio = worst_ratio.max(ratio);
                let pivots = r.lp_iterations as u64;
                report.count(&format!("lp_pivots_n{n}"), pivots);
                report.count(
                    &format!("bits_recovered_n{n}"),
                    (accuracy * n as f64).round() as u64,
                );
                for w in r.reconstruction.words() {
                    report.fingerprint.u64(*w);
                }
                if n == 24 {
                    pivots_main += pivots;
                    us_per_pivot.push(decode_ms * 1e3 / pivots.max(1) as f64);
                }
                if ratio > 1.0 + 1e-6 {
                    Err(format!(
                        "instance {i}: LP residual {ratio:.6} x injected noise"
                    ))
                } else {
                    Ok(())
                }
            }
        };
        report.outcome(outcome);
        let op_ms = ms_since(t0);
        if let Some(c) = capture {
            let spans = c.take(&request_id);
            let lp_ms = total_us(&spans, "recon.lp") / 1e3;
            rec.add(
                class,
                op_ms,
                &[
                    ("recon.queries", q_ms),
                    ("query.answer_all", a_ms),
                    ("recon.lp", lp_ms),
                    ("bench.score", ms_since(t3)),
                ],
            );
        }
    }
    clock.close();
    for _ in 0..setups.missing() {
        drop(setups.time(setup));
    }

    let means = [24, 16, 32].map(|n: usize| {
        let count = |key: String| report.work.get(&key).copied().unwrap_or(0);
        let bits = count(format!("bits_recovered_n{n}"));
        (
            n,
            bits as f64 / (count(format!("decodes_n{n}")) * n as u64).max(1) as f64,
        )
    });
    for (n, mean) in means {
        report.outcome(if mean >= MEAN_ACCURACY_FLOOR {
            Ok(())
        } else {
            Err(format!(
                "mean n={n} accuracy {mean:.3} < {MEAN_ACCURACY_FLOOR}"
            ))
        });
    }
    let mean_acc = means[0].1;

    let ops = cycles * list.len();
    report.throughput(ops, &clock);
    if capture.is_none() {
        report.setup(setups.times());
        report.class_latency("main", "decode", &decode[0], true);
        report.class_latency("light", "collect", &collect, false);
        report.class_latency("mid", "decode_n16", &decode[1], false);
        report.class_latency("heavy", "decode_n32", &decode[2], false);
    } else {
        let n_main = decode[0].len().max(1) as f64;
        let decode_main = &decode[0].raw;
        report.metric("lp.pivots", pivots_main as f64 / n_main);
        report.metric("lp.us_per_pivot", us_per_pivot.median().unwrap_or(0.0));
        report.metric("recon.decode_ms", decode_main.median().unwrap_or(0.0));
        report.metric("recon.queries_ms", queries_ms.median().unwrap_or(0.0));
        report.metric("query.answer_all_ms", answer_all_ms.median().unwrap_or(0.0));
        report.metric("recon.accuracy", mean_acc);
        report.metric("recon.residual_ratio", worst_ratio);
        rec.finish(&mut report);
    }
    report.notes.push(format!(
        "lp_attack: {ops} decodes ({cycles} cycles of {}) in {:.2}s, mean n=24 accuracy {mean_acc:.4}, worst residual ratio {worst_ratio:.4}",
        list.len(),
        clock.seconds().0
    ));
    Ok(report)
}
