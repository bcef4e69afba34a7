//! `table_churn`: a persistent [`IncrementalGate`] over a 1 000 000-row
//! [`VersionedDataset`] at the default compaction threshold, replaying an
//! interleaving of reads and writes.
//!
//! * `read` — the same 50 overlapping conjunctions
//!   `age ∈ [lo, lo+9] ∧ dept = d` (the E19 / `bench_incremental` shape),
//!   exact, through the gate: a dashboard re-asked after every write;
//! * `insert` — 64 fresh rows;
//! * `delete` — 16 distinct live rows, by live index;
//! * `compact` — an insert that trips compaction, plus the first read after
//!   it (that read is not a `read` sample).
//!
//! One cycle is 32 inserts (exactly two delta segments), 4 reads and one
//! delete, so a compaction lands every three to four cycles.

use std::time::Instant;

use rand::Rng;
use so_analyze::{IncrementalGate, LintConfig};
use so_data::rng::{derive_seed, seeded_rng};
use so_data::{
    AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, StorageEngine, Value,
    VersionedDataset, DEFAULT_COMPACT_THRESHOLD,
};
use so_plan::shape::PredShape;
use so_plan::workload::{Noise, WorkloadSpec};
use so_query::engine::{count_dataset, WorkloadAnswer};
use so_query::{
    CountingEngine, IncrementalEngine, IntRangePredicate, QueryAuditor, ValueEqualsPredicate,
};

use crate::common::{ms_since, HostClock, Latency, Report, Samples, Setups, SETUPS, WORK_SEED};
use crate::trace::{total_us, Capture, Reconcile};

const BASE_ROWS: usize = 1_000_000;
const QUERIES: usize = 50;
const INSERT_ROWS: usize = 64;
const DELETE_ROWS: usize = 16;
/// Cycles per requested second, sized so a run takes about `--seconds` on
/// a 2-core x86-64 host.
const CYCLES_PER_SECOND: f64 = 13.0;
/// Cycles per host-speed chunk: about a sixth of a second.
const CHUNK_CYCLES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    Insert,
    Delete,
}

/// Eight inserts between reads: two delta segments per cycle.
const CYCLE: [Op; 37] = {
    use Op::*;
    [
        Insert, Insert, Insert, Insert, Insert, Insert, Insert, Insert, Read, Insert, Insert,
        Insert, Insert, Insert, Insert, Insert, Insert, Read, Delete, Insert, Insert, Insert,
        Insert, Insert, Insert, Insert, Insert, Read, Insert, Insert, Insert, Insert, Insert,
        Insert, Insert, Insert, Read,
    ]
};

fn row(rng: &mut impl Rng) -> Vec<Value> {
    vec![
        Value::Int(rng.gen_range(0..90i64)),
        Value::Int(rng.gen_range(0..25i64)),
    ]
}

fn base_dataset(seed: u64) -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("dept", DataType::Int, AttributeRole::QuasiIdentifier),
    ]);
    let mut rng = seeded_rng(derive_seed(seed, 1));
    let mut b = DatasetBuilder::new(schema);
    for _ in 0..BASE_ROWS {
        b.push_row(row(&mut rng));
    }
    b.finish_with_engine(StorageEngine::from_env())
}

/// `(lo, dept)` of the 50 dashboard conjunctions: the fixed
/// `bench_incremental` shape.
fn dashboard() -> Vec<(i64, i64)> {
    (0..QUERIES as i64)
        .map(|q| ((q % 40) * 2, q % 25))
        .collect()
}

fn read_spec(shapes: &[(i64, i64)], n_rows: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(n_rows);
    for &(lo, d) in shapes {
        spec.push_shape(
            &PredShape::And(vec![
                PredShape::IntRange {
                    col: 0,
                    lo,
                    hi: lo + 9,
                },
                PredShape::ValueEquals {
                    col: 1,
                    value: Value::Int(d),
                },
            ]),
            Noise::Exact,
        );
    }
    spec
}

fn new_gate(base: Dataset) -> IncrementalGate {
    let data = VersionedDataset::with_compact_threshold(base, DEFAULT_COMPACT_THRESHOLD);
    let engine = IncrementalEngine::with_auditor(data, QueryAuditor::with_trail_cap(None, 64));
    IncrementalGate::new(engine, LintConfig::default())
}

fn counts(answers: &[WorkloadAnswer]) -> Result<Vec<u64>, String> {
    answers
        .iter()
        .map(|a| match a {
            WorkloadAnswer::Count(c) => Ok(*c as u64),
            other => Err(format!("read answered {other:?}")),
        })
        .collect()
}

/// A mutation as replayed against a bare [`VersionedDataset`].
enum Mutation {
    Insert(Vec<Vec<Value>>),
    Delete(Vec<usize>),
}

/// What the traced run keeps per operation for the reconciliation.
struct Traced {
    class: &'static str,
    e2e_ms: f64,
    /// Index into the mutation list, for writes.
    mutation: Option<usize>,
    /// `(gate.lint, plan.execute, gate self)` of the read, in ms.
    read_layers: Option<(f64, f64, f64)>,
}

fn read_layers(spans: &[crate::trace::SpanRecord]) -> (f64, f64, f64) {
    let gate = total_us(spans, "gate.incremental_execute") / 1e3;
    let lint = total_us(spans, "gate.lint") / 1e3;
    let plan = total_us(spans, "plan.execute") / 1e3;
    (lint, plan, (gate - lint - plan).max(0.0))
}

/// Runs the workload; `capture` is set in the traced run.
pub fn run(seconds: u64, capture: Option<&Capture>) -> Result<Report, String> {
    let seed = WORK_SEED;
    let cycles = ((seconds as f64) * CYCLES_PER_SECOND).ceil().max(1.0) as usize;
    let shapes = dashboard();

    // The base rows are the workload's input, generated once and untimed.
    // Set-up: copy the 1M-row base, wrap it in the gate and run one warm
    // read (columns packed, segment caches filled).
    let input = base_dataset(seed);
    let setup = || {
        let mut gate = new_gate(input.clone());
        let n = gate.engine().dataset().n_live();
        gate.execute(read_spec(&shapes, n));
        gate
    };
    // All set-ups run before the loop: a throwaway 1M-row build between
    // chunks slowed the loop's own operations by about a fifth.
    let mut setups = Setups::new(cycles);
    for _ in 1..SETUPS {
        drop(setups.time(setup));
    }
    let mut gate = setups.time(setup);

    let mut report = Report::default();
    let mut rng = seeded_rng(derive_seed(seed, 3));
    let mut clock = HostClock::default();
    let mut lat: [Latency; 4] = Default::default(); // read, insert, delete, compact
    let mut mutations: Vec<Mutation> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut gate_overhead = Samples::default();
    let (mut inserted, mut deleted) = (0usize, 0usize);
    // The compacting insert: raw and scaled ms, and its mutation index.
    let mut pending_compact: Option<(f64, f64, usize)> = None;
    let mut per_read = [0u64; 6];
    let mut warm_reads = 0u64;
    let mut last_answers = Vec::new();
    let mut op_index = 0usize;

    for cycle in 0..cycles {
        if cycle % CHUNK_CYCLES == 0 {
            clock.mark();
        }
        for &op in &CYCLE {
            op_index += 1;
            let request_id = format!("churn-{op_index}");
            let _rid = so_obs::with_request_id(&request_id);
            match op {
                Op::Read => {
                    let before = (gate.engine().stats(), gate.engine().plan_stats());
                    let n = gate.engine().dataset().n_live();
                    let spec = read_spec(&shapes, n);
                    let t = Instant::now();
                    let answers = gate.execute(spec);
                    let ms = ms_since(t);
                    let outcome = counts(&answers.answers);
                    if let Ok(c) = &outcome {
                        c.iter().for_each(|&v| report.fingerprint.u64(v));
                        last_answers = answers.answers.clone();
                    }
                    report.outcome(outcome.map(|_| ()));
                    let layers = capture.map(|c| read_layers(&c.take(&request_id)));
                    if let Some((raw, scaled, m)) = pending_compact.take() {
                        // The two halves may fall in different chunks, so
                        // each is scaled by its own.
                        lat[3].raw.push(raw + ms);
                        lat[3].scaled.push(scaled + clock.scaled(ms));
                        if capture.is_some() {
                            traced.push(Traced {
                                class: "compact",
                                e2e_ms: raw + ms,
                                mutation: Some(m),
                                read_layers: layers,
                            });
                        }
                    } else {
                        lat[0].push(&clock, ms);
                        let (s, p) = (gate.engine().stats(), gate.engine().plan_stats());
                        let delta = [
                            s.repaired_rows - before.0.repaired_rows,
                            s.segment_hits - before.0.segment_hits,
                            s.shortcut_atoms - before.0.shortcut_atoms,
                            p.atom_scans - before.1.atom_scans,
                            p.cache_hits - before.1.cache_hits,
                            p.nodes_evaluated - before.1.nodes_evaluated,
                        ];
                        for (acc, d) in per_read.iter_mut().zip(delta) {
                            *acc += d as u64;
                        }
                        warm_reads += 1;
                        if let Some(l) = layers {
                            gate_overhead.push(l.0 + l.2);
                            traced.push(Traced {
                                class: "read",
                                e2e_ms: ms,
                                mutation: None,
                                read_layers: Some(l),
                            });
                        }
                    }
                }
                Op::Insert => {
                    let rows: Vec<Vec<Value>> = (0..INSERT_ROWS).map(|_| row(&mut rng)).collect();
                    for r in &rows {
                        for v in r {
                            if let Value::Int(x) = v {
                                report.fingerprint.u64(*x as u64);
                            }
                        }
                    }
                    let t = Instant::now();
                    let eff = gate.insert_rows(&rows);
                    let ms = ms_since(t);
                    inserted += eff.rows_inserted;
                    report.outcome(if eff.rows_inserted == INSERT_ROWS {
                        Ok(())
                    } else {
                        Err(format!("insert stored {} rows", eff.rows_inserted))
                    });
                    // The mutation log feeds the traced run's data-layer
                    // replay; the timed run keeps none, so it does not
                    // inflate peak_rss_mb.
                    if capture.is_some() {
                        mutations.push(Mutation::Insert(rows));
                    }
                    if eff.compacted {
                        report.count("compactions", 1);
                        pending_compact =
                            Some((ms, clock.scaled(ms), mutations.len().saturating_sub(1)));
                    } else {
                        lat[1].push(&clock, ms);
                        if capture.is_some() {
                            traced.push(Traced {
                                class: "insert",
                                e2e_ms: ms,
                                mutation: Some(mutations.len() - 1),
                                read_layers: None,
                            });
                        }
                    }
                }
                Op::Delete => {
                    let n_live = gate.engine().dataset().n_live();
                    let mut live = Vec::with_capacity(DELETE_ROWS);
                    while live.len() < DELETE_ROWS {
                        let i = rng.gen_range(0..n_live);
                        if !live.contains(&i) {
                            live.push(i);
                        }
                    }
                    live.iter().for_each(|&i| report.fingerprint.u64(i as u64));
                    let t = Instant::now();
                    let eff = gate.delete_live(&live);
                    let ms = ms_since(t);
                    deleted += eff.rows_deleted;
                    report.outcome(if eff.rows_deleted == DELETE_ROWS {
                        Ok(())
                    } else {
                        Err(format!("delete removed {} rows", eff.rows_deleted))
                    });
                    lat[2].push(&clock, ms);
                    if capture.is_some() {
                        mutations.push(Mutation::Delete(live));
                        traced.push(Traced {
                            class: "delete",
                            e2e_ms: ms,
                            mutation: Some(mutations.len() - 1),
                            read_layers: None,
                        });
                    }
                }
            }
        }
    }
    clock.close();
    let ops = op_index;

    // Correctness: the last read equals a from-scratch engine over the
    // materialized live rows, and the live count adds up.
    let data = gate.engine().dataset();
    let snapshot = data.snapshot();
    let expected_live = BASE_ROWS + inserted - deleted;
    report.outcome(
        if data.n_live() == expected_live && snapshot.n_rows() == expected_live {
            Ok(())
        } else {
            Err(format!(
                "n_live {} != base {BASE_ROWS} + inserted {inserted} - deleted {deleted}",
                data.n_live()
            ))
        },
    );
    let spec = read_spec(&shapes, snapshot.n_rows());
    let oracle = CountingEngine::new(&snapshot, None)
        .execute_workload(&spec)
        .answers;
    report.outcome(if oracle == last_answers {
        Ok(())
    } else {
        Err("final read differs from a CountingEngine over the snapshot".to_owned())
    });

    let stats = gate.engine().stats();
    report.count("reads", (lat[0].len() + lat[3].len()) as u64);
    report.count("rows_inserted", inserted as u64);
    report.count("rows_deleted", deleted as u64);
    report.count("relints", gate.relints() as u64);
    report.count("relints_skipped", gate.relints_skipped() as u64);
    report.count("repaired_rows", stats.repaired_rows as u64);
    report.count("shortcut_atoms", stats.shortcut_atoms as u64);
    report.count("atom_scans", gate.engine().plan_stats().atom_scans as u64);
    report.notes.push(format!(
        "table_churn: {ops} ops in {cycles} cycles, {:.2}s; {} compactions, {} live rows",
        clock.seconds().0,
        stats.compactions,
        data.n_live()
    ));

    report.throughput(ops, &clock);
    if capture.is_none() {
        report.setup(setups.times());
        report.class_latency("main", "read", &lat[0], true);
        report.class_latency("light", "insert", &lat[1], false);
        report.class_latency("mid", "delete", &lat[2], false);
        report.class_latency("heavy", "compact", &lat[3], false);
        return Ok(report);
    }

    // Per-layer: storage scan cost per atom over the compacted base.
    let base = data.segment(0);
    let mut scan = Samples::default();
    for &(lo, d) in &shapes {
        let t = Instant::now();
        std::hint::black_box(count_dataset(
            base,
            &IntRangePredicate {
                col: 0,
                lo,
                hi: lo + 9,
            },
        ));
        scan.push(ms_since(t));
        let t = Instant::now();
        std::hint::black_box(count_dataset(
            base,
            &ValueEqualsPredicate {
                col: 1,
                value: Value::Int(d),
            },
        ));
        scan.push(ms_since(t));
    }
    let reads = warm_reads.max(1) as f64;
    let relints = gate.relints() + gate.relints_skipped();
    let relint_frac = gate.relints() as f64 / relints.max(1) as f64;
    drop(snapshot);
    drop(gate);

    // Per-layer: the same mutations replayed against a bare versioned
    // dataset, timing the data layer alone.
    let mut replay = VersionedDataset::with_compact_threshold(input, DEFAULT_COMPACT_THRESHOLD);
    let (mut ins, mut del, mut locate, mut compact) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut replay_ms = Vec::with_capacity(mutations.len());
    let mut compactions = 0u64;
    for m in &mutations {
        match m {
            Mutation::Insert(rows) => {
                let t = Instant::now();
                let eff = replay.insert_rows(rows);
                let ms = ms_since(t);
                replay_ms.push(ms);
                if eff.compacted {
                    compactions += 1;
                    compact.push(ms);
                } else {
                    ins.push(ms * 1e3);
                }
            }
            Mutation::Delete(live) => {
                for &i in live {
                    let t = Instant::now();
                    std::hint::black_box(replay.locate_live(i));
                    locate.push(t.elapsed().as_secs_f64() * 1e6);
                }
                let t = Instant::now();
                replay.delete_live(live);
                let ms = ms_since(t);
                replay_ms.push(ms);
                del.push(ms * 1e3);
            }
        }
    }

    let mut rec = Reconcile::default();
    for t in &traced {
        let mut layers: Vec<(&str, f64)> = Vec::new();
        if let Some(m) = t.mutation {
            layers.push(("data.mutation", replay_ms[m]));
        }
        if let Some((lint, plan, own)) = t.read_layers {
            layers.push(("gate.lint", lint));
            layers.push(("plan.execute", plan));
            layers.push(("gate.self", own));
        }
        rec.add(t.class, t.e2e_ms, &layers);
    }

    report.metric("data.insert_us", ins.median().unwrap_or(0.0));
    report.metric("data.delete_us", del.median().unwrap_or(0.0));
    report.metric("data.locate_live_us", locate.median().unwrap_or(0.0));
    report.metric("data.compact_ms", compact.median().unwrap_or(0.0));
    report.metric("data.compactions", compactions as f64);
    report.metric("storage.scan_ms_per_atom", scan.median().unwrap_or(0.0));
    report.metric("query.repaired_rows_per_read", per_read[0] as f64 / reads);
    report.metric("query.segment_hits_per_read", per_read[1] as f64 / reads);
    report.metric("query.shortcut_atoms_per_read", per_read[2] as f64 / reads);
    report.metric("plan.atom_scans_per_read", per_read[3] as f64 / reads);
    report.metric("plan.cache_hits_per_read", per_read[4] as f64 / reads);
    report.metric("plan.nodes_evaluated_per_read", per_read[5] as f64 / reads);
    report.metric("analyze.relint_frac", relint_frac);
    report.metric(
        "analyze.gate_overhead_ms",
        gate_overhead.median().unwrap_or(0.0),
    );
    rec.finish(&mut report);
    Ok(report)
}
