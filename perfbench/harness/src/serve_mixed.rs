//! `serve_mixed`: a live `so_serve` server on loopback, driven by closed-loop
//! sessions with a fixed mix of four request classes over three tenants.
//!
//! * `count` — a fresh 8-predicate ε-DP range/equality workload on `stats`
//!   (gated, 65 536 rows, continual ε budget that never runs out);
//! * `repeat` — one fixed 8-predicate ε-DP workload on `stats`, asked again
//!   and again;
//! * `probe` — the E20 `m = 4n` density-½ subset workload, exact, on
//!   `guarded` (gated, 48 rows): must be refused with `SO-LINREC` or
//!   `SO-RECON`;
//! * `bulk` — the same shape on `open` (ungated, 48 rows): answered, and
//!   checked against the true subset sums of the tenant's secret.
//!
//! Every session replays whole cycles of 7 `count`, 6 `repeat`, 2 `bulk`
//! and 1 `probe`, switching tenants with `hello`. Cycles are dealt to the
//! sessions round-robin in rounds of [`ROUND_CYCLES`] per session; the
//! sessions meet at a barrier after every round, where the host-speed probe
//! (and, now and then, a throwaway set-up) runs while no request is in
//! flight. So the sessions carry the same mix
//! and neither runs ahead of the other by more than a round.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use rand::Rng;
use so_analyze::lint::{lint_workload, LintConfig};
use so_data::rng::{derive_seed, seeded_rng};
use so_data::{BitVec, Value};
use so_plan::shape::PredShape;
use so_plan::workload::{Noise, WorkloadSpec};
use so_query::SubsetQuery;
use so_recon::lp_attack_queries;
use so_serve::json::parse;
use so_serve::{
    spawn, Request, RequestRecord, Response, ServerConfig, ServerHandle, ServiceClient,
    TenantConfig, WireQuery,
};

use crate::common::{
    ms_since, Fingerprint, HostClock, Latency, Report, Samples, Setups, WORK_SEED,
};
use crate::trace::{self_times, Capture, Reconcile};

/// Closed-loop sessions (capped by the host's parallelism).
const SESSIONS: usize = 2;
/// Cycles per requested second, over all sessions, sized so a run takes
/// about `--seconds` on a 2-core x86-64 host.
const CYCLES_PER_SECOND: f64 = 22.0;
/// Cycles each session runs between two barriers (one host-speed chunk,
/// about a quarter of a second).
const ROUND_CYCLES: usize = 2;
const STATS_ROWS: usize = 65_536;
const SMALL_ROWS: usize = 48;
/// Per-query ε of the DP classes: a power of two, so the spent budget is an
/// exact binary fraction whatever order the sessions' spends land in.
const EPSILON: f64 = 1.0 / 128.0;
const PREDICATES: usize = 8;
/// Request/response pairs per class and session replayed in the traced run.
const REPLAYS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Count,
    Repeat,
    Probe,
    Bulk,
}

impl Class {
    const ALL: [Class; 4] = [Class::Count, Class::Repeat, Class::Probe, Class::Bulk];

    fn name(self) -> &'static str {
        match self {
            Class::Count => "count",
            Class::Repeat => "repeat",
            Class::Probe => "probe",
            Class::Bulk => "bulk",
        }
    }

    fn tenant(self) -> &'static str {
        match self {
            Class::Count | Class::Repeat => "stats",
            Class::Probe => "guarded",
            Class::Bulk => "open",
        }
    }
}

/// One cycle of a session, in replay order.
const CYCLE: [Class; 16] = {
    use Class::*;
    [
        Count, Repeat, Count, Repeat, Count, Repeat, Count, Repeat, Count, Repeat, Count, Repeat,
        Count, Bulk, Bulk, Probe,
    ]
};

fn class_count(c: Class) -> usize {
    CYCLE.iter().filter(|&&x| x == c).count()
}

/// Fails fast when the sessions cannot all be served at once: a worker
/// serves one connection to completion, so a surplus session would wait
/// forever in the accept queue.
fn check_sessions(sessions: usize, workers: usize) -> Result<(), String> {
    if sessions > workers {
        Err(format!(
            "{sessions} concurrent sessions need at least {sessions} server workers, got {workers}"
        ))
    } else {
        Ok(())
    }
}

fn dp_workload(seed: u64) -> Vec<WireQuery> {
    let mut rng = seeded_rng(seed);
    (0..PREDICATES)
        .map(|_| {
            if rng.gen::<bool>() {
                let lo = rng.gen_range(0..80i64);
                WireQuery::IntRange {
                    col: 0,
                    lo,
                    hi: lo + rng.gen_range(0..10i64),
                }
            } else {
                WireQuery::ValueEq {
                    col: 0,
                    value: rng.gen_range(0..90i64),
                }
            }
        })
        .collect()
}

fn subset_workload(seed: u64) -> Vec<Vec<usize>> {
    lp_attack_queries(SMALL_ROWS, 4 * SMALL_ROWS, &mut seeded_rng(seed))
        .iter()
        .map(|q| (0..SMALL_ROWS).filter(|&i| q.contains(i)).collect())
        .collect()
}

/// The request of one operation: `k` is its position in the cycle.
fn request(seed: u64, cycle: usize, k: usize, class: Class) -> Request {
    let s = derive_seed(seed, 1_000 + (cycle * CYCLE.len() + k) as u64);
    let (queries, noise) = match class {
        Class::Count => (dp_workload(s), Noise::PureDp { epsilon: EPSILON }),
        Class::Repeat => (
            dp_workload(derive_seed(seed, 7)),
            Noise::PureDp { epsilon: EPSILON },
        ),
        Class::Probe | Class::Bulk => (
            subset_workload(s)
                .into_iter()
                .map(WireQuery::Subset)
                .collect(),
            Noise::Exact,
        ),
    };
    Request::Workload { queries, noise }
}

/// The spec the server lints for a request (mirrors the tenant's lowering).
fn replay_spec(req: &Request, n_rows: usize) -> WorkloadSpec {
    let Request::Workload { queries, noise } = req else {
        unreachable!("only workloads are replayed")
    };
    let mut spec = WorkloadSpec::new(n_rows);
    for q in queries {
        match q {
            WireQuery::Subset(rows) => {
                spec.push_subset(&SubsetQuery::from_indices(n_rows, rows), *noise);
            }
            WireQuery::IntRange { col, lo, hi } => {
                spec.push_shape(
                    &PredShape::IntRange {
                        col: *col,
                        lo: *lo,
                        hi: *hi,
                    },
                    *noise,
                );
            }
            WireQuery::ValueEq { col, value } => {
                spec.push_shape(
                    &PredShape::ValueEquals {
                        col: *col,
                        value: Value::Int(*value),
                    },
                    *noise,
                );
            }
        }
    }
    spec
}

/// Checks one response against what its class must return.
fn check(class: Class, req: &Request, resp: &Response, open_secret: &BitVec) -> Result<(), String> {
    match (class, resp) {
        (_, Response::Error { code, detail, .. }) => Err(format!("{code}: {detail}")),
        (Class::Count | Class::Repeat, Response::Answers { answers }) => {
            if answers.len() == PREDICATES && answers.iter().all(|a| a.is_finite()) {
                Ok(())
            } else {
                Err(format!("malformed DP answers {answers:?}"))
            }
        }
        (Class::Probe, Response::Refused { refusals, .. }) => {
            if refusals
                .iter()
                .any(|r| r.code == "SO-LINREC" || r.code == "SO-RECON")
            {
                Ok(())
            } else {
                Err(format!(
                    "probe refused without SO-LINREC/SO-RECON: {refusals:?}"
                ))
            }
        }
        (Class::Bulk, Response::Answers { answers }) => {
            let Request::Workload { queries, .. } = req else {
                unreachable!()
            };
            let truth = queries.iter().map(|q| match q {
                WireQuery::Subset(rows) => rows.iter().filter(|&&r| open_secret.get(r)).count(),
                _ => unreachable!("bulk is all subset queries"),
            });
            if answers.len() == queries.len() && truth.zip(answers).all(|(t, &a)| a == t as f64) {
                Ok(())
            } else {
                Err("bulk answers differ from the true subset sums".to_owned())
            }
        }
        (c, other) => Err(format!("{} got unexpected {other:?}", c.name())),
    }
}

/// What one operation left behind.
struct OpResult {
    id: String,
    class: Class,
    client_ms: f64,
    /// `client_ms` scaled to the reference host speed.
    scaled_ms: f64,
    outcome: Result<(), String>,
    /// The operation's server-side spans (traced run).
    spans: Vec<crate::trace::SpanRecord>,
}

struct SessionResult {
    ops: Vec<OpResult>,
    /// `(global cycle, digest of its generated requests)`.
    digests: Vec<(usize, u64)>,
    /// Seconds spent waiting for the other sessions at round barriers.
    idle_s: f64,
    /// A few request/response pairs per class, kept in the traced run to
    /// replay the encode, decode and lint layers after the timed loop.
    kept: BTreeMap<Class, Vec<(Request, Response)>>,
}

/// A set-up: a booted server and the `open` tenant's secret.
type SetupFn<'a> = dyn Fn() -> Result<(ServerHandle, BitVec), String> + Sync + 'a;

/// What every session shares: the barrier closing each round, the host
/// clock the round's leader marks there, and the set-ups it times there.
struct Rounds<'a> {
    rounds: usize,
    barrier: &'a Barrier,
    clock: &'a Mutex<HostClock>,
    setups: &'a Mutex<Setups>,
    setup: &'a SetupFn<'a>,
    /// The first set-up that failed inside the loop.
    setup_error: &'a Mutex<Option<String>>,
}

impl Rounds<'_> {
    /// Waits for every session to finish the round; the last to arrive
    /// runs a throwaway set-up when one is due and times the probe (or
    /// closes the clock after the last round) while the others wait.
    /// Returns the scale of the next round's chunk.
    fn end_round(&self, last: bool) -> f64 {
        if self.barrier.wait().is_leader() {
            let mut clock = self.clock.lock().expect("clock poisoned");
            clock.close();
            let mut setups = self.setups.lock().expect("set-ups poisoned");
            if !last && setups.due() {
                match setups.time(self.setup) {
                    Ok((server, _)) => server.shutdown(),
                    Err(e) => {
                        self.setup_error
                            .lock()
                            .expect("set-up error poisoned")
                            .get_or_insert(e);
                    }
                }
            }
            if !last {
                clock.mark();
            }
        }
        self.barrier.wait();
        self.clock.lock().expect("clock poisoned").scaled(1.0)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_session(
    addr: SocketAddr,
    seed: u64,
    session: usize,
    sessions: usize,
    rounds: &Rounds,
    open_secret: &BitVec,
    capture: Option<&Capture>,
) -> Result<SessionResult, String> {
    let mut out = SessionResult {
        ops: Vec::new(),
        digests: Vec::new(),
        idle_s: 0.0,
        kept: BTreeMap::new(),
    };
    // A session that fails keeps meeting the others at the barriers, doing
    // no work, so that they cannot wait for it forever.
    let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string());
    let mut failure = None;
    let mut bound = "";
    let mut scale = rounds.clock.lock().expect("clock poisoned").scaled(1.0);
    for round in 0..rounds.rounds {
        let first = round * ROUND_CYCLES * sessions;
        let round_cycles = (first + session..first + ROUND_CYCLES * sessions).step_by(sessions);
        for cycle in round_cycles {
            if failure.is_some() {
                break;
            }
            let c = match &mut client {
                Ok(c) => c,
                Err(e) => {
                    failure = Some(e.clone());
                    break;
                }
            };
            if let Err(e) = run_cycle(
                c,
                &mut bound,
                seed,
                cycle,
                scale,
                open_secret,
                capture,
                &mut out,
            ) {
                failure = Some(e);
            }
        }
        let t = Instant::now();
        scale = rounds.end_round(round + 1 == rounds.rounds);
        out.idle_s += t.elapsed().as_secs_f64();
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Replays one cycle of the sequence on a session's connection.
#[allow(clippy::too_many_arguments)]
fn run_cycle(
    client: &mut ServiceClient,
    bound: &mut &'static str,
    seed: u64,
    cycle: usize,
    scale: f64,
    open_secret: &BitVec,
    capture: Option<&Capture>,
    out: &mut SessionResult,
) -> Result<(), String> {
    let mut fp = Fingerprint::default();
    for (k, &class) in CYCLE.iter().enumerate() {
        if *bound != class.tenant() {
            client
                .hello(class.tenant())
                .map_err(|e| format!("hello {}: {e}", class.tenant()))?;
            *bound = class.tenant();
        }
        let req = request(seed, cycle, k, class);
        if let Request::Workload { queries, .. } = &req {
            for q in queries {
                match q {
                    WireQuery::Subset(rows) => rows.iter().for_each(|&r| fp.u64(r as u64)),
                    WireQuery::IntRange { lo, hi, .. } => {
                        fp.u64(*lo as u64);
                        fp.u64(*hi as u64);
                    }
                    WireQuery::ValueEq { value, .. } => fp.u64(*value as u64),
                }
            }
        }
        let id = format!("{}-{cycle}-{k}", class.name());
        client.set_next_request_id(&id);
        let t = Instant::now();
        let resp = client.call(&req);
        let client_ms = ms_since(t);
        let outcome = match &resp {
            Ok(r) => check(class, &req, r, open_secret),
            Err(e) => Err(format!("transport: {e}")),
        };
        let mut spans = Vec::new();
        if let (Some(c), Ok(r)) = (capture, resp) {
            spans = c.take(&id);
            let kept = out.kept.entry(class).or_default();
            if kept.len() < REPLAYS {
                kept.push((req, r));
            }
        }
        out.ops.push(OpResult {
            id,
            class,
            client_ms,
            scaled_ms: client_ms * scale,
            outcome,
            spans,
        });
    }
    out.digests.push((cycle, fp.value()));
    Ok(())
}

/// Sends one request of each class through a fresh connection (the code
/// paths, allocator and tenant locks warm before timing). `cycle` lies past
/// the timed sequence, so warm-up requests never repeat a timed one.
fn warm_up(addr: SocketAddr, seed: u64, cycle: usize, open_secret: &BitVec) -> Result<(), String> {
    let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
    for (k, class) in Class::ALL.into_iter().enumerate() {
        client.hello(class.tenant()).map_err(|e| e.to_string())?;
        let req = request(seed, cycle, k, class);
        client.set_next_request_id(&format!("warm-{cycle}-{}", class.name()));
        let resp = client.call(&req).map_err(|e| e.to_string())?;
        check(class, &req, &resp, open_secret).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

fn boot(seed: u64, sessions: usize, cycles: usize) -> Result<ServerHandle, String> {
    let per_tenant = cycles * (CYCLE.len() + 4) + 16;
    let budget = (cycles * (class_count(Class::Count) + class_count(Class::Repeat))) as f64
        * PREDICATES as f64
        * EPSILON
        + 1.0;
    let tenants = vec![
        TenantConfig::gated("stats", STATS_ROWS, derive_seed(seed, 100))
            .with_continual_budget(budget)
            .with_flight_cap(per_tenant),
        TenantConfig::gated("guarded", SMALL_ROWS, derive_seed(seed, 101))
            .with_flight_cap(per_tenant),
        TenantConfig::ungated("open", SMALL_ROWS, derive_seed(seed, 102))
            .with_flight_cap(per_tenant),
    ];
    let config = ServerConfig {
        workers: sessions,
        tick_per_request: true,
        ..ServerConfig::default()
    };
    check_sessions(sessions, config.workers)?;
    spawn(tenants, config, None).map_err(|e| format!("server boot: {e}"))
}

/// Runs the workload; `capture` is set in the traced run.
pub fn run(seconds: u64, capture: Option<&Capture>) -> Result<Report, String> {
    let seed = WORK_SEED;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sessions = SESSIONS.min(parallelism);
    let per_round = ROUND_CYCLES * sessions;
    let rounds = (((seconds as f64) * CYCLES_PER_SECOND / per_round as f64).ceil() as usize).max(1);
    let cycles = rounds * per_round;

    // Set-up: boot the server (tenant datasets and secrets built from the
    // seed) and send one warm-up request of each class per session.
    let setup = || -> Result<(ServerHandle, BitVec), String> {
        let s = boot(seed, sessions, cycles)?;
        let open_secret = s
            .with_tenant("open", |t| t.secret().clone())
            .expect("open tenant");
        for session in 0..sessions {
            warm_up(s.local_addr(), seed, cycles + session, &open_secret)?;
        }
        Ok((s, open_secret))
    };
    let setups = Mutex::new(Setups::new(rounds));
    let setup_error = Mutex::new(None);
    let (server, open_secret) = setups.lock().expect("set-ups poisoned").time(setup)?;
    let addr = server.local_addr();

    let clock = Mutex::new(HostClock::default());
    let barrier = Barrier::new(sessions);
    let plan = Rounds {
        rounds,
        barrier: &barrier,
        clock: &clock,
        setups: &setups,
        setup: &setup,
        setup_error: &setup_error,
    };
    clock.lock().expect("clock poisoned").mark();
    let results: Vec<Result<SessionResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let (secret, plan) = (&open_secret, &plan);
                scope.spawn(move || run_session(addr, seed, s, sessions, plan, secret, capture))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let clock = clock.into_inner().expect("clock poisoned");
    let mut setups = setups.into_inner().expect("set-ups poisoned");
    if let Some(e) = setup_error.into_inner().expect("set-up error poisoned") {
        return Err(e);
    }
    for _ in 0..setups.missing() {
        let (extra, _) = setups.time(setup)?;
        extra.shutdown();
    }
    let results: Vec<SessionResult> = results.into_iter().collect::<Result<_, _>>()?;

    // Budget: exactly the ε of every admitted DP workload.
    let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
    client.hello("stats").map_err(|e| e.to_string())?;
    let budget = client.budget().map_err(|e| e.to_string())?;
    drop(client);
    let records: BTreeMap<String, RequestRecord> = ["stats", "guarded", "open"]
        .iter()
        .flat_map(|t| {
            server
                .with_tenant(t, |t| t.flight().records())
                .expect("tenant")
        })
        .map(|r| (r.request_id.clone(), r))
        .collect();
    server.shutdown();

    let mut report = Report::default();
    let mut digests: Vec<(usize, u64)> = results.iter().flat_map(|r| r.digests.clone()).collect();
    digests.sort_unstable();
    for (c, d) in &digests {
        report.fingerprint.u64(*c as u64);
        report.fingerprint.u64(*d);
    }
    let mut ops: Vec<&OpResult> = results.iter().flat_map(|r| &r.ops).collect();
    ops.sort_by(|a, b| a.id.cmp(&b.id));

    // Traced run: client-side encode and decode, and the tenant's lint,
    // replayed on kept messages after the timed loop, so the loop itself
    // differs from the untraced run by the tracing alone.
    let mut replayed: BTreeMap<(Class, &str), f64> = BTreeMap::new();
    if capture.is_some() {
        for c in Class::ALL {
            let (mut enc, mut dec, mut lint) =
                (Samples::default(), Samples::default(), Samples::default());
            for (req, resp) in results
                .iter()
                .flat_map(|r| r.kept.get(&c).into_iter().flatten())
            {
                let t = Instant::now();
                std::hint::black_box(req.to_json().render());
                enc.push(t.elapsed().as_secs_f64() * 1e6);
                let wire = resp.to_json().render();
                let t = Instant::now();
                let back = parse(&wire).map_err(|e| e.to_string())?;
                std::hint::black_box(Response::from_json(&back).map_err(|e| e.to_string())?);
                dec.push(t.elapsed().as_secs_f64() * 1e6);
                // The tenant lints gated workloads only.
                if c.tenant() != "open" {
                    let n = if c.tenant() == "stats" {
                        STATS_ROWS
                    } else {
                        SMALL_ROWS
                    };
                    let mut spec = replay_spec(req, n);
                    let t = Instant::now();
                    std::hint::black_box(lint_workload(&mut spec, &LintConfig::default()));
                    lint.push(ms_since(t));
                }
            }
            replayed.insert((c, "encode_us"), enc.median().unwrap_or(0.0));
            replayed.insert((c, "decode_us"), dec.median().unwrap_or(0.0));
            replayed.insert((c, "lint_ms"), lint.median().unwrap_or(0.0));
        }
    }

    let mut latency: BTreeMap<Class, Latency> = BTreeMap::new();
    let mut rec = Reconcile::default();
    let mut layer: BTreeMap<(Class, &str), Samples> = BTreeMap::new();
    let mut dp_admitted = 0u64;
    for op in &ops {
        let lat = latency.entry(op.class).or_default();
        lat.raw.push(op.client_ms);
        lat.scaled.push(op.scaled_ms);
        report.outcome(op.outcome.clone());
        report.count(&format!("ops_{}", op.class.name()), 1);
        if op.outcome.is_ok() && matches!(op.class, Class::Count | Class::Repeat) {
            dp_admitted += 1;
        }
        let Some(r) = records.get(&op.id) else {
            report.outcome(Err(format!("no flight record for {}", op.id)));
            continue;
        };
        report.count(&format!("rows_scanned_{}", op.class.name()), r.rows_scanned);
        report.count(&format!("cache_hits_{}", op.class.name()), r.cache_hits);
        for code in &r.codes {
            report.count(&format!("refusals_{code}"), 1);
        }
        if capture.is_some() {
            let server_us = r.latency_micros as f64;
            let client_us = op.client_ms * 1e3;
            for (name, v) in [
                ("server_us", server_us),
                ("wire_us", client_us - server_us),
                ("rows_scanned", r.rows_scanned as f64),
                ("cache_hits", r.cache_hits as f64),
            ] {
                layer.entry((op.class, name)).or_default().push(v);
            }
            let selfs = self_times(
                &op.spans,
                &[
                    ("serve.request", &["gate.lint", "engine.workload"]),
                    ("gate.lint", &[]),
                    ("engine.workload", &["plan.execute"]),
                    ("plan.execute", &[]),
                ],
            );
            let mut layers: Vec<(&str, f64)> = selfs.iter().map(|(k, us)| (*k, us / 1e3)).collect();
            layers.push(("client.encode", replayed[&(op.class, "encode_us")] / 1e3));
            layers.push(("client.decode", replayed[&(op.class, "decode_us")] / 1e3));
            rec.add(op.class.name(), op.client_ms, &layers);
        }
    }
    let warm_up_dp = (sessions * 2) as f64;
    let expected = (dp_admitted as f64 + warm_up_dp) * PREDICATES as f64 * EPSILON;
    let spent = match budget {
        Response::BudgetState { spent, .. } => spent,
        other => {
            report.outcome(Err(format!("budget op returned {other:?}")));
            f64::NAN
        }
    };
    report.outcome(if spent == expected {
        Ok(())
    } else {
        Err(format!(
            "budget reports ε {spent} spent, {expected} was sent"
        ))
    });
    report.count("eps_spent_x128", (spent * 128.0).round() as u64);

    let idle: Vec<String> = results
        .iter()
        .map(|r| format!("{:.2}s", r.idle_s))
        .collect();
    report.notes.push(format!(
        "serve_mixed: {} ops in {cycles} cycles ({rounds} rounds) over {sessions} sessions, {:.2}s; sessions idle at round barriers {}",
        ops.len(),
        clock.seconds().0,
        idle.join(", ")
    ));

    let get = |c: Class| latency.get(&c).cloned().unwrap_or_default();
    report.throughput(ops.len(), &clock);
    if capture.is_none() {
        report.setup(setups.times());
        report.class_latency("main", "count", &get(Class::Count), true);
        report.class_latency("light", "repeat", &get(Class::Repeat), false);
        report.class_latency("mid", "bulk", &get(Class::Bulk), false);
        report.class_latency("heavy", "probe", &get(Class::Probe), false);
    } else {
        for c in Class::ALL {
            for name in ["server_us", "wire_us"] {
                let v = layer
                    .get(&(c, name))
                    .and_then(Samples::median)
                    .unwrap_or(0.0);
                report.metric(&format!("serve.{name}.{}", c.name()), v);
            }
            for name in ["encode_us", "decode_us"] {
                report.metric(&format!("serve.{name}.{}", c.name()), replayed[&(c, name)]);
            }
            report.metric(
                &format!("analyze.lint_ms.{}", c.name()),
                replayed[&(c, "lint_ms")],
            );
            for name in ["rows_scanned", "cache_hits"] {
                let s = layer.get(&(c, name)).cloned().unwrap_or_default();
                report.metric(
                    &format!("tenant.{name}.{}", c.name()),
                    s.sum() / s.len().max(1) as f64,
                );
            }
        }
        report.metric("dp.eps_spent", spent);
        rec.finish(&mut report);
    }
    Ok(report)
}
