//! Shared pieces of the harness: sample sets and percentiles, the run
//! report every workload fills in, the work fingerprint, and the process
//! facts (`peak_rss_mb`, parallelism) recorded with every run.

use std::collections::BTreeMap;
use std::time::Instant;

use so_serve::json::Json;

/// Latency samples of one operation class, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `p` % of
    /// the samples at or below it. `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
        Some(v[rank.min(v.len()) - 1])
    }

    /// Median (mean of the two middle samples for an even count).
    pub fn median(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let k = v.len() / 2;
        Some(if v.len() % 2 == 1 {
            v[k]
        } else {
            (v[k - 1] + v[k]) / 2.0
        })
    }

    /// Mean of the samples left after dropping the lowest and the highest
    /// `trim` share (at least one sample is kept).
    ///
    /// The end-to-end latencies use the 10 % trimmed mean rather than the
    /// median: on a host whose CPU speed flips between two states for
    /// seconds at a time, the median of a run jumps between the two modes
    /// while the trimmed mean moves with the share of time spent in each,
    /// and the trimming still drops the rare outliers of a class.
    pub fn trimmed_mean(&self, trim: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let cut = ((v.len() as f64 * trim).floor() as usize).min((v.len() - 1) / 2);
        let kept = &v[cut..v.len() - cut];
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }

    /// Samples strictly above the `p`-th percentile: a percentile is only
    /// reported when at least ten samples lie beyond it.
    pub fn beyond(&self, p: f64) -> usize {
        self.len() - ((p / 100.0) * self.len() as f64).ceil() as usize
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a over everything a run generated and counted: two runs with equal
/// digests did the same work.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.state ^= u64::from(x);
            self.state = self.state.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.state
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

/// What one workload run reports back to `run.py`.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for the first few failed operations.
    pub failures: Vec<String>,
    /// Exact work counts (also folded into the fingerprint).
    pub work: BTreeMap<String, u64>,
    pub fingerprint: Fingerprint,
    /// Operations of the fixed sequence per second of wall time (also
    /// measured in the traced run, for the tracing overhead).
    pub ops_per_s: f64,
    /// Metric name → value (end-to-end metrics in timed mode, per-layer
    /// metrics in traced mode).
    pub metrics: BTreeMap<String, f64>,
    /// Per-class sample counts, so every percentile can be checked against
    /// its ten-beyond rule.
    pub samples: BTreeMap<String, usize>,
    /// Free-form lines printed before the result (reconciliation tables).
    pub notes: Vec<String>,
}

impl Report {
    /// Records an operation outcome; `Err` carries why it failed.
    pub fn outcome(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = r {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn count(&mut self, key: &str, v: u64) {
        *self.work.entry(key.to_owned()).or_insert(0) += v;
    }

    pub fn metric(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_owned(), v);
    }

    /// Folds the work counts into the fingerprint, in key order.
    pub fn seal_fingerprint(&mut self) {
        for (k, v) in &self.work {
            self.fingerprint.bytes(k.as_bytes());
            self.fingerprint.u64(*v);
        }
    }

    /// Sets `<slot>_trim_mean_ms` (and `<slot>_p90_ms` when `with_p90`)
    /// from a class's scaled latencies, recording the sample count under
    /// `class` and the raw trimmed mean in the notes.
    pub fn class_latency(&mut self, slot: &str, class: &str, lat: &Latency, with_p90: bool) {
        self.samples.insert(class.to_owned(), lat.len());
        if let (Some(mean), Some(raw)) = (lat.scaled.trimmed_mean(0.1), lat.raw.trimmed_mean(0.1)) {
            self.metric(&format!("{slot}_trim_mean_ms"), mean);
            self.notes.push(format!(
                "{class}: trimmed mean {mean:.4} ms scaled, {raw:.4} ms raw wall"
            ));
        }
        if with_p90 {
            if lat.scaled.beyond(90.0) < 10 {
                self.notes.push(format!(
                    "warning: {class} has only {} samples beyond p90",
                    lat.scaled.beyond(90.0)
                ));
            }
            if let Some(p90) = lat.scaled.percentile(90.0) {
                self.metric(&format!("{slot}_p90_ms"), p90);
            }
        }
    }

    /// Sets `setup_s` to the median of the run's set-ups and notes them all.
    pub fn setup(&mut self, times: &Samples) {
        self.metric("setup_s", times.median().expect("a set-up"));
        let all: Vec<String> = times.values.iter().map(|t| format!("{t:.4}")).collect();
        self.notes
            .push(format!("set-ups (s, scaled): {}", all.join(" ")));
    }

    /// Sets `ops_per_s` over the clock's closed chunks (scaled) and notes
    /// the raw rate and the host's probe.
    pub fn throughput(&mut self, ops: usize, clock: &HostClock) {
        let (wall, scaled) = clock.seconds();
        self.ops_per_s = ops as f64 / scaled;
        self.notes.push(format!(
            "ops_per_s {:.4} scaled, {:.4} raw wall; median probe {:.4} ms (reference {REFERENCE_PROBE_MS})",
            self.ops_per_s,
            ops as f64 / wall,
            clock.median_probe_ms()
        ));
    }

    /// The report as one JSON line. JSON has no NaN or infinity: a metric
    /// that is not finite is a harness bug, written as `null` so `run.py`
    /// rejects the run.
    pub fn to_json(&self, workload: &str, mode: &str, config: &[(&str, String)]) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                Json::num(v)
            } else {
                Json::Null
            }
        };
        let counts = |m: &BTreeMap<String, u64>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), Json::num(*v as f64)))
                    .collect(),
            )
        };
        let samples: BTreeMap<String, u64> = self
            .samples
            .iter()
            .map(|(k, v)| (k.clone(), *v as u64))
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("mode", Json::str(mode)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("fingerprint", Json::str(&self.fingerprint.hex())),
            ("ops_per_s", num(self.ops_per_s)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::str(f)).collect()),
            ),
            ("work", counts(&self.work)),
            ("samples", counts(&samples)),
            (
                "config",
                Json::Obj(
                    config
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Json::str(v)))
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Seed of every workload's generated inputs. It is fixed, so every run
/// does identical work and every run's fingerprint can be compared with
/// every other's; `--seed` is recorded but does not change the work.
pub const WORK_SEED: u64 = 0x5eed_2024;

/// Probe time, in ms, that the end-to-end times are scaled to: a round
/// number within the run medians the probe read on the 2-core x86-64 host
/// the benchmark was written on (0.74–1.17 ms).
const REFERENCE_PROBE_MS: f64 = 1.0;
/// Words of the probe's memory buffer (8 MiB): four times a core's L2 on
/// that host, so the probe reads from the shared cache and memory, which
/// the host's other tenants load too.
const PROBE_WORDS: usize = 1 << 20;
/// Probe passes per mark; the mark takes their median.
const PROBE_PASSES: usize = 3;

/// Host-speed calibration of the end-to-end times.
///
/// The shared host the benchmark was written on changes speed by 20–40 %
/// for seconds at a time, and drifts by as much between runs minutes apart;
/// a fixed loop reads slower in wall time and in thread CPU time alike. A
/// workload therefore runs its sequence in chunks of a few hundred
/// milliseconds and, between chunks, while no program thread runs, times a
/// fixed probe: a floating-point multiply-add loop over a 32 KiB array,
/// which keeps the core's arithmetic units busy, and a pass over an 8 MiB
/// buffer. The probe is harness code, so no change to the program can move
/// it. A time measured in a chunk is scaled by
/// `REFERENCE_PROBE_MS / probe`, the probe just before the chunk: the time
/// the operation would have taken on a host whose probe reads the
/// reference. The raw wall times are printed beside the scaled ones.
pub struct HostClock {
    /// The multiply-add loop's array, L1-resident.
    fma: Vec<f64>,
    /// The memory pass's buffer.
    buf: Vec<u64>,
    probes: Samples,
    scale: f64,
    chunk_start: Option<Instant>,
    scaled_s: f64,
    wall_s: f64,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock {
            fma: (0..4096).map(|i| f64::from(i) * 1e-3).collect(),
            buf: (0..PROBE_WORDS as u64).collect(),
            probes: Samples::default(),
            scale: 1.0,
            chunk_start: None,
            scaled_s: 0.0,
            wall_s: 0.0,
        }
    }
}

impl HostClock {
    /// One pass of the probe computation, in ms.
    fn probe_once(&mut self) -> f64 {
        let t = Instant::now();
        // Independent multiply-adds, as in a simplex pivot's row update: a
        // loop bound by arithmetic throughput, not by one dependency chain,
        // so it slows when another tenant shares the core's units.
        let (ys, xs) = self.fma.split_at_mut(2048);
        for k in 0..100u32 {
            let f = 1.0 + f64::from(k) * 1e-9;
            for (y, x) in ys.iter_mut().zip(xs.iter()) {
                *y = *y * 0.999 + f * x;
            }
        }
        let mut acc = 0u64;
        for w in self.buf.iter_mut().step_by(8) {
            *w = w.wrapping_add(1);
            acc = acc.wrapping_add(*w);
        }
        std::hint::black_box((&self.fma, acc));
        ms_since(t)
    }

    /// Ends the open chunk (if any), times the probe and opens the next
    /// chunk, whose times [`HostClock::scaled`] then converts.
    pub fn mark(&mut self) {
        self.close();
        let mut p = Samples::default();
        for _ in 0..PROBE_PASSES {
            p.push(self.probe_once());
        }
        let probe = p.median().expect("a probe pass");
        self.probes.push(probe);
        self.scale = REFERENCE_PROBE_MS / probe;
        self.chunk_start = Some(Instant::now());
    }

    /// Ends the open chunk without opening another.
    pub fn close(&mut self) {
        if let Some(t) = self.chunk_start.take() {
            let s = t.elapsed().as_secs_f64();
            self.wall_s += s;
            self.scaled_s += s * self.scale;
        }
    }

    /// `ms` measured in the open chunk, scaled to the reference host speed.
    pub fn scaled(&self, ms: f64) -> f64 {
        ms * self.scale
    }

    /// Wall seconds of the closed chunks, raw and scaled.
    pub fn seconds(&self) -> (f64, f64) {
        (self.wall_s, self.scaled_s)
    }

    /// Median probe time of the run, in ms.
    pub fn median_probe_ms(&self) -> f64 {
        self.probes.median().unwrap_or(0.0)
    }
}

/// A class's latencies, both raw and scaled by a [`HostClock`].
#[derive(Debug, Default, Clone)]
pub struct Latency {
    pub raw: Samples,
    pub scaled: Samples,
}

impl Latency {
    pub fn push(&mut self, clock: &HostClock, ms: f64) {
        self.raw.push(ms);
        self.scaled.push(clock.scaled(ms));
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// The set-up times of a run, spread over the run.
///
/// The first set-up builds what the timed loop uses. Where a set-up is
/// light, the others build a throwaway copy between chunks of the loop,
/// spaced evenly, so the median samples the host over the whole run as the
/// loop's own metrics do, rather than over the second or two before it.
/// Each set-up is a chunk of its own, scaled by the probe just before it.
pub struct Setups {
    clock: HostClock,
    times: Samples,
    /// A throwaway set-up runs at every `every`-th call of [`Setups::due`].
    every: usize,
    calls: usize,
}

impl Setups {
    /// Set-ups for a loop of `chunks` chunks.
    pub fn new(chunks: usize) -> Setups {
        Setups {
            clock: HostClock::default(),
            times: Samples::default(),
            every: (chunks / SETUPS).max(1),
            calls: 0,
        }
    }

    /// Times one set-up.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        self.clock.mark();
        let t = Instant::now();
        let v = build();
        self.times
            .push(self.clock.scaled(t.elapsed().as_secs_f64()));
        self.clock.close();
        v
    }

    /// Called between chunks: true when a throwaway set-up is due here.
    pub fn due(&mut self) -> bool {
        self.calls += 1;
        self.calls.is_multiple_of(self.every) && self.times.len() < SETUPS
    }

    /// Set-ups still missing after the loop (a short loop has fewer chunks
    /// than set-ups).
    pub fn missing(&self) -> usize {
        SETUPS.saturating_sub(self.times.len())
    }

    pub fn times(&self) -> &Samples {
        &self.times
    }
}
