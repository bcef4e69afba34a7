//! In-memory span capture for the traced run.
//!
//! The program already emits `so_obs` spans at its layer boundaries
//! (`serve.request`, `gate.lint`, `engine.workload`, `plan.execute`,
//! `recon.lp`, `gate.incremental_execute`). Spans carry a duration and the
//! thread's request id but no parent, so the harness tags every operation
//! with its own request id and rebuilds each operation's tree from the
//! static nesting of those names.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use so_obs::{Field, TraceSubscriber};

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: String,
    pub micros: u64,
}

/// Spans grouped by request id, in completion order.
#[derive(Default)]
struct Store {
    by_request: BTreeMap<String, Vec<SpanRecord>>,
}

/// A subscriber that keeps spans in memory until the run ends.
#[derive(Clone, Default)]
pub struct Capture {
    store: Arc<Mutex<Store>>,
}

impl TraceSubscriber for Capture {
    fn on_span(&self, name: &str, micros: u64, fields: &[Field]) {
        let Some((_, id)) = fields.iter().find(|(k, _)| *k == "request_id") else {
            return;
        };
        let mut s = self.store.lock().expect("span store poisoned");
        s.by_request
            .entry(id.clone())
            .or_default()
            .push(SpanRecord {
                name: name.to_owned(),
                micros,
            });
    }

    fn on_event(&self, _name: &str, _fields: &[Field]) {}
}

impl Capture {
    /// Installs a fresh capture as the process-wide subscriber.
    pub fn install() -> Capture {
        let c = Capture::default();
        assert!(
            so_obs::set_subscriber(Box::new(c.clone())),
            "a trace subscriber was already installed"
        );
        c
    }

    /// Removes and returns the spans of one request.
    pub fn take(&self, request_id: &str) -> Vec<SpanRecord> {
        let mut s = self.store.lock().expect("span store poisoned");
        s.by_request.remove(request_id).unwrap_or_default()
    }
}

/// Total microseconds of the spans named `name`.
pub fn total_us(spans: &[SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.micros as f64)
        .sum()
}

/// Self times, in microseconds, of one operation's span tree, given the
/// static nesting `parent → children`: a layer's self time is its total
/// minus the totals of its direct children.
pub fn self_times(
    spans: &[SpanRecord],
    nesting: &[(&'static str, &[&'static str])],
) -> BTreeMap<&'static str, f64> {
    nesting
        .iter()
        .map(|(name, children)| {
            let own = total_us(spans, name);
            let kids: f64 = children.iter().map(|c| total_us(spans, c)).sum();
            (*name, (own - kids).max(0.0))
        })
        .collect()
}

/// Per-class reconciliation of layer time against end-to-end time. Sums
/// (not medians) are compared, so the layers of a class add up exactly to
/// what the spans and timers saw; whatever no layer covers is reported as
/// the unaccounted gap, never folded into a layer.
#[derive(Default)]
pub struct Reconcile {
    classes: BTreeMap<String, ClassTotals>,
}

#[derive(Default)]
struct ClassTotals {
    ops: u64,
    e2e_ms: f64,
    layers_ms: BTreeMap<String, f64>,
}

impl Reconcile {
    /// Adds one operation of `class` that took `e2e_ms`, of which each
    /// named layer covered the given milliseconds.
    pub fn add(&mut self, class: &str, e2e_ms: f64, layers: &[(&str, f64)]) {
        let c = self.classes.entry(class.to_owned()).or_default();
        c.ops += 1;
        c.e2e_ms += e2e_ms;
        for (name, ms) in layers {
            *c.layers_ms.entry((*name).to_owned()).or_insert(0.0) += ms;
        }
    }

    /// Writes the reconciliation table into `report.notes` and the
    /// `bench.unaccounted_frac[.<class>]` metrics into `report.metrics`.
    pub fn finish(&self, report: &mut crate::common::Report) {
        let (mut all_e2e, mut all_gap) = (0.0, 0.0);
        report
            .notes
            .push("reconciliation (mean ms per op; gap = end-to-end - layer sum):".to_owned());
        for (class, c) in &self.classes {
            let n = c.ops.max(1) as f64;
            let sum: f64 = c.layers_ms.values().sum();
            let gap = c.e2e_ms - sum;
            all_e2e += c.e2e_ms;
            all_gap += gap;
            let layers = c
                .layers_ms
                .iter()
                .map(|(k, v)| format!("{k}={:.4}", v / n))
                .collect::<Vec<_>>()
                .join(" ");
            report.notes.push(format!(
                "  {class:<10} ops={:<6} e2e={:.4} layers={:.4} gap={:.4} ({:.1}%)  [{layers}]",
                c.ops,
                c.e2e_ms / n,
                sum / n,
                gap / n,
                100.0 * gap / c.e2e_ms.max(f64::MIN_POSITIVE)
            ));
            report.metric(
                &format!("bench.unaccounted_frac.{class}"),
                gap / c.e2e_ms.max(f64::MIN_POSITIVE),
            );
        }
        report.metric(
            "bench.unaccounted_frac",
            all_gap / all_e2e.max(f64::MIN_POSITIVE),
        );
    }
}
