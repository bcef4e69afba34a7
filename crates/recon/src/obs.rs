//! Reconstruction-attack observability: LP-decoder counters published to the
//! `so-obs` global registry.
//!
//! Attack, query, simplex-pivot and bound-flip counts are deterministic for a fixed
//! seed (the simplex solver pivots deterministically), so these metrics are
//! safe to compare across thread counts and traced/untraced runs.

use std::sync::OnceLock;

use so_obs::{global, Counter};

/// Cached handles to the reconstruction-attack metrics in the
/// [`so_obs::global`] registry. Fetch once via [`recon_metrics`]; updates are
/// lock-free.
#[derive(Debug)]
pub struct ReconMetrics {
    /// `so_recon_lp_attacks_total` — completed LP-decoding attacks.
    pub lp_attacks: Counter,
    /// `so_recon_lp_queries_total` — subset queries issued by LP attacks.
    pub lp_queries: Counter,
    /// `so_recon_lp_iterations_total` — simplex pivot iterations spent
    /// solving the decoding LPs.
    pub lp_iterations: Counter,
    /// `so_recon_lp_bound_flips_total` — simplex steps that moved a
    /// variable between its bounds without a pivot.
    pub lp_bound_flips: Counter,
}

/// The reconstruction layer's global metric handles, registered on first use.
pub fn recon_metrics() -> &'static ReconMetrics {
    static METRICS: OnceLock<ReconMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        ReconMetrics {
            lp_attacks: r.counter("so_recon_lp_attacks_total"),
            lp_queries: r.counter("so_recon_lp_queries_total"),
            lp_iterations: r.counter("so_recon_lp_iterations_total"),
            lp_bound_flips: r.counter("so_recon_lp_bound_flips_total"),
        }
    })
}
