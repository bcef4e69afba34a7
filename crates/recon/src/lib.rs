#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # so-recon — database reconstruction attacks
//!
//! Implementations of the attacks behind Theorem 1.1 (Dinur–Nissim 2003) and
//! the "Fundamental Law of Information Recovery":
//!
//! > overly accurate answers to too many questions will destroy privacy in a
//! > spectacular way.
//!
//! * [`exponential`] — the information-theoretic attack of Theorem 1.1(i):
//!   with answers to *all* subset queries within error `α = c·n`, any
//!   candidate dataset consistent with the answers agrees with the true one
//!   up to `4α` entries;
//! * [`mod@lp_decode`] — the polynomial attack of Theorem 1.1(ii) (in the
//!   linear-programming form of Dwork–McSherry–Talwar): `O(n)` random subset
//!   queries with error `α = c·√n` suffice to reconstruct almost all of `x`;
//! * [`least_squares`] — a projected-gradient least-squares decoder, the
//!   scalable ablation of the LP decoder;
//! * [`differencing`] — the classic tracker/differencing attack on exact
//!   (and repeated-noisy) count interfaces.
//!
//! All attacks operate through [`so_query::SubsetSumMechanism`], so they can
//! be aimed unchanged at exact, bounded-noise, or differentially private
//! answer mechanisms — which is how the experiments demonstrate both the
//! attack and the DP remedy.

pub mod differencing;
pub mod exponential;
pub mod least_squares;
pub mod lp_decode;
pub mod obs;

pub use differencing::{averaging_differencing_attack, differencing_attack};
pub use exponential::exhaustive_reconstruct;
pub use least_squares::least_squares_reconstruct;
pub use lp_decode::{decoding_lp, lp_attack_queries, lp_decode, lp_reconstruct};
pub use obs::{recon_metrics, ReconMetrics};

use so_data::BitVec;

/// Fraction of entries on which the reconstruction agrees with the truth.
pub fn reconstruction_accuracy(truth: &BitVec, guess: &BitVec) -> f64 {
    assert_eq!(truth.len(), guess.len(), "length mismatch");
    if truth.is_empty() {
        return 1.0;
    }
    1.0 - truth.hamming_distance(guess) as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_bounds() {
        let a = BitVec::from_bools(&[true, false, true, false]);
        let b = BitVec::from_bools(&[true, false, false, true]);
        assert_eq!(reconstruction_accuracy(&a, &a), 1.0);
        assert_eq!(reconstruction_accuracy(&a, &b), 0.5);
    }

    #[test]
    fn empty_truth_is_trivially_reconstructed() {
        let e = BitVec::zeros(0);
        assert_eq!(reconstruction_accuracy(&e, &e), 1.0);
    }
}
