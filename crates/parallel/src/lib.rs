//! Lightweight data-parallel primitives for the MFCP workspace.
//!
//! The MFCP training pipeline contains several embarrassingly parallel
//! stages: per-cluster predictor training, the `S`-sample zeroth-order
//! perturbation loop of Algorithm 2, Monte-Carlo evaluation over seeds, and
//! blocked dense matrix multiplication. This crate provides the
//! primitives those stages need:
//!
//! * Scoped helpers ([`par_map`], [`par_for_each`], [`par_chunks_mut`],
//!   [`par_reduce`]) — borrow-friendly fork/join over slices built on
//!   `crossbeam::thread::scope`, so callers can parallelize over borrowed
//!   data without `Arc`-wrapping everything.
//! * [`solve_batch`] — batched fan-out with deterministic result ordering
//!   and per-slot panic isolation ([`SlotPanic`]), used by training to
//!   keep one poisoned solve from taking down a whole round.
//!
//! All helpers fall back to sequential execution for tiny inputs where
//! thread spawn overhead would dominate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod scoped;

pub use batch::{solve_batch, SlotPanic};
pub use scoped::{par_chunks_mut, par_for_each, par_map, par_reduce, ParallelConfig};

/// Returns the number of worker threads to use by default.
///
/// This is the machine's available parallelism, clamped to at least 1. The
/// value is computed once per call; callers that need a stable value should
/// capture it in a [`ParallelConfig`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
