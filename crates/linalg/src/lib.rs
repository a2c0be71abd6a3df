//! Dense linear algebra for the MFCP workspace.
//!
//! The MFCP pipeline needs a small but complete dense-matrix toolkit:
//!
//! * [`Matrix`] — a row-major `f64` matrix with the usual constructors,
//!   arithmetic, and a cache-blocked, thread-parallel matrix multiply
//!   (used by the autodiff engine and the KKT system assembly).
//! * [`lu::Lu`] — LU factorization with partial pivoting, the solver behind
//!   the implicit differentiation of the matching layer (paper Eq. 15).
//! * [`cholesky::Cholesky`] — cache-blocked right-looking factorization
//!   for symmetric positive-definite systems.
//! * [`qr::Qr`] — Householder QR and least-squares solves.
//! * [`eigen`] — cyclic-Jacobi symmetric eigendecomposition, used for
//!   conditioning diagnostics of the KKT systems.
//! * [`vector`] — free functions on `&[f64]` slices (dot, norms, softmax,
//!   log-sum-exp) shared by the optimizer and the neural nets.
//!
//! Everything is `f64`; the matrices involved in MFCP (KKT systems of size
//! `3·M·N + N` for single-digit `M` and tens of tasks `N`) are small enough
//! that a straightforward, well-tested implementation beats FFI to BLAS.
//!
//! The only `unsafe` in the crate lives in [`simd`]: the runtime-dispatched
//! AVX2/FMA arms of the blocked-kernel primitives (`deny` + a scoped allow
//! rather than `forbid`, which cannot be overridden per-module). Everything
//! else stays safe Rust.

#![deny(unsafe_code)]
#![warn(missing_docs)]
// Triangular-solve and factorization kernels read clearest in index form.
#![allow(clippy::needless_range_loop)]

mod error;
mod matrix;
mod ops;

pub mod cholesky;
pub mod eigen;
pub mod lu;
pub mod qr;
pub mod simd;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use ops::MatmulOptions;

/// Result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
