//! Solver seeds: where a first-order solve starts instead of the uniform
//! simplex point.
//!
//! Every non-uniform start in the system is a [`Seed`]: a column-stochastic
//! point plus the [`SeedKind`] that says where it came from. The kind
//! fixes the interior blend below and what
//! [`crate::RobustSolver::solve_cached`] books when the seeded attempt
//! fails.
//!
//! [`Seed::init`] returns `(1 − τ)·x + τ/m`. Mirror-descent updates are
//! multiplicative, so an exact zero in the starting point stays zero
//! forever; the blend keeps every coordinate strictly positive and the
//! columns exactly stochastic. The strength `τ` depends on the kind:
//!
//! | kind | `τ` |
//! |---|---|
//! | [`SeedKind::Cached`], [`SeedKind::Carried`] | [`INTERIOR_BLEND`] `= 1e-9` |
//! | [`SeedKind::Predicted`] | [`PREDICTED_BLEND`] `= 1e-3` |
//!
//! A cached or carried seed is a true optimum of the same or a sibling
//! instance: its small coordinates are small in the *right* places, so the
//! blend only needs to lift exact zeros. It is kept tiny on purpose,
//! because the blend is itself a perturbation the solver must contract
//! below its step-change tolerance: a `1e-3` blend forces ~7 decades of
//! geometric decay at tol `1e-10`, capping the savings of a near-exact
//! seed. Mirror descent recovers a wrongly collapsed coordinate from
//! `1e-9/m` in a few dozen iterations.
//!
//! A learned prediction's small coordinates are wrong at the model's
//! error scale (~1e-2): the simplex projection in
//! [`crate::learned::repair`] routinely lands columns on the boundary, and
//! multiplicative updates grow a coordinate from `1e-9` about three times
//! slower than from `1e-3` (measured: a predicted seed 20× closer than
//! uniform converged no faster than cold under the `1e-9` blend). The
//! `1e-3` floor of `τ/m` is a negligible perturbation next to the
//! prediction error and decisive for recovery speed.

use std::fmt;

use crate::solver::uniform_init;
use mfcp_linalg::Matrix;

/// Interior blend for [`SeedKind::Cached`] and [`SeedKind::Carried`]
/// seeds (see the module docs).
pub const INTERIOR_BLEND: f64 = 1e-9;

/// Interior blend for [`SeedKind::Predicted`] seeds (see the module
/// docs).
pub const PREDICTED_BLEND: f64 = 1e-3;

/// Where a [`Seed`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedKind {
    /// A validated [`crate::cache::WarmStartCache`] hit: the previous
    /// optimum stored under this problem's fingerprint. A failed attempt
    /// evicts the entry (`cache.stale`).
    Cached,
    /// A previous solution carried onto a related problem by the caller:
    /// the serve daemon's last matching spliced onto the current task
    /// set, or training's per-task columns and perturbation seeds. A
    /// failed attempt touches no cache.
    Carried,
    /// A learned-dual prediction after [`crate::learned::repair`]. A
    /// failed attempt counts `optim.learned.fallback`.
    Predicted,
}

impl SeedKind {
    /// Every kind, in counter-table order.
    pub(crate) const ALL: [SeedKind; 3] =
        [SeedKind::Cached, SeedKind::Carried, SeedKind::Predicted];
}

impl fmt::Display for SeedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SeedKind::Cached => "cached",
            SeedKind::Carried => "carried",
            SeedKind::Predicted => "predicted",
        })
    }
}

/// A non-uniform starting point for a first-order solve.
#[derive(Debug, Clone)]
pub struct Seed {
    /// The seed point; columns on the probability simplex.
    pub x: Matrix,
    /// Where the seed came from.
    pub kind: SeedKind,
}

impl Seed {
    /// The solver's starting point: `x` blended toward the uniform
    /// interior, `(1 − τ)·x + τ/m`, with `τ` from the kind (see the module
    /// docs).
    pub fn init(&self) -> Matrix {
        let tau = match self.kind {
            SeedKind::Cached | SeedKind::Carried => INTERIOR_BLEND,
            SeedKind::Predicted => PREDICTED_BLEND,
        };
        let (m, n) = self.x.shape();
        let u = 1.0 / m.max(1) as f64;
        Matrix::from_fn(m, n, |i, j| (1.0 - tau) * self.x[(i, j)] + tau * u)
    }

    /// The starting point of an `m × n` solve: [`Seed::init`] of `seed`,
    /// or the uniform simplex point without one.
    pub fn start(seed: Option<&Seed>, m: usize, n: usize) -> Matrix {
        seed.map_or_else(|| uniform_init(m, n), Seed::init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::is_column_stochastic;

    #[test]
    fn init_is_the_pinned_blend_for_every_kind() {
        let x = Matrix::from_rows(&[&[1.0, 0.0, 0.25], &[0.0, 1.0, 0.75]]);
        for kind in SeedKind::ALL {
            let tau = if kind == SeedKind::Predicted {
                PREDICTED_BLEND
            } else {
                INTERIOR_BLEND
            };
            let w = Seed { x: x.clone(), kind }.init();
            for (a, b) in x.as_slice().iter().zip(w.as_slice()) {
                assert_eq!(
                    b.to_bits(),
                    ((1.0 - tau) * a + tau * 0.5).to_bits(),
                    "{kind}"
                );
                assert!(*b > 0.0, "{kind}: blended seed must be interior");
                assert!((a - b).abs() < 2e-3, "{kind}: blended seed must stay close");
            }
            assert!(is_column_stochastic(&w, 1e-12), "{kind}");
        }
    }
}
