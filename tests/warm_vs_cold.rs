//! Differential lock-down of the warm-start cache and batched solving.
//!
//! Three invariants, each property-tested over random convex instances
//! (`SpeedupCurve::None` plus the default entropy weight ρ > 0, so the
//! relaxed optimum is unique and cold/warm trajectories must meet):
//!
//! 1. A warm-started [`RobustSolver::solve_cached`] agrees with the
//!    cold [`RobustSolver::solve`] on the objective within `1e-8` and on
//!    the argmax-rounded assignment exactly.
//! 2. The same holds when the cached state is stale or poisoned (NaN
//!    duals, wrong-shape assignment): the ladder falls back to the cold
//!    path — marked [`CacheOutcome::Stale`], never a panic or a wrong
//!    answer.
//! 3. Batched [`solve_batch`] fan-out is bit-for-bit identical to the
//!    sequential path, including the per-solve diagnostics ordering.
//!
//! Under `--features strict-determinism` the batched side runs
//! single-threaded, re-checking the same invariants with the thread pool
//! taken out of the picture (CI runs both configurations).

use mfcp::optim::cache::{fingerprint, CacheOutcome, WarmStartCache};
use mfcp::optim::recovery::RobustSolver;
use mfcp::optim::rounding::round_argmax;
use mfcp::optim::solver::SolverOptions;
use mfcp::optim::{MatchingProblem, RelaxationParams, SeedKind};
use mfcp::parallel::{solve_batch, ParallelConfig};
use mfcp_linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random convex instance: no speedup curves, data bounded away from the
/// degenerate corners, and a slack reliability threshold. The ranges are
/// chosen so the smooth-max curvature (≈ β·t²) stays inside the stable
/// step-size regime for the solver below — the point of this suite is
/// trajectory equivalence at a certified optimum, not worst-case
/// conditioning (the recovery ladder owns that).
fn convex_problem(seed: u64, m: usize, n: usize) -> MatchingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.7..1.8));
    let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.75..1.0));
    MatchingProblem::new(t, a, 0.6)
}

/// Relaxation with a strong entropy modulus: the strong-convexity
/// constant scales with ρ, and at 0.05 every generated instance reaches
/// the 1e-12 step tolerance in well under the iteration budget (probed
/// at ~4.3k iterations worst-case over 2000 instances).
fn test_params() -> RelaxationParams {
    RelaxationParams {
        rho: 0.05,
        ..Default::default()
    }
}

/// The same instance after a small data drift (structure — and therefore
/// the cache fingerprint — unchanged): the situation a warm start is for.
fn drifted(problem: &MatchingProblem, seed: u64) -> MatchingProblem {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD21F);
    let (m, n) = problem.times.shape();
    let t = Matrix::from_fn(m, n, |i, j| {
        problem.times[(i, j)] * (1.0 + 0.02 * rng.gen_range(-1.0..1.0))
    });
    MatchingProblem::new(t, problem.reliability.clone(), problem.gamma)
}

/// A solver tight enough that cold and warm runs both land within ~1e-10
/// of the unique optimum; mirror descent is monotone at lr 0.1 on these
/// instances (the default 0.8 can limit-cycle above the tolerance).
fn tight_solver(params: RelaxationParams) -> RobustSolver {
    let mut solver = RobustSolver::new(params);
    solver.solver_opts = SolverOptions {
        max_iters: 20_000,
        tol: 1e-12,
        lr: 0.1,
        ..Default::default()
    };
    // Disable stall aborts: a multiplicatively collapsing coordinate
    // (x shrinking geometrically toward its simplex face) moves more
    // than the stall step floor per iteration while barely changing the
    // objective, which the oscillation heuristic misreads as a stall at
    // this tolerance. The ladder's stall/recovery semantics are locked
    // down by the `mfcp-optim` recovery tests; this suite compares pure
    // cold and warm trajectories.
    solver.policy.stall_checks = usize::MAX;
    solver
}

/// Thread fan-out for the batched differential checks; pinned to one
/// thread under `strict-determinism` so CI exercises both shapes.
fn batch_parallel() -> ParallelConfig {
    if cfg!(feature = "strict-determinism") {
        ParallelConfig::sequential()
    } else {
        ParallelConfig::with_threads(4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariant 1: warm-started solves agree with cold solves on the
    /// objective within 1e-8 and on the rounded assignment exactly —
    /// both on a cache miss (first solve) and on a genuine warm hit
    /// (re-solve after drift).
    #[test]
    fn prop_warm_agrees_with_cold(seed in 0u64..1_000_000, m in 2usize..4, n in 2usize..6) {
        let p0 = convex_problem(seed, m, n);
        let p1 = drifted(&p0, seed);
        let solver = tight_solver(test_params());

        let cold0 = solver.solve(&p0).expect("cold solve");
        let cold1 = solver.solve(&p1).expect("cold solve");

        let mut cache = WarmStartCache::new();
        let warm0 = solver.solve_cached(&p0, &mut cache, None, None).expect("miss solve");
        let warm1 = solver.solve_cached(&p1, &mut cache, None, None).expect("warm solve");

        prop_assert!(matches!(warm0.diagnostics.cache, Some(CacheOutcome::Miss)));
        prop_assert!(
            matches!(warm1.diagnostics.cache, Some(CacheOutcome::Hit)),
            "drifted re-solve must hit the cache, got {:?}",
            warm1.diagnostics.cache
        );
        prop_assert_eq!(warm1.diagnostics.attempts[0].seed, Some(SeedKind::Cached));

        for (cold, warm) in [(&cold0, &warm0), (&cold1, &warm1)] {
            prop_assert!(
                (cold.objective - warm.objective).abs() <= 1e-8,
                "objective drift {} vs {}",
                cold.objective,
                warm.objective
            );
            prop_assert_eq!(
                round_argmax(&cold.x).cluster_of,
                round_argmax(&warm.x).cluster_of
            );
        }
    }

    /// Invariant 2: a poisoned cache entry (NaN duals, then a wrong-shape
    /// assignment matrix) is evicted as stale and the solve falls back to
    /// the cold path — same answer, stale accounted, no panic.
    #[test]
    fn prop_poisoned_cache_falls_back_to_cold(seed in 0u64..1_000_000, m in 2usize..4, n in 2usize..6) {
        let p0 = convex_problem(seed, m, n);
        let solver = tight_solver(test_params());
        let cold = solver.solve(&p0).expect("cold solve");
        let key = fingerprint(&p0, &solver.params);

        let mut cache = WarmStartCache::new();
        let _ = solver.solve_cached(&p0, &mut cache, None, None).expect("seed the cache");

        for poison in 0..2u8 {
            let entry = cache.entry_mut(key).expect("entry just stored");
            match poison {
                0 => entry.duals = vec![f64::NAN; n],
                _ => entry.x = Matrix::filled(m + 1, n, 1.0 / (m + 1) as f64),
            }
            let stale_before = cache.stats().stale;
            let sol = solver.solve_cached(&p0, &mut cache, None, None).expect("poisoned solve");
            prop_assert!(
                matches!(sol.diagnostics.cache, Some(CacheOutcome::Stale)),
                "poison {poison}: expected stale, got {:?}",
                sol.diagnostics.cache
            );
            prop_assert!(cache.stats().stale > stale_before);
            prop_assert_eq!(sol.diagnostics.attempts[0].seed, None);
            prop_assert!((cold.objective - sol.objective).abs() <= 1e-8);
            prop_assert_eq!(
                round_argmax(&cold.x).cluster_of,
                round_argmax(&sol.x).cluster_of
            );
            // The eviction leaves a miss; the solve above re-stored a
            // fresh entry for the next poison round.
            prop_assert!(cache.entry_mut(key).is_some());
        }
    }

    /// Invariant 3: `solve_batch` returns results in input order and
    /// bit-for-bit identical to the sequential path — objectives,
    /// assignments, and the diagnostics path strings.
    #[test]
    fn prop_batched_matches_sequential_bitwise(seed in 0u64..1_000_000, count in 1usize..7) {
        let problems: Vec<MatchingProblem> = (0..count)
            .map(|k| convex_problem(seed.wrapping_add(k as u64), 3, 4))
            .collect();
        // Bit-for-bit comparison needs identical execution, not tight
        // convergence — a short budget keeps 256 cases cheap.
        let mut solver = RobustSolver::new(RelaxationParams::default());
        solver.solver_opts = SolverOptions {
            max_iters: 150,
            lr: 0.3,
            ..Default::default()
        };
        let run = |parallel: &ParallelConfig| -> Vec<(u64, Vec<usize>, String)> {
            solve_batch(parallel, &problems, |_, p| {
                let sol = solver.solve(p).expect("convex instance solves");
                (
                    sol.objective.to_bits(),
                    round_argmax(&sol.x).cluster_of,
                    sol.diagnostics.path(),
                )
            })
            .into_iter()
            .map(|slot| slot.expect("no slot panics here"))
            .collect()
        };
        let seq = run(&ParallelConfig::sequential());
        let par = run(&batch_parallel());
        prop_assert_eq!(seq, par);
    }
}
