//! Differential lock-down of the learned-duals warm-start path.
//!
//! Property-tested over random convex instances (unique entropic
//! optimum, so any-seed trajectories must meet):
//!
//! 1. A solve seeded from *any* repairable prediction — however far
//!    from the optimum — agrees with the cold
//!    [`RobustSolver::solve`] on the objective within `1e-8` and on
//!    the argmax-rounded assignment exactly, and is reported as
//!    [`CacheOutcome::Predicted`].
//! 2. Adversarial predictions (NaN/Inf duals, ×1e6-scaled duals,
//!    wrong-shape or non-finite primal) are rejected by the repair
//!    kernel before any solver work: the solve is bit-for-bit the cold
//!    solve, with a typed [`PredictionOutcome::Rejected`] in the
//!    diagnostics — never a panic, never a degraded answer.
//! 3. Exact cache hits take precedence: a predictor is never consulted
//!    when a valid cached optimum exists.
//! 4. A repaired prediction whose attempt fails falls through the
//!    ladder ([`PredictionOutcome::FellBack`]) and still lands on the
//!    plain solve's answer bit for bit — a wrong model costs one rung.
//!
//! CI runs this suite both default and under `--features
//! strict-determinism` (the feature changes no optim code paths; it
//! pins the mfcp-linalg SIMD dispatch to the scalar arm).

use mfcp_linalg::Matrix;
use mfcp_optim::cache::{CacheOutcome, WarmStartCache};
use mfcp_optim::learned::{DualPrediction, DualPredictor, LearnedDualHead};
use mfcp_optim::recovery::{PredictionOutcome, RobustSolver, StageOutcome};
use mfcp_optim::rounding::round_argmax;
use mfcp_optim::solver::SolverOptions;
use mfcp_optim::{BarrierKind, MatchingProblem, RelaxationParams, SeedKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random convex instance: no speedup curves, data bounded away from
/// the degenerate corners (same family as `tests/warm_vs_cold.rs`).
fn convex_problem(seed: u64, m: usize, n: usize) -> MatchingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.7..1.8));
    let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.75..1.0));
    MatchingProblem::new(t, a, 0.6)
}

/// Strong entropy modulus: every generated instance reaches the 1e-12
/// step tolerance well inside the iteration budget.
fn test_params() -> RelaxationParams {
    RelaxationParams {
        rho: 0.05,
        ..Default::default()
    }
}

/// A solver tight enough that cold and seeded runs both land within
/// ~1e-10 of the unique optimum (see `tests/warm_vs_cold.rs` for the
/// lr/stall rationale).
fn tight_solver(params: RelaxationParams) -> RobustSolver {
    let mut solver = RobustSolver::new(params);
    solver.solver_opts = SolverOptions {
        max_iters: 20_000,
        tol: 1e-12,
        lr: 0.1,
        ..Default::default()
    };
    solver.policy.stall_checks = usize::MAX;
    solver
}

/// A mock predictor returning a fixed raw prediction — the adversarial
/// handle the repair kernel and fallback semantics are tested through.
struct Mock(Option<DualPrediction>);

impl DualPredictor for Mock {
    fn predict_duals(
        &self,
        _problem: &MatchingProblem,
        _params: &RelaxationParams,
    ) -> Option<DualPrediction> {
        self.0.clone()
    }
}

/// A predictor that must never be consulted (cache-precedence checks).
struct PanicPredictor;

impl DualPredictor for PanicPredictor {
    fn predict_duals(
        &self,
        _problem: &MatchingProblem,
        _params: &RelaxationParams,
    ) -> Option<DualPrediction> {
        panic!("predictor consulted despite a valid cache hit");
    }
}

/// An arbitrary repairable prediction: finite primal entries of any
/// sign and duals inside the admissible bound.
fn random_prediction(seed: u64, m: usize, n: usize) -> DualPrediction {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    let x = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.5..2.5));
    let duals = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
    DualPrediction { x, duals }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariant 1: any repairable prediction — good, mediocre, or
    /// wildly off — seeds a solve that agrees with the cold solve on
    /// the objective within 1e-8 and on the rounded assignment exactly.
    #[test]
    fn prop_predicted_seed_agrees_with_cold(
        seed in 0u64..1_000_000,
        m in 2usize..4,
        n in 2usize..6,
    ) {
        let problem = convex_problem(seed, m, n);
        let solver = tight_solver(test_params());
        let cold = solver.solve(&problem).expect("cold solve");

        let mut cache = WarmStartCache::new();
        let prediction = random_prediction(seed, m, n);
        let sol = solver
            .solve_cached(&problem, &mut cache, None, Some(&Mock(Some(prediction))))
            .expect("predicted solve");

        prop_assert_eq!(sol.diagnostics.cache, Some(CacheOutcome::Predicted));
        prop_assert_eq!(sol.diagnostics.prediction, Some(PredictionOutcome::Seeded));
        prop_assert_eq!(sol.diagnostics.attempts[0].seed, Some(SeedKind::Predicted));
        prop_assert!(
            sol.diagnostics.path().starts_with("pred-primary"),
            "path: {}",
            sol.diagnostics.path()
        );
        prop_assert!(
            (cold.objective - sol.objective).abs() <= 1e-8,
            "objective drift {} vs {}",
            cold.objective,
            sol.objective
        );
        prop_assert_eq!(
            round_argmax(&cold.x).cluster_of,
            round_argmax(&sol.x).cluster_of
        );
        // The predicted optimum was cached for future exact hits.
        prop_assert_eq!(cache.stats().entries, 1);
    }

    /// Invariant 2: adversarial predictions are rejected before any
    /// solver work and the result is bit-for-bit the cold solve.
    #[test]
    fn prop_adversarial_predictions_fall_back_to_cold(
        seed in 0u64..1_000_000,
        m in 2usize..4,
        n in 2usize..6,
    ) {
        let problem = convex_problem(seed, m, n);
        let solver = tight_solver(test_params());
        let cold = solver.solve(&problem).expect("cold solve");
        let uniform = Matrix::filled(m, n, 1.0 / m as f64);

        let poisons: Vec<DualPrediction> = vec![
            // NaN duals.
            DualPrediction { x: uniform.clone(), duals: vec![f64::NAN; n] },
            // Infinite duals.
            DualPrediction { x: uniform.clone(), duals: vec![f64::INFINITY; n] },
            // Duals scaled ×1e6: finite but out of scale.
            DualPrediction { x: uniform.clone(), duals: vec![1.0e6; n] },
            // Wrong-shape primal.
            DualPrediction {
                x: Matrix::filled(m + 1, n, 1.0 / (m + 1) as f64),
                duals: vec![0.0; n],
            },
            // Non-finite primal.
            DualPrediction {
                x: Matrix::from_fn(m, n, |i, j| if i == 0 && j == 0 { f64::NAN } else { 0.5 }),
                duals: vec![0.0; n],
            },
        ];

        for (k, poison) in poisons.into_iter().enumerate() {
            let mut cache = WarmStartCache::new();
            let sol = solver
                .solve_cached(&problem, &mut cache, None, Some(&Mock(Some(poison))))
                .expect("poisoned prediction must not fail the solve");
            prop_assert_eq!(
                sol.diagnostics.cache,
                Some(CacheOutcome::Miss),
                "poison {}: rejected predictions leave a plain miss",
                k
            );
            prop_assert!(
                matches!(
                    sol.diagnostics.prediction,
                    Some(PredictionOutcome::Rejected(_))
                ),
                "poison {}: expected a typed rejection, got {:?}",
                k,
                sol.diagnostics.prediction
            );
            prop_assert_eq!(sol.diagnostics.attempts[0].seed, None);
            prop_assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
            prop_assert_eq!(sol.x.as_slice(), cold.x.as_slice());
        }
    }

    /// Invariant 3: a valid cache hit pre-empts the predictor entirely
    /// (the panic predictor proves it is never consulted).
    #[test]
    fn prop_cache_hit_beats_prediction(
        seed in 0u64..1_000_000,
        m in 2usize..4,
        n in 2usize..6,
    ) {
        let problem = convex_problem(seed, m, n);
        let solver = tight_solver(test_params());
        let mut cache = WarmStartCache::new();
        let first = solver
            .solve_cached(&problem, &mut cache, None, Some(&Mock(None)))
            .expect("miss populates the cache");
        prop_assert_eq!(first.diagnostics.cache, Some(CacheOutcome::Miss));
        prop_assert!(first.diagnostics.prediction.is_none(), "predictor abstained");

        let warm = solver
            .solve_cached(&problem, &mut cache, None, Some(&PanicPredictor))
            .expect("hit solves without touching the predictor");
        prop_assert_eq!(warm.diagnostics.cache, Some(CacheOutcome::Hit));
        prop_assert!(warm.diagnostics.prediction.is_none());
        prop_assert_eq!(warm.diagnostics.attempts[0].seed, Some(SeedKind::Cached));
    }
}

/// Invariant 4: a repaired prediction whose seeded attempt fails falls
/// through the existing ladder with a typed event and lands on the
/// plain solve's answer bit for bit.
#[test]
fn failed_predicted_attempt_falls_through_ladder() {
    // Reliability-infeasible at every interior point with a zero-cutoff
    // log barrier: the seeded primary attempt goes non-finite
    // immediately, whatever the seed.
    let t = Matrix::filled(2, 4, 1.0);
    let a = Matrix::filled(2, 4, 0.7);
    let problem = MatchingProblem::new(t, a, 0.95);
    let params = RelaxationParams {
        barrier: BarrierKind::Log { eps: 0.0 },
        ..Default::default()
    };
    let solver = RobustSolver::new(params);
    let cold = solver.solve(&problem).expect("plain ladder recovers");

    let prediction = DualPrediction {
        x: Matrix::filled(2, 4, 0.5),
        duals: vec![0.0; 4],
    };
    let mut cache = WarmStartCache::new();
    let sol = solver
        .solve_cached(&problem, &mut cache, None, Some(&Mock(Some(prediction))))
        .expect("failed prediction must fall back, not fail");

    assert_eq!(
        sol.diagnostics.prediction,
        Some(PredictionOutcome::FellBack)
    );
    assert_eq!(
        sol.diagnostics.cache,
        Some(CacheOutcome::Miss),
        "a fallen-back prediction reports the underlying miss"
    );
    let first = &sol.diagnostics.attempts[0];
    assert_eq!(
        first.seed,
        Some(SeedKind::Predicted),
        "path: {}",
        sol.diagnostics.path()
    );
    assert!(
        matches!(first.outcome, StageOutcome::Failed(_)),
        "predicted attempt must be on record as failed"
    );
    assert!(sol.diagnostics.recovered);
    assert_eq!(sol.stage, cold.stage);
    assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
    assert_eq!(sol.x.as_slice(), cold.x.as_slice());
}

/// End-to-end: a head trained on a drifted family serves predictions
/// for unseen instances that agree with the cold solve and are
/// reported as predicted.
#[test]
fn trained_head_agrees_with_cold_on_unseen_instances() {
    const M: usize = 3;
    const N: usize = 5;
    let params = test_params();
    let solver = tight_solver(params);
    let mut head = LearnedDualHead::new(M, 42);

    // Train on one family of drifted instances...
    let train: Vec<MatchingProblem> = (0..12).map(|k| convex_problem(1000 + k, M, N)).collect();
    let solved: Vec<(usize, Matrix)> = train
        .iter()
        .enumerate()
        .map(|(i, p)| (i, solver.solve(p).expect("train solve").x))
        .collect();
    for _ in 0..40 {
        for (i, x) in &solved {
            head.observe(&train[*i], &params, x);
        }
    }
    assert!(head.ready());

    // ...and serve unseen instances from the same distribution.
    for k in 0..4u64 {
        let unseen = convex_problem(9000 + k, M, N);
        let cold = solver.solve(&unseen).expect("cold solve");
        let mut cache = WarmStartCache::new();
        let sol = solver
            .solve_cached(&unseen, &mut cache, None, Some(&head))
            .expect("predicted solve");
        assert_eq!(sol.diagnostics.cache, Some(CacheOutcome::Predicted));
        assert!(
            (cold.objective - sol.objective).abs() <= 1e-8,
            "unseen {k}: objective drift {} vs {}",
            cold.objective,
            sol.objective
        );
        assert_eq!(
            round_argmax(&cold.x).cluster_of,
            round_argmax(&sol.x).cluster_of,
            "unseen {k}: rounded assignments must match"
        );
    }
}
