//! Differential suite: structured KKT elimination vs the dense-LU oracle.
//!
//! The structured path (Woodbury on the Hessian, Schur complement on the
//! simplex rows) must agree with the dense saddle solve to near machine
//! precision on every convex instance — across barrier kinds, cost
//! kinds, capacity constraints, and degenerate shapes (`M = 1`,
//! `N = 1`). Near-active log-barrier points and non-positive entropy
//! weights must instead take the dense fallback, recorded on the
//! workspace counters.

use mfcp_linalg::Matrix;
use mfcp_optim::kkt::{self, KktWorkspace};
use mfcp_optim::problem::CapacityConstraint;
use mfcp_optim::{BarrierKind, CostKind, MatchingProblem, RelaxationParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A strictly interior column-stochastic matrix: every entry at least
/// `0.1 / m` after normalization, well away from the `x → 0` cliff of
/// the entropy Hessian.
fn interior_x(rng: &mut StdRng, m: usize, n: usize) -> Matrix {
    let mut x = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.1..1.0));
    for j in 0..n {
        let col: f64 = (0..m).map(|i| x[(i, j)]).sum();
        for i in 0..m {
            x[(i, j)] /= col;
        }
    }
    x
}

fn random_problem(rng: &mut StdRng, m: usize, n: usize, capacity: bool) -> MatchingProblem {
    let times = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..3.0));
    // Reliabilities well above gamma keep the log-barrier slack bounded
    // away from zero: at g → 0 the curvature λ/g² makes the saddle
    // system so ill-conditioned that no two algorithms agree to 1e-9 —
    // that near-active band is the dense fallback's job, tested
    // separately below.
    let rel = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.8..0.999));
    let gamma = rng.gen_range(0.3..0.7);
    let mut problem = MatchingProblem::new(times, rel, gamma);
    if capacity {
        let usage = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.05..0.5));
        let limits = (0..m).map(|_| rng.gen_range(2.0..6.0)).collect();
        problem = problem.with_capacity(CapacityConstraint::new(usage, limits));
    }
    problem
}

fn barrier_for(choice: usize) -> BarrierKind {
    match choice % 3 {
        0 => BarrierKind::log(),
        1 => BarrierKind::HardPenalty,
        _ => BarrierKind::None,
    }
}

fn cost_for(choice: usize) -> CostKind {
    if choice.is_multiple_of(2) {
        CostKind::SmoothMax
    } else {
        CostKind::LinearSum
    }
}

/// Runs both paths on one instance and asserts elementwise agreement to
/// `tol`. Returns the workspace so callers can inspect which path fired.
fn assert_paths_agree(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x: &Matrix,
    dl_dx: &Matrix,
    tol: f64,
    context: &str,
) -> KktWorkspace {
    let mut ws = KktWorkspace::new();
    let structured = kkt::implicit_gradients_with(problem, params, x, dl_dx, &mut ws)
        .expect("workspace path must solve an interior convex instance");
    let dense = kkt::implicit_gradients_dense(problem, params, x, dl_dx)
        .expect("dense oracle must solve an interior convex instance");
    for (which, got, want) in [
        ("dl_dt", &structured.dl_dt, &dense.dl_dt),
        ("dl_da", &structured.dl_da, &dense.dl_da),
    ] {
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            // Scale-invariant: 1e-9 absolute near the origin, 1e-9
            // relative for large entries (ill-conditioned saddle systems
            // amplify the two algorithms' different rounding paths).
            let scale = 1.0_f64.max(a.abs()).max(b.abs());
            assert!(
                (a - b).abs() <= tol * scale,
                "{which} [{context}]: structured {a} vs dense {b} differ by {} (> {tol} x {scale})",
                (a - b).abs()
            );
        }
    }
    ws
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 random convex instances: structured and dense gradients agree
    /// to 1e-9 elementwise across barrier kinds, cost kinds, capacity
    /// on/off, and shapes down to M=1 / N=1.
    #[test]
    fn prop_structured_matches_dense(
        seed in 0u64..1_000_000,
        m in 1usize..=6,
        n in 1usize..=8,
        barrier_choice in 0usize..3,
        cost_choice in 0usize..2,
        capacity_choice in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = random_problem(&mut rng, m, n, capacity_choice == 1);
        let x = interior_x(&mut rng, m, n);
        let dl_dx = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
        let params = RelaxationParams {
            beta: rng.gen_range(0.5..8.0),
            lambda: rng.gen_range(0.01..0.2),
            rho: rng.gen_range(0.01..0.2),
            barrier: barrier_for(barrier_choice),
            cost: cost_for(cost_choice),
        };
        let g = mfcp_optim::objective::reliability_slack(&problem, &x);
        let ctx = format!(
            "seed={seed} m={m} n={n} barrier={barrier_choice} cost={cost_choice} \
             cap={capacity_choice} slack={g}"
        );
        let ws = assert_paths_agree(&problem, &params, &x, &dl_dx, 1e-9, &ctx);
        // With rho > 0 the only reason to fall back is the near-active
        // log-barrier band, which the random slack almost never hits;
        // when it does, the dense path must have produced the answer.
        prop_assert_eq!(
            ws.structured_factors() + ws.dense_fallbacks(),
            1,
            "exactly one factorization per call"
        );
    }
}

/// Degenerate shapes hit explicitly (the proptest above also samples
/// them, but these fixed cases never rotate out of the corpus).
#[test]
fn degenerate_shapes_agree() {
    for (seed, m, n) in [(11u64, 1usize, 5usize), (12, 4, 1), (13, 1, 1)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = random_problem(&mut rng, m, n, false);
        let x = interior_x(&mut rng, m, n);
        let dl_dx = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
        let params = RelaxationParams::default();
        let ws = assert_paths_agree(&problem, &params, &x, &dl_dx, 1e-9, "degenerate");
        assert!(
            ws.last_factor_structured(),
            "interior default-params instance must take the structured path"
        );
    }
}

/// A slack inside the near-active band `eps <= g < 2 eps` must trigger
/// the dense fallback: the barrier curvature there is about to switch to
/// the linear extension, where a rank-1 Woodbury update of an
/// ill-conditioned term is the wrong tool.
#[test]
fn near_active_barrier_takes_dense_fallback() {
    let mut rng = StdRng::seed_from_u64(21);
    let problem = random_problem(&mut rng, 3, 6, false);
    let x = interior_x(&mut rng, 3, 6);
    let g = mfcp_optim::objective::reliability_slack(&problem, &x);
    assert!(g > 0.0, "test instance must have positive slack, got {g}");
    // Place the cutoff so the measured slack lands mid-band: g = 1.5 eps.
    let params = RelaxationParams {
        barrier: BarrierKind::Log { eps: g / 1.5 },
        ..RelaxationParams::default()
    };
    let dl_dx = Matrix::from_fn(3, 6, |_, _| rng.gen_range(-1.0..1.0));
    let ws = assert_paths_agree(&problem, &params, &x, &dl_dx, 1e-9, "near-active");
    assert_eq!(ws.structured_factors(), 0);
    assert_eq!(ws.dense_fallbacks(), 1);
    assert!(!ws.last_factor_structured());
}

/// A capacity slack just above the barrier cutoff (`≈ 1.2e-3` against
/// `eps = 1e-3`, inside the `λ/g²` regime) on one cluster. The random
/// instances above keep capacity slack far from this band, so this case
/// pins that the two paths still agree when the capacity barrier, not the
/// reliability barrier, is nearly active.
#[test]
fn near_active_capacity_barrier_agrees() {
    let mut rng = StdRng::seed_from_u64(77);
    let (m, n) = (3, 6);
    let times = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..3.0));
    let rel = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.8..0.999));
    let x = interior_x(&mut rng, m, n);
    let usage = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.05..0.5));
    let limits = (0..m)
        .map(|i| {
            let used: f64 = (0..n).map(|j| x[(i, j)] * usage[(i, j)]).sum();
            let target_slack = if i == 0 { 1.2e-3 } else { 0.5 };
            used / (1.0 - target_slack)
        })
        .collect();
    let problem =
        MatchingProblem::new(times, rel, 0.5).with_capacity(CapacityConstraint::new(usage, limits));
    let dl_dx = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
    let params = RelaxationParams::default();
    assert_paths_agree(&problem, &params, &x, &dl_dx, 1e-9, "near-active capacity");
}

/// A huge spread in cluster loads at `β = 8` underflows the smooth-max
/// weights of the losing clusters to exactly zero, so their Woodbury
/// coefficients vanish. Both paths must still agree, with finite
/// gradients.
#[test]
fn smoothmax_weight_underflow_agrees() {
    let (m, n) = (3, 4);
    let times = Matrix::from_fn(m, n, |i, _| if i == 0 { 1000.0 } else { 0.001 });
    let rel = Matrix::filled(m, n, 0.95);
    let problem = MatchingProblem::new(times, rel, 0.5);
    let mut rng = StdRng::seed_from_u64(5);
    let x = interior_x(&mut rng, m, n);
    let params = RelaxationParams {
        beta: 8.0,
        barrier: BarrierKind::log(),
        cost: CostKind::SmoothMax,
        ..RelaxationParams::default()
    };
    let dl_dx = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
    assert_paths_agree(&problem, &params, &x, &dl_dx, 1e-9, "smooth-max underflow");
    let grads = kkt::implicit_gradients(&problem, &params, &x, &dl_dx).unwrap();
    assert!(
        grads.dl_dt.as_slice().iter().all(|v| v.is_finite()),
        "structured dl_dt has non-finite entries"
    );
}

/// Without the entropy term the Hessian diagonal can vanish, so the
/// structured elimination (which divides by it) must not be attempted.
#[test]
fn zero_rho_takes_dense_fallback() {
    let mut rng = StdRng::seed_from_u64(22);
    let problem = random_problem(&mut rng, 3, 5, false);
    let x = interior_x(&mut rng, 3, 5);
    let dl_dx = Matrix::from_fn(3, 5, |_, _| rng.gen_range(-1.0..1.0));
    let params = RelaxationParams {
        rho: 0.0,
        ..RelaxationParams::default()
    };
    let mut ws = KktWorkspace::new();
    kkt::implicit_gradients_with(&problem, &params, &x, &dl_dx, &mut ws)
        .expect("dense fallback must still solve");
    assert_eq!(ws.structured_factors(), 0);
    assert_eq!(ws.dense_fallbacks(), 1);
}

/// The workspace is reusable across calls and shapes; counters keep
/// accumulating and results stay equal to fresh-workspace runs.
#[test]
fn workspace_reuse_across_shapes_matches_fresh() {
    let mut ws = KktWorkspace::new();
    for (seed, m, n) in [(31u64, 2usize, 4usize), (32, 5, 3), (33, 2, 4)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = random_problem(&mut rng, m, n, true);
        let x = interior_x(&mut rng, m, n);
        let dl_dx = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
        let params = RelaxationParams::default();
        let reused = kkt::implicit_gradients_with(&problem, &params, &x, &dl_dx, &mut ws).unwrap();
        let fresh = kkt::implicit_gradients(&problem, &params, &x, &dl_dx).unwrap();
        assert_eq!(reused.dl_dt.as_slice(), fresh.dl_dt.as_slice());
        assert_eq!(reused.dl_da.as_slice(), fresh.dl_da.as_slice());
    }
    assert_eq!(ws.structured_factors(), 3);
}
