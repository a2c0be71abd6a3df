//! Algorithm 1: optimal relaxed matching by projected gradient descent.
//!
//! The paper's Algorithm 1 alternates a gradient step on `F(X, T, A)` with
//! a per-task-column softmax projection back onto the simplex. We support
//! three readings of that projection (an ablation in `mfcp-bench`):
//!
//! * [`ProjectionKind::MirrorDescent`] (default) — exponentiated gradient:
//!   `x_ij ← x_ij · exp(-η ∂F/∂x_ij)` renormalized per column. This is the
//!   entropic-geometry projected step; it keeps iterates strictly interior
//!   (which the log barrier and the KKT differentiation both want) and is
//!   what "gradient step then softmax" converges to when `X` is stored as
//!   logits.
//! * [`ProjectionKind::SoftmaxPaper`] — the literal Algorithm 1 lines 3–4:
//!   `X ← X − η∇F`, then `softmax` of each column of the *values*.
//! * [`ProjectionKind::Euclidean`] — classical sort-based projection onto
//!   the simplex after the gradient step.

use crate::kkt::KktWorkspace;
use crate::objective::{self, ClusterStats, RelaxationParams, TransposedEval};
use crate::problem::MatchingProblem;
use crate::recovery::{FallbackStage, SolveError};
use mfcp_linalg::{vector, Matrix};

/// Reusable buffers for the PGD hot loop: the task-major working copy of
/// the iterate, the task-major gradient, the per-task projection scratch,
/// and the transposed problem data. One workspace per solve (or per
/// thread) makes every inner iteration allocation-free after warm-up.
#[derive(Debug, Clone)]
pub struct PgdWorkspace {
    xt: Matrix,
    grad_t: Matrix,
    col: Vec<f64>,
    proj: Vec<f64>,
    teval: TransposedEval,
}

impl Default for PgdWorkspace {
    fn default() -> Self {
        PgdWorkspace {
            xt: Matrix::zeros(0, 0),
            grad_t: Matrix::zeros(0, 0),
            col: Vec::new(),
            proj: Vec::new(),
            teval: TransposedEval::default(),
        }
    }
}

impl PgdWorkspace {
    /// A fresh workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-iterate health hook used by the guarded solver entry points in
/// [`crate::recovery`]: called after every accepted iterate with the
/// iteration count, the current matching, and the step magnitude
/// (`max |ΔX|` for PGD, `α·max|Δx|` for Newton); returning an error
/// aborts the solve.
pub(crate) type IterGuard<'a> = &'a mut dyn FnMut(usize, &Matrix, f64) -> Result<(), SolveError>;

/// Simplex-projection flavor used after each gradient step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectionKind {
    /// Exponentiated-gradient / mirror-descent step (default).
    MirrorDescent,
    /// Literal paper Algorithm 1: value-space softmax after the step.
    SoftmaxPaper,
    /// Euclidean projection onto the simplex after the step.
    Euclidean,
}

/// Options for [`solve_relaxed`].
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Maximum gradient-descent iterations (`Epochs` in Algorithm 1).
    pub max_iters: usize,
    /// Step size `η`.
    pub lr: f64,
    /// Convergence tolerance on `max |X_{k+1} - X_k|`.
    pub tol: f64,
    /// Projection flavor.
    pub projection: ProjectionKind,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iters: 400,
            lr: 0.8,
            tol: 1e-8,
            projection: ProjectionKind::MirrorDescent,
        }
    }
}

/// The result of a relaxed solve.
#[derive(Debug, Clone)]
pub struct RelaxedSolution {
    /// The relaxed matching: columns on the probability simplex.
    pub x: Matrix,
    /// Objective value `F(X, T, A)` at the solution.
    pub objective: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the step-change tolerance was reached before `max_iters`.
    pub converged: bool,
}

/// Uniform initial matching: every task spread equally over clusters.
pub fn uniform_init(m: usize, n: usize) -> Matrix {
    Matrix::filled(m, n, 1.0 / m.max(1) as f64)
}

/// Solves the relaxed matching problem (10) by Algorithm 1 from the
/// uniform initial point.
///
/// ```
/// use mfcp_linalg::Matrix;
/// use mfcp_optim::solver::{solve_relaxed, SolverOptions};
/// use mfcp_optim::{MatchingProblem, RelaxationParams};
///
/// let times = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
/// let rel = Matrix::filled(2, 2, 0.9);
/// let problem = MatchingProblem::new(times, rel, 0.8);
/// let sol = solve_relaxed(&problem, &RelaxationParams::default(), &SolverOptions::default());
/// // Each task leans toward its faster cluster.
/// assert!(sol.x[(0, 0)] > 0.5 && sol.x[(1, 1)] > 0.5);
/// ```
pub fn solve_relaxed(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    opts: &SolverOptions,
) -> RelaxedSolution {
    let x0 = uniform_init(problem.clusters(), problem.tasks());
    solve_relaxed_from(problem, params, opts, x0)
}

/// Solves the relaxed matching problem starting from `x0` (columns must
/// lie on the simplex). Warm starts from a cached optimum enter here;
/// the solve counter and iteration histogram cover both cold and warm
/// entries.
pub fn solve_relaxed_from(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    opts: &SolverOptions,
    x: Matrix,
) -> RelaxedSolution {
    let _span = mfcp_obs::span("solve_relaxed");
    mfcp_obs::counter("optim.solve.calls").inc();
    let mut ws = PgdWorkspace::default();
    let sol = match solve_relaxed_from_guarded(
        problem,
        params,
        opts,
        x,
        &mut |_, _, _| Ok(()),
        &mut ws,
    ) {
        Ok(sol) => sol,
        Err(_) => unreachable!("the no-op guard never fails"),
    };
    mfcp_obs::histogram("optim.solve.iters").record(sol.iterations as f64);
    sol
}

/// Guarded variant of [`solve_relaxed_from`]: `guard` is invoked after
/// every iterate update and may abort the solve with a typed error.
///
/// The hot loop runs on a task-major (`N×M`) working copy of the iterate:
/// with tasks as rows, the gradient step and the per-task simplex
/// projection both read and write contiguous memory instead of striding
/// by `N`, and every buffer lives in `ws` so no iteration allocates. The
/// update arithmetic runs in the exact floating-point order of the
/// original cluster-major loop, so trajectories are bitwise identical
/// (see `transposed_solver_is_bitwise_identical`).
pub(crate) fn solve_relaxed_from_guarded(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    opts: &SolverOptions,
    mut x: Matrix,
    guard: IterGuard<'_>,
    ws: &mut PgdWorkspace,
) -> Result<RelaxedSolution, SolveError> {
    let (m, n) = (problem.clusters(), problem.tasks());
    assert_eq!(x.shape(), (m, n), "x0 shape mismatch");
    if n == 0 || m == 0 {
        let objective = objective::value(problem, params, &x);
        return Ok(RelaxedSolution {
            x,
            objective,
            iterations: 0,
            converged: true,
        });
    }
    let PgdWorkspace {
        xt,
        grad_t,
        col,
        proj,
        teval,
    } = ws;
    teval.prepare(problem);
    if xt.shape() != (n, m) {
        *xt = Matrix::zeros(n, m);
    }
    for i in 0..m {
        for (j, &v) in x.row(i).iter().enumerate() {
            xt[(j, i)] = v;
        }
    }
    col.clear();
    col.resize(m, 0.0);
    let mut converged = false;
    let mut iterations = 0;
    for iter in 0..opts.max_iters {
        iterations = iter + 1;
        teval.grad_into(problem, params, xt, grad_t);
        let mut max_change: f64 = 0.0;
        match opts.projection {
            ProjectionKind::MirrorDescent => {
                for j in 0..n {
                    let xr = xt.row_mut(j);
                    let gr = grad_t.row(j);
                    // x_ij ∝ x_ij · exp(-η g_ij), computed stably in log space.
                    for (c, (xv, gv)) in col.iter_mut().zip(xr.iter().zip(gr)) {
                        *c = xv.max(1e-300).ln() - opts.lr * gv;
                    }
                    vector::softmax_inplace(col);
                    for (xv, &c) in xr.iter_mut().zip(col.iter()) {
                        max_change = max_change.max((c - *xv).abs());
                        *xv = c;
                    }
                }
            }
            ProjectionKind::SoftmaxPaper => {
                for j in 0..n {
                    let xr = xt.row_mut(j);
                    let gr = grad_t.row(j);
                    for (c, (xv, gv)) in col.iter_mut().zip(xr.iter().zip(gr)) {
                        *c = xv - opts.lr * gv;
                    }
                    vector::softmax_inplace(col);
                    for (xv, &c) in xr.iter_mut().zip(col.iter()) {
                        max_change = max_change.max((c - *xv).abs());
                        *xv = c;
                    }
                }
            }
            ProjectionKind::Euclidean => {
                for j in 0..n {
                    let xr = xt.row_mut(j);
                    let gr = grad_t.row(j);
                    for (c, (xv, gv)) in col.iter_mut().zip(xr.iter().zip(gr)) {
                        *c = xv - opts.lr * gv;
                    }
                    project_simplex_with(col, proj);
                    for (xv, &c) in xr.iter_mut().zip(col.iter()) {
                        max_change = max_change.max((c - *xv).abs());
                        *xv = c;
                    }
                }
            }
        }
        // Mirror the iterate back to cluster-major: the guard evaluates
        // the objective on it and the caller receives it.
        for i in 0..m {
            let xrow = x.row_mut(i);
            for (j, slot) in xrow.iter_mut().enumerate() {
                *slot = xt[(j, i)];
            }
        }
        // Strided flight-recorder markers: iteration 1 plus every 8th keep
        // the per-iteration cost a single branch while still showing PGD
        // progress (arg = iteration) on the trace timeline.
        if (iterations == 1 || iterations.is_multiple_of(8)) && mfcp_obs::trace::recording() {
            static PGD_ITER: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
            let id = *PGD_ITER.get_or_init(|| mfcp_obs::trace::intern("pgd.iter"));
            mfcp_obs::trace::instant_id(id, Some(iterations as u64));
        }
        guard(iterations, &x, max_change)?;
        if max_change < opts.tol {
            converged = true;
            break;
        }
    }
    let objective = objective::value(problem, params, &x);
    Ok(RelaxedSolution {
        x,
        objective,
        iterations,
        converged,
    })
}

/// Options for [`solve_relaxed_newton`].
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Maximum Newton iterations.
    pub max_iters: usize,
    /// Stop when the projected-gradient infinity norm falls below this.
    pub grad_tol: f64,
    /// Fraction-to-boundary rule: step length keeps
    /// `x + αΔx ≥ (1 − fraction) · x`.
    pub fraction_to_boundary: f64,
    /// Armijo sufficient-decrease coefficient.
    pub armijo_c: f64,
    /// Backtracking shrink factor.
    pub armijo_shrink: f64,
    /// Maximum backtracking steps per iteration.
    pub max_backtracks: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iters: 60,
            grad_tol: 1e-7,
            fraction_to_boundary: 0.995,
            armijo_c: 1e-4,
            armijo_shrink: 0.5,
            max_backtracks: 40,
        }
    }
}

/// Second-order alternative to Algorithm 1: damped Newton steps on the
/// equality-constrained barrier problem (10).
///
/// Each iteration solves the primal KKT system
/// `[[H, Dᵀ], [D, 0]] [Δx; ν] = [−∇F; 0]` (the same matrix the MFCP-AD
/// backward pass factors), applies the interior-point
/// fraction-to-boundary rule so iterates stay strictly positive, and
/// backtracks until Armijo sufficient decrease holds. Converges in a
/// handful of iterations where mirror descent needs hundreds — see the
/// `newton_vs_mirror` bench — at the price of a dense `(MN+N)` LU per
/// step, and is restricted to the convex (sequential) setting like every
/// second-order method in this crate.
pub fn solve_relaxed_newton(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    opts: &NewtonOptions,
) -> RelaxedSolution {
    let mut ws = KktWorkspace::new();
    match solve_relaxed_newton_impl(problem, params, opts, false, &mut |_, _, _| Ok(()), &mut ws) {
        Ok(sol) => sol,
        Err(_) => unreachable!("non-strict Newton with a no-op guard never fails"),
    }
}

/// Guarded variant of [`solve_relaxed_newton`]. With `strict` set, a
/// singular KKT system is reported as [`SolveError::SingularKkt`] instead
/// of silently returning the current iterate; `guard` runs after every
/// accepted Newton step. The caller-owned `kkt_ws` carries the structured
/// KKT factorization buffers across iterations (and across solves).
pub(crate) fn solve_relaxed_newton_guarded(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    opts: &NewtonOptions,
    guard: IterGuard<'_>,
    kkt_ws: &mut KktWorkspace,
) -> Result<RelaxedSolution, SolveError> {
    solve_relaxed_newton_impl(problem, params, opts, true, guard, kkt_ws)
}

fn solve_relaxed_newton_impl(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    opts: &NewtonOptions,
    strict: bool,
    guard: IterGuard<'_>,
    kkt_ws: &mut KktWorkspace,
) -> Result<RelaxedSolution, SolveError> {
    assert!(
        problem.speedup.iter().all(|c| c.is_trivial()),
        "Newton solver requires the convex (sequential) setting"
    );
    let (m, n) = (problem.clusters(), problem.tasks());
    let mut x = uniform_init(m, n);
    if m == 0 || n == 0 {
        let objective = objective::value(problem, params, &x);
        return Ok(RelaxedSolution {
            x,
            objective,
            iterations: 0,
            converged: true,
        });
    }
    let mn = m * n;
    let mut converged = false;
    let mut iterations = 0;
    let mut f_prev = f64::INFINITY;
    let mut stagnant = 0usize;
    let mut stats = ClusterStats::default();
    let mut grad = Matrix::zeros(m, n);
    let mut rhs = vec![0.0; mn + n];
    for iter in 0..opts.max_iters {
        iterations = iter + 1;
        objective::grad_x_into(problem, params, &x, &mut stats, &mut grad);
        // Stationarity on each simplex column: the full gradient (which
        // includes the entropy term) must be constant across the *active*
        // coordinates. Collapsed coordinates (x at the numerical floor)
        // are excluded — their true entropy gradient is −∞-like and never
        // equalizes in floating point; their complementarity contribution
        // `x·(g − g_min)` is separately required to be negligible.
        let mut residual: f64 = 0.0;
        for j in 0..n {
            let gmin = (0..m).map(|i| grad[(i, j)]).fold(f64::INFINITY, f64::min);
            let active: Vec<usize> = (0..m).filter(|&i| x[(i, j)] > 1e-6).collect();
            let mean: f64 =
                active.iter().map(|&i| grad[(i, j)]).sum::<f64>() / active.len().max(1) as f64;
            for &i in &active {
                residual = residual.max((grad[(i, j)] - mean).abs());
            }
            for i in 0..m {
                if x[(i, j)] <= 1e-6 {
                    residual = residual.max(x[(i, j)] * (grad[(i, j)] - gmin));
                }
            }
        }
        if residual < opts.grad_tol {
            converged = true;
            break;
        }
        // Newton step from the shared KKT factorization (structured
        // elimination when applicable, dense LU fallback otherwise).
        rhs.iter_mut().for_each(|v| *v = 0.0);
        for (slot, g) in rhs[..mn].iter_mut().zip(grad.as_slice()) {
            *slot = -g;
        }
        let factored = kkt_ws
            .factor(problem, params, &x)
            .and_then(|()| kkt_ws.solve_in_place(&mut rhs));
        match factored {
            Ok(()) => {}
            Err(_) if strict => {
                return Err(SolveError::SingularKkt {
                    stage: FallbackStage::Newton,
                    iteration: iterations,
                })
            }
            Err(_) => break, // singular KKT system: return the current iterate
        }
        let mut step = Matrix::from_fn(m, n, |i, j| rhs[i * n + j]);

        // Coordinates already at the numerical floor would throttle the
        // fraction-to-boundary step length to nothing; freeze them (their
        // residual mass is ≤ MN·floor and is re-normalized away below).
        const X_NUMERICAL_FLOOR: f64 = 1e-9;
        for (xi, si) in x.as_slice().iter().zip(step.as_mut_slice()) {
            if *xi <= 10.0 * X_NUMERICAL_FLOOR && *si < 0.0 {
                *si = 0.0;
            }
        }

        // Fraction-to-boundary: keep every coordinate strictly positive.
        let mut alpha: f64 = 1.0;
        for (xi, si) in x.as_slice().iter().zip(step.as_slice()) {
            if *si < 0.0 {
                alpha = alpha.min(-opts.fraction_to_boundary * xi / si);
            }
        }
        alpha = alpha.min(1.0);

        // Armijo backtracking on F.
        let f0 = objective::value(problem, params, &x);
        let slope: f64 = grad
            .as_slice()
            .iter()
            .zip(step.as_slice())
            .map(|(g, s)| g * s)
            .sum();
        let mut accepted = false;
        for _ in 0..opts.max_backtracks {
            let mut trial = x.axpy(alpha, &step).expect("shape");
            // Frozen coordinates can leave columns off the simplex by a
            // vanishing amount; re-normalize.
            for j in 0..n {
                let sum: f64 = (0..m).map(|i| trial[(i, j)]).sum();
                for i in 0..m {
                    trial[(i, j)] = (trial[(i, j)] / sum).max(X_NUMERICAL_FLOOR);
                }
            }
            let f_trial = objective::value(problem, params, &trial);
            if f_trial <= f0 + opts.armijo_c * alpha * slope {
                x = trial;
                accepted = true;
                break;
            }
            alpha *= opts.armijo_shrink;
        }
        if !accepted {
            // No acceptable step: the iterate is stationary to numerical
            // resolution.
            converged = true;
            break;
        }
        guard(iterations, &x, alpha * step.max_abs())?;
        // Objective stagnation: the clamped/renormalized iterate has hit
        // the resolution limit of the floored entropy term — the point is
        // optimal to within floating-point reproducibility.
        let f_new = objective::value(problem, params, &x);
        if (f_prev - f_new).abs() <= 1e-10 * (1.0 + f_new.abs()) {
            stagnant += 1;
            if stagnant >= 2 {
                converged = true;
                break;
            }
        } else {
            stagnant = 0;
        }
        f_prev = f_new;
    }
    let objective = objective::value(problem, params, &x);
    Ok(RelaxedSolution {
        x,
        objective,
        iterations,
        converged,
    })
}

/// Euclidean projection of `v` onto the probability simplex
/// (Held–Wolfe–Crowder / sort-based algorithm).
///
/// Non-finite input is handled deterministically instead of poisoning the
/// sort-based path (where a NaN pivot silently corrupts `θ`):
///
/// * `NaN` and `-∞` entries carry no mass and project to `0`.
/// * If any entry is `+∞`, the unit mass is split uniformly over the
///   `+∞` entries and every other entry is `0`.
/// * If *no* entry is finite (and none is `+∞`), the result is the
///   uniform vector `1/n`.
pub fn project_simplex(v: &mut [f64]) {
    let mut scratch = Vec::new();
    project_simplex_with(v, &mut scratch);
}

/// [`project_simplex`] with a caller-owned scratch buffer for the sort
/// copy, so hot loops (the Euclidean PGD projection runs once per task
/// per iteration) stay allocation-free after warm-up. Identical
/// arithmetic to the allocating wrapper.
pub fn project_simplex_with(v: &mut [f64], scratch: &mut Vec<f64>) {
    let n = v.len();
    if n == 0 {
        return;
    }
    if v.iter().any(|x| !x.is_finite()) {
        let pos_inf = v.iter().filter(|x| **x == f64::INFINITY).count();
        if pos_inf > 0 {
            let share = 1.0 / pos_inf as f64;
            for vi in v.iter_mut() {
                *vi = if *vi == f64::INFINITY { share } else { 0.0 };
            }
            return;
        }
        let finite: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.is_empty() {
            v.fill(1.0 / n as f64);
            return;
        }
        let mut projected = finite;
        project_simplex(&mut projected);
        let mut next = projected.into_iter();
        for vi in v.iter_mut() {
            *vi = if vi.is_finite() {
                next.next().expect("one projected value per finite entry")
            } else {
                0.0
            };
        }
        return;
    }
    scratch.clear();
    scratch.extend_from_slice(v);
    let u = &mut *scratch;
    // Unstable sort: never allocates, and under `total_cmp` equal keys
    // are bitwise-identical floats, so the sorted values — and therefore
    // θ — match the stable sort exactly.
    u.sort_unstable_by(|a, b| b.total_cmp(a));
    let mut css = 0.0;
    let mut theta = 0.0;
    for (k, &uk) in u.iter().enumerate() {
        css += uk;
        let t = (css - 1.0) / (k + 1) as f64;
        if uk - t > 0.0 {
            theta = t;
        }
    }
    for vi in v.iter_mut() {
        *vi = (*vi - theta).max(0.0);
    }
}

/// Checks that every column of `x` lies on the probability simplex within
/// `tol`.
pub fn is_column_stochastic(x: &Matrix, tol: f64) -> bool {
    for j in 0..x.cols() {
        let mut sum = 0.0;
        for i in 0..x.rows() {
            let v = x[(i, j)];
            if !(-tol..=1.0 + tol).contains(&v) {
                return false;
            }
            sum += v;
        }
        if (sum - 1.0).abs() > tol {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BarrierKind, CostKind};
    use crate::speedup::SpeedupCurve;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(seed: u64, m: usize, n: usize) -> MatchingProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..3.0));
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.7..1.0));
        MatchingProblem::new(t, a, 0.75)
    }

    #[test]
    fn project_simplex_known_cases() {
        let mut v = vec![0.5, 0.5];
        project_simplex(&mut v);
        assert!((v[0] - 0.5).abs() < 1e-12);

        let mut v = vec![2.0, 0.0];
        project_simplex(&mut v);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 0.0).abs() < 1e-12);

        let mut v = vec![0.3, 0.3, 0.3];
        project_simplex(&mut v);
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((v[0] - v[1]).abs() < 1e-12);
    }

    #[test]
    fn project_simplex_idempotent() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let mut v: Vec<f64> = (0..5).map(|_| rng.gen_range(-2.0..2.0)).collect();
            project_simplex(&mut v);
            let first = v.clone();
            project_simplex(&mut v);
            for (a, b) in v.iter().zip(&first) {
                assert!((a - b).abs() < 1e-12);
            }
            assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(v.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn project_simplex_nan_entries_get_no_mass() {
        let mut v = vec![f64::NAN, 2.0, f64::NAN, 0.0];
        project_simplex(&mut v);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[2], 0.0);
        assert!((v[1] - 1.0).abs() < 1e-12, "{v:?}");
        assert_eq!(v[3], 0.0);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn project_simplex_neg_infinity_gets_no_mass() {
        let mut v = vec![f64::NEG_INFINITY, 0.25, 0.25];
        project_simplex(&mut v);
        assert_eq!(v[0], 0.0);
        assert!((v[1] - 0.5).abs() < 1e-12, "{v:?}");
        assert!((v[2] - 0.5).abs() < 1e-12, "{v:?}");
    }

    #[test]
    fn project_simplex_pos_infinity_dominates() {
        let mut v = vec![1.0, f64::INFINITY, f64::INFINITY, f64::NAN];
        project_simplex(&mut v);
        assert_eq!(v, vec![0.0, 0.5, 0.5, 0.0]);
    }

    #[test]
    fn project_simplex_all_invalid_falls_back_to_uniform() {
        let mut v = vec![f64::NAN, f64::NEG_INFINITY, f64::NAN, f64::NAN];
        project_simplex(&mut v);
        assert_eq!(v, vec![0.25; 4]);
    }

    #[test]
    fn project_simplex_nonfinite_result_is_idempotent() {
        for case in [
            vec![f64::NAN, 3.0, -1.0],
            vec![f64::INFINITY, 0.0, f64::NAN],
            vec![f64::NAN, f64::NAN],
        ] {
            let mut v = case;
            project_simplex(&mut v);
            let first = v.clone();
            project_simplex(&mut v);
            assert_eq!(v, first);
            assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(v.iter().all(|&x| x.is_finite() && x >= 0.0));
        }
    }

    #[test]
    fn solver_stays_on_simplex_all_projections() {
        let problem = random_problem(1, 3, 6);
        let params = RelaxationParams::default();
        for proj in [
            ProjectionKind::MirrorDescent,
            ProjectionKind::SoftmaxPaper,
            ProjectionKind::Euclidean,
        ] {
            let opts = SolverOptions {
                projection: proj,
                max_iters: 150,
                ..Default::default()
            };
            let sol = solve_relaxed(&problem, &params, &opts);
            assert!(
                is_column_stochastic(&sol.x, 1e-6),
                "projection {proj:?} left the simplex"
            );
            assert!(sol.objective.is_finite());
        }
    }

    #[test]
    fn solver_decreases_objective() {
        let problem = random_problem(2, 3, 8);
        let params = RelaxationParams::default();
        let opts = SolverOptions::default();
        let x0 = uniform_init(3, 8);
        let initial = objective::value(&problem, &params, &x0);
        let sol = solve_relaxed(&problem, &params, &opts);
        assert!(
            sol.objective < initial,
            "objective should improve: {initial} -> {}",
            sol.objective
        );
    }

    #[test]
    fn solver_matches_obvious_optimum() {
        // One task, two clusters; cluster 1 is strictly faster and equally
        // reliable — all mass should end up there.
        let t = Matrix::from_rows(&[&[5.0], &[1.0]]);
        let a = Matrix::from_rows(&[&[0.9], &[0.9]]);
        let problem = MatchingProblem::new(t, a, 0.5);
        let params = RelaxationParams {
            beta: 10.0,
            rho: 0.005,
            ..Default::default()
        };
        let sol = solve_relaxed(&problem, &params, &SolverOptions::default());
        // The *relaxed* optimum splits the task to balance 5·x₀ ≈ 1·x₁
        // (fractional assignment lowers the relaxed makespan); the fast
        // cluster must still carry the dominant share so rounding picks it.
        assert!(
            sol.x[(1, 0)] > sol.x[(0, 0)],
            "fast cluster should dominate, got {:?}",
            sol.x
        );
        // Relaxed cluster times must be closer than the raw 5:1 ratio —
        // the split trades off smooth-max balance against the entropy term.
        let (t0, t1) = (5.0 * sol.x[(0, 0)], sol.x[(1, 0)]);
        assert!(
            (t0 - t1).abs() < 0.5,
            "relaxed optimum should roughly balance cluster times, got {t0} vs {t1}"
        );
        let rounded = crate::rounding::round_argmax(&sol.x);
        assert_eq!(rounded.cluster_of, vec![1]);
    }

    #[test]
    fn solver_balances_identical_clusters() {
        // Identical clusters: by symmetry the smoothed makespan+entropy
        // optimum splits tasks evenly.
        let t = Matrix::filled(2, 4, 1.0);
        let a = Matrix::filled(2, 4, 0.9);
        let problem = MatchingProblem::new(t, a, 0.5);
        let params = RelaxationParams::default();
        let sol = solve_relaxed(&problem, &params, &SolverOptions::default());
        for j in 0..4 {
            assert!((sol.x[(0, j)] - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn barrier_steers_toward_reliable_cluster() {
        // Cluster 0 is faster but unreliable; with a binding reliability
        // threshold the solution must shift mass to cluster 1.
        let t = Matrix::from_rows(&[&[1.0, 1.0], &[1.6, 1.6]]);
        let a = Matrix::from_rows(&[&[0.60, 0.60], &[0.99, 0.99]]);
        let loose = MatchingProblem::new(t.clone(), a.clone(), 0.10);
        let tight = MatchingProblem::new(t, a, 0.90);
        let params = RelaxationParams {
            lambda: 0.08,
            ..Default::default()
        };
        let opts = SolverOptions::default();
        let sol_loose = solve_relaxed(&loose, &params, &opts);
        let sol_tight = solve_relaxed(&tight, &params, &opts);
        let mass1_loose: f64 = (0..2).map(|j| sol_loose.x[(1, j)]).sum();
        let mass1_tight: f64 = (0..2).map(|j| sol_tight.x[(1, j)]).sum();
        assert!(
            mass1_tight > mass1_loose + 0.2,
            "tight constraint should shift mass to the reliable cluster: {mass1_loose} vs {mass1_tight}"
        );
        let slack = objective::reliability_slack(&tight, &sol_tight.x);
        assert!(
            slack > -0.02,
            "solution should be near-feasible, slack={slack}"
        );
    }

    #[test]
    fn theorem4_linear_convergence_in_convex_case() {
        // With SpeedupCurve::None the objective is convex; mirror descent
        // distance-to-solution should shrink geometrically. We verify the
        // objective gap decreases monotonically and collapses.
        let problem = random_problem(7, 3, 5);
        let params = RelaxationParams::default();
        let mut gaps = Vec::new();
        // A conservative step size keeps the trajectory monotone; at the
        // default lr = 0.8 this instance overshoots early and transiently
        // dips below its own limit point, which breaks the gap comparison.
        let final_sol = solve_relaxed(
            &problem,
            &params,
            &SolverOptions {
                max_iters: 2000,
                lr: 0.4,
                tol: 0.0,
                ..Default::default()
            },
        );
        for iters in [10, 40, 160, 640] {
            let sol = solve_relaxed(
                &problem,
                &params,
                &SolverOptions {
                    max_iters: iters,
                    lr: 0.4,
                    tol: 0.0,
                    ..Default::default()
                },
            );
            gaps.push(sol.objective - final_sol.objective);
        }
        for w in gaps.windows(2) {
            assert!(w[1] <= w[0] + 1e-10, "gap must shrink: {gaps:?}");
        }
        assert!(gaps.last().unwrap().abs() < 1e-6, "gaps: {gaps:?}");
    }

    #[test]
    fn nonconvex_parallel_case_still_solves() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = Matrix::from_fn(3, 8, |_, _| rng.gen_range(0.5..3.0));
        let a = Matrix::from_fn(3, 8, |_, _| rng.gen_range(0.7..1.0));
        let problem =
            MatchingProblem::with_speedup(t, a, 0.75, vec![SpeedupCurve::paper_parallel(); 3]);
        let params = RelaxationParams::default();
        let x0 = uniform_init(3, 8);
        let initial = objective::value(&problem, &params, &x0);
        let sol = solve_relaxed(&problem, &params, &SolverOptions::default());
        assert!(sol.objective < initial);
        assert!(is_column_stochastic(&sol.x, 1e-6));
    }

    #[test]
    fn linear_cost_piles_everything_on_cheapest() {
        // With the linear-sum ablation and no barrier, each task just goes
        // to its fastest cluster — exactly the imbalance the paper warns
        // about.
        let t = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]]);
        let a = Matrix::filled(2, 3, 0.9);
        let problem = MatchingProblem::new(t, a, 0.1);
        let params = RelaxationParams {
            cost: CostKind::LinearSum,
            barrier: BarrierKind::None,
            rho: 0.001,
            ..Default::default()
        };
        let sol = solve_relaxed(&problem, &params, &SolverOptions::default());
        for j in 0..3 {
            assert!(
                sol.x[(0, j)] > 0.9,
                "task {j} should sit on the fast cluster"
            );
        }
    }

    #[test]
    fn empty_problem() {
        let problem = MatchingProblem::new(Matrix::zeros(2, 0), Matrix::zeros(2, 0), 0.5);
        let sol = solve_relaxed(
            &problem,
            &RelaxationParams::default(),
            &SolverOptions::default(),
        );
        assert!(sol.converged);
        assert_eq!(sol.x.shape(), (2, 0));
    }

    #[test]
    fn newton_matches_mirror_descent_optimum() {
        for seed in 0..6 {
            let problem = random_problem(seed, 3, 5);
            let params = RelaxationParams::default();
            let mirror = solve_relaxed(
                &problem,
                &params,
                &SolverOptions {
                    max_iters: 30_000,
                    tol: 1e-14,
                    ..Default::default()
                },
            );
            let newton = solve_relaxed_newton(&problem, &params, &NewtonOptions::default());
            assert!(newton.converged, "seed {seed}: Newton did not converge");
            // Newton must reach at least mirror descent's objective. (It
            // often does strictly better: the multiplicative mirror update
            // stalls once losing coordinates collapse, so its step-change
            // criterion can fire slightly short of the optimum.)
            assert!(
                newton.objective <= mirror.objective + 1e-5,
                "seed {seed}: Newton {} vs mirror {}",
                newton.objective,
                mirror.objective
            );
            assert!(
                newton.objective >= mirror.objective - 0.05,
                "seed {seed}: implausibly large gap — Newton {} vs mirror {}",
                newton.objective,
                mirror.objective
            );
            assert!(is_column_stochastic(&newton.x, 1e-8), "seed {seed}");
            assert!(newton.x.min().unwrap() > 0.0, "iterates must stay interior");
        }
    }

    #[test]
    fn newton_converges_in_far_fewer_iterations() {
        let problem = random_problem(11, 3, 8);
        let params = RelaxationParams::default();
        let newton = solve_relaxed_newton(&problem, &params, &NewtonOptions::default());
        assert!(newton.converged);
        assert!(
            newton.iterations <= 40,
            "second-order convergence expected, took {}",
            newton.iterations
        );
        // Mirror descent at the same accuracy takes hundreds of steps.
        let mirror = solve_relaxed(
            &problem,
            &params,
            &SolverOptions {
                max_iters: newton.iterations,
                tol: 0.0,
                ..Default::default()
            },
        );
        assert!(mirror.objective > newton.objective - 1e-9);
    }

    #[test]
    #[should_panic(expected = "convex")]
    fn newton_rejects_parallel_setting() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Matrix::from_fn(2, 3, |_, _| rng.gen_range(0.5..2.0));
        let a = Matrix::from_fn(2, 3, |_, _| rng.gen_range(0.7..1.0));
        let problem =
            MatchingProblem::with_speedup(t, a, 0.7, vec![SpeedupCurve::paper_parallel(); 2]);
        solve_relaxed_newton(
            &problem,
            &RelaxationParams::default(),
            &NewtonOptions::default(),
        );
    }

    #[test]
    fn newton_empty_problem() {
        let problem = MatchingProblem::new(Matrix::zeros(2, 0), Matrix::zeros(2, 0), 0.5);
        let sol = solve_relaxed_newton(
            &problem,
            &RelaxationParams::default(),
            &NewtonOptions::default(),
        );
        assert!(sol.converged);
    }

    /// The pre-transposition cluster-major PGD loop, kept verbatim as the
    /// bitwise oracle for the transposed hot loop in
    /// [`solve_relaxed_from_guarded`].
    fn solve_relaxed_reference(
        problem: &MatchingProblem,
        params: &RelaxationParams,
        opts: &SolverOptions,
        mut x: Matrix,
    ) -> RelaxedSolution {
        let (m, n) = (problem.clusters(), problem.tasks());
        assert_eq!(x.shape(), (m, n), "x0 shape mismatch");
        if n == 0 || m == 0 {
            let objective = objective::value(problem, params, &x);
            return RelaxedSolution {
                x,
                objective,
                iterations: 0,
                converged: true,
            };
        }
        let mut converged = false;
        let mut iterations = 0;
        let mut col = vec![0.0; m];
        for iter in 0..opts.max_iters {
            iterations = iter + 1;
            let grad = objective::grad_x(problem, params, &x);
            let mut max_change: f64 = 0.0;
            match opts.projection {
                ProjectionKind::MirrorDescent => {
                    for j in 0..n {
                        for (i, c) in col.iter_mut().enumerate() {
                            *c = x[(i, j)].max(1e-300).ln() - opts.lr * grad[(i, j)];
                        }
                        vector::softmax_inplace(&mut col);
                        for (i, &c) in col.iter().enumerate() {
                            max_change = max_change.max((c - x[(i, j)]).abs());
                            x[(i, j)] = c;
                        }
                    }
                }
                ProjectionKind::SoftmaxPaper => {
                    for j in 0..n {
                        for (i, c) in col.iter_mut().enumerate() {
                            *c = x[(i, j)] - opts.lr * grad[(i, j)];
                        }
                        vector::softmax_inplace(&mut col);
                        for (i, &c) in col.iter().enumerate() {
                            max_change = max_change.max((c - x[(i, j)]).abs());
                            x[(i, j)] = c;
                        }
                    }
                }
                ProjectionKind::Euclidean => {
                    for j in 0..n {
                        for (i, c) in col.iter_mut().enumerate() {
                            *c = x[(i, j)] - opts.lr * grad[(i, j)];
                        }
                        project_simplex(&mut col);
                        for (i, &c) in col.iter().enumerate() {
                            max_change = max_change.max((c - x[(i, j)]).abs());
                            x[(i, j)] = c;
                        }
                    }
                }
            }
            if max_change < opts.tol {
                converged = true;
                break;
            }
        }
        let objective = objective::value(problem, params, &x);
        RelaxedSolution {
            x,
            objective,
            iterations,
            converged,
        }
    }

    #[test]
    fn transposed_solver_is_bitwise_identical() {
        use crate::problem::CapacityConstraint;
        for (seed, parallel, with_cap) in
            [(21u64, false, false), (22, true, false), (23, false, true)]
        {
            let mut problem = random_problem(seed, 3, 6);
            if parallel {
                problem.speedup = vec![SpeedupCurve::paper_parallel(); 3];
            }
            if with_cap {
                let mut rng = StdRng::seed_from_u64(seed + 50);
                problem.capacity = Some(CapacityConstraint {
                    usage: Matrix::from_fn(3, 6, |_, _| rng.gen_range(0.1..1.0)),
                    limits: vec![4.0, 5.0, 6.0],
                });
            }
            let params = RelaxationParams::default();
            for proj in [
                ProjectionKind::MirrorDescent,
                ProjectionKind::SoftmaxPaper,
                ProjectionKind::Euclidean,
            ] {
                let opts = SolverOptions {
                    projection: proj,
                    max_iters: 120,
                    ..Default::default()
                };
                let x0 = uniform_init(3, 6);
                let reference = solve_relaxed_reference(&problem, &params, &opts, x0.clone());
                let sol = solve_relaxed_from(&problem, &params, &opts, x0);
                assert_eq!(sol.iterations, reference.iterations, "{proj:?} seed {seed}");
                assert_eq!(sol.converged, reference.converged, "{proj:?} seed {seed}");
                for (idx, (a, b)) in sol
                    .x
                    .as_slice()
                    .iter()
                    .zip(reference.x.as_slice())
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{proj:?} seed {seed} entry {idx}: {a} vs {b}"
                    );
                }
                assert_eq!(sol.objective.to_bits(), reference.objective.to_bits());
            }
        }
    }
}
