//! Zeroth-order forward-gradient estimation (paper Algorithm 2, lines
//! 5–11) — the MFCP-FG path for non-convex (parallel-execution) matching.
//!
//! Given the solved base matching `X*(θ)` for a parameter vector `θ`
//! (one cluster's predicted times or reliabilities), the estimator samples
//! Gaussian directions `v^s`, re-solves the matching at `θ + Δ·v^s`, and
//! averages the directional derivatives:
//!
//! ```text
//! ∂L/∂θ ≈ (1/S) Σ_s ⟨∂L/∂X, (X*(θ + Δ v^s) − X*(θ))/Δ⟩ · v^s
//! ```
//!
//! The `S` re-solves are independent and run on all cores via
//! `mfcp-parallel`. Theorem 3 bounds the mean-squared error by
//! `β²Δ²d/4 + σ²d/(SΔ²)`; the benches sweep `Δ` and `S` against the
//! analytic KKT gradients to reproduce that trade-off.
//!
//! The `solve` closure owns whatever linear algebra each re-solve needs.

use crate::recovery::SolveError;
use mfcp_linalg::Matrix;
use mfcp_parallel::{par_map, ParallelConfig};
use rand::Rng;

/// Options for [`estimate_gradient`].
#[derive(Debug, Clone)]
pub struct ZerothOrderOptions {
    /// Perturbation size `Δ`.
    pub delta: f64,
    /// Number of sampled directions `S`.
    pub samples: usize,
    /// Thread configuration for the parallel re-solves.
    pub parallel: ParallelConfig,
}

impl Default for ZerothOrderOptions {
    fn default() -> Self {
        ZerothOrderOptions {
            delta: 0.05,
            samples: 8,
            parallel: ParallelConfig::default(),
        }
    }
}

/// Fallback perturbation size used when [`ZerothOrderOptions::optimal_delta`]
/// cannot be computed from degenerate inputs; equals the default `delta`.
pub const FALLBACK_DELTA: f64 = 0.05;

impl ZerothOrderOptions {
    /// The bias/variance-optimal perturbation size of Theorem 3,
    /// `Δ* = (2σ²_F / (β² S))^{1/4}`, for smoothness `beta` and function
    /// noise scale `sigma_f`.
    ///
    /// Degenerate inputs (`beta == 0`, `sigma_f == 0`, negatives, or
    /// non-finite values) would make the formula return `0`, `inf`, or
    /// `NaN` — all of which poison the estimator downstream. This variant
    /// clamps those cases to [`FALLBACK_DELTA`]; use
    /// [`ZerothOrderOptions::try_optimal_delta`] to detect them instead.
    pub fn optimal_delta(beta: f64, sigma_f: f64, samples: usize) -> f64 {
        Self::try_optimal_delta(beta, sigma_f, samples).unwrap_or(FALLBACK_DELTA)
    }

    /// Fallible form of [`ZerothOrderOptions::optimal_delta`].
    ///
    /// # Errors
    /// [`SolveError::InvalidInput`] when `beta` or `sigma_f` is zero,
    /// negative, or non-finite — the Theorem 3 formula divides by
    /// `β²` and vanishes with `σ_F`, so no meaningful `Δ*` exists.
    pub fn try_optimal_delta(beta: f64, sigma_f: f64, samples: usize) -> Result<f64, SolveError> {
        if !beta.is_finite() || beta <= 0.0 {
            return Err(SolveError::InvalidInput(format!(
                "optimal_delta: smoothness beta = {beta} (must be finite and positive)"
            )));
        }
        if !sigma_f.is_finite() || sigma_f <= 0.0 {
            return Err(SolveError::InvalidInput(format!(
                "optimal_delta: noise scale sigma_f = {sigma_f} (must be finite and positive)"
            )));
        }
        let delta = (2.0 * sigma_f * sigma_f / (beta * beta * samples.max(1) as f64)).powf(0.25);
        if delta.is_finite() && delta > 0.0 {
            Ok(delta)
        } else {
            // Extreme but individually-finite inputs can still overflow or
            // underflow the quotient (e.g. sigma_f near f64::MAX).
            Err(SolveError::InvalidInput(format!(
                "optimal_delta: beta = {beta}, sigma_f = {sigma_f} produce a non-finite delta"
            )))
        }
    }
}

/// Box–Muller sampler that keeps the paired variate.
///
/// One Box–Muller transform yields two independent normals (the cosine and
/// sine projections of the same radius); discarding the sine half doubles
/// the RNG draws and the `ln`/`sqrt` work. The spare is cached per sampler
/// — estimator-local state, so seeded runs stay reproducible regardless of
/// what other threads are sampling.
#[derive(Debug, Clone, Default)]
pub struct NormalSampler {
    spare: Option<f64>,
}

impl NormalSampler {
    /// A sampler with no cached variate.
    pub fn new() -> Self {
        NormalSampler { spare: None }
    }

    /// Draws a standard normal.
    pub fn sample(&mut self, rng: &mut impl Rng) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let angle = 2.0 * std::f64::consts::PI * u2;
            let z0 = r * angle.cos();
            let z1 = r * angle.sin();
            if z0.is_finite() && z1.is_finite() {
                self.spare = Some(z1);
                return z0;
            }
        }
    }
}

/// Draws a standard normal via Box–Muller (the `rand` crate alone, without
/// `rand_distr`, has no Gaussian sampler).
///
/// Single-shot form that discards the paired variate; callers drawing many
/// normals should hold a [`NormalSampler`] to use both halves of each
/// transform.
pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    NormalSampler::new().sample(rng)
}

/// Estimates `∂L/∂θ` by forward-mode zeroth-order perturbation.
///
/// * `theta` — the parameter vector being differentiated (length `d`).
/// * `base_x` — the already-solved matching `X*(θ)`.
/// * `dl_dx` — upstream gradient `∂L/∂X*`, same shape as `base_x`.
/// * `solve` — re-solves the matching for a perturbed parameter vector;
///   called `S` times, possibly concurrently (must be `Sync`).
pub fn estimate_gradient(
    theta: &[f64],
    base_x: &Matrix,
    dl_dx: &Matrix,
    solve: impl Fn(&[f64]) -> Matrix + Sync,
    opts: &ZerothOrderOptions,
    rng: &mut impl Rng,
) -> Vec<f64> {
    assert_eq!(base_x.shape(), dl_dx.shape(), "dl_dx shape mismatch");
    assert!(opts.delta > 0.0, "delta must be positive");
    assert!(opts.samples > 0, "need at least one sample");
    let d = theta.len();
    if d == 0 {
        return Vec::new();
    }

    // Directions are drawn sequentially (determinism under a seeded RNG),
    // then the S re-solves fan out across threads.
    let mut sampler = NormalSampler::new();
    let directions: Vec<Vec<f64>> = (0..opts.samples)
        .map(|_| (0..d).map(|_| sampler.sample(rng)).collect())
        .collect();

    let contributions: Vec<Vec<f64>> = par_map(&opts.parallel, &directions, |v| {
        let perturbed: Vec<f64> = theta
            .iter()
            .zip(v)
            .map(|(&th, &vi)| th + opts.delta * vi)
            .collect();
        let x_s = solve(&perturbed);
        debug_assert_eq!(x_s.shape(), base_x.shape());
        // ⟨dl_dx, (X^s − X*)⟩ / Δ
        let mut directional = 0.0;
        for (idx, (&xs, &xb)) in x_s.as_slice().iter().zip(base_x.as_slice()).enumerate() {
            directional += dl_dx.as_slice()[idx] * (xs - xb);
        }
        directional /= opts.delta;
        v.iter().map(|&vi| directional * vi).collect()
    });

    let mut grad = vec![0.0; d];
    for contribution in &contributions {
        for (g, &c) in grad.iter_mut().zip(contribution) {
            *g += c;
        }
    }
    let inv = 1.0 / opts.samples as f64;
    for g in &mut grad {
        *g *= inv;
    }
    grad
}

/// A zeroth-order gradient with per-sample health screening applied.
#[derive(Debug, Clone)]
pub struct CheckedGradient {
    /// Gradient averaged over the healthy samples only.
    pub grad: Vec<f64>,
    /// Perturbation samples discarded for non-finite directional
    /// derivatives (a crashed or diverged perturbed re-solve).
    pub skipped: usize,
}

/// Fault-tolerant variant of [`estimate_gradient`]: validates the inputs,
/// discards perturbation samples whose directional derivative is not
/// finite (averaging over the survivors), and reports typed errors
/// instead of silently returning a `NaN` gradient.
///
/// # Errors
/// [`SolveError::InvalidInput`] when `theta`, `base_x`, or `dl_dx`
/// contain non-finite entries (or `delta`/`samples` are degenerate);
/// [`SolveError::AllSamplesNonFinite`] when every sample was discarded.
pub fn estimate_gradient_checked(
    theta: &[f64],
    base_x: &Matrix,
    dl_dx: &Matrix,
    solve: impl Fn(&[f64]) -> Matrix + Sync,
    opts: &ZerothOrderOptions,
    rng: &mut impl Rng,
) -> Result<CheckedGradient, SolveError> {
    if base_x.shape() != dl_dx.shape() {
        return Err(SolveError::InvalidInput(format!(
            "dl_dx shape {:?} does not match base_x shape {:?}",
            dl_dx.shape(),
            base_x.shape()
        )));
    }
    if !opts.delta.is_finite() || opts.delta <= 0.0 {
        return Err(SolveError::InvalidInput(format!(
            "perturbation delta = {} (must be finite and positive)",
            opts.delta
        )));
    }
    if opts.samples == 0 {
        return Err(SolveError::InvalidInput("need at least one sample".into()));
    }
    if theta.iter().any(|v| !v.is_finite()) {
        return Err(SolveError::InvalidInput(
            "theta contains non-finite entries".into(),
        ));
    }
    if base_x.as_slice().iter().any(|v| !v.is_finite())
        || dl_dx.as_slice().iter().any(|v| !v.is_finite())
    {
        return Err(SolveError::InvalidInput(
            "base_x / dl_dx contain non-finite entries".into(),
        ));
    }
    let d = theta.len();
    if d == 0 {
        return Ok(CheckedGradient {
            grad: Vec::new(),
            skipped: 0,
        });
    }

    let mut sampler = NormalSampler::new();
    let directions: Vec<Vec<f64>> = (0..opts.samples)
        .map(|_| (0..d).map(|_| sampler.sample(rng)).collect())
        .collect();

    let contributions: Vec<Option<Vec<f64>>> = par_map(&opts.parallel, &directions, |v| {
        let perturbed: Vec<f64> = theta
            .iter()
            .zip(v)
            .map(|(&th, &vi)| th + opts.delta * vi)
            .collect();
        let x_s = solve(&perturbed);
        if x_s.shape() != base_x.shape() {
            return None;
        }
        let mut directional = 0.0;
        for (idx, (&xs, &xb)) in x_s.as_slice().iter().zip(base_x.as_slice()).enumerate() {
            directional += dl_dx.as_slice()[idx] * (xs - xb);
        }
        directional /= opts.delta;
        if !directional.is_finite() {
            return None;
        }
        Some(v.iter().map(|&vi| directional * vi).collect())
    });

    let mut grad = vec![0.0; d];
    let mut kept = 0usize;
    for contribution in contributions.iter().flatten() {
        kept += 1;
        for (g, &c) in grad.iter_mut().zip(contribution) {
            *g += c;
        }
    }
    if kept == 0 {
        return Err(SolveError::AllSamplesNonFinite {
            samples: opts.samples,
        });
    }
    let inv = 1.0 / kept as f64;
    for g in &mut grad {
        *g *= inv;
    }
    Ok(CheckedGradient {
        grad,
        skipped: opts.samples - kept,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Test oracle: X*(θ) = M θ (linear), so dL/dθ = Mᵀ (dL/dX) exactly
    /// and the estimator should recover it as S grows.
    fn linear_map(theta: &[f64]) -> Matrix {
        // 2x2 output from a 3-vector input.
        Matrix::from_rows(&[
            &[theta[0] + 2.0 * theta[1], -theta[2]],
            &[0.5 * theta[0], theta[1] + theta[2]],
        ])
    }

    fn exact_grad(dl_dx: &Matrix) -> Vec<f64> {
        vec![
            dl_dx[(0, 0)] + 0.5 * dl_dx[(1, 0)],
            2.0 * dl_dx[(0, 0)] + dl_dx[(1, 1)],
            -dl_dx[(0, 1)] + dl_dx[(1, 1)],
        ]
    }

    #[test]
    fn recovers_linear_jacobian() {
        let theta = [0.3, -0.7, 1.1];
        let base = linear_map(&theta);
        let dl_dx = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let expected = exact_grad(&dl_dx);
        let mut rng = StdRng::seed_from_u64(1);
        let opts = ZerothOrderOptions {
            delta: 0.01,
            samples: 4000,
            parallel: ParallelConfig::sequential(),
        };
        let got = estimate_gradient(&theta, &base, &dl_dx, linear_map, &opts, &mut rng);
        for (g, e) in got.iter().zip(&expected) {
            assert!(
                (g - e).abs() < 0.15 * (1.0 + e.abs()),
                "{got:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn error_decreases_with_samples() {
        // Theorem 3's variance term: MSE ∝ 1/S for a linear map (zero bias).
        let theta = [0.3, -0.7, 1.1];
        let base = linear_map(&theta);
        let dl_dx = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let expected = exact_grad(&dl_dx);
        let mse = |samples: usize, seed: u64| -> f64 {
            let mut total = 0.0;
            let trials = 12;
            for t in 0..trials {
                let mut rng = StdRng::seed_from_u64(seed + t);
                let opts = ZerothOrderOptions {
                    delta: 0.05,
                    samples,
                    parallel: ParallelConfig::sequential(),
                };
                let got = estimate_gradient(&theta, &base, &dl_dx, linear_map, &opts, &mut rng);
                total += got
                    .iter()
                    .zip(&expected)
                    .map(|(g, e)| (g - e) * (g - e))
                    .sum::<f64>();
            }
            total / trials as f64
        };
        let coarse = mse(8, 10);
        let fine = mse(512, 10);
        assert!(
            fine < coarse / 4.0,
            "MSE should shrink roughly like 1/S: S=8 → {coarse}, S=512 → {fine}"
        );
    }

    #[test]
    fn parallel_matches_sequential_statistically() {
        // Same directions (same seed) ⇒ identical estimate regardless of
        // thread count, because directions are drawn before the fan-out.
        let theta = [0.2, 0.4, -0.6];
        let base = linear_map(&theta);
        let dl_dx = Matrix::filled(2, 2, 1.0);
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(9);
            let opts = ZerothOrderOptions {
                delta: 0.05,
                samples: 64,
                parallel: ParallelConfig::with_threads(threads),
            };
            estimate_gradient(&theta, &base, &dl_dx, linear_map, &opts, &mut rng)
        };
        let seq = run(1);
        let par = run(4);
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_sampler_moments() {
        // Mean, variance, AND kurtosis over a large sample, exercising the
        // cached-spare path (even draws come from the sine half of each
        // Box–Muller transform). Tolerances sit at ~6 standard errors:
        // SE(mean) = 1/√n, SE(var) ≈ √(2/n), SE(kurtosis) ≈ √(24/n).
        let mut rng = StdRng::seed_from_u64(3);
        let mut sampler = NormalSampler::new();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
        let nf = n as f64;
        let mean = xs.iter().sum::<f64>() / nf;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / nf;
        let kurtosis = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / (nf * var * var);
        assert!(mean.abs() < 0.015, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!((kurtosis - 3.0).abs() < 0.08, "kurtosis {kurtosis}");
    }

    #[test]
    fn sampler_halves_rng_draws() {
        // The cached spare means two normals per two uniforms; the old
        // sampler burned two uniforms per normal. Count draws through a
        // wrapper RNG.
        struct Counting<R> {
            inner: R,
            draws: u64,
        }
        impl<R: rand::RngCore> rand::RngCore for Counting<R> {
            fn next_u64(&mut self) -> u64 {
                self.draws += 1;
                self.inner.next_u64()
            }
        }
        let n = 1000;
        let mut paired = Counting {
            inner: StdRng::seed_from_u64(11),
            draws: 0,
        };
        let mut sampler = NormalSampler::new();
        for _ in 0..n {
            sampler.sample(&mut paired);
        }
        let mut single = Counting {
            inner: StdRng::seed_from_u64(11),
            draws: 0,
        };
        for _ in 0..n {
            sample_standard_normal(&mut single);
        }
        assert!(
            paired.draws * 2 <= single.draws + 4,
            "paired sampler used {} draws, single-shot {}",
            paired.draws,
            single.draws
        );
    }

    #[test]
    fn optimal_delta_formula() {
        // Δ* = (2σ²/(β²S))^{1/4}; spot-check monotonicity and a value.
        let d1 = ZerothOrderOptions::optimal_delta(1.0, 1.0, 1);
        assert!((d1 - 2.0_f64.powf(0.25)).abs() < 1e-12);
        let d_many = ZerothOrderOptions::optimal_delta(1.0, 1.0, 256);
        assert!(d_many < d1, "more samples allow a smaller Δ");
    }

    #[test]
    fn optimal_delta_zero_beta_clamps_to_fallback() {
        // β = 0 used to divide by zero and return inf.
        let d = ZerothOrderOptions::optimal_delta(0.0, 1.0, 8);
        assert_eq!(d, FALLBACK_DELTA);
        let err = ZerothOrderOptions::try_optimal_delta(0.0, 1.0, 8).unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn optimal_delta_zero_sigma_clamps_to_fallback() {
        // σ_F = 0 used to return Δ* = 0, which divides by zero later in the
        // estimator.
        let d = ZerothOrderOptions::optimal_delta(1.0, 0.0, 8);
        assert_eq!(d, FALLBACK_DELTA);
        let err = ZerothOrderOptions::try_optimal_delta(1.0, 0.0, 8).unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn optimal_delta_rejects_non_finite_inputs() {
        for (beta, sigma) in [
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (1.0, f64::INFINITY),
            (-1.0, 1.0),
            (1.0, -1.0),
        ] {
            assert!(ZerothOrderOptions::try_optimal_delta(beta, sigma, 8).is_err());
            let d = ZerothOrderOptions::optimal_delta(beta, sigma, 8);
            assert_eq!(d, FALLBACK_DELTA, "beta={beta} sigma={sigma}");
        }
    }

    #[test]
    fn checked_matches_unchecked_on_healthy_input() {
        let theta = [0.3, -0.7, 1.1];
        let base = linear_map(&theta);
        let dl_dx = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let opts = ZerothOrderOptions {
            delta: 0.05,
            samples: 64,
            parallel: ParallelConfig::sequential(),
        };
        let mut rng = StdRng::seed_from_u64(4);
        let plain = estimate_gradient(&theta, &base, &dl_dx, linear_map, &opts, &mut rng);
        let mut rng = StdRng::seed_from_u64(4);
        let checked =
            estimate_gradient_checked(&theta, &base, &dl_dx, linear_map, &opts, &mut rng).unwrap();
        assert_eq!(checked.skipped, 0);
        for (a, b) in plain.iter().zip(&checked.grad) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn checked_skips_nan_samples() {
        // The perturbed solve fails (NaN output) whenever the first
        // coordinate moves negative; those samples must be discarded and
        // the estimate still recovered from the rest.
        let theta = [0.05, -0.7, 1.1];
        let base = linear_map(&theta);
        let dl_dx = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let flaky = |th: &[f64]| {
            if th[0] < 0.0 {
                Matrix::filled(2, 2, f64::NAN)
            } else {
                linear_map(th)
            }
        };
        let opts = ZerothOrderOptions {
            delta: 0.2,
            samples: 256,
            parallel: ParallelConfig::sequential(),
        };
        let mut rng = StdRng::seed_from_u64(6);
        let checked =
            estimate_gradient_checked(&theta, &base, &dl_dx, flaky, &opts, &mut rng).unwrap();
        assert!(checked.skipped > 0, "setup must actually trigger skips");
        assert!(checked.skipped < opts.samples);
        assert!(checked.grad.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn checked_reports_total_failure() {
        let theta = [0.1];
        let base = Matrix::zeros(1, 1);
        let dl_dx = Matrix::filled(1, 1, 1.0);
        let broken = |_: &[f64]| Matrix::filled(1, 1, f64::INFINITY);
        let opts = ZerothOrderOptions {
            delta: 0.05,
            samples: 8,
            parallel: ParallelConfig::sequential(),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let err =
            estimate_gradient_checked(&theta, &base, &dl_dx, broken, &opts, &mut rng).unwrap_err();
        assert!(
            matches!(err, SolveError::AllSamplesNonFinite { samples: 8 }),
            "{err}"
        );
    }

    #[test]
    fn checked_rejects_nan_theta() {
        let base = Matrix::zeros(1, 1);
        let dl_dx = Matrix::zeros(1, 1);
        let mut rng = StdRng::seed_from_u64(8);
        let err = estimate_gradient_checked(
            &[f64::NAN],
            &base,
            &dl_dx,
            |_| Matrix::zeros(1, 1),
            &ZerothOrderOptions::default(),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn empty_theta() {
        let base = Matrix::zeros(1, 1);
        let dl = Matrix::zeros(1, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let g = estimate_gradient(
            &[],
            &base,
            &dl,
            |_| Matrix::zeros(1, 1),
            &ZerothOrderOptions::default(),
            &mut rng,
        );
        assert!(g.is_empty());
    }
}
