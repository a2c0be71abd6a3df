//! Layer probes: single public calls timed in isolation, for layers whose
//! cost hides inside a larger span.

use std::time::Instant;

use mfcp_linalg::Matrix;
use mfcp_optim::kkt::implicit_gradients_with;
use mfcp_optim::solver::{solve_relaxed, SolverOptions};
use mfcp_optim::{KktWorkspace, MatchingProblem, RelaxationParams};
use mfcp_platform::prelude::{ClusterPool, Setting};
use mfcp_platform::task::TaskSpec;

use crate::stats::median;

/// Repetitions per probe; the median is reported.
const REPS: usize = 301;

/// Median µs of `f` over [`REPS`] calls, after one warm-up call.
fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `PerfModel::time_matrix` + `reliability_matrix` for `specs` on the
/// Setting A platform, µs.
pub fn matrix_build_us(specs: &[TaskSpec]) -> f64 {
    let _span = mfcp_obs::span("bench.probe.matrix_build");
    let model = ClusterPool::standard().setting(Setting::A);
    time_us(|| {
        let t = model.time_matrix(specs);
        let a = model.reliability_matrix(specs);
        std::hint::black_box((t, a));
    })
}

/// `kkt::implicit_gradients_with` at the solved optimum of a Setting A
/// problem over `specs` (M = 3, N = `specs.len()`), reusing one
/// workspace, µs.
pub fn kkt_grad_us(specs: &[TaskSpec]) -> f64 {
    let _span = mfcp_obs::span("bench.probe.kkt_grad");
    let model = ClusterPool::standard().setting(Setting::A);
    let problem = MatchingProblem::new(
        model.time_matrix(specs),
        model.reliability_matrix(specs),
        0.82,
    );
    let params = RelaxationParams::default();
    let opts = SolverOptions {
        max_iters: 2000,
        tol: 1e-11,
        ..SolverOptions::default()
    };
    let x = solve_relaxed(&problem, &params, &opts).x;
    let (m, n) = x.shape();
    let dl_dx = Matrix::from_fn(m, n, |i, j| 1.0 + 0.1 * (i * n + j) as f64);
    let mut ws = KktWorkspace::new();
    time_us(|| {
        let g = implicit_gradients_with(&problem, &params, &x, &dl_dx, &mut ws);
        std::hint::black_box(g.is_ok());
    })
}
