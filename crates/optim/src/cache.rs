//! Warm-start solve cache: fingerprinted reuse of previous optima.
//!
//! Training re-solves a nearly identical matching problem for every
//! sample, every round, and every zeroth-order perturbation — always
//! from the uniform simplex point, which is the single hottest path in
//! the pipeline. Matching solvers warm-started from a previous optimum
//! (Dinitz et al. 2021, "Faster Matchings via Learned Duals") converge
//! in a fraction of the iterations because the iterate starts inside the
//! basin of the new optimum instead of at maximum entropy.
//!
//! [`WarmStartCache`] stores, per problem [`fingerprint`], the last
//! relaxed assignment, the per-task simplex duals estimated at that
//! point, and — for the convex KKT path — the symbolic structure of the
//! factorization ([`KktStructure`]). A hit seeds the primary attempt of
//! [`crate::RobustSolver::solve_cached`] as a
//! [`crate::seed::SeedKind::Cached`] seed, blended by
//! [`crate::seed::Seed::init`].
//!
//! Entries are validated on every lookup (shape, finiteness, column
//! stochasticity, dual finiteness, and a generation-based staleness
//! bound); anything suspect is evicted and reported as
//! [`CacheOutcome::Stale`], so a poisoned entry can cost at most one
//! cold solve — never a wrong answer. Lookups bump the `cache.hit` /
//! `cache.miss` / `cache.stale` counters and emit flight-recorder
//! instants keyed by the fingerprint.

use std::collections::HashMap;
use std::fmt;

use crate::kkt::KktWorkspace;
use crate::objective::{BarrierKind, CostKind, RelaxationParams};
use crate::problem::MatchingProblem;
use crate::solver::is_column_stochastic;
use crate::speedup::SpeedupCurve;
use mfcp_linalg::Matrix;

/// Column-stochasticity tolerance applied when validating cached
/// iterates (matches the health tolerance in [`crate::recovery`]).
const SIMPLEX_TOL: f64 = 1e-6;

/// Structural fingerprint of a problem instance plus its relaxation
/// parameters: cluster count, task count, reliability threshold, speedup
/// curves, capacity limits, and every [`RelaxationParams`] knob, hashed
/// with FNV-1a.
///
/// The fingerprint is deliberately *structural* — it does not hash the
/// time/reliability matrices. Successive training rounds solve problems
/// with the same structure but slightly different data, and those are
/// exactly the instances a previous optimum is a good seed for. Two
/// problems with different structure (or parameters) never share an
/// entry.
pub fn fingerprint(problem: &MatchingProblem, params: &RelaxationParams) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(problem.clusters() as u64);
    h.write_u64(problem.tasks() as u64);
    h.write_u64(problem.gamma.to_bits());
    for curve in &problem.speedup {
        match curve {
            SpeedupCurve::None => h.write_u64(1),
            SpeedupCurve::ExpDecay { floor, rate } => {
                h.write_u64(2);
                h.write_u64(floor.to_bits());
                h.write_u64(rate.to_bits());
            }
        }
    }
    match &problem.capacity {
        None => h.write_u64(0),
        Some(cap) => {
            h.write_u64(3);
            h.write_u64(cap.limits.len() as u64);
            for limit in &cap.limits {
                h.write_u64(limit.to_bits());
            }
        }
    }
    h.write_u64(params.beta.to_bits());
    h.write_u64(params.lambda.to_bits());
    h.write_u64(params.rho.to_bits());
    match params.barrier {
        BarrierKind::Log { eps } => {
            h.write_u64(4);
            h.write_u64(eps.to_bits());
        }
        BarrierKind::HardPenalty => h.write_u64(5),
        BarrierKind::None => h.write_u64(6),
    }
    match params.cost {
        CostKind::SmoothMax => h.write_u64(7),
        CostKind::LinearSum => h.write_u64(8),
    }
    h.finish()
}

/// FNV-1a, 64-bit. Hand-rolled because the build environment vendors no
/// hashing crate and `DefaultHasher` is not stable across releases —
/// fingerprints may end up in serialized perf artifacts.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Symbolic shape of the KKT factorization for one problem size, plus
/// the numeric factorization buffers that go with it.
///
/// The "symbolic analysis" of the KKT system in [`crate::kkt`] reduces
/// to the dimensions; caching them lets a warm entry be pre-validated
/// against the problem size before any numeric work. The entry also
/// carries the [`KktWorkspace`] used by the previous solve, so a warm
/// hit reuses the structured-elimination storage (`Σ⁻¹`, the low-rank
/// blocks, the Schur Cholesky, and the dense-fallback LU) instead of
/// reallocating it.
///
/// Equality compares the symbolic dimensions only — the numeric buffers
/// are transient state, not identity.
#[derive(Debug, Clone)]
pub struct KktStructure {
    /// Total system dimension `m·n + n`.
    pub dim: usize,
    /// Number of primal variables `m·n`.
    pub mn: usize,
    /// Number of per-task simplex constraints `n`.
    pub n: usize,
    /// Numeric factorization buffers from the last solve at this shape.
    pub workspace: KktWorkspace,
}

impl PartialEq for KktStructure {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.mn == other.mn && self.n == other.n
    }
}

impl Eq for KktStructure {}

impl KktStructure {
    /// The symbolic structure for an `m × n` problem, with fresh (empty)
    /// numeric buffers.
    pub fn for_shape(m: usize, n: usize) -> Self {
        KktStructure {
            dim: m * n + n,
            mn: m * n,
            n,
            workspace: KktWorkspace::default(),
        }
    }

    /// Whether this structure matches an `m × n` problem.
    pub fn matches(&self, m: usize, n: usize) -> bool {
        self.dim == m * n + n && self.mn == m * n && self.n == n
    }
}

/// One cached optimum, keyed by [`fingerprint`] in [`WarmStartCache`].
///
/// Every field is public so tests can inject poisoned state (NaN duals,
/// wrong-dimension assignments) and assert the validating lookup evicts
/// it instead of feeding it to a solver.
#[derive(Debug, Clone)]
pub struct WarmStartEntry {
    /// Last relaxed assignment (columns on the probability simplex).
    pub x: Matrix,
    /// Objective value at `x` when the entry was stored.
    pub objective: f64,
    /// Per-task simplex duals `ν_j = min_i ∂F/∂x_ij` estimated at `x`.
    /// At an interior optimum of the entropic relaxation the gradient is
    /// constant across the support of each column, so the column minimum
    /// recovers the stationarity multiplier of the simplex constraint.
    pub duals: Vec<f64>,
    /// Symbolic KKT structure; present only when the problem was convex
    /// (the only setting the Newton/KKT path accepts).
    pub kkt: Option<KktStructure>,
    /// Cache generation at which the entry was stored (set by
    /// [`WarmStartCache::store`]; see
    /// [`WarmStartCache::advance_generation`]).
    pub stored_at: u64,
}

impl WarmStartEntry {
    /// Builds an entry from a solved optimum `x` of `problem`.
    pub fn from_solution(
        problem: &MatchingProblem,
        params: &RelaxationParams,
        x: &Matrix,
        objective: f64,
    ) -> Self {
        let (m, n) = (problem.clusters(), problem.tasks());
        let duals = crate::learned::column_duals(problem, params, x);
        let convex = problem.speedup.iter().all(|c| c.is_trivial());
        WarmStartEntry {
            x: x.clone(),
            objective,
            duals,
            kkt: convex.then(|| KktStructure::for_shape(m, n)),
            stored_at: 0,
        }
    }
}

/// What a [`WarmStartCache::lookup`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A valid entry was found and its assignment returned.
    Hit,
    /// No entry existed for the fingerprint.
    Miss,
    /// An entry existed but failed validation (or a warm attempt later
    /// diverged) and was evicted; the solve ran cold.
    Stale,
    /// No usable entry existed, but a [`crate::learned::DualPredictor`]
    /// supplied a repaired seed and the predicted-seed rung converged
    /// (see [`crate::RobustSolver::solve_cached`]). Ordered
    /// behind exact hits: a valid cached optimum always beats a model
    /// guess.
    Predicted,
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Stale => "stale",
            CacheOutcome::Predicted => "predicted",
        })
    }
}

/// Lifetime lookup statistics for one [`WarmStartCache`]. These mirror
/// the process-wide `cache.hit` / `cache.miss` / `cache.stale` counters
/// but are local to the cache instance, so tests can assert on them
/// without coordinating over the global registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries at the moment [`WarmStartCache::stats`] was called.
    pub entries: usize,
    /// Lookups that returned a valid warm start.
    pub hits: u64,
    /// Lookups with no entry under the fingerprint.
    pub misses: u64,
    /// Entries evicted as stale or poisoned, plus warm attempts that
    /// diverged and fell back to cold.
    pub stale: u64,
    /// Entries displaced by the capacity bound
    /// ([`WarmStartConfig::max_entries`]), as opposed to staleness or
    /// poisoning. A daemon watching this climb knows its working set no
    /// longer fits the cache.
    pub evicted: u64,
}

/// Tuning knobs for [`WarmStartCache`].
#[derive(Debug, Clone, Copy)]
pub struct WarmStartConfig {
    /// Staleness bound: the maximum number of generations an entry may
    /// age before a lookup evicts it. One generation is one call to
    /// [`WarmStartCache::advance_generation`] (training advances once
    /// per round).
    pub max_age: u64,
    /// Maximum entries kept; storing beyond this evicts the oldest
    /// entry (ties broken by smallest key, so eviction is
    /// deterministic).
    pub max_entries: usize,
}

impl Default for WarmStartConfig {
    fn default() -> Self {
        WarmStartConfig {
            max_age: 8,
            max_entries: 64,
        }
    }
}

/// Fingerprint-keyed store of previous optima used to warm-start
/// subsequent solves.
///
/// ```
/// use mfcp_linalg::Matrix;
/// use mfcp_optim::cache::WarmStartCache;
/// use mfcp_optim::{MatchingProblem, RelaxationParams};
///
/// let times = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
/// let rel = Matrix::filled(2, 2, 0.9);
/// let problem = MatchingProblem::new(times, rel, 0.8);
/// let solver = mfcp_optim::RobustSolver::new(RelaxationParams::default());
///
/// let mut cache = WarmStartCache::new();
/// let cold = solver.solve_cached(&problem, &mut cache, None, None).unwrap();
/// let warm = solver.solve_cached(&problem, &mut cache, None, None).unwrap();
/// assert!((cold.objective - warm.objective).abs() < 1e-8);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct WarmStartCache {
    config: WarmStartConfig,
    entries: HashMap<u64, WarmStartEntry>,
    generation: u64,
    stats: CacheStats,
}

impl Default for WarmStartCache {
    fn default() -> Self {
        WarmStartCache::new()
    }
}

impl WarmStartCache {
    /// An empty cache with the default configuration.
    pub fn new() -> Self {
        WarmStartCache::with_config(WarmStartConfig::default())
    }

    /// An empty cache with an explicit configuration.
    pub fn with_config(config: WarmStartConfig) -> Self {
        WarmStartCache {
            config,
            entries: HashMap::new(),
            generation: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The current generation counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> WarmStartConfig {
        self.config
    }

    /// Lifetime lookup/eviction statistics plus the current entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            ..self.stats
        }
    }

    /// Advances the staleness clock by one generation. Call once per
    /// solving round; entries older than
    /// [`WarmStartConfig::max_age`] generations are evicted on lookup.
    pub fn advance_generation(&mut self) {
        self.generation += 1;
    }

    /// Sets the generation clock directly. Exists for snapshot restore
    /// (a resumed daemon must continue the exact clock it was killed
    /// at, or entry ages — and thus staleness evictions — would differ
    /// from an uninterrupted run).
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Entries in ascending key order — a deterministic view for
    /// serialization (the underlying `HashMap` iteration order is not).
    pub fn entries_sorted(&self) -> Vec<(u64, &WarmStartEntry)> {
        let mut all: Vec<_> = self.entries.iter().map(|(k, e)| (*k, e)).collect();
        all.sort_by_key(|(k, _)| *k);
        all
    }

    /// Inserts `entry` preserving its `stored_at` stamp (unlike
    /// [`WarmStartCache::store`], which stamps the current generation).
    /// Exists for snapshot restore; still enforces the capacity bound.
    pub fn insert_preserving_age(&mut self, key: u64, entry: WarmStartEntry) {
        let stamp = entry.stored_at;
        self.store(key, entry);
        if let Some(e) = self.entries.get_mut(&key) {
            e.stored_at = stamp;
        }
    }

    /// Looks up the entry under `key` for an `m × n` problem.
    ///
    /// Returns the outcome plus the cached assignment on a hit. An entry
    /// that fails validation — wrong shape, non-finite values, columns
    /// off the simplex, mis-sized, non-finite, or out-of-scale duals
    /// (the [`crate::learned::duals_admissible`] gate shared with the
    /// prediction repair kernel), mismatched KKT structure, or age
    /// beyond the staleness bound — is evicted and reported as
    /// [`CacheOutcome::Stale`].
    pub fn lookup(&mut self, key: u64, m: usize, n: usize) -> (CacheOutcome, Option<Matrix>) {
        let verdict = self.entries.get(&key).map(|entry| {
            let age = self.generation.saturating_sub(entry.stored_at);
            let valid = age <= self.config.max_age
                && validate_warm(&entry.x, m, n)
                && entry.objective.is_finite()
                && crate::learned::duals_admissible(&entry.duals, n)
                && entry.kkt.as_ref().is_none_or(|k| k.matches(m, n));
            valid.then(|| entry.x.clone())
        });
        match verdict {
            None => {
                self.stats.misses += 1;
                mfcp_obs::counter("cache.miss").inc();
                mfcp_obs::trace::instant("cache.miss", Some(key));
                (CacheOutcome::Miss, None)
            }
            Some(None) => {
                self.note_stale(key);
                (CacheOutcome::Stale, None)
            }
            Some(Some(x)) => {
                self.stats.hits += 1;
                mfcp_obs::counter("cache.hit").inc();
                mfcp_obs::trace::instant("cache.hit", Some(key));
                (CacheOutcome::Hit, Some(x))
            }
        }
    }

    /// Records a stale or diverged warm start: evicts the entry (so the
    /// next lookup misses instead of retrying it), bumps the
    /// `cache.stale` counter, and emits a flight-recorder instant.
    pub fn note_stale(&mut self, key: u64) {
        self.entries.remove(&key);
        self.stats.stale += 1;
        mfcp_obs::counter("cache.stale").inc();
        mfcp_obs::trace::instant("cache.stale", Some(key));
    }

    /// Stores `entry` under `key`, stamping it with the current
    /// generation. Evicts oldest entries (deterministically) when the
    /// cache exceeds [`WarmStartConfig::max_entries`].
    pub fn store(&mut self, key: u64, mut entry: WarmStartEntry) {
        entry.stored_at = self.generation;
        self.entries.insert(key, entry);
        while self.entries.len() > self.config.max_entries.max(1) {
            let victim = self
                .entries
                .iter()
                .map(|(k, e)| (e.stored_at, *k))
                .min()
                .map(|(_, k)| k);
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                    self.stats.evicted += 1;
                    mfcp_obs::counter("cache.evicted").inc();
                    mfcp_obs::trace::instant("cache.evicted", Some(k));
                }
                None => break,
            }
        }
    }

    /// Mutable access to the entry under `key`, for tests that poison
    /// cached state.
    pub fn entry_mut(&mut self, key: u64) -> Option<&mut WarmStartEntry> {
        self.entries.get_mut(&key)
    }

    /// Takes the numeric KKT workspace out of the entry under `key`,
    /// leaving empty buffers behind. The solver threads the workspace
    /// through the solve and hands it back via
    /// [`WarmStartCache::restore_kkt_workspace`], so repeated solves of
    /// the same problem reuse factorization storage across calls.
    pub fn take_kkt_workspace(&mut self, key: u64) -> Option<KktWorkspace> {
        self.entries
            .get_mut(&key)
            .and_then(|entry| entry.kkt.as_mut())
            .map(|kkt| std::mem::take(&mut kkt.workspace))
    }

    /// Moves `workspace` into the entry under `key` (a no-op when the
    /// entry is gone or carries no KKT structure, e.g. for non-convex
    /// problems whose solutions skip the structure entirely).
    pub fn restore_kkt_workspace(&mut self, key: u64, workspace: KktWorkspace) {
        if let Some(kkt) = self
            .entries
            .get_mut(&key)
            .and_then(|entry| entry.kkt.as_mut())
        {
            kkt.workspace = workspace;
        }
    }
}

/// Whether `x` is usable as a warm start for an `m × n` problem: right
/// shape, every entry finite, and columns on the simplex within the
/// shared tolerance.
pub fn validate_warm(x: &Matrix, m: usize, n: usize) -> bool {
    x.shape() == (m, n)
        && x.as_slice().iter().all(|v| v.is_finite())
        && is_column_stochastic(x, SIMPLEX_TOL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective;
    use crate::problem::CapacityConstraint;

    fn problem(m: usize, n: usize) -> MatchingProblem {
        let t = Matrix::from_fn(m, n, |i, j| 1.0 + 0.3 * i as f64 + 0.1 * j as f64);
        let a = Matrix::filled(m, n, 0.9);
        MatchingProblem::new(t, a, 0.8)
    }

    fn entry_for(p: &MatchingProblem, params: &RelaxationParams) -> WarmStartEntry {
        let x = crate::solver::uniform_init(p.clusters(), p.tasks());
        let obj = objective::value(p, params, &x);
        WarmStartEntry::from_solution(p, params, &x, obj)
    }

    #[test]
    fn fingerprint_is_structural() {
        let params = RelaxationParams::default();
        let p = problem(3, 5);
        let key = fingerprint(&p, &params);
        // Same structure, different data: same key.
        let p2 = p.clone().with_time_row(0, &[9.0, 9.0, 9.0, 9.0, 9.0]);
        assert_eq!(key, fingerprint(&p2, &params));
        // Different task count, gamma, params, speedup, capacity: new key.
        assert_ne!(key, fingerprint(&problem(3, 4), &params));
        let mut p3 = p.clone();
        p3.gamma = 0.9;
        assert_ne!(key, fingerprint(&p3, &params));
        let softer = RelaxationParams { rho: 0.5, ..params };
        assert_ne!(key, fingerprint(&p, &softer));
        let mut p4 = p.clone();
        p4.speedup = vec![SpeedupCurve::paper_parallel(); 3];
        assert_ne!(key, fingerprint(&p4, &params));
        let p5 = p.clone().with_capacity(CapacityConstraint {
            usage: Matrix::filled(3, 5, 1.0),
            limits: vec![10.0; 3],
        });
        assert_ne!(key, fingerprint(&p5, &params));
    }

    #[test]
    fn lookup_hits_after_store_and_misses_before() {
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let key = fingerprint(&p, &params);
        let mut cache = WarmStartCache::new();
        assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Miss);
        cache.store(key, entry_for(&p, &params));
        let (outcome, x) = cache.lookup(key, 2, 3);
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(x.expect("hit returns the assignment").shape(), (2, 3));
        assert_eq!(
            cache.stats(),
            CacheStats {
                entries: 1,
                hits: 1,
                misses: 1,
                stale: 0,
                evicted: 0,
            }
        );
    }

    #[test]
    fn staleness_bound_evicts_old_entries() {
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let key = fingerprint(&p, &params);
        let mut cache = WarmStartCache::with_config(WarmStartConfig {
            max_age: 2,
            max_entries: 64,
        });
        cache.store(key, entry_for(&p, &params));
        cache.advance_generation();
        cache.advance_generation();
        assert_eq!(
            cache.lookup(key, 2, 3).0,
            CacheOutcome::Hit,
            "age 2 <= bound"
        );
        cache.advance_generation();
        assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Stale);
        // Evicted: the next lookup is a clean miss.
        assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Miss);
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn poisoned_entries_are_stale_not_panics() {
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let key = fingerprint(&p, &params);

        // NaN duals.
        let mut cache = WarmStartCache::new();
        cache.store(key, entry_for(&p, &params));
        cache.entry_mut(key).unwrap().duals[0] = f64::NAN;
        assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Stale);

        // Wrong-dimension assignment.
        let mut cache = WarmStartCache::new();
        let mut bad = entry_for(&p, &params);
        bad.x = Matrix::filled(1, 1, 1.0);
        cache.store(key, bad);
        assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Stale);

        // Non-finite assignment values.
        let mut cache = WarmStartCache::new();
        cache.store(key, entry_for(&p, &params));
        cache.entry_mut(key).unwrap().x[(0, 0)] = f64::NAN;
        assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Stale);

        // Columns off the simplex.
        let mut cache = WarmStartCache::new();
        cache.store(key, entry_for(&p, &params));
        cache.entry_mut(key).unwrap().x[(0, 0)] = 0.9;
        assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Stale);
    }

    #[test]
    fn eviction_keeps_cache_bounded_and_deterministic() {
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let mut cache = WarmStartCache::with_config(WarmStartConfig {
            max_age: 8,
            max_entries: 2,
        });
        cache.store(1, entry_for(&p, &params));
        cache.advance_generation();
        cache.store(2, entry_for(&p, &params));
        cache.advance_generation();
        cache.store(3, entry_for(&p, &params));
        assert_eq!(cache.len(), 2);
        // The oldest entry (key 1, generation 0) was evicted.
        assert_eq!(cache.lookup(1, 2, 3).0, CacheOutcome::Miss);
        assert_eq!(cache.lookup(2, 2, 3).0, CacheOutcome::Hit);
        assert_eq!(cache.lookup(3, 2, 3).0, CacheOutcome::Hit);
    }

    #[test]
    fn stats_distinguish_capacity_evictions_from_staleness() {
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let mut cache = WarmStartCache::with_config(WarmStartConfig {
            max_age: 8,
            max_entries: 2,
        });
        cache.store(1, entry_for(&p, &params));
        cache.store(2, entry_for(&p, &params));
        assert_eq!(cache.stats().evicted, 0);
        cache.store(3, entry_for(&p, &params));
        cache.store(4, entry_for(&p, &params));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evicted, 2, "two capacity displacements");
        assert_eq!(stats.stale, 0, "capacity evictions are not staleness");

        // A poisoned entry goes through the stale path, not evicted.
        cache.entry_mut(4).unwrap().x[(0, 0)] = f64::NAN;
        assert_eq!(cache.lookup(4, 2, 3).0, CacheOutcome::Stale);
        let stats = cache.stats();
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.evicted, 2);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn out_of_scale_duals_are_stale_not_warm() {
        // Regression: validation used to accept any finite dual vector of
        // the right length, so a ×1e6-scaled (but finite) dual survived
        // lookup. The shared `duals_admissible` gate now bounds the
        // magnitude exactly like the prediction repair kernel.
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let key = fingerprint(&p, &params);
        let mut cache = WarmStartCache::new();
        cache.store(key, entry_for(&p, &params));
        cache.entry_mut(key).unwrap().duals[1] = 1.0e9;
        assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Stale);
        assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Miss, "evicted");
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn age_bound_expiry_exactly_at_max_age() {
        // Default config: an entry is warm at age == max_age and expires
        // one generation later; re-storing resets the clock.
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let key = fingerprint(&p, &params);
        let mut cache = WarmStartCache::new();
        let max_age = cache.config().max_age;
        cache.store(key, entry_for(&p, &params));
        for _ in 0..max_age {
            cache.advance_generation();
        }
        assert_eq!(
            cache.lookup(key, 2, 3).0,
            CacheOutcome::Hit,
            "age == max_age is still warm"
        );
        cache.advance_generation();
        assert_eq!(
            cache.lookup(key, 2, 3).0,
            CacheOutcome::Stale,
            "age == max_age + 1 expires"
        );
        // A fresh store at the current generation is warm again.
        cache.store(key, entry_for(&p, &params));
        for _ in 0..max_age {
            cache.advance_generation();
        }
        assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Hit);
    }

    #[test]
    fn generation_eviction_under_capacity_pressure() {
        // Sustained stores across generations keep the cache at the
        // capacity bound and always displace the oldest generation,
        // with ties broken by the smallest key.
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let mut cache = WarmStartCache::with_config(WarmStartConfig {
            max_age: 64,
            max_entries: 3,
        });
        for key in 0..8u64 {
            cache.store(key, entry_for(&p, &params));
            cache.advance_generation();
            assert!(cache.len() <= 3);
        }
        assert_eq!(cache.len(), 3);
        // Only the three youngest survive.
        for key in 0..5u64 {
            assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Miss, "key {key}");
        }
        for key in 5..8u64 {
            assert_eq!(cache.lookup(key, 2, 3).0, CacheOutcome::Hit, "key {key}");
        }
        assert_eq!(cache.stats().evicted, 5);

        // Same-generation tie: the smallest key is the deterministic
        // victim.
        let mut cache = WarmStartCache::with_config(WarmStartConfig {
            max_age: 64,
            max_entries: 2,
        });
        cache.store(10, entry_for(&p, &params));
        cache.store(7, entry_for(&p, &params));
        cache.store(9, entry_for(&p, &params));
        assert_eq!(cache.lookup(7, 2, 3).0, CacheOutcome::Miss);
        assert_eq!(cache.lookup(9, 2, 3).0, CacheOutcome::Hit);
        assert_eq!(cache.lookup(10, 2, 3).0, CacheOutcome::Hit);
    }

    #[test]
    fn evictions_counter_is_monotone() {
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let mut cache = WarmStartCache::with_config(WarmStartConfig {
            max_age: 2,
            max_entries: 2,
        });
        let mut last = 0;
        for key in 0..10u64 {
            cache.store(key, entry_for(&p, &params));
            let evicted = cache.stats().evicted;
            assert!(evicted >= last, "evictions counter must never decrease");
            last = evicted;
        }
        assert_eq!(last, 8, "every store beyond capacity displaced one entry");
        // Stale evictions and hits leave the capacity-eviction counter
        // untouched.
        cache.advance_generation();
        cache.advance_generation();
        cache.advance_generation();
        assert_eq!(cache.lookup(9, 2, 3).0, CacheOutcome::Stale);
        assert_eq!(cache.stats().evicted, last);
        cache.store(11, entry_for(&p, &params));
        assert_eq!(cache.lookup(11, 2, 3).0, CacheOutcome::Hit);
        assert_eq!(cache.stats().evicted, last);
    }

    #[test]
    fn duals_are_finite_at_interior_points() {
        let params = RelaxationParams::default();
        let p = problem(3, 4);
        let entry = entry_for(&p, &params);
        assert_eq!(entry.duals.len(), 4);
        assert!(entry.duals.iter().all(|d| d.is_finite()));
        assert_eq!(entry.kkt, Some(KktStructure::for_shape(3, 4)));
    }
}
