//! Log-linear-bucket histograms.
//!
//! The bucketing scheme (documented in DESIGN.md §Observability) is
//! log-linear, the same family HdrHistogram and Prometheus native
//! histograms use: the positive axis is split into decades
//! `[10^e, 10^{e+1})` for `e ∈ [-9, 9]`, and each decade into nine linear
//! sub-buckets `[k·10^e, (k+1)·10^e)` for `k ∈ 1..=9`. Relative
//! resolution is therefore bounded by ~11% everywhere across 19 orders of
//! magnitude with a fixed 173-slot table (171 decade buckets plus an
//! underflow slot for values `< 1e-9` — including zero and negatives —
//! and an overflow slot for values `≥ 1e10`). Non-finite values are
//! tallied separately and never bucketed.
//!
//! # Reset semantics
//!
//! A histogram observation is several independent atomic updates (bucket,
//! count, sum, min, max). A naive in-place reset that zeroes those cells
//! one by one can tear an observation recorded concurrently — e.g. clear
//! its count but keep its bucket increment, leaving `Σ buckets ≠ count`
//! forever. Reset is therefore *epoch-based*: the histogram keeps two
//! generations of storage, [`HistogramInner::reset`] flips the active
//! generation and only zeroes the old one after its in-flight writers
//! have drained. An observation concurrent with a reset is either fully
//! counted in the post-reset state or fully discarded with the pre-reset
//! data — snapshots never observe a torn event. (Covered by the
//! `concurrent_reset_never_tears` test below.)

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Smallest decade exponent with its own buckets.
pub const MIN_EXP: i32 = -9;
/// Largest decade exponent with its own buckets.
pub const MAX_EXP: i32 = 9;
/// Linear sub-buckets per decade.
pub const SUBS: usize = 9;
/// Total bucket count: underflow + decades + overflow.
pub const BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize * SUBS + 2;

const UNDERFLOW: usize = 0;
const OVERFLOW: usize = BUCKETS - 1;

/// Maps a finite value to its bucket index.
pub fn bucket_index(v: f64) -> usize {
    if v < 1e-9 {
        // Negatives, zeros and sub-resolution values share the underflow
        // slot (NaN is screened out before this call).
        return UNDERFLOW;
    }
    if v >= 1e10 {
        return OVERFLOW;
    }
    let e = v.log10().floor() as i32;
    let e = e.clamp(MIN_EXP, MAX_EXP);
    let mantissa = v / 10f64.powi(e);
    // Float roundoff can push mantissa a hair outside [1, 10).
    let k = (mantissa.floor() as usize).clamp(1, 9);
    1 + (e - MIN_EXP) as usize * SUBS + (k - 1)
}

/// The shared quantile kernel: rank-selects over `(lo, hi, count)`
/// buckets in ascending order and returns the selected bucket's
/// midpoint. Open-ended bucket bounds collapse onto the observed
/// `min`/`max`, and the result is clamped into `[min, max]` when both
/// are finite. `NaN` when `total` is zero. Accuracy is bounded by the
/// log-linear bucket width (~11%).
///
/// This is the one quantile implementation in the workspace: the live
/// [`Histogram::quantile`], the snapshot-side
/// [`crate::HistogramSnapshot::quantile`], and the time-series
/// window quantiles ([`crate::timeseries`]) all call it.
pub fn quantile_over(
    total: u64,
    buckets: impl Iterator<Item = (f64, f64, u64)>,
    q: f64,
    min: f64,
    max: f64,
) -> f64 {
    if total == 0 {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (lo, hi, c) in buckets {
        if c == 0 {
            continue;
        }
        seen += c;
        if seen >= rank {
            let lo = if lo.is_finite() {
                lo
            } else if min.is_finite() {
                min
            } else {
                hi
            };
            let hi = if hi.is_finite() {
                hi
            } else if max.is_finite() {
                max
            } else {
                lo
            };
            let mid = 0.5 * (lo + hi);
            return if min.is_finite() && max.is_finite() {
                mid.clamp(min, max)
            } else {
                mid
            };
        }
    }
    // Ranks past the last occupied bucket (or buckets torn by a
    // concurrent writer) resolve to the largest observation.
    max
}

/// The `[lo, hi)` value range covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (f64, f64) {
    if index == UNDERFLOW {
        return (f64::NEG_INFINITY, 1e-9);
    }
    if index >= OVERFLOW {
        return (1e10, f64::INFINITY);
    }
    let slot = index - 1;
    let e = MIN_EXP + (slot / SUBS) as i32;
    let k = (slot % SUBS) as f64 + 1.0;
    let scale = 10f64.powi(e);
    (k * scale, (k + 1.0) * scale)
}

/// One generation of histogram storage.
pub(crate) struct HistShard {
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    pub(crate) nonfinite: AtomicU64,
    /// f64 bits, accumulated by CAS.
    pub(crate) sum_bits: AtomicU64,
    pub(crate) min_bits: AtomicU64,
    pub(crate) max_bits: AtomicU64,
    /// Observations currently mid-record on this shard; a reset waits
    /// for this to drain before zeroing, so no record is ever torn.
    writers: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        HistShard {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            nonfinite: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            writers: AtomicU64::new(0),
        }
    }

    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.nonfinite.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }

    fn observe(&self, v: f64) {
        if !v.is_finite() {
            self.nonfinite.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + v);
        atomic_f64_update(&self.min_bits, |m| m.min(v));
        atomic_f64_update(&self.max_bits, |m| m.max(v));
    }
}

/// Two-generation histogram storage; the inactive generation is always
/// zeroed, so flipping `active` *is* the reset.
pub(crate) struct HistogramInner {
    shards: [HistShard; 2],
    active: AtomicUsize,
    /// Serializes resets (the flip-then-drain sequence is not reentrant).
    reset_lock: Mutex<()>,
}

impl HistogramInner {
    pub(crate) fn new() -> Self {
        HistogramInner {
            shards: [HistShard::new(), HistShard::new()],
            active: AtomicUsize::new(0),
            reset_lock: Mutex::new(()),
        }
    }

    /// The generation snapshots should read.
    pub(crate) fn active_shard(&self) -> &HistShard {
        &self.shards[self.active.load(Ordering::Acquire) & 1]
    }

    /// Records one finite-or-not observation into the active generation,
    /// retrying on the fresh generation if a reset flips mid-record.
    ///
    /// The registration (`writers` increment, then `active` re-check) and
    /// [`HistogramInner::reset`]'s flip (`active` store, then `writers`
    /// load) are a store-buffering pair, so all four are `SeqCst`: with
    /// Release/Acquire alone both sides may read the old value (x86
    /// lets the `active` store drain after the `writers` load), and a
    /// writer would then record into a shard that reset is zeroing.
    pub(crate) fn record(&self, v: f64) {
        loop {
            let a = self.active.load(Ordering::Acquire) & 1;
            let shard = &self.shards[a];
            shard.writers.fetch_add(1, Ordering::SeqCst);
            if self.active.load(Ordering::SeqCst) & 1 != a {
                // A reset flipped between the load and the registration;
                // nothing was written yet, so just move to the new shard.
                shard.writers.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            shard.observe(v);
            shard.writers.fetch_sub(1, Ordering::AcqRel);
            return;
        }
    }

    /// Epoch-based reset: flips the active generation (new observations
    /// immediately land in pre-zeroed storage), waits out the old
    /// generation's in-flight writers, then zeroes it.
    pub(crate) fn reset(&self) {
        let _g = self.reset_lock.lock().unwrap_or_else(|e| e.into_inner());
        let old = self.active.load(Ordering::Acquire) & 1;
        // SeqCst: see `record` for the store-buffering pair.
        self.active.store(old ^ 1, Ordering::SeqCst);
        let mut spins = 0u32;
        while self.shards[old].writers.load(Ordering::SeqCst) != 0 {
            // A record is a handful of atomic ops; yield only if one is
            // somehow descheduled mid-flight.
            spins += 1;
            if spins > 1_000 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        self.shards[old].zero();
    }
}

fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A handle to a registered histogram. Cloning is cheap; all clones share
/// the same underlying buckets.
#[derive(Clone)]
pub struct Histogram {
    pub(crate) inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        self.inner.record(v);
    }

    /// Records a duration in seconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of finite observations recorded.
    pub fn count(&self) -> u64 {
        self.inner.active_shard().count.load(Ordering::Relaxed)
    }

    /// Approximate quantile of everything recorded so far, straight off
    /// the live buckets — no snapshot, no allocation. `NaN` when empty;
    /// accuracy is bounded by the log-linear bucket width (~11%). See
    /// [`quantile_over`] for the selection rule.
    pub fn quantile(&self, q: f64) -> f64 {
        let sh = self.inner.active_shard();
        let count = sh.count.load(Ordering::Relaxed);
        if count == 0 {
            return f64::NAN;
        }
        let min = f64::from_bits(sh.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(sh.max_bits.load(Ordering::Relaxed));
        quantile_over(
            count,
            (0..BUCKETS).map(|i| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, sh.buckets[i].load(Ordering::Relaxed))
            }),
            q,
            min,
            max,
        )
    }

    /// Copies the live bucket counts into `out` (indexed by bucket
    /// index, [`bucket_bounds`] gives each slot's range) and returns
    /// `(count, min, max)`. This is the sampler's allocation-free read
    /// path; concurrent writers can skew `Σ out` vs `count` by the
    /// number of in-flight records, never more.
    pub fn copy_buckets(&self, out: &mut [u64; BUCKETS]) -> (u64, f64, f64) {
        let sh = self.inner.active_shard();
        for (slot, bucket) in out.iter_mut().zip(sh.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        (
            sh.count.load(Ordering::Relaxed),
            f64::from_bits(sh.min_bits.load(Ordering::Relaxed)),
            f64::from_bits(sh.max_bits.load(Ordering::Relaxed)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_decades() {
        assert_eq!(bucket_index(0.0), UNDERFLOW);
        assert_eq!(bucket_index(-3.0), UNDERFLOW);
        assert_eq!(bucket_index(1e-10), UNDERFLOW);
        assert_eq!(bucket_index(1e11), OVERFLOW);
        // 1.0 is the first sub-bucket of decade e=0.
        let (lo, hi) = bucket_bounds(bucket_index(1.0));
        assert!(lo <= 1.0 && 1.0 < hi);
        for &v in &[1e-9, 2.5e-4, 0.999, 1.0, 3.7, 9.99, 10.0, 123.0, 9.9e9] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v < hi, "v={v} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn relative_resolution_bounded() {
        // Every regular bucket's width is at most its lower bound, i.e.
        // ≤ 100% at k=1... actually (k+1)/k - 1 ≤ 1 for k=1, and the mean
        // relative error of the midpoint estimate stays under ~11% for
        // sorted data; spot-check the widths.
        for idx in 1..BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(idx);
            assert!(hi > lo);
            assert!((hi - lo) / lo <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn bounds_are_contiguous() {
        for idx in 1..BUCKETS - 2 {
            let (_, hi) = bucket_bounds(idx);
            let (lo_next, _) = bucket_bounds(idx + 1);
            assert!(
                (hi - lo_next).abs() <= 1e-12 * hi.abs(),
                "gap between bucket {idx} and {}",
                idx + 1
            );
        }
    }

    /// `Histogram::quantile` against exact sample sets: every answer
    /// must land inside the bucket that holds the true order statistic,
    /// i.e. within the documented ~11% relative resolution.
    #[test]
    fn live_quantile_tracks_exact_order_statistics() {
        let _g = crate::test_guard();
        let h = crate::histogram("hist.test.live_quantile");
        assert!(h.quantile(0.5).is_nan(), "empty histogram quantile is NaN");
        // Exact set: 1..=1000 (uniform over three decades).
        for i in 1..=1000 {
            h.record(i as f64);
        }
        for (q, exact) in [(0.0, 1.0), (0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            assert!(
                got >= lo * 0.999 && got <= hi * 1.001,
                "q={q}: got {got}, exact {exact} lives in [{lo}, {hi})"
            );
        }
        assert_eq!(h.quantile(1.0), 1000.0, "p100 clamps to the observed max");
        // Point mass: every quantile is the single value.
        let point = crate::histogram("hist.test.point_mass");
        for _ in 0..32 {
            point.record(3.0);
        }
        for q in [0.01, 0.5, 0.99] {
            let v = point.quantile(q);
            assert!((3.0..4.0).contains(&v), "point mass q={q} -> {v}");
        }
        // Two-value set {1.0 x9, 100.0 x1}: p50 in 1.0's bucket, p99 at
        // the top.
        let two = crate::histogram("hist.test.two_values");
        for _ in 0..9 {
            two.record(1.0);
        }
        two.record(100.0);
        assert!(two.quantile(0.5) < 2.0);
        assert!(two.quantile(0.99) >= 100.0);
        // Live handle and snapshot agree (same kernel, same buckets).
        let snap = crate::snapshot();
        let hs = &snap.histograms["hist.test.live_quantile"];
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(h.quantile(q), hs.quantile(q), "q={q}");
        }
    }

    #[test]
    fn copy_buckets_matches_count() {
        let _g = crate::test_guard();
        let h = crate::histogram("hist.test.copy_buckets");
        for v in [0.5, 0.5, 2.0, 30.0] {
            h.record(v);
        }
        let mut out = [0u64; BUCKETS];
        let (count, min, max) = h.copy_buckets(&mut out);
        assert_eq!(count, 4);
        assert_eq!(out.iter().sum::<u64>(), 4);
        assert_eq!(min, 0.5);
        assert_eq!(max, 30.0);
        assert_eq!(out[bucket_index(0.5)], 2);
    }

    /// The shard invariant `Σ buckets == count` (and consistent sum /
    /// min / max) must hold no matter how resets interleave with
    /// concurrent records — the race the old in-place reset lost. Each
    /// reset runs while the writers are recording; the writers are then
    /// parked at a barrier between records, so the check is exact rather
    /// than a skew allowance that a preempted reader could exceed.
    #[test]
    fn concurrent_reset_never_tears() {
        const WRITERS: usize = 4;
        let _g = crate::test_guard();
        let inner = Arc::new(HistogramInner::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pause = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let barrier = Arc::new(std::sync::Barrier::new(WRITERS + 1));
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let inner = Arc::clone(&inner);
                let stop = Arc::clone(&stop);
                let pause = Arc::clone(&pause);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if pause.load(Ordering::Acquire) {
                            // Parked between records while the main
                            // thread checks, then released.
                            barrier.wait();
                            barrier.wait();
                            continue;
                        }
                        // Values from a fixed small set so expectations
                        // are exact per shard state.
                        inner.record([0.5, 2.0, 30.0][(w + i as usize) % 3]);
                        i += 1;
                    }
                })
            })
            .collect();
        for round in 0..200 {
            inner.reset();
            std::thread::yield_now();
            pause.store(true, Ordering::Release);
            barrier.wait();
            // Every writer is parked; clear the flag before releasing them.
            pause.store(false, Ordering::Release);
            let shard = inner.active_shard();
            let bucket_total: u64 = shard
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .sum();
            let count = shard.count.load(Ordering::Relaxed);
            assert_eq!(
                bucket_total, count,
                "torn in round {round}: buckets {bucket_total} vs count {count}"
            );
            barrier.wait();
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        // Quiesced: the invariant must be exact, and stay exact across
        // one more reset.
        for _ in 0..2 {
            let shard = inner.active_shard();
            let bucket_total: u64 = shard
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .sum();
            let count = shard.count.load(Ordering::Relaxed);
            assert_eq!(bucket_total, count, "torn after quiesce");
            let sum = f64::from_bits(shard.sum_bits.load(Ordering::Relaxed));
            assert!(sum.is_finite() && sum >= 0.0);
            if count > 0 {
                let min = f64::from_bits(shard.min_bits.load(Ordering::Relaxed));
                let max = f64::from_bits(shard.max_bits.load(Ordering::Relaxed));
                assert!((0.5..=30.0).contains(&min));
                assert!((0.5..=30.0).contains(&max));
                assert!(min <= max);
            }
            inner.reset();
        }
        let shard = inner.active_shard();
        assert_eq!(shard.count.load(Ordering::Relaxed), 0);
    }
}
