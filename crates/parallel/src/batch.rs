//! Batched execution with deterministic ordering and per-slot panic
//! isolation.
//!
//! [`solve_batch`] fans a slice of independent problems across forked
//! threads (the same chunked `crossbeam::thread::scope` layout as
//! [`crate::par_map`]) but differs in failure semantics: each slot runs
//! under `catch_unwind`, so a panicking solve poisons only its own slot
//! — sibling results are returned intact, the scope join never sees a
//! panicked worker, and the output order always matches the input order
//! regardless of thread count.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use crate::scoped::ParallelConfig;

/// Cached observability handles for the batch entry points.
struct BatchMetrics {
    calls: mfcp_obs::Counter,
    items: mfcp_obs::Histogram,
    panics: mfcp_obs::Counter,
}

fn metrics() -> &'static BatchMetrics {
    static METRICS: OnceLock<BatchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| BatchMetrics {
        calls: mfcp_obs::counter("parallel.batch.calls"),
        items: mfcp_obs::histogram("parallel.batch.items"),
        panics: mfcp_obs::counter("parallel.batch.panics"),
    })
}

/// A panic captured from one batch slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPanic {
    /// Input index of the slot whose closure panicked.
    pub index: usize,
    /// Stringified panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl fmt::Display for SlotPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch slot {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for SlotPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn run_slot<T, R, F>(index: usize, item: &T, solve: &F) -> Result<R, SlotPanic>
where
    F: Fn(usize, &T) -> R + Sync,
{
    catch_unwind(AssertUnwindSafe(|| solve(index, item))).map_err(|payload| {
        mfcp_obs::trace::instant("batch.slot_panic", Some(index as u64));
        SlotPanic {
            index,
            message: panic_message(payload),
        }
    })
}

/// Solves every element of `items` with `solve`, returning one result
/// per slot **in input order** regardless of how the work was scheduled.
///
/// `solve` receives the input index alongside the item. A panic inside
/// `solve` is captured as [`SlotPanic`] for that slot only; all sibling
/// slots still return their results and the internal join can never
/// deadlock on the panicked worker. The sequential path (forced by
/// [`ParallelConfig::sequential`] or small inputs) has identical
/// semantics, which is what makes batched-vs-sequential runs comparable
/// bit for bit.
///
/// ```
/// use mfcp_parallel::{solve_batch, ParallelConfig};
/// let out = solve_batch(&ParallelConfig::with_threads(4), &[1u64, 2, 3], |_, &x| x * x);
/// assert_eq!(out.len(), 3);
/// assert_eq!(*out[2].as_ref().unwrap(), 9);
/// ```
pub fn solve_batch<T, R, F>(
    config: &ParallelConfig,
    items: &[T],
    solve: F,
) -> Vec<Result<R, SlotPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let m = metrics();
    m.calls.inc();
    m.items.record(items.len() as f64);
    let threads = config.effective_threads(items.len());
    let out: Vec<Result<R, SlotPanic>> = if threads <= 1 {
        items
            .iter()
            .enumerate()
            .map(|(i, item)| run_slot(i, item, &solve))
            .collect()
    } else {
        let chunk = items.len().div_ceil(threads);
        let mut out: Vec<Option<Result<R, SlotPanic>>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        crossbeam::thread::scope(|scope| {
            let solve = &solve;
            let mut rest = out.as_mut_slice();
            for (ci, in_chunk) in items.chunks(chunk).enumerate() {
                let (head, tail) = rest.split_at_mut(in_chunk.len());
                rest = tail;
                let base = ci * chunk;
                scope.spawn(move |_| {
                    for (slot, (off, item)) in head.iter_mut().zip(in_chunk.iter().enumerate()) {
                        *slot = Some(run_slot(base + off, item, solve));
                    }
                });
            }
        })
        .expect("solve_batch workers catch their own panics");
        out.into_iter().map(|v| v.expect("slot filled")).collect()
    };
    for slot in &out {
        if slot.is_err() {
            m.panics.inc();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_matches_sequential_bit_for_bit() {
        let items: Vec<f64> = (0..97).map(|i| i as f64 * 0.37 - 5.0).collect();
        let f = |i: usize, x: &f64| (x.sin() * x.cos() + i as f64).to_bits();
        let seq = solve_batch(&ParallelConfig::sequential(), &items, f);
        let par = solve_batch(&ParallelConfig::with_threads(8), &items, f);
        assert_eq!(seq, par);
        assert!(seq.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn panicking_slot_does_not_corrupt_siblings() {
        let items: Vec<usize> = (0..64).collect();
        let out = solve_batch(&ParallelConfig::with_threads(4), &items, |_, &x| {
            if x == 13 {
                panic!("slot 13 exploded");
            }
            x * 2
        });
        assert_eq!(out.len(), 64);
        for (i, slot) in out.iter().enumerate() {
            if i == 13 {
                let err = slot.as_ref().unwrap_err();
                assert_eq!(err.index, 13);
                assert!(err.message.contains("slot 13 exploded"));
            } else {
                assert_eq!(*slot.as_ref().unwrap(), i * 2);
            }
        }
    }

    #[test]
    fn every_slot_panicking_still_returns_in_order() {
        let items: Vec<usize> = (0..16).collect();
        let out = solve_batch(&ParallelConfig::with_threads(4), &items, |i, _: &usize| {
            panic!("boom {i}");
        });
        let indices: Vec<usize> = out
            .iter()
            .map(|r| match r {
                Ok(()) => unreachable!("every slot panics"),
                Err(p) => p.index,
            })
            .collect();
        assert_eq!(indices, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_fine() {
        let items: Vec<u8> = vec![];
        let out = solve_batch(&ParallelConfig::default(), &items, |_, &x| x);
        assert!(out.is_empty());
    }
}
