//! Online serving for the computing resource exchange.
//!
//! Everything else in the workspace is batch: train predictors, solve a
//! matching, report. The paper's platform, though, operates
//! continuously — tasks arrive and depart all day, clusters drop out
//! and rejoin, and the exchange must keep a current matching through
//! all of it. This crate is that serving layer, hardened end to end:
//!
//! * [`daemon`] — the event loop: admission control with a bounded
//!   pending queue and load shedding, incremental re-solves through
//!   `RobustSolver::solve_cached` seeded with the previous matching
//!   carried onto the current task set (`SeedKind::Carried`), per-resolve
//!   deadline budgets with cooperative cancellation, and degraded
//!   greedy-only mode under overload.
//! * [`state`] — crash-consistent snapshot/restore: the full exchange
//!   state round-trips through a versioned text document written
//!   atomically (temp file + fsync + rename), so the daemon can be
//!   SIGKILLed at any instant and resume deterministically.
//! * [`replay`] — the trace-replay driver and the chaos harness
//!   (kill/restore mid-stream); the differential test demands
//!   bit-identical final matchings with and without kills.
//!
//! SLO accounting (`serve.admitted`, `serve.shed`,
//! `serve.deadline_miss`, `serve.match_latency_secs`, `serve.resolve`
//! spans and friends) flows through `mfcp-obs` like the rest of the
//! pipeline. See DESIGN.md, "Online serving and crash recovery".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod replay;
pub mod state;

pub use daemon::{DaemonConfig, ExchangeDaemon, MatrixSource};
pub use replay::{replay, replay_with_kills, ReplayOutcome};
pub use state::{ExchangeState, LastSolution, ServeCounters, SnapshotError};
