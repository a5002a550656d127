//! # accrel-federation
//!
//! The concurrent federation runtime: the execution layer that turns the
//! paper's "mediator querying many autonomous deep-Web sources" motivation
//! into a measurable subsystem.
//!
//! * [`Source`] — a thread-safe deep-Web source. [`SimulatedSource`]
//!   composes backend models (per-source [`LatencyModel`] distributions,
//!   deterministic [`FlakyModel`] transient failures with retry accounting,
//!   paged responses) over a hidden instance; [`PolicySource`] adapts the
//!   engine crate's [`accrel_engine::DeepWebSource`] and its response
//!   policies.
//! * [`Federation`] — the registry mapping access methods to the sources
//!   that serve them, with per-source and aggregate [`BackendStats`].
//! * [`Threaded`] — drives the engine's one round loop,
//!   [`accrel_engine::MergeLoop`], fetching each relevance-verified batch of
//!   accesses concurrently through `std::thread::scope` while reporting
//!   exactly the sequential engine's `access_sequence`, relevance verdicts,
//!   certain answers and final configuration (see [`accrel_engine::merge`]
//!   for the determinism invariant).
//! * [`parallel_relevance_sweep`] — fan-out evaluation of the (pure)
//!   relevance decision procedures across worker threads, each holding an
//!   O(relations) copy-on-write snapshot of the configuration
//!   ([`parallel_relevance_sweep_report`] additionally reports that no
//!   worker copied a shard).
//!
//! ## The async runtime
//!
//! High-latency sources want overlapping in-flight accesses, not more
//! threads. The [`executor`] module is a hand-rolled, dependency-free
//! single-threaded mini-executor ([`Executor`]) over a deterministic
//! [`VirtualClock`] timer wheel — latency models elapse as awaited virtual
//! sleeps, so throughput experiments need no real time at all. On top of
//! it:
//!
//! * [`AsyncSource`] — the async twin of [`Source`];
//!   [`AsyncSimulatedSource`] replays a [`SimulatedSource`]'s
//!   latency/flaky-retry/paging models as awaitable state machines (one
//!   virtual round trip per await), and [`BlockingSource`] lifts any sync
//!   source (e.g. [`PolicySource`]) into a one-poll future.
//! * [`AsyncFederation`] — the routing registry over async sources, owning
//!   the shared virtual clock.
//! * [`Async`] — the *same* merge loop (shared, not copied), with batches
//!   realised as concurrently-polled futures capped by a FIFO [`Semaphore`]
//!   of `workers` permits; its sequential equivalence is pinned by the
//!   async grid in `tests/federation_equivalence.rs`, and
//!   `clock().now_micros()` measures a run's simulated makespan (the F2
//!   harness sweep).
//!
//! ## The serving layer
//!
//! [`serving`] stacks a multi-tenant front end on the async runtime: a
//! [`QuerySessionRegistry`] admits many concurrent query sessions over one
//! shared [`AsyncFederation`], deduplicates identical in-flight accesses
//! across sessions (two sessions wanting the same access share one wire
//! call), and persists relevance verdicts across sessions through a shared
//! [`accrel_engine::SharedVerdictCache`]. The F3 harness table measures its
//! aggregate throughput and per-session latency percentiles against session
//! count.
//!
//! ## Executors
//!
//! All execution layers answer the same [`accrel_engine::RunRequest`]
//! through the [`accrel_engine::Executor`] trait: the engine crate's
//! [`accrel_engine::Sequential`] (one blocking call at a time), this
//! crate's [`Threaded`] (scoped-thread batches over a [`Federation`]),
//! [`Async`] (virtual-clock futures over an [`AsyncFederation`]) and
//! [`Serving`] (one session on the multi-tenant registry). All four drive
//! the one [`accrel_engine::MergeLoop`] and differ only in how they fetch a
//! batch; the equivalence grid iterates executors.
//!
//! Garrison & Lee-style actor simulations motivate the backend models:
//! heterogeneous latency/failure behaviour makes the runtime measurable
//! without leaving the deterministic, offline test environment.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod async_federation;
mod async_scheduler;
mod async_source;
pub mod chaos;
mod error;
pub mod executor;
mod federation;
pub mod journal;
pub mod scheduler;
pub mod serving;
mod source;
mod sweep;

pub use async_federation::{AsyncFederation, AsyncFederationBuilder};
pub use async_scheduler::Async;
pub use async_source::{AsyncSimulatedSource, AsyncSource, BlockingSource, SourceFuture};
pub use chaos::{
    BreakerOptions, BreakerState, ChaosController, ChaosOptions, ChurnAction, ChurnEvent,
    ChurnScript, ChurnScriptBuilder, CircuitBreaker,
};
pub use error::{FederationError, SourceError};
pub use executor::{yield_now, Executor, JoinHandle, Semaphore, Sleep, VirtualClock, YieldNow};
pub use federation::{Federation, FederationBuilder};
pub use journal::RunJournal;
pub use scheduler::Threaded;
pub use serving::{QuerySessionRegistry, Serving, ServingOptions, ServingReport, SessionReport};
pub use source::{BackendStats, FlakyModel, LatencyModel, PolicySource, SimulatedSource, Source};
pub use sweep::{parallel_relevance_sweep, parallel_relevance_sweep_report, SweepReport};
