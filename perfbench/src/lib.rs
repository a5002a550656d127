//! End-to-end benchmark of the accrel workspace.
//!
//! Three workloads, each one closed-loop client on one thread:
//!
//! * `guided-mix` — LtrGuided and Hybrid over the paper scenarios and
//!   seeded random cases: the decision procedures do nearly all the work;
//! * `flood-chain` — Hybrid under precise invalidation on seeded
//!   adom-flooding chains: frontier, store growth, invalidation and cache
//!   hits do the work;
//! * `serving-e5` — rounds of mixed sessions served cold, journaled,
//!   replayed and served warm over the E5 world at 10⁵ hidden facts.
//!
//! An untraced run reports the end-to-end metrics; a separate traced run
//! reports per-layer self times and counts from spans recorded around the
//! calls the benchmark makes into each layer (see [`trace`]). Every run is
//! checked against an Exhaustive reference. `NOTES.md` records why each
//! workload was chosen and the first measured baseline.

#![forbid(unsafe_code)]

pub mod hostclock;
pub mod report;
pub mod rng;
pub mod sequential;
pub mod sequential_run;
pub mod serving;
pub mod serving_run;
pub mod trace;
pub mod workloads;
