//! # accrel-access
//!
//! The access-limitation model of Section 2 of the paper:
//!
//! * [`AccessMethod`] — a relation plus a set of *input attributes*; calling
//!   the method with a binding for the input attributes returns (a sound
//!   subset of) the matching tuples. Methods are either *dependent* (input
//!   values must already occur in the configuration, in the right abstract
//!   domain) or *independent* (any value may be guessed);
//! * [`Access`] — a method together with a concrete [`Binding`];
//! * [`Response`] — the set of tuples returned by one access. Accesses are
//!   *sound* but not assumed *exact*: any subset of the matching tuples of
//!   the underlying instance may come back, possibly different on each use;
//! * [`AccessPath`] — a sequence of accesses with their responses, its
//!   successor-configuration semantics, and the *truncation* operation used
//!   to define long-term relevance;
//! * enumeration of the well-formed accesses available at a configuration
//!   ([`enumerate`]), and its incremental form ([`frontier::AccessFrontier`])
//!   that only emits accesses involving newly-added active-domain values —
//!   the candidate source of the engine's merge loop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod access;
pub mod enumerate;
mod error;
pub mod frontier;
mod method;
mod path;
mod response;

pub use access::{binding, Access, Binding};
pub use error::AccessError;
pub use frontier::AccessFrontier;
pub use method::{AccessMethod, AccessMethodId, AccessMethods, AccessMethodsBuilder, AccessMode};
pub use path::{AccessPath, PathStep};
pub use response::{apply_access, apply_access_in_place, Response};

/// Result alias for fallible access-level operations.
pub type Result<T> = std::result::Result<T, AccessError>;
