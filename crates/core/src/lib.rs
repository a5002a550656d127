//! # accrel-core
//!
//! The primary contribution of *Determining Relevance of Accesses at Runtime*
//! (Benedikt, Gottlob & Senellart, PODS 2011): decision procedures for
//!
//! * **immediate relevance** ([`ir`]) — can a single access change the
//!   certain answers of a query right now? (DP-complete, Proposition 4.1);
//! * **long-term relevance** with independent accesses
//!   ([`ltr_independent`]) — ΣP2-complete in general (Proposition 4.5),
//!   coNP-complete when the accessed relation occurs once
//!   (Proposition 4.3);
//! * **query containment under access limitations** ([`containment`]) —
//!   coNEXPTIME-complete for CQs, co2NEXPTIME-complete for PQs
//!   (Theorems 5.1/5.2/5.6); the witness search follows the paper's
//!   tree-like ("crayfish chase") counterexample structure and is complete
//!   relative to a configurable [`SearchBudget`];
//! * **long-term relevance** with dependent accesses ([`ltr_dependent`]) —
//!   NEXPTIME-complete for CQs, 2NEXPTIME-complete for PQs, decided here by
//!   a direct witness-path search sharing the containment machinery;
//! * the **reductions** of Section 3 connecting relevance and containment
//!   ([`reductions`]), and the Proposition 2.2 reduction from arity-`k`
//!   relevance to Boolean relevance;
//! * **critical tuples** ([`critical`]) in the sense of Miklau & Suciu,
//!   whose complement is the source of the ΣP2 lower bound for independent
//!   LTR (Theorem 4.6).
//!
//! The top-level entry points are [`is_immediately_relevant`],
//! [`is_long_term_relevant`] and [`is_contained`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod budget;
pub mod containment;
pub mod critical;
pub mod ir;
pub mod ltr_dependent;
pub mod ltr_independent;
pub mod reductions;
mod search;

pub use budget::SearchBudget;
pub use containment::{is_contained, ContainmentOutcome, NonContainmentWitness};
pub use ir::{is_immediately_relevant, IrWitness};
pub use ltr_dependent::{is_ltr_dependent, is_ltr_dependent_trailed};
pub use ltr_independent::is_ltr_independent;

use accrel_access::{Access, AccessMethods, AccessMode};
use accrel_query::Query;
use accrel_schema::Configuration;

/// Decides long-term relevance of `access` for `query` at `conf`, choosing
/// the algorithm by the access modes in play:
///
/// * if every method is independent the exact ΣP2 procedure of Section 4 is
///   used;
/// * otherwise the budget-bounded dependent-access witness search of
///   Section 5 is used.
pub fn is_long_term_relevant(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    if methods
        .methods()
        .iter()
        .all(|m| m.mode() == AccessMode::Independent)
    {
        ltr_independent::is_ltr_independent_budgeted(query, conf, access, methods, budget)
    } else {
        ltr_dependent::is_ltr_dependent(query, conf, access, methods, budget)
    }
}

/// The trail-backed variant of [`is_long_term_relevant`] for callers that
/// own their configuration mutably (the engine's merge loop and its eager
/// predictor): the dependent-access witness search speculates on the
/// live store under a trail mark instead of snapshotting it, and `conf` is
/// restored byte-for-byte before returning. The independent-access
/// procedure is read-only and dispatches unchanged.
pub fn is_long_term_relevant_trailed(
    query: &Query,
    conf: &mut Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    if methods
        .methods()
        .iter()
        .all(|m| m.mode() == AccessMode::Independent)
    {
        ltr_independent::is_ltr_independent_budgeted(query, conf, access, methods, budget)
    } else {
        ltr_dependent::is_ltr_dependent_trailed(query, conf, access, methods, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::binding;
    use accrel_query::{ConjunctiveQuery, Term};
    use accrel_schema::Schema;

    #[test]
    fn dispatcher_routes_independent_and_dependent_cases() {
        // Example 2.1: Q = S ⋈ T, empty conf, dependent access on T,
        // access on S is LTR.
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("S", &[("a", d), ("b", d)]).unwrap();
        b.relation("T", &[("b", d), ("c", d)]).unwrap();
        let schema = b.build();

        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        qb.atom("S", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("T", vec![Term::Var(y), Term::Var(z)]).unwrap();
        let q: Query = qb.build().into();

        // Dependent flavour.
        let mut mb = AccessMethods::builder(schema.clone());
        let s_acc = mb.add_free("SAcc", "S", AccessMode::Independent).unwrap();
        mb.add("TAcc", "T", &["b"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let conf = Configuration::empty(schema.clone());
        let access = Access::new(s_acc, binding(Vec::<&str>::new()));
        assert!(is_long_term_relevant(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));

        // Fully independent flavour routes through the ΣP2 procedure.
        let mut mb = AccessMethods::builder(schema.clone());
        let s_acc = mb.add_free("SAcc", "S", AccessMode::Independent).unwrap();
        mb.add("TAcc", "T", &["b"], AccessMode::Independent)
            .unwrap();
        let methods = mb.build();
        let conf = Configuration::empty(schema);
        let access = Access::new(s_acc, binding(Vec::<&str>::new()));
        assert!(is_long_term_relevant(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));
    }
}
