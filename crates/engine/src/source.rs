//! Simulated deep-Web sources.

use std::cell::RefCell;

use accrel_access::{Access, AccessMethods, Response};
use accrel_schema::{Instance, Tuple};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How a source answers accesses.
///
/// The paper only assumes accesses are *sound* (any subset of the matching
/// tuples may come back, possibly a different one each time); `Exact`
/// models the classical assumption of Li & Chang / Calì & Martinenghi,
/// while the other policies exercise the weaker contract.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponsePolicy {
    /// Return every matching tuple (`I(Bind, R)`).
    Exact,
    /// Return each matching tuple independently with the given probability.
    ///
    /// The sample is drawn from an RNG seeded per access
    /// (`Access::stable_hash` mixed with `seed`, like the federation
    /// backends' latency/flakiness models), so the response to a given
    /// access is a deterministic function of the access alone — the same
    /// subset comes back no matter when, how often, or on which thread the
    /// access is executed. That order-insensitivity is what admits
    /// `SoundSample` into the merge loop's sequential-equivalence guarantee
    /// (see the [`crate::merge`] module docs).
    SoundSample {
        /// Probability of including each matching tuple.
        probability: f64,
        /// Seed mixed into every per-access hash, so distinct sources (or
        /// reruns with a different seed) sample differently.
        seed: u64,
    },
    /// Return at most the first `k` matching tuples (in sorted order).
    FirstK(
        /// Maximum number of tuples returned per access.
        usize,
    ),
}

impl ResponsePolicy {
    /// Applies this policy to the *sorted* exact answer of `access`,
    /// returning the tuples the source actually hands back.
    ///
    /// This is the single selection routine behind every policy-aware
    /// source ([`DeepWebSource`] here, `SimulatedSource::with_policy` in
    /// `accrel-federation`): any two sources holding the same hidden
    /// instance and the same policy (same `SoundSample` seed) answer each
    /// access byte-for-byte identically — the property replica failover
    /// relies on. The selection is a pure function of `(access, policy,
    /// tuples)`; callers must pass the tuples sorted so that `FirstK` and
    /// the `SoundSample` RNG walk see a canonical order.
    pub fn apply(&self, access: &Access, mut tuples: Vec<Tuple>) -> Vec<Tuple> {
        match self {
            ResponsePolicy::Exact => tuples,
            ResponsePolicy::FirstK(k) => {
                tuples.truncate(*k);
                tuples
            }
            ResponsePolicy::SoundSample { probability, seed } => {
                // Hash-seeded per access: the sample (and its order) is a
                // pure function of (access, seed), never of call order.
                let mut rng = StdRng::seed_from_u64(access.stable_hash_seeded(*seed));
                let mut kept: Vec<_> = tuples
                    .iter()
                    .filter(|_| rng.gen::<f64>() < *probability)
                    .cloned()
                    .collect();
                // Sound responses may also come back in any order.
                kept.shuffle(&mut rng);
                kept
            }
        }
    }
}

/// Cumulative statistics about the calls made to a source.
///
/// Successful, retried and ultimately-failed calls are tracked separately:
/// `calls` counts only the calls that delivered a response, while transient
/// failures absorbed by a retry loop land in `retries` and calls abandoned
/// after exhausting their retries land in `failures`. The in-process
/// [`DeepWebSource`] never fails, so it only ever increments `calls`; the
/// simulated backends of `accrel-federation` fill in the other two.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Number of accesses that delivered a response.
    pub calls: usize,
    /// Transient failures that were absorbed by retrying.
    pub retries: usize,
    /// Calls that ultimately failed (no response delivered).
    pub failures: usize,
    /// Total number of tuples returned across all successful calls.
    pub tuples_returned: usize,
}

impl SourceStats {
    /// The traffic accumulated since `earlier` (field-wise difference of two
    /// snapshots of the same monotone counters).
    pub fn since(&self, earlier: &SourceStats) -> SourceStats {
        SourceStats {
            calls: self.calls.saturating_sub(earlier.calls),
            retries: self.retries.saturating_sub(earlier.retries),
            failures: self.failures.saturating_sub(earlier.failures),
            tuples_returned: self.tuples_returned.saturating_sub(earlier.tuples_returned),
        }
    }

    /// Field-wise sum of two stats (for aggregating across the sources of a
    /// federation).
    pub fn merged(&self, other: &SourceStats) -> SourceStats {
        SourceStats {
            calls: self.calls + other.calls,
            retries: self.retries + other.retries,
            failures: self.failures + other.failures,
            tuples_returned: self.tuples_returned + other.tuples_returned,
        }
    }
}

/// A deep-Web source: a hidden instance exposed only through access methods.
///
/// The engine never reads the instance directly; it can only learn about it
/// by making accesses, exactly as in the paper's model.
#[derive(Debug)]
pub struct DeepWebSource {
    instance: Instance,
    methods: AccessMethods,
    policy: ResponsePolicy,
    stats: RefCell<SourceStats>,
}

impl DeepWebSource {
    /// Creates a source over `instance` with the given access methods and
    /// response policy.
    pub fn new(instance: Instance, methods: AccessMethods, policy: ResponsePolicy) -> Self {
        Self {
            instance,
            methods,
            policy,
            stats: RefCell::new(SourceStats::default()),
        }
    }

    /// The access methods exposed by this source.
    pub fn methods(&self) -> &AccessMethods {
        &self.methods
    }

    /// The hidden instance (exposed for tests and ground-truth checks only).
    pub fn hidden_instance(&self) -> &Instance {
        &self.instance
    }

    /// Statistics on the calls made so far.
    pub fn stats(&self) -> SourceStats {
        self.stats.borrow().clone()
    }

    /// Resets the call statistics.
    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = SourceStats::default();
    }

    /// Executes an access and returns its (sound) response.
    ///
    /// The caller is responsible for only submitting accesses that are
    /// well-formed for its configuration; the source itself does not know
    /// the caller's configuration.
    pub fn call(&self, access: &Access) -> accrel_access::Result<Response> {
        let exact = Response::exact(access, &self.methods, &self.instance)?;
        let mut tuples: Vec<_> = exact.tuples().to_vec();
        tuples.sort();
        let selected = self.policy.apply(access, tuples);
        let mut stats = self.stats.borrow_mut();
        stats.calls += 1;
        stats.tuples_returned += selected.len();
        Ok(Response::new(selected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::{binding, AccessMode};
    use accrel_schema::Schema;

    fn setup(policy: ResponsePolicy) -> (DeepWebSource, Access) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        let acc = mb.add("RAcc", "R", &["a"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut inst = Instance::new(schema);
        for i in 0..10 {
            inst.insert_named("R", ["k".to_string(), format!("v{i}")])
                .unwrap();
        }
        inst.insert_named("R", ["other", "w"]).unwrap();
        let source = DeepWebSource::new(inst, methods, policy);
        (source, Access::new(acc, binding(["k"])))
    }

    #[test]
    fn exact_policy_returns_all_matching_tuples() {
        let (source, access) = setup(ResponsePolicy::Exact);
        let resp = source.call(&access).unwrap();
        assert_eq!(resp.len(), 10);
        assert_eq!(source.stats().calls, 1);
        assert_eq!(source.stats().tuples_returned, 10);
        assert_eq!(source.hidden_instance().len(), 11);
        source.reset_stats();
        assert_eq!(source.stats(), SourceStats::default());
    }

    #[test]
    fn first_k_policy_truncates() {
        let (source, access) = setup(ResponsePolicy::FirstK(3));
        let resp = source.call(&access).unwrap();
        assert_eq!(resp.len(), 3);
        // Every returned tuple is sound.
        assert!(resp
            .validate_against(&access, source.methods(), source.hidden_instance())
            .is_ok());
    }

    #[test]
    fn sound_sample_policy_returns_a_sound_subset_deterministically() {
        let (source, access) = setup(ResponsePolicy::SoundSample {
            probability: 0.5,
            seed: 42,
        });
        let first = source.call(&access).unwrap();
        assert!(first.len() <= 10);
        assert!(first
            .validate_against(&access, source.methods(), source.hidden_instance())
            .is_ok());
        // A fresh source with the same seed gives the same first response.
        let (source2, access2) = setup(ResponsePolicy::SoundSample {
            probability: 0.5,
            seed: 42,
        });
        let repeat = source2.call(&access2).unwrap();
        let mut a: Vec<_> = first.tuples().to_vec();
        let mut b: Vec<_> = repeat.tuples().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn sound_sample_is_order_insensitive_per_access() {
        // The sample is hash-seeded per access: interleaving other calls
        // (or repeating the access) never changes its response — the
        // precondition for sampled runs entering the merge loop's
        // sequential-equivalence guarantee.
        let policy = ResponsePolicy::SoundSample {
            probability: 0.5,
            seed: 7,
        };
        let (source, access) = setup(policy.clone());
        let mut baseline: Vec<_> = source.call(&access).unwrap().tuples().to_vec();
        baseline.sort();
        // Same source, later in the call stream: identical sample.
        let mut again: Vec<_> = source.call(&access).unwrap().tuples().to_vec();
        again.sort();
        assert_eq!(again, baseline);
        // A fresh source where a *different* access is drawn first still
        // answers `access` identically, and the response is shuffled
        // identically too (full byte-equality, not just set-equality).
        let (source2, access2) = setup(policy.clone());
        let other = Access::new(access2.method(), binding(["other"]));
        let _ = source2.call(&other).unwrap();
        assert_eq!(
            source2.call(&access2).unwrap().tuples(),
            source.call(&access).unwrap().tuples()
        );
        // A different seed draws a different stream for the same access.
        let (source3, access3) = setup(ResponsePolicy::SoundSample {
            probability: 0.5,
            seed: 8,
        });
        let mut reseeded: Vec<_> = source3.call(&access3).unwrap().tuples().to_vec();
        reseeded.sort();
        assert_ne!(reseeded, baseline);
    }

    #[test]
    fn calls_accumulate_statistics() {
        let (source, access) = setup(ResponsePolicy::Exact);
        source.call(&access).unwrap();
        source.call(&access).unwrap();
        assert_eq!(source.stats().calls, 2);
        assert_eq!(source.stats().tuples_returned, 20);
    }
}
