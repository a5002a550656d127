//! The one round loop every executor drives.
//!
//! [`MergeLoop`] is the paper's dynamic evaluation as a sans-IO state
//! machine: each round checks whether the query is already certain,
//! refreshes the incremental access frontier, asks the [`RelevanceOracle`]
//! which pending access the [`Strategy`] executes next, and — once the
//! driver has fetched its response — applies it and evicts the cached
//! verdicts the growth touched ([`RelevanceOracle::observe_growth`]).
//! [`MergeLoop::step`] runs rounds until the run finishes
//! ([`MergeStep::Done`]) or needs responses for a predicted batch
//! ([`MergeStep::Fetch`]), which the driver realises however it likes and
//! hands back through [`MergeLoop::supply`]:
//!
//! * [`crate::FederatedEngine::run`] — one blocking call at a time against a
//!   [`crate::DeepWebSource`] (batch size 1, no prediction);
//! * `accrel-federation`'s `Threaded` — scoped worker threads;
//! * its `Async` — concurrently polled futures on a virtual clock;
//! * its serving sessions — dedup-shared futures.
//!
//! # Determinism invariant
//!
//! Concurrency enters *only* through speculative response prefetching:
//! before asking the driver for the selected access's response, the loop
//! predicts the accesses the strategy would pick next if every response were
//! empty (from cached verdicts alone, or — under [`SpeculationMode::Eager`]
//! — via a scratch copy of the oracle, so predictions never touch the
//! authoritative verdict log) and asks for the whole batch. Responses are
//! consumed in selection order, whichever arrived first. A prefetched
//! response stays cached until its access is selected (or the run ends,
//! the only way a prefetch is wasted — [`BatchStats::speculative_wasted`]).
//!
//! Consequently, for sources whose response is a deterministic function of
//! the access, every driver reports the **same** `access_sequence`,
//! relevance-verdict log, certainty, answers and final configuration, for
//! every strategy and batch size; only the wall clock and the per-source
//! call counts (speculative prefetches) differ. The equivalence grids in
//! `tests/federation_equivalence.rs` and `tests/serving_equivalence.rs` pin
//! this.

use std::collections::{BTreeSet, HashMap};

use accrel_access::enumerate::EnumerationOptions;
use accrel_access::frontier::AccessFrontier;
use accrel_access::{apply_access_in_place, Access, AccessMethods, Response};
use accrel_query::{certain, Query};
use accrel_schema::{Configuration, TrailOps, Value};

use crate::engine::{BatchStats, RunReport, Strategy};
use crate::options::{RunOptions, SpeculationMode};
use crate::relevance::{RelevanceKind, RelevanceOracle, SharedVerdictCache};

/// What a [`MergeLoop::step`] asks of its driver.
#[derive(Debug)]
pub enum MergeStep {
    /// Call the sources for this predicted batch and hand the responses back
    /// through [`MergeLoop::supply`], then step again.
    Fetch(Vec<Access>),
    /// The run is over; take the report with [`MergeLoop::into_report`].
    Done,
}

/// The strategy-faithful round loop as a sans-IO state machine (see the
/// module documentation). Every executor runs this one implementation, so
/// their equivalence holds by construction.
#[derive(Debug)]
pub struct MergeLoop<'q> {
    query: &'q Query,
    strategy: Strategy,
    options: RunOptions,
    methods: &'q AccessMethods,
    conf: Configuration,
    copies_before: u64,
    trail_before: TrailOps,
    accesses_made: usize,
    accesses_skipped: usize,
    tuples_retrieved: usize,
    rounds: usize,
    access_sequence: Vec<Access>,
    oracle: RelevanceOracle<'q>,
    frontier: AccessFrontier,
    /// Emitted-but-not-executed accesses, in enumeration order (sorted
    /// (method, binding) order equals the odometer order of full
    /// re-enumeration).
    pending: BTreeSet<Access>,
    /// Fetched responses awaiting selection; `None` is a failed call.
    prefetched: HashMap<Access, Option<Response>>,
    batch_stats: BatchStats,
    /// The access selected when the last `Fetch` was returned; consumed at
    /// the top of the next `step` once its response has been supplied.
    awaiting: Option<Access>,
}

impl<'q> MergeLoop<'q> {
    /// A merge loop for `query` from `initial`. `shared` optionally attaches
    /// a cross-session [`SharedVerdictCache`] under the given verdict class
    /// (see the serving layer). Options are normalized on entry.
    pub fn new(
        query: &'q Query,
        strategy: Strategy,
        options: &RunOptions,
        methods: &'q AccessMethods,
        initial: &Configuration,
        shared: Option<(u64, SharedVerdictCache)>,
    ) -> Self {
        let options = options.normalize();
        let mut conf = initial.snapshot();
        // Own the working copy outright: the loop speculates on its live
        // store under trail marks, and detaching the (small) initial shards
        // up front keeps those probes free of lazy copy-on-write detaches.
        conf.own_all_shards();
        // Committed inserts queue invalidation events for the oracle;
        // speculative (trailed) inserts roll back without queueing.
        conf.set_event_capture(true);
        let copies_before = conf.shard_copies();
        let trail_before = conf.trail_ops();
        let mut oracle = RelevanceOracle::new(query, methods, &options);
        if let Some((class, cache)) = shared {
            oracle = oracle.with_shared_cache(class, cache);
        }
        let enum_options = EnumerationOptions {
            guessable_values: guessable_pool(query, &options, initial),
            max_accesses: usize::MAX,
        };
        let frontier = AccessFrontier::new(methods, enum_options);
        let batch_stats = BatchStats {
            workers: options.workers,
            ..BatchStats::default()
        };
        Self {
            query,
            strategy,
            options,
            methods,
            conf,
            copies_before,
            trail_before,
            accesses_made: 0,
            accesses_skipped: 0,
            tuples_retrieved: 0,
            rounds: 0,
            access_sequence: Vec::new(),
            oracle,
            frontier,
            pending: BTreeSet::new(),
            prefetched: HashMap::new(),
            batch_stats,
            awaiting: None,
        }
    }

    /// Drives the loop to completion, realising each `Fetch` through the
    /// blocking `fetch` callback (which must return responses aligned with
    /// the batch slice, `None` for a failed call).
    pub fn run<F>(mut self, mut fetch: F) -> RunReport
    where
        F: FnMut(&[Access]) -> Vec<Option<Response>>,
    {
        while let MergeStep::Fetch(batch) = self.step() {
            let responses = fetch(&batch);
            self.supply(batch, responses);
        }
        self.into_report()
    }

    /// Advances the loop: consumes the previously awaited response (if a
    /// `Fetch` was outstanding), then runs rounds until the next batch is
    /// needed or the run finishes. The `Fetch` boundary falls mid-round,
    /// where the selected access's source call belongs.
    pub fn step(&mut self) -> MergeStep {
        if let Some(access) = self.awaiting.take() {
            self.consume(access);
        }
        loop {
            self.rounds += 1;
            if self.options.stop_when_certain
                && self.query.is_boolean()
                && certain::is_certain(self.query, &self.conf)
            {
                return MergeStep::Done;
            }
            if self.accesses_made >= self.options.max_accesses {
                return MergeStep::Done;
            }
            let fresh = self.frontier.refresh(&self.conf, self.methods);
            self.pending.extend(fresh);
            if self.pending.is_empty() {
                return MergeStep::Done;
            }
            let selected = {
                let candidates: Vec<&Access> = self.pending.iter().collect();
                // The loop owns `conf`: relevance checks speculate on the
                // live store under trail marks — zero shard copies per
                // tentative-response probe.
                self.oracle.select_trailed(
                    self.strategy,
                    &candidates,
                    &mut self.conf,
                    &mut self.accesses_skipped,
                )
            };
            let Some(access) = selected else {
                return MergeStep::Done;
            };
            self.pending.remove(&access);

            if !self.prefetched.contains_key(&access) {
                let allowance = self
                    .options
                    .max_accesses
                    .saturating_sub(self.accesses_made)
                    .max(1);
                let copies_at_predict = self.conf.shard_copies();
                let batch = self.predict_batch(&access, allowance);
                self.batch_stats.speculative_shard_copies +=
                    self.conf.shard_copies() - copies_at_predict;
                self.batch_stats.batches += 1;
                self.batch_stats.max_batch = self.batch_stats.max_batch.max(batch.len());
                self.batch_stats.batched_calls += batch.len();
                self.awaiting = Some(access);
                return MergeStep::Fetch(batch);
            }
            self.consume(access);
        }
    }

    /// Hands the responses of a `Fetch`'s batch back to the loop (aligned
    /// with the batch, `None` for a failed call).
    pub fn supply(&mut self, batch: Vec<Access>, responses: Vec<Option<Response>>) {
        debug_assert_eq!(responses.len(), batch.len(), "fetch must align with batch");
        self.prefetched.extend(batch.into_iter().zip(responses));
    }

    /// Applies the response of the selected access: a failed call consumes
    /// the candidate without a response; a successful one grows the
    /// configuration and invalidates the verdicts the growth touched.
    ///
    /// A failed call takes the run off its verdict class's trajectory (the
    /// failure-free run, which applied that response), so the oracle stops
    /// using the shared cache from here on.
    fn consume(&mut self, access: Access) {
        let response = self
            .prefetched
            .remove(&access)
            .expect("selected access was fetched by the driver");
        let Some(response) = response else {
            self.oracle.leave_shared_trajectory();
            return;
        };
        self.tuples_retrieved += response.len();
        self.accesses_made += 1;
        self.access_sequence.push(access.clone());
        let before = self.conf.len();
        // The loop exclusively owns its configuration (shards detached up
        // front), so responses grow it in place — no per-round snapshot that
        // is immediately dropped.
        let _ = apply_access_in_place(&mut self.conf, &access, &response, self.methods);
        if self.conf.len() > before {
            // The response grew exactly one relation (its method's); drain
            // its insert events and drop the verdicts they touch.
            if let Ok(m) = self.methods.get(access.method()) {
                self.oracle.observe_growth(&mut self.conf, m.relation());
            }
        } else {
            // A fully-duplicate response inserted nothing, queued no events,
            // and must evict nothing.
            debug_assert_eq!(self.conf.pending_events(), 0);
        }
    }

    /// Finishes the run and produces the report. `source_stats` and `chaos`
    /// are left at their defaults — the driver attributes source traffic,
    /// since only it knows which sources served the calls.
    pub fn into_report(mut self) -> RunReport {
        self.batch_stats.speculative_wasted = self.prefetched.len();
        RunReport {
            strategy: self.strategy,
            certain: certain::is_certain(self.query, &self.conf),
            answers: certain::certain_answers(self.query, &self.conf),
            accesses_made: self.accesses_made,
            accesses_skipped: self.accesses_skipped,
            tuples_retrieved: self.tuples_retrieved,
            rounds: self.rounds,
            relevance_cache_hits: self.oracle.hits(),
            relevance_cache_misses: self.oracle.misses(),
            relevance_shared_hits: self.oracle.shared_hits(),
            reads_tracked: self.oracle.reads_tracked(),
            evictions: self.oracle.evictions(),
            events_drained: self.oracle.events_drained(),
            access_sequence: self.access_sequence,
            relevance_verdicts: self.oracle.take_log(),
            source_stats: Default::default(),
            chaos: Default::default(),
            batch_stats: self.batch_stats,
            shard_copies: self.conf.shard_copies() - self.copies_before,
            trail_ops: self.conf.trail_ops().since(self.trail_before),
            final_configuration: self.conf,
        }
    }

    /// The batch the strategy would execute next if every response were
    /// empty: the selected access plus up to `batch_size - 1` follow-ups.
    /// Accesses whose responses are already cached are skipped — their round
    /// trip is already paid for.
    fn predict_batch(&mut self, first: &Access, allowance: usize) -> Vec<Access> {
        let limit = self.options.batch_size.min(allowance).max(1);
        let mut batch = vec![first.clone()];
        if limit == 1 {
            return batch;
        }
        match self.options.speculation {
            SpeculationMode::Eager => self.predict_eager(&mut batch, limit),
            SpeculationMode::CachedOnly => self.predict_cached(&mut batch, limit),
        }
        batch
    }

    /// Eager prediction: replay the strategy's selection on a scratch oracle
    /// (new verdicts computed, then discarded) over the remaining pending
    /// candidates. The replays speculate on the live configuration under
    /// trail marks, so the whole prediction performs zero shard copies
    /// (pinned by [`BatchStats::speculative_shard_copies`]).
    fn predict_eager(&mut self, batch: &mut Vec<Access>, limit: usize) {
        let mut scratch = self.oracle.scratch();
        let mut rest = self.pending.clone();
        let mut skipped = 0usize;
        while batch.len() < limit {
            let next = {
                let candidates: Vec<&Access> = rest.iter().collect();
                scratch.select_trailed(self.strategy, &candidates, &mut self.conf, &mut skipped)
            };
            let Some(next) = next else {
                break;
            };
            rest.remove(&next);
            if !self.prefetched.contains_key(&next) {
                batch.push(next);
            }
        }
    }

    /// Cache-only prediction: walk the pending candidates in selection order
    /// using cached verdicts alone, stopping at the first candidate whose
    /// needed verdict is unknown (the strategy's next pick cannot be
    /// anticipated past it without running a decision procedure).
    fn predict_cached(&self, batch: &mut Vec<Access>, limit: usize) {
        let push = |batch: &mut Vec<Access>, a: &Access| {
            if !self.prefetched.contains_key(a) && !batch.contains(a) {
                batch.push(a.clone());
            }
        };
        match self.strategy {
            Strategy::Exhaustive => {
                for a in &self.pending {
                    if batch.len() >= limit {
                        break;
                    }
                    push(batch, a);
                }
            }
            Strategy::IrGuided | Strategy::LtrGuided => {
                let kind = if self.strategy == Strategy::IrGuided {
                    RelevanceKind::Immediate
                } else {
                    RelevanceKind::LongTerm
                };
                for a in &self.pending {
                    if batch.len() >= limit {
                        break;
                    }
                    match self.oracle.peek(kind, a) {
                        Some(true) => push(batch, a),
                        Some(false) => {}
                        None => break,
                    }
                }
            }
            Strategy::Hybrid => {
                // IR pass: predict successive IR-relevant picks; an unknown
                // IR verdict blocks everything after it (including the LTR
                // fallback, which sequentially only runs when every IR
                // verdict is false).
                let mut all_ir_known_false = true;
                for a in &self.pending {
                    if batch.len() >= limit {
                        return;
                    }
                    match self.oracle.peek(RelevanceKind::Immediate, a) {
                        Some(true) => {
                            all_ir_known_false = false;
                            push(batch, a);
                        }
                        Some(false) => {}
                        None => return,
                    }
                }
                if !all_ir_known_false {
                    return;
                }
                for a in &self.pending {
                    if batch.len() >= limit {
                        break;
                    }
                    match self.oracle.peek(RelevanceKind::LongTerm, a) {
                        Some(true) => push(batch, a),
                        Some(false) => {}
                        None => break,
                    }
                }
            }
        }
    }
}

/// The pool of guessable values for independent accesses: caller-provided
/// values plus the query constants (which the paper assumes are known) and
/// the initial configuration's values, sorted and without duplicates.
fn guessable_pool(query: &Query, options: &RunOptions, initial: &Configuration) -> Vec<Value> {
    let mut pool = options.guessable_values.clone();
    for c in query.constants() {
        if !pool.contains(&c) {
            pool.push(c);
        }
    }
    for v in initial.all_values() {
        if !pool.contains(&v) {
            pool.push(v);
        }
    }
    pool.sort();
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FederatedEngine;
    use crate::scenarios::bank_scenario;
    use crate::source::{DeepWebSource, ResponsePolicy};
    use accrel_core::SearchBudget;

    /// Two sessions of one verdict class share a cache; the first has its
    /// second call failed by the source. From the failure on it neither
    /// publishes nor looks up shared verdicts, and the second session still
    /// reproduces its solo sequential run.
    #[test]
    fn a_failed_call_fences_the_session_off_the_shared_cache() {
        let scenario = bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let options = RunOptions {
            budget: SearchBudget::shallow(),
            batch_size: 1,
            ..RunOptions::default()
        };
        let shared = SharedVerdictCache::new();
        let class = 7;

        let mut failing = MergeLoop::new(
            &scenario.query,
            Strategy::Hybrid,
            &options,
            source.methods(),
            &scenario.initial_configuration,
            Some((class, shared.clone())),
        );
        let mut fetches = 0;
        let mut at_failure = None;
        while let MergeStep::Fetch(batch) = failing.step() {
            fetches += 1;
            if fetches == 2 {
                failing.supply(batch, vec![None]);
                at_failure = Some((shared.len(), shared.hits(), failing.oracle.misses()));
            } else {
                let responses = batch.iter().map(|a| source.call(a).ok()).collect();
                failing.supply(batch, responses);
            }
        }
        let (published, hits, misses) = at_failure.expect("the session reached a second call");
        let failed = failing.into_report();
        assert!(published > 0, "the session published before its failure");
        assert!(
            failed.relevance_cache_misses > misses,
            "the session checked relevance after its failure"
        );
        assert_eq!(shared.len(), published, "published after the failure");
        assert_eq!(shared.hits(), hits, "looked up after the failure");

        let healthy = MergeLoop::new(
            &scenario.query,
            Strategy::Hybrid,
            &options,
            source.methods(),
            &scenario.initial_configuration,
            Some((class, shared.clone())),
        )
        .run(|batch| batch.iter().map(|a| source.call(a).ok()).collect());
        let solo = FederatedEngine::new(&source, scenario.query.clone(), Strategy::Hybrid)
            .with_options(options.clone())
            .run(&scenario.initial_configuration);
        assert!(healthy.relevance_shared_hits > 0);
        assert_eq!(healthy.access_sequence, solo.access_sequence);
        assert_eq!(healthy.relevance_verdicts, solo.relevance_verdicts);
        assert_eq!(healthy.answers, solo.answers);
        assert!(healthy
            .final_configuration
            .same_facts(&solo.final_configuration));
    }
}
