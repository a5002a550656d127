//! The relevance-guided federated query engine and its run report.
//!
//! [`FederatedEngine::run`] drives the shared [`MergeLoop`] one blocking
//! source call at a time. The loop is *incremental*: relevance verdicts are
//! cached per candidate access together with the set of store reads the
//! decision procedure consulted (see [`accrel_schema::ReadSet`]), and are
//! evicted only when a committed insert event touches a read the verdict
//! made — or, under [`crate::InvalidationMode::RelationLevel`], when a
//! response adds facts to a relation in the verdict's coarse dependency
//! set. Rounds whose responses were empty (Boolean probes that missed,
//! exhausted accesses) or merely duplicated known facts re-use every
//! verdict from the previous round instead of re-running the decision
//! procedures. Cache traffic is reported in
//! [`RunReport::relevance_cache_hits`] /
//! [`RunReport::relevance_cache_misses`], and [`RunReport::access_sequence`]
//! records the executed accesses in order so cached and uncached runs can be
//! compared for equality (the correctness criterion for the invalidation
//! scheme).

use accrel_access::Access;
use accrel_query::Query;
use accrel_schema::{Configuration, TrailOps, Tuple};

use crate::merge::MergeLoop;
use crate::options::RunOptions;
use crate::relevance::VerdictRecord;
use crate::source::{DeepWebSource, SourceStats};

/// Access-selection strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Execute every well-formed access that has not been made yet — the
    /// exhaustive dynamic evaluation of Li \[18\], with no relevance check.
    Exhaustive,
    /// Execute only accesses that are immediately relevant for the query.
    IrGuided,
    /// Execute only accesses that are long-term relevant for the query.
    LtrGuided,
    /// Prefer immediately relevant accesses; when none exists, execute a
    /// long-term relevant one.
    Hybrid,
}

impl Strategy {
    /// All strategies, in presentation order.
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::Exhaustive,
            Strategy::IrGuided,
            Strategy::LtrGuided,
            Strategy::Hybrid,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::IrGuided => "ir-guided",
            Strategy::LtrGuided => "ltr-guided",
            Strategy::Hybrid => "hybrid",
        }
    }
}

/// Statistics about batched execution. Zero for the sequential engine; the
/// `Threaded`, `Async` and `Serving` executors of `accrel-federation`, which
/// drive the same [`MergeLoop`] with larger batches, fill them in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of batches issued to the sources.
    pub batches: usize,
    /// Size of the largest batch.
    pub max_batch: usize,
    /// Source calls issued through batches, including speculative prefetches
    /// whose responses were consumed in later rounds.
    pub batched_calls: usize,
    /// Prefetched responses never consumed by the merge loop (speculation
    /// waste).
    pub speculative_wasted: usize,
    /// The executor's per-batch concurrency limit: worker threads for the
    /// threaded executor, the in-flight future cap for the async one.
    pub workers: usize,
    /// Copy-on-write shard copies performed *inside* the merge loop's
    /// speculative prediction regions (eager look-ahead). With trail-backed
    /// speculation this is zero: tentative responses mutate the live store
    /// under a trail mark and are undone in place instead of being replayed
    /// on snapshots.
    pub speculative_shard_copies: u64,
}

impl BatchStats {
    /// Mean batch size, or 0.0 when no batch was issued.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_calls as f64 / self.batches as f64
        }
    }
}

/// Resilience statistics of a run executed against a federation with a
/// chaos controller attached (source churn, circuit breakers, replica
/// failover — see `accrel-federation`'s `chaos` module). All zero for the
/// sequential engine and for federations without chaos: answers never
/// depend on these counters, only the cost/robustness accounting does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Churn-script events applied during the run (kills, revivals, model
    /// swaps).
    pub churn_events: usize,
    /// Calls answered by a non-primary replica because the primary was dead
    /// or open-circuit.
    pub failovers: usize,
    /// Replica attempts skipped because the target source was deregistered
    /// (killed) at the time of the call.
    pub dead_skips: usize,
    /// Replica attempts skipped by an open circuit breaker (the breaker
    /// absorbed the call instead of letting it fail again).
    pub short_circuited: usize,
    /// Circuit-breaker trips (Closed→Open transitions, including a HalfOpen
    /// probe failing back to Open).
    pub breaker_trips: usize,
}

impl ChaosStats {
    /// The activity accumulated since `earlier` (field-wise difference of
    /// two snapshots of the same monotone counters).
    pub fn since(&self, earlier: &ChaosStats) -> ChaosStats {
        ChaosStats {
            churn_events: self.churn_events.saturating_sub(earlier.churn_events),
            failovers: self.failovers.saturating_sub(earlier.failovers),
            dead_skips: self.dead_skips.saturating_sub(earlier.dead_skips),
            short_circuited: self.short_circuited.saturating_sub(earlier.short_circuited),
            breaker_trips: self.breaker_trips.saturating_sub(earlier.breaker_trips),
        }
    }

    /// Field-wise sum (for aggregating across sessions or federations).
    pub fn merged(&self, other: &ChaosStats) -> ChaosStats {
        ChaosStats {
            churn_events: self.churn_events + other.churn_events,
            failovers: self.failovers + other.failovers,
            dead_skips: self.dead_skips + other.dead_skips,
            short_circuited: self.short_circuited + other.short_circuited,
            breaker_trips: self.breaker_trips + other.breaker_trips,
        }
    }
}

/// The outcome of an engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The strategy that produced this report.
    pub strategy: Strategy,
    /// Whether the (Boolean) query was certain when the run stopped.
    pub certain: bool,
    /// The certain answers at the end of the run (the empty tuple for a
    /// certain Boolean query).
    pub answers: Vec<Tuple>,
    /// Number of accesses executed.
    pub accesses_made: usize,
    /// Number of candidate accesses that the relevance check rejected.
    pub accesses_skipped: usize,
    /// Total number of tuples retrieved from the source.
    pub tuples_retrieved: usize,
    /// Number of engine rounds (each round re-enumerates candidates).
    pub rounds: usize,
    /// Relevance verdicts answered from the incremental cache.
    pub relevance_cache_hits: usize,
    /// Relevance verdicts that had to run a decision procedure.
    pub relevance_cache_misses: usize,
    /// Of the per-run cache misses, how many were answered from the
    /// cross-session [`crate::relevance::SharedVerdictCache`] instead of
    /// running a decision procedure. Always zero outside the serving layer
    /// of `accrel-federation`.
    pub relevance_shared_hits: usize,
    /// Total read-set entries recorded across the run's decision-procedure
    /// invocations. Zero under [`crate::InvalidationMode::RelationLevel`] or
    /// with the cache off.
    pub reads_tracked: usize,
    /// Cached relevance verdicts evicted by growing responses — per touched
    /// read under precise invalidation, per dep relation under
    /// relation-level.
    pub evictions: usize,
    /// Insert events drained by precise invalidation (one per committed
    /// response row; zero under relation-level invalidation).
    pub events_drained: usize,
    /// The accesses executed, in execution order (for comparing cached and
    /// uncached runs).
    pub access_sequence: Vec<Access>,
    /// Every relevance decision-procedure invocation of the run, in order
    /// (cache re-reads are not recorded; empty when the cache is disabled).
    pub relevance_verdicts: Vec<VerdictRecord>,
    /// Source traffic attributable to this run (successful calls, retries,
    /// ultimate failures, tuples returned).
    pub source_stats: SourceStats,
    /// Batched-execution statistics (all zero for the sequential engine).
    pub batch_stats: BatchStats,
    /// Resilience statistics (churn events, failovers, breaker activity)
    /// attributable to this run. All zero unless the run executed against a
    /// federation with a chaos controller attached.
    pub chaos: ChaosStats,
    /// Copy-on-write shard copies the run's configuration handle performed:
    /// the engine snapshots the initial configuration in O(relations) and a
    /// growing round copies only the touched relation's shard (plus the
    /// adom cache, plus the interner when the response carried new values).
    /// Zero for runs whose responses never grew the configuration — and for
    /// read-only snapshot consumers such as the parallel sweep workers.
    pub shard_copies: u64,
    /// Trail activity of the run's configuration handle: undo entries pushed
    /// by speculative probes (tentative-response replays in relevance
    /// checks, the merge loop's eager look-ahead) and entries undone
    /// when those probes rolled back. Every speculation that would
    /// historically have cloned shards shows up here instead of in
    /// [`RunReport::shard_copies`].
    pub trail_ops: TrailOps,
    /// The final configuration.
    pub final_configuration: Configuration,
}

/// A federated query engine answering one query against one simulated
/// deep-Web source.
#[derive(Debug)]
pub struct FederatedEngine<'a> {
    source: &'a DeepWebSource,
    query: Query,
    strategy: Strategy,
    options: RunOptions,
}

impl<'a> FederatedEngine<'a> {
    /// Creates an engine for `query` over `source` using `strategy`.
    pub fn new(source: &'a DeepWebSource, query: Query, strategy: Strategy) -> Self {
        Self {
            source,
            query,
            strategy,
            options: RunOptions::default(),
        }
    }

    /// Replaces the run options.
    pub fn with_options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the engine from `initial` until the query is certain, no
    /// candidate access remains, or the access limit is hit.
    ///
    /// This is the blocking driver of the shared [`MergeLoop`] at batch size
    /// 1: each selected access is fetched with one [`DeepWebSource::call`]
    /// (a failed call consumes the candidate without a response), nothing is
    /// prefetched, and the report's `batch_stats` stay zero.
    pub fn run(&self, initial: &Configuration) -> RunReport {
        let options = RunOptions {
            batch_size: 1,
            workers: 1,
            ..self.options.clone()
        };
        let stats_before = self.source.stats();
        let merge = MergeLoop::new(
            &self.query,
            self.strategy,
            &options,
            self.source.methods(),
            initial,
            None,
        );
        let mut report =
            merge.run(|batch| batch.iter().map(|a| self.source.call(a).ok()).collect());
        report.source_stats = self.source.stats().since(&stats_before);
        report.batch_stats = BatchStats::default();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SpeculationMode;
    use crate::run::{compare_strategies, Executor as _, RunRequest, Sequential};
    use crate::scenarios;
    use crate::source::ResponsePolicy;
    use accrel_core::SearchBudget;
    use accrel_query::certain;

    #[test]
    fn exhaustive_engine_answers_the_bank_query() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let engine = FederatedEngine::new(&source, scenario.query.clone(), Strategy::Exhaustive);
        let report = engine.run(&scenario.initial_configuration);
        assert!(report.certain);
        assert!(report.accesses_made > 0);
        assert_eq!(report.strategy, Strategy::Exhaustive);
        assert!(!report.final_configuration.is_empty());
        assert_eq!(report.access_sequence.len(), report.accesses_made);
    }

    #[test]
    fn relevance_guided_strategies_make_fewer_accesses() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let request = RunRequest::new(scenario.query.clone());
        let reports = compare_strategies(
            &Sequential::new(&source),
            &request,
            &scenario.initial_configuration,
        );
        let exhaustive = reports
            .iter()
            .find(|r| r.strategy == Strategy::Exhaustive)
            .unwrap();
        let hybrid = reports
            .iter()
            .find(|r| r.strategy == Strategy::Hybrid)
            .unwrap();
        let ltr = reports
            .iter()
            .find(|r| r.strategy == Strategy::LtrGuided)
            .unwrap();
        // Every strategy that terminates with an answer must agree on it.
        assert!(exhaustive.certain);
        assert!(hybrid.certain);
        assert!(ltr.certain);
        // Relevance-guided runs never make more accesses than the
        // exhaustive baseline on this scenario.
        assert!(hybrid.accesses_made <= exhaustive.accesses_made);
        assert!(ltr.accesses_made <= exhaustive.accesses_made);
    }

    #[test]
    fn cached_runs_execute_the_same_access_sequences_as_uncached() {
        for scenario in [
            scenarios::bank_scenario(),
            scenarios::bank_scenario_negative(),
        ] {
            let source = DeepWebSource::new(
                scenario.instance.clone(),
                scenario.methods.clone(),
                ResponsePolicy::Exact,
            );
            // A shallow budget and a tight access cap keep the *uncached*
            // runs affordable; the property under test (identical access
            // sequences) is budget-independent since both sides share it.
            let cached = RunOptions {
                max_accesses: 12,
                budget: SearchBudget::shallow(),
                ..RunOptions::default()
            };
            let uncached = RunOptions {
                use_relevance_cache: false,
                ..cached.clone()
            };
            let executor = Sequential::new(&source);
            let with_cache = compare_strategies(
                &executor,
                &RunRequest::new(scenario.query.clone()).with_options(cached),
                &scenario.initial_configuration,
            );
            let without_cache = compare_strategies(
                &executor,
                &RunRequest::new(scenario.query.clone()).with_options(uncached),
                &scenario.initial_configuration,
            );
            for (c, u) in with_cache.iter().zip(&without_cache) {
                assert_eq!(c.strategy, u.strategy);
                assert_eq!(
                    c.access_sequence,
                    u.access_sequence,
                    "cache changed the {} access sequence on {}",
                    c.strategy.name(),
                    scenario.name
                );
                assert_eq!(c.certain, u.certain);
                assert_eq!(c.answers, u.answers);
                // The uncached run never consults the cache.
                assert_eq!(u.relevance_cache_hits, 0);
                assert_eq!(u.relevance_cache_misses, 0);
            }
        }
    }

    #[test]
    fn sequential_engine_runs_at_batch_size_one_whatever_the_batching_knobs() {
        // The sequential driver forces batch size 1: batching and
        // speculation knobs must change nothing — no eager look-ahead (its
        // trailed probes would show in `trail_ops`), no prefetch (every
        // source call is an executed access) and zero batch statistics.
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let shallow = RunOptions {
            budget: SearchBudget::shallow(),
            ..RunOptions::default()
        };
        let executor = Sequential::new(&source);
        let run = |options: RunOptions| {
            executor.reset_stats();
            let request = RunRequest::new(scenario.query.clone())
                .with_strategy(Strategy::Hybrid)
                .with_options(options);
            executor.execute(&request, &scenario.initial_configuration)
        };
        let knobbed = run(RunOptions {
            batch_size: 8,
            workers: 4,
            speculation: SpeculationMode::Eager,
            ..shallow.clone()
        });
        let single = run(RunOptions {
            batch_size: 1,
            ..shallow
        });
        assert!(knobbed.certain);
        assert_eq!(knobbed.access_sequence, single.access_sequence);
        assert_eq!(knobbed.relevance_verdicts, single.relevance_verdicts);
        assert_eq!(knobbed.trail_ops, single.trail_ops);
        for report in [&knobbed, &single] {
            assert_eq!(report.source_stats.calls, report.accesses_made);
            assert_eq!(report.batch_stats, BatchStats::default());
        }
    }

    #[test]
    fn relevance_cache_reports_traffic_on_guided_runs() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let engine = FederatedEngine::new(&source, scenario.query.clone(), Strategy::Hybrid);
        let report = engine.run(&scenario.initial_configuration);
        assert!(report.certain);
        // Every candidate was checked at least once...
        assert!(report.relevance_cache_misses > 0);
        // ...and repeated rounds over unchanged relations hit the cache.
        assert!(report.relevance_cache_hits > 0);
    }

    #[test]
    fn engine_respects_access_limit() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let options = RunOptions {
            max_accesses: 1,
            ..RunOptions::default()
        };
        let engine = FederatedEngine::new(&source, scenario.query.clone(), Strategy::Exhaustive)
            .with_options(options);
        let report = engine.run(&scenario.initial_configuration);
        assert_eq!(report.accesses_made, 1);
        assert!(!report.certain);
    }

    #[test]
    fn ir_guided_engine_stops_when_nothing_is_immediately_relevant() {
        // In the bank scenario nothing is immediately relevant at the start
        // (the query needs facts from several relations), so the IR-guided
        // engine stops early without answering — illustrating why long-term
        // relevance is the right notion for multi-step plans.
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let engine = FederatedEngine::new(&source, scenario.query.clone(), Strategy::IrGuided);
        let report = engine.run(&scenario.initial_configuration);
        assert!(!report.certain);
        assert_eq!(report.accesses_made, 0);
        assert!(report.accesses_skipped > 0);
    }

    #[test]
    fn sound_but_incomplete_sources_still_yield_sound_answers() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::SoundSample {
                probability: 0.7,
                seed: 7,
            },
        );
        let engine = FederatedEngine::new(&source, scenario.query.clone(), Strategy::Exhaustive);
        let report = engine.run(&scenario.initial_configuration);
        // Whatever was learnt is consistent with the hidden instance.
        assert!(source
            .hidden_instance()
            .is_consistent(&report.final_configuration));
        // If the engine declared the query certain, it really is true in the
        // hidden instance.
        if report.certain {
            assert!(certain::is_certain(
                &scenario.query,
                &source.hidden_instance().full_configuration()
            ));
        }
    }

    #[test]
    fn strategy_names_and_listing() {
        assert_eq!(Strategy::all().len(), 4);
        assert_eq!(Strategy::Exhaustive.name(), "exhaustive");
        assert_eq!(Strategy::IrGuided.name(), "ir-guided");
        assert_eq!(Strategy::LtrGuided.name(), "ltr-guided");
        assert_eq!(Strategy::Hybrid.name(), "hybrid");
    }
}
