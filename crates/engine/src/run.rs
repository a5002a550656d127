//! The unified run API: [`RunRequest`] in, [`RunReport`] out.
//!
//! A run is a single [`RunRequest`] (query + strategy + [`RunOptions`])
//! executed by any [`Executor`] implementation, all returning the same
//! [`RunReport`]. Every executor drives the one [`crate::MergeLoop`]; they
//! differ only in how they fetch a batch of responses. The serving layer
//! treats executors uniformly (a session is just a request handed to *some*
//! executor), the equivalence test-grid iterates executors instead of
//! duplicating call sites, and [`compare_strategies`] is one free function
//! over requests.

use accrel_query::Query;
use accrel_schema::Configuration;

use crate::engine::{FederatedEngine, RunReport, Strategy};
use crate::options::RunOptions;
use crate::source::DeepWebSource;

/// One query run, fully described: what to answer, how to select accesses,
/// and under which options. Build with [`RunRequest::new`] and refine with
/// the `with_*` builders; hand to any [`Executor`].
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// The query to answer.
    pub query: Query,
    /// The access-selection strategy.
    pub strategy: Strategy,
    /// The run options (semantic and execution knobs alike; executors ignore
    /// the knobs that do not apply to them).
    pub options: RunOptions,
}

impl RunRequest {
    /// A request for `query` with the paper's headline strategy
    /// ([`Strategy::Hybrid`]) and default options.
    pub fn new(query: Query) -> Self {
        Self {
            query,
            strategy: Strategy::Hybrid,
            options: RunOptions::default(),
        }
    }

    /// Replaces the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }
}

/// Something that can execute a [`RunRequest`] from an initial
/// configuration: the sequential engine, the threaded and async executors
/// of `accrel-federation`, or its multi-tenant serving layer.
///
/// The contract every implementation upholds (and the equivalence grid
/// pins): for the same request, initial configuration and source contents,
/// the executed access sequence, certainty, answers and relevance-verdict
/// log are identical across executors — only the traffic-shape statistics
/// (batching, latency) may differ.
pub trait Executor {
    /// A short stable name for reports and test labels.
    fn name(&self) -> &'static str;

    /// Executes `request` starting from `initial`.
    fn execute(&self, request: &RunRequest, initial: &Configuration) -> RunReport;

    /// Resets the backing source statistics, so consecutive runs report
    /// their own traffic (used by [`compare_strategies`]).
    fn reset_stats(&self);
}

/// The sequential executor: one access at a time against a single
/// [`DeepWebSource`], via [`FederatedEngine`]. The semantic baseline every
/// other executor is tested against.
#[derive(Debug, Clone, Copy)]
pub struct Sequential<'a> {
    source: &'a DeepWebSource,
}

impl<'a> Sequential<'a> {
    /// A sequential executor over `source`.
    pub fn new(source: &'a DeepWebSource) -> Self {
        Self { source }
    }
}

impl Executor for Sequential<'_> {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn execute(&self, request: &RunRequest, initial: &Configuration) -> RunReport {
        FederatedEngine::new(self.source, request.query.clone(), request.strategy)
            .with_options(request.options.clone())
            .run(initial)
    }

    fn reset_stats(&self) {
        self.source.reset_stats();
    }
}

/// Runs `request` under every [`Strategy`] on the same initial
/// configuration and returns the reports in [`Strategy::all`] order,
/// resetting the executor's source statistics between runs so each report
/// carries only its own traffic.
pub fn compare_strategies<E: Executor + ?Sized>(
    executor: &E,
    request: &RunRequest,
    initial: &Configuration,
) -> Vec<RunReport> {
    Strategy::all()
        .into_iter()
        .map(|strategy| {
            executor.reset_stats();
            let run = request.clone().with_strategy(strategy);
            executor.execute(&run, initial)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use crate::source::ResponsePolicy;

    #[test]
    fn sequential_executor_matches_direct_engine_call() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let request = RunRequest::new(scenario.query.clone()).with_strategy(Strategy::Exhaustive);
        let executor = Sequential::new(&source);
        assert_eq!(executor.name(), "sequential");
        let via_executor = executor.execute(&request, &scenario.initial_configuration);
        source.reset_stats();
        let direct = FederatedEngine::new(&source, scenario.query.clone(), Strategy::Exhaustive)
            .run(&scenario.initial_configuration);
        assert_eq!(via_executor.access_sequence, direct.access_sequence);
        assert_eq!(via_executor.certain, direct.certain);
        assert_eq!(via_executor.answers, direct.answers);
        assert_eq!(via_executor.relevance_shared_hits, 0);
    }

    #[test]
    fn request_builders_set_strategy_and_options() {
        let scenario = scenarios::bank_scenario();
        let request = RunRequest::new(scenario.query.clone());
        assert_eq!(request.strategy, Strategy::Hybrid);
        let tuned = request
            .with_strategy(Strategy::LtrGuided)
            .with_options(RunOptions {
                max_accesses: 3,
                ..RunOptions::default()
            });
        assert_eq!(tuned.strategy, Strategy::LtrGuided);
        assert_eq!(tuned.options.max_accesses, 3);
    }

    #[test]
    fn compare_strategies_resets_stats_and_covers_every_strategy() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let reports = compare_strategies(
            &Sequential::new(&source),
            &RunRequest::new(scenario.query.clone()),
            &scenario.initial_configuration,
        );
        assert_eq!(reports.len(), Strategy::all().len());
        for (report, strategy) in reports.iter().zip(Strategy::all()) {
            assert_eq!(report.strategy, strategy);
            // Stats were reset between runs: each report's source traffic is
            // exactly its own accesses (plus nothing from earlier runs).
            assert_eq!(report.source_stats.calls, report.accesses_made);
        }
    }
}
