//! The sequential workloads (`guided-mix`, `flood-chain`): their inputs and
//! the traced driver.
//!
//! [`run_traced`] drives one query through the same public calls
//! `FederatedEngine::run` makes, in the same order, with a span around each
//! call into a layer. [`Outcome`] holds everything the two drivers must
//! agree on, so a traced run can be compared with an untraced one field by
//! field.

use std::collections::BTreeSet;

use accrel_access::enumerate::EnumerationOptions;
use accrel_access::frontier::AccessFrontier;
use accrel_access::{apply_access_in_place, Access, AccessMode};
use accrel_core::SearchBudget;
use accrel_engine::relevance::{RelevanceKind, RelevanceOracle, VerdictRecord};
use accrel_engine::scenarios::{bank_scenario, bank_scenario_negative, Scenario};
use accrel_engine::{
    DeepWebSource, FederatedEngine, InvalidationMode, ResponsePolicy, RunOptions, RunReport,
    Strategy,
};
use accrel_query::{certain, Query};
use accrel_schema::{Configuration, Tuple, Value};
use accrel_workloads::differential::FuzzCase;
use accrel_workloads::scenarios::{chain_scenario, star_scenario};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::rng::stratified;
use crate::trace::{SpanName, Tracer};

/// Sizes of the chain scenarios in `guided-mix` (the search cost grows
/// steeply with depth: about 20 ms at 12, 0.2–0.4 s at 16). Depth 8 is left
/// out so that the median of the timed runs (every query run as often)
/// falls on chain-6 (about 0.3 ms under either strategy), whose neighbours
/// (chain-4 under LtrGuided, star-4 under LtrGuided) are twice as fast and
/// three to four times slower; with depth 8 in, several queries within 25%
/// of each other compete for the median.
pub const GUIDED_CHAINS: [usize; 5] = [2, 4, 6, 10, 12];
/// Sizes of the star scenarios in `guided-mix`.
pub const GUIDED_STARS: [usize; 6] = [4, 8, 12, 16, 20, 24];
/// Timed repetitions per pass in `guided-mix` of each strategy (and of the
/// Exhaustive reference) on each chain and star (at most 20 ms a run).
pub const GUIDED_REPETITIONS: usize = 40;
/// Random cases in the `guided-mix` correctness sweep.
pub const GUIDED_RANDOM_CASES: usize = 200;
/// Access cap of the random cases.
pub const GUIDED_RANDOM_MAX_ACCESSES: usize = 64;
/// Queries (distinct fixture sizes) per `flood-chain` run.
pub const FLOOD_QUERIES: usize = 5;
/// Feeder-chain lengths `flood-chain` draws from (inclusive).
pub const FLOOD_FEED: (u64, u64) = (32, 256);
/// Static link counts `flood-chain` draws from (inclusive).
pub const FLOOD_LINKS: (u64, u64) = (8, 16);
/// Timed repetitions per pass of each `flood-chain` query (0.2–2 s a run)
/// and of its Exhaustive reference.
pub const FLOOD_REPETITIONS: usize = 8;

/// The inputs of one sequential run.
#[derive(Debug)]
pub struct Inputs {
    /// Inputs timed in every pass: the sample of the end-to-end metrics.
    pub timed: Vec<Input>,
    /// Inputs run only in a traced run, beside the timed ones: runs of half a
    /// second or more whose wall time moves with the host's page-fault cost
    /// (bank faults in 15–20 thousand pages a run) and so cannot be timed
    /// steadily on a shared host; see `NOTES.md`.
    pub traced_only: Vec<Input>,
    /// Inputs run once, untimed, and checked against their Exhaustive
    /// reference like the timed ones.
    pub sweep: Vec<Input>,
}

/// One query input: a source over the hidden instance, the query, its
/// initial configuration, run options and the strategies run on it.
#[derive(Debug)]
pub struct Input {
    /// Human-readable label (scenario name or random-case seed).
    pub label: String,
    /// The simulated source.
    pub source: DeepWebSource,
    /// The query.
    pub query: Query,
    /// The initial configuration.
    pub initial: Configuration,
    /// Options shared by the measured runs and the Exhaustive reference.
    pub options: RunOptions,
    /// Strategies measured on this input.
    pub strategies: Vec<Strategy>,
    /// How many times an untraced pass runs each strategy (and the
    /// reference) on this input, spread over the run: more for cheap
    /// inputs, whose single runs are the noisiest. 1 for traced-only and
    /// swept inputs, which are not timed.
    pub repetitions: usize,
}

impl Input {
    /// Whether the query is certain over the initial configuration joined
    /// with the full hidden instance, and its certain answers there: a run
    /// learns only facts of that union, so its answers must be a subset.
    pub fn ground_truth(&self) -> (bool, Vec<Tuple>) {
        let full = self
            .initial
            .union(&self.source.hidden_instance().full_configuration());
        (
            certain::is_certain(&self.query, &full),
            certain::certain_answers(&self.query, &full),
        )
    }

    /// The untraced run: `FederatedEngine::run`.
    pub fn run(&self, strategy: Strategy) -> RunReport {
        self.source.reset_stats();
        FederatedEngine::new(&self.source, self.query.clone(), strategy)
            .with_options(self.options.clone())
            .run(&self.initial)
    }

    /// The traced run: [`run_traced`] on this input.
    pub fn run_traced(
        &self,
        strategy: Strategy,
        tracer: &mut Tracer,
        counts: &mut LayerCounts,
    ) -> Outcome {
        self.source.reset_stats();
        run_traced(
            &self.source,
            &self.query,
            strategy,
            &self.options,
            &self.initial,
            tracer,
            counts,
        )
    }
}

/// The strategies `guided-mix` measures.
const GUIDED_STRATEGIES: [Strategy; 2] = [Strategy::LtrGuided, Strategy::Hybrid];

fn scenario_input(scenario: Scenario, repetitions: usize) -> Input {
    Input {
        label: scenario.name,
        source: DeepWebSource::new(scenario.instance, scenario.methods, ResponsePolicy::Exact),
        query: scenario.query,
        initial: scenario.initial_configuration,
        options: RunOptions::default(),
        strategies: GUIDED_STRATEGIES.to_vec(),
        repetitions,
    }
}

/// The `guided-mix` inputs for `seed`, all run under LtrGuided and Hybrid
/// at the default search budget.
///
/// Timed: the chain and star scenarios at [`GUIDED_CHAINS`] and
/// [`GUIDED_STARS`]. Traced only: bank (0.4–0.8 s a run) and bank-negative
/// (4–6 s). Swept: [`GUIDED_RANDOM_CASES`]
/// random cases whose `FuzzCase` seeds are drawn from `seed`, every drawn
/// case kept. The random cases are not timed because their cost is
/// heavy-tailed (most finish well under a millisecond, about one in three
/// hundred takes over a second), so any timing over a few hundred of them
/// moves with the seed by more than a regression bound.
pub fn guided_mix_inputs(seed: u64) -> Inputs {
    let timed = GUIDED_CHAINS
        .map(chain_scenario)
        .into_iter()
        .chain(GUIDED_STARS.map(star_scenario))
        .map(|s| scenario_input(s, GUIDED_REPETITIONS))
        .collect();
    let traced_only = vec![
        scenario_input(bank_scenario(), 1),
        scenario_input(bank_scenario_negative(), 1),
    ];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_785f_6775_6964);
    let sweep = (0..GUIDED_RANDOM_CASES)
        .map(|_| {
            let case_seed: u64 = rng.gen();
            let (workload, instance, initial, query) = FuzzCase::from_seed(case_seed).materialize();
            Input {
                label: format!("fuzz-{case_seed}"),
                source: DeepWebSource::new(instance, workload.methods, ResponsePolicy::Exact),
                query,
                initial,
                options: RunOptions {
                    max_accesses: GUIDED_RANDOM_MAX_ACCESSES,
                    ..RunOptions::default()
                },
                strategies: GUIDED_STRATEGIES.to_vec(),
                repetitions: 1,
            }
        })
        .collect();
    Inputs {
        timed,
        traced_only,
        sweep,
    }
}

/// The `flood-chain` inputs for `seed`: [`FLOOD_QUERIES`] adom-flooding
/// chains whose feeder lengths and link counts are drawn from `seed`,
/// stratified so that every run covers both ranges evenly. The two sizes
/// grow together (the k-th smallest feed is paired with the k-th smallest
/// link count), so each run spans small to large chains; the pairs run in a
/// seeded order, each under Hybrid with precise invalidation and the
/// `--check-invalidation` budget.
pub fn flood_chain_inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x666c_6f6f_645f_6368);
    let feeds = stratified(&mut rng, FLOOD_FEED, FLOOD_QUERIES);
    let links = stratified(&mut rng, FLOOD_LINKS, FLOOD_QUERIES);
    let mut sizes: Vec<(u64, u64)> = feeds.into_iter().zip(links).collect();
    sizes.shuffle(&mut rng);
    let timed = sizes
        .into_iter()
        .map(|(feed, links)| {
            let fixture = accrel_bench::fixtures::adom_flooding_chain(feed as i64, links as usize);
            Input {
                label: format!("flood-{feed}x{links}"),
                source: DeepWebSource::new(
                    fixture.instance,
                    fixture.methods,
                    ResponsePolicy::Exact,
                ),
                query: fixture.query,
                initial: fixture.initial,
                options: RunOptions {
                    budget: SearchBudget::shallow().with_max_valuations(600),
                    invalidation: InvalidationMode::Precise,
                    ..RunOptions::default()
                },
                strategies: vec![Strategy::Hybrid],
                repetitions: FLOOD_REPETITIONS,
            }
        })
        .collect();
    Inputs {
        timed,
        traced_only: Vec::new(),
        sweep: Vec::new(),
    }
}

/// What a query run produced and what it cost, in the fields both drivers
/// report. [`first_difference`] compares two of them for the traced-driver
/// equivalence check.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether the query was certain when the run stopped.
    pub certain: bool,
    /// Certain answers at the end of the run.
    pub answers: Vec<Tuple>,
    /// Executed accesses, in order.
    pub access_sequence: Vec<Access>,
    /// Decision-procedure invocations, in order.
    pub verdicts: Vec<VerdictRecord>,
    /// Candidates the relevance checks rejected.
    pub accesses_skipped: usize,
    /// Tuples retrieved from the source.
    pub tuples_retrieved: usize,
    /// Engine rounds.
    pub rounds: usize,
    /// Relevance checks answered from the per-run cache.
    pub cache_hits: usize,
    /// Relevance checks that ran a decision procedure.
    pub cache_misses: usize,
    /// Insert events drained by invalidation.
    pub events_drained: usize,
    /// Source calls that delivered a response.
    pub source_calls: usize,
    /// Copy-on-write shard copies of the run's configuration.
    pub shard_copies: u64,
    /// Trail entries pushed by speculative probes.
    pub trail_pushed: u64,
    /// The final configuration.
    pub final_configuration: Configuration,
}

impl From<RunReport> for Outcome {
    fn from(r: RunReport) -> Self {
        Outcome {
            certain: r.certain,
            answers: r.answers,
            access_sequence: r.access_sequence,
            verdicts: r.relevance_verdicts,
            accesses_skipped: r.accesses_skipped,
            tuples_retrieved: r.tuples_retrieved,
            rounds: r.rounds,
            cache_hits: r.relevance_cache_hits,
            cache_misses: r.relevance_cache_misses,
            events_drained: r.events_drained,
            source_calls: r.source_stats.calls,
            shard_copies: r.shard_copies,
            trail_pushed: r.trail_ops.pushed,
            final_configuration: r.final_configuration,
        }
    }
}

/// Per-layer counts the traced driver observes at the call boundaries.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Accesses emitted by frontier refreshes.
    pub frontier_emitted: usize,
    /// Response rows handed to `apply_access_in_place`.
    pub apply_rows: usize,
    /// `is_certain` / `certain_answers` calls.
    pub certain_calls: usize,
    /// Decision-procedure runs that returned "relevant".
    pub relevant_verdicts: usize,
}

/// The pool of guessable values `FederatedEngine::run` hands its frontier:
/// the caller's values, the query constants and the initial configuration's
/// values, sorted and without duplicates.
fn guessable_pool(options: &RunOptions, query: &Query, initial: &Configuration) -> Vec<Value> {
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

/// The traced driver's view of one relevance check: the oracle call inside
/// a span that is named after the fact — a cache hit, or the decision
/// procedure that ran (an LTR check is independent exactly when every
/// method is, as `accrel_core::is_long_term_relevant` dispatches).
struct Checker<'t> {
    tracer: &'t mut Tracer,
    counts: &'t mut LayerCounts,
    ltr_name: SpanName,
}

impl Checker<'_> {
    fn check(
        &mut self,
        oracle: &mut RelevanceOracle<'_>,
        kind: RelevanceKind,
        access: &Access,
        conf: &mut Configuration,
    ) -> bool {
        let misses = oracle.misses();
        let id = self.tracer.enter(SpanName::RelevanceHit);
        let verdict = match kind {
            RelevanceKind::Immediate => oracle.check_ir_trailed(access, conf),
            RelevanceKind::LongTerm => oracle.check_ltr_trailed(access, conf),
        };
        if oracle.misses() > misses {
            let name = match kind {
                RelevanceKind::Immediate => SpanName::CoreIr,
                RelevanceKind::LongTerm => self.ltr_name,
            };
            self.tracer.exit_as(id, name);
            self.counts.relevant_verdicts += usize::from(verdict);
        } else {
            self.tracer.exit(id);
        }
        verdict
    }

    /// `RelevanceOracle::select_trailed`'s selection rules and skip
    /// accounting, one check at a time.
    fn select(
        &mut self,
        oracle: &mut RelevanceOracle<'_>,
        strategy: Strategy,
        candidates: &[&Access],
        conf: &mut Configuration,
        skipped: &mut usize,
    ) -> Option<Access> {
        let mut first_relevant = |kind: RelevanceKind, count_skips: bool, skipped: &mut usize| {
            for a in candidates {
                if self.check(oracle, kind, a, conf) {
                    return Some((*a).clone());
                }
                if count_skips {
                    *skipped += 1;
                }
            }
            None
        };
        match strategy {
            Strategy::Exhaustive => candidates.first().map(|a| (*a).clone()),
            Strategy::IrGuided => first_relevant(RelevanceKind::Immediate, true, skipped),
            Strategy::LtrGuided => first_relevant(RelevanceKind::LongTerm, true, skipped),
            Strategy::Hybrid => first_relevant(RelevanceKind::Immediate, false, skipped)
                .or_else(|| first_relevant(RelevanceKind::LongTerm, true, skipped)),
        }
    }
}

/// Runs `query` from `initial` through the public calls
/// `FederatedEngine::run` makes, in its order, recording a span around each
/// call into a layer. Per-layer counts accumulate into `counts`.
pub fn run_traced(
    source: &DeepWebSource,
    query: &Query,
    strategy: Strategy,
    options: &RunOptions,
    initial: &Configuration,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Outcome {
    let root = tracer.enter(SpanName::EngineRun);
    let methods = source.methods();
    let mut conf = initial.snapshot();
    conf.own_all_shards();
    conf.set_event_capture(true);
    let copies_before = conf.shard_copies();
    let trail_before = conf.trail_ops();
    let mut accesses_skipped = 0usize;
    let mut tuples_retrieved = 0usize;
    let mut rounds = 0usize;
    let mut access_sequence: Vec<Access> = Vec::new();
    let mut oracle = RelevanceOracle::new(query, methods, options);
    let stats_before = source.stats();
    let ltr_name = if methods
        .methods()
        .iter()
        .all(|m| m.mode() == AccessMode::Independent)
    {
        SpanName::CoreLtrIndependent
    } else {
        SpanName::CoreLtrDependent
    };
    let enum_options = EnumerationOptions {
        guessable_values: guessable_pool(options, query, initial),
        max_accesses: usize::MAX,
    };
    let mut frontier = AccessFrontier::new(methods, enum_options);
    let mut pending: BTreeSet<Access> = BTreeSet::new();

    loop {
        rounds += 1;
        if options.stop_when_certain && query.is_boolean() {
            counts.certain_calls += 1;
            if tracer.span(SpanName::QueryCertain, || certain::is_certain(query, &conf)) {
                break;
            }
        }
        if access_sequence.len() >= options.max_accesses {
            break;
        }
        let fresh = tracer.span(SpanName::AccessFrontier, || {
            frontier.refresh(&conf, methods)
        });
        counts.frontier_emitted += fresh.len();
        pending.extend(fresh);
        if pending.is_empty() {
            break;
        }
        let selected = {
            let candidates: Vec<&Access> = pending.iter().collect();
            let mut checker = Checker {
                tracer: &mut *tracer,
                counts: &mut *counts,
                ltr_name,
            };
            checker.select(
                &mut oracle,
                strategy,
                &candidates,
                &mut conf,
                &mut accesses_skipped,
            )
        };
        let Some(access) = selected else {
            break;
        };
        pending.remove(&access);
        let Ok(response) = tracer.span(SpanName::EngineSource, || source.call(&access)) else {
            continue;
        };
        tuples_retrieved += response.len();
        access_sequence.push(access.clone());
        let before = conf.len();
        counts.apply_rows += response.len();
        tracer.span(SpanName::AccessApply, || {
            let _ = apply_access_in_place(&mut conf, &access, &response, methods);
        });
        if conf.len() > before {
            if let Ok(m) = methods.get(access.method()) {
                tracer.span(SpanName::EngineInvalidation, || {
                    oracle.observe_growth(&mut conf, m.relation())
                });
            }
        }
    }

    counts.certain_calls += 2;
    let certain = tracer.span(SpanName::QueryCertain, || certain::is_certain(query, &conf));
    let answers = tracer.span(SpanName::QueryCertain, || {
        certain::certain_answers(query, &conf)
    });
    let outcome = Outcome {
        certain,
        answers,
        access_sequence,
        verdicts: oracle.take_log(),
        accesses_skipped,
        tuples_retrieved,
        rounds,
        cache_hits: oracle.hits(),
        cache_misses: oracle.misses(),
        events_drained: oracle.events_drained(),
        source_calls: source.stats().since(&stats_before).calls,
        shard_copies: conf.shard_copies() - copies_before,
        trail_pushed: conf.trail_ops().since(trail_before).pushed,
        final_configuration: conf,
    };
    tracer.exit(root);
    outcome
}

/// Names the first field on which a traced outcome differs from the
/// untraced one, if any.
///
/// `RunReport::reads_tracked` and `RunReport::evictions` are not part of an
/// [`Outcome`]: the engine itself does not repeat them between identical
/// untraced runs (the read sets its witness searches record depend on
/// hash-map iteration order; FuzzCase seed 10530534306866533497 under
/// LtrGuided records 72 to 75 reads over otherwise identical runs).
pub fn first_difference(traced: &Outcome, untraced: &Outcome) -> Option<&'static str> {
    let fields: [(&'static str, bool); 14] = [
        ("certain", traced.certain == untraced.certain),
        ("answers", traced.answers == untraced.answers),
        (
            "access_sequence",
            traced.access_sequence == untraced.access_sequence,
        ),
        ("verdicts", traced.verdicts == untraced.verdicts),
        (
            "accesses_skipped",
            traced.accesses_skipped == untraced.accesses_skipped,
        ),
        (
            "tuples_retrieved",
            traced.tuples_retrieved == untraced.tuples_retrieved,
        ),
        ("rounds", traced.rounds == untraced.rounds),
        ("cache_hits", traced.cache_hits == untraced.cache_hits),
        ("cache_misses", traced.cache_misses == untraced.cache_misses),
        (
            "events_drained",
            traced.events_drained == untraced.events_drained,
        ),
        ("source_calls", traced.source_calls == untraced.source_calls),
        ("shard_copies", traced.shard_copies == untraced.shard_copies),
        ("trail_pushed", traced.trail_pushed == untraced.trail_pushed),
        (
            "final_configuration",
            traced
                .final_configuration
                .same_facts(&untraced.final_configuration),
        ),
    ];
    fields.iter().find(|(_, same)| !same).map(|(name, _)| *name)
}
