//! The `serving-e5` workload: rounds of mixed sessions served cold, journaled,
//! replayed into a fresh verdict cache and served warm over the E5 world.

use std::future::Future;
use std::path::Path;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Instant;

use accrel_access::{Access, AccessMethods, Response};
use accrel_core::SearchBudget;
use accrel_engine::{
    DeepWebSource, FederatedEngine, RunOptions, RunReport, RunRequest, SharedVerdictCache,
    SpeculationMode, Strategy,
};
use accrel_federation::{
    AsyncFederation, AsyncSimulatedSource, AsyncSource, BackendStats, LatencyModel,
    QuerySessionRegistry, RunJournal, ServingOptions, ServingReport, SimulatedSource, SourceError,
    SourceFuture,
};
use accrel_query::{certain, Query};
use accrel_schema::Configuration;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::trace::{SpanName, Tracer};

/// Hidden facts in the E5 world.
pub const WORLD_FACTS: usize = 100_000;
/// Distinct rounds per run.
pub const ROUNDS: usize = 4;
/// Timed repetitions per pass of each round and of each cap's Exhaustive
/// reference (a round, cold serve, journal, replay and warm serve, takes
/// 2–3 s).
pub const ROUND_REPETITIONS: usize = 3;
/// Access caps of the sessions; each strategy gets every cap
/// [`SESSIONS_PER_CAP`] times per round.
pub const CAPS: [usize; 4] = [12, 24, 36, 48];
/// Sessions per strategy and cap in one round.
pub const SESSIONS_PER_CAP: usize = 2;

/// Poll intervals recorded by [`TimedSource`] wrappers, drained into the
/// tracer after each serve.
pub type PollLog = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// A delegating [`AsyncSource`] that records the wall-clock interval of
/// every poll of its calls' futures. Only time spent inside `poll` counts;
/// virtual-clock waits between polls do not.
struct TimedSource {
    inner: AsyncSimulatedSource,
    log: PollLog,
}

struct TimedCall<'a> {
    inner: SourceFuture<'a>,
    log: &'a PollLog,
}

impl Future for TimedCall<'_> {
    type Output = Result<Response, SourceError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let start = Instant::now();
        let out = self.inner.as_mut().poll(cx);
        let end = Instant::now();
        self.log
            .lock()
            .expect("poll log lock is never held across a panic")
            .push((start, end));
        out
    }
}

impl AsyncSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn methods(&self) -> &AccessMethods {
        self.inner.methods()
    }

    fn call(&self, access: Access) -> SourceFuture<'_> {
        Box::pin(TimedCall {
            inner: self.inner.call(access),
            log: &self.log,
        })
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// The E5 world and everything built over it.
pub struct World {
    /// Sequential source over the hidden instance, for the references.
    pub oracle: DeepWebSource,
    /// The fixed three-atom chain query.
    pub query: Query,
    /// The seed configuration.
    pub initial: Configuration,
    /// The federation the untraced rounds run against.
    pub federation: AsyncFederation,
    /// The federation with timed sources, for traced rounds.
    pub traced: Option<(AsyncFederation, PollLog)>,
}

/// The two E5 providers (as in the harness's F2/F3 fixtures): provider A
/// fast, provider B slower and paged, with latencies awaited on the
/// federation's virtual clock.
fn providers(oracle: &DeepWebSource) -> (SimulatedSource, SimulatedSource) {
    let instance = oracle.hidden_instance();
    let methods = oracle.methods();
    let a = SimulatedSource::exact("provider-a", instance.clone(), methods.clone()).with_latency(
        LatencyModel {
            base_micros: 100,
            jitter_micros: 50,
            seed: 7,
            sleep: false,
        },
    );
    let b = SimulatedSource::exact("provider-b", instance.clone(), methods.clone())
        .with_latency(LatencyModel {
            base_micros: 200,
            jitter_micros: 50,
            seed: 11,
            sleep: false,
        })
        .with_paging(64);
    (a, b)
}

const ROUTES: [&[&str]; 2] = [&["acc0", "acc1"], &["acc2", "acc3"]];

fn federation(oracle: &DeepWebSource, log: Option<&PollLog>) -> AsyncFederation {
    let (a, b) = providers(oracle);
    let builder = AsyncFederation::builder(oracle.methods().clone());
    let builder = match log {
        None => builder
            .simulated(a, ROUTES[0])
            .and_then(|f| f.simulated(b, ROUTES[1])),
        Some(log) => {
            let clock = builder.clock().clone();
            let timed = |inner: SimulatedSource| TimedSource {
                inner: AsyncSimulatedSource::new(inner, clock.clone()),
                log: log.clone(),
            };
            builder
                .source(timed(a), ROUTES[0])
                .and_then(|f| f.source(timed(b), ROUTES[1]))
        }
    };
    builder
        .and_then(|f| f.build())
        .expect("both providers exist and every method is routed")
}

/// Builds the E5 world at [`WORLD_FACTS`] hidden facts and its federation,
/// plus the timed federation when `traced`.
pub fn build_world(traced: bool) -> World {
    let world = accrel_bench::fixtures::federation_world(WORLD_FACTS);
    let oracle = accrel_bench::fixtures::world_oracle_source(&world);
    let fixture = accrel_bench::fixtures::async_federation_fixture_from(&world, 100);
    let federation = federation(&oracle, None);
    let traced = traced.then(|| {
        let log = PollLog::default();
        (self::federation(&oracle, Some(&log)), log)
    });
    World {
        oracle,
        query: fixture.query,
        initial: fixture.initial,
        federation,
        traced,
    }
}

/// One round's sessions: each strategy (Exhaustive and Hybrid) at every cap
/// in [`CAPS`], [`SESSIONS_PER_CAP`] times, in an order drawn from `rng`.
pub fn round_requests(query: &Query, rng: &mut StdRng) -> Vec<RunRequest> {
    let mut requests = Vec::new();
    for strategy in [Strategy::Exhaustive, Strategy::Hybrid] {
        for cap in CAPS {
            for _ in 0..SESSIONS_PER_CAP {
                requests.push(
                    RunRequest::new(query.clone())
                        .with_strategy(strategy)
                        .with_options(RunOptions {
                            max_accesses: cap,
                            budget: SearchBudget::shallow(),
                            batch_size: 16,
                            workers: 8,
                            speculation: SpeculationMode::CachedOnly,
                            ..RunOptions::default()
                        }),
                );
            }
        }
    }
    requests.shuffle(rng);
    requests
}

/// The rounds of one run, drawn from `seed`.
pub fn rounds(query: &Query, seed: u64) -> Vec<Vec<RunRequest>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7276_696e_6735);
    (0..ROUNDS)
        .map(|_| round_requests(query, &mut rng))
        .collect()
}

/// What one round did.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    /// Wall time of the whole round (cold serve, journal write, replay,
    /// warm serve), in milliseconds.
    pub wall_ms: f64,
    /// Wall time of the cold serve, in milliseconds.
    pub cold_ms: f64,
    /// Sessions served (cold and warm).
    pub sessions: usize,
    /// Accesses applied across all sessions (cold and warm).
    pub accesses: usize,
    /// Wire calls dialed (cold and warm).
    pub wire_calls: usize,
    /// Wire calls dialed by the cold serve.
    pub cold_wire_calls: usize,
    /// Calls joined onto another session's wire call (cold and warm).
    pub joined_calls: usize,
    /// Calls the sessions asked for (cold and warm).
    pub session_calls: usize,
    /// Per-session virtual latency of the cold serve, in microseconds.
    pub cold_virtual_micros: Vec<u64>,
    /// Shared-cache lookups answered during the warm serve.
    pub warm_shared_hits: u64,
    /// Shared-cache lookups that missed during the warm serve.
    pub warm_shared_misses: u64,
    /// Batches issued and calls batched (cold and warm).
    pub batches: usize,
    /// Calls issued through batches (cold and warm).
    pub batched_calls: usize,
    /// Simulated source latency (cold and warm), in microseconds.
    pub virtual_source_micros: u64,
    /// Journal size in bytes.
    pub journal_bytes: u64,
    /// Verdicts the replay restored.
    pub verdicts_restored: usize,
    /// The cold and warm session reports, in request order.
    pub cold: Vec<RunReport>,
    /// The warm session reports, in request order.
    pub warm: Vec<RunReport>,
}

fn absorb(outcome: &mut RoundOutcome, report: &ServingReport) {
    outcome.sessions += report.sessions.len();
    outcome.accesses += report.total_accesses();
    outcome.wire_calls += report.wire_calls;
    outcome.joined_calls += report.joined_calls;
    outcome.session_calls += report.session_calls();
    outcome.virtual_source_micros += report.aggregate.simulated_latency_micros;
    for s in &report.sessions {
        outcome.batches += s.report.batch_stats.batches;
        outcome.batched_calls += s.report.batch_stats.batched_calls;
    }
}

/// Drains the poll log into `tracer` as source spans under the open span.
fn drain_polls(tracer: &mut Tracer, log: &PollLog) {
    let polls = std::mem::take(&mut *log.lock().expect("poll log lock is never poisoned"));
    for (start, end) in polls {
        tracer.record(SpanName::FederationSource, start, end);
    }
}

/// Runs one round: a cold serve on a fresh registry, the journal written
/// with its verdict cache, replayed into a fresh cache, and a warm serve on
/// a registry started from that cache. With a tracer, each step and each
/// source poll is recorded under a round span with query id `round`.
pub fn run_round(
    federation: &AsyncFederation,
    poll_log: Option<&PollLog>,
    requests: &[RunRequest],
    initial: &Configuration,
    journal: &Path,
    mut tracer: Option<&mut Tracer>,
    round: u32,
) -> RoundOutcome {
    let mut outcome = RoundOutcome::default();
    macro_rules! step {
        ($name:expr, $body:expr) => {{
            match tracer.as_deref_mut() {
                Some(t) => {
                    let id = t.enter($name);
                    let out = $body;
                    if let Some(log) = poll_log {
                        drain_polls(t, log);
                    }
                    t.exit(id);
                    out
                }
                None => $body,
            }
        }};
    }
    let root = tracer.as_deref_mut().map(|t| {
        t.begin_query(format!("round {round}"));
        t.enter(SpanName::ServingRound)
    });
    let start = Instant::now();

    federation.reset_stats();
    let registry = QuerySessionRegistry::with_options(federation, ServingOptions::default());
    let cold_start = Instant::now();
    let cold = step!(SpanName::ServeCold, registry.serve(requests, initial));
    outcome.cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    let runs: Vec<&RunReport> = cold.sessions.iter().map(|s| &s.report).collect();
    step!(
        SpanName::JournalWrite,
        RunJournal::write_to(journal, &runs, registry.verdict_cache())
    )
    .expect("the journal is writable inside the benchmark directory");
    let restored = SharedVerdictCache::new();
    let summary = step!(
        SpanName::JournalReplay,
        RunJournal::replay(journal, &restored)
    )
    .expect("the journal just written reads back");
    federation.reset_stats();
    let warm_registry =
        QuerySessionRegistry::with_verdicts(federation, ServingOptions::default(), restored);
    let warm = step!(SpanName::ServeWarm, warm_registry.serve(requests, initial));

    outcome.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(id)) = (tracer, root) {
        t.exit(id);
    }
    outcome.journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len());
    outcome.verdicts_restored = summary.verdicts_restored;
    let cache = warm_registry.verdict_cache();
    outcome.warm_shared_hits = cache.hits();
    outcome.warm_shared_misses = cache.misses();
    outcome.cold_wire_calls = cold.wire_calls;
    outcome.cold_virtual_micros = cold
        .sessions
        .iter()
        .map(|s| s.stats.latency_micros)
        .collect();
    absorb(&mut outcome, &cold);
    absorb(&mut outcome, &warm);
    outcome.cold = cold.sessions.into_iter().map(|s| s.report).collect();
    outcome.warm = warm.sessions.into_iter().map(|s| s.report).collect();
    outcome
}

/// The sequential Exhaustive reference for `request`, and its wall time in
/// milliseconds.
pub fn reference(world: &World, request: &RunRequest) -> (RunReport, f64) {
    world.oracle.reset_stats();
    let start = Instant::now();
    let report = FederatedEngine::new(&world.oracle, request.query.clone(), Strategy::Exhaustive)
        .with_options(request.options.clone())
        .run(&world.initial);
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// Whether the query is certain over the whole hidden instance, and its
/// certain answers there.
pub fn ground_truth(world: &World) -> (bool, Vec<accrel_schema::Tuple>) {
    let full = world.oracle.hidden_instance().full_configuration();
    (
        certain::is_certain(&world.query, &full),
        certain::certain_answers(&world.query, &full),
    )
}
