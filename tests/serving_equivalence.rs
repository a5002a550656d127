//! Serving-vs-sequential grid: N concurrent sessions admitted by a
//! [`QuerySessionRegistry`] over one shared federation must each report
//! byte-for-byte what N independent sequential runs report — same access
//! sequence, same certain-answer verdict, same answers, same relevance
//! verdict log, same final configuration — while cross-session access
//! dedup makes the *aggregate* backend traffic strictly smaller than the
//! sum of what the sessions observed.
//!
//! The serving side wraps a `DeepWebSource` (behind the `PolicySource`
//! adapter) in a [`BlockingSource`] with a 100µs virtual round trip, so
//! admitted sessions genuinely overlap in flight on the virtual clock;
//! the sequential side runs the plain engine against a separately-built,
//! identically-configured source.

use accrel::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A scenario generated from the random-workload generators (same recipe
/// as the executor-equivalence grid).
fn random_scenario(seed: u64) -> Scenario {
    let spec = WorkloadSpec {
        relations: 3,
        arity: 2,
        domains: 2,
        constants: 10,
        dependent_fraction: 0.5,
    };
    let workload = generate_workload(&spec, &mut StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let instance = generate_instance(&workload, 40, &mut rng);
    let query = generate_query(&workload, true, 3, 3, &mut rng);
    let initial = generate_configuration(&workload, 4, &mut rng);
    Scenario {
        name: format!("random-{seed}"),
        description: "randomly generated serving scenario".to_string(),
        schema: workload.schema.clone(),
        methods: workload.methods,
        instance,
        query,
        initial_configuration: initial,
        expected_answer: false,
    }
}

fn run_options() -> RunOptions {
    RunOptions {
        max_accesses: 12,
        budget: SearchBudget::shallow(),
        batch_size: 4,
        workers: 3,
        ..RunOptions::default()
    }
}

/// The scenario behind an async federation whose deterministic source
/// answers after a 100µs virtual round trip, so sessions overlap.
fn async_federation_for(scenario: &Scenario, policy: &ResponsePolicy) -> AsyncFederation {
    let methods = scenario.methods.clone();
    let builder = AsyncFederation::builder(methods.clone());
    let clock = builder.clock().clone();
    let source = BlockingSource::new(PolicySource::new(
        "serving-grid",
        DeepWebSource::new(scenario.instance.clone(), methods.clone(), policy.clone()),
    ))
    .with_virtual_latency(LatencyModel::recorded(100), clock);
    let names: Vec<&str> = methods.iter().map(|(_, m)| m.name()).collect();
    builder.source(source, &names).unwrap().build().unwrap()
}

/// A served session reports byte-for-byte what its sequential run reports.
fn assert_same_run(served: &RunReport, sequential: &RunReport, cell: &str) {
    assert_eq!(
        served.access_sequence, sequential.access_sequence,
        "access sequence diverged: {cell}"
    );
    assert_eq!(served.certain, sequential.certain, "verdict: {cell}");
    assert_eq!(served.answers, sequential.answers, "answers: {cell}");
    assert_eq!(
        served.relevance_verdicts, sequential.relevance_verdicts,
        "relevance verdict log diverged: {cell}"
    );
    assert_eq!(
        served.accesses_made, sequential.accesses_made,
        "accesses made: {cell}"
    );
    assert!(
        served
            .final_configuration
            .same_facts(&sequential.final_configuration),
        "final configurations differ: {cell}"
    );
}

fn assert_sessions_match_sequential(scenario: &Scenario, policy: &ResponsePolicy, sessions: usize) {
    let federation = async_federation_for(scenario, policy);
    let registry = QuerySessionRegistry::new(&federation);
    for strategy in Strategy::all() {
        let request = RunRequest::new(scenario.query.clone())
            .with_strategy(strategy)
            .with_options(run_options());
        let requests: Vec<RunRequest> = (0..sessions).map(|_| request.clone()).collect();
        federation.reset_stats();
        let served = registry.serve(&requests, &scenario.initial_configuration);
        assert_eq!(served.sessions.len(), sessions);

        // One sequential run on a separately-built source is the oracle
        // every session must reproduce.
        let sequential_source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            policy.clone(),
        );
        let sequential =
            Sequential::new(&sequential_source).execute(&request, &scenario.initial_configuration);
        for s in &served.sessions {
            let cell = format!(
                "session={} of {sessions} scenario={} strategy={} policy={policy:?}",
                s.session,
                scenario.name,
                strategy.name()
            );
            assert_same_run(&s.report, &sequential, &cell);
        }
        // The wire-call ledger balances regardless of session count.
        assert_eq!(
            served.wire_calls + served.joined_calls,
            served.session_calls(),
            "wire + joined must equal what the sessions observed"
        );
    }
}

#[test]
fn bank_serving_grid_matches_sequential() {
    let scenario = bank_scenario();
    for policy in [
        ResponsePolicy::Exact,
        ResponsePolicy::FirstK(2),
        ResponsePolicy::SoundSample {
            probability: 0.7,
            seed: 17,
        },
    ] {
        for sessions in [1, 4, 16] {
            assert_sessions_match_sequential(&scenario, &policy, sessions);
        }
    }
}

#[test]
fn random_serving_grid_matches_sequential() {
    for seed in [11, 29] {
        let scenario = random_scenario(seed);
        for policy in [
            ResponsePolicy::Exact,
            ResponsePolicy::FirstK(2),
            ResponsePolicy::SoundSample {
                probability: 0.6,
                seed,
            },
        ] {
            for sessions in [1, 4] {
                assert_sessions_match_sequential(&scenario, &policy, sessions);
            }
        }
    }
}

/// One serve of same-query sessions at two access caps × batch sizes
/// {1, 4, 8} × speculation {CachedOnly, Eager}. The cap and the batch knobs
/// stay out of the verdict class, so all twelve sessions share verdicts:
/// each still matches its solo sequential run byte for byte, the small-cap
/// sessions answer checks from the shared cache, and the serve runs exactly
/// the decision procedures the longest session runs alone.
fn assert_mixed_knob_sessions_share_one_trajectory(scenario: &Scenario, policy: &ResponsePolicy) {
    let federation = async_federation_for(scenario, policy);
    let sequential_source = DeepWebSource::new(
        scenario.instance.clone(),
        scenario.methods.clone(),
        policy.clone(),
    );
    let initial = &scenario.initial_configuration;
    for strategy in [Strategy::LtrGuided, Strategy::Hybrid] {
        let request = |cap: usize, batch_size: usize, speculation: SpeculationMode| {
            RunRequest::new(scenario.query.clone())
                .with_strategy(strategy)
                .with_options(RunOptions {
                    max_accesses: cap,
                    batch_size,
                    speculation,
                    ..run_options()
                })
        };
        let large = 4 * run_options().max_accesses;
        let alone = QuerySessionRegistry::new(&federation);
        let longest = alone
            .serve(&[request(large, 4, SpeculationMode::CachedOnly)], initial)
            .sessions
            .remove(0)
            .report;
        let small = longest.accesses_made / 2;
        let cell = format!(
            "scenario={} strategy={} policy={policy:?}",
            scenario.name,
            strategy.name()
        );
        assert!(small > 0, "the small cap must truncate the run: {cell}");

        // Large caps first: they are admitted first, so the small-cap
        // sessions find verdicts already published. An Eager session at
        // batch size 8 leads, so the others reuse verdicts (and read sets)
        // published by a session whose scratch checks interned values.
        let mut requests = Vec::new();
        for cap in [large, small] {
            for speculation in [SpeculationMode::Eager, SpeculationMode::CachedOnly] {
                for batch_size in [8, 4, 1] {
                    requests.push(request(cap, batch_size, speculation));
                }
            }
        }
        let registry = QuerySessionRegistry::new(&federation);
        let served = registry.serve(&requests, initial);
        for (s, request) in served.sessions.iter().zip(&requests) {
            let options = &request.options;
            let cell = format!(
                "{cell} cap={} batch={} speculation={:?}",
                options.max_accesses, options.batch_size, options.speculation
            );
            let solo = Sequential::new(&sequential_source).execute(request, initial);
            assert_same_run(&s.report, &solo, &cell);
            if options.max_accesses == small {
                assert!(
                    s.report.relevance_shared_hits > 0,
                    "no shared verdict reused: {cell}"
                );
            }
        }
        assert_eq!(
            registry.verdict_cache().misses(),
            alone.verdict_cache().misses(),
            "the serve ran other procedures than the longest session alone: {cell}"
        );
    }
}

/// A decision procedure interns the values of its tentative responses, and
/// a session answered from the shared cache skips that procedure. If those
/// values kept their ids, sessions of one class would number later values
/// differently and misread each other's shared read sets; the LTR checks of
/// this scenario intern such values. Every session must still evict reused
/// verdicts exactly where its sequential run does.
#[test]
fn sessions_that_interned_differently_share_read_sets_soundly() {
    let scenario = random_scenario(14);
    let source = DeepWebSource::new(
        scenario.instance.clone(),
        scenario.methods.clone(),
        ResponsePolicy::Exact,
    );
    let request = RunRequest::new(scenario.query.clone())
        .with_strategy(Strategy::LtrGuided)
        .with_options(RunOptions {
            budget: SearchBudget::shallow(),
            batch_size: 1,
            ..RunOptions::default()
        });
    let initial = &scenario.initial_configuration;
    let solo = Sequential::new(&source).execute(&request, initial);
    let federation = async_federation_for(&scenario, &ResponsePolicy::Exact);
    let registry = QuerySessionRegistry::new(&federation);
    for serve in ["cold", "warm"] {
        let served = registry.serve(&vec![request.clone(); 3], initial);
        for s in &served.sessions {
            assert_same_run(&s.report, &solo, &format!("{serve} session {}", s.session));
        }
        assert!(served.sessions[1].report.relevance_shared_hits > 0);
    }
}

#[test]
fn mixed_knob_sessions_share_one_verdict_trajectory() {
    for policy in [ResponsePolicy::Exact, ResponsePolicy::FirstK(2)] {
        assert_mixed_knob_sessions_share_one_trajectory(&bank_scenario(), &policy);
        for seed in [11, 29] {
            assert_mixed_knob_sessions_share_one_trajectory(&random_scenario(seed), &policy);
        }
    }
}

#[test]
fn per_source_traffic_in_the_serving_report_balances_the_aggregate() {
    use accrel::prelude::internals::{ChaosStats, SourceStats};

    // A flaky backend whose failures are all absorbed by retries: the serve
    // still matches the oracle elsewhere, and the new per-source ledger must
    // expose the retry traffic that the aggregate alone would hide.
    let scenario = bank_scenario();
    let flaky = SimulatedSource::exact(
        "flaky-bank",
        scenario.instance.clone(),
        scenario.methods.clone(),
    )
    .with_flaky(FlakyModel {
        period: 2,
        fail_attempts: 1,
        retries: 3,
    });
    let federation = AsyncFederation::single_simulated(flaky);
    let registry = QuerySessionRegistry::new(&federation);
    let requests: Vec<RunRequest> = (0..2)
        .map(|_| {
            RunRequest::new(scenario.query.clone())
                .with_strategy(Strategy::Exhaustive)
                .with_options(run_options())
        })
        .collect();
    let report = registry.serve(&requests, &scenario.initial_configuration);

    assert_eq!(report.per_source.len(), 1);
    let (name, stats) = &report.per_source[0];
    assert_eq!(name, "flaky-bank");
    assert!(
        stats.source.retries > 0,
        "flaky calls must surface as retries"
    );
    assert_eq!(
        stats.source.failures, 0,
        "every transient failure is absorbed by the retry budget"
    );
    // The per-source views partition the aggregate exactly.
    let summed = report
        .per_source
        .iter()
        .fold(SourceStats::default(), |acc, (_, s)| acc.merged(&s.source));
    assert_eq!(summed, report.aggregate.source);
    // No chaos controller attached: the chaos ledger stays all-zero.
    assert_eq!(report.chaos, ChaosStats::default());
}

#[test]
fn dedup_strictly_reduces_aggregate_backend_traffic() {
    // Identical overlapping sessions must share wire calls: the aggregate
    // backend counters (each wire call counted once) stay strictly below
    // the sum of the per-session views.
    let scenario = bank_scenario();
    let federation = async_federation_for(&scenario, &ResponsePolicy::Exact);
    let registry = QuerySessionRegistry::new(&federation);
    let requests: Vec<RunRequest> = (0..4)
        .map(|_| {
            RunRequest::new(scenario.query.clone())
                .with_strategy(Strategy::Exhaustive)
                .with_options(run_options())
        })
        .collect();
    let report = registry.serve(&requests, &scenario.initial_configuration);
    let session_sum: usize = report.sessions.iter().map(|s| s.stats.calls).sum();
    assert!(
        report.aggregate.source.calls < session_sum,
        "dedup must strictly reduce aggregate calls: aggregate={} session-sum={session_sum}",
        report.aggregate.source.calls
    );
    assert!(report.joined_calls > 0, "overlapping sessions must share");
    assert_eq!(report.aggregate.source.calls, report.wire_calls);
    // The fractional attribution re-partitions the wire calls exactly.
    let fractional: f64 = report
        .sessions
        .iter()
        .map(|s| s.stats.fractional_calls)
        .sum();
    assert!(
        (fractional - report.wire_calls as f64).abs() < 1e-6,
        "fractional shares must sum to the wire calls: {fractional} vs {}",
        report.wire_calls
    );
}
