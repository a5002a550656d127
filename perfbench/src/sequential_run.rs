//! A run of a sequential workload (`guided-mix`, `flood-chain`).

use std::time::Instant;

use accrel_access::AccessMode;
use accrel_engine::relevance::RelevanceKind;
use accrel_engine::{RunReport, Strategy};
use accrel_schema::Tuple;

use crate::hostclock::{HostClock, Kernel, Sample};
use crate::report::{interpolated_quantile, peak_rss_mb, ratio, RunResult};
use crate::sequential::{self, first_difference, Input, Inputs, LayerCounts, Outcome};
use crate::trace::{SpanName, Tracer};
use crate::workloads::{
    finish_trace, median, passes, push_end_to_end, push_layer, push_unused_layers, sound,
    spread_schedule, timed, RunConfig, Workload,
};

/// The repeated measurements of one distinct query run (input × strategy).
#[derive(Debug)]
struct QuerySamples {
    /// Index of the input, for its reference samples.
    input: usize,
    /// The strategy.
    strategy: Strategy,
    /// Every repetition.
    samples: Vec<Sample>,
    /// Accesses executed (the same on every repetition).
    accesses: usize,
    /// Source calls dialed (the same on every repetition).
    source_calls: usize,
}

/// Aggregates over the timed runs.
#[derive(Debug, Default)]
struct Totals {
    runs: usize,
    ltr_dependent_calls: usize,
    trail_pushed: u64,
    cache_hits: usize,
    cache_misses: usize,
    events_drained: usize,
    evictions: usize,
    shard_copies: u64,
    reads_tracked: usize,
    traced_ms: f64,
    untraced_ms: f64,
}

/// One kind of timed repetition.
#[derive(Debug, Clone, Copy)]
enum Item {
    /// A rebuild of the inputs, timed for `setup_s` and dropped.
    Setup,
    /// The Exhaustive reference of an input, timed for the break-even.
    Reference(usize),
    /// A measured query run: an index into the query samples.
    Query(usize),
}

impl Totals {
    fn absorb(&mut self, input: &Input, report: &RunReport) {
        let all_independent = input
            .source
            .methods()
            .methods()
            .iter()
            .all(|m| m.mode() == AccessMode::Independent);
        if !all_independent {
            self.ltr_dependent_calls += report
                .relevance_verdicts
                .iter()
                .filter(|v| v.kind == RelevanceKind::LongTerm)
                .count();
        }
        self.runs += 1;
        self.trail_pushed += report.trail_ops.pushed;
        self.cache_hits += report.relevance_cache_hits;
        self.cache_misses += report.relevance_cache_misses;
        self.events_drained += report.events_drained;
        self.evictions += report.evictions;
        self.shard_copies += report.shard_copies;
        self.reads_tracked += report.reads_tracked;
    }
}

/// Counts a run against its Exhaustive reference (a mismatch in `certain`
/// or the answers is a failed run) and fails the check when the run is
/// unsound against the ground truth.
fn check(
    input: &Input,
    strategy: Strategy,
    report: &RunReport,
    reference: &RunReport,
    truth: &(bool, Vec<Tuple>),
    result: &mut RunResult,
) {
    result.attempted += 1;
    if report.certain != reference.certain || report.answers != reference.answers {
        result.failed += 1;
        result.notes.push(format!(
            "mismatch: {} {} certain={} answers={} vs Exhaustive certain={} answers={}",
            input.label,
            strategy.name(),
            report.certain,
            report.answers.len(),
            reference.certain,
            reference.answers.len()
        ));
    }
    if !sound(report.certain, &report.answers, truth) {
        result.fail_check(format!(
            "{} {} returned an answer that is not certain over the hidden instance",
            input.label,
            strategy.name()
        ));
    }
}

/// Drives the same query through [`Input::run_traced`] and fails the run
/// unless every observable agrees with the untraced report. Returns the
/// traced wall time in milliseconds.
fn traced_twin(
    input: &Input,
    strategy: Strategy,
    untraced: RunReport,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
    result: &mut RunResult,
) -> f64 {
    let (traced, ms) = timed(|| input.run_traced(strategy, tracer, counts));
    if let Some(field) = first_difference(&traced, &Outcome::from(untraced)) {
        result.fail_check(format!(
            "traced driver diverged from FederatedEngine::run on {} {}: {field}",
            input.label,
            strategy.name()
        ));
    }
    ms
}

fn vacuity(workload: Workload, totals: &Totals, result: &mut RunResult) {
    match workload {
        Workload::GuidedMix => {
            if totals.ltr_dependent_calls == 0 {
                result.fail_check("guided-mix ran no dependent-LTR procedure".into());
            }
            if totals.trail_pushed == 0 {
                result.fail_check("guided-mix pushed no trail entry".into());
            }
        }
        Workload::FloodChain => {
            if totals.events_drained == 0 {
                result.fail_check("flood-chain drained no invalidation event".into());
            }
            let hit_frac = ratio(
                totals.cache_hits as f64,
                (totals.cache_hits + totals.cache_misses) as f64,
            );
            if hit_frac <= 0.5 {
                result.fail_check(format!(
                    "flood-chain relevance hit fraction {hit_frac} ≤ 0.5"
                ));
            }
        }
        Workload::ServingE5 => unreachable!("serving-e5 is not sequential"),
    }
}

/// Runs a sequential workload: set-up, one untimed warm pass over the timed
/// inputs, the timed repetitions in spread order (each run checked, and in a
/// traced run followed by its traced twin), then the untimed sweep.
pub fn run(config: &RunConfig) -> RunResult {
    let seed = config.seed;
    let build = || match config.workload {
        Workload::GuidedMix => sequential::guided_mix_inputs(seed),
        _ => sequential::flood_chain_inputs(seed),
    };
    // The kernels closest to the workload's working set (see NOTES.md,
    // "Machine noise").
    let mut clock = HostClock::new(match config.workload {
        Workload::GuidedMix => &[Kernel::Compute],
        _ => &[Kernel::Compute, Kernel::Memory],
    });
    let (inputs, first_build) = clock.time(build);
    let mut setup = vec![first_build];
    let Inputs {
        timed,
        traced_only,
        sweep,
    } = &inputs;
    // Inputs too slow to time steadily are run, checked and traced only in a
    // traced run.
    let timed_inputs: Vec<&Input> = if config.trace {
        timed.iter().chain(traced_only).collect()
    } else {
        timed.iter().collect()
    };
    let truths: Vec<(bool, Vec<Tuple>)> = timed_inputs.iter().map(|i| i.ground_truth()).collect();
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };

    // One untimed pass per distinct input warms the process and gives the
    // Exhaustive reference every run of the input is checked against; the
    // per-run relevance caches stay in the timed region, as users pay for
    // them on every run.
    let references: Vec<RunReport> = timed_inputs
        .iter()
        .map(|input| {
            for &strategy in &input.strategies {
                std::hint::black_box(input.run(strategy));
            }
            input.run(Strategy::Exhaustive)
        })
        .collect();

    let passes = passes(config);
    let mut queries = Vec::new();
    let mut items = Vec::new();
    let mut reps = Vec::new();
    for (i, input) in timed_inputs.iter().enumerate() {
        let n = if config.trace {
            1
        } else {
            input.repetitions * passes
        };
        // A traced run reports no break-even, so it times no reference.
        items.push(Item::Reference(i));
        reps.push(if config.trace { 0 } else { n });
        for &strategy in &input.strategies {
            items.push(Item::Query(queries.len()));
            reps.push(n);
            queries.push(QuerySamples {
                input: i,
                strategy,
                samples: Vec::new(),
                accesses: 0,
                source_calls: 0,
            });
        }
    }
    if !config.trace {
        items.push(Item::Setup);
        reps.push(config.workload.setup_reps() - 1);
    }

    let mut reference_samples: Vec<Vec<Sample>> = vec![Vec::new(); timed_inputs.len()];
    let mut totals = Totals::default();
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    for item in spread_schedule(&reps).into_iter().map(|k| items[k]) {
        match item {
            Item::Setup => {
                let (rebuilt, sample) = clock.time(build);
                drop(rebuilt);
                setup.push(sample);
            }
            Item::Reference(i) => {
                let (reference, sample) = clock.time(|| timed_inputs[i].run(Strategy::Exhaustive));
                reference_samples[i].push(sample);
                if reference.certain != references[i].certain
                    || reference.answers != references[i].answers
                    || reference.access_sequence != references[i].access_sequence
                {
                    result.fail_check(format!(
                        "the Exhaustive reference of {} is not deterministic",
                        timed_inputs[i].label
                    ));
                }
            }
            Item::Query(q) => {
                let (i, strategy) = (queries[q].input, queries[q].strategy);
                let input = timed_inputs[i];
                let (report, sample) = clock.time(|| input.run(strategy));
                check(
                    input,
                    strategy,
                    &report,
                    &references[i],
                    &truths[i],
                    &mut result,
                );
                totals.absorb(input, &report);
                let samples = &mut queries[q];
                samples.accesses = report.accesses_made;
                samples.source_calls = report.source_stats.calls + report.source_stats.failures;
                samples.samples.push(sample);
                if config.trace {
                    tracer.begin_query(format!("{} {}", input.label, strategy.name()));
                    totals.untraced_ms += sample.wall_ms;
                    totals.traced_ms += traced_twin(
                        input,
                        strategy,
                        report,
                        &mut tracer,
                        &mut counts,
                        &mut result,
                    );
                }
            }
        }
    }
    clock.close();

    // The sweep: checked like the timed runs (and traced in a traced run, for
    // the equivalence check), but not timed.
    let sweep_start = Instant::now();
    let mut sweep_tracer = Tracer::new();
    for input in sweep {
        let truth = input.ground_truth();
        let reference = input.run(Strategy::Exhaustive);
        for &strategy in &input.strategies {
            let report = input.run(strategy);
            check(input, strategy, &report, &reference, &truth, &mut result);
            if config.trace {
                let mut scratch = LayerCounts::default();
                sweep_tracer.begin_query(format!("{} {}", input.label, strategy.name()));
                traced_twin(
                    input,
                    strategy,
                    report,
                    &mut sweep_tracer,
                    &mut scratch,
                    &mut result,
                );
            }
        }
    }

    let repetitions: Vec<usize> = queries.iter().map(|q| q.samples.len()).collect();
    let (blocks, slowness) = clock.summary();
    result.notes.push(format!(
        "{} timed inputs, {} timed query runs and {} Exhaustive reference runs in spread \
         order; queries_per_s and the break-even are over the median scaled repetition of each \
         of {} distinct query runs, each repeated {}..={} times, query_ms quantiles over the n = \
         {} scaled timed runs; setup_s is the median of {} scaled builds; {} calibration blocks, \
         median host slowness {:.3}; {} swept inputs checked untimed in {:.1} s",
        timed_inputs.len(),
        totals.runs,
        reference_samples.iter().map(Vec::len).sum::<usize>(),
        queries.len(),
        repetitions.iter().min().unwrap_or(&0),
        repetitions.iter().max().unwrap_or(&0),
        repetitions.iter().sum::<usize>(),
        setup.len(),
        blocks,
        slowness,
        sweep.len(),
        sweep_start.elapsed().as_secs_f64()
    ));
    vacuity(config.workload, &totals, &mut result);
    if config.trace {
        let n = totals.runs as f64;
        let times = tracer.self_times();
        let per = |x: f64| x / n;
        let procedure_runs = times.count(SpanName::CoreIr)
            + times.count(SpanName::CoreLtrDependent)
            + times.count(SpanName::CoreLtrIndependent);
        let hits = times.count(SpanName::RelevanceHit);
        let layer = [
            (
                "access.frontier.ms",
                per(times.ms(SpanName::AccessFrontier)),
            ),
            (
                "access.frontier.emitted",
                per(counts.frontier_emitted as f64),
            ),
            ("access.apply.ms", per(times.ms(SpanName::AccessApply))),
            ("access.apply.rows", per(counts.apply_rows as f64)),
            ("query.certain.ms", per(times.ms(SpanName::QueryCertain))),
            ("query.certain.calls", per(counts.certain_calls as f64)),
            ("core.ir.calls", per(times.count(SpanName::CoreIr) as f64)),
            ("core.ir.ms", per(times.ms(SpanName::CoreIr))),
            (
                "core.ltr_dependent.calls",
                per(times.count(SpanName::CoreLtrDependent) as f64),
            ),
            (
                "core.ltr_dependent.ms",
                per(times.ms(SpanName::CoreLtrDependent)),
            ),
            (
                "core.ltr_independent.calls",
                per(times.count(SpanName::CoreLtrIndependent) as f64),
            ),
            (
                "core.ltr_independent.ms",
                per(times.ms(SpanName::CoreLtrIndependent)),
            ),
            (
                "core.relevant_frac",
                ratio(counts.relevant_verdicts as f64, procedure_runs as f64),
            ),
            (
                "engine.relevance.hit_frac",
                ratio(hits as f64, (hits + procedure_runs) as f64),
            ),
            (
                "engine.relevance.hit_ms",
                per(times.ms(SpanName::RelevanceHit)),
            ),
            (
                "engine.invalidation.ms",
                per(times.ms(SpanName::EngineInvalidation)),
            ),
            (
                "engine.invalidation.events",
                per(totals.events_drained as f64),
            ),
            (
                "engine.invalidation.evictions",
                per(totals.evictions as f64),
            ),
            ("engine.source.ms", per(times.ms(SpanName::EngineSource))),
            (
                "engine.source.calls",
                per(times.count(SpanName::EngineSource) as f64),
            ),
            ("engine.loop.self_ms", per(times.ms(SpanName::EngineRun))),
            ("schema.trail.pushed", per(totals.trail_pushed as f64)),
            ("schema.shard_copies", per(totals.shard_copies as f64)),
            ("schema.reads_tracked", per(totals.reads_tracked as f64)),
        ];
        for (name, value) in layer {
            push_layer(&mut result, name, value);
        }
        push_unused_layers(&mut result, true);
        finish_trace(
            config,
            &tracer,
            totals.traced_ms,
            totals.untraced_ms,
            &mut result,
        );
    } else {
        let n = queries.len() as f64;
        let scaled = |samples: &[Sample]| {
            let ms: Vec<f64> = samples.iter().map(|s| clock.scaled_ms(s)).collect();
            median(&ms)
        };
        let query_ms: Vec<f64> = queries.iter().map(|q| scaled(&q.samples)).collect();
        let every_run_ms: Vec<f64> = queries
            .iter()
            .flat_map(|q| q.samples.iter().map(|s| clock.scaled_ms(s)))
            .collect();
        let reference: Vec<f64> = reference_samples.iter().map(|r| scaled(r)).collect();
        let mut saved_ms = 0.0;
        let mut saved_accesses = 0.0;
        for (query, ms) in queries.iter().zip(&query_ms) {
            saved_ms += ms - reference[query.input];
            saved_accesses += references[query.input].accesses_made as f64 - query.accesses as f64;
        }
        let sum = |f: fn(&QuerySamples) -> usize| queries.iter().map(f).sum::<usize>();
        push_end_to_end(
            &mut result,
            [
                scaled(&setup) / 1e3,
                n / (query_ms.iter().sum::<f64>() / 1e3),
                interpolated_quantile(&every_run_ms, 0.5),
                interpolated_quantile(&every_run_ms, 0.9),
                sum(|q| q.accesses) as f64 / n,
                sum(|q| q.source_calls) as f64 / n,
                saved_ms / saved_accesses,
                peak_rss_mb().unwrap_or(f64::NAN),
            ],
        );
    }
    result
}
