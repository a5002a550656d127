//! A run of the `serving-e5` workload.

use std::collections::BTreeMap;
use std::path::Path;

use accrel_engine::{RunReport, RunRequest, Strategy};
use accrel_schema::Tuple;

use crate::hostclock::{HostClock, Kernel, Sample};
use crate::report::{interpolated_quantile, peak_rss_mb, quantile, ratio, RunResult};
use crate::serving::{self, RoundOutcome, World};
use crate::trace::{SpanName, Tracer};
use crate::workloads::{
    finish_trace, median, passes, push_end_to_end, push_layer, push_unused_layers, sound,
    spread_schedule, RunConfig,
};

/// The repeated measurements of one distinct round.
#[derive(Debug, Default)]
struct RoundSamples {
    /// Every repetition of the whole round, with the wall time of its cold
    /// serve in milliseconds.
    timings: Vec<(Sample, f64)>,
    /// Sessions served per repetition (cold and warm).
    sessions: usize,
    /// Wire calls the cold serve dialed (the same on every repetition).
    cold_wire_calls: usize,
    /// The access cap of every request, for its reference.
    caps: Vec<usize>,
}

/// Aggregates over the timed rounds of `serving-e5`.
#[derive(Debug, Default)]
struct ServingTotals {
    rounds: usize,
    sessions: usize,
    samples: Vec<RoundSamples>,
    /// Every Exhaustive reference run, and its accesses, per access cap.
    references: BTreeMap<usize, (Vec<Sample>, usize)>,
    accesses: usize,
    wire_calls: usize,
    joined_calls: usize,
    session_calls: usize,
    warm_shared_hits: u64,
    warm_shared_misses: u64,
    batches: usize,
    batched_calls: usize,
    virtual_source_micros: u64,
    journal_bytes: u64,
    verdicts_restored: usize,
    cold_virtual_micros: Vec<u64>,
    traced_ms: f64,
    untraced_ms: f64,
}

impl ServingTotals {
    /// Adds `round`'s counts and, timed as `sample`, its timing.
    fn absorb(
        &mut self,
        distinct: usize,
        requests: &[RunRequest],
        round: &RoundOutcome,
        sample: Sample,
    ) {
        self.rounds += 1;
        self.sessions += round.sessions;
        if self.samples.len() <= distinct {
            self.samples
                .resize_with(distinct + 1, RoundSamples::default);
        }
        let samples = &mut self.samples[distinct];
        samples.sessions = round.sessions;
        samples.cold_wire_calls = round.cold_wire_calls;
        samples.caps = requests.iter().map(|r| r.options.max_accesses).collect();
        samples.timings.push((sample, round.cold_ms));
        self.accesses += round.accesses;
        self.wire_calls += round.wire_calls;
        self.joined_calls += round.joined_calls;
        self.session_calls += round.session_calls;
        self.warm_shared_hits += round.warm_shared_hits;
        self.warm_shared_misses += round.warm_shared_misses;
        self.batches += round.batches;
        self.batched_calls += round.batched_calls;
        self.virtual_source_micros += round.virtual_source_micros;
        self.journal_bytes += round.journal_bytes;
        self.verdicts_restored += round.verdicts_restored;
        self.cold_virtual_micros
            .extend_from_slice(&round.cold_virtual_micros);
    }
}

/// Checks every session of `round` against the Exhaustive reference of its
/// request and the ground truth; Exhaustive sessions must also execute the
/// reference's access sequence, and every warm session must repeat its cold
/// twin.
fn check_round(
    round: &RoundOutcome,
    requests: &[RunRequest],
    references: &[(usize, RunReport)],
    truth: &(bool, Vec<Tuple>),
    result: &mut RunResult,
) {
    let reference_for = |cap: usize| {
        &references
            .iter()
            .find(|r| r.0 == cap)
            .expect("a reference per cap")
            .1
    };
    for (i, request) in requests.iter().enumerate() {
        let reference = reference_for(request.options.max_accesses);
        for (phase, session) in [("cold", &round.cold[i]), ("warm", &round.warm[i])] {
            result.attempted += 1;
            let mut mismatch =
                session.certain != reference.certain || session.answers != reference.answers;
            if request.strategy == Strategy::Exhaustive {
                mismatch |= session.access_sequence != reference.access_sequence;
            }
            if mismatch {
                result.failed += 1;
                result.notes.push(format!(
                    "mismatch: {phase} session {i} ({}, cap {}) vs Exhaustive reference",
                    request.strategy.name(),
                    request.options.max_accesses
                ));
            }
            if !sound(session.certain, &session.answers, truth) {
                result.fail_check(format!(
                    "{phase} session {i} returned an answer that is not certain over the \
                     hidden instance"
                ));
            }
        }
        let (cold, warm) = (&round.cold[i], &round.warm[i]);
        if cold.access_sequence != warm.access_sequence
            || cold.relevance_verdicts != warm.relevance_verdicts
        {
            result.fail_check(format!(
                "warm session {i} diverged from its cold twin after the journal replay"
            ));
        }
    }
}

/// The Exhaustive reference of every access cap `requests` ask for.
fn references(world: &World, requests: &[RunRequest]) -> Vec<(usize, RunReport)> {
    let mut out: Vec<(usize, RunReport)> = Vec::new();
    for request in requests {
        let cap = request.options.max_accesses;
        if out.iter().all(|r| r.0 != cap) {
            out.push((cap, serving::reference(world, request).0));
        }
    }
    out
}

/// One kind of timed repetition.
#[derive(Debug, Clone, Copy)]
enum Item {
    /// A rebuild of the world and rounds, timed for `setup_s` and dropped.
    Setup,
    /// The Exhaustive reference at one access cap (an index into the
    /// references), timed for the break-even.
    Reference(usize),
    /// A round, by index.
    Round(usize),
}

/// Runs `serving-e5`: set-up, one untimed warm pass over the rounds, then
/// the timed repetitions in spread order (each round checked, and in a
/// traced run followed by its traced twin on the timed federation).
pub fn run(config: &RunConfig) -> RunResult {
    let build = || {
        let world = serving::build_world(config.trace);
        let rounds = serving::rounds(&world.query, config.seed);
        (world, rounds)
    };
    let mut clock = HostClock::new(&[Kernel::Compute]);
    let ((world, rounds), first_build) = clock.time(build);
    let mut setup = vec![first_build];
    let truth = serving::ground_truth(&world);
    std::fs::create_dir_all(&config.out_dir).expect("the benchmark directory is writable");
    let journal = config.out_dir.join("serving-journal.txt");
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };

    // One untimed pass over every round warms the process (and, in a traced
    // run, the timed federation too). Every round asks for every cap, so one
    // reference per cap serves all of them.
    let refs = references(&world, &rounds[0]);
    for requests in &rounds {
        std::hint::black_box(run_untraced_round(&world, requests, &journal));
        if let Some((federation, log)) = &world.traced {
            let mut warm_up = Tracer::new();
            std::hint::black_box(serving::run_round(
                federation,
                Some(log),
                requests,
                &world.initial,
                &journal,
                Some(&mut warm_up),
                0,
            ));
        }
    }

    let n = if config.trace {
        1
    } else {
        serving::ROUND_REPETITIONS * passes(config)
    };
    let mut items = Vec::new();
    let mut reps = Vec::new();
    for r in 0..rounds.len() {
        items.push(Item::Round(r));
        reps.push(n);
    }
    // A traced run reports no break-even, so it times no reference.
    for c in 0..refs.len() {
        items.push(Item::Reference(c));
        reps.push(if config.trace { 0 } else { n });
    }
    if !config.trace {
        items.push(Item::Setup);
        reps.push(config.workload.setup_reps() - 1);
    }

    let mut totals = ServingTotals::default();
    let mut tracer = Tracer::new();
    let mut round_id = 0u32;
    for item in spread_schedule(&reps).into_iter().map(|k| items[k]) {
        match item {
            Item::Setup => {
                let (rebuilt, sample) = clock.time(build);
                drop(rebuilt);
                setup.push(sample);
            }
            Item::Reference(c) => {
                let (cap, first) = &refs[c];
                let request = rounds[0]
                    .iter()
                    .find(|r| r.options.max_accesses == *cap)
                    .expect("every round asks for every cap");
                let ((reference, _), sample) = clock.time(|| serving::reference(&world, request));
                if reference.certain != first.certain
                    || reference.answers != first.answers
                    || reference.access_sequence != first.access_sequence
                {
                    result.fail_check(format!(
                        "the Exhaustive reference at cap {cap} is not deterministic"
                    ));
                }
                totals
                    .references
                    .entry(*cap)
                    .or_insert_with(|| (Vec::new(), first.accesses_made))
                    .0
                    .push(sample);
            }
            Item::Round(r) => {
                let requests = &rounds[r];
                let (round, sample) = clock.time(|| run_untraced_round(&world, requests, &journal));
                check_round(&round, requests, &refs, &truth, &mut result);
                let Some((federation, log)) = &world.traced else {
                    totals.absorb(r, requests, &round, sample);
                    continue;
                };
                let traced = serving::run_round(
                    federation,
                    Some(log),
                    requests,
                    &world.initial,
                    &journal,
                    Some(&mut tracer),
                    round_id,
                );
                round_id += 1;
                for (i, (a, b)) in round.cold.iter().zip(&traced.cold).enumerate() {
                    if a.access_sequence != b.access_sequence
                        || a.relevance_verdicts != b.relevance_verdicts
                    {
                        result.fail_check(format!(
                            "traced round diverged from the untraced one in session {i}"
                        ));
                    }
                }
                totals.untraced_ms += round.wall_ms;
                totals.traced_ms += traced.wall_ms;
                totals.absorb(r, requests, &traced, sample);
            }
        }
    }
    clock.close();
    let _ = std::fs::remove_file(&journal);

    let (blocks, slowness) = clock.summary();
    result.notes.push(format!(
        "{} distinct rounds of {} sessions, {} timed rounds in spread order; query_ms \
         quantiles over n = {} distinct rounds (median scaled round ms per session, of {} \
         repetition(s) each); virtual-latency quantiles over n = {} cold sessions; setup_s \
         is the median of {} scaled builds; {} calibration blocks, median host slowness {:.3}",
        rounds.len(),
        rounds.first().map_or(0, Vec::len),
        totals.rounds,
        totals.samples.len(),
        n,
        totals.cold_virtual_micros.len(),
        setup.len(),
        blocks,
        slowness
    ));
    if totals.joined_calls == 0 {
        result.fail_check("serving-e5 joined no call onto another session's wire call".into());
    }
    if totals.warm_shared_hits == 0 {
        result
            .fail_check("serving-e5 warm serves answered no verdict from the shared cache".into());
    }
    if totals.verdicts_restored == 0 {
        result.fail_check("serving-e5 journal replays restored no verdict".into());
    }

    let rounds_n = totals.rounds as f64;
    let sessions = totals.sessions as f64;
    if config.trace {
        let times = tracer.self_times();
        let per = |x: f64| x / rounds_n;
        push_unused_layers(&mut result, false);
        let virtual_ms: Vec<f64> = totals
            .cold_virtual_micros
            .iter()
            .map(|&us| us as f64 / 1e3)
            .collect();
        let layer = [
            (
                "federation.serve_cold.ms",
                per(times.ms(SpanName::ServeCold)),
            ),
            (
                "federation.serve_warm.ms",
                per(times.ms(SpanName::ServeWarm)),
            ),
            ("federation.source.calls", per(totals.wire_calls as f64)),
            (
                "federation.source.ms",
                per(times.ms(SpanName::FederationSource)),
            ),
            (
                "federation.source.virtual_ms",
                per(totals.virtual_source_micros as f64 / 1e3),
            ),
            (
                "federation.dedup.joined_frac",
                ratio(totals.joined_calls as f64, totals.session_calls as f64),
            ),
            (
                "federation.shared_verdicts.hit_frac",
                ratio(
                    totals.warm_shared_hits as f64,
                    (totals.warm_shared_hits + totals.warm_shared_misses) as f64,
                ),
            ),
            (
                "federation.batch.mean",
                ratio(totals.batched_calls as f64, totals.batches as f64),
            ),
            (
                "federation.journal.write_ms",
                per(times.ms(SpanName::JournalWrite)),
            ),
            (
                "federation.journal.replay_ms",
                per(times.ms(SpanName::JournalReplay)),
            ),
            ("federation.journal.bytes", per(totals.journal_bytes as f64)),
            (
                "federation.journal.verdicts_restored",
                per(totals.verdicts_restored as f64),
            ),
            (
                "federation.session_virtual_ms.p50",
                quantile(&virtual_ms, 0.5),
            ),
            (
                "federation.session_virtual_ms.p90",
                quantile(&virtual_ms, 0.9),
            ),
        ];
        for (name, value) in layer {
            push_layer(&mut result, name, value);
        }
        finish_trace(
            config,
            &tracer,
            totals.traced_ms,
            totals.untraced_ms,
            &mut result,
        );
    } else {
        let scaled = |samples: &[Sample]| {
            let ms: Vec<f64> = samples.iter().map(|s| clock.scaled_ms(s)).collect();
            median(&ms)
        };
        let reference = |cap: &usize| {
            let (samples, accesses) = &totals.references[cap];
            (scaled(samples), *accesses as f64)
        };
        let mut wall_ms = 0.0;
        let mut per_session_ms = Vec::new();
        let mut saved_ms = 0.0;
        let mut saved_accesses = 0.0;
        for round in &totals.samples {
            let rounds: Vec<Sample> = round.timings.iter().map(|t| t.0).collect();
            let wall = scaled(&rounds);
            let cold: Vec<f64> = round
                .timings
                .iter()
                .map(|(s, cold)| clock.scale(s, *cold))
                .collect();
            wall_ms += wall;
            per_session_ms.push(wall / round.sessions as f64);
            saved_ms += median(&cold);
            saved_accesses -= round.cold_wire_calls as f64;
            for (ms, accesses) in round.caps.iter().map(reference) {
                saved_ms -= ms;
                saved_accesses += accesses;
            }
        }
        let round_sessions: usize = totals.samples.iter().map(|r| r.sessions).sum();
        push_end_to_end(
            &mut result,
            [
                scaled(&setup) / 1e3,
                round_sessions as f64 / (wall_ms / 1e3),
                interpolated_quantile(&per_session_ms, 0.5),
                interpolated_quantile(&per_session_ms, 0.9),
                totals.accesses as f64 / sessions,
                totals.wire_calls as f64 / sessions,
                saved_ms / saved_accesses,
                peak_rss_mb().unwrap_or(f64::NAN),
            ],
        );
    }
    result
}

fn run_untraced_round(world: &World, requests: &[RunRequest], journal: &Path) -> RoundOutcome {
    serving::run_round(
        &world.federation,
        None,
        requests,
        &world.initial,
        journal,
        None,
        0,
    )
}
