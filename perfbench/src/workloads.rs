//! The three workloads as runs: set-up, one untimed warm pass over every
//! distinct input, timed passes, checks and metrics.

use std::path::PathBuf;
use std::time::Instant;

use accrel_schema::Tuple;

use crate::report::{interpolated_quantile, ratio, RunResult};
use crate::trace::Tracer;

/// Largest share of traced wall time the layer calls' self times may leave
/// unaccounted before a traced run fails. The unaccounted share is the
/// drivers' own loop (the root spans' self time: `engine.loop.self_ms` and
/// the serving round's glue) plus any time outside the root spans.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("accesses_per_query", "count"),
    ("wire_calls_per_query", "count"),
    ("breakeven_ms_per_access", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports, with their units. Times are
/// self times; `/query` metrics are per query run (per round on
/// `serving-e5`). A layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("access.frontier.ms", "ms/query"),
    ("access.frontier.emitted", "count/query"),
    ("access.apply.ms", "ms/query"),
    ("access.apply.rows", "count/query"),
    ("query.certain.ms", "ms/query"),
    ("query.certain.calls", "count/query"),
    ("core.ir.calls", "count/query"),
    ("core.ir.ms", "ms/query"),
    ("core.ltr_dependent.calls", "count/query"),
    ("core.ltr_dependent.ms", "ms/query"),
    ("core.ltr_independent.calls", "count/query"),
    ("core.ltr_independent.ms", "ms/query"),
    ("core.relevant_frac", "ratio"),
    ("engine.relevance.hit_frac", "ratio"),
    ("engine.relevance.hit_ms", "ms/query"),
    ("engine.invalidation.ms", "ms/query"),
    ("engine.invalidation.events", "count/query"),
    ("engine.invalidation.evictions", "count/query"),
    ("engine.source.ms", "ms/query"),
    ("engine.source.calls", "count/query"),
    ("engine.loop.self_ms", "ms/query"),
    ("schema.trail.pushed", "count/query"),
    ("schema.shard_copies", "count/query"),
    ("schema.reads_tracked", "count/query"),
    ("federation.serve_cold.ms", "ms/query"),
    ("federation.serve_warm.ms", "ms/query"),
    ("federation.source.calls", "count/query"),
    ("federation.source.ms", "ms/query"),
    ("federation.source.virtual_ms", "ms/query"),
    ("federation.dedup.joined_frac", "ratio"),
    ("federation.shared_verdicts.hit_frac", "ratio"),
    ("federation.batch.mean", "count"),
    ("federation.journal.write_ms", "ms/query"),
    ("federation.journal.replay_ms", "ms/query"),
    ("federation.journal.bytes", "bytes/query"),
    ("federation.journal.verdicts_restored", "count/query"),
    ("federation.session_virtual_ms.p50", "ms"),
    ("federation.session_virtual_ms.p90", "ms"),
    ("check.failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LtrGuided and Hybrid over the paper scenarios and seeded random cases.
    GuidedMix,
    /// Hybrid under precise invalidation on seeded adom-flooding chains.
    FloodChain,
    /// Rounds of mixed sessions served cold, journaled, replayed and served
    /// warm over the E5 world.
    ServingE5,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "guided-mix" => Some(Workload::GuidedMix),
            "flood-chain" => Some(Workload::FloodChain),
            "serving-e5" => Some(Workload::ServingE5),
            _ => None,
        }
    }

    /// The `--seconds` one pass of timed repetitions stands for. An
    /// untraced run makes `--seconds` divided by this, rounded (at least
    /// one), passes' worth of repetitions (see [`passes`]), so the same
    /// `--seconds` always gives the same sample counts. At the 30 s of
    /// `BENCHMARK.json` that is two passes of `guided-mix` (about 8 s each on
    /// the reference machine, a 2-core x86-64 VM, release build) and one of
    /// `flood-chain` and of `serving-e5` (about 30 s each).
    pub fn nominal_pass_seconds(self) -> f64 {
        match self {
            Workload::GuidedMix => 15.0,
            Workload::FloodChain => 30.0,
            Workload::ServingE5 => 25.0,
        }
    }

    /// How many times an untraced run builds its inputs; `setup_s` is the
    /// median scaled build. The first build comes before the warm pass; the
    /// others are spread over the timed repetitions (see [`spread_schedule`]),
    /// each dropped once built. A sequential build takes a few milliseconds,
    /// the E5 world about 70 ms.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::GuidedMix | Workload::FloodChain => 201,
            Workload::ServingE5 => 25,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GuidedMix => "guided-mix",
            Workload::FloodChain => "flood-chain",
            Workload::ServingE5 => "serving-e5",
        }
    }
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the timed passes measure.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the trace and the serving journal are written.
    pub out_dir: PathBuf,
}

/// Runs `config` and returns its result.
pub fn run(config: &RunConfig) -> RunResult {
    let mut result = match config.workload {
        Workload::GuidedMix | Workload::FloodChain => crate::sequential_run::run(config),
        Workload::ServingE5 => crate::serving_run::run(config),
    };
    let expected: Vec<&str> = if config.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let reported: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
    assert_eq!(reported, expected, "a run reports exactly its metric set");
    if let Some(bad) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        let why = format!("metric {} is not finite ({})", bad.name, bad.value);
        result.fail_check(why);
    }
    result
}

fn unit_of(name: &str, set: &[(&'static str, &'static str)]) -> &'static str {
    set.iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .expect("metric is declared")
}

pub(crate) fn push_end_to_end(result: &mut RunResult, values: [f64; 8]) {
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        result.metric(name, value, unit);
    }
}

pub(crate) fn push_layer(result: &mut RunResult, name: &'static str, value: f64) {
    result.metric(name, value, unit_of(name, &PER_LAYER));
}

/// Reports 0 for every per-layer metric of a layer the workload never
/// calls: the `federation.` metrics on the sequential workloads, the others
/// (before the `check.` and `trace.` metrics) on `serving-e5`.
pub(crate) fn push_unused_layers(result: &mut RunResult, federation: bool) {
    for &(name, unit) in PER_LAYER
        .iter()
        .filter(|m| !m.0.starts_with("check.") && !m.0.starts_with("trace."))
        .filter(|m| m.0.starts_with("federation.") == federation)
    {
        result.metric(name, 0.0, unit);
    }
}

/// How many times the run's timed repetition counts are multiplied: at
/// least one, `--seconds` divided by the workload's nominal pass, rounded.
/// A traced run makes one pass, running every query once untraced and once
/// traced.
pub(crate) fn passes(config: &RunConfig) -> usize {
    if config.trace {
        return 1;
    }
    ((config.seconds / config.workload.nominal_pass_seconds()).round() as usize).max(1)
}

/// The order in which a run makes its timed repetitions: `reps[i]`
/// repetitions of item `i`, each item's repetitions spread evenly over the
/// run. Repetition `k` of item `i` is due at the fraction `(k + ½) / reps[i]`
/// of the run, and repetitions run in due order (ties in item order), so that
/// every item meets the host in every state the run goes through.
pub(crate) fn spread_schedule(reps: &[usize]) -> Vec<usize> {
    let mut due: Vec<(f64, usize)> = reps
        .iter()
        .enumerate()
        .flat_map(|(item, &n)| (0..n).map(move |k| ((k as f64 + 0.5) / n as f64, item)))
        .collect();
    due.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    due.into_iter().map(|(_, item)| item).collect()
}

/// The median of one item's scaled repetitions (see [`crate::hostclock`]),
/// the mean of the middle two for an even count, and of the scaled set-up
/// times: the statistic `queries_per_s`, the break-even and `setup_s` are
/// computed from.
pub(crate) fn median(samples: &[f64]) -> f64 {
    interpolated_quantile(samples, 0.5)
}

pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Whether a run is sound against the ground truth over the full hidden
/// instance: every answer it returned is a certain answer there, and it is
/// certain only if the query is certain there.
pub(crate) fn sound(certain: bool, answers: &[Tuple], truth: &(bool, Vec<Tuple>)) -> bool {
    (!certain || truth.0) && answers.iter().all(|a| truth.1.contains(a))
}

/// Reports `check.failed_frac` and the trace's own metrics, applies the
/// layer-sum tolerance and writes the spans out.
pub(crate) fn finish_trace(
    config: &RunConfig,
    tracer: &Tracer,
    traced_ms: f64,
    untraced_ms: f64,
    result: &mut RunResult,
) {
    let failed_frac = ratio(result.failed as f64, result.attempted as f64);
    push_layer(result, "check.failed_frac", failed_frac);
    let overhead = traced_ms / untraced_ms - 1.0;
    push_layer(result, "trace.overhead_frac", overhead);
    let unattributed = 1.0 - tracer.self_times().layer_ms() / traced_ms;
    push_layer(result, "trace.unattributed_frac", unattributed);
    if unattributed > UNATTRIBUTED_TOLERANCE {
        result.fail_check(format!(
            "layer self times leave {unattributed:.4} of traced wall unattributed \
             (tolerance {UNATTRIBUTED_TOLERANCE})"
        ));
    }
    let path = config
        .out_dir
        .join(format!("trace-{}.tsv", config.workload.name()));
    match tracer.write_tsv(&path) {
        Ok(()) => result.notes.push(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => result.fail_check(format!("writing {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spreads_each_item_over_the_run() {
        let order = spread_schedule(&[1, 2, 4]);
        assert_eq!(order, vec![2, 1, 2, 0, 2, 1, 2]);
        assert!(spread_schedule(&[0, 0]).is_empty());
    }
}
