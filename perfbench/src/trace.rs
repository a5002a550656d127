//! In-memory span recorder for the traced runs.
//!
//! A span is a named interval around one call the benchmark makes into a
//! layer's public API: name, start, end, parent span and query id. Spans are
//! kept in memory while the run executes and written out once it ends. A
//! span's *self time* is its duration minus the time its child spans cover.
//! The root spans (a sequential query run, a serving round) stand for the
//! driver's own loop, not for a layer call: the layer-sum check compares the
//! self times of the other spans, [`SelfTimes::layer_ms`], against the wall
//! time measured outside the tracer, so the loop's own time and anything a
//! span misses count as unattributed.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The layer boundary a span was recorded at. The string form is the
/// `<layer>.<what>` prefix of the per-layer metric the span feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanName {
    /// One sequential query run; its self time is the run loop's own work
    /// (snapshot, shard detach, guessable pool, oracle and frontier set-up,
    /// pending-set bookkeeping).
    EngineRun,
    /// `AccessFrontier::refresh`.
    AccessFrontier,
    /// `apply_access_in_place`.
    AccessApply,
    /// `certain::is_certain` and `certain::certain_answers`.
    QueryCertain,
    /// A relevance check answered from the oracle's per-run cache.
    RelevanceHit,
    /// An immediate-relevance decision procedure run (cache miss).
    CoreIr,
    /// A long-term-relevance run over all-independent methods (cache miss).
    CoreLtrIndependent,
    /// A long-term-relevance run with dependent methods (cache miss).
    CoreLtrDependent,
    /// `RelevanceOracle::observe_growth`: event drain and eviction.
    EngineInvalidation,
    /// `DeepWebSource::call`.
    EngineSource,
    /// One serving round: cold serve, journal write, replay, warm serve.
    ServingRound,
    /// `QuerySessionRegistry::serve` on a cold verdict cache.
    ServeCold,
    /// `QuerySessionRegistry::serve` on the replayed verdict cache.
    ServeWarm,
    /// `RunJournal::write_to`.
    JournalWrite,
    /// `RunJournal::replay`.
    JournalReplay,
    /// One poll of an async source call's future.
    FederationSource,
}

impl SpanName {
    /// Whether spans of this name are roots: the driver's loop around the
    /// layer calls rather than a layer call.
    pub fn is_root(self) -> bool {
        matches!(self, SpanName::EngineRun | SpanName::ServingRound)
    }

    /// Stable name, used in the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::EngineRun => "engine.run",
            SpanName::AccessFrontier => "access.frontier",
            SpanName::AccessApply => "access.apply",
            SpanName::QueryCertain => "query.certain",
            SpanName::RelevanceHit => "engine.relevance.hit",
            SpanName::CoreIr => "core.ir",
            SpanName::CoreLtrIndependent => "core.ltr_independent",
            SpanName::CoreLtrDependent => "core.ltr_dependent",
            SpanName::EngineInvalidation => "engine.invalidation",
            SpanName::EngineSource => "engine.source",
            SpanName::ServingRound => "federation.round",
            SpanName::ServeCold => "federation.serve_cold",
            SpanName::ServeWarm => "federation.serve_warm",
            SpanName::JournalWrite => "federation.journal.write",
            SpanName::JournalReplay => "federation.journal.replay",
            SpanName::FederationSource => "federation.source",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: SpanName,
    parent: u32,
    query: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans with a stack of open spans; the top of the stack is the
/// parent of the next span entered.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    query: u32,
    labels: Vec<String>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose timestamps count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
            labels: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new query: spans entered from now on carry its id, and the
    /// trace file names it `label`.
    pub fn begin_query(&mut self, label: String) {
        self.query = u32::try_from(self.labels.len()).expect("fewer than 2^32 queries per run");
        self.labels.push(label);
    }

    /// Opens a span; close it with [`Tracer::exit`] or [`Tracer::exit_as`].
    pub fn enter(&mut self, name: SpanName) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            query: self.query,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let name = self.spans[id as usize].name;
        self.exit_as(id, name);
    }

    /// Closes the innermost open span `id`, renaming it: a relevance check
    /// is only known to be a cache hit or a procedure run once it returns.
    pub fn exit_as(&mut self, id: u32, name: SpanName) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.name = name;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: SpanName, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span (used for source polls timed by a wrapper that
    /// cannot borrow the tracer).
    pub fn record(&mut self, name: SpanName, start: Instant, end: Instant) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            query: self.query,
            start_ns,
            end_ns,
        });
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time per span name, in milliseconds, plus the number of spans
    /// of each name.
    pub fn self_times(&self) -> SelfTimes {
        assert!(self.open.is_empty(), "every span closed before summing");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<SpanName, (f64, usize)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let self_ns = (span.end_ns - span.start_ns).saturating_sub(*children);
            let entry = by_name.entry(span.name).or_insert((0.0, 0));
            entry.0 += self_ns as f64 / 1e6;
            entry.1 += 1;
        }
        SelfTimes { by_name }
    }

    /// Writes the trace: one `# query <id> <label>` line per query, then
    /// every span as one tab-separated line: query, span id, parent id (`-`
    /// for a root), name, start and end in nanoseconds since the tracer was
    /// created.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, label) in self.labels.iter().enumerate() {
            writeln!(out, "# query {id} {label}")?;
        }
        writeln!(out, "query\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.query,
                id,
                parent,
                span.name.as_str(),
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Summed self time and span count per span name.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    by_name: BTreeMap<SpanName, (f64, usize)>,
}

impl SelfTimes {
    /// Summed self time of the spans named `name`, in milliseconds.
    pub fn ms(&self, name: SpanName) -> f64 {
        self.by_name.get(&name).map_or(0.0, |e| e.0)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: SpanName) -> usize {
        self.by_name.get(&name).map_or(0, |e| e.1)
    }

    /// Summed self time of every span that is not a root, in milliseconds:
    /// the time the layer calls account for.
    pub fn layer_ms(&self) -> f64 {
        self.by_name
            .iter()
            .filter(|(name, _)| !name.is_root())
            .map(|(_, e)| e.0)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_are_not_layers() {
        let mut t = Tracer::new();
        let root = t.enter(SpanName::EngineRun);
        t.span(SpanName::AccessFrontier, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let check = t.enter(SpanName::RelevanceHit);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.exit_as(check, SpanName::CoreIr);
        std::thread::sleep(std::time::Duration::from_millis(3));
        t.exit(root);
        let times = t.self_times();
        assert_eq!(times.count(SpanName::CoreIr), 1);
        assert_eq!(times.count(SpanName::RelevanceHit), 0);
        assert!(times.ms(SpanName::AccessFrontier) >= 2.0);
        assert!(times.ms(SpanName::EngineRun) >= 3.0);
        let root_ms = (t.spans[0].end_ns - t.spans[0].start_ns) as f64 / 1e6;
        let layers = times.ms(SpanName::AccessFrontier) + times.ms(SpanName::CoreIr);
        assert!((times.layer_ms() - layers).abs() < 1e-6);
        assert!((times.layer_ms() + times.ms(SpanName::EngineRun) - root_ms).abs() < 1e-6);
    }
}
