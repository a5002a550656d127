//! Shared relevance-verdict machinery.
//!
//! [`RelevanceOracle`] bundles the incremental relevance-verdict cache with
//! the strategy-driven access selection. It is the single implementation of
//! "which access would the engine execute next, and what did deciding that
//! cost" used by the one [`crate::MergeLoop`] every executor drives.
//!
//! Every cache miss (an actual invocation of a decision procedure) is
//! recorded in an ordered [`VerdictRecord`] log, surfaced through
//! [`crate::RunReport::relevance_verdicts`]; the executor-equivalence tests
//! compare these logs between sequential and batched runs.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use accrel_access::{Access, AccessMethods, AccessMode};
use accrel_core::{
    is_immediately_relevant, is_long_term_relevant, is_long_term_relevant_trailed, SearchBudget,
};
use accrel_query::Query;
use accrel_schema::{Configuration, InsertEvent, ReadSet, RelationId, ValueInterner};

use crate::engine::Strategy;
use crate::options::{InvalidationMode, RunOptions};

/// Which relevance check a verdict belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RelevanceKind {
    /// Immediate relevance (Section 4).
    Immediate,
    /// Long-term relevance (Sections 4–5).
    LongTerm,
}

/// One invocation of a relevance decision procedure: the access that was
/// checked, which check ran, and its outcome. Cached re-reads are not
/// recorded — the log is exactly the sequence of procedure invocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRecord {
    /// The access whose relevance was decided.
    pub access: Access,
    /// Which relevance check ran.
    pub kind: RelevanceKind,
    /// The verdict.
    pub verdict: bool,
}

/// What a cached verdict depends on: the relations whose growth can change
/// it.
#[derive(Debug, Clone)]
enum DepSet {
    /// The verdict only inspected these relations. Boolean-query immediate
    /// relevance qualifies (the witness search reads tuples of the query's
    /// relations and nothing else), and so does Boolean-query long-term
    /// relevance when **every** access method is independent: the ΣP2
    /// procedure of Section 4 draws configuration facts exclusively through
    /// the query's atoms (any value may be guessed, so the global active
    /// domain never gates a witness), hence growth of an unmentioned
    /// relation cannot flip the verdict.
    Relations(HashSet<RelationId>),
    /// The verdict consulted the whole configuration (dependent-access
    /// long-term relevance reads the global active domain to decide which
    /// accesses are unlockable; the Proposition 2.2 reduction of non-Boolean
    /// queries instantiates heads with constants from any relation).
    /// Invalidated by any growth.
    All,
}

impl DepSet {
    fn touched_by(&self, relation: RelationId) -> bool {
        match self {
            DepSet::Relations(set) => set.contains(&relation),
            DepSet::All => true,
        }
    }
}

/// One cached verdict: the answer, its coarse relation-level dependency-set
/// index, and — when the verdict was computed under a read recorder — the
/// exact [`ReadSet`] its decision procedure consulted. Verdicts without a
/// read set (shared-cache hits, checks over a borrowed configuration) fall
/// back to the coarse dep set under precise invalidation.
#[derive(Debug, Clone)]
struct CachedVerdict {
    verdict: bool,
    dep: usize,
    reads: Option<ReadSet>,
}

/// The incremental relevance-verdict cache. One map per check kind, keyed by
/// the access alone, so cache hits are probed by reference without cloning
/// the access.
#[derive(Debug, Default, Clone)]
struct RelevanceCache {
    immediate: HashMap<Access, CachedVerdict>,
    long_term: HashMap<Access, CachedVerdict>,
    /// Dependency sets, interned: 0 = All, 1 = the query's relations.
    deps: Vec<DepSet>,
    hits: usize,
    misses: usize,
}

impl RelevanceCache {
    fn new(query_relations: HashSet<RelationId>) -> Self {
        Self {
            immediate: HashMap::new(),
            long_term: HashMap::new(),
            deps: vec![DepSet::All, DepSet::Relations(query_relations)],
            hits: 0,
            misses: 0,
        }
    }

    /// Drops every verdict whose coarse dependency set contains `relation`
    /// (relation-level invalidation; ignores read sets). Returns how many
    /// verdicts were evicted.
    fn invalidate(&mut self, relation: RelationId) -> usize {
        let before = self.immediate.len() + self.long_term.len();
        let deps = &self.deps;
        self.immediate
            .retain(|_, c| !deps[c.dep].touched_by(relation));
        let deps = &self.deps;
        self.long_term
            .retain(|_, c| !deps[c.dep].touched_by(relation));
        before - (self.immediate.len() + self.long_term.len())
    }

    /// Drops every verdict whose recorded read set is touched by `event`
    /// (precise invalidation; verdicts without a read set fall back to their
    /// coarse dependency set). Returns how many verdicts were evicted.
    ///
    /// The coarse dependency set and the read set are *both* sound
    /// over-approximations of "this growth could flip the verdict" — the
    /// first by the relation-level argument on `DepSet`, the second because
    /// the decision procedure is a deterministic function of its recorded
    /// reads — so a verdict needs eviction only when **both** fire. Taking
    /// the intersection also pins the ordering invariant the differential
    /// fuzzer checks: precise-mode evictions are a subset of relation-level
    /// evictions at every growth point, never a superset (a read set may
    /// name active-domain probes the coarse `Relations` set deliberately
    /// excludes).
    fn evict_touched(&mut self, event: &InsertEvent, interner: &ValueInterner) -> usize {
        let before = self.immediate.len() + self.long_term.len();
        let deps = &self.deps;
        let keep = |c: &CachedVerdict| {
            if !deps[c.dep].touched_by(event.relation) {
                return true;
            }
            match &c.reads {
                Some(rs) => !rs.touched_by(event, interner),
                None => false,
            }
        };
        self.immediate.retain(|_, c| keep(c));
        self.long_term.retain(|_, c| keep(c));
        before - (self.immediate.len() + self.long_term.len())
    }
}

/// The key a shared verdict is stored under: which query/option class asked,
/// which check ran, on which access, at which *versions* of the relations
/// the verdict depends on (relation → fact count at check time).
type SharedKey = (u64, RelevanceKind, Access, Vec<(RelationId, usize)>);

#[derive(Debug, Default)]
struct SharedVerdictState {
    /// Verdict plus the read set the publishing run recorded (when it ran
    /// under precise invalidation over an owned configuration). Restoring
    /// the read set on a hit is what lets a warm-started run evict the
    /// verdict at exactly the same growth points as the run that published
    /// it — without it the warm run falls back to coarse eviction,
    /// re-checks at version stamps the publisher never reached, and the
    /// zero-re-run warm-start guarantee breaks.
    verdicts: HashMap<SharedKey, (bool, Option<ReadSet>)>,
    hits: u64,
    misses: u64,
}

/// A cross-session relevance-verdict cache: verdicts outlive the
/// [`RelevanceOracle`] (and hence the run) that computed them, so concurrent
/// or consecutive sessions asking the same question skip the decision
/// procedure. Cloning shares the underlying store.
///
/// Keys are version-stamped rather than explicitly invalidated: alongside
/// the `(class, kind, access)` triple, the key records the **fact count of
/// every relation the verdict's dependency set names** at check time.
/// Configurations only grow, so within one deterministic trajectory a
/// relation's count identifies its contents; growth of a dep relation
/// changes the key (the stale verdict is simply never probed again), while
/// growth elsewhere leaves the key — and the verdict — intact. That realises
/// "invalidate only on relevant growth" without any invalidation traffic.
///
/// The `class` discriminant must fold in everything else the verdict is a
/// function of — query, strategy, options, and the initial configuration —
/// so that only sessions following the *same* growth trajectory share
/// entries; the serving layer derives it from the request + initial
/// fingerprint.
#[derive(Debug, Clone, Default)]
pub struct SharedVerdictCache {
    inner: Arc<Mutex<SharedVerdictState>>,
}

impl SharedVerdictCache {
    /// An empty shared cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of verdicts currently stored.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("verdict cache poisoned")
            .verdicts
            .len()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache, across all sessions.
    pub fn hits(&self) -> u64 {
        self.inner.lock().expect("verdict cache poisoned").hits
    }

    /// Lookups that missed (and were then published by the asker).
    pub fn misses(&self) -> u64 {
        self.inner.lock().expect("verdict cache poisoned").misses
    }

    /// Inserts a verdict directly under its full version-stamped key,
    /// without touching the hit/miss counters. This is the warm-start path:
    /// a journal replay (see `accrel-federation`'s `journal` module) seeds a
    /// fresh process's cache with the verdicts an earlier run computed, so
    /// the next session answers them as shared hits instead of re-running
    /// decision procedures.
    pub fn insert(
        &self,
        class: u64,
        kind: RelevanceKind,
        access: Access,
        dep_counts: Vec<(RelationId, usize)>,
        verdict: bool,
        reads: Option<ReadSet>,
    ) {
        self.publish(class, kind, access, dep_counts, verdict, reads);
    }

    /// A snapshot of every stored verdict with its full key — `(class, kind,
    /// access, dep-relation version stamps, verdict, recorded reads)` — in
    /// unspecified order. This is what a journal serialises; pair with
    /// [`SharedVerdictCache::insert`] to rebuild the cache elsewhere.
    #[allow(clippy::type_complexity)]
    pub fn entries(
        &self,
    ) -> Vec<(
        u64,
        RelevanceKind,
        Access,
        Vec<(RelationId, usize)>,
        bool,
        Option<ReadSet>,
    )> {
        let state = self.inner.lock().expect("verdict cache poisoned");
        state
            .verdicts
            .iter()
            .map(|((class, kind, access, deps), (verdict, reads))| {
                (
                    *class,
                    *kind,
                    access.clone(),
                    deps.clone(),
                    *verdict,
                    reads.clone(),
                )
            })
            .collect()
    }

    fn lookup(
        &self,
        class: u64,
        kind: RelevanceKind,
        access: &Access,
        dep_counts: &[(RelationId, usize)],
    ) -> Option<(bool, Option<ReadSet>)> {
        let mut state = self.inner.lock().expect("verdict cache poisoned");
        let mut counts = dep_counts.to_vec();
        counts.sort_unstable();
        let key = (class, kind, access.clone(), counts);
        match state.verdicts.get(&key) {
            Some((verdict, reads)) => {
                let found = (*verdict, reads.clone());
                state.hits += 1;
                Some(found)
            }
            None => {
                state.misses += 1;
                None
            }
        }
    }

    fn publish(
        &self,
        class: u64,
        kind: RelevanceKind,
        access: Access,
        mut dep_counts: Vec<(RelationId, usize)>,
        verdict: bool,
        reads: Option<ReadSet>,
    ) {
        // Canonical key order. The oracle sorts its stamps before calling
        // in, but journal replays hand [`SharedVerdictCache::insert`]
        // whatever order the serialised entry kept — a process that stamped
        // `[(R,3),(S,1)]` would never probe an entry another process stored
        // as `[(S,1),(R,3)]`, silently forfeiting every warm-start hit.
        dep_counts.sort_unstable();
        let mut state = self.inner.lock().expect("verdict cache poisoned");
        state
            .verdicts
            .insert((class, kind, access, dep_counts), (verdict, reads));
    }
}

/// How a relevance check reaches the configuration it decides over.
///
/// `Shared` is the original read-only path: the dependent-access witness
/// search snapshots the configuration internally before replaying tentative
/// responses. `Owned` is the trail-backed path for callers that hold the
/// configuration mutably (the merge loop's selection and its eager
/// predictor): tentative responses are applied to the live store under
/// a trail mark and undone in place, so a speculative probe performs zero
/// shard copies. Both paths compute identical verdicts — only the mutation
/// mechanics differ — so they share one caching body in
/// [`RelevanceOracle::check_at`].
enum ConfAccess<'c> {
    Shared(&'c Configuration),
    Owned(&'c mut Configuration),
}

impl ConfAccess<'_> {
    fn as_ref(&self) -> &Configuration {
        match self {
            ConfAccess::Shared(c) => c,
            ConfAccess::Owned(c) => c,
        }
    }

    fn run(
        &mut self,
        kind: RelevanceKind,
        query: &Query,
        methods: &AccessMethods,
        budget: &SearchBudget,
        access: &Access,
    ) -> bool {
        match (kind, self) {
            // Immediate relevance never mutates: both paths are the same
            // read-only witness search.
            (RelevanceKind::Immediate, conf) => {
                is_immediately_relevant(query, conf.as_ref(), access, methods)
            }
            (RelevanceKind::LongTerm, ConfAccess::Shared(conf)) => {
                is_long_term_relevant(query, conf, access, methods, budget)
            }
            (RelevanceKind::LongTerm, ConfAccess::Owned(conf)) => {
                is_long_term_relevant_trailed(query, conf, access, methods, budget)
            }
        }
    }

    /// Runs the decision procedure like [`ConfAccess::run`], additionally
    /// recording the store reads it performs when `track` is set and the
    /// caller owns the configuration. Returns the verdict together with the
    /// recorded [`ReadSet`] (`None` when tracking was off or impossible —
    /// the `Shared` path holds the configuration immutably and cannot
    /// install a recorder, so its verdicts keep the coarse dependency set).
    fn run_recorded(
        &mut self,
        kind: RelevanceKind,
        query: &Query,
        methods: &AccessMethods,
        budget: &SearchBudget,
        access: &Access,
        track: bool,
    ) -> (bool, Option<ReadSet>) {
        if let (true, ConfAccess::Owned(conf)) = (track, &mut *self) {
            conf.begin_read_tracking();
        }
        let verdict = self.run(kind, query, methods, budget, access);
        let reads = match self {
            ConfAccess::Owned(conf) if track => Some(conf.take_read_set()),
            _ => None,
        };
        (verdict, reads)
    }
}

/// The relevance-decision engine of one run: answers "is this access
/// relevant at this configuration" through the incremental cache, applies
/// the [`Strategy`] selection rules, and logs every decision-procedure
/// invocation.
#[derive(Debug, Clone)]
pub struct RelevanceOracle<'a> {
    query: &'a Query,
    methods: &'a AccessMethods,
    budget: SearchBudget,
    use_cache: bool,
    cache: RelevanceCache,
    shared: Option<(u64, SharedVerdictCache)>,
    shared_hits: usize,
    log: Vec<VerdictRecord>,
    record: bool,
    invalidation: InvalidationMode,
    evictions: usize,
    events_drained: usize,
    reads_tracked: usize,
}

impl<'a> RelevanceOracle<'a> {
    /// Creates an oracle for `query` over `methods` under the run options.
    pub fn new(query: &'a Query, methods: &'a AccessMethods, options: &RunOptions) -> Self {
        let query_relations: HashSet<RelationId> = query
            .ucq()
            .iter()
            .flat_map(|d| d.atoms().iter().map(|a| a.relation()))
            .collect();
        Self {
            query,
            methods,
            budget: options.budget.clone(),
            use_cache: options.use_relevance_cache,
            cache: RelevanceCache::new(query_relations),
            shared: None,
            shared_hits: 0,
            log: Vec::new(),
            record: true,
            invalidation: options.invalidation,
            evictions: 0,
            events_drained: 0,
            reads_tracked: 0,
        }
    }

    /// Attaches a cross-session [`SharedVerdictCache`]: per-run cache misses
    /// probe it before running a decision procedure, and publish their
    /// result into it afterwards. `class` must identify the verdict class —
    /// everything besides `(kind, access, dep versions)` that the verdict
    /// depends on (query, strategy, options, initial configuration); the
    /// serving layer hashes the request for this. Only effective while the
    /// per-run cache is enabled (the uncached mode exists to reproduce the
    /// pre-incremental engine exactly, so it bypasses sharing too).
    pub fn with_shared_cache(mut self, class: u64, cache: SharedVerdictCache) -> Self {
        self.shared = Some((class, cache));
        self
    }

    /// A scratch copy for speculative look-ahead: shares the cached verdicts
    /// accumulated so far but records nothing, so predictions leave the
    /// authoritative verdict log and counters untouched.
    ///
    /// The cross-session cache handle is dropped too: a scratch that kept
    /// the parent's [`SharedVerdictCache`] leaked speculative probes into it
    /// — every Eager prediction bumped the shared hit/miss counters and
    /// published verdicts the authoritative run never logged, so journals
    /// replayed a cache the run had not actually built.
    pub fn scratch(&self) -> RelevanceOracle<'a> {
        let mut copy = self.clone();
        copy.record = false;
        copy.log = Vec::new();
        copy.shared = None;
        copy
    }

    /// The dependency-set index for immediate-relevance verdicts: Boolean
    /// queries only ever inspect their own relations; everything else is
    /// conservatively global.
    fn ir_dep(&self) -> usize {
        if self.query.is_boolean() {
            1
        } else {
            0
        }
    }

    /// The dependency-set index for long-term-relevance verdicts. With
    /// dependent methods in play the witness search consults the global
    /// active domain, so the verdict conservatively depends on every
    /// relation; when every method is independent (and the query is
    /// Boolean, so no head-instantiation reduction runs), the independent
    /// ΣP2 procedure reads the configuration only through the query's own
    /// atoms — responses that grow other relations leave the verdict
    /// valid, so cached verdicts (and with them the merge loop's
    /// `CachedOnly` batches) survive those rounds.
    fn ltr_dep(&self) -> usize {
        let all_independent = self
            .methods
            .methods()
            .iter()
            .all(|m| m.mode() == AccessMode::Independent);
        if self.query.is_boolean() && all_independent {
            1
        } else {
            0
        }
    }

    fn check(&mut self, kind: RelevanceKind, access: &Access, conf: &Configuration) -> bool {
        self.check_at(kind, access, ConfAccess::Shared(conf))
    }

    /// The one caching body behind every check variant: per-run cache probe,
    /// shared-cache probe, decision-procedure invocation, publication, and
    /// logging. The [`ConfAccess`] argument decides only *how* the procedure
    /// touches the configuration (snapshot-replay vs trail-speculate).
    fn check_at(&mut self, kind: RelevanceKind, access: &Access, mut conf: ConfAccess<'_>) -> bool {
        if !self.use_cache {
            return conf.run(kind, self.query, self.methods, &self.budget, access);
        }
        let map = match kind {
            RelevanceKind::Immediate => &self.cache.immediate,
            RelevanceKind::LongTerm => &self.cache.long_term,
        };
        if let Some(cached) = map.get(access) {
            self.cache.hits += 1;
            return cached.verdict;
        }
        self.cache.misses += 1;
        let dep = match kind {
            RelevanceKind::Immediate => self.ir_dep(),
            RelevanceKind::LongTerm => self.ltr_dep(),
        };
        // Precise invalidation records the store reads of every procedure
        // run over an owned configuration; the dep-count stamps below are
        // read *before* the recorder is installed, so version probing never
        // pollutes the read set.
        let track = self.invalidation == InvalidationMode::Precise;
        let (verdict, reads) = if let Some((class, shared)) = self.shared.clone() {
            let counts = self.dep_counts(dep, conf.as_ref());
            if let Some((verdict, reads)) = shared.lookup(class, kind, access, &counts) {
                self.shared_hits += 1;
                // The publishing run's read set rides along with the
                // verdict, so a warm-started run evicts it at exactly the
                // same growth points the publisher would have.
                (verdict, reads)
            } else {
                let (verdict, reads) =
                    conf.run_recorded(kind, self.query, self.methods, &self.budget, access, track);
                self.reads_tracked += reads.as_ref().map_or(0, ReadSet::len);
                shared.publish(class, kind, access.clone(), counts, verdict, reads.clone());
                (verdict, reads)
            }
        } else {
            let (verdict, reads) =
                conf.run_recorded(kind, self.query, self.methods, &self.budget, access, track);
            self.reads_tracked += reads.as_ref().map_or(0, ReadSet::len);
            (verdict, reads)
        };
        let map = match kind {
            RelevanceKind::Immediate => &mut self.cache.immediate,
            RelevanceKind::LongTerm => &mut self.cache.long_term,
        };
        map.insert(
            access.clone(),
            CachedVerdict {
                verdict,
                dep,
                reads,
            },
        );
        if self.record {
            self.log.push(VerdictRecord {
                access: access.clone(),
                kind,
                verdict,
            });
        }
        verdict
    }

    /// The cached verdict for `kind` of `access`, if one is present. Never
    /// runs a decision procedure and never touches the hit/miss counters —
    /// this is the speculation-safe read the merge loop predicts with.
    pub fn peek(&self, kind: RelevanceKind, access: &Access) -> Option<bool> {
        if !self.use_cache {
            return None;
        }
        let map = match kind {
            RelevanceKind::Immediate => &self.cache.immediate,
            RelevanceKind::LongTerm => &self.cache.long_term,
        };
        map.get(access).map(|c| c.verdict)
    }

    /// Immediate-relevance check, via the cache when enabled.
    pub fn check_ir(&mut self, access: &Access, conf: &Configuration) -> bool {
        self.check(RelevanceKind::Immediate, access, conf)
    }

    /// Long-term-relevance check, via the cache when enabled. Dependent-
    /// access LTR verdicts consult the global active domain and so depend on
    /// every relation; all-independent Boolean verdicts depend only on the
    /// query's relations (see the crate-private `DepSet`).
    pub fn check_ltr(&mut self, access: &Access, conf: &Configuration) -> bool {
        self.check(RelevanceKind::LongTerm, access, conf)
    }

    /// Trail-backed [`Self::check_ir`] for callers that own the
    /// configuration mutably. Immediate relevance is read-only, so this is
    /// behaviourally identical to `check_ir`; it exists so trailed call
    /// sites read uniformly.
    pub fn check_ir_trailed(&mut self, access: &Access, conf: &mut Configuration) -> bool {
        self.check_at(RelevanceKind::Immediate, access, ConfAccess::Owned(conf))
    }

    /// Trail-backed [`Self::check_ltr`]: the dependent-access witness search
    /// replays tentative responses on the live store under a trail mark
    /// instead of snapshotting it, and restores `conf` byte-for-byte before
    /// returning. Caching, shared-cache probing, and verdict logging are the
    /// exact same code path as `check_ltr` — the verdicts (and the verdict
    /// log) are identical.
    pub fn check_ltr_trailed(&mut self, access: &Access, conf: &mut Configuration) -> bool {
        self.check_at(RelevanceKind::LongTerm, access, ConfAccess::Owned(conf))
    }

    /// Drops every cached verdict whose *coarse* dependency set contains
    /// `relation` (call after a response added facts to it). This is the
    /// relation-level path; the merge loop goes through
    /// [`Self::observe_growth`], which dispatches on the configured
    /// [`InvalidationMode`].
    pub fn invalidate(&mut self, relation: RelationId) {
        if self.use_cache {
            self.evictions += self.cache.invalidate(relation);
        }
    }

    /// Reacts to a response that grew the configuration: drains the insert
    /// events the store captured and, under [`InvalidationMode::Precise`],
    /// evicts exactly the cached verdicts whose recorded reads an event
    /// touches. Under [`InvalidationMode::RelationLevel`] the events are discarded
    /// and every verdict depending on `relation` (the accessed method's
    /// output relation) is evicted, reproducing the legacy behaviour
    /// verdict-for-verdict.
    pub fn observe_growth(&mut self, conf: &mut Configuration, relation: RelationId) {
        match self.invalidation {
            InvalidationMode::RelationLevel => {
                let _ = conf.take_events();
                self.invalidate(relation);
            }
            InvalidationMode::Precise => {
                if !self.use_cache {
                    let _ = conf.take_events();
                    return;
                }
                // Drain to fixpoint: eviction itself inserts nothing, but a
                // caller interleaving inserts with observe_growth calls must
                // never leave a queued event unapplied.
                loop {
                    let events = conf.take_events();
                    if events.is_empty() {
                        break;
                    }
                    for event in &events {
                        self.events_drained += 1;
                        self.evictions += self.cache.evict_touched(event, conf.store().interner());
                    }
                }
            }
        }
    }

    /// Verdicts answered from the cache so far.
    pub fn hits(&self) -> usize {
        self.cache.hits
    }

    /// Verdicts that ran a decision procedure so far.
    pub fn misses(&self) -> usize {
        self.cache.misses
    }

    /// Of the misses, how many were answered by the attached
    /// [`SharedVerdictCache`] instead of a decision procedure. Zero when no
    /// shared cache is attached.
    pub fn shared_hits(&self) -> usize {
        self.shared_hits
    }

    /// Total `(relation, value)`-grade read-set entries recorded across the
    /// verdicts computed so far. Zero under relation-level invalidation or
    /// when every check ran over a borrowed configuration.
    pub fn reads_tracked(&self) -> usize {
        self.reads_tracked
    }

    /// Cached verdicts evicted by configuration growth so far (both modes).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Insert events drained by [`Self::observe_growth`] under precise
    /// invalidation so far.
    pub fn events_drained(&self) -> usize {
        self.events_drained
    }

    /// The version stamp a verdict with dependency-set index `dep` carries
    /// in the shared cache: the current fact count of every relation the
    /// dependency set names, sorted by relation id. Growth of any stamped
    /// relation changes the stamp (and so retires the entry); growth
    /// elsewhere leaves it probeable.
    fn dep_counts(&self, dep: usize, conf: &Configuration) -> Vec<(RelationId, usize)> {
        let mut counts: Vec<(RelationId, usize)> = match &self.cache.deps[dep] {
            DepSet::Relations(set) => set
                .iter()
                .map(|&rel| (rel, conf.store().relation_len(rel)))
                .collect(),
            DepSet::All => conf
                .schema()
                .relations_with_ids()
                .map(|(rel, _)| (rel, conf.store().relation_len(rel)))
                .collect(),
        };
        counts.sort_unstable();
        counts
    }

    /// Takes the ordered log of decision-procedure invocations.
    pub fn take_log(&mut self) -> Vec<VerdictRecord> {
        std::mem::take(&mut self.log)
    }

    /// The relations named by the dependency set an LTR verdict would be
    /// cached under right now — exposed so tests and the executors'
    /// instrumentation can observe the invalidation granularity.
    pub fn ltr_dep_is_global(&self) -> bool {
        matches!(self.cache.deps[self.ltr_dep()], DepSet::All)
    }

    /// Picks the next access to execute from `candidates` (in candidate
    /// order) according to `strategy`, counting rejected candidates into
    /// `skipped` exactly as the sequential engine reports them.
    pub fn select(
        &mut self,
        strategy: Strategy,
        candidates: &[&Access],
        conf: &Configuration,
        skipped: &mut usize,
    ) -> Option<Access> {
        self.select_with(strategy, candidates, skipped, |oracle, kind, a| {
            oracle.check_at(kind, a, ConfAccess::Shared(conf))
        })
    }

    /// Trail-backed [`Self::select`]: identical selection rules and skip
    /// accounting, but relevance checks speculate on the live `conf` under
    /// trail marks instead of snapshotting it — the selection performs zero
    /// shard copies and leaves `conf` byte-for-byte unchanged.
    pub fn select_trailed(
        &mut self,
        strategy: Strategy,
        candidates: &[&Access],
        conf: &mut Configuration,
        skipped: &mut usize,
    ) -> Option<Access> {
        self.select_with(strategy, candidates, skipped, |oracle, kind, a| {
            oracle.check_at(kind, a, ConfAccess::Owned(&mut *conf))
        })
    }

    /// The one selection body behind [`Self::select`] and
    /// [`Self::select_trailed`]: `check` closes over how the configuration
    /// is reached.
    fn select_with<F>(
        &mut self,
        strategy: Strategy,
        candidates: &[&Access],
        skipped: &mut usize,
        mut check: F,
    ) -> Option<Access>
    where
        F: FnMut(&mut Self, RelevanceKind, &Access) -> bool,
    {
        match strategy {
            Strategy::Exhaustive => candidates.first().map(|a| (*a).clone()),
            Strategy::IrGuided => {
                for a in candidates {
                    if check(self, RelevanceKind::Immediate, a) {
                        return Some((*a).clone());
                    }
                    *skipped += 1;
                }
                None
            }
            Strategy::LtrGuided => {
                for a in candidates {
                    if check(self, RelevanceKind::LongTerm, a) {
                        return Some((*a).clone());
                    }
                    *skipped += 1;
                }
                None
            }
            Strategy::Hybrid => {
                for a in candidates {
                    if check(self, RelevanceKind::Immediate, a) {
                        return Some((*a).clone());
                    }
                }
                for a in candidates {
                    if check(self, RelevanceKind::LongTerm, a) {
                        return Some((*a).clone());
                    }
                    *skipped += 1;
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::{binding, AccessMethods, AccessMode};
    use accrel_query::{ConjunctiveQuery, Term};
    use accrel_schema::Schema;
    use std::sync::Arc;

    /// Schema with a query relation R and an unrelated relation S; the
    /// query is Boolean over R alone.
    fn setup(
        independent: bool,
    ) -> (
        Arc<Schema>,
        AccessMethods,
        Query,
        Configuration,
        Access,
        RelationId,
        RelationId,
    ) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        let schema = b.build();
        let mode = if independent {
            AccessMode::Independent
        } else {
            AccessMode::Dependent
        };
        let mut mb = AccessMethods::builder(schema.clone());
        let r_acc = mb.add("RAcc", "R", &["a"], mode).unwrap();
        mb.add("SAcc", "S", &["a"], mode).unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::constant("k"), Term::Var(x)])
            .unwrap();
        let query: Query = qb.build().into();
        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("R", ["seed", "v"]).unwrap();
        let r = schema.relation_by_name("R").unwrap();
        let s = schema.relation_by_name("S").unwrap();
        let access = Access::new(r_acc, binding(["k"]));
        (schema, methods, query, conf, access, r, s)
    }

    #[test]
    fn independent_ltr_verdicts_survive_unrelated_growth() {
        let (_, methods, query, mut conf, access, r, s) = setup(true);
        let options = RunOptions::default();
        let mut oracle = RelevanceOracle::new(&query, &methods, &options);
        assert!(!oracle.ltr_dep_is_global());
        let first = oracle.check_ltr(&access, &conf);
        assert_eq!(oracle.misses(), 1);
        // A response growing S (not mentioned by the query) must not flush
        // the verdict: the re-check is a cache hit with the same answer.
        conf.insert_named("S", ["unrelated"]).unwrap();
        oracle.invalidate(s);
        assert_eq!(oracle.check_ltr(&access, &conf), first);
        assert_eq!(oracle.hits(), 1);
        assert_eq!(oracle.misses(), 1);
        // Growth of the query's own relation still invalidates.
        conf.insert_named("R", ["k2", "w"]).unwrap();
        oracle.invalidate(r);
        let _ = oracle.check_ltr(&access, &conf);
        assert_eq!(oracle.misses(), 2);
    }

    #[test]
    fn dependent_ltr_verdicts_stay_globally_invalidated() {
        let (_, methods, query, conf, access, _, s) = setup(false);
        let options = RunOptions::default();
        let mut oracle = RelevanceOracle::new(&query, &methods, &options);
        assert!(oracle.ltr_dep_is_global());
        // Make the access well-formed for the dependent mode check.
        let mut conf = conf;
        conf.insert_named("R", ["k", "x"]).unwrap();
        let _ = oracle.check_ltr(&access, &conf);
        assert_eq!(oracle.misses(), 1);
        // Any growth — the dependent witness search reads the global active
        // domain — flushes the verdict.
        conf.insert_named("S", ["unlocks-something"]).unwrap();
        oracle.invalidate(s);
        let _ = oracle.check_ltr(&access, &conf);
        assert_eq!(oracle.misses(), 2);
        assert_eq!(oracle.hits(), 0);
    }

    #[test]
    fn independent_verdicts_match_fresh_oracle_after_unrelated_growth() {
        // The refinement must be *sound*: the cached verdict after growing
        // an unmentioned relation equals what a fresh (uncached) check
        // computes on the grown configuration, for every candidate binding.
        let (_, methods, query, mut conf, _, _, s) = setup(true);
        let options = RunOptions::default();
        let r_acc = methods.by_name("RAcc").unwrap();
        let bindings = ["k", "seed", "zz"];
        let mut oracle = RelevanceOracle::new(&query, &methods, &options);
        for b in bindings {
            let _ = oracle.check_ltr(&Access::new(r_acc, binding([b])), &conf);
        }
        conf.insert_named("S", ["later"]).unwrap();
        oracle.invalidate(s);
        for b in bindings {
            let access = Access::new(r_acc, binding([b]));
            let cached = oracle.check_ltr(&access, &conf);
            let fresh = accrel_core::is_long_term_relevant(
                &query,
                &conf,
                &access,
                &methods,
                &options.budget,
            );
            assert_eq!(cached, fresh, "binding {b}");
        }
        assert_eq!(oracle.hits(), bindings.len());
    }

    #[test]
    fn shared_cache_answers_a_second_oracle_without_reprocedure() {
        let (_, methods, query, conf, access, _, _) = setup(true);
        let options = RunOptions::default();
        let shared = SharedVerdictCache::new();
        assert!(shared.is_empty());
        let mut first =
            RelevanceOracle::new(&query, &methods, &options).with_shared_cache(42, shared.clone());
        let verdict = first.check_ltr(&access, &conf);
        assert_eq!(first.shared_hits(), 0);
        assert_eq!((shared.len(), shared.hits(), shared.misses()), (1, 0, 1));
        // A fresh oracle of the same class at the same configuration gets
        // the verdict from the shared cache — its per-run miss still counts
        // (the per-run cache was cold) but no procedure runs, and the log
        // entry is identical to the first oracle's.
        let mut second =
            RelevanceOracle::new(&query, &methods, &options).with_shared_cache(42, shared.clone());
        assert_eq!(second.check_ltr(&access, &conf), verdict);
        assert_eq!(second.misses(), 1);
        assert_eq!(second.shared_hits(), 1);
        assert_eq!(shared.hits(), 1);
        assert_eq!(first.take_log(), second.take_log());
        // A different class never shares.
        let mut other =
            RelevanceOracle::new(&query, &methods, &options).with_shared_cache(7, shared.clone());
        let _ = other.check_ltr(&access, &conf);
        assert_eq!(other.shared_hits(), 0);
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn trailed_checks_match_snapshot_checks_and_leave_no_trace() {
        // Dependent methods force the mutating LTR witness search — the
        // interesting case for trail-backed speculation.
        let (_, methods, query, conf, access, _, _) = setup(false);
        let options = RunOptions::default();
        let mut conf = conf;
        conf.insert_named("R", ["k", "x"]).unwrap();
        let mut snapshot_oracle = RelevanceOracle::new(&query, &methods, &options);
        let mut trailed_oracle = RelevanceOracle::new(&query, &methods, &options);
        let expected_ir = snapshot_oracle.check_ir(&access, &conf);
        let expected_ltr = snapshot_oracle.check_ltr(&access, &conf);
        let before = conf.sorted_facts();
        let copies_before = conf.shard_copies();
        assert_eq!(
            trailed_oracle.check_ir_trailed(&access, &mut conf),
            expected_ir
        );
        assert_eq!(
            trailed_oracle.check_ltr_trailed(&access, &mut conf),
            expected_ltr
        );
        // Same verdict log, restored store, and — the point — no shard
        // copies spent on the speculation.
        assert_eq!(snapshot_oracle.take_log(), trailed_oracle.take_log());
        assert_eq!(conf.sorted_facts(), before);
        assert_eq!(conf.shard_copies(), copies_before);
        // Selection agrees too, strategy by strategy.
        for strategy in Strategy::all() {
            let candidates = [&access];
            let (mut s1, mut s2) = (0usize, 0usize);
            let picked = snapshot_oracle
                .scratch()
                .select(strategy, &candidates, &conf, &mut s1);
            let picked_trailed =
                trailed_oracle
                    .scratch()
                    .select_trailed(strategy, &candidates, &mut conf, &mut s2);
            assert_eq!(picked, picked_trailed, "strategy {strategy:?}");
            assert_eq!(s1, s2, "strategy {strategy:?}");
        }
        assert_eq!(conf.sorted_facts(), before);
        assert_eq!(conf.shard_copies(), copies_before);
    }

    #[test]
    fn shared_cache_entries_retire_on_dep_relation_growth() {
        let (_, methods, query, mut conf, access, _, _) = setup(true);
        let options = RunOptions::default();
        let shared = SharedVerdictCache::new();
        let mut oracle =
            RelevanceOracle::new(&query, &methods, &options).with_shared_cache(1, shared.clone());
        let _ = oracle.check_ltr(&access, &conf);
        assert_eq!(shared.len(), 1);
        // Growing the query's relation changes the version stamp: a fresh
        // same-class oracle misses the shared cache and publishes under the
        // new stamp instead of reading the stale verdict.
        conf.insert_named("R", ["k9", "w9"]).unwrap();
        let mut regrown =
            RelevanceOracle::new(&query, &methods, &options).with_shared_cache(1, shared.clone());
        let _ = regrown.check_ltr(&access, &conf);
        assert_eq!(regrown.shared_hits(), 0);
        assert_eq!(shared.len(), 2);
    }
}
