//! The shared fact-store representation used by instances and configurations.
//!
//! `FactStore` is interned, indexed and **sharded behind copy-on-write
//! handles**:
//!
//! * every [`Value`] is mapped to a dense [`ValueId`] by a per-store
//!   [`ValueInterner`]; tuples are stored columnar per relation (one
//!   `Vec<ValueId>` per attribute), so scans compare `u32`s;
//! * each relation's columnar storage — columns, materialised tuples,
//!   `rows_by_key` membership map and per-(relation, attribute) value → row
//!   indexes — lives in one *shard* behind an `Arc`
//!   ([`FactStore::candidates`] and [`FactStore::matching`] read through
//!   it);
//! * the active domain (`Adom(Conf)` in the paper) is maintained
//!   incrementally as a reference-counted `(ValueId, DomainId)` map — its
//!   own `Arc`-backed shard — so [`FactStore::active_domain`] never rescans
//!   the facts and [`FactStore::adom_contains`] is a hash probe;
//! * the interner is a third `Arc`-backed shard.
//!
//! # Copy-on-write semantics
//!
//! Cloning a `FactStore` (and therefore a [`crate::Configuration`]) is
//! **O(relations)**: it bumps one `Arc` per relation shard plus two more for
//! the interner and the active-domain cache. Clones share every shard until
//! one of them mutates; the first mutation of a *shared* shard copies that
//! shard alone (`Arc::make_mut`), leaving every other shard shared. This is
//! what lets the merge loop, the threaded executor and the parallel sweep
//! workers snapshot million-fact configurations for free: read-only
//! snapshots never copy anything, and a growing engine round pays for the
//! accessed relation's shard (plus the adom map, plus the interner if the
//! response carried genuinely new values) — never for the whole store.
//!
//! Every actual shard copy is counted in [`FactStore::shard_copies`] (the
//! counter is inherited by clones, so a run's copies are the difference of
//! two readings). Structural sharing is observable through
//! [`FactStore::shares_relation_shard`] / [`FactStore::shares_adom_shard`] /
//! [`FactStore::shares_interner`], which the oracle-grid tests in
//! `tests/properties.rs` pin down.
//!
//! # Trail-based speculation
//!
//! Snapshots are the right tool when two handles need to *diverge* (a
//! sweep handing a configuration to worker threads). They are the wrong
//! tool for **speculation** — mutate, look, roll back — because every
//! speculative mutation pays a shard copy that is immediately discarded. The
//! trail layer is the classic constraint-search alternative: between
//! [`FactStore::begin_trail`] and [`FactStore::undo_to`] every successful
//! `insert` / `remove` / `extend_facts` row pushes one undo entry, and
//! undoing replays the entries in LIFO order, reversing row placement,
//! per-attribute posting lists, `rows_by_key` slots and adom refcounts
//! *exactly* (the interner is append-only and deliberately not rolled back —
//! a spuriously-known value is semantically invisible). The scoped
//! [`FactStore::speculate`] guard pops the trail even on panic.
//!
//! The trail is **single-owner by construction**: it lives behind `&mut
//! self`, clones never inherit open trail state (a clone starts a fresh
//! lineage with an empty trail), and cross-thread hand-off keeps using
//! snapshots. Trail traffic is observable through [`FactStore::trail_ops`]
//! (pushed/undone counters, inherited by clones exactly like
//! `shard_copies`).
//!
//! # Invariants (checked by the property tests in `tests/properties.rs`
//! against a naive scan oracle)
//!
//! * `matching` returns exactly the tuples whose projection on the binding
//!   positions equals the binding, in a deterministic row order (insertion
//!   order in the absence of removals; swap-removal moves the last row into
//!   the removed slot);
//! * `active_domain` equals the set of `(value, domain)` pairs occurring in
//!   any fact;
//! * removal keeps all indexes consistent (rows are swap-removed; posting
//!   lists are patched in place), **including on a shard shared with other
//!   clones** — the mutating handle copies first, the sharing handles are
//!   never disturbed;
//! * interning values that are already known never copies the interner
//!   shard; inserting a fact that is already present never copies any
//!   shard;
//! * a clone diverges from its origin exactly as a naive deep copy would:
//!   after any interleaving of inserts and removals on either handle, each
//!   handle's facts, indexes and adom refcounts equal those of an
//!   independently rebuilt store.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::domain::DomainId;
use crate::error::SchemaError;
use crate::intern::{ValueId, ValueInterner};
use crate::relation::RelationId;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A ground fact: a relation together with a tuple of values.
pub type Fact = (RelationId, Tuple);

/// Columnar storage for one relation — the unit of copy-on-write sharing:
/// interned columns, materialised tuples, row membership and per-attribute
/// indexes.
#[derive(Clone, Debug, Default)]
struct RelationShard {
    /// One column per attribute; `columns[c][r]` is the id at position `c`
    /// of row `r`.
    columns: Vec<Vec<ValueId>>,
    /// Materialised tuples, in row order (for cheap iteration/cloning).
    tuples: Vec<Tuple>,
    /// Interned row → row index (membership + duplicate detection).
    rows_by_key: HashMap<Box<[ValueId]>, usize>,
    /// Per attribute: value id → indices of rows carrying it there.
    indexes: Vec<HashMap<ValueId, Vec<usize>>>,
}

impl RelationShard {
    fn with_arity(arity: usize) -> Self {
        Self {
            columns: vec![Vec::new(); arity],
            tuples: Vec::new(),
            rows_by_key: HashMap::new(),
            indexes: vec![HashMap::new(); arity],
        }
    }

    fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Swaps rows `a` and `b`, patching columns, tuples, both `rows_by_key`
    /// slots and every affected posting-list entry. Used by trail undo to
    /// restore the exact row layout a swap-removal disturbed.
    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let arity = self.columns.len();
        for c in 0..arity {
            self.columns[c].swap(a, b);
            // After the swap the id now at `a` came from `b` and vice
            // versa; repoint their posting-list entries unless the ids are
            // equal (then both rows are already in the same list).
            let id_a = self.columns[c][a];
            let id_b = self.columns[c][b];
            if id_a != id_b {
                if let Some(list) = self.indexes[c].get_mut(&id_a) {
                    if let Some(pos) = list.iter().position(|&r| r == b) {
                        list[pos] = a;
                    }
                }
                if let Some(list) = self.indexes[c].get_mut(&id_b) {
                    if let Some(pos) = list.iter().position(|&r| r == a) {
                        list[pos] = b;
                    }
                }
            }
        }
        self.tuples.swap(a, b);
        for row in [a, b] {
            let key: Box<[ValueId]> = (0..arity).map(|c| self.columns[c][row]).collect();
            self.rows_by_key.insert(key, row);
        }
    }
}

/// Reference-counted active domain: how many attribute occurrences of
/// `(value, domain)` the store currently holds.
type AdomCache = HashMap<(ValueId, DomainId), u32>;

/// One reversible mutation recorded on the trail.
#[derive(Debug)]
enum TrailEntry {
    /// A successful insert; undone by removing the row, which LIFO replay
    /// guarantees is the relation's last row again at undo time.
    Inserted {
        relation: RelationId,
        key: Box<[ValueId]>,
    },
    /// A successful removal; undone by re-appending the tuple and swapping
    /// it back into its original row, restoring the exact pre-removal
    /// layout.
    Removed {
        relation: RelationId,
        key: Box<[ValueId]>,
        tuple: Tuple,
        row: usize,
    },
}

/// A position on the trail returned by [`FactStore::begin_trail`]; feed it
/// back to [`FactStore::undo_to`] to roll every later mutation back. Marks
/// nest: undoing to an outer mark also cancels any inner speculation opened
/// after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrailMark {
    pos: usize,
    open: u32,
}

/// Cumulative trail traffic of a store handle: how many undo entries were
/// pushed and how many were undone. Inherited by clones (like
/// `shard_copies`), so a run's speculation volume is the difference of two
/// readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrailOps {
    /// Undo entries recorded under an open trail.
    pub pushed: u64,
    /// Undo entries replayed by `undo_to` (including guard auto-pops).
    pub undone: u64,
}

impl TrailOps {
    /// Entry-wise difference against an earlier reading of the same handle
    /// lineage (saturating, so mixed-up readings never underflow).
    pub fn since(&self, earlier: TrailOps) -> TrailOps {
        TrailOps {
            pushed: self.pushed.saturating_sub(earlier.pushed),
            undone: self.undone.saturating_sub(earlier.undone),
        }
    }
}

/// The exact set of store reads performed while a read recorder was
/// installed (see [`FactStore::begin_read_tracking`]).
///
/// Every read API classifies itself into the *coarsest class whose answer
/// could change under monotone growth*: a constrained index probe depends
/// only on rows of one relation carrying one value id, a full scan depends
/// on the whole relation, an active-domain probe depends on one
/// `(value, domain)` pair *entering* the domain, and so on. A decision
/// procedure is a deterministic function of its reads, so a cached verdict
/// stays valid as long as no [`InsertEvent`] can change the answer of any
/// recorded read — [`ReadSet::touched_by`] is that test. Probes for values
/// the interner did not know at read time are kept symbolically and
/// resolved against the (append-only) interner at event-drain time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    /// Reads whose answer can change under *any* growth (`len`,
    /// `is_subset_of`, whole-store fact dumps).
    pub all: bool,
    /// Full scans of single relations (unconstrained `candidates`,
    /// `tuples`, `relation_len`).
    pub relations: HashSet<RelationId>,
    /// Constrained probes: the answer changes only if an inserted row of
    /// the relation carries the value id.
    pub pairs: HashSet<(RelationId, ValueId)>,
    /// Probes against values unknown to the interner at read time.
    pub unknown_values: HashSet<(RelationId, Value)>,
    /// Whole-active-domain reads (`active_domain`, `all_values`).
    pub adom_all: bool,
    /// Per-abstract-domain active-domain reads (`values_of_domain`, and
    /// instrumented domain walks that ran to natural completion).
    pub adom_domains: HashSet<DomainId>,
    /// Visited-prefix active-domain reads: the instrumented walk of
    /// the domain was cut early by a search budget after visiting only the
    /// values `≤ bound` in sorted order. A value entering the domain
    /// *strictly below* the bound changes what the walk saw; a value at or
    /// above it lands past the cut point and cannot (the bound value itself
    /// was already part of the walk's view, whether it came from the active
    /// domain or from caller-supplied extras). Subsumed by an
    /// `adom_domains` entry for the same domain.
    pub adom_prefixes: HashMap<DomainId, Value>,
    /// Point active-domain membership probes (`adom_contains`).
    pub adom_pairs: HashSet<(ValueId, DomainId)>,
    /// Point active-domain probes against values unknown at read time.
    pub adom_unknown: HashSet<(Value, DomainId)>,
}

impl ReadSet {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        !self.all
            && !self.adom_all
            && self.relations.is_empty()
            && self.pairs.is_empty()
            && self.unknown_values.is_empty()
            && self.adom_domains.is_empty()
            && self.adom_prefixes.is_empty()
            && self.adom_pairs.is_empty()
            && self.adom_unknown.is_empty()
    }

    /// Number of recorded read entries (each coarse flag counts as one).
    pub fn len(&self) -> usize {
        usize::from(self.all)
            + usize::from(self.adom_all)
            + self.relations.len()
            + self.pairs.len()
            + self.unknown_values.len()
            + self.adom_domains.len()
            + self.adom_prefixes.len()
            + self.adom_pairs.len()
            + self.adom_unknown.len()
    }

    /// Records a whole-domain active-domain walk: any value entering
    /// `domain` invalidates.
    pub fn record_adom_domain(&mut self, domain: DomainId) {
        self.adom_domains.insert(domain);
        self.adom_prefixes.remove(&domain);
    }

    /// Records a prefix-bounded active-domain walk of `domain`: only a value
    /// entering the domain strictly below `bound` invalidates. Merging keeps
    /// the widest bound; a whole-domain read of the same domain wins.
    pub fn record_adom_prefix(&mut self, domain: DomainId, bound: &Value) {
        if self.adom_domains.contains(&domain) {
            return;
        }
        match self.adom_prefixes.entry(domain) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if bound > e.get() {
                    e.insert(bound.clone());
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(bound.clone());
            }
        }
    }

    /// Could `event` change the answer of any recorded read?
    ///
    /// Active-domain reads trigger only on values *newly* entering the
    /// domain (growth is monotone, so a positive membership probe can never
    /// flip). Unknown-value probes are resolved against `interner` now: the
    /// interner is append-only, so a value that was unknown at read time
    /// and is known now was interned by a later insert.
    pub fn touched_by(&self, event: &InsertEvent, interner: &ValueInterner) -> bool {
        if self.all {
            return true;
        }
        if self.relations.contains(&event.relation) {
            return true;
        }
        for &(id, domain, newly_in_adom) in &event.values {
            if self.pairs.contains(&(event.relation, id)) {
                return true;
            }
            if newly_in_adom {
                if self.adom_all
                    || self.adom_domains.contains(&domain)
                    || self.adom_pairs.contains(&(id, domain))
                {
                    return true;
                }
                if let Some(bound) = self.adom_prefixes.get(&domain) {
                    if interner.resolve(id) < bound {
                        return true;
                    }
                }
            }
        }
        for (rel, v) in &self.unknown_values {
            if *rel == event.relation {
                if let Some(id) = interner.lookup(v) {
                    if event.values.iter().any(|&(i, _, _)| i == id) {
                        return true;
                    }
                }
            }
        }
        for (v, d) in &self.adom_unknown {
            if let Some(id) = interner.lookup(v) {
                if event
                    .values
                    .iter()
                    .any(|&(i, dd, newly)| newly && i == id && dd == *d)
                {
                    return true;
                }
            }
        }
        false
    }
}

/// One committed (non-speculative) row insertion, captured on the store's
/// insert paths while event capture is enabled
/// ([`FactStore::set_event_capture`]). Events are the propagation currency
/// of read-set invalidation: the engine drains them after each growing
/// response and evicts exactly the cached verdicts whose [`ReadSet`] is
/// [touched](ReadSet::touched_by).
///
/// Capture assumes monotone growth (the merge loop never removes facts);
/// trailed speculative inserts are rolled back and deliberately emit no
/// events, and duplicate inserts return before any mutation and therefore
/// emit none either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertEvent {
    /// The relation the row was inserted into.
    pub relation: RelationId,
    /// One entry per attribute position of the inserted row: the value id,
    /// the position's abstract domain, and whether that `(value, domain)`
    /// pair was newly added to the active domain by this row.
    pub values: Vec<(ValueId, DomainId, bool)>,
}

/// A set of ground facts over a schema, organised per relation.
///
/// `FactStore` is the common substrate behind both [`crate::Instance`] (the
/// full, virtual database) and [`crate::Configuration`] (the facts learnt so
/// far). It enforces arity consistency on insertion and offers the lookups
/// the decision procedures need: membership, per-relation scans, index-backed
/// binding-compatible scans and cached active-domain computation. See the
/// module docs for the copy-on-write sharding contract.
pub struct FactStore {
    schema: Arc<Schema>,
    interner: Arc<ValueInterner>,
    relations: Vec<Arc<RelationShard>>,
    adom: Arc<AdomCache>,
    len: usize,
    /// Cumulative count of shards this handle actually copied on first
    /// write (inherited by clones; diff two readings to scope a run).
    shard_copies: u64,
    /// Undo entries of the currently-open speculation (empty when no trail
    /// is open).
    trail: Vec<TrailEntry>,
    /// How many `begin_trail` marks are currently open.
    trail_open: u32,
    /// Cumulative trail traffic (inherited by clones; diff two readings).
    trail_ops: TrailOps,
    /// Read recorder installed by `begin_read_tracking` (`None` when not
    /// recording). Behind a mutex because the read APIs take `&self`; the
    /// lock is uncontended (recording is single-owner like the trail).
    recording: Option<Mutex<ReadSet>>,
    /// Whether committed inserts are captured as [`InsertEvent`]s.
    events_enabled: bool,
    /// Captured growth events awaiting [`FactStore::take_events`].
    events: Vec<InsertEvent>,
}

impl Clone for FactStore {
    /// O(relations): bumps one `Arc` per shard. The clone inherits the
    /// `shard_copies` / `trail_ops` counters but **not** any open trail,
    /// read recorder or event queue — those are single-owner and stay with
    /// the original handle.
    fn clone(&self) -> Self {
        Self {
            schema: self.schema.clone(),
            interner: self.interner.clone(),
            relations: self.relations.clone(),
            adom: self.adom.clone(),
            len: self.len,
            shard_copies: self.shard_copies,
            trail: Vec::new(),
            trail_open: 0,
            trail_ops: self.trail_ops,
            recording: None,
            events_enabled: false,
            events: Vec::new(),
        }
    }
}

impl FactStore {
    /// Creates an empty store over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let relations = schema
            .relations()
            .iter()
            .map(|r| Arc::new(RelationShard::with_arity(r.arity())))
            .collect();
        Self {
            schema,
            interner: Arc::new(ValueInterner::new()),
            relations,
            adom: Arc::new(AdomCache::new()),
            len: 0,
            shard_copies: 0,
            trail: Vec::new(),
            trail_open: 0,
            trail_ops: TrailOps::default(),
            recording: None,
            events_enabled: false,
            events: Vec::new(),
        }
    }

    /// The schema this store ranges over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The store's value interner (read-only).
    pub fn interner(&self) -> &ValueInterner {
        self.interner.as_ref()
    }

    /// How many shard copies this handle has performed so far (the
    /// copy-on-write cost actually paid). Clones inherit the counter, so
    /// the copies attributable to a run are
    /// `after.shard_copies() - before.shard_copies()` on the same handle
    /// lineage. Read-only handles — snapshots that never mutate — never
    /// advance it.
    pub fn shard_copies(&self) -> u64 {
        self.shard_copies
    }

    /// Cumulative trail traffic of this handle lineage (see [`TrailOps`]).
    pub fn trail_ops(&self) -> TrailOps {
        self.trail_ops
    }

    /// Installs a fresh read recorder: every later read API call classifies
    /// itself into the [`ReadSet`] until [`FactStore::take_read_set`]
    /// uninstalls it. Like the trail, the recorder is single-owner and not
    /// inherited by clones. Installing over an existing recorder discards
    /// the old one.
    pub fn begin_read_tracking(&mut self) {
        self.recording = Some(Mutex::new(ReadSet::default()));
    }

    /// Uninstalls the read recorder and returns what it saw (empty if no
    /// recorder was installed).
    pub fn take_read_set(&mut self) -> ReadSet {
        match self.recording.take() {
            Some(m) => match m.into_inner() {
                Ok(rs) => rs,
                Err(poisoned) => poisoned.into_inner(),
            },
            None => ReadSet::default(),
        }
    }

    /// Whether a read recorder is currently installed.
    pub fn is_read_tracking(&self) -> bool {
        self.recording.is_some()
    }

    /// Records a read under the installed recorder, if any.
    #[inline]
    fn rec(&self, f: impl FnOnce(&mut ReadSet)) {
        if let Some(m) = &self.recording {
            if let Ok(mut rs) = m.lock() {
                f(&mut rs);
            }
        }
    }

    /// Records the membership probe an insert path performs for `key` in
    /// `relation` (the `Ok(false)`-vs-`Ok(true)` branch is a read).
    #[inline]
    fn rec_key_probe(&self, relation: RelationId, key: &[ValueId]) {
        match key.first() {
            Some(&id) => self.rec(|rs| {
                rs.pairs.insert((relation, id));
            }),
            None => self.rec(|rs| {
                rs.relations.insert(relation);
            }),
        }
    }

    /// Records a walk over the active-domain values of one abstract domain
    /// as a per-domain or visited-prefix read. `upto` is `None` when the
    /// walk consumed the domain's sorted value list to its natural end
    /// (the walk *observed* the end of the list, so any value entering the
    /// domain changes what it saw) and `Some(bound)` when the walk was cut
    /// early by a search budget after visiting values `≤ bound` only (a
    /// value entering strictly below the bound reorders the visited prefix;
    /// one at or above it lands past the cut). Instrumented walk sites — the
    /// valuation enumeration of the witness searches, the accessible-value
    /// pools of the producibility planner — call this instead of
    /// [`FactStore::active_domain`] so verdicts survive growth they never
    /// looked at.
    pub fn rec_adom_walk(&self, domain: DomainId, upto: Option<&Value>) {
        match upto {
            None => self.rec(|rs| rs.record_adom_domain(domain)),
            Some(bound) => self.rec(|rs| rs.record_adom_prefix(domain, bound)),
        }
    }

    /// Records a walk over the *whole* active domain with no per-domain
    /// structure (untyped variables drawing candidates from every domain at
    /// once). Always `adom_all` — the sound fallback.
    pub fn rec_adom_global(&self) {
        self.rec(|rs| rs.adom_all = true);
    }

    /// Enables or disables [`InsertEvent`] capture on the committed insert
    /// paths. Disabling clears any queued events. Event capture assumes
    /// monotone growth; it is not inherited by clones.
    pub fn set_event_capture(&mut self, enabled: bool) {
        self.events_enabled = enabled;
        if !enabled {
            self.events.clear();
        }
    }

    /// Whether insert events are being captured.
    pub fn event_capture_enabled(&self) -> bool {
        self.events_enabled
    }

    /// Drains the queued insert events.
    pub fn take_events(&mut self) -> Vec<InsertEvent> {
        std::mem::take(&mut self.events)
    }

    /// How many insert events are queued.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Detaches every shard this handle still shares with other clones —
    /// relation shards, the adom cache and the interner — so the handle
    /// exclusively owns its storage. Cost is one deep copy of whatever was
    /// still shared (bounded by the current fact count), paid now instead
    /// of lazily at first write; an explicit detach is not a copy-on-write
    /// divergence, so [`FactStore::shard_copies`] does not advance. Long
    /// -running owners (such as the merge loop, which speculates on its live store)
    /// call this once up front so later trail probes never hit a shared
    /// shard.
    pub fn own_all_shards(&mut self) {
        for shard in &mut self.relations {
            Arc::make_mut(shard);
        }
        Arc::make_mut(&mut self.adom);
        Arc::make_mut(&mut self.interner);
    }

    /// Whether a trail is currently open (mutations are being recorded).
    pub fn trail_is_active(&self) -> bool {
        self.trail_open > 0
    }

    /// Opens a speculation scope: every later successful mutation records an
    /// undo entry until [`FactStore::undo_to`] is called with the returned
    /// mark. Marks nest; prefer the scoped [`FactStore::speculate`] unless
    /// the rollback point has to outlive a closure.
    pub fn begin_trail(&mut self) -> TrailMark {
        self.trail_open += 1;
        TrailMark {
            pos: self.trail.len(),
            open: self.trail_open,
        }
    }

    /// Rolls the store back to `mark`, replaying the undo entries recorded
    /// after it in LIFO order: facts, row layout, per-attribute posting
    /// lists, `rows_by_key` slots and adom refcounts are restored exactly
    /// (the append-only interner is not rolled back). Undoing to an outer
    /// mark also cancels any speculation nested after it.
    pub fn undo_to(&mut self, mark: TrailMark) {
        while self.trail.len() > mark.pos {
            let entry = self.trail.pop().expect("len checked above");
            self.undo_entry(entry);
            self.trail_ops.undone += 1;
        }
        self.trail_open = self.trail_open.min(mark.open.saturating_sub(1));
    }

    /// Runs `f` under a trail mark and undoes everything it did before
    /// returning — even on panic (the rollback lives in a drop guard). This
    /// is the speculation primitive: probe the store as if the mutation had
    /// happened, observe, leave no trace.
    pub fn speculate<R>(&mut self, f: impl FnOnce(&mut FactStore) -> R) -> R {
        struct Guard<'a> {
            store: &'a mut FactStore,
            mark: TrailMark,
        }
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.store.undo_to(self.mark);
            }
        }
        let mark = self.begin_trail();
        let guard = Guard { store: self, mark };
        f(guard.store)
    }

    /// Reverses one trail entry. Mutates through the copy-on-write
    /// accessors, so an undo on a shard that was cloned mid-speculation
    /// still detaches correctly instead of disturbing the clone.
    fn undo_entry(&mut self, entry: TrailEntry) {
        let schema = self.schema.clone();
        match entry {
            TrailEntry::Inserted { relation, key } => {
                let rel = schema.relation(relation).expect("recorded on insert");
                {
                    let shard = self.shard_mut(relation.index());
                    let row = shard
                        .rows_by_key
                        .remove(&key)
                        .expect("trail entry matches a stored row");
                    debug_assert_eq!(row, shard.len() - 1, "LIFO undo targets the last row");
                    for (c, &id) in key.iter().enumerate() {
                        if let Some(list) = shard.indexes[c].get_mut(&id) {
                            if let Some(pos) = list.iter().position(|&r| r == row) {
                                list.swap_remove(pos);
                            }
                            if list.is_empty() {
                                shard.indexes[c].remove(&id);
                            }
                        }
                        shard.columns[c].pop();
                    }
                    shard.tuples.pop();
                }
                let adom = self.adom_mut();
                for (c, &id) in key.iter().enumerate() {
                    let entry = (id, rel.domain_at(c));
                    if let Some(count) = adom.get_mut(&entry) {
                        *count -= 1;
                        if *count == 0 {
                            adom.remove(&entry);
                        }
                    }
                }
                self.len -= 1;
            }
            TrailEntry::Removed {
                relation,
                key,
                tuple,
                row,
            } => {
                let rel = schema.relation(relation).expect("recorded on removal");
                let adom_incs: Vec<(ValueId, DomainId)> = key
                    .iter()
                    .enumerate()
                    .map(|(c, &id)| (id, rel.domain_at(c)))
                    .collect();
                {
                    let shard = self.shard_mut(relation.index());
                    let appended = shard.len();
                    for (c, &id) in key.iter().enumerate() {
                        shard.columns[c].push(id);
                        shard.indexes[c].entry(id).or_default().push(appended);
                    }
                    shard.tuples.push(tuple);
                    shard.rows_by_key.insert(key, appended);
                    // The removal swap-moved the then-last row into `row`;
                    // swap back so the pre-removal row layout is exact.
                    shard.swap_rows(row, appended);
                }
                let adom = self.adom_mut();
                for (id, domain) in adom_incs {
                    *adom.entry((id, domain)).or_insert(0) += 1;
                }
                self.len += 1;
            }
        }
    }

    /// Whether `self` and `other` still share `relation`'s columnar shard
    /// (no copy-on-write divergence has happened there yet).
    pub fn shares_relation_shard(&self, other: &FactStore, relation: RelationId) -> bool {
        match (
            self.relations.get(relation.index()),
            other.relations.get(relation.index()),
        ) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether `self` and `other` still share the active-domain shard.
    pub fn shares_adom_shard(&self, other: &FactStore) -> bool {
        Arc::ptr_eq(&self.adom, &other.adom)
    }

    /// Whether `self` and `other` still share the interner shard.
    pub fn shares_interner(&self, other: &FactStore) -> bool {
        Arc::ptr_eq(&self.interner, &other.interner)
    }

    /// Mutable access to one relation shard, copying it first if it is
    /// shared with another handle (copy-on-write).
    fn shard_mut(&mut self, index: usize) -> &mut RelationShard {
        let arc = &mut self.relations[index];
        if Arc::strong_count(arc) > 1 {
            self.shard_copies += 1;
        }
        Arc::make_mut(arc)
    }

    /// Mutable access to the adom shard, copying it first if shared.
    fn adom_mut(&mut self) -> &mut AdomCache {
        if Arc::strong_count(&self.adom) > 1 {
            self.shard_copies += 1;
        }
        Arc::make_mut(&mut self.adom)
    }

    /// Interns `v`, copying the interner shard only when the value is
    /// genuinely new *and* the shard is shared.
    fn intern_value(&mut self, v: &Value) -> ValueId {
        if let Some(id) = self.interner.lookup(v) {
            return id;
        }
        if Arc::strong_count(&self.interner) > 1 {
            self.shard_copies += 1;
        }
        Arc::make_mut(&mut self.interner).intern(v)
    }

    /// Inserts a fact, checking relation id and arity.
    ///
    /// Returns `Ok(true)` if the fact was new, `Ok(false)` if it was already
    /// present. A duplicate insertion is read-only: no shard is copied.
    pub fn insert(&mut self, relation: RelationId, t: Tuple) -> Result<bool> {
        let schema = self.schema.clone();
        let rel = schema.relation(relation)?;
        if t.arity() != rel.arity() {
            return Err(SchemaError::ArityMismatch {
                relation,
                expected: rel.arity(),
                actual: t.arity(),
            });
        }
        let key: Box<[ValueId]> = t.iter().map(|v| self.intern_value(v)).collect();
        // The duplicate check below is a read: a recorded procedure branches
        // on whether the row was already present.
        self.rec_key_probe(relation, &key);
        if self.relations[relation.index()]
            .rows_by_key
            .contains_key(&key)
        {
            return Ok(false);
        }
        let adom_incs: Vec<(ValueId, DomainId)> = key
            .iter()
            .enumerate()
            .map(|(c, &id)| (id, rel.domain_at(c)))
            .collect();
        let trail_key = (self.trail_open > 0).then(|| key.clone());
        // Newly-in-adom flags must be read before the refcounts advance;
        // speculative (trailed) inserts roll back and emit no event.
        let event = (self.events_enabled && self.trail_open == 0).then(|| InsertEvent {
            relation,
            values: adom_incs
                .iter()
                .map(|&(id, d)| (id, d, !self.adom.contains_key(&(id, d))))
                .collect(),
        });
        {
            let shard = self.shard_mut(relation.index());
            let row = shard.len();
            for (c, &id) in key.iter().enumerate() {
                shard.columns[c].push(id);
                shard.indexes[c].entry(id).or_default().push(row);
            }
            shard.tuples.push(t);
            shard.rows_by_key.insert(key, row);
        }
        let adom = self.adom_mut();
        for (id, domain) in adom_incs {
            *adom.entry((id, domain)).or_insert(0) += 1;
        }
        self.len += 1;
        if let Some(key) = trail_key {
            self.trail.push(TrailEntry::Inserted { relation, key });
            self.trail_ops.pushed += 1;
        }
        if let Some(event) = event {
            self.events.push(event);
        }
        Ok(true)
    }

    /// Inserts a fact given by relation name and anything convertible to
    /// values. Convenience for tests and examples.
    pub fn insert_named<V: Into<Value>, I: IntoIterator<Item = V>>(
        &mut self,
        relation: &str,
        values: I,
    ) -> Result<bool> {
        let rel = self.schema.relation_by_name(relation)?;
        self.insert(
            rel,
            Tuple::new(values.into_iter().map(Into::into).collect()),
        )
    }

    /// Removes a fact; returns whether it was present.
    ///
    /// The removed row is swap-removed: the last row takes its index and
    /// every affected index entry is patched in place — on this handle's
    /// copy of the shard only, so clones sharing the shard are undisturbed.
    /// A miss (absent fact, unknown value, wrong arity) is read-only.
    pub fn remove(&mut self, relation: RelationId, t: &Tuple) -> bool {
        let schema = self.schema.clone();
        let Ok(rel) = schema.relation(relation) else {
            return false;
        };
        if t.arity() != rel.arity() {
            return false;
        }
        let mut key = Vec::with_capacity(t.arity());
        for v in t.iter() {
            match self.interner.lookup(v) {
                Some(id) => key.push(id),
                None => return false,
            }
        }
        if !self.relations[relation.index()]
            .rows_by_key
            .contains_key(key.as_slice())
        {
            return false;
        }
        let removed_row;
        {
            let shard = self.shard_mut(relation.index());
            let row = shard
                .rows_by_key
                .remove(key.as_slice())
                .expect("presence checked above");
            removed_row = row;
            let last = shard.len() - 1;
            // Detach the removed row from its posting lists.
            for (c, &id) in key.iter().enumerate() {
                if let Some(list) = shard.indexes[c].get_mut(&id) {
                    if let Some(pos) = list.iter().position(|&r| r == row) {
                        list.swap_remove(pos);
                    }
                    if list.is_empty() {
                        shard.indexes[c].remove(&id);
                    }
                }
            }
            // Move the last row into the hole and patch its bookkeeping.
            if row != last {
                let moved: Vec<ValueId> =
                    (0..rel.arity()).map(|c| shard.columns[c][last]).collect();
                for (c, &id) in moved.iter().enumerate() {
                    if let Some(list) = shard.indexes[c].get_mut(&id) {
                        if let Some(pos) = list.iter().position(|&r| r == last) {
                            list[pos] = row;
                        }
                    }
                }
                if let Some(slot) = shard.rows_by_key.get_mut(moved.as_slice()) {
                    *slot = row;
                }
            }
            for c in 0..rel.arity() {
                shard.columns[c].swap_remove(row);
            }
            shard.tuples.swap_remove(row);
        }
        let adom = self.adom_mut();
        for (c, &id) in key.iter().enumerate() {
            let entry = (id, rel.domain_at(c));
            if let Some(count) = adom.get_mut(&entry) {
                *count -= 1;
                if *count == 0 {
                    adom.remove(&entry);
                }
            }
        }
        self.len -= 1;
        if self.trail_open > 0 {
            self.trail.push(TrailEntry::Removed {
                relation,
                key: key.into_boxed_slice(),
                tuple: t.clone(),
                row: removed_row,
            });
            self.trail_ops.pushed += 1;
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, relation: RelationId, t: &Tuple) -> bool {
        let Some(shard) = self.relations.get(relation.index()) else {
            return false;
        };
        if t.arity() != shard.columns.len() {
            return false;
        }
        let mut key = Vec::with_capacity(t.arity());
        for v in t.iter() {
            match self.interner.lookup(v) {
                Some(id) => key.push(id),
                None => {
                    // An unknown value may be interned by a later insert;
                    // keep the probe symbolic.
                    self.rec(|rs| {
                        rs.unknown_values.insert((relation, v.clone()));
                    });
                    return false;
                }
            }
        }
        self.rec_key_probe(relation, &key);
        shard.rows_by_key.contains_key(key.as_slice())
    }

    /// Membership test for a [`Fact`].
    pub fn contains_fact(&self, fact: &Fact) -> bool {
        self.contains(fact.0, &fact.1)
    }

    /// All tuples of one relation, in row order (insertion order until a
    /// removal swap-moves the last row into the removed slot).
    pub fn tuples(&self, relation: RelationId) -> impl Iterator<Item = &Tuple> {
        self.rec(|rs| {
            rs.relations.insert(relation);
        });
        self.relations
            .get(relation.index())
            .into_iter()
            .flat_map(|s| s.tuples.iter())
    }

    /// Number of tuples in one relation.
    pub fn relation_len(&self, relation: RelationId) -> usize {
        self.rec(|rs| {
            rs.relations.insert(relation);
        });
        self.relations
            .get(relation.index())
            .map(|s| s.len())
            .unwrap_or(0)
    }

    /// Total number of facts in the store.
    pub fn len(&self) -> usize {
        self.rec(|rs| rs.all = true);
        self.len
    }

    /// Whether the store holds no facts.
    pub fn is_empty(&self) -> bool {
        self.rec(|rs| rs.all = true);
        self.len == 0
    }

    /// Iterates over every fact in the store.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.rec(|rs| rs.all = true);
        self.relations.iter().enumerate().flat_map(|(i, shard)| {
            shard
                .tuples
                .iter()
                .map(move |t| (RelationId(i as u32), t.clone()))
        })
    }

    /// The tuples of `relation` whose projection onto `positions` equals
    /// `binding` — the paper's `I(Bind, S)`. Index-backed: the scan starts
    /// from the most selective posting list among the bound positions.
    pub fn matching(
        &self,
        relation: RelationId,
        positions: &[usize],
        binding: &[Value],
    ) -> Vec<Tuple> {
        if positions.len() != binding.len() {
            return Vec::new();
        }
        let constraints: Vec<(usize, &Value)> =
            positions.iter().copied().zip(binding.iter()).collect();
        self.candidates(relation, &constraints)
            .into_iter()
            .cloned()
            .collect()
    }

    /// References to the tuples of `relation` agreeing with every
    /// `(position, value)` constraint, in row order. With no constraints this
    /// is a full scan. This is the entry point the homomorphism searches use
    /// to avoid linear scans: the most selective per-attribute posting list
    /// is enumerated and the remaining constraints are checked columnar.
    pub fn candidates(&self, relation: RelationId, constraints: &[(usize, &Value)]) -> Vec<&Tuple> {
        let Some(shard) = self.relations.get(relation.index()) else {
            return Vec::new();
        };
        let shard = shard.as_ref();
        let arity = shard.columns.len();
        if constraints.is_empty() {
            self.rec(|rs| {
                rs.relations.insert(relation);
            });
            return shard.tuples.iter().collect();
        }
        // Resolve constraint values; an un-interned value or an out-of-range
        // position can never match.
        let mut resolved: Vec<(usize, ValueId)> = Vec::with_capacity(constraints.len());
        for &(pos, v) in constraints {
            if pos >= arity {
                return Vec::new();
            }
            match self.interner.lookup(v) {
                Some(id) => resolved.push((pos, id)),
                None => {
                    // The value may be interned by a later insert; keep the
                    // probe symbolic so such an insert re-triggers it.
                    self.rec(|rs| {
                        rs.unknown_values.insert((relation, v.clone()));
                    });
                    return Vec::new();
                }
            }
        }
        // A row changing this probe's answer must carry every constraint
        // value, so recording one of them is a sound trigger.
        self.rec(|rs| {
            rs.pairs.insert((relation, resolved[0].1));
        });
        // Most selective posting list first.
        let mut best: Option<&Vec<usize>> = None;
        for &(pos, id) in &resolved {
            match shard.indexes[pos].get(&id) {
                Some(list) => {
                    if best.map(|b| list.len() < b.len()).unwrap_or(true) {
                        best = Some(list);
                    }
                }
                None => return Vec::new(),
            }
        }
        let rows = best.expect("at least one constraint");
        let mut hits: Vec<usize> = rows
            .iter()
            .copied()
            .filter(|&row| {
                resolved
                    .iter()
                    .all(|&(pos, id)| shard.columns[pos][row] == id)
            })
            .collect();
        // Posting lists are patched on removal, so row order inside a list
        // is not sorted; sort for deterministic iteration downstream.
        hits.sort_unstable();
        hits.into_iter().map(|row| &shard.tuples[row]).collect()
    }

    /// Returns `true` if every fact of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &FactStore) -> bool {
        self.rec(|rs| rs.all = true);
        other.rec(|rs| rs.all = true);
        self.relations.iter().enumerate().all(|(i, shard)| {
            // Shared shards are trivially subsets of themselves.
            other
                .relations
                .get(i)
                .map(|o| Arc::ptr_eq(shard, o))
                .unwrap_or(false)
                || shard
                    .tuples
                    .iter()
                    .all(|t| other.contains(RelationId(i as u32), t))
        })
    }

    /// Adds every fact of `other` into `self`.
    pub fn extend_from(&mut self, other: &FactStore) {
        for (i, shard) in other.relations.iter().enumerate() {
            let rel = RelationId(i as u32);
            if i >= self.relations.len() {
                break;
            }
            if self
                .relations
                .get(i)
                .map(|s| Arc::ptr_eq(s, shard))
                .unwrap_or(false)
            {
                // Shared shard: every fact is already present.
                continue;
            }
            for t in &shard.tuples {
                let _ = self.insert(rel, t.clone());
            }
        }
    }

    /// Bulk-loads a collection of facts and returns how many were new.
    ///
    /// Equivalent to calling [`FactStore::insert`] per fact, but organised
    /// for large batches: every value is interned and every arity checked in
    /// one validation pass *before* any relation is touched (so an invalid
    /// fact leaves the stored facts unchanged), rows are grouped per
    /// relation, and each relation's columns, tuple vector and row-key map
    /// are reserved to their final size before the indexes are built. Each
    /// touched relation's shard is copied at most once (and not at all when
    /// every grouped row is a duplicate). This is the seeding path for the
    /// 10⁴–10⁶-fact configurations of the E5 / federation sweeps.
    pub fn extend_facts<I: IntoIterator<Item = Fact>>(&mut self, facts: I) -> Result<usize> {
        let schema = self.schema.clone();
        // Validation + interning pass; nothing is stored yet.
        let mut grouped: Vec<Vec<(Box<[ValueId]>, Tuple)>> = vec![Vec::new(); self.relations.len()];
        for (relation, t) in facts {
            let arity = schema.arity(relation)?;
            if t.arity() != arity {
                return Err(SchemaError::ArityMismatch {
                    relation,
                    expected: arity,
                    actual: t.arity(),
                });
            }
            let key: Box<[ValueId]> = t.iter().map(|v| self.intern_value(v)).collect();
            grouped[relation.index()].push((key, t));
        }
        // Build pass: reserve per relation, then insert with index updates.
        let mut inserted = 0usize;
        for (i, rows) in grouped.iter_mut().enumerate() {
            if rows.is_empty() {
                continue;
            }
            // Per-row duplicate checks are reads; record them even when the
            // whole batch turns out to be duplicates.
            if self.recording.is_some() {
                let relation = RelationId(i as u32);
                for (key, _) in rows.iter() {
                    self.rec_key_probe(relation, key);
                }
            }
            // Copy-on-write guard: leave a fully-duplicate batch's shard
            // shared.
            if rows
                .iter()
                .all(|(key, _)| self.relations[i].rows_by_key.contains_key(key))
            {
                continue;
            }
            let rel = schema
                .relation(RelationId(i as u32))
                .expect("relation validated above");
            let record = self.trail_open > 0;
            let capture = self.events_enabled && self.trail_open == 0;
            let mut adom_incs: Vec<(ValueId, DomainId)> = Vec::new();
            let mut trail_keys: Vec<Box<[ValueId]>> = Vec::new();
            let mut event_keys: Vec<Box<[ValueId]>> = Vec::new();
            {
                let shard = self.shard_mut(i);
                shard.rows_by_key.reserve(rows.len());
                shard.tuples.reserve(rows.len());
                for column in &mut shard.columns {
                    column.reserve(rows.len());
                }
                for (key, t) in rows.drain(..) {
                    if shard.rows_by_key.contains_key(&key) {
                        continue;
                    }
                    let row = shard.tuples.len();
                    for (c, &id) in key.iter().enumerate() {
                        shard.columns[c].push(id);
                        shard.indexes[c].entry(id).or_default().push(row);
                        adom_incs.push((id, rel.domain_at(c)));
                    }
                    if record {
                        trail_keys.push(key.clone());
                    }
                    if capture {
                        event_keys.push(key.clone());
                    }
                    shard.tuples.push(t);
                    shard.rows_by_key.insert(key, row);
                    inserted += 1;
                }
            }
            let relation = RelationId(i as u32);
            for key in trail_keys {
                self.trail.push(TrailEntry::Inserted { relation, key });
                self.trail_ops.pushed += 1;
            }
            // Events read the newly-in-adom flags before the refcounts
            // advance below (pairs introduced by earlier rows of the same
            // batch are conservatively flagged newly as well).
            for key in event_keys {
                let values = key
                    .iter()
                    .enumerate()
                    .map(|(c, &id)| {
                        let d = rel.domain_at(c);
                        (id, d, !self.adom.contains_key(&(id, d)))
                    })
                    .collect();
                self.events.push(InsertEvent { relation, values });
            }
            if !adom_incs.is_empty() {
                let adom = self.adom_mut();
                for (id, domain) in adom_incs {
                    *adom.entry((id, domain)).or_insert(0) += 1;
                }
            }
        }
        self.len += inserted;
        Ok(inserted)
    }

    /// The active domain of the store: the set of `(value, domain)` pairs
    /// appearing in any fact, each value paired with the abstract domain of
    /// the attribute position it appears in (`Adom(Conf)` in the paper).
    ///
    /// Served from the maintained cache — no fact is rescanned.
    pub fn active_domain(&self) -> HashSet<(Value, DomainId)> {
        self.rec(|rs| rs.adom_all = true);
        self.active_domain_untracked()
    }

    /// Like [`FactStore::active_domain`] but never recorded, even under an
    /// installed read recorder. For callers that instrument their own walk
    /// over the returned pairs and record what they actually consulted via
    /// [`FactStore::rec_adom_walk`] — using the recorded accessor there
    /// would pin every verdict to the whole active domain and defeat
    /// precise invalidation.
    pub fn active_domain_untracked(&self) -> HashSet<(Value, DomainId)> {
        self.adom
            .keys()
            .map(|&(id, d)| (self.interner.resolve(id).clone(), d))
            .collect()
    }

    /// The minimum active-domain value of every populated abstract domain,
    /// never recorded. This is the summary the producibility planner's
    /// accessible-value pool keeps: its only store-derived choices are "the
    /// least value of domain `d`" and "is domain `d` populated", and the
    /// pool records those as prefix / whole-domain walks at use time.
    pub fn adom_domain_mins_untracked(&self) -> HashMap<DomainId, Value> {
        let mut mins: HashMap<DomainId, Value> = HashMap::new();
        for &(id, d) in self.adom.keys() {
            let v = self.interner.resolve(id);
            match mins.entry(d) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if v < e.get() {
                        e.insert(v.clone());
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
            }
        }
        mins
    }

    /// Number of distinct `(value, domain)` pairs in the active domain.
    pub fn active_domain_len(&self) -> usize {
        self.rec(|rs| rs.adom_all = true);
        self.adom.len()
    }

    /// Is `(value, domain)` in the active domain? A pair of hash probes.
    pub fn adom_contains(&self, value: &Value, domain: DomainId) -> bool {
        match self.interner.lookup(value) {
            Some(id) => {
                self.rec(|rs| {
                    rs.adom_pairs.insert((id, domain));
                });
                self.adom.contains_key(&(id, domain))
            }
            None => {
                self.rec(|rs| {
                    rs.adom_unknown.insert((value.clone(), domain));
                });
                false
            }
        }
    }

    /// The values of the active domain restricted to one abstract domain,
    /// sorted for deterministic iteration.
    pub fn values_of_domain(&self, domain: DomainId) -> Vec<Value> {
        self.rec(|rs| {
            rs.adom_domains.insert(domain);
        });
        let mut vals: Vec<Value> = self
            .adom
            .keys()
            .filter(|(_, d)| *d == domain)
            .map(|&(id, _)| self.interner.resolve(id).clone())
            .collect();
        vals.sort();
        vals
    }

    /// All values appearing anywhere in the store (regardless of domain),
    /// sorted and deduplicated.
    pub fn all_values(&self) -> Vec<Value> {
        self.rec(|rs| rs.adom_all = true);
        self.all_values_untracked()
    }

    /// Like [`FactStore::all_values`] but never recorded, even under an
    /// installed read recorder. For *fresh-value seeding only*: the decision
    /// procedures seed a `FreshSupply` above every known value, and verdicts
    /// are invariant under renaming of fresh values, so this read does not
    /// have to participate in invalidation (recording it would make every
    /// verdict depend on the whole active domain).
    pub fn all_values_untracked(&self) -> Vec<Value> {
        let ids: HashSet<ValueId> = self.adom.keys().map(|&(id, _)| id).collect();
        let mut vals: Vec<Value> = ids
            .into_iter()
            .map(|id| self.interner.resolve(id).clone())
            .collect();
        vals.sort();
        vals
    }

    /// Deterministic, sorted dump of all facts — used by `Display`, snapshot
    /// tests and hashing of configurations during searches.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        let mut facts: Vec<Fact> = self.facts().collect();
        facts.sort();
        facts
    }
}

impl fmt::Debug for FactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = BTreeMap::new();
        for (rel, t) in self.sorted_facts() {
            let name = self
                .schema
                .relation(rel)
                .map(|r| r.name().to_string())
                .unwrap_or_else(|_| rel.to_string());
            map.entry(name).or_insert_with(Vec::new).push(t);
        }
        f.debug_map().entries(map.iter()).finish()
    }
}

impl fmt::Display for FactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (rel, t) in self.sorted_facts() {
            let name = self
                .schema
                .relation(rel)
                .map(|r| r.name().to_string())
                .unwrap_or_else(|_| rel.to_string());
            writeln!(f, "{name}{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple;

    fn small_schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        let e = b.domain("E").unwrap();
        b.relation("R", &[("a", d), ("b", e)]).unwrap();
        b.relation("S", &[("a", e)]).unwrap();
        b.build()
    }

    #[test]
    fn insert_contains_and_len() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema.clone());
        assert!(store.is_empty());
        assert!(store.insert(r, tuple(["x", "y"])).unwrap());
        assert!(!store.insert(r, tuple(["x", "y"])).unwrap());
        assert!(store.contains(r, &tuple(["x", "y"])));
        assert!(!store.contains(r, &tuple(["x", "z"])));
        assert_eq!(store.len(), 1);
        assert_eq!(store.relation_len(r), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        assert!(matches!(
            store.insert(r, tuple(["only-one"])),
            Err(SchemaError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn insert_named_resolves_relations() {
        let schema = small_schema();
        let mut store = FactStore::new(schema.clone());
        store.insert_named("S", ["v"]).unwrap();
        let s = schema.relation_by_name("S").unwrap();
        assert!(store.contains(s, &tuple(["v"])));
        assert!(store.insert_named("Nope", ["v"]).is_err());
    }

    #[test]
    fn matching_respects_binding_positions() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert(r, tuple(["a", "2"])).unwrap();
        store.insert(r, tuple(["b", "1"])).unwrap();
        let hits = store.matching(r, &[0], &[Value::sym("a")]);
        assert_eq!(hits.len(), 2);
        let hits = store.matching(r, &[0, 1], &[Value::sym("b"), Value::sym("1")]);
        assert_eq!(hits, vec![tuple(["b", "1"])]);
        let hits = store.matching(r, &[1], &[Value::sym("9")]);
        assert!(hits.is_empty());
        // Mismatched positions/binding lengths and out-of-range positions
        // never match (same contract as Tuple::matches_binding).
        assert!(store.matching(r, &[0], &[]).is_empty());
        assert!(store.matching(r, &[7], &[Value::sym("a")]).is_empty());
    }

    #[test]
    fn candidates_power_partial_scans() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert(r, tuple(["a", "2"])).unwrap();
        store.insert(r, tuple(["b", "1"])).unwrap();
        assert_eq!(store.candidates(r, &[]).len(), 3);
        let a = Value::sym("a");
        let one = Value::sym("1");
        assert_eq!(store.candidates(r, &[(0, &a)]).len(), 2);
        assert_eq!(store.candidates(r, &[(0, &a), (1, &one)]).len(), 1);
        let ghost = Value::sym("ghost");
        assert!(store.candidates(r, &[(0, &ghost)]).is_empty());
        assert!(store.candidates(r, &[(9, &a)]).is_empty());
    }

    #[test]
    fn active_domain_tracks_positional_domains() {
        let schema = small_schema();
        let d = schema.domain_by_name("D").unwrap();
        let e = schema.domain_by_name("E").unwrap();
        let mut store = FactStore::new(schema);
        store.insert_named("R", ["x", "y"]).unwrap();
        store.insert_named("S", ["y"]).unwrap();
        let adom = store.active_domain();
        assert!(adom.contains(&(Value::sym("x"), d)));
        assert!(adom.contains(&(Value::sym("y"), e)));
        // "x" never appears in an E position
        assert!(!adom.contains(&(Value::sym("x"), e)));
        assert!(store.adom_contains(&Value::sym("x"), d));
        assert!(!store.adom_contains(&Value::sym("x"), e));
        assert!(!store.adom_contains(&Value::sym("zz"), d));
        assert_eq!(store.active_domain_len(), adom.len());
        assert_eq!(store.values_of_domain(e), vec![Value::sym("y")]);
        assert_eq!(store.values_of_domain(d), vec![Value::sym("x")]);
        assert_eq!(store.all_values(), vec![Value::sym("x"), Value::sym("y")]);
    }

    #[test]
    fn active_domain_cache_survives_removal() {
        let schema = small_schema();
        let d = schema.domain_by_name("D").unwrap();
        let e = schema.domain_by_name("E").unwrap();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["x", "y"])).unwrap();
        store.insert(r, tuple(["x", "z"])).unwrap();
        // "x" is referenced by two facts; removing one keeps it in Adom.
        assert!(store.remove(r, &tuple(["x", "y"])));
        assert!(store.adom_contains(&Value::sym("x"), d));
        assert!(!store.adom_contains(&Value::sym("y"), e));
        assert!(store.adom_contains(&Value::sym("z"), e));
        assert!(store.remove(r, &tuple(["x", "z"])));
        assert_eq!(store.active_domain_len(), 0);
        assert!(store.all_values().is_empty());
    }

    #[test]
    fn subset_and_extend() {
        let schema = small_schema();
        let mut a = FactStore::new(schema.clone());
        let mut b = FactStore::new(schema.clone());
        a.insert_named("R", ["x", "y"]).unwrap();
        b.insert_named("R", ["x", "y"]).unwrap();
        b.insert_named("S", ["y"]).unwrap();
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        a.extend_from(&b);
        assert!(b.is_subset_of(&a));
        let r = schema.relation_by_name("R").unwrap();
        let mut c = FactStore::new(schema);
        assert_eq!(c.extend_facts(vec![(r, tuple(["p", "q"]))]).unwrap(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn bulk_extend_matches_per_fact_insertion() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let s = schema.relation_by_name("S").unwrap();
        let mut facts: Vec<Fact> = Vec::new();
        for i in 0..200 {
            facts.push((r, tuple([format!("a{}", i % 50), format!("b{}", i % 7)])));
            facts.push((s, tuple([format!("a{}", i % 23)])));
        }
        let mut bulk = FactStore::new(schema.clone());
        let inserted = bulk.extend_facts(facts.clone()).unwrap();
        let mut one_by_one = FactStore::new(schema);
        let mut expected = 0usize;
        for (rel, t) in facts {
            if one_by_one.insert(rel, t).unwrap() {
                expected += 1;
            }
        }
        assert_eq!(inserted, expected);
        assert_eq!(bulk.len(), one_by_one.len());
        assert_eq!(bulk.sorted_facts(), one_by_one.sorted_facts());
        assert_eq!(bulk.active_domain(), one_by_one.active_domain());
        // Index-backed lookups agree after the bulk build.
        let probe = Value::sym("a3");
        assert_eq!(
            bulk.matching(r, &[0], std::slice::from_ref(&probe)),
            one_by_one.matching(r, &[0], std::slice::from_ref(&probe))
        );
    }

    #[test]
    fn bulk_extend_rejects_bad_arity_without_partial_application() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        let result = store.extend_facts(vec![(r, tuple(["a", "b"])), (r, tuple(["only-one"]))]);
        assert!(matches!(result, Err(SchemaError::ArityMismatch { .. })));
        // The valid fact preceding the invalid one was not applied either.
        assert!(store.is_empty());
    }

    #[test]
    fn remove_and_facts_iteration() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "b"])).unwrap();
        store.insert_named("S", ["c"]).unwrap();
        assert_eq!(store.facts().count(), 2);
        assert!(store.contains_fact(&(r, tuple(["a", "b"]))));
        assert!(store.remove(r, &tuple(["a", "b"])));
        assert!(!store.remove(r, &tuple(["a", "b"])));
        assert_eq!(store.len(), 1);
        // Removing with unknown values or wrong arity is a no-op.
        assert!(!store.remove(r, &tuple(["ghost", "b"])));
        assert!(!store.remove(r, &tuple(["a"])));
    }

    #[test]
    fn remove_swaps_keep_indexes_consistent() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert(r, tuple(["b", "1"])).unwrap();
        store.insert(r, tuple(["c", "2"])).unwrap();
        // Remove the first row: the last row is swapped into its place and
        // every lookup must still agree with a naive scan.
        assert!(store.remove(r, &tuple(["a", "1"])));
        assert_eq!(store.relation_len(r), 2);
        assert!(store.contains(r, &tuple(["b", "1"])));
        assert!(store.contains(r, &tuple(["c", "2"])));
        assert_eq!(
            store.matching(r, &[1], &[Value::sym("1")]),
            vec![tuple(["b", "1"])]
        );
        assert_eq!(
            store.matching(r, &[0], &[Value::sym("c")]),
            vec![tuple(["c", "2"])]
        );
        assert!(store.matching(r, &[0], &[Value::sym("a")]).is_empty());
        // Reinsertion after removal works and is visible to the indexes.
        assert!(store.insert(r, tuple(["a", "1"])).unwrap());
        assert_eq!(store.matching(r, &[1], &[Value::sym("1")]).len(), 2);
    }

    #[test]
    fn sorted_facts_and_display_are_deterministic() {
        let schema = small_schema();
        let mut store = FactStore::new(schema);
        store.insert_named("R", ["b", "2"]).unwrap();
        store.insert_named("R", ["a", "1"]).unwrap();
        store.insert_named("S", ["z"]).unwrap();
        let facts = store.sorted_facts();
        assert_eq!(facts.len(), 3);
        assert!(facts[0].1 <= facts[1].1 || facts[0].0 < facts[1].0);
        let text = store.to_string();
        assert!(text.contains("R(a, 1)"));
        assert!(text.contains("S(z)"));
        let dbg = format!("{store:?}");
        assert!(dbg.contains("\"R\""));
    }

    #[test]
    fn interner_is_shared_across_relations() {
        let schema = small_schema();
        let mut store = FactStore::new(schema);
        store.insert_named("R", ["v", "v"]).unwrap();
        store.insert_named("S", ["v"]).unwrap();
        // One distinct value, interned once.
        assert_eq!(store.interner().len(), 1);
        assert_eq!(store.all_values(), vec![Value::sym("v")]);
    }

    #[test]
    fn clones_share_every_shard_until_first_write() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let s = schema.relation_by_name("S").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert_named("S", ["z"]).unwrap();
        let base_copies = store.shard_copies();
        let mut clone = store.clone();
        assert!(store.shares_relation_shard(&clone, r));
        assert!(store.shares_relation_shard(&clone, s));
        assert!(store.shares_adom_shard(&clone));
        assert!(store.shares_interner(&clone));
        // The clone inherits the counter; sharing cost nothing.
        assert_eq!(clone.shard_copies(), base_copies);
        // Mutating R in the clone diverges R (and the adom + interner, which
        // see a new value) but leaves S shared.
        clone.insert(r, tuple(["new", "9"])).unwrap();
        assert!(!store.shares_relation_shard(&clone, r));
        assert!(store.shares_relation_shard(&clone, s));
        assert!(!store.shares_adom_shard(&clone));
        assert!(!store.shares_interner(&clone));
        assert!(clone.shard_copies() > base_copies);
        // The original handle never copied anything.
        assert_eq!(store.shard_copies(), base_copies);
        // The original is undisturbed.
        assert!(!store.contains(r, &tuple(["new", "9"])));
        assert!(clone.contains(r, &tuple(["new", "9"])));
    }

    #[test]
    fn duplicate_insert_and_known_values_do_not_copy_shards() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        let mut clone = store.clone();
        let copies = clone.shard_copies();
        // Re-inserting an existing fact is read-only: everything stays
        // shared.
        assert!(!clone.insert(r, tuple(["a", "1"])).unwrap());
        assert_eq!(clone.shard_copies(), copies);
        assert!(store.shares_relation_shard(&clone, r));
        assert!(store.shares_adom_shard(&clone));
        assert!(store.shares_interner(&clone));
        // Inserting a new fact built from already-known values copies the
        // relation and adom shards but not the interner.
        assert!(clone.insert(r, tuple(["1", "a"])).unwrap());
        assert!(!store.shares_relation_shard(&clone, r));
        assert!(!store.shares_adom_shard(&clone));
        assert!(store.shares_interner(&clone));
    }

    #[test]
    fn removal_miss_on_shared_shard_is_read_only() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        let mut clone = store.clone();
        assert!(!clone.remove(r, &tuple(["ghost", "1"])));
        assert!(!clone.remove(r, &tuple(["a", "x"])));
        assert!(store.shares_relation_shard(&clone, r));
        assert!(store.shares_adom_shard(&clone));
    }

    #[test]
    fn trail_undo_restores_inserts_and_removals_exactly() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert(r, tuple(["b", "2"])).unwrap();
        store.insert(r, tuple(["c", "1"])).unwrap();
        let before = store.sorted_facts();
        let before_adom = store.active_domain();
        let mark = store.begin_trail();
        assert!(store.trail_is_active());
        assert!(store.remove(r, &tuple(["a", "1"])));
        assert!(store.insert(r, tuple(["d", "9"])).unwrap());
        assert!(store.insert(r, tuple(["e", "1"])).unwrap());
        assert!(store.remove(r, &tuple(["b", "2"])));
        store.undo_to(mark);
        assert!(!store.trail_is_active());
        assert_eq!(store.sorted_facts(), before);
        assert_eq!(store.active_domain(), before_adom);
        // Row layout is restored exactly, not just set-equal.
        assert_eq!(
            store.tuples(r).cloned().collect::<Vec<_>>(),
            vec![tuple(["a", "1"]), tuple(["b", "2"]), tuple(["c", "1"])]
        );
        assert_eq!(
            store.trail_ops(),
            TrailOps {
                pushed: 4,
                undone: 4
            }
        );
    }

    #[test]
    fn trail_records_only_effective_mutations() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        let mark = store.begin_trail();
        // A duplicate insert and a removal miss are read-only: no entries.
        assert!(!store.insert(r, tuple(["a", "1"])).unwrap());
        assert!(!store.remove(r, &tuple(["ghost", "1"])));
        assert_eq!(store.trail_ops(), TrailOps::default());
        store.undo_to(mark);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn speculate_auto_pops_and_nested_marks_unwind_in_order() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        let seen = store.speculate(|s| {
            s.insert(r, tuple(["x", "7"])).unwrap();
            let inner = s.begin_trail();
            s.insert(r, tuple(["y", "8"])).unwrap();
            let with_both = s.len();
            s.undo_to(inner);
            (with_both, s.len())
        });
        assert_eq!(seen, (3, 2));
        assert_eq!(store.len(), 1);
        assert!(!store.trail_is_active());
        assert!(!store.contains(r, &tuple(["x", "7"])));
    }

    #[test]
    fn trailed_bulk_load_is_undone_per_row() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let s = schema.relation_by_name("S").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        let before = store.sorted_facts();
        let mark = store.begin_trail();
        let inserted = store
            .extend_facts(vec![
                (r, tuple(["a", "1"])), // duplicate: not recorded
                (r, tuple(["b", "2"])),
                (s, tuple(["z"])),
            ])
            .unwrap();
        assert_eq!(inserted, 2);
        assert_eq!(store.trail_ops().pushed, 2);
        store.undo_to(mark);
        assert_eq!(store.sorted_facts(), before);
        assert_eq!(store.relation_len(s), 0);
    }

    #[test]
    fn clones_do_not_inherit_open_trails_but_inherit_counters() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        let mark = store.begin_trail();
        store.insert(r, tuple(["b", "2"])).unwrap();
        let clone = store.clone();
        // The clone sees the speculative fact but owes no undo for it.
        assert!(clone.contains(r, &tuple(["b", "2"])));
        assert!(!clone.trail_is_active());
        assert_eq!(clone.trail_ops().pushed, 1);
        store.undo_to(mark);
        // Undo detaches the store's shard; the clone keeps the fact.
        assert!(!store.contains(r, &tuple(["b", "2"])));
        assert!(clone.contains(r, &tuple(["b", "2"])));
        assert_eq!(
            store.trail_ops(),
            TrailOps {
                pushed: 1,
                undone: 1
            }
        );
    }

    #[test]
    fn fully_duplicate_bulk_load_keeps_shards_shared() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert(r, tuple(["b", "2"])).unwrap();
        let mut clone = store.clone();
        let inserted = clone
            .extend_facts(vec![(r, tuple(["a", "1"])), (r, tuple(["b", "2"]))])
            .unwrap();
        assert_eq!(inserted, 0);
        assert!(store.shares_relation_shard(&clone, r));
        assert!(store.shares_adom_shard(&clone));
    }
}
