//! Property-based integration tests over randomly generated workloads.
//!
//! These check cross-crate invariants that the paper either states or
//! implies:
//!
//! * certain answers of monotone queries are monotone under configuration
//!   growth;
//! * immediate relevance implies long-term relevance;
//! * an access to a relation not mentioned in the query is never relevant
//!   (observation (i) of Section 4);
//! * containment under access limitations is reflexive and implied by
//!   classical containment;
//! * applying an access path never loses facts, and truncations reach a
//!   sub-configuration of the full path.
//!
//! The workloads are drawn from seeded deterministic generators and iterated
//! over a fixed parameter grid, so failures reproduce exactly (no external
//! property-testing framework is available offline; the grid plays the role
//! of proptest's case sampling).

use accrel::prelude::*;
use accrel::workloads::random::{
    generate_configuration, generate_cq, generate_workload, Workload, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload_and_query(seed: u64, atoms: usize, facts: usize) -> (Workload, Query, Configuration) {
    let spec = WorkloadSpec {
        relations: 3,
        arity: 2,
        domains: 2,
        constants: 5,
        dependent_fraction: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = generate_workload(&spec, &mut rng);
    let query = Query::Cq(generate_cq(&workload, atoms, 3, 0.8, &mut rng));
    let conf = generate_configuration(&workload, facts, &mut rng);
    (workload, query, conf)
}

/// The deterministic case grid shared by the properties below.
fn cases() -> impl Iterator<Item = (u64, usize, usize)> {
    (0u64..8).flat_map(|seed| {
        [(1usize, 0usize), (2, 3), (3, 6)]
            .into_iter()
            .map(move |(atoms, facts)| (seed, atoms, facts))
    })
}

#[test]
fn certain_answers_are_monotone() {
    for (seed, atoms, facts) in cases() {
        let (workload, query, conf) = workload_and_query(seed, atoms, facts);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let extra = generate_configuration(&workload, 3, &mut rng);
        let bigger = conf.union(&extra);
        if certain::is_certain(&query, &conf) {
            assert!(
                certain::is_certain(&query, &bigger),
                "monotonicity violated at seed={seed} atoms={atoms} facts={facts}"
            );
        }
    }
}

#[test]
fn immediate_relevance_implies_long_term_relevance() {
    for (seed, atoms, facts) in cases() {
        let (workload, query, conf) = workload_and_query(seed, atoms, facts);
        let budget = SearchBudget::default();
        for (id, method) in workload.methods.iter() {
            // One binding per method, drawn from the constant pool.
            let values: Vec<Value> = method
                .input_positions()
                .iter()
                .map(|_| workload.constants[(seed as usize) % workload.constants.len()].clone())
                .collect();
            let access = Access::new(id, values.into_iter().collect());
            let ir = is_immediately_relevant(&query, &conf, &access, &workload.methods);
            if ir {
                assert!(
                    is_long_term_relevant(&query, &conf, &access, &workload.methods, &budget),
                    "IR without LTR at seed={seed} atoms={atoms} facts={facts}"
                );
            }
        }
    }
}

#[test]
fn accesses_to_unmentioned_relations_are_irrelevant() {
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 2, facts);
        // A query that only mentions relation R0.
        let mut qb = ConjunctiveQuery::builder(workload.schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R0", vec![Term::Var(x), Term::Var(y)]).unwrap();
        let query: Query = qb.build().into();
        for (id, method) in workload.methods.iter() {
            if workload.schema.relation(method.relation()).unwrap().name() == "R0" {
                continue;
            }
            // Accessing R1/R2 can never be immediately relevant for a query
            // about R0 only (observation (i) of Section 4); it can be
            // long-term relevant only if it is the query relation, so here
            // it must not be IR.
            let values: Vec<Value> = method
                .input_positions()
                .iter()
                .map(|_| workload.constants[0].clone())
                .collect();
            let access = Access::new(id, values.into_iter().collect());
            assert!(
                !is_immediately_relevant(&query, &conf, &access, &workload.methods),
                "unmentioned relation was IR at seed={seed} facts={facts}"
            );
        }
    }
}

#[test]
fn containment_is_reflexive_and_respects_classical_containment() {
    for (seed, atoms, facts) in cases() {
        let atoms = atoms.min(2);
        let facts = facts.min(4);
        let (workload, query, conf) = workload_and_query(seed, atoms, facts);
        let budget = SearchBudget::shallow();
        let outcome = is_contained(&query, &query, &conf, &workload.methods, &budget);
        assert!(
            outcome.contained,
            "containment not reflexive at seed={seed} atoms={atoms} facts={facts}"
        );
        // Classical containment (all accesses free) implies containment
        // under any access limitations.
        let mut rng = StdRng::seed_from_u64(seed + 13);
        let other = Query::Cq(generate_cq(&workload, atoms, 2, 0.8, &mut rng));
        if accrel::query::containment::query_contained_in(&query, &other) {
            let limited = is_contained(&query, &other, &conf, &workload.methods, &budget);
            assert!(
                limited.contained,
                "classical containment not respected at seed={seed} atoms={atoms} facts={facts}"
            );
        }
    }
}

#[test]
fn access_paths_grow_monotonically_and_truncations_are_subsets() {
    for (seed, _, facts) in cases() {
        let facts = facts.max(1);
        let spec = WorkloadSpec {
            dependent_fraction: 1.0,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = generate_workload(&spec, &mut rng);
        let instance = accrel::workloads::random::generate_instance(&workload, facts + 4, &mut rng);
        let conf = generate_configuration(&workload, facts, &mut rng);
        // Build a short path by enumerating well-formed accesses and taking
        // exact responses from the instance.
        let options = accrel::access::enumerate::EnumerationOptions::default();
        let mut path = AccessPath::new();
        let mut current = conf.clone();
        for _ in 0..3 {
            let candidates = accrel::access::enumerate::well_formed_accesses(
                &current,
                &workload.methods,
                &options,
            );
            let Some(access) = candidates.first().cloned() else {
                break;
            };
            let Ok(response) = Response::exact(&access, &workload.methods, &instance) else {
                break;
            };
            let Ok(next) = apply_access(&current, &access, &response, &workload.methods) else {
                break;
            };
            path.push(access, response);
            current = next;
        }
        let full = path
            .apply(&conf, &workload.methods)
            .unwrap_or_else(|_| conf.clone());
        assert!(conf.is_subset_of(&full), "path lost facts at seed={seed}");
        let (_, truncated_conf) = path.truncate(&conf, &workload.methods);
        assert!(
            truncated_conf.is_subset_of(&full),
            "truncation escaped the path at seed={seed}"
        );
        assert!(
            conf.is_subset_of(&truncated_conf),
            "truncation lost base facts at seed={seed}"
        );
    }
}

/// Naive scan oracle for `FactStore::matching`: filter every tuple of the
/// relation by `Tuple::matches_binding`.
fn matching_oracle(
    store: &accrel::schema::FactStore,
    relation: accrel::schema::RelationId,
    positions: &[usize],
    binding: &[Value],
) -> Vec<accrel::schema::Tuple> {
    let mut out: Vec<accrel::schema::Tuple> = store
        .tuples(relation)
        .filter(|t| t.matches_binding(positions, binding))
        .cloned()
        .collect();
    out.sort();
    out
}

/// Naive scan oracle for `FactStore::active_domain`: rescan every fact.
fn adom_oracle(
    store: &accrel::schema::FactStore,
) -> std::collections::HashSet<(Value, accrel::schema::DomainId)> {
    let mut out = std::collections::HashSet::new();
    for (rel, t) in store.facts() {
        let relation = store.schema().relation(rel).unwrap();
        for (pos, v) in t.iter().enumerate() {
            out.insert((v.clone(), relation.domain_at(pos)));
        }
    }
    out
}

#[test]
fn indexed_matching_agrees_with_scan_oracle_on_random_configurations() {
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 4);
        let store = conf.store();
        for (rel, relation) in workload.schema.relations_with_ids() {
            let arity = relation.arity();
            // Probe every single position and the full-tuple binding, with
            // values drawn from the pool (both present and absent ones).
            for value in workload.constants.iter().take(4) {
                for pos in 0..arity {
                    let got = {
                        let mut v = store.matching(rel, &[pos], std::slice::from_ref(value));
                        v.sort();
                        v
                    };
                    let want = matching_oracle(store, rel, &[pos], std::slice::from_ref(value));
                    assert_eq!(got, want, "matching mismatch at seed={seed} facts={facts}");
                }
            }
            for t in store.tuples(rel).take(3).cloned().collect::<Vec<_>>() {
                let positions: Vec<usize> = (0..arity).collect();
                let mut got = store.matching(rel, &positions, t.values());
                got.sort();
                assert_eq!(
                    got,
                    matching_oracle(store, rel, &positions, t.values()),
                    "full-binding mismatch at seed={seed}"
                );
            }
        }
    }
}

#[test]
fn cached_active_domain_agrees_with_scan_oracle_after_inserts_and_removals() {
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 6);
        let mut store = conf.store().clone();
        assert_eq!(store.active_domain(), adom_oracle(&store));
        // Remove roughly half the facts, in a deterministic order, checking
        // the maintained cache against the oracle as we go.
        let victims: Vec<_> = store.facts().step_by(2).collect();
        for (rel, t) in victims {
            assert!(store.remove(rel, &t), "removal failed at seed={seed}");
            assert_eq!(
                store.active_domain(),
                adom_oracle(&store),
                "adom cache diverged after removal at seed={seed}"
            );
        }
        // Reinsert fresh facts; the cache must track them too.
        let mut rng = StdRng::seed_from_u64(seed + 77);
        let extra = generate_configuration(&workload, 5, &mut rng);
        for (rel, t) in extra.facts() {
            let _ = store.insert(rel, t);
        }
        assert_eq!(store.active_domain(), adom_oracle(&store));
        // values_of_domain is the sorted per-domain projection of the oracle.
        for d in 0..workload.schema.domain_count() {
            let d = accrel::schema::DomainId(d as u32);
            let mut want: Vec<Value> = adom_oracle(&store)
                .into_iter()
                .filter(|(_, vd)| *vd == d)
                .map(|(v, _)| v)
                .collect();
            want.sort();
            assert_eq!(
                store.values_of_domain(d),
                want,
                "domain values at seed={seed}"
            );
        }
    }
}

/// Naive deep-copy oracle for the copy-on-write store: rebuild an
/// independent store holding exactly the same facts, sharing nothing.
fn deep_copy_oracle(store: &accrel::schema::FactStore) -> accrel::schema::FactStore {
    let mut copy = accrel::schema::FactStore::new(store.schema().clone());
    for (rel, t) in store.facts() {
        copy.insert(rel, t).expect("oracle facts are well-typed");
    }
    copy
}

/// Asserts two stores agree observationally: same facts, same active
/// domain, and same index-backed matching results for every probe drawn
/// from the workload pool.
fn assert_stores_agree(
    a: &accrel::schema::FactStore,
    b: &accrel::schema::FactStore,
    workload: &Workload,
    context: &str,
) {
    assert_eq!(a.len(), b.len(), "len diverged: {context}");
    assert_eq!(a.sorted_facts(), b.sorted_facts(), "facts: {context}");
    assert_eq!(a.active_domain(), b.active_domain(), "adom: {context}");
    for (rel, relation) in workload.schema.relations_with_ids() {
        assert_eq!(
            a.relation_len(rel),
            b.relation_len(rel),
            "relation len: {context}"
        );
        for value in workload.constants.iter().take(4) {
            for pos in 0..relation.arity() {
                let sorted = |mut v: Vec<accrel::schema::Tuple>| {
                    v.sort();
                    v
                };
                assert_eq!(
                    sorted(a.matching(rel, &[pos], std::slice::from_ref(value))),
                    sorted(b.matching(rel, &[pos], std::slice::from_ref(value))),
                    "matching diverged: {context}"
                );
            }
        }
    }
}

#[test]
fn cow_clone_then_mutate_diverges_like_a_deep_copy() {
    // Oracle grid for the copy-on-write shards: mutate a clone and its
    // origin with different interleavings of inserts and removals; both
    // handles must behave exactly like independently deep-copied stores.
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 5);
        let original = conf.store().clone();
        let mut clone = original.clone();
        let mut oracle_original = deep_copy_oracle(&original);
        let mut oracle_clone = deep_copy_oracle(&original);
        let mut original = original;

        // Mutate the clone: remove every other fact, insert fresh ones.
        let victims: Vec<_> = oracle_clone.facts().step_by(2).collect();
        for (rel, t) in &victims {
            assert_eq!(clone.remove(*rel, t), oracle_clone.remove(*rel, t));
        }
        let mut rng = StdRng::seed_from_u64(seed + 101);
        let extra = generate_configuration(&workload, 6, &mut rng);
        for (rel, t) in extra.facts() {
            assert_eq!(
                clone.insert(rel, t.clone()).unwrap(),
                oracle_clone.insert(rel, t).unwrap()
            );
        }
        // Mutate the original differently: insert a disjoint batch.
        let mut rng = StdRng::seed_from_u64(seed + 202);
        let other = generate_configuration(&workload, 4, &mut rng);
        for (rel, t) in other.facts() {
            assert_eq!(
                original.insert(rel, t.clone()).unwrap(),
                oracle_original.insert(rel, t).unwrap()
            );
        }

        let ctx = format!("seed={seed} facts={facts}");
        assert_stores_agree(&clone, &oracle_clone, &workload, &format!("clone {ctx}"));
        assert_stores_agree(
            &original,
            &oracle_original,
            &workload,
            &format!("original {ctx}"),
        );
    }
}

#[test]
fn cow_unmutated_shards_stay_pointer_equal_across_clones() {
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 5);
        let base = conf.store();
        let mut clone = base.clone();
        // A fresh clone shares every shard with its origin.
        for (rel, _) in workload.schema.relations_with_ids() {
            assert!(
                base.shares_relation_shard(&clone, rel),
                "fresh clone must share relation shards at seed={seed}"
            );
        }
        assert!(base.shares_adom_shard(&clone));
        assert!(base.shares_interner(&clone));
        // Insert one fact into exactly one relation of the clone: only that
        // relation's shard (plus adom, plus interner for the new value)
        // diverges.
        let (target, target_rel) = workload
            .schema
            .relations_with_ids()
            .next()
            .expect("workload has relations");
        let fresh_tuple = accrel::schema::Tuple::new(
            (0..target_rel.arity())
                .map(|i| Value::sym(format!("cow-fresh-{seed}-{i}")))
                .collect(),
        );
        assert!(clone.insert(target, fresh_tuple).unwrap());
        for (rel, _) in workload.schema.relations_with_ids() {
            if rel == target {
                assert!(
                    !base.shares_relation_shard(&clone, rel),
                    "mutated shard must diverge at seed={seed}"
                );
            } else {
                assert!(
                    base.shares_relation_shard(&clone, rel),
                    "untouched shard {rel:?} must stay shared at seed={seed}"
                );
            }
        }
        assert!(!base.shares_adom_shard(&clone));
        assert!(!base.shares_interner(&clone));
        // The origin handle performed no copy; the clone performed some.
        assert_eq!(base.shard_copies(), 0, "read-only origin at seed={seed}");
        assert!(clone.shard_copies() > 0);
    }
}

#[test]
fn cow_adom_and_indexes_survive_swap_removal_on_a_shared_shard() {
    // Swap-patch removal on a clone whose shards are still shared: the
    // clone's refcounted adom cache and posting lists must match the scan
    // oracles, and the sharing origin must be byte-identical to before.
    for (seed, _, facts) in cases() {
        let (_, _, conf) = workload_and_query(seed, 1, facts + 6);
        let original = conf.store().clone();
        let before_facts = original.sorted_facts();
        let before_adom = adom_oracle(&original);
        let mut clone = original.clone();
        let victims: Vec<_> = clone.facts().step_by(2).collect();
        for (rel, t) in victims {
            assert!(clone.remove(rel, &t), "removal failed at seed={seed}");
            // The clone's maintained adom equals the rescan oracle after
            // every swap-removal...
            assert_eq!(
                clone.active_domain(),
                adom_oracle(&clone),
                "clone adom diverged at seed={seed}"
            );
            // ...and the origin never moves.
            assert_eq!(
                original.sorted_facts(),
                before_facts,
                "origin facts disturbed at seed={seed}"
            );
        }
        assert_eq!(adom_oracle(&original), before_adom);
        // Swap-patched posting lists on the clone still answer matching
        // correctly (checked against the naive scan oracle).
        for (rel, relation) in conf.schema().relations_with_ids() {
            for pos in 0..relation.arity() {
                for t in clone.tuples(rel).take(3).cloned().collect::<Vec<_>>() {
                    let value = t.get(pos).unwrap().clone();
                    let got = {
                        let mut v = clone.matching(rel, &[pos], std::slice::from_ref(&value));
                        v.sort();
                        v
                    };
                    assert_eq!(
                        got,
                        matching_oracle(&clone, rel, &[pos], std::slice::from_ref(&value)),
                        "post-removal matching at seed={seed}"
                    );
                }
            }
        }
        // Reinsertion on the diverged shard works and is invisible to the
        // origin.
        let readd: Vec<_> = before_facts
            .iter()
            .filter(|f| !clone.contains_fact(f))
            .cloned()
            .collect();
        for (rel, t) in readd {
            assert!(clone.insert(rel, t).unwrap());
        }
        assert_eq!(clone.sorted_facts(), before_facts);
        assert_eq!(original.sorted_facts(), before_facts);
    }
}

#[test]
fn trail_undo_restores_the_store_byte_for_byte_on_the_oracle_grid() {
    // Speculative churn under a trail mark — insert a fresh batch, remove a
    // deterministic sample of the survivors — then undo. The store must be
    // observationally identical to an untouched deep copy: same facts, same
    // per-attribute index answers, same refcounted active domain.
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 6);
        let mut store = conf.store().clone();
        let untouched = deep_copy_oracle(&store);
        let ops_before = store.trail_ops();
        let mut rng = StdRng::seed_from_u64(seed + 301);
        let extra = generate_configuration(&workload, 6, &mut rng);

        let mark = store.begin_trail();
        let mut pushed = 0u64;
        for (rel, t) in extra.facts() {
            if store.insert(rel, t).unwrap() {
                pushed += 1;
            }
        }
        let victims: Vec<_> = store.facts().step_by(2).take(5).collect();
        for (rel, t) in victims {
            assert!(store.remove(rel, &t), "removal failed at seed={seed}");
            pushed += 1;
        }
        store.undo_to(mark);

        let ctx = format!("trail undo at seed={seed} facts={facts}");
        assert_stores_agree(&store, &untouched, &workload, &ctx);
        assert_eq!(store.active_domain(), adom_oracle(&store), "{ctx}");
        for d in 0..workload.schema.domain_count() {
            let d = accrel::schema::DomainId(d as u32);
            assert_eq!(
                store.values_of_domain(d),
                untouched.values_of_domain(d),
                "{ctx}"
            );
        }
        // Every speculative mutation was recorded and reversed.
        let ops = store.trail_ops().since(ops_before);
        assert_eq!(ops.pushed, pushed, "{ctx}");
        assert_eq!(ops.undone, pushed, "{ctx}");
        assert!(!store.trail_is_active(), "{ctx}");
    }
}

#[test]
fn trail_undo_of_removals_on_shared_cow_shards_leaves_both_handles_intact() {
    // Remove-then-undo on a clone whose shards are still shared with its
    // origin: the undo must restore the clone through the copy-on-write
    // accessors (detaching, never writing through), so the origin is
    // byte-for-byte undisturbed and the clone equals a deep copy.
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 6);
        let original = conf.store().clone();
        let before_facts = original.sorted_facts();
        let before_adom = adom_oracle(&original);
        let copies_before = original.shard_copies();
        let mut clone = original.clone();

        let mark = clone.begin_trail();
        let victims: Vec<_> = clone.facts().step_by(2).collect();
        for (rel, t) in victims {
            assert!(clone.remove(rel, &t), "removal failed at seed={seed}");
        }
        let mut rng = StdRng::seed_from_u64(seed + 404);
        let extra = generate_configuration(&workload, 4, &mut rng);
        for (rel, t) in extra.facts() {
            let _ = clone.insert(rel, t);
        }
        clone.undo_to(mark);

        let ctx = format!("shared-shard undo at seed={seed} facts={facts}");
        assert_eq!(original.sorted_facts(), before_facts, "{ctx}");
        assert_eq!(adom_oracle(&original), before_adom, "{ctx}");
        assert_eq!(
            original.shard_copies(),
            copies_before,
            "read-only origin: {ctx}"
        );
        assert_stores_agree(&clone, &deep_copy_oracle(&original), &workload, &ctx);
        assert_eq!(clone.active_domain(), adom_oracle(&clone), "{ctx}");
    }
}

#[test]
fn nested_trail_marks_undo_inside_out_and_outer_undo_cancels_inner() {
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 5);
        let mut store = conf.store().clone();
        let untouched = deep_copy_oracle(&store);
        let mut rng = StdRng::seed_from_u64(seed + 505);
        let batch_a = generate_configuration(&workload, 3, &mut rng);
        let batch_b = generate_configuration(&workload, 3, &mut rng);

        // Inside-out: undoing the inner mark restores the outer speculative
        // state; undoing the outer mark restores the original.
        let outer = store.begin_trail();
        for (rel, t) in batch_a.facts() {
            let _ = store.insert(rel, t);
        }
        let after_a = store.sorted_facts();
        let inner = store.begin_trail();
        for (rel, t) in batch_b.facts() {
            let _ = store.insert(rel, t);
        }
        let victim = store.facts().next();
        if let Some((rel, t)) = victim {
            assert!(store.remove(rel, &t));
        }
        store.undo_to(inner);
        assert_eq!(store.sorted_facts(), after_a, "inner undo at seed={seed}");
        store.undo_to(outer);
        let ctx = format!("outer undo at seed={seed} facts={facts}");
        assert_stores_agree(&store, &untouched, &workload, &ctx);
        assert!(!store.trail_is_active(), "{ctx}");

        // Outer-first: undoing the outer mark with the inner still open
        // cancels the whole nested speculation in one sweep.
        let outer = store.begin_trail();
        for (rel, t) in batch_a.facts() {
            let _ = store.insert(rel, t);
        }
        let _inner = store.begin_trail();
        for (rel, t) in batch_b.facts() {
            let _ = store.insert(rel, t);
        }
        store.undo_to(outer);
        let ctx = format!("outer-first undo at seed={seed} facts={facts}");
        assert_stores_agree(&store, &untouched, &workload, &ctx);
        assert!(!store.trail_is_active(), "{ctx}");
    }
}

#[test]
fn duplicate_only_rounds_evict_nothing_and_leave_the_verdict_cache_intact() {
    // Re-applying an already-applied response inserts zero facts: the store
    // queues no insert events, the oracle drains nothing, and every cached
    // verdict survives — re-checking the same accesses afterwards must be
    // pure cache hits. (Precise read-set invalidation is the default; the
    // duplicate round must be invisible to it.)
    use accrel::access::apply_access_in_place;
    use accrel::access::enumerate::{well_formed_accesses, EnumerationOptions};
    use accrel::engine::{RelevanceOracle, RunOptions};

    for seed in 0..6u64 {
        let spec = WorkloadSpec {
            relations: 3,
            arity: 2,
            domains: 2,
            constants: 5,
            dependent_fraction: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = generate_workload(&spec, &mut rng);
        let query = Query::Cq(generate_cq(&workload, 2, 3, 0.8, &mut rng));
        let instance = accrel::workloads::random::generate_instance(&workload, 12, &mut rng);
        let mut conf = generate_configuration(&workload, 4, &mut rng);
        conf.set_event_capture(true);

        let options = RunOptions::default();
        let mut oracle = RelevanceOracle::new(&query, &workload.methods, &options);

        // Warm the verdict cache over the current candidate set.
        let candidates =
            well_formed_accesses(&conf, &workload.methods, &EnumerationOptions::default());
        for access in candidates.iter().take(8) {
            let _ = oracle.check_ir(access, &conf);
            let _ = oracle.check_ltr(access, &conf);
        }

        // Find an access whose exact response actually grows the
        // configuration, apply it, and drain its events the way the engine
        // does after a growing round.
        let mut applied: Option<(Access, Response)> = None;
        for access in &candidates {
            let Ok(response) = Response::exact(access, &workload.methods, &instance) else {
                continue;
            };
            let before = conf.len();
            let _ = apply_access_in_place(&mut conf, access, &response, &workload.methods);
            if conf.len() > before {
                let relation = workload.methods.get(access.method()).unwrap().relation();
                oracle.observe_growth(&mut conf, relation);
                applied = Some((access.clone(), response));
                break;
            }
            assert_eq!(conf.pending_events(), 0, "duplicate queued events");
        }
        let Some((access, response)) = applied else {
            continue; // nothing grows at this seed; the grid covers others
        };

        // Re-warm so the cache holds verdicts again after the growth round.
        for access in candidates.iter().take(8) {
            let _ = oracle.check_ir(access, &conf);
            let _ = oracle.check_ltr(access, &conf);
        }
        let evictions_before = oracle.evictions();
        let drained_before = oracle.events_drained();
        let misses_before = oracle.misses();

        // The duplicate-only round: same access, same response, zero new
        // facts. No events may queue, and draining must evict nothing.
        let before = conf.len();
        let _ = apply_access_in_place(&mut conf, &access, &response, &workload.methods);
        assert_eq!(conf.len(), before, "duplicate response grew at seed={seed}");
        assert_eq!(
            conf.pending_events(),
            0,
            "duplicate response queued insert events at seed={seed}"
        );
        let relation = workload.methods.get(access.method()).unwrap().relation();
        oracle.observe_growth(&mut conf, relation);
        assert_eq!(
            oracle.evictions(),
            evictions_before,
            "duplicate round evicted cached verdicts at seed={seed}"
        );
        assert_eq!(
            oracle.events_drained(),
            drained_before,
            "duplicate round drained events at seed={seed}"
        );

        // Cache survival: the same checks are now pure hits.
        for access in candidates.iter().take(8) {
            let _ = oracle.check_ir(access, &conf);
            let _ = oracle.check_ltr(access, &conf);
        }
        assert_eq!(
            oracle.misses(),
            misses_before,
            "verdict cache lost entries across a duplicate-only round at seed={seed}"
        );
    }
}

#[test]
fn index_backed_candidates_agree_with_membership_semantics() {
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 4);
        let store = conf.store();
        for (rel, _) in workload.schema.relations_with_ids() {
            // Unconstrained candidates enumerate exactly the relation.
            assert_eq!(
                store.candidates(rel, &[]).len(),
                store.relation_len(rel),
                "full scan mismatch at seed={seed}"
            );
            // Every stored tuple is found by its own full constraint set and
            // by contains().
            for t in store.tuples(rel) {
                let constraints: Vec<(usize, &Value)> = t.iter().enumerate().collect();
                let hits = store.candidates(rel, &constraints);
                assert!(
                    hits.contains(&t),
                    "tuple lost by its own constraints at seed={seed}"
                );
                assert!(store.contains(rel, t));
            }
        }
    }
}
