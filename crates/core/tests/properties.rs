//! Property-based tests for the partitioning algorithms.
//!
//! The central property: **DHW matches the brute-force enumerated optimum**
//! (both cardinality and root weight) on random trees — i.e. it is minimal
//! *and* lean. Everything else is checked against the recomputing validator
//! and against DHW as a lower bound.

use natix_core::{
    baseline, brute_force, check_input, dhw_cached_with_statistics, evaluation_algorithms,
    CachedDhw, CachedGhdw, Dhw, Fdw, Ghdw, Km, ParallelDhw, ParallelGhdw, Partitioner,
};
use natix_tree::{validate, NodeId, Tree, TreeBuilder, Weight};
use proptest::prelude::*;

/// Build a random tree from `(parent_selector, weight)` pairs; node `i`'s
/// parent is `parent_selector % i`, guaranteeing a valid topology.
fn build_tree(root_weight: Weight, nodes: &[(u32, Weight)]) -> Tree {
    let mut b = TreeBuilder::new("n0", root_weight).unwrap();
    let mut ids = vec![NodeId::ROOT];
    for (i, &(psel, w)) in nodes.iter().enumerate() {
        let parent = ids[(psel as usize) % (i + 1)];
        let id = b
            .add_child(parent, &format!("n{}", i + 1), w)
            .expect("positive weight");
        ids.push(id);
    }
    b.build()
}

/// Random trees of up to 10 nodes with weights 1..=6, and a limit K that
/// keeps the instance feasible.
fn small_tree_and_limit() -> impl Strategy<Value = (Tree, Weight)> {
    (
        1..=6u64,
        prop::collection::vec((any::<u32>(), 1..=6u64), 0..9),
        6..=14u64,
    )
        .prop_map(|(rw, nodes, k)| (build_tree(rw, &nodes), k))
}

/// Larger random trees (up to ~40 nodes) so forced job targets produce
/// genuinely multi-job parallel schedules.
fn medium_tree_and_limit() -> impl Strategy<Value = (Tree, Weight)> {
    (
        1..=6u64,
        prop::collection::vec((any::<u32>(), 1..=6u64), 0..40),
        6..=20u64,
    )
        .prop_map(|(rw, nodes, k)| (build_tree(rw, &nodes), k))
}

/// Random trees of up to ~40 nodes with only two distinct weights, so
/// many subtrees share a weighted shape.
fn repetitive_tree_and_limit() -> impl Strategy<Value = (Tree, Weight)> {
    (
        1..=2u64,
        prop::collection::vec((any::<u32>(), 1..=2u64), 0..40),
        2..=12u64,
    )
        .prop_map(|(rw, nodes, k)| (build_tree(rw, &nodes), k))
}

/// Label-free weighted subtree equality by direct recursion; child order
/// matters.
fn same_shape(t: &Tree, u: NodeId, v: NodeId) -> bool {
    let (cu, cv) = (t.children(u), t.children(v));
    t.weight(u) == t.weight(v)
        && cu.len() == cv.len()
        && cu.iter().zip(cv).all(|(&a, &b)| same_shape(t, a, b))
}

/// Random *flat* trees (all children are leaves).
fn flat_tree_and_limit() -> impl Strategy<Value = (Tree, Weight)> {
    (1..=6u64, prop::collection::vec(1..=6u64, 0..9), 6..=14u64).prop_map(
        |(rw, leaf_weights, k)| {
            let mut b = TreeBuilder::new("t", rw).unwrap();
            for (i, &w) in leaf_weights.iter().enumerate() {
                b.add_child(NodeId::ROOT, &format!("c{i}"), w).unwrap();
            }
            (b.build(), k)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// DHW is optimal: same cardinality and root weight as exhaustive
    /// enumeration (minimal + lean).
    #[test]
    fn dhw_matches_brute_force((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let oracle = brute_force(&tree, k).unwrap();
        let p = Dhw.partition(&tree, k).unwrap();
        let s = validate(&tree, k, &p).expect("DHW result must be feasible");
        prop_assert_eq!(s.cardinality, oracle.cardinality, "tree={} K={}", tree, k);
        prop_assert_eq!(s.root_weight, oracle.root_weight, "tree={} K={}", tree, k);
    }

    /// FDW is optimal on flat trees.
    #[test]
    fn fdw_matches_brute_force_on_flat_trees((tree, k) in flat_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let oracle = brute_force(&tree, k).unwrap();
        let p = Fdw.partition(&tree, k).unwrap();
        let s = validate(&tree, k, &p).unwrap();
        prop_assert_eq!(s.cardinality, oracle.cardinality, "tree={} K={}", tree, k);
        prop_assert_eq!(s.root_weight, oracle.root_weight, "tree={} K={}", tree, k);
    }

    /// GHDW coincides with FDW (hence the optimum) on flat trees, where the
    /// greedy height strategy is vacuous.
    #[test]
    fn ghdw_is_optimal_on_flat_trees((tree, k) in flat_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let pf = Fdw.partition(&tree, k).unwrap();
        let pg = Ghdw.partition(&tree, k).unwrap();
        let sf = validate(&tree, k, &pf).unwrap();
        let sg = validate(&tree, k, &pg).unwrap();
        prop_assert_eq!(sf.cardinality, sg.cardinality, "tree={} K={}", tree, k);
        prop_assert_eq!(sf.root_weight, sg.root_weight, "tree={} K={}", tree, k);
    }

    /// Every algorithm always returns a feasible partitioning (validated by
    /// full recomputation) on feasible inputs.
    #[test]
    fn all_algorithms_feasible((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        for alg in evaluation_algorithms() {
            let p = alg.partition(&tree, k).unwrap();
            let res = validate(&tree, k, &p);
            prop_assert!(
                res.is_ok(),
                "{} infeasible on tree={} K={}: {:?}",
                alg.name(), tree, k, res.err()
            );
        }
    }

    /// No heuristic beats the optimum.
    #[test]
    fn heuristics_never_beat_dhw((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let pd = Dhw.partition(&tree, k).unwrap();
        let opt = validate(&tree, k, &pd).unwrap().cardinality;
        for alg in evaluation_algorithms() {
            let p = alg.partition(&tree, k).unwrap();
            let c = validate(&tree, k, &p).unwrap().cardinality;
            prop_assert!(
                c >= opt,
                "{} produced {} < optimal {} on tree={} K={}",
                alg.name(), c, opt, tree, k
            );
        }
    }

    /// KM only produces single-node intervals (parent-child partitioning).
    #[test]
    fn km_produces_singleton_intervals((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let p = Km.partition(&tree, k).unwrap();
        for iv in &p.intervals {
            prop_assert_eq!(iv.first, iv.last);
        }
    }

    /// Cardinality lower bound: ceil(total weight / K) partitions at least.
    #[test]
    fn dhw_respects_weight_lower_bound((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let p = Dhw.partition(&tree, k).unwrap();
        let s = validate(&tree, k, &p).unwrap();
        let lb = tree.total_weight().div_ceil(k) as usize;
        prop_assert!(s.cardinality >= lb);
    }

    /// Larger limits never increase the optimal cardinality.
    #[test]
    fn dhw_monotone_in_k((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let c1 = validate(&tree, k, &Dhw.partition(&tree, k).unwrap())
            .unwrap()
            .cardinality;
        let c2 = validate(&tree, k + 1, &Dhw.partition(&tree, k + 1).unwrap())
            .unwrap()
            .cardinality;
        prop_assert!(c2 <= c1, "K={} gave {}, K={} gave {}", k, c1, k + 1, c2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parallel engines are interval-for-interval identical to their
    /// sequential counterparts — not merely equally good — for every thread
    /// count and forced job schedule. `job_target` overrides the size
    /// heuristic so even these small trees split into many jobs.
    #[test]
    fn parallel_engines_identical_to_sequential(
        (tree, k) in medium_tree_and_limit(),
        threads in 1usize..=4,
        job_target in 1usize..=8,
    ) {
        prop_assume!(check_input(&tree, k).is_ok());
        let seq_d = Dhw.partition(&tree, k).unwrap();
        let seq_g = Ghdw.partition(&tree, k).unwrap();
        for dag_cache in [false, true] {
            let par_d = ParallelDhw { threads, job_target: Some(job_target), dag_cache }
                .partition(&tree, k)
                .unwrap();
            prop_assert_eq!(
                &par_d.intervals, &seq_d.intervals,
                "DHW tree={} K={} threads={} job_target={} cache={}",
                tree, k, threads, job_target, dag_cache
            );
            let par_g = ParallelGhdw { threads, job_target: Some(job_target), dag_cache }
                .partition(&tree, k)
                .unwrap();
            prop_assert_eq!(
                &par_g.intervals, &seq_g.intervals,
                "GHDW tree={} K={} threads={} job_target={} cache={}",
                tree, k, threads, job_target, dag_cache
            );
        }
    }

    /// The flat-arena DP agrees interval-for-interval with the retained
    /// pre-arena `HashMap`-row implementation (`natix_core::baseline`).
    #[test]
    fn arena_matches_hashmap_baseline((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let arena_d = Dhw.partition(&tree, k).unwrap();
        let base_d = baseline::dhw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&arena_d.intervals, &base_d.intervals, "DHW tree={} K={}", tree, k);
        let arena_g = Ghdw.partition(&tree, k).unwrap();
        let base_g = baseline::ghdw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&arena_g.intervals, &base_g.intervals, "GHDW tree={} K={}", tree, k);
    }

    /// The structure-sharing engine (hash-consed subtree DAG + dominance
    /// pruning) is interval-for-interval identical to the plain engine AND
    /// to the pre-arena `HashMap` baseline, for DHW and GHDW alike.
    #[test]
    fn dag_cached_identical_to_uncached((tree, k) in medium_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let plain_d = Dhw.partition(&tree, k).unwrap();
        let cached_d = CachedDhw.partition(&tree, k).unwrap();
        prop_assert_eq!(&cached_d.intervals, &plain_d.intervals, "DHW tree={} K={}", tree, k);
        let base_d = baseline::dhw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&cached_d.intervals, &base_d.intervals, "DHW/base tree={} K={}", tree, k);
        let plain_g = Ghdw.partition(&tree, k).unwrap();
        let cached_g = CachedGhdw.partition(&tree, k).unwrap();
        prop_assert_eq!(&cached_g.intervals, &plain_g.intervals, "GHDW tree={} K={}", tree, k);
    }

    /// On flat trees the structure-sharing engine emits FDW's interval
    /// chain: leaves dedup to one shape per weight, and the root's DP runs
    /// over those few distinct child summaries.
    #[test]
    fn dag_cached_fdw_identical_to_fdw((tree, k) in flat_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let pf = Fdw.partition(&tree, k).unwrap();
        let pc = CachedDhw.partition(&tree, k).unwrap();
        prop_assert_eq!(&pc.intervals, &pf.intervals, "tree={} K={}", tree, k);
    }

    /// The shape cache holds one plan per class of structurally equal
    /// weighted subtrees: its distinct-shape count equals the number of
    /// classes found by direct recursive comparison, every other node is a
    /// hit, and the partitioning is DHW's.
    #[test]
    fn dag_sharing_counts_exact_shapes((tree, k) in repetitive_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let ids: Vec<NodeId> = tree.node_ids().collect();
        let classes = (0..ids.len())
            .filter(|&i| !ids[..i].iter().any(|&u| same_shape(&tree, u, ids[i])))
            .count();
        let (p, stats) = dhw_cached_with_statistics(&tree, k).unwrap();
        prop_assert_eq!(stats.dag_nodes as usize, tree.len());
        prop_assert_eq!(stats.dag_distinct as usize, classes, "tree={}", tree);
        prop_assert_eq!(stats.dag_hits, stats.dag_nodes - stats.dag_distinct);
        prop_assert_eq!(&p.intervals, &Dhw.partition(&tree, k).unwrap().intervals);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Streaming EKM with an unbounded buffer is *identical* to EKM: the
    /// close-time schedule is just another topological order of the same
    /// binary-representation decisions.
    #[test]
    fn streaming_ekm_unbounded_equals_ekm((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let mut a = natix_core::Ekm.partition(&tree, k).unwrap();
        let mut b = natix_core::StreamingEkm::unbounded().partition(&tree, k).unwrap();
        a.normalize();
        b.normalize();
        prop_assert_eq!(a.intervals, b.intervals, "tree={} K={}", tree, k);
    }

    /// Bounded budgets always stay feasible and never beat the optimum.
    #[test]
    fn streaming_ekm_bounded_feasible(
        (tree, k) in small_tree_and_limit(),
        budget in 1usize..6,
    ) {
        prop_assume!(check_input(&tree, k).is_ok());
        let alg = natix_core::StreamingEkm { sibling_budget: budget };
        let p = alg.partition(&tree, k).unwrap();
        let s = validate(&tree, k, &p).expect("feasible");
        let opt = validate(&tree, k, &Dhw.partition(&tree, k).unwrap())
            .unwrap()
            .cardinality;
        prop_assert!(s.cardinality >= opt);
    }
}
