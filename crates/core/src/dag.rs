//! Structure-sharing DP: hash-consed subtree DAG + one plan per distinct
//! shape + dominance-pruned rows.
//!
//! The per-node DP of [`crate::dp`] is a pure function of the node's
//! *weighted subtree shape*: its own weight, the ordered shapes of its
//! children, and the run parameters `(K, nearly_mode)`. Labels never enter
//! the recurrence. Real XML — especially relational dumps like the paper's
//! `partsupp.xml`/`orders.xml` — is extremely repetitive under exactly this
//! equivalence: "XML Compression via DAGs" (Bousquet-Mélou, Lohrey,
//! Maneth, Noeth) measures that typical documents collapse to minimal DAGs
//! a small fraction of their tree size. The plain engine recomputes the
//! same table for every one of those identical subtrees; this module
//! computes it **once per distinct shape** and splices the result into
//! every occurrence.
//!
//! Two layers:
//!
//! 1. [`SubtreeDag`] — bottom-up hash-consing of weighted subtree shapes
//!    into a minimal-DAG node index. Interning is *exact* (structural
//!    equality on weight + ordered child shape ids, with a 64-bit hash
//!    only bucketing), so there are no collision risks.
//! 2. Dominance pruning — the engine runs the per-node DP with the
//!    Pareto-dominance candidate filter of `NodeDp::compute` enabled, so
//!    rows that *are* computed stop fanning candidates into the `O(K³)`
//!    combine step as soon as the incumbent entry dominates every
//!    remaining start position.
//!
//! Output is **byte-identical** to the plain engine (the same interval
//! list): plans are pure per shape, pruning only skips provably
//! non-improving candidates, and extraction walks the same chains. The
//! property and differential suites (`tests/properties.rs`,
//! `tests/dag_equivalence.rs`) enforce this against both the arena engine
//! and the pre-arena `natix_core::baseline` oracle, across the
//! `natix-datagen` corpus and the parallel scheduler.

use std::collections::HashMap;

use natix_tree::{NodeId, Partitioning, Tree, Weight};

use crate::dp::{self, ChildStats, DpStats, DpWorkspace, NodePlan};
use crate::{check_input, PartitionError, Partitioner};

/// `splitmix64` finalizer: cheap, well-distributed 64-bit mixing.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Minimal-DAG index of a tree's weighted subtree shapes.
///
/// `id(v)` maps every tree node to a dense shape id; nodes with equal
/// label-free weighted subtrees share an id. Built in one reverse-id scan
/// (children before parents) in `O(n)` expected time.
pub(crate) struct SubtreeDag {
    /// Shape id per tree node.
    ids: Vec<u32>,
    /// Bucket hash per shape id, folded over (weight, child hashes).
    hashes: Vec<u64>,
    /// Node weight per shape id (for exact interning).
    weights: Vec<Weight>,
    /// Flattened ordered child shape ids of every shape.
    child_ids: Vec<u32>,
    /// Range of `child_ids` per shape id.
    child_range: Vec<(u32, u32)>,
}

impl SubtreeDag {
    /// Hash-cons every subtree of `tree` into the minimal DAG.
    pub(crate) fn build(tree: &Tree) -> SubtreeDag {
        let n = tree.len();
        let mut dag = SubtreeDag {
            ids: vec![0; n],
            hashes: Vec::new(),
            weights: Vec::new(),
            child_ids: Vec::new(),
            child_range: Vec::new(),
        };
        // 64-bit bucket hash → candidate shape ids (almost always one).
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut kids: Vec<u32> = Vec::new();
        // Child ids exceed parent ids, so a reverse scan is bottom-up.
        for i in (0..n).rev() {
            let v = NodeId::from_index(i);
            let w = tree.weight(v);
            kids.clear();
            kids.extend(tree.children(v).iter().map(|c| dag.ids[c.index()]));

            let mut h = mix64(0x6461_675f_6c6f_5f30 ^ w); // "dag_lo_0"
            for &cid in &kids {
                h = mix64(h ^ dag.hashes[cid as usize]);
            }
            h = mix64(h ^ kids.len() as u64);

            let bucket = buckets.entry(h).or_default();
            let found = bucket.iter().copied().find(|&sid| {
                let sid = sid as usize;
                let (cs, ce) = dag.child_range[sid];
                dag.weights[sid] == w && dag.child_ids[cs as usize..ce as usize] == kids[..]
            });
            dag.ids[i] = match found {
                Some(sid) => sid,
                None => {
                    let sid = dag.hashes.len() as u32;
                    dag.hashes.push(h);
                    dag.weights.push(w);
                    let cs = dag.child_ids.len() as u32;
                    dag.child_ids.extend_from_slice(&kids);
                    dag.child_range.push((cs, dag.child_ids.len() as u32));
                    bucket.push(sid);
                    sid
                }
            };
        }
        dag
    }

    /// Number of tree nodes indexed.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Number of distinct weighted subtree shapes (minimal-DAG nodes).
    pub(crate) fn distinct(&self) -> usize {
        self.hashes.len()
    }

    /// Shape id of a tree node.
    #[inline]
    pub(crate) fn id(&self, v: NodeId) -> u32 {
        self.ids[v.index()]
    }
}

/// Run the structure-sharing engine over the whole tree.
///
/// `nearly_mode = false` is GHDW; `true` is DHW. Each distinct weighted
/// subtree shape is processed once (dominance pruning enabled); every
/// other occurrence splices that shape's plan.
pub(crate) fn partition_dag_into(
    tree: &Tree,
    k: Weight,
    nearly_mode: bool,
    ws: &mut DpWorkspace,
    mut stats: Option<&mut DpStats>,
    out: &mut Partitioning,
) -> Result<(), PartitionError> {
    check_input(tree, k)?;
    let dag = SubtreeDag::build(tree);
    let mut plans: Vec<Option<NodePlan>> = vec![None; dag.distinct()];

    for v in tree.postorder() {
        let sid = dag.id(v) as usize;
        if plans[sid].is_some() {
            continue;
        }
        let children = tree.children(v);
        let mut plan = NodePlan::default();
        if children.is_empty() {
            plan.set_leaf(tree.weight(v));
        } else {
            ws.set_children(children.iter().map(|c| {
                let p = plans[dag.id(*c) as usize]
                    .as_ref()
                    .expect("children precede parents in postorder");
                ChildStats {
                    rw: p.rw_opt,
                    dw: p.dw,
                }
            }));
            dp::process_node(
                ws,
                k,
                tree.weight(v),
                nearly_mode,
                true,
                &mut plan,
                stats.as_deref_mut(),
            );
        }
        plans[sid] = Some(plan);
    }

    dp::extract_with(
        tree,
        |v| {
            plans[dag.id(v) as usize]
                .as_ref()
                .expect("every shape resolved")
        },
        out,
    );

    if let Some(st) = stats {
        st.dag_nodes += dag.len() as u64;
        st.dag_distinct += dag.distinct() as u64;
        st.dag_hits += (dag.len() - dag.distinct()) as u64;
        st.bytes_allocated = ws.bytes();
    }
    Ok(())
}

/// Run cached DHW while collecting [`DpStats`] (cache hit rates, dedup
/// ratio, dominance-pruning counters; see the `memoization` and `dp_speed`
/// bench binaries and `natix partition --stats`).
pub fn dhw_cached_with_statistics(
    tree: &Tree,
    k: Weight,
) -> Result<(Partitioning, DpStats), PartitionError> {
    cached_with_statistics(tree, k, true)
}

/// Run cached GHDW while collecting [`DpStats`].
pub fn ghdw_cached_with_statistics(
    tree: &Tree,
    k: Weight,
) -> Result<(Partitioning, DpStats), PartitionError> {
    cached_with_statistics(tree, k, false)
}

fn cached_with_statistics(
    tree: &Tree,
    k: Weight,
    nearly_mode: bool,
) -> Result<(Partitioning, DpStats), PartitionError> {
    let mut stats = DpStats::default();
    let mut out = Partitioning::new();
    partition_dag_into(
        tree,
        k,
        nearly_mode,
        &mut DpWorkspace::new(),
        Some(&mut stats),
        &mut out,
    )?;
    Ok((out, stats))
}

fn partition_cached(
    tree: &Tree,
    k: Weight,
    nearly_mode: bool,
) -> Result<Partitioning, PartitionError> {
    let mut out = Partitioning::new();
    partition_dag_into(
        tree,
        k,
        nearly_mode,
        &mut DpWorkspace::new(),
        None,
        &mut out,
    )?;
    Ok(out)
}

/// [`crate::Dhw`] on the structure-sharing engine: optimal tree sibling
/// partitioning with one DP run per distinct weighted subtree shape and
/// dominance-pruned rows. Output is byte-identical to plain DHW.
#[derive(Debug, Clone, Copy, Default)]
pub struct CachedDhw;

impl Partitioner for CachedDhw {
    fn name(&self) -> &'static str {
        "DHW-C"
    }

    fn partition(&self, tree: &Tree, k: Weight) -> Result<Partitioning, PartitionError> {
        partition_cached(tree, k, true)
    }

    fn is_main_memory_friendly(&self) -> bool {
        false
    }
}

/// [`crate::Ghdw`] on the structure-sharing engine; output is
/// byte-identical to plain GHDW.
#[derive(Debug, Clone, Copy, Default)]
pub struct CachedGhdw;

impl Partitioner for CachedGhdw {
    fn name(&self) -> &'static str {
        "GHDW-C"
    }

    fn partition(&self, tree: &Tree, k: Weight) -> Result<Partitioning, PartitionError> {
        partition_cached(tree, k, false)
    }

    fn is_main_memory_friendly(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dhw, Fdw, Ghdw};
    use natix_tree::{parse_spec, validate, TreeBuilder};
    use proptest::prelude::*;

    #[test]
    fn dag_collapses_repeated_shapes() {
        // Three identical row subtrees + one odd one out.
        let t = parse_spec("r:1(a:1(x:2 y:3) b:1(x:2 y:3) c:1(x:2 y:3) d:1(x:2 y:4))").unwrap();
        let dag = SubtreeDag::build(&t);
        assert_eq!(dag.len(), 13);
        // Shapes: root, row(2,3), row(2,4), leaf2, leaf3, leaf4.
        assert_eq!(dag.distinct(), 6);
        let rows = t.children(t.root());
        assert_eq!(dag.id(rows[0]), dag.id(rows[1]));
        assert_eq!(dag.id(rows[0]), dag.id(rows[2]));
        assert_ne!(dag.id(rows[0]), dag.id(rows[3]));
    }

    #[test]
    fn labels_do_not_affect_sharing() {
        let t = parse_spec("r:1(a:2 completely_different_label:2)").unwrap();
        let dag = SubtreeDag::build(&t);
        let cs = t.children(t.root());
        assert_eq!(dag.id(cs[0]), dag.id(cs[1]));
    }

    #[test]
    fn sibling_order_matters() {
        let t = parse_spec("r:1(a:1(x:2 y:3) b:1(x:3 y:2))").unwrap();
        let dag = SubtreeDag::build(&t);
        let cs = t.children(t.root());
        assert_ne!(dag.id(cs[0]), dag.id(cs[1]), "child order is significant");
    }

    /// Random tree from `(parent_selector, weight)` pairs: node `i`'s
    /// parent is `parent_selector % i`.
    fn build_tree(root_weight: Weight, nodes: &[(u32, Weight)]) -> Tree {
        let mut b = TreeBuilder::new("n0", root_weight).unwrap();
        let mut ids = vec![NodeId::ROOT];
        for (i, &(psel, w)) in nodes.iter().enumerate() {
            let parent = ids[(psel as usize) % (i + 1)];
            ids.push(b.add_child(parent, &format!("n{}", i + 1), w).unwrap());
        }
        b.build()
    }

    /// Label-free weighted subtree equality by direct recursion; child
    /// order matters.
    fn same_shape(t: &Tree, u: NodeId, v: NodeId) -> bool {
        let (cu, cv) = (t.children(u), t.children(v));
        t.weight(u) == t.weight(v)
            && cu.len() == cv.len()
            && cu.iter().zip(cv).all(|(&a, &b)| same_shape(t, a, b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Interning is exact: on random trees with two weights (so many
        /// subtrees coincide), two nodes share a shape id exactly when
        /// their weighted subtrees are structurally equal.
        #[test]
        fn interning_is_exact(
            root_weight in 1..=2u64,
            nodes in prop::collection::vec((any::<u32>(), 1..=2u64), 0..40),
        ) {
            let t = build_tree(root_weight, &nodes);
            let dag = SubtreeDag::build(&t);
            for u in t.node_ids() {
                for v in t.node_ids() {
                    prop_assert_eq!(
                        dag.id(u) == dag.id(v),
                        same_shape(&t, u, v),
                        "tree={} u={} v={}", t, u, v
                    );
                }
            }
        }
    }

    #[test]
    fn cached_engines_match_plain_engines() {
        let specs = [
            "a:5(b:1 c:1(d:2 e:2) f:1)",
            "a:3(b:2 c:2 d:2 e:2 f:2)",
            "a:1(b:4 c:4 d:1)",
            "r:1(a:1(x:2 y:3) b:1(x:2 y:3) c:1(x:2 y:3))",
        ];
        for spec in specs {
            let t = parse_spec(spec).unwrap();
            for k in [5u64, 8, 9, 16, 64] {
                if t.max_node_weight() > k {
                    continue;
                }
                let d = Dhw.partition(&t, k).unwrap();
                let dc = CachedDhw.partition(&t, k).unwrap();
                assert_eq!(d.intervals, dc.intervals, "DHW {spec} K={k}");
                let g = Ghdw.partition(&t, k).unwrap();
                let gc = CachedGhdw.partition(&t, k).unwrap();
                assert_eq!(g.intervals, gc.intervals, "GHDW {spec} K={k}");
            }
        }
    }

    /// On flat trees the cached engine emits FDW's optimal interval chain:
    /// leaves dedup to one shape per weight, so the root's DP runs over a
    /// handful of distinct child summaries.
    #[test]
    fn cached_fdw_matches_fdw_exactly() {
        let specs = [
            "a:3(b:2 c:2 d:2 e:2 f:2)",
            "a:1(b:1 c:2 d:3 e:4 f:5 g:1 h:1)",
            "a:2(b:1 c:1 d:1 e:1 f:1 g:1 h:1 i:1 j:1)",
            "a:4",
        ];
        for spec in specs {
            let t = parse_spec(spec).unwrap();
            for k in [5u64, 7, 10, 20] {
                if t.max_node_weight() > k {
                    continue;
                }
                let pf = Fdw.partition(&t, k).unwrap();
                let pc = CachedDhw.partition(&t, k).unwrap();
                assert_eq!(pf.intervals, pc.intervals, "{spec} K={k}");
            }
        }
    }

    #[test]
    fn statistics_report_sharing() {
        let t = parse_spec("r:1(a:1(x:2 y:3) b:1(x:2 y:3) c:1(x:2 y:3) d:1(x:2 y:3))").unwrap();
        let (p, stats) = dhw_cached_with_statistics(&t, 8).unwrap();
        validate(&t, 8, &p).unwrap();
        // Shapes: root, row(2,3), leaf-2, leaf-3.
        assert_eq!(stats.dag_nodes, 13);
        assert_eq!(stats.dag_distinct, 4);
        assert_eq!(stats.dag_hits, 13 - 4);
        assert!(stats.dag_dedup_ratio() > 2.5);
        assert!(stats.dag_hit_rate() > 0.6);
        // Only distinct inner shapes run the DP: root + one row shape.
        assert_eq!(stats.inner_nodes, 2);
    }
}
