//! Parallel GHDW/DHW: bottom-up table construction on scoped worker
//! threads.
//!
//! The per-node DP of `crate::dp` depends only on the node's weight and the
//! collapsed summaries (`rootweight`, `ΔW`) of its children, so disjoint
//! subtrees can be processed completely independently. The scheduler cuts
//! the tree into **jobs** — maximal subtrees whose size does not exceed a
//! cutoff — and runs them on `std::thread::scope` workers (no external
//! thread-pool dependency) pulling job indices from an atomic counter. The
//! **residual** top of the tree (every node not inside a job subtree) is
//! then finished sequentially, reading the merged per-node plans.
//!
//! ## Cutoff rule
//!
//! The job-size target is `max(64, n / (threads × 8))`: small enough to
//! produce several jobs per worker (load balancing when subtree shapes are
//! skewed), large enough that per-job overhead (workspace warm-up, the
//! final merge) stays negligible. [`ParallelDhw::job_target`] overrides the
//! heuristic, which the equivalence property tests use to force multi-job
//! schedules on small random trees.
//!
//! ## Structure sharing
//!
//! With [`ParallelDhw::dag_cache`] enabled (the default) the scheduler
//! composes with the [`crate::dag`] engine: the minimal subtree DAG is
//! built once up front, each worker keeps a **per-worker shape cache**
//! (`Vec<Option<NodePlan>>` indexed by DAG shape id, persisting across its
//! jobs), and the merge is first-wins per shape. Because a [`NodePlan`] is
//! a pure function of `(weighted subtree shape, K, mode)`, two workers that
//! both compute a shape produce identical plans, so first-wins is
//! value-deterministic regardless of scheduling order. The residual pass
//! then only runs the DP for shapes no job resolved.
//!
//! ## Determinism
//!
//! Parallel output is **byte-identical** to sequential output (the same
//! interval list, not merely the same cardinality): every node's plan is a
//! pure function of its children's plans, the scheduler only changes *who*
//! computes a plan — each node is computed exactly once, after its children
//! — and the final top-down extraction runs over the same merged plan array
//! the sequential driver would produce. The property suite asserts raw
//! interval-vector equality across thread counts, with the cache on and
//! off.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use natix_tree::{NodeId, Partitioning, Tree, Weight};

use crate::dag::SubtreeDag;
use crate::dp::{self, ChildStats, DpWorkspace, NodePlan};
use crate::{check_input, PartitionError, Partitioner};

/// Smallest job-size target the heuristic will pick.
const MIN_JOB: usize = 64;
/// Aim for roughly this many jobs per worker thread.
const JOBS_PER_THREAD: usize = 8;
/// Trees smaller than this run sequentially (unless a job target forces
/// the scheduler), since thread startup would dominate.
const SEQUENTIAL_CUTOFF: usize = 4096;

/// Worker threads to use by default: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn partition_parallel(
    tree: &Tree,
    k: Weight,
    nearly_mode: bool,
    threads: usize,
    job_target: Option<usize>,
    dag_cache: bool,
) -> Result<Partitioning, PartitionError> {
    check_input(tree, k)?;
    let n = tree.len();
    let threads = threads.max(1);
    if threads == 1 || (n < SEQUENTIAL_CUTOFF && job_target.is_none()) {
        let mut out = Partitioning::new();
        let mut ws = DpWorkspace::new();
        if dag_cache {
            crate::dag::partition_dag_into(tree, k, nearly_mode, &mut ws, None, &mut out)?;
        } else {
            dp::partition_dp_into(tree, k, nearly_mode, &mut ws, None, &mut out)?;
        }
        return Ok(out);
    }

    // Subtree sizes by reverse-id scan: every child id is larger than its
    // parent's, so visiting ids in decreasing order sees children first.
    let mut size = vec![1u32; n];
    for i in (1..n).rev() {
        if let Some(p) = tree.parent(NodeId::from_index(i)) {
            size[p.index()] += size[i];
        }
    }

    // Jobs: maximal subtrees of size <= target (preorder; don't descend
    // into a chosen job).
    let target = job_target
        .unwrap_or((n / (threads * JOBS_PER_THREAD)).max(MIN_JOB))
        .max(1);
    let mut jobs: Vec<NodeId> = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(v) = stack.pop() {
        if size[v.index()] as usize <= target {
            jobs.push(v);
        } else {
            stack.extend(tree.children(v).iter().copied());
        }
    }

    let worker_count = threads.min(jobs.len());
    let next = AtomicUsize::new(0);

    if dag_cache {
        let dag = SubtreeDag::build(tree);
        let dag = &dag;
        let results: Vec<Vec<(u32, NodePlan)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..worker_count)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ws = DpWorkspace::new();
                        let mut scratch: Vec<NodeId> = Vec::new();
                        // Per-worker shape cache, persistent across jobs.
                        let mut local: Vec<Option<NodePlan>> = vec![None; dag.distinct()];
                        let mut out: Vec<(u32, NodePlan)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs.len() {
                                break;
                            }
                            run_job_cached(
                                tree,
                                k,
                                nearly_mode,
                                jobs[i],
                                dag,
                                &mut ws,
                                &mut scratch,
                                &mut local,
                                &mut out,
                            );
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("partitioning worker panicked"))
                .collect()
        });

        // First-wins merge per shape: plans are pure per shape, so any
        // worker's copy is THE plan for that shape.
        let mut run_plans: Vec<Option<NodePlan>> = vec![None; dag.distinct()];
        for batch in results {
            for (sid, plan) in batch {
                let slot = &mut run_plans[sid as usize];
                if slot.is_none() {
                    *slot = Some(plan);
                }
            }
        }
        // Residual: shapes no job resolved (the top of the tree, plus any
        // shape that only occurs there).
        let mut ws = DpWorkspace::new();
        for v in tree.postorder() {
            let sid = dag.id(v) as usize;
            if run_plans[sid].is_some() {
                continue;
            }
            let children = tree.children(v);
            let mut plan = NodePlan::default();
            if children.is_empty() {
                plan.set_leaf(tree.weight(v));
            } else {
                ws.set_children(children.iter().map(|c| {
                    let p = run_plans[dag.id(*c) as usize]
                        .as_ref()
                        .expect("children precede parents in postorder");
                    ChildStats {
                        rw: p.rw_opt,
                        dw: p.dw,
                    }
                }));
                dp::process_node(
                    &mut ws,
                    k,
                    tree.weight(v),
                    nearly_mode,
                    true,
                    &mut plan,
                    None,
                );
            }
            run_plans[sid] = Some(plan);
        }

        let mut out = Partitioning::new();
        dp::extract_with(
            tree,
            |v| {
                run_plans[dag.id(v) as usize]
                    .as_ref()
                    .expect("every shape resolved")
            },
            &mut out,
        );
        return Ok(out);
    }

    let results: Vec<Vec<(u32, NodePlan)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..worker_count)
            .map(|_| {
                scope.spawn(|| {
                    let mut ws = DpWorkspace::new();
                    let mut scratch: Vec<NodeId> = Vec::new();
                    let mut out: Vec<(u32, NodePlan)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        run_job(
                            tree,
                            k,
                            nearly_mode,
                            jobs[i],
                            &mut ws,
                            &mut scratch,
                            &mut out,
                        );
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partitioning worker panicked"))
            .collect()
    });

    // Merge worker plans, then finish the residual top tree sequentially.
    let mut plans: Vec<NodePlan> = Vec::with_capacity(n);
    plans.resize_with(n, NodePlan::default);
    let mut done = vec![false; n];
    for batch in results {
        for (i, plan) in batch {
            done[i as usize] = true;
            plans[i as usize] = plan;
        }
    }
    let mut ws = DpWorkspace::new();
    for v in tree.postorder() {
        if done[v.index()] {
            continue;
        }
        let w_v = tree.weight(v);
        let children = tree.children(v);
        if children.is_empty() {
            plans[v.index()].set_leaf(w_v);
            continue;
        }
        ws.set_children(children.iter().map(|c| {
            let p = &plans[c.index()];
            ChildStats {
                rw: p.rw_opt,
                dw: p.dw,
            }
        }));
        let mut plan = std::mem::take(&mut plans[v.index()]);
        dp::process_node(&mut ws, k, w_v, nearly_mode, false, &mut plan, None);
        plans[v.index()] = plan;
    }

    let mut out = Partitioning::new();
    dp::extract_into(tree, &plans, &mut out);
    Ok(out)
}

/// Process one job: the whole subtree under `root`, bottom-up, appending
/// `(node index, plan)` pairs to `out`.
fn run_job(
    tree: &Tree,
    k: Weight,
    nearly_mode: bool,
    root: NodeId,
    ws: &mut DpWorkspace,
    scratch: &mut Vec<NodeId>,
    out: &mut Vec<(u32, NodePlan)>,
) {
    scratch.clear();
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        scratch.push(v);
        stack.extend(tree.children(v).iter().copied());
    }
    // Child ids exceed parent ids, so descending id order is a valid
    // bottom-up schedule within the subtree.
    scratch.sort_unstable_by_key(|v| std::cmp::Reverse(v.index()));

    let mut local: HashMap<usize, NodePlan> = HashMap::with_capacity(scratch.len());
    for &v in scratch.iter() {
        let w_v = tree.weight(v);
        let children = tree.children(v);
        let mut plan = NodePlan::default();
        if children.is_empty() {
            plan.set_leaf(w_v);
        } else {
            ws.set_children(children.iter().map(|c| {
                let p = &local[&c.index()];
                ChildStats {
                    rw: p.rw_opt,
                    dw: p.dw,
                }
            }));
            dp::process_node(ws, k, w_v, nearly_mode, false, &mut plan, None);
        }
        local.insert(v.index(), plan);
    }
    out.extend(local.into_iter().map(|(i, p)| (i as u32, p)));
}

/// Process one job with structure sharing: one DP run per distinct shape in
/// the subtree that this worker has not already resolved, appending
/// `(shape id, plan)` pairs to `out`.
#[allow(clippy::too_many_arguments)]
fn run_job_cached(
    tree: &Tree,
    k: Weight,
    nearly_mode: bool,
    root: NodeId,
    dag: &SubtreeDag,
    ws: &mut DpWorkspace,
    scratch: &mut Vec<NodeId>,
    local: &mut [Option<NodePlan>],
    out: &mut Vec<(u32, NodePlan)>,
) {
    scratch.clear();
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        scratch.push(v);
        stack.extend(tree.children(v).iter().copied());
    }
    // Child ids exceed parent ids, so descending id order is a valid
    // bottom-up schedule within the subtree.
    scratch.sort_unstable_by_key(|v| std::cmp::Reverse(v.index()));

    for &v in scratch.iter() {
        let sid = dag.id(v) as usize;
        if local[sid].is_some() {
            continue;
        }
        let children = tree.children(v);
        let mut plan = NodePlan::default();
        if children.is_empty() {
            plan.set_leaf(tree.weight(v));
        } else {
            ws.set_children(children.iter().map(|c| {
                let p = local[dag.id(*c) as usize]
                    .as_ref()
                    .expect("children precede parents within a job");
                ChildStats {
                    rw: p.rw_opt,
                    dw: p.dw,
                }
            }));
            dp::process_node(ws, k, tree.weight(v), nearly_mode, true, &mut plan, None);
        }
        local[sid] = Some(plan.clone());
        out.push((sid as u32, plan));
    }
}

/// Parallel [`crate::Dhw`]: optimal tree sibling partitioning with the DP
/// tables of independent subtrees built on worker threads. Output is
/// byte-identical to sequential DHW.
#[derive(Debug, Clone, Copy)]
pub struct ParallelDhw {
    /// Worker thread count (1 = sequential).
    pub threads: usize,
    /// Job-size cutoff override; `None` uses the documented heuristic.
    /// Mainly for tests that need multi-job schedules on small trees.
    pub job_target: Option<usize>,
    /// Compose with the structure-sharing engine (per-worker shape caches
    /// over the minimal subtree DAG; see the module docs). On by default;
    /// `false` is the plain per-node engine.
    pub dag_cache: bool,
}

impl ParallelDhw {
    /// Parallel DHW with the heuristic job cutoff and structure sharing.
    pub fn new(threads: usize) -> ParallelDhw {
        ParallelDhw {
            threads,
            job_target: None,
            dag_cache: true,
        }
    }

    /// Parallel DHW with structure sharing disabled.
    pub fn without_dag_cache(threads: usize) -> ParallelDhw {
        ParallelDhw {
            dag_cache: false,
            ..ParallelDhw::new(threads)
        }
    }
}

impl Default for ParallelDhw {
    fn default() -> Self {
        ParallelDhw::new(default_threads())
    }
}

impl Partitioner for ParallelDhw {
    fn name(&self) -> &'static str {
        "DHW-P"
    }

    fn partition(&self, tree: &Tree, k: Weight) -> Result<Partitioning, PartitionError> {
        partition_parallel(tree, k, true, self.threads, self.job_target, self.dag_cache)
    }

    fn is_main_memory_friendly(&self) -> bool {
        false
    }
}

/// Parallel [`crate::Ghdw`]; output is byte-identical to sequential GHDW.
#[derive(Debug, Clone, Copy)]
pub struct ParallelGhdw {
    /// Worker thread count (1 = sequential).
    pub threads: usize,
    /// Job-size cutoff override; `None` uses the documented heuristic.
    pub job_target: Option<usize>,
    /// Compose with the structure-sharing engine; see [`ParallelDhw`].
    pub dag_cache: bool,
}

impl ParallelGhdw {
    /// Parallel GHDW with the heuristic job cutoff and structure sharing.
    pub fn new(threads: usize) -> ParallelGhdw {
        ParallelGhdw {
            threads,
            job_target: None,
            dag_cache: true,
        }
    }

    /// Parallel GHDW with structure sharing disabled.
    pub fn without_dag_cache(threads: usize) -> ParallelGhdw {
        ParallelGhdw {
            dag_cache: false,
            ..ParallelGhdw::new(threads)
        }
    }
}

impl Default for ParallelGhdw {
    fn default() -> Self {
        ParallelGhdw::new(default_threads())
    }
}

impl Partitioner for ParallelGhdw {
    fn name(&self) -> &'static str {
        "GHDW-P"
    }

    fn partition(&self, tree: &Tree, k: Weight) -> Result<Partitioning, PartitionError> {
        partition_parallel(
            tree,
            k,
            false,
            self.threads,
            self.job_target,
            self.dag_cache,
        )
    }

    fn is_main_memory_friendly(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dhw, Ghdw};
    use natix_tree::{parse_spec, validate};

    fn nested_spec(groups: usize, leaves: usize) -> String {
        let mut spec = String::from("root:1(");
        for g in 0..groups {
            spec.push_str(&format!("g{g}:2("));
            for l in 0..leaves {
                spec.push_str(&format!("x{g}_{l}:{} ", l % 5 + 1));
            }
            spec.push_str(") ");
        }
        spec.push(')');
        spec
    }

    #[test]
    fn parallel_identical_to_sequential_with_forced_jobs() {
        let t = parse_spec(&nested_spec(20, 7)).unwrap();
        let seq_d = Dhw.partition(&t, 16).unwrap();
        let seq_g = Ghdw.partition(&t, 16).unwrap();
        for threads in 1..=4 {
            for job_target in [1usize, 4, 16, 1000] {
                for dag_cache in [false, true] {
                    let par_d = ParallelDhw {
                        threads,
                        job_target: Some(job_target),
                        dag_cache,
                    };
                    let par_g = ParallelGhdw {
                        threads,
                        job_target: Some(job_target),
                        dag_cache,
                    };
                    let pd = par_d.partition(&t, 16).unwrap();
                    let pg = par_g.partition(&t, 16).unwrap();
                    assert_eq!(
                        pd.intervals, seq_d.intervals,
                        "DHW t={threads} target={job_target} cache={dag_cache}"
                    );
                    assert_eq!(
                        pg.intervals, seq_g.intervals,
                        "GHDW t={threads} target={job_target} cache={dag_cache}"
                    );
                }
            }
        }
    }

    #[test]
    fn heuristic_path_on_larger_tree() {
        let t = parse_spec(&nested_spec(700, 8)).unwrap();
        assert!(t.len() >= SEQUENTIAL_CUTOFF);
        let seq = Dhw.partition(&t, 24).unwrap();
        let par = ParallelDhw::new(4).partition(&t, 24).unwrap();
        assert_eq!(par.intervals, seq.intervals);
        validate(&t, 24, &par).unwrap();
        let plain = ParallelDhw::without_dag_cache(4).partition(&t, 24).unwrap();
        assert_eq!(plain.intervals, seq.intervals);
    }

    #[test]
    fn single_node_and_errors() {
        let t = parse_spec("a:7").unwrap();
        let p = ParallelDhw::new(4).partition(&t, 7).unwrap();
        assert_eq!(p.cardinality(), 1);
        let heavy = parse_spec("a:1(b:9)").unwrap();
        assert!(ParallelDhw::new(4).partition(&heavy, 5).is_err());
        assert!(ParallelGhdw::new(4).partition(&heavy, 5).is_err());
    }
}
