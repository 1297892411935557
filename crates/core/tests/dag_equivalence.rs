//! Corpus-level differential tests for the structure-sharing engine.
//!
//! The property suite covers random trees; this suite runs the DAG-cached
//! engines against the plain engine, the parallel scheduler, and the
//! pre-arena `natix_core::baseline` oracle over every `natix-datagen`
//! generator — both structural regimes (flat relational tables, nested
//! hierarchies) at several weight limits — asserting **exact interval
//! equality**, not merely equal cardinality.

use natix_core::{
    baseline, check_input, dhw_cached_with_statistics, CachedDhw, CachedGhdw, Dhw, Ghdw,
    ParallelDhw, ParallelGhdw, Partitioner,
};
use natix_tree::validate;

const SCALE: f64 = 0.004;
const SEED: u64 = 1337;

#[test]
fn cached_engines_match_plain_on_every_generator() {
    for (name, doc) in natix_datagen::evaluation_suite(SCALE, SEED) {
        let tree = doc.tree();
        // Random-ish but deterministic limits straddling the document's
        // weight profile, skipping infeasible ones.
        for k in [32u64, 100, 256] {
            if check_input(tree, k).is_err() {
                continue;
            }
            let plain_d = Dhw.partition(tree, k).unwrap();
            let cached_d = CachedDhw.partition(tree, k).unwrap();
            assert_eq!(
                cached_d.intervals, plain_d.intervals,
                "DHW diverged on {name} K={k}"
            );
            validate(tree, k, &cached_d).unwrap();

            let plain_g = Ghdw.partition(tree, k).unwrap();
            let cached_g = CachedGhdw.partition(tree, k).unwrap();
            assert_eq!(
                cached_g.intervals, plain_g.intervals,
                "GHDW diverged on {name} K={k}"
            );
        }
    }
}

#[test]
fn cached_matches_hashmap_baseline_on_relational_data() {
    // The baseline oracle is slow; exercise it on the two flat relational
    // documents where structure sharing is strongest.
    for (name, doc) in natix_datagen::evaluation_suite(SCALE, SEED) {
        if name != "partsupp.xml" && name != "orders.xml" {
            continue;
        }
        let tree = doc.tree();
        let k = 256;
        let base = baseline::dhw_hashmap(tree, k).unwrap();
        let cached = CachedDhw.partition(tree, k).unwrap();
        assert_eq!(
            cached.intervals, base.intervals,
            "DHW cached vs baseline diverged on {name}"
        );
        // Relational data must actually dedup: rows share shapes.
        let (_, stats) = dhw_cached_with_statistics(tree, k).unwrap();
        assert!(
            stats.dag_distinct * 2 < stats.dag_nodes,
            "{name}: expected >2x structure sharing, got {} distinct of {} nodes",
            stats.dag_distinct,
            stats.dag_nodes
        );
        assert!(stats.dag_hit_rate() > 0.5, "{name}: weak hit rate");
    }
}

#[test]
fn parallel_cached_matches_sequential_on_every_generator() {
    for (name, doc) in natix_datagen::evaluation_suite(SCALE, SEED) {
        let tree = doc.tree();
        let k = 200;
        if check_input(tree, k).is_err() {
            continue;
        }
        let seq = Dhw.partition(tree, k).unwrap();
        for threads in [2usize, 4] {
            // Force multi-job schedules even at tiny scale.
            let par = ParallelDhw {
                threads,
                job_target: Some(tree.len() / 7 + 1),
                dag_cache: true,
            };
            let p = par.partition(tree, k).unwrap();
            assert_eq!(
                p.intervals, seq.intervals,
                "parallel cached DHW diverged on {name} threads={threads}"
            );
            let par_g = ParallelGhdw {
                threads,
                job_target: Some(tree.len() / 7 + 1),
                dag_cache: true,
            };
            let seq_g = Ghdw.partition(tree, k).unwrap();
            let pg = par_g.partition(tree, k).unwrap();
            assert_eq!(
                pg.intervals, seq_g.intervals,
                "parallel cached GHDW diverged on {name} threads={threads}"
            );
        }
    }
}
