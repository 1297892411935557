//! **Ablation A3**: effectiveness of the DP-table memoization
//! (paper Sec. 3.3.6: "measurements for a 20 MB sample document and
//! K = 256 show that on average, less than 4 of the potential 256 values
//! for s actually occur for inner nodes").
//!
//! ```text
//! cargo run -p natix-bench --release --bin memoization [--scale 0.05]
//! ```
//!
//! Besides cell counts, the table reports the memory side of the arena
//! refactor (peak workspace bytes of the flat-arena engine versus the heap
//! bytes the old `HashMap<s, Vec<Entry>>`-per-node layout would allocate —
//! an undercount, see `natix_core::baseline::hashmap_bytes_estimate`) and
//! the structure-sharing engine of `natix_core::CachedDhw`: distinct
//! weighted subtree shapes, nodes-per-shape dedup ratio, shape-cache
//! hit rate, and the dominance-pruning counters. The cached run's output
//! is asserted identical to the uncached run on every generator.

use natix_bench::json_row;
use natix_bench::{natix_core, natix_datagen, write_json, Args, Table};
use natix_core::{baseline, dhw_cached_with_statistics, dhw_with_statistics};

json_row! {
    struct Row {
        document: String,
        inner_nodes: u64,
        avg_s_values: f64,
        max_s_values: usize,
        table_cells: u64,
        full_table_cells: u64,
        arena_cells: u64,
        arena_peak_bytes: u64,
        hashmap_bytes_estimate: u64,
        dag_distinct_fingerprints: u64,
        dag_dedup_ratio: f64,
        dag_hit_rate: f64,
        cached_table_cells: u64,
        cached_inner_nodes: u64,
        pruned_candidates: u64,
        pruned_scans: u64,
    }
}

fn main() {
    let args = Args::parse();
    let mut table = Table::new(&[
        "Document",
        "Inner nodes",
        "avg s/node",
        "cells used",
        "cells full table",
        "saved",
        "arena KB",
        "hashmap KB",
        "shapes",
        "dedup",
        "hit",
        "cached cells",
        "pruned",
    ]);
    let mut results = Vec::new();
    for (name, doc) in natix_datagen::evaluation_suite(args.scale, args.seed) {
        let tree = doc.tree();
        let (plain, stats) = dhw_with_statistics(tree, args.k).expect("feasible");
        let (cached_p, cached) = dhw_cached_with_statistics(tree, args.k).expect("feasible");
        assert_eq!(
            cached_p.intervals, plain.intervals,
            "cached DHW diverged from uncached on {name}"
        );
        // The naive table materializes every s in [w(v), K] for every j.
        let full: u64 = tree
            .node_ids()
            .filter(|&v| tree.child_count(v) > 0)
            .map(|v| {
                let s_range = args.k.saturating_sub(tree.weight(v)) + 1;
                s_range * (tree.child_count(v) as u64 + 1)
            })
            .sum();
        let hashmap_bytes = baseline::hashmap_bytes_estimate(&stats);
        table.row(vec![
            name.to_string(),
            stats.inner_nodes.to_string(),
            format!("{:.2}", stats.avg_rows()),
            stats.total_entries.to_string(),
            full.to_string(),
            format!(
                "{:.1}%",
                100.0 * (1.0 - stats.total_entries as f64 / full as f64)
            ),
            (stats.bytes_allocated / 1024).to_string(),
            (hashmap_bytes / 1024).to_string(),
            cached.dag_distinct.to_string(),
            format!("{:.1}x", cached.dag_dedup_ratio()),
            format!("{:.0}%", cached.dag_hit_rate() * 100.0),
            cached.total_entries.to_string(),
            cached.pruned_candidates.to_string(),
        ]);
        eprintln!(
            "done: {name} (avg {:.2} s values, {} of {} shapes distinct, \
             cached cells {} vs {})",
            stats.avg_rows(),
            cached.dag_distinct,
            cached.dag_nodes,
            cached.total_entries,
            stats.total_entries,
        );
        results.push(Row {
            document: name.to_string(),
            inner_nodes: stats.inner_nodes,
            avg_s_values: stats.avg_rows(),
            max_s_values: stats.max_rows,
            table_cells: stats.total_entries,
            full_table_cells: full,
            arena_cells: stats.arena_entries,
            arena_peak_bytes: stats.bytes_allocated,
            hashmap_bytes_estimate: hashmap_bytes,
            dag_distinct_fingerprints: cached.dag_distinct,
            dag_dedup_ratio: cached.dag_dedup_ratio(),
            dag_hit_rate: cached.dag_hit_rate(),
            cached_table_cells: cached.total_entries,
            cached_inner_nodes: cached.inner_nodes,
            pruned_candidates: cached.pruned_candidates,
            pruned_scans: cached.pruned_scans,
        });
    }
    println!(
        "Ablation: DP-table memoization effectiveness (K = {}, scale = {})\n",
        args.k, args.scale
    );
    println!("{}", table.render());
    println!("Paper Sec. 3.3.6 reference point: < 4 avg s values on a 20 MB document at K = 256.");
    println!(
        "arena KB = peak reusable workspace of the flat-arena DP; hashmap KB = estimated\n\
         heap bytes of the former per-node HashMap row layout for the same run (undercount).\n\
         shapes = distinct weighted subtree shapes (minimal-DAG nodes); dedup = nodes\n\
         per shape; hit = fraction of nodes served from the shape cache; cached cells = DP\n\
         cells the structure-sharing engine actually computed (one run per shape); pruned =\n\
         interval candidates dominance pruning removed from those runs."
    );
    write_json(&args, &results);
}
