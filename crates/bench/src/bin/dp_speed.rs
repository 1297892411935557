//! **DP engine speed**: pre-arena `HashMap` baseline vs the flat-arena
//! engine vs the structure-sharing engine (hash-consed subtree DAG +
//! dominance pruning), plus parallel table construction.
//!
//! ```text
//! cargo run -p natix-bench --release --bin dp_speed [--scale 0.05] [--k 256]
//! cargo run -p natix-bench --release --bin dp_speed -- --quick   # CI smoke
//! ```
//!
//! Measures DHW and GHDW on the two structural regimes of the evaluation
//! suite — the nested `xmark` document and the flat-relational `partsupp`
//! document — reporting:
//!
//! * the `HashMap<s, Vec<Entry>>`-per-node baseline
//!   ([`natix_core::baseline`]) versus the plain arena engine at one
//!   thread (the memory-layout win),
//! * the arena engine versus the DAG-cached engine at one thread (the
//!   structure-sharing + dominance-pruning win; see [`CachedDhw`]),
//!   with distinct-shape counts, dedup ratios, hit rates and pruning
//!   counters, and
//! * [`natix_core::ParallelDhw`] / [`ParallelGhdw`] across a thread sweep
//!   **derived from `available_parallelism`** (powers of two up to the
//!   core count; oversubscribed counts are skipped and recorded in the
//!   JSON, so a 1-CPU container no longer reports meaningless 8-thread
//!   rows).
//!
//! Every cached and parallel run is checked interval-for-interval against
//! the plain sequential partitioning before its time is reported. Results
//! go to `BENCH_dp.json` (override with `--json`).
//!
//! `--quick` is the CI smoke mode wired into `scripts/ci.sh`: tiny scale,
//! one timed run, and deterministic regression gates (cached output must
//! equal uncached everywhere; relational data must dedup and prune; the
//! cached engine must compute strictly fewer DP cells than the uncached
//! one). It exits nonzero on any violation and only writes JSON when
//! `--json` is given explicitly.

use std::time::Duration;

use natix_bench::json_row;
use natix_bench::{
    default_threads, fmt_duration, median_time, natix_core, natix_datagen, natix_tree,
    write_json_to, Args, Table,
};
use natix_core::{
    baseline, dhw_cached_with_statistics, dhw_with_statistics, CachedDhw, CachedGhdw, DpStats,
    ParallelDhw, ParallelGhdw, Partitioner,
};
use natix_datagen::GenConfig;
use natix_tree::{Partitioning, Tree, Weight};

json_row! {
    struct AlgoResult {
        algorithm: String,
        hashmap_baseline_s: f64,
        uncached_1thread_s: f64,
        cached_1thread_s: f64,
        arena_speedup_vs_hashmap: f64,
        cached_speedup_vs_uncached: f64,
        threads: Vec<(String, f64)>,
        parallel_speedup_max_vs_1: f64,
        parallel_identical_to_sequential: bool,
        cached_identical_to_uncached: bool,
        dag_distinct: u64,
        dag_dedup_ratio: f64,
        dag_hit_rate: f64,
        pruned_candidates: u64,
        pruned_scans: u64,
    }
}

json_row! {
    struct DocResult {
        document: String,
        nodes: usize,
        total_weight: u64,
        algorithms: Vec<AlgoResult>,
    }
}

json_row! {
    struct Results {
        k: u64,
        scale: f64,
        seed: u64,
        quick: bool,
        available_parallelism: usize,
        thread_counts: Vec<usize>,
        skipped_oversubscribed: Vec<usize>,
        timing_runs: usize,
        documents: Vec<DocResult>,
    }
}

/// Candidate sweep; counts exceeding `available_parallelism` are skipped
/// (oversubscription measures scheduler noise, not the engine).
const CANDIDATE_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Thread counts actually benchmarked: the powers of two up to the core
/// count, plus the core count itself when it is not a power of two.
fn thread_sweep(cores: usize) -> (Vec<usize>, Vec<usize>) {
    let mut keep: Vec<usize> = CANDIDATE_THREADS
        .iter()
        .copied()
        .filter(|&t| t <= cores)
        .collect();
    if !keep.contains(&cores) {
        keep.push(cores);
    }
    let skipped = CANDIDATE_THREADS
        .iter()
        .copied()
        .filter(|&t| t > cores)
        .collect();
    (keep, skipped)
}

struct BenchCtx<'a> {
    k: Weight,
    runs: usize,
    sweep: &'a [usize],
}

fn bench_algorithm(
    ctx: &BenchCtx<'_>,
    table: &mut Table,
    doc_name: &str,
    tree: &Tree,
    name: &str,
) -> AlgoResult {
    let k = ctx.k;
    let is_dhw = name == "DHW";
    let run_hashmap = |t: &Tree| -> Partitioning {
        if is_dhw {
            baseline::dhw_hashmap(t, k).expect("feasible")
        } else {
            baseline::ghdw_hashmap(t, k).expect("feasible")
        }
    };
    let run_uncached = |t: &Tree, threads: usize| -> Partitioning {
        if is_dhw {
            ParallelDhw::without_dag_cache(threads)
                .partition(t, k)
                .expect("feasible")
        } else {
            ParallelGhdw::without_dag_cache(threads)
                .partition(t, k)
                .expect("feasible")
        }
    };
    let run_cached = |t: &Tree, threads: usize| -> Partitioning {
        if threads == 1 {
            if is_dhw {
                CachedDhw.partition(t, k).expect("feasible")
            } else {
                CachedGhdw.partition(t, k).expect("feasible")
            }
        } else if is_dhw {
            ParallelDhw::new(threads).partition(t, k).expect("feasible")
        } else {
            ParallelGhdw::new(threads)
                .partition(t, k)
                .expect("feasible")
        }
    };

    let hashmap_d = median_time(ctx.runs, || {
        std::hint::black_box(run_hashmap(tree));
    });
    let uncached_d = median_time(ctx.runs, || {
        std::hint::black_box(run_uncached(tree, 1));
    });
    let cached_d = median_time(ctx.runs, || {
        std::hint::black_box(run_cached(tree, 1));
    });
    let reference = run_uncached(tree, 1);
    let cached_identical = run_cached(tree, 1).intervals == reference.intervals;

    let stats = if is_dhw {
        dhw_cached_with_statistics(tree, k).expect("feasible").1
    } else {
        natix_core::ghdw_cached_with_statistics(tree, k)
            .expect("feasible")
            .1
    };

    let mut identical = cached_identical;
    let mut threads_s: Vec<(String, f64)> = Vec::new();
    let mut by_threads: Vec<(usize, Duration)> = Vec::new();
    for &t in ctx.sweep {
        let p = run_cached(tree, t);
        identical &= p.intervals == reference.intervals;
        let d = median_time(ctx.runs, || {
            std::hint::black_box(run_cached(tree, t));
        });
        by_threads.push((t, d));
        threads_s.push((format!("{t}"), d.as_secs_f64()));
        eprintln!("{doc_name}: {name} x{t} threads in {}", fmt_duration(d));
    }
    assert!(identical, "{name} output diverged on {doc_name}");

    let one = by_threads[0].1.as_secs_f64();
    let max_t = by_threads.last().expect("sweep nonempty").1.as_secs_f64();
    let mut cells = vec![
        doc_name.to_string(),
        name.to_string(),
        fmt_duration(hashmap_d),
        fmt_duration(uncached_d),
        fmt_duration(cached_d),
        format!(
            "{:.2}x",
            uncached_d.as_secs_f64() / cached_d.as_secs_f64().max(1e-9)
        ),
        format!("{:.1}x", stats.dag_dedup_ratio()),
        format!("{:.0}%", stats.dag_hit_rate() * 100.0),
        format!("{}", stats.pruned_candidates),
    ];
    cells.extend(by_threads.iter().map(|(_, d)| fmt_duration(*d)));
    cells.push(format!("{:.2}x", one / max_t.max(1e-9)));
    table.row(cells);

    AlgoResult {
        algorithm: name.to_string(),
        hashmap_baseline_s: hashmap_d.as_secs_f64(),
        uncached_1thread_s: uncached_d.as_secs_f64(),
        cached_1thread_s: cached_d.as_secs_f64(),
        arena_speedup_vs_hashmap: hashmap_d.as_secs_f64() / uncached_d.as_secs_f64().max(1e-9),
        cached_speedup_vs_uncached: uncached_d.as_secs_f64() / cached_d.as_secs_f64().max(1e-9),
        threads: threads_s,
        parallel_speedup_max_vs_1: one / max_t.max(1e-9),
        parallel_identical_to_sequential: identical,
        cached_identical_to_uncached: cached_identical,
        dag_distinct: stats.dag_distinct,
        dag_dedup_ratio: stats.dag_dedup_ratio(),
        dag_hit_rate: stats.dag_hit_rate(),
        pruned_candidates: stats.pruned_candidates,
        pruned_scans: stats.pruned_scans,
    }
}

/// Deterministic `--quick` regression gates; wall clocks are noisy in CI,
/// so the perf gate compares DP *cell counts*, which are exact.
fn quick_gates(results: &Results, dhw_work: &[(String, DpStats, DpStats)]) -> Vec<String> {
    let mut failures = Vec::new();
    for doc in &results.documents {
        for alg in &doc.algorithms {
            if !alg.cached_identical_to_uncached {
                failures.push(format!(
                    "{}/{}: cached output differs from uncached",
                    doc.document, alg.algorithm
                ));
            }
            if !alg.parallel_identical_to_sequential {
                failures.push(format!(
                    "{}/{}: parallel output differs from sequential",
                    doc.document, alg.algorithm
                ));
            }
        }
        // Relational data must actually share structure and prune.
        if doc.document == "partsupp.xml" {
            for alg in &doc.algorithms {
                if alg.dag_dedup_ratio < 2.0 {
                    failures.push(format!(
                        "{}/{}: dedup ratio {:.2} < 2.0 — structure sharing regressed",
                        doc.document, alg.algorithm, alg.dag_dedup_ratio
                    ));
                }
                if alg.algorithm == "DHW" && alg.pruned_candidates == 0 {
                    failures.push(format!(
                        "{}/DHW: dominance pruning eliminated no candidates",
                        doc.document
                    ));
                }
            }
        }
    }
    // The cached DHW engine must compute strictly fewer table cells than
    // the uncached one wherever the document shares any structure.
    for (docname, uncached, cached) in dhw_work {
        if cached.dag_distinct < cached.dag_nodes && cached.total_entries >= uncached.total_entries
        {
            failures.push(format!(
                "{docname}: cached DHW computed {} cells, uncached {} — caching regressed",
                cached.total_entries, uncached.total_entries
            ));
        }
    }
    failures
}

fn main() {
    let mut args = Args::parse();
    let quick = args.quick;
    if quick {
        args.scale = args.scale.min(0.02);
    }
    let runs = if quick { 1 } else { 3 };
    let cores = default_threads();
    let (sweep, skipped) = thread_sweep(cores);
    let docs = [
        (
            "xmark0p1.xml",
            natix_datagen::xmark(GenConfig {
                scale: args.scale,
                seed: args.seed.wrapping_add(6),
            }),
        ),
        (
            "partsupp.xml",
            natix_datagen::partsupp(GenConfig {
                scale: args.scale,
                seed: args.seed.wrapping_add(3),
            }),
        ),
    ];

    let mut headers: Vec<String> = [
        "Document", "Algo", "hashmap", "uncached", "cached", "cache-x", "dedup", "hit", "pruned",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    headers.extend(sweep.iter().map(|t| format!("{t}t")));
    headers.push(format!("{}t/1t", sweep.last().unwrap()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    let mut results = Results {
        k: args.k,
        scale: args.scale,
        seed: args.seed,
        quick,
        available_parallelism: cores,
        thread_counts: sweep.clone(),
        skipped_oversubscribed: skipped,
        timing_runs: runs,
        documents: Vec::new(),
    };
    let ctx = BenchCtx {
        k: args.k,
        runs,
        sweep: &sweep,
    };
    let mut dhw_work: Vec<(String, DpStats, DpStats)> = Vec::new();
    for (name, doc) in &docs {
        let tree = doc.tree();
        let mut algorithms = Vec::new();
        for alg in ["DHW", "GHDW"] {
            algorithms.push(bench_algorithm(&ctx, &mut table, name, tree, alg));
        }
        if quick {
            let (_, unc) = dhw_with_statistics(tree, args.k).expect("feasible");
            let (_, cac) = dhw_cached_with_statistics(tree, args.k).expect("feasible");
            dhw_work.push((name.to_string(), unc, cac));
        }
        results.documents.push(DocResult {
            document: name.to_string(),
            nodes: tree.len(),
            total_weight: doc.total_weight(),
            algorithms,
        });
    }

    println!(
        "DP engine speed (K = {}, scale = {}, median of {} run(s), {} core(s) available)\n",
        args.k, args.scale, runs, cores
    );
    println!("{}", table.render());
    println!(
        "uncached = the paper's per-node engine (Dhw/Ghdw); cached = structure-sharing engine\n\
         (hash-consed subtree DAG + dominance pruning); cache-x = uncached/cached at 1 thread.\n\
         dedup = nodes per distinct weighted subtree shape; hit = shape-cache hit rate;\n\
         pruned = interval candidates skipped by dominance pruning.\n\
         Thread sweep {:?} derived from available_parallelism = {} (skipped oversubscribed {:?});\n\
         on a single-core machine the parallel engine degrades gracefully to sequential speed.",
        sweep, cores, results.skipped_oversubscribed
    );
    if cores == 1 {
        eprintln!(
            "\nWARNING: available_parallelism is 1 — the thread sweep collapses to a single\n\
             point and every parallel-speedup column in this report measures scheduling\n\
             overhead, not scaling. Re-run on a multi-core machine (or a container with\n\
             more than one CPU) before citing these numbers."
        );
    }

    if quick {
        let failures = quick_gates(&results, &dhw_work);
        if let Some(path) = &args.json {
            write_json_to(path, &results);
        }
        if failures.is_empty() {
            println!("\n--quick gates: all passed");
        } else {
            eprintln!("\n--quick gates FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    } else {
        let path = args.json.clone().unwrap_or_else(|| "BENCH_dp.json".into());
        write_json_to(&path, &results);
    }
}
