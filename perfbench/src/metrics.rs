//! The benchmark's definition: workloads and metrics, with units,
//! direction and regression bounds. `BENCHMARK.json` at the repository
//! root is [`describe`]'s output, and a test keeps the two equal.

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "query",
        why: "XPathMark Q1-Q7 over the wire on XMark 0.2, pool a third of the store: \
              navigation, record decoding and the pool work; partitioners and commit path idle",
    },
    Workload {
        name: "update",
        why: "paired append/delete commits under 256 persons beside pinned-session reads, pool \
              larger than the store: journal, sync, flip, deferred checkpoints, reclamation",
    },
    Workload {
        name: "bulkload",
        why: "20k small docs (~140 MB XML) through bulkload_collection on 4 shards, 2 loader \
              threads, 512-page pools: SAX, streaming EKM, placement, segment commits",
    },
    Workload {
        name: "partition",
        why: "natix partition --alg dhw|ghdw --k 256 on XMark 0.1 (little shape sharing) and \
              partsupp 0.05 (heavy sharing): the DP engine and shape cache only",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Metrics every workload reports; see the README for what an
/// operation is on each workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "partitions",
        unit: "records",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// Metrics the traced run reports. A metric of a layer a workload does
/// not exercise reads 0 on that workload.
pub const PER_LAYER: &[PerLayer] = &[
    lower("server.self_us", "us"),
    lower("server.shed_frac", "ratio"),
    lower("server.proto_errors", "count"),
    lower("xpath.parse_us", "us"),
    lower("xpath.eval_self_us", "us"),
    lower("store.nav_us", "us"),
    lower("store.record_switches", "count/req"),
    lower("store.record_decodes", "count/req"),
    higher("store.record_cache_hit_rate", "ratio"),
    lower("store.render_us", "us"),
    lower("store.stored_bytes_per_input_byte", "ratio"),
    lower("concurrent.begin_read_us", "us"),
    lower("concurrent.mutate_us", "us"),
    lower("concurrent.checkpoints_deferred_frac", "ratio"),
    lower("concurrent.reclaim_blocked_frac", "ratio"),
    higher("pager.pool_hit_rate", "ratio"),
    lower("pager.evictions_per_req", "count/req"),
    lower("pager.backend_reads_per_req", "count/req"),
    lower("pager.backend_read_us", "us"),
    lower("pager.backend_writes_per_commit", "count"),
    lower("pager.write_bytes_per_user_byte", "ratio"),
    lower("pager.syncs_per_commit", "count"),
    lower("pager.sync_us", "us"),
    lower("xml.sax_us_per_doc", "us"),
    lower("core.ekm_us_per_doc", "us"),
    lower("collection.self_us_per_doc", "us"),
    lower("collection.records_per_doc", "count"),
    lower("collection.syncs_per_segment", "count"),
    lower("collection.loader_resident_kb", "KB"),
    lower("xml.parse_ms", "ms"),
    lower("core.dhw_ms", "ms"),
    lower("core.ghdw_ms", "ms"),
    lower("cli.self_ms", "ms"),
    higher("core.dag_hit_rate", "ratio"),
    lower("core.dp_cells", "count"),
    higher("core.pruned_candidates", "count"),
    lower("core.workspace_kb", "KB"),
    lower("trace.overhead_pct", "%"),
];

/// The `BENCHMARK.json` document.
pub fn describe() -> String {
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
