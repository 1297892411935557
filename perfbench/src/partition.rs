//! `partition`: `natix partition --alg dhw|ghdw --k 256` as a child
//! process.
//!
//! Inputs: XMark at scale 0.1 (little shape sharing) and partsupp at
//! scale 0.05 (heavy sharing), written to files before timing. A pass
//! runs both algorithms on both inputs; passes repeat until the run's
//! time is used. Check: every printed partition count equals the library
//! result for the engine the CLI reports, which passes
//! `natix_tree::validate`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use natix_core::{
    dhw_cached_with_statistics, ghdw_cached_with_statistics, CachedDhw, CachedGhdw, Dhw, Ghdw,
    ParallelDhw, ParallelGhdw, Partitioner,
};
use natix_datagen::GenConfig;

use crate::stats::{median, ratio};
use crate::{children_peak_rss_mb, latency_ms, ms, secs, trace, Ctx, Outcome, FAILED};

pub const K: u64 = 256;
pub const ALGS: [&str; 2] = ["dhw", "ghdw"];

/// The engine behind a label `natix partition` prints, built the way the
/// CLI builds it on this host.
pub fn engine(label: &str) -> Option<Box<dyn Partitioner>> {
    let threads = natix_core::parallel::default_threads();
    Some(match label {
        "DHW-P" => Box::new(ParallelDhw {
            threads,
            job_target: None,
            dag_cache: true,
        }),
        "GHDW-P" => Box::new(ParallelGhdw {
            threads,
            job_target: None,
            dag_cache: true,
        }),
        "DHW-C" => Box::new(CachedDhw),
        "GHDW-C" => Box::new(CachedGhdw),
        "DHW" => Box::new(Dhw),
        "GHDW" => Box::new(Ghdw),
        _ => return None,
    })
}

/// What one `natix partition` run printed.
#[derive(Debug, Clone)]
pub struct Printed {
    pub label: String,
    pub partitions: usize,
}

/// Pull the engine label and partition count out of the CLI's report.
pub fn parse_report(stdout: &str) -> Option<Printed> {
    let mut label = None;
    let mut partitions = None;
    for line in stdout.lines() {
        let Some((key, val)) = line.split_once(':') else {
            continue;
        };
        match key.trim() {
            "algorithm" => label = val.split_whitespace().next().map(str::to_string),
            "partitions" => partitions = val.trim().parse().ok(),
            _ => {}
        }
    }
    Some(Printed {
        label: label?,
        partitions: partitions?,
    })
}

/// Run `natix partition <file> --alg <alg> --k 256`; returns what it
/// printed and its wall time in seconds.
fn run_cli(natix: &Path, file: &Path, alg: &str) -> Result<(Printed, f64), String> {
    let t = Instant::now();
    let out = Command::new(natix)
        .arg("partition")
        .arg(file)
        .args(["--alg", alg, "--k", &K.to_string()])
        .output()
        .map_err(|e| format!("{}: {e}", natix.display()))?;
    let s = secs(t);
    if !out.status.success() {
        return Err(format!(
            "natix partition {} --alg {alg}: {}: {}",
            file.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed = parse_report(&stdout).ok_or_else(|| format!("unreadable report: {stdout}"))?;
    Ok((printed, s))
}

struct Input {
    name: &'static str,
    path: PathBuf,
    xml: String,
}

fn inputs(ctx: &Ctx, dir: &Path) -> Result<Vec<Input>, String> {
    let docs = [
        (
            "xmark",
            natix_datagen::xmark(GenConfig {
                scale: 0.1,
                seed: ctx.seed,
            }),
        ),
        (
            "partsupp",
            natix_datagen::partsupp(GenConfig {
                scale: 0.05,
                seed: ctx.seed,
            }),
        ),
    ];
    docs.into_iter()
        .map(|(name, doc)| {
            let xml = doc.to_xml();
            let path = dir.join(format!("{name}.xml"));
            std::fs::write(&path, &xml).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Input { name, path, xml })
        })
        .collect()
}

/// One pass: both algorithms on both inputs.
#[derive(Debug, Default)]
struct Pass {
    /// Seconds per (input, alg) run, in input-major order.
    runs: Vec<f64>,
    printed: Vec<Printed>,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = crate::fresh_dir(ctx, "partition").map_err(|e| e.to_string())?;
    let inputs = inputs(ctx, &dir)?;
    for i in &inputs {
        println!("partition: {} {} bytes XML", i.name, i.xml.len());
    }

    // Set-up: start-up of the partition binary, on a one-node document.
    let tiny = dir.join("tiny.xml");
    std::fs::write(&tiny, "<a/>").map_err(|e| e.to_string())?;
    let mut setups = Vec::new();
    for _ in 0..7 {
        setups.push(run_cli(&ctx.natix, &tiny, "dhw")?.1);
    }
    let setup_s = median(&setups).expect("set-up ran");

    let mut out = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_ms = Vec::new();
    let t = Instant::now();
    while passes.is_empty() || t.elapsed() < ctx.measure_for() {
        let mut pass = Pass::default();
        let mut ok = true;
        for input in &inputs {
            for alg in ALGS {
                out.attempted += 1;
                let _span = trace::span("cli.run");
                match run_cli(&ctx.natix, &input.path, alg) {
                    Ok((p, s)) => {
                        pass.runs.push(s);
                        pass.printed.push(p);
                    }
                    Err(e) => {
                        out.failed += 1;
                        ok = false;
                        out.check(false, || e);
                    }
                }
            }
        }
        pass_ms.push(if ok {
            pass.runs.iter().sum::<f64>() * 1e3
        } else {
            FAILED
        });
        if !ok {
            break;
        }
        passes.push(pass);
    }
    let elapsed = secs(t);

    // Library results for the engines the CLI reported.
    let mut expected = Vec::new();
    let first = &passes.first().ok_or("no pass completed")?.printed;
    let trees: Vec<natix_xml::Document> = inputs
        .iter()
        .map(|i| natix_xml::parse(&i.xml).map_err(|e| format!("{}: {e}", i.name)))
        .collect::<Result<_, _>>()?;
    for (i, doc) in trees.iter().enumerate() {
        for a in 0..ALGS.len() {
            let label = &first[i * ALGS.len() + a].label;
            let alg = engine(label).ok_or_else(|| format!("unknown engine label {label}"))?;
            let p = alg.partition(doc.tree(), K).map_err(|e| e.to_string())?;
            let stats = natix_tree::validate(doc.tree(), K, &p)
                .map_err(|e| format!("{} {label}: invalid partitioning: {e}", inputs[i].name))?;
            expected.push((label.clone(), stats.cardinality));
        }
    }
    for pass in &passes {
        for (p, (label, want)) in pass.printed.iter().zip(&expected) {
            out.check(&p.label == label && p.partitions == *want, || {
                format!(
                    "natix printed {} partitions with {}; library {want} with {label}",
                    p.partitions, p.label
                )
            });
        }
    }

    let per_alg = |a: usize| -> f64 {
        let v: Vec<f64> = passes
            .iter()
            .map(|p| p.runs.iter().skip(a).step_by(ALGS.len()).sum::<f64>() * 1e3)
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let partitions: usize = expected.iter().map(|(_, n)| n).sum();
    let rss = children_peak_rss_mb();
    out.view = vec![
        ("setup_s", setup_s, "s"),
        ("dhw_ms", per_alg(0), "ms"),
        ("ghdw_ms", per_alg(1), "ms"),
        ("partitions", partitions as f64, "records"),
        (
            "error_rate",
            ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        ),
        ("peak_rss_mb", rss, "MB"),
        ("passes", passes.len() as f64, "count"),
    ];
    if !ctx.trace {
        out.values = BTreeMap::from([
            ("setup_s", setup_s),
            ("ops_per_s", passes.len() as f64 / elapsed),
            ("p50_ms", latency_ms(&pass_ms, 50.0)),
            ("partitions", partitions as f64),
            ("peak_rss_mb", rss),
        ]);
        std::fs::remove_dir_all(&dir).ok();
        return Ok(out);
    }

    // In-process: parse and partition with the engines the CLI resolved,
    // once plain and once under spans, a few passes each.
    let engines: Vec<Box<dyn Partitioner>> = expected
        .iter()
        .map(|(label, _)| engine(label).expect("resolved above"))
        .collect();
    let in_process = || -> Result<(f64, f64, f64, f64), String> {
        let (mut parse, mut dhw, mut ghdw) = (0.0, 0.0, 0.0);
        let t = Instant::now();
        for (i, input) in inputs.iter().enumerate() {
            let t1 = Instant::now();
            let doc = {
                let _s = trace::span("xml.parse");
                natix_xml::parse(&input.xml).map_err(|e| e.to_string())?
            };
            parse += ms(t1.elapsed());
            for (a, sink) in [&mut dhw, &mut ghdw].into_iter().enumerate() {
                let t1 = Instant::now();
                let _s = trace::span(["core.dhw", "core.ghdw"][a]);
                let p = engines[i * ALGS.len() + a]
                    .partition(doc.tree(), K)
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(p);
                *sink += ms(t1.elapsed());
            }
        }
        Ok((parse, dhw, ghdw, secs(t)))
    };
    let reps = 3;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..reps {
        plain.push(trace::quiet(in_process)?);
        traced.push(in_process()?);
    }
    let med = |v: &[(f64, f64, f64, f64)], f: fn(&(f64, f64, f64, f64)) -> f64| {
        median(&v.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let parse_ms = med(&traced, |r| r.0);
    let dhw_ms = med(&traced, |r| r.1);
    let ghdw_ms = med(&traced, |r| r.2);
    let plain_total = plain.iter().map(|r| r.3).sum::<f64>();
    let traced_total = traced.iter().map(|r| r.3).sum::<f64>();
    let cli_pass = median(&pass_ms).unwrap_or(0.0);

    let (mut hits, mut nodes, mut cells, mut pruned, mut workspace) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for doc in &trees {
        for run in [dhw_cached_with_statistics, ghdw_cached_with_statistics] {
            let (_, s) = run(doc.tree(), K).map_err(|e| e.to_string())?;
            hits += s.dag_hits;
            nodes += s.dag_nodes;
            cells += s.total_entries;
            pruned += s.pruned_candidates;
            workspace = workspace.max(s.bytes_allocated);
        }
    }
    out.values = BTreeMap::from([
        ("xml.parse_ms", parse_ms),
        ("core.dhw_ms", dhw_ms),
        ("core.ghdw_ms", ghdw_ms),
        (
            "cli.self_ms",
            cli_pass - (ALGS.len() as f64 * parse_ms + dhw_ms + ghdw_ms),
        ),
        ("core.dag_hit_rate", ratio(hits as f64, nodes as f64)),
        ("core.dp_cells", cells as f64),
        ("core.pruned_candidates", pruned as f64),
        ("core.workspace_kb", workspace as f64 / 1024.0),
        (
            "trace.overhead_pct",
            (traced_total - plain_total) / plain_total * 100.0,
        ),
    ]);
    std::fs::remove_dir_all(&dir).ok();
    Ok(out)
}
