//! `natix-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --natix <path> [--out <dir>] [--commit <id>]`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
//! or with `--trace 1` the per-layer metrics. `--describe` prints the
//! benchmark definition (`BENCHMARK.json`) instead.

use std::path::PathBuf;
use std::process::ExitCode;

use natix_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use natix_perfbench::{bulkload, partition, query, trace, update, Ctx, Outcome};

struct Args {
    ctx: Ctx,
    commit: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = f64::from(metrics::RUN_SECONDS);
    let mut traced = false;
    let mut natix = None;
    let mut out = PathBuf::from(".bench_out");
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("missing value for {a}"));
        match a.as_str() {
            "--describe" => {
                print!("{}", metrics::describe());
                return Ok(None);
            }
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = val()?.parse().map_err(|_| "--seconds expects a number")?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                traced = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--natix" => natix = Some(PathBuf::from(val()?)),
            "--out" => out = PathBuf::from(val()?),
            "--commit" => commit = val()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !metrics::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Some(Args {
        ctx: Ctx {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: traced,
            natix: natix.unwrap_or_else(|| PathBuf::from("natix")),
            out_dir: out,
        },
        commit,
    }))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Print the per-name span table and write the spans out.
fn report_spans(ctx: &Ctx) -> Result<(), String> {
    let spans = trace::drain();
    let path = ctx
        .out_dir
        .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    println!(
        "{:<28} {:>9} {:>12} {:>12} {:>10}",
        "span", "count", "total_ms", "self_ms", "self_us/op"
    );
    let mut by_layer: std::collections::BTreeMap<&str, u64> = Default::default();
    for (name, t) in trace::totals_by_name(&spans) {
        println!(
            "{:<28} {:>9} {:>12.3} {:>12.3} {:>10.2}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / 1e3 / t.count as f64
        );
        *by_layer
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += t.self_ns;
    }
    println!("self time by layer:");
    for (layer, ns) in by_layer {
        println!("  {:<12} {:>12.3} ms", layer, ns as f64 / 1e6);
    }
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = &args.ctx;
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    if ctx.trace {
        trace::enable();
    }
    let mut out = match ctx.workload.as_str() {
        "query" => query::run(ctx)?,
        "update" => update::run(ctx)?,
        "bulkload" => bulkload::run(ctx)?,
        "partition" => partition::run(ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if ctx.trace {
        report_spans(ctx)?;
        for m in PER_LAYER {
            out.values.entry(m.name).or_insert(0.0);
        }
    }
    Ok(out)
}

/// Format a metric value with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("natix-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    println!(
        "natix-perfbench: workload {} seed {} seconds {} trace {} cores {} commit {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        cores(),
        args.commit
    );
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("natix-perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in &out.check_failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{:<36} {:>16}  unit", "workload figure", "value");
    for (name, v, unit) in &out.view {
        println!("{name:<36} {v:>16.4}  {unit}");
    }
    let wanted: Vec<(&str, &str)> = if ctx.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    println!("{:<36} {:>16}  unit", "metric", "value");
    let mut fields = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let Some(&v) = out.values.get(name) else {
            eprintln!("natix-perfbench: {} did not report {name}", ctx.workload);
            return ExitCode::FAILURE;
        };
        println!("{name:<36} {v:>16.4}  {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        ));
    }
    let correct = out.check_failures.is_empty();
    let record = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    let result_path = ctx.out_dir.join(format!(
        "result-{}-{}-{}.json",
        ctx.workload, ctx.seed, ctx.trace as u8
    ));
    let full = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"cores\": {}, \"commit\": \"{}\", \"result\": {record}}}\n",
        ctx.workload,
        ctx.seed,
        ctx.trace,
        cores(),
        args.commit
    );
    if let Err(e) = std::fs::write(&result_path, full) {
        eprintln!("natix-perfbench: {}: {e}", result_path.display());
    }
    println!("{record}");
    ExitCode::SUCCESS
}
