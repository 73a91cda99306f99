//! End-to-end benchmark of the recblock stack.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <solve_layered|solve_fem|plan_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One process runs one closed-loop workload
//! with a single caller, checks every answer, and prints as its last line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer ledger with `--trace 1`. Lines before it
//! are a readable summary and the run record; the record and (traced) the
//! span dump are also written under `.bench_out/`. See `e2ebench/README.md`.

mod check;
mod churn;
mod harness;
mod inputs;
mod ledger;
mod rbnet;
mod record;
mod solve;
mod spans;
mod stats;

use harness::Ctx;
use inputs::Workload;
use stats::{json_metrics, json_num, json_str, Metric};
use std::path::Path;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory is readable");
    if !root.join("crates").is_dir() {
        eprintln!("e2ebench: run from the repository root");
        std::process::exit(2);
    }
    let out_dir = root.join(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, out_dir);
    let w = args.workload;
    let result = match w {
        Workload::SolveLayered | Workload::SolveFem => solve::run(&mut ctx, w),
        Workload::PlanChurn => churn::run(&mut ctx),
    };
    if let Err(e) = result {
        eprintln!("e2ebench: {} failed: {e}", w.name());
        std::process::exit(1);
    }
    let rss = record::peak_rss_mib().unwrap_or(f64::NAN);
    ctx.end_to_end.insert(4, Metric::new("peak_rss_mib", rss, "MiB"));
    describe_run(&mut ctx, w, &root);

    let metrics: Vec<Metric> = if ctx.trace {
        ledger::LAYERS
            .iter()
            .map(|(name, unit)| Metric::new(*name, ctx.layers[name], unit))
            .collect()
    } else {
        ctx.end_to_end.clone()
    };
    let correct = ctx.checks_ok && ctx.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    print_summary(&ctx, w, &metrics);
    let tag = format!("{}-seed{}-trace{}", w.name(), ctx.seed, u8::from(ctx.trace));
    let record = record_json(&ctx, &metrics);
    println!("record {record}");
    if let Err(e) = write_outputs(&ctx, &ctx.out_dir.join(&tag), &record) {
        eprintln!("e2ebench: writing outputs: {e}");
        std::process::exit(1);
    }
    let steal = ctx.steal.unwrap_or(0.0);
    println!(
        "steal: {:.2}% of CPU time in the kept windows (limit {:.0}%)",
        steal * 100.0,
        harness::STEAL_LIMIT * 100.0
    );
    // Figures from a run the hypervisor starved are not comparable with
    // the bounds: report none.
    if !ctx.trace && steal > harness::STEAL_LIMIT {
        eprintln!(
            "e2ebench: unusable run: the kept windows lost {:.2}% of CPU time to steal, above the {:.0}% the bounds hold for",
            steal * 100.0,
            harness::STEAL_LIMIT * 100.0
        );
        std::process::exit(3);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.attempted,
        ctx.failed,
        json_metrics(&metrics)
    );
}

/// Host, build and input facts recorded with every run.
fn describe_run(ctx: &mut Ctx, w: Workload, root: &Path) {
    ctx.note_str("workload", w.name());
    ctx.note_num("seed", ctx.seed as f64);
    ctx.note_num("seconds", ctx.seconds);
    ctx.note_str("git_rev", &record::git_rev(root));
    ctx.note_num("nproc", record::nproc() as f64);
    ctx.note_str("pool", &format!("{:?}", recblock_kernels::ExecPool::global()));
    ctx.note_str("out_dir.filesystem", &record::filesystem_of(&ctx.out_dir));
    ctx.note_num("requests.attempted", ctx.attempted as f64);
    ctx.note_num("requests.failed", ctx.failed as f64);
    ctx.note_num("requests.succeeded", (ctx.attempted - ctx.failed) as f64);
    let faults: Vec<String> = ctx.faults.iter().map(|f| json_str(f)).collect();
    ctx.note("faults", format!("[{}]", faults.join(", ")));
    if ctx.trace {
        ctx.note_num("spans.recorded", ctx.spans.len() as f64);
        ctx.note_num("spans.dropped", ctx.spans.dropped() as f64);
    }
}

fn record_json(ctx: &Ctx, metrics: &[Metric]) -> String {
    let mut fields: Vec<String> =
        ctx.record.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    fields.push(format!("\"end_to_end\": {}", json_metrics(&ctx.end_to_end)));
    if ctx.trace {
        fields.push(format!("\"per_layer\": {}", json_metrics(metrics)));
    }
    format!("{{{}}}", fields.join(", "))
}

fn print_summary(ctx: &Ctx, w: Workload, metrics: &[Metric]) {
    println!(
        "== {} seed {} ({} s, trace {})",
        w.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!(
        "requests: {} attempted, {} succeeded, {} failed",
        ctx.attempted,
        ctx.attempted - ctx.failed,
        ctx.failed
    );
    for f in &ctx.faults {
        println!("  fault: {f}");
    }
    for (key, value) in ctx.record.iter().filter(|(k, _)| k == "latency.tail") {
        println!("{key} (ungated): {value}");
    }
    if ctx.trace {
        println!("end-to-end (untraced arm of this run):");
        for m in &ctx.end_to_end {
            println!("  {:<28} {:>14} {}", m.name, json_num(m.value), m.unit);
        }
        println!("spans: name, count, p50 µs, p50 self µs");
        for (name, (dur, own)) in ctx.spans.summary() {
            println!("  {:<28} {:>8} {:>12.1} {:>12.1}", name, dur.len(), dur.p50(), own.p50());
        }
    }
    println!("{}:", if ctx.trace { "per-layer" } else { "end-to-end" });
    for m in metrics {
        println!("  {:<32} {:>14} {}", m.name, json_num(m.value), m.unit);
    }
}

fn write_outputs(ctx: &Ctx, stem: &Path, record: &str) -> std::io::Result<()> {
    std::fs::write(stem.with_extension("record.json"), format!("{record}\n"))?;
    if ctx.trace {
        ctx.spans.write_jsonl(&stem.with_extension("spans.jsonl"))?;
    }
    Ok(())
}
