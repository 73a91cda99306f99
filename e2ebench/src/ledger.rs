//! The per-layer ledger of the traced run.
//!
//! Every layer is timed from outside, around calls into its crate's public
//! functions, and every metric in [`LAYERS`] is reported on every
//! workload. Where a workload's traced run passes through a layer (`serve`
//! on `plan_churn`) the workload fills those values itself; the rest come
//! from short probes on the workload's own matrix, so each value means
//! "this layer, on this workload's input". The one exception is
//! `kernels.nondeterministic_solves`, measured on a fixed matrix (see
//! [`crate::inputs::nondeterminism_probe`]).

use crate::check::{self, verify, Fault};
use crate::harness::{ArmResult, Ctx};
use crate::rbnet;
use crate::stats::{json_str, median};
use recblock::reorder::recursive_levelset_reorder;
use recblock::RecBlockSolver;
use recblock_kernels::sptrsv::serial_csr;
use recblock_kernels::ExecPool;
use recblock_matrix::{Csr, LevelSets};
use recblock_net::NetClient;
use recblock_serve::{MetricsSnapshot, ServeConfig, SolveService, Stage, StoreOptions};
use recblock_store::{PlanKey, PlanStore};
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in output order.
pub const LAYERS: &[(&str, &str)] = &[
    ("matrix.levelset_ms", "ms"),
    ("core.build_s", "s"),
    ("core.reorder_s", "s"),
    ("core.tri_us", "us"),
    ("core.spmv_us", "us"),
    ("core.glue_us", "us"),
    ("core.blocks.completely-parallel", "count"),
    ("core.blocks.level-set", "count"),
    ("core.blocks.sync-free", "count"),
    ("core.blocks.cusparse-like", "count"),
    ("core.blocks.scalar-csr", "count"),
    ("core.blocks.vector-csr", "count"),
    ("core.blocks.scalar-dcsr", "count"),
    ("core.blocks.vector-dcsr", "count"),
    ("core.x_loads", "count"),
    ("core.b_updates", "count"),
    ("kernels.serial_us", "us"),
    ("kernels.pool_dispatch_us", "us"),
    ("kernels.nondeterministic_solves", "count"),
    ("store.save_ms", "ms"),
    ("store.read_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.plan_bytes", "B"),
    ("serve.cache_lookup_us", "us"),
    ("serve.store_load_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.solve_us", "us"),
    ("serve.respond_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rhs_per_batch", "rhs"),
    ("serve.submit_wait_us", "us"),
    ("net.ping_us", "us"),
    ("net.direct_solve_us", "us"),
    ("cluster.proxy_hop_us", "us"),
    ("cluster.proxied_share", "ratio"),
    ("cluster.proxy_errors", "count"),
    ("trace.overhead_pct", "%"),
];

/// Re-solves of one fixed right-hand side on the fixed probe matrix behind
/// `kernels.nondeterministic_solves`.
pub const REPEAT_SOLVES: usize = 64;

/// Run `f` until `min_n` calls and `min_time` have both passed (or
/// `max_n` calls), recording each call as span `name`.
fn sample(
    ctx: &mut Ctx,
    name: &'static str,
    min_n: usize,
    max_n: usize,
    min_time: Duration,
    mut f: impl FnMut(&mut Ctx),
) {
    let t0 = Instant::now();
    let mut n = 0;
    while n < max_n && (n < min_n || t0.elapsed() < min_time) {
        let req = ctx.next_request();
        let id = ctx.spans.begin(name, 0, req);
        f(ctx);
        ctx.spans.end(id);
        n += 1;
    }
}

fn span_p50(ctx: &Ctx, name: &str) -> Result<f64, String> {
    ctx.spans.p50_us(name).ok_or_else(|| format!("no {name} spans"))
}

/// `trace.overhead_pct`: how much slower the traced arm's requests were
/// than the untraced arm's, interleaved in the same process.
pub fn trace_overhead(ctx: &mut Ctx, untraced: &ArmResult, traced: &ArmResult) {
    ctx.layer("trace.overhead_pct", (traced.p50() / untraced.p50() - 1.0) * 100.0);
    ctx.note_num("traced.latency_p50_us", traced.p50());
    ctx.note_num("traced.latency_p90_us", traced.p90());
    ctx.note_num("traced.rhs_per_s", traced.rhs_per_s());
}

/// Per-stage means (µs) and ratios of the serve tier between two
/// snapshots, into the ledger (existing values are kept).
pub fn serve_deltas(ctx: &mut Ctx, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let stage_us = |s: Stage| -> Option<f64> {
        let (a, b) = (after.stage(s)?, before.stage(s));
        let n = a.count - b.map_or(0, |b| b.count);
        let t = a.total.saturating_sub(b.map_or(Duration::ZERO, |b| b.total));
        (n > 0).then(|| t.as_secs_f64() * 1e6 / n as f64)
    };
    for (name, stage) in [
        ("serve.cache_lookup_us", Stage::CacheLookup),
        ("serve.store_load_us", Stage::StoreLoad),
        ("serve.queue_wait_us", Stage::QueueWait),
        ("serve.solve_us", Stage::Solve),
        ("serve.respond_us", Stage::Respond),
    ] {
        if let Some(v) = stage_us(stage) {
            ctx.layers.entry(name).or_insert(v);
        }
    }
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    if hits + misses > 0.0 {
        ctx.layers.entry("serve.cache_hit_ratio").or_insert(hits / (hits + misses));
    }
    let batches = after.batches - before.batches;
    if batches > 0 {
        let cols = (after.batched_columns - before.batched_columns) as f64;
        ctx.layers.entry("serve.rhs_per_batch").or_insert(cols / batches as f64);
    }
}

/// Fill every ledger value the workload has not, on matrix `l` and its
/// plan. `builds` are plan build times the workload already measured on
/// `l` (empty: build here).
pub fn measure(
    ctx: &mut Ctx,
    l: &Csr<f64>,
    plan: &RecBlockSolver<f64>,
    builds: &[f64],
) -> Result<(), String> {
    let b = check::rhs(l.nrows(), ctx.seed, 0);

    // matrix
    sample(ctx, "matrix.levelset", 5, 5, Duration::ZERO, |_| {
        std::hint::black_box(LevelSets::analyse(l).map(|s| s.nlevels()).ok());
    });
    let v = span_p50(ctx, "matrix.levelset")? / 1e3;
    ctx.layer("matrix.levelset_ms", v);

    // core: build, reorder, solve split, census, traffic
    let build_s = if builds.is_empty() {
        let mut t = Vec::new();
        sample(ctx, "core.build", 3, 3, Duration::ZERO, |_| {
            let t0 = Instant::now();
            std::hint::black_box(RecBlockSolver::new(l, recblock::SolverOptions::default()).ok());
            t.push(t0.elapsed().as_secs_f64());
        });
        median(&t)
    } else {
        median(builds)
    };
    ctx.layer("core.build_s", build_s);
    let depth = plan.blocked().depth();
    sample(ctx, "core.reorder", 3, 3, Duration::ZERO, |_| {
        std::hint::black_box(recursive_levelset_reorder(l, depth).ok());
    });
    let v = span_p50(ctx, "core.reorder")? / 1e6;
    ctx.layer("core.reorder_s", v);

    let (mut tri, mut spmv, mut glue) = (Vec::new(), Vec::new(), Vec::new());
    let mut outcomes = Vec::new();
    sample(ctx, "core.solve_instrumented", 20, 2000, Duration::from_secs(1), |_| {
        let t0 = Instant::now();
        let outcome = match plan.solve_instrumented(&b) {
            Ok((x, br)) => {
                let wall = t0.elapsed().as_secs_f64();
                tri.push(br.tri_s * 1e6);
                spmv.push(br.spmv_s * 1e6);
                glue.push((wall - br.tri_s - br.spmv_s) * 1e6);
                verify(l, &x, &b)
            }
            Err(e) => Err(Fault::Error(e.to_string())),
        };
        outcomes.push(outcome);
    });
    for outcome in &outcomes {
        ctx.tally(outcome);
    }
    ctx.layer("core.tri_us", median(&tri));
    ctx.layer("core.spmv_us", median(&spmv));
    ctx.layer("core.glue_us", median(&glue));

    for (name, _) in LAYERS.iter().filter(|(n, _)| n.starts_with("core.blocks.")) {
        ctx.layer(name, 0.0);
    }
    let census = plan.census();
    let counts = census
        .tri
        .iter()
        .map(|(k, c)| (k.name(), *c))
        .chain(census.spmv.iter().map(|(k, c)| (k.name(), *c)));
    for (kernel, c) in counts {
        let key = format!("core.blocks.{}", kernel.to_lowercase());
        match LAYERS.iter().find(|(n, _)| *n == key) {
            Some((n, _)) => *ctx.layers.get_mut(n).expect("zeroed above") += c as f64,
            None => ctx.note_num(format!("unlisted.{key}"), c as f64),
        }
    }
    let traffic = plan.traffic();
    ctx.layer("core.x_loads", traffic.x_loads as f64);
    ctx.layer("core.b_updates", traffic.b_updates as f64);

    // kernels
    sample(ctx, "kernels.serial_csr", 10, 2000, Duration::from_secs(1), |_| {
        std::hint::black_box(serial_csr(l, &b).ok());
    });
    let v = span_p50(ctx, "kernels.serial_csr")?;
    ctx.layer("kernels.serial_us", v);
    let pool = ExecPool::global();
    let jobs = crate::record::nproc().max(2);
    sample(ctx, "kernels.pool_run", 2000, 2000, Duration::ZERO, |_| {
        pool.run(jobs, &|j| {
            std::hint::black_box(j);
        });
    });
    let v = span_p50(ctx, "kernels.pool_run")?;
    ctx.layer("kernels.pool_dispatch_us", v);
    nondeterminism_probe(ctx)?;

    // store
    let key = PlanKey::of(l);
    let plan_bytes = store_probe(ctx, l, plan, key, &b)?;

    // serve (values the timed phase did not give)
    serve_probe(ctx, l, &b)?;

    // net and cluster
    cluster_probe(ctx, l, key, &plan_bytes)?;
    let missing: Vec<&str> =
        LAYERS.iter().map(|(n, _)| *n).filter(|n| !ctx.layers.contains_key(n)).collect();
    if !missing.is_empty() {
        return Err(format!("ledger incomplete: {missing:?}"));
    }
    Ok(())
}

/// `kernels.nondeterministic_solves`: of [`REPEAT_SOLVES`] solves of one
/// right-hand side on the fixed probe matrix, how many differ in their
/// bits from the first. Every answer must still pass the residual check.
fn nondeterminism_probe(ctx: &mut Ctx) -> Result<(), String> {
    let l = crate::inputs::nondeterminism_probe();
    let plan = RecBlockSolver::new(&l, recblock::SolverOptions::default())
        .map_err(|e| format!("probe plan: {e}"))?;
    let b = check::rhs(l.nrows(), 0, 0);
    let mut x = vec![0.0; l.nrows()];
    let mut ws = recblock::blocked::SolveWorkspace::new();
    let mut first: Option<Vec<f64>> = None;
    let mut differing = 0;
    for _ in 0..REPEAT_SOLVES {
        plan.solve_into(&b, &mut x, &mut ws).map_err(|e| format!("re-solve: {e}"))?;
        if verify(&l, &x, &b).is_err() {
            ctx.check_failed("a re-solve of the probe matrix failed its residual check".into());
        }
        match &first {
            None => first = Some(x.clone()),
            Some(f) => differing += usize::from(!check::bit_equal(f, &x)),
        }
    }
    ctx.layer("kernels.nondeterministic_solves", differing as f64);
    ctx.note("kernels.nondeterminism_probe", crate::inputs::describe(std::slice::from_ref(&l)));
    let census: Vec<String> =
        plan.census().tri.iter().map(|(k, c)| format!("{}: {c}", json_str(k.name()))).collect();
    ctx.note("kernels.nondeterminism_probe.tri_blocks", format!("{{{}}}", census.join(", ")));
    ctx.note_num("kernels.repeat_solves", REPEAT_SOLVES as f64);
    Ok(())
}

/// Save and load the plan through a [`PlanStore`] under the run's output
/// directory; returns the plan file's bytes.
fn store_probe(
    ctx: &mut Ctx,
    l: &Csr<f64>,
    plan: &RecBlockSolver<f64>,
    key: PlanKey,
    b: &[f64],
) -> Result<Vec<u8>, String> {
    let dir = ctx.scratch("ledger-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open(&dir).map_err(|e| format!("store open: {e}"))?;
    let cost = plan.preprocess_time().as_secs_f64();
    let mut save_err = None;
    sample(ctx, "store.save", 3, 3, Duration::ZERO, |_| {
        if let Err(e) = store.save(plan.blocked(), &key, cost) {
            save_err = Some(e.to_string());
        }
    });
    if let Some(e) = save_err {
        return Err(format!("store save: {e}"));
    }
    let (mut read, mut decode, mut bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..5 {
        let req = ctx.next_request();
        let id = ctx.spans.begin("store.load", 0, req);
        let loaded = store.load::<f64>(&key);
        ctx.spans.end(id);
        let loaded = loaded
            .map_err(|e| format!("store load: {e}"))?
            .ok_or("store load: saved plan not found")?;
        read.push(loaded.timings.read.as_secs_f64() * 1e3);
        decode.push(loaded.timings.decode.as_secs_f64() * 1e3);
        bytes = loaded.bytes;
        let outcome = loaded
            .into_solver()
            .solve(b)
            .map_err(|e| Fault::Error(e.to_string()))
            .and_then(|x| verify(l, &x, b));
        ctx.tally(&outcome);
    }
    let save_ms = span_p50(ctx, "store.save")? / 1e3;
    ctx.layer("store.save_ms", save_ms);
    ctx.layer("store.read_ms", median(&read));
    ctx.layer("store.decode_ms", median(&decode));
    ctx.layer("store.plan_bytes", bytes as f64);
    let exported = store
        .export_bytes(&key)
        .map_err(|e| format!("store export: {e}"))?
        .ok_or("store export: plan missing")?;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(exported)
}

/// A store-backed [`SolveService`] holding one plan at a time, fed two
/// plans of the same structure alternately (every switch misses the cache
/// and loads from the store) and then the same plan again (cache hits).
fn serve_probe(ctx: &mut Ctx, l: &Csr<f64>, b: &[f64]) -> Result<(), String> {
    let twin = Csr::try_new(
        l.nrows(),
        l.ncols(),
        l.row_ptr().to_vec(),
        l.col_idx().to_vec(),
        l.vals().iter().map(|v| v * 2.0).collect(),
    )
    .map_err(|e| format!("twin matrix: {e}"))?;
    let dir = ctx.scratch("serve-probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig::default()
        .with_cache_capacity(1)
        .with_cache_shards(1)
        .with_store_options(StoreOptions::new(&dir).with_warm_start(false));
    let svc = SolveService::<f64>::new(cfg);
    for m in [l, &twin] {
        svc.warm(m).map_err(|e| format!("serve probe warm: {e}"))?;
    }
    svc.flush_store();
    let before = svc.metrics();
    let mut hit_waits = Vec::new();
    let t0 = Instant::now();
    let mut round = 0;
    while round < 4 || (t0.elapsed() < Duration::from_secs(1) && round < 200) {
        // l (miss), twin (miss), twin (hit), twin (hit)
        for (i, m) in [l, &twin, &twin, &twin].into_iter().enumerate() {
            let req = ctx.next_request();
            let id = ctx.spans.begin("serve.submit_wait", 0, req);
            let t = Instant::now();
            let r = svc.submit(m, b.to_vec()).and_then(|h| h.wait());
            let dt = t.elapsed().as_secs_f64() * 1e6;
            ctx.spans.end(id);
            let outcome = r.map_err(|e| Fault::Error(e.to_string())).and_then(|x| verify(m, &x, b));
            if outcome.is_ok() && i >= 2 {
                hit_waits.push(dt);
            }
            ctx.tally(&outcome);
        }
        round += 1;
    }
    let after = svc.metrics();
    serve_deltas(ctx, &before, &after);
    ctx.layers.entry("serve.submit_wait_us").or_insert(median(&hit_waits));
    drop(svc.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// A two-node loopback ring serving `l`'s plan (imported into its owner):
/// pings, direct solves to the owner and solves proxied through the other
/// node, in alternating blocks.
fn cluster_probe(
    ctx: &mut Ctx,
    l: &Csr<f64>,
    key: PlanKey,
    plan_bytes: &[u8],
) -> Result<(), String> {
    ctx.note_str("config.cluster", &format!("{:?}", rbnet::node_config("bench-a")));
    ctx.note_str("config.net", &format!("{:?}", recblock_net::NetConfig::default()));
    let pair = rbnet::Pair::start()?;
    pair.owner(&key)
        .service()
        .import_plan_bytes(key, plan_bytes)
        .map_err(|e| format!("plan import: {e}"))?;
    let b = check::rhs(l.nrows(), ctx.seed, 1);
    let mut proxied = rbnet::client(&pair.other(&key).addr())?;
    let mut direct = rbnet::client(&pair.owner(&key).addr())?;
    ping_probe(ctx, &mut proxied)?;
    let other_before = pair.other(&key).service().metrics();
    let (mut d, mut p) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while d.len() < 12 || (t0.elapsed() < Duration::from_secs(2) && d.len() < 500) {
        for (client, out, name) in
            [(&mut direct, &mut d, "net.solve_direct"), (&mut proxied, &mut p, "net.solve_proxied")]
        {
            for _ in 0..3 {
                let req = ctx.next_request();
                let id = ctx.spans.begin(name, 0, req);
                let t = Instant::now();
                let r = client.solve::<f64>(rbnet::TENANT, &key, &b);
                let dt = t.elapsed().as_secs_f64() * 1e6;
                ctx.spans.end(id);
                let outcome =
                    r.map_err(|e| Fault::Error(e.to_string())).and_then(|x| verify(l, &x, &b));
                if outcome.is_ok() {
                    out.push(dt);
                }
                ctx.tally(&outcome);
            }
        }
    }
    let other_after = pair.other(&key).service().metrics();
    let proxied_n = (other_after.cluster_proxied - other_before.cluster_proxied) as f64;
    ctx.layer("net.direct_solve_us", median(&d));
    ctx.layer("cluster.proxy_hop_us", median(&p) - median(&d));
    ctx.layer("cluster.proxied_share", proxied_n / p.len().max(1) as f64);
    ctx.layer(
        "cluster.proxy_errors",
        (other_after.cluster_proxy_errors - other_before.cluster_proxy_errors) as f64,
    );
    drop((proxied, direct));
    pair.stop();
    Ok(())
}

/// `net.ping_us`: RBNET ping round trips on an open connection.
fn ping_probe(ctx: &mut Ctx, client: &mut NetClient) -> Result<(), String> {
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let req = ctx.next_request();
        let id = ctx.spans.begin("net.ping", 0, req);
        let r = client.ping();
        ctx.spans.end(id);
        rtt.push(r.map_err(|e| format!("ping: {e}"))?.as_secs_f64() * 1e6);
    }
    ctx.layer("net.ping_us", median(&rtt));
    Ok(())
}
