//! `plan_churn`: cycling in a fixed order through more same-size plans than
//! a serve cache would hold, so every request loads its plan from the
//! store. The timed request is `PlanStore::load` → first solve, in
//! process. Through `SolveService` the same loop adds queue and worker
//! hand-offs that swing p90 by a quarter between runs on a shared
//! two-vCPU host, so the service loop runs in the traced run instead and
//! feeds the `serve.*` ledger. Builds and saves (fsync included) happen in
//! setup only.

use crate::check::{self, verify, Fault};
use crate::harness::{closed_loop, repeat_setup, report_end_to_end, serial_arm, Arm, Ctx, Warmup};
use crate::inputs::{describe, matrices, Workload, CHURN_PLANS};
use crate::ledger;
use crate::stats::median;
use recblock::blocked::SolveWorkspace;
use recblock::{RecBlockSolver, SolverOptions};
use recblock_matrix::Csr;
use recblock_serve::{ServeConfig, SolveService, StoreOptions};
use recblock_store::{PlanKey, PlanStore};
use std::path::Path;
use std::time::{Duration, Instant};

/// Plans the serve cache holds in the traced service loop: a third of the
/// cycle, with one shard so the eviction order is plain LRU.
const CACHE_PLANS: usize = CHURN_PLANS / 3;

/// Requests of the traced service loop: four passes over the cycle.
const SERVICE_REQUESTS: usize = 4 * CHURN_PLANS;

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let mats = matrices(Workload::PlanChurn, ctx.seed);
    ctx.note("matrices", describe(&mats));
    let keys: Vec<PlanKey> = mats.iter().map(PlanKey::of).collect();
    let dir = ctx.scratch("churn-store");
    let _ = std::fs::remove_dir_all(&dir);
    let (store, setup) = repeat_setup(|_| {
        let store = PlanStore::open(&dir).map_err(|e| format!("store open: {e}"))?;
        for (m, key) in mats.iter().zip(&keys) {
            let plan = RecBlockSolver::new(m, SolverOptions::default())
                .map_err(|e| format!("plan build: {e}"))?;
            store
                .save(plan.blocked(), key, plan.preprocess_time().as_secs_f64())
                .map_err(|e| format!("store save: {e}"))?;
        }
        Ok(store)
    })?;
    ctx.note_str("store.filesystem", &crate::record::filesystem_of(&dir));

    let pool: Vec<Vec<f64>> =
        (0..CHURN_PLANS as u64).map(|k| check::rhs(mats[0].nrows(), ctx.seed, k)).collect();
    let load_solve = |key: &PlanKey, b: &[f64], x: &mut [f64], ws: &mut SolveWorkspace<f64>| {
        let plan = store
            .load::<f64>(key)
            .map_err(|e| Fault::Error(e.to_string()))?
            .ok_or_else(|| Fault::Error(format!("no stored plan for {key}")))?;
        plan.into_solver().solve_into(b, x, ws).map_err(|e| Fault::Error(e.to_string()))
    };
    let mut x = vec![0.0; mats[0].nrows()];
    let mut ws = SolveWorkspace::new();
    match load_solve(&keys[0], &pool[0], &mut x, &mut ws) {
        Ok(()) if check::checker_rejects_corruption(&mats[0], &x, &pool[0]) => {}
        _ => ctx.check_failed("first answer or checker self-test failed".into()),
    }

    let arm = |traced: bool| {
        let (mats, keys, pool, store) = (&mats, &keys, &pool, &store);
        let (mut x, mut ws) = (vec![0.0; mats[0].nrows()], SolveWorkspace::new());
        Arm {
            name: if traced { "churn_traced" } else { "churn" },
            traced,
            step: Box::new(move |spans, root, req| {
                let i = (req % CHURN_PLANS as u64) as usize;
                let t0 = Instant::now();
                let s = spans.begin("store.load", root, req);
                let loaded = store.load::<f64>(&keys[i]);
                spans.end(s);
                let r = loaded
                    .map_err(|e| Fault::Error(e.to_string()))
                    .and_then(|p| {
                        p.ok_or_else(|| Fault::Error(format!("no stored plan for {}", keys[i])))
                    })
                    .and_then(|p| {
                        let plan = p.into_solver();
                        let s = spans.begin("core.solve_into", root, req);
                        let r = plan.solve_into(&pool[i], &mut x, &mut ws);
                        spans.end(s);
                        r.map_err(|e| Fault::Error(e.to_string()))
                    });
                let call_s = t0.elapsed().as_secs_f64();
                let r = r.and_then(|()| {
                    spans.scope("bench.verify", root, req, || verify(&mats[i], &x, &pool[i]))
                });
                (call_s, r)
            }),
        }
    };
    let warm = Warmup {
        min_requests: 2 * CHURN_PLANS,
        min_time: Duration::from_secs(1),
        max_time: Duration::from_secs(3),
    };
    if !ctx.trace {
        let serial = serial_arm(|req| {
            let i = (req % CHURN_PLANS as u64) as usize;
            (&mats[i], &pool[i])
        });
        let mut arms = [arm(false), serial];
        let res = closed_loop(ctx, &mut arms, &warm);
        report_end_to_end(ctx, &res[0], &setup, Some(&res[1]));
    } else {
        let mut arms = [arm(false), arm(true)];
        let res = closed_loop(ctx, &mut arms, &warm);
        drop(arms);
        report_end_to_end(ctx, &res[0], &setup, None);
        ledger::trace_overhead(ctx, &res[0], &res[1]);
        service_loop(ctx, &mats, &pool, &dir)?;
        let plan = RecBlockSolver::new(&mats[0], SolverOptions::default())
            .map_err(|e| format!("plan build: {e}"))?;
        ledger::measure(ctx, &mats[0], &plan, &[])?;
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The churn loop through `SolveService::submit → wait`, over the plans
/// setup saved in `dir`, with a cache a third the size of the cycle: the
/// `serve.*` ledger values for this workload.
fn service_loop(
    ctx: &mut Ctx,
    mats: &[Csr<f64>],
    pool: &[Vec<f64>],
    dir: &Path,
) -> Result<(), String> {
    let config = ServeConfig::default()
        .with_cache_capacity(CACHE_PLANS)
        .with_cache_shards(1)
        .with_store_options(StoreOptions::new(dir).with_warm_start(false));
    ctx.note_str("config.serve", &format!("{config:?}"));
    let svc = SolveService::<f64>::new(config);
    let before = svc.metrics();
    let mut waits = Vec::new();
    for k in 0..SERVICE_REQUESTS {
        let i = k % CHURN_PLANS;
        let req = ctx.next_request();
        let id = ctx.spans.begin("serve.submit_wait", 0, req);
        let t = Instant::now();
        let r = svc.submit(&mats[i], pool[i].clone()).and_then(|h| h.wait());
        waits.push(t.elapsed().as_secs_f64() * 1e6);
        ctx.spans.end(id);
        let outcome =
            r.map_err(|e| Fault::Error(e.to_string())).and_then(|x| verify(&mats[i], &x, &pool[i]));
        ctx.tally(&outcome);
    }
    let after = svc.metrics();
    if after.plan_builds != before.plan_builds {
        ctx.check_failed("the service rebuilt a plan the store holds".into());
    }
    ledger::serve_deltas(ctx, &before, &after);
    ctx.layer("serve.submit_wait_us", median(&waits));
    drop(svc.shutdown());
    Ok(())
}
