//! `solve_layered` and `solve_fem`: in-process `RecBlockSolver::solve_into`,
//! one caller, one right-hand side per request.

use crate::check::{self, verify};
use crate::harness::{closed_loop, repeat_setup, report_end_to_end, serial_arm, Arm, Ctx, Warmup};
use crate::inputs::{describe, matrices, Workload};
use crate::ledger;
use recblock::blocked::SolveWorkspace;
use recblock::{RecBlockSolver, SolverOptions};
use std::time::{Duration, Instant};

/// Right-hand sides cycled through by the requests.
const RHS_POOL: u64 = 8;

pub fn run(ctx: &mut Ctx, w: Workload) -> Result<(), String> {
    let l = matrices(w, ctx.seed).remove(0);
    ctx.note("matrices", describe(std::slice::from_ref(&l)));
    let opts = SolverOptions::default();
    ctx.note_str("config.solver", &format!("{opts:?}"));
    let (plan, setup) = repeat_setup(|_| {
        RecBlockSolver::new(&l, opts.clone()).map_err(|e| format!("plan build: {e}"))
    })?;
    let pool: Vec<Vec<f64>> = (0..RHS_POOL).map(|k| check::rhs(l.nrows(), ctx.seed, k)).collect();

    let mut x = vec![0.0; l.nrows()];
    let mut ws = SolveWorkspace::new();
    plan.solve_into(&pool[0], &mut x, &mut ws).map_err(|e| format!("first solve: {e}"))?;
    if !check::checker_rejects_corruption(&l, &x, &pool[0]) {
        ctx.check_failed("checker accepted a corrupted answer".into());
    }

    let recblock = |traced: bool| {
        let (l, plan, pool) = (&l, &plan, &pool);
        let (mut x, mut ws) = (vec![0.0; l.nrows()], SolveWorkspace::new());
        Arm {
            name: if traced { "recblock_traced" } else { "recblock" },
            traced,
            step: Box::new(move |spans, root, req| {
                let b = &pool[(req % RHS_POOL) as usize];
                let t0 = Instant::now();
                let s = spans.begin("core.solve_into", root, req);
                let r = plan.solve_into(b, &mut x, &mut ws);
                spans.end(s);
                let call_s = t0.elapsed().as_secs_f64();
                let r = r.map_err(|e| check::Fault::Error(e.to_string()));
                (
                    call_s,
                    r.and_then(|()| spans.scope("bench.verify", root, req, || verify(l, &x, b))),
                )
            }),
        }
    };
    let serial = serial_arm(|req| (&l, &pool[(req % RHS_POOL) as usize]));
    let warm = Warmup {
        min_requests: 100,
        min_time: Duration::from_secs(1),
        max_time: Duration::from_secs(4),
    };
    if !ctx.trace {
        let mut arms = [recblock(false), serial];
        let res = closed_loop(ctx, &mut arms, &warm);
        report_end_to_end(ctx, &res[0], &setup, Some(&res[1]));
    } else {
        let mut arms = [recblock(false), recblock(true)];
        let res = closed_loop(ctx, &mut arms, &warm);
        drop(arms);
        report_end_to_end(ctx, &res[0], &setup, None);
        ledger::trace_overhead(ctx, &res[0], &res[1]);
        ledger::measure(ctx, &l, &plan, &setup)?;
    }
    Ok(())
}
