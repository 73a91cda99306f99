//! The run context every workload writes into, the closed request loop and
//! the repeated-setup helper.

use crate::check::{verify, Fault};
use crate::spans::{SpanId, Spans};
use crate::stats::{json_num, json_str, median, Dist, Metric};
use recblock_kernels::sptrsv::serial_csr;
use recblock_matrix::Csr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// State of one benchmark process.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the plan stores, span dumps and run records go.
    pub out_dir: PathBuf,
    pub spans: Spans,
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the record.
    pub faults: Vec<String>,
    /// `false` once any check outside the counted requests failed (a
    /// reference answer, or the checker's own self-test).
    pub checks_ok: bool,
    pub end_to_end: Vec<Metric>,
    /// Per-layer values by metric name (see [`crate::ledger::LAYERS`]).
    pub layers: std::collections::BTreeMap<&'static str, f64>,
    /// `(key, JSON value)` pairs written with the run.
    pub record: Vec<(String, String)>,
    /// Mean steal of the main arm's kept windows (see [`STEAL_LIMIT`]).
    pub steal: Option<f64>,
    next_request: u64,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, out_dir: PathBuf) -> Ctx {
        Ctx {
            seed,
            seconds,
            trace,
            out_dir,
            spans: Spans::new(trace),
            attempted: 0,
            failed: 0,
            faults: Vec::new(),
            checks_ok: true,
            end_to_end: Vec::new(),
            layers: Default::default(),
            record: Vec::new(),
            steal: None,
            next_request: 0,
        }
    }

    pub fn note(&mut self, key: impl Into<String>, json_value: String) {
        self.record.push((key.into(), json_value));
    }

    pub fn note_str(&mut self, key: impl Into<String>, value: &str) {
        self.note(key, json_str(value));
    }

    pub fn note_num(&mut self, key: impl Into<String>, value: f64) {
        self.note(key, json_num(value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Count one checked request.
    pub fn tally(&mut self, outcome: &Result<(), Fault>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            self.failed += 1;
            if self.faults.len() < 8 {
                self.faults.push(format!("{f:?}"));
            }
        }
    }

    /// A check that is not a counted request (reference answers, checker
    /// self-test) failed: the run is not correct.
    pub fn check_failed(&mut self, what: String) {
        self.checks_ok = false;
        if self.faults.len() < 8 {
            self.faults.push(what);
        }
    }

    pub fn next_request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Path for a scratch file or directory of this process.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{name}-{}", std::process::id()))
    }
}

/// One request of one arm: issue it, check the answer, and return how long
/// the call into the system took, in seconds, from the call to the answer
/// (or the error) in hand, with the outcome. The check runs after the
/// clock stops (it costs about as much as a serial solve), but only a
/// checked answer counts; a failed call's time counts all the same.
/// `root` is the request's root span (0 when untraced).
pub type Step<'a> = Box<dyn FnMut(&mut Spans, SpanId, u64) -> (f64, Result<(), Fault>) + 'a>;

pub struct Arm<'a> {
    pub name: &'static str,
    /// Record spans for this arm's requests.
    pub traced: bool,
    pub step: Step<'a>,
}

/// The timed phase is cut into this many windows of equal length. The
/// [`KEPT`] windows in which the hypervisor stole the least CPU time are
/// kept, and every latency, rate and ratio is computed over the requests
/// of those windows. On a shared virtual machine, stolen time stalls the
/// two-thread schedules far beyond its own length; keeping the quietest
/// windows keeps such bursts out of the result.
pub const WINDOWS: usize = 15;

/// Windows kept, quietest first: just under half of them.
pub const KEPT: usize = 7;

/// Largest mean steal of the kept windows at which a run's figures are
/// comparable with the bounds in `BENCHMARK.json` (they were measured at
/// or below it). While the kept windows steal more, the timed phase runs
/// up to [`EXTRA_WINDOWS`] more windows to find quieter ones; an untraced
/// run still above it reports no figures and exits non-zero.
pub const STEAL_LIMIT: f64 = 0.05;

/// Windows the timed phase may add while the kept ones steal too much.
pub const EXTRA_WINDOWS: usize = 8;

/// One arm's requests within one window.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each request in µs; a failed request counts as
    /// infinitely late.
    pub latency_us: Dist,
    pub ok: u64,
    /// Time spent inside the system's calls, failed ones included, in
    /// seconds (checking excluded).
    pub busy_s: f64,
    /// Share of the window's CPU time the hypervisor stole.
    pub steal: f64,
}

/// The serial floor as an arm: `serial_csr` on the matrix and right-hand
/// side `select` picks for each request, checked like every other answer.
pub fn serial_arm<'a>(select: impl Fn(u64) -> (&'a Csr<f64>, &'a [f64]) + 'a) -> Arm<'a> {
    Arm {
        name: "serial_csr",
        traced: false,
        step: Box::new(move |_, _, req| {
            let (l, b) = select(req);
            let t0 = Instant::now();
            let r = serial_csr(l, b);
            let call_s = t0.elapsed().as_secs_f64();
            (call_s, r.map_err(|e| Fault::Error(e.to_string())).and_then(|x| verify(l, &x, b)))
        }),
    }
}

/// What one arm measured during the timed phase.
#[derive(Debug, Default)]
pub struct ArmResult {
    pub windows: Vec<Window>,
    /// Every timed request's latency, for the tail and the sample count.
    pub all_us: Dist,
    pub failed: u64,
}

impl ArmResult {
    /// The [`KEPT`] windows with the least steal (earlier first on ties).
    /// Every arm saw the same windows, so every arm keeps the same ones.
    fn kept(&self) -> impl Iterator<Item = &Window> {
        let mut idx: Vec<usize> = (0..self.windows.len()).collect();
        idx.sort_by(|&a, &b| {
            self.windows[a].steal.total_cmp(&self.windows[b].steal).then(a.cmp(&b))
        });
        idx.truncate(KEPT);
        idx.into_iter().map(|i| &self.windows[i])
    }

    /// Mean steal of the kept windows.
    pub fn steal(&self) -> f64 {
        let (n, sum) = self.kept().fold((0, 0.0), |(n, s), w| (n + 1, s + w.steal));
        sum / n.max(1) as f64
    }

    /// Latencies of the kept windows' requests.
    pub fn latency_us(&self) -> Dist {
        Dist::new(self.kept().flat_map(|w| w.latency_us.samples().iter().copied()).collect())
    }

    /// Correct answers per second of time spent in the system, over the
    /// kept windows.
    pub fn rhs_per_s(&self) -> f64 {
        let (ok, busy) = self.kept().fold((0, 0.0), |(n, t), w| (n + w.ok, t + w.busy_s));
        ok as f64 / busy
    }

    pub fn p50(&self) -> f64 {
        self.latency_us().p50()
    }

    pub fn p90(&self) -> f64 {
        self.latency_us().p90()
    }
}

/// Warm-up before timing: every arm runs at least `min_requests` requests
/// and at least `min_time`, stopping at `max_time` either way.
pub struct Warmup {
    pub min_requests: usize,
    pub min_time: Duration,
    pub max_time: Duration,
}

fn one(ctx: &mut Ctx, arm: &mut Arm) -> (f64, Result<(), Fault>) {
    let req = ctx.next_request();
    let root = if arm.traced { ctx.spans.begin("request", 0, req) } else { 0 };
    let (call_s, r) = (arm.step)(&mut ctx.spans, root, req);
    ctx.spans.end(root);
    ctx.tally(&r);
    (call_s, r)
}

/// Length of one arm's turn within a window.
const BLOCK: Duration = Duration::from_millis(250);

/// Closed loop, one caller: warm every arm up, then run [`WINDOWS`]
/// windows filling `ctx.seconds`, and up to [`EXTRA_WINDOWS`] more while
/// the kept windows steal more than [`STEAL_LIMIT`]. Within a window the
/// arms take turns of about [`BLOCK`] each, so slow drift of the host
/// shows in every arm alike.
pub fn closed_loop(ctx: &mut Ctx, arms: &mut [Arm], warm: &Warmup) -> Vec<ArmResult> {
    for arm in arms.iter_mut() {
        let t0 = Instant::now();
        let mut n = 0;
        while (n < warm.min_requests || t0.elapsed() < warm.min_time)
            && t0.elapsed() < warm.max_time
        {
            let _ = one(ctx, arm);
            n += 1;
        }
    }
    let mut res: Vec<ArmResult> = (0..arms.len()).map(|_| ArmResult::default()).collect();
    let mut all: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    let window = Duration::from_secs_f64(ctx.seconds / WINDOWS as f64);
    while res[0].windows.len() < WINDOWS
        || (res[0].steal() > STEAL_LIMIT && res[0].windows.len() < WINDOWS + EXTRA_WINDOWS)
    {
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
        let mut cur: Vec<Window> = (0..arms.len()).map(|_| Window::default()).collect();
        let tw = Instant::now();
        let ticks0 = crate::record::cpu_ticks();
        while tw.elapsed() < window {
            for (i, arm) in arms.iter_mut().enumerate() {
                let t0 = Instant::now();
                loop {
                    let (call_s, r) = one(ctx, arm);
                    cur[i].busy_s += call_s;
                    if r.is_ok() {
                        cur[i].ok += 1;
                        lat[i].push(call_s * 1e6);
                    } else {
                        res[i].failed += 1;
                        lat[i].push(f64::INFINITY);
                    }
                    if t0.elapsed() >= BLOCK {
                        break;
                    }
                }
            }
        }
        let ticks1 = crate::record::cpu_ticks();
        let steal = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;
        for (i, mut w) in cur.into_iter().enumerate() {
            w.steal = steal;
            all[i].extend_from_slice(&lat[i]);
            w.latency_us = Dist::new(std::mem::take(&mut lat[i]));
            res[i].windows.push(w);
        }
    }
    for (i, r) in res.iter_mut().enumerate() {
        r.all_us = Dist::new(std::mem::take(&mut all[i]));
        let windows: Vec<String> = r
            .windows
            .iter()
            .map(|w| {
                format!(
                    "{{\"samples\": {}, \"p50_us\": {}, \"p90_us\": {}, \"rhs_per_s\": {}, \"steal\": {}}}",
                    w.latency_us.len(),
                    json_num(w.latency_us.p50()),
                    json_num(w.latency_us.p90()),
                    json_num(w.ok as f64 / w.busy_s),
                    json_num(w.steal)
                )
            })
            .collect();
        ctx.note(
            format!("arm.{}", arms[i].name),
            format!(
                "{{\"samples\": {}, \"failed\": {}, \"latency_p50_us\": {}, \"latency_p90_us\": {}, \"steal_kept\": {}, \"windows\": [{}]}}",
                r.all_us.len(),
                r.failed,
                json_num(r.p50()),
                json_num(r.p90()),
                json_num(r.steal()),
                windows.join(", ")
            ),
        );
    }
    res
}

/// Run the workload's setup several times (at least five, and until two
/// seconds have gone by, at most forty), dropping each result before the
/// next so memory does not pile up. Returns the last result and every
/// duration.
pub fn repeat_setup<T>(
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut kept = None;
    let mut times = Vec::new();
    let t_all = Instant::now();
    while times.len() < 5 || (t_all.elapsed() < Duration::from_secs(2) && times.len() < 40) {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(f(times.len())?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("setup ran at least once"), times))
}

/// The end-to-end metrics every workload reports, from its main arm.
pub fn report_end_to_end(
    ctx: &mut Ctx,
    main: &ArmResult,
    setup: &[f64],
    serial: Option<&ArmResult>,
) {
    ctx.end_to_end.push(Metric::new("rhs_per_s", main.rhs_per_s(), "1/s"));
    ctx.end_to_end.push(Metric::new("latency_p50_us", main.p50(), "us"));
    ctx.end_to_end.push(Metric::new("latency_p90_us", main.p90(), "us"));
    ctx.end_to_end.push(Metric::new("setup_s", median(setup), "s"));
    if let Some(s) = serial {
        ctx.end_to_end.push(Metric::new("serial_ratio", main.p50() / s.p50(), "x"));
    }
    ctx.steal = Some(main.steal());
    ctx.note_num("windows", main.windows.len() as f64);
    ctx.note_num("windows.kept", KEPT as f64);
    ctx.note_num("steal.kept_mean", main.steal());
    ctx.note_num("steal.limit", STEAL_LIMIT);
    ctx.note_num("latency.samples_kept", main.latency_us().len() as f64);
    if let Some((p, v, beyond)) = main.all_us.tail() {
        ctx.note(
            "latency.tail",
            format!(
                "{{\"percentile\": {p}, \"value_us\": {}, \"samples_beyond\": {beyond}, \"samples\": {}}}",
                json_num(v),
                main.all_us.len()
            ),
        );
    }
    let samples: Vec<String> = setup.iter().map(|v| json_num(*v)).collect();
    ctx.note("setup.samples_s", format!("[{}]", samples.join(", ")));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(steal: f64) -> Window {
        Window { steal, ..Window::default() }
    }

    #[test]
    fn steal_is_the_mean_of_the_quietest_windows() {
        let mut r = ArmResult {
            windows: (0..WINDOWS).map(|i| window(if i < KEPT { 0.02 } else { 0.5 })).collect(),
            ..ArmResult::default()
        };
        assert!((r.steal() - 0.02).abs() < 1e-12);
        r.windows.iter_mut().for_each(|w| w.steal = 0.2);
        assert!(r.steal() > STEAL_LIMIT);
    }

    #[test]
    fn a_failed_call_costs_its_time() {
        let out = std::env::temp_dir();
        let mut ctx = Ctx::new(1, 0.15, false, out);
        let mut arms = [Arm {
            name: "half_failing",
            traced: false,
            // Every other call fails; a failed call reports three times the
            // time of a good one. The sleep keeps the request count small.
            step: Box::new(|_, _, req| {
                std::thread::sleep(Duration::from_micros(200));
                if req % 2 == 0 {
                    (0.001, Ok(()))
                } else {
                    (0.003, Err(Fault::Error("refused".into())))
                }
            }),
        }];
        let warm = Warmup { min_requests: 0, min_time: Duration::ZERO, max_time: Duration::ZERO };
        let res = closed_loop(&mut ctx, &mut arms, &warm);
        assert!(res[0].failed > 0 && ctx.failed == res[0].failed);
        // ok / (ok · 1 ms + failed · 3 ms) with ok ≈ failed: about 250/s.
        let rate = res[0].rhs_per_s();
        assert!((240.0..260.0).contains(&rate), "{rate}");
        assert!(res[0].p90().is_infinite());
    }
}
