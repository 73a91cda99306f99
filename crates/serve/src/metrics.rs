//! Built-in service metrics.
//!
//! Everything is lock-free atomics so the hot path (submit, batch drain,
//! solve completion) never serialises on a metrics mutex. A
//! [`MetricsSnapshot`] is a consistent-enough point-in-time copy — counters
//! are read individually, so cross-counter invariants (e.g. `submitted ==
//! completed + rejected + in flight`) hold only at quiescence.

use crate::health::Health;
use recblock_store::PlanKey;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Exact batch sizes are tracked up to this; larger batches land in the
/// final overflow bucket.
pub const BATCH_BUCKETS: usize = 33;
/// Log₂ nanosecond buckets for solve latency: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` ns, with the last bucket open-ended (≥ ~9.2 s).
pub const LATENCY_BUCKETS: usize = 34;

/// Upper bound (exclusive, in ns) of log₂ latency bucket `i`. The final
/// bucket is open-ended, so its bound is reported as `u64::MAX`.
fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= LATENCY_BUCKETS {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// Request life-cycle stages timed into per-stage log₂ histograms. Each
/// completed request contributes one sample per stage it passed through
/// (a cache hit never records a `StoreLoad`; a failed store load still
/// does, so the fallback path is visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Accepted into the queue → drained by a worker.
    QueueWait = 0,
    /// Plan resolution in `submit` (cache lookup, possibly including a
    /// store load or a full build on miss).
    CacheLookup = 1,
    /// One plan-store load attempt (read + verify + decode), successful
    /// or not.
    StoreLoad = 2,
    /// Gathering a drained batch's right-hand sides into the fused
    /// multi-RHS input block.
    BatchAssembly = 3,
    /// The solve itself (single- or multi-RHS).
    Solve = 4,
    /// Delivering one result to its requester.
    Respond = 5,
}

impl Stage {
    /// Number of stages (array dimension).
    pub const COUNT: usize = 6;
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::StoreLoad,
        Stage::BatchAssembly,
        Stage::Solve,
        Stage::Respond,
    ];

    /// Snake-case display name (also the Prometheus `stage` label value).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::StoreLoad => "store_load",
            Stage::BatchAssembly => "batch_assembly",
            Stage::Solve => "solve",
            Stage::Respond => "respond",
        }
    }
}

/// Per-tenant counter slice, registered through [`Metrics::tenant`].
///
/// The network front end's admission/QoS layer increments these directly
/// (they are plain atomics, safe from any thread); the service folds them
/// into [`MetricsSnapshot::tenants`] and the Prometheus exposition with a
/// `tenant` label. All counters are monotonic except `queue_depth`, which
/// is a gauge of the tenant's requests queued ahead of dispatch.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Requests that passed admission and were queued for dispatch.
    pub admitted: AtomicU64,
    /// Requests refused by token-bucket rate admission.
    pub admission_rejected: AtomicU64,
    /// Requests shed because the tenant's queued cost budget was exceeded.
    pub shed_by_cost: AtomicU64,
    /// Requests shed because their deadline expired before dispatch.
    pub shed_by_deadline: AtomicU64,
    /// Requests answered with a solution.
    pub completed: AtomicU64,
    /// Requests answered with a solve/service error after admission.
    pub failed: AtomicU64,
    /// Total admitted cost (`nnz × rhs count` summed over admitted requests).
    pub admitted_cost: AtomicU64,
    /// Requests currently queued ahead of dispatch (gauge).
    pub queue_depth: AtomicU64,
}

impl TenantCounters {
    fn snapshot(&self, tenant: &str) -> TenantSnapshot {
        TenantSnapshot {
            tenant: tenant.to_string(),
            admitted: self.admitted.load(Relaxed),
            admission_rejected: self.admission_rejected.load(Relaxed),
            shed_by_cost: self.shed_by_cost.load(Relaxed),
            shed_by_deadline: self.shed_by_deadline.load(Relaxed),
            completed: self.completed.load(Relaxed),
            failed: self.failed.load(Relaxed),
            admitted_cost: self.admitted_cost.load(Relaxed),
            queue_depth: self.queue_depth.load(Relaxed),
        }
    }
}

/// Point-in-time copy of one tenant's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant name (the Prometheus `tenant` label value).
    pub tenant: String,
    /// See [`TenantCounters::admitted`].
    pub admitted: u64,
    /// See [`TenantCounters::admission_rejected`].
    pub admission_rejected: u64,
    /// See [`TenantCounters::shed_by_cost`].
    pub shed_by_cost: u64,
    /// See [`TenantCounters::shed_by_deadline`].
    pub shed_by_deadline: u64,
    /// See [`TenantCounters::completed`].
    pub completed: u64,
    /// See [`TenantCounters::failed`].
    pub failed: u64,
    /// See [`TenantCounters::admitted_cost`].
    pub admitted_cost: u64,
    /// See [`TenantCounters::queue_depth`].
    pub queue_depth: u64,
}

/// Most recent request hops kept for `planctl trace`; older hops fall off
/// the front. Bounded so a busy node's trace log never grows without limit.
pub const TRACE_LOG_CAP: usize = 1024;

/// One node's record of answering (or proxying) a traced solve request:
/// which trace id it belonged to, which plan it hit, how long the solve
/// span (admission → completion, queueing included) and the respond span
/// (encoding + flushing the answer) took, and whether this node forwarded
/// the request to the owning node rather than solving locally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHop {
    /// Trace id minted at admission on the first node; identical on every
    /// hop of the same request.
    pub trace_id: u64,
    /// Fingerprint of the plan the request addressed.
    pub key: PlanKey,
    /// Name of the node that recorded the hop.
    pub node: String,
    /// Tenant the request arrived under.
    pub tenant: String,
    /// Right-hand sides in the request.
    pub k: u16,
    /// Admission → last column completed, in nanoseconds (serve-tier
    /// queueing and batching included — this is the span a caller waits).
    pub solve_ns: u64,
    /// Encoding the response frames, in nanoseconds.
    pub respond_ns: u64,
    /// Full admission → response-handed-to-the-socket span, in
    /// nanoseconds.
    pub total_ns: u64,
    /// `true` when this node proxied the request onward instead of
    /// solving it locally (the solve span then covers the remote hop).
    pub proxied: bool,
}

/// Published canary-tuning progress for one plan fingerprint. The serve
/// tier's canary scheduler updates this as it works through the candidate
/// grid off the critical path; `planctl` and the Prometheus exposition
/// read it to watch convergence.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneState {
    /// Fingerprint of the plan being tuned.
    pub key: PlanKey,
    /// Times a tuned plan was installed for this fingerprint (0 while the
    /// incumbent still holds its seat).
    pub generation: u64,
    /// Candidates measured so far.
    pub tried: u32,
    /// Candidates in this plan's grid.
    pub total: u32,
    /// `true` once every candidate has been measured and the verdict is in.
    pub done: bool,
    /// Name of the winning candidate, when one cleared the margin.
    pub winner: Option<String>,
    /// Fractional improvement of the winner over the incumbent (0 while
    /// undecided or when the incumbent kept its seat).
    pub gain: f64,
}

/// Shared atomic counters. One instance lives behind an `Arc` shared by the
/// cache, the queue, the workers and the service front end.
#[derive(Debug)]
pub struct Metrics {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) cancelled: AtomicU64,

    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) cache_evictions: AtomicU64,
    pub(crate) plan_builds: AtomicU64,
    pub(crate) preprocess_ns: AtomicU64,
    pub(crate) preprocess_saved_ns: AtomicU64,

    pub(crate) store_hits: AtomicU64,
    pub(crate) store_misses: AtomicU64,
    pub(crate) store_errors: AtomicU64,
    pub(crate) store_writes: AtomicU64,
    pub(crate) store_bytes_read: AtomicU64,
    pub(crate) store_load_ns: AtomicU64,

    pub(crate) worker_panics: AtomicU64,
    pub(crate) store_quarantined: AtomicU64,
    pub(crate) draining: AtomicBool,

    // Cluster counters, incremented by the net/cluster tiers through the
    // shared `Arc<Metrics>` (hence `pub`): requests proxied to the owning
    // node, `Redirect` answers sent, proxy hops that failed, and warm
    // `.rbplan` migrations in each direction. `cluster_ring_epoch` and
    // `cluster_members` are gauges of the last applied ring view.
    /// Solve requests this node forwarded to the owning node.
    pub cluster_proxied: AtomicU64,
    /// Solve requests answered with a `Redirect` to the owner.
    pub cluster_redirects: AtomicU64,
    /// Proxy hops that failed (owner unreachable or answered an error).
    pub cluster_proxy_errors: AtomicU64,
    /// Plans pushed to peers (warm migrations out).
    pub cluster_plans_pushed: AtomicU64,
    /// Plans received from peers and imported (warm migrations in).
    pub cluster_plans_received: AtomicU64,
    /// Plan-pull requests this node answered with plan bytes.
    pub cluster_plans_served: AtomicU64,
    /// Epoch of the most recently applied ring view (gauge).
    pub cluster_ring_epoch: AtomicU64,
    /// Members in the most recently applied ring view (gauge).
    pub cluster_members: AtomicU64,

    // Canary-tuning counters, incremented by the serve tier's background
    // tuner (and, for write-back retries, the store persister). `pub` like
    // the cluster counters so sibling tiers can bump them directly.
    /// Times a tuned plan replaced an incumbent (cluster-wide convergence
    /// watches this stabilise).
    pub tune_generation: AtomicU64,
    /// Candidate tunings measured by the canary scheduler.
    pub tune_candidates_tried: AtomicU64,
    /// Winning tunings installed into the cache and queued for write-back.
    pub tune_winners_installed: AtomicU64,
    /// Store write-back attempts retried after an I/O error.
    pub tune_write_back_retries: AtomicU64,
    /// Traced requests whose hop records were kept (monotonic, unlike the
    /// bounded hop log itself).
    pub traced_requests: AtomicU64,

    /// Per-fingerprint canary progress, published by the tuner.
    pub(crate) tune_states: Mutex<Vec<TuneState>>,
    /// Bounded log of recent traced-request hops (newest at the back).
    pub(crate) trace_log: Mutex<VecDeque<TraceHop>>,

    pub(crate) batches: AtomicU64,
    pub(crate) multi_column_batches: AtomicU64,
    pub(crate) batched_columns: AtomicU64,
    pub(crate) batch_hist: [AtomicU64; BATCH_BUCKETS],

    pub(crate) latency_hist: [AtomicU64; LATENCY_BUCKETS],
    pub(crate) latency_ns_sum: AtomicU64,
    pub(crate) latency_count: AtomicU64,

    pub(crate) stage_hist: [[AtomicU64; LATENCY_BUCKETS]; Stage::COUNT],
    pub(crate) stage_ns_sum: [AtomicU64; Stage::COUNT],
    pub(crate) stage_count: [AtomicU64; Stage::COUNT],

    pub(crate) queue_depth: AtomicUsize,
    pub(crate) queue_depth_peak: AtomicUsize,

    /// Registered tenants, in registration order. Registration is rare
    /// (once per tenant) and lookups return an `Arc` the caller keeps, so
    /// a mutex-guarded list is fine — the hot path never touches it.
    pub(crate) tenants: Mutex<Vec<(Arc<str>, Arc<TenantCounters>)>>,
}

impl Default for Metrics {
    fn default() -> Self {
        // `[AtomicU64; N]: Default` stops at N = 32, so spell it out.
        Metrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            plan_builds: AtomicU64::new(0),
            preprocess_ns: AtomicU64::new(0),
            preprocess_saved_ns: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            store_writes: AtomicU64::new(0),
            store_bytes_read: AtomicU64::new(0),
            store_load_ns: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            store_quarantined: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            cluster_proxied: AtomicU64::new(0),
            cluster_redirects: AtomicU64::new(0),
            cluster_proxy_errors: AtomicU64::new(0),
            cluster_plans_pushed: AtomicU64::new(0),
            cluster_plans_received: AtomicU64::new(0),
            cluster_plans_served: AtomicU64::new(0),
            cluster_ring_epoch: AtomicU64::new(0),
            cluster_members: AtomicU64::new(0),
            tune_generation: AtomicU64::new(0),
            tune_candidates_tried: AtomicU64::new(0),
            tune_winners_installed: AtomicU64::new(0),
            tune_write_back_retries: AtomicU64::new(0),
            traced_requests: AtomicU64::new(0),
            tune_states: Mutex::new(Vec::new()),
            trace_log: Mutex::new(VecDeque::new()),
            batches: AtomicU64::new(0),
            multi_column_batches: AtomicU64::new(0),
            batched_columns: AtomicU64::new(0),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_ns_sum: AtomicU64::new(0),
            latency_count: AtomicU64::new(0),
            stage_hist: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            stage_ns_sum: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_count: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_depth: AtomicUsize::new(0),
            queue_depth_peak: AtomicUsize::new(0),
            tenants: Mutex::new(Vec::new()),
        }
    }
}

impl Metrics {
    /// Get (registering on first use) the counter slice for `name`. The
    /// returned `Arc` is meant to be held by the transport for the life of
    /// the tenant so per-request increments never re-lock the registry.
    pub fn tenant(&self, name: &str) -> Arc<TenantCounters> {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some((_, counters)) = tenants.iter().find(|(n, _)| &**n == name) {
            return counters.clone();
        }
        let counters = Arc::new(TenantCounters::default());
        tenants.push((Arc::from(name), counters.clone()));
        counters
    }

    /// Append one traced-request hop, evicting the oldest once the log
    /// holds [`TRACE_LOG_CAP`] entries. The hop is also stamped into the
    /// kernel-level [`SolveTrace`](recblock_kernels::trace::SolveTrace)
    /// ring (when enabled) as a `RequestSpan` event, so one drained trace
    /// interleaves request spans with the kernel stages they covered.
    pub fn record_trace_hop(&self, hop: TraceHop) {
        use recblock_kernels::trace::{EventKind, SolveTrace, TraceEvent};
        SolveTrace::record(TraceEvent {
            kind: EventKind::RequestSpan,
            id: (hop.trace_id & 0xFF_FFFF) as u32,
            rows: hop.k as u32,
            chunks: u16::from(hop.proxied),
            ns: hop.total_ns,
        });
        self.traced_requests.fetch_add(1, Relaxed);
        let mut log = self.trace_log.lock().unwrap();
        if log.len() >= TRACE_LOG_CAP {
            log.pop_front();
        }
        log.push_back(hop);
    }

    /// Every retained hop for `key`, oldest first — the answer to a
    /// `TraceGet` wire request.
    pub fn trace_hops_for(&self, key: &PlanKey) -> Vec<TraceHop> {
        self.trace_log.lock().unwrap().iter().filter(|h| &h.key == key).cloned().collect()
    }

    /// Publish (replacing any previous state for the same fingerprint) the
    /// canary tuner's progress on one plan.
    pub fn publish_tune_state(&self, state: TuneState) {
        let mut states = self.tune_states.lock().unwrap();
        match states.iter_mut().find(|s| s.key == state.key) {
            Some(s) => *s = state,
            None => states.push(state),
        }
    }

    /// The published canary progress for `key`, if the tuner has looked at
    /// that fingerprint.
    pub fn tune_state_for(&self, key: &PlanKey) -> Option<TuneState> {
        self.tune_states.lock().unwrap().iter().find(|s| &s.key == key).cloned()
    }

    pub(crate) fn record_batch(&self, k: usize) {
        self.batches.fetch_add(1, Relaxed);
        self.batched_columns.fetch_add(k as u64, Relaxed);
        if k > 1 {
            self.multi_column_batches.fetch_add(1, Relaxed);
        }
        self.batch_hist[k.min(BATCH_BUCKETS - 1)].fetch_add(1, Relaxed);
    }

    pub(crate) fn record_latency(&self, elapsed: Duration) {
        let ns = (elapsed.as_nanos() as u64).max(1);
        let idx = (63 - ns.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency_hist[idx].fetch_add(1, Relaxed);
        self.latency_ns_sum.fetch_add(ns, Relaxed);
        self.latency_count.fetch_add(1, Relaxed);
    }

    pub(crate) fn record_stage(&self, stage: Stage, elapsed: Duration) {
        let ns = (elapsed.as_nanos() as u64).max(1);
        let idx = (63 - ns.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        let s = stage as usize;
        self.stage_hist[s][idx].fetch_add(1, Relaxed);
        self.stage_ns_sum[s].fetch_add(ns, Relaxed);
        self.stage_count[s].fetch_add(1, Relaxed);
    }

    pub(crate) fn queue_depth_changed(&self, depth: usize) {
        self.queue_depth.store(depth, Relaxed);
        self.queue_depth_peak.fetch_max(depth, Relaxed);
    }

    /// Mark the service as draining; [`Metrics::health`] reports
    /// [`Health::Draining`] from here on. Idempotent.
    pub fn set_draining(&self) {
        self.draining.store(true, Relaxed);
    }

    /// The health state derived from the live counters (see
    /// [`Health::derive`] for the thresholds).
    pub fn health(&self) -> Health {
        Health::derive(
            self.draining.load(Relaxed),
            self.worker_panics.load(Relaxed),
            self.store_quarantined.load(Relaxed),
        )
    }

    /// Copy every counter into a plain struct.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let batch_sizes = self
            .batch_hist
            .iter()
            .enumerate()
            .filter_map(|(k, c)| {
                let c = c.load(Relaxed);
                (c > 0).then_some((k, c))
            })
            .collect();
        let latency_buckets = self
            .latency_hist
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.load(Relaxed);
                (c > 0).then_some((bucket_upper(i), c))
            })
            .collect();
        let stages = Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let s = stage as usize;
                let count = self.stage_count[s].load(Relaxed);
                (count > 0).then(|| StageSnapshot {
                    stage,
                    buckets: self.stage_hist[s]
                        .iter()
                        .enumerate()
                        .filter_map(|(i, c)| {
                            let c = c.load(Relaxed);
                            (c > 0).then_some((bucket_upper(i), c))
                        })
                        .collect(),
                    total: Duration::from_nanos(self.stage_ns_sum[s].load(Relaxed)),
                    count,
                })
            })
            .collect();
        let mut tenants: Vec<TenantSnapshot> = self
            .tenants
            .lock()
            .unwrap()
            .iter()
            .map(|(name, counters)| counters.snapshot(name))
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        MetricsSnapshot {
            submitted: self.submitted.load(Relaxed),
            completed: self.completed.load(Relaxed),
            rejected: self.rejected.load(Relaxed),
            failed: self.failed.load(Relaxed),
            cancelled: self.cancelled.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            cache_misses: self.cache_misses.load(Relaxed),
            cache_evictions: self.cache_evictions.load(Relaxed),
            plan_builds: self.plan_builds.load(Relaxed),
            preprocess_time: Duration::from_nanos(self.preprocess_ns.load(Relaxed)),
            preprocess_time_saved: Duration::from_nanos(self.preprocess_saved_ns.load(Relaxed)),
            store_hits: self.store_hits.load(Relaxed),
            store_misses: self.store_misses.load(Relaxed),
            store_errors: self.store_errors.load(Relaxed),
            store_writes: self.store_writes.load(Relaxed),
            store_bytes_read: self.store_bytes_read.load(Relaxed),
            store_load_time: Duration::from_nanos(self.store_load_ns.load(Relaxed)),
            worker_panics: self.worker_panics.load(Relaxed),
            store_quarantined: self.store_quarantined.load(Relaxed),
            health: self.health(),
            cluster_proxied: self.cluster_proxied.load(Relaxed),
            cluster_redirects: self.cluster_redirects.load(Relaxed),
            cluster_proxy_errors: self.cluster_proxy_errors.load(Relaxed),
            cluster_plans_pushed: self.cluster_plans_pushed.load(Relaxed),
            cluster_plans_received: self.cluster_plans_received.load(Relaxed),
            cluster_plans_served: self.cluster_plans_served.load(Relaxed),
            cluster_ring_epoch: self.cluster_ring_epoch.load(Relaxed),
            cluster_members: self.cluster_members.load(Relaxed),
            tune_generation: self.tune_generation.load(Relaxed),
            tune_candidates_tried: self.tune_candidates_tried.load(Relaxed),
            tune_winners_installed: self.tune_winners_installed.load(Relaxed),
            tune_write_back_retries: self.tune_write_back_retries.load(Relaxed),
            traced_requests: self.traced_requests.load(Relaxed),
            tune_states: self.tune_states.lock().unwrap().clone(),
            trace_hops: self.trace_log.lock().unwrap().iter().cloned().collect(),
            batches: self.batches.load(Relaxed),
            multi_column_batches: self.multi_column_batches.load(Relaxed),
            batched_columns: self.batched_columns.load(Relaxed),
            batch_sizes,
            latency_buckets,
            latency_total: Duration::from_nanos(self.latency_ns_sum.load(Relaxed)),
            mean_latency: mean(self.latency_ns_sum.load(Relaxed), self.latency_count.load(Relaxed)),
            stages,
            tenants,
            queue_depth: self.queue_depth.load(Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Relaxed),
        }
    }
}

fn mean(sum_ns: u64, count: u64) -> Duration {
    Duration::from_nanos(sum_ns.checked_div(count).unwrap_or(0))
}

/// Point-in-time copy of the service counters. See [`Metrics::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with a solution.
    pub completed: u64,
    /// Requests refused with [`crate::ServeError::Overloaded`].
    pub rejected: u64,
    /// Requests answered with a solve error.
    pub failed: u64,
    /// Requests dropped at shutdown without an answer.
    pub cancelled: u64,
    /// Plan-cache lookups that found (or joined an in-flight build of) an
    /// existing plan.
    pub cache_hits: u64,
    /// Plan-cache lookups that had to start a build.
    pub cache_misses: u64,
    /// Plans dropped to respect the capacity bound.
    pub cache_evictions: u64,
    /// Preprocessing runs actually executed.
    pub plan_builds: u64,
    /// Wall-clock spent preprocessing (across all builds).
    pub preprocess_time: Duration,
    /// Preprocessing wall-clock avoided by cache hits: each hit credits the
    /// cached plan's own build time — the quantity the paper's Table 5
    /// amortisation argument is about.
    pub preprocess_time_saved: Duration,
    /// Plan-store lookups that loaded a usable persisted plan.
    pub store_hits: u64,
    /// Plan-store lookups that found no file for the key.
    pub store_misses: u64,
    /// Plan-store operations that failed (corrupt/stale file, I/O error);
    /// each one fell back to rebuilding.
    pub store_errors: u64,
    /// Plans persisted to the store by the background writer.
    pub store_writes: u64,
    /// Bytes of plan files read (successful loads only).
    pub store_bytes_read: u64,
    /// Worker panics that were contained (the batch got typed errors,
    /// the worker respawned).
    pub worker_panics: u64,
    /// Corrupt plan files quarantined by the boot-time recovery scan.
    pub store_quarantined: u64,
    /// Health state derived from the counters at snapshot time.
    pub health: Health,
    /// See [`Metrics::cluster_proxied`].
    pub cluster_proxied: u64,
    /// See [`Metrics::cluster_redirects`].
    pub cluster_redirects: u64,
    /// See [`Metrics::cluster_proxy_errors`].
    pub cluster_proxy_errors: u64,
    /// See [`Metrics::cluster_plans_pushed`].
    pub cluster_plans_pushed: u64,
    /// See [`Metrics::cluster_plans_received`].
    pub cluster_plans_received: u64,
    /// See [`Metrics::cluster_plans_served`].
    pub cluster_plans_served: u64,
    /// See [`Metrics::cluster_ring_epoch`] (gauge).
    pub cluster_ring_epoch: u64,
    /// See [`Metrics::cluster_members`] (gauge).
    pub cluster_members: u64,
    /// See [`Metrics::tune_generation`].
    pub tune_generation: u64,
    /// See [`Metrics::tune_candidates_tried`].
    pub tune_candidates_tried: u64,
    /// See [`Metrics::tune_winners_installed`].
    pub tune_winners_installed: u64,
    /// See [`Metrics::tune_write_back_retries`].
    pub tune_write_back_retries: u64,
    /// See [`Metrics::traced_requests`].
    pub traced_requests: u64,
    /// Per-fingerprint canary progress, in publication order (empty until
    /// the canary tuner measures something).
    pub tune_states: Vec<TuneState>,
    /// The retained traced-request hops, oldest first (at most
    /// [`TRACE_LOG_CAP`]).
    pub trace_hops: Vec<TraceHop>,
    /// Wall-clock spent loading plans from the store — compare against
    /// `preprocess_time` to see what persistence saves.
    pub store_load_time: Duration,
    /// Solve batches executed.
    pub batches: u64,
    /// Batches that coalesced more than one right-hand side.
    pub multi_column_batches: u64,
    /// Total right-hand sides across all batches.
    pub batched_columns: u64,
    /// `(batch size, count)` pairs; sizes ≥ [`BATCH_BUCKETS`]`-1` share the
    /// final bucket.
    pub batch_sizes: Vec<(usize, u64)>,
    /// `(upper bound in ns, count)` log₂ latency buckets (submit → answer);
    /// the open-ended final bucket reports `u64::MAX`.
    pub latency_buckets: Vec<(u64, u64)>,
    /// Total submit→answer wall-clock across all answered requests.
    pub latency_total: Duration,
    /// Mean submit→answer latency.
    pub mean_latency: Duration,
    /// Per-stage timing histograms (only stages that recorded at least one
    /// sample), in pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// Per-tenant admission/QoS counter slices, sorted by tenant name
    /// (empty when no transport registered tenants).
    pub tenants: Vec<TenantSnapshot>,
    /// Queued requests right now.
    pub queue_depth: usize,
    /// Highest queue depth observed.
    pub queue_depth_peak: usize,
}

/// One stage's timing histogram within a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    /// Which stage.
    pub stage: Stage,
    /// `(upper bound in ns, count)` log₂ buckets, like
    /// [`MetricsSnapshot::latency_buckets`].
    pub buckets: Vec<(u64, u64)>,
    /// Total wall-clock across all samples.
    pub total: Duration,
    /// Samples recorded.
    pub count: u64,
}

impl StageSnapshot {
    /// Estimated latency percentile for this stage (see
    /// [`MetricsSnapshot::latency_percentile`]).
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        percentile_from_buckets(&self.buckets, p)
    }
}

/// Estimate the `p`-quantile (0 ≤ p ≤ 1) from sparse `(upper bound ns,
/// count)` log₂ buckets by log-linear interpolation within the bucket the
/// target sample falls in: a sample at fraction `f` through bucket
/// `[lo, 2·lo)` is estimated as `lo · 2^f`. The open-ended final bucket is
/// treated as one octave starting at `2^(LATENCY_BUCKETS-1)` ns.
fn percentile_from_buckets(buckets: &[(u64, u64)], p: f64) -> Option<Duration> {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let target = p.clamp(0.0, 1.0) * total as f64;
    let lower = |ub: u64| -> f64 {
        if ub == u64::MAX {
            (1u64 << (LATENCY_BUCKETS - 1)) as f64
        } else {
            ((ub / 2).max(1)) as f64
        }
    };
    let mut seen = 0u64;
    for &(ub, c) in buckets {
        if (seen + c) as f64 >= target {
            let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
            return Some(Duration::from_nanos((lower(ub) * 2f64.powf(frac)).round() as u64));
        }
        seen += c;
    }
    let &(ub, _) = buckets.last()?;
    Some(Duration::from_nanos((lower(ub) * 2.0).round() as u64))
}

impl MetricsSnapshot {
    /// Mean columns per executed batch (0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_columns as f64 / self.batches as f64
        }
    }

    /// Estimated submit→answer latency percentile (`p` in `[0, 1]`,
    /// e.g. `0.99` for p99), log-linearly interpolated within the log₂
    /// histogram bucket the target sample lands in. `None` before any
    /// request has been answered.
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        percentile_from_buckets(&self.latency_buckets, p)
    }

    /// The timing snapshot for one stage, if it recorded any samples.
    pub fn stage(&self, stage: Stage) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Render every counter and histogram in Prometheus text exposition
    /// format (see [`crate::prometheus::render`]).
    pub fn render_prometheus(&self) -> String {
        crate::prometheus::render(self)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {} submitted, {} completed, {} rejected, {} failed, {} cancelled",
            self.submitted, self.completed, self.rejected, self.failed, self.cancelled
        )?;
        writeln!(
            f,
            "plan cache: {} hits / {} misses, {} builds ({:?} building, {:?} saved), {} evictions",
            self.cache_hits,
            self.cache_misses,
            self.plan_builds,
            self.preprocess_time,
            self.preprocess_time_saved,
            self.cache_evictions
        )?;
        writeln!(
            f,
            "plan store: {} hits / {} misses, {} errors, {} writes, {} bytes read in {:?}",
            self.store_hits,
            self.store_misses,
            self.store_errors,
            self.store_writes,
            self.store_bytes_read,
            self.store_load_time
        )?;
        writeln!(
            f,
            "health: {} ({} contained worker panics, {} quarantined plan files)",
            self.health, self.worker_panics, self.store_quarantined
        )?;
        if self.cluster_members > 0 {
            writeln!(
                f,
                "cluster: {} members (ring epoch {}), {} proxied, {} redirects, {} proxy errors, \
                 plans {} pushed / {} received / {} served",
                self.cluster_members,
                self.cluster_ring_epoch,
                self.cluster_proxied,
                self.cluster_redirects,
                self.cluster_proxy_errors,
                self.cluster_plans_pushed,
                self.cluster_plans_received,
                self.cluster_plans_served
            )?;
        }
        if self.tune_candidates_tried > 0 || !self.tune_states.is_empty() {
            writeln!(
                f,
                "tuning: generation {}, {} candidates tried, {} winners installed, \
                 {} write-back retries",
                self.tune_generation,
                self.tune_candidates_tried,
                self.tune_winners_installed,
                self.tune_write_back_retries
            )?;
            for t in &self.tune_states {
                writeln!(
                    f,
                    "  plan {:016x}: {}/{} candidates, {}",
                    t.key.structure.hash,
                    t.tried,
                    t.total,
                    match (&t.winner, t.done) {
                        (Some(w), _) => format!("winner {} (+{:.1}%)", w, t.gain * 100.0),
                        (None, true) => "incumbent kept".to_string(),
                        (None, false) => "undecided".to_string(),
                    }
                )?;
            }
        }
        writeln!(
            f,
            "batching: {} batches ({} multi-column), {} columns, mean size {:.2}",
            self.batches,
            self.multi_column_batches,
            self.batched_columns,
            self.mean_batch_size()
        )?;
        write!(
            f,
            "latency: mean {:?}, p50 {:?}, p99 {:?}; queue depth {} (peak {})",
            self.mean_latency,
            self.latency_percentile(0.5).unwrap_or_default(),
            self.latency_percentile(0.99).unwrap_or_default(),
            self.queue_depth,
            self.queue_depth_peak
        )?;
        for s in &self.stages {
            write!(
                f,
                "\nstage {:<14} {:>6} samples, total {:?}, p50 {:?}, p90 {:?}, p99 {:?}",
                s.stage.name(),
                s.count,
                s.total,
                s.percentile(0.5).unwrap_or_default(),
                s.percentile(0.9).unwrap_or_default(),
                s.percentile(0.99).unwrap_or_default()
            )?;
        }
        for t in &self.tenants {
            write!(
                f,
                "\ntenant {:<12} {} admitted ({} cost), {} rate-rejected, {} cost-shed, \
                 {} deadline-shed, {} completed, {} failed, depth {}",
                t.tenant,
                t.admitted,
                t.admitted_cost,
                t.admission_rejected,
                t.shed_by_cost,
                t.shed_by_deadline,
                t.completed,
                t.failed,
                t.queue_depth
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_histogram_counts_and_overflow() {
        let m = Metrics::default();
        m.record_batch(1);
        m.record_batch(4);
        m.record_batch(4);
        m.record_batch(500);
        let s = m.snapshot();
        assert_eq!(s.batches, 4);
        assert_eq!(s.multi_column_batches, 3);
        assert_eq!(s.batched_columns, 509);
        assert!(s.batch_sizes.contains(&(1, 1)));
        assert!(s.batch_sizes.contains(&(4, 2)));
        assert!(s.batch_sizes.contains(&(BATCH_BUCKETS - 1, 1)));
        assert!((s.mean_batch_size() - 509.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn latency_buckets_are_log2() {
        let m = Metrics::default();
        m.record_latency(Duration::from_nanos(1100)); // bucket [1024, 2048) ns
        m.record_latency(Duration::from_nanos(1500));
        m.record_latency(Duration::from_secs(1));
        let s = m.snapshot();
        assert_eq!(s.latency_buckets.iter().map(|&(_, c)| c).sum::<u64>(), 3);
        assert!(s.latency_buckets.iter().any(|&(ub, c)| ub == 2048 && c == 2));
        assert!(s.mean_latency > Duration::from_millis(300));
    }

    #[test]
    fn queue_depth_peak_tracks_maximum() {
        let m = Metrics::default();
        m.queue_depth_changed(3);
        m.queue_depth_changed(9);
        m.queue_depth_changed(2);
        let s = m.snapshot();
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_depth_peak, 9);
    }

    #[test]
    fn snapshot_display_mentions_key_counters() {
        let m = Metrics::default();
        m.record_batch(2);
        let text = m.snapshot().to_string();
        assert!(text.contains("plan cache"));
        assert!(text.contains("multi-column"));
    }

    #[test]
    fn final_latency_bucket_reports_open_ended_bound() {
        // Bucket 33 is open-ended: a ~20 s sample (2^34.2 ns) lands there
        // and its reported upper bound must be u64::MAX, not 2^34 (which
        // would mislabel it as < ~17.2 s).
        let m = Metrics::default();
        m.record_latency(Duration::from_secs(20));
        let s = m.snapshot();
        assert_eq!(s.latency_buckets, vec![(u64::MAX, 1)]);
        // The boundary sample of the last *bounded* bucket still reports a
        // finite bound.
        let m = Metrics::default();
        m.record_latency(Duration::from_nanos((1 << 33) - 1));
        let s = m.snapshot();
        assert_eq!(s.latency_buckets, vec![(1u64 << 33, 1)]);
    }

    #[test]
    fn percentiles_on_single_bucket_interpolate_geometrically() {
        let m = Metrics::default();
        for _ in 0..100 {
            m.record_latency(Duration::from_nanos(1500)); // bucket [1024, 2048)
        }
        let s = m.snapshot();
        // p50 at half the bucket (log scale): 1024·√2 ≈ 1448 ns.
        let p50 = s.latency_percentile(0.5).unwrap().as_nanos() as u64;
        assert!((1447..=1449).contains(&p50), "p50={p50}");
        // p0 sits at the bucket floor, p100 at the ceiling.
        assert_eq!(s.latency_percentile(0.0).unwrap().as_nanos(), 1024);
        assert_eq!(s.latency_percentile(1.0).unwrap().as_nanos(), 2048);
    }

    #[test]
    fn percentiles_across_buckets_hit_exact_boundaries() {
        let m = Metrics::default();
        for _ in 0..50 {
            m.record_latency(Duration::from_nanos(1500)); // [1024, 2048)
        }
        for _ in 0..50 {
            m.record_latency(Duration::from_nanos(3000)); // [2048, 4096)
        }
        let s = m.snapshot();
        // The median of an exact 50/50 split is the shared bucket boundary.
        assert_eq!(s.latency_percentile(0.5).unwrap().as_nanos(), 2048);
        // p75 is halfway (log scale) through the upper bucket: 2048·√2.
        let p75 = s.latency_percentile(0.75).unwrap().as_nanos() as u64;
        assert!((2895..=2897).contains(&p75), "p75={p75}");
        assert!(s.latency_percentile(0.25).unwrap() < s.latency_percentile(0.75).unwrap());
    }

    #[test]
    fn percentile_none_before_any_sample() {
        assert_eq!(Metrics::default().snapshot().latency_percentile(0.5), None);
    }

    #[test]
    fn trace_log_is_bounded_and_filters_by_key() {
        use recblock_matrix::Fingerprint;
        let m = Metrics::default();
        let key = |h: u64| PlanKey {
            structure: Fingerprint { nrows: 8, ncols: 8, nnz: 8, hash: h },
            values: h,
        };
        for i in 0..(TRACE_LOG_CAP as u64 + 10) {
            m.record_trace_hop(TraceHop {
                trace_id: i,
                key: key(i % 2),
                node: "n0".into(),
                tenant: "t".into(),
                k: 1,
                solve_ns: 10,
                respond_ns: 1,
                total_ns: 11,
                proxied: false,
            });
        }
        let s = m.snapshot();
        assert_eq!(s.trace_hops.len(), TRACE_LOG_CAP);
        assert_eq!(s.traced_requests, TRACE_LOG_CAP as u64 + 10);
        // The oldest hops fell off; the newest survived.
        assert_eq!(s.trace_hops.last().unwrap().trace_id, TRACE_LOG_CAP as u64 + 9);
        let hops = m.trace_hops_for(&key(0));
        assert!(!hops.is_empty());
        assert!(hops.iter().all(|h| h.key == key(0)));
    }

    #[test]
    fn tune_state_publish_replaces_and_renders() {
        use recblock_matrix::Fingerprint;
        let m = Metrics::default();
        let key = PlanKey {
            structure: Fingerprint { nrows: 9, ncols: 9, nnz: 20, hash: 0xBEEF },
            values: 7,
        };
        m.tune_candidates_tried.fetch_add(3, Relaxed);
        m.publish_tune_state(TuneState {
            key,
            generation: 0,
            tried: 3,
            total: 8,
            done: false,
            winner: None,
            gain: 0.0,
        });
        m.publish_tune_state(TuneState {
            key,
            generation: 1,
            tried: 8,
            total: 8,
            done: true,
            winner: Some("p2p-fine".into()),
            gain: 0.12,
        });
        let s = m.snapshot();
        assert_eq!(s.tune_states.len(), 1, "publish replaces, never duplicates");
        assert_eq!(m.tune_state_for(&key).unwrap().winner.as_deref(), Some("p2p-fine"));
        let text = s.to_string();
        assert!(text.contains("tuning: generation"), "{text}");
        assert!(text.contains("p2p-fine"), "{text}");
    }

    #[test]
    fn stages_record_into_their_own_histograms() {
        let m = Metrics::default();
        m.record_stage(Stage::Solve, Duration::from_micros(100));
        m.record_stage(Stage::Solve, Duration::from_micros(200));
        m.record_stage(Stage::QueueWait, Duration::from_nanos(1500));
        let s = m.snapshot();
        assert_eq!(s.stages.len(), 2);
        let solve = s.stage(Stage::Solve).unwrap();
        assert_eq!(solve.count, 2);
        assert_eq!(solve.total, Duration::from_micros(300));
        assert!(solve.percentile(0.5).unwrap() > Duration::from_micros(64));
        assert!(s.stage(Stage::StoreLoad).is_none());
        // Stage lines appear in the Display rendering.
        let text = s.to_string();
        assert!(text.contains("queue_wait"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }
}
