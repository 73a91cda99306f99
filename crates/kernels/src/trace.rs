//! `SolveTrace`: a pre-allocated, lock-free ring buffer of typed solve
//! events, filled by the execution engine and the kernels.
//!
//! The solve hot path must stay allocation-free (the PR-4 regression tests
//! pin it at zero steady-state allocations), so tracing follows the same
//! discipline:
//!
//! * the ring is allocated once, at [`SolveTrace::enable`] time, never on
//!   the recording path;
//! * a slot is claimed with one relaxed `fetch_add` and filled with two
//!   relaxed atomic stores — no locks, no CAS loops;
//! * when tracing is disabled (the default) every instrumentation site
//!   reduces to a single relaxed load of a static `AtomicBool`
//!   ([`SolveTrace::start`] returns `None` and [`SolveTrace::finish`] is a
//!   no-op), and with `--no-default-features` (the `trace` feature off) the
//!   check is `cfg!`-folded to a constant and the sites compile away
//!   entirely.
//!
//! Events are recorded by the *dispatching* thread (the one that owns the
//! solve call), not by pool workers, so a drained trace reads as a linear
//! story of one solve: per-run wall-clock on the nnz-balanced schedule,
//! per-kernel totals, per-block timings from the blocked executor, and
//! store read/decode stages.
//!
//! The ring keeps the **most recent** `capacity` events: when it wraps, the
//! oldest events are overwritten and counted in [`SolveTrace::dropped`].
//! [`SolveTrace::drain`] is meant to be called at quiescence (no solve in
//! flight); a concurrent recorder can tear at most the slots it is
//! mid-writing, which decode as garbage kinds and are skipped.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What a [`TraceEvent`] measured. Discriminants are stable (they appear in
/// the packed wire format of the ring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A fused serial run of a [`crate::LevelSchedule`] (id = run index).
    SerialRun = 1,
    /// A parallel launch of a [`crate::LevelSchedule`] (id = run index,
    /// `chunks` = nnz-balanced chunks dispatched to the pool).
    ParallelRun = 2,
    /// One [`crate::ExecPool::run`] dispatch (id = jobs dispatched).
    PoolDispatch = 3,
    /// The completely-parallel diagonal kernel
    /// ([`crate::sptrsv::parallel_diag_into`]).
    DiagKernel = 4,
    /// One whole [`crate::LevelSetSolver`] solve.
    LevelSetKernel = 5,
    /// One whole [`crate::CusparseLikeSolver`] solve.
    CusparseKernel = 6,
    // Discriminant 7 belonged to a retired event kind: do not reuse it,
    // since discriminants appear in the packed ring format.
    /// A planned CSR SpMV update ([`crate::spmv::csr_update_planned`]).
    SpmvCsr = 8,
    /// A planned DCSR SpMV update ([`crate::spmv::dcsr_update_planned`]).
    SpmvDcsr = 9,
    /// One triangular diagonal block of a blocked solve (id = block index).
    BlockTri = 10,
    /// One square update block of a blocked solve (id = block index).
    BlockSquare = 11,
    /// Permutation gather of `b` into block order (blocked solve).
    Gather = 12,
    /// Permutation scatter of `x` back to original order (blocked solve).
    Scatter = 13,
    /// Reading a persisted plan file from disk (recblock-store).
    StoreRead = 14,
    /// Verifying + decoding a persisted plan (recblock-store).
    StoreDecode = 15,
    /// One point-to-point task-schedule solve (`TaskSchedule`): a single
    /// dispatch replacing the whole per-level launch sequence.
    P2pRun = 16,
    /// One end-to-end request span at the serving tier (id = low 24 bits of
    /// the request's cluster-wide trace id; rows = batch width).
    RequestSpan = 17,
}

impl EventKind {
    /// Stable snake_case name (used by bench JSON and report rendering).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SerialRun => "serial_run",
            EventKind::ParallelRun => "parallel_run",
            EventKind::PoolDispatch => "pool_dispatch",
            EventKind::DiagKernel => "diag_kernel",
            EventKind::LevelSetKernel => "levelset_kernel",
            EventKind::CusparseKernel => "cusparse_kernel",
            EventKind::SpmvCsr => "spmv_csr",
            EventKind::SpmvDcsr => "spmv_dcsr",
            EventKind::BlockTri => "block_tri",
            EventKind::BlockSquare => "block_square",
            EventKind::Gather => "gather",
            EventKind::Scatter => "scatter",
            EventKind::StoreRead => "store_read",
            EventKind::StoreDecode => "store_decode",
            EventKind::P2pRun => "p2p_run",
            EventKind::RequestSpan => "request_span",
        }
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::SerialRun,
            2 => EventKind::ParallelRun,
            3 => EventKind::PoolDispatch,
            4 => EventKind::DiagKernel,
            5 => EventKind::LevelSetKernel,
            6 => EventKind::CusparseKernel,
            8 => EventKind::SpmvCsr,
            9 => EventKind::SpmvDcsr,
            10 => EventKind::BlockTri,
            11 => EventKind::BlockSquare,
            12 => EventKind::Gather,
            13 => EventKind::Scatter,
            14 => EventKind::StoreRead,
            15 => EventKind::StoreDecode,
            16 => EventKind::P2pRun,
            17 => EventKind::RequestSpan,
            _ => return None,
        })
    }
}

/// One decoded trace event.
///
/// Field widths match the packed slot format: `id` carries 24 bits (run or
/// block index), `rows` 32 bits, `chunks` 16 bits and `ns` 48 bits (~78
/// hours — far beyond any single kernel invocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What was measured.
    pub kind: EventKind,
    /// Kind-specific identifier: run index, block index, or job count.
    pub id: u32,
    /// Rows (or lanes / bytes for store events) the event covered.
    pub rows: u32,
    /// Parallel chunks dispatched (0 for serial work).
    pub chunks: u16,
    /// Wall-clock nanoseconds, measured on the dispatching thread.
    pub ns: u64,
}

const ID_MAX: u32 = (1 << 24) - 1;
const NS_MAX: u64 = (1 << 48) - 1;

#[inline]
fn pack(ev: &TraceEvent) -> (u64, u64) {
    let w0 = ((ev.kind as u64) << 56) | ((ev.id.min(ID_MAX) as u64) << 32) | ev.rows as u64;
    let w1 = ((ev.chunks as u64) << 48) | ev.ns.min(NS_MAX);
    (w0, w1)
}

#[inline]
fn unpack(w0: u64, w1: u64) -> Option<TraceEvent> {
    let kind = EventKind::from_u8((w0 >> 56) as u8)?;
    Some(TraceEvent {
        kind,
        id: ((w0 >> 32) & ID_MAX as u64) as u32,
        rows: w0 as u32,
        chunks: (w1 >> 48) as u16,
        ns: w1 & NS_MAX,
    })
}

/// A slot is two words so claiming and filling need no lock; an event being
/// written while the ring is drained decodes as kind 0 (skipped) at worst.
struct Slot {
    w0: AtomicU64,
    w1: AtomicU64,
}

struct Ring {
    slots: Box<[Slot]>,
    /// Total events ever claimed (monotonic); slot = cursor % capacity.
    cursor: AtomicU64,
    /// Cursor snapshot at the last reset; events older than this are stale.
    floor: AtomicU64,
}

/// `false` is the steady state: every instrumentation site is one relaxed
/// load and a well-predicted branch.
static ENABLED: AtomicBool = AtomicBool::new(false);
static RING: OnceLock<Ring> = OnceLock::new();

/// The global solve trace. All state is process-wide and all methods are
/// associated functions: kernels deep in the call stack record without any
/// handle being threaded through the hot path.
pub struct SolveTrace;

impl SolveTrace {
    /// Ring capacity used by [`SolveTrace::enable`].
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// `true` when the `trace` feature is compiled in (default). With
    /// `--no-default-features` every instrumentation site folds to nothing.
    #[inline(always)]
    pub const fn compiled() -> bool {
        cfg!(feature = "trace")
    }

    /// Whether events are currently being recorded.
    #[inline(always)]
    pub fn is_enabled() -> bool {
        Self::compiled() && ENABLED.load(Ordering::Relaxed)
    }

    /// Start recording into a ring of [`Self::DEFAULT_CAPACITY`] events.
    /// The ring is allocated on the first call and reused (and reset)
    /// afterwards; the capacity of the first call wins for the process.
    pub fn enable() {
        Self::enable_with_capacity(Self::DEFAULT_CAPACITY);
    }

    /// As [`SolveTrace::enable`] with an explicit capacity (clamped to at
    /// least 16; ignored if the ring already exists).
    pub fn enable_with_capacity(capacity: usize) {
        if !Self::compiled() {
            return;
        }
        let ring = RING.get_or_init(|| {
            let cap = capacity.max(16);
            let slots = (0..cap)
                .map(|_| Slot { w0: AtomicU64::new(0), w1: AtomicU64::new(0) })
                .collect::<Vec<_>>()
                .into_boxed_slice();
            Ring { slots, cursor: AtomicU64::new(0), floor: AtomicU64::new(0) }
        });
        ring.floor.store(ring.cursor.load(Ordering::Acquire), Ordering::Release);
        ENABLED.store(true, Ordering::Release);
    }

    /// Stop recording. The already-recorded events stay drainable.
    pub fn disable() {
        ENABLED.store(false, Ordering::Release);
    }

    /// Forget all recorded events (recording state is unchanged).
    pub fn reset() {
        if let Some(ring) = RING.get() {
            ring.floor.store(ring.cursor.load(Ordering::Acquire), Ordering::Release);
        }
    }

    /// Events recorded since the last reset/enable (may exceed the ring
    /// capacity; the excess was overwritten).
    pub fn recorded() -> u64 {
        match RING.get() {
            Some(r) => {
                r.cursor.load(Ordering::Acquire).saturating_sub(r.floor.load(Ordering::Acquire))
            }
            None => 0,
        }
    }

    /// Events overwritten by ring wrap-around since the last reset.
    pub fn dropped() -> u64 {
        match RING.get() {
            Some(r) => Self::recorded().saturating_sub(r.slots.len() as u64),
            None => 0,
        }
    }

    /// Timestamp helper for instrumentation sites: `None` (and therefore a
    /// no-op [`SolveTrace::finish`]) when tracing is off.
    #[inline(always)]
    pub fn start() -> Option<Instant> {
        if Self::is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record an event timed from a [`SolveTrace::start`] stamp. A `None`
    /// stamp (tracing was off at `start`) records nothing.
    #[inline]
    pub fn finish(t0: Option<Instant>, kind: EventKind, id: u32, rows: u32, chunks: u16) {
        if let Some(t0) = t0 {
            Self::record(TraceEvent {
                kind,
                id,
                rows,
                chunks,
                ns: t0.elapsed().as_nanos().min(NS_MAX as u128) as u64,
            });
        }
    }

    /// Record a fully-formed event. No-op when tracing is disabled; never
    /// allocates.
    #[inline]
    pub fn record(ev: TraceEvent) {
        if !Self::is_enabled() {
            return;
        }
        let Some(ring) = RING.get() else { return };
        let seq = ring.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[(seq % ring.slots.len() as u64) as usize];
        let (w0, w1) = pack(&ev);
        slot.w0.store(w0, Ordering::Relaxed);
        slot.w1.store(w1, Ordering::Relaxed);
    }

    /// Read the recorded events in chronological order and reset the ring.
    ///
    /// Meant for quiescent points (after a solve returns). Events still
    /// being written by a racing recorder may decode to an unknown kind and
    /// are skipped.
    pub fn drain() -> Vec<TraceEvent> {
        let out = Self::snapshot();
        Self::reset();
        out
    }

    /// As [`SolveTrace::drain`] without resetting.
    pub fn snapshot() -> Vec<TraceEvent> {
        let Some(ring) = RING.get() else { return Vec::new() };
        let cur = ring.cursor.load(Ordering::Acquire);
        let floor = ring.floor.load(Ordering::Acquire);
        let cap = ring.slots.len() as u64;
        let lo = floor.max(cur.saturating_sub(cap));
        let mut out = Vec::with_capacity((cur - lo) as usize);
        for seq in lo..cur {
            let slot = &ring.slots[(seq % cap) as usize];
            let w0 = slot.w0.load(Ordering::Acquire);
            let w1 = slot.w1.load(Ordering::Acquire);
            if let Some(ev) = unpack(w0, w1) {
                out.push(ev);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Trace state is process-global; tests touching it must not interleave.
    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn pack_roundtrips_all_fields() {
        let ev = TraceEvent {
            kind: EventKind::BlockTri,
            id: 123_456,
            rows: u32::MAX,
            chunks: 999,
            ns: 1_234_567_890_123,
        };
        let (w0, w1) = pack(&ev);
        assert_eq!(unpack(w0, w1), Some(ev));
    }

    #[test]
    fn pack_saturates_oversized_fields() {
        let ev = TraceEvent {
            kind: EventKind::SerialRun,
            id: u32::MAX,
            rows: 7,
            chunks: 3,
            ns: u64::MAX,
        };
        let (w0, w1) = pack(&ev);
        let got = unpack(w0, w1).unwrap();
        assert_eq!(got.id, ID_MAX);
        assert_eq!(got.ns, NS_MAX);
        assert_eq!(got.rows, 7);
    }

    #[test]
    fn unknown_kind_is_skipped() {
        assert_eq!(unpack(0, 0), None);
        assert_eq!(unpack(200u64 << 56, 0), None);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let _g = locked();
        SolveTrace::disable();
        assert!(SolveTrace::start().is_none());
        let before = SolveTrace::recorded();
        SolveTrace::record(TraceEvent {
            kind: EventKind::Gather,
            id: 0,
            rows: 1,
            chunks: 0,
            ns: 5,
        });
        assert_eq!(SolveTrace::recorded(), before);
    }

    #[test]
    fn enable_record_drain_roundtrip() {
        let _g = locked();
        SolveTrace::enable();
        SolveTrace::reset();
        for i in 0..5u32 {
            SolveTrace::record(TraceEvent {
                kind: EventKind::ParallelRun,
                id: i,
                rows: 10 * i,
                chunks: i as u16,
                ns: 100 + i as u64,
            });
        }
        let evs: Vec<_> = SolveTrace::drain()
            .into_iter()
            .filter(|e| e.kind == EventKind::ParallelRun && e.ns >= 100 && e.ns < 105)
            .collect();
        SolveTrace::disable();
        assert_eq!(evs.len(), 5);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.id, i as u32);
            assert_eq!(e.rows, 10 * i as u32);
        }
        // Drained: a second drain of the same window is empty.
        assert_eq!(SolveTrace::recorded(), 0);
    }

    #[test]
    fn ring_keeps_most_recent_events_on_wrap() {
        let _g = locked();
        SolveTrace::enable(); // ring capacity fixed by first enable in process
        SolveTrace::reset();
        let cap = RING.get().unwrap().slots.len() as u64;
        let total = cap + 37;
        for i in 0..total {
            SolveTrace::record(TraceEvent {
                kind: EventKind::SerialRun,
                id: (i % 1000) as u32,
                rows: 1,
                chunks: 0,
                ns: i.min(NS_MAX),
            });
        }
        assert_eq!(SolveTrace::recorded(), total);
        assert_eq!(SolveTrace::dropped(), 37);
        let evs = SolveTrace::drain();
        SolveTrace::disable();
        assert_eq!(evs.len() as u64, cap, "wrap keeps exactly one lap");
        assert_eq!(evs.last().unwrap().ns, total - 1, "newest event survives");
        assert_eq!(evs[0].ns, 37, "oldest surviving event is the wrap point");
    }

    #[test]
    fn start_finish_measures_elapsed_time() {
        let _g = locked();
        SolveTrace::enable();
        SolveTrace::reset();
        let t0 = SolveTrace::start();
        assert!(t0.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        SolveTrace::finish(t0, EventKind::StoreRead, 0, 42, 0);
        let evs = SolveTrace::drain();
        SolveTrace::disable();
        let ev = evs.iter().find(|e| e.kind == EventKind::StoreRead).expect("event recorded");
        assert!(ev.ns >= 1_000_000, "slept 2ms, recorded {}ns", ev.ns);
        assert_eq!(ev.rows, 42);
    }
}
