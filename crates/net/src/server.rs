//! The non-blocking event-loop server.
//!
//! One thread owns every socket. A [`Poller`] (epoll/poll shim) drives
//! three token classes: the listener, a self-pipe the compute tier wakes
//! after finishing a solve, and one token per connection. Requests flow
//!
//! ```text
//! read → frame decode → admission ladder → fair queue → dispatch
//!   admission: tenant? draining? shape? plan warm? tokens? queued cost?
//! worker → ResponseSink → completion queue → wake pipe → write-back
//! ```
//!
//! The steady-state path performs **zero allocations on the event-loop
//! thread**: read/write buffers, value-column vectors, the in-flight slab,
//! the completion queue and every queue node are pooled and recycled
//! (`tests/alloc_regression.rs` enforces this with a counting allocator).

use crate::config::{NetConfig, TenantPolicy};
use crate::error::ErrCode;
use crate::frame::{
    self, FrameError, FrameKind, Header, MemberInfo, RingStateMsg, StatReply, TenantStat,
    TraceHopMsg, HEADER_LEN,
};
use crate::poll::{Event, Poller};
use crate::qos::{FairQueue, TokenBucket};
use recblock::RecBlockSolver;
use recblock_matrix::Scalar;
use recblock_serve::{Metrics, ResponseSink, ServeError, SolveService, TenantCounters, TraceHop};
use recblock_store::PlanKey;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_BASE: u64 = 2;
const READ_CHUNK: usize = 64 * 1024;
const MAX_READ_ROUNDS: usize = 16;
const POOL_VECS: usize = 512;
const POOL_COLSETS: usize = 64;

/// Routing decision for one solve request's fingerprint, made by the
/// cluster coordinator before the local plan path is consulted.
#[derive(Debug, Clone)]
pub enum Route {
    /// This node owns or replicates the plan: serve it locally.
    Local,
    /// Forward the request to the node at `addr` over a pooled
    /// inter-node connection and relay its answer to the client.
    Proxy(String),
    /// Answer `ErrCode::Redirect` with `addr` so the client retries
    /// against the owner directly.
    Redirect(String),
}

/// What a cluster coordinator provides for this front end to take part
/// in a ring. Every method is called from the event-loop thread and
/// must not block on network I/O — [`ClusterHooks::proxy_solve`] hands
/// the request to worker threads owned by the implementation, which
/// deliver per-column results through the same [`ResponseSink`] the
/// compute tier uses.
pub trait ClusterHooks<S: Scalar>: Send + Sync {
    /// Decide where a solve for `key` should run.
    fn route(&self, key: &PlanKey) -> Route;
    /// A node asked to join; fold it into the ring, return the new view.
    fn handle_join(&self, member: MemberInfo) -> RingStateMsg;
    /// A node announced departure; drop it, return the new view.
    fn handle_leave(&self, name: &str) -> RingStateMsg;
    /// A peer broadcast its ring view; merge it, return our view (the
    /// reply doubles as anti-entropy for the sender).
    fn apply_ring(&self, msg: RingStateMsg) -> RingStateMsg;
    /// Current ring view (for gauges and `RingState` replies).
    fn ring_state(&self) -> RingStateMsg;
    /// A peer pushed a serialized `.rbplan`; verify and adopt it.
    fn accept_plan_push(&self, key: PlanKey, bytes: &[u8]) -> Result<(), (ErrCode, String)>;
    /// A peer wants our copy of a plan. `build_intent` set means the
    /// caller will build on `PlanNotFound` — the implementation grants
    /// the cluster-wide build slot to exactly one such puller.
    fn plan_data(&self, key: PlanKey, build_intent: bool) -> Result<Vec<u8>, (ErrCode, String)>;
    /// Relay a solve to `addr` asynchronously; results (or an
    /// `Upstream` error) arrive on `sink` tagged `base_tag + column`.
    /// A non-zero `trace_id` must travel with the relayed request
    /// (`SolveTraced`) so the owner's hop lands under the same id.
    #[allow(clippy::too_many_arguments)]
    fn proxy_solve(
        &self,
        addr: &str,
        tenant: &str,
        key: PlanKey,
        cols: Vec<Vec<S>>,
        base_tag: u64,
        deadline_ms: u32,
        trace_id: u64,
        sink: &Arc<dyn ResponseSink<S>>,
    );
}

/// Handle for requesting a graceful drain from any thread.
#[derive(Clone)]
pub struct NetCtl {
    shared: Arc<CtlShared>,
}

struct CtlShared {
    drain: AtomicBool,
    wake: UnixStream,
}

impl NetCtl {
    /// Begin draining: new solves are refused with `ShuttingDown`, queued
    /// and in-flight solves complete and flush, then the event loop exits.
    pub fn shutdown(&self) {
        self.shared.drain.store(true, Ordering::Release);
        let _ = (&self.shared.wake).write(&[1u8]);
    }
}

type Completion<S> = (u64, Result<Vec<S>, ServeError>);

/// Completion mailbox the compute tier delivers into; doubles as the
/// service's [`ResponseSink`].
struct Completions<S> {
    queue: Mutex<VecDeque<Completion<S>>>,
    wake: UnixStream,
    wake_pending: AtomicBool,
}

impl<S: Scalar> ResponseSink<S> for Completions<S> {
    fn deliver(&self, tag: u64, result: Result<Vec<S>, ServeError>) {
        self.queue.lock().unwrap().push_back((tag, result));
        // Injected fault: the wake byte is lost (stalled self-pipe). The
        // completion is queued either way; `wake_pending` stays false so a
        // later completion still wakes, and the event loop's bounded poll
        // timeout sweeps the queue regardless.
        if recblock_faults::fires(recblock_faults::FaultPoint::NetWake) {
            return;
        }
        if !self.wake_pending.swap(true, Ordering::AcqRel) {
            let _ = (&self.wake).write(&[1u8]);
        }
    }
}

struct TenantState {
    name: String,
    policy: TenantPolicy,
    bucket: TokenBucket,
    counters: Arc<TenantCounters>,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Read side still open and parsing (false after EOF or a fatal
    /// protocol error).
    reading: bool,
    /// Close once the write buffer drains.
    close_after_flush: bool,
    /// Admitted requests whose answers will route to this connection.
    refs: usize,
    /// Interests currently registered with the poller.
    registered: (bool, bool),
}

/// One admitted solve awaiting dispatch.
struct QueuedSolve {
    slot: u32,
    deadline: Option<Instant>,
}

/// One admitted solve from admission until its response is written.
struct Inflight<S> {
    conn: u32,
    conn_gen: u32,
    client_tag: u64,
    tenant: u16,
    k: u16,
    /// Columns still owed a completion.
    remaining: u16,
    cols: Vec<Vec<S>>,
    key: PlanKey,
    plan: Option<Arc<RecBlockSolver<S>>>,
    error: Option<ErrCode>,
    /// Dynamic detail for the error reply (e.g. a forwarded upstream
    /// message); `None` falls back to the static [`msg_for`] text.
    error_msg: Option<String>,
    /// End-to-end trace id; 0 means "untraced" (the plain `Solve` path,
    /// which stays allocation-free — hop recording is skipped entirely).
    trace_id: u64,
    /// When admission accepted the request (spans are measured from here).
    admitted_at: Instant,
    /// Whether this node relayed the solve to the plan's owner.
    proxied: bool,
}

/// The TCP front end: owns the listener, all connections and the QoS
/// state; drives everything from [`NetServer::turn`].
pub struct NetServer<S: Scalar> {
    listener: TcpListener,
    poller: Poller,
    events: Vec<Event>,
    config: NetConfig,
    service: Arc<SolveService<S>>,
    metrics: Arc<Metrics>,

    conns: Vec<Option<Conn>>,
    conn_gens: Vec<u32>,
    free_conns: Vec<usize>,
    open_conns: usize,

    tenants: Vec<TenantState>,
    tenant_ids: HashMap<String, usize>,
    fair: FairQueue<QueuedSolve>,

    inflight: Vec<Option<Inflight<S>>>,
    free_slots: Vec<usize>,
    /// Columns admitted and not yet answered (queued + dispatched).
    admitted_cols: usize,
    /// Columns handed to the compute tier and not yet completed.
    dispatched_cols: usize,

    completions: Arc<Completions<S>>,
    sink: Arc<dyn ResponseSink<S>>,
    wake_rx: UnixStream,
    ctl: Arc<CtlShared>,

    vec_pool: Vec<Vec<S>>,
    colset_pool: Vec<Vec<Vec<S>>>,
    keys_warm: HashSet<PlanKey>,
    cluster: Option<Arc<dyn ClusterHooks<S>>>,
    /// splitmix64 state for minting trace ids (seeded per server so two
    /// nodes never mint colliding ids in practice).
    trace_seed: u64,
    trace_counter: u64,

    draining: bool,
    done: bool,
}

fn map_serve_err(e: &ServeError) -> ErrCode {
    match e {
        ServeError::Overloaded { .. } => ErrCode::Overloaded,
        ServeError::ShuttingDown => ErrCode::ShuttingDown,
        ServeError::BadRequest { .. } => ErrCode::BadRequest,
        ServeError::Upstream { code, .. } => ErrCode::from_u16(*code).unwrap_or(ErrCode::Internal),
        ServeError::PlanBuild(_)
        | ServeError::Solver(_)
        | ServeError::Cancelled
        | ServeError::WorkerPanic => ErrCode::Internal,
    }
}

/// Wire code plus the dynamic detail worth forwarding to the client
/// (upstream nodes already phrase their errors for end clients).
fn err_code_and_msg(e: &ServeError) -> (ErrCode, Option<String>) {
    match e {
        ServeError::Upstream { message, .. } => (map_serve_err(e), Some(message.clone())),
        other => (map_serve_err(other), None),
    }
}

fn msg_for(code: ErrCode) -> &'static str {
    match code {
        ErrCode::RateLimited => "tenant token bucket exhausted; back off and retry",
        ErrCode::Overloaded => "service queue full; nothing was enqueued",
        ErrCode::ShedCost => "tenant queued-cost budget exhausted",
        ErrCode::DeadlineExceeded => "deadline expired before dispatch",
        ErrCode::PlanNotFound => "no plan for this fingerprint; run planctl precompute",
        ErrCode::BadRequest => "request shape does not match the plan",
        ErrCode::ShuttingDown => "server is draining",
        ErrCode::UnknownTenant => "tenant not configured and no default policy",
        ErrCode::Malformed => "undecodable frame; closing connection",
        ErrCode::Internal => "internal solve failure",
        ErrCode::Timeout => "request timed out",
        ErrCode::Redirect => "fingerprint owned by another node",
        ErrCode::BuildInProgress => "plan build in progress elsewhere; retry after backoff",
    }
}

impl<S: Scalar> NetServer<S> {
    /// Bind a listener and construct the server around a running
    /// [`SolveService`]. The service is shared — its in-process API keeps
    /// working alongside the network front end.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: NetConfig,
        service: Arc<SolveService<S>>,
    ) -> io::Result<NetServer<S>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;

        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, true, false)?;

        let metrics = service.shared_metrics();
        let now = Instant::now();
        let mut tenants = Vec::new();
        let mut tenant_ids = HashMap::new();
        let mut fair = FairQueue::new();
        for (name, policy) in &config.tenants {
            let lane = fair.add_lane(policy.weight);
            debug_assert_eq!(lane, tenants.len());
            tenant_ids.insert(name.clone(), tenants.len());
            tenants.push(TenantState {
                name: name.clone(),
                policy: policy.clone(),
                bucket: TokenBucket::new(policy.rate_cost_per_sec, policy.burst_cost, now),
                counters: metrics.tenant(name),
            });
        }

        let completions = Arc::new(Completions {
            queue: Mutex::new(VecDeque::with_capacity(config.max_inflight + 16)),
            wake: wake_tx.try_clone()?,
            wake_pending: AtomicBool::new(false),
        });
        let sink: Arc<dyn ResponseSink<S>> = completions.clone();
        let ctl = Arc::new(CtlShared { drain: AtomicBool::new(false), wake: wake_tx });

        let conn_cap = config.max_connections.min(1 << 16);
        Ok(NetServer {
            listener,
            poller,
            events: Vec::with_capacity(256),
            inflight: Vec::with_capacity(config.max_inflight.min(1 << 20)),
            free_slots: Vec::with_capacity(config.max_inflight.min(1 << 20)),
            config,
            service,
            metrics,
            // Free lists are reserved up front so connection churn and
            // slot recycling never grow them on the hot path.
            conns: Vec::with_capacity(conn_cap),
            conn_gens: Vec::with_capacity(conn_cap),
            free_conns: Vec::with_capacity(conn_cap),
            open_conns: 0,
            tenants,
            tenant_ids,
            fair,
            admitted_cols: 0,
            dispatched_cols: 0,
            completions,
            sink,
            wake_rx,
            ctl,
            vec_pool: Vec::with_capacity(POOL_VECS),
            colset_pool: Vec::with_capacity(POOL_COLSETS),
            keys_warm: HashSet::new(),
            cluster: None,
            trace_seed: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9E37_79B9_7F4A_7C15)
                ^ ((std::process::id() as u64) << 32),
            trace_counter: 0,
            draining: false,
            done: false,
        })
    }

    /// Attach a cluster coordinator: solve requests are routed through
    /// [`ClusterHooks::route`] before the local plan path, and the v2
    /// membership/migration frames are accepted on this listener.
    pub fn with_cluster(mut self, hooks: Arc<dyn ClusterHooks<S>>) -> Self {
        let ring = hooks.ring_state();
        self.sync_cluster_gauges(&ring);
        self.cluster = Some(hooks);
        self
    }

    /// Address the listener bound to (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A cloneable handle that can request a graceful drain.
    pub fn ctl(&self) -> NetCtl {
        NetCtl { shared: self.ctl.clone() }
    }

    /// Drive the loop until drained. Equivalent to calling
    /// [`NetServer::turn`] forever.
    pub fn run(&mut self) -> io::Result<()> {
        while self.turn(Some(Duration::from_millis(500)))? {}
        Ok(())
    }

    /// One event-loop iteration: wait (up to `timeout`), service sockets,
    /// collect completions, dispatch under DRR order. Returns `false`
    /// once a requested drain has fully completed.
    pub fn turn(&mut self, timeout: Option<Duration>) -> io::Result<bool> {
        if self.done {
            return Ok(false);
        }
        if self.ctl.drain.load(Ordering::Acquire) {
            self.draining = true;
        }
        let mut events = std::mem::take(&mut self.events);
        self.poller.wait(&mut events, timeout)?;
        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => self.accept_all(),
                TOKEN_WAKE => self.drain_wake(),
                t => {
                    let idx = (t - TOKEN_BASE) as usize;
                    if ev.readable {
                        self.read_conn(idx);
                    }
                    if ev.writable {
                        self.flush_conn(idx);
                    }
                }
            }
        }
        self.events = events;
        self.handle_completions();
        self.dispatch();
        if self.draining && self.drained() {
            self.finish_drain();
            return Ok(false);
        }
        Ok(true)
    }

    fn drained(&self) -> bool {
        self.fair.is_empty()
            && self.admitted_cols == 0
            && self.conns.iter().flatten().all(|c| c.wpos >= c.wbuf.len())
    }

    fn finish_drain(&mut self) {
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close_conn(idx);
            }
        }
        let _ = self.poller.remove(self.listener.as_raw_fd());
        self.done = true;
    }

    // ---- sockets ---------------------------------------------------------

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Injected fault: the peer vanished between accept and
                    // registration (RST under SYN flood). Drop and move on.
                    if recblock_faults::fires(recblock_faults::FaultPoint::NetAccept) {
                        drop(stream);
                        continue;
                    }
                    if self.open_conns >= self.config.max_connections || self.done {
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = match self.free_conns.pop() {
                        Some(i) => i,
                        None => {
                            self.conns.push(None);
                            self.conn_gens.push(0);
                            self.conns.len() - 1
                        }
                    };
                    let token = TOKEN_BASE + idx as u64;
                    if self.poller.add(stream.as_raw_fd(), token, true, false).is_err() {
                        self.free_conns.push(idx);
                        continue;
                    }
                    self.conns[idx] = Some(Conn {
                        stream,
                        rbuf: Vec::new(),
                        rpos: 0,
                        wbuf: Vec::new(),
                        wpos: 0,
                        reading: true,
                        close_after_flush: false,
                        refs: 0,
                        registered: (true, false),
                    });
                    self.open_conns += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn read_conn(&mut self, idx: usize) {
        let mut eof = false;
        let mut dead = false;
        {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if !conn.reading {
                return;
            }
            for _ in 0..MAX_READ_ROUNDS {
                // Injected fault: a spurious-wake/EAGAIN storm. Pretending
                // the socket had nothing is lossless — the poller is
                // level-triggered, so unread bytes re-raise the event.
                if recblock_faults::fires(recblock_faults::FaultPoint::NetRead) {
                    break;
                }
                let old = conn.rbuf.len();
                conn.rbuf.resize(old + READ_CHUNK, 0);
                match conn.stream.read(&mut conn.rbuf[old..]) {
                    Ok(0) => {
                        conn.rbuf.truncate(old);
                        eof = true;
                        break;
                    }
                    Ok(n) => conn.rbuf.truncate(old + n),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        conn.rbuf.truncate(old);
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                        conn.rbuf.truncate(old);
                    }
                    Err(_) => {
                        conn.rbuf.truncate(old);
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close_conn(idx);
            return;
        }
        self.process_frames(idx);
        if eof {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.reading = false;
            }
            self.maybe_close(idx);
        }
        self.update_interest(idx);
    }

    /// Decode and handle every complete frame buffered on `idx`.
    fn process_frames(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if !conn.reading {
                break;
            }
            // Take the read buffer so the payload can be borrowed while
            // `self` stays mutable (swap with an empty vec: no allocation).
            let rbuf = std::mem::take(&mut conn.rbuf);
            let rpos = conn.rpos;
            let outcome = frame::decode_header(&rbuf[rpos..], self.config.max_frame_bytes);
            let mut advance = 0usize;
            match outcome {
                Ok(None) => {}
                Ok(Some(h)) => {
                    let total = HEADER_LEN + h.payload_len as usize;
                    if rbuf.len() - rpos >= total {
                        advance = total;
                        let payload = &rbuf[rpos + HEADER_LEN..rpos + total];
                        self.handle_frame(idx, h, payload);
                    }
                }
                Err(e) => {
                    self.frame_error(idx, &e);
                }
            }
            let Some(conn) = self.conns[idx].as_mut() else { return };
            conn.rbuf = rbuf;
            if advance == 0 {
                break;
            }
            conn.rpos += advance;
        }
        // Compact the consumed prefix without reallocating.
        if let Some(conn) = self.conns[idx].as_mut() {
            if conn.rpos > 0 {
                let len = conn.rbuf.len();
                conn.rbuf.copy_within(conn.rpos..len, 0);
                conn.rbuf.truncate(len - conn.rpos);
                conn.rpos = 0;
            }
        }
    }

    /// A stream-level decode failure: answer with a typed error, stop
    /// parsing, close once the answer flushes (the stream cannot be
    /// resynchronised after bad bytes).
    fn frame_error(&mut self, idx: usize, _e: &FrameError) {
        self.reply_err(idx, 0, ErrCode::Malformed);
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.reading = false;
            conn.close_after_flush = true;
        }
        self.maybe_close(idx);
    }

    fn handle_frame(&mut self, idx: usize, h: Header, payload: &[u8]) {
        if !h.version_covers_kind() {
            // A v1-stamped header carrying a v2-only kind: the peer is
            // speaking a protocol older than the frame it sent. Answer
            // typed instead of tearing the connection down.
            self.reply_err_msg(
                idx,
                h.tag,
                ErrCode::BadRequest,
                "frame kind requires protocol v2 but header claims v1",
            );
            return;
        }
        match h.kind {
            FrameKind::Ping => {
                if let Some(conn) = self.conns[idx].as_mut() {
                    frame::encode_header(&mut conn.wbuf, FrameKind::Pong, h.tag, 0);
                }
                self.flush_conn(idx);
            }
            FrameKind::Stat => self.handle_stat(idx, h.tag),
            FrameKind::Solve => self.handle_solve(idx, h.tag, payload),
            FrameKind::SolveTraced => self.handle_solve_traced(idx, h.tag, payload),
            FrameKind::TraceGet => self.handle_trace_get(idx, h.tag, payload),
            FrameKind::Join => self.handle_join(idx, h.tag, payload),
            FrameKind::Leave => self.handle_leave(idx, h.tag, payload),
            FrameKind::RingState => self.handle_ring_state(idx, h.tag, payload),
            FrameKind::PlanPush => self.handle_plan_push(idx, h.tag, payload),
            FrameKind::PlanPull => self.handle_plan_pull(idx, h.tag, payload),
            FrameKind::SolveOk
            | FrameKind::Err
            | FrameKind::Pong
            | FrameKind::StatOk
            | FrameKind::PlanPushOk
            | FrameKind::PlanData
            | FrameKind::TraceData => {
                // Response kinds are server-to-client only.
                self.reply_err(idx, h.tag, ErrCode::BadRequest);
            }
        }
    }

    // ---- cluster frames --------------------------------------------------

    /// The coordinator, or a typed refusal when this node is not part
    /// of a cluster (v2 frames on a standalone server are not fatal).
    fn cluster_hooks(&mut self, idx: usize, tag: u64) -> Option<Arc<dyn ClusterHooks<S>>> {
        match self.cluster.clone() {
            Some(h) => Some(h),
            None => {
                self.reply_err_msg(
                    idx,
                    tag,
                    ErrCode::BadRequest,
                    "this node is not part of a cluster",
                );
                None
            }
        }
    }

    fn sync_cluster_gauges(&self, ring: &RingStateMsg) {
        self.metrics.cluster_ring_epoch.store(ring.epoch, Ordering::Relaxed);
        self.metrics.cluster_members.store(ring.members.len() as u64, Ordering::Relaxed);
    }

    fn send_ring_state(&mut self, idx: usize, tag: u64, ring: &RingStateMsg) {
        self.sync_cluster_gauges(ring);
        if let Some(conn) = self.conns[idx].as_mut() {
            frame::encode_ring_state(&mut conn.wbuf, tag, ring);
        }
        self.flush_conn(idx);
    }

    fn handle_join(&mut self, idx: usize, tag: u64, payload: &[u8]) {
        let Some(hooks) = self.cluster_hooks(idx, tag) else { return };
        let member = match frame::parse_join(payload) {
            Ok(m) => m,
            Err(_) => {
                self.reply_err(idx, tag, ErrCode::Malformed);
                return;
            }
        };
        let ring = hooks.handle_join(member);
        self.send_ring_state(idx, tag, &ring);
    }

    fn handle_leave(&mut self, idx: usize, tag: u64, payload: &[u8]) {
        let Some(hooks) = self.cluster_hooks(idx, tag) else { return };
        let ring = match frame::parse_leave(payload) {
            Ok(name) => hooks.handle_leave(name),
            Err(_) => {
                self.reply_err(idx, tag, ErrCode::Malformed);
                return;
            }
        };
        self.send_ring_state(idx, tag, &ring);
    }

    fn handle_ring_state(&mut self, idx: usize, tag: u64, payload: &[u8]) {
        let Some(hooks) = self.cluster_hooks(idx, tag) else { return };
        let ring = match frame::parse_ring_state(payload) {
            Ok(msg) => hooks.apply_ring(msg),
            Err(_) => {
                self.reply_err(idx, tag, ErrCode::Malformed);
                return;
            }
        };
        // The reply carries our post-merge view: the sender learns
        // anything we knew that it did not (anti-entropy).
        self.send_ring_state(idx, tag, &ring);
    }

    fn handle_plan_push(&mut self, idx: usize, tag: u64, payload: &[u8]) {
        let Some(hooks) = self.cluster_hooks(idx, tag) else { return };
        let transfer = match frame::parse_plan_transfer(payload) {
            Ok(t) => t,
            Err(_) => {
                self.reply_err(idx, tag, ErrCode::Malformed);
                return;
            }
        };
        match hooks.accept_plan_push(transfer.key, transfer.bytes) {
            Ok(()) => {
                self.metrics.cluster_plans_received.fetch_add(1, Ordering::Relaxed);
                self.keys_warm.insert(transfer.key);
                if let Some(conn) = self.conns[idx].as_mut() {
                    frame::encode_header(&mut conn.wbuf, FrameKind::PlanPushOk, tag, 0);
                }
                self.flush_conn(idx);
            }
            Err((code, msg)) => self.reply_err_msg(idx, tag, code, &msg),
        }
    }

    fn handle_plan_pull(&mut self, idx: usize, tag: u64, payload: &[u8]) {
        let Some(hooks) = self.cluster_hooks(idx, tag) else { return };
        let (key, intent) = match frame::parse_plan_pull(payload) {
            Ok(p) => p,
            Err(_) => {
                self.reply_err(idx, tag, ErrCode::Malformed);
                return;
            }
        };
        match hooks.plan_data(key, intent) {
            Ok(bytes) => {
                self.metrics.cluster_plans_served.fetch_add(1, Ordering::Relaxed);
                if let Some(conn) = self.conns[idx].as_mut() {
                    frame::encode_plan_data(&mut conn.wbuf, tag, &key, &bytes);
                }
                self.flush_conn(idx);
            }
            Err((code, msg)) => self.reply_err_msg(idx, tag, code, &msg),
        }
    }

    fn handle_stat(&mut self, idx: usize, tag: u64) {
        // Health folds the front end's own drain state in: the serve tier
        // only knows it is draining once `SolveService::drain` runs, which
        // happens after this loop empties.
        let health =
            if self.draining { recblock_serve::Health::Draining } else { self.service.health() };
        let mut stat = StatReply {
            draining: self.draining,
            health: health as u8,
            plans_warm: self.keys_warm.len() as u32,
            inflight: self.dispatched_cols as u32,
            tenants: Vec::with_capacity(self.tenants.len()),
        };
        for t in &self.tenants {
            let c = &t.counters;
            let ld = Ordering::Relaxed;
            stat.tenants.push(TenantStat {
                tenant: t.name.clone(),
                queue_depth: c.queue_depth.load(ld),
                admitted: c.admitted.load(ld),
                completed: c.completed.load(ld),
                admission_rejected: c.admission_rejected.load(ld),
                shed: c.shed_by_cost.load(ld) + c.shed_by_deadline.load(ld),
            });
        }
        stat.tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        if let Some(conn) = self.conns[idx].as_mut() {
            frame::encode_stat_reply(&mut conn.wbuf, tag, &stat);
        }
        self.flush_conn(idx);
    }

    // ---- tracing ---------------------------------------------------------

    /// Mint a fresh non-zero trace id (splitmix64 over a per-server seed).
    fn mint_trace_id(&mut self) -> u64 {
        self.trace_counter += 1;
        let mut z =
            self.trace_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.trace_counter));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let id = z ^ (z >> 31);
        id.max(1)
    }

    fn handle_trace_get(&mut self, idx: usize, tag: u64, payload: &[u8]) {
        let key = match frame::parse_trace_get(payload) {
            Ok(k) => k,
            Err(_) => {
                self.reply_err(idx, tag, ErrCode::Malformed);
                return;
            }
        };
        let hops: Vec<TraceHopMsg> = self
            .metrics
            .trace_hops_for(&key)
            .into_iter()
            .map(|h| TraceHopMsg {
                trace_id: h.trace_id,
                node: h.node,
                tenant: h.tenant,
                k: h.k,
                solve_ns: h.solve_ns,
                respond_ns: h.respond_ns,
                total_ns: h.total_ns,
                proxied: h.proxied,
            })
            .collect();
        if let Some(conn) = self.conns[idx].as_mut() {
            frame::encode_trace_data(&mut conn.wbuf, tag, &hops);
        }
        self.flush_conn(idx);
    }

    // ---- admission -------------------------------------------------------

    fn handle_solve(&mut self, idx: usize, tag: u64, payload: &[u8]) {
        match frame::parse_solve(payload) {
            // Plain solves are untraced (trace id 0): their steady-state
            // path stays allocation-free.
            Ok(req) => self.admit_solve(idx, tag, 0, &req),
            Err(_) => {
                // The frame boundary itself was sound (header length
                // matched), so the connection survives a bad payload.
                self.reply_err(idx, tag, ErrCode::Malformed);
            }
        }
    }

    fn handle_solve_traced(&mut self, idx: usize, tag: u64, payload: &[u8]) {
        match frame::parse_solve_traced(payload) {
            Ok((trace_id, req)) => {
                // A zero id asks this node to mint one (the client cannot
                // pick ids — proxy hops forward the minted id instead).
                let trace_id = if trace_id == 0 { self.mint_trace_id() } else { trace_id };
                self.admit_solve(idx, tag, trace_id, &req);
            }
            Err(_) => {
                self.reply_err(idx, tag, ErrCode::Malformed);
            }
        }
    }

    fn admit_solve(&mut self, idx: usize, tag: u64, trace_id: u64, req: &frame::SolveRequest<'_>) {
        let Some(t) = self.tenant_id(req.tenant) else {
            self.reply_err(idx, tag, ErrCode::UnknownTenant);
            return;
        };
        if self.draining {
            self.reply_err(idx, tag, ErrCode::ShuttingDown);
            return;
        }
        if req.width as usize != S::BYTES
            || req.k > self.config.max_rhs_per_request
            || req.n > usize::MAX as u64
        {
            self.reply_err(idx, tag, ErrCode::BadRequest);
            return;
        }
        // Cluster routing happens before the local plan path: a
        // non-owner either relays to the owner or redirects the client,
        // so plans only ever materialise on the nodes the ring assigns.
        if let Some(hooks) = self.cluster.clone() {
            match hooks.route(&req.key) {
                Route::Local => {}
                Route::Redirect(addr) => {
                    self.metrics.cluster_redirects.fetch_add(1, Ordering::Relaxed);
                    self.reply_err_msg(idx, tag, ErrCode::Redirect, &addr);
                    return;
                }
                Route::Proxy(addr) => {
                    self.proxy_solve(idx, tag, t, req, &addr, trace_id, &hooks);
                    return;
                }
            }
        }
        let plan = match self.service.resolve_key(req.key) {
            Ok(Some((plan, _src))) => plan,
            Ok(None) => {
                self.reply_err(idx, tag, ErrCode::PlanNotFound);
                return;
            }
            Err(e) => {
                self.reply_err(idx, tag, map_serve_err(&e));
                return;
            }
        };
        if plan.n() != req.n as usize {
            self.reply_err(idx, tag, ErrCode::BadRequest);
            return;
        }
        self.keys_warm.insert(req.key);

        let cost = req.cost();
        let now = Instant::now();
        let tenant = &mut self.tenants[t];
        if !tenant.bucket.try_take(cost as f64, now) {
            tenant.counters.admission_rejected.fetch_add(1, Ordering::Relaxed);
            self.reply_err(idx, tag, ErrCode::RateLimited);
            return;
        }
        if self.fair.lane_cost(t) + cost as f64 > tenant.policy.max_queued_cost {
            tenant.counters.shed_by_cost.fetch_add(1, Ordering::Relaxed);
            self.reply_err(idx, tag, ErrCode::ShedCost);
            return;
        }
        if self.admitted_cols + req.k as usize > self.config.max_inflight {
            self.reply_err(idx, tag, ErrCode::Overloaded);
            return;
        }

        // Admitted: copy the value columns into pooled buffers.
        let mut cols = self.colset_pool.pop().unwrap_or_default();
        cols.clear();
        for j in 0..req.k as usize {
            let mut v = self.vec_pool.pop().unwrap_or_default();
            if frame::decode_scalars::<S>(req.col_bytes(j), req.width, &mut v).is_err() {
                unreachable!("width checked above");
            }
            cols.push(v);
        }
        let deadline_ms = if req.deadline_ms > 0 {
            req.deadline_ms
        } else {
            self.tenants[t].policy.default_deadline_ms
        };
        let deadline = (deadline_ms > 0).then(|| now + Duration::from_millis(deadline_ms.into()));

        let slot = self.alloc_slot(Inflight {
            conn: idx as u32,
            conn_gen: self.conn_gens[idx],
            client_tag: tag,
            tenant: t as u16,
            k: req.k,
            remaining: req.k,
            cols,
            key: req.key,
            plan: Some(plan),
            error: None,
            error_msg: None,
            trace_id,
            admitted_at: now,
            proxied: false,
        });
        self.admitted_cols += req.k as usize;
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.refs += 1;
        }
        self.fair.push(t, cost as f64, QueuedSolve { slot, deadline });
        let counters = &self.tenants[t].counters;
        counters.admitted.fetch_add(1, Ordering::Relaxed);
        counters.admitted_cost.fetch_add(cost, Ordering::Relaxed);
        counters.queue_depth.store(self.fair.lane_depth(t) as u64, Ordering::Relaxed);
    }

    /// Admit a solve that a peer node will compute: allocate an
    /// in-flight slot so the answer routes back through the normal
    /// completion path, then hand the columns to the coordinator's
    /// proxy workers. Admission still charges this tenant's token
    /// bucket — the proxy consumes this node's sockets and buffers.
    #[allow(clippy::too_many_arguments)]
    fn proxy_solve(
        &mut self,
        idx: usize,
        tag: u64,
        t: usize,
        req: &frame::SolveRequest<'_>,
        addr: &str,
        trace_id: u64,
        hooks: &Arc<dyn ClusterHooks<S>>,
    ) {
        let cost = req.cost();
        let now = Instant::now();
        let tenant = &mut self.tenants[t];
        if !tenant.bucket.try_take(cost as f64, now) {
            tenant.counters.admission_rejected.fetch_add(1, Ordering::Relaxed);
            self.reply_err(idx, tag, ErrCode::RateLimited);
            return;
        }
        if self.admitted_cols + req.k as usize > self.config.max_inflight {
            self.reply_err(idx, tag, ErrCode::Overloaded);
            return;
        }
        let mut cols = Vec::with_capacity(req.k as usize);
        let mut placeholders = self.colset_pool.pop().unwrap_or_default();
        placeholders.clear();
        for j in 0..req.k as usize {
            let mut v = self.vec_pool.pop().unwrap_or_default();
            if frame::decode_scalars::<S>(req.col_bytes(j), req.width, &mut v).is_err() {
                unreachable!("width checked above");
            }
            cols.push(v);
            placeholders.push(Vec::new());
        }
        let deadline_ms = if req.deadline_ms > 0 {
            req.deadline_ms
        } else {
            self.tenants[t].policy.default_deadline_ms
        };
        let slot = self.alloc_slot(Inflight {
            conn: idx as u32,
            conn_gen: self.conn_gens[idx],
            client_tag: tag,
            tenant: t as u16,
            k: req.k,
            remaining: req.k,
            cols: placeholders,
            key: req.key,
            plan: None,
            error: None,
            error_msg: None,
            trace_id,
            admitted_at: now,
            proxied: true,
        });
        self.admitted_cols += req.k as usize;
        // The columns are "dispatched" to the proxy tier: completions
        // decrement this exactly like compute-tier completions.
        self.dispatched_cols += req.k as usize;
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.refs += 1;
        }
        let counters = &self.tenants[t].counters;
        counters.admitted.fetch_add(1, Ordering::Relaxed);
        counters.admitted_cost.fetch_add(cost, Ordering::Relaxed);
        self.metrics.cluster_proxied.fetch_add(1, Ordering::Relaxed);
        let base_tag = (slot as u64) << 32;
        let tenant_name = self.tenants[t].name.clone();
        hooks.proxy_solve(
            addr,
            &tenant_name,
            req.key,
            cols,
            base_tag,
            deadline_ms,
            trace_id,
            &self.sink,
        );
    }

    /// Resolve a tenant name to its lane, registering it under the default
    /// policy when allowed.
    fn tenant_id(&mut self, name: &str) -> Option<usize> {
        if let Some(&t) = self.tenant_ids.get(name) {
            return Some(t);
        }
        let policy = self.config.default_policy.clone()?;
        let lane = self.fair.add_lane(policy.weight);
        debug_assert_eq!(lane, self.tenants.len());
        self.tenant_ids.insert(name.to_string(), lane);
        let now = Instant::now();
        self.tenants.push(TenantState {
            name: name.to_string(),
            bucket: TokenBucket::new(policy.rate_cost_per_sec, policy.burst_cost, now),
            counters: self.metrics.tenant(name),
            policy,
        });
        Some(lane)
    }

    fn alloc_slot(&mut self, inf: Inflight<S>) -> u32 {
        match self.free_slots.pop() {
            Some(i) => {
                self.inflight[i] = Some(inf);
                i as u32
            }
            None => {
                self.inflight.push(Some(inf));
                (self.inflight.len() - 1) as u32
            }
        }
    }

    // ---- dispatch --------------------------------------------------------

    /// Hand queued solves to the compute tier in DRR order, stopping at
    /// the per-turn burst or when the compute queue has no room — queued
    /// work then waits in the fair queue, which stays the arbiter of
    /// inter-tenant order.
    fn dispatch(&mut self) {
        let mut budget = self.config.dispatch_burst;
        while budget > 0 {
            let Some((lane, cost, q)) = self.fair.pop() else { break };
            self.store_lane_depth(lane);

            if q.deadline.is_some_and(|d| Instant::now() > d) {
                self.tenants[lane].counters.shed_by_deadline.fetch_add(1, Ordering::Relaxed);
                self.fail_slot(q.slot, ErrCode::DeadlineExceeded);
                continue;
            }

            let slot = q.slot as usize;
            let (key, plan, k) = {
                let inf = self.inflight[slot].as_ref().expect("queued slot live");
                (inf.key, inf.plan.clone().expect("plan held until dispatch"), inf.k)
            };
            if self.service.queue_available() < k as usize {
                // Hold the whole request; retry next turn.
                self.fair.push_front(lane, cost, q);
                self.store_lane_depth(lane);
                break;
            }
            budget -= 1;

            let mut submitted = 0u16;
            let mut failure: Option<ErrCode> = None;
            for j in 0..k {
                let rhs = {
                    let inf = self.inflight[slot].as_mut().expect("slot live");
                    std::mem::take(&mut inf.cols[j as usize])
                };
                let tag = ((q.slot as u64) << 32) | j as u64;
                // The capacity pre-check makes failure here exceptional
                // (a racing in-process submitter filled the queue); the
                // column buffer is consumed either way.
                match self.service.submit_routed(key, &plan, rhs, tag, &self.sink) {
                    Ok(()) => submitted += 1,
                    Err(e) => {
                        failure = Some(map_serve_err(&e));
                        break;
                    }
                }
            }
            self.dispatched_cols += submitted as usize;
            let inf = self.inflight[slot].as_mut().expect("slot live");
            if let Some(code) = failure {
                // The submitted columns still complete; the response then
                // becomes the recorded error.
                inf.error = Some(code);
                inf.remaining = submitted;
                if submitted == 0 {
                    self.fail_slot(q.slot, code);
                }
            } else {
                // Fully dispatched; the plan reference is no longer needed.
                inf.plan = None;
            }
        }
    }

    fn store_lane_depth(&self, lane: usize) {
        self.tenants[lane]
            .counters
            .queue_depth
            .store(self.fair.lane_depth(lane) as u64, Ordering::Relaxed);
    }

    // ---- completions -----------------------------------------------------

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.completions.wake_pending.store(false, Ordering::Release);
    }

    fn handle_completions(&mut self) {
        loop {
            let item = self.completions.queue.lock().unwrap().pop_front();
            let Some((tag, result)) = item else { break };
            let slot = (tag >> 32) as usize;
            let j = (tag & u32::MAX as u64) as usize;
            self.dispatched_cols -= 1;
            let finished = {
                let inf = self.inflight[slot].as_mut().expect("completion for live slot");
                match result {
                    Ok(x) => inf.cols[j] = x,
                    Err(e) => {
                        if inf.error.is_none() {
                            if matches!(e, ServeError::Upstream { .. }) {
                                self.metrics.cluster_proxy_errors.fetch_add(1, Ordering::Relaxed);
                            }
                            let (code, msg) = err_code_and_msg(&e);
                            inf.error = Some(code);
                            inf.error_msg = msg;
                        }
                    }
                }
                inf.remaining -= 1;
                inf.remaining == 0
            };
            if finished {
                self.finish_slot(slot as u32);
            }
        }
    }

    /// Answer a slot that never reached the compute tier with an error.
    fn fail_slot(&mut self, slot: u32, code: ErrCode) {
        {
            let inf = self.inflight[slot as usize].as_mut().expect("slot live");
            inf.error = Some(code);
            inf.remaining = 0;
        }
        self.finish_slot(slot);
    }

    /// All columns of `slot` are accounted for: write the response (if the
    /// connection is still the one that asked), recycle buffers, free the
    /// slot.
    fn finish_slot(&mut self, slot: u32) {
        let mut inf = self.inflight[slot as usize].take().expect("slot live");
        self.free_slots.push(slot as usize);
        self.admitted_cols -= inf.k as usize;
        let solved_at = Instant::now();
        let mut handed_off = None;

        let counters = self.tenants[inf.tenant as usize].counters.clone();
        let cidx = inf.conn as usize;
        let alive = self.conn_gens.get(cidx) == Some(&inf.conn_gen) && self.conns[cidx].is_some();
        match inf.error {
            Some(code) => {
                counters.failed.fetch_add(1, Ordering::Relaxed);
                if alive {
                    match inf.error_msg.take() {
                        Some(m) => self.reply_err_msg(cidx, inf.client_tag, code, &m),
                        None => self.reply_err(cidx, inf.client_tag, code),
                    }
                }
            }
            None => {
                counters.completed.fetch_add(1, Ordering::Relaxed);
                if alive {
                    let conn = self.conns[cidx].as_mut().expect("alive");
                    frame::encode_solve_ok(&mut conn.wbuf, inf.client_tag, &inf.cols);
                    handed_off = Some(Instant::now());
                    self.flush_conn(cidx);
                }
            }
        }
        // Traced request: stamp the per-node hop. `solve_ns` is the span
        // a caller waits on (admission → last column completed, queueing
        // included); `respond_ns` covers encoding the reply. A successful
        // hop ends when its reply is handed to the socket, not when the
        // write returns: the write wakes the waiting peer and this thread
        // can be preempted after the bytes are delivered, and a proxied
        // hop must end inside the upstream span that waits for it.
        // Untraced requests (trace id 0) skip this entirely, keeping the
        // plain-solve path allocation-free.
        if inf.trace_id != 0 {
            let responded_at = handed_off.unwrap_or_else(Instant::now);
            self.metrics.record_trace_hop(TraceHop {
                trace_id: inf.trace_id,
                key: inf.key,
                node: self.config.node_name.clone(),
                tenant: self.tenants[inf.tenant as usize].name.clone(),
                k: inf.k,
                solve_ns: solved_at.duration_since(inf.admitted_at).as_nanos() as u64,
                respond_ns: responded_at.duration_since(solved_at).as_nanos() as u64,
                total_ns: responded_at.duration_since(inf.admitted_at).as_nanos() as u64,
                proxied: inf.proxied,
            });
        }
        // Recycle buffers (bounded pools).
        for mut v in inf.cols.drain(..) {
            if self.vec_pool.len() < POOL_VECS {
                v.clear();
                self.vec_pool.push(v);
            }
        }
        if self.colset_pool.len() < POOL_COLSETS {
            self.colset_pool.push(inf.cols);
        }
        if alive {
            if let Some(conn) = self.conns[cidx].as_mut() {
                conn.refs -= 1;
            }
            self.maybe_close(cidx);
        }
    }

    // ---- writing ---------------------------------------------------------

    fn reply_err(&mut self, idx: usize, tag: u64, code: ErrCode) {
        if let Some(conn) = self.conns[idx].as_mut() {
            frame::encode_err(&mut conn.wbuf, tag, code, msg_for(code));
        }
        self.flush_conn(idx);
    }

    /// Like [`NetServer::reply_err`] but with a dynamic message —
    /// `Redirect` carries the owner's address, proxied errors carry the
    /// upstream node's wording.
    fn reply_err_msg(&mut self, idx: usize, tag: u64, code: ErrCode, msg: &str) {
        if let Some(conn) = self.conns[idx].as_mut() {
            frame::encode_err(&mut conn.wbuf, tag, code, msg);
        }
        self.flush_conn(idx);
    }

    /// Write as much of the buffer as the socket takes right now, then
    /// register write interest for the rest.
    fn flush_conn(&mut self, idx: usize) {
        let mut close = false;
        {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            loop {
                if conn.wpos >= conn.wbuf.len() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    if conn.close_after_flush && conn.refs == 0 {
                        close = true;
                    }
                    break;
                }
                // Injected fault: the socket pretends to be full. The
                // pending bytes register write interest below and the
                // level-triggered poller retries the flush.
                if recblock_faults::fires(recblock_faults::FaultPoint::NetWrite) {
                    break;
                }
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => conn.wpos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if !close && conn.wbuf.len() - conn.wpos > self.config.max_write_buffer {
                // The peer reads slower than it submits; cut it loose.
                close = true;
            }
        }
        if close {
            self.close_conn(idx);
        } else {
            self.update_interest(idx);
        }
    }

    /// Re-register poller interests when they changed: read while parsing,
    /// write while bytes are pending.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let want = (conn.reading, conn.wpos < conn.wbuf.len());
        if want != conn.registered {
            let token = TOKEN_BASE + idx as u64;
            if self.poller.modify(conn.stream.as_raw_fd(), token, want.0, want.1).is_ok() {
                conn.registered = want;
            }
        }
    }

    /// Close a connection that is finished: not reading, nothing buffered,
    /// no admitted requests still routing to it.
    fn maybe_close(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_ref() else { return };
        if !conn.reading && conn.wpos >= conn.wbuf.len() && conn.refs == 0 {
            self.close_conn(idx);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            self.conn_gens[idx] = self.conn_gens[idx].wrapping_add(1);
            self.free_conns.push(idx);
            self.open_conns -= 1;
        }
    }
}
