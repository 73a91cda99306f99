//! RBNET: the versioned, length-prefixed binary frame protocol.
//!
//! Every message is one frame: a fixed 24-byte little-endian header
//! followed by `payload_len` payload bytes.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "RBNT"
//! 4       1     version (1 for the v1 kinds, 2 for the v2 cluster kinds)
//! 5       1     kind
//! 6       2     reserved, must be zero
//! 8       8     tag     (echoed verbatim in the response)
//! 16      4     payload_len
//! 20      4     reserved, must be zero
//! ```
//!
//! **v1 kinds** (version byte 1 — the original point-to-point protocol):
//! Solve=1 SolveOk=2 Err=3 Ping=4 Pong=5 Stat=6 StatOk=7.
//!
//! **v2 kinds** (version byte 2 — cluster traffic between nodes, plus
//! request tracing): Join=8 Leave=9 RingState=10 PlanPush=11
//! PlanPushOk=12 PlanPull=13 PlanData=14 SolveTraced=15 TraceGet=16
//! TraceData=17.
//!
//! Version negotiation is per frame, not per connection: every v1 frame
//! this build emits is byte-identical to a v1 build's, so old clients
//! interoperate untouched, and a v2-capable server still answers v1
//! traffic in v1. A header whose version byte is *lower* than its kind
//! requires (a v1 client somehow emitting a v2-only kind — a mismatched
//! build) still decodes; the server answers it with a typed
//! [`ErrCode::BadRequest`](crate::error::ErrCode) `Err` frame instead of
//! silently killing the connection. Versions above [`VERSION`] are
//! rejected as [`FrameError::BadVersion`].
//!
//! Solve request payload:
//!
//! ```text
//! 1                tenant_len (1..=64)
//! tenant_len       tenant name, UTF-8
//! 8×4              structure fingerprint: nrows ncols nnz hash
//! 8                value digest
//! 4                deadline_ms (0 → tenant default)
//! 1                scalar width in bytes (4 or 8)
//! 2                k, number of right-hand-side columns (≥ 1)
//! 8                n, rows per column
//! k×n×width        column-major values, little-endian
//! ```
//!
//! `SolveOk` mirrors the tail (`width, k, n, values`); `Err` is
//! `code:u16 msg_len:u16 msg`; `Ping`/`Pong`/`Stat` carry no payload and
//! `StatOk` is described at [`StatReply`].
//!
//! Cluster payloads (all little-endian; a "plan key" is the 40-byte
//! `nrows ncols nnz hash value_digest` block, a "member" is
//! `name_len:u8 name addr_len:u16 addr`):
//!
//! ```text
//! Join        member                      (node asking to join; reply is RingState)
//! Leave       name_len:u8 name            (node announcing departure; reply is RingState)
//! RingState   epoch:u64 seed:u64 vnodes:u32 replicas:u16 count:u16 member×count
//! PlanPush    plan key, then .rbplan file bytes verbatim  (reply is PlanPushOk)
//! PlanPushOk  (empty)
//! PlanPull    plan key, flags:u8 (bit 0 = caller intends to build on miss)
//! PlanData    plan key, then .rbplan file bytes verbatim  (reply to PlanPull)
//! SolveTraced trace_id:u64, then a Solve payload verbatim  (reply is SolveOk/Err)
//! TraceGet    plan key                                     (reply is TraceData)
//! TraceData   count:u16, then per hop: trace_id:u64 node_len:u8 node
//!             tenant_len:u8 tenant k:u16 solve_ns:u64 respond_ns:u64
//!             total_ns:u64 proxied:u8
//! ```
//!
//! `PlanPush`/`PlanData` ship the checksummed `.rbplan` container
//! *verbatim* — the receiver re-verifies the embedded CRCs, so transport
//! corruption is caught without a second integrity layer, and no matrix
//! bytes ever cross the wire (plans are keyed by fingerprint + digest).
//!
//! Decoding is allocation-free (parsers return borrowed views) and total:
//! any byte sequence yields either a frame or a typed [`FrameError`] —
//! never a panic. That property is fuzzed in `tests/frame_proptest.rs`.

use crate::error::ErrCode;
use recblock_matrix::{Fingerprint, Scalar};
use recblock_store::PlanKey;
use std::fmt;

/// Bytes every frame starts with.
pub const MAGIC: [u8; 4] = *b"RBNT";
/// Highest protocol version this build speaks. v1 kinds are still
/// emitted with version byte 1 (see the module docs).
pub const VERSION: u8 = 2;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Longest allowed tenant name on the wire.
pub const MAX_TENANT_LEN: usize = 64;
/// Longest allowed node name on the wire.
pub const MAX_NODE_LEN: usize = 64;
/// Longest allowed node address string on the wire.
pub const MAX_ADDR_LEN: usize = 256;

/// Frame discriminator. Numeric values are wire format — append only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Solve request (client → server).
    Solve = 1,
    /// Successful solve response.
    SolveOk = 2,
    /// Typed failure response.
    Err = 3,
    /// Liveness probe.
    Ping = 4,
    /// Liveness answer.
    Pong = 5,
    /// Server status request.
    Stat = 6,
    /// Server status answer.
    StatOk = 7,
    /// Cluster: a node asks to join the ring (answered with `RingState`).
    Join = 8,
    /// Cluster: a node announces an orderly departure.
    Leave = 9,
    /// Cluster: full ring view (membership + hashing parameters).
    RingState = 10,
    /// Cluster: warm-migrate a plan — `.rbplan` bytes shipped verbatim.
    PlanPush = 11,
    /// Cluster: a push was verified and stored.
    PlanPushOk = 12,
    /// Cluster: request a plan's `.rbplan` bytes from its owner.
    PlanPull = 13,
    /// Cluster: the pulled plan's bytes (reply to `PlanPull`).
    PlanData = 14,
    /// Solve request carrying an end-to-end trace id. Semantics are
    /// exactly `Solve`; the 8-byte trace id rides ahead of the payload
    /// and survives proxy hops, so one distributed request shows up
    /// under one id on every node it touched.
    SolveTraced = 15,
    /// Ask a node for its recorded trace hops of one plan.
    TraceGet = 16,
    /// The node's recorded hops for that plan (reply to `TraceGet`).
    TraceData = 17,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Solve,
            2 => FrameKind::SolveOk,
            3 => FrameKind::Err,
            4 => FrameKind::Ping,
            5 => FrameKind::Pong,
            6 => FrameKind::Stat,
            7 => FrameKind::StatOk,
            8 => FrameKind::Join,
            9 => FrameKind::Leave,
            10 => FrameKind::RingState,
            11 => FrameKind::PlanPush,
            12 => FrameKind::PlanPushOk,
            13 => FrameKind::PlanPull,
            14 => FrameKind::PlanData,
            15 => FrameKind::SolveTraced,
            16 => FrameKind::TraceGet,
            17 => FrameKind::TraceData,
            _ => return None,
        })
    }

    /// Lowest protocol version that understands this kind.
    pub fn min_version(self) -> u8 {
        if (self as u8) >= FrameKind::Join as u8 {
            2
        } else {
            1
        }
    }
}

/// Decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Protocol version the sender stamped on the frame.
    pub version: u8,
    /// What the payload means.
    pub kind: FrameKind,
    /// Correlation tag, echoed in the response.
    pub tag: u64,
    /// Payload bytes following the header.
    pub payload_len: u32,
}

impl Header {
    /// Whether the stamped version actually covers the frame's kind. A
    /// mismatch (v1 header, v2-only kind) is a client/server build skew;
    /// servers answer it with a typed `BadRequest` instead of killing
    /// the connection.
    pub fn version_covers_kind(&self) -> bool {
        self.version >= self.kind.min_version()
    }
}

/// Everything that can be wrong with bytes claiming to be a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not `RBNT`.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// A reserved header field is non-zero.
    ReservedNonZero,
    /// The announced payload exceeds the configured maximum.
    Oversize {
        /// Announced payload length.
        len: u32,
        /// Configured ceiling.
        max: u32,
    },
    /// The payload ended before a field was complete.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Tenant name empty, too long, or not UTF-8.
    BadTenant,
    /// Node name or address empty, too long, or not UTF-8.
    BadNode,
    /// Scalar width is neither 4 nor 8.
    BadWidth(u8),
    /// Zero right-hand-side columns.
    BadCount,
    /// The value block does not match `k × n × width`.
    PayloadSize {
        /// Bytes the dimensions imply.
        expected: u128,
        /// Bytes present.
        actual: usize,
    },
    /// `Err` frame carries an unknown status code.
    BadErrorCode(u16),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Payload bytes left over after the last field.
    TrailingBytes(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic (expected RBNT)"),
            FrameError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::ReservedNonZero => write!(f, "reserved header bits set"),
            FrameError::Oversize { len, max } => {
                write!(f, "payload of {len} bytes exceeds maximum {max}")
            }
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated payload: field needs {needed} bytes, {have} available")
            }
            FrameError::BadTenant => write!(f, "tenant name empty, over 64 bytes, or not UTF-8"),
            FrameError::BadNode => {
                write!(f, "node name or address empty, too long, or not UTF-8")
            }
            FrameError::BadWidth(w) => write!(f, "scalar width {w} is not 4 or 8"),
            FrameError::BadCount => write!(f, "zero right-hand-side columns"),
            FrameError::PayloadSize { expected, actual } => {
                write!(f, "value block is {actual} bytes, dimensions imply {expected}")
            }
            FrameError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            FrameError::BadUtf8 => write!(f, "string field is not UTF-8"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Allocation-free little-endian cursor over a payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(FrameError::Truncated { needed: n, have });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn finish(self) -> Result<(), FrameError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(FrameError::TrailingBytes(left));
        }
        Ok(())
    }
}

/// Try to decode a header from the front of `buf`.
///
/// `Ok(None)` means "not enough bytes yet — read more"; errors are
/// unrecoverable for the connection (the stream cannot be resynchronised).
pub fn decode_header(buf: &[u8], max_payload: u32) -> Result<Option<Header>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[0..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = buf[4];
    if version == 0 || version > VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = FrameKind::from_u8(buf[5]).ok_or(FrameError::BadKind(buf[5]))?;
    if buf[6] != 0 || buf[7] != 0 {
        return Err(FrameError::ReservedNonZero);
    }
    let tag = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let payload_len = u32::from_le_bytes(buf[16..20].try_into().unwrap());
    if buf[20..24] != [0; 4] {
        return Err(FrameError::ReservedNonZero);
    }
    if payload_len > max_payload {
        return Err(FrameError::Oversize { len: payload_len, max: max_payload });
    }
    // A version byte that does not cover the kind (v1 stamped on a
    // v2-only kind) still decodes — the caller answers it with a typed
    // error rather than tearing down the connection.
    Ok(Some(Header { version, kind, tag, payload_len }))
}

/// Append a frame header to `out`. The version byte is the lowest one
/// that understands `kind`, so v1 frames stay byte-identical to a v1
/// build's output and old peers interoperate untouched.
pub fn encode_header(out: &mut Vec<u8>, kind: FrameKind, tag: u64, payload_len: u32) {
    out.extend_from_slice(&MAGIC);
    out.push(kind.min_version());
    out.push(kind as u8);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&payload_len.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
}

/// Borrowed view of a decoded solve request payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveRequest<'a> {
    /// Requesting tenant.
    pub tenant: &'a str,
    /// Plan identity (structure fingerprint + value digest).
    pub key: PlanKey,
    /// Per-request deadline in milliseconds; 0 means "tenant default".
    pub deadline_ms: u32,
    /// Scalar width in bytes (4 or 8).
    pub width: u8,
    /// Right-hand-side columns.
    pub k: u16,
    /// Rows per column.
    pub n: u64,
    /// Raw column-major value bytes, exactly `k × n × width` long.
    pub values: &'a [u8],
}

impl<'a> SolveRequest<'a> {
    /// Raw bytes of column `j`.
    pub fn col_bytes(&self, j: usize) -> &'a [u8] {
        let stride = self.n as usize * self.width as usize;
        &self.values[j * stride..(j + 1) * stride]
    }

    /// Admission cost of this request: `nnz × k`.
    pub fn cost(&self) -> u64 {
        (self.key.structure.nnz as u64).saturating_mul(self.k as u64).max(1)
    }
}

/// Parse a solve request payload (the bytes after the header).
pub fn parse_solve(payload: &[u8]) -> Result<SolveRequest<'_>, FrameError> {
    let mut c = Cursor::new(payload);
    let tlen = c.u8()? as usize;
    if tlen == 0 || tlen > MAX_TENANT_LEN {
        return Err(FrameError::BadTenant);
    }
    let tenant = std::str::from_utf8(c.take(tlen)?).map_err(|_| FrameError::BadTenant)?;
    let structure = Fingerprint {
        nrows: c.u64()? as usize,
        ncols: c.u64()? as usize,
        nnz: c.u64()? as usize,
        hash: c.u64()?,
    };
    let values_digest = c.u64()?;
    let deadline_ms = c.u32()?;
    let width = c.u8()?;
    if width != 4 && width != 8 {
        return Err(FrameError::BadWidth(width));
    }
    let k = c.u16()?;
    if k == 0 {
        return Err(FrameError::BadCount);
    }
    let n = c.u64()?;
    let values = c.rest();
    let expected = k as u128 * n as u128 * width as u128;
    if expected != values.len() as u128 {
        return Err(FrameError::PayloadSize { expected, actual: values.len() });
    }
    Ok(SolveRequest {
        tenant,
        key: PlanKey { structure, values: values_digest },
        deadline_ms,
        width,
        k,
        n,
        values,
    })
}

/// Append a complete solve request frame (header + payload) to `out`.
///
/// Every column in `cols` must have the same length `n`.
pub fn encode_solve<S: Scalar>(
    out: &mut Vec<u8>,
    tag: u64,
    tenant: &str,
    key: &PlanKey,
    deadline_ms: u32,
    cols: &[&[S]],
) {
    let payload_len = solve_payload_len::<S>(tenant, cols);
    encode_header(out, FrameKind::Solve, tag, payload_len as u32);
    put_solve_payload(out, tenant, key, deadline_ms, cols);
}

/// Append a complete `SolveTraced` frame: a `Solve` payload prefixed by
/// the request's end-to-end trace id.
pub fn encode_solve_traced<S: Scalar>(
    out: &mut Vec<u8>,
    tag: u64,
    trace_id: u64,
    tenant: &str,
    key: &PlanKey,
    deadline_ms: u32,
    cols: &[&[S]],
) {
    let payload_len = 8 + solve_payload_len::<S>(tenant, cols);
    encode_header(out, FrameKind::SolveTraced, tag, payload_len as u32);
    out.extend_from_slice(&trace_id.to_le_bytes());
    put_solve_payload(out, tenant, key, deadline_ms, cols);
}

/// Parse a `SolveTraced` payload into the trace id and the request.
pub fn parse_solve_traced(payload: &[u8]) -> Result<(u64, SolveRequest<'_>), FrameError> {
    let mut c = Cursor::new(payload);
    let trace_id = c.u64()?;
    Ok((trace_id, parse_solve(c.rest())?))
}

fn solve_payload_len<S: Scalar>(tenant: &str, cols: &[&[S]]) -> usize {
    assert!(!tenant.is_empty() && tenant.len() <= MAX_TENANT_LEN, "tenant name must be 1..=64");
    assert!(!cols.is_empty(), "at least one right-hand side");
    let n = cols[0].len();
    assert!(cols.iter().all(|c| c.len() == n), "all columns equally long");
    1 + tenant.len() + 40 + 4 + 1 + 2 + 8 + cols.len() * n * S::BYTES
}

fn put_solve_payload<S: Scalar>(
    out: &mut Vec<u8>,
    tenant: &str,
    key: &PlanKey,
    deadline_ms: u32,
    cols: &[&[S]],
) {
    let n = cols[0].len();
    out.push(tenant.len() as u8);
    out.extend_from_slice(tenant.as_bytes());
    for v in [
        key.structure.nrows as u64,
        key.structure.ncols as u64,
        key.structure.nnz as u64,
        key.structure.hash,
        key.values,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&deadline_ms.to_le_bytes());
    out.push(S::BYTES as u8);
    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    for col in cols {
        encode_scalars(col, out);
    }
}

/// Borrowed view of a successful solve response payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOk<'a> {
    /// Scalar width in bytes.
    pub width: u8,
    /// Solution columns.
    pub k: u16,
    /// Rows per column.
    pub n: u64,
    /// Raw column-major value bytes.
    pub values: &'a [u8],
}

impl<'a> SolveOk<'a> {
    /// Raw bytes of column `j`.
    pub fn col_bytes(&self, j: usize) -> &'a [u8] {
        let stride = self.n as usize * self.width as usize;
        &self.values[j * stride..(j + 1) * stride]
    }
}

/// Parse a `SolveOk` payload.
pub fn parse_solve_ok(payload: &[u8]) -> Result<SolveOk<'_>, FrameError> {
    let mut c = Cursor::new(payload);
    let width = c.u8()?;
    if width != 4 && width != 8 {
        return Err(FrameError::BadWidth(width));
    }
    let k = c.u16()?;
    if k == 0 {
        return Err(FrameError::BadCount);
    }
    let n = c.u64()?;
    let values = c.rest();
    let expected = k as u128 * n as u128 * width as u128;
    if expected != values.len() as u128 {
        return Err(FrameError::PayloadSize { expected, actual: values.len() });
    }
    Ok(SolveOk { width, k, n, values })
}

/// Append a complete `SolveOk` frame built from solved columns.
pub fn encode_solve_ok<S: Scalar>(out: &mut Vec<u8>, tag: u64, cols: &[Vec<S>]) {
    let n = cols.first().map_or(0, |c| c.len());
    let payload_len = 1 + 2 + 8 + cols.len() * n * S::BYTES;
    encode_header(out, FrameKind::SolveOk, tag, payload_len as u32);
    out.push(S::BYTES as u8);
    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    for col in cols {
        encode_scalars(col, out);
    }
}

/// Parse an `Err` payload into its status code and message.
pub fn parse_err(payload: &[u8]) -> Result<(ErrCode, &str), FrameError> {
    let mut c = Cursor::new(payload);
    let raw = c.u16()?;
    let code = ErrCode::from_u16(raw).ok_or(FrameError::BadErrorCode(raw))?;
    let mlen = c.u16()? as usize;
    let msg = std::str::from_utf8(c.take(mlen)?).map_err(|_| FrameError::BadUtf8)?;
    c.finish()?;
    Ok((code, msg))
}

/// Append a complete `Err` frame. Messages over `u16::MAX` bytes are
/// truncated at a char boundary.
pub fn encode_err(out: &mut Vec<u8>, tag: u64, code: ErrCode, msg: &str) {
    let mut cut = msg.len().min(u16::MAX as usize);
    while !msg.is_char_boundary(cut) {
        cut -= 1;
    }
    let msg = &msg[..cut];
    encode_header(out, FrameKind::Err, tag, (2 + 2 + msg.len()) as u32);
    out.extend_from_slice(&(code as u16).to_le_bytes());
    out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
    out.extend_from_slice(msg.as_bytes());
}

/// One tenant's slice of a [`StatReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStat {
    /// Tenant name.
    pub tenant: String,
    /// Requests queued ahead of dispatch right now.
    pub queue_depth: u64,
    /// Requests admitted so far.
    pub admitted: u64,
    /// Requests answered with a solution.
    pub completed: u64,
    /// Requests refused by rate admission.
    pub admission_rejected: u64,
    /// Requests shed by cost budget or deadline.
    pub shed: u64,
}

/// Decoded `StatOk` payload: warm status plus per-tenant queue depths.
///
/// Wire layout: `draining:u8 health:u8 plans_warm:u32 inflight:u32 tenant_count:u16`
/// then per tenant `name_len:u8 name queue_depth:u64 admitted:u64
/// completed:u64 admission_rejected:u64 shed:u64`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatReply {
    /// Whether the server is draining.
    pub draining: bool,
    /// Health state machine position: 0 healthy, 1 degraded, 2 draining
    /// (`recblock_serve::Health` names the values).
    pub health: u8,
    /// Distinct plans this server has resolved (cache or store) so far.
    pub plans_warm: u32,
    /// Requests dispatched into the solver and not yet answered.
    pub inflight: u32,
    /// Per-tenant slices, sorted by name.
    pub tenants: Vec<TenantStat>,
}

/// Append a complete `StatOk` frame.
pub fn encode_stat_reply(out: &mut Vec<u8>, tag: u64, stat: &StatReply) {
    let payload_len =
        2 + 4 + 4 + 2 + stat.tenants.iter().map(|t| 1 + t.tenant.len() + 40).sum::<usize>();
    encode_header(out, FrameKind::StatOk, tag, payload_len as u32);
    out.push(stat.draining as u8);
    out.push(stat.health);
    out.extend_from_slice(&stat.plans_warm.to_le_bytes());
    out.extend_from_slice(&stat.inflight.to_le_bytes());
    out.extend_from_slice(&(stat.tenants.len() as u16).to_le_bytes());
    for t in &stat.tenants {
        out.push(t.tenant.len() as u8);
        out.extend_from_slice(t.tenant.as_bytes());
        for v in [t.queue_depth, t.admitted, t.completed, t.admission_rejected, t.shed] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Parse a `StatOk` payload.
pub fn parse_stat_reply(payload: &[u8]) -> Result<StatReply, FrameError> {
    let mut c = Cursor::new(payload);
    let draining = c.u8()? != 0;
    let health = c.u8()?;
    let plans_warm = c.u32()?;
    let inflight = c.u32()?;
    let count = c.u16()?;
    let mut tenants = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let nlen = c.u8()? as usize;
        let tenant =
            std::str::from_utf8(c.take(nlen)?).map_err(|_| FrameError::BadUtf8)?.to_string();
        tenants.push(TenantStat {
            tenant,
            queue_depth: c.u64()?,
            admitted: c.u64()?,
            completed: c.u64()?,
            admission_rejected: c.u64()?,
            shed: c.u64()?,
        });
    }
    c.finish()?;
    Ok(StatReply { draining, health, plans_warm, inflight, tenants })
}

// ---------------------------------------------------------------------
// v2 cluster payloads
// ---------------------------------------------------------------------

/// One ring member: a stable node name plus its RBNET listen address.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemberInfo {
    /// Stable node name (hashed onto the ring).
    pub name: String,
    /// The node's RBNET listen address (`host:port`).
    pub addr: String,
}

/// Decoded `RingState` payload: the full cluster view. The ring itself is
/// *derived* — every node reconstructs identical virtual-node placement
/// from `(seed, vnodes, members)`, so the wire only carries parameters
/// and membership, never the point table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RingStateMsg {
    /// Monotonic view number; higher epoch wins.
    pub epoch: u64,
    /// Seed of the virtual-node hash placement.
    pub seed: u64,
    /// Virtual nodes per member.
    pub vnodes: u32,
    /// Replicas per key (owner + `replicas - 1` successors).
    pub replicas: u16,
    /// Current members, sorted by name.
    pub members: Vec<MemberInfo>,
}

fn put_member(out: &mut Vec<u8>, m: &MemberInfo) {
    debug_assert!(!m.name.is_empty() && m.name.len() <= MAX_NODE_LEN);
    debug_assert!(!m.addr.is_empty() && m.addr.len() <= MAX_ADDR_LEN);
    out.push(m.name.len() as u8);
    out.extend_from_slice(m.name.as_bytes());
    out.extend_from_slice(&(m.addr.len() as u16).to_le_bytes());
    out.extend_from_slice(m.addr.as_bytes());
}

fn take_member(c: &mut Cursor<'_>) -> Result<MemberInfo, FrameError> {
    let nlen = c.u8()? as usize;
    if nlen == 0 || nlen > MAX_NODE_LEN {
        return Err(FrameError::BadNode);
    }
    let name = std::str::from_utf8(c.take(nlen)?).map_err(|_| FrameError::BadNode)?.to_string();
    let alen = c.u16()? as usize;
    if alen == 0 || alen > MAX_ADDR_LEN {
        return Err(FrameError::BadNode);
    }
    let addr = std::str::from_utf8(c.take(alen)?).map_err(|_| FrameError::BadNode)?.to_string();
    Ok(MemberInfo { name, addr })
}

fn member_len(m: &MemberInfo) -> usize {
    1 + m.name.len() + 2 + m.addr.len()
}

fn put_key(out: &mut Vec<u8>, key: &PlanKey) {
    for v in [
        key.structure.nrows as u64,
        key.structure.ncols as u64,
        key.structure.nnz as u64,
        key.structure.hash,
        key.values,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn take_key(c: &mut Cursor<'_>) -> Result<PlanKey, FrameError> {
    let structure = Fingerprint {
        nrows: c.u64()? as usize,
        ncols: c.u64()? as usize,
        nnz: c.u64()? as usize,
        hash: c.u64()?,
    };
    Ok(PlanKey { structure, values: c.u64()? })
}

/// Append a complete `Join` frame: `member` asks to enter the ring.
pub fn encode_join(out: &mut Vec<u8>, tag: u64, member: &MemberInfo) {
    encode_header(out, FrameKind::Join, tag, member_len(member) as u32);
    put_member(out, member);
}

/// Parse a `Join` payload.
pub fn parse_join(payload: &[u8]) -> Result<MemberInfo, FrameError> {
    let mut c = Cursor::new(payload);
    let member = take_member(&mut c)?;
    c.finish()?;
    Ok(member)
}

/// Append a complete `Leave` frame: the named node departs in order.
pub fn encode_leave(out: &mut Vec<u8>, tag: u64, name: &str) {
    assert!(!name.is_empty() && name.len() <= MAX_NODE_LEN, "node name must be 1..=64");
    encode_header(out, FrameKind::Leave, tag, (1 + name.len()) as u32);
    out.push(name.len() as u8);
    out.extend_from_slice(name.as_bytes());
}

/// Parse a `Leave` payload into the departing node's name.
pub fn parse_leave(payload: &[u8]) -> Result<&str, FrameError> {
    let mut c = Cursor::new(payload);
    let nlen = c.u8()? as usize;
    if nlen == 0 || nlen > MAX_NODE_LEN {
        return Err(FrameError::BadNode);
    }
    let name = std::str::from_utf8(c.take(nlen)?).map_err(|_| FrameError::BadNode)?;
    c.finish()?;
    Ok(name)
}

/// Append a complete `RingState` frame.
pub fn encode_ring_state(out: &mut Vec<u8>, tag: u64, ring: &RingStateMsg) {
    let payload_len = 8 + 8 + 4 + 2 + 2 + ring.members.iter().map(member_len).sum::<usize>();
    encode_header(out, FrameKind::RingState, tag, payload_len as u32);
    out.extend_from_slice(&ring.epoch.to_le_bytes());
    out.extend_from_slice(&ring.seed.to_le_bytes());
    out.extend_from_slice(&ring.vnodes.to_le_bytes());
    out.extend_from_slice(&ring.replicas.to_le_bytes());
    out.extend_from_slice(&(ring.members.len() as u16).to_le_bytes());
    for m in &ring.members {
        put_member(out, m);
    }
}

/// Parse a `RingState` payload.
pub fn parse_ring_state(payload: &[u8]) -> Result<RingStateMsg, FrameError> {
    let mut c = Cursor::new(payload);
    let epoch = c.u64()?;
    let seed = c.u64()?;
    let vnodes = c.u32()?;
    let replicas = c.u16()?;
    let count = c.u16()?;
    let mut members = Vec::with_capacity(count as usize);
    for _ in 0..count {
        members.push(take_member(&mut c)?);
    }
    c.finish()?;
    Ok(RingStateMsg { epoch, seed, vnodes, replicas, members })
}

/// Borrowed view of a `PlanPush` or `PlanData` payload: the plan's key
/// followed by its `.rbplan` file bytes, shipped verbatim (the embedded
/// CRCs travel with them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanTransfer<'a> {
    /// Which plan the bytes are for (must match the file's embedded key).
    pub key: PlanKey,
    /// The `.rbplan` container, byte for byte.
    pub bytes: &'a [u8],
}

/// Append a complete `PlanPush` frame.
pub fn encode_plan_push(out: &mut Vec<u8>, tag: u64, key: &PlanKey, bytes: &[u8]) {
    encode_header(out, FrameKind::PlanPush, tag, (40 + bytes.len()) as u32);
    put_key(out, key);
    out.extend_from_slice(bytes);
}

/// Append a complete `PlanData` frame (the reply to a `PlanPull`).
pub fn encode_plan_data(out: &mut Vec<u8>, tag: u64, key: &PlanKey, bytes: &[u8]) {
    encode_header(out, FrameKind::PlanData, tag, (40 + bytes.len()) as u32);
    put_key(out, key);
    out.extend_from_slice(bytes);
}

/// Parse a `PlanPush`/`PlanData` payload.
pub fn parse_plan_transfer(payload: &[u8]) -> Result<PlanTransfer<'_>, FrameError> {
    let mut c = Cursor::new(payload);
    let key = take_key(&mut c)?;
    Ok(PlanTransfer { key, bytes: c.rest() })
}

/// Append a complete `PlanPull` frame. `build_intent` tells the owner the
/// caller will build the plan itself if the owner does not have it — the
/// owner grants exactly one such caller at a time (cluster-wide
/// single-flight); later intents get `BuildInProgress` until the grant
/// resolves or expires.
pub fn encode_plan_pull(out: &mut Vec<u8>, tag: u64, key: &PlanKey, build_intent: bool) {
    encode_header(out, FrameKind::PlanPull, tag, 41);
    put_key(out, key);
    out.push(build_intent as u8);
}

/// Parse a `PlanPull` payload into `(key, build_intent)`.
pub fn parse_plan_pull(payload: &[u8]) -> Result<(PlanKey, bool), FrameError> {
    let mut c = Cursor::new(payload);
    let key = take_key(&mut c)?;
    let flags = c.u8()?;
    c.finish()?;
    Ok((key, flags & 1 != 0))
}

/// One recorded hop of a traced request on one node, as shipped in a
/// `TraceData` frame. A request answered locally produces one hop; a
/// proxied request produces one hop per node it touched, all sharing a
/// trace id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHopMsg {
    /// End-to-end trace id minted at admission on the first hop.
    pub trace_id: u64,
    /// Name of the node that recorded the hop.
    pub node: String,
    /// Tenant the request was admitted under.
    pub tenant: String,
    /// Right-hand-side columns in the request.
    pub k: u16,
    /// Nanoseconds from admission to the last column solved.
    pub solve_ns: u64,
    /// Nanoseconds spent encoding the response.
    pub respond_ns: u64,
    /// Nanoseconds from admission to the response being handed to the
    /// socket.
    pub total_ns: u64,
    /// Whether this node forwarded the solve to the plan's owner.
    pub proxied: bool,
}

/// Append a complete `TraceGet` frame asking for a plan's recorded hops.
pub fn encode_trace_get(out: &mut Vec<u8>, tag: u64, key: &PlanKey) {
    encode_header(out, FrameKind::TraceGet, tag, 40);
    put_key(out, key);
}

/// Parse a `TraceGet` payload into the plan key being asked about.
pub fn parse_trace_get(payload: &[u8]) -> Result<PlanKey, FrameError> {
    let mut c = Cursor::new(payload);
    let key = take_key(&mut c)?;
    c.finish()?;
    Ok(key)
}

/// Append a complete `TraceData` frame (the reply to a `TraceGet`).
pub fn encode_trace_data(out: &mut Vec<u8>, tag: u64, hops: &[TraceHopMsg]) {
    let payload_len = 2 + hops
        .iter()
        .map(|h| 8 + 1 + h.node.len() + 1 + h.tenant.len() + 2 + 24 + 1)
        .sum::<usize>();
    encode_header(out, FrameKind::TraceData, tag, payload_len as u32);
    out.extend_from_slice(&(hops.len() as u16).to_le_bytes());
    for h in hops {
        debug_assert!(!h.node.is_empty() && h.node.len() <= MAX_NODE_LEN);
        debug_assert!(!h.tenant.is_empty() && h.tenant.len() <= MAX_TENANT_LEN);
        out.extend_from_slice(&h.trace_id.to_le_bytes());
        out.push(h.node.len() as u8);
        out.extend_from_slice(h.node.as_bytes());
        out.push(h.tenant.len() as u8);
        out.extend_from_slice(h.tenant.as_bytes());
        out.extend_from_slice(&h.k.to_le_bytes());
        for v in [h.solve_ns, h.respond_ns, h.total_ns] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(h.proxied as u8);
    }
}

/// Parse a `TraceData` payload into its hop records.
pub fn parse_trace_data(payload: &[u8]) -> Result<Vec<TraceHopMsg>, FrameError> {
    let mut c = Cursor::new(payload);
    let count = c.u16()?;
    let mut hops = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let trace_id = c.u64()?;
        let nlen = c.u8()? as usize;
        if nlen == 0 || nlen > MAX_NODE_LEN {
            return Err(FrameError::BadNode);
        }
        let node = std::str::from_utf8(c.take(nlen)?).map_err(|_| FrameError::BadNode)?.to_string();
        let tlen = c.u8()? as usize;
        if tlen == 0 || tlen > MAX_TENANT_LEN {
            return Err(FrameError::BadTenant);
        }
        let tenant =
            std::str::from_utf8(c.take(tlen)?).map_err(|_| FrameError::BadTenant)?.to_string();
        let k = c.u16()?;
        let solve_ns = c.u64()?;
        let respond_ns = c.u64()?;
        let total_ns = c.u64()?;
        let proxied = c.u8()? != 0;
        hops.push(TraceHopMsg {
            trace_id,
            node,
            tenant,
            k,
            solve_ns,
            respond_ns,
            total_ns,
            proxied,
        });
    }
    c.finish()?;
    Ok(hops)
}

/// Decode a little-endian value block into `out` (cleared first). The
/// stated `width` must match `S`; capacity is reused, so a warm caller
/// allocates nothing.
pub fn decode_scalars<S: Scalar>(
    bytes: &[u8],
    width: u8,
    out: &mut Vec<S>,
) -> Result<(), FrameError> {
    if width as usize != S::BYTES {
        return Err(FrameError::BadWidth(width));
    }
    out.clear();
    out.reserve(bytes.len() / S::BYTES);
    match S::BYTES {
        4 => {
            for chunk in bytes.chunks_exact(4) {
                let v = f32::from_bits(u32::from_le_bytes(chunk.try_into().unwrap()));
                out.push(S::from_f64(v as f64));
            }
        }
        _ => {
            for chunk in bytes.chunks_exact(8) {
                let v = f64::from_bits(u64::from_le_bytes(chunk.try_into().unwrap()));
                out.push(S::from_f64(v));
            }
        }
    }
    Ok(())
}

/// Append the little-endian value block for `vals` to `out`.
pub fn encode_scalars<S: Scalar>(vals: &[S], out: &mut Vec<u8>) {
    match S::BYTES {
        4 => {
            for v in vals {
                out.extend_from_slice(&(v.to_f64() as f32).to_bits().to_le_bytes());
            }
        }
        _ => {
            for v in vals {
                out.extend_from_slice(&v.to_f64().to_bits().to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_key() -> PlanKey {
        PlanKey {
            structure: Fingerprint { nrows: 10, ncols: 10, nnz: 28, hash: 0xdead_beef },
            values: 0x1234_5678_9abc_def0,
        }
    }

    #[test]
    fn header_roundtrip() {
        let mut buf = Vec::new();
        encode_header(&mut buf, FrameKind::Ping, 42, 0);
        assert_eq!(buf.len(), HEADER_LEN);
        let h = decode_header(&buf, 1024).unwrap().unwrap();
        assert_eq!(h, Header { version: 1, kind: FrameKind::Ping, tag: 42, payload_len: 0 });
        assert!(h.version_covers_kind());
    }

    #[test]
    fn v1_kinds_still_emit_version_1() {
        // Backward compatibility: a v2-capable build's v1 frames must be
        // byte-identical to a v1 build's, so old peers stay untouched.
        for kind in [
            FrameKind::Solve,
            FrameKind::SolveOk,
            FrameKind::Err,
            FrameKind::Ping,
            FrameKind::Pong,
            FrameKind::Stat,
            FrameKind::StatOk,
        ] {
            let mut buf = Vec::new();
            encode_header(&mut buf, kind, 0, 0);
            assert_eq!(buf[4], 1, "{kind:?}");
        }
        for kind in [
            FrameKind::Join,
            FrameKind::Leave,
            FrameKind::RingState,
            FrameKind::PlanPush,
            FrameKind::PlanPushOk,
            FrameKind::PlanPull,
            FrameKind::PlanData,
            FrameKind::SolveTraced,
            FrameKind::TraceGet,
            FrameKind::TraceData,
        ] {
            let mut buf = Vec::new();
            encode_header(&mut buf, kind, 0, 0);
            assert_eq!(buf[4], 2, "{kind:?}");
        }
    }

    #[test]
    fn v1_header_on_v2_kind_decodes_but_flags_mismatch() {
        let mut buf = Vec::new();
        encode_header(&mut buf, FrameKind::PlanPull, 3, 0);
        buf[4] = 1; // a mismatched build stamping v1 on a v2-only kind
        let h = decode_header(&buf, 1024).unwrap().unwrap();
        assert_eq!(h.kind, FrameKind::PlanPull);
        assert!(!h.version_covers_kind(), "mismatch must be visible, not fatal");
    }

    #[test]
    fn short_header_needs_more_bytes() {
        let mut buf = Vec::new();
        encode_header(&mut buf, FrameKind::Stat, 7, 0);
        for cut in 0..HEADER_LEN {
            assert_eq!(decode_header(&buf[..cut], 1024).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn header_rejections_are_typed() {
        let mut buf = Vec::new();
        encode_header(&mut buf, FrameKind::Solve, 1, 10);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert_eq!(decode_header(&bad, 1024), Err(FrameError::BadMagic));
        let mut bad = buf.clone();
        bad[4] = 9;
        assert_eq!(decode_header(&bad, 1024), Err(FrameError::BadVersion(9)));
        let mut bad = buf.clone();
        bad[5] = 200;
        assert_eq!(decode_header(&bad, 1024), Err(FrameError::BadKind(200)));
        let mut bad = buf.clone();
        bad[6] = 1;
        assert_eq!(decode_header(&bad, 1024), Err(FrameError::ReservedNonZero));
        assert_eq!(decode_header(&buf, 9), Err(FrameError::Oversize { len: 10, max: 9 }));
    }

    #[test]
    fn solve_roundtrip() {
        let cols: Vec<Vec<f64>> = vec![(0..10).map(|i| i as f64).collect(); 3];
        let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut buf = Vec::new();
        encode_solve(&mut buf, 99, "alpha", &demo_key(), 250, &refs);
        let h = decode_header(&buf, 1 << 20).unwrap().unwrap();
        assert_eq!(h.kind, FrameKind::Solve);
        assert_eq!(h.tag, 99);
        let req = parse_solve(&buf[HEADER_LEN..]).unwrap();
        assert_eq!(req.tenant, "alpha");
        assert_eq!(req.key, demo_key());
        assert_eq!(req.deadline_ms, 250);
        assert_eq!((req.width, req.k, req.n), (8, 3, 10));
        let mut col = Vec::new();
        decode_scalars::<f64>(req.col_bytes(1), req.width, &mut col).unwrap();
        assert_eq!(col, cols[1]);
        assert_eq!(req.cost(), 28 * 3);
    }

    #[test]
    fn solve_ok_and_err_roundtrip() {
        let cols = vec![vec![1.5f32, -2.5, 3.0]];
        let mut buf = Vec::new();
        encode_solve_ok(&mut buf, 5, &cols);
        let h = decode_header(&buf, 1 << 20).unwrap().unwrap();
        assert_eq!(h.kind, FrameKind::SolveOk);
        let ok = parse_solve_ok(&buf[HEADER_LEN..]).unwrap();
        assert_eq!((ok.width, ok.k, ok.n), (4, 1, 3));
        let mut col = Vec::new();
        decode_scalars::<f32>(ok.col_bytes(0), 4, &mut col).unwrap();
        assert_eq!(col, cols[0]);

        let mut buf = Vec::new();
        encode_err(&mut buf, 6, ErrCode::RateLimited, "slow down");
        let (code, msg) = parse_err(&buf[HEADER_LEN..]).unwrap();
        assert_eq!(code, ErrCode::RateLimited);
        assert_eq!(msg, "slow down");
    }

    #[test]
    fn stat_roundtrip() {
        let stat = StatReply {
            draining: true,
            health: 2,
            plans_warm: 3,
            inflight: 7,
            tenants: vec![TenantStat {
                tenant: "beta".into(),
                queue_depth: 2,
                admitted: 10,
                completed: 8,
                admission_rejected: 1,
                shed: 1,
            }],
        };
        let mut buf = Vec::new();
        encode_stat_reply(&mut buf, 1, &stat);
        let parsed = parse_stat_reply(&buf[HEADER_LEN..]).unwrap();
        assert_eq!(parsed, stat);
    }

    #[test]
    fn cluster_frames_roundtrip() {
        let m = MemberInfo { name: "node-a".into(), addr: "127.0.0.1:7070".into() };
        let mut buf = Vec::new();
        encode_join(&mut buf, 11, &m);
        let h = decode_header(&buf, 1 << 20).unwrap().unwrap();
        assert_eq!((h.version, h.kind, h.tag), (2, FrameKind::Join, 11));
        assert_eq!(parse_join(&buf[HEADER_LEN..]).unwrap(), m);

        let mut buf = Vec::new();
        encode_leave(&mut buf, 12, "node-a");
        assert_eq!(parse_leave(&buf[HEADER_LEN..]).unwrap(), "node-a");

        let ring = RingStateMsg {
            epoch: 4,
            seed: 0xfeed,
            vnodes: 64,
            replicas: 2,
            members: vec![
                MemberInfo { name: "a".into(), addr: "h1:1".into() },
                MemberInfo { name: "b".into(), addr: "h2:2".into() },
            ],
        };
        let mut buf = Vec::new();
        encode_ring_state(&mut buf, 13, &ring);
        assert_eq!(parse_ring_state(&buf[HEADER_LEN..]).unwrap(), ring);

        let plan_bytes = vec![7u8; 129];
        let mut buf = Vec::new();
        encode_plan_push(&mut buf, 14, &demo_key(), &plan_bytes);
        let t = parse_plan_transfer(&buf[HEADER_LEN..]).unwrap();
        assert_eq!(t.key, demo_key());
        assert_eq!(t.bytes, &plan_bytes[..]);

        let mut buf = Vec::new();
        encode_plan_pull(&mut buf, 15, &demo_key(), true);
        assert_eq!(parse_plan_pull(&buf[HEADER_LEN..]).unwrap(), (demo_key(), true));
        let mut buf = Vec::new();
        encode_plan_pull(&mut buf, 16, &demo_key(), false);
        assert_eq!(parse_plan_pull(&buf[HEADER_LEN..]).unwrap(), (demo_key(), false));
    }

    #[test]
    fn cluster_frame_rejections_are_typed() {
        // Empty node name.
        assert_eq!(parse_join(&[0u8, 1, 0, b'x']), Err(FrameError::BadNode));
        assert_eq!(parse_leave(&[0u8]), Err(FrameError::BadNode));
        // Truncated ring state.
        assert!(parse_ring_state(&[1, 2, 3]).is_err());
        // Member count promising more than the payload holds.
        let ring = RingStateMsg {
            epoch: 1,
            seed: 2,
            vnodes: 8,
            replicas: 1,
            members: vec![MemberInfo { name: "a".into(), addr: "h:1".into() }],
        };
        let mut buf = Vec::new();
        encode_ring_state(&mut buf, 0, &ring);
        let mut payload = buf[HEADER_LEN..].to_vec();
        payload[22] = 9; // count lives after epoch+seed+vnodes+replicas
        assert!(parse_ring_state(&payload).is_err());
        // PlanPull payload too short for key + flags.
        assert!(parse_plan_pull(&[0u8; 40]).is_err());
        // Trailing bytes after the flags byte.
        assert!(matches!(parse_plan_pull(&[0u8; 42]), Err(FrameError::TrailingBytes(1))));
    }

    #[test]
    fn trace_frames_roundtrip() {
        // SolveTraced is a Solve payload with the trace id riding ahead.
        let cols: Vec<Vec<f64>> = vec![(0..6).map(|i| i as f64 * 0.5).collect(); 2];
        let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut buf = Vec::new();
        encode_solve_traced(&mut buf, 21, 0xabad_1dea_f00d_cafe, "gamma", &demo_key(), 50, &refs);
        let h = decode_header(&buf, 1 << 20).unwrap().unwrap();
        assert_eq!((h.version, h.kind, h.tag), (2, FrameKind::SolveTraced, 21));
        let (trace_id, req) = parse_solve_traced(&buf[HEADER_LEN..]).unwrap();
        assert_eq!(trace_id, 0xabad_1dea_f00d_cafe);
        assert_eq!(req.tenant, "gamma");
        assert_eq!(req.key, demo_key());
        assert_eq!((req.width, req.k, req.n), (8, 2, 6));
        // The embedded payload is byte-identical to a plain Solve's.
        let mut plain = Vec::new();
        encode_solve(&mut plain, 21, "gamma", &demo_key(), 50, &refs);
        assert_eq!(&buf[HEADER_LEN + 8..], &plain[HEADER_LEN..]);

        let mut buf = Vec::new();
        encode_trace_get(&mut buf, 22, &demo_key());
        assert_eq!(parse_trace_get(&buf[HEADER_LEN..]).unwrap(), demo_key());

        let hops = vec![
            TraceHopMsg {
                trace_id: 7,
                node: "origin".into(),
                tenant: "gamma".into(),
                k: 2,
                solve_ns: 1_000,
                respond_ns: 200,
                total_ns: 1_300,
                proxied: true,
            },
            TraceHopMsg {
                trace_id: 7,
                node: "owner".into(),
                tenant: "gamma".into(),
                k: 2,
                solve_ns: 800,
                respond_ns: 150,
                total_ns: 990,
                proxied: false,
            },
        ];
        let mut buf = Vec::new();
        encode_trace_data(&mut buf, 23, &hops);
        assert_eq!(parse_trace_data(&buf[HEADER_LEN..]).unwrap(), hops);
        let mut buf = Vec::new();
        encode_trace_data(&mut buf, 24, &[]);
        assert_eq!(parse_trace_data(&buf[HEADER_LEN..]).unwrap(), vec![]);
    }

    #[test]
    fn trace_frame_rejections_are_typed() {
        // SolveTraced shorter than its trace id.
        assert!(parse_solve_traced(&[0u8; 7]).is_err());
        // TraceGet payload must be exactly one plan key.
        assert!(parse_trace_get(&[0u8; 39]).is_err());
        assert!(matches!(parse_trace_get(&[0u8; 41]), Err(FrameError::TrailingBytes(1))));
        // Hop count promising more than the payload holds.
        let hops = vec![TraceHopMsg {
            trace_id: 1,
            node: "n".into(),
            tenant: "t".into(),
            k: 1,
            solve_ns: 1,
            respond_ns: 1,
            total_ns: 2,
            proxied: false,
        }];
        let mut buf = Vec::new();
        encode_trace_data(&mut buf, 0, &hops);
        let mut payload = buf[HEADER_LEN..].to_vec();
        payload[0] = 9;
        assert!(parse_trace_data(&payload).is_err());
        // Empty node name inside a hop.
        let mut payload = buf[HEADER_LEN..].to_vec();
        payload[2 + 8] = 0;
        assert!(parse_trace_data(&payload).is_err());
    }

    #[test]
    fn payload_mismatches_are_typed() {
        let cols: Vec<Vec<f64>> = vec![vec![0.0; 4]];
        let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut buf = Vec::new();
        encode_solve(&mut buf, 1, "t", &demo_key(), 0, &refs);
        // Chop one value byte: dimensions no longer match the block.
        let payload = &buf[HEADER_LEN..buf.len() - 1];
        assert!(matches!(parse_solve(payload), Err(FrameError::PayloadSize { .. })));
        // Truncate inside the fixed fields.
        assert!(parse_solve(&buf[HEADER_LEN..HEADER_LEN + 3]).is_err());
        // Empty tenant.
        assert_eq!(parse_solve(&[0u8, 1, 2]), Err(FrameError::BadTenant));
    }
}
