//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message — in either direction — is one **frame**:
//!
//! ```text
//! ┌────────────┬───────────┬──────────┬─────────────┐
//! │ len: u32le │ ver: u8   │ op: u8   │ payload …   │
//! └────────────┴───────────┴──────────┴─────────────┘
//!        len = 2 + payload length (covers ver + op + payload)
//! ```
//!
//! All integers are little-endian; `f64`s travel as their IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so probabilities round-trip
//! **bit-identically** — the loopback tests compare network answers to
//! in-process answers with [`QueryAnswer::same_matches`]. The full
//! byte-level spec (opcodes, payload layouts, error codes, versioning
//! rules) lives in `docs/PROTOCOL.md`; this module is its executable
//! form.
//!
//! ## Design constraints
//!
//! * **Allocation-free on the query path.** Encoders append to a
//!   caller-owned `Vec<u8>` and decoders overwrite caller-owned
//!   values in place ([`decode_query_into`] overwrites the
//!   issuer's pdf through [`iloc_core::Issuer::set_pdf`]), so a warm
//!   client or server worker touches no heap.
//! * **Malformed input is an error frame, never a panic.** Every
//!   decoder validates geometry (finite coordinates, positive areas,
//!   positive sigmas) before calling a constructor that would assert;
//!   trailing bytes, truncated payloads and out-of-range enums all
//!   surface as [`WireError`]s the server answers with an
//!   [`opcode::ERROR`] frame.
//! * **Versioned.** Byte 4 of every frame carries
//!   [`PROTOCOL_VERSION`]; a mismatch is rejected with
//!   [`ErrorCode::BadVersion`] so incompatible ends fail loudly, not
//!   subtly.

use iloc_core::durable::codec::{
    self, put_f64, put_pdf, put_rect, put_u16, put_u32, put_u64, read_pdf, read_rect, CodecError,
};
use iloc_core::pipeline::{Constraint, PointRequest, QueryRequest, UncertainRequest};
use iloc_core::serve::{CommitReport, Update};
use iloc_core::stats::REFINE_BATCH_BUCKETS;
use iloc_core::subscribe::AnswerDelta;
use iloc_core::{CipqStrategy, CiuqStrategy, Integrator, Match, QueryAnswer, RangeSpec};
use iloc_uncertainty::{ObjectId, PdfKind, PointObject, UncertainObject};

/// A bounds-checked cursor over one frame's payload — the object
/// codec's cursor, so frame decoders and object decoders share one.
pub use iloc_core::durable::codec::Cursor as Reader;

/// The protocol version this build speaks (frame byte 4) — the only
/// one it accepts. `docs/PROTOCOL.md` has the versioning rules.
pub const PROTOCOL_VERSION: u8 = 6;

/// Hard ceiling on one frame's `len` field; larger frames are rejected
/// with [`ErrorCode::TooLarge`] and the connection is closed (a wild
/// length usually means the peer is not speaking this protocol).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Ceiling on Monte-Carlo samples a request may ask for (a 4-byte
/// sample count would otherwise let one frame buy minutes of CPU).
pub const MAX_MC_SAMPLES: u32 = 1_000_000;

/// Frame opcodes (requests `0x01..=0x7F`, responses `0x81..=0xFF`).
pub mod opcode {
    /// IPQ / C-IPQ against the point catalog → [`ANSWER`].
    pub const POINT_QUERY: u8 = 0x01;
    /// IUQ / C-IUQ against the uncertain catalog → [`ANSWER`].
    pub const UNCERTAIN_QUERY: u8 = 0x02;
    /// Batch of arrive/depart/move updates → [`UPDATE_ACK`].
    pub const UPDATE_BATCH: u8 = 0x03;
    /// Commit one catalog's buffered updates → [`COMMIT_DONE`].
    pub const COMMIT: u8 = 0x04;
    /// Server observability probe → [`STATS_REPORT`].
    pub const STATS: u8 = 0x05;
    /// Liveness probe → [`PONG`]. Also the keepalive: any frame resets
    /// the server's idle-connection deadline, and PING is the cheapest.
    pub const PING: u8 = 0x06;
    /// Register a standing continuous query → [`SUB_ACK`].
    pub const SUBSCRIBE: u8 = 0x07;
    /// Drop a standing query → [`UNSUB_DONE`].
    pub const UNSUBSCRIBE: u8 = 0x08;
    /// Move a standing query's issuer → one [`NOTIFY`] (cause = tick).
    pub const TICK: u8 = 0x09;
    /// Version-negotiation handshake (v6) → [`HELLO_ACK`]. Carries the
    /// sender's protocol version and [`Role`](super::Role); a version
    /// the server does not speak earns a typed
    /// [`ErrorCode::BadVersion`](super::ErrorCode::BadVersion) ERROR
    /// naming the supported version instead of a silent close.
    pub const HELLO: u8 = 0x0A;

    /// Query answer: the id/probability matches.
    pub const ANSWER: u8 = 0x81;
    /// Update batch accepted (buffered for the next commit).
    pub const UPDATE_ACK: u8 = 0x82;
    /// Commit applied; carries the [`super::CommitReport`] counters.
    pub const COMMIT_DONE: u8 = 0x83;
    /// Stats snapshot (epochs, sizes, allocation counters).
    pub const STATS_REPORT: u8 = 0x84;
    /// Liveness response.
    pub const PONG: u8 = 0x85;
    /// Subscription accepted: id, epoch, and the initial full answer.
    pub const SUB_ACK: u8 = 0x86;
    /// A standing query's answer changed: the delta against the last
    /// state delivered. Sent as the response to a [`TICK`]
    /// (cause = tick) **and pushed unsolicited** after a commit whose
    /// dirty region touched the subscription (cause = commit).
    pub const NOTIFY: u8 = 0x87;
    /// Unsubscribe processed; payload says whether the id was live.
    pub const UNSUB_DONE: u8 = 0x88;
    /// Handshake accepted: the responder's role, current epochs,
    /// recovered epochs and shard counts (see [`super::HelloAck`]).
    pub const HELLO_ACK: u8 = 0x89;
    /// Request failed; carries an [`super::ErrorCode`] and a message.
    pub const ERROR: u8 = 0xFF;
}

/// Error codes carried by [`opcode::ERROR`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Frame version byte ≠ [`PROTOCOL_VERSION`]. Connection closes.
    BadVersion = 1,
    /// Unknown request opcode.
    BadOpcode = 2,
    /// Payload truncated, trailing bytes, or a value out of range
    /// (non-finite coordinate, zero-area region, bad enum tag …).
    Malformed = 3,
    // Code 4 is unassigned: every pdf has a wire form.
    /// Frame length exceeds [`MAX_FRAME_LEN`]. Connection closes.
    TooLarge = 5,
    /// The server failed internally while answering.
    Internal = 6,
    /// The connection holds the maximum number of standing
    /// subscriptions; unsubscribe before subscribing again.
    TooManySubscriptions = 7,
    /// A cluster node this request depends on is unreachable, or a
    /// failed cluster commit poisoned the catalog (v6, router only).
    /// The connection stays open; queries against the other catalog
    /// still work.
    Unavailable = 8,
}

impl ErrorCode {
    /// Decodes a wire byte back into a code.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::BadVersion),
            2 => Some(ErrorCode::BadOpcode),
            3 => Some(ErrorCode::Malformed),
            5 => Some(ErrorCode::TooLarge),
            6 => Some(ErrorCode::Internal),
            7 => Some(ErrorCode::TooManySubscriptions),
            8 => Some(ErrorCode::Unavailable),
            _ => None,
        }
    }
}

/// Why a decode (or a subscription encode, on a bad slack) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended early, carried trailing bytes, or held an
    /// out-of-range value; the message names the offending field.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The wire's reading of an object-codec failure.
impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        match e {
            CodecError::Malformed(what) => WireError::Malformed(what),
        }
    }
}

/// The error code a failed decode maps to on the wire.
impl From<WireError> for ErrorCode {
    fn from(e: WireError) -> ErrorCode {
        match e {
            WireError::Malformed(_) => ErrorCode::Malformed,
        }
    }
}

/// Which catalog an update, commit or subscription addresses. The
/// discriminant is the wire's target byte, and the index both front
/// ends keep their per-catalog pairs by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum CommitTarget {
    /// The point-object catalog (IPQ / C-IPQ data).
    #[default]
    Point = 0,
    /// The uncertain-object catalog (IUQ / C-IUQ data).
    Uncertain = 1,
}

/// One catalog mutation as it travels on the wire, tagged with the
/// catalog it routes to.
#[derive(Debug, Clone)]
pub enum WireUpdate {
    /// An update to the point catalog.
    Point(Update<PointObject>),
    /// An update to the uncertain catalog.
    Uncertain(Update<UncertainObject>),
}

impl WireUpdate {
    /// The catalog this update applies to.
    pub fn target(&self) -> CommitTarget {
        match self {
            WireUpdate::Point(_) => CommitTarget::Point,
            WireUpdate::Uncertain(_) => CommitTarget::Uncertain,
        }
    }

    /// The id of the object it arrives, moves or departs — the id the
    /// sharded engine hashes, so a cluster's node order is its shard
    /// order.
    pub fn id(&self) -> ObjectId {
        match self {
            WireUpdate::Point(Update::Arrive(o) | Update::Move(o)) => o.id,
            WireUpdate::Uncertain(Update::Arrive(o) | Update::Move(o)) => o.id,
            WireUpdate::Point(Update::Depart(id)) | WireUpdate::Uncertain(Update::Depart(id)) => {
                *id
            }
        }
    }
}

/// A catalog's constrained-query strategy as the wire carries it: what
/// lets one query body, one SUBSCRIBE body and one decoder serve both
/// catalogs.
pub trait WireStrategy: Copy {
    /// The catalog a request with this strategy addresses.
    const TARGET: CommitTarget;
    /// The catalog's query opcode.
    const QUERY_OP: u8;
    /// The decode error for a strategy tag the catalog does not know.
    const UNKNOWN: &'static str;

    /// The strategy's wire tag.
    fn tag(self) -> u8;

    /// The strategy a wire tag names, if any.
    fn from_tag(tag: u8) -> Option<Self>;
}

impl WireStrategy for CipqStrategy {
    const TARGET: CommitTarget = CommitTarget::Point;
    const QUERY_OP: u8 = opcode::POINT_QUERY;
    const UNKNOWN: &'static str = "unknown C-IPQ strategy";

    fn tag(self) -> u8 {
        match self {
            CipqStrategy::MinkowskiSum => 0,
            CipqStrategy::PExpanded => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(CipqStrategy::MinkowskiSum),
            1 => Some(CipqStrategy::PExpanded),
            _ => None,
        }
    }
}

impl WireStrategy for CiuqStrategy {
    const TARGET: CommitTarget = CommitTarget::Uncertain;
    const QUERY_OP: u8 = opcode::UNCERTAIN_QUERY;
    const UNKNOWN: &'static str = "unknown C-IUQ strategy";

    fn tag(self) -> u8 {
        match self {
            CiuqStrategy::RTreeMinkowski => 0,
            CiuqStrategy::PtiPExpanded => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(CiuqStrategy::RTreeMinkowski),
            1 => Some(CiuqStrategy::PtiPExpanded),
            _ => None,
        }
    }
}

/// Per-catalog slice of a [`StatsReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Current epoch.
    pub epoch: u64,
    /// Live objects across all shards.
    pub len: u64,
    /// Updates buffered but not yet committed.
    pub pending: u64,
    /// Live objects per shard, in shard order.
    pub shard_sizes: Vec<u64>,
}

/// What a [`opcode::STATS_REPORT`] frame carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// `true` when the server process counts heap allocations (the
    /// standalone binary registers the counting allocator; a library
    /// embedding may not). When `false`, `allocations` is meaningless.
    pub alloc_counting: bool,
    /// Total heap allocations the server process has performed.
    pub allocations: u64,
    /// Frames the server has handled since start (all opcodes).
    pub requests_served: u64,
    /// Concurrent-connection capacity
    /// ([`ServerConfig::max_connections`](crate::server::ServerConfig));
    /// connections accepted beyond it are closed before any frame.
    /// Load generators size their client fleets against this.
    pub capacity: u32,
    /// Event-loop threads serving the connections. Scales with cores,
    /// not clients — thousands of connections multiplex onto each.
    pub event_loops: u32,
    /// Live connections right now (the accept/close gauge).
    pub connections: u64,
    /// NOTIFY push frames that were due to a subscriber but never
    /// delivered. Every count pairs with a connection close (push
    /// backpressure overflow, or a write failure with pushes queued) —
    /// a live connection never silently loses a push.
    pub dropped_pushes: u64,
    /// Point-catalog state.
    pub point: CatalogStats,
    /// Uncertain-catalog state.
    pub uncertain: CatalogStats,
    /// Nanoseconds the server's query pipelines have spent in the
    /// filter stage, summed over every query answered by every worker.
    pub filter_nanos: u64,
    /// Prune-stage nanoseconds, same accounting.
    pub prune_nanos: u64,
    /// Refine-stage nanoseconds, same accounting — the stage the SoA
    /// batching targets, so `refine / (filter + prune + refine)` read
    /// off two probes brackets where a workload's time actually goes.
    pub refine_nanos: u64,
    /// Histogram of refine-batch sizes (survivor counts per query) in
    /// the power-of-two-ish buckets of
    /// [`iloc_core::stats::refine_batch_bucket`].
    pub refine_batches: [u64; REFINE_BATCH_BUCKETS],
    /// Per-upstream-node health (v6). Empty on a plain server; a
    /// router reports one entry per cluster node, in node order.
    pub nodes: Vec<NodeHealth>,
}

/// One upstream node's health as a router reports it in the
/// STATS_REPORT node section (v6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeHealth {
    /// Whether every upstream connection to this node is live. A
    /// router that lost a node keeps serving the healthy catalog but
    /// reports the loss here (and answers affected requests with
    /// [`ErrorCode::Unavailable`]).
    pub connected: bool,
    /// The node's point-catalog epoch at the last exchange.
    pub point_epoch: u64,
    /// The node's uncertain-catalog epoch at the last exchange.
    pub uncertain_epoch: u64,
    /// Frames the router routed **to** this node (queries scattered,
    /// update sub-batches, commits, subscription ops).
    pub routed: u64,
    /// Response frames from this node merged into client answers.
    pub merged: u64,
}

/// The role a peer declares in its HELLO frame (v6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum Role {
    /// An ordinary query client.
    #[default]
    Client = 0,
    /// An `iloc-server` node.
    Server = 1,
    /// An `iloc-router` fronting a cluster of nodes.
    Router = 2,
}

impl Role {
    /// Decodes a wire byte back into a role.
    pub fn from_u8(v: u8) -> Option<Role> {
        match v {
            0 => Some(Role::Client),
            1 => Some(Role::Server),
            2 => Some(Role::Router),
            _ => None,
        }
    }
}

/// What a [`opcode::HELLO_ACK`] frame carries: the responder's role
/// and enough state introspection (epochs, recovered epochs, shard
/// counts) for a router to plan routing without a STATS round trip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HelloAck {
    /// The responder's role ([`Role::Server`] from `iloc-server`,
    /// [`Role::Router`] from `iloc-router`).
    pub role: Role,
    /// Reserved capability flags; zero in v6.
    pub flags: u16,
    /// Current point-catalog epoch (a router reports its cluster
    /// epoch).
    pub point_epoch: u64,
    /// Current uncertain-catalog epoch.
    pub uncertain_epoch: u64,
    /// Point-catalog epoch recovered at process start (non-zero after
    /// a crash recovery; a router, being transient, reports zero).
    pub point_recovered: u64,
    /// Uncertain-catalog recovered epoch.
    pub uncertain_recovered: u64,
    /// Point-catalog shard count (a router reports the cluster-wide
    /// total across its nodes).
    pub point_shards: u32,
    /// Uncertain-catalog shard count.
    pub uncertain_shards: u32,
}

// ---------------------------------------------------------------------------
// Frame scaffolding
// ---------------------------------------------------------------------------

/// Opens a frame with the given opcode, returning its start offset for
/// [`finish_frame`]. Appends — callers batching frames clear the
/// buffer themselves.
pub fn begin_frame(buf: &mut Vec<u8>, op: u8) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.push(PROTOCOL_VERSION);
    buf.push(op);
    at
}

/// Patches the length field of the frame opened at `at`.
pub fn finish_frame(buf: &mut [u8], at: usize) {
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Integrators, ranges, constraints
// ---------------------------------------------------------------------------

// Tags 1 and 2 are unassigned and refused like any unknown tag. Tag 1
// named a closed-form-only integrator whose every answer `Auto` gives;
// tag 2 named midpoint-grid quadrature, which no query refines by.
const INTEGRATOR_AUTO: u8 = 0;
const INTEGRATOR_MC: u8 = 3;

fn put_integrator(buf: &mut Vec<u8>, integrator: Integrator) {
    match integrator {
        Integrator::Auto => buf.push(INTEGRATOR_AUTO),
        Integrator::MonteCarlo { samples } => {
            buf.push(INTEGRATOR_MC);
            put_u32(buf, samples as u32);
        }
    }
}

fn read_integrator(r: &mut Reader<'_>) -> Result<Integrator, WireError> {
    match r.u8()? {
        INTEGRATOR_AUTO => Ok(Integrator::Auto),
        INTEGRATOR_MC => {
            let samples = r.u32()?;
            if samples == 0 || samples > MAX_MC_SAMPLES {
                return Err(WireError::Malformed("monte-carlo samples out of range"));
            }
            Ok(Integrator::MonteCarlo {
                samples: samples as usize,
            })
        }
        _ => Err(WireError::Malformed("unknown integrator tag")),
    }
}

fn put_range(buf: &mut Vec<u8>, range: RangeSpec) {
    put_f64(buf, range.w);
    put_f64(buf, range.h);
}

fn read_range(r: &mut Reader<'_>) -> Result<RangeSpec, WireError> {
    let w = r.finite("range w")?;
    let h = r.finite("range h")?;
    if w < 0.0 || h < 0.0 {
        return Err(WireError::Malformed("range half-extents must be >= 0"));
    }
    Ok(RangeSpec::new(w, h))
}

fn read_qp(r: &mut Reader<'_>) -> Result<f64, WireError> {
    let qp = r.finite("constraint qp")?;
    if !(0.0..=1.0).contains(&qp) {
        return Err(WireError::Malformed("constraint qp outside [0, 1]"));
    }
    Ok(qp)
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// Appends the query body a QUERY and a SUBSCRIBE frame share: pdf,
/// range, integrator, constraint.
fn put_query_body<S: WireStrategy>(buf: &mut Vec<u8>, request: &QueryRequest<S>) {
    put_pdf(buf, request.issuer.pdf());
    put_range(buf, request.range);
    put_integrator(buf, request.integrator);
    match request.constraint {
        None => buf.push(0),
        Some(c) => {
            buf.push(1);
            put_f64(buf, c.qp);
            buf.push(c.strategy.tag());
        }
    }
}

/// Reads a query body into a reusable request slot. The slot is only
/// written once the whole body has decoded.
fn read_query_body<S: WireStrategy>(
    r: &mut Reader<'_>,
    request: &mut QueryRequest<S>,
) -> Result<(), WireError> {
    let pdf = read_pdf(r)?;
    let range = read_range(r)?;
    let integrator = read_integrator(r)?;
    let constraint = match r.u8()? {
        0 => None,
        1 => {
            let qp = read_qp(r)?;
            let strategy = S::from_tag(r.u8()?).ok_or(WireError::Malformed(S::UNKNOWN))?;
            Some(Constraint { qp, strategy })
        }
        _ => return Err(WireError::Malformed("bad constraint flag")),
    };
    request.issuer.set_pdf(pdf);
    request.range = range;
    request.integrator = integrator;
    request.constraint = constraint;
    Ok(())
}

/// Appends the query frame of `request`'s catalog
/// ([`opcode::POINT_QUERY`] or [`opcode::UNCERTAIN_QUERY`]).
pub fn encode_query<S: WireStrategy>(buf: &mut Vec<u8>, request: &QueryRequest<S>) {
    let at = begin_frame(buf, S::QUERY_OP);
    put_query_body(buf, request);
    finish_frame(buf, at);
}

/// Decodes a query payload **into** a reusable request slot: the
/// issuer's pdf is replaced in place, so a warm slot makes this
/// allocation-free.
pub fn decode_query_into<S: WireStrategy>(
    payload: &[u8],
    request: &mut QueryRequest<S>,
) -> Result<(), WireError> {
    let mut r = Reader::new(payload);
    read_query_body(&mut r, request)?;
    Ok(r.done()?)
}

/// [`encode_query`] for a point request. Never fails (every pdf has a
/// wire form); the `Result` is kept for callers that propagate it.
pub fn encode_point_query(buf: &mut Vec<u8>, request: &PointRequest) -> Result<(), WireError> {
    encode_query(buf, request);
    Ok(())
}

/// [`decode_query_into`] for an [`opcode::POINT_QUERY`] payload.
pub fn decode_point_query_into(
    payload: &[u8],
    request: &mut PointRequest,
) -> Result<(), WireError> {
    decode_query_into(payload, request)
}

/// [`encode_query`] for an uncertain request. Never fails; the
/// `Result` is kept for callers that propagate it.
pub fn encode_uncertain_query(
    buf: &mut Vec<u8>,
    request: &UncertainRequest,
) -> Result<(), WireError> {
    encode_query(buf, request);
    Ok(())
}

/// [`decode_query_into`] for an [`opcode::UNCERTAIN_QUERY`] payload.
pub fn decode_uncertain_query_into(
    payload: &[u8],
    request: &mut UncertainRequest,
) -> Result<(), WireError> {
    decode_query_into(payload, request)
}

// ---------------------------------------------------------------------------
// Subscriptions
// ---------------------------------------------------------------------------

/// Why a [`opcode::NOTIFY`] frame was sent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum NotifyCause {
    /// Pushed unsolicited: a commit's dirty region stabbed the
    /// subscription's envelope and its answer changed.
    #[default]
    Commit = 0,
    /// The in-order response to a [`opcode::TICK`] frame.
    Tick = 1,
}

/// One decoded [`opcode::NOTIFY`] frame: which standing query changed,
/// the epoch its state now reflects, and the delta to apply. A
/// `Default` value is a reusable slot — [`decode_notify_into`] reuses
/// the delta's buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Notification {
    /// The catalog the subscription stands on.
    pub target: CommitTarget,
    /// The subscription (ids are per connection and catalog).
    pub sub_id: u64,
    /// The epoch the subscription's state reflects after this delta.
    pub epoch: u64,
    /// Why the frame was sent.
    pub cause: NotifyCause,
    /// The answer change to apply.
    pub delta: AnswerDelta,
}

/// Validates a subscription's slack margin: finite, non-negative —
/// the single definition of the slack domain, shared by both encoders
/// and the decode boundary. The wire-level mirror of the assert in
/// [`iloc_core::subscribe::SubscriptionRegistry::subscribe`]:
/// adversarial subscribe frames become typed error frames, never
/// panics.
fn validate_slack(slack: f64) -> Result<(), WireError> {
    if !slack.is_finite() || slack < 0.0 {
        return Err(WireError::Malformed(
            "subscription slack must be finite and >= 0",
        ));
    }
    Ok(())
}

/// Reads and validates a subscription's slack margin.
fn read_slack(r: &mut Reader<'_>) -> Result<f64, WireError> {
    let slack = r.f64()?;
    validate_slack(slack)?;
    Ok(slack)
}

/// Appends an [`opcode::SUBSCRIBE`] frame for a standing query on
/// `request`'s catalog. Fails only on a `slack` outside the wire's
/// domain, before appending anything.
pub fn encode_subscribe<S: WireStrategy>(
    buf: &mut Vec<u8>,
    slack: f64,
    request: &QueryRequest<S>,
) -> Result<(), WireError> {
    validate_slack(slack)?;
    let at = begin_frame(buf, opcode::SUBSCRIBE);
    put_target(buf, S::TARGET);
    put_f64(buf, slack);
    put_query_body(buf, request);
    finish_frame(buf, at);
    Ok(())
}

/// [`encode_subscribe`] for a standing point query.
pub fn encode_subscribe_point(
    buf: &mut Vec<u8>,
    slack: f64,
    request: &PointRequest,
) -> Result<(), WireError> {
    encode_subscribe(buf, slack, request)
}

/// Reads a [`opcode::SUBSCRIBE`] payload's header, leaving the reader
/// at the query body (decode it with [`decode_subscribe_body`] into
/// the target catalog's request slot).
pub fn decode_subscribe_header(r: &mut Reader<'_>) -> Result<(CommitTarget, f64), WireError> {
    let target = read_target(r)?;
    let slack = read_slack(r)?;
    Ok((target, slack))
}

/// Decodes the query body of a [`opcode::SUBSCRIBE`] payload into a
/// reusable slot (allocation-free once warm).
pub fn decode_subscribe_body<S: WireStrategy>(
    r: &mut Reader<'_>,
    request: &mut QueryRequest<S>,
) -> Result<(), WireError> {
    read_query_body(r, request)?;
    Ok(r.done()?)
}

/// Appends an [`opcode::UNSUBSCRIBE`] frame.
pub fn encode_unsubscribe(buf: &mut Vec<u8>, target: CommitTarget, sub_id: u64) {
    let at = begin_frame(buf, opcode::UNSUBSCRIBE);
    put_target(buf, target);
    put_u64(buf, sub_id);
    finish_frame(buf, at);
}

/// Decodes an [`opcode::UNSUBSCRIBE`] payload.
pub fn decode_unsubscribe(payload: &[u8]) -> Result<(CommitTarget, u64), WireError> {
    let mut r = Reader::new(payload);
    let target = read_target(&mut r)?;
    let sub_id = r.u64()?;
    r.done()?;
    Ok((target, sub_id))
}

/// Appends an [`opcode::UNSUB_DONE`] frame.
pub fn encode_unsub_done(buf: &mut Vec<u8>, existed: bool) {
    let at = begin_frame(buf, opcode::UNSUB_DONE);
    buf.push(existed as u8);
    finish_frame(buf, at);
}

/// Decodes an [`opcode::UNSUB_DONE`] payload.
pub fn decode_unsub_done(payload: &[u8]) -> Result<bool, WireError> {
    let mut r = Reader::new(payload);
    let existed = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("bad unsubscribe flag")),
    };
    r.done()?;
    Ok(existed)
}

/// Appends an [`opcode::TICK`] frame: the subscription's issuer moved
/// to a new pdf. The standing query's range, integrator and constraint
/// are fixed at subscribe time — a tick carries only the position.
pub fn encode_tick(buf: &mut Vec<u8>, target: CommitTarget, sub_id: u64, pdf: &PdfKind) {
    let at = begin_frame(buf, opcode::TICK);
    put_target(buf, target);
    put_u64(buf, sub_id);
    put_pdf(buf, pdf);
    finish_frame(buf, at);
}

/// Decodes an [`opcode::TICK`] payload (the pdf is validated exactly
/// like a query's issuer pdf).
pub fn decode_tick(payload: &[u8]) -> Result<(CommitTarget, u64, PdfKind), WireError> {
    let mut r = Reader::new(payload);
    let target = read_target(&mut r)?;
    let sub_id = r.u64()?;
    let pdf = read_pdf(&mut r)?;
    r.done()?;
    Ok((target, sub_id, pdf))
}

/// Appends an [`opcode::SUB_ACK`] frame: the new subscription's id,
/// the epoch it evaluated against, the epoch this server process
/// recovered at (0 for a fresh or transient catalog — a reconnecting
/// client that sees it change knows the server restarted), and the
/// initial full answer.
pub fn encode_sub_ack(
    buf: &mut Vec<u8>,
    target: CommitTarget,
    sub_id: u64,
    epoch: u64,
    recovered_epoch: u64,
    initial: &[Match],
) {
    let at = begin_frame(buf, opcode::SUB_ACK);
    put_target(buf, target);
    put_u64(buf, sub_id);
    put_u64(buf, epoch);
    put_u64(buf, recovered_epoch);
    put_matches(buf, initial);
    finish_frame(buf, at);
}

/// Decodes an [`opcode::SUB_ACK`] payload, overwriting `answer` with
/// the initial matches; returns
/// `(target, sub_id, epoch, recovered_epoch)`.
pub fn decode_sub_ack_into(
    payload: &[u8],
    answer: &mut QueryAnswer,
) -> Result<(CommitTarget, u64, u64, u64), WireError> {
    let mut r = Reader::new(payload);
    let target = read_target(&mut r)?;
    let sub_id = r.u64()?;
    let epoch = r.u64()?;
    let recovered_epoch = r.u64()?;
    answer.stats = Default::default();
    read_matches_into(&mut r, &mut answer.results)?;
    r.done()?;
    Ok((target, sub_id, epoch, recovered_epoch))
}

/// Appends an [`opcode::NOTIFY`] frame carrying `delta` (id-sorted
/// upserts then removals, probabilities as bit patterns — applying the
/// delta client-side reproduces the server's fresh answer
/// bit-identically).
pub fn encode_notify(
    buf: &mut Vec<u8>,
    target: CommitTarget,
    sub_id: u64,
    epoch: u64,
    cause: NotifyCause,
    delta: &AnswerDelta,
) {
    let at = begin_frame(buf, opcode::NOTIFY);
    put_target(buf, target);
    put_u64(buf, sub_id);
    put_u64(buf, epoch);
    buf.push(cause as u8);
    put_matches(buf, &delta.upserts);
    put_u32(buf, delta.removals.len() as u32);
    for id in &delta.removals {
        put_u64(buf, id.0);
    }
    finish_frame(buf, at);
}

/// Decodes an [`opcode::NOTIFY`] payload into a reusable slot (the
/// delta's buffers keep their capacity).
pub fn decode_notify_into(payload: &[u8], out: &mut Notification) -> Result<(), WireError> {
    let mut r = Reader::new(payload);
    out.target = read_target(&mut r)?;
    out.sub_id = r.u64()?;
    out.epoch = r.u64()?;
    out.cause = match r.u8()? {
        0 => NotifyCause::Commit,
        1 => NotifyCause::Tick,
        _ => return Err(WireError::Malformed("unknown notify cause")),
    };
    out.delta.clear();
    read_matches_into(&mut r, &mut out.delta.upserts)?;
    let removals = r.u32()?;
    for _ in 0..removals {
        out.delta.removals.push(ObjectId(r.u64()?));
    }
    Ok(r.done()?)
}

// ---------------------------------------------------------------------------
// Updates and commits
// ---------------------------------------------------------------------------

fn put_target(buf: &mut Vec<u8>, target: CommitTarget) {
    buf.push(target as u8);
}

fn read_target(r: &mut Reader<'_>) -> Result<CommitTarget, WireError> {
    match r.u8()? {
        0 => Ok(CommitTarget::Point),
        1 => Ok(CommitTarget::Uncertain),
        _ => Err(WireError::Malformed("unknown catalog target")),
    }
}

/// The catalog a SUBSCRIBE, UNSUBSCRIBE, TICK or COMMIT payload
/// addresses — its first byte, read with the error its full decoder
/// would report — so a front end can dispatch on the catalog before
/// decoding the rest.
pub(crate) fn peek_target(payload: &[u8]) -> Result<CommitTarget, WireError> {
    read_target(&mut Reader::new(payload))
}

/// Appends an [`opcode::UPDATE_BATCH`] frame carrying `updates`.
/// Never fails (every object has a wire form); the `Result` is kept
/// for callers that propagate it.
pub fn encode_update_batch(buf: &mut Vec<u8>, updates: &[WireUpdate]) -> Result<(), WireError> {
    let at = begin_frame(buf, opcode::UPDATE_BATCH);
    put_u32(buf, updates.len() as u32);
    for update in updates {
        put_update(buf, update);
    }
    finish_frame(buf, at);
    Ok(())
}

/// One wire update is its catalog-target byte followed by the object
/// codec's update encoding — byte-for-byte what the WAL appends.
fn put_update(buf: &mut Vec<u8>, update: &WireUpdate) {
    put_target(buf, update.target());
    match update {
        WireUpdate::Point(u) => codec::put_update(buf, u),
        WireUpdate::Uncertain(u) => codec::put_update(buf, u),
    }
}

/// Decodes an [`opcode::UPDATE_BATCH`] payload, appending the updates
/// to `out` (cleared first). An object decodes as its id and pdf, as
/// the WAL stores it; nothing is derived from it here. Updates are the
/// ingestion path, which the paper's cost model (and the
/// zero-allocation invariant) excludes from query execution.
pub fn decode_update_batch(payload: &[u8], out: &mut Vec<WireUpdate>) -> Result<(), WireError> {
    out.clear();
    let mut r = Reader::new(payload);
    let count = r.u32()?;
    for _ in 0..count {
        out.push(match read_target(&mut r)? {
            CommitTarget::Point => WireUpdate::Point(codec::read_update(&mut r)?),
            CommitTarget::Uncertain => WireUpdate::Uncertain(codec::read_update(&mut r)?),
        });
    }
    Ok(r.done()?)
}

/// Appends an [`opcode::COMMIT`] frame for one catalog.
pub fn encode_commit(buf: &mut Vec<u8>, target: CommitTarget) {
    let at = begin_frame(buf, opcode::COMMIT);
    put_target(buf, target);
    finish_frame(buf, at);
}

/// Decodes an [`opcode::COMMIT`] payload.
pub fn decode_commit(payload: &[u8]) -> Result<CommitTarget, WireError> {
    let mut r = Reader::new(payload);
    let target = read_target(&mut r)?;
    r.done()?;
    Ok(target)
}

/// Appends an empty-payload frame ([`opcode::STATS`], [`opcode::PING`],
/// [`opcode::PONG`]).
pub fn encode_empty(buf: &mut Vec<u8>, op: u8) {
    let at = begin_frame(buf, op);
    finish_frame(buf, at);
}

/// Appends an [`opcode::HELLO`] frame: the sender's protocol version
/// (repeated in the payload so the responder can name it in a
/// [`ErrorCode::BadVersion`] ERROR even when it doesn't parse the
/// sender's frame header version), its [`Role`], and reserved flags.
pub fn encode_hello(buf: &mut Vec<u8>, role: Role, flags: u16) {
    let at = begin_frame(buf, opcode::HELLO);
    buf.push(PROTOCOL_VERSION);
    buf.push(role as u8);
    put_u16(buf, flags);
    finish_frame(buf, at);
}

/// Decodes an [`opcode::HELLO`] payload into
/// `(version, role, flags)`. The version comes back raw — the caller
/// decides whether it can serve that dialect; an unknown role byte is
/// malformed.
pub fn decode_hello(payload: &[u8]) -> Result<(u8, Role, u16), WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    let role = Role::from_u8(r.u8()?).ok_or(WireError::Malformed("hello role"))?;
    let flags = r.u16()?;
    r.done()?;
    Ok((version, role, flags))
}

/// Peeks the version byte out of an [`opcode::HELLO`] payload without
/// validating the rest — what a responder uses to word its
/// [`ErrorCode::BadVersion`] reply for a peer from the future whose
/// HELLO body it cannot fully parse.
pub fn hello_peer_version(payload: &[u8]) -> Option<u8> {
    payload.first().copied()
}

/// Appends an [`opcode::HELLO_ACK`] frame.
pub fn encode_hello_ack(buf: &mut Vec<u8>, ack: &HelloAck) {
    let at = begin_frame(buf, opcode::HELLO_ACK);
    buf.push(PROTOCOL_VERSION);
    buf.push(ack.role as u8);
    put_u16(buf, ack.flags);
    put_u64(buf, ack.point_epoch);
    put_u64(buf, ack.uncertain_epoch);
    put_u64(buf, ack.point_recovered);
    put_u64(buf, ack.uncertain_recovered);
    put_u32(buf, ack.point_shards);
    put_u32(buf, ack.uncertain_shards);
    finish_frame(buf, at);
}

/// Decodes an [`opcode::HELLO_ACK`] payload.
pub fn decode_hello_ack(payload: &[u8]) -> Result<HelloAck, WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::Malformed("hello_ack version"));
    }
    let ack = HelloAck {
        role: Role::from_u8(r.u8()?).ok_or(WireError::Malformed("hello_ack role"))?,
        flags: r.u16()?,
        point_epoch: r.u64()?,
        uncertain_epoch: r.u64()?,
        point_recovered: r.u64()?,
        uncertain_recovered: r.u64()?,
        point_shards: r.u32()?,
        uncertain_shards: r.u32()?,
    };
    r.done()?;
    Ok(ack)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Appends a match list — a count, then each match's id and
/// probability bit pattern — as ANSWER, SUB_ACK and NOTIFY carry it.
fn put_matches(buf: &mut Vec<u8>, matches: &[Match]) {
    put_u32(buf, matches.len() as u32);
    for m in matches {
        put_u64(buf, m.id.0);
        put_u64(buf, m.probability.to_bits());
    }
}

/// Reads a match list into `out`, cleared first (its capacity is
/// kept, so a warm buffer reads without allocating).
fn read_matches_into(r: &mut Reader<'_>, out: &mut Vec<Match>) -> Result<(), WireError> {
    out.clear();
    let count = r.u32()?;
    for _ in 0..count {
        let id = ObjectId(r.u64()?);
        let probability = f64::from_bits(r.u64()?);
        out.push(Match { id, probability });
    }
    Ok(())
}

/// Appends an [`opcode::ANSWER`] frame: the matches (ids + probability
/// bit patterns) of `answer`. Stats stay server-side; probe them with
/// [`opcode::STATS`].
pub fn encode_answer(buf: &mut Vec<u8>, answer: &QueryAnswer) {
    let at = begin_frame(buf, opcode::ANSWER);
    put_matches(buf, &answer.results);
    finish_frame(buf, at);
}

/// Decodes an [`opcode::ANSWER`] payload into a reusable answer
/// (results overwritten, stats zeroed; allocation-free once the match
/// buffer has grown to workload size).
pub fn decode_answer_into(payload: &[u8], answer: &mut QueryAnswer) -> Result<(), WireError> {
    answer.stats = Default::default();
    let mut r = Reader::new(payload);
    read_matches_into(&mut r, &mut answer.results)?;
    Ok(r.done()?)
}

/// Appends an [`opcode::UPDATE_ACK`] frame.
pub fn encode_update_ack(buf: &mut Vec<u8>, accepted: u32) {
    let at = begin_frame(buf, opcode::UPDATE_ACK);
    put_u32(buf, accepted);
    finish_frame(buf, at);
}

/// Decodes an [`opcode::UPDATE_ACK`] payload.
pub fn decode_update_ack(payload: &[u8]) -> Result<u32, WireError> {
    let mut r = Reader::new(payload);
    let accepted = r.u32()?;
    r.done()?;
    Ok(accepted)
}

/// Appends an [`opcode::COMMIT_DONE`] frame for `report`, including
/// the per-shard applied counts and the merged dirty rectangle (what
/// moved, and where — the same footprint subscription wake-up stabs
/// envelopes with).
pub fn encode_commit_done(buf: &mut Vec<u8>, report: &CommitReport) {
    let at = begin_frame(buf, opcode::COMMIT_DONE);
    put_u64(buf, report.epoch);
    put_u32(buf, report.arrivals as u32);
    put_u32(buf, report.departures as u32);
    put_u32(buf, report.moves as u32);
    put_u32(buf, report.missed_departures as u32);
    match report.dirty {
        None => buf.push(0),
        Some(d) => {
            buf.push(1);
            put_rect(buf, d);
        }
    }
    put_u32(buf, report.per_shard.len() as u32);
    for &n in &report.per_shard {
        put_u32(buf, n as u32);
    }
    finish_frame(buf, at);
}

/// Decodes an [`opcode::COMMIT_DONE`] payload.
pub fn decode_commit_done(payload: &[u8]) -> Result<CommitReport, WireError> {
    let mut r = Reader::new(payload);
    let mut report = CommitReport {
        epoch: r.u64()?,
        arrivals: r.u32()? as usize,
        departures: r.u32()? as usize,
        moves: r.u32()? as usize,
        missed_departures: r.u32()? as usize,
        ..CommitReport::default()
    };
    report.dirty = match r.u8()? {
        0 => None,
        1 => Some(read_rect(&mut r)?),
        _ => return Err(WireError::Malformed("bad dirty-rect flag")),
    };
    let shards = r.u32()?;
    for _ in 0..shards {
        report.per_shard.push(r.u32()? as usize);
    }
    r.done()?;
    Ok(report)
}

/// Appends an [`opcode::STATS_REPORT`] frame for `report`. Both front
/// ends fill a warm per-loop [`StatsReport`] and send it through here
/// (allocation-free): the server from its catalogs, the router by
/// aggregating its nodes' reports, with one health entry per node.
pub fn encode_stats_report_from(buf: &mut Vec<u8>, report: &StatsReport) {
    let at = begin_frame(buf, opcode::STATS_REPORT);
    buf.push(report.alloc_counting as u8);
    put_u64(buf, report.allocations);
    put_u64(buf, report.requests_served);
    put_u32(buf, report.capacity);
    put_u32(buf, report.event_loops);
    put_u64(buf, report.connections);
    put_u64(buf, report.dropped_pushes);
    for cat in [&report.point, &report.uncertain] {
        put_u64(buf, cat.epoch);
        put_u64(buf, cat.len);
        put_u64(buf, cat.pending);
        put_u32(buf, cat.shard_sizes.len() as u32);
        for &n in &cat.shard_sizes {
            put_u64(buf, n);
        }
    }
    put_u64(buf, report.filter_nanos);
    put_u64(buf, report.prune_nanos);
    put_u64(buf, report.refine_nanos);
    for &n in &report.refine_batches {
        put_u64(buf, n);
    }
    put_u32(buf, report.nodes.len() as u32);
    for node in &report.nodes {
        buf.push(node.connected as u8);
        put_u64(buf, node.point_epoch);
        put_u64(buf, node.uncertain_epoch);
        put_u64(buf, node.routed);
        put_u64(buf, node.merged);
    }
    finish_frame(buf, at);
}

fn read_catalog_into(r: &mut Reader<'_>, out: &mut CatalogStats) -> Result<(), WireError> {
    out.epoch = r.u64()?;
    out.len = r.u64()?;
    out.pending = r.u64()?;
    let shards = r.u32()?;
    out.shard_sizes.clear();
    for _ in 0..shards {
        out.shard_sizes.push(r.u64()?);
    }
    Ok(())
}

/// Decodes an [`opcode::STATS_REPORT`] payload into a reusable report
/// (shard-size buffers keep their capacity).
pub fn decode_stats_report_into(payload: &[u8], out: &mut StatsReport) -> Result<(), WireError> {
    let mut r = Reader::new(payload);
    out.alloc_counting = r.u8()? != 0;
    out.allocations = r.u64()?;
    out.requests_served = r.u64()?;
    out.capacity = r.u32()?;
    out.event_loops = r.u32()?;
    out.connections = r.u64()?;
    out.dropped_pushes = r.u64()?;
    read_catalog_into(&mut r, &mut out.point)?;
    read_catalog_into(&mut r, &mut out.uncertain)?;
    out.filter_nanos = r.u64()?;
    out.prune_nanos = r.u64()?;
    out.refine_nanos = r.u64()?;
    for slot in &mut out.refine_batches {
        *slot = r.u64()?;
    }
    let node_count = r.u32()?;
    out.nodes.clear();
    for _ in 0..node_count {
        out.nodes.push(NodeHealth {
            connected: r.u8()? != 0,
            point_epoch: r.u64()?,
            uncertain_epoch: r.u64()?,
            routed: r.u64()?,
            merged: r.u64()?,
        });
    }
    Ok(r.done()?)
}

/// Appends an [`opcode::ERROR`] frame.
pub fn encode_error(buf: &mut Vec<u8>, code: ErrorCode, message: &str) {
    let at = begin_frame(buf, opcode::ERROR);
    buf.push(code as u8);
    let bytes = message.as_bytes();
    let n = bytes.len().min(u16::MAX as usize);
    put_u16(buf, n as u16);
    buf.extend_from_slice(&bytes[..n]);
    finish_frame(buf, at);
}

/// Appends the [`opcode::ERROR`] frame that answers a decode failure,
/// without allocating (the message is the static string the decoder
/// produced).
pub fn wire_error(buf: &mut Vec<u8>, e: WireError) {
    let WireError::Malformed(message) = e;
    encode_error(buf, e.into(), message);
}

/// Decodes an [`opcode::ERROR`] payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> Result<(u8, String), WireError> {
    let mut r = Reader::new(payload);
    let code = r.u8()?;
    let n = r.u16()? as usize;
    let message = String::from_utf8_lossy(r.bytes(n)?).into_owned();
    r.done()?;
    Ok((code, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_core::Issuer;
    use iloc_geometry::{Point, Rect};
    use iloc_uncertainty::{DiscPdf, LocationPdf, TruncatedGaussianPdf, UniformPdf};

    fn frame_payload(buf: &[u8]) -> (u8, &[u8]) {
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        assert_eq!(len + 4, buf.len(), "frame length field");
        assert_eq!(buf[4], PROTOCOL_VERSION);
        (buf[5], &buf[6..])
    }

    fn slot_point_request() -> PointRequest {
        PointRequest::ipq(
            Issuer::uniform(Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
            RangeSpec::square(1.0),
        )
    }

    fn slot_uncertain_request() -> UncertainRequest {
        UncertainRequest::iuq(
            Issuer::uniform(Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
            RangeSpec::square(1.0),
        )
    }

    #[test]
    fn point_query_round_trips_every_field() {
        let cases = vec![
            PointRequest::ipq(
                Issuer::uniform(Rect::from_coords(10.0, 20.0, 110.0, 220.0)),
                RangeSpec::new(30.0, 40.0),
            ),
            PointRequest::cipq(
                Issuer::gaussian(Rect::from_coords(0.0, 0.0, 60.0, 60.0)),
                RangeSpec::square(25.0),
                0.3,
                CipqStrategy::PExpanded,
            )
            .with_integrator(Integrator::MonteCarlo { samples: 200 }),
            PointRequest::cipq(
                Issuer::with_pdf(DiscPdf::new(Point::new(5.0, 9.0), 4.0)),
                RangeSpec::square(12.0),
                0.5,
                CipqStrategy::MinkowskiSum,
            )
            .with_integrator(Integrator::MonteCarlo { samples: 32 }),
        ];
        for request in cases {
            let mut buf = Vec::new();
            encode_point_query(&mut buf, &request).unwrap();
            let (op, payload) = frame_payload(&buf);
            assert_eq!(op, opcode::POINT_QUERY);
            let mut slot = slot_point_request();
            decode_point_query_into(payload, &mut slot).unwrap();
            assert_eq!(slot.issuer.region(), request.issuer.region());
            assert_eq!(slot.issuer.pdf(), request.issuer.pdf());
            assert_eq!(slot.range, request.range);
            assert_eq!(slot.integrator, request.integrator);
            match (slot.constraint, request.constraint) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.qp.to_bits(), b.qp.to_bits());
                    assert_eq!(a.strategy, b.strategy);
                }
                other => panic!("constraint mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn uncertain_query_round_trips() {
        let request = UncertainRequest::ciuq(
            Issuer::uniform(Rect::from_coords(1.0, 2.0, 501.0, 502.0)),
            RangeSpec::square(120.0),
            0.25,
            CiuqStrategy::PtiPExpanded,
        );
        let mut buf = Vec::new();
        encode_uncertain_query(&mut buf, &request).unwrap();
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::UNCERTAIN_QUERY);
        let mut slot = slot_uncertain_request();
        decode_uncertain_query_into(payload, &mut slot).unwrap();
        assert_eq!(slot.issuer.pdf(), request.issuer.pdf());
        assert_eq!(
            slot.constraint.unwrap().strategy,
            CiuqStrategy::PtiPExpanded
        );
    }

    #[test]
    fn update_batch_round_trips_both_catalogs() {
        let updates = vec![
            WireUpdate::Point(Update::Arrive(PointObject::new(7u64, Point::new(1.5, 2.5)))),
            WireUpdate::Point(Update::Depart(ObjectId(9))),
            WireUpdate::Point(Update::Move(PointObject::new(7u64, Point::new(3.0, 4.0)))),
            WireUpdate::Uncertain(Update::Arrive(UncertainObject::new(
                11u64,
                UniformPdf::new(Rect::from_coords(0.0, 0.0, 8.0, 6.0)),
            ))),
            WireUpdate::Uncertain(Update::Depart(ObjectId(12))),
            WireUpdate::Uncertain(Update::Move(UncertainObject::new(
                11u64,
                TruncatedGaussianPdf::paper_default(Rect::from_coords(5.0, 5.0, 25.0, 30.0)),
            ))),
        ];
        let mut buf = Vec::new();
        encode_update_batch(&mut buf, &updates).unwrap();
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::UPDATE_BATCH);
        let mut out = Vec::new();
        decode_update_batch(payload, &mut out).unwrap();
        assert_eq!(out.len(), updates.len());
        match (&out[0], &out[3], &out[5]) {
            (
                WireUpdate::Point(Update::Arrive(p)),
                WireUpdate::Uncertain(Update::Arrive(u)),
                WireUpdate::Uncertain(Update::Move(m)),
            ) => {
                assert_eq!(p.id, ObjectId(7));
                assert_eq!(p.loc, Point::new(1.5, 2.5));
                assert_eq!(u.id, ObjectId(11));
                assert_eq!(u.region(), Rect::from_coords(0.0, 0.0, 8.0, 6.0));
                // The decoded catalog matches a locally-built object's.
                assert_eq!(
                    m.catalog(),
                    UncertainObject::new(
                        0u64,
                        TruncatedGaussianPdf::paper_default(Rect::from_coords(
                            5.0, 5.0, 25.0, 30.0
                        ))
                    )
                    .catalog()
                );
            }
            other => panic!("wrong shapes: {other:?}"),
        }
    }

    #[test]
    fn answer_round_trips_bit_identically() {
        let mut answer = QueryAnswer::default();
        for (id, p) in [(3u64, 0.125), (9, 1.0 - 1e-16), (100, f64::MIN_POSITIVE)] {
            answer.results.push(iloc_core::Match {
                id: ObjectId(id),
                probability: p,
            });
        }
        let mut buf = Vec::new();
        encode_answer(&mut buf, &answer);
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::ANSWER);
        let mut back = QueryAnswer::default();
        back.results.push(iloc_core::Match {
            id: ObjectId(0),
            probability: 0.0,
        }); // dirty slot
        decode_answer_into(payload, &mut back).unwrap();
        assert!(back.same_matches(&answer));
    }

    #[test]
    fn commit_and_ack_and_error_round_trip() {
        let mut buf = Vec::new();
        encode_commit(&mut buf, CommitTarget::Uncertain);
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::COMMIT);
        assert_eq!(decode_commit(payload).unwrap(), CommitTarget::Uncertain);

        buf.clear();
        encode_update_ack(&mut buf, 42);
        let (_, payload) = frame_payload(&buf);
        assert_eq!(decode_update_ack(payload).unwrap(), 42);

        buf.clear();
        let report = CommitReport {
            epoch: 9,
            arrivals: 1,
            departures: 2,
            moves: 3,
            missed_departures: 4,
            per_shard: vec![2, 0, 4],
            dirty: Some(Rect::from_coords(10.0, 20.0, 410.0, 220.0)),
        };
        encode_commit_done(&mut buf, &report);
        let (_, payload) = frame_payload(&buf);
        assert_eq!(decode_commit_done(payload).unwrap(), report);

        // A dirt-free report round-trips too.
        buf.clear();
        encode_commit_done(&mut buf, &CommitReport::default());
        let (_, payload) = frame_payload(&buf);
        assert_eq!(
            decode_commit_done(payload).unwrap(),
            CommitReport::default()
        );

        buf.clear();
        encode_error(&mut buf, ErrorCode::Malformed, "nope");
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::ERROR);
        assert_eq!(
            decode_error(payload).unwrap(),
            (ErrorCode::Malformed as u8, "nope".to_string())
        );
    }

    #[test]
    fn malformed_payloads_error_not_panic() {
        let mut slot = slot_point_request();
        let mut request_bytes = Vec::new();
        encode_point_query(
            &mut request_bytes,
            &PointRequest::ipq(
                Issuer::uniform(Rect::from_coords(0.0, 0.0, 10.0, 10.0)),
                RangeSpec::square(5.0),
            ),
        )
        .unwrap();
        let (_, payload) = frame_payload(&request_bytes);

        // Truncations at every prefix length fail cleanly.
        for n in 0..payload.len() {
            assert!(
                decode_point_query_into(&payload[..n], &mut slot).is_err(),
                "prefix {n} should be malformed"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = payload.to_vec();
        long.push(0);
        assert_eq!(
            decode_point_query_into(&long, &mut slot),
            Err(WireError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn subscribe_tick_and_notify_round_trip() {
        // SUBSCRIBE carries the slack and the full query body.
        let request = PointRequest::cipq(
            Issuer::uniform(Rect::from_coords(10.0, 10.0, 110.0, 110.0)),
            RangeSpec::square(40.0),
            0.25,
            CipqStrategy::MinkowskiSum,
        );
        let mut buf = Vec::new();
        encode_subscribe_point(&mut buf, 75.0, &request).unwrap();
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::SUBSCRIBE);
        let mut r = Reader::new(payload);
        let (target, slack) = decode_subscribe_header(&mut r).unwrap();
        assert_eq!(target, CommitTarget::Point);
        assert_eq!(slack, 75.0);
        let mut slot = slot_point_request();
        decode_subscribe_body(&mut r, &mut slot).unwrap();
        assert_eq!(slot.issuer.region(), request.issuer.region());
        assert_eq!(slot.constraint.unwrap().qp, 0.25);

        // The uncertain flavour routes by target.
        buf.clear();
        let urequest = UncertainRequest::iuq(
            Issuer::uniform(Rect::from_coords(0.0, 0.0, 50.0, 50.0)),
            RangeSpec::square(30.0),
        );
        encode_subscribe(&mut buf, 0.0, &urequest).unwrap();
        let (_, payload) = frame_payload(&buf);
        let mut r = Reader::new(payload);
        let (target, slack) = decode_subscribe_header(&mut r).unwrap();
        assert_eq!((target, slack), (CommitTarget::Uncertain, 0.0));
        let mut slot = slot_uncertain_request();
        decode_subscribe_body(&mut r, &mut slot).unwrap();
        assert_eq!(slot.issuer.region(), urequest.issuer.region());

        // TICK: target + id + pdf.
        buf.clear();
        let pdf = PdfKind::Uniform(UniformPdf::new(Rect::from_coords(5.0, 6.0, 25.0, 26.0)));
        encode_tick(&mut buf, CommitTarget::Point, 42, &pdf);
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::TICK);
        let (target, sub_id, got) = decode_tick(payload).unwrap();
        assert_eq!((target, sub_id), (CommitTarget::Point, 42));
        assert_eq!(got.region(), pdf.region());

        // SUB_ACK: id + epoch + initial answer, bit-exact.
        buf.clear();
        let initial = vec![
            iloc_core::Match {
                id: ObjectId(3),
                probability: 0.125,
            },
            iloc_core::Match {
                id: ObjectId(9),
                probability: 1.0 - 1e-16,
            },
        ];
        encode_sub_ack(&mut buf, CommitTarget::Uncertain, 7, 11, 5, &initial);
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::SUB_ACK);
        let mut answer = QueryAnswer::default();
        let (target, sub_id, epoch, recovered) = decode_sub_ack_into(payload, &mut answer).unwrap();
        assert_eq!(
            (target, sub_id, epoch, recovered),
            (CommitTarget::Uncertain, 7, 11, 5)
        );
        assert_eq!(answer.results.len(), 2);
        assert_eq!(
            answer.results[1].probability.to_bits(),
            (1.0f64 - 1e-16).to_bits()
        );

        // NOTIFY: delta with upserts and removals, cause tagged.
        buf.clear();
        let delta = AnswerDelta {
            upserts: initial.clone(),
            removals: vec![ObjectId(1), ObjectId(5)],
        };
        encode_notify(
            &mut buf,
            CommitTarget::Point,
            42,
            12,
            NotifyCause::Tick,
            &delta,
        );
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::NOTIFY);
        let mut note = Notification::default();
        // Dirty slot: stale contents must be overwritten.
        note.delta.removals.push(ObjectId(999));
        decode_notify_into(payload, &mut note).unwrap();
        assert_eq!(note.target, CommitTarget::Point);
        assert_eq!((note.sub_id, note.epoch), (42, 12));
        assert_eq!(note.cause, NotifyCause::Tick);
        assert_eq!(note.delta, delta);

        // UNSUBSCRIBE / UNSUB_DONE.
        buf.clear();
        encode_unsubscribe(&mut buf, CommitTarget::Uncertain, 42);
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::UNSUBSCRIBE);
        assert_eq!(
            decode_unsubscribe(payload).unwrap(),
            (CommitTarget::Uncertain, 42)
        );
        buf.clear();
        encode_unsub_done(&mut buf, true);
        let (_, payload) = frame_payload(&buf);
        assert!(decode_unsub_done(payload).unwrap());
    }

    #[test]
    fn adversarial_subscribe_frames_are_typed_errors() {
        let request = PointRequest::ipq(
            Issuer::uniform(Rect::from_coords(0.0, 0.0, 10.0, 10.0)),
            RangeSpec::square(5.0),
        );
        // Bad slack is rejected client-side before anything is sent...
        let mut buf = Vec::new();
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                encode_subscribe_point(&mut buf, bad, &request),
                Err(WireError::Malformed(_))
            ));
            assert!(buf.is_empty());
        }
        // ...and server-side at the decode boundary, as a typed error
        // rather than a constructor panic.
        encode_subscribe_point(&mut buf, 10.0, &request).unwrap();
        let (_, payload) = frame_payload(&buf);
        for bad in [-1.0f64, f64::NAN, f64::INFINITY] {
            let mut forged = payload.to_vec();
            forged[1..9].copy_from_slice(&bad.to_bits().to_le_bytes());
            let mut r = Reader::new(&forged);
            assert_eq!(
                decode_subscribe_header(&mut r),
                Err(WireError::Malformed(
                    "subscription slack must be finite and >= 0"
                ))
            );
        }
        // Truncations at every prefix fail cleanly too.
        for n in 0..payload.len() {
            let mut r = Reader::new(&payload[..n]);
            let truncated = decode_subscribe_header(&mut r)
                .and_then(|_| decode_subscribe_body(&mut r, &mut slot_point_request()));
            assert!(truncated.is_err(), "prefix {n} should be malformed");
        }
    }

    /// Decodes a QUERY (`subscribe == false`) or SUBSCRIBE payload
    /// through the one generic body decoder, into a fresh copy of
    /// `slot`.
    fn decode_body<S: WireStrategy>(
        subscribe: bool,
        payload: &[u8],
        slot: &QueryRequest<S>,
    ) -> Result<(), WireError> {
        let mut slot = slot.clone();
        if !subscribe {
            return decode_query_into(payload, &mut slot);
        }
        let mut r = Reader::new(payload);
        decode_subscribe_header(&mut r)?;
        decode_subscribe_body(&mut r, &mut slot)
    }

    /// Every refusal of the shared body, on one catalog, for both
    /// frames that carry it.
    fn refusals_hold<S: WireStrategy>(request: &QueryRequest<S>, unknown_strategy: &'static str) {
        let slot = QueryRequest {
            constraint: None,
            ..request.clone()
        };
        for (subscribe, op) in [(false, S::QUERY_OP), (true, opcode::SUBSCRIBE)] {
            let mut buf = Vec::new();
            if subscribe {
                encode_subscribe(&mut buf, 5.0, request).unwrap();
            } else {
                encode_query(&mut buf, request);
            }
            let (got_op, payload) = frame_payload(&buf);
            assert_eq!(got_op, op);
            assert_eq!(decode_body(subscribe, payload, &slot), Ok(()));
            for n in 0..payload.len() {
                assert!(
                    decode_body(subscribe, &payload[..n], &slot).is_err(),
                    "op {op:#04x}: prefix {n} should be malformed"
                );
            }
            // The body ends with flag, qp (8 bytes), strategy tag.
            let flag_at = payload.len() - 10;
            assert_eq!(payload[flag_at], 1);
            let mut forged = payload.to_vec();
            forged[flag_at] = 2;
            assert_eq!(
                decode_body(subscribe, &forged, &slot),
                Err(WireError::Malformed("bad constraint flag"))
            );
            let mut forged = payload.to_vec();
            *forged.last_mut().unwrap() = 2;
            assert_eq!(
                decode_body(subscribe, &forged, &slot),
                Err(WireError::Malformed(unknown_strategy))
            );
        }
    }

    #[test]
    fn the_query_body_decoder_refuses_alike_on_both_catalogs_and_frames() {
        let region = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        refusals_hold(
            &PointRequest::cipq(
                Issuer::uniform(region),
                RangeSpec::square(5.0),
                0.5,
                CipqStrategy::PExpanded,
            ),
            "unknown C-IPQ strategy",
        );
        refusals_hold(
            &UncertainRequest::ciuq(
                Issuer::uniform(region),
                RangeSpec::square(5.0),
                0.5,
                CiuqStrategy::PtiPExpanded,
            ),
            "unknown C-IUQ strategy",
        );
    }

    #[test]
    fn update_batch_count_must_match_payload() {
        // Count says 100, payload holds one depart: the decoder runs
        // out of bytes rather than trusting the count.
        let mut buf = Vec::new();
        let at = begin_frame(&mut buf, opcode::UPDATE_BATCH);
        put_u32(&mut buf, 100);
        buf.push(CommitTarget::Point as u8);
        buf.push(1); // the object codec's depart tag
        put_u64(&mut buf, 1);
        finish_frame(&mut buf, at);
        let (_, payload) = frame_payload(&buf);
        let mut out = Vec::new();
        assert!(decode_update_batch(payload, &mut out).is_err());
    }

    #[test]
    fn integrator_limits_are_enforced() {
        let mut bytes = vec![INTEGRATOR_MC];
        bytes.extend_from_slice(&(MAX_MC_SAMPLES + 1).to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert!(read_integrator(&mut r).is_err());

        let mut bytes = vec![INTEGRATOR_MC];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert!(read_integrator(&mut r).is_err());

        // Tags 1 and 2 are unassigned, with or without a payload after.
        for bytes in [&[1u8][..], &[2, 32, 0, 0, 0]] {
            let mut r = Reader::new(bytes);
            assert!(matches!(
                read_integrator(&mut r),
                Err(WireError::Malformed("unknown integrator tag"))
            ));
        }
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_roles() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, Role::Router, 0);
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::HELLO);
        assert_eq!(
            decode_hello(payload).unwrap(),
            (PROTOCOL_VERSION, Role::Router, 0)
        );
        assert_eq!(hello_peer_version(payload), Some(PROTOCOL_VERSION));

        // A HELLO from the future: unknown version still peeks, and a
        // role byte we don't know is malformed rather than a panic.
        let future = [9u8, 7, 0, 0];
        assert_eq!(hello_peer_version(&future), Some(9));
        assert_eq!(
            decode_hello(&future),
            Err(WireError::Malformed("hello role"))
        );
        assert_eq!(hello_peer_version(&[]), None);
    }

    #[test]
    fn hello_ack_round_trips() {
        let ack = HelloAck {
            role: Role::Server,
            flags: 0,
            point_epoch: 12,
            uncertain_epoch: 7,
            point_recovered: 3,
            uncertain_recovered: 0,
            point_shards: 4,
            uncertain_shards: 4,
        };
        let mut buf = Vec::new();
        encode_hello_ack(&mut buf, &ack);
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::HELLO_ACK);
        assert_eq!(decode_hello_ack(payload).unwrap(), ack);

        // Version skew inside the ack payload is rejected.
        let mut skewed = payload.to_vec();
        skewed[0] = PROTOCOL_VERSION + 1;
        assert!(decode_hello_ack(&skewed).is_err());
    }

    #[test]
    fn stats_report_from_round_trips_node_section() {
        let report = StatsReport {
            alloc_counting: true,
            allocations: 101,
            requests_served: 55,
            capacity: 128,
            event_loops: 2,
            connections: 3,
            dropped_pushes: 1,
            point: CatalogStats {
                epoch: 9,
                len: 40,
                pending: 2,
                shard_sizes: vec![10, 12, 18],
            },
            uncertain: CatalogStats {
                epoch: 4,
                len: 7,
                pending: 0,
                shard_sizes: vec![3, 4],
            },
            filter_nanos: 111,
            prune_nanos: 222,
            refine_nanos: 333,
            refine_batches: [5; REFINE_BATCH_BUCKETS],
            nodes: vec![
                NodeHealth {
                    connected: true,
                    point_epoch: 9,
                    uncertain_epoch: 4,
                    routed: 1000,
                    merged: 900,
                },
                NodeHealth {
                    connected: false,
                    point_epoch: 8,
                    uncertain_epoch: 4,
                    routed: 600,
                    merged: 550,
                },
            ],
        };
        let mut buf = Vec::new();
        encode_stats_report_from(&mut buf, &report);
        let (op, payload) = frame_payload(&buf);
        assert_eq!(op, opcode::STATS_REPORT);
        let mut back = StatsReport {
            nodes: vec![NodeHealth::default(); 5], // dirty slot
            ..StatsReport::default()
        };
        decode_stats_report_into(payload, &mut back).unwrap();
        assert_eq!(back, report);
    }
}
