//! The sync, connection-reusing client.
//!
//! One [`Client`] owns one TCP connection plus reusable encode/decode
//! buffers; the `*_into` methods are **allocation-free once warm**
//! (the load generator's steady-state loop runs through them), and the
//! `*_batch_into` methods pipeline a whole request slice through the
//! socket in windows, amortising round trips.
//!
//! ## Pushed deltas
//!
//! A connection holding subscriptions receives **unsolicited NOTIFY
//! frames** whenever a commit changes a standing query's answer. The
//! server only ever interleaves them *between* responses, so the
//! stream stays "one response per request, pushes in the gaps". The
//! client preserves that order: any NOTIFY read while waiting for a
//! response is queued, [`Client::take_notification`] drains the queue
//! in arrival order, and [`Client::poll_notification`] additionally
//! polls the socket when the queue is empty. Apply deltas in exactly
//! the order they are taken — each composes on the state produced by
//! the previous one.

use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use iloc_core::pipeline::{PointRequest, UncertainRequest};
use iloc_core::serve::CommitReport;
use iloc_core::QueryAnswer;
use iloc_uncertainty::PdfKind;

use crate::protocol::{
    self, opcode, CommitTarget, ErrorCode, HelloAck, Notification, NotifyCause, Role, StatsReport,
    WireError, WireUpdate, PROTOCOL_VERSION,
};

/// Default pipeline window for the batch methods: deep enough to hide
/// round trips, shallow enough that neither end's socket buffer fills
/// while the other is still writing.
pub const DEFAULT_PIPELINE_WINDOW: usize = 32;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The response (or this request) violated the wire format.
    Wire(WireError),
    /// The server answered with an error frame.
    Server {
        /// Decoded error code, when the byte is a known code.
        code: Option<ErrorCode>,
        /// Raw code byte.
        raw_code: u8,
        /// Server-provided message.
        message: String,
    },
    /// The server answered with a frame this call did not expect.
    Unexpected {
        /// The opcode received.
        opcode: u8,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server {
                code,
                raw_code,
                message,
            } => write!(f, "server error {code:?} ({raw_code}): {message}"),
            ClientError::Unexpected { opcode } => {
                write!(f, "unexpected response opcode {opcode:#04x}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A SUB_ACK's bookkeeping: the subscription's id, the epoch its
/// initial answer evaluated against, and the epoch the server process
/// recovered at (0 for a fresh or transient catalog). A reconnecting
/// subscriber that sees `recovered_epoch` change knows the server
/// restarted and its old subscription ids are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubAck {
    /// Server-assigned subscription id (per connection).
    pub sub_id: u64,
    /// Epoch the initial answer evaluated against.
    pub epoch: u64,
    /// Engine epoch at server-process start for this catalog.
    pub recovered_epoch: u64,
}

/// Bytes a fresh receive buffer starts with; it grows to hold the
/// largest frame received. One `read` takes as many pipelined frames
/// as fit. (Doubling it whenever a read filled it, so a whole batch of
/// answers fits, was measured: no throughput gained on
/// `cluster_fanout`, ~1 MB more resident.)
const INBOX_START: usize = 512;

/// A blocking protocol client over one reused connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Received bytes, parsed in place: `inbox[payload_at..consumed]`
    /// is the payload of the frame [`Client::recv`] returned last, and
    /// `inbox[consumed..filled]` is what arrived behind it.
    inbox: Vec<u8>,
    payload_at: usize,
    consumed: usize,
    filled: usize,
    write_buf: Vec<u8>,
    /// Pushed NOTIFY frames read while waiting for a response, in
    /// arrival order.
    pending: VecDeque<Notification>,
    /// The server's HELLO_ACK from the v6 connect handshake.
    hello: Option<HelloAck>,
}

impl Client {
    /// Connects as [`Role::Client`] (with `TCP_NODELAY`, as every
    /// frame is a full request or response) and performs the v6
    /// HELLO handshake. A version-mismatched server answers the HELLO
    /// with a typed ERROR naming its supported version, which surfaces
    /// here as `InvalidData` carrying that message.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_as(addr, Role::Client)
    }

    /// [`Client::connect`] with an explicit role — the router connects
    /// upstream as [`Role::Router`].
    pub fn connect_as(addr: impl ToSocketAddrs, role: Role) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream, role)
    }

    /// Wraps an already-connected stream (the router dials its nodes
    /// with the non-blocking connect in [`crate::poll`] and hands the
    /// finished sockets here) and performs the v6 HELLO handshake.
    /// The stream must be in blocking mode.
    pub fn from_stream(stream: TcpStream, role: Role) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            inbox: Vec::new(),
            payload_at: 0,
            consumed: 0,
            filled: 0,
            write_buf: Vec::new(),
            pending: VecDeque::new(),
            hello: None,
        };
        match client.handshake(role) {
            Ok(()) => Ok(client),
            Err(ClientError::Io(e)) => Err(e),
            Err(e) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("handshake failed: {e}"),
            )),
        }
    }

    fn handshake(&mut self, role: Role) -> Result<(), ClientError> {
        self.write_buf.clear();
        protocol::encode_hello(&mut self.write_buf, role, 0);
        self.send()?;
        self.expect_frame(opcode::HELLO_ACK)?;
        self.hello = Some(protocol::decode_hello_ack(self.payload())?);
        Ok(())
    }

    /// The server's handshake introspection (role, epochs, recovered
    /// epochs, shard counts). Always present after a successful
    /// connect.
    pub fn hello(&self) -> Option<&HelloAck> {
        self.hello.as_ref()
    }

    /// Retries [`Client::connect`] until `timeout` elapses — for
    /// racing a server that is still binding (the CI smoke job starts
    /// the server binary and the load generator back to back).
    pub fn connect_retry(addr: impl ToSocketAddrs + Copy, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    fn send(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.write_buf)
    }

    /// Takes the next frame out of the receive buffer, reading when it
    /// holds no whole frame; returns its opcode. The payload is
    /// [`Client::payload`], in place until the next `recv`.
    fn recv(&mut self) -> Result<u8, ClientError> {
        loop {
            let head = &self.inbox[self.consumed..self.filled];
            if head.len() >= 4 {
                let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
                if !(2..=protocol::MAX_FRAME_LEN).contains(&len) {
                    return Err(WireError::Malformed("response frame length").into());
                }
                let end = self.consumed + 4 + len as usize;
                if end <= self.filled {
                    let (version, op) = (head[4], head[5]);
                    self.payload_at = self.consumed + 6;
                    self.consumed = end;
                    // ERROR frames are exempt from the version check: a
                    // peer speaking another protocol version still
                    // reports its version complaint as a typed error
                    // frame (in its own dialect's header), and that
                    // message beats "malformed response".
                    if version != PROTOCOL_VERSION && op != opcode::ERROR {
                        return Err(WireError::Malformed("response protocol version").into());
                    }
                    return Ok(op);
                }
            }
            self.fill()?;
        }
    }

    /// The payload of the frame [`Client::recv`] returned last.
    fn payload(&self) -> &[u8] {
        &self.inbox[self.payload_at..self.consumed]
    }

    /// One `read` into the receive buffer, after moving the unparsed
    /// tail (part of one frame) to the front and growing the buffer to
    /// hold that whole frame. Tolerant: `Interrupted` is always
    /// retried, and `WouldBlock` / `TimedOut` (a read timeout the
    /// caller armed, or the event-driven server flushing a frame in
    /// pieces) are retried once any of the frame's bytes have arrived —
    /// a frame, once started, is read whole. A timeout before the first
    /// byte surfaces to the caller. A disconnect is a typed
    /// `UnexpectedEof`, never a panic.
    fn fill(&mut self) -> io::Result<()> {
        let started = self.consumed < self.filled;
        self.inbox.copy_within(self.consumed..self.filled, 0);
        self.filled -= self.consumed;
        (self.payload_at, self.consumed) = (0, 0);
        let mut size = INBOX_START;
        if self.filled >= 4 {
            let len = u32::from_le_bytes(self.inbox[..4].try_into().expect("4 bytes"));
            size = size.max(4 + len as usize);
        }
        if self.inbox.len() < size {
            self.inbox.resize(size, 0);
        }
        loop {
            match self.stream.read(&mut self.inbox[self.filled..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    self.filled += n;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if started
                        && matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Receives one frame and requires opcode `want`; pushed NOTIFY
    /// frames encountered on the way are queued in arrival order, and
    /// error frames surface as [`ClientError::Server`].
    fn expect_frame(&mut self, want: u8) -> Result<(), ClientError> {
        loop {
            let op = self.recv()?;
            if op == want {
                return Ok(());
            }
            if op == opcode::NOTIFY {
                let mut note = Notification::default();
                protocol::decode_notify_into(self.payload(), &mut note)?;
                self.pending.push_back(note);
                continue;
            }
            if op == opcode::ERROR {
                let (raw_code, message) = protocol::decode_error(self.payload())?;
                return Err(ClientError::Server {
                    code: ErrorCode::from_u8(raw_code),
                    raw_code,
                    message,
                });
            }
            return Err(ClientError::Unexpected { opcode: op });
        }
    }

    /// Writes pre-encoded frames verbatim, in one write — the router's
    /// scatter half: the downstream bytes are valid upstream unchanged
    /// because both hops speak the same version, and writing a whole
    /// batch to every node *before* reading any answer pipelines the
    /// fan-out (N nodes and k queries cost one round trip, not N × k).
    pub fn send_raw(&mut self, frames: &[u8]) -> io::Result<()> {
        self.stream.write_all(frames)
    }

    /// Reads one ANSWER into a reusable answer, decoded from the
    /// receive buffer in place — the router's gather half
    /// (allocation-free once warm).
    pub fn recv_answer_into(&mut self, answer: &mut QueryAnswer) -> Result<(), ClientError> {
        self.expect_frame(opcode::ANSWER)?;
        protocol::decode_answer_into(self.payload(), answer)?;
        Ok(())
    }

    /// Forwards one pre-encoded SUBSCRIBE frame verbatim and reads the
    /// SUB_ACK: the initial answer lands in `initial`, and the ack's
    /// `(target, sub_id, epoch, recovered_epoch)` comes back — the
    /// router's subscription fan-out, which must keep each node's
    /// assigned sub id to route later frames.
    pub fn forward_subscribe_into(
        &mut self,
        frame: &[u8],
        initial: &mut QueryAnswer,
    ) -> Result<(CommitTarget, u64, u64, u64), ClientError> {
        self.stream.write_all(frame)?;
        self.expect_frame(opcode::SUB_ACK)?;
        Ok(protocol::decode_sub_ack_into(self.payload(), initial)?)
    }

    /// Sets (or clears) the socket read timeout for every subsequent
    /// call. The router arms one on its upstream connections so a dead
    /// node surfaces as a timed-out read instead of a hang; a frame
    /// whose first byte has arrived is still always read whole.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// IPQ / C-IPQ into a reusable answer (allocation-free once warm).
    pub fn point_query_into(
        &mut self,
        request: &PointRequest,
        answer: &mut QueryAnswer,
    ) -> Result<(), ClientError> {
        self.write_buf.clear();
        protocol::encode_point_query(&mut self.write_buf, request)?;
        self.send()?;
        self.expect_frame(opcode::ANSWER)?;
        protocol::decode_answer_into(self.payload(), answer)?;
        Ok(())
    }

    /// IPQ / C-IPQ, allocating the answer.
    pub fn point_query(&mut self, request: &PointRequest) -> Result<QueryAnswer, ClientError> {
        let mut answer = QueryAnswer::default();
        self.point_query_into(request, &mut answer)?;
        Ok(answer)
    }

    /// IUQ / C-IUQ into a reusable answer (allocation-free once warm).
    pub fn uncertain_query_into(
        &mut self,
        request: &UncertainRequest,
        answer: &mut QueryAnswer,
    ) -> Result<(), ClientError> {
        self.write_buf.clear();
        protocol::encode_uncertain_query(&mut self.write_buf, request)?;
        self.send()?;
        self.expect_frame(opcode::ANSWER)?;
        protocol::decode_answer_into(self.payload(), answer)?;
        Ok(())
    }

    /// IUQ / C-IUQ, allocating the answer.
    pub fn uncertain_query(
        &mut self,
        request: &UncertainRequest,
    ) -> Result<QueryAnswer, ClientError> {
        let mut answer = QueryAnswer::default();
        self.uncertain_query_into(request, &mut answer)?;
        Ok(answer)
    }

    /// Pipelined batch mode: encodes `window`-sized chunks of
    /// requests, writes each chunk as one burst, then drains its
    /// answers — so the socket always has several requests in flight.
    /// `answers` is resized to match and its elements are reused.
    ///
    /// On a mid-batch error the remaining in-flight responses are
    /// drained so the connection stays usable, then the error returns.
    pub fn point_query_batch_into(
        &mut self,
        requests: &[PointRequest],
        answers: &mut Vec<QueryAnswer>,
        window: usize,
    ) -> Result<(), ClientError> {
        let window = window.max(1);
        answers.resize_with(requests.len(), QueryAnswer::default);
        let mut done = 0;
        for chunk in requests.chunks(window) {
            self.write_buf.clear();
            for request in chunk {
                protocol::encode_point_query(&mut self.write_buf, request)?;
            }
            self.send()?;
            for k in 0..chunk.len() {
                if let Err(e) = self.expect_frame(opcode::ANSWER).and_then(|()| {
                    Ok(protocol::decode_answer_into(
                        self.payload(),
                        &mut answers[done + k],
                    )?)
                }) {
                    for _ in k + 1..chunk.len() {
                        let _ = self.recv();
                    }
                    return Err(e);
                }
            }
            done += chunk.len();
        }
        Ok(())
    }

    /// Buffers a batch of updates server-side; returns how many the
    /// server accepted for the next commit.
    pub fn submit(&mut self, updates: &[WireUpdate]) -> Result<u32, ClientError> {
        self.write_buf.clear();
        protocol::encode_update_batch(&mut self.write_buf, updates)?;
        self.send()?;
        self.expect_frame(opcode::UPDATE_ACK)?;
        Ok(protocol::decode_update_ack(self.payload())?)
    }

    /// Commits one catalog's buffered updates, publishing the next
    /// epoch; returns the server's commit report.
    pub fn commit(&mut self, target: CommitTarget) -> Result<CommitReport, ClientError> {
        self.write_buf.clear();
        protocol::encode_commit(&mut self.write_buf, target);
        self.send()?;
        self.expect_frame(opcode::COMMIT_DONE)?;
        Ok(protocol::decode_commit_done(self.payload())?)
    }

    /// Server stats into a reusable report (shard-size buffers keep
    /// their capacity — the steady-state allocation probe brackets its
    /// measured window with two of these).
    pub fn stats_into(&mut self, report: &mut StatsReport) -> Result<(), ClientError> {
        self.write_buf.clear();
        protocol::encode_empty(&mut self.write_buf, opcode::STATS);
        self.send()?;
        self.expect_frame(opcode::STATS_REPORT)?;
        protocol::decode_stats_report_into(self.payload(), report)?;
        Ok(())
    }

    /// Server stats, allocating the report.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        let mut report = StatsReport::default();
        self.stats_into(&mut report)?;
        Ok(report)
    }

    /// Liveness round trip. Also the keepalive: a quiet subscriber
    /// pings within the server's idle timeout to avoid being reaped.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.write_buf.clear();
        protocol::encode_empty(&mut self.write_buf, opcode::PING);
        self.send()?;
        self.expect_frame(opcode::PONG)
    }

    // -- Subscriptions ------------------------------------------------

    /// Registers a standing continuous query on the point catalog;
    /// returns the acknowledgement (id, epochs) and the initial full
    /// answer (the base every subsequent delta composes on). `slack`
    /// is the safe-envelope margin in space units.
    pub fn subscribe_point(
        &mut self,
        request: &PointRequest,
        slack: f64,
    ) -> Result<(SubAck, QueryAnswer), ClientError> {
        self.write_buf.clear();
        protocol::encode_subscribe_point(&mut self.write_buf, slack, request)?;
        self.send()?;
        self.expect_frame(opcode::SUB_ACK)?;
        let mut answer = QueryAnswer::default();
        let (_, sub_id, epoch, recovered_epoch) =
            protocol::decode_sub_ack_into(self.payload(), &mut answer)?;
        Ok((
            SubAck {
                sub_id,
                epoch,
                recovered_epoch,
            },
            answer,
        ))
    }

    /// Registers a standing continuous query on the uncertain catalog.
    pub fn subscribe_uncertain(
        &mut self,
        request: &UncertainRequest,
        slack: f64,
    ) -> Result<(SubAck, QueryAnswer), ClientError> {
        self.write_buf.clear();
        protocol::encode_subscribe_uncertain(&mut self.write_buf, slack, request)?;
        self.send()?;
        self.expect_frame(opcode::SUB_ACK)?;
        let mut answer = QueryAnswer::default();
        let (_, sub_id, epoch, recovered_epoch) =
            protocol::decode_sub_ack_into(self.payload(), &mut answer)?;
        Ok((
            SubAck {
                sub_id,
                epoch,
                recovered_epoch,
            },
            answer,
        ))
    }

    /// Drops a standing query; `true` when the server knew the id.
    pub fn unsubscribe(&mut self, target: CommitTarget, sub_id: u64) -> Result<bool, ClientError> {
        self.write_buf.clear();
        protocol::encode_unsubscribe(&mut self.write_buf, target, sub_id);
        self.send()?;
        self.expect_frame(opcode::UNSUB_DONE)?;
        Ok(protocol::decode_unsub_done(self.payload())?)
    }

    /// Moves a subscription's issuer and receives the tick's delta
    /// into a reusable slot (allocation-free once warm — the
    /// `subscribers` load scenario's steady loop runs through this).
    ///
    /// Commit-pushed NOTIFY frames that arrive before the tick's
    /// response are queued; drain them with
    /// [`Client::take_notification`] **and apply them first** — they
    /// precede the tick's delta on the wire, and deltas compose in
    /// order.
    pub fn tick_into(
        &mut self,
        target: CommitTarget,
        sub_id: u64,
        pdf: &PdfKind,
        note: &mut Notification,
    ) -> Result<(), ClientError> {
        self.write_buf.clear();
        protocol::encode_tick(&mut self.write_buf, target, sub_id, pdf);
        self.send()?;
        loop {
            self.expect_frame(opcode::NOTIFY)?;
            protocol::decode_notify_into(self.payload(), note)?;
            if note.cause == NotifyCause::Tick {
                // A tick response for some other subscription means the
                // stream is desynchronized — a typed error the caller
                // can recover from (reconnect), never a panic.
                if note.target != target || note.sub_id != sub_id {
                    return Err(
                        WireError::Malformed("tick response for another subscription").into(),
                    );
                }
                return Ok(());
            }
            // A commit push raced in front of the response: queue it
            // (clones — the racing-push path is not the steady loop).
            self.pending.push_back(note.clone());
        }
    }

    /// Next queued pushed notification, in arrival order.
    pub fn take_notification(&mut self) -> Option<Notification> {
        self.pending.pop_front()
    }

    /// Waits up to `timeout` for a pushed notification: drains the
    /// queue first, then what the receive buffer already holds, then
    /// polls the socket. `Ok(None)` means nothing arrived in time; the
    /// connection, and any read timeout armed with
    /// [`Client::set_read_timeout`], are unharmed either way.
    pub fn poll_notification(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Notification>, ClientError> {
        if let Some(note) = self.pending.pop_front() {
            return Ok(Some(note));
        }
        // Bytes already received are a frame under way, read whole by
        // `recv`; only an empty buffer needs the socket. Peek with a
        // timeout so a quiet socket consumes nothing; a positive peek
        // means at least the length prefix is en route and the normal
        // read path can take over. A zero timeout would be rejected by
        // `set_read_timeout`; clamp it to the shortest wait instead so
        // `Duration::ZERO` acts as the natural non-blocking poll.
        if self.consumed == self.filled {
            let armed = self.stream.read_timeout()?;
            self.stream
                .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
            let mut probe = [0u8; 1];
            let peeked = self.stream.peek(&mut probe);
            self.stream.set_read_timeout(armed)?;
            match peeked {
                Ok(0) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
        let op = self.recv()?;
        if op != opcode::NOTIFY {
            return Err(ClientError::Unexpected { opcode: op });
        }
        let mut note = Notification::default();
        protocol::decode_notify_into(self.payload(), &mut note)?;
        Ok(Some(note))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_core::subscribe::AnswerDelta;
    use iloc_uncertainty::ObjectId;
    use std::net::TcpListener;
    use std::thread;

    fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
        let mut frame = vec![0u8; 4];
        stream.read_exact(&mut frame).expect("frame length");
        let len = u32::from_le_bytes(frame[..].try_into().unwrap()) as usize;
        frame.resize(4 + len, 0);
        stream.read_exact(&mut frame[4..]).expect("frame body");
        frame
    }

    /// A scripted peer: acknowledges the HELLO, answers each request
    /// with the next of `replies` in one write, then holds the
    /// connection open until the client hangs up.
    fn client_of(replies: Vec<Vec<u8>>) -> Client {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_frame(&mut stream);
            let mut ack = Vec::new();
            protocol::encode_hello_ack(&mut ack, &HelloAck::default());
            stream.write_all(&ack).expect("hello ack");
            for reply in replies {
                read_frame(&mut stream);
                stream.write_all(&reply).expect("reply");
            }
            let _ = stream.read(&mut [0u8; 1]);
        });
        Client::connect(addr).expect("connect")
    }

    #[test]
    fn a_notify_already_received_is_returned_before_the_socket_is_peeked() {
        let mut delta = AnswerDelta::new();
        delta.removals.push(ObjectId(42));
        let mut reply = Vec::new();
        protocol::encode_empty(&mut reply, opcode::PONG);
        protocol::encode_notify(
            &mut reply,
            CommitTarget::Point,
            7,
            3,
            NotifyCause::Commit,
            &delta,
        );
        let mut client = client_of(vec![reply]);
        client.ping().expect("pong");
        // One write, one read: the NOTIFY came in behind the PONG and
        // the socket is empty now.
        assert!(client.consumed < client.filled, "the NOTIFY is buffered");
        let note = client
            .poll_notification(Duration::ZERO)
            .expect("poll")
            .expect("the buffered NOTIFY");
        assert_eq!((note.sub_id, note.epoch, &note.delta), (7, 3, &delta));
        assert!(client
            .poll_notification(Duration::ZERO)
            .expect("poll")
            .is_none());
    }

    #[test]
    fn polling_keeps_the_read_timeout_the_caller_armed() {
        let mut client = client_of(Vec::new());
        for armed in [Some(Duration::from_secs(3)), None] {
            client.set_read_timeout(armed).expect("arm");
            assert!(client
                .poll_notification(Duration::ZERO)
                .expect("poll")
                .is_none());
            assert_eq!(client.stream.read_timeout().expect("timeout"), armed);
        }
    }
}
