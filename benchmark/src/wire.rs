//! The driver's side of one protocol connection: a non-blocking
//! socket with frame reassembly, so one thread can multiplex the
//! query, write and subscriber connections through one poller.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd as _, RawFd};
use std::time::{Duration, Instant};

use iloc_server::poll::{Event, Interest, Poller};
use iloc_server::protocol::{self, opcode, Role, MAX_FRAME_LEN, PROTOCOL_VERSION};

use crate::spec::OP_DEADLINE;

/// Bytes in front of a frame's payload: length, version, opcode.
pub const FRAME_HEADER: usize = 6;

/// One received frame: its opcode and where its payload sits in the
/// connection's read buffer.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    pub op: u8,
    start: usize,
    end: usize,
}

pub struct Conn {
    stream: TcpStream,
    /// For [`Conn::wait_frame`] only: sleeping until this one socket
    /// is readable.
    poller: Poller,
    events: Vec<Event>,
    inbuf: Vec<u8>,
    /// `inbuf[parsed..filled]` is unconsumed.
    parsed: usize,
    filled: usize,
    /// Frames being assembled for the next [`Conn::flush`].
    pub out: Vec<u8>,
}

impl Conn {
    /// Connects, performs the HELLO handshake and switches the socket
    /// to non-blocking mode.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(stream.as_raw_fd(), 0, Interest::READ)?;
        let mut conn = Conn {
            stream,
            poller,
            events: Vec::new(),
            inbuf: vec![0; 256 * 1024],
            parsed: 0,
            filled: 0,
            out: Vec::with_capacity(64 * 1024),
        };
        protocol::encode_hello(&mut conn.out, Role::Client, 0);
        conn.flush()?;
        let ack = conn.wait_frame()?;
        if ack.op != opcode::HELLO_ACK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("handshake answered with opcode {:#04x}", ack.op),
            ));
        }
        Ok(conn)
    }

    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Writes everything in `out`. Requests are small next to the
    /// socket buffer and the server never stops reading for long, so a
    /// full socket is waited out in place.
    pub fn flush(&mut self) -> io::Result<()> {
        let mut at = 0;
        while at < self.out.len() {
            match self.stream.write(&self.out[at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        Ok(())
    }

    /// Reads whatever the socket holds. `Ok(false)` when nothing new
    /// arrived.
    pub fn fill(&mut self) -> io::Result<bool> {
        let mut any = false;
        loop {
            if self.parsed == self.filled {
                self.parsed = 0;
                self.filled = 0;
            }
            if self.filled == self.inbuf.len() {
                if self.parsed > 0 {
                    self.inbuf.copy_within(self.parsed..self.filled, 0);
                    self.filled -= self.parsed;
                    self.parsed = 0;
                } else {
                    let len = self.inbuf.len();
                    self.inbuf.resize(len * 2, 0);
                }
            }
            match self.stream.read(&mut self.inbuf[self.filled..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.filled += n;
                    any = true;
                    if self.filled < self.inbuf.len() {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete frame already read, if any.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let avail = self.filled - self.parsed;
        if avail < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.inbuf[self.parsed..self.parsed + 4]
            .try_into()
            .expect("four bytes");
        let len = u32::from_le_bytes(len_bytes);
        if !(2..=MAX_FRAME_LEN).contains(&len) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response frame length out of bounds",
            ));
        }
        let len = len as usize;
        if avail - 4 < len {
            return Ok(None);
        }
        let body = self.parsed + 4;
        self.parsed = body + len;
        let op = self.inbuf[body + 1];
        if self.inbuf[body] != PROTOCOL_VERSION && op != opcode::ERROR {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response protocol version",
            ));
        }
        Ok(Some(Frame {
            op,
            start: body + 2,
            end: body + len,
        }))
    }

    /// The payload of a frame returned by the last `next_frame` call;
    /// valid until the next `fill`.
    pub fn payload(&self, frame: Frame) -> &[u8] {
        &self.inbuf[frame.start..frame.end]
    }

    /// Sleeps until one frame has arrived — for set-up exchanges and
    /// the one-at-a-time probes, where nothing else needs the thread.
    /// It sleeps the way the driver's idle phase does, so a probe's
    /// round trip and `lat_idle_p50_us` measure the same thing. A
    /// server that has not answered by the operation deadline never
    /// will: that is an error, not a longer wait.
    pub fn wait_frame(&mut self) -> io::Result<Frame> {
        let deadline = Instant::now() + OP_DEADLINE;
        loop {
            if let Some(frame) = self.next_frame()? {
                return Ok(frame);
            }
            if !self.fill()? {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("no reply within {OP_DEADLINE:?}"),
                    ));
                }
                self.poller
                    .wait(&mut self.events, Some(Duration::from_millis(100)))?;
            }
        }
    }

    /// Sends what `out` holds and waits for one frame of opcode
    /// `want`.
    pub fn call(&mut self, want: u8) -> io::Result<Frame> {
        self.flush()?;
        let frame = self.wait_frame()?;
        if frame.op != want {
            return Err(unexpected(self, frame));
        }
        Ok(frame)
    }
}

/// Describes a frame the driver did not expect, decoding ERROR frames.
pub fn unexpected(conn: &Conn, frame: Frame) -> io::Error {
    let what = if frame.op == opcode::ERROR {
        match protocol::decode_error(conn.payload(frame)) {
            Ok((code, message)) => format!("server error {code}: {message}"),
            Err(e) => format!("undecodable error frame: {e}"),
        }
    } else {
        format!("unexpected opcode {:#04x}", frame.op)
    };
    io::Error::new(io::ErrorKind::InvalidData, what)
}
