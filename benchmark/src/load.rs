//! The load driver: one thread multiplexing the query, write and
//! subscriber connections through one poller, so a run never has more
//! runnable load threads than the one it is.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::{Duration, Instant};

use iloc_core::{Match, QueryAnswer};
use iloc_server::poll::{Event, Interest, Poller};
use iloc_server::protocol::{self, opcode, CommitTarget, Notification, NotifyCause, StatsReport};

use crate::affinity::Cores;
use crate::inputs::{Inputs, Request};
use crate::spec::{BUCKET_SECONDS, OP_DEADLINE, SUB_SLACK, WINDOW};
use crate::stats::{median_of, quantile};
use crate::system::System;
use crate::wire::{unexpected, Conn, Frame};

const Q: u64 = 0;
const W: u64 = 1;
const S: u64 = 2;

/// Latency samples kept resident from the start, so `rss_peak_mb`
/// does not grow with the number of requests a run happens to answer.
const SAMPLE_CAPACITY: usize = 1 << 21;
/// At most this many failure messages are kept for the report.
const MAX_MESSAGES: usize = 8;

/// How a phase offers queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// One request outstanding.
    Idle,
    /// `WINDOW` requests outstanding on the one connection.
    Closed,
    /// Requests sent on a fixed schedule at this rate per second,
    /// each timed from when it was due. The schedule does not wait for
    /// a server that falls behind: the backlog grows, the latencies
    /// say so, and only the operation deadline ends the run.
    Open(f64),
    /// No queries: the write stream alone.
    Quiet,
}

impl Load {
    /// Which of the driver's four sets of write-cycle samples a phase
    /// of this kind adds to.
    fn slot(self) -> usize {
        match self {
            Load::Idle => 0,
            Load::Closed => 1,
            Load::Open(_) => 2,
            Load::Quiet => 3,
        }
    }
}

/// When a phase stops offering load; it then drains what is in
/// flight.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    /// Queries sent, or write cycles started in a quiet phase.
    Count(u64),
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub load: Load,
    pub limit: Limit,
    /// Write cycles per second during this phase; 0 for none.
    pub write_rate: f64,
    /// Check every this many answers against the oracle (the next one
    /// that no commit can have raced).
    pub verify_every: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseOut {
    pub answered: u64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    /// Median over the phase's full throughput buckets.
    pub qps: f64,
    /// How late the open-loop generator sent, p99.
    pub late_p99_us: f64,
}

struct InFlight {
    idx: u32,
    t0: Instant,
    /// Point epoch acknowledged when this was sent; `None` when a
    /// commit was in flight, so the epoch it ran on is unknown.
    epoch: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Writer {
    Idle,
    AwaitAck,
    AwaitCommit(Instant),
    AwaitPong(Instant),
}

pub struct Driver<'a> {
    sys: &'a System,
    inputs: &'a Inputs,
    cores: Cores,
    poller: Poller,
    events: Vec<Event>,
    q: Conn,
    w: Conn,
    s: Conn,

    inflight: VecDeque<InFlight>,
    cursor: usize,
    answer: QueryAnswer,
    expect: QueryAnswer,
    lat_ns: Vec<u32>,
    late_ns: Vec<u32>,
    buckets: Vec<u32>,

    writer: Writer,
    /// When the write cycle in flight sent its UPDATE_BATCH.
    cycle_started: Instant,
    /// Whether the phase being run gives the driver its own CPU. A
    /// write cycle takes it there in any phase, for as long as it is
    /// outstanding: on the servers' CPU the driver would read
    /// COMMIT_DONE only once the event loop sleeps again, which is
    /// after the loop has also pumped the subscriptions the commit
    /// woke, and `commit_p50_us` would measure the pump as well.
    own_cpu: bool,
    next_batch: usize,
    /// Last acknowledged point-catalog epoch.
    epoch: u64,
    /// Commit and freshness latencies of every write cycle, kept apart
    /// by the kind of phase the cycle ran in (see [`Load::slot`]).
    commit_ns: [Vec<u32>; 4],
    fresh_ns: [Vec<u32>; 4],
    /// The kind of phase being run.
    slot: usize,

    /// Each standing query's answer as its deltas have built it.
    standing: Vec<Vec<Match>>,
    sub_index: HashMap<u64, usize>,
    note: Notification,

    since_verify: u64,
    pub verified: u64,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

fn nanos(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

impl<'a> Driver<'a> {
    /// Opens the three connections and answers one query: the end of
    /// set-up, "first answer served".
    pub fn connect(sys: &'a System, inputs: &'a Inputs, cores: Cores) -> io::Result<Driver<'a>> {
        cores.enter_servers();
        let mut poller = Poller::new()?;
        let q = Conn::connect(sys.addr)?;
        let w = Conn::connect(sys.addr)?;
        let s = Conn::connect(sys.addr)?;
        poller.register(q.fd(), Q, Interest::READ)?;
        poller.register(w.fd(), W, Interest::READ)?;
        poller.register(s.fd(), S, Interest::READ)?;
        let mut lat_ns = vec![1u32; SAMPLE_CAPACITY];
        lat_ns.clear();
        let mut driver = Driver {
            sys,
            inputs,
            cores,
            poller,
            events: Vec::new(),
            q,
            w,
            s,
            inflight: VecDeque::with_capacity(1024),
            cursor: 0,
            answer: QueryAnswer::default(),
            expect: QueryAnswer::default(),
            lat_ns,
            late_ns: Vec::with_capacity(1 << 18),
            buckets: Vec::with_capacity(256),
            writer: Writer::Idle,
            cycle_started: Instant::now(),
            own_cpu: false,
            next_batch: 0,
            epoch: sys.point_epoch(),
            commit_ns: std::array::from_fn(|_| Vec::with_capacity(1024)),
            fresh_ns: std::array::from_fn(|_| Vec::with_capacity(1024)),
            slot: 0,
            standing: Vec::new(),
            sub_index: HashMap::new(),
            note: Notification::default(),
            since_verify: 0,
            verified: 0,
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
        };
        driver.inputs.pool[0]
            .encode(&mut driver.q.out)
            .map_err(io::Error::other)?;
        driver.q.call(opcode::ANSWER)?;
        Ok(driver)
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Registers the standing queries; their initial answers are the
    /// base every later delta composes on.
    pub fn subscribe(&mut self) -> io::Result<()> {
        for (k, request) in self.inputs.subs.iter().enumerate() {
            protocol::encode_subscribe_point(&mut self.s.out, SUB_SLACK, request)
                .map_err(io::Error::other)?;
            let frame = self.s.call(opcode::SUB_ACK)?;
            let (_, sub_id, _, _) =
                protocol::decode_sub_ack_into(self.s.payload(frame), &mut self.answer)
                    .map_err(io::Error::other)?;
            self.sub_index.insert(sub_id, k);
            self.standing.push(self.answer.results.clone());
        }
        Ok(())
    }

    /// The warm-up: every pool request `passes` times, one at a time.
    /// Every answer of the first pass is checked against the oracle.
    pub fn warm_up(&mut self, passes: u64) -> io::Result<()> {
        for k in 0..self.inputs.pool.len() {
            let request = &self.inputs.pool[k];
            request.encode(&mut self.q.out).map_err(io::Error::other)?;
            let frame = self.q.call(opcode::ANSWER)?;
            protocol::decode_answer_into(self.q.payload(frame), &mut self.answer)
                .map_err(io::Error::other)?;
            self.attempted += 1;
            self.check_against_oracle(k);
        }
        self.run(Phase {
            load: Load::Idle,
            limit: Limit::Count(self.inputs.pool.len() as u64 * (passes - 1)),
            write_rate: 0.0,
            verify_every: u64::MAX,
        })?;
        Ok(())
    }

    fn check_against_oracle(&mut self, idx: usize) {
        self.sys.oracle(&self.inputs.pool[idx], &mut self.expect);
        self.verified += 1;
        if !self.answer.same_matches(&self.expect) {
            self.fail(format!(
                "pool request {idx}: {} matches over the wire, {} from the oracle, or different bits",
                self.answer.results.len(),
                self.expect.results.len()
            ));
        }
    }

    fn send_query(&mut self, t0: Instant) -> io::Result<()> {
        let idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.inputs.pool.len();
        self.inputs.pool[idx]
            .encode(&mut self.q.out)
            .map_err(io::Error::other)?;
        let commit_in_flight = matches!(self.writer, Writer::AwaitCommit(_));
        self.inflight.push_back(InFlight {
            idx: idx as u32,
            t0,
            epoch: (!commit_in_flight).then_some(self.epoch),
        });
        Ok(())
    }

    fn start_cycle(&mut self) -> io::Result<()> {
        let batch = &self.inputs.batches[self.next_batch];
        self.next_batch += 1;
        protocol::encode_update_batch(&mut self.w.out, batch).map_err(io::Error::other)?;
        self.cores.enter_driver();
        self.cycle_started = Instant::now();
        self.w.flush()?;
        self.writer = Writer::AwaitAck;
        Ok(())
    }

    /// The write cycle is over: back to where the phase runs.
    fn end_cycle(&mut self) {
        self.writer = Writer::Idle;
        if !self.own_cpu {
            self.cores.enter_servers();
        }
    }

    fn on_answer(&mut self, frame: Frame, start: Instant, verify_every: u64) -> io::Result<()> {
        let Some(sent) = self.inflight.pop_front() else {
            return Err(unexpected(&self.q, frame));
        };
        self.attempted += 1;
        if frame.op != opcode::ANSWER {
            let why = unexpected(&self.q, frame);
            self.fail(format!("pool request {}: {why}", sent.idx));
            return Ok(());
        }
        if let Err(e) = protocol::decode_answer_into(self.q.payload(frame), &mut self.answer) {
            self.fail(format!("pool request {}: {e}", sent.idx));
            return Ok(());
        }
        let now = Instant::now();
        self.lat_ns.push(nanos(now - sent.t0));
        let bucket = ((now - start).as_secs_f64() / BUCKET_SECONDS) as usize;
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;

        self.since_verify += 1;
        if self.since_verify >= verify_every {
            // Only an answer no commit can have raced has a known
            // epoch: sent after the last acknowledged commit, received
            // before the next one was sent. The uncertain catalog is
            // never written.
            let request = &self.inputs.pool[sent.idx as usize];
            let settled = matches!(request, Request::Uncertain(_))
                || (sent.epoch == Some(self.epoch)
                    && !matches!(self.writer, Writer::AwaitCommit(_)));
            if settled {
                self.since_verify = 0;
                self.check_against_oracle(sent.idx as usize);
            }
        }
        Ok(())
    }

    fn on_writer_frame(&mut self, frame: Frame) -> io::Result<()> {
        let now = Instant::now();
        match (self.writer, frame.op) {
            (Writer::AwaitAck, opcode::UPDATE_ACK) => {
                protocol::encode_commit(&mut self.w.out, CommitTarget::Point);
                // The clock starts before the write: the write wakes
                // the server, which may run before this thread does.
                self.writer = Writer::AwaitCommit(now);
                self.w.flush()?;
            }
            (Writer::AwaitCommit(sent), opcode::COMMIT_DONE) => {
                let report = protocol::decode_commit_done(self.w.payload(frame))
                    .map_err(io::Error::other)?;
                self.commit_ns[self.slot].push(nanos(now - sent));
                if report.epoch != self.epoch + 1 {
                    self.fail(format!(
                        "commit published epoch {} after {}",
                        report.epoch, self.epoch
                    ));
                }
                self.epoch = report.epoch;
                protocol::encode_empty(&mut self.s.out, opcode::PING);
                self.s.flush()?;
                self.writer = Writer::AwaitPong(sent);
            }
            _ => {
                // An ERROR frame or a reply out of turn: the cycle is
                // lost, the stream goes on with the next one.
                let why = unexpected(&self.w, frame);
                self.attempted += 1;
                self.fail(format!("write cycle {}: {why}", self.next_batch - 1));
                self.end_cycle();
            }
        }
        Ok(())
    }

    fn on_subscriber_frame(&mut self, frame: Frame) -> io::Result<()> {
        match frame.op {
            opcode::NOTIFY => {
                protocol::decode_notify_into(self.s.payload(frame), &mut self.note)
                    .map_err(io::Error::other)?;
                match self.sub_index.get(&self.note.sub_id) {
                    Some(&k) if self.note.cause == NotifyCause::Commit => {
                        self.note.delta.apply(&mut self.standing[k]);
                    }
                    _ => {
                        let id = self.note.sub_id;
                        self.fail(format!("NOTIFY for unknown subscription {id}"));
                    }
                }
            }
            opcode::PONG => {
                if let Writer::AwaitPong(sent) = self.writer {
                    self.fresh_ns[self.slot].push(nanos(sent.elapsed()));
                    self.attempted += 1;
                    self.end_cycle();
                }
            }
            _ => {
                let why = unexpected(&self.s, frame);
                self.fail(format!("subscriber connection: {why}"));
            }
        }
        Ok(())
    }

    /// Reads and handles whatever the three connections hold.
    fn pump(&mut self, start: Instant, verify_every: u64) -> io::Result<()> {
        for k in 0..self.events.len() {
            let ev = self.events[k];
            match ev.token {
                Q => {
                    self.q.fill()?;
                    while let Some(frame) = self.q.next_frame()? {
                        self.on_answer(frame, start, verify_every)?;
                    }
                }
                W => {
                    self.w.fill()?;
                    while let Some(frame) = self.w.next_frame()? {
                        self.on_writer_frame(frame)?;
                    }
                }
                _ => {
                    self.s.fill()?;
                    while let Some(frame) = self.s.next_frame()? {
                        self.on_subscriber_frame(frame)?;
                    }
                }
            }
        }
        Ok(())
    }

    pub fn run(&mut self, phase: Phase) -> io::Result<PhaseOut> {
        self.lat_ns.clear();
        self.late_ns.clear();
        self.buckets.clear();
        // Idle and closed load is strict turn-taking, so the driver
        // shares the servers' CPU and sleeps; open and quiet phases
        // give it the other CPU, where it spins.
        let own_cpu = matches!(phase.load, Load::Open(_) | Load::Quiet) && self.cores.two;
        self.own_cpu = own_cpu;
        self.slot = phase.load.slot();
        if own_cpu {
            self.cores.enter_driver();
        } else {
            self.cores.enter_servers();
        }
        let start = Instant::now();
        let writes = phase.write_rate > 0.0;
        let period = Duration::from_secs_f64(if writes { 1.0 / phase.write_rate } else { 0.0 });
        let mut next_write = start;
        let mut next_send = start;
        let interval = match phase.load {
            Load::Open(rate) => Duration::from_secs_f64(1.0 / rate),
            _ => Duration::ZERO,
        };
        let end = match phase.limit {
            Limit::Seconds(s) => Some(start + Duration::from_secs_f64(s)),
            Limit::Count(_) => None,
        };
        // What the phase may still offer: queries, or write cycles in
        // a quiet phase.
        let mut left = match phase.limit {
            Limit::Seconds(_) => u64::MAX,
            Limit::Count(n) => n,
        };
        loop {
            let now = Instant::now();
            if end.is_some_and(|end| now >= end) {
                left = 0;
            }
            let cycle = (self.writer != Writer::Idle).then_some(self.cycle_started);
            let oldest = self
                .inflight
                .front()
                .map(|sent| sent.t0)
                .into_iter()
                .chain(cycle)
                .min();
            if oldest.is_some_and(|t0| now.saturating_duration_since(t0) > OP_DEADLINE) {
                let lost = self.inflight.len() as u64 + (self.writer != Writer::Idle) as u64;
                self.attempted += lost;
                self.failed += lost;
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{lost} operations unanswered after {OP_DEADLINE:?}: ops_attempted {}  ops_failed {}",
                        self.attempted, self.failed
                    ),
                ));
            }
            let cycle_due = writes
                && left > 0
                && self.writer == Writer::Idle
                && self.next_batch < self.inputs.batches.len();
            if cycle_due && now >= next_write {
                self.start_cycle()?;
                next_write += period;
                if phase.load == Load::Quiet {
                    left -= 1;
                }
            }
            match phase.load {
                Load::Idle => {
                    if left > 0 && self.inflight.is_empty() {
                        self.send_query(Instant::now())?;
                        left -= 1;
                    }
                }
                Load::Closed => {
                    while left > 0 && self.inflight.len() < WINDOW {
                        self.send_query(now)?;
                        left -= 1;
                    }
                }
                Load::Open(_) => {
                    while left > 0 && next_send <= now {
                        self.late_ns.push(nanos(now - next_send));
                        self.send_query(next_send)?;
                        next_send += interval;
                        left -= 1;
                    }
                }
                Load::Quiet => {}
            }
            if !self.q.out.is_empty() {
                self.q.flush()?;
            }
            if left == 0 && self.inflight.is_empty() && self.writer == Writer::Idle {
                break;
            }

            // On its own CPU (the phase's, or a write cycle's) the
            // driver spins. On the servers' CPU it sleeps until the
            // next thing it has to do, in the poller's whole
            // milliseconds: a write cycle may start up to a millisecond
            // late, and no server thread loses the CPU to a waiting
            // driver.
            let timeout = if own_cpu || self.writer != Writer::Idle {
                Duration::ZERO
            } else {
                let mut wake = end.filter(|_| left > 0);
                if cycle_due {
                    wake = Some(wake.map_or(next_write, |w| w.min(next_write)));
                }
                if left > 0 && matches!(phase.load, Load::Open(_)) {
                    wake = Some(wake.map_or(next_send, |w| w.min(next_send)));
                }
                match wake {
                    None => Duration::from_millis(100),
                    Some(at) => at
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1)),
                }
            };
            self.poller.wait(&mut self.events, Some(timeout))?;
            if !self.events.is_empty() {
                self.pump(start, phase.verify_every)?;
            }
        }

        let mut out = PhaseOut {
            answered: self.lat_ns.len() as u64,
            ..PhaseOut::default()
        };
        if !self.lat_ns.is_empty() {
            self.lat_ns.sort_unstable();
            out.lat_p50_us = quantile(&self.lat_ns, 0.5) / 1e3;
            out.lat_p99_us = quantile(&self.lat_ns, 0.99) / 1e3;
        }
        if !self.late_ns.is_empty() {
            self.late_ns.sort_unstable();
            out.late_p99_us = quantile(&self.late_ns, 0.99) / 1e3;
        }
        // The last bucket is partial (and the drain may spill into one
        // more): only the full ones count.
        if let Limit::Seconds(s) = phase.limit {
            let full = ((s / BUCKET_SECONDS) as usize).min(self.buckets.len());
            if full > 0 {
                let buckets = &mut self.buckets[..full];
                buckets.sort_unstable();
                out.qps = quantile(buckets, 0.5) / BUCKET_SECONDS;
            }
        }
        Ok(out)
    }

    /// End of run: every standing query's accumulated deltas must
    /// equal a fresh evaluation, and no push may have been dropped.
    pub fn final_checks(&mut self) -> io::Result<()> {
        // One more barrier, in case the last phase had no write cycle.
        protocol::encode_empty(&mut self.s.out, opcode::PING);
        self.s.flush()?;
        loop {
            let frame = self.s.wait_frame()?;
            if frame.op == opcode::PONG {
                break;
            }
            self.on_subscriber_frame(frame)?;
        }
        if self.sys.point_epoch() != self.epoch {
            let served = self.sys.point_epoch();
            self.fail(format!(
                "served epoch {served} differs from the last acknowledged epoch {}",
                self.epoch
            ));
        }
        for k in 0..self.inputs.subs.len() {
            let request = Request::Point(self.inputs.subs[k].clone());
            self.sys.oracle(&request, &mut self.expect);
            self.attempted += 1;
            self.verified += 1;
            let (fresh, built) = (&self.expect.results, &self.standing[k]);
            let same = fresh.len() == built.len()
                && fresh.iter().zip(built).all(|(a, b)| {
                    a.id == b.id && a.probability.to_bits() == b.probability.to_bits()
                });
            if !same {
                let (built, fresh) = (built.len(), fresh.len());
                self.fail(format!(
                    "standing query {k}: deltas built {built} matches, a fresh evaluation gives {fresh}"
                ));
            }
        }
        let dropped = self.server_stats()?.dropped_pushes;
        if dropped > 0 {
            self.failed += dropped;
            self.attempted += dropped;
            self.messages.push(format!("{dropped} pushes dropped"));
        }
        Ok(())
    }

    /// A STATS probe on the query connection (nothing may be in
    /// flight).
    pub fn server_stats(&mut self) -> io::Result<StatsReport> {
        protocol::encode_empty(&mut self.q.out, opcode::STATS);
        let frame = self.q.call(opcode::STATS_REPORT)?;
        let mut report = StatsReport::default();
        protocol::decode_stats_report_into(self.q.payload(frame), &mut report)
            .map_err(io::Error::other)?;
        Ok(report)
    }

    pub fn cycles_sent(&self) -> usize {
        self.next_batch
    }

    /// The commit and freshness latency (µs) of the write cycles timed
    /// so far, and how many there were; `None` before the first.
    ///
    /// A cycle beside a closed phase queues behind sixteen queries and
    /// takes twice as long as one beside an idle phase, so the median
    /// of all cycles sits between two humps and jumps from one to the
    /// other between runs. Each is instead the median per kind of
    /// phase, averaged over the kinds that ran.
    pub fn write_medians(&mut self) -> Option<(f64, f64, usize)> {
        let (mut commit_us, mut fresh_us, mut kinds, mut cycles) = (0.0, 0.0, 0, 0);
        for (commit, fresh) in self.commit_ns.iter_mut().zip(&mut self.fresh_ns) {
            if fresh.is_empty() {
                continue;
            }
            commit_us += median_of(commit) / 1e3;
            fresh_us += median_of(fresh) / 1e3;
            kinds += 1;
            cycles += fresh.len();
        }
        (kinds > 0).then(|| (commit_us / kinds as f64, fresh_us / kinds as f64, cycles))
    }
}
