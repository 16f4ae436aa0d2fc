//! A reconnecting wrapper around [`Client`] for driving traffic
//! across a server restart.
//!
//! A plain [`Client`] dies with its socket. The crash-recovery smoke
//! needs the opposite: keep querying while the server is SIGKILLed and
//! restarted underneath it. [`ResilientClient`] retries transport
//! failures by reconnecting with **capped exponential backoff** and
//! then **re-issuing every standing SUBSCRIBE** it holds (a restarted
//! server has no memory of subscription ids — they live with the
//! connection). The recovered epoch each re-subscription's SUB_ACK
//! reports is kept, so the driver can see exactly which epoch the
//! server came back at.
//!
//! Mutations (`submit` / `commit`) are deliberately **not** retried:
//! a commit whose ack was lost may or may not have published, and
//! replaying it blindly would double-apply. The driver owns that
//! decision; queries and subscriptions are idempotent and retry
//! freely.
//!
//! Backoff is **jittered deterministically**: each client draws its
//! sleeps from a SplitMix64 stream seeded from the process id and a
//! per-client counter, so a fleet of clients spawned together fans
//! out instead of hammering the listener in lockstep — yet any single
//! run is exactly reproducible from its seed.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use iloc_core::pipeline::PointRequest;
use iloc_core::QueryAnswer;
use iloc_server::client::{Client, ClientError, SubAck};

/// First reconnect delay; doubles per consecutive failure.
const BACKOFF_START: Duration = Duration::from_millis(50);

/// Backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Distinguishes clients created in the same process so their jitter
/// streams decorrelate even with identical process ids.
static NEXT_JITTER_SEED: AtomicU64 = AtomicU64::new(0);

/// SplitMix64 step: the standard finalizer over a Weyl sequence.
/// Deterministic per seed, full-period, no state beyond one `u64`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The next draw of the stream as a fraction in `[0, 1)` — also what
/// the load driver scatters its walks and herd positions with.
pub(crate) fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// `base/2 + base/2 * frac` where `frac` is drawn from the client's
/// jitter stream: equal-height decorrelation (half deterministic floor,
/// half uniform), so the mean stays at 3/4 of the nominal backoff and
/// the floor guarantees the listener is never spun on.
fn jittered(base: Duration, state: &mut u64) -> Duration {
    let half = base / 2;
    half + Duration::from_secs_f64(half.as_secs_f64() * unit(state))
}

/// One standing point query the client re-subscribes after
/// reconnecting.
#[derive(Debug, Clone)]
struct Standing {
    request: PointRequest,
    slack: f64,
    /// Current server-side id (changes on every reconnect).
    sub_id: u64,
}

/// A [`Client`] that survives server restarts.
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    client: Option<Client>,
    standing: Vec<Standing>,
    /// Total reconnects performed (0 on an undisturbed run).
    reconnects: usize,
    /// Recovered epoch reported by the most recent point SUB_ACK.
    last_recovered_epoch: u64,
    /// Give up reconnecting after this long without a live connection.
    reconnect_timeout: Duration,
    /// SplitMix64 state feeding the backoff jitter (seeded per client).
    jitter: u64,
}

impl ResilientClient {
    /// Connects, retrying until `reconnect_timeout` elapses (the same
    /// budget later reconnects get).
    pub fn connect(addr: SocketAddr, reconnect_timeout: Duration) -> Result<Self, ClientError> {
        let client = Client::connect_retry(addr, reconnect_timeout)?;
        let jitter = u64::from(std::process::id())
            .wrapping_shl(32)
            .wrapping_add(NEXT_JITTER_SEED.fetch_add(1, Ordering::Relaxed));
        Ok(ResilientClient {
            addr,
            client: Some(client),
            standing: Vec::new(),
            reconnects: 0,
            last_recovered_epoch: 0,
            reconnect_timeout,
            jitter,
        })
    }

    /// Total reconnects performed so far.
    pub fn reconnects(&self) -> usize {
        self.reconnects
    }

    /// Recovered epoch from the most recent SUB_ACK (0 until the first
    /// subscription, or when the server's catalog is transient/fresh).
    pub fn last_recovered_epoch(&self) -> u64 {
        self.last_recovered_epoch
    }

    /// `true` when `e` is a transport failure a reconnect can heal
    /// (everything except a server-reported error frame or a wire
    /// decode failure, which would recur on a fresh connection).
    fn is_transport(e: &ClientError) -> bool {
        matches!(e, ClientError::Io(_) | ClientError::Unexpected { .. })
    }

    /// Reconnects with capped exponential backoff and re-issues every
    /// standing SUBSCRIBE.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.client = None;
        let deadline = Instant::now() + self.reconnect_timeout;
        let mut backoff = BACKOFF_START;
        loop {
            std::thread::sleep(jittered(backoff, &mut self.jitter));
            if let Ok(mut client) = Client::connect(self.addr) {
                // Re-subscribe before handing the connection back:
                // the restarted server assigns fresh ids.
                let mut ok = true;
                for standing in &mut self.standing {
                    match client.subscribe(&standing.request, standing.slack) {
                        Ok((ack, _)) => {
                            standing.sub_id = ack.sub_id;
                            self.last_recovered_epoch = ack.recovered_epoch;
                        }
                        Err(e) if Self::is_transport(&e) => {
                            ok = false;
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
                if ok {
                    self.client = Some(client);
                    self.reconnects += 1;
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "reconnect budget exhausted",
                )));
            }
            backoff = (backoff * 2).min(BACKOFF_CAP);
        }
    }

    /// Runs `op` against the live connection, reconnecting (and
    /// re-subscribing) on transport failure until it succeeds or the
    /// reconnect budget runs out. `op` must be idempotent.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        loop {
            if self.client.is_none() {
                self.reconnect()?;
            }
            let client = self.client.as_mut().expect("just reconnected");
            match op(client) {
                Ok(v) => return Ok(v),
                Err(e) if Self::is_transport(&e) => {
                    self.client = None;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// IPQ / C-IPQ with transparent reconnect.
    pub fn point_query(&mut self, request: &PointRequest) -> Result<QueryAnswer, ClientError> {
        self.with_retry(|c| c.query(request))
    }

    /// Liveness probe with transparent reconnect.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.with_retry(|c| c.ping())
    }

    /// Registers a standing point query that survives restarts: after
    /// every reconnect it is re-subscribed automatically and its
    /// SUB_ACK's recovered epoch is recorded. Returns the initial ack
    /// and answer.
    pub fn subscribe_point(
        &mut self,
        request: &PointRequest,
        slack: f64,
    ) -> Result<(SubAck, QueryAnswer), ClientError> {
        let request_clone = request.clone();
        let (ack, answer) = self.with_retry(|c| c.subscribe(&request_clone, slack))?;
        self.last_recovered_epoch = ack.recovered_epoch;
        self.standing.push(Standing {
            request: request.clone(),
            slack,
            sub_id: ack.sub_id,
        });
        Ok((ack, answer))
    }

    /// The live inner client for non-retried calls (mutations, stats).
    /// Errors there leave reconnection to the next retried call.
    pub fn raw(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            self.reconnect()?;
        }
        Ok(self.client.as_mut().expect("just reconnected"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_bounded_and_seed_sensitive() {
        let base = Duration::from_millis(200);
        let mut a = 42u64;
        let mut b = 42u64;
        let mut c = 43u64;
        let (mut equal, mut differ) = (true, false);
        for _ in 0..64 {
            let x = jittered(base, &mut a);
            let y = jittered(base, &mut b);
            let z = jittered(base, &mut c);
            equal &= x == y;
            differ |= x != z;
            // Half-deterministic floor, never above the nominal backoff.
            assert!(x >= base / 2 && x <= base, "out of range: {x:?}");
        }
        assert!(equal, "same seed must replay the same sleeps");
        assert!(differ, "different seeds must decorrelate");
    }
}
