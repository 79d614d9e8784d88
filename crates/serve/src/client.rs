//! The client: one connection, typed errors, retry with backoff.
//!
//! [`Client::schedule`] submits one graph and blocks for its answer.
//! [`Client::schedule_with_retry`] wraps that in reconnect + capped
//! exponential backoff with deterministic jitter, retrying exactly
//! the failures the server marked retryable (overload, drain,
//! timeout) plus transport errors — and *never* terminal rejections
//! (malformed, too large, unsupported), which would fail identically
//! forever.

use crate::protocol::{
    self, Accepted, ProtoError, Rejected, Request, Response,
};
use crate::server::{BindAddr, Stream};
use std::io::{self, BufRead, BufReader, Write};
use std::time::Duration;

/// Per-request knobs.
#[derive(Clone, Debug, Default)]
pub struct RequestOpts {
    /// Deadline hint sent to the server (clamped by its
    /// `max_deadline`).
    pub deadline: Option<Duration>,
    /// Deterministic step quota combined into the server-side budget.
    pub steps: Option<u64>,
    /// Canonical hash of a base graph this one extends (ECO fast
    /// path).
    pub base: Option<u128>,
    /// Bypass the schedule cache.
    pub nocache: bool,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, write, read, premature close).
    Io(io::Error),
    /// The server answered with a typed rejection.
    Rejected(Rejected),
    /// The server answered with something unparsable.
    Protocol(ProtoError),
}

impl ClientError {
    /// Should an identical resubmission be attempted?
    pub fn retryable(&self) -> bool {
        match self {
            // A broken pipe may be a restarting or drained server.
            ClientError::Io(_) => true,
            ClientError::Rejected(r) => r.kind.retryable(),
            ClientError::Protocol(_) => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Rejected(r) => {
                write!(f, "rejected ({}): {}", r.kind.name(), r.msg)
            }
            ClientError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Retry schedule: capped exponential backoff with multiplicative
/// jitter in `[0.5, 1.5)` from a seeded xorshift, so tests are
/// reproducible and synchronized clients don't stampede in lockstep.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retry.
    pub attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Upper clamp on any single backoff.
    pub cap: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(400),
            seed: 0x5eed,
        }
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl RetryPolicy {
    /// The pause after failed attempt number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        // Jitter factor in [0.5, 1.5): spreads retries of clients
        // that failed at the same instant.
        let r = xorshift(self.seed ^ (u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9));
        let factor = 0.5 + (r % 1024) as f64 / 1024.0;
        Duration::from_secs_f64(exp.as_secs_f64() * factor)
    }
}

/// An answer of the wrong verb for the exchange it completes.
fn unexpected(id: u64, resp: &Response) -> ClientError {
    ClientError::Protocol(ProtoError(format!("unexpected answer to id {id}: {resp:?}")))
}

/// A connected client. One in-flight request at a time.
pub struct Client {
    writer: Stream,
    reader: BufReader<Stream>,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the transport.
    pub fn connect(addr: &BindAddr) -> io::Result<Client> {
        let stream = Stream::connect(addr)?;
        // The response wait is bounded: a wedged server surfaces as a
        // timeout error, not a hung client.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            next_id: 1,
        })
    }

    /// Submits `text` and blocks for the matching answer.
    ///
    /// # Errors
    ///
    /// [`ClientError`] — typed rejections come back as
    /// [`ClientError::Rejected`] with the server's retry verdict.
    pub fn schedule(&mut self, text: &str, opts: &RequestOpts) -> Result<Accepted, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            id,
            bytes: text.len(),
            deadline_ms: opts.deadline.map(|d| d.as_millis() as u64),
            steps: opts.steps,
            base: opts.base,
            nocache: opts.nocache,
        };
        let header = protocol::format_request_header(&req);
        self.writer.write_all(header.as_bytes())?;
        self.writer.write_all(text.as_bytes())?;
        self.writer.flush()?;
        match self.await_reply(id)? {
            Response::Accepted(a) => Ok(a),
            other => Err(unexpected(id, &other)),
        }
    }

    /// Queries the daemon's live metrics snapshot (`STATS` verb) and
    /// returns the flat JSON body. Answered inline by the connection
    /// thread, so it works even while the daemon is draining or its
    /// workers are saturated.
    ///
    /// # Errors
    ///
    /// [`ClientError`] — transport failures, a typed rejection (e.g.
    /// a malformed query), or an unparsable reply.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let header = protocol::format_stats_header(id);
        self.writer.write_all(header.as_bytes())?;
        self.writer.flush()?;
        match self.await_reply(id)? {
            Response::Stats(s) => Ok(s.json),
            other => Err(unexpected(id, &other)),
        }
    }

    /// Reads lines until the answer to `id` arrives; an id-less
    /// rejection (a connection-level refusal) also answers it.
    /// Rejections come back as [`ClientError::Rejected`].
    fn await_reply(&mut self, id: u64) -> Result<Response, ClientError> {
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            let resp = protocol::parse_response(&line).map_err(ClientError::Protocol)?;
            // Answers for ids this client no longer waits on (e.g.
            // from an abandoned earlier exchange) are skipped.
            if resp.id() != id && resp.id() != 0 {
                continue;
            }
            return match resp {
                Response::Rejected(r) => Err(ClientError::Rejected(r)),
                other => Ok(other),
            };
        }
    }

    /// Connects, submits, and retries retryable failures under
    /// `policy`, reconnecting on each attempt (the previous
    /// connection may be half-dead).
    ///
    /// # Errors
    ///
    /// The last [`ClientError`] once attempts are exhausted, or the
    /// first terminal one.
    pub fn schedule_with_retry(
        addr: &BindAddr,
        text: &str,
        opts: &RequestOpts,
        policy: &RetryPolicy,
    ) -> Result<Accepted, ClientError> {
        let mut last: Option<ClientError> = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.backoff(attempt - 1));
            }
            let outcome = Client::connect(addr)
                .map_err(ClientError::from)
                .and_then(|mut c| c.schedule(text, opts));
            match outcome {
                Ok(a) => return Ok(a),
                Err(e) if e.retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Io(io::Error::other("no attempts made"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RejectKind;

    #[test]
    fn backoff_grows_is_capped_and_jittered() {
        let p = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 7,
        };
        let waits: Vec<Duration> = (0..8).map(|a| p.backoff(a)).collect();
        // Exponential-ish growth up to the cap (jitter is ±50%).
        assert!(waits[0] >= Duration::from_millis(5) && waits[0] < Duration::from_millis(15));
        assert!(waits[3] > waits[0]);
        for w in &waits {
            assert!(*w < Duration::from_millis(300), "{w:?} exceeds jittered cap");
        }
        // Deterministic for a fixed seed.
        assert_eq!(p.backoff(2), p.backoff(2));
        // Different seeds de-synchronize.
        let q = RetryPolicy { seed: 8, ..p };
        assert_ne!(p.backoff(1), q.backoff(1));
    }

    #[test]
    fn retryability_follows_the_server_verdict() {
        let rej = |kind| {
            ClientError::Rejected(Rejected {
                id: 1,
                kind,
                msg: String::new(),
                trace: 0,
            })
        };
        assert!(rej(RejectKind::Overloaded).retryable());
        assert!(rej(RejectKind::Timeout).retryable());
        assert!(!rej(RejectKind::Malformed).retryable());
        assert!(!rej(RejectKind::Poisoned).retryable());
        assert!(ClientError::Io(io::ErrorKind::BrokenPipe.into()).retryable());
        assert!(!ClientError::Protocol(ProtoError("x".into())).retryable());
    }
}
