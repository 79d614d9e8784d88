//! The daemon: admission, bounded queue, worker pool, drain.
//!
//! ```text
//!            accept loop                bounded queue           workers
//!  client ──► conn thread ── header ──► sync_channel(cap) ──► catch_unwind {
//!               │   │                     │ full? shed           RunScope
//!               │   └ size check          ▼                      cache / ECO
//!               │     toolarge         typed ERR                 run_flow_degraded
//!               ▼                      overloaded                }
//!             writer ◄──────────────── one-line response ────────┘
//! ```
//!
//! Load discipline in one sentence: *everything unbounded is
//! refused, everything slow is degraded, everything crashing is
//! contained.* The queue has a fixed capacity and [`try_send`]
//! semantics (shed, never buffer); the connection table has a fixed
//! capacity; request bodies have a byte limit enforced before the
//! body is read; deadlines become [`hls_ir::Budget`] wall clocks so
//! the ladder degrades instead of overrunning; panics are caught per
//! request under a `serve:req<id>` fault-injection scope.
//!
//! [`try_send`]: std::sync::mpsc::SyncSender::try_send

use crate::cache::{CachedAnswer, CacheStats, ScheduleCache};
use crate::protocol::{
    self, Accepted, CacheStatus, RejectKind, Rejected, Request, Response, MAX_HEADER_BYTES,
};
use hls_flow::{eco_flow, run_flow_degraded, EcoBase, FlowConfig, FlowError};
use hls_ir::faultinject::{self, RunScope};
use hls_ir::textfmt::{self, Limits};
use hls_ir::{canon, Budget};
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Recovers the inner value of a poisoned lock: the daemon's shared
/// state (stats, cache, writers) stays usable after a caught panic.
fn unpoisoned<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Where the daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BindAddr {
    /// `tcp:<host>:<port>` (port 0 picks an ephemeral port).
    Tcp(String),
    /// `unix:<path>` (a stale socket file is replaced).
    #[cfg(unix)]
    Unix(PathBuf),
}

impl BindAddr {
    /// Parses `tcp:host:port` or `unix:/path`.
    pub fn parse(s: &str) -> Result<BindAddr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest.rsplit_once(':').is_none() {
                return Err(format!("tcp address `{rest}` needs host:port"));
            }
            return Ok(BindAddr::Tcp(rest.to_string()));
        }
        #[cfg(unix)]
        if let Some(rest) = s.strip_prefix("unix:") {
            return Ok(BindAddr::Unix(PathBuf::from(rest)));
        }
        Err(format!("bad bind address `{s}` (want tcp:host:port or unix:/path)"))
    }
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Tcp(a) => write!(f, "tcp:{a}"),
            #[cfg(unix)]
            BindAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A connected byte stream over either transport.
pub(crate) enum Stream {
    /// TCP.
    Tcp(TcpStream),
    /// Unix domain socket.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Wraps a TCP stream with Nagle's algorithm off: every message is
    /// one small write answered by the peer, so coalescing would hold
    /// each one back for the peer's delayed ACK.
    fn tcp(s: TcpStream) -> io::Result<Stream> {
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
    }

    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    pub(crate) fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    pub(crate) fn connect(addr: &BindAddr) -> io::Result<Stream> {
        match addr {
            BindAddr::Tcp(a) => Stream::tcp(TcpStream::connect(a.as_str())?),
            #[cfg(unix)]
            BindAddr::Unix(p) => UnixStream::connect(p).map(Stream::Unix),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => Stream::tcp(l.accept()?.0),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads running the flow.
    pub workers: usize,
    /// Admission queue capacity; a full queue sheds with
    /// [`RejectKind::Overloaded`].
    pub queue_capacity: usize,
    /// Concurrent connection cap; beyond it new connections are
    /// refused with [`RejectKind::Overloaded`].
    pub max_connections: usize,
    /// Request body byte cap (also the parser's
    /// [`Limits::max_bytes`]).
    pub max_request_bytes: usize,
    /// Deadline applied when the request carries none.
    pub default_deadline: Duration,
    /// Upper clamp on any requested deadline.
    pub max_deadline: Duration,
    /// Schedule-cache entry cap (0 disables the cache).
    pub cache_capacity: usize,
    /// Flow configuration shared by all requests. Its `budget` is
    /// combined (pointwise tighter) with each request's own deadline
    /// budget.
    pub flow: FlowConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_connections: 64,
            max_request_bytes: 1 << 20,
            default_deadline: Duration::from_millis(2_000),
            max_deadline: Duration::from_secs(30),
            cache_capacity: 256,
            flow: FlowConfig::default(),
        }
    }
}

/// Counter snapshot of a running (or stopped) daemon: its own
/// ledger, always on and private to this instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Request headers successfully read.
    pub received: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests answered with an `OK` line.
    pub completed: u64,
    /// `overloaded`: shed by the full queue or connection table.
    pub shed: u64,
    /// `draining`: refused because the daemon was draining.
    pub drain_rejects: u64,
    /// `malformed`: unparsable headers or bodies.
    pub malformed: u64,
    /// `toolarge`: over the size limits.
    pub toolarge: u64,
    /// `unsupported`: needs a capability the server has disabled.
    pub unsupported: u64,
    /// `timeout`: deadline expiries (in queue or in flow).
    pub timeouts: u64,
    /// `poisoned`: the request's flow panicked (caught).
    pub poisoned: u64,
    /// `internal`: unexpected server-side failures.
    pub internal: u64,
    /// Exact cache hits (the cache's own [`CacheStats::hits`]).
    pub cache_hits: u64,
    /// ECO-delta replays answered from a cached base.
    pub eco_hits: u64,
    /// Bound-only answers (deepest ladder rung).
    pub bound_only: u64,
    /// `STATS` queries answered.
    pub stats_queries: u64,
    /// Current queue depth.
    pub queue_depth: u64,
    /// Requests a worker is scheduling right now.
    pub in_flight: u64,
    /// Open client connections.
    pub connections: u64,
    /// Schedule-cache counters.
    pub cache: CacheStats,
}

impl ServeStats {
    /// Every `ERR` line written, whatever its kind.
    pub fn rejected(&self) -> u64 {
        self.shed
            + self.drain_rejects
            + self.malformed
            + self.toolarge
            + self.unsupported
            + self.timeouts
            + self.poisoned
            + self.internal
    }

    /// `(key, value)` pairs as the `STATS` reply and the daemon's exit
    /// log render them.
    pub fn fields(&self) -> [(&'static str, u64); 19] {
        [
            ("serve_requests", self.received),
            ("serve_admitted", self.admitted),
            ("serve_completed", self.completed),
            ("serve_rejected", self.rejected()),
            ("serve_shed", self.shed),
            ("serve_drain_rejects", self.drain_rejects),
            ("serve_malformed", self.malformed),
            ("serve_toolarge", self.toolarge),
            ("serve_unsupported", self.unsupported),
            ("serve_timeouts", self.timeouts),
            ("serve_poisoned", self.poisoned),
            ("serve_internal", self.internal),
            ("serve_bound_only", self.bound_only),
            ("cache_hits", self.cache_hits),
            ("eco_hits", self.eco_hits),
            ("stats_queries", self.stats_queries),
            ("queue_depth", self.queue_depth),
            ("in_flight", self.in_flight),
            ("connections", self.connections),
        ]
    }
}

/// The daemon's serve accounting: each event is counted here once,
/// whether or not recording is on.
#[derive(Default)]
struct Ledger {
    received: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    /// `ERR` lines written, indexed by `RejectKind as usize`.
    rejected: [AtomicU64; RejectKind::ALL.len()],
    eco_hits: AtomicU64,
    bound_only: AtomicU64,
    stats_queries: AtomicU64,
    queue_depth: AtomicU64,
    in_flight: AtomicU64,
}

impl Ledger {
    fn snapshot(&self, connections: usize, cache: CacheStats) -> ServeStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let rejected = |k: RejectKind| get(&self.rejected[k as usize]);
        ServeStats {
            received: get(&self.received),
            admitted: get(&self.admitted),
            completed: get(&self.completed),
            shed: rejected(RejectKind::Overloaded),
            drain_rejects: rejected(RejectKind::Draining),
            malformed: rejected(RejectKind::Malformed),
            toolarge: rejected(RejectKind::TooLarge),
            unsupported: rejected(RejectKind::Unsupported),
            timeouts: rejected(RejectKind::Timeout),
            poisoned: rejected(RejectKind::Poisoned),
            internal: rejected(RejectKind::Internal),
            cache_hits: cache.hits,
            eco_hits: get(&self.eco_hits),
            bound_only: get(&self.bound_only),
            stats_queries: get(&self.stats_queries),
            queue_depth: get(&self.queue_depth),
            in_flight: get(&self.in_flight),
            connections: connections as u64,
            cache,
        }
    }
}

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// How often blocked threads wake to poll the lifecycle state.
const POLL: Duration = Duration::from_millis(25);

struct Inner {
    state: AtomicU8,
    ledger: Ledger,
    conns: AtomicUsize,
    cache: Mutex<ScheduleCache>,
    cfg: ServeConfig,
    limits: Limits,
}

impl Inner {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn stats(&self) -> ServeStats {
        let cache = unpoisoned(self.cache.lock()).stats();
        self.ledger.snapshot(self.conns.load(Ordering::Acquire), cache)
    }

    /// Writes an `ERR` line and counts it under its wire kind: the one
    /// place a rejection is accounted.
    fn reject(&self, w: &Writer, id: u64, kind: RejectKind, msg: impl Into<String>, trace: u64) {
        self.ledger.rejected[kind as usize].fetch_add(1, Ordering::Relaxed);
        let msg = msg.into();
        send_line(w, &Response::Rejected(Rejected { id, kind, msg, trace }));
    }
}

/// The shared write half of one client connection.
type Writer = Arc<Mutex<Stream>>;

/// One admitted unit of work.
struct Job {
    req: Request,
    text: String,
    /// Wall deadline on the fault-injectable clock, so injected skew
    /// exercises the same expiry paths real overload does.
    deadline: Instant,
    /// When the job entered the queue (real clock), for the
    /// queue-wait histogram.
    enqueued: Instant,
    /// Trace id stamped on whatever response answers this request.
    trace: u64,
    writer: Arc<Mutex<Stream>>,
}

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](Server::shutdown) stops it non-gracefully.
pub struct Server {
    inner: Arc<Inner>,
    addr: BindAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    tx: Option<SyncSender<Job>>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Binds `addr` and starts the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from binding or thread spawning.
    pub fn start(addr: &BindAddr, cfg: ServeConfig) -> io::Result<Server> {
        let (listener, bound, unix_path) = match addr {
            BindAddr::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                let actual = l.local_addr()?;
                (Listener::Tcp(l), BindAddr::Tcp(actual.to_string()), None)
            }
            #[cfg(unix)]
            BindAddr::Unix(p) => {
                // A stale socket file from a previous run blocks the
                // bind; replacing it is the conventional remedy.
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                (Listener::Unix(l), BindAddr::Unix(p.clone()), Some(p.clone()))
            }
        };
        listener.set_nonblocking(true)?;

        let limits = Limits {
            max_bytes: cfg.max_request_bytes,
            ..Limits::serving()
        };
        let inner = Arc::new(Inner {
            state: AtomicU8::new(RUNNING),
            ledger: Ledger::default(),
            conns: AtomicUsize::new(0),
            cache: Mutex::new(ScheduleCache::new(cfg.cache_capacity, limits.max_ops)),
            cfg: cfg.clone(),
            limits,
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(cfg.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for w in 0..cfg.workers.max(1) {
            let inner = Arc::clone(&inner);
            let rx = Arc::clone(&rx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner, &rx))?,
            );
        }

        let accept = {
            let inner = Arc::clone(&inner);
            let tx = tx.clone();
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&inner, &listener, &tx))?
        };

        Ok(Server {
            inner,
            addr: bound,
            accept: Some(accept),
            workers,
            tx: Some(tx),
            #[cfg(unix)]
            unix_path,
        })
    }

    /// The actually bound address (resolves `port 0`).
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// Stops admitting: new connections and new requests are refused
    /// with `draining`; queued work is answered bound-only; running
    /// work finishes under its own deadline.
    pub fn drain(&self) {
        let _ = self.inner.state.compare_exchange(
            RUNNING,
            DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Number of admitted-but-unanswered requests (queued or in
    /// flight).
    pub fn pending(&self) -> u64 {
        let l = &self.inner.ledger;
        l.queue_depth.load(Ordering::Acquire) + l.in_flight.load(Ordering::Acquire)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    /// Drains, waits for in-flight work (bounded by `grace`), stops
    /// every thread and returns the final counters.
    pub fn shutdown(mut self, grace: Duration) -> ServeStats {
        self.drain();
        let gave_up = Instant::now() + grace;
        while self.pending() > 0 && Instant::now() < gave_up {
            std::thread::sleep(POLL);
        }
        self.inner.state.store(STOPPED, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Dropping the sender lets workers observe disconnection once
        // the queue is empty; connection threads exit on their next
        // poll tick.
        drop(self.tx.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Some(p) = self.unix_path.take() {
            let _ = std::fs::remove_file(p);
        }
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.state.store(STOPPED, Ordering::Release);
        drop(self.tx.take());
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Some(p) = self.unix_path.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn send_line(writer: &Writer, resp: &Response) {
    let line = protocol::format_response(resp);
    let mut w = unpoisoned(writer.lock());
    // A vanished client is its own problem; the daemon must not be.
    let _ = w.write_all(line.as_bytes()).and_then(|()| w.flush());
}

fn accept_loop(inner: &Arc<Inner>, listener: &Listener, tx: &SyncSender<Job>) {
    loop {
        if inner.state() == STOPPED {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                let Ok(writer) = stream.try_clone().map(|w| Arc::new(Mutex::new(w))) else {
                    continue;
                };
                let cap = inner.cfg.max_connections;
                let full = || format!("connection table full (capacity {cap})");
                if inner.state() != RUNNING {
                    inner.reject(&writer, 0, RejectKind::Draining, "server is draining", 0);
                    continue;
                }
                if inner.conns.load(Ordering::Acquire) >= cap {
                    inner.reject(&writer, 0, RejectKind::Overloaded, full(), 0);
                    continue;
                }
                inner.conns.fetch_add(1, Ordering::AcqRel);
                let (inner2, tx2, writer2) = (Arc::clone(inner), tx.clone(), Arc::clone(&writer));
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        connection_loop(&inner2, stream, &writer2, &tx2);
                        inner2.conns.fetch_sub(1, Ordering::AcqRel);
                    });
                if spawned.is_err() {
                    inner.conns.fetch_sub(1, Ordering::AcqRel);
                    inner.reject(&writer, 0, RejectKind::Overloaded, full(), 0);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes, tolerating
/// read timeouts (polling the stop flag between them). `Ok(None)`
/// means clean EOF before any byte.
fn read_line_bounded(
    inner: &Inner,
    r: &mut BufReader<Stream>,
    max: usize,
) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if inner.state() == STOPPED {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "stopping"));
        }
        match r.read(&mut byte) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
                }
                if buf.len() >= max {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("header exceeds {max} bytes"),
                    ));
                }
                buf.push(byte[0]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads exactly `n` bytes, tolerating read timeouts.
fn read_exact_bounded(inner: &Inner, r: &mut BufReader<Stream>, n: usize) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; n];
    let mut got = 0;
    while got < n {
        if inner.state() == STOPPED {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "stopping"));
        }
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(k) => got += k,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
    Ok(buf)
}

fn connection_loop(inner: &Arc<Inner>, stream: Stream, writer: &Writer, tx: &SyncSender<Job>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = BufReader::new(stream);

    loop {
        let line = match read_line_bounded(inner, &mut reader, MAX_HEADER_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        // STATS is answered inline by the connection thread — it
        // never enters the queue, so it works even when the daemon is
        // draining or the workers are saturated. That makes it a
        // trustworthy probe of an unhealthy daemon.
        if protocol::is_stats_header(&line) {
            match protocol::parse_stats_header(&line) {
                Ok(sid) => {
                    // Counted before rendering, so the reply includes
                    // itself.
                    inner.ledger.stats_queries.fetch_add(1, Ordering::Relaxed);
                    let mut snap = hls_obs::metrics::snapshot();
                    snap.counters.extend(inner.stats().fields());
                    let json = hls_obs::export::metrics_json(&snap);
                    send_line(writer, &Response::Stats(protocol::StatsReply { id: sid, json }));
                }
                Err(e) => inner.reject(writer, 0, RejectKind::Malformed, e.to_string(), 0),
            }
            continue;
        }
        let req = match protocol::parse_request_header(&line) {
            Ok(r) => r,
            Err(e) => {
                // The body length is unknown for an unparsable
                // header, so re-framing is impossible: answer and
                // close.
                inner.reject(writer, 0, RejectKind::Malformed, e.to_string(), 0);
                return;
            }
        };
        inner.ledger.received.fetch_add(1, Ordering::Relaxed);
        // The trace id is minted at admission so every response for
        // this request — including rejections — carries it.
        let trace = hls_obs::next_trace_id();

        if req.bytes > inner.cfg.max_request_bytes {
            // Refusing before reading the body is the point: an
            // oversized declaration never occupies memory. The
            // connection closes because the unread body cannot be
            // skipped within bounded work.
            let msg = format!(
                "declared body of {} bytes exceeds limit {}",
                req.bytes, inner.cfg.max_request_bytes
            );
            inner.reject(writer, req.id, RejectKind::TooLarge, msg, trace);
            return;
        }
        let body = match read_exact_bounded(inner, &mut reader, req.bytes) {
            Ok(b) => b,
            Err(e) => {
                let msg = format!("truncated body: {e}");
                inner.reject(writer, req.id, RejectKind::Malformed, msg, trace);
                return;
            }
        };

        if inner.state() != RUNNING {
            inner.reject(writer, req.id, RejectKind::Draining, "server is draining", trace);
            continue;
        }

        let ms = req
            .deadline_ms
            .map_or(inner.cfg.default_deadline, Duration::from_millis)
            .min(inner.cfg.max_deadline);
        let job = Job {
            deadline: faultinject::now() + ms,
            req,
            text: String::from_utf8_lossy(&body).into_owned(),
            enqueued: Instant::now(),
            trace,
            writer: Arc::clone(writer),
        };
        let id = job.req.id;
        // Inflate the depth *before* the send: a worker may dequeue
        // the job before this thread runs again, and its decrement
        // must never observe the counter at zero.
        inner.ledger.queue_depth.fetch_add(1, Ordering::AcqRel);
        let (kind, msg) = match tx.try_send(job) {
            Ok(()) => {
                inner.ledger.admitted.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            Err(TrySendError::Full(_)) => (
                RejectKind::Overloaded,
                format!("admission queue full (capacity {})", inner.cfg.queue_capacity),
            ),
            Err(TrySendError::Disconnected(_)) => {
                (RejectKind::Draining, "server is shutting down".into())
            }
        };
        inner.ledger.queue_depth.fetch_sub(1, Ordering::AcqRel);
        inner.reject(writer, id, kind, msg, trace);
    }
}

fn worker_loop(inner: &Arc<Inner>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Holding the lock across the timed recv serializes *dequeue*,
        // not processing; the timeout doubles as the stop-flag poll.
        let job = {
            let rx = unpoisoned(rx.lock());
            rx.recv_timeout(POLL)
        };
        let job = match job {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if inner.state() == STOPPED {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        inner.ledger.in_flight.fetch_add(1, Ordering::AcqRel);
        inner.ledger.queue_depth.fetch_sub(1, Ordering::AcqRel);
        hls_obs::obs_hist!(ServeQueueWaitUs, job.enqueued.elapsed().as_micros() as u64);

        let id = job.req.id;
        let trace = job.trace;
        // The service span carries the trace id as its argument, so a
        // Chrome timeline row can be joined against the `trace=` token
        // the client saw on its OK/ERR line.
        let _req_span = hls_obs::obs_span!(ServeRequest, "", trace);
        // The per-request unwind boundary: a panic anywhere below —
        // parser, cache, flow — poisons this answer and nothing else.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = RunScope::enter(&format!("serve:req{id}"));
            handle(inner, &job)
        }));
        let answer = outcome.unwrap_or_else(|payload| {
            let msg = hls_ir::panic_message(payload.as_ref());
            hls_obs::obs_error!("serve", "request {id} (trace {trace:016x}) panicked: {msg}");
            // Post-mortem before the evidence scrolls away: the flight
            // recorder freezes the ring and counters as of the panic.
            hls_obs::flight::dump(&format!("serve request {id} panicked: {msg}"));
            Err(Rejected {
                id,
                kind: RejectKind::Poisoned,
                msg,
                trace: 0,
            })
        });
        match answer {
            Ok(a) => {
                inner.ledger.completed.fetch_add(1, Ordering::Relaxed);
                send_line(&job.writer, &Response::Accepted(Accepted { trace, ..a }));
            }
            Err(r) => inner.reject(&job.writer, r.id, r.kind, r.msg, trace),
        }
        inner.ledger.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn map_flow_error(id: u64, e: &FlowError) -> Rejected {
    let kind = match e {
        FlowError::Malformed(_) | FlowError::Lang(_) => RejectKind::Malformed,
        FlowError::NeedsPipeline => RejectKind::Unsupported,
        FlowError::Timeout => RejectKind::Timeout,
        FlowError::Poisoned(_) => RejectKind::Poisoned,
        FlowError::ResourceExhausted(_) => RejectKind::TooLarge,
        FlowError::Sched(_) | FlowError::Invalid(_) | FlowError::Lifetime(_) => {
            RejectKind::Internal
        }
    };
    Rejected {
        id,
        kind,
        msg: e.to_string(),
        trace: 0,
    }
}

/// Schedules one admitted request. Runs inside the worker's unwind
/// boundary and fault-injection scope.
fn handle(inner: &Inner, job: &Job) -> Result<Accepted, Rejected> {
    let started = Instant::now();
    let id = job.req.id;
    let draining = inner.state() != RUNNING;

    if faultinject::now() >= job.deadline {
        return Err(Rejected {
            id,
            kind: RejectKind::Timeout,
            msg: "deadline expired while queued".into(),
            trace: 0,
        });
    }

    let graph = match textfmt::from_text_limited(&job.text, &inner.limits) {
        Ok(g) => g,
        Err(e) => {
            return Err(Rejected {
                id,
                kind: RejectKind::Malformed,
                msg: e.to_string(),
                trace: 0,
            })
        }
    };
    let hash = canon::graph_hash(&graph);

    // Exact-hit fast path. The cache key is the canonical graph alone
    // because the flow configuration is fixed per server instance.
    if !job.req.nocache {
        if let Some(a) = unpoisoned(inner.cache.lock()).lookup(hash, &graph) {
            return Ok(Accepted {
                id,
                rung: a.rung,
                states: Some(a.states),
                lower_bound: a.lower_bound,
                cache: CacheStatus::Hit,
                degraded: 0,
                micros: started.elapsed().as_micros() as u64,
                trace: 0,
            });
        }
    }

    // Drain mode answers whatever is already queued bound-only: an
    // honest, near-free answer beats an abandoned request.
    let budget = if draining {
        Budget::steps(0)
    } else {
        let b = Budget::deadline_at(job.deadline);
        match job.req.steps {
            Some(q) => b.and_steps(q),
            None => b,
        }
    };

    // ECO fast path: the request names a cached base it extends —
    // graft only the delta onto the cached post-flow state through
    // the incremental engine. Nothing already absorbed (spills, wire
    // delays, placement) is recomputed.
    let eco_base = match (job.req.base, draining, graph.has_loop_edges()) {
        (Some(base), false, false) => unpoisoned(inner.cache.lock()).base_for_eco(base, &graph),
        _ => None,
    };
    let eco = match eco_base.map(|b| eco_flow(b, &graph, &inner.cfg.flow, &budget)) {
        Some(Ok(done)) => Some(done),
        Some(Err(FlowError::Timeout)) => return Err(map_flow_error(id, &FlowError::Timeout)),
        // Any other graft failure falls through to the cold path: the
        // request is still answerable from scratch.
        Some(Err(_)) | None => None,
    };

    // Both paths settle on one answer: the rung, the certified bound,
    // the final states unless only the bound came back, and the base
    // to cache for exact hits and deltas when the request allows it.
    let cacheable = !job.req.nocache && !draining;
    let (rung, lower_bound, states, base, cache, degraded) = match eco {
        Some((out, next_base)) => {
            inner.ledger.eco_hits.fetch_add(1, Ordering::Relaxed);
            let lb = out.scheduler.schedule_lower_bound();
            let states = Some(out.report.final_states);
            let base = cacheable.then_some(next_base);
            ("eco".to_string(), lb, states, base, CacheStatus::Eco, 0)
        }
        None => {
            let cfg = FlowConfig {
                budget: inner.cfg.flow.budget.tighter(&budget),
                ..inner.cfg.flow.clone()
            };
            let out = run_flow_degraded(&graph, &cfg).map_err(|e| map_flow_error(id, &e))?;
            if out.outcome.is_none() {
                inner.ledger.bound_only.fetch_add(1, Ordering::Relaxed);
            }
            let states = out.outcome.as_ref().map(|o| o.report.final_states);
            // The base clones the outcome's scheduler rather than
            // taking it: the clone drops the growth slack its per-node
            // tables gathered while absorbing wire delays, and the
            // cache holds it for many requests.
            let base = out
                .outcome
                .as_ref()
                .filter(|_| cacheable)
                .map(|o| EcoBase::of_outcome(graph.len(), o));
            let rung = out.rung.name().to_string();
            (rung, out.lower_bound, states, base, CacheStatus::Miss, out.degraded.len())
        }
    };
    if let (Some(base), Some(states)) = (base, states) {
        let answer = CachedAnswer { rung: rung.clone(), states, lower_bound };
        unpoisoned(inner.cache.lock()).insert(hash, graph, base, answer);
    }
    Ok(Accepted {
        id,
        rung,
        states,
        lower_bound,
        cache,
        degraded,
        micros: started.elapsed().as_micros() as u64,
        trace: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reject_kind_raises_exactly_one_field_by_one() {
        let mut seen = Vec::new();
        for kind in RejectKind::ALL {
            let ledger = Ledger::default();
            ledger.rejected[kind as usize].fetch_add(1, Ordering::Relaxed);
            let stats = ledger.snapshot(0, CacheStats::default());
            assert_eq!(stats.rejected(), 1, "{kind:?}");
            let raised: Vec<_> = stats
                .fields()
                .into_iter()
                .filter(|&(key, v)| v != 0 && key != "serve_rejected")
                .collect();
            assert_eq!(raised.len(), 1, "{kind:?} raised {raised:?}");
            assert_eq!(raised[0].1, 1, "{kind:?} raised {raised:?}");
            seen.push(raised[0].0);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), RejectKind::ALL.len(), "kinds share a field: {seen:?}");
    }
}
