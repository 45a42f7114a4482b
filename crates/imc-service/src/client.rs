//! Blocking clients for the newline-delimited JSON protocol.
//!
//! [`Client`] is the minimal connection used by `imc query` and the
//! end-to-end tests: one request/response pair at a time over a reused
//! TCP stream, with a single I/O timeout.
//!
//! [`PeerClient`] is the cluster-grade wrapper the `imc-cluster`
//! coordinator holds per shard: separate connect/read/write timeouts
//! ([`ClientConfig`]), typed failures ([`ClusterError`]) that name the
//! peer's address, lazy (re)connection, and a [`RetryPolicy`]-governed
//! reconnect-and-retry loop for *stateless* requests only — exponential
//! backoff with jitter derived deterministically from the request seed,
//! so two runs of the same solve sleep the same schedule. A stateless
//! request can also be *pipelined* — [`PeerClient::send`] now,
//! [`PeerClient::finish_stateless`] later — so a caller with several
//! peers keeps every request in flight at once; a transport error at
//! either half enters the same retry ladder. Session-scoped
//! requests (`eval_*`) are never retried: their state lives in the
//! peer's connection, so a transport error invalidates the session and
//! must surface to the coordinator, which degrades with a structured
//! `shard_unavailable` error naming the dead shard.

use imc_obs::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected client. One request/response pair at a time; the
/// connection is reused across requests.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Per-phase socket timeouts for a [`Client`] / [`PeerClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Cap on establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Cap on waiting for a response line.
    pub read_timeout: Duration,
    /// Cap on writing a request line.
    pub write_timeout: Duration,
}

impl ClientConfig {
    /// All three phases capped at `timeout` (the historical single-knob
    /// behaviour of [`Client::connect`]).
    pub fn uniform(timeout: Duration) -> Self {
        ClientConfig {
            connect_timeout: timeout,
            read_timeout: timeout,
            write_timeout: timeout,
        }
    }
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
        }
    }
}

impl Client {
    /// Connects with one uniform I/O timeout.
    ///
    /// # Errors
    ///
    /// `std::io::Error` when the connection fails.
    pub fn connect<A: ToSocketAddrs>(addr: A, timeout: Duration) -> std::io::Result<Self> {
        Client::connect_with(addr, &ClientConfig::uniform(timeout))
    }

    /// Connects with separate connect/read/write timeouts.
    ///
    /// # Errors
    ///
    /// `std::io::Error` when the connection fails.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: &ClientConfig) -> std::io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        stream.set_write_timeout(Some(config.write_timeout))?;
        // A request is one write, but a pipelined caller issues its next
        // before this one's reply: nodelay keeps Nagle from holding that
        // segment back until the peer's delayed ACK (~40ms).
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one raw request line and returns the raw response line.
    ///
    /// # Errors
    ///
    /// `std::io::Error` on broken pipe, timeout, or server disconnect.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// Writes one request line — a single write, so it leaves as one
    /// segment — without waiting for the reply.
    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)
    }

    /// Reads the next response line, trailing whitespace trimmed in place.
    fn recv_line(&mut self) -> std::io::Result<String> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// Sends a request line and parses the response as JSON.
    ///
    /// # Errors
    ///
    /// I/O errors from [`request_line`](Self::request_line); a JSON parse
    /// failure maps to `InvalidData`.
    pub fn request(&mut self, line: &str) -> std::io::Result<Value> {
        let text = self.request_line(line)?;
        json::parse(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response: {e}"),
            )
        })
    }
}

/// Retry schedule for stateless shard RPCs: a bounded number of
/// attempts separated by exponential backoff with deterministic jitter.
///
/// Jitter is derived by hashing `(seed, attempt)` with a splitmix64
/// finalizer rather than sampling a clock or thread-local RNG, so two
/// runs of the same request (same seed) sleep exactly the same
/// schedule — retries stay reproducible end to end, matching the
/// determinism contract of the solves they protect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1; 1 disables
    /// retrying entirely).
    pub attempts: u32,
    /// Backoff before the first retry; doubles on each later retry.
    pub base_delay: Duration,
    /// Cap applied to every backoff delay after doubling.
    pub max_delay: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor in
    /// `[1 - jitter/2, 1 + jitter/2]` chosen by the deterministic draw.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// Three attempts, 50 ms base, 2 s cap, ±10% jitter.
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt, fail fast.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// The delay to sleep before retry number `attempt` (1-based: 1 is
    /// the pause between the first and second attempts). `None` means
    /// the budget is exhausted — give up and surface the error.
    pub fn delay_before(&self, attempt: u32, seed: u64) -> Option<Duration> {
        if attempt >= self.attempts {
            return None;
        }
        let doublings = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_delay
            .saturating_mul(1u32 << doublings.min(31))
            .min(self.max_delay);
        // Deterministic uniform draw in [0,1) from (seed, attempt).
        let bits = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + self.jitter * (unit - 0.5);
        Some(raw.mul_f64(factor.max(0.0)))
    }

    /// The full backoff schedule for `seed`, one entry per retry. Empty
    /// when the policy never retries.
    pub fn schedule(&self, seed: u64) -> Vec<Duration> {
        (1..self.attempts)
            .map(|a| self.delay_before(a, seed).expect("within budget"))
            .collect()
    }
}

/// When a trace context is live on the calling thread, splices it into
/// the outgoing request line (`trace_id` plus the innermost open span as
/// `parent_span_id` — additive v2 envelope fields a v1 server ignores),
/// so the callee's telemetry nests under the caller's span when the
/// timeline is stitched. Without a live context the line passes through
/// untouched.
fn with_span_context(line: &str) -> std::borrow::Cow<'_, str> {
    match imc_obs::trace::current_trace_id() {
        Some(trace_id) => std::borrow::Cow::Owned(crate::protocol::inject_span_context(
            line,
            &trace_id,
            imc_obs::trace::current_span_id().as_deref(),
        )),
        None => std::borrow::Cow::Borrowed(line),
    }
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A typed failure talking to one cluster peer. Every variant names the
/// peer's address so a coordinator error can identify the dead shard.
#[derive(Debug)]
pub enum ClusterError {
    /// Establishing the TCP connection failed (refused, unreachable, or
    /// connect timeout).
    Connect {
        /// The peer that could not be reached.
        addr: SocketAddr,
        /// The underlying socket error.
        source: std::io::Error,
    },
    /// The connection broke mid-request (reset, read/write timeout, EOF).
    Io {
        /// The peer the connection belonged to.
        addr: SocketAddr,
        /// The underlying socket error.
        source: std::io::Error,
    },
    /// The peer answered, but not with valid protocol JSON.
    Protocol {
        /// The peer that answered.
        addr: SocketAddr,
        /// What was wrong with the response.
        detail: String,
    },
    /// The peer answered with a structured `"ok":false` error.
    Remote {
        /// The peer that rejected the request.
        addr: SocketAddr,
        /// The error's `code` field.
        code: String,
        /// The error's `message` field.
        message: String,
    },
}

impl ClusterError {
    /// The peer this error is about.
    pub fn addr(&self) -> SocketAddr {
        match self {
            ClusterError::Connect { addr, .. }
            | ClusterError::Io { addr, .. }
            | ClusterError::Protocol { addr, .. }
            | ClusterError::Remote { addr, .. } => *addr,
        }
    }

    /// Whether the transport (not the request) failed — the peer should
    /// be treated as unavailable.
    pub fn is_transport(&self) -> bool {
        matches!(self, ClusterError::Connect { .. } | ClusterError::Io { .. })
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Connect { addr, source } => {
                write!(f, "shard {addr}: connect failed: {source}")
            }
            ClusterError::Io { addr, source } => write!(f, "shard {addr}: I/O failed: {source}"),
            ClusterError::Protocol { addr, detail } => {
                write!(f, "shard {addr}: bad response: {detail}")
            }
            ClusterError::Remote {
                addr,
                code,
                message,
            } => write!(f, "shard {addr}: remote error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Connect { source, .. } | ClusterError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A resilient connection to one cluster peer.
///
/// Connects lazily on first use and reconnects after transport errors —
/// but replays a request only when the caller marks it *stateless*
/// (idempotent against a daemon whose sessions it does not hold). A
/// failed session-scoped request drops the connection, killing the
/// peer-side sessions with it, and surfaces immediately.
#[derive(Debug)]
pub struct PeerClient {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Client>,
    retry: RetryPolicy,
    retry_seed: u64,
}

impl PeerClient {
    /// A handle for `addr` with the given timeouts; no connection is made
    /// until the first request. `retry` governs reconnect-and-retry for
    /// stateless requests ([`RetryPolicy::none()`] = single attempt).
    pub fn new(addr: SocketAddr, config: ClientConfig, retry: RetryPolicy) -> Self {
        PeerClient {
            addr,
            config,
            conn: None,
            retry,
            retry_seed: 0,
        }
    }

    /// Sets the seed that derives backoff jitter, normally the request
    /// seed of the solve in flight, so the retry schedule is a pure
    /// function of the request.
    pub fn set_retry_seed(&mut self, seed: u64) {
        self.retry_seed = seed;
    }

    /// The retry policy governing stateless requests.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The peer's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a live connection is currently held.
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Drops the connection (and with it any peer-side sessions).
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    fn ensure_connected(&mut self) -> Result<&mut Client, ClusterError> {
        if self.conn.is_none() {
            let client = Client::connect_with(self.addr, &self.config).map_err(|source| {
                ClusterError::Connect {
                    addr: self.addr,
                    source,
                }
            })?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Drops the connection a transport error left in an unknown state —
    /// it is never reused — and types the error.
    fn broken(&mut self, source: std::io::Error) -> ClusterError {
        self.conn = None;
        ClusterError::Io {
            addr: self.addr,
            source,
        }
    }

    /// Writes one request line (connecting first if no connection is
    /// held) and returns without waiting for the reply, which
    /// [`recv`](Self::recv) reads. Replies arrive in request order, so a
    /// caller may have several lines in flight on one peer — or, the
    /// point, one on each of several peers.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Connect`] / [`ClusterError::Io`]; the connection
    /// has been dropped.
    pub fn send(&mut self, line: &str) -> Result<(), ClusterError> {
        let line = with_span_context(line);
        let sent = self.ensure_connected()?.send_line(&line);
        sent.map_err(|source| self.broken(source))
    }

    /// Reads the reply to the oldest unanswered [`send`](Self::send).
    ///
    /// # Errors
    ///
    /// Any [`ClusterError`]; on a transport error (including: no
    /// connection is held) the connection has been dropped, and with it
    /// every reply still in flight.
    pub fn recv(&mut self) -> Result<Value, ClusterError> {
        let addr = self.addr;
        let received = match self.conn.as_mut() {
            Some(client) => client.recv_line(),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "no request in flight",
            )),
        };
        let text = received.map_err(|source| self.broken(source))?;
        let value = json::parse(&text).map_err(|e| ClusterError::Protocol {
            addr,
            detail: e.to_string(),
        })?;
        match value.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(value),
            Some(false) => {
                let err = value.get("error");
                let code = err
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                let message = err
                    .and_then(|e| e.get("message"))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                Err(ClusterError::Remote {
                    addr,
                    code,
                    message,
                })
            }
            None => Err(ClusterError::Protocol {
                addr,
                detail: "response missing `ok` field".to_string(),
            }),
        }
    }

    fn request_once(&mut self, line: &str) -> Result<Value, ClusterError> {
        self.send(line)?;
        self.recv()
    }

    /// Sends a **stateless** request (`solve`, `estimate`, `shard_eval`,
    /// `health`, …), reconnecting and retrying on transport errors up to
    /// the configured retry budget.
    ///
    /// # Errors
    ///
    /// The last [`ClusterError`] after the retry budget is exhausted, or
    /// immediately on non-transport errors (protocol/remote).
    pub fn request_stateless(&mut self, line: &str) -> Result<Value, ClusterError> {
        let sent = self.send(line);
        self.finish_stateless(line, sent)
    }

    /// The second half of a pipelined **stateless** request: `sent` is
    /// what [`send`](Self::send) returned for `line`, possibly many other
    /// peers' sends ago. Reads the reply; a transport error at either
    /// half counts as the first attempt of
    /// [`request_stateless`](Self::request_stateless)'s budget, and the
    /// rest of it — reconnect, backoff, replay — runs here.
    ///
    /// # Errors
    ///
    /// As [`request_stateless`](Self::request_stateless).
    pub fn finish_stateless(
        &mut self,
        line: &str,
        sent: Result<(), ClusterError>,
    ) -> Result<Value, ClusterError> {
        let mut result = sent.and_then(|()| self.recv());
        let mut attempt = 0u32;
        loop {
            match result {
                Err(e) if e.is_transport() => {
                    attempt += 1;
                    match self.retry.delay_before(attempt, self.retry_seed) {
                        Some(delay) => std::thread::sleep(delay),
                        None => return Err(e),
                    }
                    result = self.request_once(line);
                }
                done => return done,
            }
        }
    }

    /// Sends a **session-scoped** request (`eval_begin`, `eval_batch`,
    /// `eval_seed`, `eval_end`). Never retried: the session state lives
    /// in the peer's connection, so after a transport error the session
    /// is gone and replaying the line could silently corrupt a greedy
    /// run. Connects lazily if no connection is held yet.
    ///
    /// # Errors
    ///
    /// Any [`ClusterError`]; on transport errors the connection has been
    /// dropped and the caller must restart its session protocol.
    pub fn request_session(&mut self, line: &str) -> Result<Value, ClusterError> {
        self.request_once(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn cluster_error_names_the_peer_address() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let e = ClusterError::Connect {
            addr,
            source: std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "refused"),
        };
        assert_eq!(e.addr(), addr);
        assert!(e.is_transport());
        assert!(e.to_string().contains("127.0.0.1:9"));
        let e = ClusterError::Remote {
            addr,
            code: "invalid_budget".to_string(),
            message: "k must be positive".to_string(),
        };
        assert!(!e.is_transport());
        let text = e.to_string();
        assert!(text.contains("invalid_budget") && text.contains("127.0.0.1:9"));
    }

    #[test]
    fn peer_client_reports_connect_failure_without_panicking() {
        // Port 1 on loopback is essentially never listening.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let fast_retry = RetryPolicy {
            attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter: 0.0,
        };
        let mut peer = PeerClient::new(
            addr,
            ClientConfig::uniform(Duration::from_millis(200)),
            fast_retry,
        );
        assert!(!peer.is_connected());
        let err = peer
            .request_stateless(r#"{"op":"health"}"#)
            .expect_err("must fail");
        assert!(err.is_transport());
        assert_eq!(err.addr(), addr);
        // Session requests fail fast with the same typed error.
        let err = peer
            .request_session(r#"{"op":"eval_begin"}"#)
            .expect_err("must fail");
        assert!(matches!(err, ClusterError::Connect { .. }));
    }

    /// A peer that reads one line per connection and hangs up on the first
    /// `severed` connections, answering `{"ok":true}` from then on. The
    /// counter is the number of request lines it has read.
    fn flaky_peer(severed: usize) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lines = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&lines);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let mut writer = stream.try_clone().unwrap();
                for line in BufReader::new(stream).lines() {
                    if line.is_err() || seen.fetch_add(1, Ordering::SeqCst) < severed {
                        break;
                    }
                    if writer.write_all(b"{\"ok\":true}\n").is_err() {
                        break;
                    }
                }
            }
        });
        (addr, lines)
    }

    /// Both forms of a stateless request make the same number of attempts
    /// against a peer that severs every connection, and both come back
    /// with the reply once the peer stops doing so — the pipelined one
    /// with any number of other sends between its two halves.
    #[test]
    fn a_pipelined_request_spends_the_same_retry_budget() {
        let line = r#"{"op":"ping"}"#;
        let policy = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter: 0.0,
        };
        let config = ClientConfig::uniform(Duration::from_secs(5));
        for pipelined in [false, true] {
            let request = |peer: &mut PeerClient| {
                if pipelined {
                    let sent = peer.send(line);
                    peer.finish_stateless(line, sent)
                } else {
                    peer.request_stateless(line)
                }
            };
            let (dark, lines) = flaky_peer(usize::MAX);
            let mut peer = PeerClient::new(dark, config, policy);
            let err = request(&mut peer).expect_err("every attempt is severed");
            assert!(matches!(err, ClusterError::Io { .. }), "{err}");
            assert!(!peer.is_connected());
            assert_eq!(lines.load(Ordering::SeqCst), 3, "pipelined: {pipelined}");

            let (flaky, lines) = flaky_peer(2);
            let mut peer = PeerClient::new(flaky, config, policy);
            assert!(request(&mut peer).is_ok(), "the third attempt is answered");
            assert_eq!(lines.load(Ordering::SeqCst), 3, "pipelined: {pipelined}");
            // The connection that worked is kept, and replies come back in
            // request order.
            peer.send(line).unwrap();
            peer.send(line).unwrap();
            assert!(peer.recv().is_ok() && peer.recv().is_ok());
            assert_eq!(lines.load(Ordering::SeqCst), 5);
        }
    }

    #[test]
    fn retry_schedule_is_deterministic_in_the_seed() {
        let policy = RetryPolicy::default();
        let a = policy.schedule(42);
        let b = policy.schedule(42);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_eq!(a.len(), 2, "3 attempts = 2 retries");
        let c = policy.schedule(43);
        assert_ne!(a, c, "different seeds must jitter differently");
        // Jitter stays within ±jitter/2 of the nominal delay.
        let nominal = [Duration::from_millis(50), Duration::from_millis(100)];
        for (got, want) in a.iter().zip(nominal) {
            let lo = want.mul_f64(1.0 - policy.jitter / 2.0);
            let hi = want.mul_f64(1.0 + policy.jitter / 2.0);
            assert!(lo <= *got && *got <= hi, "{got:?} outside [{lo:?}, {hi:?}]");
        }
    }

    #[test]
    fn retry_delays_double_and_respect_the_cap() {
        let policy = RetryPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(350),
            jitter: 0.0,
        };
        let schedule = policy.schedule(7);
        assert_eq!(
            schedule,
            vec![
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(350),
                Duration::from_millis(350),
                Duration::from_millis(350),
            ]
        );
    }

    #[test]
    fn retry_policy_gives_up_past_the_attempt_budget() {
        let policy = RetryPolicy::default();
        assert!(policy.delay_before(1, 0).is_some());
        assert!(policy.delay_before(2, 0).is_some());
        assert!(
            policy.delay_before(3, 0).is_none(),
            "attempt 3 of 3 is last"
        );
        let none = RetryPolicy::none();
        assert!(none.delay_before(1, 0).is_none());
        assert!(none.schedule(0).is_empty());
    }

    #[test]
    fn outgoing_lines_carry_the_live_span_context() {
        // No context: the line passes through borrowed and unmodified.
        let line = r#"{"op":"ping"}"#;
        assert!(matches!(
            with_span_context(line),
            std::borrow::Cow::Borrowed(_)
        ));
        // Live context: trace_id and the current span are spliced in.
        let _ctx =
            imc_obs::trace::TraceCtx::enter_remote("12345678deadbeef", Some("abcdef0123456789"));
        let injected = with_span_context(line);
        let ctx = crate::protocol::parse_span_context(&injected);
        assert_eq!(ctx.trace_id.as_deref(), Some("12345678deadbeef"));
        assert_eq!(ctx.parent_span_id.as_deref(), Some("abcdef0123456789"));
        // The request itself still parses.
        assert!(crate::protocol::parse_request(&injected).is_ok());
    }

    #[test]
    fn uniform_config_sets_all_three_phases() {
        let c = ClientConfig::uniform(Duration::from_secs(3));
        assert_eq!(c.connect_timeout, Duration::from_secs(3));
        assert_eq!(c.read_timeout, Duration::from_secs(3));
        assert_eq!(c.write_timeout, Duration::from_secs(3));
        let d = ClientConfig::default();
        assert!(d.connect_timeout <= d.read_timeout);
    }
}
