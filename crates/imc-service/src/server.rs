//! The TCP daemon: accept loop, worker pool dispatch, request handling,
//! graceful shutdown.
//!
//! One acceptor thread owns the listener and hands each connection to a
//! fixed [`ThreadPool`]. Every request pins the currently-published
//! collection (`Arc` clone), so a background refresh never blocks or
//! tears an in-flight solve. Shutdown is cooperative: a `shutdown`
//! request (or [`ServerHandle::stop`]) raises the [`Shutdown`] signal and
//! pokes the listener with a loopback connection so the blocking `accept`
//! wakes up; the acceptor then drains — dropping the pool joins workers
//! after their queued connections finish.

use crate::metrics::OpKind;
use crate::pool::ThreadPool;
use crate::protocol::{self, ErrorCode, EvalKind, LineRead, Request, RequestError, SolveTuning};
use crate::refresher;
use crate::ServiceState;
use imc_core::maxr::{bt, Score};
use imc_core::{
    imcaf, CoverageState, ImcafConfig, RicSamples, RicStore, SolveRequest, SolveStrategy,
};
use imc_obs::json::ObjectBuilder;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cooperative shutdown signal shared by the acceptor, workers and the
/// refresher thread.
#[derive(Debug, Default)]
pub struct Shutdown {
    requested: Mutex<bool>,
    cv: Condvar,
}

impl Shutdown {
    /// A signal in the "running" state.
    pub fn new() -> Self {
        Shutdown::default()
    }

    /// Raises the signal (idempotent) and wakes all waiters.
    pub fn request(&self) {
        *self.requested.lock().expect("shutdown lock") = true;
        self.cv.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        *self.requested.lock().expect("shutdown lock")
    }

    /// Sleeps up to `timeout` or until the signal is raised; returns
    /// whether shutdown is requested.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let guard = self.requested.lock().expect("shutdown lock");
        if *guard {
            return true;
        }
        let (guard, _) = self.cv.wait_timeout(guard, timeout).expect("shutdown lock");
        *guard
    }

    /// Blocks until the signal is raised.
    pub fn wait(&self) {
        let mut guard = self.requested.lock().expect("shutdown lock");
        while !*guard {
            guard = self.cv.wait(guard).expect("shutdown lock");
        }
    }
}

/// Background sample-refresh configuration (see [`refresher`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshConfig {
    /// Stop growing once the collection holds this many samples.
    pub target_samples: usize,
    /// Pause between growth rounds.
    pub interval: Duration,
    /// Base RNG seed for the deterministic shard-seed schedule.
    pub base_seed: u64,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Per-request deadline: socket read/write timeout, and the cap on
    /// time a connection may wait in the pool queue before being refused.
    pub deadline: Duration,
    /// Optional background refresher.
    pub refresh: Option<RefreshConfig>,
    /// Optional dedicated Prometheus exposition listener (for example
    /// `"127.0.0.1:9100"`). `GET /metrics` is always answered on the main
    /// port too; a dedicated port keeps scrapers off the worker pool.
    pub metrics_addr: Option<String>,
    /// Server-side cap on the per-request `threads` tuning knob: a solve
    /// asking for more runs with this many. Keeps one greedy client from
    /// monopolizing the host under a concurrent worker pool.
    pub max_solve_threads: usize,
    /// Requests slower than this threshold emit one structured
    /// `slow_request` line on stderr (and a matching trace event when a
    /// sink is installed) with a per-phase breakdown. `None` disables the
    /// slow log.
    pub slow_request_log: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            deadline: Duration::from_secs(30),
            refresh: None,
            metrics_addr: None,
            max_solve_threads: 4,
            slow_request_log: None,
        }
    }
}

/// A running daemon instance.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds, spawns the acceptor (plus the refresher when configured) and
    /// returns a handle. Non-blocking; use [`ServerHandle::wait`] to park
    /// until shutdown.
    ///
    /// # Errors
    ///
    /// `std::io::Error` when the bind fails.
    pub fn start(state: Arc<ServiceState>, config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(Shutdown::new());

        let refresh_thread = config
            .refresh
            .map(|rc| refresher::spawn(Arc::clone(&state), rc, Arc::clone(&shutdown)));

        let (metrics_addr, metrics_thread) = match config.metrics_addr.as_deref() {
            Some(bind) => {
                let metrics_listener = TcpListener::bind(bind)?;
                let bound = metrics_listener.local_addr()?;
                let thread = spawn_metrics_listener(
                    metrics_listener,
                    Arc::clone(&state),
                    Arc::clone(&shutdown),
                );
                (Some(bound), Some(thread))
            }
            None => (None, None),
        };

        let accept_state = Arc::clone(&state);
        let accept_shutdown = Arc::clone(&shutdown);
        let workers = config.workers;
        let deadline = config.deadline;
        let max_solve_threads = config.max_solve_threads.max(1);
        let slow_request_log = config.slow_request_log;
        let accept_thread = std::thread::Builder::new()
            .name("imc-acceptor".to_string())
            .spawn(move || {
                let pool = ThreadPool::new(workers);
                for stream in listener.incoming() {
                    if accept_shutdown.is_requested() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let state = Arc::clone(&accept_state);
                    let shutdown = Arc::clone(&accept_shutdown);
                    let enqueued = Instant::now();
                    pool.execute(move || {
                        handle_connection(
                            &state,
                            stream,
                            deadline,
                            &shutdown,
                            enqueued,
                            max_solve_threads,
                            slow_request_log,
                        );
                    });
                }
                // Dropping the pool joins workers after queued jobs drain.
            })
            .expect("spawn acceptor thread");

        Ok(ServerHandle {
            addr,
            metrics_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            refresh_thread,
            metrics_thread,
        })
    }
}

/// Handle to a running server: address, stop trigger, join.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<Shutdown>,
    accept_thread: Option<JoinHandle<()>>,
    refresh_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves ephemeral port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The dedicated metrics listener's address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The shared shutdown signal.
    pub fn shutdown_signal(&self) -> Arc<Shutdown> {
        Arc::clone(&self.shutdown)
    }

    /// Requests a graceful stop (also triggered by a client `shutdown`
    /// request) and wakes the blocking accepts.
    pub fn stop(&self) {
        self.shutdown.request();
        poke(self.addr);
        if let Some(m) = self.metrics_addr {
            poke(m);
        }
    }

    /// Blocks until shutdown is requested, then joins all threads.
    /// In-flight connections finish first.
    pub fn wait(mut self) {
        self.shutdown.wait();
        poke(self.addr);
        if let Some(m) = self.metrics_addr {
            poke(m);
        }
        self.join_threads();
    }

    /// Stops and joins immediately.
    pub fn stop_and_join(mut self) {
        self.stop();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.refresh_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.request();
        poke(self.addr);
        if let Some(m) = self.metrics_addr {
            poke(m);
        }
        self.join_threads();
    }
}

/// Wakes a blocking `accept` by making (and dropping) a loopback
/// connection.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

/// Renders the global registry as Prometheus text (refreshing the
/// collection gauges first so scrapes see current sizes).
fn prometheus_exposition(state: &ServiceState) -> String {
    state.refresh_gauges();
    imc_obs::encode::to_prometheus(imc_obs::global())
}

/// A complete HTTP/1.0 response for one `GET` request line. `/metrics`
/// gets the exposition; anything else a 404. Connection closes after.
fn http_response(state: &ServiceState, request_line: &str) -> String {
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    if path == "/metrics" || path.starts_with("/metrics?") {
        let body = prometheus_exposition(state);
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            imc_obs::encode::CONTENT_TYPE,
            body.len(),
            body
        )
    } else {
        let body = "only /metrics is served here\n";
        format!(
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    }
}

/// Dedicated exposition listener: one short-lived connection per scrape,
/// no worker pool involved, so monitoring stays responsive while every
/// worker is busy solving.
fn spawn_metrics_listener(
    listener: TcpListener,
    state: Arc<ServiceState>,
    shutdown: Arc<Shutdown>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("imc-metrics".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if shutdown.is_requested() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                let Ok(read_half) = stream.try_clone() else {
                    continue;
                };
                let mut reader = BufReader::new(read_half);
                let mut line = String::new();
                if reader.read_line(&mut line).is_err() {
                    continue;
                }
                let mut writer = BufWriter::new(stream);
                let _ = writer.write_all(http_response(&state, line.trim()).as_bytes());
                let _ = writer.flush();
            }
        })
        .expect("spawn metrics listener thread")
}

/// How often an idle connection wakes to check the shutdown signal.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// Cap on concurrently-open evaluation sessions per connection. A cluster
/// coordinator needs one session per concurrent greedy run on this shard
/// (at most two even for MB's nested solves); the cap only exists to stop
/// a buggy client from accumulating coverage states without bound.
const MAX_EVAL_SESSIONS: usize = 8;

/// Connection-scoped shard evaluation sessions (`eval_begin` …
/// `eval_end`). Each session owns a [`CoverageState`] over a pinned
/// collection `Arc` (or a pivot-reduced store built from it), so a
/// background refresh never tears a coordinator's in-flight greedy run.
/// The store dies with the connection — a vanished coordinator leaks
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct SessionStore {
    next_id: u64,
    sessions: HashMap<u64, EvalSession>,
}

#[derive(Debug)]
struct EvalSession {
    state: CoverageState<Arc<RicStore>>,
    generation: u64,
}

#[allow(clippy::too_many_arguments)]
fn handle_connection(
    state: &ServiceState,
    stream: TcpStream,
    deadline: Duration,
    shutdown: &Shutdown,
    enqueued: Instant,
    max_solve_threads: usize,
    slow_request_log: Option<Duration>,
) {
    // Short read timeout so idle connections notice shutdown promptly;
    // the request deadline is enforced separately via `idle_since`.
    let _ = stream.set_read_timeout(Some(deadline.min(SHUTDOWN_POLL)));
    let _ = stream.set_write_timeout(Some(deadline));
    // Responses flush in small pieces; Nagle would hold the tail
    // until the client ACKs, adding ~40ms to every round trip.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(stream);

    // Deadline already blown while this connection sat in the pool queue:
    // refuse rather than serve stale work.
    if enqueued.elapsed() > deadline {
        state.metrics().record_deadline_miss();
        let _ = writeln!(
            writer,
            "{}",
            protocol::error_response(ErrorCode::DeadlineExceeded, "deadline exceeded in queue")
        );
        let _ = writer.flush();
        return;
    }

    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    let limit = protocol::max_request_line(state.instance().node_count());
    let mut idle_since = Instant::now();
    let mut sessions = SessionStore::default();
    loop {
        match protocol::read_request_line(&mut reader, &mut line, limit) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong(response)) => {
                let _ = writeln!(writer, "{response}");
                let _ = writer.flush();
                break;
            }
            Ok(LineRead::Line(text)) => {
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    // HTTP-ish escape hatch: a scraper pointed at the main
                    // port sends `GET /metrics HTTP/1.x`; answer with one
                    // HTTP response and close (HTTP clients don't pipeline
                    // NDJSON).
                    if trimmed.starts_with("GET ") {
                        let _ = writer.write_all(http_response(state, trimmed).as_bytes());
                        let _ = writer.flush();
                        break;
                    }
                    if shutdown.is_requested() {
                        let _ = writeln!(
                            writer,
                            "{}",
                            protocol::error_response(
                                ErrorCode::ShuttingDown,
                                "server is shutting down"
                            )
                        );
                        let _ = writer.flush();
                        break;
                    }
                    let (response, stop) = dispatch_with(
                        state,
                        trimmed,
                        max_solve_threads,
                        slow_request_log,
                        &mut sessions,
                    );
                    if writeln!(writer, "{response}")
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        break;
                    }
                    if stop {
                        shutdown.request();
                        break;
                    }
                }
                line.clear();
                idle_since = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::WouldBlock =>
            {
                // Idle poll tick: drop the connection on shutdown or once
                // the client has been silent past the deadline.
                if shutdown.is_requested() || idle_since.elapsed() > deadline {
                    break;
                }
            }
            Err(_) => break, // reset or protocol-level I/O failure
        }
    }
}

/// The worker-thread count a request runs with under the server cap;
/// absent means one.
fn resolve_threads(tuning: &SolveTuning, cap: usize) -> usize {
    tuning.threads.unwrap_or(1).clamp(1, cap.max(1))
}

/// The `op` label a parsed request logs under.
fn op_name(request: &Request) -> &'static str {
    match request {
        Request::Solve { .. } => "solve",
        Request::Estimate { .. } => "estimate",
        Request::EvalBegin { .. } => "eval_begin",
        Request::EvalBatch { .. } => "eval_batch",
        Request::EvalSeed { .. } => "eval_seed",
        Request::EvalEnd { .. } => "eval_end",
        Request::ShardEval { .. } => "shard_eval",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Health => "health",
        Request::Ping => "ping",
        Request::Shutdown => "shutdown",
    }
}

/// [`dispatch_with`] without a slow-request threshold, on a fresh session
/// store (test shorthand).
#[cfg(test)]
fn dispatch(state: &ServiceState, line: &str, max_solve_threads: usize) -> (String, bool) {
    dispatch_with(
        state,
        line,
        max_solve_threads,
        None,
        &mut SessionStore::default(),
    )
}

/// Handles one request line; returns the response and whether the server
/// should shut down afterwards. `max_solve_threads` is the server-side cap
/// on the per-request `threads` knob.
///
/// Every request gets a `trace_id` — adopted from the caller's span
/// context when the envelope carries one (see
/// [`protocol::parse_span_context`]), freshly minted otherwise — echoed in
/// the response (an additive protocol-v2 field) and installed as the
/// thread's [`TraceCtx`](imc_obs::trace::TraceCtx) so every trace event
/// the solve emits — engine per-iteration records, IMCAF round records,
/// spans — carries the same id and reassembles into one span tree per
/// request. When the caller also sent a `parent_span_id`, this request's
/// spans nest under the caller's span in the stitched cross-process
/// timeline, and an `rpc_server` span brackets the whole request so the
/// shard's side of every RPC is visible to the stitcher.
///
/// When `slow_threshold` is set and the request takes at least that long
/// end to end, one structured `slow_request` line goes to stderr (and a
/// matching trace event to the sink) with the per-phase breakdown (parse
/// vs execute).
fn dispatch_with(
    state: &ServiceState,
    line: &str,
    max_solve_threads: usize,
    slow_threshold: Option<Duration>,
    sessions: &mut SessionStore,
) -> (String, bool) {
    let start = Instant::now();
    // Substring pre-check keeps the no-tracing hot path at one JSON parse.
    let remote = if line.contains("\"trace_id\"") {
        protocol::parse_span_context(line)
    } else {
        protocol::SpanContext::default()
    };
    let trace_id = remote.trace_id.unwrap_or_else(imc_obs::trace::fresh_id);
    let _ctx = imc_obs::trace::TraceCtx::enter_remote(&trace_id, remote.parent_span_id.as_deref());
    let parsed = protocol::parse_request(line);
    let parse_us = elapsed_us(start);
    let op = parsed.as_ref().map_or("error", op_name);
    let execute_started = Instant::now();
    let (response, stop) = {
        let _rpc_span = imc_obs::Span::enter_with("rpc_server", op);
        match parsed.and_then(|request| execute(state, request, max_solve_threads, start, sessions))
        {
            Ok(reply) => reply,
            Err(e) => {
                state.metrics().record(OpKind::Error, start.elapsed(), 0);
                (protocol::error_response(e.code, &e.message), false)
            }
        }
    };
    let execute_us = elapsed_us(execute_started);
    if let Some(threshold) = slow_threshold {
        let total = start.elapsed();
        if total >= threshold {
            log_slow_request(op, &trace_id, total, parse_us, execute_us, threshold);
        }
    }
    (
        protocol::inject_span_context(&response, &trace_id, None),
        stop,
    )
}

/// Emits the structured slow-request record: a `slow_request` trace event
/// (joining the request's span tree via the live [`TraceCtx`]) plus one
/// `key=value` line on stderr for log scrapers.
fn log_slow_request(
    op: &str,
    trace_id: &str,
    total: Duration,
    parse_us: u64,
    execute_us: u64,
    threshold: Duration,
) {
    let total_us = u64::try_from(total.as_micros()).unwrap_or(u64::MAX);
    let threshold_ms = u64::try_from(threshold.as_millis()).unwrap_or(u64::MAX);
    if imc_obs::trace::enabled() {
        imc_obs::trace::emit(
            imc_obs::trace::TraceEvent::new("slow_request")
                .field("op", op)
                .field("total_us", total_us)
                .field("parse_us", parse_us)
                .field("execute_us", execute_us)
                .field("threshold_ms", threshold_ms),
        );
    }
    eprintln!(
        "slow_request trace_id={trace_id} op={op} total_us={total_us} \
         parse_us={parse_us} execute_us={execute_us} threshold_ms={threshold_ms}"
    );
}

/// Executes a parsed request. `start` is the dispatch start instant so the
/// recorded latencies and `elapsed_us` fields cover parsing too. A refusal
/// comes back as the [`RequestError`] [`dispatch_with`] records and
/// answers, like a line that failed to parse.
fn execute(
    state: &ServiceState,
    request: Request,
    max_solve_threads: usize,
    start: Instant,
    sessions: &mut SessionStore,
) -> Result<(String, bool), RequestError> {
    Ok(match request {
        Request::Solve {
            k,
            algo,
            seed,
            imcaf: None,
            tuning,
        } => {
            let threads = resolve_threads(&tuning, max_solve_threads);
            let req = SolveRequest::new(k)
                .with_seed(seed)
                .with_depth(tuning.depth.unwrap_or(2))
                .with_threads(threads);
            let (collection, generation) = state.pinned();
            let report = algo.solve(state.instance(), &*collection, &req)?;
            let scanned = collection.len() as u64;
            state
                .metrics()
                .record(OpKind::Solve, start.elapsed(), scanned);
            let seeds: Vec<u32> = report.seeds.iter().map(|v| v.raw()).collect();
            let mut body = ObjectBuilder::new()
                .field("seeds", seeds)
                .field("estimate", report.estimate)
                .field("influenced_samples", report.influenced_samples)
                .field("evaluations", report.evaluations)
                .field("threads", threads)
                .field("samples", collection.len())
                .field("generation", generation)
                .field("elapsed_us", elapsed_us(start));
            if let Some(ratio) = report.extras.sandwich_ratio() {
                body = body.field("sandwich_ratio", ratio);
            }
            (protocol::ok_response("solve", body), false)
        }
        Request::Solve {
            k,
            algo,
            seed,
            imcaf: Some(params),
            tuning,
        } => {
            let threads = resolve_threads(&tuning, max_solve_threads);
            let config = ImcafConfig {
                k,
                epsilon: params.epsilon,
                delta: params.delta,
                max_samples: params.max_samples,
                strategy: SolveStrategy::with_threads(threads),
            };
            let result = imcaf(state.instance(), algo, &config, seed)?;
            state
                .metrics()
                .record(OpKind::Solve, start.elapsed(), result.samples_used as u64);
            let seeds: Vec<u32> = result.seeds.iter().map(|v| v.raw()).collect();
            let body = ObjectBuilder::new()
                .field("seeds", seeds)
                .field("estimate", result.estimate)
                .field("samples", result.samples_used)
                .field("rounds", result.rounds)
                .field("stop_reason", format!("{:?}", result.stop_reason))
                .field("threads", threads)
                .field("elapsed_us", elapsed_us(start));
            (protocol::ok_response("solve", body), false)
        }
        Request::Estimate { seeds } => {
            let node_count = state.instance().node_count();
            for v in &seeds {
                protocol::node_in_range("seed", v.raw(), node_count)?;
            }
            let (collection, generation) = state.pinned();
            let score = Score::of(&*collection, &seeds);
            let b = collection.total_benefit();
            state
                .metrics()
                .record(OpKind::Estimate, start.elapsed(), collection.len() as u64);
            let body = ObjectBuilder::new()
                .field("estimate", score.estimate(b))
                .field("nu_estimate", score.nu_estimate(b))
                .field("influenced_samples", score.influenced)
                .field("samples", collection.len())
                .field("generation", generation)
                .field("elapsed_us", elapsed_us(start));
            (protocol::ok_response("estimate", body), false)
        }
        Request::EvalBegin { pivot } => {
            if sessions.sessions.len() >= MAX_EVAL_SESSIONS {
                return Err(RequestError {
                    code: ErrorCode::InvalidParameter,
                    message: format!("too many open eval sessions (max {MAX_EVAL_SESSIONS})"),
                });
            }
            let (collection, generation) = state.pinned();
            let store: Arc<RicStore> = match pivot {
                None => collection,
                Some(u) => {
                    protocol::node_in_range("pivot", u.raw(), state.instance().node_count())?;
                    Arc::new(bt::reduce_for_pivot(&*collection, u))
                }
            };
            let appearance: Vec<u64> = store
                .node_appearance_counts()
                .into_iter()
                .map(|c| c as u64)
                .collect();
            let communities: Vec<u64> = store
                .community_frequencies()
                .into_iter()
                .map(|c| c as u64)
                .collect();
            let samples = store.len();
            let id = sessions.next_id;
            sessions.next_id += 1;
            sessions.sessions.insert(
                id,
                EvalSession {
                    state: CoverageState::new(store),
                    generation,
                },
            );
            state.metrics().record(OpKind::Eval, start.elapsed(), 0);
            let body = ObjectBuilder::new()
                .field("session", id)
                .field("samples", samples)
                .field("generation", generation)
                .field("appearance", appearance)
                .field("communities", communities)
                .field("elapsed_us", elapsed_us(start));
            (protocol::ok_response("eval_begin", body), false)
        }
        Request::EvalBatch {
            session,
            kind,
            nodes,
        } => {
            let sess = sessions
                .sessions
                .get(&session)
                .ok_or_else(|| unknown_session(session))?;
            let node_count = sess.state.collection().node_count();
            // No engine batch repeats a node, so a longer list is not a
            // solve: refuse it before it buys unbounded work with one line.
            if nodes.len() > node_count {
                return Err(RequestError {
                    code: ErrorCode::InvalidParameter,
                    message: format!(
                        "`nodes` lists {} nodes but the graph has {node_count}",
                        nodes.len()
                    ),
                });
            }
            for &v in &nodes {
                protocol::node_in_range("node", v, node_count)?;
            }
            let scanned = nodes.len() as u64;
            let body = match kind {
                EvalKind::C => {
                    let mut gains = Vec::new();
                    sess.state.eval_c_shard(&nodes, &mut gains);
                    ObjectBuilder::new().field("gains", gains)
                }
                EvalKind::Nu => {
                    let mut accs = Vec::new();
                    sess.state.eval_nu_shard(&nodes, &mut accs);
                    ObjectBuilder::new().field("accs", accs)
                }
            };
            state
                .metrics()
                .record(OpKind::Eval, start.elapsed(), scanned);
            (
                protocol::ok_response("eval_batch", body.field("elapsed_us", elapsed_us(start))),
                false,
            )
        }
        Request::EvalSeed { session, node } => {
            let sess = sessions
                .sessions
                .get_mut(&session)
                .ok_or_else(|| unknown_session(session))?;
            protocol::node_in_range("node", node.raw(), sess.state.collection().node_count())?;
            sess.state.add_seed(node);
            state.metrics().record(OpKind::Eval, start.elapsed(), 0);
            let body = ObjectBuilder::new()
                .field("seeds", sess.state.seeds().len())
                .field("elapsed_us", elapsed_us(start));
            (protocol::ok_response("eval_seed", body), false)
        }
        Request::EvalEnd { session } => {
            let sess = sessions
                .sessions
                .remove(&session)
                .ok_or_else(|| unknown_session(session))?;
            state.metrics().record(OpKind::Eval, start.elapsed(), 0);
            let body = ObjectBuilder::new()
                .field("generation", sess.generation)
                .field("elapsed_us", elapsed_us(start));
            (protocol::ok_response("eval_end", body), false)
        }
        Request::ShardEval { seeds, pivot } => {
            let (collection, generation) = state.pinned();
            let node_count = collection.node_count();
            if let Some(u) = pivot {
                protocol::node_in_range("pivot", u.raw(), node_count)?;
            }
            // Out-of-range seeds are skipped, not rejected (as in
            // RicStore::influenced_count), so a coordinator padding from
            // a wider node space still gets coherent partial sums. Every
            // field is an integer: summed over the partitions, in any
            // order, they are the whole store's (see DESIGN.md §8).
            let score = Score::of(&*collection, &seeds);
            let mut body = ObjectBuilder::new()
                .field("influenced", score.influenced)
                .field("nu_acc", score.nu_acc)
                .field("samples", score.samples)
                .field("generation", generation);
            if let Some(u) = pivot {
                body = body.field(
                    "pivot_score",
                    bt::pivot_score(&*collection, u, &seeds) as u64,
                );
            }
            state
                .metrics()
                .record(OpKind::Eval, start.elapsed(), collection.len() as u64);
            (
                protocol::ok_response("shard_eval", body.field("elapsed_us", elapsed_us(start))),
                false,
            )
        }
        Request::Stats => {
            let (collection, generation) = state.pinned();
            let m = state.metrics().snapshot();
            let cs = collection.stats();
            state.metrics().record(OpKind::Info, start.elapsed(), 0);
            let metrics_obj = ObjectBuilder::new()
                .field("solve_requests", m.solve_requests)
                .field("estimate_requests", m.estimate_requests)
                .field("eval_requests", m.eval_requests)
                .field("info_requests", m.info_requests)
                .field("error_requests", m.error_requests)
                .field("deadline_misses", m.deadline_misses)
                .field("samples_served", m.samples_served)
                .field("p50_latency_us", m.p50_latency_us)
                .field("p99_latency_us", m.p99_latency_us)
                .build();
            let collection_obj = ObjectBuilder::new()
                .field("samples", cs.samples)
                .field("total_index_entries", cs.total_index_entries)
                .field("mean_sample_size", cs.mean_sample_size)
                .field("max_sample_size", cs.max_sample_size)
                .field("touched_nodes", cs.touched_nodes)
                .build();
            let body = ObjectBuilder::new()
                .field("metrics", metrics_obj)
                .field("collection", collection_obj)
                .field("generation", generation)
                .field("fingerprint", format!("{:016x}", state.fingerprint()))
                .field("node_count", state.instance().node_count())
                .field("community_count", state.instance().community_count());
            (protocol::ok_response("stats", body), false)
        }
        Request::Metrics => {
            let body = prometheus_exposition(state);
            state.metrics().record(OpKind::Info, start.elapsed(), 0);
            let fields = ObjectBuilder::new()
                .field("format", "prometheus-0.0.4")
                .field("body", body);
            (protocol::ok_response("metrics", fields), false)
        }
        Request::Health => {
            let (collection, generation) = state.pinned();
            state.metrics().record(OpKind::Info, start.elapsed(), 0);
            let body = ObjectBuilder::new()
                .field("status", "ok")
                .field("samples", collection.len())
                .field("generation", generation);
            (protocol::ok_response("health", body), false)
        }
        Request::Ping => {
            // The health-probe fast path: no collection pin, no session
            // access — just proof the worker loop is alive, plus the
            // generation so a prober can watch refreshes land.
            //
            // `srv_recv_us`/`srv_send_us` are this server's wall clock at
            // request receipt and response construction: the t1/t2 of an
            // NTP-style exchange, letting a coordinator estimate this
            // shard's clock offset as ((t1-t0)+(t2-t3))/2 from its own
            // send/receive times (see imc-cluster's clock alignment).
            state.metrics().record(OpKind::Info, start.elapsed(), 0);
            let srv_send_us = imc_obs::trace::now_us();
            let srv_recv_us = srv_send_us.saturating_sub(elapsed_us(start));
            let body = ObjectBuilder::new()
                .field("status", "ok")
                .field("generation", state.generation())
                .field("srv_recv_us", srv_recv_us)
                .field("srv_send_us", srv_send_us)
                .field("elapsed_us", elapsed_us(start));
            (protocol::ok_response("ping", body), false)
        }
        Request::Shutdown => {
            state.metrics().record(OpKind::Info, start.elapsed(), 0);
            (
                protocol::ok_response("shutdown", ObjectBuilder::new()),
                true,
            )
        }
    })
}

/// The refusal of an `eval_*` request naming a session this connection
/// does not hold.
fn unknown_session(session: u64) -> RequestError {
    RequestError {
        code: ErrorCode::InvalidParameter,
        message: format!("unknown eval session {session}"),
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::tests::tiny_state;
    use imc_graph::NodeId;

    #[test]
    fn dispatch_solve_estimate_stats_health() {
        let state = tiny_state(200);
        let (resp, stop) = dispatch(&state, r#"{"op":"solve","k":2,"algo":"maf"}"#, 4);
        assert!(!stop);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("seeds").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("samples").unwrap().as_u64(), Some(200));

        let (resp, _) = dispatch(&state, r#"{"op":"estimate","seeds":[0]}"#, 4);
        let v = json::parse(&resp).unwrap();
        assert!(v.get("estimate").unwrap().as_f64().unwrap() >= 0.0);
        assert!(
            v.get("nu_estimate").unwrap().as_f64().unwrap()
                >= v.get("estimate").unwrap().as_f64().unwrap() - 1e-12
        );

        let (resp, _) = dispatch(&state, r#"{"op":"stats"}"#, 4);
        let v = json::parse(&resp).unwrap();
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("solve_requests").unwrap().as_u64(), Some(1));
        assert_eq!(m.get("estimate_requests").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("node_count").unwrap().as_u64(), Some(6));

        let (resp, _) = dispatch(&state, r#"{"op":"health"}"#, 4);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    }

    #[test]
    fn dispatch_shutdown_flags_stop() {
        let state = tiny_state(10);
        let (resp, stop) = dispatch(&state, r#"{"op":"shutdown"}"#, 4);
        assert!(stop);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn dispatch_errors_count_and_report() {
        let state = tiny_state(10);
        let (resp, _) = dispatch(&state, r#"{"op":"solve","k":0}"#, 4);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("invalid_budget")
        );
        let (resp, _) = dispatch(&state, r#"{"op":"estimate","seeds":[999]}"#, 4);
        let v = json::parse(&resp).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("out_of_range"));
        assert!(err
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("out of range"));
        let (resp, _) = dispatch(&state, "garbage", 4);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(state.metrics().snapshot().error_requests, 3);
    }

    #[test]
    fn solve_on_snapshot_is_deterministic() {
        let state = tiny_state(300);
        let line = r#"{"op":"solve","k":2,"algo":"ubg","seed":5}"#;
        let (first, _) = dispatch(&state, line, 4);
        for _ in 0..3 {
            let (again, _) = dispatch(&state, line, 4);
            // Identical except elapsed_us; compare the seeds field.
            let a = json::parse(&first).unwrap();
            let b = json::parse(&again).unwrap();
            assert_eq!(a.get("seeds"), b.get("seeds"));
            assert_eq!(a.get("estimate"), b.get("estimate"));
        }
    }

    /// The daemon's `framework: imcaf` op is `imc_core::imcaf` on the
    /// served instance: same seeds, estimate, sample count and rounds as
    /// a direct call for the same request, whatever the served collection
    /// holds and whatever `threads` asks for (every IMCAF draw comes from
    /// the run's own seeded plan).
    #[test]
    fn imcaf_solve_is_the_direct_call() {
        let state = tiny_state(50);
        let config = ImcafConfig {
            k: 2,
            epsilon: 0.3,
            delta: 0.3,
            max_samples: 20_000,
            strategy: SolveStrategy::with_threads(1),
        };
        let direct = imcaf(state.instance(), imc_core::MaxrAlgorithm::Ubg, &config, 9).unwrap();
        for knobs in ["", r#","threads":3"#] {
            let line = format!(
                r#"{{"op":"solve","k":2,"algo":"ubg","seed":9,"framework":"imcaf","epsilon":0.3,"delta":0.3,"max_samples":20000{knobs}}}"#
            );
            let (resp, _) = dispatch(&state, &line, 4);
            let v = json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
            let seeds: Vec<u64> = v
                .get("seeds")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|s| s.as_u64().unwrap())
                .collect();
            let expected: Vec<u64> = direct.seeds.iter().map(|s| u64::from(s.raw())).collect();
            assert_eq!(seeds, expected, "{line}");
            assert_eq!(v.get("estimate").unwrap().as_f64(), Some(direct.estimate));
            assert_eq!(
                v.get("samples").unwrap().as_u64(),
                Some(direct.samples_used as u64)
            );
            assert_eq!(
                v.get("rounds").unwrap().as_u64(),
                Some(direct.rounds as u64)
            );
        }
    }

    #[test]
    fn threads_knob_is_clamped_and_echoed() {
        let state = tiny_state(300);
        let solve = |line: &str, cap: usize| {
            let (resp, _) = dispatch(&state, line, cap);
            let v = json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
            v
        };
        let plain = solve(r#"{"op":"solve","k":2}"#, 2);
        assert_eq!(plain.get("threads").unwrap().as_u64(), Some(1));
        assert!(plain.get("evaluations").unwrap().as_u64().unwrap() > 0);
        for (line, cap, threads) in [
            (r#"{"op":"solve","k":2,"v":2,"threads":64}"#, 2, 2),
            (r#"{"op":"solve","k":2,"threads":4}"#, 8, 4),
            (r#"{"op":"solve","k":2,"threads":0}"#, 8, 1),
            (r#"{"op":"solve","k":2,"threads":3}"#, 0, 1),
        ] {
            let v = solve(line, cap);
            assert_eq!(v.get("threads").unwrap().as_u64(), Some(threads), "{line}");
            // The answer is the single-threaded one bit for bit.
            for field in ["seeds", "estimate", "evaluations"] {
                assert_eq!(v.get(field), plain.get(field), "{field} of {line}");
            }
        }
    }

    /// A stale client's `mode` — or a hostile value there — changes
    /// nothing about a solve and is echoed nowhere.
    #[test]
    fn the_removed_mode_field_changes_no_solve() {
        let state = tiny_state(300);
        let (plain, _) = dispatch(&state, r#"{"op":"solve","k":2}"#, 4);
        let plain = json::parse(&plain).unwrap();
        for mode in [
            r#""sequential""#,
            r#""lazy""#,
            r#""parallel""#,
            r#""warp""#,
            "7",
        ] {
            let line = format!(r#"{{"op":"solve","k":2,"mode":{mode}}}"#);
            let (resp, _) = dispatch(&state, &line, 4);
            let v = json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
            for field in ["seeds", "estimate", "evaluations", "threads"] {
                assert_eq!(v.get(field), plain.get(field), "{field} of {line}");
            }
            assert!(v.get("mode").is_none(), "{resp}");
        }
    }

    /// The `estimate` op answers from one coverage pass; its three fields
    /// are the three `RicStore` estimators bit for bit, and `Score::of`
    /// over a view of the same samples.
    #[test]
    fn estimate_reply_is_one_score_equal_to_the_three_store_methods() {
        let state = tiny_state(200);
        let store = state.collection();
        let fingerprint = state.fingerprint();
        let bytes = imc_core::snapshot::SnapshotBytes::copy_from(&imc_core::snapshot::encode(
            &*store,
            fingerprint,
            0,
        ));
        let view = bytes.view().unwrap();
        for seeds in [vec![], vec![0u32], vec![1, 4], vec![5, 2, 2, 0]] {
            let line = format!(r#"{{"op":"estimate","seeds":{seeds:?}}}"#);
            let (resp, _) = dispatch(&state, &line, 4);
            let v = json::parse(&resp).unwrap();
            let ids: Vec<NodeId> = seeds.iter().map(|&s| NodeId::new(s)).collect();
            let bits = |name: &str| v.get(name).unwrap().as_f64().unwrap().to_bits();
            assert_eq!(bits("estimate"), store.estimate(&ids).to_bits(), "{line}");
            assert_eq!(
                bits("nu_estimate"),
                store.nu_estimate(&ids).to_bits(),
                "{line}"
            );
            let influenced = v.get("influenced_samples").unwrap().as_u64();
            assert_eq!(influenced, Some(store.influenced_count(&ids) as u64));
            let score = Score::of(&view, &ids);
            let b = store.total_benefit();
            assert_eq!(bits("estimate"), score.estimate(b).to_bits());
            assert_eq!(bits("nu_estimate"), score.nu_estimate(b).to_bits());
            assert_eq!(influenced, Some(score.influenced as u64));
        }
    }

    #[test]
    fn eval_session_round_trip_matches_local_coverage_state() {
        let state = tiny_state(150);
        let mut sessions = SessionStore::default();
        let mut run = |line: &str| {
            let (resp, stop) = dispatch_with(&state, line, 4, None, &mut sessions);
            assert!(!stop);
            json::parse(&resp).unwrap()
        };
        let begin = run(r#"{"op":"eval_begin"}"#);
        assert_eq!(begin.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(begin.get("samples").unwrap().as_u64(), Some(150));
        let session = begin.get("session").unwrap().as_u64().unwrap();

        // Local reference over the same pinned store.
        let store = state.collection();
        let mut reference = CoverageState::new(Arc::clone(&store));
        let appearance: Vec<u64> = begin
            .get("appearance")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        let local_appearance: Vec<u64> = store
            .node_appearance_counts()
            .into_iter()
            .map(|c| c as u64)
            .collect();
        assert_eq!(appearance, local_appearance);

        for seed in [1u32, 4] {
            let c = run(&format!(
                r#"{{"op":"eval_batch","session":{session},"kind":"c","nodes":[0,1,2,3,4,5]}}"#
            ));
            let gains: Vec<u64> = c
                .get("gains")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_u64().unwrap())
                .collect();
            assert!(c.get("potentials").is_none());
            let nu = run(&format!(
                r#"{{"op":"eval_batch","session":{session},"kind":"nu","nodes":[0,1,2,3,4,5]}}"#
            ));
            let accs: Vec<u64> = nu
                .get("accs")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_u64().unwrap())
                .collect();
            for v in 0..6u32 {
                let g = reference.marginal_influenced(NodeId::new(v));
                assert_eq!(gains[v as usize], g as u64, "gain for {v}");
                let want = reference.marginal_fraction(NodeId::new(v));
                assert_eq!(accs[v as usize], want, "nu acc for {v}");
            }
            let s = run(&format!(
                r#"{{"op":"eval_seed","session":{session},"node":{seed}}}"#
            ));
            assert_eq!(s.get("ok").unwrap().as_bool(), Some(true));
            reference.add_seed(NodeId::new(seed));
        }
        let end = run(&format!(r#"{{"op":"eval_end","session":{session}}}"#));
        assert_eq!(end.get("ok").unwrap().as_bool(), Some(true));
        // The session is gone now.
        let gone = run(&format!(
            r#"{{"op":"eval_batch","session":{session},"kind":"c","nodes":[0]}}"#
        ));
        assert_eq!(gone.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            gone.get("error").unwrap().get("code").unwrap().as_str(),
            Some("invalid_parameter")
        );
    }

    /// `shard_eval` over each part of any split of the store, summed in
    /// any order, is the whole store's estimators — no carry, no order.
    #[test]
    fn shard_eval_partials_of_any_split_sum_to_the_store_estimators() {
        let whole = tiny_state(120);
        let store = whole.collection();
        let seeds = [NodeId::new(1), NodeId::new(4)];
        let shard_eval = |state: &ServiceState, line: &str| {
            let (resp, _) = dispatch(state, line, 4);
            let v = json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
            let field = |name: &str| v.get(name).unwrap().as_u64().unwrap();
            (
                Score {
                    influenced: field("influenced") as usize,
                    nu_acc: field("nu_acc"),
                    samples: field("samples") as usize,
                },
                v.get("pivot_score").and_then(json::Value::as_u64),
            )
        };
        let line = r#"{"op":"shard_eval","seeds":[1,4],"pivot":1}"#;
        let (score, pivot_score) = shard_eval(&whole, line);
        assert_eq!(score, Score::of(&*store, &seeds));
        assert_eq!(score.influenced, store.influenced_count(&seeds));
        assert_eq!(
            score.nu_estimate(store.total_benefit()),
            store.nu_estimate(&seeds)
        );
        assert_eq!(
            pivot_score,
            Some(imc_core::maxr::bt::pivot_score(&*store, NodeId::new(1), &seeds) as u64)
        );
        // Out-of-range seeds are skipped like RicStore::influenced_count.
        let (padded, _) = shard_eval(&whole, r#"{"op":"shard_eval","seeds":[1,4,999]}"#);
        assert_eq!(padded, score);

        let samples: Vec<_> = store.iter().map(|v| v.to_sample()).collect();
        for cut in [0, 1, 47, 120] {
            let parts = [&samples[cut..], &samples[..cut]].map(|part| {
                let part = RicStore::from_samples(6, 2, store.total_benefit(), part).unwrap();
                crate::tests::state_over(part)
            });
            let mut sum = Score::default();
            let mut pivot_sum = 0;
            for part in &parts {
                let (score, pivot_score) = shard_eval(part, line);
                sum.add(score);
                pivot_sum += pivot_score.unwrap();
            }
            assert_eq!(sum, score, "cut at {cut}");
            assert_eq!(Some(pivot_sum), pivot_score, "cut at {cut}");
        }
    }

    /// A v2 coordinator's `carry` is refused by name, not ignored — and
    /// neither the worker nor the session is the worse for it.
    #[test]
    fn carry_is_refused_and_the_session_survives() {
        let state = tiny_state(60);
        let mut sessions = SessionStore::default();
        let mut run = |line: &str| {
            let (resp, stop) = dispatch_with(&state, line, 4, None, &mut sessions);
            assert!(!stop);
            json::parse(&resp).unwrap()
        };
        let session = run(r#"{"op":"eval_begin","v":3}"#)
            .get("session")
            .unwrap()
            .as_u64()
            .unwrap();
        for line in [
            format!(
                r#"{{"op":"eval_batch","session":{session},"kind":"nu","nodes":[0,1],"carry":[0.0,0.5]}}"#
            ),
            r#"{"op":"shard_eval","seeds":[1],"carry":0.0}"#.to_string(),
        ] {
            let refused = run(&line);
            let err = refused.get("error").unwrap();
            assert_eq!(err.get("code").unwrap().as_str(), Some("invalid_parameter"));
            let message = err.get("message").unwrap().as_str().unwrap();
            assert!(message.contains("`carry` was removed"), "{message}");
        }
        let again = run(&format!(
            r#"{{"op":"eval_batch","session":{session},"kind":"nu","nodes":[0,1]}}"#
        ));
        assert_eq!(again.get("accs").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn eval_begin_with_pivot_serves_the_reduced_store() {
        let state = tiny_state(100);
        let mut sessions = SessionStore::default();
        let (resp, _) = dispatch_with(
            &state,
            r#"{"op":"eval_begin","pivot":1}"#,
            4,
            None,
            &mut sessions,
        );
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let reduced = bt::reduce_for_pivot(&*state.collection(), NodeId::new(1));
        assert_eq!(
            v.get("samples").unwrap().as_u64(),
            Some(reduced.len() as u64)
        );
        // Pivot out of range is refused.
        let (resp, _) = dispatch_with(
            &state,
            r#"{"op":"eval_begin","pivot":77}"#,
            4,
            None,
            &mut sessions,
        );
        let v = json::parse(&resp).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("out_of_range")
        );
    }

    #[test]
    fn eval_sessions_are_capped_per_connection() {
        let state = tiny_state(10);
        let mut sessions = SessionStore::default();
        for _ in 0..MAX_EVAL_SESSIONS {
            let (resp, _) = dispatch_with(&state, r#"{"op":"eval_begin"}"#, 4, None, &mut sessions);
            assert_eq!(
                json::parse(&resp).unwrap().get("ok").unwrap().as_bool(),
                Some(true)
            );
        }
        let (resp, _) = dispatch_with(&state, r#"{"op":"eval_begin"}"#, 4, None, &mut sessions);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("invalid_parameter")
        );
    }

    #[test]
    fn shutdown_signal_wakes_waiters() {
        let s = Arc::new(Shutdown::new());
        assert!(!s.is_requested());
        assert!(!s.wait_timeout(Duration::from_millis(5)));
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.wait());
        std::thread::sleep(Duration::from_millis(10));
        s.request();
        waiter.join().unwrap();
        assert!(s.is_requested());
        assert!(s.wait_timeout(Duration::from_secs(60))); // returns at once
    }
}
