//! The scatter-gather coordinator: runs the five MAXR solvers over a
//! fleet of shard daemons and serves the result on the same wire format a
//! single daemon speaks.
//!
//! The solvers here *are* the single-node ones: [`cluster_solve`] hands
//! [`MaxrAlgorithm::solve_over`] a [`SolveBackend`] whose gain sessions
//! are [`ClusterSource`]s and whose whole-set scores are summed
//! `shard_eval` fans, so each algorithm body, tie-break, padding rule and
//! evaluation count is the code [`MaxrAlgorithm::solve`] runs. Seed sets
//! and evaluation counts are bitwise/count identical to it on the union
//! collection because the backend's answers are (asserted by
//! `tests/cluster_equivalence.rs` and the CI cluster smoke job).
//!
//! Shard failures are survived, not fatal. Transient transport errors
//! are retried under the configured [`RetryPolicy`] (backoff jitter
//! derived from the request seed, so the schedule is reproducible).
//! When a shard stays down past the retry budget *and* fails a
//! confirmation `ping` probe, the coordinator marks it dead on the
//! shared [`HealthBoard`], reruns the request over the surviving shards,
//! and flags the answer `approximate: true` with
//! `effective_samples` / `lost_shards` fields. A recovered shard
//! rejoins at the next request, never mid-solve. Only when no shard
//! survives (or degraded mode is disabled) does the client see a
//! `shard_unavailable` error naming the dead shard.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use imc_core::maxr::engine::greedy_over;
use imc_core::maxr::{Objective, Score, SolveBackend, UnionStats};
use imc_core::{GreedyRun, ImcError, ImcInstance, MaxrAlgorithm, SolveReport, SolveRequest};
use imc_graph::NodeId;
use imc_obs::families;
use imc_obs::json::{self, ObjectBuilder, Value};
use imc_service::client::{ClientConfig, ClusterError, PeerClient, RetryPolicy};
use imc_service::protocol::{self, ErrorCode, LineRead, Request, RequestError};
use imc_service::server::Shutdown;

use crate::health::{self, HealthBoard, HealthMonitor, ShardState};
use crate::source::{field_u64, ClusterSource};

/// A failure of a cluster solve.
#[derive(Debug)]
pub enum CoordError {
    /// A shard RPC failed; the inner error names the shard address.
    Shard(ClusterError),
    /// The solver itself rejected the request (bad budget, thresholds
    /// over the BT bound, …) — same failures a single node reports.
    Solver(ImcError),
    /// The request asks for something the distributed path does not
    /// implement (BT depth > 2).
    Unsupported(String),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Shard(e) => write!(f, "{e}"),
            CoordError::Solver(e) => write!(f, "{e}"),
            CoordError::Unsupported(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CoordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoordError::Shard(e) => Some(e),
            CoordError::Solver(e) => Some(e),
            CoordError::Unsupported(_) => None,
        }
    }
}

impl From<ClusterError> for CoordError {
    fn from(e: ClusterError) -> Self {
        CoordError::Shard(e)
    }
}

impl From<ImcError> for CoordError {
    fn from(e: ImcError) -> Self {
        CoordError::Solver(e)
    }
}

impl From<CoordError> for RequestError {
    fn from(e: CoordError) -> Self {
        RequestError {
            code: e.error_code(),
            message: e.to_string(),
        }
    }
}

impl CoordError {
    /// The wire error code this failure maps to.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            CoordError::Shard(_) => ErrorCode::ShardUnavailable,
            CoordError::Solver(e) => protocol::error_code_for(e),
            CoordError::Unsupported(_) => ErrorCode::InvalidParameter,
        }
    }
}

/// Result of a distributed solve: the single-node report plus the
/// cluster snapshot coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Seeds, estimator, evaluation count and extras — identical to the
    /// single-node solve over the union collection.
    pub solve: SolveReport,
    /// Total samples across all shards.
    pub samples: u64,
    /// The shard collection generation the solve ran against.
    pub generation: u64,
}

/// Summed totals of one `shard_eval` fan across all shards.
struct ShardTotals {
    score: Score,
    generation: u64,
    pivot_score: usize,
}

/// Scores a seed set across every shard: the request goes out to all of
/// them before the first reply is read, so the shards score concurrently
/// and the fan costs the slowest shard, not their sum. Every reply is read
/// even when an earlier shard failed — a kept connection must not be left
/// holding an unread one. Every total — the Q32 ν_R numerator included —
/// is an integer sum over the shards' disjoint partitions, so it equals
/// the single-node value in any shard order.
fn shard_eval_totals(
    peers: &mut [PeerClient],
    seeds: &[NodeId],
    pivot: Option<NodeId>,
) -> Result<ShardTotals, ClusterError> {
    let seeds_field: Vec<u64> = seeds.iter().map(|s| u64::from(s.raw())).collect();
    let mut totals = ShardTotals {
        score: Score::default(),
        generation: 0,
        pivot_score: 0,
    };
    families::CLUSTER_SCATTER.handle().inc();
    // Stamped so a v2 shard, whose `nu_acc` is an `f64` fold that must not
    // be summed, refuses instead of answering.
    let mut req = ObjectBuilder::new()
        .field("op", "shard_eval")
        .field("v", protocol::PROTOCOL_VERSION)
        .field("seeds", seeds_field);
    if let Some(u) = pivot {
        req = req.field("pivot", u.raw());
    }
    let line = json::to_string(&req.build());
    // One `rpc_client` span and one latency observation per shard, from
    // its send to the moment its reply was read; the spans are parked so
    // they are siblings under the caller's span, not a chain.
    let in_flight: Vec<_> = peers
        .iter_mut()
        .map(|peer| {
            let addr = peer.addr().to_string();
            let mut rpc = imc_obs::Span::enter_with("rpc_client", format!("shard_eval {addr}"));
            let start = Instant::now();
            let sent = peer.send(&line);
            rpc.park();
            (rpc, addr, start, sent)
        })
        .collect();
    let replies: Vec<_> = peers
        .iter_mut()
        .zip(in_flight)
        .map(|(peer, (rpc, addr, start, sent))| {
            let reply = peer.finish_stateless(&line, sent);
            let secs = start.elapsed().as_secs_f64();
            drop(rpc);
            families::CLUSTER_SHARD_RPC_DURATION.handle().observe(secs);
            families::CLUSTER_RPC_DURATION
                .with(["shard_eval", &addr])
                .observe(secs);
            if reply.is_err() {
                families::CLUSTER_SHARD_ERRORS.handle().inc();
            }
            reply
        })
        .collect();
    for (i, (peer, reply)) in peers.iter().zip(replies).enumerate() {
        let resp = reply?;
        totals.score.add(Score {
            influenced: field_u64(&resp, "influenced", peer)? as usize,
            nu_acc: field_u64(&resp, "nu_acc", peer)?,
            samples: field_u64(&resp, "samples", peer)? as usize,
        });
        if pivot.is_some() {
            totals.pivot_score += field_u64(&resp, "pivot_score", peer)? as usize;
        }
        let generation = field_u64(&resp, "generation", peer)?;
        if i == 0 {
            totals.generation = generation;
        } else if generation != totals.generation {
            return Err(ClusterError::Protocol {
                addr: peer.addr(),
                detail: format!(
                    "generation {generation} disagrees with shard 0's {}",
                    totals.generation
                ),
            });
        }
    }
    Ok(totals)
}

/// The shard fleet as a [`SolveBackend`]: sessions are [`ClusterSource`]s
/// (one `eval_begin` … `eval_end` per shard), whole-set and pivot scores
/// are `shard_eval` fans, and pivots run one after another.
struct ClusterBackend<'a> {
    peers: &'a mut [PeerClient],
    /// Generation reported by the latest `score` fan.
    generation: u64,
}

impl ClusterBackend<'_> {
    /// One full engine greedy over a fresh (pivot-reduced) cluster session;
    /// fails if any shard dropped mid-run (the engine itself has no error
    /// channel).
    fn greedy_session(
        &mut self,
        pivot: Option<NodeId>,
        objective: Objective,
        k: usize,
    ) -> Result<GreedyRun, CoordError> {
        let mut src = ClusterSource::open(self.peers, pivot.map(NodeId::raw))?;
        let (run, telemetry) = greedy_over(&mut src, objective, k);
        let failure = src.take_error();
        src.close();
        if let Some(e) = failure {
            return Err(CoordError::Shard(e));
        }
        telemetry.publish();
        Ok(run)
    }
}

impl SolveBackend for ClusterBackend<'_> {
    type Error = CoordError;

    fn stats(&mut self) -> Result<UnionStats, CoordError> {
        // Snapshot, then close: no full-store session stays open across
        // BT's pivot loop.
        let mut src = ClusterSource::open(self.peers, None)?;
        let as_usize = |counts: &[u64]| counts.iter().map(|&c| c as usize).collect();
        let stats = UnionStats {
            appearance: as_usize(src.appearance()),
            community_frequencies: as_usize(src.community_frequencies()),
        };
        src.close();
        Ok(stats)
    }

    fn greedy(&mut self, objective: Objective, k: usize) -> Result<GreedyRun, CoordError> {
        self.greedy_session(None, objective, k)
    }

    fn score(&mut self, seeds: &[NodeId]) -> Result<Score, CoordError> {
        let totals = shard_eval_totals(self.peers, seeds, None)?;
        self.generation = totals.generation;
        Ok(totals.score)
    }

    /// Depth is 2 here (see [`cluster_solve`]), so the helpers are always
    /// the greedy over the pivot-reduced session.
    fn helpers(&mut self, pivot: NodeId, k: usize, _depth: u32) -> Result<GreedyRun, CoordError> {
        self.greedy_session(Some(pivot), Objective::C, k)
    }

    fn pivot_score(&mut self, pivot: NodeId, kset: &[NodeId]) -> Result<usize, CoordError> {
        Ok(shard_eval_totals(self.peers, kset, Some(pivot))?.pivot_score)
    }

    fn map_pivots<T, F>(
        &mut self,
        pivots: &[NodeId],
        _threads: usize,
        f: F,
    ) -> Result<Vec<T>, CoordError>
    where
        F: Fn(&mut Self, NodeId) -> Result<T, CoordError>,
    {
        pivots.iter().map(|&u| f(self, u)).collect()
    }
}

/// Solves MAXR across the shard fleet behind `peers`.
///
/// This is [`MaxrAlgorithm::solve_over`] over the fleet, so the answer —
/// seeds, estimator, evaluation count, extras — is identical to
/// [`MaxrAlgorithm::solve`] with the same request over the union of the
/// shard collections (`req.threads` is unused: pivots run one after
/// another here). The distributed path has one restriction,
/// stated here and nowhere else: BT runs at depth 2 only — a pivot-reduced
/// remote session cannot be reduced again, which BT^(d)'s recursion needs.
///
/// # Errors
///
/// [`CoordError::Shard`] when a shard dies mid-solve (the error names
/// it), [`CoordError::Solver`] for the same validation failures a local
/// solve reports, [`CoordError::Unsupported`] for the restriction
/// above.
pub fn cluster_solve(
    instance: &ImcInstance,
    peers: &mut [PeerClient],
    algo: MaxrAlgorithm,
    req: &SolveRequest,
) -> Result<ClusterReport, CoordError> {
    let depth = algo.bt_depth(req);
    if matches!(algo, MaxrAlgorithm::Bt | MaxrAlgorithm::Btd(_)) && depth > 2 {
        return Err(CoordError::Unsupported(format!(
            "BT depth {depth} is not supported by the cluster coordinator (only depth 2)"
        )));
    }
    let mut backend = ClusterBackend {
        peers,
        generation: 0,
    };
    let (solve, score) = algo.solve_over(instance, &mut backend, req)?;
    Ok(ClusterReport {
        solve,
        samples: score.samples as u64,
        generation: backend.generation,
    })
}

/// Coordinator frontend configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address for the coordinator's own listener; port 0 picks an
    /// ephemeral port.
    pub addr: String,
    /// Shard daemon addresses. Every reduction is an integer sum, so the
    /// order changes no answer; it is the order `lost_shards` and the
    /// health report list them in.
    pub shards: Vec<SocketAddr>,
    /// Timeouts for shard connections.
    pub client: ClientConfig,
    /// Retry schedule for stateless shard requests and for the
    /// probe-before-declaring-dead ladder after a session failure.
    pub retry: RetryPolicy,
    /// Cap on one health-probe (`ping`) round-trip.
    pub probe_timeout: Duration,
    /// Period of the background health prober; `None` disables it
    /// (shards are still probed on demand when requests fail).
    pub probe_interval: Option<Duration>,
    /// When `true` (the default), a solve survives a dead shard by
    /// rerunning over the survivors and flagging the answer
    /// `approximate`. When `false`, a dead shard fails the request with
    /// `shard_unavailable`, as before.
    pub degrade: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            client: ClientConfig::default(),
            retry: RetryPolicy::default(),
            probe_timeout: Duration::from_millis(500),
            probe_interval: None,
            degrade: true,
        }
    }
}

/// Consecutive probe/RPC failures that move a shard Suspect → Dead on
/// the background prober's account. On-demand (mid-solve) declarations
/// go through [`HealthBoard::mark_dead`] directly once the retry budget
/// and a confirmation probe are both exhausted.
const DEAD_THRESHOLD: u32 = 2;

/// A successful request outcome plus its degradation coordinates.
struct Outcome<T> {
    value: T,
    /// Shards declared dead during this request, in topology order.
    lost: Vec<SocketAddr>,
    /// Shards that participated in the successful run.
    participating: usize,
}

/// Runs `op` over the currently-usable shard subset, retrying and
/// degrading per the config. `kept` is the client connection's one
/// [`PeerClient`] per shard; `op` is lent those of the usable shards, in
/// topology order, with whatever shard connections earlier requests left
/// open. The orchestration invariant: a failed run's peers are
/// disconnected and it is rerun **from scratch** — never patched
/// mid-flight — so the surviving-set answer equals a fresh solve
/// configured with exactly those shards.
fn run_resilient<T>(
    config: &CoordinatorConfig,
    board: &HealthBoard,
    kept: &mut [PeerClient],
    seed: u64,
    mut op: impl FnMut(&mut [PeerClient]) -> Result<T, CoordError>,
) -> Result<Outcome<T>, CoordError> {
    // Rejoin phase: fold Recovered shards back in, and give Dead shards
    // one probe's chance to rejoin — always between requests, never
    // mid-solve.
    let mut alive: Vec<SocketAddr> = Vec::with_capacity(board.shards().len());
    let mut lost: Vec<SocketAddr> = Vec::new();
    for &addr in board.shards() {
        match board.state(addr) {
            ShardState::Recovered => {
                board.record_rejoin(addr);
                alive.push(addr);
            }
            ShardState::Dead => {
                if health::probe(addr, config.probe_timeout) {
                    board.record_ok(addr);
                    board.record_rejoin(addr);
                    alive.push(addr);
                } else {
                    lost.push(addr);
                }
            }
            ShardState::Healthy | ShardState::Suspect => alive.push(addr),
        }
    }

    // A flapping shard (probe answers, requests fail) gets at most the
    // retry budget's worth of full reruns before it is declared dead
    // anyway; each other failure permanently shrinks `alive`, so the
    // loop terminates.
    let mut revives_left = config.retry.attempts;
    loop {
        if alive.is_empty() {
            return Err(CoordError::Shard(ClusterError::Connect {
                addr: lost
                    .last()
                    .copied()
                    .unwrap_or_else(|| "0.0.0.0:0".parse().expect("static addr")),
                source: std::io::Error::new(
                    std::io::ErrorKind::NotConnected,
                    "no shard in the topology is reachable",
                ),
            }));
        }
        // `alive` is in topology order, so this puts the usable shards'
        // peers first, in that order, and the lost ones' behind them.
        kept.sort_by_key(|peer| {
            let rank = alive.iter().position(|&a| a == peer.addr());
            rank.unwrap_or(usize::MAX)
        });
        let peers = &mut kept[..alive.len()];
        for peer in peers.iter_mut() {
            peer.set_retry_seed(seed);
        }
        let result = op(peers);
        if result.is_err() {
            // Whatever the failure, no session, half-read reply or
            // suspect connection outlives the run that hit it.
            peers.iter_mut().for_each(PeerClient::disconnect);
        }
        match result {
            Ok(value) => {
                for &addr in &alive {
                    board.record_ok(addr);
                }
                if !lost.is_empty() {
                    families::CLUSTER_DEGRADED_SOLVES.handle().inc();
                }
                return Ok(Outcome {
                    value,
                    lost,
                    participating: alive.len(),
                });
            }
            Err(CoordError::Shard(e)) if e.is_transport() => {
                let addr = e.addr();
                families::CLUSTER_SHARD_ERRORS.handle().inc();
                board.record_failure(addr);
                // The stateless retry budget inside PeerClient is spent;
                // walk the same backoff ladder once more, probing for a
                // recovery (this is what saves session-scoped eval_*
                // failures, which PeerClient never replays).
                let mut recovered = health::probe(addr, config.probe_timeout);
                let mut attempt = 0u32;
                imc_obs::trace::emit(
                    imc_obs::trace::TraceEvent::new("retry_probe")
                        .field("shard", addr.to_string())
                        .field("attempt", u64::from(attempt))
                        .field("recovered", recovered),
                );
                while !recovered {
                    attempt += 1;
                    match config.retry.delay_before(attempt, seed) {
                        Some(delay) => thread::sleep(delay),
                        None => break,
                    }
                    recovered = health::probe(addr, config.probe_timeout);
                    imc_obs::trace::emit(
                        imc_obs::trace::TraceEvent::new("retry_probe")
                            .field("shard", addr.to_string())
                            .field("attempt", u64::from(attempt))
                            .field("recovered", recovered),
                    );
                }
                if recovered && revives_left > 0 {
                    revives_left -= 1;
                    families::CLUSTER_RETRIES.handle().inc();
                    board.record_ok(addr);
                    imc_obs::trace::emit(
                        imc_obs::trace::TraceEvent::new("shard_revived")
                            .field("shard", addr.to_string())
                            .field("attempts", u64::from(attempt)),
                    );
                    continue; // rerun over the same shard set
                }
                board.mark_dead(addr);
                imc_obs::trace::emit(
                    imc_obs::trace::TraceEvent::new("shard_dead")
                        .field("shard", addr.to_string())
                        .field("attempts", u64::from(attempt))
                        .field("degrade", config.degrade),
                );
                if !config.degrade {
                    return Err(CoordError::Shard(e));
                }
                alive.retain(|&a| a != addr);
                imc_obs::trace::emit(
                    imc_obs::trace::TraceEvent::new("degraded_rescatter")
                        .field("lost", addr.to_string())
                        .field("survivors", alive.len() as u64),
                );
                let position = board
                    .shards()
                    .iter()
                    .position(|&a| a == addr)
                    .unwrap_or(usize::MAX);
                let insert_at = lost
                    .iter()
                    .filter(|&&l| {
                        board
                            .shards()
                            .iter()
                            .position(|&a| a == l)
                            .unwrap_or(usize::MAX)
                            < position
                    })
                    .count();
                lost.insert(insert_at, addr);
            }
            Err(other) => return Err(other),
        }
    }
}

/// The coordinator TCP frontend — protocol-v2 `solve` / `estimate` /
/// `health` / `shutdown` over newline-delimited JSON, answered by
/// scatter-gathering the shard fleet.
pub struct Coordinator;

/// Handle to a running coordinator; dropping it does **not** stop the
/// server — call [`CoordinatorHandle::stop_and_join`].
pub struct CoordinatorHandle {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    acceptor: Option<JoinHandle<()>>,
    monitor: Option<HealthMonitor>,
    board: Arc<HealthBoard>,
}

impl CoordinatorHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared shard health scoreboard (for tests and diagnostics).
    pub fn health_board(&self) -> &Arc<HealthBoard> {
        &self.board
    }

    /// Requests shutdown and pokes the listener awake.
    pub fn stop(&self) {
        self.shutdown.request();
        let _ = TcpStream::connect(self.addr);
    }

    /// Stops the coordinator and joins the acceptor and health-probe
    /// threads.
    pub fn stop_and_join(mut self) {
        self.stop();
        if let Some(monitor) = self.monitor.take() {
            monitor.stop_and_join();
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Coordinator {
    /// Binds the listener and spawns the accept loop. Each connection is
    /// served by its own thread; all connections share one
    /// [`HealthBoard`], fed by request outcomes and (when
    /// `probe_interval` is set) a background [`HealthMonitor`].
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn start(
        instance: Arc<ImcInstance>,
        config: CoordinatorConfig,
    ) -> std::io::Result<CoordinatorHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        families::register(imc_obs::global());
        for shard in &config.shards {
            let shard = shard.to_string();
            for op in families::CLUSTER_RPC_DURATION.spec.values {
                families::CLUSTER_RPC_DURATION.with([op, &shard]);
            }
        }
        families::CLUSTER_SHARDS
            .handle()
            .set(config.shards.len() as f64);
        let board = Arc::new(HealthBoard::new(&config.shards, DEAD_THRESHOLD));
        let monitor = config.probe_interval.map(|interval| {
            HealthMonitor::start(Arc::clone(&board), interval, config.probe_timeout)
        });
        let shutdown = Arc::new(Shutdown::new());
        let acceptor_shutdown = Arc::clone(&shutdown);
        let acceptor_board = Arc::clone(&board);
        let acceptor = thread::spawn(move || {
            for stream in listener.incoming() {
                if acceptor_shutdown.is_requested() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let instance = Arc::clone(&instance);
                let config = config.clone();
                let board = Arc::clone(&acceptor_board);
                thread::spawn(move || serve_connection(stream, &instance, &config, &board));
            }
        });
        Ok(CoordinatorHandle {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            monitor,
            board,
        })
    }
}

/// Serves one client connection until EOF or a `shutdown` request.
fn serve_connection(
    stream: TcpStream,
    instance: &ImcInstance,
    config: &CoordinatorConfig,
    board: &HealthBoard,
) {
    // Flush the response tail immediately; Nagle + delayed ACK would
    // add ~40ms per request on loopback otherwise.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    // One peer per shard for the life of this client connection: a shard
    // connection is dialled by the first request that needs it and kept
    // for the next, so it holds a shard worker for as long as this client
    // stays connected — what a direct daemon connection costs.
    let mut peers: Vec<PeerClient> = board
        .shards()
        .iter()
        .map(|&addr| PeerClient::new(addr, config.client, config.retry))
        .collect();
    let mut line = Vec::new();
    let limit = protocol::max_request_line(instance.node_count());
    loop {
        // No read timeout here, so a line is never continued across calls.
        line.clear();
        let (response, stop) = match protocol::read_request_line(&mut reader, &mut line, limit) {
            Ok(LineRead::Line(text)) if text.trim().is_empty() => continue,
            Ok(LineRead::Line(text)) => {
                let start = Instant::now();
                let reply = handle_request(text.trim_end(), instance, config, board, &mut peers);
                families::CLUSTER_REQUEST_DURATION
                    .handle()
                    .observe(start.elapsed().as_secs_f64());
                reply
            }
            Ok(LineRead::TooLong(response)) => (response, true),
            Ok(LineRead::Eof) | Err(_) => break,
        };
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if stop {
            break;
        }
    }
}

/// Microseconds since `start`, saturating.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Renders the health board as a JSON array of `{addr, state}` objects
/// in topology order.
fn shard_states_field(board: &HealthBoard) -> Vec<Value> {
    board
        .snapshot()
        .into_iter()
        .map(|(addr, state)| {
            ObjectBuilder::new()
                .field("addr", addr.to_string())
                .field("state", state.name())
                .build()
        })
        .collect()
}

/// Dispatches one request line; returns the response and whether the
/// coordinator should shut down afterwards.
fn handle_request(
    line: &str,
    instance: &ImcInstance,
    config: &CoordinatorConfig,
    board: &HealthBoard,
    peers: &mut [PeerClient],
) -> (String, bool) {
    let start = Instant::now();
    // Adopt the caller's span context (a cluster client tracing its own
    // request) or mint a fresh trace — every shard RPC issued below
    // rides this id, so one solve stitches into one tree even across
    // coordinator and shard processes.
    let remote = if line.contains("\"trace_id\"") {
        protocol::parse_span_context(line)
    } else {
        protocol::SpanContext::default()
    };
    let trace_id = remote
        .trace_id
        .clone()
        .unwrap_or_else(imc_obs::trace::fresh_id);
    let _ctx = imc_obs::trace::TraceCtx::enter_remote(&trace_id, remote.parent_span_id.as_deref());
    let (response, stop) = dispatch_request(line, instance, config, board, peers, start)
        .unwrap_or_else(|e| (protocol::error_response(e.code, &e.message), false));
    // Echo the trace id so callers (and the smoke job) can find this
    // request's tree without parsing the coordinator's trace file.
    (
        protocol::inject_span_context(&response, &trace_id, None),
        stop,
    )
}

/// The op dispatch behind [`handle_request`], running inside the
/// request's trace context. A refusal, of the line or of the request,
/// comes back as the [`RequestError`] the caller answers.
fn dispatch_request(
    line: &str,
    instance: &ImcInstance,
    config: &CoordinatorConfig,
    board: &HealthBoard,
    kept: &mut [PeerClient],
    start: Instant,
) -> Result<(String, bool), RequestError> {
    Ok(match protocol::parse_request(line)? {
        Request::Solve { imcaf: Some(_), .. } => {
            return Err(unsupported(
                "the imcaf framework is not supported by the cluster coordinator \
                 (shards serve fixed snapshots)",
            ))
        }
        Request::Solve {
            k,
            algo,
            seed,
            imcaf: None,
            tuning,
        } => {
            // `tuning.threads` is accepted and unused: pivots run one
            // after another here, and the reply says so.
            let req = SolveRequest::new(k)
                .with_seed(seed)
                .with_depth(tuning.depth.unwrap_or(2));
            let _solve_span = imc_obs::Span::enter_with("cluster_solve", algo.name());
            let Outcome {
                value: report,
                lost,
                participating,
            } = run_resilient(config, board, kept, seed, |peers| {
                cluster_solve(instance, peers, algo, &req)
            })?;
            let solve = &report.solve;
            let seeds: Vec<u32> = solve.seeds.iter().map(|v| v.raw()).collect();
            let lost_shards: Vec<String> = lost.iter().map(SocketAddr::to_string).collect();
            let mut body = ObjectBuilder::new()
                .field("seeds", seeds)
                .field("estimate", solve.estimate)
                .field("influenced_samples", solve.influenced_samples)
                .field("evaluations", solve.evaluations)
                .field("threads", 1u64)
                .field("samples", report.samples)
                .field("generation", report.generation)
                .field("shards", participating)
                .field("approximate", !lost.is_empty())
                .field("effective_samples", report.samples)
                .field("lost_shards", lost_shards)
                .field("elapsed_us", elapsed_us(start));
            if let Some(ratio) = solve.extras.sandwich_ratio() {
                body = body.field("sandwich_ratio", ratio);
            }
            (protocol::ok_response("solve", body), false)
        }
        Request::Estimate { seeds } => {
            for v in &seeds {
                protocol::node_in_range("seed", v.raw(), instance.node_count())?;
            }
            let _estimate_span = imc_obs::Span::enter_with("cluster_estimate", "");
            let Outcome {
                value: ShardTotals {
                    score, generation, ..
                },
                lost,
                participating,
            } = run_resilient(config, board, kept, 0, |peers| {
                Ok(shard_eval_totals(peers, &seeds, None)?)
            })?;
            let lost_shards: Vec<String> = lost.iter().map(SocketAddr::to_string).collect();
            let b = instance.total_benefit();
            let body = ObjectBuilder::new()
                .field("estimate", score.estimate(b))
                .field("nu_estimate", score.nu_estimate(b))
                .field("influenced_samples", score.influenced)
                .field("samples", score.samples)
                .field("generation", generation)
                .field("shards", participating)
                .field("approximate", !lost.is_empty())
                .field("effective_samples", score.samples)
                .field("lost_shards", lost_shards)
                .field("elapsed_us", elapsed_us(start));
            (protocol::ok_response("estimate", body), false)
        }
        Request::Health => {
            // Health never fails wholesale: every shard is probed (its
            // real health op, so sample counts come back), outcomes feed
            // the board, and the response reports per-shard states.
            let mut samples = 0u64;
            let mut answering = 0usize;
            for &addr in board.shards() {
                let mut peer = PeerClient::new(addr, config.client, RetryPolicy::none());
                match peer
                    .request_stateless(r#"{"op":"health"}"#)
                    .and_then(|resp| field_u64(&resp, "samples", &peer))
                {
                    Ok(s) => {
                        samples += s;
                        answering += 1;
                        board.record_ok(addr);
                    }
                    Err(e) => {
                        families::CLUSTER_SHARD_ERRORS.handle().inc();
                        if e.is_transport() {
                            board.record_failure(addr);
                        }
                    }
                }
            }
            let status = if answering == board.shards().len() {
                "ok"
            } else {
                "degraded"
            };
            let body = ObjectBuilder::new()
                .field("status", status)
                .field("samples", samples)
                .field("shards", answering)
                .field("shard_states", shard_states_field(board))
                .field("elapsed_us", elapsed_us(start));
            (protocol::ok_response("health", body), false)
        }
        Request::Ping => {
            let body = ObjectBuilder::new()
                .field("status", "ok")
                .field("elapsed_us", elapsed_us(start));
            (protocol::ok_response("ping", body), false)
        }
        Request::Metrics => {
            // Same shape as the daemon's `metrics` answer: the
            // `imc_cluster_*` families live in this process only.
            let body = ObjectBuilder::new()
                .field("format", "prometheus-0.0.4")
                .field("body", imc_obs::encode::to_prometheus(imc_obs::global()));
            (protocol::ok_response("metrics", body), false)
        }
        Request::Shutdown => (
            protocol::ok_response("shutdown", ObjectBuilder::new()),
            true,
        ),
        _ => {
            return Err(unsupported(
                "op not supported by the cluster coordinator \
                 (expected solve | estimate | metrics | health | ping | shutdown)",
            ))
        }
    })
}

/// The refusal of a request the coordinator does not serve.
fn unsupported(message: &str) -> RequestError {
    RequestError {
        code: ErrorCode::InvalidParameter,
        message: message.to_string(),
    }
}
