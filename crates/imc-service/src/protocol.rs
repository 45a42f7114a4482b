//! Newline-delimited JSON wire protocol, version 3.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Request shapes:
//!
//! ```text
//! {"op":"solve","k":5}                                — solve on the current snapshot
//! {"op":"solve","k":5,"algo":"maf","seed":7}          — choose solver + RNG seed
//! {"op":"solve","k":5,"threads":4}                    — v2: BT pivot threads (server caps)
//! {"op":"solve","k":5,"algo":"bt","depth":3}          — v2: BT^(d) threshold bound
//! {"op":"solve","k":5,"framework":"imcaf",
//!  "epsilon":0.2,"delta":0.1,"max_samples":100000}    — full IMCAF run (samples fresh)
//! {"op":"estimate","seeds":[3,17,42]}                 — ĉ_R / ν_R of a seed set
//! {"op":"eval_begin"}                                 — open a shard evaluation session
//! {"op":"eval_begin","pivot":7}                       — session over the pivot-reduced store
//! {"op":"eval_batch","session":1,"kind":"c",
//!  "nodes":[3,17]}                                    — ĉ_R marginal gains (at most n nodes)
//! {"op":"eval_batch","session":1,"kind":"nu",
//!  "nodes":[3,17]}                                    — ν_R marginal gains (Q32 integers)
//! {"op":"eval_seed","session":1,"node":3}             — commit a seed into the session
//! {"op":"eval_end","session":1}                       — close the session
//! {"op":"shard_eval","seeds":[3,17]}                  — stateless shard-local scoring
//! {"op":"stats"}                                      — metrics + collection stats
//! {"op":"metrics"}                                    — Prometheus 0.0.4 exposition (as JSON string)
//! {"op":"health"}                                     — liveness probe
//! {"op":"ping"}                                       — minimal liveness echo (no collection pin)
//! {"op":"shutdown"}                                   — graceful stop
//! ```
//!
//! ## Versioning
//!
//! Version 2 adds the optional solve-tuning knobs `threads` and `depth`,
//! mirroring [`imc_core::SolveRequest`] (its `mode` knob selected among
//! greedy loops that no longer exist: the field is ignored like any other
//! unknown one, whatever it holds). Version 3 changes the shard ops only:
//! `eval_batch kind=nu` answers (`accs`) and `shard_eval`'s `nu_acc` are
//! Q32 integers ([`imc_core::nu_term`]) that a coordinator **adds**, and
//! the `carry` request field of both ops is gone (a request that still
//! sends it is refused with `invalid_parameter`). A coordinator stamps
//! `"v":3` on `eval_begin` and `shard_eval`, so a version-2 shard — whose
//! `f64` accumulators must not be summed — refuses with its version error.
//! Requests may state their version with an
//! optional `"v": 1 | 2 | 3` field; version-1 requests (with or without
//! the field) parse unchanged and behave exactly as before. The server clamps
//! `threads` to its configured cap
//! ([`ServeConfig::max_solve_threads`](crate::ServeConfig::max_solve_threads)),
//! and `solve` responses echo the effective `threads` and the engine's
//! `evaluations` count.
//!
//! The daemon also answers plain `GET /metrics` HTTP requests on the same
//! port (and on the dedicated metrics port when configured) — see
//! [`server`](crate::server).
//!
//! Responses carry `"ok":true` plus op-specific fields, or `"ok":false`
//! with a structured `"error"` object: `{"code":"...","message":"..."}`
//! (version 1 carried a bare string; clients that only check `ok` are
//! unaffected).
//!
//! ## Shard role
//!
//! The `eval_*` and `shard_eval` ops turn a daemon into a **cluster
//! shard**: a node that owns one deterministic partition of the RIC
//! sample store and answers marginal-gain queries against it, letting the
//! `imc-cluster` coordinator run the shared greedy engine by
//! scatter-gathering partial answers (every quantity — ĉ_R gains,
//! appearance counts, Q32 ν_R numerators — is an integer and
//! reduces by element-wise sums, in any order — see `DESIGN.md` §8).
//! Sessions are
//! connection-scoped: they hold a pinned collection generation and die
//! with the connection, so a dropped coordinator never leaks state.
//!
//! Every response — success or error — additionally echoes a server-
//! assigned `"trace_id"` (16 hex digits). The same id tags every JSONL
//! trace event the request produced (solver spans, engine per-iteration
//! records, IMCAF rounds, slow-request records), so one request's span
//! tree can be reassembled from the trace sink by filtering on the id.
//! The field is additive and ignorable: version-1 and version-2 clients
//! that only read the documented fields are unaffected.

use imc_core::{ImcError, MaxrAlgorithm};
use imc_graph::NodeId;
use imc_obs::json::{self, ObjectBuilder, Value};
use std::io::{self, BufRead, Read};

/// Highest protocol version this daemon speaks.
pub const PROTOCOL_VERSION: u64 = 3;

/// Default solver when a `solve` request names none.
pub const DEFAULT_ALGO: MaxrAlgorithm = MaxrAlgorithm::Ubg;
/// Default RNG seed for tie-breaking / sampling.
pub const DEFAULT_SEED: u64 = 1;
/// Default IMCAF accuracy parameter ε.
pub const DEFAULT_EPSILON: f64 = 0.2;
/// Default IMCAF failure probability δ.
pub const DEFAULT_DELTA: f64 = 0.2;
/// Default IMCAF sample cap.
pub const DEFAULT_MAX_SAMPLES: usize = 1 << 20;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Select `k` seeds with a MAXR solver.
    Solve {
        /// Seed budget `k`.
        k: usize,
        /// Which MAXR solver to run.
        algo: MaxrAlgorithm,
        /// RNG seed (MAF tie-breaking; IMCAF sampling).
        seed: u64,
        /// `None`: solve on the served snapshot (deterministic given the
        /// snapshot). `Some`: run the full IMCAF loop with fresh samples.
        imcaf: Option<ImcafParams>,
        /// v2 engine-tuning knobs (all default in v1 requests).
        tuning: SolveTuning,
    },
    /// Score a caller-supplied seed set with the snapshot estimators.
    Estimate {
        /// The seed set to score.
        seeds: Vec<NodeId>,
    },
    /// Open a shard evaluation session over the pinned collection (or its
    /// pivot-reduced form).
    EvalBegin {
        /// When set, the session evaluates over the store reduced for
        /// this pivot node (the BT inner-greedy sub-problem).
        pivot: Option<NodeId>,
    },
    /// Evaluate marginal gains for a batch of nodes within a session.
    EvalBatch {
        /// Session id returned by `eval_begin`.
        session: u64,
        /// Which objective's marginal gain to evaluate.
        kind: EvalKind,
        /// Candidate node ids to evaluate, in order.
        nodes: Vec<u32>,
    },
    /// Commit a seed into a session's coverage state.
    EvalSeed {
        /// Session id returned by `eval_begin`.
        session: u64,
        /// The node to add as a seed.
        node: NodeId,
    },
    /// Close a session, freeing its state.
    EvalEnd {
        /// Session id returned by `eval_begin`.
        session: u64,
    },
    /// Stateless shard-local scoring of a full seed set: influenced-sample
    /// count, Q32 ν_R numerator, and optionally a BT pivot score.
    ShardEval {
        /// The seed set to score.
        seeds: Vec<NodeId>,
        /// When set, also return `pivot_score(store, pivot, seeds)`.
        pivot: Option<NodeId>,
    },
    /// Metrics and collection statistics.
    Stats,
    /// Full Prometheus exposition of the process-wide registry.
    Metrics,
    /// Liveness probe.
    Health,
    /// Minimal liveness echo: answers with the collection generation
    /// without pinning the collection or touching sessions. The cheapest
    /// op a cluster health prober can issue.
    Ping,
    /// Graceful server stop.
    Shutdown,
}

/// Which marginal gain an `eval_batch` computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalKind {
    /// `ĉ_R` marginal gain (an integer per node).
    C,
    /// `ν_R` marginal gain as a Q32 integer per node.
    Nu,
}

impl EvalKind {
    /// The wire label (`"c" | "nu"`).
    pub fn as_str(self) -> &'static str {
        match self {
            EvalKind::C => "c",
            EvalKind::Nu => "nu",
        }
    }
}

/// Optional v2 tuning knobs on `solve`. All `None` reproduces the v1
/// behaviour (single-threaded, depth 2) exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveTuning {
    /// Requested worker threads; the server clamps to its configured cap.
    pub threads: Option<usize>,
    /// BT^(d) threshold bound `d` (BT-family solvers only).
    pub depth: Option<u32>,
}

/// Machine-readable error category carried by `"error".code`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line failed to parse or named unknown fields/values.
    BadRequest,
    /// The seed budget `k` was rejected.
    InvalidBudget,
    /// A bounded-threshold solver ran on samples exceeding its bound.
    ThresholdTooLarge,
    /// Some other parameter was out of range (ε, δ, BT depth, …).
    InvalidParameter,
    /// A seed id exceeded the graph's node count.
    OutOfRange,
    /// The request exceeded its deadline before a worker picked it up.
    DeadlineExceeded,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// A cluster shard is unreachable or answered incoherently; the
    /// message names the dead shard's address.
    ShardUnavailable,
    /// Any other solver/framework failure.
    Internal,
}

impl ErrorCode {
    /// The wire label for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::InvalidBudget => "invalid_budget",
            ErrorCode::ThresholdTooLarge => "threshold_too_large",
            ErrorCode::InvalidParameter => "invalid_parameter",
            ErrorCode::OutOfRange => "out_of_range",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ShardUnavailable => "shard_unavailable",
            ErrorCode::Internal => "internal",
        }
    }
}

/// Maps a solver/framework error to its wire code.
pub fn error_code_for(e: &ImcError) -> ErrorCode {
    match e {
        ImcError::InvalidBudget { .. } => ErrorCode::InvalidBudget,
        ImcError::ThresholdTooLarge { .. } => ErrorCode::ThresholdTooLarge,
        ImcError::InvalidParameter { .. } => ErrorCode::InvalidParameter,
        _ => ErrorCode::Internal,
    }
}

/// IMCAF accuracy parameters for `"framework":"imcaf"` solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImcafParams {
    /// Approximation slack ε.
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Hard cap on generated samples.
    pub max_samples: usize,
}

/// Why a request line was refused before execution: the wire error code
/// and a human-readable message naming the malformed field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// [`ErrorCode::BadRequest`] unless the line parsed but asked for
    /// something this protocol version removed.
    pub code: ErrorCode,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for RequestError {
    fn from(message: String) -> Self {
        RequestError {
            code: ErrorCode::BadRequest,
            message,
        }
    }
}

impl From<&str> for RequestError {
    fn from(message: &str) -> Self {
        message.to_string().into()
    }
}

impl From<ImcError> for RequestError {
    fn from(e: ImcError) -> Self {
        RequestError {
            code: error_code_for(&e),
            message: e.to_string(),
        }
    }
}

/// Refuses node `raw`, named `what` in the message, unless a graph of
/// `node_count` nodes has it.
///
/// # Errors
///
/// An [`ErrorCode::OutOfRange`] refusal naming the node.
pub fn node_in_range(what: &str, raw: u32, node_count: usize) -> Result<(), RequestError> {
    if (raw as usize) < node_count {
        return Ok(());
    }
    Err(RequestError {
        code: ErrorCode::OutOfRange,
        message: format!("{what} {raw} out of range (graph has {node_count} nodes)"),
    })
}

/// The longest request line (its `\n` aside) a daemon or coordinator of a
/// `node_count`-node instance reads: 1 MiB plus 12 bytes a node, room for
/// an `eval_batch` or `estimate` that lists every node.
pub fn max_request_line(node_count: usize) -> usize {
    (1 << 20) + 12 * node_count
}

/// What [`read_request_line`] read.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead<'a> {
    /// One request line, with its `\n` if it had one.
    Line(&'a str),
    /// The peer closed the connection.
    Eof,
    /// The line ran past the limit with no `\n`: the `bad_request`
    /// response to send before closing the connection.
    TooLong(String),
}

/// Reads one request line into `line`, at most `limit` bytes of it
/// ([`max_request_line`]), so a client that never sends `\n` cannot grow
/// one buffer without bound. Bytes that arrive before a read timeout stay
/// in `line` and the next call continues the line; clear `line` once a
/// line is handled.
///
/// # Errors
///
/// The reader's error (a timeout included), or `InvalidData` for a line
/// that is not UTF-8.
pub fn read_request_line<'a>(
    reader: &mut impl BufRead,
    line: &'a mut Vec<u8>,
    limit: usize,
) -> io::Result<LineRead<'a>> {
    let room = (limit + 1).saturating_sub(line.len()) as u64;
    if reader.take(room).read_until(b'\n', line)? == 0 {
        return Ok(LineRead::Eof);
    }
    if line.len() > limit && line.last() != Some(&b'\n') {
        let message = format!("request line exceeds {limit} bytes");
        return Ok(LineRead::TooLong(error_response(
            ErrorCode::BadRequest,
            &message,
        )));
    }
    std::str::from_utf8(line)
        .map(LineRead::Line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Refuses the `carry` field protocol v3 removed from `eval_batch` and
/// `shard_eval`, rather than ignore an accumulator the sender expects to
/// be continued.
fn reject_carry(value: &Value, op: &str) -> Result<(), RequestError> {
    if value.get("carry").is_none() {
        return Ok(());
    }
    Err(RequestError {
        code: ErrorCode::InvalidParameter,
        message: format!(
            "`carry` was removed from {op} in protocol v3: ν_R partials are Q32 integers \
             and the coordinator adds them"
        ),
    })
}

/// Parses one request line.
///
/// # Errors
///
/// A [`RequestError`] describing the malformed field.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value = json::parse(line).map_err(|e| e.to_string())?;
    let obj = value.as_object().ok_or("request must be a JSON object")?;
    let op = obj
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing string field `op`")?;
    if let Some(v) = value.get("v") {
        match v.as_u64() {
            Some(1..=PROTOCOL_VERSION) => {}
            _ => {
                return Err(format!(
                "unsupported protocol version `{}` (this daemon speaks v1..=v{PROTOCOL_VERSION})",
                json::to_string(v)
            )
                .into())
            }
        }
    }
    match op {
        "solve" => {
            let k = value
                .get("k")
                .and_then(Value::as_u64)
                .ok_or("solve requires a non-negative integer `k`")?;
            let algo = match value
                .get("algo")
                .map(|a| a.as_str().ok_or("`algo` must be a string"))
            {
                None => DEFAULT_ALGO,
                Some(name) => parse_algo(name?)?,
            };
            let seed = field_u64(&value, "seed")?.unwrap_or(DEFAULT_SEED);
            let imcaf = match value.get("framework").map(|f| f.as_str()) {
                None | Some(Some("snapshot")) => None,
                Some(Some("imcaf")) => Some(ImcafParams {
                    epsilon: field_f64(&value, "epsilon")?.unwrap_or(DEFAULT_EPSILON),
                    delta: field_f64(&value, "delta")?.unwrap_or(DEFAULT_DELTA),
                    max_samples: field_u64(&value, "max_samples")?
                        .map_or(DEFAULT_MAX_SAMPLES, |m| m as usize),
                }),
                Some(Some(other)) => {
                    return Err(
                        format!("unknown framework `{other}` (expected snapshot | imcaf)").into(),
                    )
                }
                Some(None) => return Err("`framework` must be a string".into()),
            };
            let threads = field_u64(&value, "threads")?.map(|t| t as usize);
            let depth = match field_u64(&value, "depth")? {
                None => None,
                Some(d) if (2..=u64::from(u32::MAX)).contains(&d) => Some(d as u32),
                Some(d) => return Err(format!("`depth` must be at least 2, got {d}").into()),
            };
            Ok(Request::Solve {
                k: k as usize,
                algo,
                seed,
                imcaf,
                tuning: SolveTuning { threads, depth },
            })
        }
        "estimate" => {
            let seeds = value
                .get("seeds")
                .and_then(Value::as_array)
                .ok_or("estimate requires an array field `seeds`")?;
            Ok(Request::Estimate {
                seeds: node_ids(seeds, "seeds")?,
            })
        }
        "eval_begin" => Ok(Request::EvalBegin {
            pivot: field_node(&value, "pivot")?,
        }),
        "eval_batch" => {
            let session = field_u64(&value, "session")?
                .ok_or("eval_batch requires a non-negative integer `session`")?;
            let kind = match value.get("kind").map(|k| k.as_str()) {
                Some(Some("c")) => EvalKind::C,
                Some(Some("nu")) => EvalKind::Nu,
                Some(Some(other)) => {
                    return Err(format!("unknown eval kind `{other}` (expected c | nu)").into())
                }
                _ => return Err("eval_batch requires a string field `kind`".into()),
            };
            let nodes = field_node_array(&value, "nodes")?
                .ok_or("eval_batch requires an array field `nodes`")?
                .iter()
                .map(|n| n.raw())
                .collect::<Vec<u32>>();
            reject_carry(&value, "eval_batch")?;
            Ok(Request::EvalBatch {
                session,
                kind,
                nodes,
            })
        }
        "eval_seed" => Ok(Request::EvalSeed {
            session: field_u64(&value, "session")?
                .ok_or("eval_seed requires a non-negative integer `session`")?,
            node: field_node(&value, "node")?.ok_or("eval_seed requires a node id `node`")?,
        }),
        "eval_end" => Ok(Request::EvalEnd {
            session: field_u64(&value, "session")?
                .ok_or("eval_end requires a non-negative integer `session`")?,
        }),
        "shard_eval" => {
            reject_carry(&value, "shard_eval")?;
            Ok(Request::ShardEval {
                seeds: field_node_array(&value, "seeds")?
                    .ok_or("shard_eval requires an array field `seeds`")?,
                pivot: field_node(&value, "pivot")?,
            })
        }
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "health" => Ok(Request::Health),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op `{other}` (expected solve | estimate | eval_begin | eval_batch | \
             eval_seed | eval_end | shard_eval | stats | metrics | health | ping | shutdown)"
        )
        .into()),
    }
}

/// The distributed-tracing span context a request envelope may carry.
///
/// Both fields are additive and optional (v1 and v2 requests without them
/// parse unchanged): `trace_id` names the cluster-wide trace the request
/// belongs to, `parent_span_id` the caller's open span, so every trace
/// event the server emits while serving the request nests under the
/// remote caller in a stitched timeline (see `imc_obs::timeline`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanContext {
    /// Cluster-wide trace id (16 hex digits), if the caller sent one.
    pub trace_id: Option<String>,
    /// The caller's open span id, if the caller sent one.
    pub parent_span_id: Option<String>,
}

impl SpanContext {
    /// Whether the envelope carried any context at all.
    pub fn is_empty(&self) -> bool {
        self.trace_id.is_none() && self.parent_span_id.is_none()
    }
}

/// Extracts the span context from a request line, tolerantly: malformed
/// JSON or missing/mistyped fields yield an empty context (the request
/// parse reports its own errors; tracing must never fail a request).
pub fn parse_span_context(line: &str) -> SpanContext {
    let Ok(value) = json::parse(line) else {
        return SpanContext::default();
    };
    SpanContext {
        trace_id: value
            .get("trace_id")
            .and_then(Value::as_str)
            .map(str::to_string),
        parent_span_id: value
            .get("parent_span_id")
            .and_then(Value::as_str)
            .map(str::to_string),
    }
}

/// Splices span-context fields into a serialized request line (one JSON
/// object). Additive: servers that don't know the fields ignore them.
/// Returns the line unchanged when it doesn't end in `}`.
pub fn inject_span_context(line: &str, trace_id: &str, parent_span_id: Option<&str>) -> String {
    let trimmed = line.trim_end();
    let Some(head) = trimmed.strip_suffix('}') else {
        return line.to_string();
    };
    let mut out = String::with_capacity(trimmed.len() + 64);
    out.push_str(head);
    if head.trim_end() != "{" {
        out.push(',');
    }
    out.push_str("\"trace_id\":");
    out.push_str(&json::to_string(&Value::Str(trace_id.to_string())));
    if let Some(parent) = parent_span_id {
        out.push_str(",\"parent_span_id\":");
        out.push_str(&json::to_string(&Value::Str(parent.to_string())));
    }
    out.push('}');
    out
}

/// A node id: a non-negative integer fitting in `u32`.
fn node_id(value: &Value) -> Option<NodeId> {
    let n = value.as_u64().filter(|&n| n <= u64::from(u32::MAX))?;
    Some(NodeId::new(n as u32))
}

/// The node ids of array field `name`.
fn node_ids(values: &[Value], name: &str) -> Result<Vec<NodeId>, String> {
    values
        .iter()
        .map(|v| {
            node_id(v).ok_or_else(|| format!("invalid node id in `{name}`: {}", json::to_string(v)))
        })
        .collect()
}

/// Optional node-id field.
fn field_node(value: &Value, name: &str) -> Result<Option<NodeId>, String> {
    match value.get(name) {
        None => Ok(None),
        Some(v) => node_id(v)
            .map(Some)
            .ok_or_else(|| format!("`{name}` must be a node id (u32)")),
    }
}

/// Optional array-of-node-ids field.
fn field_node_array(value: &Value, name: &str) -> Result<Option<Vec<NodeId>>, String> {
    match value.get(name) {
        None => Ok(None),
        Some(v) => {
            let values = v
                .as_array()
                .ok_or_else(|| format!("`{name}` must be an array of node ids"))?;
            node_ids(values, name).map(Some)
        }
    }
}

fn field_u64(value: &Value, name: &str) -> Result<Option<u64>, String> {
    match value.get(name) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{name}` must be a non-negative integer")),
    }
}

fn field_f64(value: &Value, name: &str) -> Result<Option<f64>, String> {
    match value.get(name) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("`{name}` must be a number")),
    }
}

fn parse_algo(name: &str) -> Result<MaxrAlgorithm, String> {
    Ok(match name {
        "greedy" => MaxrAlgorithm::Greedy,
        "ubg" => MaxrAlgorithm::Ubg,
        "maf" => MaxrAlgorithm::Maf,
        "bt" => MaxrAlgorithm::Bt,
        "mb" => MaxrAlgorithm::Mb,
        other => {
            return Err(format!(
                "unknown algo `{other}` (expected greedy | ubg | maf | bt | mb)"
            ))
        }
    })
}

/// Serializes an `"ok":true` response with the given extra fields.
pub fn ok_response(op: &str, fields: ObjectBuilder) -> String {
    json::to_string(&fields.field("ok", true).field("op", op).build())
}

/// Serializes an `"ok":false` error response with a structured
/// `{"code","message"}` payload (protocol v2).
pub fn error_response(code: ErrorCode, message: &str) -> String {
    json::to_string(
        &ObjectBuilder::new()
            .field("ok", false)
            .field(
                "error",
                ObjectBuilder::new()
                    .field("code", code.as_str())
                    .field("message", message)
                    .build(),
            )
            .build(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line of exactly `limit` bytes (and its `\n`) is read, one byte
    /// more is refused, and an unterminated last line is still a line.
    #[test]
    fn request_lines_are_read_up_to_the_limit() {
        let read = |input: &[u8]| {
            let (mut input, mut line) = (input, Vec::new());
            let first = read_request_line(&mut input, &mut line, 4).unwrap();
            format!("{first:?}")
        };
        assert_eq!(read(b"abcd\nz"), r#"Line("abcd\n")"#);
        assert_eq!(read(b"abc"), r#"Line("abc")"#);
        assert_eq!(read(b""), "Eof");
        assert!(read(b"abcde\n").contains("request line exceeds 4 bytes"));
    }

    #[test]
    fn parses_solve_defaults_and_overrides() {
        let r = parse_request(r#"{"op":"solve","k":4}"#).unwrap();
        assert_eq!(
            r,
            Request::Solve {
                k: 4,
                algo: MaxrAlgorithm::Ubg,
                seed: 1,
                imcaf: None,
                tuning: SolveTuning::default()
            }
        );
        let r = parse_request(r#"{"op":"solve","k":2,"algo":"maf","seed":9}"#).unwrap();
        assert_eq!(
            r,
            Request::Solve {
                k: 2,
                algo: MaxrAlgorithm::Maf,
                seed: 9,
                imcaf: None,
                tuning: SolveTuning::default()
            }
        );
    }

    #[test]
    fn parses_v2_tuning_fields() {
        let r = parse_request(
            r#"{"op":"solve","k":4,"v":2,"threads":8,"mode":"parallel","algo":"bt","depth":3}"#,
        )
        .unwrap();
        let Request::Solve { tuning, algo, .. } = r else {
            panic!("expected solve");
        };
        assert_eq!(algo, MaxrAlgorithm::Bt);
        assert_eq!(
            tuning,
            SolveTuning {
                threads: Some(8),
                depth: Some(3),
            }
        );
        // An explicit v1 marker still parses the old form.
        let r = parse_request(r#"{"op":"solve","k":4,"v":1}"#).unwrap();
        let Request::Solve { tuning, .. } = r else {
            panic!("expected solve");
        };
        assert_eq!(tuning, SolveTuning::default());
    }

    /// `mode` left the protocol with the loops it chose among: a stale
    /// client's value — or a hostile one — is one more unknown field.
    #[test]
    fn the_removed_mode_field_is_ignored_whatever_it_holds() {
        let plain = parse_request(r#"{"op":"solve","k":4,"threads":2}"#).unwrap();
        for mode in [
            r#""sequential""#,
            r#""lazy""#,
            r#""parallel""#,
            r#""warp""#,
            "7",
        ] {
            let line = format!(r#"{{"op":"solve","k":4,"threads":2,"mode":{mode}}}"#);
            assert_eq!(parse_request(&line).unwrap(), plain, "{line}");
        }
    }

    #[test]
    fn rejects_bad_v2_fields() {
        for bad in [
            r#"{"op":"solve","k":2,"v":4}"#,
            r#"{"op":"solve","k":2,"v":0}"#,
            r#"{"op":"solve","k":2,"v":"two"}"#,
            r#"{"op":"solve","k":2,"threads":-1}"#,
            r#"{"op":"solve","k":2,"depth":1}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn parses_imcaf_framework() {
        let r = parse_request(
            r#"{"op":"solve","k":3,"framework":"imcaf","epsilon":0.1,"delta":0.05,"max_samples":5000}"#,
        )
        .unwrap();
        let Request::Solve { imcaf: Some(p), .. } = r else {
            panic!("expected imcaf solve, got {r:?}");
        };
        assert_eq!(p.epsilon, 0.1);
        assert_eq!(p.delta, 0.05);
        assert_eq!(p.max_samples, 5000);
    }

    #[test]
    fn parses_estimate_stats_health_shutdown() {
        assert_eq!(
            parse_request(r#"{"op":"estimate","seeds":[0,5]}"#).unwrap(),
            Request::Estimate {
                seeds: vec![NodeId::new(0), NodeId::new(5)]
            }
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            Request::Health
        );
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn parses_shard_ops() {
        assert_eq!(
            parse_request(r#"{"op":"eval_begin"}"#).unwrap(),
            Request::EvalBegin { pivot: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"eval_begin","pivot":7}"#).unwrap(),
            Request::EvalBegin {
                pivot: Some(NodeId::new(7))
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"eval_batch","session":3,"kind":"c","nodes":[1,2]}"#).unwrap(),
            Request::EvalBatch {
                session: 3,
                kind: EvalKind::C,
                nodes: vec![1, 2],
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"eval_batch","session":3,"kind":"nu","nodes":[1,2],"v":3}"#)
                .unwrap(),
            Request::EvalBatch {
                session: 3,
                kind: EvalKind::Nu,
                nodes: vec![1, 2],
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"eval_seed","session":3,"node":9}"#).unwrap(),
            Request::EvalSeed {
                session: 3,
                node: NodeId::new(9)
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"eval_end","session":3}"#).unwrap(),
            Request::EvalEnd { session: 3 }
        );
        assert_eq!(
            parse_request(r#"{"op":"shard_eval","seeds":[4,5],"pivot":2,"v":3}"#).unwrap(),
            Request::ShardEval {
                seeds: vec![NodeId::new(4), NodeId::new(5)],
                pivot: Some(NodeId::new(2)),
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"shard_eval","seeds":[]}"#).unwrap(),
            Request::ShardEval {
                seeds: Vec::new(),
                pivot: None,
            }
        );
    }

    #[test]
    fn rejects_malformed_shard_ops() {
        for bad in [
            r#"{"op":"eval_begin","pivot":-1}"#,
            r#"{"op":"eval_batch","kind":"c","nodes":[1]}"#,
            r#"{"op":"eval_batch","session":1,"nodes":[1]}"#,
            r#"{"op":"eval_batch","session":1,"kind":"x","nodes":[1]}"#,
            r#"{"op":"eval_batch","session":1,"kind":"c"}"#,
            r#"{"op":"eval_seed","session":1}"#,
            r#"{"op":"eval_seed","node":1}"#,
            r#"{"op":"eval_end"}"#,
            r#"{"op":"shard_eval"}"#,
            r#"{"op":"shard_eval","seeds":[-2]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad}");
        }
    }

    /// The v3 edge, both ways: the field v3 removed is refused by name
    /// with `invalid_parameter` (not silently dropped), and a version this
    /// daemon does not speak — what a v2 shard makes of a v3 coordinator's
    /// stamp — is refused before the op is looked at.
    #[test]
    fn removed_carry_and_unknown_versions_are_refused() {
        for line in [
            r#"{"op":"eval_batch","session":1,"kind":"nu","nodes":[1],"carry":[0.0]}"#,
            r#"{"op":"eval_batch","session":1,"kind":"c","nodes":[1],"carry":null}"#,
            r#"{"op":"shard_eval","seeds":[1],"carry":0.0}"#,
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.code, ErrorCode::InvalidParameter, "{line}");
            assert!(e.message.contains("`carry` was removed"), "{e}");
        }
        assert_eq!(PROTOCOL_VERSION, 3);
        assert!(parse_request(r#"{"op":"eval_begin","v":3}"#).is_ok());
        let e = parse_request(r#"{"op":"eval_begin","v":4}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(
            e.message.contains("unsupported protocol version `4`"),
            "{e}"
        );
    }

    #[test]
    fn shard_error_code_and_eval_kind_labels() {
        assert_eq!(ErrorCode::ShardUnavailable.as_str(), "shard_unavailable");
        assert_eq!(EvalKind::C.as_str(), "c");
        assert_eq!(EvalKind::Nu.as_str(), "nu");
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"[1,2]"#,
            r#"{"k":3}"#,
            r#"{"op":"solve"}"#,
            r#"{"op":"solve","k":-2}"#,
            r#"{"op":"solve","k":2,"algo":"quantum"}"#,
            r#"{"op":"solve","k":2,"framework":"other"}"#,
            r#"{"op":"estimate"}"#,
            r#"{"op":"estimate","seeds":[-1]}"#,
            r#"{"op":"estimate","seeds":["a"]}"#,
            r#"{"op":"teleport"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn error_codes_map_from_imc_errors() {
        assert_eq!(
            error_code_for(&ImcError::InvalidBudget {
                k: 0,
                node_count: 5
            }),
            ErrorCode::InvalidBudget
        );
        assert_eq!(
            error_code_for(&ImcError::ThresholdTooLarge {
                bound: 2,
                max_threshold: 4
            }),
            ErrorCode::ThresholdTooLarge
        );
        assert_eq!(
            error_code_for(&ImcError::InvalidParameter { name: "epsilon" }),
            ErrorCode::InvalidParameter
        );
        assert_eq!(
            error_code_for(&ImcError::NoCommunities),
            ErrorCode::Internal
        );
    }

    #[test]
    fn span_context_roundtrips_through_the_envelope() {
        // Inject into a typical request line, then read it back.
        let line = r#"{"op":"ping"}"#;
        let tagged = inject_span_context(line, "00ff00ff00ff00ff", Some("1234abcd1234abcd"));
        let ctx = parse_span_context(&tagged);
        assert_eq!(ctx.trace_id.as_deref(), Some("00ff00ff00ff00ff"));
        assert_eq!(ctx.parent_span_id.as_deref(), Some("1234abcd1234abcd"));
        // The request itself still parses (fields are additive).
        assert_eq!(parse_request(&tagged).unwrap(), Request::Ping);
        // Without a parent span only trace_id is spliced.
        let tagged = inject_span_context(line, "00ff00ff00ff00ff", None);
        assert!(!tagged.contains("parent_span_id"));
        assert_eq!(
            parse_span_context(&tagged).trace_id.as_deref(),
            Some("00ff00ff00ff00ff")
        );
        // Empty object, not-JSON, and missing fields are all tolerated.
        assert_eq!(
            inject_span_context("{}", "aa", None),
            r#"{"trace_id":"aa"}"#
        );
        assert_eq!(inject_span_context("not json", "aa", None), "not json");
        assert!(parse_span_context("not json").is_empty());
        assert!(parse_span_context(r#"{"op":"ping","trace_id":7}"#).is_empty());
        assert!(parse_span_context(line).is_empty());
    }

    #[test]
    fn responses_are_single_line_json() {
        let ok = ok_response("health", ObjectBuilder::new().field("status", "ok"));
        assert!(!ok.contains('\n'));
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("op").unwrap().as_str(), Some("health"));
        let err = error_response(ErrorCode::Internal, "boom \"quoted\"");
        assert!(!err.contains('\n'));
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        let e = v.get("error").unwrap();
        assert_eq!(e.get("code").unwrap().as_str(), Some("internal"));
        assert_eq!(e.get("message").unwrap().as_str(), Some("boom \"quoted\""));
    }
}
