//! [`ClusterSource`] — a [`GainSource`] whose marginal gains come from
//! remote shard daemons instead of a local [`CoverageState`].
//!
//! One instance wraps one `eval_begin` … `eval_end` session on every
//! shard. The reduction rules are the whole trick:
//!
//! * **integers sum** — ĉ_R gains, potentials and appearance counts are
//!   per-sample counts over disjoint partitions, so element-wise sums
//!   across shards equal the single-node values exactly;
//! * **floats chain** — ν_R gains are `f64` left folds in sample order,
//!   which is non-associative, so shard `i`'s fold *continues* shard
//!   `i−1`'s accumulator (the wire `carry` field) instead of being
//!   summed. Because the partitions concatenate in shard order to the
//!   single-node sample order, the chained fold is bitwise identical.
//!
//! [`GainSource`] is infallible by design (the engine has no error
//! channel), so shard failures are *stashed*: the first
//! [`ClusterError`] is kept, later batches return neutral zeros, and the
//! caller must check [`ClusterSource::take_error`] after the greedy run
//! before trusting its output.
//!
//! [`CoverageState`]: imc_core::CoverageState

use std::thread;
use std::time::Instant;

use imc_core::maxr::{GainSource, MapStats};
use imc_service::client::{ClusterError, PeerClient};
use imc_service::json::{self, ObjectBuilder, Value};

use crate::obs;

/// Extracts a required `u64` field from a shard response.
pub(crate) fn field_u64(value: &Value, key: &str, peer: &PeerClient) -> Result<u64, ClusterError> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| ClusterError::Protocol {
            addr: peer.addr(),
            detail: format!("response missing integer field `{key}`"),
        })
}

/// Extracts a required `f64` field from a shard response.
pub(crate) fn field_f64(value: &Value, key: &str, peer: &PeerClient) -> Result<f64, ClusterError> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| ClusterError::Protocol {
            addr: peer.addr(),
            detail: format!("response missing number field `{key}`"),
        })
}

/// Extracts a required array of `u64` from a shard response.
fn field_u64_array(value: &Value, key: &str, peer: &PeerClient) -> Result<Vec<u64>, ClusterError> {
    let err = || ClusterError::Protocol {
        addr: peer.addr(),
        detail: format!("response missing integer array field `{key}`"),
    };
    value
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(err)?
        .iter()
        .map(|v| v.as_u64().ok_or_else(err))
        .collect()
}

/// Extracts a required array of `f64` from a shard response.
fn field_f64_array(value: &Value, key: &str, peer: &PeerClient) -> Result<Vec<f64>, ClusterError> {
    let err = || ClusterError::Protocol {
        addr: peer.addr(),
        detail: format!("response missing number array field `{key}`"),
    };
    value
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(err)?
        .iter()
        .map(|v| v.as_f64().ok_or_else(err))
        .collect()
}

/// Times one session-scoped shard RPC, feeds the latency histograms
/// (both the legacy aggregate and the `{op,shard}` breakout) and opens
/// an `rpc_client` span whose `detail` carries "`op` `addr`" — the
/// trace stitcher parses the address out of that detail to map each
/// shard-side trace file onto its shard.
fn timed_session_rpc(
    peer: &mut PeerClient,
    addr: &str,
    line: &str,
    op: &'static str,
) -> Result<(Value, f64), ClusterError> {
    let _rpc = imc_obs::Span::enter_with("rpc_client", format!("{op} {addr}"));
    let start = Instant::now();
    let result = peer.request_session(line);
    let secs = start.elapsed().as_secs_f64();
    obs::shard_rpc_seconds().observe(secs);
    obs::rpc_duration_seconds(op, addr).observe(secs);
    if result.is_err() {
        obs::shard_errors_total().inc();
    }
    result.map(|v| (v, secs))
}

/// Emits one flat `round_attribution` trace event for a finished
/// scatter round: where the round's wall time went (parallel fan-out
/// vs. reduce), and which shard was the straggler. No-op when tracing
/// is off (the event is dropped at the sink).
#[allow(clippy::too_many_arguments)]
fn emit_round_attribution(
    objective: &str,
    batch: usize,
    addrs: &[String],
    shard_seconds: &[f64],
    scatter_s: f64,
    reduce_s: f64,
) {
    let mut straggler = "";
    let mut straggler_s = 0.0f64;
    let mut fastest_s = f64::INFINITY;
    for (addr, &secs) in addrs.iter().zip(shard_seconds) {
        if secs > straggler_s {
            straggler_s = secs;
            straggler = addr;
        }
        fastest_s = fastest_s.min(secs);
    }
    if !fastest_s.is_finite() {
        fastest_s = 0.0;
    }
    imc_obs::trace::emit(
        imc_obs::trace::TraceEvent::new("round_attribution")
            .field("objective", objective)
            .field("batch", batch as u64)
            .field("shards", shard_seconds.len() as u64)
            .field("scatter_s", scatter_s)
            .field("reduce_s", reduce_s)
            .field("straggler", straggler)
            .field("straggler_s", straggler_s)
            .field("fastest_s", fastest_s),
    );
}

/// Widest window of CELF queue entries one scatter round carries
/// ([`GainSource::window_cap`]). A constant, not a knob: the engine's
/// window doubles from 1 inside every greedy round and most rounds end
/// within a few entries, so the cap only bounds the rare long round — on
/// the 2-shard benchmark solve (`ladder-cluster`, seed 7) caps of 16 / 64
/// / 256 / 4096 gave 1.15 / 0.97 / 0.88 / 0.85 s against 4.44 s at one
/// entry per round.
const WINDOW_CAP: usize = 64;

/// One shard's `eval_batch` line around the round's node array, which is
/// serialised once per round (`nodes_json`) instead of once per shard.
/// Keys are in the sorted order [`json::to_string`] writes, so the bytes
/// on the wire are the builder's.
fn eval_batch_line(session: u64, kind: &str, nodes_json: &str, carry: Option<&[f64]>) -> String {
    let carry = carry.map_or_else(String::new, |c| {
        format!(r#""carry":{},"#, json::to_string(&Value::from(c.to_vec())))
    });
    format!(
        r#"{{{carry}"kind":"{kind}","nodes":{nodes_json},"op":"eval_batch","session":{session}}}"#
    )
}

fn nodes_json(nodes: &[u32]) -> String {
    json::to_string(&Value::from(nodes.to_vec()))
}

/// One shard's answer to a ĉ batch: per-node gains, per-node
/// influenced counts, and the shard's RPC wall time in seconds.
type ShardCBatch = (Vec<u64>, Vec<u64>, f64);

/// A scatter-gather [`GainSource`] over one open eval session per shard.
///
/// Construct with [`ClusterSource::open`], run a greedy loop over it
/// ([`greedy_c_over`](imc_core::maxr::engine::greedy_c_over) /
/// [`greedy_nu_over`](imc_core::maxr::engine::greedy_nu_over)), then *always*
/// call [`take_error`](Self::take_error) — a `Some` means some batch
/// after the failure returned neutral zeros and the run is invalid.
/// Dropping the source closes the remote sessions best-effort.
#[derive(Debug)]
pub struct ClusterSource<'a> {
    peers: &'a mut [PeerClient],
    /// `peers[i].addr()` rendered once: the `shard` metric label and the
    /// text of every span and attribution event.
    addrs: Vec<String>,
    sessions: Vec<u64>,
    /// Element-wise sum of per-shard appearance counts = appearance over
    /// the union collection.
    appearance: Vec<u64>,
    /// Element-wise sum of per-shard community source frequencies.
    communities: Vec<u64>,
    samples: u64,
    generation: u64,
    error: Option<ClusterError>,
    closed: bool,
}

impl<'a> ClusterSource<'a> {
    /// Opens one eval session on every shard (pivot-reduced when `pivot`
    /// is set) and gathers the summed appearance / community-frequency
    /// vectors. Sessions already opened are closed best-effort when a
    /// later shard fails.
    pub fn open(peers: &'a mut [PeerClient], pivot: Option<u32>) -> Result<Self, ClusterError> {
        let mut line = ObjectBuilder::new().field("op", "eval_begin");
        if let Some(u) = pivot {
            line = line.field("pivot", u);
        }
        let line = json::to_string(&line.build());

        let addrs: Vec<String> = peers.iter().map(|p| p.addr().to_string()).collect();
        let mut sessions: Vec<u64> = Vec::with_capacity(peers.len());
        let mut appearance: Vec<u64> = Vec::new();
        let mut communities: Vec<u64> = Vec::new();
        let mut samples = 0u64;
        let mut generation = 0u64;
        let mut failure: Option<ClusterError> = None;
        for (i, peer) in peers.iter_mut().enumerate() {
            let begun = timed_session_rpc(peer, &addrs[i], &line, "eval_begin");
            let resp = match begun.and_then(|(resp, _)| {
                let session = field_u64(&resp, "session", peer)?;
                let shard_gen = field_u64(&resp, "generation", peer)?;
                let app = field_u64_array(&resp, "appearance", peer)?;
                let com = field_u64_array(&resp, "communities", peer)?;
                samples += field_u64(&resp, "samples", peer)?;
                Ok((session, shard_gen, app, com))
            }) {
                Ok(parts) => parts,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            let (session, shard_gen, app, com) = resp;
            sessions.push(session);
            if i == 0 {
                generation = shard_gen;
                appearance = app;
                communities = com;
                continue;
            }
            if shard_gen != generation
                || app.len() != appearance.len()
                || com.len() != communities.len()
            {
                failure = Some(ClusterError::Protocol {
                    addr: peer.addr(),
                    detail: format!(
                        "shard disagrees with shard 0: generation {shard_gen} vs {generation}, \
                         {} vs {} nodes, {} vs {} communities",
                        app.len(),
                        appearance.len(),
                        com.len(),
                        communities.len()
                    ),
                });
                break;
            }
            for (total, part) in appearance.iter_mut().zip(&app) {
                *total += part;
            }
            for (total, part) in communities.iter_mut().zip(&com) {
                *total += part;
            }
        }
        if let Some(e) = failure {
            // Roll back the sessions we did open; errors here are moot.
            for (peer, session) in peers.iter_mut().zip(&sessions) {
                let end = ObjectBuilder::new()
                    .field("op", "eval_end")
                    .field("session", *session);
                let _ = peer.request_session(&json::to_string(&end.build()));
            }
            return Err(e);
        }
        Ok(ClusterSource {
            peers,
            addrs,
            sessions,
            appearance,
            communities,
            samples,
            generation,
            error: None,
            closed: false,
        })
    }

    /// Total samples across all shards.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The collection generation every shard session is pinned to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appearance counts over the union collection (summed shards).
    pub fn appearance(&self) -> &[u64] {
        &self.appearance
    }

    /// Community source frequencies over the union collection.
    pub fn community_frequencies(&self) -> &[u64] {
        &self.communities
    }

    /// Stashes the first shard failure; later calls keep the original.
    fn fail(&mut self, e: ClusterError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Takes the stashed shard failure, if any. A `Some` invalidates
    /// everything computed through this source since the failure.
    pub fn take_error(&mut self) -> Option<ClusterError> {
        self.error.take()
    }

    /// Closes the remote sessions (idempotent, best-effort: a shard that
    /// died keeps its stashed error; close failures are not new errors
    /// because the daemon reaps sessions with the connection anyway).
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        for (peer, session) in self.peers.iter_mut().zip(&self.sessions) {
            let line = ObjectBuilder::new()
                .field("op", "eval_end")
                .field("session", *session);
            let _ = peer.request_session(&json::to_string(&line.build()));
        }
    }
}

impl Drop for ClusterSource<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

impl GainSource for ClusterSource<'_> {
    fn node_count(&self) -> usize {
        self.appearance.len()
    }

    fn appearance_count(&self, v: u32) -> usize {
        self.appearance[v as usize] as usize
    }

    fn eval_c_batch(&mut self, nodes: &[u32]) -> (Vec<(usize, usize)>, MapStats) {
        let neutral = (
            vec![(0usize, 0usize); nodes.len()],
            MapStats {
                shard_seconds: Vec::new(),
                busy_fractions: Vec::new(),
            },
        );
        if self.error.is_some() || nodes.is_empty() {
            return neutral;
        }
        obs::scatter_total().inc();
        let _round = imc_obs::Span::enter_with("scatter_round", "c");
        let nodes_json = nodes_json(nodes);
        // Spawned scope threads do NOT inherit the thread-local trace
        // context — capture it here and re-install it inside each
        // worker, or the per-shard rpc_client spans (and the span
        // context injected into the wire lines) would silently vanish.
        let trace_id = imc_obs::trace::current_trace_id();
        let parent_span = imc_obs::trace::current_span_id();
        let scatter_start = Instant::now();
        // One thread per shard: ĉ gains are per-shard integers with no
        // cross-shard data flow, so the fan-out is embarrassingly
        // parallel and gather order does not matter.
        let results: Vec<Result<ShardCBatch, ClusterError>> = thread::scope(|scope| {
            let handles: Vec<_> = self
                .peers
                .iter_mut()
                .zip(&self.sessions)
                .zip(&self.addrs)
                .map(|((peer, &session), addr)| {
                    let line = eval_batch_line(session, "c", &nodes_json, None);
                    let trace_id = trace_id.clone();
                    let parent_span = parent_span.clone();
                    scope.spawn(move || {
                        let _ctx = trace_id.as_deref().map(|tid| {
                            imc_obs::trace::TraceCtx::enter_remote(tid, parent_span.as_deref())
                        });
                        let (resp, secs) = timed_session_rpc(peer, addr, &line, "eval_batch")?;
                        let gains = field_u64_array(&resp, "gains", peer)?;
                        let potentials = field_u64_array(&resp, "potentials", peer)?;
                        Ok((gains, potentials, secs))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard rpc thread panicked"))
                .collect()
        });
        let scatter_s = scatter_start.elapsed().as_secs_f64();

        let reduce_start = Instant::now();
        let mut gains = vec![0u64; nodes.len()];
        let mut potentials = vec![0u64; nodes.len()];
        let mut shard_seconds = Vec::with_capacity(self.peers.len());
        for result in results {
            match result {
                Ok((g, p, secs)) if g.len() == nodes.len() && p.len() == nodes.len() => {
                    for (total, part) in gains.iter_mut().zip(&g) {
                        *total += part;
                    }
                    for (total, part) in potentials.iter_mut().zip(&p) {
                        *total += part;
                    }
                    shard_seconds.push(secs);
                }
                Ok(_) => {
                    self.fail(ClusterError::Protocol {
                        addr: self.peers[0].addr(),
                        detail: format!(
                            "eval_batch returned a wrong-length gain vector (expected {})",
                            nodes.len()
                        ),
                    });
                    return neutral;
                }
                Err(e) => {
                    self.fail(e);
                    return neutral;
                }
            }
        }
        let reduce_s = reduce_start.elapsed().as_secs_f64();
        emit_round_attribution(
            "c",
            nodes.len(),
            &self.addrs,
            &shard_seconds,
            scatter_s,
            reduce_s,
        );
        (
            gains
                .into_iter()
                .zip(potentials)
                .map(|(g, p)| (g as usize, p as usize))
                .collect(),
            MapStats {
                shard_seconds,
                busy_fractions: Vec::new(),
            },
        )
    }

    fn eval_nu_batch(&mut self, nodes: &[u32]) -> (Vec<f64>, MapStats) {
        let neutral = (
            vec![0.0; nodes.len()],
            MapStats {
                shard_seconds: Vec::new(),
                busy_fractions: Vec::new(),
            },
        );
        if self.error.is_some() || nodes.is_empty() {
            return neutral;
        }
        obs::scatter_total().inc();
        let _round = imc_obs::Span::enter_with("scatter_round", "nu");
        let nodes_json = nodes_json(nodes);
        let round_start = Instant::now();
        // Sequential by necessity: shard i's fold starts from shard
        // i−1's accumulators (the non-associative ν_R carry chain).
        // Fields are destructured so the stashed error can be written
        // while the peer iterator is live.
        let ClusterSource {
            peers,
            addrs,
            sessions,
            error,
            ..
        } = self;
        let mut carry: Option<Vec<f64>> = None;
        let mut shard_seconds = Vec::with_capacity(peers.len());
        for ((peer, &session), addr) in peers.iter_mut().zip(sessions.iter()).zip(addrs.iter()) {
            let line = eval_batch_line(session, "nu", &nodes_json, carry.as_deref());
            let accs = match timed_session_rpc(peer, addr, &line, "eval_batch")
                .and_then(|(resp, secs)| Ok((field_f64_array(&resp, "accs", peer)?, secs)))
            {
                Ok((accs, secs)) if accs.len() == nodes.len() => {
                    shard_seconds.push(secs);
                    accs
                }
                Ok((accs, _)) => {
                    let failure = ClusterError::Protocol {
                        addr: peer.addr(),
                        detail: format!(
                            "eval_batch returned {} accumulators for {} nodes",
                            accs.len(),
                            nodes.len()
                        ),
                    };
                    error.get_or_insert(failure);
                    return neutral;
                }
                Err(e) => {
                    error.get_or_insert(e);
                    return neutral;
                }
            };
            carry = Some(accs);
        }
        // The ν carry chain *is* both scatter and reduce: shards run
        // sequentially, so the whole chain is scatter-wait and there is
        // no separate reduce step to attribute.
        emit_round_attribution(
            "nu",
            nodes.len(),
            addrs,
            &shard_seconds,
            round_start.elapsed().as_secs_f64(),
            0.0,
        );
        (
            carry.unwrap_or_else(|| vec![0.0; nodes.len()]),
            MapStats {
                shard_seconds,
                busy_fractions: Vec::new(),
            },
        )
    }

    fn window_cap(&self) -> usize {
        WINDOW_CAP
    }

    fn add_seed(&mut self, v: u32) {
        if self.error.is_some() {
            return;
        }
        let ClusterSource {
            peers,
            addrs,
            sessions,
            error,
            ..
        } = self;
        for ((peer, &session), addr) in peers.iter_mut().zip(sessions.iter()).zip(addrs.iter()) {
            let line = json::to_string(
                &ObjectBuilder::new()
                    .field("op", "eval_seed")
                    .field("session", session)
                    .field("node", v)
                    .build(),
            );
            if let Err(e) = timed_session_rpc(peer, addr, &line, "eval_seed") {
                error.get_or_insert(e);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_batch_line_is_byte_identical_to_the_builder() {
        let nodes = [7u32, 0, 4_000_000_000];
        let carry = [0.5f64, 3.0, 1e-17];
        for (kind, carry) in [("c", None), ("nu", None), ("nu", Some(&carry[..]))] {
            let mut built = ObjectBuilder::new()
                .field("op", "eval_batch")
                .field("session", 42u64)
                .field("kind", kind)
                .field("nodes", nodes.to_vec());
            if let Some(c) = carry {
                built = built.field("carry", c.to_vec());
            }
            assert_eq!(
                eval_batch_line(42, kind, &nodes_json(&nodes), carry),
                json::to_string(&built.build())
            );
        }
    }
}
