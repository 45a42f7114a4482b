//! [`ClusterSource`] — a [`GainSource`] whose marginal gains come from
//! remote shard daemons instead of a local [`CoverageState`].
//!
//! One instance wraps one `eval_begin` … `eval_end` session on every
//! shard. There is one reduction rule, and it is the whole trick:
//! **everything is an integer and sums**. ĉ_R gains and appearance
//! counts are per-sample counts, ν_R gains are sums of
//! per-sample Q32 terms ([`imc_core::nu_term`]), and the partitions are
//! disjoint — so element-wise sums across shards equal the single-node
//! values exactly, whatever order the shards are listed or answer in.
//! Every round — gain batch or seed commit — therefore goes to all shards
//! at once through one helper (`scatter_sum`), and a greedy run is one
//! gain round plus one commit per pick.
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

use imc_core::maxr::{GainSource, Objective};
use imc_obs::json::{self, ObjectBuilder, Value};
use imc_service::client::{ClusterError, PeerClient};
use imc_service::protocol::PROTOCOL_VERSION;

use imc_obs::families;

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
    families::CLUSTER_SHARD_RPC_DURATION.handle().observe(secs);
    families::CLUSTER_RPC_DURATION
        .with([op, addr])
        .observe(secs);
    if result.is_err() {
        families::CLUSTER_SHARD_ERRORS.handle().inc();
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

/// One shard's `eval_batch` line around the round's node array, which is
/// serialised once per round (`nodes_json`) instead of once per shard.
/// Keys are in the sorted order [`json::to_string`] writes, so the bytes
/// on the wire are the builder's.
fn eval_batch_line(session: u64, kind: &str, nodes_json: &str) -> String {
    format!(r#"{{"kind":"{kind}","nodes":{nodes_json},"op":"eval_batch","session":{session}}}"#)
}

fn nodes_json(nodes: &[u32]) -> String {
    json::to_string(&Value::from(nodes.to_vec()))
}

/// What one [`ClusterSource::scatter_sum`] round gathered.
struct Scattered {
    /// The element-wise sum of the shards' arrays (empty for a round that
    /// asked for none).
    sums: Vec<u64>,
    /// Each shard's RPC wall time, in shard order.
    shard_seconds: Vec<f64>,
    /// Wall seconds of the fan-out (slowest shard plus spawn and join).
    scatter_s: f64,
    /// Wall seconds of the coordinator-side sum.
    reduce_s: f64,
}

/// A scatter-gather [`GainSource`] over one open eval session per shard.
///
/// Construct with [`ClusterSource::open`], run the engine over it
/// ([`greedy_over`](imc_core::maxr::engine::greedy_over)), then *always*
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
        // Stamped so a v2 shard, whose ν answers are `f64` folds that must
        // not be summed, refuses the session instead of serving it.
        let mut line = ObjectBuilder::new()
            .field("op", "eval_begin")
            .field("v", PROTOCOL_VERSION);
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

    /// The one scatter-gather: sends `line_for(session)` to every shard at
    /// once (the first from this thread, the rest from one scoped thread
    /// each — the shards share no data, so gather order is irrelevant) and
    /// sums, element-wise across shards, the `len`-long integer array each
    /// reply holds under `key` (`None`: the replies carry nothing to sum).
    /// On any failure the first error in shard order is stashed and
    /// `None` returned; a reply of the wrong shape is blamed on the shard
    /// that sent it.
    fn scatter_sum(
        &mut self,
        op: &'static str,
        line_for: impl Fn(u64) -> String,
        key: Option<&str>,
        len: usize,
    ) -> Option<Scattered> {
        // Spawned scope threads do NOT inherit the thread-local trace
        // context — capture it here and re-install it inside each call
        // (a no-op for the one that runs on this thread), or the
        // per-shard rpc_client spans (and the span context injected into
        // the wire lines) would silently vanish.
        let trace_id = imc_obs::trace::current_trace_id();
        let parent_span = imc_obs::trace::current_span_id();
        let scatter_start = Instant::now();
        type Reply = Result<(Vec<u64>, f64), ClusterError>;
        let replies: Vec<Reply> = thread::scope(|scope| {
            let mut calls = self
                .peers
                .iter_mut()
                .zip(&self.sessions)
                .zip(&self.addrs)
                .map(|((peer, &session), addr)| {
                    let line = line_for(session);
                    let (trace_id, parent_span) = (trace_id.clone(), parent_span.clone());
                    move || {
                        let _ctx = trace_id.as_deref().map(|tid| {
                            imc_obs::trace::TraceCtx::enter_remote(tid, parent_span.as_deref())
                        });
                        let (resp, secs) = timed_session_rpc(peer, addr, &line, op)?;
                        let Some(key) = key else {
                            return Ok((Vec::new(), secs));
                        };
                        let array = field_u64_array(&resp, key, peer)?;
                        if array.len() != len {
                            return Err(ClusterError::Protocol {
                                addr: peer.addr(),
                                detail: format!(
                                    "{op} returned {} `{key}` for {len} nodes",
                                    array.len()
                                ),
                            });
                        }
                        Ok((array, secs))
                    }
                });
            // The first shard's call runs here while the others' are in
            // flight on their own threads: one spawn fewer per round, and
            // none at all on a single shard.
            let first = calls.next();
            let handles: Vec<_> = calls.map(|call| scope.spawn(call)).collect();
            let mut replies = Vec::with_capacity(handles.len() + 1);
            replies.extend(first.map(|mut call| call()));
            let joined = handles
                .into_iter()
                .map(|h| h.join().expect("shard rpc thread panicked"));
            replies.extend(joined);
            replies
        });
        let scatter_s = scatter_start.elapsed().as_secs_f64();

        let reduce_start = Instant::now();
        let mut sums = vec![0u64; len];
        let mut shard_seconds = Vec::with_capacity(replies.len());
        for (reply, peer) in replies.into_iter().zip(self.peers.iter()) {
            let summed = reply.and_then(|(array, secs)| {
                shard_seconds.push(secs);
                for (total, part) in sums.iter_mut().zip(&array) {
                    *total = total
                        .checked_add(*part)
                        .ok_or_else(|| ClusterError::Protocol {
                            addr: peer.addr(),
                            detail: format!("{op} reply overflows the 64-bit sum"),
                        })?;
                }
                Ok(())
            });
            if let Err(e) = summed {
                self.fail(e);
                return None;
            }
        }
        Some(Scattered {
            sums,
            shard_seconds,
            scatter_s,
            reduce_s: reduce_start.elapsed().as_secs_f64(),
        })
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

    /// One scatter round: every shard's gains for `nodes` under its own
    /// partition, summed — or zeros once a shard has failed.
    fn eval_batch(&mut self, objective: Objective, nodes: &[u32]) -> Vec<u64> {
        if self.error.is_some() || nodes.is_empty() {
            return vec![0; nodes.len()];
        }
        let (kind, key) = match objective {
            Objective::C => ("c", "gains"),
            Objective::Nu => ("nu", "accs"),
        };
        families::CLUSTER_SCATTER.handle().inc();
        let _round = imc_obs::Span::enter_with("scatter_round", kind);
        let nodes_json = nodes_json(nodes);
        let line_for = |session| eval_batch_line(session, kind, &nodes_json);
        let Some(round) = self.scatter_sum("eval_batch", line_for, Some(key), nodes.len()) else {
            return vec![0; nodes.len()];
        };
        emit_round_attribution(
            kind,
            nodes.len(),
            &self.addrs,
            &round.shard_seconds,
            round.scatter_s,
            round.reduce_s,
        );
        round.sums
    }

    /// Commits the seed on every shard at once: each shard's gain-table
    /// maintenance (where its evaluation compute now sits) runs
    /// concurrently with the others'.
    fn add_seed(&mut self, v: u32) {
        if self.error.is_some() {
            return;
        }
        let line_for = |session| {
            json::to_string(
                &ObjectBuilder::new()
                    .field("op", "eval_seed")
                    .field("session", session)
                    .field("node", v)
                    .build(),
            )
        };
        self.scatter_sum("eval_seed", line_for, None, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_service::client::{ClientConfig, RetryPolicy};
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpListener};

    #[test]
    fn eval_batch_line_is_byte_identical_to_the_builder() {
        let nodes = [7u32, 0, 4_000_000_000];
        for kind in ["c", "nu"] {
            let built = ObjectBuilder::new()
                .field("op", "eval_batch")
                .field("session", 42u64)
                .field("kind", kind)
                .field("nodes", nodes.to_vec());
            assert_eq!(
                eval_batch_line(42, kind, &nodes_json(&nodes)),
                json::to_string(&built.build())
            );
        }
    }

    /// A one-connection fake shard over a two-node graph whose every
    /// `eval_batch` reply carries a `gains` array of `reply_len` entries
    /// (none at all for `None`).
    fn fake_shard(reply_len: Option<usize>) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let line = line.unwrap();
                let body = if line.contains("eval_begin") {
                    ObjectBuilder::new()
                        .field("session", 1u64)
                        .field("generation", 0u64)
                        .field("samples", 1u64)
                        .field("appearance", vec![1u64, 1])
                        .field("communities", vec![1u64])
                } else {
                    match reply_len {
                        Some(len) => ObjectBuilder::new().field("gains", vec![1u64; len]),
                        None => ObjectBuilder::new(),
                    }
                };
                let reply = json::to_string(&body.field("ok", true).build());
                writeln!(writer, "{reply}").unwrap();
            }
        });
        (addr, handle)
    }

    /// A reply whose `gains` is the wrong length — or missing — is blamed
    /// on the shard that sent it (it used to be pinned on shard 0 whoever
    /// sent it), and later rounds answer neutral zeros.
    #[test]
    fn a_wrong_length_reply_names_the_shard_that_sent_it() {
        for (bad_reply, complaint) in [
            (Some(3), "3 `gains` for 2 nodes"),
            (None, "missing integer array field `gains`"),
        ] {
            let (good, good_thread) = fake_shard(Some(2));
            let (bad, bad_thread) = fake_shard(bad_reply);
            let mut peers: Vec<PeerClient> = [good, bad]
                .iter()
                .map(|&addr| PeerClient::new(addr, ClientConfig::default(), RetryPolicy::none()))
                .collect();
            let mut source = ClusterSource::open(&mut peers, None).unwrap();
            assert_eq!(source.eval_batch(Objective::C, &[0, 1]), vec![0; 2]);
            match source.take_error() {
                Some(ClusterError::Protocol { addr, detail }) => {
                    assert_eq!(addr, bad, "{detail}");
                    assert!(detail.contains(complaint), "{detail}");
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
            drop(source);
            drop(peers);
            good_thread.join().unwrap();
            bad_thread.join().unwrap();
        }
    }
}
