//! The ladder's rungs as deployments: the same instance and sampling plan
//! stood up in-process, behind one daemon, or behind a two-shard cluster,
//! each driven through the one [`Session`] interface so a row differs
//! from its neighbour by exactly one layer.
//!
//! Only public, non-deprecated APIs are used (`RicStore`,
//! `MaxrAlgorithm::solve`, `ServiceState`, `Server`, `client::Client`,
//! `Coordinator`): see the README's pinned-API list.

use crate::spans::{id_of, Recorder};
use crate::workload::{build_instance, Spec};
use imc_cluster::{Coordinator, CoordinatorConfig};
use imc_core::{ImcInstance, MaxrAlgorithm, RicStore, SolveRequest};
use imc_graph::NodeId;
use imc_service::client::Client;
use imc_service::json::Value;
use imc_service::{ServeConfig, Server, ServerHandle, ServiceState};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side I/O timeout: far above any healthy request, so a timeout
/// is a failure, not a measurement.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Which rung a deployment is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungKind {
    /// In-process calls on an `Arc<RicStore>`.
    Local,
    /// One `imc-service` daemon over TCP NDJSON.
    Daemon,
    /// `shards` shard daemons behind an `imc-cluster` coordinator.
    Cluster {
        /// Partitions of the sampling plan.
        shards: usize,
    },
}

impl RungKind {
    /// Worker threads of one daemon of this rung. A worker is held per
    /// connection for its lifetime: the daemon serves the solve
    /// connection plus every concurrent estimate client; a shard serves
    /// one connection per coordinator connection, plus probes and health.
    fn workers_per_daemon(self, client_concurrency: usize) -> usize {
        match self {
            RungKind::Local => 0,
            RungKind::Daemon => client_concurrency + 1,
            RungKind::Cluster { .. } => client_concurrency + 3,
        }
    }

    /// Server worker threads across every daemon of the rung.
    pub fn server_threads(self, client_concurrency: usize) -> usize {
        let daemons = match self {
            RungKind::Cluster { shards } => shards,
            _ => 1,
        };
        daemons * self.workers_per_daemon(client_concurrency)
    }

    /// Span names of this rung's solve and estimate calls.
    fn label(self) -> (&'static str, &'static str) {
        match self {
            RungKind::Local => ("local.solve", "local.estimate"),
            RungKind::Daemon => ("daemon.solve", "daemon.estimate"),
            RungKind::Cluster { .. } => ("cluster.solve", "cluster.estimate"),
        }
    }
}

/// What a deployment is built from.
#[derive(Debug, Clone)]
pub struct Plan<'a> {
    /// Workload sizes.
    pub spec: &'a Spec,
    /// Dataset seed.
    pub dataset_seed: u64,
    /// `base_seed` of the sampling plan.
    pub sampling_seed: u64,
    /// Sampling threads.
    pub sampling_workers: usize,
    /// Concurrent estimate clients the deployment must admit.
    pub client_concurrency: usize,
    /// The daemon rung cold-starts from this v3 snapshot (written
    /// untimed beforehand).
    pub snapshot: Option<&'a Path>,
}

/// The answer to one solve, from whichever rung.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Chosen seeds.
    pub seeds: Vec<u32>,
    /// Engine evaluations.
    pub evaluations: u64,
    /// `ĉ_R` of the seeds.
    pub estimate: f64,
    /// Samples the seeds influence.
    pub influenced_samples: u64,
}

impl SolveOutcome {
    /// The fields of an in-process solve report the rungs are compared on.
    pub fn from_report(report: &imc_core::SolveReport) -> SolveOutcome {
        SolveOutcome {
            seeds: report.seeds.iter().map(|v| v.raw()).collect(),
            evaluations: report.evaluations,
            estimate: report.estimate,
            influenced_samples: report.influenced_samples as u64,
        }
    }
}

/// The answer to one estimate request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReply {
    /// `ĉ_R(S)`.
    pub estimate: f64,
    /// `ν_R(S)`.
    pub nu_estimate: f64,
    /// Samples `S` influences.
    pub influenced_samples: u64,
}

impl EstimateReply {
    /// The three estimators straight from a store: what the daemon's
    /// handler computes, and the oracle replies are checked against.
    pub fn from_store(store: &RicStore, seeds: &[NodeId]) -> EstimateReply {
        EstimateReply {
            estimate: store.estimate(seeds),
            nu_estimate: store.nu_estimate(seeds),
            influenced_samples: store.influenced_count(seeds) as u64,
        }
    }

    /// Bitwise equality (`==` on the floats would also accept `-0.0`).
    pub fn bitwise_eq(&self, other: &EstimateReply) -> bool {
        self.estimate.to_bits() == other.estimate.to_bits()
            && self.nu_estimate.to_bits() == other.nu_estimate.to_bits()
            && self.influenced_samples == other.influenced_samples
    }
}

/// A running rung.
pub struct Deployment {
    kind: RungKind,
    instance: Arc<ImcInstance>,
    /// Local rung only: the store under test.
    store: Option<Arc<RicStore>>,
    /// Daemon rung only: the state the server serves from.
    state: Option<Arc<ServiceState>>,
    /// Daemon: the server; cluster: the shards, in partition order.
    servers: Vec<ServerHandle>,
    coordinator: Option<imc_cluster::CoordinatorHandle>,
    /// Where remote sessions connect.
    addr: Option<SocketAddr>,
}

/// One caller's handle on a deployment (a TCP connection, or borrowed
/// in-process state). Sessions are cheap; each client thread opens its own.
pub enum Session<'d> {
    /// In-process.
    Local {
        /// The instance.
        instance: &'d ImcInstance,
        /// The store.
        store: &'d Arc<RicStore>,
    },
    /// Over TCP NDJSON.
    Remote {
        /// Open connection.
        client: Client,
        /// Rung, for span names.
        kind: RungKind,
    },
}

/// A failed operation: counted into `failed`, never timed.
#[derive(Debug)]
pub struct OpError(pub String);

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn io_err(context: &str, e: std::io::Error) -> OpError {
    OpError(format!("{context}: {e}"))
}

/// Draws the full sampling plan into one store.
pub fn draw_store(
    instance: &ImcInstance,
    samples: usize,
    base_seed: u64,
    workers: usize,
) -> RicStore {
    let sampler = instance.sampler();
    let mut store = RicStore::for_sampler(&sampler);
    store.extend_parallel_with_workers(&sampler, samples, base_seed, workers);
    store
}

fn start_daemon(state: Arc<ServiceState>, workers: usize) -> std::io::Result<ServerHandle> {
    Server::start(
        state,
        ServeConfig {
            workers,
            refresh: None,
            ..ServeConfig::default()
        },
    )
}

impl Deployment {
    /// Cold-starts a rung and returns it with the seconds that took: from
    /// nothing (the instance is rebuilt too) to the first ready reply.
    pub fn start(kind: RungKind, plan: &Plan<'_>) -> Result<(Deployment, f64), OpError> {
        let started = Instant::now();
        let instance = build_instance(plan.spec, plan.dataset_seed);
        let deployment = match kind {
            RungKind::Local => {
                let store = draw_store(
                    &instance,
                    plan.spec.samples,
                    plan.sampling_seed,
                    plan.sampling_workers,
                );
                Deployment {
                    kind,
                    instance: Arc::new(instance),
                    store: Some(Arc::new(store)),
                    state: None,
                    servers: Vec::new(),
                    coordinator: None,
                    addr: None,
                }
            }
            RungKind::Daemon => {
                let path = plan
                    .snapshot
                    .ok_or_else(|| OpError("daemon rung needs a snapshot".into()))?;
                let state = Arc::new(
                    ServiceState::from_snapshot_path(instance.clone(), path)
                        .map_err(|e| OpError(format!("snapshot load: {e}")))?,
                );
                let workers = kind.workers_per_daemon(plan.client_concurrency);
                let server = start_daemon(Arc::clone(&state), workers)
                    .map_err(|e| io_err("daemon start", e))?;
                let addr = server.addr();
                Deployment {
                    kind,
                    instance: Arc::new(instance),
                    store: None,
                    state: Some(state),
                    servers: vec![server],
                    coordinator: None,
                    addr: Some(addr),
                }
            }
            RungKind::Cluster { shards } => {
                let sampler = instance.sampler();
                let mut servers = Vec::with_capacity(shards);
                for partition in 0..shards {
                    let mut store = RicStore::for_sampler(&sampler);
                    store.extend_partition(
                        &sampler,
                        plan.spec.samples,
                        plan.sampling_seed,
                        partition,
                        shards,
                        plan.sampling_workers,
                    );
                    let state = Arc::new(ServiceState::new(instance.clone(), store, 0));
                    let workers = kind.workers_per_daemon(plan.client_concurrency);
                    let server =
                        start_daemon(state, workers).map_err(|e| io_err("shard start", e))?;
                    servers.push(server);
                }
                let instance = Arc::new(instance);
                let coordinator = Coordinator::start(
                    Arc::clone(&instance),
                    CoordinatorConfig {
                        shards: servers.iter().map(ServerHandle::addr).collect(),
                        ..CoordinatorConfig::default()
                    },
                )
                .map_err(|e| io_err("coordinator start", e))?;
                let addr = coordinator.addr();
                Deployment {
                    kind,
                    instance,
                    store: None,
                    state: None,
                    servers,
                    coordinator: Some(coordinator),
                    addr: Some(addr),
                }
            }
        };
        // On failure the deployment is dropped, which stops it.
        deployment.first_ready_reply(plan.spec.samples)?;
        Ok((deployment, started.elapsed().as_secs_f64()))
    }

    /// The readiness probe that ends set-up: a `health` reply reporting
    /// the whole plan (remote rungs), or the store's length (local).
    fn first_ready_reply(&self, samples: usize) -> Result<(), OpError> {
        let served = match self.session()? {
            Session::Local { store, .. } => store.len() as u64,
            Session::Remote { mut client, .. } => {
                let reply = client
                    .request(r#"{"op":"health"}"#)
                    .map_err(|e| io_err("health", e))?;
                reply.get("samples").and_then(Value::as_u64).unwrap_or(0)
            }
        };
        if served == samples as u64 {
            Ok(())
        } else {
            Err(OpError(format!(
                "deployment serves {served} samples, plan has {samples}"
            )))
        }
    }

    /// The instance this deployment was built over.
    pub fn instance(&self) -> &ImcInstance {
        &self.instance
    }

    /// Daemon rung: the very `Arc<RicStore>` the server answers from, so
    /// an in-process call can be timed on the same memory.
    pub fn served_store(&self) -> Option<Arc<RicStore>> {
        self.state.as_ref().map(|state| state.collection())
    }

    /// Opens a caller's handle.
    pub fn session(&self) -> Result<Session<'_>, OpError> {
        match (&self.store, self.addr) {
            (Some(store), _) => Ok(Session::Local {
                instance: &self.instance,
                store,
            }),
            (None, Some(addr)) => Ok(Session::Remote {
                client: Client::connect(addr, CLIENT_TIMEOUT).map_err(|e| io_err("connect", e))?,
                kind: self.kind,
            }),
            (None, None) => Err(OpError("deployment has neither store nor address".into())),
        }
    }
}

/// Dropping a deployment stops every thread it started and waits for them
/// (coordinator first, so no request is in flight when the shards stop).
impl Drop for Deployment {
    fn drop(&mut self) {
        if let Some(coordinator) = self.coordinator.take() {
            coordinator.stop_and_join();
        }
        for server in self.servers.drain(..) {
            server.stop_and_join();
        }
    }
}

fn u32_list(value: Option<&Value>) -> Option<Vec<u32>> {
    value?
        .as_array()?
        .iter()
        .map(|v| v.as_u64().and_then(|n| u32::try_from(n).ok()))
        .collect()
}

fn check_ok(reply: &Value) -> Result<(), OpError> {
    if reply.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(OpError(format!(
            "request refused: {}",
            imc_service::json::to_string(reply)
        )))
    }
}

/// Sends one request line and returns the parsed, accepted reply; the
/// socket round trip and the reply parse get their own spans.
fn remote_call(
    client: &mut Client,
    line: &str,
    recorder: &Recorder,
    parent: u64,
    op: u64,
) -> Result<Value, OpError> {
    let text = {
        let _io = recorder.span("client.round_trip", parent, op);
        client
            .request_line(line)
            .map_err(|e| io_err("request", e))?
    };
    let _parse = recorder.span("client.parse_reply", parent, op);
    let reply = imc_service::json::parse(&text).map_err(|e| OpError(format!("reply: {e}")))?;
    check_ok(&reply)?;
    Ok(reply)
}

/// The NDJSON line of one estimate request.
pub fn estimate_line(seeds: &[u32]) -> String {
    let ids: Vec<String> = seeds.iter().map(u32::to_string).collect();
    format!(r#"{{"op":"estimate","seeds":[{}]}}"#, ids.join(","))
}

/// The NDJSON line of one UBG solve request.
pub fn solve_line(k: usize, seed: u64) -> String {
    format!(r#"{{"op":"solve","algo":"ubg","k":{k},"seed":{seed}}}"#)
}

impl Session<'_> {
    /// One `k`-seed UBG solve. `parent`/`op` place the benchmark's span.
    pub fn solve(
        &mut self,
        k: usize,
        seed: u64,
        recorder: &Recorder,
        parent: u64,
        op: u64,
    ) -> Result<SolveOutcome, OpError> {
        match self {
            Session::Local { instance, store } => {
                let _span = recorder.span(RungKind::Local.label().0, parent, op);
                let report = MaxrAlgorithm::Ubg
                    .solve(instance, &**store, &SolveRequest::new(k).with_seed(seed))
                    .map_err(|e| OpError(format!("solve: {e}")))?;
                Ok(SolveOutcome::from_report(&report))
            }
            Session::Remote { client, kind } => {
                let span = recorder.span(kind.label().0, parent, op);
                let reply = remote_call(client, &solve_line(k, seed), recorder, id_of(&span), op)?;
                let field = |name: &str| {
                    reply
                        .get(name)
                        .ok_or_else(|| OpError(format!("solve reply lacks `{name}`")))
                };
                Ok(SolveOutcome {
                    seeds: u32_list(reply.get("seeds"))
                        .ok_or_else(|| OpError("solve reply lacks `seeds`".into()))?,
                    evaluations: field("evaluations")?.as_u64().unwrap_or(0),
                    estimate: field("estimate")?.as_f64().unwrap_or(f64::NAN),
                    influenced_samples: field("influenced_samples")?.as_u64().unwrap_or(0),
                })
            }
        }
    }

    /// One estimate request. In-process this is exactly the computation
    /// the daemon's handler runs for the op.
    pub fn estimate(
        &mut self,
        seeds: &[u32],
        recorder: &Recorder,
        parent: u64,
        op: u64,
    ) -> Result<EstimateReply, OpError> {
        match self {
            Session::Local { store, .. } => {
                let _span = recorder.span(RungKind::Local.label().1, parent, op);
                let ids: Vec<NodeId> = seeds.iter().map(|&v| NodeId::new(v)).collect();
                Ok(EstimateReply::from_store(store, &ids))
            }
            Session::Remote { client, kind } => {
                let span = recorder.span(kind.label().1, parent, op);
                let reply = remote_call(client, &estimate_line(seeds), recorder, id_of(&span), op)?;
                let number = |name: &str| {
                    reply
                        .get(name)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| OpError(format!("estimate reply lacks `{name}`")))
                };
                Ok(EstimateReply {
                    estimate: number("estimate")?,
                    nu_estimate: number("nu_estimate")?,
                    influenced_samples: reply
                        .get("influenced_samples")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| {
                            OpError("estimate reply lacks `influenced_samples`".into())
                        })?,
                })
            }
        }
    }

    /// One `ping` round trip (remote rungs): the transport floor.
    pub fn ping(&mut self) -> Result<(), OpError> {
        match self {
            Session::Local { .. } => Ok(()),
            Session::Remote { client, .. } => {
                let reply = client
                    .request(r#"{"op":"ping"}"#)
                    .map_err(|e| io_err("ping", e))?;
                check_ok(&reply)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_with_the_program_s_own_protocol() {
        use imc_service::protocol::{parse_request, Request};
        match parse_request(&solve_line(25, 99)).unwrap() {
            Request::Solve {
                k,
                seed,
                algo,
                imcaf,
                ..
            } => {
                assert_eq!((k, seed), (25, 99));
                assert_eq!(algo, MaxrAlgorithm::Ubg);
                assert!(imcaf.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_request(&estimate_line(&[3, 17, 42])).unwrap() {
            Request::Estimate { seeds } => {
                assert_eq!(
                    seeds,
                    vec![NodeId::new(3), NodeId::new(17), NodeId::new(42)]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bitwise_reply_comparison_is_strict() {
        let a = EstimateReply {
            estimate: 0.0,
            nu_estimate: 1.5,
            influenced_samples: 3,
        };
        let mut b = a;
        assert!(a.bitwise_eq(&b));
        b.estimate = -0.0;
        assert!(!a.bitwise_eq(&b));
    }
}
