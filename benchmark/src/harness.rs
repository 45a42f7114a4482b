//! What both kinds of run share: untimed preparation (instance, reference
//! store, reference answer, request stream), the timed operations with
//! their correctness gates, and the closed-loop estimate phases.

use crate::env;
use crate::rung::{
    draw_store, Deployment, EstimateReply, OpError, Plan, RungKind, Session, SolveOutcome,
};
use crate::spans::Recorder;
use crate::workload::{
    build_instance, request_stream, Seeds, Spec, Workload, IMCAF_DELTA, IMCAF_EPSILON,
};
use imc_core::{
    imcaf_with_trace, ImcInstance, ImcafConfig, MaxrAlgorithm, RicStore, SolveRequest,
    SolveStrategy, StopReason,
};
use imc_graph::NodeId;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Every this-many-th estimate reply is compared bitwise with the
/// reference store.
pub const CHECK_EVERY: usize = 100;

/// What one invocation was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Measurement budget: cycles continue until this much wall time has
    /// been measured, but never stop below the workload's minima.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub traced: bool,
    /// A-twentieth scale: walks every code path, reports no metrics.
    pub smoke: bool,
}

/// Operations attempted and failed (solves and estimates together).
#[derive(Debug, Default)]
pub struct Counts {
    attempted: AtomicU64,
    failed: AtomicU64,
    first_failure: Mutex<Option<String>>,
}

impl Counts {
    /// Counts one attempted operation.
    pub fn attempt(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed or refused operation, keeping the first reason.
    pub fn fail(&self, why: impl Into<String>) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut first) = self.first_failure.lock() {
            first.get_or_insert_with(|| why.into());
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Why the first failure happened.
    pub fn first_failure(&self) -> Option<String> {
        self.first_failure.lock().ok().and_then(|f| f.clone())
    }
}

/// What an IMCAF run reported besides its seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ImcafSummary {
    /// Stop-stage rounds.
    pub rounds: usize,
    /// Samples in the final collection.
    pub samples_used: usize,
    /// Rounds whose Λ check-point fired.
    pub checked_rounds: usize,
    /// Whether the run ended by convergence.
    pub converged: bool,
}

/// One timed solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSample {
    /// Wall seconds.
    pub seconds: f64,
    /// The answer.
    pub outcome: SolveOutcome,
    /// IMCAF bookkeeping (`imcaf-wide`, and the ledger's IMCAF probe).
    pub imcaf: Option<ImcafSummary>,
}

/// Everything prepared before measurement starts.
pub struct Harness {
    /// The invocation.
    pub config: RunConfig,
    /// Workload sizes.
    pub spec: Spec,
    /// Input seeds.
    pub seeds: Seeds,
    /// Hardware threads.
    pub nproc: usize,
    /// Concurrent estimate clients, `min(nproc, 4)`.
    pub concurrency: usize,
    /// The instance (reference copy; deployments rebuild their own).
    pub instance: ImcInstance,
    /// The whole sampling plan in one store: the oracle for every gate.
    pub reference_store: Arc<RicStore>,
    /// Ladder: the untimed in-process reference solve.
    pub reference: Option<SolveOutcome>,
    /// The answer the request stream perturbs (reference seeds, or the
    /// first IMCAF answer).
    pub answer: Option<Vec<NodeId>>,
    /// The estimate request stream (set once `answer` is).
    pub stream: Vec<Vec<u32>>,
    /// Next unread stream position.
    pub cursor: AtomicUsize,
    /// Daemon rung: the v3 snapshot written beforehand.
    pub snapshot: Option<PathBuf>,
    /// Attempt / failure ledger.
    pub counts: Counts,
    /// The benchmark's spans (disabled on the end-to-end run).
    pub recorder: Recorder,
}

/// Runs IMCAF(UBG, ε = δ = 0.2) in-process, timed.
pub fn run_imcaf(instance: &ImcInstance, k: usize, seed: u64) -> Result<SolveSample, OpError> {
    let config = ImcafConfig {
        k,
        epsilon: IMCAF_EPSILON,
        delta: IMCAF_DELTA,
        max_samples: 1 << 20,
        strategy: SolveStrategy::Lazy,
    };
    let started = Instant::now();
    let (result, rounds) = imcaf_with_trace(instance, MaxrAlgorithm::Ubg, &config, seed)
        .map_err(|e| OpError(format!("imcaf: {e}")))?;
    let seconds = started.elapsed().as_secs_f64();
    Ok(SolveSample {
        seconds,
        outcome: SolveOutcome {
            seeds: result.seeds.iter().map(|v| v.raw()).collect(),
            evaluations: 0,
            estimate: result.estimate,
            influenced_samples: 0,
        },
        imcaf: Some(ImcafSummary {
            rounds: result.rounds,
            samples_used: result.samples_used,
            checked_rounds: rounds.iter().filter(|r| r.checked).count(),
            converged: result.stop_reason == StopReason::Converged,
        }),
    })
}

impl Harness {
    /// Untimed preparation for `config`.
    pub fn prepare(config: RunConfig) -> Result<Harness, OpError> {
        let spec = Spec::of(config.workload, config.smoke);
        let seeds = Seeds::from_workload_seed(config.seed);
        let nproc = env::nproc();
        let concurrency = nproc.min(4);
        let instance = build_instance(&spec, seeds.dataset);
        let reference_store = Arc::new(draw_store(&instance, spec.samples, seeds.sampling, nproc));

        let reference = if config.workload.is_ladder() {
            let report = MaxrAlgorithm::Ubg
                .solve(
                    &instance,
                    &*reference_store,
                    &SolveRequest::new(spec.k).with_seed(seeds.solve),
                )
                .map_err(|e| OpError(format!("reference solve: {e}")))?;
            Some(SolveOutcome::from_report(&report))
        } else {
            None
        };

        // The ledger run stands every rung up, so it needs the snapshot
        // whichever workload it runs.
        let snapshot = if config.workload == Workload::LadderDaemon || config.traced {
            let dir = env::out_dir().join("tmp");
            std::fs::create_dir_all(&dir).map_err(|e| OpError(format!("create {dir:?}: {e}")))?;
            let path = dir.join(format!(
                "{}-{}.snap",
                config.workload.name(),
                std::process::id()
            ));
            let fingerprint =
                imc_core::snapshot::instance_fingerprint(instance.graph(), instance.communities());
            imc_core::snapshot::save(&path, &*reference_store, fingerprint, 0)
                .map_err(|e| OpError(format!("snapshot save: {e}")))?;
            Some(path)
        } else {
            None
        };

        let mut harness = Harness {
            recorder: Recorder::new(config.traced),
            config,
            spec,
            seeds,
            nproc,
            concurrency,
            instance,
            reference_store,
            reference,
            answer: None,
            stream: Vec::new(),
            cursor: AtomicUsize::new(0),
            snapshot,
            counts: Counts::default(),
        };
        if let Some(reference) = harness.reference.clone() {
            harness.set_answer(&reference.seeds);
        }
        Ok(harness)
    }

    /// The rung this workload measures end to end.
    pub fn rung(&self) -> RungKind {
        match self.config.workload {
            Workload::LadderLocal | Workload::ImcafWide => RungKind::Local,
            Workload::LadderDaemon => RungKind::Daemon,
            Workload::LadderCluster => RungKind::Cluster { shards: 2 },
        }
    }

    /// The deployment recipe shared by every rung of this run.
    pub fn plan(&self) -> Plan<'_> {
        Plan {
            spec: &self.spec,
            dataset_seed: self.seeds.dataset,
            sampling_seed: self.seeds.sampling,
            sampling_workers: self.nproc,
            client_concurrency: self.concurrency,
            snapshot: self.snapshot.as_deref(),
        }
    }

    /// Fixes the answer the request stream perturbs and generates the
    /// stream. Long enough for any run: positions wrap around.
    pub fn set_answer(&mut self, seeds: &[u32]) {
        let answer: Vec<NodeId> = seeds.iter().map(|&v| NodeId::new(v)).collect();
        // Sixteen slices of each kind; beyond that positions wrap.
        let count = self.spec.warmups + (self.spec.estimates_c1 + self.spec.estimates_cn) * 16;
        self.stream = request_stream(
            &answer,
            self.instance.node_count(),
            count,
            self.seeds.stream,
        );
        self.answer = Some(answer);
        self.cursor.store(0, Ordering::Relaxed);
    }

    /// The next `count` stream positions (wrapping).
    pub fn take_requests(&self, count: usize) -> Vec<(usize, Vec<u32>)> {
        assert!(
            !self.stream.is_empty(),
            "request stream needs an answer first"
        );
        let first = self.cursor.fetch_add(count, Ordering::Relaxed);
        (first..first + count)
            .map(|index| (index, self.stream[index % self.stream.len()].clone()))
            .collect()
    }

    /// One timed solve at `deployment`'s rung — the workload's own kind
    /// of solve (`imcaf-wide`: one full IMCAF run) — gated against the
    /// reference. A failed or diverging solve counts as failed and
    /// returns `None`; it is never timed into a metric.
    pub fn timed_solve(
        &mut self,
        deployment: &Deployment,
        session: &mut Session<'_>,
        parent: u64,
    ) -> Option<SolveSample> {
        self.counts.attempt();
        let op = self.recorder.new_op();
        let result = if self.config.workload == Workload::ImcafWide {
            let _span = self.recorder.span("local.imcaf", parent, op);
            run_imcaf(deployment.instance(), self.spec.k, self.seeds.solve)
        } else {
            let started = Instant::now();
            session
                .solve(self.spec.k, self.seeds.solve, &self.recorder, parent, op)
                .map(|outcome| SolveSample {
                    seconds: started.elapsed().as_secs_f64(),
                    outcome,
                    imcaf: None,
                })
        };
        let sample = match result {
            Ok(sample) => sample,
            Err(e) => {
                self.counts.fail(e.to_string());
                return None;
            }
        };
        if let Err(why) = self.gate_solve(&sample) {
            self.counts.fail(why);
            return None;
        }
        if self.answer.is_none() {
            self.set_answer(&sample.outcome.seeds);
        }
        Some(sample)
    }

    /// The solve gate: ladder rungs must reproduce the reference seeds
    /// and evaluation count bit for bit; IMCAF must converge and return
    /// the same seeds every repetition.
    fn gate_solve(&self, sample: &SolveSample) -> Result<(), String> {
        if let Some(reference) = &self.reference {
            if sample.outcome.seeds != reference.seeds {
                return Err(format!(
                    "seeds diverged from the in-process reference: {:?} vs {:?}",
                    sample.outcome.seeds, reference.seeds
                ));
            }
            if sample.outcome.evaluations != reference.evaluations {
                return Err(format!(
                    "evaluations diverged from the reference: {} vs {}",
                    sample.outcome.evaluations, reference.evaluations
                ));
            }
        }
        if let Some(imcaf) = &sample.imcaf {
            if !imcaf.converged {
                return Err("IMCAF did not stop Converged".to_string());
            }
            if let Some(answer) = &self.answer {
                let previous: Vec<u32> = answer.iter().map(|v| v.raw()).collect();
                if previous != sample.outcome.seeds {
                    return Err("IMCAF seeds changed between repetitions".to_string());
                }
            }
        }
        Ok(())
    }

    /// Checks one estimate reply bitwise against the reference store.
    fn reply_matches_reference(&self, seeds: &[u32], reply: &EstimateReply) -> bool {
        let ids: Vec<NodeId> = seeds.iter().map(|&v| NodeId::new(v)).collect();
        EstimateReply::from_store(&self.reference_store, &ids).bitwise_eq(reply)
    }

    /// One counted, gated estimate request: its latency in microseconds,
    /// or `None` when it failed or (every [`CHECK_EVERY`]-th request) its
    /// reply differs from the reference store.
    fn one_estimate(
        &self,
        session: &mut Session<'_>,
        (index, seeds): &(usize, Vec<u32>),
        parent: u64,
    ) -> Option<f64> {
        self.counts.attempt();
        let op = self.recorder.new_op();
        let started = Instant::now();
        match session.estimate(seeds, &self.recorder, parent, op) {
            Ok(reply) => {
                let micros = started.elapsed().as_secs_f64() * 1e6;
                if index % CHECK_EVERY == 0 && !self.reply_matches_reference(seeds, &reply) {
                    self.counts
                        .fail(format!("estimate reply {index} differs from the reference"));
                    return None;
                }
                Some(micros)
            }
            Err(e) => {
                self.counts.fail(e.to_string());
                None
            }
        }
    }

    /// Sends `requests` one at a time on one session and returns each
    /// successful request's latency in microseconds.
    pub fn estimates_sequential(
        &self,
        session: &mut Session<'_>,
        requests: &[(usize, Vec<u32>)],
        parent: u64,
    ) -> Vec<f64> {
        requests
            .iter()
            .filter_map(|request| self.one_estimate(session, request, parent))
            .collect()
    }

    /// Sends `requests` from `threads` closed-loop clients (each waits for
    /// its reply before taking the next request) and returns completed
    /// requests per second, or `None` when nothing completed.
    pub fn estimates_concurrent(
        &self,
        deployment: &Deployment,
        requests: &[(usize, Vec<u32>)],
        threads: usize,
        parent: u64,
    ) -> Option<f64> {
        let threads = threads.max(1);
        let next = AtomicUsize::new(0);
        let completed = AtomicU64::new(0);
        let barrier = Barrier::new(threads);
        let windows: Vec<Option<(Instant, Instant)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        // Connect before the barrier so the window holds
                        // requests only. Every thread must reach the
                        // barrier, connected or not.
                        let session = deployment.session();
                        barrier.wait();
                        let mut session = match session {
                            Ok(session) => session,
                            Err(e) => {
                                self.counts.attempt();
                                self.counts.fail(e.to_string());
                                return None;
                            }
                        };
                        let started = Instant::now();
                        while let Some(request) = requests.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            if self.one_estimate(&mut session, request, parent).is_some() {
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Some((started, Instant::now()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("estimate client thread panicked"))
                .collect()
        });
        let started = windows.iter().flatten().map(|w| w.0).min()?;
        let ended = windows.iter().flatten().map(|w| w.1).max()?;
        let wall = ended.duration_since(started).as_secs_f64();
        let done = completed.load(Ordering::Relaxed);
        (done > 0 && wall > 0.0).then(|| done as f64 / wall)
    }

    /// Removes the scratch files this run wrote.
    pub fn cleanup(&self) {
        if let Some(path) = &self.snapshot {
            let _ = std::fs::remove_file(path);
        }
    }
}
