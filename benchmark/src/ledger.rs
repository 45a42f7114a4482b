//! The traced run: the per-layer ledger of one workload.
//!
//! It repeats the workload with (a) the benchmark's own in-memory spans
//! around every call into a layer, written on exit to
//! `benchmark/out/<workload>.spans.json` with per-span self time, and (b)
//! the program's existing JSONL trace sink switched on, stitched with
//! `imc_obs::timeline::TraceSet` for the cluster's compute / scatter-wait
//! / reduce split. Around that it probes every layer directly
//! ([`crate::layers`]) and stands every rung up over the workload's own
//! store, so each rung's *added* cost is measured against its base in the
//! same run. End-to-end metrics never come from this run.

use crate::e2e::RunOutcome;
use crate::env;
use crate::harness::{run_imcaf, Harness, RunConfig, SolveSample};
use crate::layers;
use crate::metrics::MetricSet;
use crate::prom::Scrape;
use crate::rung::{Deployment, OpError, RungKind, Session, SolveOutcome};
use crate::spans::{self, id_of, union_cover, SpanRecord};
use crate::stats::{median, percentile_if_supported};
use crate::workload::Workload;
use imc_obs::timeline::{Timeline, TraceSet};
use imc_obs::trace::{self, TraceCtx};
use imc_service::json::{self, ObjectBuilder, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed budget of the rung probes. On the ladder it is the workload's
/// own `k`; on `imcaf-wide` the ĉ-greedy re-checks ≈115k candidates at
/// `k = 25` (≈20 s per cluster solve), so the rungs are probed at `k = 5`.
fn rung_probe_k(h: &Harness) -> usize {
    if h.config.workload.is_ladder() {
        h.spec.k
    } else {
        h.spec.k.min(5)
    }
}

/// Timed solves of one rung with the program's trace sink off and on.
#[derive(Debug, Default)]
struct RungTimes {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// What the sink wrote during the last traced solve.
    trace_text: Option<String>,
}

impl RungTimes {
    fn untraced_median(&self) -> Option<f64> {
        (!self.untraced.is_empty()).then(|| median(&self.untraced))
    }

    fn traced_median(&self) -> Option<f64> {
        (!self.traced.is_empty()).then(|| median(&self.traced))
    }
}

/// The program's JSONL sink, switched on for one section of the run.
struct SinkSection {
    path: PathBuf,
}

impl SinkSection {
    fn open(dir: &Path, workload: Workload, section: &str) -> Result<SinkSection, OpError> {
        let path = dir.join(format!("{}.{section}.trace.jsonl", workload.name()));
        trace::set_sink_path(&path).map_err(|e| OpError(format!("trace sink {path:?}: {e}")))?;
        Ok(SinkSection { path })
    }

    /// Switches the sink off again and returns what it wrote.
    fn close(self) -> Result<String, OpError> {
        trace::clear_sink();
        std::fs::read_to_string(&self.path)
            .map_err(|e| OpError(format!("reading {:?}: {e}", self.path)))
    }
}

/// The state the rung phases share: which `k` to probe at, the outcome
/// every solve on every rung must reproduce, and the workload's own rung
/// (which additionally gets traced solves and the tail-latency requests).
struct RungProber<'h> {
    h: &'h Harness,
    k: usize,
    own: RungKind,
    /// The first outcome of the run (on the ladder: the untimed
    /// reference solve) — the expectation for every later solve.
    expected: Option<SolveOutcome>,
    /// Concurrency-1 estimate latencies on the workload's own rung.
    own_latencies_us: Vec<f64>,
}

/// A rung stood up for one phase of the ledger; dropping it stops it.
struct Phase<'h> {
    /// Keeps the phase's root span open.
    _span: Option<spans::SpanGuard<'h>>,
    parent: u64,
    deployment: Deployment,
}

impl<'h> RungProber<'h> {
    /// Opens a phase span and cold-starts `kind` under it.
    fn phase(&self, name: &'static str, kind: RungKind) -> Result<Phase<'h>, OpError> {
        let span = self.h.recorder.span(name, 0, 0);
        let parent = id_of(&span);
        let deployment = {
            let _setup = self.h.recorder.span("rung.setup", parent, 0);
            Deployment::start(kind, &self.h.plan())?.0
        };
        Ok(Phase {
            _span: span,
            parent,
            deployment,
        })
    }

    /// Traced repetitions `kind` gets: two on the workload's own ladder
    /// rung (trace overhead), none elsewhere. `imcaf-wide`'s own solve is
    /// the IMCAF pair, not a rung.
    fn own_traced(&self, kind: RungKind) -> usize {
        usize::from(self.h.config.workload.is_ladder() && kind == self.own) * 2
    }

    /// One gated UBG solve at the probe `k`.
    fn solve_once(&mut self, session: &mut Session<'_>, parent: u64) -> Option<f64> {
        let h = self.h;
        h.counts.attempt();
        let op = h.recorder.new_op();
        let started = Instant::now();
        let outcome = match session.solve(self.k, h.seeds.solve, &h.recorder, parent, op) {
            Ok(outcome) => outcome,
            Err(e) => {
                h.counts.fail(e.to_string());
                return None;
            }
        };
        let seconds = started.elapsed().as_secs_f64();
        match &self.expected {
            Some(want)
                if want.seeds != outcome.seeds || want.evaluations != outcome.evaluations =>
            {
                h.counts.fail(format!(
                    "rung diverged: seeds {:?} / {} evaluations, expected {:?} / {}",
                    outcome.seeds, outcome.evaluations, want.seeds, want.evaluations
                ));
                return None;
            }
            Some(_) => {}
            None => self.expected = Some(outcome),
        }
        Some(seconds)
    }

    /// Solves `reps.0` times with the program's sink off and `reps.1`
    /// times with it on, alternating so a slow spell lands on both arms.
    fn solve_reps(
        &mut self,
        session: &mut Session<'_>,
        reps: (usize, usize),
        section: &str,
        parent: u64,
    ) -> Result<RungTimes, OpError> {
        let mut times = RungTimes::default();
        for round in 0..reps.0.max(reps.1) {
            if round < reps.0 {
                times.untraced.extend(self.solve_once(session, parent));
            }
            if round < reps.1 {
                let sink = SinkSection::open(&env::out_dir(), self.h.config.workload, section)?;
                let seconds = {
                    // In-process solves emit under the caller's context;
                    // remote rungs mint a trace id per request themselves.
                    let _ctx = TraceCtx::enter(&trace::fresh_id());
                    self.solve_once(session, parent)
                };
                times.trace_text = Some(sink.close()?);
                times.traced.extend(seconds);
            }
        }
        Ok(times)
    }

    /// On the workload's own rung: enough concurrency-1 estimates for a
    /// 99th percentile with ten samples beyond it (at full scale).
    fn own_estimates(&mut self, kind: RungKind, session: &mut Session<'_>, parent: u64) {
        if kind != self.own {
            return;
        }
        let h = self.h;
        let count = if h.config.smoke {
            h.spec.estimates_c1
        } else {
            1_000
        };
        let requests = h.take_requests(count);
        self.own_latencies_us = h.estimates_sequential(session, &requests, parent);
    }

    /// Local: the union store in-process, the base the cluster's added
    /// cost is subtracted from.
    fn local(&mut self) -> Result<RungTimes, OpError> {
        let kind = RungKind::Local;
        let phase = self.phase("ledger.local", kind)?;
        let mut session = phase.deployment.session()?;
        let times = self.solve_reps(
            &mut session,
            (2, self.own_traced(kind)),
            "local",
            phase.parent,
        )?;
        self.own_estimates(kind, &mut session, phase.parent);
        Ok(times)
    }

    /// Daemon: the transport floor, then solves and estimates alternating
    /// between the socket and an in-process call on the very
    /// `Arc<RicStore>` the server answers from, so the difference is the
    /// service layer and nothing else.
    fn daemon(&mut self) -> Result<DaemonTimes, OpError> {
        let kind = RungKind::Daemon;
        let phase = self.phase("ledger.daemon", kind)?;
        let served = phase
            .deployment
            .served_store()
            .ok_or_else(|| OpError("daemon deployment exposes no served store".into()))?;
        let mut in_process = Session::Local {
            instance: phase.deployment.instance(),
            store: &served,
        };
        let mut socket = phase.deployment.session()?;
        let mut out = DaemonTimes::default();
        for round in 0..2 {
            let traced = usize::from(round < self.own_traced(kind));
            let base = self.solve_reps(&mut in_process, (1, 0), "daemon", phase.parent)?;
            let through = self.solve_reps(&mut socket, (1, traced), "daemon", phase.parent)?;
            out.base.untraced.extend(base.untraced);
            out.through.untraced.extend(through.untraced);
            out.through.traced.extend(through.traced);
        }
        let h = self.h;
        for _ in 0..2_000 {
            h.counts.attempt();
            let started = Instant::now();
            match socket.ping() {
                Ok(()) => out.ping_us.push(started.elapsed().as_secs_f64() * 1e6),
                Err(e) => h.counts.fail(e.to_string()),
            }
        }
        self.own_estimates(kind, &mut socket, phase.parent);
        out.estimate_pair =
            interleaved_estimates(h, &mut socket, &mut in_process, 300, phase.parent);
        Ok(out)
    }

    /// Cluster: RPC counts from the registry's deltas around one untraced
    /// solve, and the compute / wait / reduce split from one traced solve.
    fn cluster(&mut self) -> Result<ClusterTimes, OpError> {
        let kind = RungKind::Cluster { shards: 2 };
        let phase = self.phase("ledger.cluster", kind)?;
        let mut session = phase.deployment.session()?;
        let before = Scrape::global();
        let plain = self.solve_reps(&mut session, (1, 0), "cluster", phase.parent)?;
        let after = Scrape::global();
        let traced = self.solve_reps(&mut session, (0, 1), "cluster", phase.parent)?;
        self.own_estimates(kind, &mut session, phase.parent);
        Ok(ClusterTimes {
            plain,
            traced,
            before,
            after,
        })
    }

    /// The same solve over a single shard: RPC cost without partitioning.
    fn one_shard(&mut self) -> Result<RungTimes, OpError> {
        let phase = self.phase("ledger.cluster_1shard", RungKind::Cluster { shards: 1 })?;
        let mut session = phase.deployment.session()?;
        self.solve_reps(&mut session, (1, 0), "cluster_1shard", phase.parent)
    }
}

/// What the daemon phase measured.
#[derive(Default)]
struct DaemonTimes {
    through: RungTimes,
    /// The in-process call on the served store.
    base: RungTimes,
    ping_us: Vec<f64>,
    /// `(daemon_p50_us, in_process_p50_us)` on the same requests.
    estimate_pair: Option<(f64, f64)>,
}

/// What the two-shard cluster phase measured.
struct ClusterTimes {
    plain: RungTimes,
    traced: RungTimes,
    /// Registry scrapes around the untraced solve.
    before: Scrape,
    after: Scrape,
}

/// Shares of a traced cluster solve's wall time, from the stitched
/// timeline: shard compute (some `rpc_server` span open), scatter wait
/// (an `rpc_client` span open but no server span: wire, codec, wake-ups)
/// and reduce (no RPC outstanding: the coordinator's own work).
fn cluster_shares(timeline: &Timeline) -> Option<(f64, f64, f64)> {
    let solve = timeline.spans.iter().find(|s| s.name == "cluster_solve")?;
    let (lo, hi) = (solve.start_us.max(0) as u64, solve.end_us.max(0) as u64);
    let wall = hi.checked_sub(lo).filter(|w| *w > 0)? as f64;
    let cover_of = |name: &str| {
        let mut intervals: Vec<(u64, u64)> = timeline
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.start_us.max(0) as u64, s.end_us.max(0) as u64))
            .collect();
        union_cover(&mut intervals, lo, hi) as f64
    };
    let compute = cover_of("rpc_server");
    let in_rpc = cover_of("rpc_client").max(compute);
    Some((
        compute / wall,
        (in_rpc - compute) / wall,
        (wall - in_rpc) / wall,
    ))
}

/// Closed-loop estimates alternating between a rung and the in-process
/// call on the same requests: `(rung_p50_us, local_p50_us)`. Whichever
/// arm goes second finds the request's index lists warm in the shared
/// cache, so the arms swap places on every request.
fn interleaved_estimates(
    h: &Harness,
    rung: &mut Session<'_>,
    local: &mut Session<'_>,
    count: usize,
    parent: u64,
) -> Option<(f64, f64)> {
    let requests = h.take_requests(count);
    let mut rung_us = Vec::with_capacity(count);
    let mut local_us = Vec::with_capacity(count);
    for (i, request) in requests.iter().enumerate() {
        let one = std::slice::from_ref(request);
        if i % 2 == 0 {
            rung_us.extend(h.estimates_sequential(rung, one, parent));
            local_us.extend(h.estimates_sequential(local, one, parent));
        } else {
            local_us.extend(h.estimates_sequential(local, one, parent));
            rung_us.extend(h.estimates_sequential(rung, one, parent));
        }
    }
    (!rung_us.is_empty() && !local_us.is_empty()).then(|| (median(&rung_us), median(&local_us)))
}

/// The spans file: per-name totals of everything, and every individual
/// span except the thousands of per-request estimate spans.
fn spans_file_value(records: &[SpanRecord]) -> Value {
    let selfs = spans::self_times(records);
    let by_name: Vec<Value> = spans::totals_by_name(records)
        .into_iter()
        .map(|t| {
            ObjectBuilder::new()
                .field("name", t.name)
                .field("count", t.count)
                .field("total_s", t.total_s)
                .field("self_s", t.self_s)
                .build()
        })
        .collect();
    let per_request = |name: &str| name.ends_with(".estimate") || name.starts_with("client.");
    let listed: Vec<Value> = records
        .iter()
        .zip(&selfs)
        .filter(|(r, _)| !per_request(r.name))
        .map(|(r, &(_, self_ns))| {
            ObjectBuilder::new()
                .field("id", r.id)
                .field("parent", r.parent)
                .field("op", r.op)
                .field("name", r.name)
                .field("start_ns", r.start_ns)
                .field("end_ns", r.end_ns)
                .field("self_ns", self_ns)
                .build()
        })
        .collect();
    ObjectBuilder::new()
        .field("schema", "imc-benchmark/spans/v1")
        .field("span_count", records.len())
        .field("by_name", by_name)
        .field("spans", listed)
        .build()
}

/// The IMCAF probe: untraced on every workload (it supplies `imcaf.*`
/// and, on `imcaf-wide`, the answer the request stream perturbs), plus a
/// traced repetition on `imcaf-wide`, whose solve it is.
fn imcaf_probe(h: &mut Harness) -> Result<(Option<SolveSample>, Option<SolveSample>), OpError> {
    let phase = h.recorder.span("ledger.imcaf", 0, 0);
    let parent = id_of(&phase);
    let mut untraced = None;
    let mut traced = None;

    h.counts.attempt();
    let sample = {
        let _span = h.recorder.span("local.imcaf", parent, 0);
        run_imcaf(&h.instance, h.spec.k, h.seeds.solve)
    };
    match sample {
        Ok(sample) if sample.imcaf.as_ref().is_some_and(|i| i.converged) => {
            untraced = Some(sample);
        }
        Ok(_) => h.counts.fail("IMCAF did not stop Converged"),
        Err(e) => h.counts.fail(e.to_string()),
    }

    if h.config.workload == Workload::ImcafWide {
        h.counts.attempt();
        let sink = SinkSection::open(&env::out_dir(), h.config.workload, "imcaf")?;
        let sample = {
            let _ctx = TraceCtx::enter(&trace::fresh_id());
            let _span = h.recorder.span("local.imcaf", parent, 0);
            run_imcaf(&h.instance, h.spec.k, h.seeds.solve)
        };
        sink.close()?;
        let same_seeds =
            |s: &SolveSample| Some(&s.outcome.seeds) == untraced.as_ref().map(|u| &u.outcome.seeds);
        match sample {
            Ok(sample) if same_seeds(&sample) => traced = Some(sample),
            Ok(_) => h.counts.fail("traced IMCAF returned different seeds"),
            Err(e) => h.counts.fail(e.to_string()),
        }
    }
    drop(phase);
    if h.answer.is_none() {
        if let Some(sample) = &untraced {
            h.set_answer(&sample.outcome.seeds);
        }
    }
    Ok((untraced, traced))
}

/// Every layer probe, each under its own span. Returns the all-threads
/// sampling rate for `imcaf.sampling_share`.
fn layer_probes(h: &Harness, m: &mut MetricSet) -> Result<f64, OpError> {
    let phase = h.recorder.span("ledger.layers", 0, 0);
    let parent = id_of(&phase);
    let rec = &h.recorder;
    {
        let _s = rec.span("layer.instance", parent, 0);
        layers::instance(h, m);
    }
    let rate = {
        let _s = rec.span("layer.generator", parent, 0);
        layers::generator(h, m)
    };
    {
        let _s = rec.span("layer.store", parent, 0);
        layers::store(h, m);
    }
    {
        let _s = rec.span("layer.kernels", parent, 0);
        layers::kernels(m);
    }
    {
        let _s = rec.span("layer.objective", parent, 0);
        layers::objective(h, m);
    }
    {
        let _s = rec.span("layer.engine", parent, 0);
        layers::engine(h, m)?;
    }
    {
        let _s = rec.span("layer.snapshot", parent, 0);
        layers::snapshot_codec(h, m)?;
    }
    {
        let _s = rec.span("layer.codec", parent, 0);
        layers::codec(h, m)?;
    }
    Ok(rate)
}

/// Runs the per-layer ledger of `config.workload`.
pub fn run(config: RunConfig) -> Result<RunOutcome, OpError> {
    let mut h = Harness::prepare(config.clone())?;
    let out_dir = env::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| OpError(format!("create {out_dir:?}: {e}")))?;
    let mut m = MetricSet::default();
    let mut notes = Vec::new();
    let workload = config.workload;

    let (imcaf_untraced, imcaf_traced) = imcaf_probe(&mut h)?;
    if h.answer.is_none() {
        return Err(OpError(h.counts.first_failure().unwrap_or_else(|| {
            "no answer to build the request stream from".to_string()
        })));
    }
    let sampling_rate = layer_probes(&h, &mut m)?;
    if let Some(sample) = &imcaf_untraced {
        let imcaf = sample.imcaf.as_ref().expect("run_imcaf fills the summary");
        m.put("imcaf.rounds", imcaf.rounds as f64, 1);
        m.put("imcaf.samples_used", imcaf.samples_used as f64, 1);
        m.put("imcaf.checked_rounds", imcaf.checked_rounds as f64, 1);
        // Computed, not measured: the time the all-threads generator would
        // need for the samples IMCAF drew, as a share of the IMCAF run.
        m.put(
            "imcaf.sampling_share",
            imcaf.samples_used as f64 / sampling_rate / sample.seconds,
            1,
        );
        m.put_extra("imcaf.run_s", sample.seconds, "s", 1);
    }

    // The rungs, bottom up, over the workload's own plan. On the ladder
    // the expectation is the untimed reference solve itself.
    let own = h.rung();
    let mut prober = RungProber {
        h: &h,
        k: rung_probe_k(&h),
        own,
        expected: h.reference.clone(),
        own_latencies_us: Vec::new(),
    };
    let local = prober.local()?;
    let daemon = prober.daemon()?;
    let cluster = prober.cluster()?;
    let one_shard = prober.one_shard()?;
    let k = prober.k;
    let own_latencies_us = prober.own_latencies_us;

    // service.*
    let local_base = local.untraced_median();
    if !daemon.ping_us.is_empty() {
        m.put(
            "service.ping_p50_us",
            median(&daemon.ping_us),
            daemon.ping_us.len() as u64,
        );
    }
    if let (Some(base), Some(through)) = (
        daemon.base.untraced_median(),
        daemon.through.untraced_median(),
    ) {
        let n = daemon.through.untraced.len() as u64;
        m.put("service.added_solve_s", through - base, n);
        m.put_extra("service.solve_s", through, "s", n);
        m.put_extra("service.solve_s_base", base, "s", n);
    }
    if let Some((through, base)) = daemon.estimate_pair {
        m.put("service.added_estimate_us", through - base, 300);
        m.put_extra("service.estimate_p50_us", through, "us", 300);
        m.put_extra("service.estimate_p50_us_base", base, "us", 300);
    }

    // cluster.*
    let count = "imc_cluster_rpc_duration_seconds_count";
    let sum = "imc_cluster_rpc_duration_seconds_sum";
    let (before, after) = (&cluster.before, &cluster.after);
    let rpcs = before.delta(after, count, &[]);
    let rpc_s = before.delta(after, sum, &[]);
    if let (Some(base), Some(through)) = (local_base, cluster.plain.untraced_median()) {
        if rpcs > 0.0 {
            m.put("cluster.rpcs_per_solve", rpcs, 1);
            m.put("cluster.rpc_s_per_solve", rpc_s, rpcs as u64);
            m.put("cluster.us_per_rpc", rpc_s * 1e6 / rpcs, rpcs as u64);
            m.put_extra(
                "cluster.eval_batch_rpcs_per_solve",
                before.delta(after, count, &["op=\"eval_batch\""]),
                "count",
                1,
            );
        } else {
            h.counts.attempt();
            h.counts
                .fail("imc_cluster_rpc_duration_seconds_count did not move over a cluster solve");
        }
        m.put("cluster.added_solve_s", through - base, 1);
        m.put_extra("cluster.solve_s", through, "s", 1);
        m.put_extra(
            "cluster.solve_s_base",
            base,
            "s",
            local.untraced.len() as u64,
        );
    }
    if let Some(seconds) = one_shard.untraced_median() {
        m.put("cluster.solve_s_1shard", seconds, 1);
    }
    if let Some(text) = &cluster.traced.trace_text {
        let set = TraceSet::parse(&[("cluster".to_string(), text.clone())]);
        match set.solve_timeline().as_ref().and_then(cluster_shares) {
            Some((compute, wait, reduce)) => {
                m.put("cluster.compute_share", compute, 1);
                m.put("cluster.scatter_wait_share", wait, 1);
                m.put("cluster.reduce_share", reduce, 1);
            }
            None => notes.push("cluster trace held no cluster_solve span".to_string()),
        }
    }

    // The tails the end-to-end list could not hold steady.
    for (name, p) in [
        ("demoted.estimate_p90_us", 90.0),
        ("demoted.estimate_p99_us", 99.0),
    ] {
        match percentile_if_supported(&own_latencies_us, p) {
            Some(value) => m.put(name, value, own_latencies_us.len() as u64),
            None => notes.push(format!(
                "{name} withheld: {} samples leave fewer than ten beyond it",
                own_latencies_us.len()
            )),
        }
    }

    // obs.*: the workload's own solve, traced over untraced.
    let own_pair = match (workload, own) {
        (Workload::ImcafWide, _) => (
            imcaf_untraced.as_ref().map(|s| s.seconds),
            imcaf_traced.as_ref().map(|s| s.seconds),
        ),
        (_, RungKind::Local) => (local.untraced_median(), local.traced_median()),
        (_, RungKind::Daemon) => (
            daemon.through.untraced_median(),
            daemon.through.traced_median(),
        ),
        (_, RungKind::Cluster { .. }) => (
            cluster.plain.untraced_median(),
            cluster.traced.traced_median(),
        ),
    };
    if let (Some(untraced), Some(traced)) = own_pair {
        m.put("obs.trace_overhead_share", traced / untraced - 1.0, 1);
        m.put_extra("obs.solve_s_untraced", untraced, "s", 1);
        m.put_extra("obs.solve_s_traced", traced, "s", 1);
    }
    layers::metrics_render(&mut m);

    // The benchmark's own spans, with self times, written on exit.
    let records = h.recorder.take();
    let spans_path = out_dir.join(format!("{}.spans.json", workload.name()));
    std::fs::write(
        &spans_path,
        json::to_string(&spans_file_value(&records)) + "\n",
    )
    .map_err(|e| OpError(format!("writing {spans_path:?}: {e}")))?;
    notes.push(format!(
        "{} spans written to {}",
        records.len(),
        spans_path.display()
    ));
    for total in spans::totals_by_name(&records).iter().take(8) {
        notes.push(format!(
            "span {}: n={} total={:.3}s self={:.3}s",
            total.name, total.count, total.total_s, total.self_s
        ));
    }

    let exact: Vec<(String, String)> = crate::metrics::PER_LAYER
        .iter()
        .filter(|d| d.exact)
        .filter_map(|d| m.get(d.name).map(|v| (d.name.to_string(), v.to_string())))
        .collect();
    let count = |label: &str, n: usize| (label.to_string(), n as u64);
    let repetitions = vec![
        count("rung_probe_k", k),
        count("local_solves_untraced", local.untraced.len()),
        count("local_solves_traced", local.traced.len()),
        count("daemon_solves_untraced", daemon.through.untraced.len()),
        count("daemon_solves_traced", daemon.through.traced.len()),
        count("cluster_solves_untraced", cluster.plain.untraced.len()),
        count("cluster_solves_traced", cluster.traced.traced.len()),
        count("pings", daemon.ping_us.len()),
        count("client_connections", 1),
        count("client_threads", 1),
        count("sampling_threads", h.nproc),
    ];

    h.cleanup();
    Ok(RunOutcome {
        config,
        metrics: m,
        attempted: h.counts.attempted(),
        failed: h.counts.failed(),
        first_failure: h.counts.first_failure(),
        repetitions,
        exact,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(name: &str, id: &str, parent: Option<&str>, start_us: u64, end_us: u64) -> String {
        let parent = parent.map_or(String::new(), |p| format!(r#","parent_span_id":"{p}""#));
        format!(
            r#"{{"kind":"span","span":"{name}","detail":"","trace_id":"t1","span_id":"{id}"{parent},"start_us":{start_us},"ts_us":{end_us},"seconds":0.0}}"#
        )
    }

    #[test]
    fn cluster_shares_split_compute_wait_and_reduce() {
        // A 100 µs solve: two RPCs of 30 µs, each with 20 µs of server
        // compute inside; 40 µs with no RPC outstanding.
        let lines = [
            span_line("cluster_solve", "a", None, 1_000, 1_100),
            span_line("rpc_client", "b", Some("a"), 1_010, 1_040),
            span_line("rpc_server", "c", Some("b"), 1_015, 1_035),
            span_line("rpc_client", "d", Some("a"), 1_050, 1_080),
            span_line("rpc_server", "e", Some("d"), 1_055, 1_075),
        ]
        .join("\n");
        let set = TraceSet::parse(&[("t".to_string(), lines)]);
        let timeline = set.solve_timeline().expect("one trace");
        let (compute, wait, reduce) = cluster_shares(&timeline).expect("a cluster_solve span");
        assert!((compute - 0.40).abs() < 1e-9, "{compute}");
        assert!((wait - 0.20).abs() < 1e-9, "{wait}");
        assert!((reduce - 0.40).abs() < 1e-9, "{reduce}");
    }

    #[test]
    fn spans_file_keeps_totals_for_elided_request_spans() {
        let rec = |id, parent, name, start_ns, end_ns| SpanRecord {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        };
        let records = [
            rec(1, 0, "ledger.daemon", 0, 1_000),
            rec(2, 1, "daemon.estimate", 100, 400),
            rec(3, 2, "client.round_trip", 110, 390),
        ];
        let value = spans_file_value(&records);
        assert_eq!(value.get("span_count").and_then(Value::as_u64), Some(3));
        assert_eq!(
            value.get("spans").and_then(Value::as_array).unwrap().len(),
            1
        );
        assert_eq!(
            value
                .get("by_name")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            3
        );
    }
}
