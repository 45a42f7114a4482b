//! End-to-end daemon tests: real TCP on an ephemeral port, concurrent
//! clients, snapshot cold-start, deterministic solves, graceful shutdown.

use imc_community::CommunitySet;
use imc_core::{snapshot, ImcInstance, MaxrAlgorithm, RicStore, SolveRequest};
use imc_graph::{GraphBuilder, NodeId};
use imc_service::client::Client;
use imc_service::{RefreshConfig, ServeConfig, Server, ServiceState};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(20);

/// A 40-node instance with 4 communities and a collection of 400 samples.
fn build_state(samples: usize) -> ServiceState {
    let mut b = GraphBuilder::new(40);
    for u in 0..39u32 {
        b.add_edge(u, u + 1, 0.5).unwrap();
        if u % 3 == 0 {
            b.add_edge(u, (u + 7) % 40, 0.3).unwrap();
        }
    }
    let g = b.build().unwrap();
    let parts = (0..4)
        .map(|c| {
            let members: Vec<NodeId> = (c * 10..c * 10 + 10).map(NodeId::new).collect();
            (members, 2u32, 1.0 + f64::from(c))
        })
        .collect();
    let cs = CommunitySet::from_parts(40, parts).unwrap();
    let instance = ImcInstance::new(g, cs).unwrap();
    let sampler = instance.sampler();
    let mut col = RicStore::for_sampler(&sampler);
    col.extend_parallel_with_workers(&sampler, samples, 1234, 1);
    ServiceState::new(instance, col, 0)
}

fn start(state: Arc<ServiceState>, workers: usize) -> imc_service::ServerHandle {
    Server::start(
        state,
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            deadline: TIMEOUT,
            refresh: None,
            metrics_addr: None,
            max_solve_threads: 4,
            slow_request_log: None,
        },
    )
    .expect("bind ephemeral port")
}

#[test]
fn concurrent_solves_match_in_process_solver_byte_identically() {
    let state = Arc::new(build_state(400));
    let server = start(Arc::clone(&state), 4);
    let addr = server.addr();

    // In-process reference answers on the same pinned collection.
    let collection = state.collection();
    let mut expected = Vec::new();
    for (algo_name, algo) in [
        ("greedy", MaxrAlgorithm::Greedy),
        ("ubg", MaxrAlgorithm::Ubg),
        ("maf", MaxrAlgorithm::Maf),
        ("mb", MaxrAlgorithm::Mb),
    ] {
        let solution = algo
            .solve(
                state.instance(),
                &*collection,
                &SolveRequest::new(3).with_seed(7),
            )
            .unwrap();
        let seeds: Vec<u32> = solution.seeds.iter().map(|v| v.raw()).collect();
        let ratio = solution.extras.sandwich_ratio();
        assert_eq!(ratio.is_some(), algo == MaxrAlgorithm::Ubg);
        expected.push((algo_name, seeds, solution.estimate, ratio));
    }

    // 4 threads × 4 algorithms, all concurrent, each on its own connection.
    let mut joins = Vec::new();
    for _ in 0..4 {
        let expected = expected.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr, TIMEOUT).unwrap();
            for (algo_name, seeds, estimate, ratio) in &expected {
                let resp = client
                    .request(&format!(
                        r#"{{"op":"solve","k":3,"algo":"{algo_name}","seed":7}}"#
                    ))
                    .unwrap();
                assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{algo_name}");
                let got: Vec<u32> = resp
                    .get("seeds")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_u64().unwrap() as u32)
                    .collect();
                assert_eq!(&got, seeds, "seed set differs for {algo_name}");
                let got_estimate = resp.get("estimate").unwrap().as_f64().unwrap();
                assert_eq!(got_estimate, *estimate, "estimate differs for {algo_name}");
                // UBG's sandwich ratio, same bits as in-process; absent otherwise.
                let got_ratio = resp.get("sandwich_ratio").map(|v| v.as_f64().unwrap());
                assert_eq!(got_ratio.map(f64::to_bits), ratio.map(f64::to_bits));
                assert_eq!(resp.get("generation").unwrap().as_u64(), Some(0));
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Metrics counted every request.
    let mut client = Client::connect(addr, TIMEOUT).unwrap();
    let stats = client.request(r#"{"op":"stats"}"#).unwrap();
    let solves = stats
        .get("metrics")
        .unwrap()
        .get("solve_requests")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(solves, 16);
    server.stop_and_join();
}

#[test]
fn estimates_match_in_process_and_interleave_with_solves() {
    let state = Arc::new(build_state(300));
    let server = start(Arc::clone(&state), 3);
    let addr = server.addr();

    let collection = state.collection();
    let seed_sets: Vec<Vec<u32>> = vec![vec![0], vec![5, 15], vec![0, 10, 20, 30]];
    let expected: Vec<f64> = seed_sets
        .iter()
        .map(|s| {
            let ids: Vec<NodeId> = s.iter().map(|&v| NodeId::new(v)).collect();
            collection.estimate(&ids)
        })
        .collect();

    let mut joins = Vec::new();
    for t in 0..3 {
        let seed_sets = seed_sets.clone();
        let expected = expected.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr, TIMEOUT).unwrap();
            for (set, want) in seed_sets.iter().zip(&expected) {
                let ids = set
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                let resp = client
                    .request(&format!(r#"{{"op":"estimate","seeds":[{ids}]}}"#))
                    .unwrap();
                assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
                assert_eq!(resp.get("estimate").unwrap().as_f64().unwrap(), *want);
                // Interleave a solve on the same connection.
                let resp = client
                    .request(&format!(r#"{{"op":"solve","k":2,"seed":{t}}}"#))
                    .unwrap();
                assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    server.stop_and_join();
}

#[test]
fn snapshot_cold_start_serves_estimates_without_resampling() {
    // Phase 1: sample once, save a snapshot, remember an estimate.
    let state = build_state(250);
    let dir = std::env::temp_dir().join(format!("imc-e2e-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warm.snap");
    state.save_snapshot(&path).unwrap();
    let probe: Vec<NodeId> = vec![NodeId::new(3), NodeId::new(17)];
    let want = state.collection().estimate(&probe);
    let instance = state.instance().clone();
    drop(state);

    // Phase 2: cold-start purely from the file — no sampling happens.
    let data = snapshot::load_for_instance(&path, &instance).unwrap();
    assert_eq!(data.collection.len(), 250);
    let cold = Arc::new(ServiceState::from_snapshot(instance, data).unwrap());
    let server = start(Arc::clone(&cold), 2);

    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let resp = client
        .request(r#"{"op":"estimate","seeds":[3,17]}"#)
        .unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(resp.get("estimate").unwrap().as_f64().unwrap(), want);
    assert_eq!(resp.get("samples").unwrap().as_u64(), Some(250));

    let health = client.request(r#"{"op":"health"}"#).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    server.stop_and_join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn refresher_publishes_new_generations_while_serving() {
    let state = Arc::new(build_state(50));
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            deadline: TIMEOUT,
            refresh: Some(RefreshConfig {
                target_samples: 200,
                interval: Duration::from_millis(1),
                base_seed: 42,
            }),
            metrics_addr: None,
            max_solve_threads: 4,
            slow_request_log: None,
        },
    )
    .unwrap();

    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let health = client.request(r#"{"op":"health"}"#).unwrap();
        let samples = health.get("samples").unwrap().as_u64().unwrap();
        let generation = health.get("generation").unwrap().as_u64().unwrap();
        if samples >= 200 {
            assert!(generation >= 1, "samples grew without a generation bump");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "refresher never reached target"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Requests keep working after refreshes.
    let resp = client.request(r#"{"op":"solve","k":2}"#).unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    server.stop_and_join();
}

#[test]
fn shutdown_request_stops_the_server_gracefully() {
    let state = Arc::new(build_state(60));
    let server = start(state, 2);
    let addr = server.addr();

    let mut client = Client::connect(addr, TIMEOUT).unwrap();
    let resp = client.request(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(resp.get("op").unwrap().as_str(), Some("shutdown"));

    // wait() returns because the client's request raised the signal.
    server.wait();

    // New connections are refused (or reset) once the listener is gone.
    std::thread::sleep(Duration::from_millis(50));
    let denied = Client::connect(addr, Duration::from_millis(300))
        .and_then(|mut c| c.request_line(r#"{"op":"health"}"#));
    assert!(denied.is_err(), "server still answering after shutdown");
}

/// Issues one `GET <path>` HTTP request against `addr` and returns the
/// raw response (headers + body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn get_metrics_exposes_prometheus_text_reflecting_requests() {
    let state = Arc::new(build_state(120));
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            deadline: TIMEOUT,
            refresh: None,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            max_solve_threads: 4,
            slow_request_log: None,
        },
    )
    .unwrap();
    let addr = server.addr();
    let metrics_addr = server.metrics_addr().expect("dedicated metrics port");

    // Baseline scrape, then serve a few requests, then scrape again. The
    // registry is process-global and shared with parallel tests, so all
    // assertions are deltas.
    let parse_counter = |text: &str, series: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(series) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("series `{series}` missing or unparsable"))
    };
    let before = http_get(addr, "/metrics");
    assert!(before.starts_with("HTTP/1.0 200 OK"), "{before}");
    assert!(before.contains("text/plain; version=0.0.4"));
    let solve_before = parse_counter(&before, r#"imc_requests_total{op="solve"}"#);

    let mut client = Client::connect(addr, TIMEOUT).unwrap();
    for _ in 0..3 {
        let resp = client
            .request(r#"{"op":"solve","k":2,"algo":"maf"}"#)
            .unwrap();
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    }
    let resp = client
        .request(r#"{"op":"estimate","seeds":[1,2]}"#)
        .unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));

    // The dedicated port serves the same registry as the main port.
    for scrape_addr in [addr, metrics_addr] {
        let after = http_get(scrape_addr, "/metrics");
        assert!(after.starts_with("HTTP/1.0 200 OK"));
        // Acceptance criteria: request latency histograms, RIC sample
        // counters and IMCAF round counters are all present.
        assert!(after.contains("# TYPE imc_request_duration_seconds histogram"));
        assert!(after.contains("imc_request_duration_seconds_bucket"));
        assert!(after.contains("imc_ric_samples_generated_total"));
        assert!(after.contains("imc_imcaf_rounds_total"));
        assert!(after.contains("imc_maxr_solves_total"));
        assert!(after.contains("imc_collection_samples 120"));
        let solve_after = parse_counter(&after, r#"imc_requests_total{op="solve"}"#);
        assert!(
            solve_after >= solve_before + 3,
            "solve counter did not reflect served requests: {solve_before} -> {solve_after}"
        );
    }

    // Unknown paths 404; the NDJSON `metrics` op returns the same text.
    assert!(http_get(metrics_addr, "/nope").starts_with("HTTP/1.0 404"));
    let via_op = client.request(r#"{"op":"metrics"}"#).unwrap();
    assert_eq!(via_op.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(
        via_op.get("format").unwrap().as_str(),
        Some("prometheus-0.0.4")
    );
    let body = via_op.get("body").unwrap().as_str().unwrap().to_string();
    assert!(body.contains("imc_requests_total"));
    assert!(body.contains("imc_collection_generation"));
    server.stop_and_join();
}

#[test]
fn malformed_requests_get_error_responses_not_disconnects() {
    let state = Arc::new(build_state(40));
    let server = start(state, 2);
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    for bad in ["not json", r#"{"op":"nope"}"#, r#"{"op":"solve"}"#] {
        let resp = client.request(bad).unwrap();
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{bad}");
        let err = resp.get("error").unwrap();
        assert_eq!(
            err.get("code").unwrap().as_str(),
            Some("bad_request"),
            "{bad}"
        );
        assert!(err.get("message").unwrap().as_str().is_some(), "{bad}");
    }
    // The connection survives all three errors.
    let resp = client.request(r#"{"op":"health"}"#).unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    server.stop_and_join();
}

/// An out-of-range `pivot` used to index past the inverted index and
/// panic the worker thread; two such lines left a 1-worker daemon with
/// nobody to serve `health`.
#[test]
fn out_of_range_shard_eval_pivot_is_a_typed_error_not_a_dead_worker() {
    let server = start(Arc::new(build_state(40)), 1);
    for _ in 0..2 {
        // A fresh connection each time: a dead worker would hang it.
        let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
        let resp = client
            .request(r#"{"op":"shard_eval","seeds":[1,2],"pivot":99999}"#)
            .unwrap();
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        let code = resp.get("error").unwrap().get("code").unwrap();
        assert_eq!(code.as_str(), Some("out_of_range"));
    }
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let resp = client.request(r#"{"op":"health"}"#).unwrap();
    assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
    server.stop_and_join();
}

/// An `eval_batch` may not list more nodes than the graph has (no engine
/// batch does): before the cap, in-range ids repeated without bound
/// bought unbounded evaluation work with one line.
#[test]
fn oversized_eval_batch_is_refused_and_the_session_survives() {
    let server = start(Arc::new(build_state(40)), 1);
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let resp = client.request(r#"{"op":"eval_begin"}"#).unwrap();
    let session = resp.get("session").unwrap().as_u64().unwrap();
    let batch = |nodes: &[u32], kind: &str| {
        let nodes: Vec<String> = nodes.iter().map(u32::to_string).collect();
        format!(
            r#"{{"op":"eval_batch","session":{session},"kind":"{kind}","nodes":[{}]}}"#,
            nodes.join(",")
        )
    };
    for kind in ["c", "nu"] {
        let resp = client.request(&batch(&[3; 41], kind)).unwrap();
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{kind}");
        let code = resp.get("error").unwrap().get("code").unwrap();
        assert_eq!(code.as_str(), Some("invalid_parameter"), "{kind}");
    }
    // Exactly the graph's size is a legal batch (a first greedy round's), and
    // the session that refused the oversized one still answers it.
    let all: Vec<u32> = (0..40).collect();
    let resp = client.request(&batch(&all, "c")).unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(resp.get("gains").unwrap().as_array().unwrap().len(), 40);
    // The lone worker is alive for a second connection once this one ends.
    drop(client);
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let resp = client.request(r#"{"op":"health"}"#).unwrap();
    assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
    server.stop_and_join();
}

/// A client that never sends `\n` cannot grow the daemon's line buffer
/// without bound: one byte past the cap, in two writes either side of the
/// daemon's 100 ms read timeout, is refused and the connection closed, and
/// the lone worker answers the next connection.
#[test]
fn a_request_line_past_the_cap_is_refused_and_the_worker_survives() {
    let server = start(Arc::new(build_state(40)), 1);
    let limit = imc_service::protocol::max_request_line(40);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let bytes = vec![b'x'; limit + 1];
    stream.write_all(&bytes[..limit / 2]).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(&bytes[limit / 2..]).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let resp = imc_service::json::parse(reply.trim()).unwrap();
    let err = resp.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_str(), Some("bad_request"));
    let message = format!("request line exceeds {limit} bytes");
    assert_eq!(err.get("message").unwrap().as_str(), Some(&message[..]));
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let resp = client.request(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    // The ping answer is liveness only: no clock readings ride it.
    let keys: Vec<&str> = resp
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        ["elapsed_us", "generation", "ok", "op", "status", "trace_id"]
    );
    server.stop_and_join();
}

#[test]
fn solve_response_trace_id_links_engine_iteration_records_in_the_sink() {
    let dir = std::env::temp_dir().join(format!("imc-e2e-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sink = dir.join("trace.jsonl");
    imc_obs::trace::set_sink_path(&sink).unwrap();

    let state = Arc::new(build_state(400));
    let server = Server::start(
        Arc::clone(&state),
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            deadline: TIMEOUT,
            refresh: None,
            metrics_addr: None,
            max_solve_threads: 4,
            // Zero threshold: every request is "slow", so the structured
            // slow-request record lands in the span tree too.
            slow_request_log: Some(Duration::ZERO),
        },
    )
    .unwrap();

    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let resp = client
        .request(r#"{"op":"solve","k":3,"algo":"ubg","seed":7,"v":2,"threads":2}"#)
        .unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    let trace_id = resp
        .get("trace_id")
        .expect("solve response must echo a trace_id")
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(trace_id.len(), 16, "trace_id is 16 hex digits: {trace_id}");
    assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));
    // Error responses carry the id too.
    let err = client.request("garbage").unwrap();
    assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
    assert!(err.get("trace_id").unwrap().as_str().is_some());
    server.stop_and_join();
    imc_obs::trace::clear_sink();

    // Reassemble the request's span tree: every sink line tagged with the
    // response's trace_id belongs to this one request, no matter how many
    // concurrent tests were also tracing.
    let text = std::fs::read_to_string(&sink).unwrap();
    let mine: Vec<imc_service::json::Value> = text
        .lines()
        .filter(|l| l.contains(&format!(r#""trace_id":"{trace_id}""#)))
        .map(|l| imc_service::json::parse(l).unwrap())
        .collect();
    let kind_of =
        |v: &imc_service::json::Value| v.get("kind").unwrap().as_str().unwrap().to_string();
    // UBG runs the engine twice (once per objective), 3 greedy rounds each.
    let iterations: Vec<_> = mine
        .iter()
        .filter(|v| kind_of(v) == "engine_iteration")
        .collect();
    assert!(
        iterations.len() >= 3,
        "expected one engine_iteration per greedy round, got {}",
        iterations.len()
    );
    for it in &iterations {
        assert!(it.get("evaluations").unwrap().as_u64().unwrap() >= 1);
        assert!(it.get("batch_seconds").unwrap().as_f64().unwrap() >= 0.0);
    }
    let objectives: Vec<_> = mine
        .iter()
        .filter(|v| kind_of(v) == "engine_solve")
        .map(|v| v.get("objective").unwrap().as_str().unwrap().to_string())
        .collect();
    assert!(
        objectives.iter().any(|o| o == "nu") && objectives.iter().any(|o| o == "c_hat"),
        "UBG's span tree holds both objectives' engine_solve summaries: {objectives:?}"
    );
    let slow = mine
        .iter()
        .find(|v| kind_of(v) == "slow_request")
        .expect("slow_request record at zero threshold");
    assert_eq!(slow.get("op").unwrap().as_str(), Some("solve"));
    assert!(slow.get("parse_us").unwrap().as_u64().is_some());
    assert!(slow.get("execute_us").unwrap().as_u64().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v2_solve_requests_run_parallel_and_match_v1() {
    let state = Arc::new(build_state(350));
    let server = start(state, 2);
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();

    let v1 = client
        .request(r#"{"op":"solve","k":3,"algo":"ubg","seed":7}"#)
        .unwrap();
    assert_eq!(v1.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v1.get("threads").unwrap().as_u64(), Some(1));
    assert!(v1.get("evaluations").unwrap().as_u64().unwrap() > 0);

    // Same request, v2 with the threads knob — and a stale client's
    // `mode`, which no longer means anything: the same answer.
    for line in [
        r#"{"op":"solve","k":3,"algo":"ubg","seed":7,"v":2,"threads":2}"#,
        r#"{"op":"solve","k":3,"algo":"ubg","seed":7,"v":2,"threads":2,"mode":"parallel"}"#,
        r#"{"op":"solve","k":3,"algo":"ubg","seed":7,"v":2,"threads":2,"mode":["x"]}"#,
    ] {
        let v2 = client.request(line).unwrap();
        assert_eq!(v2.get("ok").unwrap().as_bool(), Some(true), "{line}");
        assert!(v2.get("mode").is_none(), "{line}");
        assert_eq!(v2.get("threads").unwrap().as_u64(), Some(2));
        for field in ["seeds", "estimate", "evaluations"] {
            assert_eq!(v1.get(field), v2.get(field), "{field} of {line}");
        }
    }

    // Structured error payload for a solver-level rejection.
    let err = client.request(r#"{"op":"solve","k":0}"#).unwrap();
    assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        err.get("error").unwrap().get("code").unwrap().as_str(),
        Some("invalid_budget")
    );
    server.stop_and_join();
}
