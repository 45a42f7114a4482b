//! Daemon-facing subcommands: `imc serve`, `imc query`, and
//! `imc snapshot save|load` — the CLI surface of [`imc_service`].
//!
//! `serve` loads the instance (and optionally a snapshot) once, binds a
//! TCP listener, and blocks until a `shutdown` request arrives. `query`
//! builds one newline-delimited JSON request from flags (or sends
//! `--raw` verbatim) and prints the raw response line, so shell scripts
//! can pipe it into `jq`-style tooling. `snapshot save` samples a
//! collection deterministically and persists it; `snapshot load`
//! validates a file and prints its header.

use crate::args::Args;
use crate::commands::{build_instance, load_graph};
use crate::{CliError, Result};
use imc_core::snapshot::{self, SnapshotError};
use imc_core::RicStore;
use imc_obs::json::{self, ObjectBuilder};
use imc_service::client::Client;
use imc_service::{RefreshConfig, ServeConfig, Server, ServiceState};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn snap_err(e: SnapshotError) -> CliError {
    match e {
        SnapshotError::Io(io) => CliError::Io(io),
        other => CliError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            other.to_string(),
        )),
    }
}

/// `imc serve`: loads graph + communities (plus an optional snapshot)
/// once and serves queries until a `shutdown` request arrives.
///
/// Without `--snapshot`, an initial collection of `--samples` RIC
/// samples is generated with the deterministic sharded sampler. With
/// `--refresh-target`, a background thread doubles the collection until
/// the target, publishing each generation atomically. `--port-file`
/// writes the bound address (useful with `--addr host:0`).
///
/// Observability: `--metrics-port N` binds a dedicated Prometheus
/// listener on `127.0.0.1:N` (`0` picks a free port;
/// `--metrics-port-file` writes the bound address). The main port also
/// answers `GET /metrics` either way. `--trace FILE` appends solver
/// events as JSON lines while the daemon runs.
///
/// `--max-solve-threads N` caps the per-request `threads` tuning knob
/// (protocol v2) so one client cannot monopolize the host; default 4.
pub fn serve<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    crate::commands::install_trace(args)?;
    let graph = load_graph(args)?;
    let instance = build_instance(args, graph)?;
    let state = match args.get("snapshot") {
        Some(path) => {
            ServiceState::from_snapshot_path(instance, Path::new(path)).map_err(snap_err)?
        }
        None => {
            let samples: usize = args.get_or("samples", 4096usize)?;
            let seed: u64 = args.get_or("seed", 1u64)?;
            let sampler = instance.sampler();
            let mut collection = RicStore::for_sampler(&sampler);
            collection.extend_parallel(&sampler, samples, seed);
            ServiceState::new(instance, collection, 0)
        }
    };
    let refresh = if args.get("refresh-target").is_some() {
        Some(RefreshConfig {
            target_samples: args.required_as("refresh-target")?,
            interval: Duration::from_millis(args.get_or("refresh-interval-ms", 1000u64)?),
            base_seed: args.get_or("refresh-seed", args.get_or("seed", 1u64)?)?,
        })
    } else {
        None
    };
    let metrics_addr = match args.get("metrics-port") {
        Some(_) => Some(format!(
            "127.0.0.1:{}",
            args.required_as::<u16>("metrics-port")?
        )),
        None => None,
    };
    let slow_request_log = match args.get("slow-request-log") {
        Some(_) => Some(Duration::from_millis(
            args.required_as::<u64>("slow-request-log")?,
        )),
        None => None,
    };
    let config = ServeConfig {
        addr: args.get_or("addr", "127.0.0.1:7744".to_string())?,
        workers: args.get_or("workers", 4usize)?,
        deadline: Duration::from_millis(args.get_or("deadline-ms", 30_000u64)?),
        refresh,
        metrics_addr,
        max_solve_threads: args.get_or("max-solve-threads", 4usize)?,
        slow_request_log,
    };
    let state = Arc::new(state);
    let server = Server::start(Arc::clone(&state), config)?;
    writeln!(
        out,
        "listening on {} ({} samples, generation {})",
        server.addr(),
        state.collection().len(),
        state.generation()
    )?;
    if let Some(addr) = server.metrics_addr() {
        writeln!(out, "metrics on http://{addr}/metrics")?;
    }
    out.flush()?;
    if let Some(path) = args.get("port-file") {
        // Write-then-rename so readers polling the file never see a
        // partially written address.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, server.addr().to_string())?;
        std::fs::rename(&tmp, path)?;
    }
    if let (Some(path), Some(addr)) = (args.get("metrics-port-file"), server.metrics_addr()) {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, addr.to_string())?;
        std::fs::rename(&tmp, path)?;
    }
    server.wait();
    writeln!(out, "shutdown complete")?;
    Ok(())
}

/// `imc query`: sends one request to a running daemon and prints the raw
/// JSON response line.
pub fn query<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    let addr = args.required("addr")?;
    let timeout = Duration::from_millis(args.get_or("timeout-ms", 10_000u64)?);
    let line = match args.get("raw") {
        Some(raw) => raw.to_string(),
        None => build_request(args)?,
    };
    let mut client = Client::connect(addr, timeout)?;
    let response = client.request_line(&line)?;
    writeln!(out, "{response}")?;
    Ok(())
}

fn build_request(args: &Args) -> Result<String> {
    let op = args.required("op")?;
    let mut builder = ObjectBuilder::new().field("op", op);
    match op {
        "solve" => {
            builder = builder.field("k", args.required_as::<u64>("k")?);
            if let Some(algo) = args.get("algo") {
                builder = builder.field("algo", algo);
            }
            if args.get("seed").is_some() {
                builder = builder.field("seed", args.required_as::<u64>("seed")?);
            }
            // Protocol-v2 tuning knobs; the daemon clamps `threads` to its
            // own `--max-solve-threads` cap.
            if args.get("threads").is_some() || args.get("depth").is_some() {
                builder = builder.field("v", 2u64);
            }
            if args.get("threads").is_some() {
                builder = builder.field("threads", args.required_as::<u64>("threads")?);
            }
            if args.get("depth").is_some() {
                builder = builder.field("depth", args.required_as::<u64>("depth")?);
            }
            if let Some(framework) = args.get("framework") {
                builder = builder.field("framework", framework);
                if args.get("epsilon").is_some() {
                    builder = builder.field("epsilon", args.required_as::<f64>("epsilon")?);
                }
                if args.get("delta").is_some() {
                    builder = builder.field("delta", args.required_as::<f64>("delta")?);
                }
                if args.get("max-samples").is_some() {
                    builder = builder.field("max_samples", args.required_as::<u64>("max-samples")?);
                }
            }
        }
        "estimate" => {
            builder = builder.field("seeds", args.required_u32_list("seeds")?);
        }
        "stats" | "metrics" | "health" | "shutdown" => {}
        other => {
            return Err(CliError::Usage(format!(
                "--op expects solve | estimate | stats | metrics | health | shutdown, got `{other}`"
            )))
        }
    }
    Ok(json::to_string(&builder.build()))
}

/// `imc snapshot save`: samples a RIC collection deterministically and
/// writes it (with the instance fingerprint) to `--out`.
pub fn snapshot_save<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    let graph = load_graph(args)?;
    let instance = build_instance(args, graph)?;
    let samples: usize = args.required_as("samples")?;
    let seed: u64 = args.get_or("seed", 1u64)?;
    let path = args.required("out")?;
    let sampler = instance.sampler();
    let mut collection = RicStore::for_sampler(&sampler);
    match args.get("workers") {
        Some(_) => collection.extend_parallel_with_workers(
            &sampler,
            samples,
            seed,
            args.required_as("workers")?,
        ),
        None => collection.extend_parallel(&sampler, samples, seed),
    }
    let fingerprint = snapshot::instance_fingerprint(instance.graph(), instance.communities());
    snapshot::save(Path::new(path), &collection, fingerprint, 0).map_err(snap_err)?;
    writeln!(
        out,
        "wrote {} samples (fingerprint {fingerprint:016x}) to {path}",
        collection.len()
    )?;
    Ok(())
}

/// `imc snapshot load`: validates `--file` and prints its header. When
/// `--graph`/`--communities` are also given, verifies the fingerprint
/// against that instance.
pub fn snapshot_load<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    let path = args.required("file")?;
    let data = snapshot::load(Path::new(path)).map_err(snap_err)?;
    writeln!(
        out,
        "{path}: {} samples, generation {}, fingerprint {:016x}",
        data.collection.len(),
        data.generation,
        data.fingerprint
    )?;
    if args.get("graph").is_some() {
        let graph = load_graph(args)?;
        let instance = build_instance(args, graph)?;
        let expected = snapshot::instance_fingerprint(instance.graph(), instance.communities());
        if expected != data.fingerprint {
            return Err(snap_err(SnapshotError::FingerprintMismatch {
                expected,
                found: data.fingerprint,
            }));
        }
        writeln!(out, "fingerprint matches the given instance")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::args::Args;
    use crate::commands::run;
    use crate::{CliError, Result};
    use std::time::{Duration, Instant};

    fn run_str(command: &str, tokens: &[&str]) -> Result<String> {
        let args = Args::parse(tokens.iter().map(|s| s.to_string()))?;
        let mut out = Vec::new();
        run(command, &args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("imc-svc-cli-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    /// Writes a small deterministic graph + communities pair.
    fn instance_files(tag: &str) -> (String, String) {
        let graph_path = tmp(&format!("{tag}-g.txt"));
        let comm_path = tmp(&format!("{tag}-c.txt"));
        run_str(
            "generate",
            &[
                "--model",
                "er",
                "--nodes",
                "40",
                "--p",
                "0.1",
                "--seed",
                "11",
                "--out",
                &graph_path,
            ],
        )
        .unwrap();
        let mut assignments = String::new();
        for v in 0..40 {
            assignments.push_str(&format!("{v} {}\n", v / 10));
        }
        std::fs::write(&comm_path, assignments).unwrap();
        (graph_path, comm_path)
    }

    fn wait_for_addr(port_file: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(addr) = std::fs::read_to_string(port_file) {
                if !addr.is_empty() {
                    return addr;
                }
            }
            assert!(Instant::now() < deadline, "server never wrote {port_file}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn snapshot_save_then_load_round_trips() {
        let (graph_path, comm_path) = instance_files("roundtrip");
        let snap_path = tmp("roundtrip.snap");
        let msg = run_str(
            "snapshot save",
            &[
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
                "--samples",
                "120",
                "--seed",
                "9",
                "--out",
                &snap_path,
            ],
        )
        .unwrap();
        assert!(msg.contains("wrote 120 samples"));

        let info = run_str("snapshot load", &["--file", &snap_path]).unwrap();
        assert!(info.contains("120 samples"));
        assert!(info.contains("generation 0"));

        let verified = run_str(
            "snapshot load",
            &[
                "--file",
                &snap_path,
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
            ],
        )
        .unwrap();
        assert!(verified.contains("fingerprint matches"));

        // A different instance (different weights) must be refused.
        let err = run_str(
            "snapshot load",
            &[
                "--file",
                &snap_path,
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
                "--weights",
                "0.9",
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("fingerprint"));

        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn snapshot_load_refuses_legacy_files() {
        let mut v2 = include_bytes!("../../imc-core/tests/fixtures/snapshot_v3.snap").to_vec();
        v2[7] = 2;
        let v1: &[u8] = include_bytes!("../../imc-core/tests/fixtures/snapshot_v1.snap");
        for (version, bytes) in [(1, v1), (2, &v2[..])] {
            let snap_path = tmp(&format!("legacy-v{version}.snap"));
            std::fs::write(&snap_path, bytes).unwrap();
            let err = run_str("snapshot load", &["--file", &snap_path]).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("unsupported snapshot format version {version}")),
                "{msg}"
            );
            assert!(msg.contains("snapshot save"), "names the way out: {msg}");
            std::fs::remove_file(&snap_path).ok();
        }
        // The lifting subcommand is gone with the version-2 reader.
        assert!(matches!(
            run_str("snapshot upgrade", &[]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn snapshot_save_is_bit_identical_across_worker_counts() {
        let (graph_path, comm_path) = instance_files("workers");
        let one = tmp("w1.snap");
        let four = tmp("w4.snap");
        for (path, workers) in [(&one, "1"), (&four, "4")] {
            run_str(
                "snapshot save",
                &[
                    "--graph",
                    &graph_path,
                    "--communities",
                    &comm_path,
                    "--samples",
                    "200",
                    "--seed",
                    "33",
                    "--workers",
                    workers,
                    "--out",
                    path,
                ],
            )
            .unwrap();
        }
        assert_eq!(std::fs::read(&one).unwrap(), std::fs::read(&four).unwrap());
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
        std::fs::remove_file(&one).ok();
        std::fs::remove_file(&four).ok();
    }

    #[test]
    fn serve_and_query_end_to_end() {
        let (graph_path, comm_path) = instance_files("serve");
        let port_file = tmp("serve.addr");
        std::fs::remove_file(&port_file).ok();
        let serve_args = vec![
            "--graph".to_string(),
            graph_path.clone(),
            "--communities".to_string(),
            comm_path.clone(),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--port-file".to_string(),
            port_file.clone(),
            "--samples".to_string(),
            "200".to_string(),
            "--seed".to_string(),
            "5".to_string(),
            "--workers".to_string(),
            "2".to_string(),
        ];
        let serve_thread = std::thread::spawn(move || {
            let args = Args::parse(serve_args).unwrap();
            let mut out = Vec::new();
            run("serve", &args, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });
        let addr = wait_for_addr(&port_file);

        let health = run_str("query", &["--addr", &addr, "--op", "health"]).unwrap();
        assert!(health.contains(r#""ok":true"#), "{health}");
        assert!(health.contains(r#""samples":200"#), "{health}");

        let solved = run_str(
            "query",
            &[
                "--addr", &addr, "--op", "solve", "--k", "2", "--algo", "maf", "--seed", "3",
            ],
        )
        .unwrap();
        assert!(solved.contains(r#""seeds":["#), "{solved}");

        let estimated = run_str(
            "query",
            &["--addr", &addr, "--op", "estimate", "--seeds", "1,2"],
        )
        .unwrap();
        assert!(estimated.contains(r#""estimate":"#), "{estimated}");

        // The protocol-v2 `threads` knob passes through and is echoed back;
        // the removed `--mode` is one more flag the permissive parser does
        // not know, and never reaches the wire.
        let tuned = run_str(
            "query",
            &[
                "--addr",
                &addr,
                "--op",
                "solve",
                "--k",
                "2",
                "--algo",
                "greedy",
                "--threads",
                "2",
                "--mode",
                "parallel",
            ],
        )
        .unwrap();
        assert!(!tuned.contains(r#""mode""#), "{tuned}");
        assert!(tuned.contains(r#""threads":2"#), "{tuned}");
        let stale =
            Args::parse(["--op", "solve", "--k", "2", "--mode", "parallel"].map(String::from))
                .unwrap();
        assert_eq!(
            super::build_request(&stale).unwrap(),
            r#"{"k":2,"op":"solve"}"#
        );

        let raw = run_str("query", &["--addr", &addr, "--raw", r#"{"op":"nope"}"#]).unwrap();
        assert!(raw.contains(r#""ok":false"#), "{raw}");

        let bye = run_str("query", &["--addr", &addr, "--op", "shutdown"]).unwrap();
        assert!(bye.contains(r#""ok":true"#), "{bye}");

        let transcript = serve_thread.join().unwrap();
        assert!(transcript.contains("listening on"));
        assert!(transcript.contains("shutdown complete"));
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
        std::fs::remove_file(&port_file).ok();
    }

    #[test]
    fn serve_cold_starts_from_snapshot() {
        let (graph_path, comm_path) = instance_files("cold");
        let snap_path = tmp("cold.snap");
        run_str(
            "snapshot save",
            &[
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
                "--samples",
                "150",
                "--seed",
                "21",
                "--out",
                &snap_path,
            ],
        )
        .unwrap();

        let port_file = tmp("cold.addr");
        std::fs::remove_file(&port_file).ok();
        let serve_args = vec![
            "--graph".to_string(),
            graph_path.clone(),
            "--communities".to_string(),
            comm_path.clone(),
            "--snapshot".to_string(),
            snap_path.clone(),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--port-file".to_string(),
            port_file.clone(),
            "--workers".to_string(),
            "2".to_string(),
        ];
        let serve_thread = std::thread::spawn(move || {
            let args = Args::parse(serve_args).unwrap();
            let mut out = Vec::new();
            run("serve", &args, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });
        let addr = wait_for_addr(&port_file);

        // The daemon serves estimates straight from the snapshot's samples.
        let estimated = run_str(
            "query",
            &["--addr", &addr, "--op", "estimate", "--seeds", "0,15"],
        )
        .unwrap();
        assert!(estimated.contains(r#""samples":150"#), "{estimated}");

        run_str("query", &["--addr", &addr, "--op", "shutdown"]).unwrap();
        let transcript = serve_thread.join().unwrap();
        assert!(transcript.contains("150 samples"));
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
        std::fs::remove_file(&snap_path).ok();
        std::fs::remove_file(&port_file).ok();
    }

    #[test]
    fn serve_exposes_prometheus_metrics_port() {
        let (graph_path, comm_path) = instance_files("metrics");
        let port_file = tmp("metrics.addr");
        let metrics_file = tmp("metrics.maddr");
        std::fs::remove_file(&port_file).ok();
        std::fs::remove_file(&metrics_file).ok();
        let serve_args = vec![
            "--graph".to_string(),
            graph_path.clone(),
            "--communities".to_string(),
            comm_path.clone(),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--port-file".to_string(),
            port_file.clone(),
            "--metrics-port".to_string(),
            "0".to_string(),
            "--metrics-port-file".to_string(),
            metrics_file.clone(),
            "--samples".to_string(),
            "150".to_string(),
            "--workers".to_string(),
            "2".to_string(),
        ];
        let serve_thread = std::thread::spawn(move || {
            let args = Args::parse(serve_args).unwrap();
            let mut out = Vec::new();
            run("serve", &args, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });
        let addr = wait_for_addr(&port_file);
        let metrics_addr = wait_for_addr(&metrics_file);

        let solved = run_str(
            "query",
            &[
                "--addr", &addr, "--op", "solve", "--k", "2", "--algo", "ubg",
            ],
        )
        .unwrap();
        assert!(solved.contains(r#""ok":true"#), "{solved}");

        // Raw HTTP scrape against the dedicated metrics listener.
        let response = {
            use std::io::{Read, Write};
            let mut stream = std::net::TcpStream::connect(&metrics_addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response.contains("imc_requests_total"));
        assert!(response.contains("imc_ric_samples_generated_total"));

        // The NDJSON `metrics` op returns the same exposition as JSON.
        let via_op = run_str("query", &["--addr", &addr, "--op", "metrics"]).unwrap();
        assert!(
            via_op.contains(r#""format":"prometheus-0.0.4""#),
            "{via_op}"
        );
        assert!(via_op.contains("imc_collection_samples"), "{via_op}");

        let bye = run_str("query", &["--addr", &addr, "--op", "shutdown"]).unwrap();
        assert!(bye.contains(r#""ok":true"#), "{bye}");
        let transcript = serve_thread.join().unwrap();
        assert!(transcript.contains("metrics on http://"), "{transcript}");
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
        std::fs::remove_file(&port_file).ok();
        std::fs::remove_file(&metrics_file).ok();
    }

    #[test]
    fn query_rejects_unknown_op_before_connecting() {
        let err = run_str("query", &["--addr", "127.0.0.1:1", "--op", "frobnicate"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn snapshot_without_action_is_usage_error() {
        assert!(matches!(run_str("snapshot", &[]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_str("snapshot prune", &[]),
            Err(CliError::Usage(_))
        ));
    }
}
