//! Fault injection for cluster tests and the `--chaos` runner mode.
//!
//! Faults are injected from *outside* the daemon: a [`ChaosProxy`] sits
//! between the coordinator and one shard, forwarding newline-delimited
//! requests and responses until a trigger fires. Triggers are
//! count-based — "the Nth request through this proxy" — so a chaos run
//! is fully deterministic: the same topology, seed and spec always
//! fault at the same point in the solve, with no clocks or randomness
//! involved.
//!
//! Fault menu ([`ChaosFault`]):
//!
//! * `kill` — from the trigger on, every connection is accepted and
//!   immediately dropped, and in-flight connections die. The shard
//!   *process* stays up, but through the proxy it is permanently dark:
//!   probes connect (TCP accept) yet the `ping` round-trip fails, which
//!   exercises the coordinator's full declare-dead path.
//! * `drop` — the triggering connection is severed once; later
//!   connections pass through. A reconnect-and-retry (or a session
//!   restart) succeeds, modelling a transient stall.
//! * `hang` — the triggering request is held for a fixed duration
//!   before forwarding, modelling a slow network or a GC-style pause.
//!   Whether this is "transient" or "fatal" depends on the client's
//!   read timeout relative to the hang.
//! * `slow` — every request after the trigger is delayed by a fixed
//!   duration; the cluster limps but answers.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What happens when the trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Permanently blackhole the shard: accept then drop every
    /// connection from the trigger on.
    Kill,
    /// Sever the triggering connection once, then behave normally.
    DropOnce,
    /// Hold the triggering request for this long before forwarding.
    Hang(Duration),
    /// Delay every request after the trigger by this long.
    Slow(Duration),
}

/// A parsed `--chaos` spec: which shard faults, how, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Index of the shard (in topology order) to put behind the proxy.
    pub shard: usize,
    /// The fault to inject.
    pub fault: ChaosFault,
    /// Fire when this many requests have already passed through — the
    /// trigger hits request number `after + 1`. `0` faults the very
    /// first request.
    pub after: u64,
}

impl ChaosSpec {
    /// Parses `kind:shard@after[:millis]`, e.g. `kill:1@3`,
    /// `drop:0@2`, `hang:1@3:500`, `slow:1@0:20`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed piece.
    pub fn parse(spec: &str) -> Result<ChaosSpec, String> {
        let (kind, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("chaos spec `{spec}`: expected kind:shard@after[:millis]"))?;
        let (shard_part, rest) = rest
            .split_once('@')
            .ok_or_else(|| format!("chaos spec `{spec}`: missing `@after`"))?;
        let shard: usize = shard_part
            .parse()
            .map_err(|_| format!("chaos spec `{spec}`: bad shard index `{shard_part}`"))?;
        let (after_part, millis_part) = match rest.split_once(':') {
            Some((a, m)) => (a, Some(m)),
            None => (rest, None),
        };
        let after: u64 = after_part
            .parse()
            .map_err(|_| format!("chaos spec `{spec}`: bad trigger count `{after_part}`"))?;
        let millis = match millis_part {
            Some(m) => {
                Some(Duration::from_millis(m.parse().map_err(|_| {
                    format!("chaos spec `{spec}`: bad duration `{m}`")
                })?))
            }
            None => None,
        };
        let fault = match (kind, millis) {
            ("kill", None) => ChaosFault::Kill,
            ("drop", None) => ChaosFault::DropOnce,
            ("hang", Some(d)) => ChaosFault::Hang(d),
            ("slow", Some(d)) => ChaosFault::Slow(d),
            ("hang" | "slow", None) => {
                return Err(format!("chaos spec `{spec}`: `{kind}` needs `:millis`"))
            }
            ("kill" | "drop", Some(_)) => {
                return Err(format!("chaos spec `{spec}`: `{kind}` takes no duration"))
            }
            _ => {
                return Err(format!(
                    "chaos spec `{spec}`: unknown fault `{kind}` (kill | drop | hang | slow)"
                ))
            }
        };
        Ok(ChaosSpec {
            shard,
            fault,
            after,
        })
    }
}

impl std::fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.fault {
            ChaosFault::Kill => write!(f, "kill:{}@{}", self.shard, self.after),
            ChaosFault::DropOnce => write!(f, "drop:{}@{}", self.shard, self.after),
            ChaosFault::Hang(d) => {
                write!(f, "hang:{}@{}:{}", self.shard, self.after, d.as_millis())
            }
            ChaosFault::Slow(d) => {
                write!(f, "slow:{}@{}:{}", self.shard, self.after, d.as_millis())
            }
        }
    }
}

/// A line-oriented TCP proxy injecting one [`ChaosFault`] in front of a
/// shard daemon. The coordinator connects to [`ChaosProxy::addr`]
/// instead of the daemon; requests are counted across all connections
/// with a shared atomic, so the trigger is global, not per-connection.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    requests: Arc<AtomicU64>,
    connections: Arc<AtomicU64>,
    tripped: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral loopback port forwarding to
    /// `target`, arming `fault` to fire after `after` requests have
    /// passed.
    ///
    /// # Errors
    ///
    /// The listener bind failure.
    pub fn start(target: SocketAddr, fault: ChaosFault, after: u64) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let requests = Arc::new(AtomicU64::new(0));
        let connections = Arc::new(AtomicU64::new(0));
        let tripped = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let requests = Arc::clone(&requests);
            let connections = Arc::clone(&connections);
            let tripped = Arc::clone(&tripped);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("imc-chaos-proxy".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(client) = stream else { continue };
                        connections.fetch_add(1, Ordering::SeqCst);
                        // A killed shard accepts and immediately drops:
                        // the TCP handshake succeeds but no request ever
                        // gets an answer, so probes fail on the ping
                        // round-trip rather than on connect.
                        if fault == ChaosFault::Kill && tripped.load(Ordering::SeqCst) {
                            drop(client);
                            continue;
                        }
                        let requests = Arc::clone(&requests);
                        let tripped = Arc::clone(&tripped);
                        let stop = Arc::clone(&stop);
                        std::thread::spawn(move || {
                            let _ =
                                forward(client, target, fault, after, &requests, &tripped, &stop);
                        });
                    }
                })
                .expect("spawn chaos proxy")
        };
        Ok(ChaosProxy {
            addr,
            requests,
            connections,
            tripped,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The address the coordinator should dial instead of the shard.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests proxied so far (across all connections).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }

    /// Connections accepted so far, a killed shard's accept-and-drop ones
    /// included.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }

    /// Whether the fault has fired.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Stops accepting new connections and joins the acceptor. Existing
    /// forwarding threads die when their sockets do.
    pub fn stop_and_join(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

/// Forwards one client connection line-by-line to a fresh upstream
/// connection, applying the fault at the trigger point.
fn forward(
    client: TcpStream,
    target: SocketAddr,
    fault: ChaosFault,
    after: u64,
    requests: &AtomicU64,
    tripped: &AtomicBool,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    client.set_nodelay(true)?;
    let upstream = TcpStream::connect(target)?;
    upstream.set_nodelay(true)?;
    let mut client_writer = client.try_clone()?;
    let mut upstream_writer = upstream.try_clone()?;
    let client_reader = BufReader::new(client);
    let mut upstream_reader = BufReader::new(upstream);
    for line in client_reader.lines() {
        let line = line?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let n = requests.fetch_add(1, Ordering::SeqCst);
        let fires_now = n >= after;
        if fires_now {
            let already = tripped.swap(true, Ordering::SeqCst);
            match fault {
                ChaosFault::Kill => {
                    // Sever this connection; the acceptor refuses the rest.
                    return Ok(());
                }
                ChaosFault::DropOnce => {
                    if !already {
                        return Ok(()); // sever exactly once
                    }
                }
                ChaosFault::Hang(d) => {
                    if !already {
                        std::thread::sleep(d);
                    }
                }
                ChaosFault::Slow(d) => std::thread::sleep(d),
            }
        }
        writeln!(upstream_writer, "{line}")?;
        upstream_writer.flush()?;
        let mut response = String::new();
        if upstream_reader.read_line(&mut response)? == 0 {
            break;
        }
        client_writer.write_all(response.as_bytes())?;
        client_writer.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_fault_kind() {
        assert_eq!(
            ChaosSpec::parse("kill:1@3").unwrap(),
            ChaosSpec {
                shard: 1,
                fault: ChaosFault::Kill,
                after: 3
            }
        );
        assert_eq!(
            ChaosSpec::parse("drop:0@2").unwrap(),
            ChaosSpec {
                shard: 0,
                fault: ChaosFault::DropOnce,
                after: 2
            }
        );
        assert_eq!(
            ChaosSpec::parse("hang:1@3:500").unwrap(),
            ChaosSpec {
                shard: 1,
                fault: ChaosFault::Hang(Duration::from_millis(500)),
                after: 3
            }
        );
        assert_eq!(
            ChaosSpec::parse("slow:2@0:20").unwrap(),
            ChaosSpec {
                shard: 2,
                fault: ChaosFault::Slow(Duration::from_millis(20)),
                after: 0
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "kill",
            "kill:x@3",
            "kill:1",
            "kill:1@x",
            "hang:1@3",
            "kill:1@3:100",
            "explode:1@3",
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn spec_round_trips_through_display() {
        for text in ["kill:1@3", "drop:0@2", "hang:1@3:500", "slow:2@0:20"] {
            let spec = ChaosSpec::parse(text).unwrap();
            assert_eq!(spec.to_string(), text);
            assert_eq!(ChaosSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    /// A trivial line server answering `{"ok":true}` to every request.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming().take(8) {
                let Ok(stream) = stream else { break };
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    let reader = BufReader::new(stream);
                    for line in reader.lines() {
                        if line.is_err() {
                            break;
                        }
                        if writeln!(writer, "{{\"ok\":true}}").is_err() {
                            break;
                        }
                        let _ = writer.flush();
                    }
                });
            }
        });
        (addr, handle)
    }

    fn roundtrip(addr: SocketAddr) -> std::io::Result<String> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{{\"op\":\"ping\"}}")?;
        writer.flush()?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "severed",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    #[test]
    fn kill_proxy_goes_dark_at_the_trigger_and_stays_dark() {
        let (target, _server) = echo_server();
        let proxy = ChaosProxy::start(target, ChaosFault::Kill, 2).unwrap();
        assert_eq!(roundtrip(proxy.addr()).unwrap(), r#"{"ok":true}"#);
        assert_eq!(roundtrip(proxy.addr()).unwrap(), r#"{"ok":true}"#);
        // Request 3 trips the kill; it and everything after it fail.
        assert!(roundtrip(proxy.addr()).is_err());
        assert!(proxy.tripped());
        assert!(roundtrip(proxy.addr()).is_err());
        proxy.stop_and_join();
    }

    #[test]
    fn drop_once_proxy_recovers_after_one_severed_connection() {
        let (target, _server) = echo_server();
        let proxy = ChaosProxy::start(target, ChaosFault::DropOnce, 1).unwrap();
        assert_eq!(roundtrip(proxy.addr()).unwrap(), r#"{"ok":true}"#);
        assert!(roundtrip(proxy.addr()).is_err(), "trigger severs once");
        assert_eq!(
            roundtrip(proxy.addr()).unwrap(),
            r#"{"ok":true}"#,
            "post-trigger connections pass through"
        );
        assert_eq!((proxy.connections(), proxy.requests()), (3, 3));
        proxy.stop_and_join();
    }
}
