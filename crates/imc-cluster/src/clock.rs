//! NTP-style per-shard clock-offset estimation.
//!
//! Shard daemons timestamp their trace events with their own wall
//! clocks, so stitching a cross-process solve timeline needs each
//! shard's offset relative to the coordinator. A `ping` round-trip
//! carries the four NTP timestamps — client send (`t0`), server
//! receive (`t1` = the wire's `srv_recv_us`), server send (`t2` =
//! `srv_send_us`), client receive (`t3`) — and the classic midpoint
//! estimate `((t1−t0)+(t2−t3))/2` bounds the error by half the
//! round-trip time. Probing a few times and keeping the minimum-RTT
//! sample (NTP's clock filter) tightens that bound to the network's
//! best case.

use std::net::SocketAddr;
use std::time::Duration;

use imc_obs::json::Value;
use imc_service::client::Client;

/// One shard's estimated clock offset relative to this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockOffset {
    /// The probed shard.
    pub addr: SocketAddr,
    /// Estimated `shard_clock − local_clock`, in microseconds: add the
    /// negation to a shard timestamp to express it on the local clock.
    pub offset_us: i64,
    /// Round-trip time of the winning (minimum-RTT) probe, in
    /// microseconds — the offset's error bound is half of this.
    pub rtt_us: u64,
    /// Probes that completed with usable server timestamps.
    pub probes: u32,
}

/// Estimates `addr`'s clock offset from `probes` ping round-trips,
/// keeping the minimum-RTT sample. Returns `None` when the shard is
/// unreachable or no probe came back with server timestamps (a v1
/// daemon whose `ping` predates `srv_recv_us`/`srv_send_us`).
pub fn estimate_offset(addr: SocketAddr, probes: u32, timeout: Duration) -> Option<ClockOffset> {
    let mut client = Client::connect(addr, timeout).ok()?;
    let mut best: Option<(u64, i64)> = None;
    let mut completed = 0u32;
    for _ in 0..probes.max(1) {
        let t0 = imc_obs::trace::now_us();
        let Ok(resp) = client.request(r#"{"op":"ping"}"#) else {
            continue;
        };
        let t3 = imc_obs::trace::now_us();
        let (Some(t1), Some(t2)) = (
            resp.get("srv_recv_us").and_then(Value::as_u64),
            resp.get("srv_send_us").and_then(Value::as_u64),
        ) else {
            continue;
        };
        completed += 1;
        // Wall clocks can step; saturate rather than wrap on the rare
        // backwards tick mid-probe.
        let rtt = t3.saturating_sub(t0).saturating_sub(t2.saturating_sub(t1));
        let offset = ((t1 as i64 - t0 as i64) + (t2 as i64 - t3 as i64)) / 2;
        if best.is_none_or(|(r, _)| rtt < r) {
            best = Some((rtt, offset));
        }
    }
    let (rtt_us, offset_us) = best?;
    Some(ClockOffset {
        addr,
        offset_us,
        rtt_us,
        probes: completed,
    })
}

/// Probes every shard and emits one `clock_offset` trace event per
/// reachable shard (the stitcher reads these to translate shard
/// timestamps onto the coordinator's clock). Unreachable shards are
/// skipped — alignment is best-effort diagnostics, never a solve
/// dependency.
pub fn align(addrs: &[SocketAddr], probes: u32, timeout: Duration) -> Vec<ClockOffset> {
    addrs
        .iter()
        .filter_map(|&addr| {
            let est = estimate_offset(addr, probes, timeout)?;
            imc_obs::trace::emit(
                imc_obs::trace::TraceEvent::new("clock_offset")
                    .field("shard", addr.to_string())
                    .field("offset_us", est.offset_us)
                    .field("rtt_us", est.rtt_us)
                    .field("probes", u64::from(est.probes)),
            );
            Some(est)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A fake daemon whose clock runs `shift_us` ahead of ours.
    fn fake_shard(shift_us: i64) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let mut line = String::new();
            while let Ok(n) = reader.read_line(&mut line) {
                if n == 0 {
                    break;
                }
                let now = imc_obs::trace::now_us() as i64 + shift_us;
                let resp = format!(
                    "{{\"ok\":true,\"op\":\"ping\",\"srv_recv_us\":{now},\"srv_send_us\":{now}}}\n"
                );
                if stream.write_all(resp.as_bytes()).is_err() {
                    break;
                }
                line.clear();
            }
        });
        (addr, handle)
    }

    #[test]
    fn offset_recovers_a_known_clock_shift() {
        const SHIFT: i64 = 5_000_000; // five seconds — way above loopback RTT noise
        let (addr, server) = fake_shard(SHIFT);
        let est = estimate_offset(addr, 4, Duration::from_secs(5)).expect("estimate");
        assert_eq!(est.addr, addr);
        assert_eq!(est.probes, 4);
        assert!(
            (est.offset_us - SHIFT).abs() <= 250_000,
            "offset {} should be within 250ms of the injected {SHIFT}",
            est.offset_us
        );
        // The minimum-RTT probe on loopback is tight.
        assert!(est.rtt_us < 1_000_000, "rtt {}", est.rtt_us);
        server.join().unwrap();
    }

    #[test]
    fn missing_server_timestamps_yield_none() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let mut line = String::new();
            while let Ok(n) = reader.read_line(&mut line) {
                if n == 0 {
                    break;
                }
                // A v1 ping response: no srv_recv_us/srv_send_us.
                if stream
                    .write_all(b"{\"ok\":true,\"op\":\"ping\",\"elapsed_us\":3}\n")
                    .is_err()
                {
                    break;
                }
                line.clear();
            }
        });
        assert!(estimate_offset(addr, 2, Duration::from_secs(5)).is_none());
        server.join().unwrap();
    }
}
