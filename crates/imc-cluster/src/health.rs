//! Coordinator-side shard health: a per-shard state machine fed by
//! RPC outcomes and cheap `ping` probes.
//!
//! Each shard moves through four states:
//!
//! ```text
//!            fail                 fail × threshold
//!  Healthy ────────▶ Suspect ─────────────────────▶ Dead
//!     ▲                 │                             │
//!     │ ok              │ ok                          │ probe ok
//!     │                 ▼                             ▼
//!     └───────────── Healthy                      Recovered
//!     ▲                                               │
//!     └───────────────────────────────────────────────┘
//!                        next successful use (rejoin)
//! ```
//!
//! Transitions are driven by two inputs only: `record_ok` (an RPC or
//! probe round-trip succeeded) and `record_failure` (a transport error
//! or probe timeout). `Dead` is sticky against ordinary failures — only
//! a successful probe moves a dead shard to `Recovered`, and the
//! coordinator folds a `Recovered` shard back in at the *next* solve
//! (never mid-solve, which would break determinism of the in-flight
//! answer). Every transition is published to the labeled
//! `imc_cluster_shard_state` gauge.
//!
//! The probe itself is the `{"op":"ping"}` fast path added to
//! imc-service: no collection pin, no session state, just proof the
//! worker loop answers. The coordinator probes on demand: before
//! declaring a shard dead mid-solve, and each dead shard once before
//! every request.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

use imc_service::client::Client;

use imc_obs::families;

/// Health state of one shard as seen by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Probes/RPCs are failing and the failure streak crossed the
    /// threshold; the shard is excluded from solves until a probe
    /// succeeds.
    Dead,
    /// At least one recent failure; still included, but the next
    /// failure streak can kill it.
    Suspect,
    /// A dead shard answered a probe; it rejoins at the next solve.
    Recovered,
    /// Answering normally.
    Healthy,
}

impl ShardState {
    /// Numeric encoding used by the `imc_cluster_shard_state` gauge.
    pub fn as_gauge(self) -> f64 {
        match self {
            ShardState::Dead => 0.0,
            ShardState::Suspect => 1.0,
            ShardState::Recovered => 2.0,
            ShardState::Healthy => 3.0,
        }
    }

    /// Lower-case name used in protocol responses and logs.
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Dead => "dead",
            ShardState::Suspect => "suspect",
            ShardState::Recovered => "recovered",
            ShardState::Healthy => "healthy",
        }
    }

    /// Whether the coordinator should include this shard in a solve.
    pub fn is_usable(self) -> bool {
        !matches!(self, ShardState::Dead)
    }
}

#[derive(Debug)]
struct ShardHealth {
    state: ShardState,
    /// Consecutive failures since the last success.
    streak: u32,
}

/// Shared scoreboard of per-shard health, keyed by shard address.
///
/// One board is shared by every coordinator connection; all methods
/// take `&self` and lock a single mutex, so updates from two
/// connections' threads never race.
#[derive(Debug)]
pub struct HealthBoard {
    shards: Vec<SocketAddr>,
    states: Mutex<Vec<ShardHealth>>,
    /// Consecutive failures that turn Suspect into Dead.
    threshold: u32,
}

impl HealthBoard {
    /// A board tracking `shards`, all initially [`ShardState::Healthy`],
    /// declaring a shard dead after `threshold` consecutive failures
    /// (minimum 1).
    pub fn new(shards: &[SocketAddr], threshold: u32) -> Self {
        let states = shards
            .iter()
            .map(|addr| {
                families::CLUSTER_SHARD_STATE
                    .with([&addr.to_string()])
                    .set(ShardState::Healthy.as_gauge());
                ShardHealth {
                    state: ShardState::Healthy,
                    streak: 0,
                }
            })
            .collect();
        HealthBoard {
            shards: shards.to_vec(),
            states: Mutex::new(states),
            threshold: threshold.max(1),
        }
    }

    /// The shard addresses this board tracks, in topology order.
    pub fn shards(&self) -> &[SocketAddr] {
        &self.shards
    }

    fn index_of(&self, addr: SocketAddr) -> Option<usize> {
        self.shards.iter().position(|&a| a == addr)
    }

    /// The current state of `addr` (Healthy for untracked addresses).
    pub fn state(&self, addr: SocketAddr) -> ShardState {
        match self.index_of(addr) {
            Some(i) => self.states.lock().expect("health lock")[i].state,
            None => ShardState::Healthy,
        }
    }

    /// Snapshot of all (addr, state) pairs in topology order.
    pub fn snapshot(&self) -> Vec<(SocketAddr, ShardState)> {
        let states = self.states.lock().expect("health lock");
        self.shards
            .iter()
            .zip(states.iter())
            .map(|(&addr, h)| (addr, h.state))
            .collect()
    }

    fn set_state(&self, i: usize, states: &mut [ShardHealth], next: ShardState) {
        if states[i].state != next {
            states[i].state = next;
            families::CLUSTER_SHARD_STATE
                .with([&self.shards[i].to_string()])
                .set(next.as_gauge());
        }
    }

    /// Records a successful round-trip (RPC or probe) to `addr`.
    ///
    /// Suspect → Healthy; Dead → Recovered (probe reached a shard that
    /// was written off); Recovered stays Recovered until
    /// [`record_rejoin`](Self::record_rejoin) folds it back in.
    pub fn record_ok(&self, addr: SocketAddr) {
        let Some(i) = self.index_of(addr) else { return };
        let mut states = self.states.lock().expect("health lock");
        states[i].streak = 0;
        let next = match states[i].state {
            ShardState::Healthy | ShardState::Suspect => ShardState::Healthy,
            ShardState::Dead | ShardState::Recovered => ShardState::Recovered,
        };
        self.set_state(i, &mut states, next);
    }

    /// Records a transport failure or probe timeout against `addr`.
    /// Healthy → Suspect immediately; Suspect → Dead once the
    /// consecutive-failure streak reaches the threshold.
    pub fn record_failure(&self, addr: SocketAddr) {
        let Some(i) = self.index_of(addr) else { return };
        let mut states = self.states.lock().expect("health lock");
        states[i].streak = states[i].streak.saturating_add(1);
        let next = match states[i].state {
            ShardState::Healthy | ShardState::Suspect | ShardState::Recovered => {
                if states[i].streak >= self.threshold {
                    ShardState::Dead
                } else {
                    ShardState::Suspect
                }
            }
            ShardState::Dead => ShardState::Dead,
        };
        self.set_state(i, &mut states, next);
    }

    /// Declares `addr` dead unconditionally (the coordinator exhausted
    /// its retry budget mid-solve and a confirmation probe failed).
    pub fn mark_dead(&self, addr: SocketAddr) {
        let Some(i) = self.index_of(addr) else { return };
        let mut states = self.states.lock().expect("health lock");
        states[i].streak = self.threshold;
        self.set_state(i, &mut states, ShardState::Dead);
    }

    /// Folds a recovered shard back into service (Recovered → Healthy).
    /// Called at the start of a solve, never mid-solve.
    pub fn record_rejoin(&self, addr: SocketAddr) {
        let Some(i) = self.index_of(addr) else { return };
        let mut states = self.states.lock().expect("health lock");
        if states[i].state == ShardState::Recovered {
            states[i].streak = 0;
            self.set_state(i, &mut states, ShardState::Healthy);
        }
    }
}

/// One `ping` round-trip to `addr` with every socket phase capped at
/// `timeout`. Returns `true` only for a parsed `"ok":true` response.
/// Feeds the probe counters but does **not** touch a board — callers
/// decide how a probe outcome maps to a transition.
pub fn probe(addr: SocketAddr, timeout: Duration) -> bool {
    families::CLUSTER_PROBES.handle().inc();
    let ok = Client::connect(addr, timeout)
        .and_then(|mut c| c.request(r#"{"op":"ping"}"#))
        .map(|v| {
            v.get("ok")
                .and_then(imc_obs::json::Value::as_bool)
                .unwrap_or(false)
        })
        .unwrap_or(false);
    if !ok {
        families::CLUSTER_PROBE_FAILURES.handle().inc();
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 7100 + i).parse().unwrap())
            .collect()
    }

    #[test]
    fn healthy_shard_becomes_suspect_then_dead() {
        let shards = addrs(2);
        let board = HealthBoard::new(&shards, 2);
        assert_eq!(board.state(shards[0]), ShardState::Healthy);
        board.record_failure(shards[0]);
        assert_eq!(board.state(shards[0]), ShardState::Suspect);
        assert!(board.state(shards[0]).is_usable());
        board.record_failure(shards[0]);
        assert_eq!(board.state(shards[0]), ShardState::Dead);
        assert!(!board.state(shards[0]).is_usable());
        // The other shard is untouched.
        assert_eq!(board.state(shards[1]), ShardState::Healthy);
    }

    #[test]
    fn suspect_recovers_to_healthy_on_success() {
        let shards = addrs(1);
        let board = HealthBoard::new(&shards, 3);
        board.record_failure(shards[0]);
        board.record_failure(shards[0]);
        assert_eq!(board.state(shards[0]), ShardState::Suspect);
        board.record_ok(shards[0]);
        assert_eq!(board.state(shards[0]), ShardState::Healthy);
        // The streak reset: two more failures stay Suspect.
        board.record_failure(shards[0]);
        board.record_failure(shards[0]);
        assert_eq!(board.state(shards[0]), ShardState::Suspect);
        board.record_failure(shards[0]);
        assert_eq!(board.state(shards[0]), ShardState::Dead);
    }

    #[test]
    fn dead_shard_recovers_then_rejoins() {
        let shards = addrs(1);
        let board = HealthBoard::new(&shards, 1);
        board.mark_dead(shards[0]);
        assert_eq!(board.state(shards[0]), ShardState::Dead);
        // Failures against a dead shard keep it dead.
        board.record_failure(shards[0]);
        assert_eq!(board.state(shards[0]), ShardState::Dead);
        // A successful probe moves it to Recovered, not straight back in.
        board.record_ok(shards[0]);
        assert_eq!(board.state(shards[0]), ShardState::Recovered);
        assert!(board.state(shards[0]).is_usable());
        // Rejoin at the next solve makes it Healthy again.
        board.record_rejoin(shards[0]);
        assert_eq!(board.state(shards[0]), ShardState::Healthy);
    }

    #[test]
    fn snapshot_reports_topology_order_and_gauges_track_state() {
        let shards = addrs(3);
        let board = HealthBoard::new(&shards, 1);
        board.record_failure(shards[1]);
        let snap = board.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0], (shards[0], ShardState::Healthy));
        assert_eq!(snap[1].1, ShardState::Dead);
        assert_eq!(
            families::CLUSTER_SHARD_STATE
                .with([&shards[1].to_string()])
                .get(),
            ShardState::Dead.as_gauge()
        );
    }

    #[test]
    fn probe_fails_fast_against_a_closed_port() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(!probe(addr, Duration::from_millis(100)));
    }

    #[test]
    fn untracked_addresses_are_ignored() {
        let shards = addrs(1);
        let board = HealthBoard::new(&shards, 1);
        let stranger: SocketAddr = "127.0.0.1:65000".parse().unwrap();
        board.record_failure(stranger);
        board.record_ok(stranger);
        board.mark_dead(stranger);
        assert_eq!(board.state(stranger), ShardState::Healthy);
        assert_eq!(board.snapshot().len(), 1);
    }
}
