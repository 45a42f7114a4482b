//! Background sample refresher: grows the served collection by doubling
//! (the IMCAF outer-loop schedule) and publishes each enlarged collection
//! via the state's atomic `Arc` swap — in-flight requests keep the
//! collection they pinned; new requests see the new generation.
//!
//! The seed schedule is the one doubling schedule of the tree: the growth
//! round for generation `g` is stage `g` of
//! [`growth_seed`](imc_core::growth_seed) under `base_seed`, the rule
//! IMCAF's stages use — so reruns of the same schedule reproduce the same
//! collections bit-for-bit and distinct rounds never reuse a shard seed.

use crate::server::{RefreshConfig, Shutdown};
use crate::ServiceState;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One growth round: doubles the collection (capped at `target_samples`)
/// and publishes it. Returns the new generation, or `None` when the
/// collection is already at target.
pub fn grow_once(state: &ServiceState, config: &RefreshConfig) -> Option<u64> {
    let (current, generation) = state.pinned();
    let len = current.len();
    if len >= config.target_samples {
        return None;
    }
    let grow_to = (len.max(1) * 2).min(config.target_samples);
    let additional = grow_to - len;
    let mut next = (*current).clone();
    let sampler = state.instance().sampler();
    next.extend_parallel(
        &sampler,
        additional,
        imc_core::growth_seed(config.base_seed, generation),
    );
    Some(state.publish(next))
}

/// Spawns the refresher thread: waits `interval` between rounds, exits
/// promptly when `shutdown` is raised, and idles (still watching for
/// shutdown) once the target is reached.
pub fn spawn(
    state: Arc<ServiceState>,
    config: RefreshConfig,
    shutdown: Arc<Shutdown>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("imc-refresher".to_string())
        .spawn(move || loop {
            if shutdown.wait_timeout(config.interval) {
                return;
            }
            let _ = grow_once(&state, &config);
        })
        .expect("spawn refresher thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tiny_state;
    use std::time::Duration;

    fn config(target: usize) -> RefreshConfig {
        RefreshConfig {
            target_samples: target,
            interval: Duration::from_millis(1),
            base_seed: 99,
        }
    }

    fn snapshot_hash(state: &ServiceState) -> u64 {
        imc_core::snapshot::fnv1a(&imc_core::snapshot::encode(&state.collection(), 0, 0))
    }

    #[test]
    fn doubles_until_target_then_idles() {
        let state = tiny_state(100);
        let cfg = config(350);
        assert_eq!(grow_once(&state, &cfg), Some(1));
        assert_eq!(state.collection().len(), 200);
        assert_eq!(grow_once(&state, &cfg), Some(2));
        // Doubling 200 → 400 is capped at the 350 target.
        assert_eq!(state.collection().len(), 350);
        assert_eq!(grow_once(&state, &cfg), None);
        assert_eq!(state.generation(), 2);
        // The collection the schedule arrives at, as drawn before the seed
        // rule moved into `imc_core::growth_seed`.
        assert_eq!(snapshot_hash(&state), 0x93d5_492b_368a_13fe);
    }

    #[test]
    fn growth_is_deterministic_and_preserves_prefix() {
        let a = tiny_state(64);
        let b = tiny_state(64);
        let cfg = config(256);
        grow_once(&a, &cfg);
        grow_once(&b, &cfg);
        assert_eq!(*a.collection(), *b.collection());
        assert_eq!(snapshot_hash(&a), 0x2b56_e291_a556_da70);
        // The original 64 samples are an untouched prefix.
        let before = tiny_state(64);
        let (grown, original) = (a.collection(), before.collection());
        for i in 0..64 {
            assert_eq!(grown.view(i).to_sample(), original.view(i).to_sample());
        }
    }

    #[test]
    fn spawned_thread_reaches_target_and_stops_on_signal() {
        let state = Arc::new(tiny_state(32));
        let shutdown = Arc::new(crate::server::Shutdown::new());
        let handle = spawn(Arc::clone(&state), config(128), Arc::clone(&shutdown));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while state.collection().len() < 128 {
            assert!(std::time::Instant::now() < deadline, "refresher too slow");
            std::thread::sleep(Duration::from_millis(2));
        }
        shutdown.request();
        handle.join().unwrap();
        assert_eq!(state.collection().len(), 128);
    }
}
