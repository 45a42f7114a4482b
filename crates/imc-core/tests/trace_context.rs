//! Engine trace events join the request that caused them even when the
//! greedy runs on another thread: BT's pivot workers and UBG's two
//! concurrent greedies hand their telemetry back to the thread holding the
//! request's `TraceCtx`, which publishes it.
//!
//! One test in its own binary: the trace sink is process-global, so no
//! other test may emit engine events into it.

use imc_community::{CommunityId, CommunitySet};
use imc_core::{CoverSet, ImcInstance, MaxrAlgorithm, RicSample, RicStore, SolveRequest};
use imc_graph::{GraphBuilder, NodeId};
use imc_obs::json::{self, Value};
use imc_obs::trace::{self, TraceCtx};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Pairs of nodes form 2-member, threshold-2 communities; pair `c`'s
/// sample holds its two members, each covering itself, and two outside
/// nodes covering one member each. Every node appears in some sample, so
/// all `2 · PAIRS` of them are BT pivots.
const PAIRS: u32 = 150;

fn instance_and_store() -> (ImcInstance, RicStore) {
    let n = 2 * PAIRS;
    let parts = (0..PAIRS)
        .map(|c| (vec![NodeId::new(2 * c), NodeId::new(2 * c + 1)], 2, 1.0))
        .collect();
    let communities = CommunitySet::from_parts(n, parts).unwrap();
    let instance = ImcInstance::new(GraphBuilder::new(n).build().unwrap(), communities).unwrap();
    let samples: Vec<RicSample> = (0..PAIRS)
        .map(|c| {
            let mut rows = vec![
                (2 * c, 0),
                (2 * c + 1, 1),
                ((2 * c + 2) % n, 0),
                ((2 * c + 7) % n, 1),
            ];
            rows.sort_unstable();
            rows.dedup_by_key(|r| r.0);
            RicSample {
                community: CommunityId::new(c),
                threshold: 2,
                community_size: 2,
                nodes: rows.iter().map(|&(v, _)| NodeId::new(v)).collect(),
                covers: rows
                    .iter()
                    .map(|&(_, member)| {
                        let mut cover = CoverSet::new(2);
                        cover.set(member);
                        cover
                    })
                    .collect(),
            }
        })
        .collect();
    let store = RicStore::from_samples(n as usize, PAIRS as usize, f64::from(PAIRS), &samples);
    (instance, store.unwrap())
}

/// A sink the test can read back.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn text(event: &Value, key: &str) -> Option<String> {
    event.get(key).and_then(Value::as_str).map(str::to_string)
}

#[test]
fn engine_events_of_worker_threads_carry_the_request_trace() {
    let (instance, store) = instance_and_store();
    let sink = Captured::default();
    trace::set_sink_writer(Box::new(sink.clone()));
    let bt = {
        let _ctx = TraceCtx::enter("00000000000000b7");
        let req = SolveRequest::new(3).with_threads(2);
        MaxrAlgorithm::Bt.solve(&instance, &store, &req).unwrap()
    };
    {
        let _ctx = TraceCtx::enter("000000000000000b");
        MaxrAlgorithm::Ubg
            .solve(&instance, &store, &SolveRequest::new(3))
            .unwrap();
    }
    trace::clear_sink();
    assert!(bt.evaluations > 0);

    let lines = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let engine: Vec<Value> = lines
        .lines()
        .map(|line| json::parse(line).unwrap())
        .filter(|e| text(e, "kind").is_some_and(|k| k.starts_with("engine_")))
        .collect();
    for event in &engine {
        assert!(
            text(event, "parent_span_id").is_some(),
            "engine event outside the solve span: {event:?}"
        );
    }
    let solves = |trace_id: &str| -> Vec<String> {
        engine
            .iter()
            .filter(|e| text(e, "kind").as_deref() == Some("engine_solve"))
            .filter(|e| text(e, "trace_id").as_deref() == Some(trace_id))
            .map(|e| text(e, "objective").unwrap())
            .collect()
    };
    // One helper greedy per pivot (every node), all ĉ.
    let bt_solves = solves("00000000000000b7");
    assert_eq!(bt_solves.len(), 2 * PAIRS as usize);
    assert!(bt_solves.iter().all(|o| o == "c_hat"));
    // UBG's two runs, ν published first.
    assert_eq!(solves("000000000000000b"), ["nu", "c_hat"]);
    let traced = |e: &&Value| {
        matches!(
            text(e, "trace_id").as_deref(),
            Some("00000000000000b7" | "000000000000000b")
        )
    };
    let stray: Vec<_> = engine.iter().filter(|e| !traced(e)).collect();
    assert!(
        stray.is_empty(),
        "engine events without the request's trace: {stray:?}"
    );
}
