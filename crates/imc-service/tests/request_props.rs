//! Property tests for request decoding at the NDJSON trust boundary: one
//! valid line per op of the protocol's request table decodes, and with a
//! byte flipped or the line cut short anywhere it goes through the JSON
//! codec and [`protocol::parse_request`] without a panic, coming back as
//! a request or a typed [`RequestError`](protocol::RequestError).

use imc_obs::json::{self, ObjectBuilder};
use imc_service::protocol::{self, ErrorCode, Request};
use proptest::prelude::*;
use std::time::{Duration, Instant};

const REQUESTS: [&str; 17] = [
    r#"{"op":"solve","k":5}"#,
    r#"{"op":"solve","k":5,"algo":"bt","depth":3,"threads":4,"seed":7}"#,
    r#"{"op":"solve","k":5,"framework":"imcaf","epsilon":0.2,"delta":0.1,"max_samples":100000}"#,
    r#"{"op":"estimate","seeds":[3,17,42]}"#,
    r#"{"op":"eval_begin","v":3}"#,
    r#"{"op":"eval_begin","v":3,"pivot":7}"#,
    r#"{"op":"eval_batch","session":1,"kind":"c","nodes":[3,17]}"#,
    r#"{"op":"eval_batch","session":1,"kind":"nu","nodes":[3,17]}"#,
    r#"{"op":"eval_seed","session":1,"node":3}"#,
    r#"{"op":"eval_end","session":1}"#,
    r#"{"op":"shard_eval","v":3,"seeds":[3,17],"pivot":2}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"metrics"}"#,
    r#"{"op":"health"}"#,
    r#"{"op":"ping","trace_id":"0123456789abcdef","parent_span_id":"fedcba9876543210"}"#,
    r#"{"op":"shutdown"}"#,
    r#"{"op":"solve","k":5,"note":"tab\t quote\" é 😀 😀"}"#,
];

/// Decodes `bytes` (lossily, as a connection's line reader would) both
/// ways; a refusal must name its problem.
fn decode(bytes: &[u8]) -> bool {
    let line = String::from_utf8_lossy(bytes);
    let _ = json::parse(&line);
    match protocol::parse_request(&line) {
        Ok(_) => true,
        Err(e) => {
            assert!(!e.message.is_empty(), "{line:?} refused without a message");
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn flipped_and_truncated_requests_decode_or_refuse(
        which in 0usize..17,
        at in 0usize..4096,
        byte in 0u8..=255,
    ) {
        let line = REQUESTS[which].as_bytes();
        prop_assert!(decode(line), "{} refused", REQUESTS[which]);
        let mut flipped = line.to_vec();
        flipped[at % line.len()] = byte;
        decode(&flipped);
        decode(&line[..at % (line.len() + 1)]);
    }
}

#[test]
fn a_mebibyte_string_request_parses_in_linear_time() {
    let pad: String = "aé😀\\\"".chars().cycle().take(1 << 20).collect();
    let line = json::to_string(
        &ObjectBuilder::new()
            .field("op", "ping")
            .field("pad", pad)
            .build(),
    );
    let started = Instant::now();
    let decoded = protocol::parse_request(&line);
    let took = started.elapsed();
    assert!(matches!(decoded, Ok(Request::Ping)), "{decoded:?}");
    assert!(took < Duration::from_secs(1), "1 MiB string took {took:?}");
    // Cut inside the string, the line is a typed refusal.
    let cut = (0..line.len() / 2)
        .rev()
        .find(|&i| line.is_char_boundary(i))
        .unwrap();
    assert_eq!(
        protocol::parse_request(&line[..cut]).unwrap_err().code,
        ErrorCode::BadRequest
    );
}
