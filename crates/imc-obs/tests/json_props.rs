//! Property tests for the JSON codec ([`imc_obs::json`]) at the trace-file
//! trust boundary: it never panics on arbitrary bytes or on a flipped or
//! truncated trace line, refuses deep nesting with an error, round-trips
//! generated values, and decodes a 1 MiB string in linear time.

use imc_obs::json::{self, Value};
use imc_obs::timeline::TraceSet;
use imc_obs::trace::TraceEvent;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// Valid trace lines: two as the tracer writes them, a span as the
/// stitcher's fixtures spell it, and a clock offset as older trace files
/// hold it.
fn trace_lines() -> [String; 4] {
    [
        TraceEvent::new("imcaf_round")
            .field("samples", 4096u64)
            .field("sampling_seconds", 2.0)
            .field("converged", false)
            .to_json(),
        TraceEvent::new("round_attribution")
            .field("offset_us", -1_500i64)
            .field("detail", "tab\t quote\" slash\\ é 😀 \u{1}")
            .to_json(),
        r#"{"ts_us":20,"kind":"span","trace_id":"t1","span_id":"c1","span":"solve","start_us":10,"seconds":1.0}"#.to_string(),
        r#"{"ts_us":9,"kind":"clock_offset","shard":"127.0.0.1:9001","offset_us":1000000,"rtt_us":200}"#.to_string(),
    ]
}

/// Escapes, control, astral and arbitrary characters.
fn any_string(rng: &mut StdRng) -> String {
    let special: Vec<char> = "\"\\/\n\0\x1f\x7f\u{2028}😀\u{10ffff}".chars().collect();
    (0..rng.random_range(0usize..12))
        .map(|_| match rng.random_range(0u32..4) {
            0 => special[rng.random_range(0..special.len())],
            1 => char::from_u32(rng.random_range(0u32..0x11_0000)).unwrap_or('\u{fffd}'),
            _ => char::from(rng.random_range(0x20u8..0x7f)),
        })
        .collect()
}

/// A finite float the writer spells with a fraction, so it re-parses as
/// a float (integral floats from `1e15` up print as integers: see
/// `large_integral_floats_keep_their_value`).
fn any_float(rng: &mut StdRng) -> f64 {
    loop {
        let f = match rng.random_range(0u32..3) {
            0 => f64::from_bits(rng.next_u64()),
            1 => rng.random_range(-1e6..1e6),
            _ => rng.random_range(0u64..2_000) as f64 - 1_000.0,
        };
        if f.is_finite() && (f.fract() != 0.0 || f.abs() < 1e15) {
            return f;
        }
    }
}

/// A value nested at most `4 - depth` deep.
fn any_value(rng: &mut StdRng, depth: usize) -> Value {
    match rng.random_range(0..if depth >= 4 { 5u32 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.random()),
        2 => Value::Int([i64::MIN, i64::MAX, rng.next_u64() as i64][rng.random_range(0usize..3)]),
        3 => Value::Float(any_float(rng)),
        4 => Value::Str(any_string(rng)),
        5 => Value::Array(
            (0..rng.random_range(0usize..5))
                .map(|_| any_value(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.random_range(0usize..5))
                .map(|_| (any_string(rng), any_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

fn parse_both_ways(text: String) {
    let _ = json::parse(&text);
    let _ = TraceSet::parse(&[("f".to_string(), text)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        parse_both_ways(String::from_utf8_lossy(&bytes).into_owned());
    }

    #[test]
    fn flipped_and_truncated_trace_lines_never_panic(
        which in 0usize..4,
        at in 0usize..4096,
        byte in 0u8..=255,
    ) {
        let line = trace_lines()[which].clone().into_bytes();
        let mut flipped = line.clone();
        flipped[at % line.len()] = byte;
        parse_both_ways(String::from_utf8_lossy(&flipped).into_owned());
        parse_both_ways(String::from_utf8_lossy(&line[..at % (line.len() + 1)]).into_owned());
    }

    #[test]
    fn values_round_trip(seed in 0u64..u64::MAX) {
        let value = any_value(&mut StdRng::seed_from_u64(seed), 0);
        let text = json::to_string(&value);
        prop_assert_eq!(json::parse(&text), Ok(value), "{}", text);
    }

    /// Every character as a `\uXXXX` escape, astral ones as surrogate
    /// pairs: a spelling the writer never produces but a client may.
    #[test]
    fn escaped_spellings_decode_to_the_same_string(seed in 0u64..u64::MAX) {
        let s = any_string(&mut StdRng::seed_from_u64(seed));
        let escaped: String = s.encode_utf16().map(|unit| format!("\\u{unit:04X}")).collect();
        prop_assert_eq!(json::parse(&format!("\"{escaped}\"")), Ok(Value::Str(s)));
    }
}

#[test]
fn trace_lines_are_kept_by_the_stitcher() {
    let set = TraceSet::parse(&[("f".to_string(), trace_lines().join("\n"))]);
    assert_eq!(set.skipped, vec![0]);
}

#[test]
fn large_integral_floats_keep_their_value() {
    for f in [1e15, -1e15, 2f64.powi(62), 1e20, -1e300, f64::MAX] {
        let back = json::parse(&json::to_string(&Value::Float(f))).unwrap();
        assert_eq!(back.as_f64(), Some(f), "{f}");
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let closed = "[".repeat(10_000) + &"]".repeat(10_000);
    for deep in ["[".repeat(10_000), "{\"a\":".repeat(10_000), closed] {
        assert!(json::parse(&deep).is_err());
    }
}

#[test]
fn unpaired_surrogates_are_errors() {
    for bad in [r#""\uD83D""#, r#""\uDE00""#, r#""\uD83Dx""#, r#""\uD83DA""#] {
        assert!(json::parse(bad).is_err(), "accepted {bad}");
    }
}

#[test]
fn a_mebibyte_string_trace_line_parses_in_linear_time() {
    let payload: String = "aé😀\"\\".chars().cycle().take(1 << 20).collect();
    let line = TraceEvent::new("big")
        .field("payload", payload.as_str())
        .to_json();
    let started = Instant::now();
    let set = TraceSet::parse(&[("f".to_string(), line.clone())]);
    let value = json::parse(&line).expect("parses");
    let took = started.elapsed();
    assert_eq!(set.skipped, vec![0]);
    assert_eq!(
        value.get("payload").and_then(Value::as_str),
        Some(payload.as_str())
    );
    assert!(took < Duration::from_secs(1), "1 MiB string took {took:?}");
}
