//! Property tests for `gdr_system::json`, the hand-rolled parser the
//! bench and serve reports depend on.
//!
//! The build environment cannot fetch `proptest`, so these are
//! hand-rolled property loops in the style of `tests/properties.rs`:
//! every case derives an arbitrary nested [`Json`] tree — objects,
//! arrays, escaped strings, integers, dyadic fractions — from a
//! deterministic per-case seed, and checks that writing then parsing is
//! the identity, for both the compact and the pretty writer. A second
//! net feeds truncated and byte-mutated copies of the committed gate
//! baseline to the report parser, which may reject them but never panics.
//! Failures reproduce from the case index alone.

use gdr_system::json::Json;
use gdr_system::report::BenchReport;

const CASES: u64 = 256;

/// The committed gate baseline: a real, schema-complete report.
const BASELINE: &str = include_str!("../../../bench/baseline.json");

/// Deterministic case expansion (SplitMix64).
fn mix(case: u64, salt: u64) -> u64 {
    let mut z = case
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An arbitrary string exercising every escape class the writer knows:
/// quotes, backslashes, control characters, tabs/newlines, and
/// multi-byte unicode.
fn arb_string(seed: u64) -> String {
    const ALPHABET: &[&str] = &[
        "a",
        "Z",
        "0",
        " ",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{1}",
        "\u{1f}",
        "é",
        "графа",
        "中",
        "🚀",
        "/",
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "-",
        ".",
        "e",
        "+",
    ];
    let len = (mix(seed, 101) % 12) as usize;
    (0..len)
        .map(|i| ALPHABET[mix(seed, 102 + i as u64) as usize % ALPHABET.len()])
        .collect()
}

/// An arbitrary number that survives an f64 → text → f64 round trip
/// exactly: integers below 2^53 (positive and negative) and dyadic
/// fractions — the classes the report schema actually emits.
fn arb_number(seed: u64) -> f64 {
    let int = (mix(seed, 201) % (1 << 53)) as f64;
    match mix(seed, 202) % 4 {
        0 => int,
        1 => -int,
        2 => int / (1u64 << (mix(seed, 203) % 20)) as f64,
        _ => -(int / (1u64 << (mix(seed, 204) % 20)) as f64),
    }
}

/// An arbitrary JSON tree of bounded depth. Leaves are null/bool/
/// number/string; inner nodes are arrays and (insertion-ordered,
/// possibly duplicate-keyed) objects.
fn arb_json(seed: u64, depth: u64) -> Json {
    let kind = if depth == 0 {
        mix(seed, 1) % 4
    } else {
        mix(seed, 1) % 6
    };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(mix(seed, 2).is_multiple_of(2)),
        2 => Json::Num(arb_number(seed)),
        3 => Json::Str(arb_string(seed)),
        4 => {
            let n = mix(seed, 3) % 5;
            Json::arr((0..n).map(|i| arb_json(mix(seed, 10 + i), depth - 1)))
        }
        _ => {
            let n = mix(seed, 4) % 5;
            Json::obj((0..n).map(|i| {
                (
                    arb_string(mix(seed, 20 + i)),
                    arb_json(mix(seed, 30 + i), depth - 1),
                )
            }))
        }
    }
}

#[test]
fn write_then_parse_is_identity() {
    for case in 0..CASES {
        let v = arb_json(case, 4);
        let compact = v.to_compact();
        assert_eq!(
            Json::parse(&compact).as_ref(),
            Ok(&v),
            "case {case}: compact {compact:?}"
        );
        let pretty = v.to_pretty();
        assert_eq!(
            Json::parse(&pretty).as_ref(),
            Ok(&v),
            "case {case}: pretty {pretty:?}"
        );
    }
}

#[test]
fn serialization_is_canonical_after_one_round_trip() {
    // parse → write must be a fixed point: re-serializing a parsed
    // document reproduces it byte for byte (what the CI determinism
    // diff and the golden-file test rely on).
    for case in 0..CASES {
        let v = arb_json(case, 4);
        let pretty = v.to_pretty();
        let reparsed = Json::parse(&pretty).unwrap();
        assert_eq!(reparsed.to_pretty(), pretty, "case {case}");
        let compact = v.to_compact();
        assert_eq!(
            Json::parse(&compact).unwrap().to_compact(),
            compact,
            "case {case}"
        );
    }
}

#[test]
fn numbers_round_trip_exactly() {
    for case in 0..CASES {
        let x = arb_number(case);
        let text = Json::Num(x).to_compact();
        let back = Json::parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(back, x, "case {case}: {text}");
    }
}

#[test]
fn object_key_order_survives_round_trips() {
    for case in 0..CASES {
        // Keys deliberately collide sometimes: first-match lookup and
        // order preservation must both hold regardless.
        let n = 1 + mix(case, 50) % 6;
        let v = Json::obj((0..n).map(|i| (format!("k{}", mix(case, 51 + i) % 4), Json::from(i))));
        let back = Json::parse(&v.to_pretty()).unwrap();
        let keys = |j: &Json| -> Vec<String> {
            j.as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys(&back), keys(&v), "case {case}");
    }
}

#[test]
fn report_parser_never_panics_on_truncated_or_mutated_baselines() {
    // `gdr-bench --compare` maps a parse error to exit 2; a panic here
    // would abort the gate instead.
    assert!(BenchReport::parse(BASELINE).is_ok());
    let bytes = BASELINE.as_bytes();
    let len = bytes.len() as u64;
    for case in 0..48 {
        let cut = (mix(case, 300) % len) as usize;
        let truncated = String::from_utf8_lossy(&bytes[..cut]);
        if !truncated.trim_end().ends_with('}') {
            assert!(
                BenchReport::parse(&truncated).is_err(),
                "case {case}: cut {cut}"
            );
        }
        // Up to 8 arbitrary bytes overwritten anywhere; non-UTF-8 bytes
        // become U+FFFD, exercising the multi-byte paths too.
        let mut mutated = bytes.to_vec();
        for i in 0..=mix(case, 301) % 8 {
            mutated[(mix(case, 310 + i) % len) as usize] = mix(case, 320 + i) as u8;
        }
        let _ = BenchReport::parse(&String::from_utf8_lossy(&mutated));
    }
}
