//! Property tests for `gdr_system::json`, the hand-rolled parser the
//! bench and serve reports depend on.
//!
//! The build environment cannot fetch `proptest`, so these are
//! hand-rolled property loops in the style of `tests/properties.rs`:
//! every case derives an arbitrary nested [`Json`] tree — objects,
//! arrays, escaped strings, integers, dyadic fractions — from a
//! deterministic per-case seed, and checks that writing then parsing is
//! the identity, for both the compact and the pretty writer. Both
//! writers must also print exactly the bytes of [`reference`], the
//! plain `fmt`-based writer they replaced, so a writer that round-trips
//! but prints `1.0` for `1` fails. A second net feeds truncated and
//! byte-mutated copies of the committed gate baseline, and random byte
//! strings, to the JSON and report parsers, which may reject them but
//! never panic. Failures reproduce from the case index alone.

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
        3 => Json::Str(arb_string(seed).into()),
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

/// A tree `levels` deep with one small sibling subtree per level:
/// pretty-printed, its indentation outruns the writer's run of spaces
/// (32), yet its size stays linear in `levels`.
fn deep_json(seed: u64, levels: u64) -> Json {
    let mut v = arb_json(seed, 1);
    for level in 0..levels {
        let sibling = arb_json(mix(seed, 400 + level), 1);
        v = if mix(seed, 500 + level).is_multiple_of(2) {
            Json::arr([sibling, v])
        } else {
            Json::obj([
                (arb_string(mix(seed, 600 + level)), v),
                ("sibling".to_string(), sibling),
            ])
        };
    }
    v
}

/// The writer as it was before it stopped allocating: `fmt` for every
/// integer, one `char` at a time for strings and a fresh `String` per
/// indent. It is kept here, over the public [`Json`] variants, as the
/// byte-for-byte reference for [`Json::to_compact`] and
/// [`Json::to_pretty`].
mod reference {
    use std::fmt::Write as _;

    use gdr_system::json::Json;

    pub fn compact(v: &Json) -> String {
        let mut out = String::new();
        write(v, &mut out, None, 0);
        out
    }

    pub fn pretty(v: &Json) -> String {
        let mut out = String::new();
        write(v, &mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                write(&items[i], out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                let (k, v) = &pairs[i];
                write_str(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write(v, out, indent, depth + 1);
            }),
        }
    }

    fn write_num(out: &mut String, x: f64) {
        if !x.is_finite() {
            out.push_str("null");
        } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
            let _ = write!(out, "{}", x as i64);
        } else {
            let _ = write!(out, "{x}");
        }
    }

    fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write_seq(
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
        open: char,
        close: char,
        n: usize,
        mut item: impl FnMut(&mut String, usize),
    ) {
        out.push(open);
        if n == 0 {
            out.push(close);
            return;
        }
        for i in 0..n {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * (depth + 1)));
            }
            item(out, i);
            if i + 1 < n {
                out.push(',');
            }
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
        out.push(close);
    }
}

/// Asserts that both writers print exactly the reference bytes for `v`.
fn assert_reference_bytes(v: &Json, what: &str) {
    assert_eq!(v.to_compact(), reference::compact(v), "{what}: compact");
    assert_eq!(v.to_pretty(), reference::pretty(v), "{what}: pretty");
}

#[test]
fn writers_print_the_reference_bytes() {
    for case in 0..CASES {
        assert_reference_bytes(&arb_json(case, 4), &format!("case {case}"));
        let deep = deep_json(case, 40);
        assert!(deep.to_pretty().contains(&format!("\n{}", " ".repeat(80))));
        assert_reference_bytes(&deep, &format!("deep case {case}"));
    }
}

#[test]
fn writers_print_the_reference_bytes_for_edge_values() {
    let two53 = 2f64.powi(53);
    let mut values = vec![
        -0.0,
        0.0,
        two53,
        -two53,
        two53 - 1.0,
        9e15 - 1.0,
        9e15,
        -(9e15 - 1.0),
        -9e15,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.1,
        1e-7,
        1e21,
        -1e21,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
    ];
    for case in 0..4096 {
        // Every bit pattern class: subnormals, NaN payloads, huge and
        // tiny magnitudes; and integers across the whole integer path.
        values.push(f64::from_bits(mix(case, 700)));
        values.push((mix(case, 701) % 9_000_000_000_000_000) as f64);
        values.push(-((mix(case, 702) >> (mix(case, 703) % 64)) as f64));
    }
    for x in values {
        assert_reference_bytes(&Json::Num(x), &format!("{x:e}"));
    }
    let controls: String = (0u8..0x20).map(char::from).collect();
    let mut strings: Vec<String> = controls
        .chars()
        .flat_map(|c| [c.to_string(), format!("a{c}b"), format!("é{c}中{c}")])
        .collect();
    strings.push(controls.clone());
    strings.push(format!("\"{controls}\\🚀/"));
    for s in strings {
        let v = Json::obj([(s.clone(), Json::arr([Json::from(s.as_str())]))]);
        assert_reference_bytes(&v, &format!("{s:?}"));
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v, "{s:?}");
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
            j.as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.to_string())
                .collect()
        };
        assert_eq!(keys(&back), keys(&v), "case {case}");
    }
}

#[test]
fn committed_baseline_round_trips_byte_for_byte() {
    // The baseline was written by an older build and carries the nine
    // retired `session/*` host rows: reading it and writing it back must
    // lose nothing, so old reports stay comparable and refreshable.
    let report = BenchReport::parse(BASELINE).expect("the baseline parses");
    assert_eq!(report.to_json().to_pretty(), BASELINE);
}

#[test]
fn report_parser_never_panics_on_truncated_or_mutated_baselines() {
    // `gdr-bench --compare` maps a parse error to exit 2; a panic here
    // would abort the gate instead. Generated sweep reports and Chrome
    // traces get the same net in `crates/bench/tests/cli.rs`.
    assert!(BenchReport::parse(BASELINE).is_ok());
    let bytes = BASELINE.as_bytes();
    let len = bytes.len() as u64;
    // Every proper prefix that stops before the document's closing brace
    // is incomplete, so both parsers must reject it.
    let complete = BASELINE.trim_end().len() as u64;
    for case in 0..48 {
        let cut = mix(case, 300) % len;
        let truncated = String::from_utf8_lossy(&bytes[..cut as usize]);
        if cut < complete {
            assert!(Json::parse(&truncated).is_err(), "case {case}: cut {cut}");
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
        let mutated = String::from_utf8_lossy(&mutated);
        let _ = Json::parse(&mutated);
        let _ = BenchReport::parse(&mutated);
    }
    // Wholly random byte strings: half uniform bytes, half JSON's own
    // punctuation and literal letters, which reach deeper into both
    // parsers before they fail.
    const TOKENS: &[u8] = b"{}[]\":,.-+0123456789eEtrufalsn \n\\";
    for case in 0..256 {
        let n = mix(case, 330) % 512;
        let random: Vec<u8> = (0..n)
            .map(|i| {
                let r = mix(case, 340 + i);
                if case % 2 == 0 {
                    r as u8
                } else {
                    TOKENS[(r % TOKENS.len() as u64) as usize]
                }
            })
            .collect();
        let text = String::from_utf8_lossy(&random);
        let _ = Json::parse(&text);
        let _ = BenchReport::parse(&text);
    }
}
