//! Property suite for the strict JSON reader ([`Json::parse`]).
//!
//! * Round trip: for random value trees, `parse(render(j)) == j` and
//!   `parse(render_compact(j)) == j`. Strings mix ASCII, 2-, 3- and 4-byte
//!   UTF-8, every escape the writer emits and raw control characters.
//! * Hostile input: every truncation and a sample of single-byte mutations
//!   of a rendered partial-shaped document return `Ok` or `Err` without
//!   panicking, and every byte offset an error names lies within the input.
//!
//! The vendored proptest has no string or recursive strategies, so each
//! case draws a `u64` seed and builds its trees from a seeded `StdRng`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use specstab_telemetry::{obj, Json};

/// One random scalar value, weighted toward the characters the reader and
/// writer treat specially.
fn random_char(rng: &mut StdRng) -> char {
    let code = match rng.gen_range(0..8u8) {
        0 | 1 => rng.gen_range(0x20..0x80u32),
        // Everything the writer escapes by name, plus the solidus.
        2 => *[0x22, 0x5c, 0x0a, 0x0d, 0x09, 0x2f].choose(rng).expect("non-empty"),
        // The other control characters, which the writer emits as \u00XX.
        3 => rng.gen_range(0..0x20u32),
        4 => rng.gen_range(0x80..0x800u32),
        5 => rng.gen_range(0x800..0xd800u32),
        6 => rng.gen_range(0xe000..0x1_0000u32),
        _ => rng.gen_range(0x1_0000..0x11_0000u32),
    };
    char::from_u32(code).expect("a Unicode scalar value")
}

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len).map(|_| random_char(rng)).collect()
}

/// A finite, non-integral `Num` (an integral one renders like an integer).
fn random_num(rng: &mut StdRng) -> Json {
    let x = rng.gen_range(-1e9..1e9f64) * 10f64.powi(rng.gen_range(-12..0i32));
    Json::Num(if x.fract() == 0.0 { x + 0.5 } else { x })
}

/// A random tree in the writer's canonical form: the reader types a
/// number by its text, so `Int` is negative (a non-negative one renders
/// like a `UInt`) and `Num` is finite and non-integral.
fn random_json(rng: &mut StdRng, depth: u32) -> Json {
    match rng.gen_range(0..if depth == 0 { 6u8 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Int(rng.gen_range(i64::MIN..0)),
        3 => Json::UInt(rng.next_u64() >> rng.gen_range(0..64u32)),
        4 => random_num(rng),
        5 => Json::Str(random_string(rng)),
        6 => Json::Arr((0..rng.gen_range(0..5)).map(|_| random_json(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.gen_range(0..5))
                .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A document shaped like a shard's partial artifact: a provenance
/// header, cell results (some failed, carrying an error message) and
/// group states with estimator bit arrays.
fn partial_shaped(rng: &mut StdRng) -> Json {
    let cells = (0..rng.gen_range(1..4u64))
        .map(|i| {
            let outcome = if rng.gen_bool(0.75) {
                obj(vec![
                    ("steps_run", Json::UInt(rng.gen_range(0..1000))),
                    ("stabilization_steps", Json::UInt(rng.gen_range(0..100))),
                    ("moves", Json::UInt(rng.gen_range(0..5000))),
                    ("ended_legitimate", Json::Bool(rng.gen_bool(0.9))),
                    ("bound", if rng.gen_bool(0.5) { Json::Null } else { Json::UInt(3) }),
                ])
            } else {
                obj(vec![("error", Json::Str(random_string(rng)))])
            };
            obj(vec![
                (
                    "cell",
                    obj(vec![
                        ("topology", Json::Str("ring:6".into())),
                        ("protocol", Json::Str(random_string(rng))),
                        ("daemon", Json::Str("dist:0.5".into())),
                        ("init", Json::Str("witness".into())),
                        ("seed_index", Json::UInt(i)),
                    ]),
                ),
                ("n", Json::UInt(6)),
                ("class", Json::Str("distributed/synchronous/weakly-fair".into())),
                ("cell_seed", Json::UInt(rng.next_u64())),
                ("outcome", outcome),
            ])
        })
        .collect();
    let bits = |rng: &mut StdRng| Json::Arr((0..5).map(|_| Json::UInt(rng.next_u64())).collect());
    let group = obj(vec![
        ("key", Json::Str("ring:6|ssme|dist:0.5|witness".into())),
        ("runs", Json::UInt(3)),
        ("mean", random_num(rng)),
        ("p50", obj(vec![("q_bits", bits(rng)), ("n_bits", bits(rng)), ("count", Json::UInt(3))])),
        ("extra", random_json(rng, 3)),
    ]);
    obj(vec![
        (
            "partial",
            obj(vec![
                ("schema", Json::Str("specstab-campaign-partial/v1".into())),
                ("shard", Json::UInt(rng.gen_range(0..8))),
                ("plan_fingerprint", Json::UInt(rng.next_u64())),
                ("provenance", obj(vec![("os", Json::Str(random_string(rng)))])),
            ]),
        ),
        ("cells", Json::Arr(cells)),
        ("groups", Json::Arr(vec![group])),
    ])
}

/// Every `at byte N` offset an error message names.
fn error_offsets(err: &str) -> Vec<usize> {
    err.match_indices("at byte ")
        .map(|(i, m)| {
            let digits: String =
                err[i + m.len()..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap_or_else(|_| panic!("unparsable offset in {err:?}"))
        })
        .collect()
}

/// Parses hostile `text`; an error must name only offsets inside it.
fn check_hostile(text: &str) {
    if let Err(err) = Json::parse(text) {
        for at in error_offsets(&err) {
            assert!(at <= text.len(), "offset {at} past the {}-byte input: {err}", text.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pretty_and_compact_renderings_parse_back_to_the_same_tree(seed in any::<u64>()) {
        let j = random_json(&mut StdRng::seed_from_u64(seed), 4);
        let pretty = j.render();
        prop_assert_eq!(Json::parse(&pretty).expect("pretty form parses"), j.clone());
        prop_assert_eq!(Json::parse(&j.render_compact()).expect("compact form parses"), j);
    }

    #[test]
    fn raw_control_bytes_in_strings_are_rejected_at_their_offset(
        seed in any::<u64>(),
        control in 0u8..0x20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = random_string(&mut rng);
        let split = s.char_indices().map(|(i, _)| i).nth(rng.gen_range(0..=s.chars().count()));
        let (head, tail) = s.split_at(split.unwrap_or(s.len()));
        let escaped = |x: &str| {
            let quoted = Json::Str(x.into()).render_compact();
            quoted[1..quoted.len() - 1].to_string()
        };
        let head = escaped(head);
        let text = format!("\"{head}{}{}\"", char::from(control), escaped(tail));
        let err = Json::parse(&text).expect_err("raw control byte accepted");
        let at = 1 + head.len();
        prop_assert!(err.contains(&format!("control character at byte {at}")), "{text:?}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn truncated_and_mutated_partials_fail_cleanly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = partial_shaped(&mut rng);
        let text = if rng.gen_bool(0.5) { doc.render() } else { doc.render_compact() };
        prop_assert_eq!(Json::parse(&text).expect("the intact document parses"), doc);

        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            check_hostile(&text[..cut]);
        }

        // Replacement bytes: structural characters, escape and number
        // characters, raw control bytes, and arbitrary bytes.
        const SPECIAL: &[u8] = b"{}[]\":,\\/u0123456789-+.eEtfn \n\t\r\x00\x01\x1f\x7f";
        let mut bytes = text.clone().into_bytes();
        for _ in 0..512 {
            let at = rng.gen_range(0..bytes.len());
            let replacement =
                if rng.gen_bool(0.5) { *SPECIAL.choose(&mut rng).expect("non-empty") } else { rng.gen_range(0..=255u8) };
            let original = std::mem::replace(&mut bytes[at], replacement);
            // Only a valid UTF-8 body reaches the reader (`/upload` checks first).
            if let Ok(mutated) = std::str::from_utf8(&bytes) {
                check_hostile(mutated);
            }
            bytes[at] = original;
        }
    }
}
