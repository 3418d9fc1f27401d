//! Property tests of the JSON parser, which reads every HTTP request
//! body: random, truncated and deeply nested input never panics and
//! yields either a value or a typed error, and everything the writers
//! emit parses back to the value it came from.

use proptest::prelude::*;
use serde::Value;
use serde_json::{from_str, to_string, to_string_pretty, MAX_DEPTH};

/// Builds a value tree from a byte script: each byte picks the next
/// node's kind (and scalar payload), containers take their child count
/// from the following byte. Nesting stays below `max_depth` so every
/// tree renders within the parser's cap.
fn build(script: &mut std::slice::Iter<'_, u8>, strings: &[String], depth: usize) -> Value {
    let op = script.next().copied().unwrap_or(0);
    let next = |script: &mut std::slice::Iter<'_, u8>| script.next().copied().unwrap_or(0);
    match op % 8 {
        0 => Value::Null,
        1 => Value::Bool(op & 0x80 != 0),
        2 | 3 => {
            let mantissa = i16::from_le_bytes([next(script), next(script)]);
            let exponent = i32::from(next(script) % 41) - 20;
            Value::Number(f64::from(mantissa) * 10f64.powi(exponent))
        }
        4 => Value::String(strings[usize::from(op) % strings.len()].clone()),
        5 | 6 if depth < 12 => {
            let n = usize::from(next(script) % 4);
            Value::Array((0..n).map(|_| build(script, strings, depth + 1)).collect())
        }
        7 if depth < 12 => {
            let n = usize::from(next(script) % 4);
            Value::Object(
                (0..n)
                    .map(|i| {
                        let key = strings[(usize::from(op) + i) % strings.len()].clone();
                        (key, build(script, strings, depth + 1))
                    })
                    .collect(),
            )
        }
        _ => Value::String(String::new()),
    }
}

/// Strings that exercise every escape the writer emits: quotes,
/// backslashes, control characters, multi-byte and separator code
/// points.
const STRING_CHARS: &str = "[a-z\"\\\\/ é☕\u{1}-\u{1f}\u{2028}]{0,8}";

/// Bytes of the JSON alphabet, so random input reaches deep into the
/// grammar instead of failing at the first byte.
const JSON_SOUP: &str = "[\\[\\]{}\",:0-9.eE+\\-truefalsn \\\\u]{0,48}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = from_str(&text);
    }

    #[test]
    fn json_shaped_soup_never_panics(text in JSON_SOUP) {
        let _ = from_str(&text);
    }

    #[test]
    fn writer_output_round_trips(
        script in prop::collection::vec(0u8..=255, 1..96),
        strings in prop::collection::vec(STRING_CHARS, 1..5),
    ) {
        let value = build(&mut script.iter(), &strings, 0);
        for rendered in [to_string(&value).unwrap(), to_string_pretty(&value).unwrap()] {
            let parsed = from_str(&rendered);
            prop_assert!(parsed.is_ok(), "{rendered:?}: {:?}", parsed.err());
            prop_assert_eq!(parsed.unwrap(), value.clone());
        }
    }

    #[test]
    fn truncated_documents_never_panic(
        script in prop::collection::vec(0u8..=255, 1..64),
        strings in prop::collection::vec(STRING_CHARS, 1..4),
        cut in 0usize..10_000,
    ) {
        let rendered = to_string(&build(&mut script.iter(), &strings, 0)).unwrap();
        let mut end = cut % (rendered.len() + 1);
        while !rendered.is_char_boundary(end) {
            end -= 1;
        }
        let _ = from_str(&rendered[..end]);
    }

    #[test]
    fn nesting_past_the_cap_is_a_typed_error(
        depth in 0usize..400,
        objects in prop::bool::ANY,
        closed in prop::bool::ANY,
    ) {
        let (open, close) = if objects { ("{\"k\":", "}") } else { ("[", "]") };
        let mut text = open.repeat(depth);
        if closed {
            if objects || depth == 0 {
                text.push('1');
            }
            text.push_str(&close.repeat(depth));
        }
        match from_str(&text) {
            Ok(_) => prop_assert!(closed && depth <= MAX_DEPTH, "{depth} accepted"),
            Err(e) => {
                let capped = e.to_string().contains("recursion limit");
                prop_assert_eq!(capped, depth > MAX_DEPTH, "depth {}: {}", depth, e);
            }
        }
    }
}
