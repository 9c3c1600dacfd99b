//! The workspace's one JSON string escaper and field reader.
//!
//! Every document this workspace writes — Chrome traces, the sweep
//! store's JSONL lines, the daemon's responses, the pinned `BENCH_*.json`
//! baselines, report exports — is hand-rolled `format!` output, and every
//! one it reads back is a known flat shape. This module owns the two
//! halves those share so they cannot drift apart: [`esc`] (what a string
//! value may contain on the wire) and the readers ([`str_field`],
//! [`num_field`], [`bool_field`], [`u64_array`], [`str_array`],
//! [`objects`]) that undo it. It is not a general JSON parser: a key is
//! found by its first `"key":` occurrence, so callers scope nested
//! objects themselves (e.g. with [`objects`]).
//!
//! Readers accept optional whitespace after the colon, so the store's
//! `"k": v` lines and the daemon's compact `"k":v` bodies both parse, and
//! every malformed or truncated input is an `Err`, never a panic.

/// Escapes `s` for a JSON string body: `\\`, `\"`, `\n`, `\r`, `\t`, and
/// every other C0 control character as `\u00XX`. No raw control
/// character survives, so an escaped value never splits a JSONL record.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`esc`] wrapped in quotes: a complete JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Decodes the string literal at the start of `s` (leading whitespace
/// allowed) and returns it with the text after its closing quote.
///
/// # Errors
///
/// No opening quote, an unknown or short escape, or no closing quote.
pub fn string(s: &str) -> Result<(String, &str), String> {
    let body = s
        .trim_start()
        .strip_prefix('"')
        .ok_or("expected a string")?;
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &body[i + 1..])),
            '\\' => out.push(match chars.next().map(|(_, e)| e) {
                Some(e @ ('"' | '\\')) => e,
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                    (hex.len() == 4 && hex.chars().all(|h| h.is_ascii_hexdigit()))
                        .then(|| u32::from_str_radix(&hex, 16).ok())
                        .flatten()
                        .and_then(char::from_u32)
                        .ok_or("bad \\u escape")?
                }
                _ => return Err("bad escape".into()),
            }),
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

/// The text after `"key":` (and any whitespace) in `obj`.
fn field<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat).ok_or_else(|| format!("missing {key}"))?;
    Ok(obj[at + pat.len()..].trim_start())
}

/// Reads string field `key` of `obj`, decoding escapes.
///
/// # Errors
///
/// A missing key, a non-string value, or a malformed string.
pub fn str_field(obj: &str, key: &str) -> Result<String, String> {
    string(field(obj, key)?)
        .map(|(s, _)| s)
        .map_err(|e| format!("{key}: {e}"))
}

/// Reads unsigned integer field `key` of `obj`.
///
/// # Errors
///
/// A missing key or a value that does not start with a digit.
pub fn num_field(obj: &str, key: &str) -> Result<u64, String> {
    let v = field(obj, key)?;
    let end = v.find(|c: char| !c.is_ascii_digit()).unwrap_or(v.len());
    v[..end]
        .parse()
        .map_err(|_| format!("bad number for {key}"))
}

/// Reads boolean field `key` of `obj`.
///
/// # Errors
///
/// A missing key or a value other than `true`/`false`.
pub fn bool_field(obj: &str, key: &str) -> Result<bool, String> {
    let v = field(obj, key)?;
    if v.starts_with("true") {
        Ok(true)
    } else if v.starts_with("false") {
        Ok(false)
    } else {
        Err(format!("bad bool for {key}"))
    }
}

/// Reads field `key` of `obj` as an array of unsigned integers.
///
/// # Errors
///
/// A missing key, a non-array value, an unterminated array, or a
/// non-integer element.
pub fn u64_array(obj: &str, key: &str) -> Result<Vec<u64>, String> {
    let v = field(obj, key)?
        .strip_prefix('[')
        .ok_or_else(|| format!("{key} is not an array"))?;
    let end = v.find(']').ok_or_else(|| format!("unterminated {key}"))?;
    if v[..end].trim().is_empty() {
        return Ok(Vec::new());
    }
    v[..end]
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("bad {key} value {p:?}"))
        })
        .collect()
}

/// Reads field `key` of `obj` as an array of strings.
///
/// # Errors
///
/// A missing key, a non-array value, or a malformed or unterminated
/// element.
pub fn str_array(obj: &str, key: &str) -> Result<Vec<String>, String> {
    let mut v = field(obj, key)?
        .strip_prefix('[')
        .ok_or_else(|| format!("{key} is not an array"))?;
    let mut out = Vec::new();
    loop {
        v = v.trim_start_matches([' ', ',', '\n']);
        if v.starts_with(']') {
            return Ok(out);
        }
        let (s, rest) = string(v).map_err(|e| format!("{key}: {e}"))?;
        out.push(s);
        v = rest;
    }
}

/// Byte index of the `}` closing the object that starts at byte 0 of
/// `s`. Braces inside string values do not count.
fn object_end(s: &str) -> Option<usize> {
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth += 1,
            '}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits the elements of an array of objects and `null`s. `s` starts
/// just after the array's `[`; each element is the object's text
/// (braces included) or `None` for `null`.
///
/// # Errors
///
/// An element that is neither, an unclosed object, or no closing `]`.
pub fn objects(mut s: &str) -> Result<Vec<Option<&str>>, String> {
    let mut out = Vec::new();
    loop {
        s = s.trim_start_matches([' ', ',', '\n', '\r', '\t']);
        if s.starts_with(']') {
            return Ok(out);
        }
        if let Some(rest) = s.strip_prefix("null") {
            out.push(None);
            s = rest;
            continue;
        }
        if s.is_empty() {
            return Err("unterminated array".into());
        }
        if !s.starts_with('{') {
            let found: String = s.chars().take(20).collect();
            return Err(format!("expected an object, found {found:?}"));
        }
        let end = object_end(s).ok_or("unterminated object")?;
        out.push(Some(&s[..=end]));
        s = &s[end + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn esc_covers_quotes_backslashes_and_every_control() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(esc("x\n\r\t"), "x\\n\\r\\t");
        assert_eq!(esc("\u{1}\u{1f}"), "\\u0001\\u001f");
        for c in (0u8..0x20).map(char::from) {
            assert!(!esc(&c.to_string()).chars().any(|e| e.is_control()));
        }
    }

    /// SplitMix64: a seeded, std-only generator for the round-trip test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn generated_strings_round_trip_through_esc_and_str_field() {
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend("\"\\{}[],: az/u".chars());
        alphabet.extend(['é', 'λ', '→', '😀', '\u{7f}']);
        let mut state = 0x5eed;
        for _ in 0..2_000 {
            let len = (next(&mut state) % 24) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[(next(&mut state) % alphabet.len() as u64) as usize])
                .collect();
            let obj = format!("{{\"n\": 1, \"k\": \"{}\", \"m\":{}}}", esc(&s), quote(&s));
            assert_eq!(str_field(&obj, "k").unwrap(), s, "{obj}");
            assert_eq!(str_field(&obj, "m").unwrap(), s, "{obj}");
            assert_eq!(object_end(&obj), Some(obj.len() - 1), "{obj}");
        }
    }

    #[test]
    fn readers_take_both_spacings() {
        let spaced = "{\"a\": 7, \"b\": true, \"c\": [1, 2, 3], \"d\": \"x\"}";
        let compact = "{\"a\":7,\"b\":true,\"c\":[1,2,3],\"d\":\"x\"}";
        for obj in [spaced, compact] {
            assert_eq!(num_field(obj, "a"), Ok(7));
            assert_eq!(bool_field(obj, "b"), Ok(true));
            assert_eq!(u64_array(obj, "c"), Ok(vec![1, 2, 3]));
            assert_eq!(str_field(obj, "d").as_deref(), Ok("x"));
        }
        assert_eq!(u64_array("{\"e\": []}", "e"), Ok(vec![]));
        let labels = "{\"q\":[\"a\", \"b\\\"]\"],\"r\":[]}";
        assert_eq!(str_array(labels, "q"), Ok(vec!["a".into(), "b\"]".into()]));
        assert_eq!(str_array(labels, "r"), Ok(vec![]));
    }

    #[test]
    fn torn_inputs_are_errors_not_panics() {
        assert!(
            str_field("{\"k\": \"abc", "k").is_err(),
            "unterminated string"
        );
        assert!(str_field("{\"k\": \"\\u12\"}", "k").is_err(), "short \\u");
        assert!(str_field("{\"k\": \"\\u12", "k").is_err(), "\\u at the end");
        assert!(
            str_field("{\"k\": \"\\q\"}", "k").is_err(),
            "unknown escape"
        );
        assert!(str_field("{\"k\": \"\\", "k").is_err(), "lone backslash");
        assert!(str_field("{\"k\": 3}", "k").is_err(), "not a string");
        assert!(num_field("{\"j\": 1}", "k").is_err(), "missing key");
        assert!(num_field("{\"k\": x}", "k").is_err(), "not a number");
        assert!(bool_field("{\"k\": maybe}", "k").is_err(), "not a bool");
        assert!(u64_array("{\"k\": [1, 2", "k").is_err(), "truncated array");
        assert!(u64_array("{\"k\": [1, x]}", "k").is_err(), "bad element");
        assert!(
            str_array("{\"k\": [\"a\", ", "k").is_err(),
            "truncated strings"
        );
        assert_eq!(object_end("{\"a\": {\"b\": 1}"), None, "unclosed object");
        assert_eq!(object_end("}"), None, "stray close");
        assert!(objects("{\"a\": 1}, {\"b\": ").is_err(), "unclosed element");
        assert!(objects("{\"a\": 1},").is_err(), "no closing ]");
        assert!(objects("7]").is_err(), "not an object");
    }

    #[test]
    fn objects_skip_braces_inside_strings() {
        let arr = "{\"e\": \"} {\"}, null,\n{\"f\": [1]}] tail";
        let items = objects(arr).unwrap();
        assert_eq!(
            items,
            [Some("{\"e\": \"} {\"}"), None, Some("{\"f\": [1]}")]
        );
        assert_eq!(objects("]"), Ok(vec![]));
    }
}
