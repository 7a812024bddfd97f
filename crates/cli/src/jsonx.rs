//! Minimal dependency-free JSON reader for the CLI's own exports
//! (`cards-ttrace-v1`, `cards-flight-v1`, bench schemas). Supports
//! objects, arrays, strings with every JSON escape (so whatever
//! `cards_runtime::telemetry::json_str` writes reads back), integers,
//! floats, booleans, null.
//! Object keys keep insertion order so diffs render in emitter order.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers; the emitters only produce values representable here.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric field as u64 (saturating at 0 for negatives).
    pub fn u64_of(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(Json::Num(n)) if *n >= 0.0 => *n as u64,
            _ => 0,
        }
    }

    /// String field, or empty.
    pub fn str_of(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Json::Str(s)) => s,
            _ => "",
        }
    }

    /// Array field, or empty slice.
    pub fn arr_of(&self, key: &str) -> &[Json] {
        match self.get(key) {
            Some(Json::Arr(v)) => v,
            _ => &[],
        }
    }

    /// Object field's key/value pairs, or empty slice.
    pub fn obj_of(&self, key: &str) -> &[(String, Json)] {
        match self.get(key) {
            Some(Json::Obj(kv)) => kv,
            _ => &[],
        }
    }
}

/// Maximum container nesting. The emitters stay under a dozen levels;
/// anything deeper is hostile or corrupt input, and recursing on it would
/// overflow the stack before the parser hit end-of-input.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document; trailing content is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut i = 0usize;
    let v = value(b, &mut i, 0)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing content at byte {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {i}"));
    }
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => obj(b, i, depth),
        Some(b'[') => arr(b, i, depth),
        Some(b'"') => Ok(Json::Str(string(b, i)?)),
        Some(b't') => lit(b, i, "true", Json::Bool(true)),
        Some(b'f') => lit(b, i, "false", Json::Bool(false)),
        Some(b'n') => lit(b, i, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => num(b, i),
        Some(c) => Err(format!("unexpected byte {c:?} at {i:?}")),
        None => Err("unexpected end of input".into()),
    }
}

fn lit(b: &[u8], i: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*i..].starts_with(word.as_bytes()) {
        *i += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *i))
    }
}

fn num(b: &[u8], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *i += 1;
    }
    std::str::from_utf8(&b[start..*i])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
    *i += 1; // opening quote
    let mut out = String::new();
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(out);
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(unicode_escape(b, i)?),
                    Some(c) => return Err(format!("unsupported escape \\{}", *c as char)),
                    None => return Err("unterminated escape".into()),
                }
                *i += 1;
            }
            _ => {
                // copy one UTF-8 scalar
                let s = std::str::from_utf8(&b[*i..]).map_err(|e| e.to_string())?;
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                *i += ch.len_utf8();
            }
        }
    }
    Err("unterminated string".into())
}

/// Decode the `\uXXXX` escape whose `u` is at `b[*i]` (a UTF-16
/// surrogate pair spans two escapes), leaving `*i` on its last hex digit.
fn unicode_escape(b: &[u8], i: &mut usize) -> Result<char, String> {
    let hex4 = |at: usize| {
        b.get(at..at + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))
    };
    let start = *i;
    let mut c = hex4(*i + 1)?;
    *i += 4;
    if (0xD800..0xDC00).contains(&c) && b.get(*i + 1..*i + 3) == Some(b"\\u") {
        let lo = hex4(*i + 3)?;
        if (0xDC00..0xE000).contains(&lo) {
            c = 0x10000 + ((c - 0xD800) << 10) + (lo - 0xDC00);
            *i += 6;
        }
    }
    char::from_u32(c).ok_or_else(|| format!("unpaired surrogate in \\u escape at byte {start}"))
}

fn obj(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    *i += 1; // '{'
    let mut kv = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(Json::Obj(kv));
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *i));
        }
        let k = string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *i));
        }
        *i += 1;
        let v = value(b, i, depth + 1)?;
        kv.push((k, v));
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(Json::Obj(kv));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *i)),
        }
    }
}

fn arr(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    *i += 1; // '['
    let mut out = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(value(b, i, depth + 1)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let j = parse(r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5}}"#).unwrap();
        assert_eq!(j.u64_of("a"), 1);
        assert_eq!(j.arr_of("b").len(), 3);
        assert_eq!(j.arr_of("b")[2], Json::Str("x\n".into()));
        assert_eq!(j.get("c").unwrap().get("d"), Some(&Json::Num(-2.5)));
    }

    #[test]
    fn preserves_key_order() {
        let j = parse(r#"{"z":0,"a":1,"m":2}"#).unwrap();
        let keys: Vec<&str> = match &j {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!(),
        };
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"k" 1}"#).is_err());
    }

    #[test]
    fn depth_cap_rejects_hostile_nesting_without_overflow() {
        // Before the cap, 100k unclosed brackets would recurse once per
        // byte and blow the stack; now it must be a parse error.
        for open in ["[", "{\"k\":"] {
            let hostile = open.repeat(100_000);
            let err = parse(&hostile).unwrap_err();
            assert!(err.contains("nesting deeper than"), "got: {err}");
        }
        // Nesting at the cap still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn reads_back_every_string_the_escaper_writes() {
        let mut text: String = (0u8..0x20).map(char::from).collect();
        text.push_str("\"\\/ kv\"x\\y é \u{1F600}");
        let mut doc = String::from("{\"k\":");
        cards_runtime::telemetry::json_str(&mut doc, &text);
        doc.push('}');
        assert_eq!(parse(&doc).unwrap().str_of("k"), text);
    }

    #[test]
    fn reads_every_json_escape() {
        let j = parse(r#"["\/\b\f\r\u00e9\u0041\ud83d\ude00"]"#).unwrap();
        assert_eq!(
            j,
            Json::Arr(vec![Json::Str("/\u{8}\u{c}\ré\u{41}\u{1F600}".into())])
        );
        assert!(parse(r#""\u12""#).is_err(), "short \\u escape");
        assert!(parse(r#""\ud800""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn roundtrips_real_ttrace_shape() {
        let j = parse(
            r#"{"schema":"cards-ttrace-v1","phases":{"guard":10,"wire":40},"sites":[{"site":3,"func":"main","block":"loop","ops":2,"cycles":100}]}"#,
        )
        .unwrap();
        assert_eq!(j.str_of("schema"), "cards-ttrace-v1");
        assert_eq!(j.obj_of("phases")[1].0, "wire");
        assert_eq!(j.arr_of("sites")[0].u64_of("cycles"), 100);
    }
}
