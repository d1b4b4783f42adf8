//! A small JSON value, parser and writer: the container has no serde, and
//! the benchmark reads `BENCHMARK.json` and its own run-set files.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept, so written files diff cleanly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(kv) => Some(kv),
            _ => None,
        }
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` prints the shortest digits that round-trip, and
                    // whole numbers without a fraction.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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

#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    pub at: usize,
    pub what: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for JsonError {}

pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

/// Nesting allowed in a file we read; ours use four levels.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.pos, what }
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    return Err(self.err("expected , or ]"));
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut kv = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.skip_ws();
                    if self.src.get(self.pos) != Some(&b'"') {
                        return Err(self.err("expected a key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected :"));
                    }
                    kv.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    if self.eat("}") {
                        return Ok(Json::Obj(kv));
                    }
                    return Err(self.err("expected , or }"));
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.src.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.src[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or(JsonError {
                        at: start,
                        what: "bad number",
                    })
            }
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.src.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"));
                }
                b'\\' => {
                    let Some(&e) = self.src.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs do not occur in our files.
                            let c =
                                char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_we_write() {
        let v = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Num(1000.0)),
            (
                "metrics".into(),
                Json::Obj(vec![(
                    "latency_ms".into(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(1.2034)),
                        ("unit".into(), Json::Str("ms".into())),
                    ]),
                )]),
            ),
            ("note".into(), Json::Str("a \"quoted\"\nline\\".into())),
            (
                "list".into(),
                Json::Arr(vec![Json::Null, Json::Num(-2.5e-3)]),
            ),
        ]);
        let text = v.render();
        assert!(text.starts_with("{\"correct\": true, \"attempted\": 1000, "));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep).unwrap_err().what, "nested too deeply");
    }

    #[test]
    fn reads_escapes_and_whitespace() {
        let v = parse(" { \"k\" : [ \"\\u0041\\n\" , 1e3 ] } ").unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![(
                "k".into(),
                Json::Arr(vec![Json::Str("A\n".into()), Json::Num(1000.0)])
            )])
        );
    }
}
