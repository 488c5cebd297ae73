//! Minimal JSON for the wire protocol and `pvx check --json`.
//!
//! The workspace builds fully offline (no serde), and the protocol needs
//! exactly one thing: flat-ish objects carrying verdicts, violations, and
//! counters, written and read back **losslessly** — the differential
//! suite asserts a [`PvOutcome`] survives the round trip bit-identically.
//! So this module is a small hand-rolled writer/parser pair plus the
//! outcome/memo codecs, not a general JSON library: numbers are `u64` or
//! `f64` (every counter in the system is a `u64`), strings escape the
//! control characters responses could otherwise smuggle a newline through
//! (the protocol is newline-framed), and everything else is out of scope.

use pv_core::checker::{PvOutcome, PvViolation, PvViolationKind};
use pv_core::memo::MemoStats;
use pv_core::recognizer::RecognizerStats;
use pv_xml::NodeId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (the counters' case).
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (irrelevant on this wire).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects (`None` elsewhere or when absent).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a `u64` (or an integral `f64`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            Json::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Appends `s` as a JSON string literal (quotes and escapes included).
pub fn write_str(out: &mut String, s: &str) {
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

/// Parses one JSON document (trailing garbage is an error).
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs are not produced by our own
                            // writer; reject rather than mis-decode.
                            out.push(
                                char::from_u32(code).ok_or("surrogate in \\u escape")?,
                            );
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Re-scan the full UTF-8 character.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !text.starts_with('-') && !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|e| e.to_string())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected , or ] at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected , or }} at offset {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Outcome codecs: the wire representation of a PvOutcome. Round-tripping
// must be lossless — tests/service_differential.rs asserts bit-identity.
// ---------------------------------------------------------------------

/// Appends the JSON encoding of an outcome (verdict, violation, every
/// work counter).
pub fn write_outcome(out: &mut String, o: &PvOutcome) {
    out.push_str("{\"potentially_valid\":");
    out.push_str(if o.is_potentially_valid() { "true" } else { "false" });
    out.push_str(",\"violation\":");
    match &o.violation {
        None => out.push_str("null"),
        Some(v) => {
            let _ = write!(out, "{{\"node\":{},", v.node.index());
            match &v.kind {
                PvViolationKind::RootMismatch { found, expected } => {
                    out.push_str("\"kind\":\"root-mismatch\",\"found\":");
                    write_str(out, found);
                    out.push_str(",\"expected\":");
                    write_str(out, expected);
                }
                PvViolationKind::UndeclaredElement { name } => {
                    out.push_str("\"kind\":\"undeclared-element\",\"name\":");
                    write_str(out, name);
                }
                PvViolationKind::ContentRejected { symbol, index } => {
                    out.push_str("\"kind\":\"content-rejected\",\"symbol\":");
                    write_str(out, symbol);
                    let _ = write!(out, ",\"index\":{index}");
                }
            }
            out.push('}');
        }
    }
    let s = &o.stats;
    let _ = write!(
        out,
        ",\"stats\":{{\"symbols\":{},\"node_visits\":{},\"subs_created\":{},\"specs_denied\":{}}}}}",
        s.symbols, s.node_visits, s.subs_created, s.specs_denied
    );
}

fn need_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing counter {key:?}"))
}

fn need_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// Rebuilds a [`PvOutcome`] from [`write_outcome`]'s encoding.
pub fn read_outcome(v: &Json) -> Result<PvOutcome, String> {
    let stats_v = v.get("stats").ok_or("missing stats")?;
    let stats = RecognizerStats {
        symbols: need_u64(stats_v, "symbols")?,
        node_visits: need_u64(stats_v, "node_visits")?,
        subs_created: need_u64(stats_v, "subs_created")?,
        specs_denied: need_u64(stats_v, "specs_denied")?,
    };
    let violation = match v.get("violation") {
        None | Some(Json::Null) => None,
        Some(vi) => {
            let node = NodeId::from_index(
                need_u64(vi, "node")? as usize,
            );
            let kind = match need_str(vi, "kind")?.as_str() {
                "root-mismatch" => PvViolationKind::RootMismatch {
                    found: need_str(vi, "found")?,
                    expected: need_str(vi, "expected")?,
                },
                "undeclared-element" => {
                    PvViolationKind::UndeclaredElement { name: need_str(vi, "name")? }
                }
                "content-rejected" => PvViolationKind::ContentRejected {
                    symbol: need_str(vi, "symbol")?,
                    index: need_u64(vi, "index")? as usize,
                },
                other => return Err(format!("unknown violation kind {other:?}")),
            };
            Some(PvViolation { node, kind })
        }
    };
    Ok(PvOutcome { violation, stats })
}

/// Appends the JSON encoding of a memo telemetry snapshot.
pub fn write_memo(out: &mut String, m: &MemoStats) {
    let _ = write!(
        out,
        "{{\"hits\":{},\"misses\":{},\"entries\":{},\"shapes\":{},\"flushes\":{}}}",
        m.hits, m.misses, m.entries, m.shapes, m.flushes
    );
}

/// Rebuilds a [`MemoStats`] from [`write_memo`]'s encoding.
pub fn read_memo(v: &Json) -> Result<MemoStats, String> {
    Ok(MemoStats {
        hits: need_u64(v, "hits")?,
        misses: need_u64(v, "misses")?,
        entries: need_u64(v, "entries")? as usize,
        shapes: need_u64(v, "shapes")? as usize,
        flushes: need_u64(v, "flushes")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("42").unwrap(), Json::U64(42));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(parse("-1.5").unwrap(), Json::F64(-1.5));
        assert_eq!(parse("\"a\\n\\\"b\\u00e9\"").unwrap(), Json::Str("a\n\"bé".into()));
        assert!(parse("tru").is_err());
        assert!(parse("{} junk").is_err());
    }

    #[test]
    fn parse_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn string_escaping_never_emits_raw_newlines() {
        let mut out = String::new();
        write_str(&mut out, "a\nb\r\"c\\d\u{1}");
        assert!(!out.contains('\n'));
        assert_eq!(parse(&out).unwrap(), Json::Str("a\nb\r\"c\\d\u{1}".into()));
    }

    #[test]
    fn outcome_round_trip_is_lossless() {
        use pv_core::CheckEngine;
        use pv_dtd::builtin::BuiltinDtd;
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = CheckEngine::new(analysis.clone());
        for xml in [
            "<r><a><b>x</b><c>y</c> z<e/></a></r>",
            "<r><a><b>x</b><e/><c>y</c></a></r>",
            "<a><b/></a>",
            "<r><zzz/></r>",
        ] {
            let doc = pv_xml::parse(xml).unwrap();
            let outcome = checker.check_document(&doc);
            let mut enc = String::new();
            write_outcome(&mut enc, &outcome);
            let back = read_outcome(&parse(&enc).unwrap()).unwrap();
            assert_eq!(back, outcome, "{xml}");
        }
    }

    #[test]
    fn memo_round_trip() {
        let m = MemoStats { hits: 7, misses: 3, entries: 5, shapes: 4, flushes: 1 };
        let mut enc = String::new();
        write_memo(&mut enc, &m);
        assert_eq!(read_memo(&parse(&enc).unwrap()).unwrap(), m);
    }
}
