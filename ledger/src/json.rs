//! A small JSON reader: enough for `BENCHMARK.json` and the result lines
//! `--all` reads back from its children. The workspace has no external
//! dependencies, so there is no serde to lean on.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order is not kept).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The items of an array.
    #[must_use]
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// A string's text.
    #[must_use]
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number's value.
    #[must_use]
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Parse one JSON document.
///
/// # Errors
/// Where and why the text is not JSON.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.i == p.s.len() {
        Ok(v)
    } else {
        Err(format!("trailing characters at byte {}", p.i))
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    /// Consume `c` after optional whitespace, if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.s.get(self.i) == Some(&c);
        if hit {
            self.i += 1;
        }
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.expect(b':')?;
                        let v = self.value()?;
                        if m.insert(key.clone(), v).is_some() {
                            return Err(format!("duplicate key {key:?}"));
                        }
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Obj(m))
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                if !self.eat(b']') {
                    loop {
                        v.push(self.value()?);
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Arr(v))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => self.word(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    out.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'"' | b'\\' | b'/' => e,
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    });
                }
                _ => out.push(c),
            }
        }
    }

    fn word(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c)) {
            self.i += 1;
        }
        match &self.s[start..self.i] {
            b"null" => Ok(Json::Null),
            b"true" => Ok(Json::Bool(true)),
            b"false" => Ok(Json::Bool(false)),
            w => std::str::from_utf8(w)
                .ok()
                .and_then(|t| t.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad token at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents_and_rejects_broken_ones() {
        let v = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"y"}, "d": []} "#)
            .expect("valid JSON");
        assert_eq!(v.get("a").and_then(Json::items).map(<[Json]>::len), Some(4));
        assert_eq!(v.get("a").and_then(Json::items).and_then(|a| a[1].num()), Some(-2500.0));
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Json::str), Some("x\"y"));
        assert_eq!(v.get("d"), Some(&Json::Arr(Vec::new())));
        for bad in ["{", "[1,]", "{\"a\" 1}", "{\"a\": 1} x", "\"open", "{\"a\":1,\"a\":2}", ""] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
