//! The workspace's one JSON reader.
//!
//! A small recursive-descent parser for the JSON the repository's own
//! files use — fault-plan and fuzz-case files, exported Chrome traces —
//! plus the typed accessors their decoders share. Every
//! file it reads may come from outside the program, so malformed text is
//! an ordinary `Err("… at byte N")`: nesting is capped at [`MAX_DEPTH`]
//! (no input can overflow the stack) and a repeated object key is
//! rejected rather than silently resolved, so typos fail loudly.
//!
//! Strings support the escapes `\"`, `\\`, `\/`, `\n` and `\t`; `\u`
//! escapes are not needed by any file the workspace writes and are
//! rejected. Writers stay with their owners: each file format is
//! rendered by hand next to the type it serializes, so output is
//! byte-stable.

/// Deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: its members in file order, keys unique.
    Obj(Vec<(String, Json)>),
}

/// Parse one JSON document; anything but whitespace after it is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let root = parser.value()?;
    if parser.peek().is_some() {
        return parser.err("trailing content");
    }
    Ok(root)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn peek(&mut self) -> Option<u8> {
        while self.byte().is_some_and(|b| b" \t\r\n".contains(&b)) {
            self.pos += 1;
        }
        self.byte()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parse a container one level down, refusing to recurse past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return self.err(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .byte()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        // `"1e999".parse::<f64>()` is `Ok(inf)`: a number no decoder here
        // can use (a time never reached, a factor that overflows), so it
        // is refused at the door for all of them.
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(format!("number out of range at byte {start}")),
            Err(_) => Err(format!("malformed number at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Quotes and backslashes are ASCII, so they never occur inside
            // a multi-byte character and every slice below is on a
            // character boundary: UTF-8 is copied through untouched.
            let run = self.pos;
            while self.byte().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.byte() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(match self.byte() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        _ => return self.err("unsupported escape"),
                    });
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
            return self.err(&format!("duplicate key \"{}\" in object ending", pair[0]));
        }
        Ok(Json::Obj(members))
    }
}

// ---- typed accessors ---------------------------------------------------------
//
// `what` names the value in the caller's vocabulary (`"link.kind.p"`), so
// a decoder's errors read as paths into the file.

/// `v` as a number.
pub fn as_num(v: &Json, what: &str) -> Result<f64, String> {
    match v {
        Json::Num(n) => Ok(*n),
        other => Err(format!("{what}: expected a number, got {other:?}")),
    }
}

/// `v` as a non-negative integer no greater than `max` (exact in an
/// `f64` up to 2⁵³).
pub fn as_uint(v: &Json, what: &str, max: u64) -> Result<u64, String> {
    let n = as_num(v, what)?;
    if n < 0.0 || n.fract() != 0.0 || n > max as f64 {
        return Err(format!("{what}: {n} is not an integer in 0..={max}"));
    }
    Ok(n as u64)
}

/// `v` as a string.
pub fn as_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(format!("{what}: expected a string, got {other:?}")),
    }
}

/// `v` as an object's members.
pub fn obj<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(members) => Ok(members),
        other => Err(format!("{what}: expected an object, got {other:?}")),
    }
}

/// `v` as an array's items.
pub fn arr<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    match v {
        Json::Arr(items) => Ok(items),
        other => Err(format!("{what}: expected an array, got {other:?}")),
    }
}

/// The member `key` of an object, if present.
pub fn get<'a>(members: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The member `key` of the object called `what`, or a "missing field"
/// error.
pub fn field<'a>(members: &'a [(String, Json)], key: &str, what: &str) -> Result<&'a Json, String> {
    get(members, key).ok_or_else(|| format!("{what}: missing field \"{key}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind_in_file_order() {
        let v = parse(r#" {"b": [1, -2.5e3, true, null], "a": {"s": "x\n\"y\""}} "#).unwrap();
        let members = obj(&v, "root").unwrap();
        assert_eq!(members[0].0, "b", "members keep file order");
        assert_eq!(
            arr(&members[0].1, "b").unwrap(),
            [
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]
        );
        let a = obj(field(members, "a", "root").unwrap(), "a").unwrap();
        assert_eq!(as_str(&a[0].1, "s").unwrap(), "x\n\"y\"");
        assert_eq!(as_uint(&Json::Num(7.0), "n", 7), Ok(7));
        for bad in [-1.0, 0.5, 8.0] {
            assert!(as_uint(&Json::Num(bad), "n", 7).is_err(), "{bad}");
        }
        assert!(get(members, "c").is_none());
        assert!(field(members, "c", "root")
            .unwrap_err()
            .contains("missing field \"c\""));
    }

    #[test]
    fn malformed_text_is_an_error_with_a_position() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"open",
            "\"\\u00e9\"",
            "1e999",
            "[-1e999]",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("at byte"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed_to_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64 at byte 64"), "{err}");
        // The reproducer from the issue: 200 000 levels, unterminated.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(200_000)).is_err());
    }

    #[test]
    fn non_ascii_text_is_copied_through() {
        let v = parse("{\"clé\": \"žluťoučký 負荷\"}").unwrap();
        let members = obj(&v, "root").unwrap();
        assert_eq!(members[0].0, "clé");
        assert_eq!(as_str(&members[0].1, "clé").unwrap(), "žluťoučký 負荷");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse(r#"{"seed": 1, "drop": 0.5, "seed": 2}"#).unwrap_err();
        assert!(err.contains("duplicate key \"seed\""), "{err}");
        // The same key in sibling objects is fine.
        assert!(parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
    }
}
