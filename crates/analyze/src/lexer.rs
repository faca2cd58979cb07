//! A from-scratch Rust lexer producing a flat token stream with
//! file/line/column spans.
//!
//! This is deliberately *not* a full Rust grammar — the rules only need the
//! token boundaries the textual engine could not see: string literal
//! interiors (including raw strings with arbitrary `#` fences and byte
//! strings), character literals vs. lifetimes, and nested block comments.
//! Everything the rules match (`Ordering::Release`, `g0.apply(`, tag
//! expressions) is a short token sequence, so a lossless stream of `Ident`/`Punct`/`Literal`/`Comment`
//! tokens with positions is exactly enough.

/// What a token is. `Int` carries the parsed value when the literal is a
/// plain integer (decimal / hex / octal / binary, `_` separators, numeric
/// suffix) — the tag-protocol rule needs the values to check the reserved
/// bit.
#[derive(Clone, Debug, PartialEq)]
pub enum TokKind {
    /// Identifier or keyword (the rules treat keywords as idents).
    Ident,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// Integer literal, with its parsed value when it fits `u64`.
    Int(Option<u64>),
    /// Float literal.
    Float,
    /// Any string-ish literal: `"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// Char or byte-char literal: `'x'`, `b'\n'`.
    Char,
    /// A line or (nested) block comment, doc or plain.
    Comment,
    /// Punctuation / operator, possibly multi-character (`::`, `+=`, `..`).
    Punct,
}

/// One token with its text and 1-based start position.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Kind of token.
    pub kind: TokKind,
    /// Exact source text (comments keep their delimiters).
    pub text: String,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column (in characters) of the first character.
    pub col: u32,
}

impl Tok {
    /// True if this is an identifier with the given text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this is punctuation with the given text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }

    /// True for any comment token.
    pub fn is_comment(&self) -> bool {
        self.kind == TokKind::Comment
    }
}

/// Multi-character operators, longest first so the match is maximal.
const MULTI_PUNCT: [&str; 24] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parses an integer literal's value: `0x`/`0o`/`0b` prefixes, `_`
/// separators, and a trailing type suffix (`u32`, `usize`, …) are handled.
pub fn parse_int(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(o) = t.strip_prefix("0o") {
        (o, 8)
    } else if let Some(b) = t.strip_prefix("0b") {
        (b, 2)
    } else {
        (t.as_str(), 10)
    };
    // Strip a type suffix: the first char that is not a digit of `radix`.
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// Lexes `src` into a token stream. Never fails: unterminated constructs
/// are closed at end of file (the rules tolerate a truncated final token).
pub fn lex(src: &str) -> Vec<Tok> {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut toks = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        let start = cur.i;
        let kind = if c == '/' && cur.peek(1) == Some('/') {
            lex_line_comment(&mut cur)
        } else if c == '/' && cur.peek(1) == Some('*') {
            lex_block_comment(&mut cur)
        } else if c == '"' {
            lex_string(&mut cur);
            TokKind::Str
        } else if c == 'r' && matches!(cur.peek(1), Some('"') | Some('#')) {
            match lex_raw_string_or_ident(&mut cur) {
                Some(k) => k,
                None => lex_ident(&mut cur),
            }
        } else if c == 'b' && matches!(cur.peek(1), Some('"') | Some('\'') | Some('r')) {
            match lex_byte_literal(&mut cur) {
                Some(k) => k,
                None => lex_ident(&mut cur),
            }
        } else if c == '\'' {
            lex_char_or_lifetime(&mut cur)
        } else if is_ident_start(c) {
            lex_ident(&mut cur)
        } else if c.is_ascii_digit() {
            lex_number(&mut cur)
        } else {
            lex_punct(&mut cur)
        };
        let text: String = cur.chars[start..cur.i].iter().collect();
        let kind = match kind {
            TokKind::Int(_) => TokKind::Int(parse_int(&text)),
            k => k,
        };
        toks.push(Tok {
            kind,
            text,
            line,
            col,
        });
    }
    toks
}

fn lex_line_comment(cur: &mut Cursor) -> TokKind {
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        cur.bump();
    }
    TokKind::Comment
}

fn lex_block_comment(cur: &mut Cursor) -> TokKind {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1usize;
    while depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some('/'), Some('*')) => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            (Some('*'), Some('/')) => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            (Some(_), _) => {
                cur.bump();
            }
            (None, _) => break,
        }
    }
    TokKind::Comment
}

fn lex_string(cur: &mut Cursor) {
    cur.bump(); // opening '"'
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// `r"…"`, `r#"…"#`, … or a raw identifier `r#ident`. Returns `None` when
/// the `r` turns out to start a plain identifier.
fn lex_raw_string_or_ident(cur: &mut Cursor) -> Option<TokKind> {
    let mut hashes = 0usize;
    while cur.peek(1 + hashes) == Some('#') {
        hashes += 1;
    }
    match cur.peek(1 + hashes) {
        Some('"') => {
            cur.bump(); // 'r'
            for _ in 0..hashes {
                cur.bump();
            }
            cur.bump(); // '"'
            consume_raw_string_body(cur, hashes);
            Some(TokKind::Str)
        }
        Some(c) if hashes == 1 && is_ident_start(c) => {
            // Raw identifier `r#ident`.
            cur.bump();
            cur.bump();
            while cur.peek(0).is_some_and(is_ident_continue) {
                cur.bump();
            }
            Some(TokKind::Ident)
        }
        _ => None,
    }
}

fn consume_raw_string_body(cur: &mut Cursor, hashes: usize) {
    while let Some(c) = cur.bump() {
        if c == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if cur.peek(k) != Some('#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
    }
}

/// `b"…"`, `b'…'`, `br"…"`, `br#"…"#`. Returns `None` when the `b` starts a
/// plain identifier.
fn lex_byte_literal(cur: &mut Cursor) -> Option<TokKind> {
    match cur.peek(1) {
        Some('"') => {
            cur.bump();
            lex_string(cur);
            Some(TokKind::Str)
        }
        Some('\'') => {
            cur.bump();
            consume_char_body(cur);
            Some(TokKind::Char)
        }
        Some('r') => {
            let mut hashes = 0usize;
            while cur.peek(2 + hashes) == Some('#') {
                hashes += 1;
            }
            if cur.peek(2 + hashes) == Some('"') {
                cur.bump(); // 'b'
                cur.bump(); // 'r'
                for _ in 0..hashes {
                    cur.bump();
                }
                cur.bump(); // '"'
                consume_raw_string_body(cur, hashes);
                Some(TokKind::Str)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn consume_char_body(cur: &mut Cursor) {
    cur.bump(); // opening '\''
    if cur.bump() == Some('\\') {
        // Escape: one char, or `u{…}` for unicode escapes.
        if cur.bump() == Some('u') && cur.peek(0) == Some('{') {
            while let Some(c) = cur.bump() {
                if c == '}' {
                    break;
                }
            }
        }
    }
    if cur.peek(0) == Some('\'') {
        cur.bump();
    }
}

/// `'a` (lifetime) vs `'x'` / `'\n'` (char literal). A quote followed by an
/// identifier char is a char literal only when the *next* char closes it.
fn lex_char_or_lifetime(cur: &mut Cursor) -> TokKind {
    match cur.peek(1) {
        Some(c) if is_ident_start(c) && cur.peek(2) != Some('\'') => {
            cur.bump(); // '\''
            while cur.peek(0).is_some_and(is_ident_continue) {
                cur.bump();
            }
            TokKind::Lifetime
        }
        _ => {
            consume_char_body(cur);
            TokKind::Char
        }
    }
}

fn lex_ident(cur: &mut Cursor) -> TokKind {
    while cur.peek(0).is_some_and(is_ident_continue) {
        cur.bump();
    }
    TokKind::Ident
}

fn lex_number(cur: &mut Cursor) -> TokKind {
    let mut float = false;
    // Leading digits (any radix — `parse_int` sorts the prefix out later).
    while cur
        .peek(0)
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        // A type/exponent letter can be followed by `+`/`-` only in
        // exponents; handled below. Consume the alphanumeric run.
        cur.bump();
    }
    // Fractional part: a '.' followed by a digit (not `..`, not `.method()`).
    if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        float = true;
        cur.bump(); // '.'
        while cur
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            cur.bump();
        }
    }
    // Exponent sign: `1e-5` — the alnum run above stops at '-'.
    if matches!(cur.peek(0), Some('+') | Some('-')) {
        // Only continue when the previous char was an exponent 'e'/'E'.
        let prev = cur.chars.get(cur.i.wrapping_sub(1)).copied();
        if matches!(prev, Some('e') | Some('E')) && cur.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            float = true;
            cur.bump();
            while cur
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                cur.bump();
            }
        }
    }
    // A trailing `.5`-style fraction marks a float even without more digits:
    // `1.` (rare) — leave as int; the rules never care.
    if float {
        TokKind::Float
    } else {
        TokKind::Int(None)
    }
}

fn lex_punct(cur: &mut Cursor) -> TokKind {
    for m in MULTI_PUNCT {
        let mut ok = true;
        for (k, mc) in m.chars().enumerate() {
            if cur.peek(k) != Some(mc) {
                ok = false;
                break;
            }
        }
        if ok {
            for _ in 0..m.len() {
                cur.bump();
            }
            return TokKind::Punct;
        }
    }
    cur.bump();
    TokKind::Punct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ts = kinds("self.x.store(true, Ordering::Release);");
        let texts: Vec<&str> = ts.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(
            texts,
            [
                "self", ".", "x", ".", "store", "(", "true", ",", "Ordering", "::", "Release", ")",
                ";"
            ]
        );
    }

    #[test]
    fn string_interiors_are_single_tokens() {
        let ts = kinds(r#"panic!("call .send( correctly");"#);
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokKind::Str && s.contains(".send(")));
        // No Punct/Ident tokens from inside the string.
        assert!(!ts.iter().any(|(k, s)| *k == TokKind::Ident && s == "send"));
    }

    #[test]
    fn raw_strings_with_fences() {
        let ts = kinds(r##"let s = r#"has "quotes" and \ no escapes"#; x"##);
        assert!(matches!(ts[3].0, TokKind::Str));
        assert!(ts.last().unwrap().1 == "x");
    }

    #[test]
    fn nested_block_comments() {
        let ts = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[1].0, TokKind::Comment);
        assert!(ts[1].1.contains("inner"));
        assert_eq!(ts[2].1, "b");
    }

    #[test]
    fn char_vs_lifetime() {
        let ts = kinds("let c = 'a'; fn f<'a>(x: &'a str) { let q = '\\''; }");
        let chars: Vec<&str> = ts
            .iter()
            .filter(|(k, _)| *k == TokKind::Char)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(chars, ["'a'", "'\\''"]);
        let lifetimes: Vec<&str> = ts
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
    }

    #[test]
    fn int_values() {
        assert_eq!(parse_int("0x8000_0000"), Some(0x8000_0000));
        assert_eq!(parse_int("0x100"), Some(0x100));
        assert_eq!(parse_int("42u32"), Some(42));
        assert_eq!(parse_int("0b1010"), Some(10));
        assert_eq!(parse_int("1_000_000"), Some(1_000_000));
        let ts = lex("const T: u32 = 0x110;");
        let v = ts
            .iter()
            .find_map(|t| match t.kind {
                TokKind::Int(v) => Some(v),
                _ => None,
            })
            .unwrap();
        assert_eq!(v, Some(0x110));
    }

    #[test]
    fn floats_and_ranges() {
        let ts = kinds("for i in 0..10 { let x = 1.5e-3; let y = v[0].re; }");
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokKind::Float && s == "1.5e-3"));
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Punct && s == ".."));
        // `v[0].re` keeps the int and the field access separate.
        assert!(ts
            .iter()
            .any(|(k, s)| matches!(k, TokKind::Int(_)) && s == "0"));
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Ident && s == "re"));
    }

    #[test]
    fn spans_are_one_based_and_accurate() {
        let ts = lex("ab\n  cd");
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn multiline_string_spans() {
        let ts = lex("let s = \"line one\nline two\";\nnext");
        let s = &ts[3];
        assert_eq!(s.kind, TokKind::Str);
        assert_eq!(s.line, 1);
        let next = ts.last().unwrap();
        assert_eq!(next.line, 3);
    }

    #[test]
    fn byte_literals() {
        let ts = kinds("let a = b\"bytes\"; let c = b'\\n'; let r = br#\"raw\"#;");
        let strs = ts.iter().filter(|(k, _)| *k == TokKind::Str).count();
        assert_eq!(strs, 2);
        assert!(ts.iter().any(|(k, _)| *k == TokKind::Char));
    }
}
