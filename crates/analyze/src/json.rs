//! Zero-dependency JSON report writer.
//!
//! The report schema is versioned (`"schema": "ffw-analyze/1"`) so CI
//! consumers can evolve independently of the tool. Output is deterministic:
//! diagnostics arrive pre-sorted and key order is fixed.

use crate::diag::{Diag, RULES};

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the full report: tool metadata, the rule catalog, and every
/// diagnostic with its span.
pub fn report(diags: &[Diag], files_scanned: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"ffw-analyze/1\",\n");
    s.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    s.push_str(&format!("  \"diagnostic_count\": {},\n", diags.len()));
    s.push_str("  \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"code\": \"{}\", \"rule\": \"{}\", \"waiver\": \"{}\", \"summary\": \"{}\"}}{}\n",
            r.code,
            r.rule,
            esc(r.waiver),
            esc(r.summary),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"diagnostics\": [\n");
    for (i, d) in diags.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"code\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"col\": {}, \"message\": \"{}\"}}{}\n",
            d.code,
            d.rule,
            esc(&d.file),
            d.line,
            d.col,
            esc(&d.message),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn report_shape() {
        let diags = vec![Diag {
            code: "FFW003",
            rule: "R3",
            file: "crates/par/src/lib.rs".into(),
            line: 7,
            col: 9,
            message: "msg with \"quotes\"".into(),
        }];
        let r = report(&diags, 42);
        assert!(r.contains("\"schema\": \"ffw-analyze/1\""));
        assert!(r.contains("\"files_scanned\": 42"));
        assert!(r.contains("\"diagnostic_count\": 1"));
        assert!(r.contains("\"line\": 7"));
        assert!(r.contains("msg with \\\"quotes\\\""));
        // Every catalog entry present.
        assert_eq!(r.matches("\"summary\"").count(), RULES.len());
    }

    #[test]
    fn empty_report_is_valid() {
        let r = report(&[], 0);
        assert!(r.contains("\"diagnostics\": [\n  ]"));
    }
}
