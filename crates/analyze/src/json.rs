//! The JSON report, written through the workspace codec (`ffw_obs::json`).
//!
//! The report schema is versioned (`"schema": "ffw-analyze/2"`) so CI
//! consumers can evolve independently of the tool. Output is deterministic:
//! diagnostics arrive pre-sorted and keys come out sorted.

use crate::diag::{Diag, RULES};
use ffw_obs::json::{obj, Json};

/// Renders the full report: tool metadata, the rule catalog, and every
/// diagnostic with its span.
pub fn report(diags: &[Diag], files_scanned: usize) -> String {
    let text = |s: &str| Json::Str(s.to_string());
    let rules = RULES.iter().map(|r| {
        obj(vec![
            ("code", text(r.code)),
            ("rule", text(r.rule)),
            ("summary", text(r.summary)),
        ])
    });
    let diagnostics = diags.iter().map(|d| {
        obj(vec![
            ("code", text(d.code)),
            ("rule", text(d.rule)),
            ("file", text(&d.file)),
            ("line", Json::Num(d.line.into())),
            ("col", Json::Num(d.col.into())),
            ("message", text(&d.message)),
        ])
    });
    let doc = obj(vec![
        ("schema", text("ffw-analyze/2")),
        ("files_scanned", Json::Num(files_scanned as f64)),
        ("diagnostic_count", Json::Num(diags.len() as f64)),
        ("rules", Json::Arr(rules.collect())),
        ("diagnostics", Json::Arr(diagnostics.collect())),
    ]);
    doc.to_pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_carries_the_catalog_and_every_diagnostic() {
        let diag = Diag {
            code: "FFW003",
            rule: "R3",
            file: "crates/par/src/lib.rs".into(),
            line: 7,
            col: 9,
            message: "msg with \"quotes\"\n".into(),
        };
        let r = Json::parse(&report(&[diag], 42)).expect("valid JSON");
        assert_eq!(
            r.get("schema").and_then(Json::as_str),
            Some("ffw-analyze/2")
        );
        assert_eq!(r.get("files_scanned").and_then(Json::as_u64), Some(42));
        assert_eq!(r.get("diagnostic_count").and_then(Json::as_u64), Some(1));
        let diags = r
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("diagnostics");
        assert_eq!(
            diags[0].to_line(),
            r#"{"code":"FFW003","col":9,"file":"crates/par/src/lib.rs","line":7,"message":"msg with \"quotes\"\n","rule":"R3"}"#
        );
        let rules = r.get("rules").and_then(Json::as_arr).expect("rules");
        assert_eq!(rules.len(), RULES.len());
        for (row, rule) in rules.iter().zip(RULES) {
            let fields = ["code", "rule", "summary"].map(|k| row.get(k)?.as_str());
            assert_eq!(fields, [rule.code, rule.rule, rule.summary].map(Some));
        }
    }

    #[test]
    fn empty_report_is_valid() {
        let r = Json::parse(&report(&[], 0)).expect("valid JSON");
        assert_eq!(r.get("diagnostics").and_then(Json::as_arr), Some(&[][..]));
        assert_eq!(r.get("diagnostic_count").and_then(Json::as_u64), Some(0));
    }
}
