//! R12: the waiver ledger.
//!
//! Waivers (`// lint:…-ok`) are deliberate, reviewed exceptions — but an
//! exception nobody can enumerate is indistinguishable from rot. R12 makes
//! the set of live waivers a first-class, diffable artifact:
//!
//! * every waiver comment in non-test code must have a matching entry in
//!   the root `WAIVERS.md` ledger (keyed by file path + tag) **with a
//!   non-empty justification**;
//! * every ledger entry must still correspond to at least one live waiver —
//!   a stale entry fails the build, so removing the last waiver in a file
//!   forces the ledger line to be retired with it;
//! * waiver tags must come from the rule catalog — a typo like
//!   `lint:unwarp-ok` silently suppresses nothing, so it is an error.
//!
//! Ledger entries are markdown bullets:
//!
//! ```text
//! - `crates/inverse/src/dbim.rs` lint:single-rhs-ok — scalar Born stage is genuinely single-RHS
//! ```
//!
//! Only *plain* comments register waivers (doc comments are documentation,
//! not suppression), and only on non-test lines — test code is already
//! exempt from the rules that accept waivers.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{rule_info, Diag, RULES};
use crate::workspace::Workspace;

/// All waiver tags recognized by the rule catalog.
pub fn known_waiver_tags() -> Vec<&'static str> {
    RULES
        .iter()
        .map(|r| r.waiver)
        .filter(|w| !w.is_empty())
        .collect()
}

/// One waiver occurrence in source code.
struct WaiverSite {
    file: String,
    line: u32,
    tag: String,
}

/// One parsed ledger entry.
struct LedgerEntry {
    line: u32,
    path: String,
    tag: String,
    justification: String,
}

/// Extracts every `lint:<word>` tag from a comment line.
fn tags_in(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("lint:") {
        let after = &rest[pos + 5..];
        let end = after
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '-' && c != '_')
            .unwrap_or(after.len());
        if end > 0 {
            out.push(format!("lint:{}", &after[..end]));
        }
        rest = &after[end..];
    }
    out
}

/// Parses `WAIVERS.md` bullets into entries; malformed bullets that clearly
/// try to be entries (contain `lint:`) are reported.
fn parse_ledger(ledger: &str, out: &mut Vec<Diag>) -> Vec<LedgerEntry> {
    let info = rule_info("R12");
    let mut entries = Vec::new();
    for (li, raw) in ledger.lines().enumerate() {
        let line = (li + 1) as u32;
        let trimmed = raw.trim_start();
        if !trimmed.starts_with("- ") || !trimmed.contains("lint:") {
            continue;
        }
        // Path: first backtick-quoted span.
        let path = trimmed
            .split('`')
            .nth(1)
            .map(str::to_string)
            .unwrap_or_default();
        let tag = tags_in(trimmed).into_iter().next().unwrap_or_default();
        if path.is_empty() || tag.is_empty() {
            out.push(Diag {
                code: info.code,
                rule: info.rule,
                file: "WAIVERS.md".into(),
                line,
                col: 1,
                message: "malformed ledger entry — expected \
                          `- `path` lint:tag — justification`"
                    .into(),
            });
            continue;
        }
        // Justification: everything after the tag, minus separator dashes.
        let after_tag = trimmed.split_once(&tag).map(|(_, rest)| rest).unwrap_or("");
        let justification = after_tag
            .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':')
            .trim()
            .to_string();
        entries.push(LedgerEntry {
            line,
            path,
            tag,
            justification,
        });
    }
    entries
}

/// R12 over the whole workspace.
pub fn r12_waiver_ledger(ws: &Workspace, out: &mut Vec<Diag>) {
    let info = rule_info("R12");
    let known: BTreeSet<&str> = known_waiver_tags().into_iter().collect();

    // 1. Collect live waivers from non-test plain comments.
    let mut live: Vec<WaiverSite> = Vec::new();
    for f in &ws.files {
        for (li, text) in f.index.plain_comments.iter().enumerate() {
            if text.is_empty() || f.is_test_line(li) {
                continue;
            }
            for tag in tags_in(text) {
                live.push(WaiverSite {
                    file: f.rel_path.clone(),
                    line: (li + 1) as u32,
                    tag,
                });
            }
        }
    }

    // 2. Parse the ledger.
    let entries = match &ws.ledger {
        Some(text) => parse_ledger(text, out),
        None => Vec::new(),
    };
    let mut registered: BTreeMap<(String, String), &LedgerEntry> = BTreeMap::new();
    for e in &entries {
        if !known.contains(e.tag.as_str()) {
            out.push(Diag {
                code: info.code,
                rule: info.rule,
                file: "WAIVERS.md".into(),
                line: e.line,
                col: 1,
                message: format!(
                    "ledger entry uses unknown waiver tag `{}` — known tags: {}",
                    e.tag,
                    known.iter().copied().collect::<Vec<_>>().join(", ")
                ),
            });
            continue;
        }
        if e.justification.is_empty() {
            out.push(Diag {
                code: info.code,
                rule: info.rule,
                file: "WAIVERS.md".into(),
                line: e.line,
                col: 1,
                message: format!(
                    "ledger entry for `{}` ({}) has no justification — a waiver without a \
                     recorded reason cannot be reviewed",
                    e.path, e.tag
                ),
            });
        }
        registered.insert((e.path.clone(), e.tag.clone()), e);
    }

    // 3. Every live waiver must use a known tag and be registered.
    let mut used: BTreeSet<(String, String)> = BTreeSet::new();
    for w in &live {
        if !known.contains(w.tag.as_str()) {
            out.push(Diag {
                code: info.code,
                rule: info.rule,
                file: w.file.clone(),
                line: w.line,
                col: 1,
                message: format!(
                    "unknown waiver tag `{}` — it suppresses nothing; known tags: {}",
                    w.tag,
                    known.iter().copied().collect::<Vec<_>>().join(", ")
                ),
            });
            continue;
        }
        let key = (w.file.clone(), w.tag.clone());
        if registered.contains_key(&key) {
            used.insert(key);
        } else {
            out.push(Diag {
                code: info.code,
                rule: info.rule,
                file: w.file.clone(),
                line: w.line,
                col: 1,
                message: format!(
                    "waiver `{}` is not registered in WAIVERS.md — add \
                     `- `{}` {} — <justification>` to the ledger",
                    w.tag, w.file, w.tag
                ),
            });
        }
    }

    // 4. Every registered entry must still be live.
    for (key, e) in &registered {
        if !used.contains(key) {
            out.push(Diag {
                code: info.code,
                rule: info.rule,
                file: "WAIVERS.md".into(),
                line: e.line,
                col: 1,
                message: format!(
                    "stale ledger entry — `{}` no longer contains a `{}` waiver; retire this \
                     line",
                    e.path, e.tag
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    fn run(files: &[(&str, &str)], ledger: Option<&str>) -> Vec<Diag> {
        let ws = Workspace::from_memory(files, ledger);
        let mut out = Vec::new();
        r12_waiver_ledger(&ws, &mut out);
        out
    }

    const SRC: &str =
        "fn stage(g0: &G) {\n    // lint:single-rhs-ok — scalar Born stage\n    g0.apply(x);\n}\n";

    #[test]
    fn registered_waiver_is_clean() {
        let ledger =
            "# Waivers\n\n- `crates/inverse/src/dbim.rs` lint:single-rhs-ok — scalar Born stage is genuinely single-RHS\n";
        assert!(run(&[("crates/inverse/src/dbim.rs", SRC)], Some(ledger)).is_empty());
    }

    #[test]
    fn unregistered_waiver_fires() {
        let diags = run(&[("crates/inverse/src/dbim.rs", SRC)], Some("# Waivers\n"));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("not registered"));
        assert_eq!(diags[0].file, "crates/inverse/src/dbim.rs");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn missing_ledger_counts_as_unregistered() {
        let diags = run(&[("crates/inverse/src/dbim.rs", SRC)], None);
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn stale_entry_fires_at_the_ledger_line() {
        let ledger = "- `crates/inverse/src/dbim.rs` lint:single-rhs-ok — retired code\n";
        let diags = run(
            &[("crates/inverse/src/dbim.rs", "fn f() {}\n")],
            Some(ledger),
        );
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("stale"));
        assert_eq!(diags[0].file, "WAIVERS.md");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn empty_justification_fires() {
        let ledger = "- `crates/inverse/src/dbim.rs` lint:single-rhs-ok\n";
        let diags = run(&[("crates/inverse/src/dbim.rs", SRC)], Some(ledger));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no justification"));
    }

    #[test]
    fn unknown_tag_in_code_fires() {
        let src = "// lint:unwarp-ok — typo\nfn f() {}\n";
        let diags = run(&[("crates/dist/src/a.rs", src)], None);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unknown waiver tag"));
    }

    #[test]
    fn unknown_tag_in_ledger_fires() {
        let ledger = "- `crates/dist/src/a.rs` lint:unwarp-ok — typo\n";
        let diags = run(&[("crates/dist/src/a.rs", "fn f() {}\n")], Some(ledger));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unknown waiver tag"));
    }

    #[test]
    fn doc_comments_and_strings_do_not_need_registration() {
        let src = "//! Mentions lint:unwrap-ok in docs.\nfn f() { let s = \"lint:spawn-ok\"; }\n";
        assert!(run(&[("crates/dist/src/a.rs", src)], None).is_empty());
    }

    #[test]
    fn test_code_waivers_need_no_registration() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    // lint:unwrap-ok — test only\n    fn t() {}\n}\n";
        assert!(run(&[("crates/dist/src/a.rs", src)], None).is_empty());
    }

    #[test]
    fn one_entry_covers_many_sites_in_a_file() {
        let src = "fn a(g0: &G) {\n    // lint:single-rhs-ok — one\n    g0.apply(x);\n}\nfn b(g0: &G) {\n    // lint:single-rhs-ok — two\n    g0.apply(y);\n}\n";
        let ledger =
            "- `crates/dist/src/a.rs` lint:single-rhs-ok — both call sites are warm-start probes\n";
        assert!(run(&[("crates/dist/src/a.rs", src)], Some(ledger)).is_empty());
    }

    #[test]
    fn malformed_entry_fires() {
        let ledger = "- lint:single-rhs-ok missing path backticks\n";
        let diags = run(&[], Some(ledger));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("malformed"));
    }

    #[test]
    fn known_tags_cover_the_catalog() {
        let tags = known_waiver_tags();
        assert!(tags.contains(&"lint:single-rhs-ok"));
        assert!(tags.contains(&"lint:atomic-ok"));
        assert!(tags.contains(&"lint:tag-ok"));
        assert_eq!(tags.len(), 8);
    }
}
