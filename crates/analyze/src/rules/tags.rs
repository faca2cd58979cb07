//! R11: static message-tag protocol extraction.
//!
//! The trace validator proves at *runtime* that no message leaks — but only
//! on the schedules a test happens to run. R11 is the compile-time
//! complement: it collects every `send_checked*`/`recv_checked*` call's tag
//! expression across the workspace `src` trees and checks the protocol
//! shape statically:
//!
//! * every tag (keyed by the `TAG_*` constant it references, or its literal
//!   value) must have at least one send site **and** one receive site —
//!   a tag with only one side is a protocol hole that deadlocks or leaks;
//! * two different `TAG_*` constants must not share a value (a silent
//!   cross-protocol collision the mailbox cannot detect).
//!
//! The tag is the second argument of every checked call. Channel
//! endpoints (`send(v)` / `recv()`) are not mailbox calls and never match.
//! Calls whose tag expression is symbolic (a plain parameter like `tag`)
//! are generic forwarders and are skipped.

use std::collections::BTreeMap;

use crate::diag::{rule_info, Diag};
use crate::lexer::{Tok, TokKind};
use crate::rules::local::code_tokens;
use crate::workspace::{SourceFile, Workspace};

const SEND_METHODS: [&str; 2] = ["send_checked", "send_checked_laned"];
const RECV_METHODS: [&str; 2] = ["recv_checked", "recv_checked_laned"];

struct CallSite {
    file: String,
    line: u32,
    col: u32,
}

#[derive(Default)]
struct TagUse {
    sends: Vec<CallSite>,
    recvs: Vec<CallSite>,
}

struct ConstDecl {
    value: u64,
    file: String,
    line: u32,
    col: u32,
}

/// Splits the argument tokens of the call whose `(` is at `code[open]`
/// into top-level comma-separated slices. Returns `None` when the call is
/// unterminated.
fn call_args<'t>(code: &[&'t Tok], open: usize) -> Option<Vec<Vec<&'t Tok>>> {
    let mut depth = 0usize;
    let mut args: Vec<Vec<&Tok>> = vec![Vec::new()];
    for t in &code[open..] {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
            if depth == 1 {
                continue;
            }
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            if depth == 0 {
                return None;
            }
            depth -= 1;
            if depth == 0 {
                if args.last().is_some_and(Vec::is_empty) {
                    args.pop();
                }
                return Some(args);
            }
        } else if depth == 1 && t.is_punct(",") {
            args.push(Vec::new());
            continue;
        }
        if depth >= 1 {
            args.last_mut().expect("non-empty").push(t);
        }
    }
    None
}

/// Canonical key of a tag expression: the `TAG_*` constant it references,
/// or `literal:N` for a bare integer, or `None` for symbolic expressions.
fn tag_key(expr: &[&Tok]) -> Option<String> {
    for t in expr {
        if t.kind == TokKind::Ident && t.text.starts_with("TAG_") {
            return Some(t.text.clone());
        }
    }
    if expr.len() == 1 {
        if let TokKind::Int(Some(v)) = expr[0].kind {
            return Some(format!("literal:{v}"));
        }
    }
    None
}

/// Extracts `const NAME: … = <int>;` declarations from a file.
fn const_decls(f: &SourceFile) -> Vec<(String, ConstDecl)> {
    let code = code_tokens(f);
    let mut out = Vec::new();
    for i in 0..code.len() {
        if !code[i].is_ident("const") || i + 2 >= code.len() {
            continue;
        }
        let name_tok = code[i + 1];
        if name_tok.kind != TokKind::Ident || !code[i + 2].is_punct(":") {
            continue;
        }
        // Scan to the `=`, then require an integer literal and `;`.
        let mut j = i + 3;
        while j < code.len() && !code[j].is_punct("=") && !code[j].is_punct(";") {
            j += 1;
        }
        if j + 2 < code.len() && code[j].is_punct("=") && code[j + 2].is_punct(";") {
            if let TokKind::Int(Some(v)) = code[j + 1].kind {
                out.push((
                    name_tok.text.clone(),
                    ConstDecl {
                        value: v,
                        file: f.rel_path.clone(),
                        line: name_tok.line,
                        col: name_tok.col,
                    },
                ));
            }
        }
    }
    out
}

/// R11 over the whole workspace.
pub fn r11_tag_protocol(ws: &Workspace, out: &mut Vec<Diag>) {
    let info = rule_info("R11");
    let mut uses: BTreeMap<String, TagUse> = BTreeMap::new();
    let mut tag_consts: BTreeMap<String, ConstDecl> = BTreeMap::new();

    for f in &ws.files {
        if f.member_dir != "crates" || !f.in_src() {
            continue;
        }
        // Tag constant declarations (collisions).
        for (name, decl) in const_decls(f) {
            if !name.starts_with("TAG_") {
                continue;
            }
            if let Some(prev) = tag_consts.get(&name) {
                // Same name re-declared (e.g. in a sibling module) with the
                // same value is the same protocol; different values drift.
                if prev.value != decl.value {
                    out.push(Diag {
                        code: info.code,
                        rule: info.rule,
                        file: decl.file.clone(),
                        line: decl.line,
                        col: decl.col,
                        message: format!(
                            "tag constant `{name}` re-declared with value {:#x}, but {} \
                             declares it as {:#x} — the two protocols have drifted",
                            decl.value, prev.file, prev.value
                        ),
                    });
                }
            } else {
                for (other, od) in &tag_consts {
                    if od.value == decl.value {
                        out.push(Diag {
                            code: info.code,
                            rule: info.rule,
                            file: decl.file.clone(),
                            line: decl.line,
                            col: decl.col,
                            message: format!(
                                "tag constant `{name}` = {:#x} collides with `{other}` \
                                 ({}) — distinct protocols must use distinct tag values",
                                decl.value, od.file
                            ),
                        });
                    }
                }
                tag_consts.insert(name, decl);
            }
        }
        // Call sites.
        let code = code_tokens(f);
        for i in 0..code.len() {
            if !code[i].is_punct(".") || i + 2 >= code.len() || !code[i + 2].is_punct("(") {
                continue;
            }
            let m = &code[i + 1];
            let is_send = SEND_METHODS.iter().any(|s| m.is_ident(s));
            let is_recv = RECV_METHODS.iter().any(|s| m.is_ident(s));
            if !is_send && !is_recv {
                continue;
            }
            let li = (m.line as usize) - 1;
            if f.is_test_line(li) {
                continue;
            }
            let Some(key) =
                call_args(&code, i + 2).and_then(|args| args.get(1).and_then(|tag| tag_key(tag)))
            else {
                continue;
            };
            let site = CallSite {
                file: f.rel_path.clone(),
                line: m.line,
                col: m.col,
            };
            let entry = uses.entry(key).or_default();
            if is_send {
                entry.sends.push(site);
            } else {
                entry.recvs.push(site);
            }
        }
    }

    // Pairing: every tag needs both a sender and a receiver.
    for (key, u) in uses {
        let pretty = key
            .strip_prefix("literal:")
            .map_or(key.clone(), |v| format!("tag {v}"));
        if u.sends.is_empty() {
            for s in &u.recvs {
                out.push(Diag {
                    code: info.code,
                    rule: info.rule,
                    file: s.file.clone(),
                    line: s.line,
                    col: s.col,
                    message: format!(
                        "`{pretty}` is received here but never sent anywhere in the \
                         workspace — a receive with no sender deadlocks; add the send side"
                    ),
                });
            }
        } else if u.recvs.is_empty() {
            for s in &u.sends {
                out.push(Diag {
                    code: info.code,
                    rule: info.rule,
                    file: s.file.clone(),
                    line: s.line,
                    col: s.col,
                    message: format!(
                        "`{pretty}` is sent here but never received anywhere in the \
                         workspace — an unreceived send is a guaranteed message leak; add \
                         the receive side"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    fn run(files: &[(&str, &str)]) -> Vec<Diag> {
        let ws = Workspace::from_memory(files);
        let mut out = Vec::new();
        r11_tag_protocol(&ws, &mut out);
        out
    }

    #[test]
    fn paired_tag_across_files_is_clean() {
        let a = "const TAG_HALO: u32 = 0x100;\nfn s(c: &C) { c.send_checked(1, TAG_HALO, p)?; }\n";
        let b = "fn r(c: &C) { let m = c.recv_checked(0, TAG_HALO)?; }\n";
        assert!(run(&[("crates/d/src/a.rs", a), ("crates/d/src/b.rs", b)]).is_empty());
    }

    #[test]
    fn send_without_recv_fires() {
        let a = "const TAG_X: u32 = 0x7;\nfn s(c: &C) { c.send_checked(1, TAG_X, p)?; }\n";
        let diags = run(&[("crates/d/src/a.rs", a)]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("never received"));
    }

    #[test]
    fn recv_without_send_fires() {
        let a = "fn r(c: &C) { let m = c.recv_checked(0, TAG_GHOST)?; }\n";
        let diags = run(&[("crates/d/src/a.rs", a)]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("never sent"));
    }

    #[test]
    fn value_collision_between_distinct_names_fires() {
        let a = "const TAG_A: u32 = 0x100;\nconst TAG_B: u32 = 0x100;\nfn s(c: &C) { c.send_checked(1, TAG_A, p)?; c.send_checked(1, TAG_B, q)?; }\nfn r(c: &C) { c.recv_checked(0, TAG_A)?; c.recv_checked(0, TAG_B)?; }\n";
        let diags = run(&[("crates/d/src/a.rs", a)]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("collides"));
    }

    #[test]
    fn channel_endpoints_are_excluded() {
        let a = "fn f(tx: &Sender<J>, rx: &Receiver<J>) { tx.send(job); let j = rx.recv(); let t = rx.try_recv(); }\n";
        assert!(run(&[("crates/par/src/a.rs", a)]).is_empty());
    }

    #[test]
    fn symbolic_forwarders_are_skipped() {
        let a = "fn fwd(c: &C, tag: u32) { c.send_checked(1, tag, p)?; }\n";
        assert!(run(&[("crates/mpi/src/a.rs", a)]).is_empty());
    }

    #[test]
    fn derived_tag_expressions_key_on_the_constant() {
        let a = "const TAG_LVL: u32 = 0x110;\nfn s(c: &C, li: usize) { c.send_checked(1, TAG_LVL + li as u32, p)?; }\nfn r(c: &C, li: usize) { c.recv_checked(0, TAG_LVL + li as u32)?; }\n";
        assert!(run(&[("crates/d/src/a.rs", a)]).is_empty());
    }

    #[test]
    fn literal_tags_pair() {
        let ok = "fn f(c: &C) { c.send_checked(1, 7, p)?; c.recv_checked(0, 7)?; }\n";
        assert!(run(&[("crates/m/src/a.rs", ok)]).is_empty());
        let one_sided = "fn f(c: &C) { c.send_checked(1, 9, p)?; }\n";
        let diags = run(&[("crates/m/src/a.rs", one_sided)]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`tag 9` is sent here"));
    }

    #[test]
    fn examples_and_tests_are_out_of_scope() {
        let a = "fn demo(c: &C) { let m = c.recv_checked(0, 7)?; }\n";
        assert!(run(&[("crates/mpi/examples/demo.rs", a)]).is_empty());
        assert!(run(&[("crates/mpi/tests/t.rs", a)]).is_empty());
    }
}
