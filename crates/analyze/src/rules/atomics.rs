//! R9: cross-file atomic-ordering pairing.
//!
//! A `store(_, Release)` (or `SeqCst`) on a named atomic flag publishes
//! state; if no corresponding `load(Acquire)`-class read of the *same name*
//! exists anywhere in the workspace, the release fence is advertising a
//! protocol nobody consumes — which nearly always means the consumer reads
//! the flag `Relaxed` and the happens-before edge the store was written for
//! does not exist (exactly the class of bug that silently breaks the
//! bit-identical-resume and thread-invariance guarantees).
//!
//! Keying is by field/static *name* (`panicked`, `ENABLED`), matching the
//! workspace convention that a protocol flag has one name everywhere. The
//! pairing side accepts `load`, `swap`, `compare_exchange[_weak]`,
//! `fetch_*` with Acquire/AcqRel/SeqCst ordering, in non-test code of any
//! member crate.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{rule_info, Diag};
use crate::lexer::Tok;
use crate::rules::local::code_tokens;
use crate::workspace::Workspace;

const ORDERINGS: [&str; 5] = ["Relaxed", "Release", "Acquire", "AcqRel", "SeqCst"];

/// Read-modify-write methods that can carry acquire semantics.
const RMW_METHODS: [&str; 10] = [
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "fetch_max",
];

struct StoreSite {
    file: String,
    line: u32,
    col: u32,
    ordering: String,
}

/// Extracts the flag name behind a `.method(` call at `code[dot]` (the
/// index of the `.`): the identifier before the dot, skipping one level of
/// `[index]` subscripts (`suspects[rank].store` → `suspects`).
fn receiver_name(code: &[&Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let mut i = dot - 1;
    if code[i].is_punct("]") {
        let mut depth = 0usize;
        loop {
            if code[i].is_punct("]") {
                depth += 1;
            } else if code[i].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
    if matches!(code[i].kind, crate::lexer::TokKind::Ident) {
        Some(code[i].text.clone())
    } else {
        None
    }
}

/// Collects the ordering identifiers inside the call whose `(` is at
/// `code[open]`, up to the matching `)`. Returns the last one (atomic APIs
/// put the ordering last; `compare_exchange` returns the success ordering
/// plus failure ordering — both are collected).
fn call_orderings(code: &[&Tok], open: usize) -> Vec<String> {
    let mut depth = 0usize;
    let mut found = Vec::new();
    for t in &code[open..] {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if ORDERINGS.iter().any(|o| t.is_ident(o)) {
            found.push(t.text.clone());
        }
    }
    found
}

/// R9 over the whole workspace.
pub fn r9_atomic_pairing(ws: &Workspace, out: &mut Vec<Diag>) {
    let info = rule_info("R9");
    let mut release_stores: BTreeMap<String, Vec<StoreSite>> = BTreeMap::new();
    let mut acquire_reads: BTreeSet<String> = BTreeSet::new();

    for f in &ws.files {
        if f.member_dir != "crates" {
            continue;
        }
        let code = code_tokens(f);
        for i in 0..code.len() {
            if !code[i].is_punct(".") || i + 2 >= code.len() || !code[i + 2].is_punct("(") {
                continue;
            }
            let m = &code[i + 1];
            let li = (m.line as usize) - 1;
            if f.is_test_line(li) {
                continue;
            }
            let Some(name) = receiver_name(&code, i) else {
                continue;
            };
            let ords = call_orderings(&code, i + 2);
            if m.is_ident("store") {
                if ords.iter().any(|o| o == "Release" || o == "SeqCst") {
                    release_stores.entry(name).or_default().push(StoreSite {
                        file: f.rel_path.clone(),
                        line: m.line,
                        col: m.col,
                        ordering: ords.last().cloned().unwrap_or_default(),
                    });
                }
            } else if m.is_ident("load") {
                if ords.iter().any(|o| o == "Acquire" || o == "SeqCst") {
                    acquire_reads.insert(name);
                }
            } else if RMW_METHODS.iter().any(|r| m.is_ident(r))
                && ords
                    .iter()
                    .any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst")
            {
                acquire_reads.insert(name);
            }
        }
    }

    for (name, sites) in release_stores {
        if acquire_reads.contains(&name) {
            continue;
        }
        for s in sites {
            out.push(Diag {
                code: info.code,
                rule: info.rule,
                file: s.file.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "`{name}.store(_, Ordering::{})` has no matching acquire-class load of \
                     `{name}` anywhere in the workspace — the release fence publishes nothing; \
                     pair it with `load(Acquire)`/`SeqCst` (or an acquire RMW)",
                    s.ordering
                ),
            });
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
        r9_atomic_pairing(&ws, &mut out);
        out
    }

    #[test]
    fn unpaired_release_store_fires_cross_file() {
        let a = "fn pub_side(f: &std::sync::atomic::AtomicBool) { f.flag.store(true, Ordering::Release); }\n";
        let b = "fn consumer(f: &F) { let _ = f.flag.load(Ordering::Relaxed); }\n";
        let diags = run(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("flag"));
    }

    #[test]
    fn acquire_load_in_another_file_pairs() {
        let a = "fn p(s: &S) { s.flag.store(true, Ordering::Release); }\n";
        let b = "fn c(s: &S) { while !s.flag.load(Ordering::Acquire) {} }\n";
        assert!(run(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]).is_empty());
    }

    #[test]
    fn seqcst_pairs_both_sides_and_subscripts_are_skipped() {
        let a = "fn p(s: &S, r: usize) { s.beats[r].store(1, Ordering::SeqCst); }\n";
        let b = "fn c(s: &S, r: usize) { let _ = s.beats[r].load(Ordering::SeqCst); }\n";
        assert!(run(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]).is_empty());
    }

    #[test]
    fn acquire_rmw_pairs() {
        let a = "fn p(s: &S) { s.done.store(true, Ordering::Release); }\n";
        let b = "fn c(s: &S) { let _ = s.done.swap(false, Ordering::AcqRel); }\n";
        assert!(run(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]).is_empty());
    }

    #[test]
    fn relaxed_store_needs_no_pairing() {
        let a = "fn p(s: &S) { s.counter.store(0, Ordering::Relaxed); }\n";
        assert!(run(&[("crates/a/src/lib.rs", a)]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let a = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t(s: &S) { s.flag.store(true, Ordering::Release); }\n}\n";
        assert!(run(&[("crates/a/src/lib.rs", a)]).is_empty());
    }
}
