//! R1–R6 and R8: the original line-oriented lint rules, re-implemented on
//! the token stream. Verdicts are identical on all the old engine's fixtures; the
//! difference is that string interiors, char literals and nested block
//! comments can no longer produce false positives (or mask true
//! positives), and `#[cfg(test)]` exemption is brace-matched instead of
//! assuming the test module is the file's tail.

use crate::diag::{rule_info, Diag};
use crate::lexer::Tok;
use crate::workspace::{SourceFile, Workspace};

/// Atomics implementing the completion/panic protocol (R3).
const GUARDED_ATOMICS: [&str; 2] = ["chunks_done", "panicked"];

/// Receiver names the workspace uses for the MLFMA operator (R8).
const SINGLE_RHS_RECEIVERS: [&str; 3] = ["g0", "engine", "eng"];

fn diag(rule: &'static str, f: &SourceFile, line: u32, col: u32, message: String) -> Diag {
    let info = rule_info(rule);
    Diag {
        code: info.code,
        rule: info.rule,
        file: f.rel_path.clone(),
        line,
        col,
        message,
    }
}

/// Non-comment tokens of a file.
pub(crate) fn code_tokens(f: &SourceFile) -> Vec<&Tok> {
    f.tokens.iter().filter(|t| !t.is_comment()).collect()
}

/// R1: every line introducing `unsafe` is covered by a SAFETY comment —
/// in the contiguous comment/attribute block above, or within the three
/// preceding lines for mid-function blocks with intervening setup code.
pub fn r1_safety_comments(f: &SourceFile, out: &mut Vec<Diag>) {
    let mut seen_lines = Vec::new();
    for t in &f.tokens {
        if t.is_ident("unsafe") {
            let li = (t.line as usize) - 1;
            if seen_lines.last() != Some(&li) {
                seen_lines.push(li);
            }
        }
    }
    for li in seen_lines {
        let mut covered = false;
        let mut j = li;
        while j > 0 && f.index.is_comment_or_attr(j - 1) {
            j -= 1;
            if f.index.comments[j].contains("SAFETY") {
                covered = true;
                break;
            }
        }
        if !covered {
            covered = (li.saturating_sub(3)..li).any(|k| f.index.comments[k].contains("SAFETY"));
        }
        if !covered {
            out.push(diag(
                "R1",
                f,
                li as u32 + 1,
                1,
                "`unsafe` without a `// SAFETY:` comment above it".into(),
            ));
        }
    }
}

/// R2: any crate containing `unsafe` must carry
/// `#![deny(unsafe_op_in_unsafe_fn)]` on its root. Unlike the old
/// single-file check, this aggregates over the whole crate, so `unsafe` in
/// a non-root module also triggers the requirement.
pub fn r2_unsafe_fn_attr(ws: &Workspace, out: &mut Vec<Diag>) {
    use std::collections::BTreeMap;
    // crate key = first two path segments (`crates/par`), or the first
    // one elsewhere (the root package's `src`).
    let crate_key = |path: &str| -> String {
        let segs: Vec<&str> = path.split('/').collect();
        if segs.len() >= 3 && (segs[0] == "crates" || segs[0] == "third_party") {
            format!("{}/{}", segs[0], segs[1])
        } else {
            segs[0].to_string()
        }
    };
    let mut unsafe_site: BTreeMap<String, (&SourceFile, u32)> = BTreeMap::new();
    let mut root_ok: BTreeMap<String, bool> = BTreeMap::new();
    for f in &ws.files {
        let key = crate_key(&f.rel_path);
        if let Some(t) = f.tokens.iter().find(|t| t.is_ident("unsafe")) {
            unsafe_site.entry(key.clone()).or_insert((f, t.line));
        }
        let is_root = f.rel_path.ends_with("src/lib.rs") || f.rel_path.ends_with("src/main.rs");
        if is_root {
            let has_attr = has_deny_attr(&f.tokens);
            let e = root_ok.entry(key).or_insert(false);
            *e = *e || has_attr;
        }
    }
    for (key, (f, line)) in unsafe_site {
        if !root_ok.get(&key).copied().unwrap_or(false) {
            out.push(diag(
                "R2",
                f,
                line,
                1,
                format!(
                    "crate `{key}` contains `unsafe` but its root is missing \
                     #![deny(unsafe_op_in_unsafe_fn)]"
                ),
            ));
        }
    }
}

fn has_deny_attr(tokens: &[Tok]) -> bool {
    let code: Vec<&Tok> = tokens.iter().filter(|t| !t.is_comment()).collect();
    code.windows(8).any(|w| {
        w[0].is_punct("#")
            && w[1].is_punct("!")
            && w[2].is_punct("[")
            && w[3].is_ident("deny")
            && w[4].is_punct("(")
            && w[5].is_ident("unsafe_op_in_unsafe_fn")
            && w[6].is_punct(")")
            && w[7].is_punct("]")
    })
}

/// R3: no `Ordering::Relaxed` on the completion/panic-flag atomics.
pub fn r3_relaxed_orderings(f: &SourceFile, out: &mut Vec<Diag>) {
    let mut lines_with_relaxed = std::collections::BTreeSet::new();
    for t in &f.tokens {
        if t.is_ident("Relaxed") {
            lines_with_relaxed.insert((t.line as usize) - 1);
        }
    }
    for li in lines_with_relaxed {
        let guarded = f
            .tokens
            .iter()
            .any(|t| (t.line as usize) - 1 == li && GUARDED_ATOMICS.iter().any(|a| t.is_ident(a)));
        if guarded && !f.index.waived(li, "lint:relaxed-ok") {
            out.push(diag(
                "R3",
                f,
                li as u32 + 1,
                1,
                "Ordering::Relaxed on a completion/panic-flag atomic (needs acquire/release; \
                 waive with `// lint:relaxed-ok` if justified)"
                    .into(),
            ));
        }
    }
}

/// R4: `thread::spawn` only inside the substrate crates.
pub fn r4_thread_spawn(f: &SourceFile, out: &mut Vec<Diag>) {
    if f.member_dir != "crates"
        || f.rel_path.starts_with("crates/par/")
        || f.rel_path.starts_with("crates/mpi/")
        || f.is_test_file
    {
        return;
    }
    let code = code_tokens(f);
    for w in code.windows(3) {
        if w[0].is_ident("thread") && w[1].is_punct("::") && w[2].is_ident("spawn") {
            let li = (w[0].line as usize) - 1;
            if !f.is_test_line(li) && !f.index.waived(li, "lint:spawn-ok") {
                out.push(diag(
                    "R4",
                    f,
                    w[0].line,
                    w[0].col,
                    "direct thread::spawn outside ffw-par/ffw-mpi — route concurrency through \
                     the substrate crates so the checkers see it; waive with `// lint:spawn-ok`"
                        .into(),
                ));
            }
        }
    }
}

/// R5: no `.unwrap()` in the fault-tolerant crates' non-test code.
pub fn r5_unwrap_on_fault_path(f: &SourceFile, out: &mut Vec<Diag>) {
    if !(f.rel_path.starts_with("crates/dist/src/") || f.rel_path.starts_with("crates/mpi/src/")) {
        return;
    }
    let code = code_tokens(f);
    for w in code.windows(3) {
        if w[0].is_punct(".") && w[1].is_ident("unwrap") && w[2].is_punct("(") {
            let li = (w[1].line as usize) - 1;
            if !f.is_test_line(li) && !f.index.waived(li, "lint:unwrap-ok") {
                out.push(diag(
                    "R5",
                    f,
                    w[1].line,
                    w[1].col,
                    "`.unwrap()` on the fault-tolerant path — propagate a typed FaultError (`?`) \
                     or make the panic explicit with `unwrap_or_else`/`expect`; waive with \
                     `// lint:unwrap-ok`"
                        .into(),
                ));
            }
        }
    }
}

/// R6: `std::time::Instant` only inside `crates/obs/`.
pub fn r6_instant_outside_obs(f: &SourceFile, out: &mut Vec<Diag>) {
    if f.member_dir != "crates" || f.rel_path.starts_with("crates/obs/") || f.is_test_file {
        return;
    }
    for t in &f.tokens {
        if t.is_ident("Instant") {
            let li = (t.line as usize) - 1;
            if !f.is_test_line(li) && !f.index.waived(li, "lint:instant-ok") {
                out.push(diag(
                    "R6",
                    f,
                    t.line,
                    t.col,
                    "`std::time::Instant` outside ffw-obs — use `ffw_obs::Stopwatch`/\
                     `monotonic_ns` so timing goes through the observability layer; waive with \
                     `// lint:instant-ok`"
                        .into(),
                ));
            }
        }
    }
}

/// R8: no single-RHS Green's operator applies on the inversion hot path.
pub fn r8_single_rhs_apply(f: &SourceFile, out: &mut Vec<Diag>) {
    if !(f.rel_path.starts_with("crates/inverse/src/")
        || f.rel_path.starts_with("crates/dist/src/"))
    {
        return;
    }
    let code = code_tokens(f);
    for w in code.windows(4) {
        let recv_ok = SINGLE_RHS_RECEIVERS.iter().any(|r| w[0].is_ident(r));
        if recv_ok && w[1].is_punct(".") && w[2].is_ident("apply") && w[3].is_punct("(") {
            let li = (w[2].line as usize) - 1;
            if !f.is_test_line(li) && !f.index.waived(li, "lint:single-rhs-ok") {
                out.push(diag(
                    "R8",
                    f,
                    w[2].line,
                    w[2].col,
                    "single-RHS Green's operator apply on the inversion hot path — batch through \
                     `apply_block`/`try_apply_block` (or the block solvers) so traversals and \
                     messages are fused; waive a scalar building block with \
                     `// lint:single-rhs-ok`"
                        .into(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(path: &str, src: &str, rule: fn(&SourceFile, &mut Vec<Diag>)) -> Vec<Diag> {
        let f = SourceFile::new(path, src);
        let mut out = Vec::new();
        rule(&f, &mut out);
        out
    }

    #[test]
    fn r1_string_containing_unsafe_is_ignored() {
        // The textual engine's masking heuristic would also pass this, but
        // only the lexer survives a multi-line string.
        let src = "let s = \"multi\nunsafe in a string\nline\";\n";
        assert!(run_one("f.rs", src, r1_safety_comments).is_empty());
    }

    #[test]
    fn r1_one_diag_per_line_even_with_two_unsafe_tokens() {
        let src = "fn f() { unsafe { g() }; unsafe { h() } }\n";
        assert_eq!(run_one("f.rs", src, r1_safety_comments).len(), 1);
    }

    #[test]
    fn r3_relaxed_in_raw_string_is_ignored() {
        let src = "let doc = r\"chunks_done uses Ordering::Relaxed\";\n";
        assert!(run_one("f.rs", src, r3_relaxed_orderings).is_empty());
    }

    #[test]
    fn r4_spawn_after_test_module_is_caught() {
        // The old tail-of-file heuristic would have exempted this.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live() { std::thread::spawn(|| {}); }\n";
        let diags = run_one("crates/dist/src/x.rs", src, r4_thread_spawn);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn r8_multiline_call_is_caught() {
        let src = "g0\n    .apply(&w, &mut g0w);\n";
        let diags = run_one("crates/dist/src/x.rs", src, r8_single_rhs_apply);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
    }
}
