//! R3 and R8: the per-file rules, on the token stream. String interiors,
//! char literals and nested block comments can never produce a false
//! positive (or mask a true one), and the `#[cfg(test)]` exemption is
//! brace-matched instead of assuming the test module is the file's tail.

use crate::diag::{rule_info, Diag};
use crate::lexer::Tok;
use crate::workspace::SourceFile;

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
        if guarded {
            out.push(diag(
                "R3",
                f,
                li as u32 + 1,
                1,
                "Ordering::Relaxed on a completion/panic-flag atomic (needs acquire/release)"
                    .into(),
            ));
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
            if !f.is_test_line(li) {
                out.push(diag(
                    "R8",
                    f,
                    w[2].line,
                    w[2].col,
                    "single-RHS Green's operator apply on the inversion hot path — batch through \
                     `apply_block`/`try_apply_block` (or the block solvers) so traversals and \
                     messages are fused"
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
    fn r3_relaxed_in_raw_string_is_ignored() {
        let src = "let doc = r\"chunks_done uses Ordering::Relaxed\";\n";
        assert!(run_one("f.rs", src, r3_relaxed_orderings).is_empty());
    }

    #[test]
    fn r8_multiline_call_is_caught() {
        let src = "g0\n    .apply(&w, &mut g0w);\n";
        let diags = run_one("crates/dist/src/x.rs", src, r8_single_rhs_apply);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
    }
}
