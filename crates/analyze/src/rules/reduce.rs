//! R10: deterministic-reduction discipline on the hot paths.
//!
//! The PR-5 thread-invariance guarantee (bit-identical output at any
//! `FFW_THREADS`) holds because every floating-point reduction in the
//! compute crates is either chunk-ordered (`Pool::map_reduce` folds
//! partials in chunk order) or writes disjoint slots. The idiom that
//! silently breaks it is the first-come-first-served merge: workers taking
//! a lock and accumulating into a shared accumulator (`*acc.lock() += x`),
//! whose result depends on which thread arrives first — float addition is
//! not associative, so the answer changes with scheduling.
//!
//! Two token patterns are flagged in `crates/par`, `crates/mlfma` and
//! `crates/dist` non-test code:
//!
//! 1. a `.lock()` call followed in the same statement by a compound
//!    accumulation (`+=`, `-=`, `*=`) or an `add_assign` call;
//! 2. a `fetch_add`/`fetch_update` whose arguments go through `to_bits`
//!    (the float-as-bits atomic accumulator idiom).

use crate::diag::{rule_info, Diag};
use crate::rules::local::code_tokens;
use crate::workspace::Workspace;

const HOT_PATHS: [&str; 3] = ["crates/par/src/", "crates/mlfma/src/", "crates/dist/src/"];
const COMPOUND_OPS: [&str; 3] = ["+=", "-=", "*="];

/// R10 over the whole workspace.
pub fn r10_reduction_discipline(ws: &Workspace, out: &mut Vec<Diag>) {
    let info = rule_info("R10");
    for f in &ws.files {
        if !HOT_PATHS.iter().any(|p| f.rel_path.starts_with(p)) {
            continue;
        }
        let code = code_tokens(f);
        let mut i = 0;
        while i + 3 < code.len() {
            // Pattern 1: `.lock()` … (same statement) … `+=` / `add_assign`.
            if code[i].is_punct(".")
                && code[i + 1].is_ident("lock")
                && code[i + 2].is_punct("(")
                && code[i + 3].is_punct(")")
            {
                let mut j = i + 4;
                while j < code.len() {
                    let t = code[j];
                    if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                        break;
                    }
                    let compound = COMPOUND_OPS.iter().any(|op| t.is_punct(op));
                    let add_assign =
                        t.is_punct(".") && j + 1 < code.len() && code[j + 1].is_ident("add_assign");
                    if compound || add_assign {
                        let li = (t.line as usize) - 1;
                        if !f.is_test_line(li) {
                            out.push(Diag {
                                code: info.code,
                                rule: info.rule,
                                file: f.rel_path.clone(),
                                line: t.line,
                                col: t.col,
                                message: "accumulation into a lock-guarded shared accumulator — \
                                          merge order depends on thread scheduling, breaking the \
                                          thread-invariance guarantee; use `Pool::map_reduce` \
                                          (chunk-ordered fold) or disjoint slots"
                                    .into(),
                            });
                        }
                        break;
                    }
                    j += 1;
                }
            }
            // Pattern 2: `fetch_add(…to_bits…)` — float accumulation through
            // an integer atomic.
            if code[i].is_punct(".")
                && (code[i + 1].is_ident("fetch_add") || code[i + 1].is_ident("fetch_update"))
                && code[i + 2].is_punct("(")
            {
                let mut depth = 0usize;
                let mut j = i + 2;
                while j < code.len() {
                    if code[j].is_punct("(") {
                        depth += 1;
                    } else if code[j].is_punct(")") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if code[j].is_ident("to_bits") {
                        let t = code[i + 1];
                        let li = (t.line as usize) - 1;
                        if !f.is_test_line(li) {
                            out.push(Diag {
                                code: info.code,
                                rule: info.rule,
                                file: f.rel_path.clone(),
                                line: t.line,
                                col: t.col,
                                message: "float accumulation through an integer atomic \
                                          (`to_bits` inside `fetch_add`) — accumulation order \
                                          depends on thread scheduling; use a chunk-ordered \
                                          reduction"
                                    .into(),
                            });
                        }
                        break;
                    }
                    j += 1;
                }
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    fn run(path: &str, src: &str) -> Vec<Diag> {
        let ws = Workspace::from_memory(&[(path, src)]);
        let mut out = Vec::new();
        r10_reduction_discipline(&ws, &mut out);
        out
    }

    #[test]
    fn lock_then_compound_assign_fires() {
        let src = "fn merge(acc: &Mutex<f64>, x: f64) { *acc.lock() += x; }\n";
        let diags = run("crates/mlfma/src/engine.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("thread-invariance"));
    }

    #[test]
    fn lock_without_accumulation_is_fine() {
        let src = "fn set(slot: &Mutex<Option<f64>>, x: f64) { *slot.lock() = Some(x); }\n";
        assert!(run("crates/par/src/lib.rs", src).is_empty());
    }

    #[test]
    fn accumulation_without_lock_is_fine() {
        let src = "fn f(acc: &mut f64, x: f64) { *acc += x; }\n";
        assert!(run("crates/mlfma/src/engine.rs", src).is_empty());
    }

    #[test]
    fn statement_boundary_ends_the_window() {
        let src =
            "fn f(m: &Mutex<V>) { let g = m.lock(); drop(g); }\nfn g(a: &mut f64) { *a += 1.0; }\n";
        assert!(run("crates/dist/src/engine.rs", src).is_empty());
    }

    #[test]
    fn float_bits_fetch_add_fires() {
        let src =
            "fn acc(a: &AtomicU64, v: f64) { a.fetch_add(v.to_bits(), Ordering::Relaxed); }\n";
        assert_eq!(run("crates/mlfma/src/engine.rs", src).len(), 1);
    }

    #[test]
    fn out_of_scope_crate_is_ignored() {
        let src = "fn merge(acc: &Mutex<f64>, x: f64) { *acc.lock() += x; }\n";
        assert!(run("crates/obs/src/metrics.rs", src).is_empty());
    }
}
