//! Verdict parity with the retired textual lint engine.
//!
//! Every fixture the old textual engine's unit tests asserted on for R3 and
//! R8 is replayed here through the token-level engine, with the same
//! expected verdict — the contract that the port changed implementation,
//! not meaning (plus the cases at the end where the old masking heuristics
//! were wrong and the lexer is deliberately stricter).

use ffw_analyze::{check_workspace, Workspace};

/// Runs the full engine over one in-memory file and counts one rule's
/// verdicts.
fn count(path: &str, src: &str, rule: &str) -> usize {
    check_workspace(&Workspace::from_memory(&[(path, src)]))
        .iter()
        .filter(|d| d.rule == rule)
        .count()
}

// ---- R3: guarded-atomic orderings ---------------------------------------

#[test]
fn r3_relaxed_on_guarded_atomic_fails() {
    assert_eq!(
        count(
            "f.rs",
            "self.chunks_done.fetch_add(1, Ordering::Relaxed);\n",
            "R3"
        ),
        1
    );
    assert_eq!(
        count(
            "f.rs",
            "self.dispenser.fetch_add(1, Ordering::Relaxed);\n",
            "R3"
        ),
        0
    );
}

// ---- R8: single-RHS applies on the hot path -----------------------------

#[test]
fn r8_single_rhs_apply_on_hot_path_fails() {
    let src = "g0.apply(&w, &mut g0w);\n";
    assert_eq!(count("crates/inverse/src/dbim.rs", src, "R8"), 1);
    assert_eq!(count("crates/dist/src/ft.rs", src, "R8"), 1);
    let block = "g0.apply_block(&refs, &mut ys);\ng0.try_apply_block(&refs, &mut ys)?;\n";
    assert_eq!(count("crates/inverse/src/dbim.rs", block, "R8"), 0);
    assert_eq!(count("crates/solver/src/forward.rs", src, "R8"), 0);
    assert_eq!(count("crates/inverse/tests/t.rs", src, "R8"), 0);
    let test_only =
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { g0.apply(&x, &mut y); }\n}\n";
    assert_eq!(count("crates/inverse/src/dbim.rs", test_only, "R8"), 0);
    let in_string = "panic!(\"g0.apply( failed\");\n";
    assert_eq!(count("crates/inverse/src/dbim.rs", in_string, "R8"), 0);
}

// ---- Where the old engine was wrong -------------------------------------
// These are deliberate verdict *changes*: the textual masker could be fooled
// by multi-line strings and by test modules that are not the file's tail.

#[test]
fn tokens_fix_multiline_string_false_positive() {
    // A multi-line string spanning a call used to look like code to the
    // per-line masker.
    let src = "let help = \"first line\ng0.apply(&w, &mut g0w) is wrong\nlast\";\n";
    assert_eq!(count("crates/dist/src/ft.rs", src, "R8"), 0);
}

#[test]
fn tokens_fix_tail_heuristic_false_negative() {
    // Code *after* a #[cfg(test)] module used to be exempt (the old engine
    // assumed test modules were always the file tail). It is live code.
    let src =
        "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live() { g0.apply(&w, &mut g0w); }\n";
    assert_eq!(count("crates/dist/src/engine.rs", src, "R8"), 1);
}
