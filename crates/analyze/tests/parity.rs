//! Verdict parity with the retired textual lint engine.
//!
//! Every fixture the old `xtask` unit tests asserted on is replayed here
//! through the token-level engine, with the same expected verdict. R1–R8
//! changed implementation, not meaning — this file is the contract that the
//! port is behavior-preserving (plus a few cases at the end where the old
//! masking heuristics were wrong and the lexer is deliberately stricter).

use ffw_analyze::{check_workspace, Diag, Workspace};

/// Runs the full engine over in-memory files and keeps one rule's verdicts.
fn diags_for(files: &[(&str, &str)], ledger: Option<&str>, rule: &str) -> Vec<Diag> {
    let ws = Workspace::from_memory(files, ledger);
    check_workspace(&ws)
        .into_iter()
        .filter(|d| d.rule == rule)
        .collect()
}

fn count(path: &str, src: &str, rule: &str) -> usize {
    diags_for(&[(path, src)], None, rule).len()
}

// ---- R1: SAFETY comments ------------------------------------------------

#[test]
fn r1_safety_comment_directly_above_passes() {
    assert_eq!(
        count(
            "f.rs",
            "// SAFETY: justified\nunsafe impl Send for X {}\n",
            "R1"
        ),
        0
    );
}

#[test]
fn r1_safety_comment_through_doc_block_passes() {
    let src = "/// Does things.\n///\n/// SAFETY contract: caller ensures X.\nunsafe fn f() {}\n";
    assert_eq!(count("f.rs", src, "R1"), 0);
}

#[test]
fn r1_missing_safety_comment_fails() {
    let src = "fn f() {\n    let x = unsafe { *p };\n}\n";
    let diags = diags_for(&[("f.rs", src)], None, "R1");
    assert_eq!(diags.len(), 1);
    assert_eq!((diags[0].file.as_str(), diags[0].line), ("f.rs", 2));
}

#[test]
fn r1_nearby_safety_with_intervening_code_passes() {
    let src = "// SAFETY: chunks are disjoint\nlet ptr = base.add(off);\nlet s = unsafe { from_raw_parts_mut(ptr, n) };\n";
    assert_eq!(count("f.rs", src, "R1"), 0);
}

// ---- R2: deny(unsafe_op_in_unsafe_fn) -----------------------------------

#[test]
fn r2_unsafe_crate_without_deny_attr_fails() {
    assert_eq!(count("crates/x/src/lib.rs", "unsafe fn f() {}\n", "R2"), 1);
    let fixed = "#![deny(unsafe_op_in_unsafe_fn)]\nunsafe fn f() {}\n";
    assert_eq!(count("crates/x/src/lib.rs", fixed, "R2"), 0);
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
    let waived =
        "// lint:relaxed-ok — diagnostic counter only\nself.panicked.load(Ordering::Relaxed);\n";
    assert_eq!(count("f.rs", waived, "R3"), 0);
}

// ---- R4: thread::spawn confinement --------------------------------------

#[test]
fn r4_spawn_outside_substrate_fails() {
    let src = "std::thread::spawn(|| {});\n";
    assert_eq!(count("crates/dist/src/engine.rs", src, "R4"), 1);
    assert_eq!(count("crates/par/src/lib.rs", src, "R4"), 0);
    assert_eq!(count("crates/dist/tests/t.rs", src, "R4"), 0);
    let test_only =
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { std::thread::spawn(|| {}); }\n}\n";
    assert_eq!(count("crates/dist/src/engine.rs", test_only, "R4"), 0);
}

// ---- R5: unwrap on the fault path ---------------------------------------

#[test]
fn r5_unwrap_on_fault_path_fails() {
    let src = "let v = rx.recv().unwrap();\n";
    assert_eq!(count("crates/dist/src/solver.rs", src, "R5"), 1);
    assert_eq!(count("crates/mpi/src/lib.rs", src, "R5"), 1);
    assert_eq!(count("crates/solver/src/krylov.rs", src, "R5"), 0);
    assert_eq!(count("crates/dist/tests/t.rs", src, "R5"), 0);
    let explicit = "let v = rx.recv().unwrap_or_else(|e| panic!(\"bug: {e}\"));\n";
    assert_eq!(count("crates/dist/src/solver.rs", explicit, "R5"), 0);
    let waived = "let v = rx.recv().unwrap(); // lint:unwrap-ok — startup only\n";
    assert_eq!(count("crates/dist/src/solver.rs", waived, "R5"), 0);
    let test_only = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
    assert_eq!(count("crates/dist/src/solver.rs", test_only, "R5"), 0);
}

// ---- R6: Instant outside ffw-obs ----------------------------------------

#[test]
fn r6_instant_outside_obs_fails() {
    let src = "use std::time::Instant;\nlet t0 = Instant::now();\n";
    assert_eq!(count("crates/bench/src/bin/fig13.rs", src, "R6"), 2);
    assert_eq!(count("crates/obs/src/clock.rs", src, "R6"), 0);
    assert_eq!(count("crates/solver/tests/t.rs", src, "R6"), 0);
    let waived = "use std::time::Instant; // lint:instant-ok — calibration\n";
    assert_eq!(count("crates/perf/src/lib.rs", waived, "R6"), 0);
    let test_only =
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { let _ = Instant::now(); }\n}\n";
    assert_eq!(count("crates/perf/src/lib.rs", test_only, "R6"), 0);
    let masked = "println!(\"Instant\"); let reinstant_x = 1;\n";
    assert_eq!(count("crates/perf/src/lib.rs", masked, "R6"), 0);
}

// ---- R7: unchecked communication in ffw-dist ----------------------------

#[test]
fn r7_unchecked_comm_in_dist_fails() {
    let src = "comm.send(1, TAG, payload);\nlet v = comm.recv(0, TAG);\n";
    assert_eq!(count("crates/dist/src/ft.rs", src, "R7"), 2);
    let checked = "comm.send_checked(1, TAG, payload)?;\nlet v = comm.recv_checked(0, TAG)?;\nlet (p, lane) = comm.recv_checked_laned(0, TAG)?;\nlet m = comm.try_recv(0, TAG);\n";
    assert_eq!(count("crates/dist/src/ft.rs", checked, "R7"), 0);
    assert_eq!(count("crates/mpi/src/lib.rs", src, "R7"), 0);
    let waived = "comm.send(1, TAG, payload); // lint:unchecked-ok — demo path\n";
    assert_eq!(count("crates/dist/src/ft.rs", waived, "R7"), 0);
    let test_only = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { comm.send(1, 0, p); }\n}\n";
    assert_eq!(count("crates/dist/src/ft.rs", test_only, "R7"), 0);
    let in_string = "panic!(\"call .send( correctly\");\n";
    assert_eq!(count("crates/dist/src/ft.rs", in_string, "R7"), 0);
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
    let waived = "g0.apply(&w, &mut g0w); // lint:single-rhs-ok scalar path\n";
    assert_eq!(count("crates/inverse/src/dbim.rs", waived, "R8"), 0);
    let waived_above = "// lint:single-rhs-ok scalar building block\nself.g0.apply(&ox, y);\n";
    assert_eq!(count("crates/dist/src/solver.rs", waived_above, "R8"), 0);
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
    // A multi-line string spanning a `.send(` used to look like code to the
    // per-line masker.
    let src = "let help = \"first line\ncomm.send(1, TAG, p) is wrong\nlast\";\n";
    assert_eq!(count("crates/dist/src/ft.rs", src, "R7"), 0);
}

#[test]
fn tokens_fix_tail_heuristic_false_negative() {
    // Code *after* a #[cfg(test)] module used to be exempt (the old engine
    // assumed test modules were always the file tail). It is live code.
    let src =
        "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live() { std::thread::spawn(|| {}); }\n";
    assert_eq!(count("crates/dist/src/engine.rs", src, "R4"), 1);
}
