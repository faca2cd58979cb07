//! Fixture corpus for the workspace-wide rules (R9–R12): for each rule a
//! violating, a waived, and a clean fixture, run through the full public
//! engine (`check_workspace`) the way CI runs it — so these also prove the
//! rules compose (e.g. a waiver suppresses its rule but then demands a
//! ledger entry from R12).

use ffw_analyze::{check_workspace, Diag, Workspace};
use ffw_obs::json::Json;

fn run(files: &[(&str, &str)], ledger: Option<&str>) -> Vec<Diag> {
    check_workspace(&Workspace::from_memory(files, ledger))
}

fn rule_count(diags: &[Diag], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

// ---- R9: atomic release/acquire pairing ---------------------------------

#[test]
fn r9_violating_fixture() {
    let publisher = "fn done(s: &S) { s.ready.store(true, Ordering::Release); }\n";
    let consumer = "fn poll(s: &S) -> bool { s.ready.load(Ordering::Relaxed) }\n";
    let diags = run(
        &[
            ("crates/a/src/lib.rs", publisher),
            ("crates/b/src/lib.rs", consumer),
        ],
        None,
    );
    assert_eq!(rule_count(&diags, "R9"), 1);
    let d = diags.iter().find(|d| d.rule == "R9").unwrap();
    assert_eq!(d.file, "crates/a/src/lib.rs");
    assert_eq!(d.code, "FFW009");
    assert!(d.message.contains("ready"));
}

#[test]
fn r9_waived_fixture_needs_ledger() {
    let publisher = "fn done(s: &S) {\n    // lint:atomic-ok — consumer lands in the next PR\n    s.ready.store(true, Ordering::Release);\n}\n";
    // Waiver alone silences R9 but trips R12 (unregistered)…
    let no_ledger = run(&[("crates/a/src/lib.rs", publisher)], None);
    assert_eq!(rule_count(&no_ledger, "R9"), 0);
    assert_eq!(rule_count(&no_ledger, "R12"), 1);
    // …and the ledger entry makes the whole workspace clean.
    let ledger = "- `crates/a/src/lib.rs` lint:atomic-ok — consumer lands in the next PR\n";
    assert!(run(&[("crates/a/src/lib.rs", publisher)], Some(ledger)).is_empty());
}

#[test]
fn r9_clean_fixture() {
    let publisher = "fn done(s: &S) { s.ready.store(true, Ordering::Release); }\n";
    let consumer = "fn wait(s: &S) { while !s.ready.load(Ordering::Acquire) {} }\n";
    let diags = run(
        &[
            ("crates/a/src/lib.rs", publisher),
            ("crates/b/src/lib.rs", consumer),
        ],
        None,
    );
    assert_eq!(rule_count(&diags, "R9"), 0);
}

// ---- R10: deterministic reductions --------------------------------------

#[test]
fn r10_violating_fixture() {
    let src = "fn merge(acc: &Mutex<f64>, part: f64) { *acc.lock() += part; }\n";
    let diags = run(&[("crates/mlfma/src/engine.rs", src)], None);
    assert_eq!(rule_count(&diags, "R10"), 1);
    assert_eq!(
        diags.iter().find(|d| d.rule == "R10").unwrap().code,
        "FFW010"
    );
}

#[test]
fn r10_waived_fixture() {
    let src = "fn merge(acc: &Mutex<u64>, part: u64) {\n    // lint:reduce-ok — integer counter, commutative-exact\n    *acc.lock() += part;\n}\n";
    let ledger =
        "- `crates/par/src/stats.rs` lint:reduce-ok — integer counter, commutative-exact\n";
    assert!(run(&[("crates/par/src/stats.rs", src)], Some(ledger)).is_empty());
}

#[test]
fn r10_clean_fixture() {
    // The blessed idiom: disjoint per-chunk slots, folded in chunk order.
    let src = "fn merge(slot: &Mutex<Option<f64>>, part: f64) { *slot.lock() = Some(part); }\n";
    assert!(run(&[("crates/par/src/lib.rs", src)], None).is_empty());
}

// ---- R11: tag protocol ---------------------------------------------------

#[test]
fn r11_violating_fixture() {
    let send_only =
        "const TAG_ORPHAN: u32 = 0x7;\nfn s(c: &C) { c.send_checked(1, TAG_ORPHAN, p)?; }\n";
    let diags = run(&[("crates/dist/src/proto.rs", send_only)], None);
    assert_eq!(rule_count(&diags, "R11"), 1);
    assert!(diags.iter().any(|d| d.message.contains("never received")));
}

#[test]
fn r11_waived_fixture() {
    let demo = "fn hang(c: &C) {\n    // lint:tag-ok — deliberate deadlock probe\n    let m = c.recv_checked(0, TAG_NOBODY)?;\n}\n";
    let ledger = "- `crates/dist/src/probe.rs` lint:tag-ok — deliberate deadlock probe\n";
    assert!(run(&[("crates/dist/src/probe.rs", demo)], Some(ledger)).is_empty());
}

#[test]
fn r11_clean_fixture() {
    let a = "const TAG_HALO: u32 = 0x100;\nfn s(c: &C) { c.send_checked(1, TAG_HALO, p)?; }\n";
    let b = "fn r(c: &C) { let m = c.recv_checked(0, TAG_HALO)?; }\n";
    assert!(run(
        &[("crates/dist/src/a.rs", a), ("crates/dist/src/b.rs", b)],
        None
    )
    .is_empty());
}

// ---- R12: waiver ledger --------------------------------------------------

#[test]
fn r12_violating_fixture_unregistered() {
    let src = "fn f(g0: &G) {\n    // lint:single-rhs-ok — scalar stage\n    g0.apply(x, y);\n}\n";
    let diags = run(
        &[("crates/inverse/src/dbim.rs", src)],
        Some("# empty ledger\n"),
    );
    assert_eq!(rule_count(&diags, "R12"), 1);
    assert_eq!(
        diags.iter().find(|d| d.rule == "R12").unwrap().code,
        "FFW012"
    );
}

#[test]
fn r12_violating_fixture_stale() {
    let ledger = "- `crates/inverse/src/dbim.rs` lint:single-rhs-ok — long gone\n";
    let diags = run(
        &[("crates/inverse/src/dbim.rs", "fn f() {}\n")],
        Some(ledger),
    );
    assert_eq!(rule_count(&diags, "R12"), 1);
    assert!(diags
        .iter()
        .any(|d| d.file == "WAIVERS.md" && d.message.contains("stale")));
}

#[test]
fn r12_clean_fixture_roundtrip() {
    let src = "fn f(g0: &G) {\n    // lint:single-rhs-ok — scalar stage\n    g0.apply(x, y);\n}\n";
    let ledger =
        "# Waivers\n\n- `crates/inverse/src/dbim.rs` lint:single-rhs-ok — scalar stage of the block driver\n";
    assert!(run(&[("crates/inverse/src/dbim.rs", src)], Some(ledger)).is_empty());
}

// ---- Report plumbing -----------------------------------------------------

#[test]
fn json_report_carries_spans_and_codes() {
    let publisher = "fn done(s: &S) { s.ready.store(true, Ordering::Release); }\n";
    let diags = run(&[("crates/a/src/lib.rs", publisher)], None);
    let report = Json::parse(&ffw_analyze::json::report(&diags, 1)).expect("valid JSON");
    let first = &report
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("array")[0];
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(String::from);
    assert_eq!(field(&report, "schema").as_deref(), Some("ffw-analyze/1"));
    assert_eq!(field(first, "code").as_deref(), Some("FFW009"));
    assert_eq!(field(first, "file").as_deref(), Some("crates/a/src/lib.rs"));
}
