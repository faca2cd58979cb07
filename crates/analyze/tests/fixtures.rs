//! Fixture corpus for the workspace-wide rules (R9–R11): for each rule a
//! violating and a clean fixture, run through the full public engine
//! (`check_workspace`) the way CI runs it.

use ffw_analyze::{check_workspace, Diag, Workspace};
use ffw_obs::json::Json;

fn run(files: &[(&str, &str)]) -> Vec<Diag> {
    check_workspace(&Workspace::from_memory(files))
}

fn rule_count(diags: &[Diag], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

// ---- R9: atomic release/acquire pairing ---------------------------------

#[test]
fn r9_violating_fixture() {
    let publisher = "fn done(s: &S) { s.ready.store(true, Ordering::Release); }\n";
    let consumer = "fn poll(s: &S) -> bool { s.ready.load(Ordering::Relaxed) }\n";
    let diags = run(&[
        ("crates/a/src/lib.rs", publisher),
        ("crates/b/src/lib.rs", consumer),
    ]);
    assert_eq!(rule_count(&diags, "R9"), 1);
    let d = diags.iter().find(|d| d.rule == "R9").unwrap();
    assert_eq!(d.file, "crates/a/src/lib.rs");
    assert_eq!(d.code, "FFW009");
    assert!(d.message.contains("ready"));
}

#[test]
fn r9_clean_fixture() {
    let publisher = "fn done(s: &S) { s.ready.store(true, Ordering::Release); }\n";
    let consumer = "fn wait(s: &S) { while !s.ready.load(Ordering::Acquire) {} }\n";
    let diags = run(&[
        ("crates/a/src/lib.rs", publisher),
        ("crates/b/src/lib.rs", consumer),
    ]);
    assert_eq!(rule_count(&diags, "R9"), 0);
}

// ---- R10: deterministic reductions --------------------------------------

#[test]
fn r10_violating_fixture() {
    let src = "fn merge(acc: &Mutex<f64>, part: f64) { *acc.lock() += part; }\n";
    let diags = run(&[("crates/mlfma/src/engine.rs", src)]);
    assert_eq!(rule_count(&diags, "R10"), 1);
    assert_eq!(
        diags.iter().find(|d| d.rule == "R10").unwrap().code,
        "FFW010"
    );
}

#[test]
fn r10_clean_fixture() {
    // The blessed idiom: disjoint per-chunk slots, folded in chunk order.
    let src = "fn merge(slot: &Mutex<Option<f64>>, part: f64) { *slot.lock() = Some(part); }\n";
    assert!(run(&[("crates/par/src/lib.rs", src)]).is_empty());
}

// ---- R11: tag protocol ---------------------------------------------------

#[test]
fn r11_violating_fixture() {
    let send_only =
        "const TAG_ORPHAN: u32 = 0x7;\nfn s(c: &C) { c.send_checked(1, TAG_ORPHAN, p)?; }\n";
    let diags = run(&[("crates/dist/src/proto.rs", send_only)]);
    assert_eq!(rule_count(&diags, "R11"), 1);
    assert!(diags.iter().any(|d| d.message.contains("never received")));
}

#[test]
fn r11_clean_fixture() {
    let a = "const TAG_HALO: u32 = 0x100;\nfn s(c: &C) { c.send_checked(1, TAG_HALO, p)?; }\n";
    let b = "fn r(c: &C) { let m = c.recv_checked(0, TAG_HALO)?; }\n";
    assert!(run(&[("crates/dist/src/a.rs", a), ("crates/dist/src/b.rs", b)]).is_empty());
}

// ---- Report plumbing -----------------------------------------------------

#[test]
fn json_report_carries_spans_and_codes() {
    let publisher = "fn done(s: &S) { s.ready.store(true, Ordering::Release); }\n";
    let diags = run(&[("crates/a/src/lib.rs", publisher)]);
    let report = Json::parse(&ffw_analyze::json::report(&diags, 1)).expect("valid JSON");
    let first = &report
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("array")[0];
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(String::from);
    assert_eq!(field(&report, "schema").as_deref(), Some("ffw-analyze/2"));
    assert_eq!(field(first, "code").as_deref(), Some("FFW009"));
    assert_eq!(field(first, "file").as_deref(), Some("crates/a/src/lib.rs"));
}
