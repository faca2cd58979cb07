//! Exhaustive schedule exploration of the protocol models.
//!
//! These tests are the mini-loom acceptance gate: each model must expose a
//! non-trivial interleaving space (≥ 100 distinct schedules, fully explored
//! without truncation), the correct protocols must be clean on *every*
//! schedule, and seeded bad mutations must be caught.

use ffw_check::models::{
    AllreduceModel, DispenserBug, DispenserModel, DurableBug, DurableWriterModel, TagMailboxModel,
};
use ffw_check::Explorer;

#[test]
fn mailbox_out_of_order_matching_all_schedules() {
    let report = Explorer::default().explore(&TagMailboxModel::new());
    assert!(
        report.is_clean(),
        "deadlocks: {:?}\nviolations: {:?}",
        report.deadlocks,
        report.violations
    );
    assert!(!report.truncated, "space must be fully explored");
    assert!(
        report.complete_schedules >= 100,
        "expected >= 100 interleavings, got {}",
        report.complete_schedules
    );
}

#[test]
fn allreduce_all_schedules_clean() {
    let report = Explorer::default().explore(&AllreduceModel::new(4));
    assert!(
        report.is_clean(),
        "deadlocks: {:?}\nviolations: {:?}",
        report.deadlocks,
        report.violations
    );
    assert!(!report.truncated);
    assert!(
        report.complete_schedules >= 100,
        "expected >= 100 interleavings, got {}",
        report.complete_schedules
    );
}

#[test]
fn dispenser_all_schedules_clean() {
    let report = Explorer::default().explore(&DispenserModel::new(5, 2, 2, DispenserBug::None));
    assert!(
        report.is_clean(),
        "deadlocks: {:?}\nviolations: {:?}",
        report.deadlocks,
        report.violations
    );
    assert!(!report.truncated);
    assert!(
        report.complete_schedules >= 100,
        "expected >= 100 interleavings, got {}",
        report.complete_schedules
    );
}

#[test]
fn dropping_chunks_done_increment_is_caught_as_deadlock() {
    // The seeded mutation from the issue: a worker that never bumps
    // `chunks_done` strands the submitter, which waits for completion that
    // never comes. The explorer must find that stuck state.
    let report = Explorer::default().explore(&DispenserModel::new(
        4,
        2,
        2,
        DispenserBug::SkipDoneIncrement,
    ));
    assert!(
        !report.deadlocks.is_empty(),
        "the explorer must catch the stranded submitter"
    );
    // Every schedule ends stuck: the submitter can never run.
    assert_eq!(
        report.complete_schedules, 0,
        "no schedule can complete when chunks_done is never incremented"
    );
    let reason = &report.deadlocks[0].reason;
    assert!(reason.contains("blocked"), "got: {reason}");
}

#[test]
fn incrementing_before_run_is_caught_as_use_after_free() {
    // The other seeded mutation: bumping `chunks_done` before running the
    // chunk lets the submitter observe completion early, free the job, and
    // leave a worker dereferencing the dangling closure. At least one
    // interleaving must expose it.
    let report = Explorer::default().explore(&DispenserModel::new(
        4,
        2,
        2,
        DispenserBug::IncrementBeforeRun,
    ));
    assert!(
        !report.violations.is_empty(),
        "the explorer must find a use-after-free interleaving"
    );
    assert!(
        report.violations[0].reason.contains("use-after-free"),
        "got: {}",
        report.violations[0].reason
    );
}

#[test]
fn allreduce_scales_with_rank_count() {
    // Sanity: the schedule space grows with rank count and stays clean.
    let small = Explorer::default().explore(&AllreduceModel::new(2));
    let large = Explorer::default().explore(&AllreduceModel::new(4));
    assert!(small.is_clean() && large.is_clean());
    assert!(large.complete_schedules > small.complete_schedules);
}

#[test]
fn durable_writer_all_schedules_clean() {
    let report = Explorer::default().explore(&DurableWriterModel::new(DurableBug::None));
    assert!(
        report.is_clean(),
        "deadlocks: {:?}\nviolations: {:?}",
        report.deadlocks,
        report.violations
    );
    assert!(!report.truncated);
    assert!(
        report.complete_schedules >= 20,
        "expected >= 20 interleavings, got {}",
        report.complete_schedules
    );
}

#[test]
fn durable_writer_mutations_are_caught() {
    for bug in [
        DurableBug::SupersedeDropsCallbacks,
        DurableBug::FlushIgnoresInFlight,
        DurableBug::CancelWithoutWait,
    ] {
        let report = Explorer::default().explore(&DurableWriterModel::new(bug));
        assert!(
            !report.violations.is_empty(),
            "{bug:?} must be caught on some schedule"
        );
    }
}
