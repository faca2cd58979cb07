//! ffw-analyze — token-level static analyzer for the ffw workspace.
//!
//! The workspace's discipline rules (SAFETY comments, ordering hygiene,
//! multi-RHS hot paths, …) started life as line-oriented textual lints.
//! This crate re-implements them on a real token
//! stream — a hand-written Rust lexer that understands strings, raw
//! strings, char literals and nested block comments — which removes the
//! masking false-positive class entirely, and adds the cross-file rules
//! that textual scanning could never express:
//!
//! | code  | rule | scope |
//! |-------|------|-------|
//! | FFW001 | R1  | SAFETY comment above every `unsafe` |
//! | FFW002 | R2  | `#![deny(unsafe_op_in_unsafe_fn)]` in unsafe crates |
//! | FFW003 | R3  | no `Relaxed` on completion/panic flags |
//! | FFW004 | R4  | `thread::spawn` confined to ffw-par/ffw-mpi |
//! | FFW005 | R5  | no `.unwrap()` on the fault-tolerant path |
//! | FFW006 | R6  | `Instant` only inside ffw-obs |
//! | FFW007 | R7  | retired: the checked calls are `Comm`'s only send/receive |
//! | FFW008 | R8  | no single-RHS operator applies on the hot path |
//! | FFW009 | R9  | release stores need workspace-wide acquire loads |
//! | FFW010 | R10 | no scheduling-order-dependent float reductions |
//! | FFW011 | R11 | message tags: paired and collision-free |
//! | FFW012 | R12 | waiver ledger: registered, justified, not stale |
//!
//! Diagnostics carry file/line/column spans and stable codes; CI runs
//! [`check_workspace`] through the CLI and consumes its JSON report
//! (`ffw-analyze check --json report.json`). A retired rule's code is never
//! reused.

pub mod diag;
pub mod index;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use diag::{Diag, RuleInfo, RULES};
pub use rules::{check_workspace, known_waiver_tags};
pub use workspace::{SourceFile, Workspace};

use std::path::Path;

/// Walks the workspace at `root` and runs every rule. Returns the sorted
/// diagnostic list and the number of files scanned.
pub fn analyze_root(root: &Path) -> std::io::Result<(Vec<Diag>, usize)> {
    let ws = Workspace::from_root(root)?;
    let n = ws.files.len();
    Ok((check_workspace(&ws), n))
}
