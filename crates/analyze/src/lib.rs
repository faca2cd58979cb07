//! ffw-analyze — token-level static analyzer for the ffw workspace.
//!
//! A hand-written Rust lexer that understands strings, raw strings, char
//! literals and nested block comments feeds the rules that police the
//! paper's synchronisation protocol — properties no compiler lint can
//! express, several of them joined across files:
//!
//! | code  | rule | scope |
//! |-------|------|-------|
//! | FFW003 | R3  | no `Relaxed` on completion/panic flags |
//! | FFW008 | R8  | no single-RHS operator applies on the hot path |
//! | FFW009 | R9  | release stores need workspace-wide acquire loads |
//! | FFW010 | R10 | no scheduling-order-dependent float reductions |
//! | FFW011 | R11 | message tags: paired and collision-free |
//!
//! The generic rules went to the toolchain, configured once in the root
//! `Cargo.toml` (`[workspace.lints]`) and `clippy.toml`: SAFETY comments
//! (R1, `clippy::undocumented_unsafe_blocks`), `unsafe_op_in_unsafe_fn`
//! (R2), the thread-spawn and `Instant` bans (R4, R6,
//! `clippy::disallowed_methods` / `disallowed_types`), `.unwrap()` on the
//! fault path (R5, `clippy::unwrap_used`) and the waiver ledger (R12, a
//! reasoned `#[expect]` at each exception). R7 was retired when `Comm` kept
//! only its checked calls. A retired rule's code is never reused.
//!
//! Diagnostics carry file/line/column spans and stable codes; CI runs
//! [`check_workspace`] through the CLI and consumes its JSON report
//! (`ffw-analyze check --json report.json`).

pub mod diag;
pub mod index;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use diag::{Diag, RuleInfo, RULES};
pub use rules::check_workspace;
pub use workspace::{SourceFile, Workspace};

use std::path::Path;

/// Walks the workspace at `root` and runs every rule. Returns the sorted
/// diagnostic list and the number of files scanned.
pub fn analyze_root(root: &Path) -> std::io::Result<(Vec<Diag>, usize)> {
    let ws = Workspace::from_root(root)?;
    let n = ws.files.len();
    Ok((check_workspace(&ws), n))
}
