//! Rule dispatch: runs every rule over a [`Workspace`] and returns the
//! sorted diagnostic list.

mod atomics;
mod local;
mod reduce;
mod tags;

use crate::diag::{sort_diags, Diag};
use crate::workspace::Workspace;

/// Runs all rules (R3, R8–R11) over the workspace.
pub fn check_workspace(ws: &Workspace) -> Vec<Diag> {
    let mut diags = Vec::new();
    for f in &ws.files {
        local::r3_relaxed_orderings(f, &mut diags);
        local::r8_single_rhs_apply(f, &mut diags);
    }
    atomics::r9_atomic_pairing(ws, &mut diags);
    reduce::r10_reduction_discipline(ws, &mut diags);
    tags::r11_tag_protocol(ws, &mut diags);
    sort_diags(&mut diags);
    diags
}
