//! Rule dispatch: runs every rule over a [`Workspace`] and returns the
//! sorted diagnostic list.

mod atomics;
mod local;
mod reduce;
mod tags;
mod waivers;

use crate::diag::{sort_diags, Diag};
use crate::workspace::Workspace;

pub use waivers::known_waiver_tags;

/// Runs all rules (R1–R12) over the workspace.
pub fn check_workspace(ws: &Workspace) -> Vec<Diag> {
    let mut diags = Vec::new();
    for f in &ws.files {
        local::r1_safety_comments(f, &mut diags);
        local::r3_relaxed_orderings(f, &mut diags);
        local::r4_thread_spawn(f, &mut diags);
        local::r5_unwrap_on_fault_path(f, &mut diags);
        local::r6_instant_outside_obs(f, &mut diags);
        local::r7_unchecked_comm(f, &mut diags);
        local::r8_single_rhs_apply(f, &mut diags);
    }
    local::r2_unsafe_fn_attr(ws, &mut diags);
    atomics::r9_atomic_pairing(ws, &mut diags);
    reduce::r10_reduction_discipline(ws, &mut diags);
    tags::r11_tag_protocol(ws, &mut diags);
    waivers::r12_waiver_ledger(ws, &mut diags);
    sort_diags(&mut diags);
    diags
}
