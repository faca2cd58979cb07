//! The gate must be green on the tree it ships in: running every rule over
//! this very workspace yields zero diagnostics. This is the committed proof
//! behind CI's `ffw-analyze -- check` step — if a change introduces a
//! violation, this test fails locally before CI does. The other half of the
//! lint policy is the toolchain's, and it reaches a crate only if the
//! crate's manifest opts in: every member the walker finds must.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean_under_all_rules() {
    let (diags, files_scanned) =
        ffw_analyze::analyze_root(&workspace_root()).expect("workspace readable");
    assert!(
        files_scanned > 100,
        "walker found only {files_scanned} files — member discovery is broken"
    );
    assert!(
        diags.is_empty(),
        "lint violations on HEAD:\n{}",
        diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// True if the manifest has a `[lints]` table holding `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
    {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = workspace_root();
    let members = ffw_analyze::workspace::member_dirs(&root).expect("workspace readable");
    // The third_party/ stand-ins mirror crates.io APIs and stay outside the
    // policy; everything else (crates/*, the root package) is in it.
    let policed: Vec<&PathBuf> = members
        .iter()
        .filter(|d| !d.starts_with(root.join("third_party")))
        .collect();
    assert!(
        policed.len() > 10 && policed.contains(&&root),
        "walker found only {policed:?} — member discovery is broken"
    );
    let missing: Vec<String> = policed
        .iter()
        .filter(|d| {
            let manifest = std::fs::read_to_string(d.join("Cargo.toml")).unwrap_or_default();
            !inherits_workspace_lints(&manifest)
        })
        .map(|d| d.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "members without `[lints] workspace = true` (the toolchain lint policy skips them): {missing:?}"
    );
}
