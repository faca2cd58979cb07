//! The workspace's lint policy (`[workspace.lints]` in the root
//! `Cargo.toml`, and `clippy.toml`) reaches a package only if its manifest
//! opts in with `[lints] workspace = true`. Every member the root manifest
//! names must, the root package too; the `third_party/` stand-ins mirror
//! crates.io APIs and stay outside the policy.

use std::path::{Path, PathBuf};

/// The lines of a TOML document, comments stripped and trimmed.
fn lines(toml: &str) -> impl Iterator<Item = &str> {
    toml.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
}

/// The entries of the `[workspace] members` array, globs kept.
fn members(manifest: &str) -> Vec<String> {
    let mut table = "";
    let mut workspace = String::new();
    for line in lines(manifest) {
        if line.starts_with('[') {
            table = line;
        } else if table == "[workspace]" {
            workspace.push_str(line);
            workspace.push('\n');
        }
    }
    let array = workspace
        .split_once("members")
        .and_then(|(_, rest)| rest.split_once('['))
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(list, _)| list);
    array
        .split(',')
        .map(|m| m.trim().trim_matches('"').to_string())
        .filter(|m| !m.is_empty())
        .collect()
}

/// The directory of each member, a trailing `/*` expanded to the
/// subdirectories it names.
fn member_dirs(root: &Path, members: &[String]) -> Vec<PathBuf> {
    let mut dirs = Vec::new();
    for member in members {
        let Some(parent) = member.strip_suffix("/*") else {
            dirs.push(root.join(member));
            continue;
        };
        let entries = std::fs::read_dir(root.join(parent)).expect("member directory");
        let mut sub: Vec<PathBuf> = entries
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.is_dir())
            .collect();
        sub.sort();
        dirs.extend(sub);
    }
    dirs
}

/// True if the manifest has a `[lints]` table holding `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in lines(manifest) {
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
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = members(&manifest);
    assert!(
        members.iter().any(|m| m == "crates/*"),
        "no `crates/*` in the members {members:?}: the manifest reader is broken"
    );
    let mut policed = vec![root.clone()];
    policed.extend(
        member_dirs(&root, &members)
            .into_iter()
            .filter(|d| !d.starts_with(root.join("third_party"))),
    );
    assert!(
        policed.len() > 10,
        "found only {policed:?}: member discovery is broken"
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
        "members without `[lints] workspace = true` (the workspace lint policy skips them): {missing:?}"
    );
}
