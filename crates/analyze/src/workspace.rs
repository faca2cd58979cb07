//! Workspace discovery and the analyzer's unit of work.
//!
//! The walker is driven by the root `Cargo.toml`'s `[workspace] members`
//! list (globs expanded), not a hard-coded directory list, so adding a new
//! member crate automatically brings it under analysis. Files can also be
//! supplied in memory, which is how the fixture corpus exercises every rule
//! without touching disk.

use std::path::{Path, PathBuf};

use crate::index::test_lines;
use crate::lexer::{lex, Tok};

/// One analyzed source file: its token stream and which lines are test code.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// First path segment: `crates`, `third_party`, `src`, ….
    pub member_dir: String,
    /// True for files under a `tests/` or `benches/` directory (whole-file
    /// test exemption; `#[cfg(test)]` regions are tracked per line).
    pub is_test_file: bool,
    /// Lexed tokens.
    pub tokens: Vec<Tok>,
    /// Per line (index 0 is line 1): inside a `#[cfg(test)]` item.
    pub test_lines: Vec<bool>,
}

impl SourceFile {
    /// Lexes one file and marks its test lines.
    pub fn new(rel_path: &str, text: &str) -> SourceFile {
        let rel_path = rel_path.replace('\\', "/");
        let tokens = lex(text);
        let test_lines = test_lines(&tokens, text.lines().count().max(1));
        let member_dir = rel_path.split('/').next().unwrap_or("").to_string();
        let is_test_file = rel_path.contains("/tests/")
            || rel_path.contains("/benches/")
            || rel_path.starts_with("tests/")
            || rel_path.starts_with("benches/");
        SourceFile {
            rel_path,
            member_dir,
            is_test_file,
            tokens,
            test_lines,
        }
    }

    /// True when the 0-based line is test code: the file lives in a test
    /// tree, or the line is inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, li: usize) -> bool {
        self.is_test_file || self.test_lines.get(li).copied().unwrap_or(false)
    }

    /// True for files under a `src/` directory (the non-test compilation
    /// surface of a crate — excludes examples and benches).
    pub fn in_src(&self) -> bool {
        self.rel_path.contains("/src/")
    }
}

/// A whole workspace ready for analysis.
pub struct Workspace {
    /// Display root.
    pub root: PathBuf,
    /// All source files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks the source trees of every member of the workspace at `root`.
    pub fn from_root(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for member in member_dirs(root)? {
            // The root package's trees; any other member is walked whole.
            let trees = if member == root {
                ["src", "tests", "examples", "benches"]
                    .map(|d| root.join(d))
                    .to_vec()
            } else {
                vec![member]
            };
            for path in trees.iter().flat_map(|t| rust_files(t)) {
                let text = std::fs::read_to_string(&path)?;
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(SourceFile::new(&rel, &text));
            }
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Builds a workspace from in-memory `(path, text)` pairs — the fixture
    /// corpus entry point.
    pub fn from_memory(files: &[(&str, &str)]) -> Workspace {
        let mut files: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::new(p, t)).collect();
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Workspace {
            root: PathBuf::from("<memory>"),
            files,
        }
    }
}

/// The directory of every member package of the workspace at `root`: the
/// root itself when its manifest also defines a package (the `ffw` facade),
/// then each `[workspace] members` entry, a trailing `/*` expanded to the
/// subdirectories it names.
pub fn member_dirs(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let mut dirs = Vec::new();
    if manifest.lines().any(|l| l.trim() == "[package]") {
        dirs.push(root.to_path_buf());
    }
    for member in manifest_members(&manifest) {
        let Some(parent) = member.strip_suffix("/*") else {
            dirs.push(root.join(member));
            continue;
        };
        let mut sub: Vec<PathBuf> = std::fs::read_dir(root.join(parent))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        sub.sort();
        dirs.extend(sub);
    }
    Ok(dirs)
}

/// Extracts the `members` array from the root manifest's `[workspace]`
/// table. Returned entries are directory paths relative to the root; glob
/// entries keep their `*`.
fn manifest_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_workspace = false;
    let mut in_members = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_workspace = line == "[workspace]";
            in_members = false;
            continue;
        }
        if !in_workspace {
            continue;
        }
        let rest = if let Some(r) = line.strip_prefix("members") {
            in_members = true;
            r.trim_start().trim_start_matches('=')
        } else if in_members {
            line
        } else {
            continue;
        };
        for part in rest.split(',') {
            let p = part
                .trim()
                .trim_start_matches('[')
                .trim_end_matches(']')
                .trim()
                .trim_matches('"');
            if !p.is_empty() {
                members.push(p.to_string());
            }
        }
        if rest.contains(']') {
            in_members = false;
        }
    }
    members
}

/// Every `.rs` file under `dir` (skipping `target/`), sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parse_single_line() {
        let m = "[workspace]\nmembers = [\"crates/*\", \"third_party/*\", \"xtask\"]\n";
        assert_eq!(manifest_members(m), ["crates/*", "third_party/*", "xtask"]);
    }

    #[test]
    fn members_parse_multi_line() {
        let m = "[workspace]\nmembers = [\n  \"crates/*\", # comment\n  \"xtask\",\n]\nresolver = \"2\"\n";
        assert_eq!(manifest_members(m), ["crates/*", "xtask"]);
    }

    #[test]
    fn members_ignores_other_tables() {
        let m = "[package]\nname = \"x\"\n[workspace]\nmembers = [\"a\"]\n[dependencies]\nmembers = [\"nope\"]\n";
        assert_eq!(manifest_members(m), ["a"]);
    }

    #[test]
    fn source_file_classification() {
        let f = SourceFile::new("crates/dist/src/ft.rs", "fn x() {}\n");
        assert_eq!(f.member_dir, "crates");
        assert!(!f.is_test_file);
        assert!(f.in_src());
        let t = SourceFile::new("crates/dist/tests/chaos.rs", "fn x() {}\n");
        assert!(t.is_test_file);
        assert!(!t.in_src());
        let b = SourceFile::new("crates/bench/benches/substrate.rs", "fn x() {}\n");
        assert!(b.is_test_file);
        let e = SourceFile::new("crates/mpi/examples/demo.rs", "fn x() {}\n");
        assert!(!e.is_test_file);
        assert!(!e.in_src());
    }

    #[test]
    fn root_package_trees_classify() {
        // The root `ffw` facade package: `tests/` at the workspace root is
        // test code, `src/lib.rs` is not.
        assert!(SourceFile::new("tests/forward_physics.rs", "fn x() {}\n").is_test_file);
        assert!(!SourceFile::new("src/lib.rs", "fn x() {}\n").is_test_file);
    }
}
