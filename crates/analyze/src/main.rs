//! `ffw-analyze` CLI.
//!
//! ```text
//! ffw-analyze check [--root DIR] [--json PATH]   # exit 1 on any diagnostic
//! ffw-analyze rules                              # print the rule catalog
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ffw_analyze::{analyze_root, json, RULES};

fn usage() -> ExitCode {
    eprintln!("usage: ffw-analyze check [--root DIR] [--json PATH] | ffw-analyze rules");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rules") => {
            for r in &RULES {
                println!("{}/{:4} {}", r.code, r.rule, r.summary);
            }
            ExitCode::SUCCESS
        }
        Some("check") => {
            let mut root = PathBuf::from(".");
            let mut json_path: Option<PathBuf> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--root" => match it.next() {
                        Some(v) => root = PathBuf::from(v),
                        None => return usage(),
                    },
                    "--json" => match it.next() {
                        Some(v) => json_path = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            // When invoked via `cargo run` the cwd is the workspace root;
            // fall back to walking up to the directory holding Cargo.toml
            // with a [workspace] table if the default root has none.
            if root.as_os_str() == "." {
                let mut probe = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
                loop {
                    let manifest = probe.join("Cargo.toml");
                    if std::fs::read_to_string(&manifest).is_ok_and(|m| m.contains("[workspace]")) {
                        root = probe;
                        break;
                    }
                    if !probe.pop() {
                        break;
                    }
                }
            }
            let (diags, files_scanned) = match analyze_root(&root) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!(
                        "ffw-analyze: cannot read workspace at {}: {e}",
                        root.display()
                    );
                    return ExitCode::from(2);
                }
            };
            if let Some(p) = json_path {
                let report = json::report(&diags, files_scanned);
                if let Err(e) = std::fs::write(&p, report) {
                    eprintln!("ffw-analyze: cannot write {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            }
            for d in &diags {
                eprintln!("{}", d.render());
            }
            if diags.is_empty() {
                eprintln!(
                    "ffw-analyze: {files_scanned} files clean ({} rules)",
                    RULES.len()
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("ffw-analyze: {} diagnostic(s)", diags.len());
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
