//! # ffw-bench
//!
//! Experiment harnesses: one binary per table/figure of the paper (see
//! DESIGN.md section 3 for the index), plus Criterion micro-benchmarks.
//! Each binary prints the paper's reported values next to the reproduced
//! ones and writes a machine-readable JSON record under `results/`.

use std::io::Write;
use std::path::PathBuf;

/// Writes an experiment record as pretty JSON under `results/<name>.json`
/// (workspace root), creating the directory if needed. Returns the path.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let mut dir = std::env::var("FFW_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir)?;
    dir.push(format!("{name}.json"));
    let mut f = std::fs::File::create(&dir)?;
    let s = serde_json::to_string_pretty(value).expect("serializable");
    f.write_all(s.as_bytes())?;
    writeln!(f)?;
    Ok(dir)
}

/// Renders a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Parses `--quick` / `--full` / `--size N` style flags shared by the
/// experiment binaries.
pub struct Args {
    /// Reduced problem sizes for smoke runs.
    pub quick: bool,
    /// Larger (paper-shaped) problem sizes.
    pub full: bool,
}

impl Args {
    /// Parses from `std::env::args`.
    pub fn parse() -> Args {
        let mut a = Args {
            quick: false,
            full: false,
        };
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => a.quick = true,
                "--full" => a.full = true,
                other => eprintln!("ignoring unknown flag {other}"),
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        std::env::set_var(
            "FFW_RESULTS_DIR",
            std::env::temp_dir().join("ffw-test-results"),
        );
        let path = write_json("unit_test", &vec![1, 2, 3]).expect("write");
        let s = std::fs::read_to_string(path).expect("read");
        assert!(s.contains('1') && s.contains('3'));
    }
}
