//! `ffw-ladder`: the repository's benchmark.
//!
//! ```text
//! ffw-ladder run [--workload W] [--seed S] [--seconds T] [--reps N] [--trace 0|1] [--out FILE]
//! ffw-ladder agree A.json B.json
//! ```
//!
//! With `--workload` and `--trace` one phase of one workload runs in this
//! process and the last line of standard output is the driver's result
//! object. Without `--trace` every selected workload runs both phases, each
//! in a fresh child process (so `peak_rss_mb` and cold caches are per
//! workload), and one `ffw-ladder/1` record is written.

mod agree;
mod host;
mod metrics;
mod obsread;
mod probes;
mod serve_mix;
mod spans;
mod stats;
mod timed;
mod workloads;

use ffw_serve::json::obj;
use ffw_serve::Json;
use metrics::{MetricDef, PhaseResult, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

const USAGE: &str = "usage: ffw-ladder run [--workload W] [--seed S] [--seconds T] [--reps N] \
                     [--trace 0|1] [--out FILE]\n       ffw-ladder agree A.json B.json";

struct RunOpts {
    workload: Option<&'static Workload>,
    seed: u64,
    /// Keep timing reps until this much has been measured.
    seconds: f64,
    /// Timed reps at least.
    reps: usize,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: None,
        seed: 1,
        seconds: 0.0,
        reps: 3,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got '{val}'");
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(workloads::find(val).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload '{val}' (one of {names:?})")
                })?)
            }
            "--seed" => opts.seed = val.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?
            }
            "--reps" => {
                opts.reps = val
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("a positive integer"))?
            }
            "--trace" => {
                opts.trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => opts.out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// `benchmark/results`: traces, records and scratch state all stay inside
/// the checkout the binary was built from.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.to_line() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one phase of one workload in this process. The last line printed is
/// the driver's result object.
fn run_phase(w: &Workload, opts: &RunOpts, trace: bool) -> Result<bool, String> {
    let results = results_dir();
    let scratch = results.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    println!(
        "== {} · seed {} · {} ==\n   {}",
        w.name,
        opts.seed,
        if trace { "traced run" } else { "end to end" },
        w.why
    );
    let (defs, phase): (&[MetricDef], PhaseResult) = if trace {
        (
            PER_LAYER,
            workloads::traced(w, opts.seed, &results, &scratch),
        )
    } else {
        (
            END_TO_END,
            workloads::end_to_end(w, opts.seed, opts.seconds, opts.reps, &scratch),
        )
    };
    let _ = std::fs::remove_dir_all(&scratch);
    metrics::print_phase(defs, &phase);
    if let Some(out) = &opts.out {
        write_json(out, &metrics::phase_json(defs, &phase))?;
    }
    println!("{}", metrics::contract_line(defs, &phase));
    Ok(phase.failed == 0)
}

/// Runs both phases of every selected workload, one child process each, and
/// writes the combined record.
fn run_all(opts: &RunOpts) -> Result<bool, String> {
    let results = results_dir();
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let selected: Vec<&Workload> = match opts.workload {
        Some(w) => vec![w],
        None => workloads::ALL.iter().collect(),
    };
    let mut all_ok = true;
    let mut record = Vec::new();
    for w in selected {
        let mut entry = vec![
            ("why", Json::Str(w.why.into())),
            ("gated", Json::Bool(w.gated)),
        ];
        for (key, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let part = results.join(format!("phase-{}-{trace}.json", w.name));
            let _ = std::fs::remove_file(&part);
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name, "--trace", trace])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--reps", &opts.reps.to_string()])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            all_ok &= status.success();
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("{} --trace {trace} left no result: {e}", w.name))?;
            entry.push((key, Json::parse(&text).map_err(|e| e.to_string())?));
            let _ = std::fs::remove_file(&part);
        }
        record.push((w.name, obj(entry)));
    }
    let json = obj(vec![
        ("schema", Json::Str("ffw-ladder/1".into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("threads", Json::Num(host::THREADS as f64)),
        ("workloads", obj(record)),
    ]);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| results.join(format!("ladder-seed{}.json", opts.seed)));
    write_json(&out, &json)?;
    println!(
        "wrote {} ({})",
        out.display(),
        if all_ok {
            "failed_ops 0 on every workload"
        } else {
            "SOME OPERATIONS FAILED"
        }
    );
    Ok(all_ok)
}

fn run(args: &[String]) -> Result<bool, String> {
    let opts = parse_run(args)?;
    match (opts.workload, opts.trace) {
        (Some(w), Some(trace)) => run_phase(w, &opts, trace),
        (None, Some(_)) => Err("--trace needs --workload".into()),
        (_, None) => run_all(&opts),
    }
}

fn agree(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("agree takes two record files".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let report = agree::compare(&load(a)?, &load(b)?);
    for line in report.notes.iter().chain(&report.offenders) {
        println!("{line}");
    }
    println!(
        "{} comparisons, {} offenders, {} better beyond the bound",
        report.compared,
        report.offenders.len(),
        report.notes.len()
    );
    Ok(report.offenders.is_empty())
}

fn main() -> ExitCode {
    // The serve engine runs jobs on the process-wide pool, which reads this
    // when first used. No other thread exists yet.
    std::env::set_var("FFW_THREADS", host::THREADS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "agree" => agree(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
