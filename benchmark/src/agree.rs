//! `ffw-ladder agree A.json B.json`: compares two ladder records.
//!
//! B disagrees with A when an end-to-end metric is worse than A's by more
//! than its bound, when `failed` rose, or when a count that repeats exactly
//! differs. Running it both ways round proves two sets of runs of one commit
//! agree; running it parent-then-change shows what a change regressed.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use ffw_serve::Json;

/// The share of `a` by which `b` is worse (negative when better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Lines describing every disagreement, and notes on what got better by
/// more than the bound.
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    pub offenders: Vec<String>,
    pub notes: Vec<String>,
    /// Metric x workload pairs compared.
    pub compared: usize,
}

fn value(record: &Json, workload: &str, phase: &str, metric: &str) -> Option<f64> {
    record
        .get("workloads")?
        .get(workload)?
        .get(phase)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn failed(record: &Json, workload: &str, phase: &str) -> Option<f64> {
    record
        .get("workloads")?
        .get(workload)?
        .get(phase)?
        .get("failed")?
        .as_f64()
}

fn compare_bounded(report: &mut Report, w: &str, d: &MetricDef, a: f64, b: f64) {
    report.compared += 1;
    let worse = worse_by(d.better, a, b);
    let line = format!(
        "{w} {}: {a:.6} -> {b:.6} {} ({:+.2}%, bound {:.0}%)",
        d.name,
        d.unit,
        100.0 * worse,
        100.0 * d.bound
    );
    if worse > d.bound {
        report.offenders.push(format!("worse  {line}"));
    } else if worse < -d.bound {
        report.notes.push(format!("better {line}"));
    }
}

pub fn compare(a: &Json, b: &Json) -> Report {
    let mut report = Report::default();
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        report.offenders.push("A has no workloads".into());
        return report;
    };
    for w in workloads.keys() {
        if b.get("workloads").and_then(|ws| ws.get(w)).is_none() {
            report.offenders.push(format!("{w}: missing from B"));
            continue;
        }
        for d in END_TO_END {
            match (
                value(a, w, "end_to_end", d.name),
                value(b, w, "end_to_end", d.name),
            ) {
                (Some(va), Some(vb)) => compare_bounded(&mut report, w, d, va, vb),
                (None, None) => {}
                (va, vb) => report.offenders.push(format!(
                    "{w} {}: present in one record only ({va:?} vs {vb:?})",
                    d.name
                )),
            }
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            if let (Some(va), Some(vb)) = (
                value(a, w, "per_layer", d.name),
                value(b, w, "per_layer", d.name),
            ) {
                report.compared += 1;
                if va != vb {
                    report.offenders.push(format!(
                        "differs {w} {}: {va} vs {vb} {} (an exact count)",
                        d.name, d.unit
                    ));
                }
            }
        }
        for phase in ["end_to_end", "per_layer"] {
            let (fa, fb) = (
                failed(a, w, phase).unwrap_or(0.0),
                failed(b, w, phase).unwrap_or(0.0),
            );
            if fb > fa {
                report
                    .offenders
                    .push(format!("{w} {phase}: failed_ops rose from {fa} to {fb}"));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(recon_s: f64, jobs_per_s: f64, solves: f64, failed: u32) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"ffw-ladder/1","workloads":{{"w":{{
                "end_to_end":{{"failed":{failed},"metrics":{{
                    "recon_s":{{"value":{recon_s},"unit":"s"}},
                    "jobs_per_s":{{"value":{jobs_per_s},"unit":"1/s"}},
                    "forward_s":{{"value":null,"unit":"s"}}}}}},
                "per_layer":{{"failed":0,"metrics":{{
                    "solver.solves":{{"value":{solves},"unit":"count"}},
                    "mlfma.gflops":{{"value":{recon_s},"unit":"GFLOP/s"}}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn records_within_bounds_agree() {
        let r = compare(&record(10.0, 5.0, 32.0, 0), &record(10.9, 4.6, 32.0, 0));
        assert_eq!(r.offenders, Vec::<String>::new());
        assert!(r.notes.is_empty());
        // recon_s, jobs_per_s, solver.solves; null and inexact ones skipped
        assert_eq!(r.compared, 3);
    }

    #[test]
    fn a_slower_run_and_a_lower_rate_are_offenders() {
        let r = compare(&record(10.0, 5.0, 32.0, 0), &record(13.0, 3.5, 32.0, 0));
        assert_eq!(r.offenders.len(), 2, "{:?}", r.offenders);
        assert!(r.offenders[0].contains("recon_s") && r.offenders[0].starts_with("worse"));
        assert!(r.offenders[1].contains("jobs_per_s"));
    }

    #[test]
    fn a_faster_run_is_a_note_not_an_offender() {
        let r = compare(&record(10.0, 5.0, 32.0, 0), &record(7.0, 5.0, 32.0, 0));
        assert!(r.offenders.is_empty());
        assert_eq!(r.notes.len(), 1);
        assert!(r.notes[0].starts_with("better"));
    }

    #[test]
    fn exact_counts_must_repeat_and_failures_must_not_rise() {
        let r = compare(&record(10.0, 5.0, 32.0, 0), &record(10.0, 5.0, 33.0, 1));
        assert_eq!(r.offenders.len(), 2, "{:?}", r.offenders);
        assert!(r.offenders[0].contains("solver.solves"));
        assert!(r.offenders[1].contains("failed_ops rose"));
        // fewer failures is fine
        let r = compare(&record(10.0, 5.0, 32.0, 2), &record(10.0, 5.0, 32.0, 0));
        assert!(r.offenders.is_empty());
    }

    #[test]
    fn a_missing_workload_or_metric_is_an_offender() {
        let a = record(10.0, 5.0, 32.0, 0);
        let empty = Json::parse(r#"{"workloads":{}}"#).unwrap();
        assert_eq!(compare(&a, &empty).offenders, ["w: missing from B"]);
        let b = Json::parse(
            r#"{"workloads":{"w":{"end_to_end":{"failed":0,"metrics":{}},"per_layer":{"failed":0,"metrics":{}}}}}"#,
        )
        .unwrap();
        assert_eq!(compare(&a, &b).offenders.len(), 2);
    }
}
