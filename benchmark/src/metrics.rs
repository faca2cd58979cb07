//! The metric catalogue: every name the ladder reports, with unit, direction
//! and (end to end) the bound by which it may worsen before a change counts
//! as a regression. `BENCHMARK.json` is checked against this table by a unit
//! test, so the two cannot drift apart.

use crate::stats;
use ffw_serve::json::{obj, Json};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: allowed worsening as a share of the reference.
    pub bound: f64,
    /// The count repeats exactly between runs of one commit.
    pub exact: bool,
    /// Kept out of the driver's `--trace 1` line: a time that does not
    /// exist on some workload would read 0 there on every run, and the
    /// `dist.*` / `mpi.*` values exist on a record-only workload alone.
    pub record_only: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
        record_only: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
        record_only: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..layer(name, unit, better)
    }
}

const fn record_only(def: MetricDef) -> MetricDef {
    MetricDef {
        record_only: true,
        ..def
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. `failed_ops` / `attempted_ops` travel as
/// the `failed` / `attempted` fields of every result.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("forward_s", "s", Lower, 0.25),
    e2e("recon_s", "s", Lower, 0.25),
    e2e("final_residual", "ratio", Lower, 0.05),
    e2e("image_error", "ratio", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.25),
    e2e("job_latency_p50_s", "s", Lower, 0.25),
    e2e("job_latency_p80_s", "s", Lower, 0.25),
];

/// Single layers, measured in the traced run. Layer = crate.
pub const PER_LAYER: &[MetricDef] = &[
    layer("host.peak_gflops", "GFLOP/s", Higher),
    layer("host.stream_gbs", "GB/s", Higher),
    exact("host.nproc", "count", Higher),
    layer("numerics.panel_matvec_gflops", "GFLOP/s", Higher),
    layer("numerics.panel_matvec_roofline_frac", "ratio", Higher),
    layer("numerics.fft_ns_per_point", "ns", Lower),
    layer("numerics.hankel_ns_per_eval", "ns", Lower),
    layer("par.dispatch_us", "us", Lower),
    layer("par.apply_speedup_2t", "ratio", Higher),
    layer("mlfma.plan_build_s", "s", Lower),
    layer("mlfma.plan_rss_mb", "MB", Lower),
    layer("mlfma.apply_b8_ms_p50", "ms", Lower),
    layer("mlfma.apply_b8_ms_p90", "ms", Lower),
    layer("mlfma.apply_b1_ms_p50", "ms", Lower),
    exact("mlfma.applies", "count", Lower),
    exact("mlfma.columns", "count", Lower),
    record_only(layer("mlfma.busy_s", "s", Lower)),
    layer("mlfma.share", "ratio", Lower),
    layer("mlfma.gflops", "GFLOP/s", Higher),
    layer("mlfma.roofline_frac", "ratio", Higher),
    layer("mlfma.flops_per_byte_computed", "flop/B", Higher),
    record_only(layer("mlfma.near_s", "s", Lower)),
    record_only(layer("mlfma.aggregate_s", "s", Lower)),
    record_only(layer("mlfma.translate_s", "s", Lower)),
    record_only(layer("mlfma.disaggregate_s", "s", Lower)),
    layer("mlfma.near_gflops", "GFLOP/s", Higher),
    layer("mlfma.translate_gbs_computed", "GB/s", Higher),
    layer("mlfma.busy_crosscheck_ratio", "ratio", Lower),
    exact("solver.solves", "count", Lower),
    exact("solver.iters", "count", Lower),
    layer("solver.applies_per_solve", "ratio", Lower),
    record_only(layer("solver.self_s", "s", Lower)),
    layer("solver.unconverged", "count", Lower),
    layer("solver.panels_recomputed", "count", Lower),
    layer("solver.drift_rollbacks", "count", Lower),
    exact("solver.verify_extra_applies", "count", Lower),
    layer("solver.verify_overhead_ratio", "ratio", Lower),
    layer("inverse.setup_build_s", "s", Lower),
    exact("inverse.outer_iters", "count", Lower),
    record_only(layer("inverse.iter_s_mean", "s", Lower)),
    record_only(layer("inverse.self_s", "s", Lower)),
    record_only(layer("inverse.regularizer_s", "s", Lower)),
    record_only(layer("inverse.stage_s.0", "s", Lower)),
    record_only(layer("inverse.stage_s.1", "s", Lower)),
    layer("inverse.lambda_last", "value", Lower),
    record_only(layer("dist.launch_s", "s", Lower)),
    record_only(layer("dist.efficiency_2r", "ratio", Higher)),
    record_only(layer("dist.object_gap_vs_serial", "ratio", Lower)),
    record_only(exact("mpi.messages", "count", Lower)),
    record_only(exact("mpi.bytes", "B", Lower)),
    record_only(layer("mpi.bytes_per_apply", "B", Lower)),
    layer("fault.checkpoint_write_ms_p50", "ms", Lower),
    exact("fault.checkpoint_bytes", "B", Lower),
    layer("serve.open_s", "s", Lower),
    record_only(layer("serve.admit_ms_p50", "ms", Lower)),
    record_only(layer("serve.queue_wait_ms_p50", "ms", Lower)),
    record_only(layer("serve.exec_ms_p50", "ms", Lower)),
    exact("serve.plan_cache_hits", "count", Higher),
    exact("serve.plan_cache_misses", "count", Lower),
    layer("serve.jobs_failed", "count", Lower),
    layer("serve.jobs_retried", "count", Lower),
    layer("serve.journal_bytes", "B", Lower),
    layer("obs.trace_overhead_ratio", "ratio", Lower),
];

/// A reported value: the median of `n` samples with their range. Single
/// readings have `n == 1` and `min == max == value`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    pub fn single(value: f64) -> Self {
        Stat {
            value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Median, min, max and count of `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let (min, max) = stats::min_max(samples)?;
        Some(Stat {
            value: stats::median(samples)?,
            min,
            max,
            n: samples.len(),
        })
    }
}

/// Metric name -> value; `None` where the workload has no such phase or the
/// span/counter does not exist.
pub type Values = BTreeMap<&'static str, Option<Stat>>;

/// One named correctness check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The result of one phase (`--trace 0` or `--trace 1`) of one workload.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    pub values: Values,
    pub checks: Vec<Check>,
    /// Solves, jobs and checks attempted.
    pub attempted: u64,
    /// Unconverged solves, non-`done` jobs and failed checks.
    pub failed: u64,
}

impl PhaseResult {
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        self.values.insert(name, value.map(Stat::single));
    }

    pub fn set_samples(&mut self, name: &'static str, samples: &[f64]) {
        self.values.insert(name, Stat::of(samples));
    }

    /// Records a check; a failed one counts as a failed op.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }
}

fn stat_json(def: &MetricDef, stat: Option<Stat>) -> Json {
    let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    obj(vec![
        ("value", num(stat.map(|s| s.value))),
        ("unit", Json::Str(def.unit.into())),
        ("min", num(stat.map(|s| s.min))),
        ("max", num(stat.map(|s| s.max))),
        ("n", Json::Num(stat.map_or(0, |s| s.n) as f64)),
    ])
}

/// The record fragment a phase contributes: every catalogue metric of that
/// phase by name (null where absent), plus checks and op counts.
pub fn phase_json(defs: &[MetricDef], phase: &PhaseResult) -> Json {
    let metrics = defs
        .iter()
        .map(|d| {
            (
                d.name,
                stat_json(d, phase.values.get(d.name).copied().flatten()),
            )
        })
        .collect();
    let checks = phase
        .checks
        .iter()
        .map(|c| {
            obj(vec![
                ("name", Json::Str(c.name.clone())),
                ("ok", Json::Bool(c.ok)),
                ("detail", Json::Str(c.detail.clone())),
            ])
        })
        .collect();
    obj(vec![
        ("metrics", obj(metrics)),
        ("checks", Json::Arr(checks)),
        ("attempted", Json::Num(phase.attempted as f64)),
        ("failed", Json::Num(phase.failed as f64)),
    ])
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every non-record-only metric of `defs` as
/// a number (0 where the workload has no such phase).
pub fn contract_line(defs: &[MetricDef], phase: &PhaseResult) -> String {
    let metrics = defs
        .iter()
        .filter(|d| !d.record_only)
        .map(|d| {
            let v = phase
                .values
                .get(d.name)
                .copied()
                .flatten()
                .map_or(0.0, |s| s.value);
            (
                d.name,
                obj(vec![
                    ("value", Json::Num(v)),
                    ("unit", Json::Str(d.unit.into())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(phase.failed == 0)),
        ("attempted", Json::Num(phase.attempted.max(1) as f64)),
        ("failed", Json::Num(phase.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .to_line()
}

/// Human-readable listing of a phase: every metric by name with its unit.
pub fn print_phase(defs: &[MetricDef], phase: &PhaseResult) {
    for d in defs {
        match phase.values.get(d.name).copied().flatten() {
            Some(s) if s.n > 1 => println!(
                "  {:<38} {:>14.6} {:<8} {:<6} (min {:.6}, max {:.6}, n {})",
                d.name,
                s.value,
                d.unit,
                d.better.as_str(),
                s.min,
                s.max,
                s.n
            ),
            Some(s) => println!(
                "  {:<38} {:>14.6} {:<8} {}",
                d.name,
                s.value,
                d.unit,
                d.better.as_str()
            ),
            None => println!("  {:<38} {:>14} {}", d.name, "null", d.unit),
        }
    }
    for c in &phase.checks {
        let mark = if c.ok { "ok  " } else { "FAIL" };
        println!("  check {mark} {}: {}", c.name, c.detail);
    }
    println!(
        "  attempted_ops {}  failed_ops {}",
        phase.attempted, phase.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_are_valid_and_unique(defs: &[MetricDef]) {
        let mut seen = std::collections::BTreeSet::new();
        for d in defs {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn catalogue_names_meet_the_contract() {
        names_are_valid_and_unique(END_TO_END);
        names_are_valid_and_unique(PER_LAYER);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.iter().filter(|d| !d.record_only).count() <= 128);
    }

    /// `BENCHMARK.json` lists exactly the catalogue (minus record-only
    /// per-layer metrics) with the same units, directions and bounds, and
    /// the gated workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<Json> { json.get(key).unwrap().as_arr().unwrap().to_vec() };
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), d.name);
            assert_eq!(field(j, "unit"), d.unit);
            assert_eq!(field(j, "better"), d.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(d.bound));
        }
        let per_layer = listed("per_layer");
        let expected: Vec<&MetricDef> = PER_LAYER.iter().filter(|d| !d.record_only).collect();
        assert_eq!(per_layer.len(), expected.len());
        for (j, d) in per_layer.iter().zip(expected) {
            assert_eq!(field(j, "name"), d.name);
            assert_eq!(field(j, "unit"), d.unit);
            assert_eq!(field(j, "better"), d.better.as_str());
        }
        let workloads = listed("workloads");
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        let gated: Vec<_> = crate::workloads::ALL.iter().filter(|w| w.gated).collect();
        let expected: Vec<&str> = gated.iter().map(|w| w.name).collect();
        assert_eq!(names, expected);
        for (j, w) in workloads.iter().zip(gated) {
            assert_eq!(field(j, "why"), w.why);
        }
        for w in crate::workloads::ALL {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys_and_numbers_only() {
        let mut phase = PhaseResult::default();
        phase.set("setup_s", Some(0.5));
        phase.set("forward_s", None);
        phase.check("demo", true, String::new());
        let line = contract_line(END_TO_END, &phase);
        let json = Json::parse(&line).unwrap();
        let Json::Obj(top) = &json else {
            panic!("object")
        };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(metrics
            .values()
            .all(|m| m.get("value").and_then(Json::as_f64).is_some()));
        assert_eq!(
            metrics["setup_s"].get("value").and_then(Json::as_f64),
            Some(0.5)
        );
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_failed_check_counts_as_a_failed_op() {
        let mut phase = PhaseResult::default();
        phase.check("a", true, String::new());
        phase.check("b", false, "boom".into());
        assert_eq!((phase.attempted, phase.failed), (2, 1));
        let line = contract_line(END_TO_END, &phase);
        assert_eq!(
            Json::parse(&line).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
