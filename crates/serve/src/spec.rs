//! Job specifications: parsing, validation, cost estimation and the
//! geometry fingerprint used to deduplicate immutable MLFMA plans.
//!
//! A spec arrives as the `"job"` object of a `submit` request and describes
//! a full synthetic reconstruction: scene geometry, ground-truth phantom,
//! DBIM iteration count, optional distributed layout, and per-job limits
//! (wall-clock deadline, FLOP budget). Validation happens entirely at
//! admission time, so by the time a job reaches a worker every field is
//! known-good and the run cannot fail on a bad parameter.

use crate::json::{obj, Json, MAX_EXACT_INT};
use ffw_fault::Fingerprint;
use ffw_geometry::Point2;
use ffw_inverse::{HopSchedule, Regularizer};
use ffw_mlfma::Accuracy;
use ffw_phantom::{Annulus, Cylinder, Phantom, RandomBlobs, SheppLogan};
use ffw_tomo::SceneConfig;

/// Phantoms a job may request (mirrors `ffw-reconstruct`).
const PHANTOMS: [&str; 4] = ["cylinder", "annulus", "shepp-logan", "blobs"];
/// Accuracy presets a job may request.
const ACCURACIES: [&str; 3] = ["low", "default", "high"];
/// FLOPs the admission estimate charges per entry of `GR`: a distance and
/// a Hankel function.
const GR_ENTRY_FLOPS: f64 = 100.0;

/// A fully validated reconstruction job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Client-chosen job id (1–64 chars of `[A-Za-z0-9._-]`); also names the
    /// job's checkpoint and output files.
    pub id: String,
    /// Pixels per side (must be `8 * 2^m`, `m >= 2`).
    pub size: usize,
    /// Transmitter count.
    pub tx: usize,
    /// Receiver count.
    pub rx: usize,
    /// Ground-truth phantom name.
    pub phantom: String,
    /// Phantom contrast.
    pub contrast: f64,
    /// DBIM outer iterations.
    pub iterations: usize,
    /// Measurement noise SNR in dB (`None` = noise-free).
    pub noise_db: Option<f64>,
    /// Limited-angle span in degrees (`None` = full ring).
    pub arc_deg: Option<f64>,
    /// MLFMA accuracy preset (`low` / `default` / `high`).
    pub accuracy: String,
    /// Illumination groups for the fault-tolerant distributed driver.
    pub groups: usize,
    /// Sub-tree ranks per group.
    pub subtree: usize,
    /// Relaunch budget of a rank grid on persistent compute corruption.
    pub max_restarts: u32,
    /// Wall-clock deadline in milliseconds, measured from job start.
    pub deadline_ms: Option<u64>,
    /// Per-job FLOP budget; the admission estimate must fit under it.
    pub max_flops: Option<f64>,
    /// Frequency-hop schedule as a wavelength-factor string (`"2.0,1.0"`);
    /// `None` = single-frequency. Hop jobs run on any grid and
    /// checkpoint/resume at hop-stage boundaries.
    pub hops: Option<HopSchedule>,
    /// Regularizer on the DBIM linear step (`"tikhonov[:L]"`,
    /// `"wgcv-lsqr[:STEPS[:OMEGA]]"`). Both families run on every grid.
    pub regularizer: Regularizer,
}

fn field_u64(j: &Json, key: &str, default: u64) -> Result<u64, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("'{key}' must be an integer from 0 to {MAX_EXACT_INT}")),
    }
}

fn field_f64(j: &Json, key: &str) -> Result<Option<f64>, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() => Ok(Some(x)),
            _ => Err(format!("'{key}' must be a finite number")),
        },
    }
}

impl JobSpec {
    /// Parses and validates the `"job"` object of a submit request.
    pub fn from_json(j: &Json) -> Result<JobSpec, String> {
        if !matches!(j, Json::Obj(_)) {
            return Err("job must be an object".into());
        }
        let id = j
            .get("id")
            .and_then(Json::as_str)
            .ok_or("'id' is required and must be a string")?
            .to_string();
        // Clients and journals from before the forward-engine choice was
        // removed still carry this key. The value naming the engine that
        // remains is accepted and dropped; any other is refused, because
        // ignoring it would run the job on a solver it did not ask for.
        match j.get("backend") {
            None | Some(Json::Null) => {}
            Some(v) if v.as_str() == Some("bicgstab") => {}
            Some(v) => {
                return Err(format!(
                    "'backend' {}: the forward-engine choice was removed — the \
                     born-series engine is gone and every job runs on bicgstab; \
                     drop the key",
                    v.to_line()
                ))
            }
        }
        // Every journal from before the wire-fault injector and the
        // group-drop floor were removed wrote `"chaos_seed":null` and
        // `"min_groups":1`. Those values ask for nothing that is gone, so
        // they are accepted and dropped; any other is refused, because
        // running the job without it would not be the run it asked for.
        match j.get("chaos_seed") {
            None | Some(Json::Null) => {}
            Some(v) => {
                return Err(format!(
                    "'chaos_seed' {}: seeded fault injection into jobs was removed — \
                     ranks are threads, whose messages cannot be lost or flipped; \
                     drop the key",
                    v.to_line()
                ))
            }
        }
        match j.get("min_groups") {
            None | Some(Json::Null) => {}
            Some(v) if v.as_u64() == Some(1) => {}
            Some(v) => {
                return Err(format!(
                    "'min_groups' {}: dropping illumination groups was removed — a \
                     job keeps every group and relaunches its grid; drop the key",
                    v.to_line()
                ))
            }
        }
        let spec = JobSpec {
            id,
            size: field_u64(j, "size", 32)? as usize,
            tx: field_u64(j, "tx", 4)? as usize,
            rx: field_u64(j, "rx", 8)? as usize,
            phantom: j
                .get("phantom")
                .and_then(Json::as_str)
                .unwrap_or("cylinder")
                .to_string(),
            contrast: field_f64(j, "contrast")?.unwrap_or(0.05),
            iterations: field_u64(j, "iterations", 4)? as usize,
            noise_db: field_f64(j, "noise_db")?,
            arc_deg: field_f64(j, "arc_deg")?,
            accuracy: j
                .get("accuracy")
                .and_then(Json::as_str)
                .unwrap_or("low")
                .to_string(),
            groups: field_u64(j, "groups", 1)? as usize,
            subtree: field_u64(j, "subtree", 1)? as usize,
            max_restarts: u32::try_from(field_u64(j, "max_restarts", 1)?)
                .map_err(|_| format!("'max_restarts' must be at most {}", u32::MAX))?,
            deadline_ms: match field_u64(j, "deadline_ms", 0)? {
                0 => None,
                ms => Some(ms),
            },
            max_flops: field_f64(j, "max_flops")?,
            hops: match j.get("hops") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    HopSchedule::parse(v.as_str().ok_or("'hops' must be a string")?)
                        .map_err(|e| format!("'hops': {e}"))?,
                ),
            },
            regularizer: match j.get("regularizer") {
                None | Some(Json::Null) => Regularizer::default(),
                Some(v) => v
                    .as_str()
                    .ok_or("'regularizer' must be a string")?
                    .parse()
                    .map_err(|e| format!("'regularizer': {e}"))?,
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        if self.id.is_empty() || self.id.len() > 64 {
            return Err("'id' must be 1-64 characters".into());
        }
        if !self
            .id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err("'id' may only contain [A-Za-z0-9._-]".into());
        }
        if self.size < 32 || !self.size.is_multiple_of(8) || !(self.size / 8).is_power_of_two() {
            return Err(format!(
                "'size' {} must be 8 * 2^m with m >= 2 (32, 64, 128, ...)",
                self.size
            ));
        }
        if self.tx == 0 || self.rx == 0 {
            return Err("'tx' and 'rx' must be at least 1".into());
        }
        if !(1..=1000).contains(&self.iterations) {
            return Err("'iterations' must be in 1..=1000".into());
        }
        if !self.contrast.is_finite() || self.contrast.abs() > 1.0 {
            return Err("'contrast' must be finite with |contrast| <= 1".into());
        }
        if !PHANTOMS.contains(&self.phantom.as_str()) {
            return Err(format!(
                "unknown phantom '{}' (one of {PHANTOMS:?})",
                self.phantom
            ));
        }
        if !ACCURACIES.contains(&self.accuracy.as_str()) {
            return Err(format!(
                "unknown accuracy '{}' (one of {ACCURACIES:?})",
                self.accuracy
            ));
        }
        if self.groups == 0 || !self.tx.is_multiple_of(self.groups) {
            return Err(format!(
                "'groups' {} must be >= 1 and divide 'tx' {}",
                self.groups, self.tx
            ));
        }
        if self.subtree == 0 || 16 % self.subtree != 0 {
            return Err(format!("'subtree' {} must divide 16", self.subtree));
        }
        if let Some(d) = self.arc_deg {
            if !(1.0..=360.0).contains(&d) {
                return Err("'arc_deg' must be in 1..=360".into());
            }
        }
        if let Some(f) = self.max_flops {
            if f <= 0.0 {
                return Err("'max_flops' must be positive".into());
            }
        }
        if let Some(schedule) = &self.hops {
            if self.iterations < schedule.len() {
                return Err(format!(
                    "'iterations' {} must give each of the {} hop stage(s) \
                     at least one iteration",
                    self.iterations,
                    schedule.len()
                ));
            }
        }
        Ok(())
    }

    /// Serializes back to the JSON shape `from_json` accepts — used by the
    /// journal so recovery reconstructs the exact spec.
    pub fn to_json(&self) -> Json {
        let opt = |o: Option<f64>| o.map(Json::Num).unwrap_or(Json::Null);
        obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("size", Json::Num(self.size as f64)),
            ("tx", Json::Num(self.tx as f64)),
            ("rx", Json::Num(self.rx as f64)),
            ("phantom", Json::Str(self.phantom.clone())),
            ("contrast", Json::Num(self.contrast)),
            ("iterations", Json::Num(self.iterations as f64)),
            ("noise_db", opt(self.noise_db)),
            ("arc_deg", opt(self.arc_deg)),
            ("accuracy", Json::Str(self.accuracy.clone())),
            ("groups", Json::Num(self.groups as f64)),
            ("subtree", Json::Num(self.subtree as f64)),
            ("max_restarts", Json::Num(self.max_restarts as f64)),
            ("deadline_ms", opt(self.deadline_ms.map(|v| v as f64))),
            ("max_flops", opt(self.max_flops)),
            (
                "hops",
                self.hops
                    .as_ref()
                    .map(|h| Json::Str(h.to_string()))
                    .unwrap_or(Json::Null),
            ),
            ("regularizer", Json::Str(self.regularizer.to_spec_string())),
        ])
    }

    /// The hop schedule this job runs: a single-frequency job is the
    /// one-stage schedule `"1.0"`.
    pub fn schedule(&self) -> HopSchedule {
        self.hops.clone().unwrap_or_else(HopSchedule::single)
    }

    /// The scene this job reconstructs. `threads` is left at 0; the engine
    /// supplies its shared pool via [`ffw_tomo::Reconstruction::with_pool`].
    pub fn scene(&self) -> SceneConfig {
        let mut scene = SceneConfig::new(self.size, self.tx, self.rx);
        scene.accuracy = self.accuracy_preset();
        if let Some(deg) = self.arc_deg {
            let span = deg.to_radians();
            scene = scene.with_arc(-span / 2.0, span);
        }
        scene
    }

    fn accuracy_preset(&self) -> Accuracy {
        match self.accuracy.as_str() {
            "low" => Accuracy::low(),
            "high" => Accuracy::high(),
            _ => Accuracy::default(),
        }
    }

    /// Builds the ground-truth phantom (validated names only).
    pub fn build_phantom(&self, side: f64) -> Box<dyn Phantom + Sync> {
        match self.phantom.as_str() {
            "annulus" => Box::new(Annulus {
                center: Point2::ZERO,
                inner: 0.18 * side,
                outer: 0.30 * side,
                contrast: self.contrast,
            }),
            "shepp-logan" => Box::new(SheppLogan::new(0.45 * side, self.contrast)),
            "blobs" => Box::new(RandomBlobs::new(6, 0.4 * side, self.contrast, 42)),
            _ => Box::new(Cylinder {
                center: Point2::ZERO,
                radius: 0.25 * side,
                contrast: self.contrast,
            }),
        }
    }

    /// Fingerprint of everything the immutable `MlfmaPlan` + operator setup
    /// depends on — and nothing else. Two jobs with equal geometry
    /// fingerprints share one cached [`ffw_tomo::Reconstruction`]; fields
    /// like `iterations`, `phantom` or `deadline_ms` deliberately do not
    /// contribute.
    pub fn geometry_fingerprint(&self) -> u64 {
        let acc = self.accuracy_preset();
        let mut fp = Fingerprint::new()
            .u64(self.size as u64)
            .u64(self.tx as u64)
            .u64(self.rx as u64)
            .f64(acc.digits)
            .u64(acc.interp_order as u64)
            .flag(self.arc_deg.is_some());
        if let Some(deg) = self.arc_deg {
            fp = fp.f64(deg);
        }
        fp.finish()
    }

    /// Admission-time FLOP estimate for the whole job, from the analytic
    /// O(N log N) MLFMA matvec cost and the workspace's BiCGStab iteration
    /// model — deliberately computed *without* building the (expensive)
    /// plan, so an over-budget job is rejected before any setup work.
    ///
    /// Computed in `f64` throughout: `size`, `tx` and `rx` come from the
    /// client, and a product of them in `usize` can wrap (`size = 2^32`
    /// squares to zero on 64 bits), which would turn the estimate into
    /// `NaN`.
    pub fn estimated_flops(&self) -> f64 {
        let (size, tx, rx) = (self.size as f64, self.tx as f64, self.rx as f64);
        let n = size * size;
        let matvec = 150.0 * n * n.log2().max(1.0);
        // Per outer iteration, one state solve per transmitter and either
        // its gradient and step solves (the paper's accounting) or, under
        // `wgcv-lsqr`, one solve per receiver for the receiver map; plus
        // the final residual pass. ~2 matvecs per BiCGStab iteration.
        let per_iteration = match self.regularizer {
            Regularizer::WgcvLsqr { .. } => tx + rx,
            _ => 3.0 * tx,
        };
        let solves = self.iterations as f64 * per_iteration + tx;
        // The iteration model takes the logarithm of the pixel count, so a
        // saturated count still gives a finite, huge estimate.
        let iters = ffw_perf::mean_bicgs_iters(self.size.saturating_mul(self.size), self.tx);
        // The R × N receiver operator `GR`, a Hankel function per entry.
        let gr = GR_ENTRY_FLOPS * rx * n;
        solves * iters * 2.0 * matvec + gr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Json {
        Json::parse(r#"{"id":"job-1","size":32,"tx":4,"rx":8,"iterations":3}"#).expect("parse")
    }

    #[test]
    fn defaults_and_roundtrip() {
        let spec = JobSpec::from_json(&base()).expect("valid");
        assert_eq!(spec.phantom, "cylinder");
        assert_eq!(spec.groups, 1);
        assert_eq!(spec.deadline_ms, None);
        assert_eq!(spec.hops, None);
        assert_eq!(spec.regularizer, Regularizer::default());
        let again = JobSpec::from_json(&spec.to_json()).expect("roundtrip");
        assert_eq!(again, spec);
    }

    /// The largest restart budget `max_restarts` holds is read as itself,
    /// and survives the journal's round trip.
    #[test]
    fn the_largest_restart_budget_roundtrips() {
        let j = Json::parse(r#"{"id":"a","max_restarts":4294967295}"#).expect("parse");
        let spec = JobSpec::from_json(&j).expect("valid");
        assert_eq!(spec.max_restarts, u32::MAX);
        assert_eq!(
            JobSpec::from_json(&spec.to_json()).expect("roundtrip"),
            spec
        );
    }

    #[test]
    fn hop_and_regularizer_jobs_roundtrip() {
        let j = Json::parse(
            r#"{"id":"hop-1","size":32,"tx":4,"rx":8,"iterations":4,
                "hops":"2.0,1.0","regularizer":"wgcv-lsqr:8:0.8"}"#,
        )
        .expect("parse");
        let spec = JobSpec::from_json(&j).expect("valid");
        assert_eq!(spec.hops.as_ref().map(|h| h.len()), Some(2));
        assert_eq!(
            spec.regularizer,
            Regularizer::WgcvLsqr {
                steps: 8,
                omega: 0.8
            }
        );
        // The journal stores `to_json` output; recovery must reparse to the
        // identical spec or a resumed hop job would rebuild a different run.
        let again = JobSpec::from_json(&spec.to_json()).expect("roundtrip");
        assert_eq!(again, spec);
    }

    #[test]
    fn rejections_are_descriptive() {
        for (patch, needle) in [
            (r#"{"id":""}"#, "'id'"),
            (r#"{"id":"a b"}"#, "[A-Za-z0-9._-]"),
            (r#"{"id":"a","size":33}"#, "'size'"),
            (r#"{"id":"a","size":48}"#, "'size'"),
            (r#"{"id":"a","tx":0}"#, "'tx'"),
            (r#"{"id":"a","iterations":0}"#, "'iterations'"),
            (r#"{"id":"a","phantom":"pineapple"}"#, "phantom"),
            (r#"{"id":"a","accuracy":"extreme"}"#, "accuracy"),
            (r#"{"id":"a","backend":"gmres"}"#, "'backend'"),
            (r#"{"id":"a","backend":7}"#, "'backend'"),
            (
                r#"{"id":"a","backend":"born-series"}"#,
                "the forward-engine choice was removed",
            ),
            (r#"{"id":"a","tx":4,"groups":3}"#, "'groups'"),
            (r#"{"id":"a","subtree":3}"#, "'subtree'"),
            (
                r#"{"id":"a","groups":2,"tx":4,"min_groups":2}"#,
                "dropping illumination groups was removed",
            ),
            (r#"{"id":"a","min_groups":"1"}"#, "'min_groups'"),
            (
                r#"{"id":"a","groups":2,"tx":4,"chaos_seed":7}"#,
                "seeded fault injection into jobs was removed",
            ),
            (r#"{"id":"a","contrast":2.0}"#, "'contrast'"),
            // 2^32 used to become 0 restarts through `as u32`
            (r#"{"id":"a","max_restarts":4294967296}"#, "'max_restarts'"),
            (r#"{"id":"a","max_flops":-1}"#, "'max_flops'"),
            (r#"{"id":"a","size":"big"}"#, "'size'"),
            (r#"{"id":"a","hops":"1.0,2.0"}"#, "'hops'"),
            (r#"{"id":"a","hops":"2.0,1.5"}"#, "'hops'"),
            (r#"{"id":"a","hops":7}"#, "'hops'"),
            (
                r#"{"id":"a","hops":"2.0,1.0","iterations":1}"#,
                "'iterations'",
            ),
            (r#"{"id":"a","regularizer":"ridge"}"#, "'regularizer'"),
            (
                r#"{"id":"a","deadline_ms":9007199254740992}"#,
                "'deadline_ms' must be an integer from 0 to 9007199254740991",
            ),
            (r#"{"id":"a","tx":9007199254740993}"#, "'tx'"),
            (r#"{"id":"a","regularizer":"wgcv-lsqr:0"}"#, "'regularizer'"),
            // The removed smoothness prior is an unknown family, named
            // with the two that remain.
            (
                r#"{"id":"a","regularizer":"smoothness:1e-4"}"#,
                "'regularizer': unknown regularizer 'smoothness' (one of tikhonov[:LAMBDA], \
                 wgcv-lsqr[:STEPS[:OMEGA]])",
            ),
        ] {
            let j = Json::parse(patch).expect(patch);
            let err = JobSpec::from_json(&j).expect_err(patch);
            assert!(err.contains(needle), "{patch}: {err}");
        }
    }

    /// What used to be pinned to the serial driver now runs on every grid:
    /// admission refuses no setting for its grid. The legacy `backend`,
    /// `chaos_seed` and `min_groups` keys are accepted at the values that
    /// ask for nothing removed, and not written back.
    #[test]
    fn hops_and_regularizers_are_admitted_on_rank_grids() {
        for patch in [
            r#"{"id":"a","hops":"2.0,1.0","tx":4,"groups":2}"#,
            r#"{"id":"a","hops":"2.0,1.0","tx":4,"groups":2,"chaos_seed":null,"min_groups":1}"#,
            r#"{"id":"a","regularizer":"tikhonov:1e-3","tx":4,"groups":2,"subtree":2}"#,
            r#"{"id":"a","regularizer":"wgcv-lsqr","tx":4,"groups":2,"subtree":2}"#,
            r#"{"id":"a","regularizer":"tikhonov:1e-3","subtree":2}"#,
            r#"{"id":"a","backend":"bicgstab"}"#,
            r#"{"id":"a","backend":null}"#,
        ] {
            let j = Json::parse(patch).expect(patch);
            let spec = JobSpec::from_json(&j).unwrap_or_else(|e| panic!("{patch}: {e}"));
            let json = spec.to_json();
            for key in ["backend", "chaos_seed", "min_groups"] {
                assert!(json.get(key).is_none(), "{patch}: {key}");
            }
        }
    }

    #[test]
    fn geometry_fingerprint_ignores_non_geometry_fields() {
        let a = JobSpec::from_json(&base()).expect("valid");
        let mut b = a.clone();
        b.id = "job-2".into();
        b.iterations = 9;
        b.phantom = "annulus".into();
        b.deadline_ms = Some(100);
        assert_eq!(a.geometry_fingerprint(), b.geometry_fingerprint());
        let mut c = a.clone();
        c.size = 64;
        assert_ne!(a.geometry_fingerprint(), c.geometry_fingerprint());
        let mut d = a.clone();
        d.arc_deg = Some(90.0);
        assert_ne!(a.geometry_fingerprint(), d.geometry_fingerprint());
    }

    #[test]
    fn flop_estimate_scales_with_work() {
        let small = JobSpec::from_json(&base()).expect("valid");
        let mut big = small.clone();
        big.size = 128;
        big.iterations = 10;
        assert!(big.estimated_flops() > 10.0 * small.estimated_flops());
        assert!(small.estimated_flops() > 0.0);
        // Receivers cost `GR` on every job, and a solve each per outer
        // iteration under `wgcv-lsqr`.
        let mut more_rx = small.clone();
        more_rx.rx = 64;
        assert!(more_rx.estimated_flops() > small.estimated_flops());
        let mut wgcv = small.clone();
        wgcv.regularizer = "wgcv-lsqr".parse().expect("spec");
        let mut wgcv_more_rx = wgcv.clone();
        wgcv_more_rx.rx = 64;
        assert!(wgcv_more_rx.estimated_flops() > 2.0 * wgcv.estimated_flops());
    }

    /// Sizes, transmitter and receiver counts whose products overflow
    /// `usize` pass validation; their estimates must stay finite and huge,
    /// never wrap to zero or `NaN` (or panic in a debug build).
    #[test]
    fn flop_estimate_of_an_overflowing_job_is_finite_and_huge() {
        for patch in [
            // 2^32 = 8 * 2^29: a valid size whose square is 2^64
            r#"{"id":"a","size":4294967296}"#,
            // iterations * tx * 3 past 2^64, with tx at the JSON integer
            // limit 2^53 - 1
            r#"{"id":"a","tx":9007199254740991,"iterations":1000}"#,
            // GR alone is ~2^53 x 1024 entries
            r#"{"id":"a","rx":9007199254740991}"#,
        ] {
            let spec = JobSpec::from_json(&Json::parse(patch).expect(patch)).expect(patch);
            let estimate = spec.estimated_flops();
            assert!(
                estimate.is_finite() && estimate > 1e20,
                "{patch}: {estimate:e}"
            );
        }
    }
}
