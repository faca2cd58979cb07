//! Read-only access to an `ffw_obs` snapshot. A span, counter, histogram or
//! series the program does not record reads as `None` — never a failure —
//! so renaming or removing one inside the program degrades a metric to
//! `null` instead of breaking the ladder.

use ffw_obs::Snapshot;

pub struct ObsRead(Snapshot);

impl ObsRead {
    pub fn new(snapshot: Snapshot) -> Self {
        ObsRead(snapshot)
    }

    /// Counter value; `None` when no such counter was ever registered.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.0
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v as f64)
    }

    /// Sum of all samples of a histogram.
    pub fn histogram_sum(&self, name: &str) -> Option<f64> {
        self.0
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| h.sum as f64)
    }

    /// Last value pushed to a series.
    pub fn series_last(&self, name: &str) -> Option<f64> {
        self.0
            .series
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.last().copied())
    }

    pub fn event_count(&self, name: &str) -> usize {
        self.0.events.iter().filter(|e| e.name == name).count()
    }

    /// `(executions, total ns)` over every span path whose segments satisfy
    /// `pick`; `None` when no path does.
    fn span_totals(&self, pick: impl Fn(&[&str]) -> bool) -> Option<(u64, u64)> {
        let mut hit = None;
        for row in &self.0.spans {
            let segments: Vec<&str> = row.path.split('/').collect();
            if pick(&segments) {
                let (count, total) = hit.unwrap_or((0, 0));
                hit = Some((count + row.count, total + row.total_ns));
            }
        }
        hit
    }

    /// Total seconds of the selected span paths.
    pub fn span_secs(&self, pick: impl Fn(&[&str]) -> bool) -> Option<f64> {
        self.span_totals(pick).map(|(_, ns)| ns as f64 * 1e-9)
    }

    /// Mean seconds per execution of the selected span paths.
    pub fn span_mean_secs(&self, pick: impl Fn(&[&str]) -> bool) -> Option<f64> {
        self.span_totals(pick)
            .filter(|(count, _)| *count > 0)
            .map(|(count, ns)| ns as f64 * 1e-9 / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_obs::SpanRow;

    fn row(path: &str, count: u64, total_ns: u64) -> SpanRow {
        SpanRow {
            path: path.into(),
            count,
            total_ns,
            min_ns: 0,
            max_ns: total_ns,
        }
    }

    fn sample() -> ObsRead {
        ObsRead::new(Snapshot {
            spans: vec![
                row("dbim/iter", 2, 4_000_000_000),
                row(
                    "dbim/iter/step/solver.bicgstab/mlfma.apply",
                    10,
                    1_000_000_000,
                ),
                row(
                    "dbim/iter/step/solver.bicgstab/mlfma.apply/near",
                    10,
                    600_000_000,
                ),
                row("solver.bicgstab/mlfma.apply/near", 5, 400_000_000),
            ],
            counters: vec![("mlfma.applies".into(), 42)],
            series: vec![("dbim.lambda".into(), vec![1e-3, 5e-4])],
            ..Default::default()
        })
    }

    #[test]
    fn spans_select_by_path_segments() {
        let obs = sample();
        let near = obs.span_secs(|p| p.ends_with(&["mlfma.apply", "near"]));
        assert_eq!(near, Some(1.0));
        let in_dbim = obs.span_secs(|p| p.first() == Some(&"dbim") && p.last() == Some(&"near"));
        assert!((in_dbim.unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(obs.span_mean_secs(|p| p.last() == Some(&"iter")), Some(2.0));
    }

    #[test]
    fn missing_names_read_as_none() {
        let obs = sample();
        assert_eq!(obs.span_secs(|p| p.last() == Some(&"wgcv")), None);
        assert_eq!(obs.counter("sdc.rolled_back"), None);
        assert_eq!(obs.histogram_sum("mlfma.panel_width"), None);
        assert_eq!(obs.series_last("nope"), None);
        assert_eq!(obs.event_count("solver.breakdown"), 0);
        assert_eq!(obs.counter("mlfma.applies"), Some(42.0));
        assert_eq!(obs.series_last("dbim.lambda"), Some(5e-4));
    }
}
