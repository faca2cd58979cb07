//! Snapshots and their `ffw-obs/1` JSON document.
//!
//! The document (documented in DESIGN.md section 9) is built as a
//! [`Json`] tree, so keys come out sorted and the output is diffable.

use crate::json::{obj, Json};
use crate::metrics::{registry, HIST_BUCKETS};
use crate::span::span_table;
use std::path::Path;
use std::sync::atomic::Ordering;

/// One aggregated span path.
#[derive(Clone, Debug)]
pub struct SpanRow {
    /// Slash-joined path (`reconstruct/dbim/iter`).
    pub path: String,
    /// Number of completed executions.
    pub count: u64,
    /// Sum of execution durations (CPU-time across threads, ns).
    pub total_ns: u64,
    /// Shortest execution (ns).
    pub min_ns: u64,
    /// Longest execution (ns).
    pub max_ns: u64,
}

/// One histogram: non-empty log2 buckets as `(lower_bound, count)`.
#[derive(Clone, Debug)]
pub struct HistogramRow {
    /// Metric name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Non-empty buckets: (inclusive lower bound of the bucket, count).
    pub buckets: Vec<(u64, u64)>,
}

/// One timestamped event.
#[derive(Clone, Debug)]
pub struct EventRow {
    /// Nanoseconds since the process-wide monotonic epoch.
    pub t_ns: u64,
    /// Event name (dotted, like metrics).
    pub name: String,
    /// Free-form detail string.
    pub detail: String,
}

/// A consistent copy of everything recorded so far.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Aggregated spans, sorted by path.
    pub spans: Vec<SpanRow>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramRow>,
    /// Numeric series, sorted by name.
    pub series: Vec<(String, Vec<f64>)>,
    /// Events in record order.
    pub events: Vec<EventRow>,
}

fn lock<'a, T>(m: &'a std::sync::Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn take_snapshot() -> Snapshot {
    let r = registry();
    let spans = lock(span_table())
        .iter()
        .map(|(path, s)| SpanRow {
            path: path.clone(),
            count: s.count,
            total_ns: s.total_ns,
            min_ns: if s.count == 0 { 0 } else { s.min_ns },
            max_ns: s.max_ns,
        })
        .collect();
    let counters = lock(&r.counters)
        .iter()
        .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
        .collect();
    let gauges = lock(&r.gauges)
        .iter()
        .map(|(n, g)| (n.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
        .collect();
    let histograms = lock(&r.histograms)
        .iter()
        .map(|(n, h)| HistogramRow {
            name: n.clone(),
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            buckets: (0..HIST_BUCKETS)
                .filter_map(|i| {
                    let c = h.buckets[i].load(Ordering::Relaxed);
                    (c > 0).then(|| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
                })
                .collect(),
        })
        .collect();
    let series = lock(&r.series)
        .iter()
        .map(|(n, v)| (n.clone(), v.clone()))
        .collect();
    let events = lock(&r.events)
        .iter()
        .map(|(t, n, d)| EventRow {
            t_ns: *t,
            name: n.clone(),
            detail: d.clone(),
        })
        .collect();
    Snapshot {
        spans,
        counters,
        gauges,
        histograms,
        series,
        events,
    }
}

impl Snapshot {
    /// The snapshot as one `ffw-obs/1` document. Integers are JSON numbers,
    /// exact up to 2^53 (104 days, in nanoseconds).
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let text = |s: &str| Json::Str(s.to_string());
        let spans = self.spans.iter().map(|s| {
            obj(vec![
                ("path", text(&s.path)),
                ("count", num(s.count)),
                ("total_ns", num(s.total_ns)),
                ("min_ns", num(s.min_ns)),
                ("max_ns", num(s.max_ns)),
            ])
        });
        let counters = self.counters.iter().map(|(n, v)| (n.clone(), num(*v)));
        let gauges = self.gauges.iter().map(|(n, v)| (n.clone(), Json::Num(*v)));
        let histograms = self.histograms.iter().map(|h| {
            let buckets = h
                .buckets
                .iter()
                .map(|&(lo, c)| Json::Arr(vec![num(lo), num(c)]));
            let row = obj(vec![
                ("count", num(h.count)),
                ("sum", num(h.sum)),
                ("buckets", Json::Arr(buckets.collect())),
            ]);
            (h.name.clone(), row)
        });
        let series = self.series.iter().map(|(n, vals)| {
            let vals = vals.iter().copied().map(Json::Num);
            (n.clone(), Json::Arr(vals.collect()))
        });
        let events = self.events.iter().map(|e| {
            obj(vec![
                ("t_ns", num(e.t_ns)),
                ("name", text(&e.name)),
                ("detail", text(&e.detail)),
            ])
        });
        obj(vec![
            ("schema", text("ffw-obs/1")),
            ("spans", Json::Arr(spans.collect())),
            ("counters", Json::Obj(counters.collect())),
            ("gauges", Json::Obj(gauges.collect())),
            ("histograms", Json::Obj(histograms.collect())),
            ("series", Json::Obj(series.collect())),
            ("events", Json::Arr(events.collect())),
        ])
    }

    /// Writes [`Snapshot::to_json`] to `path`, pretty-printed.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use crate::json::Json;

    #[test]
    fn written_document_parses_back_to_every_recorded_value() {
        let _guard = crate::tests_lock();
        crate::reset();
        crate::set_enabled(true);
        {
            let _root = crate::span("test-export-root");
            let _leaf = crate::span("leaf \"quoted\"");
        }
        crate::counter("test.export.counter").add(7);
        crate::gauge("test.export.gauge").set(1.5);
        crate::gauge("test.export.nan").set(f64::NAN);
        crate::histogram("test.export.hist").record(100);
        crate::series_push("test.export.series", 0.25);
        crate::event("test.export.event", "line1\nline2");
        crate::set_enabled(false);

        let snap = crate::snapshot();
        let path = std::env::temp_dir().join(format!("ffw-obs-test-{}.json", std::process::id()));
        snap.write_to(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let _ = std::fs::remove_file(&path);
        let doc = Json::parse(&text).expect("valid JSON");
        let line = |keys: &[&str]| {
            keys.iter()
                .try_fold(&doc, |v, k| v.get(k))
                .map(Json::to_line)
        };
        let (leaf, t_ns) = (&snap.spans[1], snap.events[0].t_ns);
        for (keys, want) in [
            (&["schema"][..], r#""ffw-obs/1""#.to_string()),
            (&["counters", "test.export.counter"], "7".into()),
            (&["gauges", "test.export.gauge"], "1.5".into()),
            (&["gauges", "test.export.nan"], "null".into()),
            (
                &["histograms", "test.export.hist"],
                r#"{"buckets":[[64,1]],"count":1,"sum":100}"#.into(),
            ),
            (&["series", "test.export.series"], "[0.25]".into()),
            (
                &["events"],
                format!(
                    r#"[{{"detail":"line1\nline2","name":"test.export.event","t_ns":{t_ns}}}]"#
                ),
            ),
        ] {
            assert_eq!(line(keys), Some(want), "{keys:?}");
        }
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(
            spans[1].to_line(),
            format!(
                r#"{{"count":1,"max_ns":{},"min_ns":{},"path":"test-export-root/leaf \"quoted\"","total_ns":{}}}"#,
                leaf.max_ns, leaf.min_ns, leaf.total_ns
            )
        );
    }
}
