//! Bench-side spans: one record per call into a layer, kept in memory and
//! written out when the traced run ends.
//!
//! These are the ladder's own spans, recorded *around* calls into public
//! functions; spans inside the program (`ffw_obs`) aggregate by path and are
//! only read. A span's self time is its duration minus the part of that
//! interval its direct children cover.

use ffw_serve::json::{obj, Json};
use std::collections::BTreeMap;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one rep share this identifier.
    pub rep_id: u32,
}

/// In-memory span recorder with an explicit open/close stack.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep_id: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new rep and returns its id: later spans carry it.
    pub fn next_rep(&mut self) -> u32 {
        self.rep_id += 1;
        self.rep_id
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns `f`'s result with the span's duration in seconds.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ffw_obs::monotonic_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            rep_id: self.rep_id,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = ffw_obs::monotonic_ns();
        self.spans[id].end_ns = end;
        (out, (end - self.spans[id].start_ns) as f64 * 1e-9)
    }

    /// Adds an already-timed span (e.g. one `TimedG0` apply) as a child of
    /// the innermost open span and returns its index.
    pub fn leaf(&mut self, name: &str, start_ns: u64, end_ns: u64) -> usize {
        self.leaf_under(self.stack.last().copied(), name, start_ns, end_ns)
    }

    /// Adds an already-timed span under an explicit parent.
    pub fn leaf_under(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            rep_id: self.rep_id,
        });
        self.spans.len() - 1
    }

    /// Id of the current rep.
    pub fn rep_id(&self) -> u32 {
        self.rep_id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `{"spans":[{name,start_ns,end_ns,parent,rep_id}, ...]}` plus the
    /// caller's header fields.
    pub fn to_json(&self, mut header: Vec<(&str, Json)>) -> Json {
        let rows = self
            .spans
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("rep_id", Json::Num(f64::from(s.rep_id))),
                ])
            })
            .collect();
        header.push(("spans", Json::Arr(rows)));
        obj(header)
    }
}

/// Self time of every span in nanoseconds: duration minus the union of its
/// direct children's intervals, clipped to the span (overlapping or
/// overhanging children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name within one rep: `(executions, total seconds, self seconds)`.
pub fn by_name(spans: &[Span], rep_id: u32) -> BTreeMap<&str, (usize, f64, f64)> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        if s.rep_id == rep_id {
            let e = out.entry(s.name.as_str()).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 * 1e-9;
            e.2 += self_ns as f64 * 1e-9;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            rep_id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("forward", 10, 40, Some(0)),
            span("recon", 40, 90, Some(0)),
            span("apply", 45, 55, Some(2)),
            span("apply", 60, 80, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 20, 10, 20]);
        let names = by_name(&spans, 0);
        let close = |got: (usize, f64, f64), want: (usize, f64, f64)| {
            got.0 == want.0 && (got.1 - want.1).abs() < 1e-15 && (got.2 - want.2).abs() < 1e-15
        };
        assert!(
            close(names["apply"], (2, 30e-9, 30e-9)),
            "{:?}",
            names["apply"]
        );
        assert!(
            close(names["recon"], (1, 50e-9, 20e-9)),
            "{:?}",
            names["recon"]
        );
        assert!(by_name(&spans, 1).is_empty());
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("parent", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 50, 80, Some(0)),
            // starts before and ends after the parent: clipped to it
            span("c", 0, 15, Some(0)),
            span("d", 100, 200, Some(0)),
        ];
        // covered: [10,15] + [20,80] + [100,110] = 75
        assert_eq!(self_times_ns(&spans)[0], 25);
    }

    #[test]
    fn tracer_nests_scopes_and_tags_reps() {
        let mut t = Tracer::new();
        assert_eq!(t.next_rep(), 1);
        let ((), outer_s) = t.scope("rep", |t| {
            t.scope("forward", |_| ());
            t.leaf("apply", 1, 2);
        });
        assert!(outer_s >= 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.rep_id == 1));
        assert!(s[0].end_ns >= s[1].end_ns);
        let json = t.to_json(vec![("workload", Json::Str("w".into()))]);
        assert_eq!(
            json.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(json.get("workload").and_then(Json::as_str), Some("w"));
    }
}
