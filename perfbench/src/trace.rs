//! In-memory spans around calls into each layer.
//!
//! A span holds its name, start, end, parent span and a group id (one
//! session or one solve). Spans are kept in memory and written out when
//! the run ends; a layer's self time is its span's duration minus the part
//! of that interval its child spans cover. A disabled tracer records
//! nothing, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub group: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An open span; close it with [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: usize,
    name: &'static str,
    parent: Option<usize>,
    group: u64,
    start: Duration,
}

/// The id of an open span, for use as a parent.
pub fn id_of(open: &Option<Open>) -> Option<usize> {
    open.as_ref().map(|o| o.id)
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<(usize, Vec<Span>)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: Mutex::new((0, Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; `None` when tracing is off.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, group: u64) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let id = {
            let mut st = self.state.lock().expect("tracer lock poisoned");
            st.0 += 1;
            st.0
        };
        Some(Open {
            id,
            name,
            parent,
            group,
            start: self.epoch.elapsed(),
        })
    }

    pub fn end(&self, open: Option<Open>) {
        if let Some(o) = open {
            let end = self.epoch.elapsed();
            self.state
                .lock()
                .expect("tracer lock poisoned")
                .1
                .push(Span {
                    id: o.id,
                    name: o.name,
                    parent: o.parent,
                    group: o.group,
                    start: o.start,
                    end,
                });
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, group);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.state.lock().expect("tracer lock poisoned").1.clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Durations of every span named `name`, in seconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration().as_secs_f64())
        .collect()
}

/// Self time of each span: its duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: BTreeMap<usize, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = Duration::ZERO;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// The spans as JSON lines, plus one summary line per span name with its
/// count, total time and self time.
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    let mut summary: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"group\":{},\"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{:.9}}}",
            s.id,
            s.name,
            parent,
            s.group,
            s.start.as_secs_f64(),
            s.end.as_secs_f64(),
            own.as_secs_f64()
        );
        let e = summary.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration().as_secs_f64();
        e.2 += own.as_secs_f64();
    }
    for (name, (count, total, own)) in summary {
        let _ = writeln!(
            out,
            "{{\"summary\":\"{name}\",\"count\":{count},\"total_s\":{total:.9},\"self_s\":{own:.9}}}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            id,
            name: "x",
            parent,
            group: 0,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], Duration::from_millis(100 - 40 - 10));
        assert_eq!(selfs[1], Duration::from_millis(20));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.scope("a", None, 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
