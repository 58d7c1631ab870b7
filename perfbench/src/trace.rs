//! In-memory span recording for the traced run.
//!
//! Each runner thread owns a [`Recorder`]; a span is opened around one
//! call into a layer's public entry point and closed when it returns.
//! Spans carry their parent (the span open on the same thread when they
//! started, or the thread's root) and the index of the cell they serve,
//! whose hash is the shared id written out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Free-form qualifier, e.g. the protocol of a `core.run` span.
    pub tag: &'static str,
    /// Index of the cell this span serves, if any.
    pub cell: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Recorder {
    thread: u64,
    epoch: Instant,
    root: Option<u64>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for runner thread `thread`; spans opened with nothing
    /// else open get `root` as their parent. `epoch` is shared by every
    /// recorder of a run so timestamps compare across threads.
    pub fn new(thread: u64, epoch: Instant, root: Option<u64>) -> Self {
        Recorder {
            thread,
            epoch,
            root,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        cell: Option<u32>,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let slot = self.spans.len();
        let parent = self.open.last().map(|&i| self.spans[i].id).or(self.root);
        self.spans.push(Span {
            id: (self.thread << 40) | slot as u64,
            parent,
            name,
            tag,
            cell,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(slot);
        let out = f(self);
        self.open.pop();
        self.spans[slot].end_ns = self.now();
        out
    }

    /// The id of the innermost open span.
    pub fn current(&self) -> Option<u64> {
        self.open.last().map(|&i| self.spans[i].id)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Per-name aggregate of a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl Agg {
    /// Mean duration per call in `unit_ns` units (0 without calls).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

/// Aggregates spans by `(name, tag)`, computing self time from each
/// span's children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Agg> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<(&'static str, &'static str), Agg> = BTreeMap::new();
    for s in spans {
        let a = out.entry((s.name, s.tag)).or_default();
        a.calls += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        a.durations_ns.push(s.dur_ns());
    }
    out
}

/// Self time per layer, seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for ((name, _), a) in aggregate(spans) {
        let layer = name.split('.').next().unwrap_or(name);
        *out.entry(layer).or_default() += a.self_ns as f64 * 1e-9;
    }
    out
}

/// Renders spans as JSON lines, naming each span's cell by its hash.
pub fn render_jsonl(spans: &[Span], hashes: &[String]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let cell = s
            .cell
            .and_then(|i| hashes.get(i as usize))
            .map_or("null".to_string(), |h| format!("\"{h}\""));
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\"cell\":{cell},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.tag, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let epoch = Instant::now();
        let mut r = Recorder::new(1, epoch, None);
        r.span("sweep.cell", "", Some(0), |r| {
            r.span("core.run", "HLRC", Some(0), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = r.into_spans();
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let agg = aggregate(&spans);
        let cell = &agg[&("sweep.cell", "")];
        let run = &agg[&("core.run", "HLRC")];
        assert_eq!(cell.self_ns, cell.total_ns - run.total_ns);
        assert!(run.total_ns >= 5_000_000);
        let layers = layer_self_s(&spans);
        assert!(layers["core"] > layers["sweep"]);
        let text = render_jsonl(&spans, &["abc".to_string()]);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"cell\":\"abc\""));
    }
}
