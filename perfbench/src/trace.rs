//! Outside-in span recorder for the traced runs.
//!
//! Each span records its name, start, end, parent and a run or request
//! id. Spans stay in memory while the workload runs and are written out
//! once at exit, so recording costs one `Instant` read and one push.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a root span timed elsewhere (another thread).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span { name, start_ns, end_ns, parent: None, id });
    }

    /// Total duration and self time (duration minus the part covered by
    /// child spans) per span name, in ns.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.duration_ns();
            e.1 += s.duration_ns().saturating_sub(child);
        }
        out
    }

    /// One line per span name: calls, total and self time.
    pub fn self_time_lines(&self) -> Vec<String> {
        self.totals()
            .into_iter()
            .map(|(name, (total, own))| {
                format!(
                    "span {name}: {} calls, {:.3} ms total, {:.3} ms self",
                    self.count(name),
                    total as f64 / 1e6,
                    own as f64 / 1e6
                )
            })
            .collect()
    }

    /// Total ns spent in spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let totals = t.totals();
        let (outer_total, outer_self) = totals["outer"];
        let (inner_total, _) = totals["inner"];
        assert_eq!(outer_self, outer_total - inner_total);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.count("inner"), 1);
    }
}
