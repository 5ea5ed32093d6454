//! In-memory spans recorded around the benchmark's own calls into each
//! layer (nothing inside the program is instrumented). Spans nest; a
//! layer's self time is its spans' durations minus what their children
//! cover. The spans are written out once, when the run ends.

use crate::common::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder.
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        let now = self.now_ns();
        let id = self.open.pop().expect("end() without begin()");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Self time (ns) per span name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Total (inclusive) time (ns) per span name.
    pub fn total_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// Writes every span as JSON: `{"spans": [[name, parent, start_ns,
    /// end_ns], ...]}` with `parent` = -1 at the root.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.into()),
                    Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::obj([("spans", Json::Arr(spans))]).render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let total = t.total_ns();
        let own = t.self_ns();
        assert!(total["outer"] >= total["inner"]);
        assert_eq!(own["outer"], total["outer"] - total["inner"]);
    }
}
