//! Harness-side spans: recorded around calls into each layer's public
//! functions, kept in memory, written out when the run ends.
//!
//! Nothing here reaches into the product crates; a span is whatever the
//! harness wraps in [`Tracer::span`]. With the tracer off the same code
//! runs unrecorded, which is what the tracing-overhead figure compares.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Spans of one replayed request share this.
    pub request: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<u64>,
    /// Counts taken at a span boundary: (span, name, value).
    counts: Vec<(usize, &'static str, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`] for one replayed request: the span and everything
    /// under it carry `request`.
    pub fn request<T>(
        &mut self,
        request: u64,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.request = Some(request);
        let out = self.span(name, f);
        self.request = None;
        out
    }

    /// Records a count at the innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let (true, Some(&at)) = (self.enabled, self.open.last()) {
            self.counts.push((at, name, value));
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Values of every count called `name`.
    pub fn counted(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|(_, n, _)| *n == name)
            .map(|(_, _, v)| *v)
            .collect()
    }

    /// Each span's duration minus what its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// For every root span called `root`: the share of its duration that
    /// the self times of the spans below it account for. What is missing
    /// is time the harness spent between layer calls, untraced.
    pub fn coverage(&self, root: &str) -> Vec<f64> {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|r| {
                let below: u64 = self
                    .spans
                    .iter()
                    .filter(|s| s.id != r.id && self.root_of(s.id) == r.id)
                    .map(|s| own[s.id])
                    .sum();
                below as f64 / (r.end_ns - r.start_ns).max(1) as f64
            })
            .collect()
    }

    fn root_of(&self, mut id: usize) -> usize {
        while let Some(p) = self.spans[id].parent {
            id = p;
        }
        id
    }

    /// One JSON object per line: spans first, then counts.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                s.name,
                s.start_ns,
                s.end_ns,
                own[s.id]
            )?;
        }
        for (at, name, value) in &self.counts {
            writeln!(
                out,
                "{{\"count\": \"{name}\", \"at_span\": {at}, \"value\": {value}}}"
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("replay", |t| {
            spin(200);
            t.request(7, "serve.handle_line", |t| {
                spin(200);
                t.span("resident.query", |t| {
                    spin(400);
                    t.count("rows", 3.0);
                });
            });
        });
        let names: Vec<_> = t
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            names,
            [
                ("replay", None, None),
                ("serve.handle_line", Some(0), Some(7)),
                ("resident.query", Some(1), Some(7)),
            ]
        );
        let own = t.self_times_ns();
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(
            own.iter().sum::<u64>(),
            total,
            "self times partition the root"
        );
        assert!(own[2] >= 400_000 && own[1] >= 200_000 && own[1] < own[2] + 200_000);
        assert_eq!(t.counted("rows"), [3.0]);
        // The root spent ~200 of ~800 µs outside any child.
        let cov = t.coverage("replay")[0];
        assert!(cov > 0.5 && cov < 0.9, "{cov}");
    }

    #[test]
    fn a_disabled_tracer_runs_the_code_and_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 41) + 1);
        assert_eq!(v, 42);
        assert!(t.spans.is_empty());
        assert!(t.durations_us("x").is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span_and_count() {
        let dir = crate::child::WorkDir::new("trace-test").expect("work dir");
        let mut t = Tracer::new(true);
        t.span("a", |t| {
            t.count("n", 2.0);
            t.span("b", |_| ());
        });
        let path = dir.path().join("t.jsonl");
        t.write_jsonl(&path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0]
            .starts_with("{\"span\": 0, \"parent\": null, \"request\": null, \"name\": \"a\""));
        assert!(lines[1].contains("\"parent\": 0"));
        assert_eq!(lines[2], "{\"count\": \"n\", \"at_span\": 0, \"value\": 2}");
    }
}
