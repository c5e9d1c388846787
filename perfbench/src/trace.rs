//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and an end, an optional parent span and the
//! id of the step or request it belongs to. Spans stay in memory while the
//! workload runs and are written out as JSON lines when it ends; self time
//! (a span's duration minus the part its children cover) is computed from
//! the recorded intervals.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over a recording.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Drops every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Opens a span now; [`Recorder::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.spans[parent].id;
        let s = self.open(name, Some(parent), id);
        let out = f();
        self.close(s);
        out
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to its own.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

/// Mean cost of recording one span through [`Recorder::span`], in ns,
/// measured on an empty body. Used to estimate what tracing adds.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut rec = Recorder::new();
    let root = rec.open("calibrate", None, 0);
    let t = Instant::now();
    for _ in 0..N {
        rec.span("probe", root, || std::hint::black_box(()));
    }
    t.elapsed().as_nanos() as f64 / N as f64
}
