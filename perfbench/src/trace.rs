//! In-memory span recording for the traced runs. Spans are kept in memory
//! while the run measures and written out as JSONL when it ends, so the
//! recording itself does no I/O on the measured path.

use crate::stats::{self_times, Span};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One thread's span recorder. Spans nest: `end` closes the most recently
/// opened span, whose parent is the span open beneath it.
pub struct Tracer {
    t0: Instant,
    next_id: u64,
    open: Vec<(u64, &'static str, u64, u64)>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `id_base` keeps ids unique across the tracers of several threads.
    pub fn new(t0: Instant, id_base: u64) -> Tracer {
        Tracer {
            t0,
            next_id: id_base + 1,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for the cell or request `group`.
    pub fn begin(&mut self, name: &'static str, group: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.open.push((id, name, group, start));
    }

    /// Close the innermost open span and return its duration in ns.
    pub fn end(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let (id, name, group, start_ns) = self.open.pop().expect("end without begin");
        let parent = self.open.last().map_or(0, |s| s.0);
        self.spans.push(Span {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns,
        });
        end_ns - start_ns
    }
}

/// Per-name totals of a set of spans.
#[derive(Debug, Default)]
pub struct Profile {
    /// name -> (durations in ns, Σ self time in ns)
    by_name: BTreeMap<&'static str, (Vec<u64>, u64)>,
}

impl Profile {
    pub fn new(spans: &[Span]) -> Profile {
        let mut by_name: BTreeMap<&'static str, (Vec<u64>, u64)> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.dur_ns());
            entry.1 += self_ns;
        }
        Profile { by_name }
    }

    /// Durations of every span named `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map(|(d, _)| d.iter().map(|&ns| ns as f64 / 1e3).collect())
            .unwrap_or_default()
    }

    /// Σ duration of every span named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |(d, _)| d.iter().sum::<u64>() as f64)
    }

    /// Σ self time of every span named `name`, in ns.
    pub fn self_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |(_, s)| *s as f64)
    }
}

/// Write spans as JSONL, one object per span, with its self time.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns, self_ns
        )?;
    }
    out.flush()
}
