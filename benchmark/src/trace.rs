//! In-memory spans recorded at the benchmark's call boundaries.
//!
//! A span has a name, a start and end (nanoseconds since the trace
//! origin), the index of the span that caused it, and the id shared by
//! every span of one batch, pass or chunk. Spans stay in memory until the
//! run ends, then go to a JSON-lines file; the run also prints each
//! layer's self time (its spans' duration minus the part their children
//! cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans beyond this many are counted but not kept, which bounds memory
/// on long traced windows.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let span = Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.push(span)
    }

    /// Set the end of a span recorded before its children finished.
    pub fn close(&mut self, idx: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[idx].end_ns = end_ns;
    }

    pub fn push(&mut self, span: Span) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Spans recorded elsewhere (the server thread's probes), re-rooted
    /// under `parent` and appended.
    pub fn extend(&mut self, spans: &[Span], parent: Option<usize>) {
        let base = self.spans.len();
        for s in spans {
            let parent = match s.parent {
                Some(p) => Some(base + p),
                None => parent,
            };
            if self.push(Span { parent, ..*s }).is_none() {
                break;
            }
        }
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(&covered) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(*cov);
        }
        out
    }

    /// Print the self-time table and write every span to `path`.
    pub fn finish(&self, path: &Path) {
        println!("layer self time (traced window; span name, count, total ms, self ms):");
        for (name, (count, total, own)) in self.self_times() {
            println!(
                "  {name:<24} {count:>9} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        if self.dropped > 0 {
            println!(
                "  ({} spans past the {MAX_SPANS}-span cap not kept)",
                self.dropped
            );
        }
        if let Err(e) = self.write(path) {
            println!("could not write spans to {}: {e}", path.display());
        } else {
            println!("{} spans written to {}", self.spans.len(), path.display());
        }
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
