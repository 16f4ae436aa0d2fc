//! In-memory spans: name, start, end, the span that caused it, and the
//! request they belong to. Kept in memory during the run, written out
//! at its end, and reduced to per-layer self times for the ledger.

use std::io;
use std::path::Path;
use std::time::Instant;

use crate::spec::Spec;
use crate::stats::median_of;

/// One recorded interval. `parent` indexes the span list.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    parent: Option<u32>,
    request: u32,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn start() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn at(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: usize,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            request: request as u32,
        });
        (self.spans.len() - 1) as u32
    }

    /// A child whose duration is known (a stage timer the program
    /// already keeps) but not its position: laid end to end from
    /// `cursor_ns`, which it advances.
    pub fn push_counted(
        &mut self,
        name: &'static str,
        cursor_ns: &mut u64,
        nanos: u64,
        parent: u32,
        request: usize,
    ) {
        self.spans.push(Span {
            name,
            start_ns: *cursor_ns,
            end_ns: *cursor_ns + nanos,
            parent: Some(parent),
            request: request as u32,
        });
        *cursor_ns += nanos;
    }

    /// Median self time per span name, in µs: a span's duration minus
    /// the part of it its children cover.
    pub fn self_times_us(&self) -> Vec<(&'static str, f64)> {
        let mut covered = vec![0u64; self.spans.len()];
        // Children of one parent never overlap here (they are recorded
        // one after the other), so their cover is their summed length.
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for (span, cover) in self.spans.iter().zip(&covered) {
            let own = (span.end_ns - span.start_ns).saturating_sub(*cover) as f64 / 1e3;
            match by_name.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, v)) => v.push(own),
                None => by_name.push((span.name, vec![own])),
            }
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| (name, median_of(&mut v)))
            .collect()
    }

    pub fn write_json(
        &self,
        path: &Path,
        spec: &Spec,
        seed: u64,
        ledger: &[(String, f64)],
    ) -> io::Result<()> {
        use std::fmt::Write as _;
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"ledger_us\": {{",
            spec.name
        );
        for (k, (name, us)) in ledger.iter().enumerate() {
            let _ = write!(out, "{}\"{name}\": {us}", if k > 0 { ", " } else { "" });
        }
        out.push_str("}, \"spans\": [\n");
        for (k, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {k}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if k + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
