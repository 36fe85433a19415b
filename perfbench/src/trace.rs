//! Bench-side spans: name, start, end, parent span and a shared op id,
//! kept in memory and written out as JSON lines when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The operation this span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An open span; close it with [`Spans::end`].
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    op: u64,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One thread's span buffer. Buffers sharing an epoch merge into one
/// timeline; `id_base` keeps span ids unique across buffers.
pub struct Spans {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, id_base: u64) -> Self {
        Spans {
            epoch,
            next: id_base,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<u64>) -> Open {
        self.next += 1;
        Open {
            id: self.next,
            parent,
            name,
            op,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open`, returning its duration in µs.
    pub fn end(&mut self, open: Open) -> f64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: open.op,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        let d = span.dur_us();
        self.spans.push(span);
        d
    }
}

/// Per span name, the self time (duration minus the part its children
/// cover) of every span, in µs.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        out.entry(s.name).or_default().push(own as f64 / 1e3);
    }
    out
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                name: "op",
                op: 7,
                start_ns: 0,
                end_ns: 10_000,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "child",
                op: 7,
                start_ns: 1_000,
                end_ns: 4_000,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], vec![7.0]);
        assert_eq!(t["child"], vec![3.0]);
    }
}
