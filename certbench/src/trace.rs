//! In-memory spans recorded from the benchmark's own code around each call
//! into a library layer, written out as JSON lines when a traced run ends.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// One timed call: what it was, where in the network (or which request) it
/// belongs, and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Network layer, or `None` outside the per-layer loop.
    pub layer: Option<usize>,
    /// Neuron index within `layer`, or the request index on the serve path.
    pub item: Option<usize>,
    pub parent: Option<usize>,
    /// How the call met the caches (`miss`, `hot`, …), where that applies.
    pub tag: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder. Disabled, it records nothing and reads no clock, so the
/// same code path measures the untraced baseline.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
#[derive(Copy, Clone, Debug)]
pub struct Open(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        layer: Option<usize>,
        item: Option<usize>,
        parent: Option<Open>,
    ) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            item,
            parent: parent.map(|p| p.0),
            tag: None,
            start_ns,
            end_ns: start_ns,
        });
        Open(self.spans.len() - 1)
    }

    pub fn end(&mut self, open: Open) {
        if self.enabled {
            self.spans[open.0].end_ns = self.now_ns();
        }
    }

    pub fn tag(&mut self, open: Open, tag: &'static str) {
        if self.enabled {
            self.spans[open.0].tag = Some(tag);
        }
    }

    /// Total seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// Writes the spans as JSON lines to `certbench/.trace/<file>` and
    /// returns the path.
    pub fn write(&self, file: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".trace");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(file);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":{},\"item\":{},\"parent\":{},\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.layer),
                opt(s.item),
                opt(s.parent),
                s.tag.map_or("null".to_string(), |t| format!("\"{t}\"")),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}
