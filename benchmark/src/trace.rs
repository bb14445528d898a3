//! In-memory spans around the harness's own calls into the simulator,
//! written out once at exit in Chrome-trace format (load the file in
//! `chrome://tracing` or Perfetto).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::escape;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<&'static str>,
    pass: u32,
    start_us: f64,
    dur_us: f64,
}

/// Collects spans relative to its creation instant.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    passes: u32,
    /// The pass spans are recorded in; 0 outside any pass.
    pass: u32,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            passes: 0,
            pass: 0,
            spans: Vec::new(),
        }
    }

    /// Starts a new pass: spans recorded until [`Tracer::end_pass`] share
    /// its identifier.
    pub fn begin_pass(&mut self) {
        self.passes += 1;
        self.pass = self.passes;
    }

    /// Ends the current pass; later spans belong to no pass (identifier 0).
    pub fn end_pass(&mut self) {
        self.pass = 0;
    }

    /// Records a span named `name` from `start` to `end`, caused by the
    /// enclosing span `parent`.
    pub fn span(&mut self, name: &str, parent: Option<&'static str>, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            pass: self.pass,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us: (end - start).as_secs_f64() * 1e6,
        });
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span as a Chrome-trace JSON file at `path`, creating
    /// its directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"harness\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"pass\":{},\"parent\":\"{}\"}}}}",
                escape(&s.name),
                s.start_us,
                s.dur_us,
                s.pass,
                s.parent.unwrap_or(""),
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
