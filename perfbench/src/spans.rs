//! Block-level tracing from outside the program: one span per call into
//! a layer's public function, kept in a buffer allocated before the run
//! and written out once the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layers a window passes through, in span-name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The harness generating the agents' sample sets (not the program).
    Gen,
    /// `should_send` + `push_sample_set` + `take_bytes`.
    Encode,
    /// The controller window: its children are the next three layers.
    Window,
    /// `stream_window_with`.
    Ingest,
    /// `FleetEstimator::estimate`.
    Estimate,
    /// `AnomalyDetector::update`.
    Anomaly,
    /// `AnomalyDetector::decimation` per machine, applied to the encoder
    /// where the workload closes the loop.
    Grant,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Gen,
        Layer::Encode,
        Layer::Window,
        Layer::Ingest,
        Layer::Estimate,
        Layer::Anomaly,
        Layer::Grant,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "bench.gen",
            Layer::Encode => "wire.encode",
            Layer::Window => "window",
            Layer::Ingest => "wire.ingest",
            Layer::Estimate => "fleet.estimate",
            Layer::Anomaly => "fleet.anomaly",
            Layer::Grant => "fleet.grant",
        }
    }
}

/// Parent index of a span that has none.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub window: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    epoch: Instant,
    buf: Vec<Span>,
}

impl Spans {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            epoch: Instant::now(),
            buf: Vec::with_capacity(spans),
        }
    }

    /// Records one span and returns its index (the parent handle of its
    /// children).
    pub fn record(
        &mut self,
        layer: Layer,
        window: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let at = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            layer,
            window: window as u32,
            parent,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.buf.push(span);
        (self.buf.len() - 1) as u32
    }

    pub fn all(&self) -> &[Span] {
        &self.buf
    }

    /// Writes every span as a tab-separated table, after a `# meta`
    /// comment line.
    pub fn write(&self, path: &Path, meta: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {meta}")?;
        writeln!(out, "span\twindow\tparent\tlayer\tstart_ns\tend_ns")?;
        for (i, s) in self.buf.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.window,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
