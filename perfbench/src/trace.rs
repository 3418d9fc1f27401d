//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the ledger of per-layer self time they reduce to. Spans
//! keep raw clock times; each also carries the host slowdown factor of
//! the calibrated window it ran in, and every duration the recorder
//! reports is divided by it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Largest accepted gap between the summed layer self times of a traced
/// run and the untraced time of the same work, in percent of the latter.
/// A traced run whose gap exceeds it is not correct.
pub const SUM_TOLERANCE_PCT: f64 = 15.0;

/// The gap between summed layer self times and the untraced time of the
/// same work, in percent of the latter, whichever is larger.
pub fn sum_error_pct(layers: f64, untraced: f64) -> f64 {
    100.0 * (layers - untraced).abs() / untraced
}

pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (serving) or site (learning) the span belongs to.
    pub request: u64,
    /// Slowdown factor of the span's calibration window (1 until set).
    pub factor: f64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
            factor: 1.0,
        });
        self.spans.len() - 1
    }

    /// The index the next span will get: pass it to
    /// [`Recorder::calibrate`] once the window that starts here is over.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Sets the slowdown factor of every span since `mark`.
    pub fn calibrate(&mut self, mark: usize, factor: f64) {
        for span in &mut self.spans[mark..] {
            span.factor = factor;
        }
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }

    /// Calibrated self time per span name in microseconds: each span's
    /// duration minus the part its child spans cover.
    pub fn self_micros(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end - span.start).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e3 / span.factor;
        }
        out
    }

    /// Calibrated total duration per span name in microseconds.
    pub fn total_micros(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3 / s.factor)
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `request name start_ns end_ns parent factor`, times raw.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        writeln!(out, "request\tname\tstart_ns\tend_ns\tparent\tfactor").map_err(fail)?;
        for span in &self.spans {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{parent}\t{}",
                span.request, span.name, span.start, span.end, span.factor
            )
            .map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}
