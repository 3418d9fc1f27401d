//! Host-speed calibration. The effective speed of a shared host drifts
//! by up to 2× over tens of seconds, far more than the changes the
//! benchmark must resolve. A fixed reference kernel — markup scanning
//! with small allocations and a name table, the same shape of work as
//! the request path, but written here and independent of the program
//! under test — is timed right beside every measured window; the window's
//! timings are scaled by how much slower than nominal the kernel ran.
//! Reported times are therefore in nominal-host units; raw times are
//! printed beside them.
//!
//! Every timed window is at most [`SLICE`] long: the drift is fast
//! enough that one sample before and one after a longer window miss it.
//! Samples are taken between windows, never inside one, so their own
//! time is not counted.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Longest window one pair of calibration samples may cover.
pub const SLICE: Duration = Duration::from_millis(200);
/// A sample older than this is not reused as the "before" of a window:
/// something untimed ran since it was taken.
const FRESH: Duration = Duration::from_millis(20);

/// Kernel time, in milliseconds, of one calibration sample on this
/// benchmark's reference host when it is quiet (2-vCPU VM).
const NOMINAL_MS: f64 = 0.38;
/// Kernel runs per sample; the sample is their median.
const REPS: usize = 15;

pub struct Calibration {
    input: String,
    /// Every sample's slowdown factor, in order.
    factors: Vec<f64>,
    /// The latest sample and when it ended, reused as the "before" of
    /// the next window while fresh.
    last: Option<(f64, Instant)>,
}

impl Calibration {
    pub fn new() -> Calibration {
        const WORDS: [&str; 8] = [
            "ACME", "Elm", "Harbor", "Supply", "North", "Oak", "Depot", "Main",
        ];
        let mut input = String::from(
            "<html><body><div class='nav'><a href='#'>Home</a></div><table class='list'>",
        );
        for i in 0..240 {
            let w = |k: usize| WORDS[(i * 7 + k * 3) % WORDS.len()];
            input.push_str(&format!(
                "<tr><td><b>{} {} &amp; {}</b></td><td>{} {} St.</td><td>({}) 555-{:04}</td></tr>",
                w(0),
                w(1),
                w(2),
                i * 13 % 9000 + 1,
                w(3),
                200 + i % 700,
                i * 37 % 10_000
            ));
        }
        input.push_str("</table><div class='footer'>All rights reserved</div></body></html>");
        Calibration {
            input,
            factors: Vec::new(),
            last: None,
        }
    }

    /// Times the kernel now; returns this sample's slowdown factor
    /// (1 = nominal, 2 = the host runs at half speed).
    pub fn sample(&mut self) -> f64 {
        let mut times: Vec<f64> = (0..REPS)
            .map(|_| {
                let started = Instant::now();
                black_box(kernel(black_box(&self.input)));
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);
        let factor = times[REPS / 2] / NOMINAL_MS;
        self.factors.push(factor);
        self.last = Some((factor, Instant::now()));
        factor
    }

    /// Runs `window`, which should take at most [`SLICE`], and returns
    /// its result with the slowdown factor around it: the mean of the
    /// samples just before and just after.
    pub fn around<R>(&mut self, window: impl FnOnce() -> R) -> (R, f64) {
        let before = match self.last {
            Some((factor, at)) if at.elapsed() < FRESH => factor,
            _ => self.sample(),
        };
        let out = window();
        let after = self.sample();
        (out, (before + after) / 2.0)
    }

    /// The median factor over every sample so far.
    pub fn median(&self) -> f64 {
        let mut factors = self.factors.clone();
        crate::report::median(&mut factors)
    }
}

/// Scans markup into a node list: tag names interned in a table,
/// attributes and text copied into owned strings, `&amp;` decoded.
fn kernel(html: &str) -> usize {
    enum Node {
        Tag(u32, Vec<(String, String)>),
        Text(String),
    }
    let mut names: HashMap<String, u32> = HashMap::new();
    let mut nodes: Vec<Node> = Vec::new();
    let bytes = html.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'<' {
            let end = html[i..].find('>').map_or(bytes.len(), |e| i + e);
            let mut parts = html[i + 1..end].split(' ');
            let name = parts
                .next()
                .unwrap_or("")
                .trim_start_matches('/')
                .to_ascii_lowercase();
            let next = names.len() as u32;
            let id = *names.entry(name).or_insert(next);
            let attrs = parts
                .filter_map(|p| p.split_once('='))
                .map(|(k, v)| (k.to_string(), v.trim_matches('\'').to_string()))
                .collect();
            nodes.push(Node::Tag(id, attrs));
            i = end + 1;
        } else {
            let end = html[i..].find('<').map_or(bytes.len(), |e| i + e);
            nodes.push(Node::Text(html[i..end].replace("&amp;", "&")));
            i = end;
        }
    }
    nodes
        .iter()
        .map(|n| match n {
            Node::Tag(id, attrs) => *id as usize + attrs.len(),
            Node::Text(t) => t.len(),
        })
        .sum()
}
