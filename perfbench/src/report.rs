//! Metric names, the printed report and the final JSON result line.

/// End-to-end metrics, reported by every workload from its untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("extract_f1", "ratio"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer
/// the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.respond_us", "us"),
    ("serve.reactor_us", "us"),
    ("serve.shed", "count"),
    ("json.decode_us", "us"),
    ("json.decode_bytes", "bytes"),
    ("json.encode_us", "us"),
    ("json.encode_bytes", "bytes"),
    ("dom.parse_us", "us"),
    ("dom.parse_bytes", "bytes"),
    ("dom.nodes", "count"),
    ("registry.lookup_us", "us"),
    ("registry.faults", "count"),
    ("registry.evictions", "count"),
    ("registry.grace_hits", "count"),
    ("registry.fault_ratio", "ratio"),
    ("xpath.eval_us", "us"),
    ("xpath.full_replays", "count"),
    ("xpath.frame_replays", "count"),
    ("xpath.record_replays", "count"),
    ("xpath.record_fallbacks", "count"),
    ("xpath.misses", "count"),
    ("xpath.replay_ratio", "ratio"),
    ("core.materialize_us", "us"),
    ("core.values", "count"),
    ("health.observe_us", "us"),
    ("health.degraded", "count"),
    ("health.retained_pages", "count"),
    ("setup.spawn_ms", "ms"),
    ("setup.warm_ms", "ms"),
    ("annotate.us", "us"),
    ("annotate.labels", "count"),
    ("enumerate.us", "us"),
    ("enumerate.inductor_calls", "count"),
    ("enumerate.space_size", "count"),
    ("rank.us", "us"),
    ("rank.candidates", "count"),
    ("compile.us", "us"),
    ("http.open_p50_us", "us"),
    ("http.open_p99_us", "us"),
    ("http.pipelined_per_s", "1/s"),
    ("loadgen.late_p99_us", "us"),
    ("calib.slowdown", "ratio"),
    ("trace.sum_error_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// What one `measure` run found.
#[derive(Default)]
pub struct RunResult {
    /// Every checked output matched its oracle.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; end-to-end and per-layer share the map.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra lines printed before the metrics (context, not metrics).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Prints the human-readable report, then the result line: the
    /// end-to-end metrics, or with `trace` the per-layer ones.
    pub fn print(&self, trace: bool) {
        for note in &self.notes {
            println!("# {note}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# attempted {} failed {} error_rate {error_rate:.6} correct {}",
            self.attempted, self.failed, self.correct
        );
        let shown = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(shown.len());
        for &(name, unit) in shown {
            let value = self.get(name);
            println!("{name:<28} {value:>16.4} {unit}");
            // Display of a finite f64 is its shortest exact decimal form,
            // never an exponent: valid JSON with all its digits.
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}
