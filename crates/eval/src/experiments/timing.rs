//! Figure 2(c): wall-clock running time of TopDown vs BottomUp
//! enumeration for XPATH wrappers, per website.

use aw_enum::{bottom_up, top_down};
use aw_induct::{NodeSet, XPathInductor};
use aw_pool::Executor;
use aw_sitegen::GeneratedSite;
use serde::Serialize;
use std::time::Instant;

/// Per-site enumeration timings (seconds).
#[derive(Clone, Debug, Serialize)]
pub struct TimingRow {
    /// Site id.
    pub site: usize,
    /// Label count after capping.
    pub labels: usize,
    /// TopDown wall-clock seconds.
    pub top_down_secs: f64,
    /// BottomUp wall-clock seconds.
    pub bottom_up_secs: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize)]
pub struct TimingResult {
    /// Rows sorted by ascending TopDown time.
    pub rows: Vec<TimingRow>,
}

/// Runs the experiment (XPATH wrappers, as in the paper's Figure 2(c)).
pub fn run<F>(sites: &[GeneratedSite], labels_of: F) -> TimingResult
where
    F: Fn(&GeneratedSite) -> NodeSet + Sync,
{
    let mut rows: Vec<TimingRow> = Executor::global()
        .map(sites, |gs| {
            let labels = super::calls::cap_labels_pub(labels_of(gs), super::calls::LABEL_CAP);
            if labels.is_empty() {
                return None;
            }
            let ind = XPathInductor::new(&gs.site);
            let t0 = Instant::now();
            let td = top_down(&ind, &labels);
            let top_down_secs = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let bu = bottom_up(&ind, &labels);
            let bottom_up_secs = t1.elapsed().as_secs_f64();
            debug_assert_eq!(td.extraction_set(), bu.extraction_set());
            Some(TimingRow {
                site: gs.id,
                labels: labels.len(),
                top_down_secs,
                bottom_up_secs,
            })
        })
        .into_iter()
        .flatten()
        .collect();
    rows.sort_by(|a, b| a.top_down_secs.total_cmp(&b.top_down_secs));
    TimingResult { rows }
}

impl std::fmt::Display for TimingResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Enumeration running time for XPATH (seconds per website)"
        )?;
        writeln!(
            f,
            "{:>6} {:>5} {:>12} {:>12}",
            "site", "|L|", "TopDown", "BottomUp"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>5} {:>12.6} {:>12.6}",
                r.site, r.labels, r.top_down_secs, r.bottom_up_secs
            )?;
        }
        let med = |v: Vec<f64>| aw_align::stats::median(&v);
        writeln!(
            f,
            "median: TopDown={:.6}s BottomUp={:.6}s (ratio {:.1}x)",
            med(self.rows.iter().map(|r| r.top_down_secs).collect()),
            med(self.rows.iter().map(|r| r.bottom_up_secs).collect()),
            med(self
                .rows
                .iter()
                .map(|r| r.bottom_up_secs / r.top_down_secs.max(1e-9))
                .collect()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_annotate::{DictionaryAnnotator, MatchMode};
    use aw_sitegen::{generate_dealers, DealersConfig};

    #[test]
    fn timing_rows_produced() {
        let ds = generate_dealers(&DealersConfig::small(4, 31));
        let annotator = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        let result = run(&ds.sites, |s| annotator.annotate(&s.site));
        assert!(!result.rows.is_empty());
        for r in &result.rows {
            assert!(r.top_down_secs >= 0.0 && r.bottom_up_secs >= 0.0);
        }
        assert!(result.to_string().contains("BottomUp"));
    }
}
