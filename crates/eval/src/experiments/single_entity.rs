//! Appendix B.2: single-entity extraction — album titles on DISC.
//!
//! The annotator is "very noisy" (titles recur as title tracks and inside
//! reviews); the framework enumerates, filters wrappers that extract more
//! than one node per page, and keeps the label-coverage maximizers. The
//! paper reports that this learns a correct wrapper on every website, with
//! occasional ties between multiple correct title locations.

use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_core::{learn_single_entity, NtwConfig};
use aw_induct::NodeSet;
use aw_pool::Executor;
use aw_sitegen::DiscDataset;
use serde::Serialize;

/// Per-site outcome of the single-entity experiment.
#[derive(Clone, Debug, Serialize)]
pub struct SingleEntityRow {
    /// Site id.
    pub site: usize,
    /// Number of noisy title labels.
    pub labels: usize,
    /// Number of tied top wrappers.
    pub tied_wrappers: usize,
    /// True when every tied top wrapper extracts only correct title nodes
    /// (one per page).
    pub all_correct: bool,
}

/// The experiment result.
#[derive(Clone, Debug, Serialize)]
pub struct SingleEntityResult {
    /// Per-site rows.
    pub rows: Vec<SingleEntityRow>,
    /// Fraction of sites where a correct wrapper was learned.
    pub success_rate: f64,
}

/// Runs the experiment on a DISC dataset.
pub fn run(ds: &DiscDataset) -> SingleEntityResult {
    let annotator = DictionaryAnnotator::new(ds.title_dictionary.iter(), MatchMode::Exact);
    let rows: Vec<SingleEntityRow> = Executor::global().map(&ds.sites, |gs| {
        let labels: NodeSet = annotator.annotate(&gs.site);
        let out = learn_single_entity(&gs.site, &labels, &NtwConfig::default());
        let title_gold = &gs.gold_types[aw_sitegen::disc::TYPE_TITLE];
        let all_correct = !out.best.is_empty()
            && out
                .best
                .iter()
                .all(|w| w.extraction.iter().all(|n| title_gold.contains(n)));
        SingleEntityRow {
            site: gs.id,
            labels: labels.len(),
            tied_wrappers: out.best.len(),
            all_correct,
        }
    });
    let success = rows.iter().filter(|r| r.all_correct).count() as f64 / rows.len().max(1) as f64;
    SingleEntityResult {
        rows,
        success_rate: success,
    }
}

impl std::fmt::Display for SingleEntityResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Single-entity extraction (album titles) on DISC")?;
        writeln!(
            f,
            "{:>6} {:>8} {:>6} {:>9}",
            "site", "labels", "ties", "correct"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>8} {:>6} {:>9}",
                r.site, r.labels, r.tied_wrappers, r.all_correct
            )?;
        }
        writeln!(f, "success rate: {:.2}", self.success_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_sitegen::{generate_disc, DiscConfig};

    #[test]
    fn learns_correct_title_wrappers() {
        let ds = generate_disc(&DiscConfig::small(6, 81));
        let result = run(&ds);
        assert_eq!(result.rows.len(), 6);
        // The paper reports success on all sites; allow one miss on the
        // reduced sample.
        assert!(
            result.success_rate >= 0.8,
            "success {} rows {:?}",
            result.success_rate,
            result.rows
        );
        // Ties between multiple correct locations occur (crumb + heading).
        assert!(result.to_string().contains("success rate"));
    }
}
