//! Wrapper generalization: the production story behind the paper's
//! deployment ("our system is used in production in Yahoo!").
//!
//! A wrapper is learned from labels on the pages available at training
//! time, then its *portable rule* is applied to pages crawled later. This
//! experiment splits each website's pages: labels come only from the
//! first `train_pages`, extraction quality is measured only on the rest.

use crate::metrics::{macro_average, prf1, PrF1};
use aw_core::{Engine, WrapperLanguage};
use aw_dom::PageNode;
use aw_induct::{NodeSet, Site};
use aw_pool::Executor;
use aw_rank::RankingModel;
use aw_sitegen::GeneratedSite;
use serde::Serialize;

/// Result of the generalization experiment.
#[derive(Clone, Debug, Serialize)]
pub struct GeneralizationResult {
    /// Wrapper language.
    pub language: String,
    /// Pages used for learning, per site.
    pub train_pages: usize,
    /// Extraction quality on the held-out pages.
    pub held_out: PrF1,
    /// Extraction quality on the training pages (for contrast).
    pub train: PrF1,
    /// Number of sites evaluated.
    pub sites: usize,
}

/// Runs the experiment (over the test half of a dataset, like
/// [`crate::harness::evaluate`]).
pub fn run<F>(
    sites: &[&GeneratedSite],
    labels_of: F,
    language: WrapperLanguage,
    model: &RankingModel,
    train_pages: usize,
) -> GeneralizationResult
where
    F: Fn(&GeneratedSite) -> NodeSet + Sync,
{
    let engine = Engine::builder(model.clone()).language(language).build();
    let scores: Vec<(PrF1, PrF1)> = Executor::global()
        .map(sites, |gs| {
            let total_pages = gs.site.page_count();
            if total_pages <= train_pages {
                return None;
            }
            // Labels restricted to the training pages.
            let labels: NodeSet = labels_of(gs)
                .into_iter()
                .filter(|n| (n.page as usize) < train_pages)
                .collect();
            if labels.is_empty() {
                return Some((PrF1::ZERO, PrF1::ZERO));
            }

            // Learn on a site view containing only the training pages.
            let train_htmls: Vec<String> = (0..train_pages)
                .map(|p| aw_dom::serialize(gs.site.page(p as u32)))
                .collect();
            let train_site = Site::from_html(&train_htmls);
            // Node ids are preserved by re-parsing the serialized pages
            // (serialize∘parse is a fixpoint for parsed documents), so labels
            // carry over directly.
            let Ok(out) = engine.learn(&train_site, &labels) else {
                return Some((PrF1::ZERO, PrF1::ZERO));
            };
            let Some(best) = out.best() else {
                return Some((PrF1::ZERO, PrF1::ZERO));
            };
            // Compile the portable serving artifact once per site (xpath
            // rules carry their batch trie), then replay it over every page.
            let wrapper = best.compile();

            // Score on training pages and held-out pages separately.
            let score_on = |range: std::ops::Range<usize>| {
                let mut extracted = NodeSet::new();
                let mut gold = NodeSet::new();
                for p in range {
                    extracted.extend(
                        wrapper
                            .extract(gs.site.page(p as u32))
                            .into_iter()
                            .map(|id| PageNode::new(p as u32, id)),
                    );
                    gold.extend(gs.gold().iter().copied().filter(|n| n.page as usize == p));
                }
                prf1(&extracted, &gold)
            };
            Some((score_on(train_pages..total_pages), score_on(0..train_pages)))
        })
        .into_iter()
        .flatten()
        .collect();

    GeneralizationResult {
        language: language.name().to_string(),
        train_pages,
        held_out: macro_average(&scores.iter().map(|s| s.0).collect::<Vec<_>>()),
        train: macro_average(&scores.iter().map(|s| s.1).collect::<Vec<_>>()),
        sites: scores.len(),
    }
}

impl std::fmt::Display for GeneralizationResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Wrapper generalization ({}, learned on {} page(s)/site, {} sites)",
            self.language, self.train_pages, self.sites
        )?;
        writeln!(
            f,
            "{:>10} {:>10} {:>8} {:>8}",
            "pages", "Precision", "Recall", "F1"
        )?;
        writeln!(
            f,
            "{:>10} {:>10.3} {:>8.3} {:>8.3}",
            "train", self.train.precision, self.train.recall, self.train.f1
        )?;
        writeln!(
            f,
            "{:>10} {:>10.3} {:>8.3} {:>8.3}",
            "held-out", self.held_out.precision, self.held_out.recall, self.held_out.f1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{learn_model, split_half};
    use aw_annotate::{DictionaryAnnotator, MatchMode};
    use aw_sitegen::{generate_dealers, DealersConfig};

    #[test]
    fn rules_generalize_to_unseen_pages() {
        let ds = generate_dealers(&DealersConfig {
            sites: 14,
            pages_per_site: 6,
            ..DealersConfig::small(14, 0x6E4)
        });
        let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        let labels_of = |s: &GeneratedSite| annot.annotate(&s.site);
        let (train, test) = split_half(&ds.sites);
        let model = learn_model(&train, labels_of);
        let result = run(&test, labels_of, WrapperLanguage::XPath, &model, 3);
        assert!(result.sites > 0);
        assert!(result.held_out.f1 > 0.85, "{result}");
        // Held-out quality close to train quality: same script, so rules
        // transfer (the wrapper premise of §1).
        assert!(
            (result.train.f1 - result.held_out.f1).abs() < 0.15,
            "{result}"
        );
        assert!(result.to_string().contains("held-out"));
    }
}
