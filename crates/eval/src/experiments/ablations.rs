//! Ablations of the reproduction's own design choices (beyond the paper's
//! §7.3 component ablation):
//!
//! * **LR context cap** — the byte bound on learned delimiters / feature
//!   positions (§5 leaves it at "document length"; we cap it);
//! * **enumeration label cap** — labels fed to the generate step;
//! * **publication features** — schema-size-only vs alignment-only vs
//!   both (a finer cut than NTW-X);
//! * **annotator parameters** — learned `(p, r)` vs fixed defaults.

use crate::harness::{evaluate, learn_model, split_half, Method};
use crate::metrics::{macro_average, prf1, PrF1};
use aw_core::{learn_with_feature_based, NtwConfig, WrapperLanguage};
use aw_induct::{LrInductor, NodeSet};
use aw_pool::Executor;
use aw_rank::{AnnotatorModel, KernelOverride, RankingModel};
use aw_sitegen::GeneratedSite;
use serde::Serialize;

/// One row of a parameter sweep.
#[derive(Clone, Debug, Serialize)]
pub struct SweepRow {
    /// The swept parameter's value.
    pub value: f64,
    /// Mean F1 on the test half.
    pub f1: f64,
    /// Mean inductor calls per site.
    pub mean_calls: f64,
}

/// A named sweep.
#[derive(Clone, Debug, Serialize)]
pub struct SweepResult {
    /// What is being swept.
    pub parameter: String,
    /// Rows in sweep order.
    pub rows: Vec<SweepRow>,
}

impl std::fmt::Display for SweepResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "ablation: {}", self.parameter)?;
        writeln!(f, "{:>10} {:>8} {:>12}", "value", "F1", "calls/site")?;
        for r in &self.rows {
            writeln!(f, "{:>10} {:>8.3} {:>12.1}", r.value, r.f1, r.mean_calls)?;
        }
        Ok(())
    }
}

/// Sweeps the LR context cap.
pub fn lr_context_cap<F>(sites: &[GeneratedSite], labels_of: F, caps: &[usize]) -> SweepResult
where
    F: Fn(&GeneratedSite) -> NodeSet + Sync,
{
    let (train, test) = split_half(sites);
    let model = learn_model(&train, &labels_of);
    let rows = caps
        .iter()
        .map(|&cap| {
            let scored: Vec<(PrF1, usize)> = Executor::global().map(&test, |gs| {
                let labels = labels_of(gs);
                if labels.is_empty() {
                    return (PrF1::ZERO, 0);
                }
                let inductor = LrInductor::with_context_cap(&gs.site, cap);
                let out = learn_with_feature_based(
                    &inductor,
                    &gs.site,
                    &labels,
                    &model,
                    &NtwConfig::default(),
                );
                let ext = out.best().map(|w| w.extraction.clone()).unwrap_or_default();
                (prf1(&ext, gs.gold()), out.inductor_calls)
            });
            SweepRow {
                value: cap as f64,
                f1: macro_average(&scored.iter().map(|s| s.0).collect::<Vec<_>>()).f1,
                mean_calls: scored.iter().map(|s| s.1 as f64).sum::<f64>()
                    / scored.len().max(1) as f64,
            }
        })
        .collect();
    SweepResult {
        parameter: "LR context cap (bytes)".into(),
        rows,
    }
}

/// Sweeps the enumeration label cap (XPATH wrappers).
pub fn enumeration_label_cap<F>(
    sites: &[GeneratedSite],
    labels_of: F,
    caps: &[usize],
) -> SweepResult
where
    F: Fn(&GeneratedSite) -> NodeSet + Sync,
{
    let (train, test) = split_half(sites);
    let model = learn_model(&train, &labels_of);
    let rows = caps
        .iter()
        .map(|&cap| {
            let config = NtwConfig {
                max_enumeration_labels: cap,
                ..Default::default()
            };
            let scored: Vec<(PrF1, usize)> = Executor::global().map(&test, |gs| {
                let labels = labels_of(gs);
                if labels.is_empty() {
                    return (PrF1::ZERO, 0);
                }
                let inductor = aw_induct::XPathInductor::new(&gs.site);
                let out = learn_with_feature_based(&inductor, &gs.site, &labels, &model, &config);
                let ext = out.best().map(|w| w.extraction.clone()).unwrap_or_default();
                (prf1(&ext, gs.gold()), out.inductor_calls)
            });
            SweepRow {
                value: cap as f64,
                f1: macro_average(&scored.iter().map(|s| s.0).collect::<Vec<_>>()).f1,
                mean_calls: scored.iter().map(|s| s.1 as f64).sum::<f64>()
                    / scored.len().max(1) as f64,
            }
        })
        .collect();
    SweepResult {
        parameter: "enumeration label cap".into(),
        rows,
    }
}

/// Compares publication-feature subsets (both / schema only / alignment
/// only) at full NTW ranking.
pub fn publication_features<F>(sites: &[GeneratedSite], labels_of: F) -> SweepResult
where
    F: Fn(&GeneratedSite) -> NodeSet + Sync,
{
    let (train, test) = split_half(sites);
    let base = learn_model(&train, &labels_of);
    let variants: [(&str, KernelOverride); 3] = [
        ("both", KernelOverride::None),
        ("schema-only", KernelOverride::IgnoreAlignment),
        ("align-only", KernelOverride::IgnoreSchema),
    ];
    let rows = variants
        .iter()
        .enumerate()
        .map(|(i, (_, ov))| {
            let mut model = base.clone();
            model.publication.kernel_override = *ov;
            let out = evaluate(
                &test,
                &labels_of,
                WrapperLanguage::XPath,
                Method::Ntw,
                &model,
            );
            SweepRow {
                value: i as f64,
                f1: out.mean.f1,
                mean_calls: 0.0,
            }
        })
        .collect();
    SweepResult {
        parameter: "publication features (0=both, 1=schema-only, 2=align-only)".into(),
        rows,
    }
}

/// Compares learned annotator parameters against fixed defaults.
pub fn annotator_parameters<F>(sites: &[GeneratedSite], labels_of: F) -> SweepResult
where
    F: Fn(&GeneratedSite) -> NodeSet + Sync,
{
    let (train, test) = split_half(sites);
    let learned = learn_model(&train, &labels_of);
    let fixed_sets: [(f64, f64); 3] = [(0.9, 0.3), (0.99, 0.1), (0.7, 0.7)];
    let mut rows = vec![{
        let out = evaluate(
            &test,
            &labels_of,
            WrapperLanguage::XPath,
            Method::Ntw,
            &learned,
        );
        SweepRow {
            value: 0.0,
            f1: out.mean.f1,
            mean_calls: 0.0,
        }
    }];
    for (i, (p, r)) in fixed_sets.iter().enumerate() {
        let model = RankingModel::new(AnnotatorModel::new(*p, *r), learned.publication.clone());
        let out = evaluate(
            &test,
            &labels_of,
            WrapperLanguage::XPath,
            Method::Ntw,
            &model,
        );
        rows.push(SweepRow {
            value: (i + 1) as f64,
            f1: out.mean.f1,
            mean_calls: 0.0,
        });
    }
    SweepResult {
        parameter: "annotator params (0=learned, 1=(.9,.3), 2=(.99,.1), 3=(.7,.7))".into(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_annotate::{DictionaryAnnotator, MatchMode};
    use aw_sitegen::{generate_dealers, DealersConfig};

    fn setup() -> (aw_sitegen::DealersDataset, DictionaryAnnotator) {
        let ds = generate_dealers(&DealersConfig::small(12, 0xAB1A));
        let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        (ds, annot)
    }

    #[test]
    fn lr_cap_sweep_runs_and_tiny_cap_hurts() {
        let (ds, annot) = setup();
        let result = lr_context_cap(&ds.sites, |s| annot.annotate(&s.site), &[2, 64]);
        assert_eq!(result.rows.len(), 2);
        // A 2-byte cap leaves LR with delimiters like ">" only.
        assert!(result.rows[0].f1 <= result.rows[1].f1 + 1e-9, "{result}");
    }

    #[test]
    fn label_cap_sweep_trades_calls_for_quality() {
        let (ds, annot) = setup();
        let result = enumeration_label_cap(&ds.sites, |s| annot.annotate(&s.site), &[2, 16]);
        assert!(result.rows[0].mean_calls <= result.rows[1].mean_calls);
        assert!(result.to_string().contains("label cap"));
    }

    #[test]
    fn publication_feature_variants_run() {
        let (ds, annot) = setup();
        let result = publication_features(&ds.sites, |s| annot.annotate(&s.site));
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(row.f1 > 0.3, "{result}");
        }
    }

    #[test]
    fn annotator_parameter_variants_run() {
        let (ds, annot) = setup();
        let result = annotator_parameters(&ds.sites, |s| annot.annotate(&s.site));
        assert_eq!(result.rows.len(), 4);
        // Learned parameters should be competitive with any fixed guess.
        let learned = result.rows[0].f1;
        assert!(learned >= 0.7, "{result}");
    }
}
