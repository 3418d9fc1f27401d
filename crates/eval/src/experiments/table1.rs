//! Table 1: NTW accuracy (F1) as a function of the annotator's
//! precision `p` and recall `r`, using the controlled synthetic annotator
//! of §7.4 on DEALERS with XPATH wrappers.

use crate::harness::{evaluate, learn_model, split_half, Method};
use aw_annotate::SyntheticAnnotator;
use aw_core::WrapperLanguage;
use aw_pool::Executor;
use aw_sitegen::GeneratedSite;
use serde::Serialize;

/// The paper's grid.
pub const PRECISIONS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
/// Recall axis of the grid.
pub const RECALLS: [f64; 6] = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3];

/// One cell of the grid.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GridCell {
    /// Target annotator precision.
    pub p: f64,
    /// Target annotator recall.
    pub r: f64,
    /// Mean F1 of NTW on the test half.
    pub f1: f64,
}

/// The full table.
#[derive(Clone, Debug, Serialize)]
pub struct Table1Result {
    /// Cells in row-major (p, then r) order.
    pub cells: Vec<GridCell>,
}

impl Table1Result {
    /// Looks up the cell for `(p, r)`.
    pub fn cell(&self, p: f64, r: f64) -> Option<&GridCell> {
        self.cells
            .iter()
            .find(|c| (c.p - p).abs() < 1e-9 && (c.r - r).abs() < 1e-9)
    }
}

/// Runs the grid. `seed` feeds the synthetic annotator.
pub fn run(sites: &[GeneratedSite], seed: u64) -> Table1Result {
    // Global gold/non-gold balance determines (p1, p2) per target.
    let gold_n: usize = sites.iter().map(|s| s.gold().len()).sum();
    let non_gold_n: usize = sites
        .iter()
        .map(|s| s.site.text_nodes().len() - s.gold().len())
        .sum();

    let grid: Vec<(f64, f64)> = PRECISIONS
        .iter()
        .flat_map(|&p| RECALLS.iter().map(move |&r| (p, r)))
        .collect();

    let cells = Executor::global().map(&grid, |&(p, r)| {
        let annotator = SyntheticAnnotator::for_target(
            p,
            r,
            gold_n / sites.len().max(1),
            non_gold_n / sites.len().max(1),
            seed ^ ((p * 100.0) as u64) << 8 ^ (r * 100.0) as u64,
        );
        let labels_of = |s: &GeneratedSite| annotator.annotate(&s.site, s.gold());
        let (train, test) = split_half(sites);
        let model = learn_model(&train, labels_of);
        let outcome = evaluate(
            &test,
            labels_of,
            WrapperLanguage::XPath,
            Method::Ntw,
            &model,
        );
        GridCell {
            p,
            r,
            f1: outcome.mean.f1,
        }
    });
    Table1Result { cells }
}

impl std::fmt::Display for Table1Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Accuracy of NTW as a function of annotator (rows: p, cols: r)"
        )?;
        write!(f, "{:>6}", "p\\r")?;
        for r in RECALLS {
            write!(f, " {r:>6.2}")?;
        }
        writeln!(f)?;
        for p in PRECISIONS {
            write!(f, "{p:>6.1}")?;
            for r in RECALLS {
                match self.cell(p, r) {
                    Some(c) => write!(f, " {:>6.2}", c.f1)?,
                    None => write!(f, " {:>6}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_sitegen::{generate_dealers, DealersConfig};

    #[test]
    fn accuracy_grows_with_annotator_quality() {
        // Tiny grid sanity check on a reduced dataset: the (0.9, 0.3)
        // corner must beat the (0.1, 0.05) corner.
        let ds = generate_dealers(&DealersConfig::small(12, 61));
        let result = run(&ds.sites, 99);
        assert_eq!(result.cells.len(), 30);
        let worst = result.cell(0.1, 0.05).unwrap().f1;
        let best = result.cell(0.9, 0.3).unwrap().f1;
        assert!(best > worst, "best {best} vs worst {worst}");
        assert!(best > 0.6, "best corner too weak: {best}");
        let rendered = result.to_string();
        assert!(rendered.contains("p\\r"));
    }
}
