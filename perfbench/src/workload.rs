//! The three workloads and their fixed parameters. `README.md` in this
//! directory explains why each exists and which layers it stresses.

use aw_rank::{AnnotatorModel, ListFeatures, PublicationModel, RankingModel};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeLargePages,
    ServeLazyChurn,
    LearnDealers,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "serve_large_pages" => Ok(Workload::ServeLargePages),
            "serve_lazy_churn" => Ok(Workload::ServeLazyChurn),
            "learn_dealers" => Ok(Workload::LearnDealers),
            other => Err(format!(
                "unknown workload {other:?} (serve_large_pages, serve_lazy_churn, learn_dealers)"
            )),
        }
    }

    /// The offered rate of a serving workload's report-only open loop,
    /// requests per second; `None` for the learn workload.
    pub fn open_rate(self) -> Option<f64> {
        match self {
            // A large page costs milliseconds: the offered rate sits well
            // under the closed-loop capacity (about 400 and 9 000 req/s
            // on one core) so the open loop measures service time, not
            // queueing.
            Workload::ServeLargePages => Some(150.0),
            Workload::ServeLazyChurn => Some(1500.0),
            Workload::LearnDealers => None,
        }
    }
}

/// `serve_large_pages` corpus shape.
pub struct LargePages {
    pub sites: usize,
    /// Small training pages the site's wrapper is learned from.
    pub training_pages: usize,
    pub training_records: usize,
    /// Distinct full-roster pages served per site.
    pub pages_per_site: usize,
    /// Target size of a roster page; the record count per site follows.
    pub page_bytes: usize,
    pub stream_len: usize,
}

impl Default for LargePages {
    fn default() -> Self {
        LargePages {
            sites: 24,
            training_pages: 4,
            training_records: 8,
            pages_per_site: 3,
            page_bytes: 50_000,
            stream_len: 100_000,
        }
    }
}

/// `serve_lazy_churn` corpus shape.
pub struct LazyChurn {
    pub sites: usize,
    /// Served pages per site from epoch 0 (unmutated), epoch 1 (benign
    /// churn) and epoch 2 (breaking churn).
    pub epoch_pages: [usize; 3],
    pub records: (usize, usize),
    /// `awrap serve --max-resident`: a sixth of the sites.
    pub max_resident: usize,
    pub stream_len: usize,
}

impl Default for LazyChurn {
    fn default() -> Self {
        LazyChurn {
            sites: 96,
            epoch_pages: [24, 8, 8],
            records: (2, 8),
            max_resident: 16,
            stream_len: 200_000,
        }
    }
}

/// `learn_dealers` corpus shape.
pub struct LearnDealers {
    /// Sites of one corpus, the unit a round loads and learns.
    pub sites: usize,
    /// Corpora per seed, learned one per round in turn. One corpus's
    /// cost moves about ±10% with the seed that drew its sites; a run
    /// over ten of them moves about a third as much.
    pub groups: usize,
    /// Extra sites generated to stand in for barren ones (no dictionary
    /// name on any page, so nothing to learn from).
    pub spare_sites: usize,
    pub pages_per_site: usize,
}

impl Default for LearnDealers {
    fn default() -> Self {
        LearnDealers {
            sites: 120,
            groups: 10,
            spare_sites: 240,
            pages_per_site: 5,
        }
    }
}

/// The ranking model `awrap learn` uses: annotator precision 0.9,
/// recall 0.3, and a generic publication prior for listings of 2–6
/// aligned fields.
pub fn ranking_model() -> RankingModel {
    let prior = [(2.0, 0.0), (3.0, 0.0), (4.0, 0.0), (5.0, 1.0), (3.0, 2.0)].map(
        |(schema_size, alignment)| ListFeatures {
            schema_size,
            alignment,
        },
    );
    RankingModel::new(
        AnnotatorModel::new(0.9, 0.3),
        PublicationModel::learn(&prior),
    )
}
