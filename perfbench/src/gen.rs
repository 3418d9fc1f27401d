//! Seeded input generation. Everything the measured program sees — the
//! wrapper bundles, the request pages and the learn corpora — is made
//! here from `aw-sitegen` and written to a work directory; the same
//! seed gives byte-identical files.

use crate::workload::{LargePages, LazyChurn, LearnDealers, Workload};
use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_core::{AwError, Engine, WrapperBundle, WrapperLanguage};
use aw_dom::{Document, NodeId};
use aw_induct::Site;
use aw_sitegen::data;
use aw_sitegen::{
    generate_dealers, DealersConfig, GeneratedSite, ListingRecord, ListingScript, PageBuilder,
    TemplateEvolution,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::HashMap;
use std::path::Path;

/// One servable page: its site key, raw HTML and the gold values a
/// perfect wrapper extracts from it.
struct ServePage {
    site: String,
    html: String,
    gold: Vec<String>,
}

/// Writes the inputs of `workload` for `seed` into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match workload {
        Workload::ServeLargePages => large_pages(seed, dir),
        Workload::ServeLazyChurn => lazy_churn(seed, dir),
        Workload::LearnDealers => learn_dealers(seed, dir),
    }
}

/// `(text, occurrence)` of every text node of `doc`: its text and how
/// many equal texts precede it in document order. Stable across a
/// serialize → parse round trip, unlike node ids.
pub fn text_keys(doc: &Document) -> HashMap<NodeId, (String, usize)> {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    let mut keys = HashMap::new();
    for id in doc.preorder_all() {
        if let Some(text) = doc.text(id) {
            let n = seen.entry(text).or_insert(0);
            keys.insert(id, (text.to_string(), *n));
            *n += 1;
        }
    }
    keys
}

/// The engine every wrapper is learned with: XPATH language, a
/// dictionary annotator, the CLI's default ranking model, and one
/// thread, so stage times add up to the batch time they are part of.
pub fn engine(dictionary: &[String]) -> Engine {
    Engine::builder(crate::workload::ranking_model())
        .language(WrapperLanguage::XPath)
        .threads(1)
        .annotator(DictionaryAnnotator::new(
            dictionary.iter(),
            MatchMode::Contains,
        ))
        .build()
}

/// Learns one wrapper per site in one batched pass; a site without a
/// wrapper is an error (the serving workloads need every site routable).
fn learn_wrappers(
    dictionary: &[String],
    keys: &[String],
    training: Vec<GeneratedSite>,
) -> Result<WrapperBundle, String> {
    let sites: Vec<Site> = training.into_iter().map(|g| g.site).collect();
    let ranked = engine(dictionary)
        .learn_sites(&sites)
        .map_err(|e| e.to_string())?;
    let mut bundle = WrapperBundle::new();
    for (key, site_ranked) in keys.iter().zip(&ranked) {
        let best = site_ranked
            .best()
            .ok_or_else(|| format!("no wrapper learned for {key}"))?;
        bundle.insert(key.clone(), best.compile());
    }
    Ok(bundle)
}

/// Serializes a generated site's pages with each page's gold values.
fn serve_pages(key: &str, site: &GeneratedSite) -> Vec<ServePage> {
    (0..site.site.page_count() as u32)
        .map(|p| {
            let doc = site.site.page(p);
            let gold = site
                .gold()
                .iter()
                .filter(|n| n.page == p)
                .filter_map(|&n| site.site.text_of(n).map(str::to_string))
                .collect();
            ServePage {
                site: key.to_string(),
                html: aw_dom::serialize(doc),
                gold,
            }
        })
        .collect()
}

fn name_pool(rng: &mut StdRng) -> Vec<String> {
    let mut names = Vec::new();
    for town in data::TOWN_WORDS {
        for cat in data::CATEGORY_WORDS {
            names.push(format!("{town} {cat}"));
            // Entity-bearing names: serialized as `&amp;`.
            names.push(format!("{town} & {cat}"));
        }
    }
    names.shuffle(rng);
    names
}

fn record(rng: &mut StdRng, name: String, zip: &str, full: bool) -> ListingRecord {
    let (city, state) = data::CITY_STATE.choose(rng).expect("nonempty");
    let has_phone = full || rng.gen_bool(0.7);
    ListingRecord {
        name,
        street: format!(
            "{} {}",
            rng.gen_range(1..9999),
            data::STREET_WORDS.choose(rng).expect("nonempty")
        ),
        city_line: Some(format!("{city}, {state} {zip}")),
        phone: has_phone.then(|| {
            format!(
                "({}) {}-{}",
                rng.gen_range(201..989),
                rng.gen_range(200..999),
                rng.gen_range(1000..9999)
            )
        }),
    }
}

/// Renders one page of `records` under `script` and parses it.
fn render(
    script: &ListingScript,
    label: &str,
    records: &[ListingRecord],
) -> (String, aw_sitegen::PageMarks) {
    let mut b = PageBuilder::new();
    script.render_page(&mut b, label, records);
    b.finish()
}

/// Draws `n` distinct records from `pool`.
fn records(rng: &mut StdRng, pool: &[String], n: usize, full: bool) -> Vec<ListingRecord> {
    let zip = format!("{:05}", rng.gen_range(10000..99999));
    let mut names: Vec<&String> = Vec::with_capacity(n);
    while names.len() < n {
        let candidate = pool.choose(rng).expect("nonempty");
        if !names.contains(&candidate) {
            names.push(candidate);
        }
    }
    names
        .into_iter()
        .map(|name| record(rng, name.clone(), &zip, full))
        .collect()
}

/// `serve_large_pages`: a dozen sites, each learned from small training
/// pages of its rendering script and served full-roster pages of
/// several hundred records, sized to about `page_bytes` (every optional
/// field present, so a site's pages share one template fingerprint),
/// from a v2 JSON bundle.
fn large_pages(seed: u64, dir: &Path) -> Result<(), String> {
    let cfg = LargePages::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A26E);
    let pool = name_pool(&mut rng);
    let dictionary: Vec<String> = pool[..pool.len() / 2].to_vec();
    let mut keys = Vec::new();
    let mut training = Vec::new();
    let mut pages = Vec::new();
    for s in 0..cfg.sites {
        let key = format!("large-{s:02}");
        let script = loop {
            let candidate = ListingScript::random(
                &mut rng,
                "Dealer Locator",
                vec!["Visit our showroom".into()],
            );
            if candidate.xpath_separable() {
                break candidate;
            }
        };
        let train: Vec<_> = (0..cfg.training_pages)
            .map(|p| {
                render(
                    &script,
                    &format!("page {p}"),
                    &records(&mut rng, &pool, cfg.training_records, true),
                )
            })
            .collect();
        training.push(GeneratedSite::from_pages(s, train));
        // Size the roster so every site's pages weigh about the same.
        let probe = |rng: &mut StdRng, n| {
            render(&script, "probe", &records(rng, &pool, n, true))
                .0
                .len()
        };
        let (one, many) = (probe(&mut rng, 1), probe(&mut rng, 101));
        let roster = 1 + cfg.page_bytes.saturating_sub(one) * 100 / (many - one);
        let served: Vec<_> = (0..cfg.pages_per_site)
            .map(|p| {
                render(
                    &script,
                    &format!("roster {p}"),
                    &records(&mut rng, &pool, roster, true),
                )
            })
            .collect();
        pages.extend(serve_pages(&key, &GeneratedSite::from_pages(s, served)));
        keys.push(key);
    }
    let bundle = learn_wrappers(&dictionary, &keys, training)?;
    write(dir, "bundle.json", bundle.to_json().as_bytes())?;
    let stream: Vec<usize> = (0..cfg.stream_len)
        .map(|_| rng.gen_range(0..pages.len()))
        .collect();
    write_inputs(dir, "bundle.json", None, &pages, &stream)
}

/// `serve_lazy_churn`: many small sites, each a scripted template
/// evolution (epoch 0 unmutated, epoch 1 benign churn, epoch 2 breaking
/// churn). The wrapper is learned on epoch 0; served pages carry 2–8
/// records with optional fields drawn per record, from every epoch.
/// Sites are requested with Zipf-skewed popularity from a v3 binary
/// bundle served lazily under a resident cap.
fn lazy_churn(seed: u64, dir: &Path) -> Result<(), String> {
    let cfg = LazyChurn::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2);
    let pool = name_pool(&mut rng);
    let mut keys = Vec::new();
    let mut training = Vec::new();
    let mut dictionary: Vec<String> = Vec::new();
    let mut pages = Vec::new();
    for s in 0..cfg.sites {
        let key = format!("churn-{s:03}");
        let evolution = TemplateEvolution {
            seed: rng.gen_range(0..u64::MAX),
            epochs: cfg.epoch_pages.len(),
            ..TemplateEvolution::default()
        }
        .run();
        for (epoch, &count) in evolution.epochs.iter().zip(&cfg.epoch_pages) {
            let served: Vec<_> = (0..count)
                .map(|p| {
                    let n = rng.gen_range(cfg.records.0..=cfg.records.1);
                    render(
                        &epoch.script,
                        &format!("epoch {} page {p}", epoch.index),
                        &records(&mut rng, &pool, n, false),
                    )
                })
                .collect();
            pages.extend(serve_pages(&key, &GeneratedSite::from_pages(s, served)));
        }
        dictionary.extend(evolution.dictionary);
        let base = evolution.epochs.into_iter().next().expect("epoch 0");
        training.push(base.site);
        keys.push(key);
    }
    dictionary.sort();
    dictionary.dedup();
    let bundle = learn_wrappers(&dictionary, &keys, training)?;
    write(dir, "bundle.bin", &bundle.to_binary())?;
    // Zipf popularity over sites (rank r weighs 1/r), pages uniform
    // within a site.
    let per_site = pages.len() / cfg.sites;
    let weights: Vec<f64> = (1..=cfg.sites).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut order: Vec<usize> = (0..cfg.sites).collect();
    order.shuffle(&mut rng);
    let stream: Vec<usize> = (0..cfg.stream_len)
        .map(|_| {
            let mut x = rng.gen_range(0.0..total);
            let mut rank = 0;
            while rank + 1 < weights.len() && x >= weights[rank] {
                x -= weights[rank];
                rank += 1;
            }
            order[rank] * per_site + rng.gen_range(0..per_site)
        })
        .collect();
    write_inputs(dir, "bundle.bin", Some(cfg.max_resident), &pages, &stream)
}

/// `learn_dealers`: `cfg.groups` DEALERS-shaped corpora (§7) of
/// `cfg.sites` sites each, written as one run of site directories. A
/// site whose pages quote no dictionary name gives the annotator nothing
/// to label, and no wrapper can be learned from zero labels
/// (`AwError::NoLabels`), so such barren sites are passed over and the
/// next generated sites taken until the corpora are full. Every timed
/// learn then starts from labels. Per-site streams do not depend on the
/// site count, so the sites kept are the same whatever the spare count.
fn learn_dealers(seed: u64, dir: &Path) -> Result<(), String> {
    let cfg = LearnDealers::default();
    let wanted = cfg.sites * cfg.groups;
    let dataset = generate_dealers(&DealersConfig {
        sites: wanted + cfg.spare_sites,
        pages_per_site: cfg.pages_per_site,
        seed: seed ^ 0xDEA1,
        ..DealersConfig::default()
    });
    let engine = engine(&dataset.dictionary);
    let mut barren = 0;
    let mut sites = Vec::with_capacity(wanted);
    for generated in dataset.sites {
        if sites.len() == wanted {
            break;
        }
        match engine.annotate(&generated.site) {
            Err(AwError::NoLabels) => barren += 1,
            _ => sites.push(generated),
        }
    }
    if barren > 0 {
        eprintln!("perfbench: passed over {barren} barren learn_dealers site(s)");
    }
    if sites.len() < wanted {
        return Err(format!(
            "only {} of {} generated sites have labels",
            sites.len(),
            wanted + cfg.spare_sites
        ));
    }
    write_corpus(dir, &dataset.dictionary, &sites)
}

/// Writes a learn corpus: the annotator dictionary, one directory of
/// HTML pages per site, and each site's gold name nodes as
/// `(page, text, occurrence)` keys.
fn write_corpus(dir: &Path, dictionary: &[String], sites: &[GeneratedSite]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    write(dir, "dict.txt", (dictionary.join("\n") + "\n").as_bytes())?;
    let mut gold_sites = Vec::new();
    for (i, gs) in sites.iter().enumerate() {
        let site_dir = dir.join(format!("sites/{i:04}"));
        std::fs::create_dir_all(&site_dir).map_err(|e| format!("{}: {e}", site_dir.display()))?;
        let keys: Vec<_> = gs.site.pages().iter().map(text_keys).collect();
        for (p, doc) in gs.site.pages().iter().enumerate() {
            write(
                &site_dir,
                &format!("{p}.html"),
                aw_dom::serialize(doc).as_bytes(),
            )?;
        }
        let gold: Vec<Value> = gs
            .gold()
            .iter()
            .map(|n| {
                let (text, occurrence) = keys[n.page as usize][&n.node].clone();
                Value::Array(vec![
                    Value::Number(n.page as f64),
                    Value::String(text),
                    Value::Number(occurrence as f64),
                ])
            })
            .collect();
        gold_sites.push(Value::Array(gold));
    }
    let gold = serde_json::to_string(&Value::Array(gold_sites)).map_err(|e| e.to_string())?;
    write(dir, "gold.json", gold.as_bytes())
}

/// Writes a serving workload's request pages, stream and bundle name.
fn write_inputs(
    dir: &Path,
    bundle: &str,
    max_resident: Option<usize>,
    pages: &[ServePage],
    stream: &[usize],
) -> Result<(), String> {
    let page_values: Vec<Value> = pages
        .iter()
        .map(|p| {
            Value::Object(vec![
                ("site".into(), Value::String(p.site.clone())),
                ("html".into(), Value::String(p.html.clone())),
                (
                    "gold".into(),
                    Value::Array(p.gold.iter().cloned().map(Value::String).collect()),
                ),
            ])
        })
        .collect();
    let inputs = Value::Object(vec![
        ("bundle".into(), Value::String(bundle.into())),
        (
            "max_resident".into(),
            max_resident.map_or(Value::Null, |n| Value::Number(n as f64)),
        ),
        ("pages".into(), Value::Array(page_values)),
        (
            "stream".into(),
            Value::Array(stream.iter().map(|&i| Value::Number(i as f64)).collect()),
        ),
    ]);
    let text = serde_json::to_string(&inputs).map_err(|e| e.to_string())?;
    write(dir, "inputs.json", text.as_bytes())
}

fn write(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}
