//! The learn workload: the `Engine` stages called in this process on
//! DEALERS-shaped corpora read from the work directory.

use crate::calib::Calibration;
use crate::gen::{engine, text_keys};
use crate::report::{median, quantile, RunResult};
use crate::trace::{sum_error_pct, Recorder, SUM_TOLERANCE_PCT};
use crate::workload::LearnDealers;
use aw_core::{Engine, LearnedRule};
use aw_induct::{NodeSet, Site};
use serde::Value;
use std::collections::HashSet;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest timed rounds per corpus a run makes, however long they take.
const MIN_ROUNDS_PER_GROUP: usize = 2;
/// Sites per calibrated window: a batched chunk takes about 70 ms on
/// the reference host, well inside one calibration slice.
const CHUNK: usize = 24;
/// Share of `--seconds` given to the traced ledger passes.
const TRACE_SHARE: f64 = 0.5;

/// Gold name nodes of one site as `(page, text, occurrence)` keys.
type Gold = HashSet<(u32, String, usize)>;

/// Set-up as a user pays it: read the dictionary, build the annotator
/// and engine, read and parse the pages of the sites in `group`.
fn setup(dir: &Path, group: Range<usize>) -> Result<(Engine, Vec<Site>), String> {
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let dictionary: Vec<String> = read(&dir.join("dict.txt"))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect();
    let engine = engine(&dictionary);
    let mut sites = Vec::with_capacity(group.len());
    for site in group {
        let site_dir = dir.join(format!("sites/{site:04}"));
        let mut pages = Vec::new();
        while let Ok(html) = std::fs::read_to_string(site_dir.join(format!("{}.html", pages.len())))
        {
            pages.push(html);
        }
        if pages.is_empty() {
            return Err(format!("{}: no pages", site_dir.display()));
        }
        sites.push(Site::from_html(&pages));
    }
    Ok((engine, sites))
}

fn load_gold(dir: &Path) -> Result<Vec<Gold>, String> {
    let path = dir.join("gold.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = || format!("{}: unexpected shape", path.display());
    let Value::Array(sites) = serde_json::from_str(&text).map_err(|e| e.to_string())? else {
        return Err(bad());
    };
    sites
        .iter()
        .map(|site| match site {
            Value::Array(marks) => marks
                .iter()
                .map(|m| match m {
                    Value::Array(f) if f.len() == 3 => Ok((
                        f[0].as_f64().ok_or_else(bad)? as u32,
                        f[1].as_str().ok_or_else(bad)?.to_string(),
                        f[2].as_f64().ok_or_else(bad)? as usize,
                    )),
                    _ => Err(bad()),
                })
                .collect(),
            _ => Err(bad()),
        })
        .collect()
}

/// F1 of an extraction against gold keys (both empty: perfect).
fn f1(site: &Site, extraction: &NodeSet, gold: &Gold) -> f64 {
    if extraction.is_empty() || gold.is_empty() {
        return if extraction.is_empty() && gold.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let keys: Vec<_> = site.pages().iter().map(text_keys).collect();
    let tp = extraction
        .iter()
        .filter(|n| {
            keys[n.page as usize]
                .get(&n.node)
                .is_some_and(|(text, occ)| gold.contains(&(n.page, text.clone(), *occ)))
        })
        .count() as f64;
    2.0 * tp / (extraction.len() + gold.len()) as f64
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// What the timed rounds measured, per corpus group and per site.
struct Timings {
    /// Calibrated seconds of each batched pass, per group.
    pass_s: Vec<Vec<f64>>,
    raw_pass_s: Vec<Vec<f64>>,
    /// Calibrated µs of each single-site learn, per site.
    site_us: Vec<Vec<f64>>,
    raw_site_us: Vec<Vec<f64>>,
    setups: Vec<f64>,
    raw_setups: Vec<f64>,
}

/// The medians of each inner list.
fn medians(lists: &mut [Vec<f64>]) -> Vec<f64> {
    lists.iter_mut().map(|l| median(l)).collect()
}

pub fn measure(dir: &Path, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let gold = load_gold(dir)?;
    let group_size = LearnDealers::default().sites;
    let groups: Vec<Range<usize>> = (0..gold.len())
        .step_by(group_size)
        .map(|start| start..(start + group_size).min(gold.len()))
        .collect();
    let mut result = RunResult::default();
    result.notes.push(format!(
        "LearnDealers: {} corpora of {group_size} sites, one loaded per round in turn; Engine at 1 thread",
        groups.len()
    ));

    // Reference pass, untimed: the best rule per site, its F1 against the
    // gold marks, and a check that each compiled wrapper reproduces the
    // ranked extraction it was compiled from.
    let mut best_rules: Vec<Option<LearnedRule>> = Vec::with_capacity(gold.len());
    let mut f1s = Vec::with_capacity(gold.len());
    let mut correct = true;
    let mut attempted = gold.len() as u64;
    let mut failed = 0u64;
    for group in &groups {
        let (engine, sites) = setup(dir, group.clone())?;
        let ranked = engine.learn_sites(&sites).map_err(|e| e.to_string())?;
        for ((site, site_ranked), site_gold) in sites.iter().zip(&ranked).zip(&gold[group.clone()])
        {
            let Some(best) = site_ranked.best() else {
                failed += 1;
                f1s.push(f1(site, &NodeSet::new(), site_gold));
                best_rules.push(None);
                continue;
            };
            f1s.push(f1(site, &best.extraction, site_gold));
            let extracted: NodeSet = best
                .compile()
                .extract_pages(site.pages())
                .into_iter()
                .enumerate()
                .flat_map(|(p, ids)| {
                    ids.into_iter()
                        .map(move |id| aw_dom::PageNode::new(p as u32, id))
                })
                .collect();
            correct &= extracted == best.extraction;
            best_rules.push(Some(best.portable_rule()));
        }
    }
    result.set(
        "extract_f1",
        f1s.iter().sum::<f64>() / f1s.len().max(1) as f64,
    );

    let mut calibration = Calibration::new();
    if trace {
        let (engine, sites) = setup(dir, groups[0].clone())?;
        let sum_error_pct = ledger(
            &engine,
            &sites,
            seconds * TRACE_SHARE,
            dir,
            &mut calibration,
            &mut result,
        )?;
        result.set("calib.slowdown", calibration.median());
        result.attempted = attempted;
        result.failed = failed;
        result.correct = correct && sum_error_pct <= SUM_TOLERANCE_PCT;
        return Ok(result);
    }

    // Timed rounds, each on the next group in turn: set-up (load the
    // group), a batched pass through `learn_sites` plus `compile` of every
    // best wrapper (throughput), then every site alone through annotate →
    // learn → compile, the path a relearn of one drifted site takes
    // (latency). Both run in chunks of `CHUNK` sites, each its own
    // calibrated window. The first round warms up and is not counted.
    let mut timings = Timings {
        pass_s: vec![Vec::new(); groups.len()],
        raw_pass_s: vec![Vec::new(); groups.len()],
        site_us: vec![Vec::new(); gold.len()],
        raw_site_us: vec![Vec::new(); gold.len()],
        setups: Vec::new(),
        raw_setups: Vec::new(),
    };
    let mut deadline: Option<Instant> = None;
    let mut longest = Duration::ZERO;
    let mut counted = 0;
    while deadline.is_none_or(|d| {
        counted < groups.len() * MIN_ROUNDS_PER_GROUP || Instant::now() + longest < d
    }) {
        let round_started = Instant::now();
        let g = counted % groups.len();
        let group = groups[g].clone();
        let (loaded, factor) = calibration.around(|| {
            let started = Instant::now();
            setup(dir, group.clone()).map(|loaded| (loaded, started.elapsed().as_secs_f64()))
        });
        let ((engine, sites), setup_s) = loaded?;
        let expected_rules = &best_rules[group.clone()];
        let (mut pass_s, mut raw_pass_s) = (0.0, 0.0);
        for (chunk, expected) in sites.chunks(CHUNK).zip(expected_rules.chunks(CHUNK)) {
            let (elapsed, factor) = calibration.around(|| -> Result<f64, String> {
                let started = Instant::now();
                let ranked = engine.learn_sites(chunk).map_err(|e| e.to_string())?;
                for (site_ranked, expected) in ranked.iter().zip(expected) {
                    let best = site_ranked.best();
                    failed += u64::from(best.is_none());
                    correct &= best.map(|b| b.portable_rule()).as_ref() == expected.as_ref();
                    black_box(best.map(|b| b.compile()));
                }
                Ok(started.elapsed().as_secs_f64())
            });
            let elapsed = elapsed?;
            raw_pass_s += elapsed;
            pass_s += elapsed / factor;
        }
        attempted += sites.len() as u64;
        let mut site_us = Vec::with_capacity(sites.len());
        for chunk in sites.chunks(CHUNK) {
            let (chunk_us, factor) = calibration.around(|| {
                chunk
                    .iter()
                    .map(|site| {
                        let started = Instant::now();
                        let learned = engine
                            .annotate(site)
                            .and_then(|labels| engine.learn(site, &labels))
                            .map(|ranked| ranked.best().map(|b| b.compile()));
                        matches!(learned, Ok(Some(_)))
                            .then(|| started.elapsed().as_secs_f64() * 1e6)
                    })
                    .collect::<Vec<Option<f64>>>()
            });
            site_us.extend(
                chunk_us
                    .into_iter()
                    .map(|us| us.map(|us| (us, us / factor))),
            );
        }
        attempted += sites.len() as u64;
        failed += site_us.iter().filter(|us| us.is_none()).count() as u64;
        drop((engine, sites));
        if deadline.is_none() {
            deadline = Some(Instant::now() + Duration::from_secs_f64(seconds));
            continue;
        }
        timings.setups.push(setup_s / factor);
        timings.raw_setups.push(setup_s);
        timings.pass_s[g].push(pass_s);
        timings.raw_pass_s[g].push(raw_pass_s);
        for (site, us) in group.zip(site_us) {
            if let Some((raw, calibrated)) = us {
                timings.raw_site_us[site].push(raw);
                timings.site_us[site].push(calibrated);
            }
        }
        counted += 1;
        longest = longest.max(round_started.elapsed());
    }

    // Each group's median pass time and each site's median single-site
    // time, so every group and site weighs the same however many rounds
    // it got.
    let sites = gold.len() as f64;
    let mut site_us = medians(&mut timings.site_us);
    let mut raw_site_us = medians(&mut timings.raw_site_us);
    let raw_rate = sites / medians(&mut timings.raw_pass_s).iter().sum::<f64>();
    result.set(
        "throughput_per_s",
        sites / medians(&mut timings.pass_s).iter().sum::<f64>(),
    );
    result.set("latency_p50_us", quantile(&mut site_us, 0.5));
    result.set("latency_p90_us", quantile(&mut site_us, 0.9));
    result.set("setup_s", median(&mut timings.setups));
    result.notes.push(format!(
        "{counted} rounds; raw (uncalibrated): throughput {raw_rate:.1}/s, latency p50 {:.0} us, p90 {:.0} us, set-up {:.5} s; median host slowdown {:.3}",
        quantile(&mut raw_site_us, 0.5),
        quantile(&mut raw_site_us, 0.9),
        median(&mut timings.raw_setups),
        calibration.median()
    ));
    result.set("peak_rss_mb", peak_rss_mb()?);
    result.attempted = attempted;
    result.failed = failed;
    result.correct = correct;
    Ok(result)
}

/// Traced passes over the corpus, each in chunks of `CHUNK` sites, every
/// chunk one calibrated window: `annotate` and `enumerate` timed per
/// site, the batched `learn_sites_labeled` (which enumerates again and
/// ranks) timed whole, and `compile` per site. Rank time is the batch
/// time minus the summed enumerate time. Each traced chunk is followed
/// by an untraced one (`learn_sites` + `compile`), the baseline for the
/// layer sum and the tracing overhead. Returns the layer sum's gap from
/// the untraced passes, in percent of the latter.
fn ledger(
    engine: &Engine,
    sites: &[Site],
    seconds: f64,
    dir: &Path,
    calibration: &mut Calibration,
    result: &mut RunResult,
) -> Result<f64, String> {
    let mut rec = Recorder::new();
    let mut passes = 0u64;
    let (mut labels_total, mut calls, mut space, mut candidates) = (0usize, 0usize, 0usize, 0usize);
    let mut untraced_us = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || passes == 0 {
        for (c, chunk) in sites.chunks(CHUNK).enumerate() {
            let mark = rec.mark();
            let (traced, factor) = calibration.around(|| -> Result<(), String> {
                let chunk_span = rec.open("learn.chunk", None, passes);
                let parent = Some(chunk_span);
                let mut labels = Vec::with_capacity(chunk.len());
                for (i, site) in chunk.iter().enumerate() {
                    let id = (c * CHUNK + i) as u64;
                    let site_labels = rec
                        .time("annotate", parent, id, || engine.annotate(site))
                        .unwrap_or_default();
                    if !site_labels.is_empty() {
                        let enumerated = rec.time("enumerate", parent, id, || {
                            engine.enumerate(site, &site_labels)
                        });
                        if let Ok(enumerated) = enumerated {
                            calls += enumerated.inductor_calls();
                            space += enumerated.len();
                        }
                    }
                    labels_total += site_labels.len();
                    labels.push(site_labels);
                }
                let labeled: Vec<(&Site, &NodeSet)> = chunk.iter().zip(&labels).collect();
                let ranked = rec
                    .time("learn.batch", parent, passes, || {
                        engine.learn_sites_labeled(&labeled)
                    })
                    .map_err(|e| e.to_string())?;
                for (i, site_ranked) in ranked.iter().enumerate() {
                    candidates += site_ranked.len();
                    if let Some(best) = site_ranked.best() {
                        let id = (c * CHUNK + i) as u64;
                        black_box(rec.time("compile", parent, id, || best.compile()));
                    }
                }
                rec.close(chunk_span);
                Ok(())
            });
            traced?;
            rec.calibrate(mark, factor);

            let (untraced, factor) = calibration.around(|| -> Result<f64, String> {
                let started = Instant::now();
                let ranked = engine.learn_sites(chunk).map_err(|e| e.to_string())?;
                black_box(
                    ranked
                        .iter()
                        .filter_map(|r| r.best().map(|b| b.compile()))
                        .count(),
                );
                Ok(started.elapsed().as_secs_f64() * 1e6)
            });
            untraced_us += untraced? / factor;
        }
        passes += 1;
    }
    rec.write(&dir.join("spans.tsv"))?;

    let total = |name: &str| rec.total_micros(name);
    let per_site = |us: f64| us / (passes as f64 * sites.len() as f64);
    let per_pass = |n: usize| n as f64 / passes as f64;
    let enumerate = total("enumerate");
    result.set("annotate.us", per_site(total("annotate")));
    result.set("enumerate.us", per_site(enumerate));
    result.set("rank.us", per_site(total("learn.batch") - enumerate));
    result.set("compile.us", per_site(total("compile")));
    result.set("annotate.labels", per_pass(labels_total));
    result.set("enumerate.inductor_calls", per_pass(calls));
    result.set("enumerate.space_size", per_pass(space));
    result.set("rank.candidates", per_pass(candidates));
    // The traced pass re-runs enumeration outside the batch to time it;
    // the layer sum (annotate, enumerate, rank, compile) and the overhead
    // compare the rest of the pass with the untraced passes.
    let layer_sum = total("annotate") + total("learn.batch") + total("compile");
    let sum_error_pct = sum_error_pct(layer_sum, untraced_us);
    result.set("trace.sum_error_pct", sum_error_pct);
    let traced_us = total("learn.chunk") - enumerate;
    result.set(
        "trace.overhead_pct",
        100.0 * (traced_us - untraced_us) / untraced_us,
    );
    result.notes.push(format!(
        "traced ledger: {passes} passes over {} sites in chunks of {CHUNK}; layer self times sum to {:.1}% of the untraced pass ({}within the {SUM_TOLERANCE_PCT}% tolerance)",
        sites.len(),
        100.0 * layer_sum / untraced_us,
        if sum_error_pct <= SUM_TOLERANCE_PCT { "" } else { "NOT " }
    ));
    Ok(sum_error_pct)
}
