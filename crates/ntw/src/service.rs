//! The serving side: a resident wrapper store and a concurrent
//! extraction service.
//!
//! The paper's economics are "learn offline, extract at web scale": a
//! wrapper is induced once per site and then applied to every page the
//! crawler brings in. Until this module the public surface stopped at
//! one-shot [`CompiledWrapper::extract_pages`] calls — there was no API
//! for holding *many* sites' wrappers resident and answering concurrent
//! extraction requests. Two types close that gap:
//!
//! * [`WrapperRegistry`] — a read-mostly map from site keys to serving
//!   wrappers. Readers take an atomic snapshot (`Arc` swap behind a
//!   brief `RwLock`), so a request in flight always sees one consistent
//!   generation: hot-swapping a [`WrapperBundle`] under load never
//!   serves a torn view. Wrappers untouched by an update keep their
//!   identity — and therefore their warmed template caches. At web
//!   scale the registry goes **lazy**: built over a v3
//!   [`crate::BundleStore`] ([`WrapperRegistry::from_store`]), it
//!   faults wrappers in per site on demand and bounds residency with
//!   LRU eviction — same snapshot atomicity, byte-identical responses.
//! * [`ExtractionService`] — the request loop. [`ExtractionService::handle`]
//!   parses each request page once into a `DocIndex`, routes to the
//!   site's wrapper, and evaluates through that wrapper's **persistent
//!   per-site batch trie and cross-page [`aw_xpath::TemplateCache`]**
//!   on the shared executor. Structurally identical pages arriving in
//!   *separate requests* therefore hit template replay: the cache
//!   belongs to the resident wrapper, not to any single call.
//!
//! `aw-serve` fronts an `ExtractionService` with an HTTP/1.1 interface
//! (`awrap serve`); in-process consumers use it directly (see
//! `examples/serve_extract.rs`). Responses are byte-identical to direct
//! [`CompiledWrapper::extract_pages`] for every language, thread count
//! and cache setting — enforced by `tests/extraction_service.rs`.

use crate::artifact::{CompiledWrapper, WrapperBundle};
use crate::config::WrapperLanguage;
use crate::error::AwError;
use crate::health::{HealthThresholds, HealthTracker, PageObservation, SiteHealth};
use crate::latency::LatencyHistogram;
use crate::relearn::RelearnController;
use crate::store::BundleStore;
use aw_dom::Document;
use aw_pool::Executor;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// One immutable generation of the registry's contents.
#[derive(Debug, Default)]
struct Snapshot {
    wrappers: BTreeMap<String, Arc<CompiledWrapper>>,
    generation: u64,
}

/// LRU residency bookkeeping for a registry backed by a
/// [`BundleStore`]: which resident site was touched when, the recently
/// evicted grace set, and the fault/eviction counters.
///
/// Guarded by one mutex, taken by every registry mutation and by the
/// lazy read path ([`WrapperRegistry::get_or_fault`]) — **before** the
/// snapshot lock, always in that order. The fully-resident read path
/// ([`WrapperRegistry::get`]) never touches it.
#[derive(Debug, Default)]
struct Residency {
    /// The backing store faults load from; `None` until attached.
    store: Option<Arc<BundleStore>>,
    /// Cap on resident wrappers; `None` = unbounded.
    max_resident: Option<usize>,
    /// Monotonic access clock for LRU ordering.
    tick: u64,
    /// Last-touch tick per resident site (absent = never touched,
    /// i.e. first in line for eviction).
    touch: BTreeMap<String, u64>,
    /// Recently evicted wrappers, oldest first. A re-request within
    /// the grace window reinstates the *same* `Arc` — warmed template
    /// caches survive one round trip through eviction.
    grace: VecDeque<(String, Arc<CompiledWrapper>)>,
    /// Segments faulted in from the store.
    faults: u64,
    /// Wrappers evicted to enforce `max_resident`.
    evictions: u64,
    /// Faults answered from the grace set (cache-warm reinstates).
    grace_hits: u64,
}

impl Residency {
    /// Grace window size: a quarter of the residency cap, floor 2.
    fn grace_cap(&self) -> usize {
        self.max_resident.map_or(2, |cap| (cap / 4).max(2))
    }

    fn touch(&mut self, site: &str) {
        self.tick += 1;
        self.touch.insert(site.to_string(), self.tick);
    }

    fn forget(&mut self, site: &str) {
        self.touch.remove(site);
        self.grace.retain(|(key, _)| key != site);
    }
}

/// A point-in-time report of a lazy registry's residency state — the
/// payload behind the HTTP front end's `GET /wrappers` `"residency"`
/// object.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Wrappers currently resident (= [`WrapperRegistry::len`]).
    pub resident: usize,
    /// The residency cap, if one is set.
    pub max_resident: Option<usize>,
    /// Sites indexed by the attached [`BundleStore`], if one is.
    pub store_sites: Option<usize>,
    /// Segments faulted in from the store since attach.
    pub faults: u64,
    /// Wrappers evicted to enforce the cap.
    pub evictions: u64,
    /// Evicted wrappers currently in the grace window.
    pub grace_entries: usize,
    /// Faults answered by reinstating a grace-window wrapper (its
    /// warmed template cache intact).
    pub grace_hits: u64,
}

/// A read-mostly, atomically swappable store of serving wrappers, keyed
/// by site.
///
/// Reads clone an `Arc` snapshot under a briefly-held read lock; every
/// mutation builds a fresh snapshot (sharing the untouched wrappers'
/// `Arc`s, so their template caches survive) and swaps it in whole. A
/// concurrent reader therefore observes either the old generation or
/// the new one, never a mixture.
///
/// ## Lazy mode: bounded residency over a [`BundleStore`]
///
/// A registry built with [`WrapperRegistry::from_store`] starts
/// *empty* and faults wrappers in one segment at a time as requests
/// name them ([`WrapperRegistry::get_or_fault`]), optionally bounded
/// by a residency cap: the least-recently-touched wrapper is evicted
/// when the cap is exceeded, passing through a small grace window that
/// preserves its warmed template cache across an immediate
/// re-request. Snapshots stay atomic — a fault-in or eviction is an
/// ordinary hot swap, so concurrent readers still see one consistent
/// generation and responses are byte-identical to the fully-resident
/// path.
///
/// ## Generation contract
///
/// The generation counts mutation *attempts*, not effective changes:
/// every [`WrapperRegistry::load_bundle`] / insert / remove swaps in a
/// new snapshot and bumps it, including a remove of an absent key. In
/// lazy mode, fault-ins and evictions are mutations like any other —
/// each bumps the generation once.
#[derive(Debug, Default)]
pub struct WrapperRegistry {
    snapshot: RwLock<Arc<Snapshot>>,
    residency: Mutex<Residency>,
    /// Fast-path flag mirroring `residency.store.is_some()`: lets
    /// [`WrapperRegistry::get_or_fault`] skip the residency mutex
    /// entirely for fully-resident registries.
    lazy: AtomicBool,
}

impl WrapperRegistry {
    /// An empty registry (generation 0).
    pub fn new() -> WrapperRegistry {
        WrapperRegistry::default()
    }

    /// A registry pre-loaded with a bundle's wrappers (generation 1).
    pub fn from_bundle(bundle: WrapperBundle) -> WrapperRegistry {
        let registry = WrapperRegistry::new();
        registry.load_bundle(bundle);
        registry
    }

    /// A **lazy** registry over a v3 [`BundleStore`]: starts empty
    /// (generation 0) and faults wrappers in per site on
    /// [`WrapperRegistry::get_or_fault`], keeping at most
    /// `max_resident` resident (`None` = unbounded).
    pub fn from_store(store: Arc<BundleStore>, max_resident: Option<usize>) -> WrapperRegistry {
        let registry = WrapperRegistry::new();
        {
            let mut res = registry.residency();
            res.store = Some(store);
            res.max_resident = max_resident.map(|cap| cap.max(1));
        }
        registry.lazy.store(true, Ordering::Release);
        registry
    }

    fn residency(&self) -> std::sync::MutexGuard<'_, Residency> {
        self.residency
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn read(&self) -> Arc<Snapshot> {
        // Recover from poisoning instead of panicking: the slot only
        // ever holds a fully-built Arc (swapped in one assignment), so
        // a panic elsewhere cannot leave it inconsistent — and a
        // serving loop must not let one panicked request poison every
        // later one.
        Arc::clone(
            &self
                .snapshot
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Builds the next generation from the current one and swaps it in.
    fn swap(
        &self,
        update: impl FnOnce(&Snapshot) -> BTreeMap<String, Arc<CompiledWrapper>>,
    ) -> u64 {
        let mut slot = self
            .snapshot
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let next = Snapshot {
            wrappers: update(&slot),
            generation: slot.generation + 1,
        };
        let generation = next.generation;
        *slot = Arc::new(next);
        generation
    }

    /// **Hot swap**: atomically replaces the registry's entire contents
    /// with the bundle's wrappers, returning the new generation.
    /// Requests already holding the previous snapshot finish against it;
    /// new requests see only the new one.
    ///
    /// In lazy mode the swapped-in wrappers are all counted as freshly
    /// touched and the grace window is cleared; if the bundle exceeds
    /// the residency cap, evictions follow immediately (each bumping
    /// the generation past the returned one).
    pub fn load_bundle(&self, bundle: WrapperBundle) -> u64 {
        let mut res = self.residency();
        let wrappers: BTreeMap<String, Arc<CompiledWrapper>> = bundle
            .into_iter()
            .map(|(key, wrapper)| (key, Arc::new(wrapper)))
            .collect();
        let keys: Vec<String> = wrappers.keys().cloned().collect();
        let generation = self.swap(move |_| wrappers);
        if self.lazy.load(Ordering::Acquire) {
            res.touch.clear();
            res.grace.clear();
            for key in &keys {
                res.touch(key);
            }
            self.evict_to_cap(&mut res);
        }
        generation
    }

    /// Adds (or replaces) one site's wrapper, returning the new
    /// generation. Other sites' wrappers — and their warmed template
    /// caches — are untouched.
    pub fn insert(&self, site: impl Into<String>, wrapper: CompiledWrapper) -> u64 {
        self.insert_shared(site, Arc::new(wrapper))
    }

    /// [`WrapperRegistry::insert`] for a wrapper that is already shared.
    /// `CompiledWrapper` is deliberately not `Clone` (its caches are
    /// identity), so re-installing a previously displaced wrapper — the
    /// relearn loop's rollback path — goes through its retained `Arc`.
    ///
    /// Returns the generation of the snapshot that contains the insert.
    /// Like every mutator it bumps the generation exactly once — even
    /// when re-installing the `Arc` already serving `site` (the
    /// rollback no-op still swaps). In lazy mode the inserted site
    /// counts as freshly touched; a capacity eviction triggered by the
    /// insert advances the generation *past* the returned value.
    pub fn insert_shared(&self, site: impl Into<String>, wrapper: Arc<CompiledWrapper>) -> u64 {
        let site = site.into();
        let mut res = self.residency();
        let generation = self.swap({
            let site = site.clone();
            move |current| {
                let mut next = current.wrappers.clone();
                next.insert(site, wrapper);
                next
            }
        });
        if self.lazy.load(Ordering::Acquire) {
            // A direct insert supersedes any graced copy of the site.
            res.grace.retain(|(key, _)| key != &site);
            res.touch(&site);
            self.evict_to_cap(&mut res);
        }
        generation
    }

    /// Removes one site's wrapper; `true` if it was present.
    ///
    /// Removing an **absent** key still swaps in a (contents-identical)
    /// snapshot and bumps the generation: the generation counts
    /// mutation attempts, so a deployer polling for "generation ≥ G"
    /// needs no special case for no-op removes. In lazy mode the site's
    /// touch record and any graced copy are dropped too — but the
    /// backing [`BundleStore`] is immutable, so a later
    /// [`WrapperRegistry::get_or_fault`] re-faults a pristine copy:
    /// `remove` evicts a site from residency, it does not unpublish it.
    pub fn remove(&self, site: &str) -> bool {
        let mut res = self.residency();
        let mut removed = false;
        self.swap(|current| {
            let mut next = current.wrappers.clone();
            removed = next.remove(site).is_some();
            next
        });
        res.forget(site);
        removed
    }

    /// The wrapper serving `site`, from the current snapshot. The `Arc`
    /// keeps serving consistently even if the registry is swapped while
    /// the request is in flight.
    ///
    /// Resident wrappers only: in lazy mode this never faults — use
    /// [`WrapperRegistry::get_or_fault`] on the request path.
    pub fn get(&self, site: &str) -> Option<Arc<CompiledWrapper>> {
        self.read().wrappers.get(site).cloned()
    }

    /// The wrapper serving `site`, faulting it in from the attached
    /// [`BundleStore`] if it is not resident — the request-path lookup
    /// ([`ExtractionService::handle`] uses it).
    ///
    /// Resolution order: resident snapshot (no fault), grace window
    /// (reinstates the evicted `Arc`, warmed template cache intact),
    /// then the store (deserializes one segment). `Ok(None)` when the
    /// site is nowhere; errors only for a damaged store segment.
    /// Without an attached store this is exactly [`WrapperRegistry::get`]
    /// and takes no lock beyond the snapshot read.
    pub fn get_or_fault(&self, site: &str) -> Result<Option<Arc<CompiledWrapper>>, AwError> {
        if !self.lazy.load(Ordering::Acquire) {
            return Ok(self.get(site));
        }
        let mut res = self.residency();
        if let Some(wrapper) = self.get(site) {
            res.touch(site);
            return Ok(Some(wrapper));
        }
        if let Some(pos) = res.grace.iter().position(|(key, _)| key == site) {
            let (key, wrapper) = res.grace.remove(pos).expect("position is in bounds");
            res.grace_hits += 1;
            self.install(&mut res, key, Arc::clone(&wrapper));
            return Ok(Some(wrapper));
        }
        let Some(store) = res.store.clone() else {
            return Ok(None);
        };
        match store.load(site)? {
            None => Ok(None),
            Some(wrapper) => {
                let wrapper = Arc::new(wrapper);
                res.faults += 1;
                self.install(&mut res, site.to_string(), Arc::clone(&wrapper));
                Ok(Some(wrapper))
            }
        }
    }

    /// Installs a faulted-in wrapper: touch, swap it into the snapshot,
    /// enforce the cap. Caller holds the residency lock.
    fn install(&self, res: &mut Residency, site: String, wrapper: Arc<CompiledWrapper>) {
        res.touch(&site);
        self.swap(move |current| {
            let mut next = current.wrappers.clone();
            next.insert(site, wrapper);
            next
        });
        self.evict_to_cap(res);
    }

    /// Evicts least-recently-touched wrappers until the resident count
    /// is within the cap, parking each in the grace window. Caller
    /// holds the residency lock; each eviction is an ordinary snapshot
    /// swap (generation bumps once per evicted site).
    fn evict_to_cap(&self, res: &mut Residency) {
        let Some(cap) = res.max_resident else {
            return;
        };
        loop {
            let snapshot = self.read();
            if snapshot.wrappers.len() <= cap {
                break;
            }
            let victim = snapshot
                .wrappers
                .keys()
                .min_by_key(|key| res.touch.get(*key).copied().unwrap_or(0))
                .expect("over-cap snapshot is nonempty")
                .clone();
            let wrapper = snapshot
                .wrappers
                .get(&victim)
                .cloned()
                .expect("victim came from this snapshot");
            drop(snapshot);
            self.swap(|current| {
                let mut next = current.wrappers.clone();
                next.remove(&victim);
                next
            });
            res.touch.remove(&victim);
            res.evictions += 1;
            res.grace.push_back((victim, wrapper));
            let grace_cap = res.grace_cap();
            while res.grace.len() > grace_cap {
                res.grace.pop_front();
            }
        }
    }

    /// A point-in-time residency report. Meaningful for lazy
    /// registries; a fully-resident one reports its size with no store
    /// and zero counters.
    pub fn residency_stats(&self) -> ResidencyStats {
        let res = self.residency();
        ResidencyStats {
            resident: self.len(),
            max_resident: res.max_resident,
            store_sites: res.store.as_ref().map(|store| store.len()),
            faults: res.faults,
            evictions: res.evictions,
            grace_entries: res.grace.len(),
            grace_hits: res.grace_hits,
        }
    }

    /// The registered site keys, ascending.
    pub fn site_keys(&self) -> Vec<String> {
        self.read().wrappers.keys().cloned().collect()
    }

    /// `(site key, wrapper)` pairs of the current snapshot, in key
    /// order — one consistent generation.
    pub fn entries(&self) -> Vec<(String, Arc<CompiledWrapper>)> {
        self.snapshot_entries().1
    }

    /// `(generation, site count)` from one snapshot read — the
    /// allocation-free pairing for liveness probes that only need a
    /// count (cf. [`WrapperRegistry::snapshot_entries`]).
    pub fn snapshot_stats(&self) -> (u64, usize) {
        let snapshot = self.read();
        (snapshot.generation, snapshot.wrappers.len())
    }

    /// The generation **and** its entries from one snapshot read —
    /// unlike separate [`WrapperRegistry::generation`] +
    /// [`WrapperRegistry::entries`] calls, the pairing cannot straddle
    /// a concurrent hot swap (a deployer polling for generation ≥ G
    /// must never see G paired with the pre-swap site list).
    pub fn snapshot_entries(&self) -> (u64, Vec<(String, Arc<CompiledWrapper>)>) {
        let snapshot = self.read();
        (
            snapshot.generation,
            snapshot
                .wrappers
                .iter()
                .map(|(k, w)| (k.clone(), Arc::clone(w)))
                .collect(),
        )
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.read().wrappers.len()
    }

    /// True when no wrapper is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mutation counter: 0 for a fresh registry, bumped by every
    /// [`WrapperRegistry::load_bundle`] / insert / remove.
    pub fn generation(&self) -> u64 {
        self.read().generation
    }
}

/// A point-in-time report of the service's request-path parsing (the
/// one-pass [`aw_dom::parse_indexed`]) — the payload behind the HTTP
/// front end's `GET /wrappers` `"parse"` object.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Pages parsed on the request path (parse failures included).
    pub pages: u64,
    /// Cumulative wall time spent parsing + indexing, in microseconds.
    pub micros: u64,
}

/// Lock-free accumulators behind [`ParseStats`]; relaxed ordering is
/// fine — the counters are monotonic telemetry, never synchronization.
#[derive(Debug, Default)]
struct ParseCounters {
    pages: AtomicU64,
    micros: AtomicU64,
}

impl ParseCounters {
    fn observe(&self, micros: u64) {
        self.pages.fetch_add(1, Ordering::Relaxed);
        self.micros.fetch_add(micros, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ParseStats {
        ParseStats {
            pages: self.pages.load(Ordering::Relaxed),
            micros: self.micros.load(Ordering::Relaxed),
        }
    }
}

/// One extraction request: raw HTML pages of one registered site.
#[derive(Clone, Debug)]
pub struct ExtractRequest {
    /// The site key the pages belong to (routes to that site's wrapper).
    pub site: String,
    /// The pages to extract from, as raw HTML (one entry per page).
    pub pages: Vec<String>,
}

impl ExtractRequest {
    /// A request for one page.
    pub fn single(site: impl Into<String>, html: impl Into<String>) -> ExtractRequest {
        ExtractRequest {
            site: site.into(),
            pages: vec![html.into()],
        }
    }
}

/// What [`ExtractionService::handle`] extracted.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtractResponse {
    /// The site key the request routed to.
    pub site: String,
    /// The serving wrapper's language.
    pub language: WrapperLanguage,
    /// The serving wrapper's rule, in display form.
    pub rule: String,
    /// Extracted text values, one list per request page (aligned with
    /// [`ExtractRequest::pages`]).
    pub pages: Vec<Vec<String>>,
    /// Structured per-page errors, aligned with `pages`: `Some` when a
    /// request page failed to parse (it contributes an empty value list
    /// and counts toward the site's health window; the request as a
    /// whole still succeeds).
    pub errors: Vec<Option<String>>,
}

impl ExtractResponse {
    /// All extracted values, flattened across the request's pages.
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.pages.iter().flatten().map(String::as_str)
    }
}

/// The concurrent serving loop over a [`WrapperRegistry`].
///
/// `&ExtractionService` is `Sync`: any number of threads call
/// [`ExtractionService::handle`] simultaneously (the HTTP front end in
/// `aw-serve` does exactly that, one connection per worker). Responses
/// are deterministic — byte-identical to sequential evaluation at every
/// thread count and cache setting.
#[derive(Debug)]
pub struct ExtractionService {
    registry: Arc<WrapperRegistry>,
    executor: Executor,
    health: Arc<HealthTracker>,
    health_enabled: bool,
    relearn: Option<Arc<RelearnController>>,
    latency: LatencyHistogram,
    parse_counters: ParseCounters,
}

impl ExtractionService {
    /// A service over `registry`, evaluating on [`Executor::global`],
    /// with health tracking on at default thresholds.
    pub fn new(registry: Arc<WrapperRegistry>) -> ExtractionService {
        ExtractionService {
            registry,
            executor: Executor::global().clone(),
            health: Arc::new(HealthTracker::default()),
            health_enabled: true,
            relearn: None,
            latency: LatencyHistogram::new(),
            parse_counters: ParseCounters::default(),
        }
    }

    /// Replaces the executor driving page parsing and evaluation.
    pub fn with_executor(mut self, executor: Executor) -> ExtractionService {
        self.executor = executor;
        self
    }

    /// Replaces the health tracker with one at the given thresholds.
    /// Call before [`crate::relearn::RelearnController::new`] — the
    /// controller captures the tracker in effect at construction.
    pub fn with_thresholds(mut self, thresholds: HealthThresholds) -> ExtractionService {
        self.health = Arc::new(HealthTracker::new(thresholds));
        self
    }

    /// Turns per-request health accounting on or off (on by default).
    /// With it off, requests skip the tracker entirely — the toggle the
    /// `service_health_ratio` benchmark flips.
    pub fn with_health_tracking(mut self, enabled: bool) -> ExtractionService {
        self.health_enabled = enabled;
        self
    }

    /// Attaches a relearn controller: sites that newly cross a
    /// degradation threshold are enqueued on it.
    pub fn with_relearn(mut self, relearn: Arc<RelearnController>) -> ExtractionService {
        self.relearn = Some(relearn);
        self
    }

    /// A snapshot of the request-path parse counters.
    pub fn parse_stats(&self) -> ParseStats {
        self.parse_counters.snapshot()
    }

    /// The registry requests route through (shared: hot-swap it from
    /// anywhere, in-flight requests stay consistent).
    pub fn registry(&self) -> &Arc<WrapperRegistry> {
        &self.registry
    }

    /// The executor driving parallel stages.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The health tracker fed by [`ExtractionService::handle`].
    pub fn health(&self) -> &Arc<HealthTracker> {
        &self.health
    }

    /// The service's request-latency histogram. The service itself does
    /// **not** record into it — whoever frames requests does (the HTTP
    /// front end records full per-request wall time; an in-process
    /// caller can record around [`ExtractionService::handle`]), so the
    /// numbers mean "what a caller waited", not just extraction time.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// The attached relearn controller, if any.
    pub fn relearn(&self) -> Option<&Arc<RelearnController>> {
        self.relearn.as_ref()
    }

    /// One site's health snapshot (`None` until it serves a request).
    pub fn site_health(&self, site: &str) -> Option<SiteHealth> {
        self.health.health(site)
    }

    /// Health snapshots of every site that has served a request.
    pub fn all_health(&self) -> Vec<SiteHealth> {
        self.health.all_health()
    }

    /// Serves one request: parse each page once (building its
    /// `DocIndex`), route to the site's wrapper — faulting it in from
    /// the registry's bundle store if the registry is lazy and the
    /// wrapper is not resident — evaluate through the wrapper's
    /// persistent batch trie + template cache on the service executor,
    /// and return the extracted text values per page.
    ///
    /// Errors with [`AwError::UnknownSite`] when no wrapper is
    /// registered for (or faultable to) the request's site key. A page that fails to
    /// *parse* does not fail the request: it yields an empty value list
    /// plus a structured entry in [`ExtractResponse::errors`], and
    /// counts toward the site's health window.
    pub fn handle(&self, request: &ExtractRequest) -> Result<ExtractResponse, AwError> {
        let wrapper = self
            .registry
            .get_or_fault(&request.site)?
            .ok_or_else(|| AwError::UnknownSite(request.site.clone()))?;
        // One parse + one DocIndex per page, built in a single pass by
        // the streaming indexer; page-parallel for multi-page requests
        // (nested maps join the shared worker team). Parsing is
        // infallible by design, but a serving loop must not let one
        // hostile page take down a whole batch — so each page is
        // unwind-guarded and gated on producing at least one node.
        let parsed: Vec<Result<Document, String>> = self.executor.map(&request.pages, |html| {
            let started = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                aw_dom::parse_indexed(html).into_document()
            }))
            .map_err(|_| "page parser panicked".to_string())
            .and_then(|doc| {
                if doc.len() <= 1 {
                    Err("page produced no parseable content".to_string())
                } else {
                    Ok(doc)
                }
            });
            self.parse_counters
                .observe(started.elapsed().as_micros() as u64);
            result
        });
        let errors: Vec<Option<String>> =
            parsed.iter().map(|r| r.as_ref().err().cloned()).collect();
        // Errored slots keep an (empty) placeholder document so page
        // alignment through the batch extractor is positional.
        let docs: Vec<Document> = parsed
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| aw_dom::parse("")))
            .collect();
        let pages: Vec<Vec<String>> = wrapper
            .extract_pages_with(&docs, &self.executor)
            .into_iter()
            .zip(&docs)
            .map(|(ids, doc)| {
                ids.into_iter()
                    .filter_map(|id| doc.text(id).map(str::to_string))
                    .collect()
            })
            .collect();
        if self.health_enabled {
            let observations: Vec<PageObservation> = request
                .pages
                .iter()
                .zip(&pages)
                .zip(&errors)
                .map(|((html, values), error)| PageObservation {
                    html: html.clone(),
                    values: values.len(),
                    chars: values.iter().map(String::len).sum(),
                    error: error.clone(),
                })
                .collect();
            let newly_degraded =
                self.health
                    .observe(&request.site, &observations, wrapper.template_cache_stats());
            if newly_degraded {
                if let Some(relearn) = &self.relearn {
                    relearn.enqueue(&request.site);
                }
            }
        }
        Ok(ExtractResponse {
            site: request.site.clone(),
            language: wrapper.language(),
            rule: wrapper.rule().to_string(),
            pages,
            errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::LearnedRule;
    use aw_induct::{NodeSet, Site};

    fn training_site() -> Site {
        let page = |rows: &[(&str, &str)]| {
            let mut s = String::from("<table class='stores'>");
            for (n, a) in rows {
                s.push_str(&format!("<tr><td><b>{n}</b></td><td>{a}</td></tr>"));
            }
            s + "</table>"
        };
        Site::from_html(&[
            page(&[("ALPHA CO", "1 Elm"), ("BETA LLC", "2 Oak")]),
            page(&[("GAMMA INC", "3 Fir"), ("DELTA LTD", "4 Ash")]),
        ])
    }

    fn wrapper(language: WrapperLanguage) -> CompiledWrapper {
        let site = training_site();
        let mut labels = NodeSet::new();
        labels.extend(site.find_text("ALPHA CO"));
        labels.extend(site.find_text("DELTA LTD"));
        CompiledWrapper::from_rule(LearnedRule::learn(&site, language, &labels))
    }

    fn fresh_html(name: &str) -> String {
        format!("<table class='stores'><tr><td><b>{name}</b></td><td>9 Elm</td></tr></table>")
    }

    #[test]
    fn registry_snapshots_are_atomic_and_generation_counts() {
        let registry = WrapperRegistry::new();
        assert_eq!(registry.generation(), 0);
        assert!(registry.is_empty());
        registry.insert("a", wrapper(WrapperLanguage::XPath));
        assert_eq!(registry.generation(), 1);
        registry.insert("b", wrapper(WrapperLanguage::Lr));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.site_keys(), ["a", "b"]);
        assert!(registry.remove("a"));
        assert!(!registry.remove("a"));
        assert_eq!(registry.generation(), 4, "failed removes still swap");
        assert!(registry.get("a").is_none());
        assert!(registry.get("b").is_some());
    }

    fn store_of(languages: &[(&str, WrapperLanguage)]) -> Arc<BundleStore> {
        let mut bundle = WrapperBundle::new();
        for (key, language) in languages {
            bundle.insert(*key, wrapper(*language));
        }
        Arc::new(BundleStore::from_bytes(bundle.to_binary()).unwrap())
    }

    #[test]
    fn lazy_registry_faults_in_per_site_and_counts() {
        let store = store_of(&[
            ("a", WrapperLanguage::XPath),
            ("b", WrapperLanguage::Lr),
            ("c", WrapperLanguage::Hlrt),
        ]);
        let registry = WrapperRegistry::from_store(Arc::clone(&store), None);
        assert_eq!(registry.generation(), 0);
        assert!(registry.is_empty(), "lazy registries start empty");
        assert!(registry.get("a").is_none(), "get never faults");
        let a = registry.get_or_fault("a").unwrap().expect("store has a");
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.generation(), 1, "fault-in is one swap");
        // Second lookup is resident — the same Arc, no extra fault.
        let again = registry.get_or_fault("a").unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &again));
        assert!(registry.get_or_fault("missing").unwrap().is_none());
        let stats = registry.residency_stats();
        assert_eq!(stats.resident, 1);
        assert_eq!(stats.faults, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.store_sites, Some(3));
        assert_eq!(stats.max_resident, None);
    }

    #[test]
    fn lru_eviction_respects_cap_and_bumps_generation() {
        let store = store_of(&[
            ("a", WrapperLanguage::XPath),
            ("b", WrapperLanguage::Lr),
            ("c", WrapperLanguage::Hlrt),
        ]);
        let registry = WrapperRegistry::from_store(store, Some(2));
        registry.get_or_fault("a").unwrap().unwrap();
        registry.get_or_fault("b").unwrap().unwrap();
        // Re-touch "a" so "b" is the LRU victim.
        registry.get_or_fault("a").unwrap().unwrap();
        let before = registry.generation();
        registry.get_or_fault("c").unwrap().unwrap();
        // Fault-in + eviction: two snapshot swaps (pinned — LRU
        // eviction also bumps snapshots).
        assert_eq!(registry.generation(), before + 2);
        assert_eq!(registry.site_keys(), ["a", "c"], "b was LRU");
        let stats = registry.residency_stats();
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.faults, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.grace_entries, 1);
    }

    #[test]
    fn grace_window_reinstates_the_same_arc() {
        let store = store_of(&[
            ("a", WrapperLanguage::XPath),
            ("b", WrapperLanguage::Lr),
            ("c", WrapperLanguage::Hlrt),
        ]);
        let registry = WrapperRegistry::from_store(store, Some(2));
        let a = registry.get_or_fault("a").unwrap().unwrap();
        registry.get_or_fault("b").unwrap().unwrap();
        registry.get_or_fault("c").unwrap().unwrap(); // evicts "a"
        assert!(registry.get("a").is_none());
        let back = registry.get_or_fault("a").unwrap().unwrap();
        assert!(
            Arc::ptr_eq(&a, &back),
            "grace reinstates the evicted Arc, caches intact"
        );
        let stats = registry.residency_stats();
        assert_eq!(stats.grace_hits, 1);
        assert_eq!(stats.faults, 3, "a grace hit is not a store fault");
    }

    #[test]
    fn remove_in_lazy_mode_evicts_but_does_not_unpublish() {
        let store = store_of(&[("a", WrapperLanguage::XPath)]);
        let registry = WrapperRegistry::from_store(store, None);
        registry.get_or_fault("a").unwrap().unwrap();
        assert!(registry.remove("a"));
        assert!(registry.get("a").is_none());
        // The store is immutable: the site faults back in pristine.
        assert!(registry.get_or_fault("a").unwrap().is_some());
        assert_eq!(registry.residency_stats().faults, 2);
    }

    #[test]
    fn get_or_fault_without_a_store_is_plain_get() {
        let registry = WrapperRegistry::new();
        registry.insert("a", wrapper(WrapperLanguage::XPath));
        assert!(registry.get_or_fault("a").unwrap().is_some());
        assert!(registry.get_or_fault("b").unwrap().is_none());
        let stats = registry.residency_stats();
        assert_eq!(stats.resident, 1);
        assert_eq!(stats.store_sites, None);
        assert_eq!(stats.faults, 0);
    }

    #[test]
    fn insert_shared_rollback_reinstall_still_bumps_generation_once() {
        let registry = WrapperRegistry::new();
        registry.insert("a", wrapper(WrapperLanguage::XPath));
        let displaced = registry.get("a").unwrap();
        registry.insert("a", wrapper(WrapperLanguage::Lr));
        assert_eq!(registry.generation(), 2);
        // Rollback path: re-installing the retained Arc is one swap.
        let generation = registry.insert_shared("a", Arc::clone(&displaced));
        assert_eq!(generation, 3);
        assert_eq!(registry.generation(), 3);
        assert!(Arc::ptr_eq(&registry.get("a").unwrap(), &displaced));
    }

    #[test]
    fn lazy_service_responses_match_resident_service() {
        let mut bundle = WrapperBundle::new();
        bundle.insert("x", wrapper(WrapperLanguage::XPath));
        bundle.insert("l", wrapper(WrapperLanguage::Lr));
        let bytes = bundle.to_binary();
        let resident = ExtractionService::new(Arc::new(WrapperRegistry::from_bundle(bundle)));
        let lazy = ExtractionService::new(Arc::new(WrapperRegistry::from_store(
            Arc::new(BundleStore::from_bytes(bytes).unwrap()),
            Some(1),
        )));
        for site in ["x", "l", "x", "l"] {
            let request = ExtractRequest::single(site, fresh_html("OMEGA GROUP"));
            assert_eq!(
                lazy.handle(&request).unwrap(),
                resident.handle(&request).unwrap(),
                "site {site}"
            );
        }
        let stats = lazy.registry().residency_stats();
        assert!(stats.resident <= 1, "cap respected: {stats:?}");
        assert!(stats.evictions >= 1);
    }

    #[test]
    fn snapshot_entries_pair_generation_with_its_contents() {
        let registry = WrapperRegistry::new();
        registry.insert("a", wrapper(WrapperLanguage::XPath));
        let (generation, entries) = registry.snapshot_entries();
        assert_eq!(generation, 1);
        assert_eq!(
            entries.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["a"]
        );
        assert_eq!(registry.entries().len(), 1);
    }

    #[test]
    fn load_bundle_replaces_wholesale() {
        let registry = WrapperRegistry::new();
        registry.insert("stale", wrapper(WrapperLanguage::XPath));
        let mut bundle = WrapperBundle::new();
        bundle.insert("fresh", wrapper(WrapperLanguage::Hlrt));
        registry.load_bundle(bundle);
        assert_eq!(registry.site_keys(), ["fresh"]);
    }

    #[test]
    fn insert_preserves_untouched_wrappers_and_their_caches() {
        let registry = WrapperRegistry::new();
        registry.insert("warm", wrapper(WrapperLanguage::XPath));
        let service = ExtractionService::new(Arc::new(registry));
        // Two structurally identical requests: bypass, record…
        for name in ["OMEGA", "SIGMA"] {
            service
                .handle(&ExtractRequest::single("warm", fresh_html(name)))
                .unwrap();
        }
        // …an unrelated insert must not reset the warm wrapper…
        service
            .registry()
            .insert("other", wrapper(WrapperLanguage::Lr));
        // …so the third request replays.
        service
            .handle(&ExtractRequest::single("warm", fresh_html("KAPPA")))
            .unwrap();
        let warm = service.registry().get("warm").unwrap();
        let (hits, _) = warm.template_cache_stats().expect("cache on by default");
        assert_eq!(hits, 1, "third same-template request must replay");
    }

    #[test]
    fn handle_routes_and_errors() {
        let registry = Arc::new(WrapperRegistry::new());
        registry.insert("dealers", wrapper(WrapperLanguage::XPath));
        let service = ExtractionService::new(Arc::clone(&registry));
        let ok = service
            .handle(&ExtractRequest::single(
                "dealers",
                fresh_html("OMEGA GROUP"),
            ))
            .unwrap();
        assert_eq!(ok.site, "dealers");
        assert_eq!(ok.language, WrapperLanguage::XPath);
        assert_eq!(ok.pages, vec![vec!["OMEGA GROUP".to_string()]]);
        assert_eq!(ok.values().collect::<Vec<_>>(), ["OMEGA GROUP"]);
        assert_eq!(
            service
                .handle(&ExtractRequest::single("nope", fresh_html("X")))
                .unwrap_err(),
            AwError::UnknownSite("nope".into())
        );
    }

    #[test]
    fn multi_page_requests_align_and_match_single_page_calls() {
        let registry = Arc::new(WrapperRegistry::new());
        registry.insert("dealers", wrapper(WrapperLanguage::XPath));
        for threads in [1, 4] {
            let service =
                ExtractionService::new(Arc::clone(&registry)).with_executor(Executor::new(threads));
            let request = ExtractRequest {
                site: "dealers".into(),
                pages: vec![
                    fresh_html("OMEGA"),
                    "<p>nothing</p>".into(),
                    fresh_html("SIGMA"),
                ],
            };
            let response = service.handle(&request).unwrap();
            assert_eq!(
                response.pages,
                vec![vec!["OMEGA".to_string()], vec![], vec!["SIGMA".to_string()]],
                "threads {threads}"
            );
            let singles: Vec<Vec<String>> = request
                .pages
                .iter()
                .map(|html| {
                    service
                        .handle(&ExtractRequest::single("dealers", html.clone()))
                        .unwrap()
                        .pages
                        .remove(0)
                })
                .collect();
            assert_eq!(response.pages, singles, "threads {threads}");
        }
    }

    #[test]
    fn parse_stats_count_every_request_page() {
        let registry = Arc::new(WrapperRegistry::new());
        registry.insert("dealers", wrapper(WrapperLanguage::XPath));
        let service = ExtractionService::new(registry);
        assert_eq!(service.parse_stats(), ParseStats::default());
        let request = ExtractRequest {
            site: "dealers".into(),
            pages: vec![
                fresh_html("OMEGA"),
                "<p>nothing</p>".into(),
                "   ".into(), // unparseable: empty document
            ],
        };
        let response = service.handle(&request).unwrap();
        assert_eq!(response.pages[0], vec!["OMEGA".to_string()]);
        assert!(response.errors[2].is_some());
        assert_eq!(service.parse_stats().pages, 3);
    }
}
