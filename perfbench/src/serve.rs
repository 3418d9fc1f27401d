//! The serving workloads: `awrap serve` as a child process pinned to one
//! executor thread and one HTTP worker, driven by this one thread over
//! one keep-alive connection, and a traced in-process replay of the same
//! request path for the per-layer ledger.

use crate::calib::{Calibration, SLICE};
use crate::http::{self, Conn};
use crate::report::{median, quantile, RunResult};
use crate::trace::{sum_error_pct, Recorder, SUM_TOLERANCE_PCT};
use crate::workload::Workload;
use aw_core::{
    ArtifactReader, BundleStore, ExtractionService, HealthTracker, PageObservation, WrapperBundle,
    WrapperRegistry,
};
use aw_pool::Executor;
use aw_serve::{respond, Request};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest rounds (set-up, warm-up, timed slices) a run makes, however
/// long they take.
const MIN_ROUNDS: usize = 3;
/// Untimed closed-loop traffic after each set-up: the first repeat
/// sights of a template record the traces later sights replay.
const WARMUP: Duration = Duration::from_millis(300);
/// Timed closed-loop slices per round, each [`SLICE`] long.
const SLICES_PER_ROUND: usize = 6;
/// Rounds of a traced run; each restarts the stream at position 0, so
/// the traced replay meets the same requests.
const TRACE_ROUNDS: usize = 3;
/// Share of `--seconds` a traced run gives the open-loop leg.
const OPEN_SHARE: f64 = 0.1;
/// Slices of the pipelined leg, and the requests it keeps outstanding.
const PIPELINED_SLICES: usize = 5;
const PIPELINE: usize = 4;
/// Share of `--seconds` a traced run gives the layer-by-layer replay.
const REPLAY_SHARE: f64 = 0.35;

/// One distinct request page with its prepared wire bytes and the
/// oracle's reply body.
struct Page {
    site: String,
    gold: Vec<String>,
    body: String,
    raw: Vec<u8>,
    expected: String,
}

struct Inputs {
    bundle: PathBuf,
    max_resident: Option<usize>,
    pages: Vec<Page>,
    stream: Vec<usize>,
    /// Every distinct page once, in order of first request in the
    /// stream: the set-up's warm pass.
    warm: Vec<usize>,
}

impl Inputs {
    fn at(&self, position: usize) -> &Page {
        &self.pages[self.stream[position % self.stream.len()]]
    }
}

fn load(dir: &Path) -> Result<Inputs, String> {
    let path = dir.join("inputs.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = || format!("{}: unexpected shape", path.display());
    let str_of = |v: &Value| v.as_str().map(str::to_string).ok_or_else(bad);
    let array = |v: Option<&Value>| match v {
        Some(Value::Array(items)) => Ok(items.clone()),
        _ => Err(bad()),
    };
    let mut pages = Vec::new();
    for p in array(v.get("pages"))? {
        let site = str_of(p.get("site").ok_or_else(bad)?)?;
        let html = str_of(p.get("html").ok_or_else(bad)?)?;
        let gold = array(p.get("gold"))?
            .iter()
            .map(str_of)
            .collect::<Result<_, _>>()?;
        let body = serde_json::to_string(&Value::Object(vec![
            ("site".into(), Value::String(site.clone())),
            ("html".into(), Value::String(html.clone())),
        ]))
        .map_err(|e| e.to_string())?;
        let raw = http::post("/extract", body.as_bytes());
        pages.push(Page {
            site,
            gold,
            body,
            raw,
            expected: String::new(),
        });
    }
    let stream: Vec<usize> = array(v.get("stream"))?
        .iter()
        .map(|i| {
            i.as_f64()
                .map(|i| i as usize)
                .filter(|&i| i < pages.len())
                .ok_or_else(bad)
        })
        .collect::<Result<_, _>>()?;
    if stream.is_empty() {
        return Err(bad());
    }
    let mut seen = vec![false; pages.len()];
    let mut warm = Vec::with_capacity(pages.len());
    for &i in stream.iter().chain(&(0..pages.len()).collect::<Vec<_>>()) {
        if !std::mem::replace(&mut seen[i], true) {
            warm.push(i);
        }
    }
    Ok(Inputs {
        bundle: dir.join(str_of(v.get("bundle").ok_or_else(bad)?)?),
        max_resident: v
            .get("max_resident")
            .and_then(Value::as_f64)
            .map(|n| n as usize),
        pages,
        stream,
        warm,
    })
}

fn extract_request(body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: "/extract".into(),
        body: body.as_bytes().to_vec(),
    }
}

/// A registry configured the way `awrap serve` configures it.
fn registry(inputs: &Inputs) -> Result<Arc<WrapperRegistry>, String> {
    let registry = match inputs.max_resident {
        Some(cap) => {
            let store = BundleStore::open(&inputs.bundle).map_err(|e| e.to_string())?;
            WrapperRegistry::from_store(Arc::new(store), Some(cap))
        }
        None => WrapperRegistry::from_bundle(
            ArtifactReader::open(&inputs.bundle)
                .and_then(|a| a.into_bundle())
                .map_err(|e| e.to_string())?,
        ),
    };
    Ok(Arc::new(registry))
}

/// The oracle: every page's reply body from a fully resident registry
/// with template caches off, computed in-process before any timing.
fn fill_oracle(inputs: &mut Inputs) -> Result<(), String> {
    let loaded = ArtifactReader::open(&inputs.bundle)
        .and_then(|a| a.into_bundle())
        .map_err(|e| e.to_string())?;
    let mut bundle = WrapperBundle::new();
    for (site, wrapper) in loaded {
        bundle.insert(site, wrapper.with_template_cache(false));
    }
    let service = ExtractionService::new(Arc::new(WrapperRegistry::from_bundle(bundle)))
        .with_executor(Executor::new(1))
        .with_health_tracking(false);
    for page in &mut inputs.pages {
        let reply = respond(&service, &extract_request(&page.body));
        if reply.status != 200 {
            return Err(format!(
                "oracle: {} answered {}: {}",
                page.site, reply.status, reply.body
            ));
        }
        page.expected = reply.body;
    }
    Ok(())
}

/// A running `awrap serve`; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `awrap serve` with one executor thread and one HTTP worker
    /// and returns once it prints the address it listens on.
    fn spawn(awrap: &Path, inputs: &Inputs) -> Result<Server, String> {
        let mut cmd = Command::new(awrap);
        cmd.arg("serve").arg("--bundle").arg(&inputs.bundle).args([
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "1",
            "--workers",
            "1",
        ]);
        if let Some(cap) = inputs.max_resident {
            cmd.args(["--lazy", "--max-resident", &cap.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{}: {e}", awrap.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).map_err(|e| e.to_string());
            if !matches!(n, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("awrap serve exited before it was serving".into());
            }
            if let Some(rest) = line.split("serving on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                match addr.parse() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("server address {addr:?}: {e}"));
                    }
                }
            }
        };
        Ok(Server {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// The server's peak resident set (VmHWM), in MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr).map_err(|e| format!("connect: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Outcome counts of every request sent.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
    shed: u64,
}

impl Tally {
    /// Sends one page on `conn` and checks the reply against its oracle;
    /// true when correct. A transport error reopens the connection.
    fn exchange(&mut self, conn: &mut Option<Conn>, addr: SocketAddr, page: &Page) -> bool {
        let status = match conn {
            Some(c) => c.exchange(&page.raw),
            None => Err(std::io::Error::other("not connected")),
        };
        self.check(conn, addr, status, page)
    }

    /// Checks one reply read from `conn` against `page`'s oracle; true
    /// when correct. A transport error reopens the connection.
    fn check(
        &mut self,
        conn: &mut Option<Conn>,
        addr: SocketAddr,
        status: std::io::Result<u16>,
        page: &Page,
    ) -> bool {
        self.attempted += 1;
        let ok = match status {
            Ok(200) => {
                let same = conn
                    .as_ref()
                    .is_some_and(|c| c.body() == page.expected.as_bytes());
                self.mismatched += u64::from(!same);
                same
            }
            Ok(503 | 408) => {
                self.shed += 1;
                false
            }
            Ok(_) => false,
            Err(_) => {
                *conn = Conn::open(addr).ok();
                false
            }
        };
        self.failed += u64::from(!ok);
        ok
    }

    /// Counts a request lost with its broken connection.
    fn lost(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Checks one in-process reply against `page`'s oracle.
    fn check_reply(&mut self, reply: &aw_serve::Response, page: &Page) -> bool {
        self.attempted += 1;
        let ok = reply.status == 200 && reply.body == page.expected;
        self.failed += u64::from(!ok);
        self.mismatched += u64::from(!ok);
        ok
    }
}

/// Closed loop on one connection for about `length`: keeps `depth`
/// requests outstanding and sends the next stream page as each reply
/// arrives; `cursor` walks the stream across calls. Returns each correct
/// reply's stream position and latency in µs, from its send to the
/// reply's last byte, and the time until the last reply.
fn closed_loop(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    inputs: &Inputs,
    cursor: &mut usize,
    depth: usize,
    length: Duration,
    tally: &mut Tally,
) -> (Vec<(usize, f64)>, Duration) {
    let start = Instant::now();
    let mut pending = std::collections::VecDeque::with_capacity(depth);
    let mut done = Vec::new();
    loop {
        while pending.len() < depth && start.elapsed() < length {
            let position = *cursor;
            *cursor += 1;
            let sent = Instant::now();
            let page = inputs.at(position);
            if conn.as_mut().is_some_and(|c| c.send(&page.raw).is_ok()) {
                pending.push_back((position, sent));
            } else {
                // The unsent request and everything in flight on the
                // broken connection count as failed.
                tally.check(conn, addr, Err(std::io::Error::other("send failed")), page);
                for _ in pending.drain(..) {
                    tally.lost();
                }
            }
        }
        let Some((position, sent)) = pending.pop_front() else {
            break;
        };
        let status = match conn.as_mut() {
            Some(c) => c.recv(),
            None => Err(std::io::Error::other("not connected")),
        };
        let latency = sent.elapsed().as_secs_f64() * 1e6;
        let broken = status.is_err();
        if tally.check(conn, addr, status, inputs.at(position)) {
            done.push((position, latency));
        }
        if broken {
            for _ in pending.drain(..) {
                tally.lost();
            }
        }
    }
    (done, start.elapsed())
}

/// Open loop on one connection over the stream positions `requests`:
/// the `i`-th is due at `i / rate` and is sent when due or as soon as
/// the previous reply arrived. Latency counts from the due time. Returns
/// per-request latencies and send lateness, in µs, raw.
fn open_loop(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    inputs: &Inputs,
    rate: f64,
    requests: std::ops::Range<usize>,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>) {
    let start = Instant::now() + Duration::from_millis(20);
    let (mut latencies, mut lateness) = (Vec::new(), Vec::new());
    for (i, position) in requests.enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        // Sleep to just short of the due time, then yield until it:
        // sleeping alone overshoots by the timer slack, and a bare spin
        // would hold a core the server may need.
        let spin_from = due.checked_sub(Duration::from_micros(100)).unwrap_or(due);
        let now = Instant::now();
        if now < spin_from {
            std::thread::sleep(spin_from - now);
        }
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let sent = Instant::now();
        tally.exchange(conn, addr, inputs.at(position));
        lateness.push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
        latencies.push(due.elapsed().as_secs_f64() * 1e6);
    }
    (latencies, lateness)
}

/// One set-up: `awrap serve` spawned and every distinct page answered
/// once, each reply checked, timed in calibrated slices.
struct SetUp {
    server: Server,
    /// Calibrated seconds from spawn to the last warm reply.
    seconds: f64,
    raw_seconds: f64,
    /// Calibrated milliseconds from spawn until the server listened.
    spawn_ms: f64,
    /// Whether each warm-pass reply (in warm order) was correct.
    correct: Vec<bool>,
}

/// Spawns the server and runs the warm pass in slices of at most
/// [`SLICE`]; the spawn opens the first slice. The calibration samples
/// between slices are not counted.
fn set_up(
    awrap: &Path,
    inputs: &Inputs,
    calibration: &mut Calibration,
    tally: &mut Tally,
) -> Result<SetUp, String> {
    let mut server: Option<Server> = None;
    let mut conn = None;
    let mut correct = Vec::with_capacity(inputs.warm.len());
    let (mut seconds, mut raw_seconds, mut spawn_ms) = (0.0, 0.0, 0.0);
    while server.is_none() || correct.len() < inputs.warm.len() {
        let (slice, factor) = calibration.around(|| -> Result<_, String> {
            let started = Instant::now();
            let mut spawn = None;
            if server.is_none() {
                let spawned = Server::spawn(awrap, inputs)?;
                spawn = Some(started.elapsed());
                conn = Some(spawned.connect()?);
                server = Some(spawned);
            }
            let addr = server.as_ref().expect("spawned above").addr;
            while correct.len() < inputs.warm.len() && started.elapsed() < SLICE {
                let page = &inputs.pages[inputs.warm[correct.len()]];
                correct.push(tally.exchange(&mut conn, addr, page));
            }
            Ok((started.elapsed(), spawn))
        });
        let (elapsed, spawn) = slice?;
        if let Some(spawn) = spawn {
            spawn_ms = spawn.as_secs_f64() * 1e3 / factor;
        }
        raw_seconds += elapsed.as_secs_f64();
        seconds += elapsed.as_secs_f64() / factor;
    }
    Ok(SetUp {
        server: server.expect("spawned in the first slice"),
        seconds,
        raw_seconds,
        spawn_ms,
        correct,
    })
}

/// Counters scraped from `GET /wrappers` and gauges from `GET /health`.
#[derive(Default, Clone)]
struct Scrape {
    /// Per-site `[full, frame, record, fallback, replays, other]`.
    sites: HashMap<String, [f64; 6]>,
    faults: f64,
    evictions: f64,
    grace_hits: f64,
    /// Degraded sites and retained pages at the time of the scrape.
    degraded: f64,
    retained_pages: f64,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("scrape: {e}"))?;
    let mut get = |path: &str| -> Result<Value, String> {
        let status = conn
            .exchange(&http::get(path))
            .map_err(|e| format!("GET {path}: {e}"))?;
        let body = std::str::from_utf8(conn.body()).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("GET {path}: {status} {body}"));
        }
        serde_json::from_str(body).map_err(|e| format!("GET {path}: {e}"))
    };
    let wrappers = get("/wrappers")?;
    let health = get("/health")?;
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
    let mut out = Scrape::default();
    if let Some(Value::Array(sites)) = wrappers.get("sites") {
        for s in sites {
            let replay = s.get("replay");
            let field = |name| num(replay.and_then(|r| r.get(name)));
            out.sites.insert(
                s.get("site")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                [
                    field("full_replays"),
                    field("frame_replays"),
                    field("record_replays"),
                    field("record_fallbacks"),
                    num(s.get("template_replays")),
                    num(s.get("template_other")),
                ],
            );
        }
    }
    let residency = wrappers.get("residency");
    out.faults = num(residency.and_then(|r| r.get("faults")));
    out.evictions = num(residency.and_then(|r| r.get("evictions")));
    out.grace_hits = num(residency.and_then(|r| r.get("grace_hits")));
    if let Some(Value::Array(sites)) = health.get("sites") {
        for s in sites {
            out.degraded += f64::from(u8::from(matches!(
                s.get("degraded"),
                Some(Value::Bool(true))
            )));
            out.retained_pages += num(s.get("retained_pages"));
        }
    }
    Ok(out)
}

impl Scrape {
    /// Counter growth from `before` to `self`. A wrapper evicted between
    /// the scrapes takes its counters with it, and one faulted back in
    /// starts from zero, so per-site deltas are a lower bound under a
    /// resident cap.
    fn since(&self, before: &Scrape) -> Scrape {
        let mut sites = HashMap::new();
        for (site, after) in &self.sites {
            let delta = match before.sites.get(site) {
                Some(b) if (0..6).all(|i| after[i] >= b[i]) => {
                    std::array::from_fn(|i| after[i] - b[i])
                }
                _ => *after,
            };
            sites.insert(site.clone(), delta);
        }
        Scrape {
            sites,
            faults: self.faults - before.faults,
            evictions: self.evictions - before.evictions,
            grace_hits: self.grace_hits - before.grace_hits,
            degraded: self.degraded,
            retained_pages: self.retained_pages,
        }
    }

    /// Accumulates another window's counter deltas.
    fn add(&mut self, delta: &Scrape) {
        for (site, counts) in &delta.sites {
            let sum = self.sites.entry(site.clone()).or_insert([0.0; 6]);
            for i in 0..6 {
                sum[i] += counts[i];
            }
        }
        self.faults += delta.faults;
        self.evictions += delta.evictions;
        self.grace_hits += delta.grace_hits;
    }

    fn total(&self, i: usize) -> f64 {
        self.sites.values().map(|c| c[i]).sum()
    }
}

/// Mean per-site F1 of the served values (the oracle's, for each reply
/// that matched it byte for byte; none for a failed one) against the
/// generator's gold values, matched as multisets per page.
fn served_f1(inputs: &Inputs, correct: &[bool]) -> Result<f64, String> {
    let mut per_site: HashMap<&str, [f64; 3]> = HashMap::new();
    for (&i, &ok) in inputs.warm.iter().zip(correct) {
        let page = &inputs.pages[i];
        let values = if ok {
            values_of(page.expected.as_bytes())?
        } else {
            Vec::new()
        };
        let mut gold: HashMap<&str, usize> = HashMap::new();
        for g in &page.gold {
            *gold.entry(g).or_default() += 1;
        }
        let mut tp = 0.0;
        for v in &values {
            if let Some(n) = gold.get_mut(v.as_str()).filter(|n| **n > 0) {
                *n -= 1;
                tp += 1.0;
            }
        }
        let c = per_site.entry(&page.site).or_default();
        c[0] += tp;
        c[1] += values.len() as f64;
        c[2] += page.gold.len() as f64;
    }
    let f1s: Vec<f64> = per_site
        .values()
        .map(|&[tp, served, gold]| {
            if tp == 0.0 {
                0.0
            } else {
                2.0 * tp / (served + gold)
            }
        })
        .collect();
    Ok(f1s.iter().sum::<f64>() / f1s.len().max(1) as f64)
}

fn values_of(body: &[u8]) -> Result<Vec<String>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
    match v.get("values") {
        Some(Value::Array(items)) => Ok(items
            .iter()
            .filter_map(|i| i.as_str().map(str::to_string))
            .collect()),
        _ => Err("reply without values".into()),
    }
}

/// What the rounds of one run measured.
#[derive(Default)]
struct Rounds {
    /// Calibrated and raw set-up seconds, spawn milliseconds, per round.
    setups: Vec<f64>,
    raw_setups: Vec<f64>,
    spawn_ms: Vec<f64>,
    /// Calibrated and raw correct replies per second, per slice.
    rates: Vec<f64>,
    raw_rates: Vec<f64>,
    /// Each slice's p50 and p90 latency, calibrated, and raw.
    p50s: Vec<f64>,
    p90s: Vec<f64>,
    raw_p50s: Vec<f64>,
    raw_p90s: Vec<f64>,
    /// `(stream position, calibrated µs)` of every correct timed reply.
    latencies: Vec<(usize, f64)>,
    rss_mb: Vec<f64>,
    /// Replay and residency counters over the timed slices.
    counters: Scrape,
    /// The first set-up's warm-pass outcomes, for the served F1.
    first_warm: Vec<bool>,
}

impl Rounds {
    /// One round: set up a fresh server, warm it up, then time
    /// [`SLICES_PER_ROUND`] closed-loop slices from stream position
    /// `*cursor`. With `scrape_counters`, counters are read around the
    /// slices. Returns the server, still running.
    fn run(
        &mut self,
        awrap: &Path,
        inputs: &Inputs,
        calibration: &mut Calibration,
        tally: &mut Tally,
        cursor: &mut usize,
        scrape_counters: bool,
    ) -> Result<Server, String> {
        let setup = set_up(awrap, inputs, calibration, tally)?;
        if self.setups.is_empty() {
            self.first_warm = setup.correct;
        }
        self.setups.push(setup.seconds);
        self.raw_setups.push(setup.raw_seconds);
        self.spawn_ms.push(setup.spawn_ms);
        let server = setup.server;
        let addr = server.addr;
        let mut conn = Some(server.connect()?);
        closed_loop(&mut conn, addr, inputs, cursor, 1, WARMUP, tally);
        let before = if scrape_counters {
            Some(scrape(addr)?)
        } else {
            None
        };
        for _ in 0..SLICES_PER_ROUND {
            let ((done, elapsed), factor) = calibration
                .around(|| closed_loop(&mut conn, addr, inputs, cursor, 1, SLICE, tally));
            let rate = done.len() as f64 / elapsed.as_secs_f64();
            self.raw_rates.push(rate);
            self.rates.push(rate * factor);
            let mut us: Vec<f64> = done.iter().map(|&(_, us)| us).collect();
            let (p50, p90) = (quantile(&mut us, 0.5), quantile(&mut us, 0.9));
            self.raw_p50s.push(p50);
            self.raw_p90s.push(p90);
            self.p50s.push(p50 / factor);
            self.p90s.push(p90 / factor);
            self.latencies
                .extend(done.iter().map(|&(position, us)| (position, us / factor)));
        }
        if let Some(before) = before {
            self.counters.add(&scrape(addr)?.since(&before));
        }
        self.rss_mb.push(server.peak_rss_mb()?);
        Ok(server)
    }
}

pub fn measure(
    workload: Workload,
    open_rate: f64,
    dir: &Path,
    awrap: &Path,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let mut inputs = load(dir)?;
    fill_oracle(&mut inputs)?;
    let mut result = RunResult::default();
    result.notes.push(format!(
        "{workload:?}: {} distinct pages; awrap serve --threads 1 --workers 1; one client thread, one keep-alive connection",
        inputs.pages.len()
    ));
    if trace {
        traced(&inputs, open_rate, dir, awrap, seconds, result)
    } else {
        untraced(&inputs, awrap, seconds, result)
    }
}

/// The end-to-end run: rounds of set-up and timed closed-loop slices
/// until `seconds` have passed.
fn untraced(
    inputs: &Inputs,
    awrap: &Path,
    seconds: f64,
    mut result: RunResult,
) -> Result<RunResult, String> {
    let mut calibration = Calibration::new();
    let mut tally = Tally::default();
    let mut rounds = Rounds::default();
    let mut cursor = 0;
    let started = Instant::now();
    let mut longest = Duration::ZERO;
    while rounds.setups.len() < MIN_ROUNDS
        || started.elapsed() + longest < Duration::from_secs_f64(seconds)
    {
        let round = Instant::now();
        rounds.run(
            awrap,
            inputs,
            &mut calibration,
            &mut tally,
            &mut cursor,
            false,
        )?;
        longest = longest.max(round.elapsed());
    }
    let mut latencies: Vec<f64> = rounds.latencies.iter().map(|&(_, us)| us).collect();
    result.set("throughput_per_s", median(&mut rounds.rates));
    result.set("latency_p50_us", median(&mut rounds.p50s));
    result.set("latency_p90_us", median(&mut rounds.p90s));
    result.set("setup_s", median(&mut rounds.setups));
    result.set("peak_rss_mb", median(&mut rounds.rss_mb));
    result.set("extract_f1", served_f1(inputs, &rounds.first_warm)?);
    result.notes.push(format!(
        "{} rounds, {} timed slices, {} timed requests; p99 {:.0} us; set-up spawn {:.2} ms (median)",
        rounds.setups.len(),
        rounds.rates.len(),
        latencies.len(),
        quantile(&mut latencies, 0.99),
        median(&mut rounds.spawn_ms),
    ));
    result.notes.push(format!(
        "raw (uncalibrated): throughput {:.1}/s, latency p50 {:.0} us, p90 {:.0} us, set-up {:.5} s; median host slowdown {:.3}",
        median(&mut rounds.raw_rates),
        median(&mut rounds.raw_p50s),
        median(&mut rounds.raw_p90s),
        median(&mut rounds.raw_setups),
        calibration.median()
    ));
    result.attempted = tally.attempted;
    result.failed = tally.failed;
    result.correct = tally.mismatched == 0;
    Ok(result)
}

/// The per-layer run: a few rounds with counters scraped, the
/// report-only open-loop and pipelined legs, and the traced in-process
/// replay. Not correct unless the replay's layer self times sum to its
/// untraced `respond` time within [`SUM_TOLERANCE_PCT`].
fn traced(
    inputs: &Inputs,
    open_rate: f64,
    dir: &Path,
    awrap: &Path,
    seconds: f64,
    mut result: RunResult,
) -> Result<RunResult, String> {
    let mut calibration = Calibration::new();
    let mut tally = Tally::default();
    let mut rounds = Rounds::default();
    let mut server = None;
    for _ in 0..TRACE_ROUNDS {
        drop(server.take());
        let mut cursor = 0;
        server = Some(rounds.run(
            awrap,
            inputs,
            &mut calibration,
            &mut tally,
            &mut cursor,
            true,
        )?);
    }
    let server = server.expect("at least one round");
    let addr = server.addr;
    result.set("setup.spawn_ms", median(&mut rounds.spawn_ms));
    let mut warm_ms: Vec<f64> = rounds
        .setups
        .iter()
        .zip(&rounds.spawn_ms)
        .map(|(s, spawn)| s * 1e3 - spawn)
        .collect();
    result.set("setup.warm_ms", median(&mut warm_ms));

    // Report-only legs on the last round's server: an open loop at a
    // fixed rate (raw), then pipelined closed-loop slices (calibrated).
    let mut conn = Some(server.connect()?);
    let n = (open_rate * seconds * OPEN_SHARE).ceil() as usize;
    let (mut open, mut late) = open_loop(&mut conn, addr, inputs, open_rate, 0..n, &mut tally);
    result.set("http.open_p50_us", quantile(&mut open, 0.5));
    result.set("http.open_p99_us", quantile(&mut open, 0.99));
    result.set("loadgen.late_p99_us", quantile(&mut late, 0.99));
    let mut cursor = 0;
    let mut pipelined = Vec::new();
    for _ in 0..PIPELINED_SLICES {
        let ((done, elapsed), factor) = calibration.around(|| {
            closed_loop(
                &mut conn,
                addr,
                inputs,
                &mut cursor,
                PIPELINE,
                SLICE,
                &mut tally,
            )
        });
        pipelined.push(done.len() as f64 / elapsed.as_secs_f64() * factor);
    }
    result.set("http.pipelined_per_s", median(&mut pipelined));
    let end = scrape(addr)?;
    drop(conn);
    drop(server);

    let counts = &rounds.counters;
    let timed = rounds.latencies.len() as f64;
    let replayed = counts.total(0) + counts.total(1);
    for (name, value) in [
        ("xpath.full_replays", counts.total(0)),
        ("xpath.frame_replays", counts.total(1)),
        ("xpath.record_replays", counts.total(2)),
        ("xpath.record_fallbacks", counts.total(3)),
        ("xpath.misses", counts.total(5)),
        (
            "xpath.replay_ratio",
            replayed / (counts.total(4) + counts.total(5)).max(1.0),
        ),
        ("registry.faults", counts.faults),
        ("registry.evictions", counts.evictions),
        ("registry.grace_hits", counts.grace_hits),
        ("registry.fault_ratio", counts.faults / timed.max(1.0)),
        ("health.degraded", end.degraded),
        ("health.retained_pages", end.retained_pages),
    ] {
        result.set(name, value);
    }
    result.notes.push(format!(
        "{TRACE_ROUNDS} rounds: {} timed requests, {} faults, {} evictions; open loop: {n} requests at {} req/s",
        rounds.latencies.len(),
        counts.faults,
        counts.evictions,
        open_rate,
    ));

    let ledger = traced_replay(
        inputs,
        seconds * REPLAY_SHARE,
        dir,
        &mut calibration,
        &mut tally,
    )?;
    // The reactor's share: HTTP latency minus in-process `respond` on the
    // same stream positions, both calibrated medians.
    let (mut http_us, mut respond_us): (Vec<f64>, Vec<f64>) = rounds
        .latencies
        .iter()
        .filter_map(|&(position, us)| Some((us, *ledger.respond_us.get(position)?)))
        .unzip();
    result.set(
        "serve.reactor_us",
        quantile(&mut http_us, 0.5) - quantile(&mut respond_us, 0.5),
    );
    result.notes.push(format!(
        "reactor share over {} common requests: HTTP p50 {:.1} us, respond p50 {:.1} us",
        http_us.len(),
        quantile(&mut http_us, 0.5),
        quantile(&mut respond_us, 0.5)
    ));
    for (name, value) in ledger.metrics {
        result.set(name, value);
    }
    result.notes.extend(ledger.notes);
    result.set("serve.shed", tally.shed as f64);
    result.attempted = tally.attempted;
    result.failed = tally.failed;
    result.correct = tally.mismatched == 0 && ledger.sum_error_pct <= SUM_TOLERANCE_PCT;
    result.set("calib.slowdown", calibration.median());
    Ok(result)
}

/// What the traced replay measured.
struct Ledger {
    metrics: Vec<(&'static str, f64)>,
    /// Calibrated untraced `respond` µs per stream position, from 0.
    respond_us: Vec<f64>,
    /// Gap between the summed layer self times and the untraced
    /// `respond` time, in percent of the latter.
    sum_error_pct: f64,
    notes: Vec<String>,
}

/// The request path of `aw_serve::respond` for `POST /extract`, called
/// layer by layer through public functions with a span around each.
struct TracedPath {
    registry: Arc<WrapperRegistry>,
    health: HealthTracker,
    executor: Executor,
}

/// Bytes and counts one traced request moved through the layers.
#[derive(Default)]
struct Moved {
    decode_bytes: usize,
    encode_bytes: usize,
    parse_bytes: usize,
    nodes: usize,
    values: usize,
}

impl TracedPath {
    fn serve(
        &self,
        rec: &mut Recorder,
        id: u64,
        body: &str,
        moved: &mut Moved,
    ) -> Result<String, String> {
        let root_span = rec.open("serve.respond", None, id);
        let root = Some(root_span);
        let (site, html) = rec.time("json.decode", root, id, || -> Result<_, String> {
            let v = serde_json::from_str(body).map_err(|e| e.to_string())?;
            let site = v
                .get("site")
                .and_then(Value::as_str)
                .ok_or("no site")?
                .to_string();
            let html = v
                .get("html")
                .and_then(Value::as_str)
                .ok_or("no html")?
                .to_string();
            Ok((site, html))
        })?;
        let wrapper = rec
            .time("registry.lookup", root, id, || {
                self.registry.get_or_fault(&site)
            })
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("unknown site {site}"))?;
        let doc = rec.time("dom.parse", root, id, || {
            aw_dom::parse_indexed(&html).into_document()
        });
        let ids = rec.time("xpath.eval", root, id, || {
            wrapper.extract_pages_with(std::slice::from_ref(&doc), &self.executor)
        });
        let values: Vec<String> = rec.time("core.materialize", root, id, || {
            ids[0]
                .iter()
                .filter_map(|&n| doc.text(n).map(str::to_string))
                .collect()
        });
        rec.time("health.observe", root, id, || {
            let observation = PageObservation {
                html: html.clone(),
                values: values.len(),
                chars: values.iter().map(String::len).sum(),
                error: None,
            };
            self.health
                .observe(&site, &[observation], wrapper.template_cache_stats())
        });
        moved.decode_bytes += body.len();
        moved.parse_bytes += html.len();
        moved.nodes += doc.len();
        moved.values += values.len();
        let reply = rec.time("json.encode", root, id, || {
            let strings =
                |items: &[String]| Value::Array(items.iter().cloned().map(Value::String).collect());
            let reply = Value::Object(vec![
                ("site".into(), Value::String(site.clone())),
                (
                    "language".into(),
                    Value::String(wrapper.language().to_string()),
                ),
                ("rule".into(), Value::String(wrapper.rule().to_string())),
                ("pages".into(), Value::Array(vec![strings(&values)])),
                ("values".into(), strings(&values)),
                ("errors".into(), Value::Array(vec![Value::Null])),
            ]);
            serde_json::to_string(&reply).map_err(|e| e.to_string())
        })?;
        moved.encode_bytes += reply.len();
        rec.close(root_span);
        Ok(reply)
    }
}

/// Replays the request stream in-process from position 0, after the
/// same warm pass the server's set-up makes: per request,
/// `aw_serve::respond` on one service (untraced), then the traced
/// layer-by-layer path on a twin registry that has seen the same
/// requests, so both meet the same cache and residency state. Runs in
/// calibrated slices for about `seconds`.
fn traced_replay(
    inputs: &Inputs,
    seconds: f64,
    dir: &Path,
    calibration: &mut Calibration,
    tally: &mut Tally,
) -> Result<Ledger, String> {
    // The service `awrap serve --threads 1` runs.
    let service = ExtractionService::new(registry(inputs)?).with_executor(Executor::new(1));
    let path = TracedPath {
        registry: registry(inputs)?,
        health: HealthTracker::default(),
        executor: Executor::new(1),
    };
    let mut moved = Moved::default();
    let mut warm_rec = Recorder::new();
    for &i in &inputs.warm {
        let page = &inputs.pages[i];
        tally.check_reply(&respond(&service, &extract_request(&page.body)), page);
        let traced = path.serve(&mut warm_rec, 0, &page.body, &mut moved)?;
        if traced != page.expected {
            tally.mismatched += 1;
        }
    }
    let mut moved = Moved::default();
    let mut rec = Recorder::new();
    let mut respond_us = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let mark = rec.mark();
        let (slice, factor) = calibration.around(|| -> Result<Vec<f64>, String> {
            let started = Instant::now();
            let mut us = Vec::new();
            while started.elapsed() < SLICE {
                let position = respond_us.len() + us.len();
                let page = inputs.at(position);
                let request = extract_request(&page.body);
                let untraced = |us: &mut Vec<f64>| {
                    let started = Instant::now();
                    let reply = respond(&service, &request);
                    us.push(started.elapsed().as_secs_f64() * 1e6);
                    reply
                };
                // Alternate which twin goes first, so neither always
                // finds the request bytes warm in cache.
                let (reply, traced) = if position.is_multiple_of(2) {
                    let reply = untraced(&mut us);
                    (
                        reply,
                        path.serve(&mut rec, position as u64, &page.body, &mut moved)?,
                    )
                } else {
                    let traced = path.serve(&mut rec, position as u64, &page.body, &mut moved)?;
                    (untraced(&mut us), traced)
                };
                tally.check_reply(&reply, page);
                if traced != page.expected {
                    tally.mismatched += 1;
                }
            }
            Ok(us)
        });
        respond_us.extend(slice?.iter().map(|us| us / factor));
        rec.calibrate(mark, factor);
    }
    rec.write(&dir.join("spans.tsv"))?;

    let n = respond_us.len() as f64;
    let per = |total: f64| total / n;
    let own = rec.self_micros();
    let layer = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let layers = [
        ("json.decode_us", "json.decode"),
        ("registry.lookup_us", "registry.lookup"),
        ("dom.parse_us", "dom.parse"),
        ("xpath.eval_us", "xpath.eval"),
        ("core.materialize_us", "core.materialize"),
        ("health.observe_us", "health.observe"),
        ("json.encode_us", "json.encode"),
    ];
    let mut metrics: Vec<(&'static str, f64)> = layers
        .iter()
        .map(|&(metric, span)| (metric, per(layer(span))))
        .collect();
    let layer_sum: f64 = layers.iter().map(|&(_, span)| layer(span)).sum();
    let traced_total = rec.total_micros("serve.respond");
    let respond_total: f64 = respond_us.iter().sum();
    let sum_error_pct = sum_error_pct(layer_sum, respond_total);
    metrics.extend([
        ("serve.respond_us", per(respond_total)),
        ("trace.sum_error_pct", sum_error_pct),
        (
            "trace.overhead_pct",
            100.0 * (traced_total - respond_total) / respond_total,
        ),
        ("json.decode_bytes", per(moved.decode_bytes as f64)),
        ("json.encode_bytes", per(moved.encode_bytes as f64)),
        ("dom.parse_bytes", per(moved.parse_bytes as f64)),
        ("dom.nodes", per(moved.nodes as f64)),
        ("core.values", per(moved.values as f64)),
    ]);
    let within = sum_error_pct <= SUM_TOLERANCE_PCT;
    let notes = vec![format!(
        "traced replay: {n} requests; layer self times sum to {:.1}% of respond ({}within the {SUM_TOLERANCE_PCT}% tolerance)",
        100.0 * layer_sum / respond_total,
        if within { "" } else { "NOT " }
    )];
    Ok(Ledger {
        metrics,
        respond_us,
        sum_error_pct,
        notes,
    })
}
