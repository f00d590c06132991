//! `served-mix`: an open-loop request mix against the serving stack.
//!
//! A fresh backend `Server` (2 workers, journal on) runs behind a fresh
//! `Gateway`, both in this process. Set-up starts them, sends a cold
//! `profile` request and primes a pool of points into the result cache;
//! it is repeated on both sides of the window, and the repetition just
//! before the window serves it.
//!
//! The timed window replays a seeded Poisson schedule from one
//! generator thread over two connections:
//!
//! * gateway: cached `simulate` reads of the pool (`read`), uncached
//!   `simulate` with never-repeated seeds (`sim`), and a 12-point
//!   `sweep-stream` with a fresh seed about once per second (`sweep`);
//! * backend, direct: journaled `"job"` writes of pool points (`job`)
//!   and a small share of cached reads (`dread`).
//!
//! Every latency runs from the request's scheduled send time, so a
//! stalled generator or connection charges the wait to the requests
//! behind it. Percentiles are taken within one class.

use crate::common::{median, mix, quantile, Args, Report, RunDir};
use crate::trace::Tracer;
use ssim::prelude::*;
use ssim_serve::json::Json;
use ssim_serve::proto::Envelope;
use ssim_serve::{
    sweep_digest, Client, Gateway, GatewayConfig, MachineSpec, PointResult, ProfileParams, Request,
    Server, ServerConfig,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WORKLOAD: &str = "gzip";
const SKIP: u64 = 4_000_000;
const PROFILE_INSTR: u64 = 600_000;
const R: u64 = 15;
/// Cold set-ups before the window (the last serves it) and after it.
const SETUP_REPS_BEFORE: usize = 4;
const SETUP_REPS_AFTER: usize = 4;
/// Gateway forwarding workers. A forward holds its worker for the whole
/// request (a sweep for all of its points), so the pool is sized to
/// keep the gateway clear of saturation at the offered load.
const GATEWAY_WORKERS: usize = 16;
/// Read pool: every (width, seed) pair, primed during set-up.
const POOL_WIDTHS: [u64; 3] = [2, 4, 8];
const POOL_SEEDS: u64 = 8;
const SWEEP_WINDOWS: [u64; 4] = [16, 32, 64, 128];
/// In-process re-simulations of served points after the window.
const SAMPLE: usize = 16;
/// Longest the backlog may take to drain after the last scheduled
/// send before the run counts as overloaded.
const MAX_DRAIN_S: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Class {
    Read,
    Sim,
    Sweep,
    Job,
    DRead,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Sim => "sim",
            Class::Sweep => "sweep",
            Class::Job => "job",
            Class::DRead => "dread",
        }
    }

    /// Offered rate (requests per second).
    fn rate(self) -> f64 {
        match self {
            Class::Read => 80.0,
            Class::Sim => 10.0,
            Class::Sweep => 1.0,
            Class::Job => 20.0,
            Class::DRead => 10.0,
        }
    }

    /// Whether the class goes to the backend directly.
    fn direct(self) -> bool {
        matches!(self, Class::Job | Class::DRead)
    }
}

const CLASSES: [Class; 5] = [
    Class::Read,
    Class::Sim,
    Class::Sweep,
    Class::Job,
    Class::DRead,
];

/// One scheduled request.
struct Event {
    at: f64,
    class: Class,
    width: u64,
    seed: u64,
}

fn unit(seed: u64, k: u64, lane: u64) -> f64 {
    ((mix(seed, lane, k) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// The seeded open-loop schedule for a `seconds`-long window: Poisson
/// arrivals conditioned on their count. Each class gets exactly
/// `rate × seconds` requests at independent uniform times — sweeps
/// one per one-second slot — so every seed offers the same load and
/// only the arrival pattern varies.
fn schedule(seed: u64, seconds: f64) -> Vec<Event> {
    let mut events = Vec::new();
    for (lane, class) in CLASSES.into_iter().enumerate() {
        let count = (class.rate() * seconds).round() as u64;
        for k in 0..count {
            let u = unit(seed, k, 2 * lane as u64);
            let at = if class == Class::Sweep {
                (k as f64 + u) * seconds / count as f64
            } else {
                u * seconds
            };
            let r = mix(seed, 2 * lane as u64 + 1, k);
            let (width, point_seed) = match class {
                // Pool points: cached since set-up.
                Class::Read | Class::Job | Class::DRead => {
                    (POOL_WIDTHS[(r % 3) as usize], 1 + (r >> 8) % POOL_SEEDS)
                }
                // Never-repeated seeds, disjoint from the pool's.
                Class::Sim | Class::Sweep => (
                    POOL_WIDTHS[(r % 3) as usize],
                    ((1_000 + lane as u64) << 32) | k,
                ),
            };
            events.push(Event {
                at,
                class,
                width,
                seed: point_seed,
            });
        }
    }
    events.sort_by(|a, b| a.at.total_cmp(&b.at));
    events
}

fn profile_params() -> ProfileParams {
    ProfileParams {
        workload: WORKLOAD.to_string(),
        instructions: PROFILE_INSTR,
        skip: SKIP,
    }
}

fn simulate(width: u64, seed: u64) -> Request {
    Request::Simulate {
        profile: profile_params(),
        machine: MachineSpec {
            width: Some(width),
            ..MachineSpec::default()
        },
        r: R,
        seed,
    }
}

fn sweep_machines() -> Vec<MachineSpec> {
    let mut machines = Vec::new();
    for &width in &POOL_WIDTHS {
        for &window in &SWEEP_WINDOWS {
            machines.push(MachineSpec {
                width: Some(width),
                window: Some(window),
                ..MachineSpec::default()
            });
        }
    }
    machines
}

/// A request in flight.
struct Pending {
    class: Class,
    due: Instant,
    width: u64,
    seed: u64,
}

/// A request's outcome, as its connection's reader saw it.
struct Done {
    id: u64,
    class: Class,
    due: Instant,
    at: Instant,
    ok: bool,
    point: Option<PointResult>,
    width: u64,
    seed: u64,
    digest: Option<u64>,
}

/// State shared between the generator and the two readers.
#[derive(Default)]
struct Ledger {
    pending: Mutex<HashMap<u64, Pending>>,
    done: Mutex<Vec<Done>>,
    errors: Mutex<Vec<String>>,
    duplicates: AtomicU64,
}

impl Ledger {
    fn error(&self, msg: String) {
        self.errors.lock().expect("ledger poisoned").push(msg);
    }
}

/// Reads replies (and sweep frames) until the connection closes.
fn reader(stream: TcpStream, ledger: &Ledger) {
    let mut frames: HashMap<u64, BTreeMap<u64, PointResult>> = HashMap::new();
    let mut lines = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let at = Instant::now();
        let v = match Json::parse(line.trim()) {
            Ok(v) => v,
            Err(e) => {
                ledger.error(format!("unparseable reply {line:?}: {e}"));
                continue;
            }
        };
        let Some(id) = v.get("id").and_then(Json::as_u64) else {
            ledger.error(format!("reply without id: {line:?}"));
            continue;
        };
        if v.get("frame").and_then(Json::as_str) == Some("point") {
            let index = v.get("index").and_then(Json::as_u64);
            let point = v.get("point").map(PointResult::from_json);
            match (index, point) {
                (Some(i), Some(Ok(p))) => {
                    if frames.entry(id).or_default().insert(i, p).is_some() {
                        ledger.error(format!("request {id}: duplicate frame {i}"));
                    }
                }
                _ => ledger.error(format!("request {id}: malformed frame")),
            }
            continue;
        }
        let Some(p) = ledger.pending.lock().expect("ledger poisoned").remove(&id) else {
            ledger.duplicates.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let mut done = Done {
            id,
            class: p.class,
            due: p.due,
            at,
            ok: false,
            point: None,
            width: p.width,
            seed: p.seed,
            digest: None,
        };
        let class = p.class.name();
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let why = if v.get("retry_after_ms").is_some() {
                "refused (backpressure)".to_string()
            } else {
                v.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("error")
                    .to_string()
            };
            ledger.error(format!("{class} request {id}: {why}"));
        } else if p.class == Class::Sweep {
            let merged: Vec<PointResult> = frames
                .remove(&id)
                .unwrap_or_default()
                .into_values()
                .collect();
            let expect = v.get("results").and_then(Json::as_arr).map(<[Json]>::len);
            let digest = v.get("digest").and_then(Json::as_hex_u64);
            if expect == Some(merged.len()) && digest == Some(sweep_digest(&merged)) {
                done.ok = true;
                done.digest = digest;
            } else {
                ledger.error(format!(
                    "sweep {id}: {} frames do not merge to the digest",
                    merged.len()
                ));
            }
        } else {
            match PointResult::from_json(&v) {
                Ok(point) => {
                    // Pool points were primed during set-up; sim seeds
                    // never repeat.
                    let want_cached = p.class != Class::Sim;
                    if point.cached == want_cached {
                        done.ok = true;
                        done.point = Some(point);
                    } else {
                        ledger.error(format!(
                            "{class} request {id}: cached:{} where {want_cached} was due",
                            point.cached
                        ));
                    }
                }
                Err(e) => ledger.error(format!("{class} request {id}: {e}")),
            }
        }
        ledger.done.lock().expect("ledger poisoned").push(done);
    }
}

/// The two servers of one set-up.
struct Stack {
    server: Server,
    gateway: Gateway,
    control: Client,
}

impl Stack {
    fn stop(mut self) {
        self.gateway.stop();
        self.gateway.join();
        let ack = self.control.call(&Request::Shutdown, None);
        if !ack.is_ok_and(|a| a.ok) {
            eprintln!("perfbench: backend shutdown was not acknowledged");
        }
        self.server.join();
    }

    /// The backend's counters and gauges, through the `metrics` request.
    fn metrics(&mut self) -> Json {
        let resp = self
            .control
            .call(&Request::Metrics, None)
            .expect("metrics request");
        resp.body
            .get("metrics")
            .cloned()
            .expect("metrics response carries the registry")
    }
}

fn metric(m: &Json, section: &str, name: &str) -> u64 {
    m.get(section)
        .and_then(|s| s.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// One cold set-up: servers up, cold profile, read pool primed.
/// Returns the stack and the profile request's latency.
fn set_up(dir: &RunDir, report: &mut Report) -> std::io::Result<(Stack, f64)> {
    let server = Server::start(ServerConfig {
        workers: 2,
        journal: Some(dir.journal()),
        ..ServerConfig::default()
    })?;
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![server.addr().to_string()],
        workers: GATEWAY_WORKERS,
        ..GatewayConfig::default()
    })?;
    let control = Client::connect(server.addr())?;
    let mut gw = Client::connect(gateway.addr())?;
    let t = Instant::now();
    let resp = gw.call(&Request::Profile(profile_params()), None)?;
    let profile_s = t.elapsed().as_secs_f64();
    report.check(resp.ok, || {
        format!("set-up profile failed: {:?}", resp.error)
    });
    let mut ids = Vec::new();
    for &w in &POOL_WIDTHS {
        for s in 1..=POOL_SEEDS {
            ids.push(gw.submit(&simulate(w, s), None)?);
        }
    }
    for _ in &ids {
        let r = gw.recv()?;
        let cached = r.body.get("cached").and_then(Json::as_bool);
        report.check(r.ok && cached == Some(false), || {
            format!(
                "set-up priming reply {} ok={} cached={cached:?}",
                r.id, r.ok
            )
        });
    }
    Ok((
        Stack {
            server,
            gateway,
            control,
        },
        profile_s,
    ))
}

/// One cold set-up and its profile-cache accounting: `(set-up seconds,
/// profile request seconds, cache hits, cache misses)` and the stack.
fn cold_set_up(dir: &RunDir, rep: &mut Report) -> (Stack, [f64; 4]) {
    dir.clear_profile_cache();
    let (h0, m0) = ssim_bench::cache_stats();
    let t = Instant::now();
    let (stack, profile_s) = set_up(dir, rep).expect("set-up");
    let secs = t.elapsed().as_secs_f64();
    let (h1, m1) = ssim_bench::cache_stats();
    (stack, [secs, profile_s, (h1 - h0) as f64, (m1 - m0) as f64])
}

/// The child-process half of the set-up repetitions: one cold set-up,
/// shut down again, its figures printed as the last line. Each
/// repetition gets its own process, as a server deployment would:
/// server start-up and shut-down in one process leave allocator state
/// behind that makes the next set-up's memory use (and the run's peak
/// RSS) depend on thread timing.
pub fn setup_only(dir: &RunDir, rep: &mut Report) {
    let (stack, figures) = cold_set_up(dir, rep);
    stack.stop();
    crate::common::print_set_up(&figures);
}

pub fn run(args: &Args, dir: &RunDir, tracer: &Tracer, rep: &mut Report) {
    // ---- set-up, repeated: in child processes before and after the
    // window, so the samples span the run; the last one before the
    // window runs in this process and serves it -------------------------
    let mut figures = Vec::new();
    let mut child_set_ups = |rep: &mut Report, reps: usize| {
        for _ in 0..reps {
            match crate::common::child_set_ups(&args.workload) {
                Ok(fs) => figures.extend(fs),
                Err(e) => rep.check(false, || e.to_string()),
            }
        }
    };
    child_set_ups(rep, SETUP_REPS_BEFORE - 1);
    let (mut stack, own) = cold_set_up(dir, rep);
    // The window's peak queue depth and counter deltas start here, with
    // the priming burst drained.
    ssim_obs::reset();
    let before = stack.metrics();

    // ---- timed window -------------------------------------------------
    let events = schedule(args.seed, args.seconds);
    let ledger = Arc::new(Ledger::default());
    let connect = |addr| {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).expect("nodelay");
        s
    };
    let mut conns = [connect(stack.gateway.addr()), connect(stack.server.addr())];
    let readers: Vec<_> = conns
        .iter()
        .map(|c| {
            let stream = c.try_clone().expect("clone stream");
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || reader(stream, &ledger))
        })
        .collect();
    let machines = sweep_machines();
    let root = tracer.begin("window", 0, 0);
    let root_id = root.id();
    let start = Instant::now() + Duration::from_millis(20);
    let mut lateness_ms = Vec::with_capacity(events.len());
    let mut sent = 0u64;
    for (k, ev) in events.iter().enumerate() {
        let due = start + Duration::from_secs_f64(ev.at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let id = k as u64 + 1;
        let (req, job) = match ev.class {
            Class::Sweep => (
                Request::SweepStream {
                    profile: profile_params(),
                    machines: machines.clone(),
                    r: R,
                    seeds: vec![ev.seed],
                },
                None,
            ),
            Class::Job => (
                simulate(ev.width, ev.seed),
                Some(format!("bench-{}-{id}", args.seed)),
            ),
            _ => (simulate(ev.width, ev.seed), None),
        };
        let line = Envelope {
            id,
            deadline_ms: None,
            job,
            req,
        }
        .render()
            + "\n";
        ledger.pending.lock().expect("ledger poisoned").insert(
            id,
            Pending {
                class: ev.class,
                due,
                width: ev.width,
                seed: ev.seed,
            },
        );
        lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = conns[usize::from(ev.class.direct())].write_all(line.as_bytes()) {
            ledger.error(format!("send {id}: {e}"));
            ledger.pending.lock().expect("ledger poisoned").remove(&id);
            continue;
        }
        sent += 1;
    }
    let last_send = Instant::now();
    let deadline = last_send + Duration::from_secs(30);
    while !ledger.pending.lock().expect("ledger poisoned").is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let drain_s = last_send.elapsed().as_secs_f64();
    tracer.end(root);
    let lost = ledger.pending.lock().expect("ledger poisoned").len();
    let after = stack.metrics();
    for c in &conns {
        let _ = c.shutdown(Shutdown::Both);
    }
    for r in readers {
        r.join().expect("reader thread");
    }
    let done = std::mem::take(&mut *ledger.done.lock().expect("ledger poisoned"));
    let errors = std::mem::take(&mut *ledger.errors.lock().expect("ledger poisoned"));
    let duplicates = ledger.duplicates.load(Ordering::Relaxed);
    let wall = done
        .iter()
        .map(|d| d.at)
        .max()
        .unwrap_or(start)
        .duration_since(start)
        .as_secs_f64();

    // ---- accounting ---------------------------------------------------
    let mut lat: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    // Every run takes these timestamps; a traced run only turns them
    // into spans, after the window, so its window runs the untraced
    // code and the tracing overhead is nil by construction.
    for d in done.iter().filter(|d| d.ok) {
        let ms = d.at.duration_since(d.due).as_secs_f64() * 1e3;
        lat.entry(d.class).or_default().push(ms);
        tracer.record(d.class.name(), root_id, d.id, d.due, d.at);
    }
    let failed = events.len() as u64 - done.iter().filter(|d| d.ok).count() as u64;
    rep.attempted = events.len() as u64;
    rep.failed = failed;
    for e in errors.iter().take(10) {
        rep.check(false, || e.clone());
    }
    rep.check(errors.is_empty(), || {
        format!("{} requests failed", errors.len())
    });
    rep.check(lost == 0, || format!("{lost} requests never answered"));
    rep.check(duplicates == 0, || {
        format!("{duplicates} duplicate replies")
    });
    rep.check(sent == events.len() as u64, || {
        format!("{} of {} requests sent", sent, events.len())
    });
    rep.check(drain_s <= MAX_DRAIN_S, || {
        format!("backlog took {drain_s:.2}s to drain after the last send: the offered load is not sustained")
    });

    // Served points must equal in-process fused simulation, bit for
    // bit: a fixed sample of uncached points and the first sweep.
    let workload = ssim::workloads::by_name(WORKLOAD).expect("suite workload");
    let profile = ssim_bench::profile_cached(
        workload,
        &ProfileConfig::new(&MachineConfig::baseline())
            .skip(SKIP)
            .instructions(PROFILE_INSTR),
    );
    let sampler = profile.compile(R);
    let mut engine = SimEngine::new();
    let mut sims: Vec<&Done> = done
        .iter()
        .filter(|d| d.ok && d.class == Class::Sim)
        .collect();
    sims.sort_by_key(|d| d.id);
    let mut compute_ms = Vec::new();
    let mut sampled_instr = 0u64;
    for d in sims.iter().take(SAMPLE) {
        let cfg = MachineSpec {
            width: Some(d.width),
            ..MachineSpec::default()
        }
        .resolve();
        let t = Instant::now();
        let local = engine.simulate_fused(&sampler, d.seed, &cfg);
        compute_ms.push(t.elapsed().as_secs_f64() * 1e3);
        sampled_instr += local.instructions;
        let served = d.point.expect("ok sim carries its point");
        rep.check(
            served.cycles == local.cycles
                && served.instructions == local.instructions
                && served.ipc.to_bits() == local.ipc().to_bits(),
            || {
                format!(
                    "served point {} differs from in-process simulate_fused",
                    d.id
                )
            },
        );
    }
    rep.check(
        compute_ms.len() == SAMPLE.min(sims.len()) && !compute_ms.is_empty(),
        || "no served point to verify".to_string(),
    );
    if let Some(sw) = done
        .iter()
        .filter(|d| d.ok && d.class == Class::Sweep)
        .min_by_key(|d| d.id)
    {
        let local: Vec<PointResult> = machines
            .iter()
            .map(|m| {
                let r = engine.simulate_fused(&sampler, sw.seed, &m.resolve());
                PointResult {
                    cycles: r.cycles,
                    instructions: r.instructions,
                    ipc: r.ipc(),
                    cached: false,
                }
            })
            .collect();
        rep.check(sw.digest == Some(sweep_digest(&local)), || {
            format!("sweep {} digest differs from in-process simulation", sw.id)
        });
        rep.line(format!(
            "sweep {} digest {:016x} verified in-process",
            sw.id,
            sweep_digest(&local)
        ));
    }
    stack.stop();
    child_set_ups(rep, SETUP_REPS_AFTER);
    figures.push(own);
    for (i, [_, _, hits, misses]) in figures.iter().enumerate() {
        rep.check(*hits == 0.0 && *misses == 1.0, || {
            format!("set-up {i}: profile cache reported {hits} hits and {misses} misses, expected 0 and 1")
        });
    }
    let setup_s: Vec<f64> = figures.iter().map(|f| f[0]).collect();
    let profile_s: Vec<f64> = figures.iter().map(|f| f[1]).collect();

    // ---- metrics ------------------------------------------------------
    let p50 = |c: Class| lat.get(&c).map_or(f64::NAN, |v| median(v));
    let n = |c: Class| lat.get(&c).map_or(0, Vec::len);
    for c in CLASSES {
        let v = lat.get(&c).cloned().unwrap_or_default();
        if v.is_empty() {
            rep.check(false, || format!("no successful {} request", c.name()));
            continue;
        }
        rep.line(format!(
            "class {:<5} offered {:>6.1}/s  ok {:>5}  p50 {:>8.3} ms  p90 {:>8.3} ms  p99 {:>8.3} ms",
            c.name(),
            c.rate(),
            v.len(),
            median(&v),
            quantile(&v, 0.9),
            quantile(&v, 0.99)
        ));
    }
    let offered = events.len() as f64 / args.seconds;
    let achieved = done.iter().filter(|d| d.ok).count() as f64 / wall;
    rep.line(format!(
        "offered {offered:.1} req/s, achieved {achieved:.1} req/s, drain {drain_s:.3} s, \
         lost {lost}, duplicates {duplicates}, failed {failed}"
    ));
    let sim = lat.get(&Class::Sim).cloned().unwrap_or_default();
    rep.set("setup_s", median(&setup_s), setup_s.len());
    rep.set("wall_s", wall, 1);
    rep.set("sim.p50_ms", p50(Class::Sim), n(Class::Sim));
    rep.set(
        "sim.p90_ms",
        if sim.is_empty() {
            f64::NAN
        } else {
            quantile(&sim, 0.9)
        },
        sim.len(),
    );
    rep.set("read.p50_ms", p50(Class::Read), n(Class::Read));
    rep.set("job.p50_ms", p50(Class::Job), n(Class::Job));
    rep.set("sweep.p50_ms", p50(Class::Sweep), n(Class::Sweep));
    rep.set(
        "gen.lateness_p99_ms",
        quantile(&lateness_ms, 0.99),
        lateness_ms.len(),
    );
    rep.set("gen.rate_ratio", achieved / offered, events.len());

    // Per-layer figures: each is a difference between two classes that
    // share every step but one, or a backend counter.
    let pm = median(&profile_s);
    rep.set("profile.s", pm, profile_s.len());
    rep.set(
        "profile.minstr_per_s",
        PROFILE_INSTR as f64 / pm / 1e6,
        profile_s.len(),
    );
    let compute = median(&compute_ms);
    rep.set("serve.compute_ms_p50", compute, compute_ms.len());
    rep.set(
        "serve.queue_wait_ms_p50",
        p50(Class::Sim) - compute,
        n(Class::Sim),
    );
    rep.set(
        "gateway.hop_ms_p50",
        p50(Class::Read) - p50(Class::DRead),
        n(Class::DRead),
    );
    rep.set(
        "journal.fsync_ms_p50",
        p50(Class::Job) - p50(Class::DRead),
        n(Class::DRead),
    );
    let delta = |name| metric(&after, "counters", name) - metric(&before, "counters", name);
    let (hits, misses) = (
        delta("serve.result_cache.hits"),
        delta("serve.result_cache.misses"),
    );
    rep.set(
        "serve.result_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    rep.set(
        "serve.queue_depth_max",
        metric(&after, "gauges", "serve.queue_depth_max") as f64,
        1,
    );
    // Pipeline seconds the window's uncached points cost, at the
    // sample's in-process median.
    let sim_points = (n(Class::Sim) + n(Class::Sweep) * machines.len()) as f64;
    rep.set("sim.s", sim_points * compute / 1e3, compute_ms.len());
    rep.set(
        "sim.minstr_per_s",
        sampled_instr as f64 / compute_ms.iter().sum::<f64>() / 1e3,
        compute_ms.len(),
    );
}
