//! `dse-sweep`: thousands of short simulations against one sampler.
//!
//! Set-up cold-profiles one workload and lowers it once. The timed
//! phase repeats rounds; one round sweeps the §4.6 quick grid (296
//! points) exhaustively with `ssim_dse::run_exhaustive` on the fused
//! engine, then runs `ssim_dse::run_adaptive` at a fixed budget and
//! measures how far its Pareto frontier falls short of the exhaustive
//! one. Evaluation fans out over `ssim-par`'s pool (`SSIM_THREADS`).

use crate::common::{fastest, median, mix, quantile, Args, Report, RunDir};
use crate::trace::{self_time_by_root, Tracer, MIN_COVERAGE_PCT};
use ssim::prelude::*;
use ssim_dse::{
    run_adaptive, run_exhaustive, splitmix64, EarlyStop, Evaluator, FeatureMap, PlanConfig,
    PlanReport, Response, Space, SurrogateConfig,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const WORKLOAD: &str = "crafty";
const SKIP: u64 = 4_000_000;
const PROFILE_INSTR: u64 = 600_000;
/// Synthetic trace length per design point.
const POINT_INSTR: u64 = 40_000;
/// Cold set-ups per batch (`setup_s` is the median over all batches).
const SETUP_BATCH: usize = 3;
/// Largest Pareto-frontier shortfall of the adaptive plan (percent).
const PARETO_GAP_BOUND: f64 = 2.0;

/// The fused-engine evaluator, timing every simulation from outside.
struct Eval<'a> {
    sampler: Arc<CompiledSampler>,
    base: MachineConfig,
    early: EarlyStop,
    tracer: &'a Tracer,
    /// Span id of the planner call currently running (parent of evals).
    parent: AtomicU64,
    /// `(duration_ms, committed, point id)` of every simulation, and
    /// eval busy seconds.
    sims: Mutex<Vec<(f64, u64, u64)>>,
    busy: Mutex<f64>,
}

impl Eval<'_> {
    fn machine(&self, space: &Space, id: u64) -> MachineConfig {
        let c = space.coords(id);
        let mut cfg = self.base.clone();
        cfg.ruu_size = c[0] as usize;
        cfg.lsq_size = c[1] as usize;
        cfg.decode_width = c[2] as usize;
        cfg.issue_width = c[3] as usize;
        cfg.commit_width = c[4] as usize;
        cfg
    }

    /// Simulation seeds are keyed by `(point id, run index)`, as in
    /// `ssim-bench`'s evaluator, so a point's response is a pure
    /// function of the point.
    fn point_seed(id: u64, run: u32) -> u64 {
        splitmix64(id ^ ((u64::from(run) + 1) << 40))
    }
}

impl Evaluator for Eval<'_> {
    fn eval(&self, space: &Space, id: u64) -> Response {
        let open = self
            .tracer
            .begin("eval", self.parent.load(Ordering::Relaxed), id);
        let cfg = self.machine(space, id);
        let mut mpki_sum = 0.0;
        let (ipc, sims) = self.early.run(|run| {
            let (res, d) = self.tracer.time("sim", open.id(), id, |_| {
                ssim_bench::with_engine(|e| {
                    e.simulate_fused(&self.sampler, Eval::point_seed(id, run), &cfg)
                })
            });
            self.sims
                .lock()
                .expect("sim log poisoned")
                .push((d * 1e3, res.instructions, id));
            mpki_sum += res.mpki();
            res.ipc()
        });
        let d = self.tracer.end(open);
        *self.busy.lock().expect("busy poisoned") += d;
        Response {
            ipc,
            mpki: mpki_sum / f64::from(sims),
            sims,
        }
    }
}

/// Worst relative IPC shortfall of the adaptive frontier against the
/// exhaustive frontier envelope (percent).
fn pareto_gap_pct(exhaustive: &PlanReport, adaptive: &PlanReport) -> f64 {
    let mut worst: f64 = 0.0;
    for pe in &exhaustive.pareto {
        let best = adaptive
            .pareto
            .iter()
            .filter(|pa| pa.cost <= pe.cost)
            .map(|pa| pa.ipc)
            .fold(f64::NEG_INFINITY, f64::max);
        let gap = if best.is_finite() {
            ((pe.ipc - best) / pe.ipc).max(0.0)
        } else {
            1.0
        };
        worst = worst.max(gap);
    }
    worst * 100.0
}

/// One cold set-up: profile `crafty` against an empty cache and lower
/// it once. Returns the sampler and `[set-up s, profile s, compile s,
/// cache hits, cache misses]`.
fn set_up(dir: &RunDir, tracer: &Tracer, i: u64) -> (CompiledSampler, [f64; 5]) {
    let base = MachineConfig::baseline();
    let workload = ssim::workloads::by_name(WORKLOAD).expect("suite workload");
    let cfg = ProfileConfig::new(&base)
        .skip(SKIP)
        .instructions(PROFILE_INSTR);
    dir.clear_profile_cache();
    let (h0, m0) = ssim_bench::cache_stats();
    let root = tracer.begin("setup", 0, i);
    let t = Instant::now();
    let (profile, dp) = tracer.time("profile", root.id(), 0, |_| {
        ssim_bench::profile_cached(workload, &cfg)
    });
    let (sampler, dc) = tracer.time("compile", root.id(), 0, |_| {
        profile.compile(PROFILE_INSTR / POINT_INSTR)
    });
    let secs = t.elapsed().as_secs_f64();
    tracer.end(root);
    let (h1, m1) = ssim_bench::cache_stats();
    (sampler, [secs, dp, dc, (h1 - h0) as f64, (m1 - m0) as f64])
}

/// The child-process half of the set-up batches: one batch, its
/// figures printed one set-up per line.
pub fn setup_only(dir: &RunDir) {
    for i in 0..SETUP_BATCH {
        crate::common::print_set_up(&set_up(dir, &Tracer::new(false), i as u64).1);
    }
}

pub fn run(args: &Args, dir: &RunDir, tracer: &Tracer, rep: &mut Report) {
    let base = MachineConfig::baseline();
    let r = PROFILE_INSTR / POINT_INSTR;

    // ---- set-up: cold profile and one lowering -----------------------
    // A batch of set-ups before the first round, in this process, and
    // one after every round, each in a child process: the samples span
    // the run as the rounds do, and the later batches leave this
    // process's heap (and so its peak RSS) as the first batch left it.
    let mut figures = Vec::new();
    let mut sampler = None;
    for i in 0..SETUP_BATCH {
        let (s, f) = set_up(dir, tracer, i as u64);
        sampler = Some(Arc::new(s));
        figures.push(f);
    }
    let sampler = sampler.expect("a set-up batch is not empty");

    // ---- timed phase --------------------------------------------------
    let space = ssim_bench::sec46_space(true);
    let plan = PlanConfig {
        seed: mix(args.seed, 0xD5E, 0),
        budget: space.points() * 3 / 5,
        pareto_frac: 0.7,
        pareto_band: 0.05,
        stratum_floor: 2,
        surrogate: SurrogateConfig {
            gbm_rounds: 150,
            gbm_learning_rate: 0.1,
            features: FeatureMap::Bottleneck,
            ..SurrogateConfig::default()
        },
        ..PlanConfig::default()
    };
    let eval = Eval {
        sampler: Arc::clone(&sampler),
        base: base.clone(),
        early: EarlyStop::default(),
        tracer,
        parent: AtomicU64::new(0),
        sims: Mutex::new(Vec::new()),
        busy: Mutex::new(0.0),
    };
    let threads = ssim_par::num_threads();
    let mut rounds = Vec::new(); // (wall, traced, planner wall, busy, adaptive sims)
    let mut digests = Vec::new();
    let mut gap: f64;
    let mut committed: u64; // per round
    let mut round = 0u64;
    loop {
        tracer.set_active(round % 2 == 1);
        let busy0 = *eval.busy.lock().expect("busy poisoned");
        let n0 = eval.sims.lock().expect("sim log poisoned").len();
        let root = tracer.begin("round", 0, round);
        let (exhaustive, d_exh) = tracer.time("dse.exhaustive", root.id(), round, |id| {
            eval.parent.store(id, Ordering::Relaxed);
            run_exhaustive(&space, &plan, &eval)
        });
        let (adaptive, d_adp) = tracer.time("dse.adaptive", root.id(), round, |id| {
            eval.parent.store(id, Ordering::Relaxed);
            run_adaptive(&space, &plan, &eval)
        });
        let wall = tracer.end(root);
        let busy = *eval.busy.lock().expect("busy poisoned") - busy0;
        committed = eval.sims.lock().expect("sim log poisoned")[n0..]
            .iter()
            .map(|s| s.1)
            .sum();
        rounds.push((wall, round % 2 == 1, d_exh + d_adp, busy, adaptive.sims));
        gap = pareto_gap_pct(&exhaustive, &adaptive);
        digests.push((exhaustive.digest(), adaptive.digest(), gap.to_bits()));
        round += 1;
        let typical = median(&rounds.iter().map(|r| r.0).collect::<Vec<_>>());
        let min_rounds = if tracer.enabled() { 3 } else { 2 };
        let timed: f64 = rounds.iter().map(|r| r.0).sum();
        match crate::common::child_set_ups(&args.workload) {
            Ok(fs) => figures.extend(fs),
            Err(e) => rep.check(false, || e.to_string()),
        }
        if round >= min_rounds && timed + typical / 2.0 > args.seconds {
            break;
        }
    }
    tracer.set_active(false);

    // ---- checks -----------------------------------------------------
    for (i, [_, _, _, hits, misses]) in figures.iter().enumerate() {
        rep.check(*hits == 0.0 && *misses == 1.0, || {
            format!("set-up {i}: profile cache reported {hits} hits and {misses} misses, expected 0 and 1")
        });
    }
    let setup_s: Vec<f64> = figures.iter().map(|f| f[0]).collect();
    let profile_s: Vec<f64> = figures.iter().map(|f| f[1]).collect();
    let compile_s: Vec<f64> = figures.iter().map(|f| f[2]).collect();
    let sims: Vec<(f64, u64, u64)> = eval.sims.lock().expect("sim log poisoned").clone();
    rep.attempted = sims.len() as u64;
    rep.check(digests.iter().all(|d| *d == digests[0]), || {
        format!("plan digests differ between rounds: {digests:x?}")
    });
    rep.check(gap <= PARETO_GAP_BOUND, || {
        format!("Pareto gap {gap:.3}% over the {PARETO_GAP_BOUND}% bound")
    });
    if gap > PARETO_GAP_BOUND {
        rep.failed += 1;
    }
    rep.line(format!(
        "workload {WORKLOAD}, {} points, budget {}, r {r}, threads {threads}",
        space.points(),
        plan.budget
    ));
    rep.line(format!(
        "exhaustive digest {:016x} adaptive digest {:016x} (identical over {round} rounds)",
        digests[0].0, digests[0].1
    ));
    rep.line(format!("pareto_gap_pct {gap:.4} %"));

    // ---- end-to-end metrics -----------------------------------------
    // Percentiles over design points of each point's fastest call. A
    // point is simulated several times per round, on whichever pool
    // thread claims it, and every round repeats the same work; the
    // host's slow phases, and a vCPU running slower than the other,
    // only add time to a call (see `fastest`). Pooled call times split
    // into one mode per vCPU speed, and a pooled median sits between
    // the modes.
    let mut per_point: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(ms, _, id) in &sims {
        per_point.entry(id).or_default().push(ms);
    }
    let sim_ms: Vec<f64> = per_point.values().map(|t| fastest(t)).collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.0).collect();
    rep.set("setup_s", median(&setup_s), setup_s.len());
    // A round's wall waits for both vCPUs, so its fastest repetition
    // needs both quiet at once: over runs of the same code it spread
    // no less than the median round did.
    rep.set("wall_s", median(&walls), walls.len());
    rep.set("sim.p50_ms", median(&sim_ms), sim_ms.len());
    rep.set("sim.p90_ms", quantile(&sim_ms, 0.9), sim_ms.len());
    rep.set("pareto_gap_pct", gap, 1);

    // ---- per-layer metrics (traced run) -----------------------------
    let pm = median(&profile_s);
    rep.set("profile.s", pm, profile_s.len());
    rep.set(
        "profile.minstr_per_s",
        PROFILE_INSTR as f64 / pm / 1e6,
        profile_s.len(),
    );
    rep.set("compile.s", median(&compile_s), compile_s.len());
    rep.set("compile.count", 1.0, compile_s.len());
    rep.set("plan.sims", rounds[0].4 as f64, 1);
    if !tracer.enabled() {
        return;
    }
    let spans = tracer.spans();
    let by_root = self_time_by_root(&spans);
    let traced: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| (s.end - s.start, &by_root[&s.id]))
        .collect();
    let per_round = |name: &str| {
        median(
            &traced
                .iter()
                .map(|(_, m)| m.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let n_traced = traced.len();
    let sim_s = per_round("sim");
    rep.set("sim.s", sim_s, n_traced);
    rep.set("sim.minstr_per_s", committed as f64 / sim_s / 1e6, n_traced);
    rep.set("plan.s", per_round("dse.adaptive"), n_traced);
    // Benchmark glue: the round's own self time, plus the evaluator's
    // self time (outside the simulation it wraps) spread over the pool.
    let coverage = median(
        &traced
            .iter()
            .map(|(w, m)| {
                let glue =
                    m.get("round").unwrap_or(&0.0) + m.get("eval").unwrap_or(&0.0) / threads as f64;
                100.0 * (1.0 - glue / (*w as f64 / 1e9))
            })
            .collect::<Vec<_>>(),
    );
    rep.set("trace.coverage_pct", coverage, n_traced);
    rep.check(coverage >= MIN_COVERAGE_PCT, || {
        format!("layer spans cover {coverage:.2}% of a round's wall, under {MIN_COVERAGE_PCT}%")
    });
    let busy: Vec<f64> = rounds
        .iter()
        .map(|r| r.3 / (threads as f64 * r.2))
        .collect();
    rep.set("par.busy_frac", median(&busy), busy.len());
    let walls: Vec<(f64, bool)> = rounds.iter().map(|r| (r.0, r.1)).collect();
    rep.set(
        "trace.overhead_pct",
        crate::common::overhead_pct(&walls),
        rounds.len(),
    );

    // On the side, after the timed window: generation alone for a
    // sample of the round's (point, seed) pairs, scaled to the round's
    // simulation count, and counted simulations for the wrong-path
    // ratio (ssim-obs counters stay off while anything is timed).
    let ids = space.valid_ids();
    let sample: Vec<(u64, u64)> = (0..64u64)
        .map(|k| {
            let id = ids[(mix(args.seed, 0x5A3, k) % ids.len() as u64) as usize];
            (id, Eval::point_seed(id, (k % 2) as u32))
        })
        .collect();
    let (mut gen_s, mut steps, mut restarts) = (0.0, 0u64, 0u64);
    for &(_, seed) in &sample {
        let t = Instant::now();
        std::hint::black_box(sampler.generate(seed).len());
        gen_s += t.elapsed().as_secs_f64();
        let w = sampler.walk(seed);
        steps += w.steps;
        restarts += w.restarts;
    }
    let sims_per_round = rep.attempted as f64 / round as f64;
    rep.set(
        "generate.s",
        gen_s / sample.len() as f64 * sims_per_round,
        sample.len(),
    );
    rep.set(
        "walk_restarts_per_kstep",
        restarts as f64 * 1000.0 / steps.max(1) as f64,
        sample.len(),
    );
    ssim_obs::force_enable();
    let c0 = crate::common::obs_counter("tracesim.wrong_path_injected");
    let i0 = crate::common::obs_counter("tracesim.instructions");
    for &(id, seed) in sample.iter().take(32) {
        let cfg = eval.machine(&space, id);
        ssim_bench::with_engine(|e| e.simulate_fused(&sampler, seed, &cfg));
    }
    let wrong = crate::common::obs_counter("tracesim.wrong_path_injected") - c0;
    let counted = crate::common::obs_counter("tracesim.instructions") - i0;
    rep.set(
        "sim.wrong_path_per_committed",
        wrong as f64 / counted.max(1) as f64,
        32,
    );
}
