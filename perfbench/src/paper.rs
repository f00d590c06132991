//! `paper-repro`: the paper-reproduction workflow, one thread, closed
//! batch.
//!
//! Set-up profiles all ten workloads cold, through the on-disk profile
//! cache the experiment binaries use. The timed phase repeats rounds;
//! one round runs, per workload, the execution-driven reference (EDS)
//! over the same skip window, lowers the profile at R = 15, and runs
//! the fused statistical simulation for a few seeds on the Table 2
//! baseline. Every round does identical work, so rounds are repeated
//! samples of one batch.

use crate::common::{fastest, median, mix, quantile, sim_digest, Args, Report, RunDir};
use crate::trace::{self_time_by_root, Tracer, MIN_COVERAGE_PCT};
use ssim::prelude::*;
use std::time::Instant;

/// Instructions skipped before profiling and before the EDS window.
const SKIP: u64 = 4_000_000;
/// Instructions profiled, and instructions the EDS reference runs.
const WINDOW: u64 = 500_000;
/// Reduction factor (the paper's default).
const R: u64 = 15;
/// Fused simulations per workload per round.
const SEEDS: u64 = 4;
/// Largest |SS − EDS| / EDS IPC error any workload may show: the
/// bound the repository's accuracy test holds its workloads to.
const IPC_ERR_BOUND: f64 = 0.20;

pub fn run(args: &Args, dir: &RunDir, tracer: &Tracer, rep: &mut Report) {
    let base = MachineConfig::baseline();
    let suite = ssim::workloads::all();
    let n = suite.len();
    let cfg = ProfileConfig::new(&base).skip(SKIP).instructions(WINDOW);

    // ---- set-up: cold profiles of every workload ---------------------
    // Repeated before the first round and after every round, so the
    // set-up samples span the run as the rounds do and a slow spell of
    // the host weighs on both alike.
    let mut setup_s = Vec::new();
    let mut profile_s = Vec::new();
    let mut set_up = |rep: &mut Report| {
        let r = setup_s.len();
        dir.clear_profile_cache();
        let (h0, m0) = ssim_bench::cache_stats();
        let root = tracer.begin("setup", 0, r as u64);
        let t = Instant::now();
        let mut prof = 0.0;
        let profiles: Vec<StatisticalProfile> = suite
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let (p, d) = tracer.time("profile", root.id(), i as u64, |_| {
                    ssim_bench::profile_cached(w, &cfg)
                });
                prof += d;
                p
            })
            .collect();
        let programs: Vec<_> = suite.iter().map(Workload::program).collect();
        setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(root);
        profile_s.push(prof);
        let (h1, m1) = ssim_bench::cache_stats();
        rep.check(h1 == h0 && m1 - m0 == n as u64, || {
            format!(
                "set-up {r}: profile cache reported {} hits and {} misses, expected 0 and {n}",
                h1 - h0,
                m1 - m0
            )
        });
        (profiles, programs)
    };
    let (mut profiles, mut programs) = set_up(rep);

    // ---- timed phase --------------------------------------------------
    let mut engine = SimEngine::new();
    let mut pass_s: Vec<Vec<f64>> = vec![Vec::new(); n];
    // Call times of every (program, seed) pair, at `i * SEEDS + k`.
    let mut sim_ms: Vec<Vec<f64>> = vec![Vec::new(); n * SEEDS as usize];
    let mut round_wall = Vec::new(); // (wall, traced)
    let mut round_digest = Vec::new();
    let mut eds_ipc = vec![0.0; n];
    let mut ss_ipc = vec![0.0; n];
    let mut samplers = Vec::new();
    let mut lines = Vec::new();
    let mut committed: u64; // simulated instructions per round
    let seed_of = |i: usize, k: u64| mix(args.seed, i as u64, k);
    let mut round = 0u64;
    loop {
        // Traced runs trace odd rounds only; even rounds are the
        // untraced comparison for the overhead figure.
        tracer.set_active(round % 2 == 1);
        let root = tracer.begin("round", 0, round);
        let mut digests = Vec::new();
        samplers.clear();
        lines.clear();
        committed = 0;
        for (i, w) in suite.iter().enumerate() {
            let cause = round * 100 + i as u64;
            let pass = tracer.begin("pass", root.id(), cause);
            let (sim, _) = tracer.time("eds.skip", pass.id(), cause, |_| {
                let mut sim = ExecSim::new(&base, &programs[i]);
                sim.skip(SKIP);
                sim
            });
            let (eds, _) = tracer.time("eds.run", pass.id(), cause, |_| sim.run(WINDOW));
            let (sampler, _) = tracer.time("compile", pass.id(), cause, |_| profiles[i].compile(R));
            let mut ipc = 0.0;
            let mut ss_digests = Vec::new();
            for k in 0..SEEDS {
                let (res, d) = tracer.time("sim", pass.id(), cause, |_| {
                    engine.simulate_fused(&sampler, seed_of(i, k), &base)
                });
                sim_ms[i * SEEDS as usize + k as usize].push(d * 1e3);
                committed += res.instructions;
                ipc += res.ipc();
                ss_digests.push(sim_digest(&res));
            }
            pass_s[i].push(tracer.end(pass));
            eds_ipc[i] = eds.ipc();
            ss_ipc[i] = ipc / SEEDS as f64;
            let ed = sim_digest(&eds);
            let sd = crate::common::fnv(ss_digests);
            digests.extend([ed, sd]);
            lines.push(format!(
                "{:<8} eds_ipc {:.4} ss_ipc {:.4} err {:.2}% eds_digest {ed:016x} ss_digest {sd:016x}",
                w.name(),
                eds_ipc[i],
                ss_ipc[i],
                ipc_err(ss_ipc[i], eds_ipc[i]) * 100.0
            ));
            samplers.push(sampler);
        }
        round_wall.push((tracer.end(root), round % 2 == 1));
        round_digest.push(crate::common::fnv(digests));
        round += 1;
        let typical = median(&round_wall.iter().map(|w| w.0).collect::<Vec<_>>());
        let min_rounds = if tracer.enabled() { 3 } else { 2 };
        let timed: f64 = round_wall.iter().map(|w| w.0).sum();
        tracer.set_active(true);
        (profiles, programs) = set_up(rep);
        if round >= min_rounds && timed + typical / 2.0 > args.seconds {
            break;
        }
    }
    tracer.set_active(false);

    // ---- checks -----------------------------------------------------
    rep.attempted = round * n as u64 * (3 + SEEDS);
    rep.check(round_digest.iter().all(|d| *d == round_digest[0]), || {
        format!("result digests differ between rounds: {round_digest:x?}")
    });
    let mut errs = Vec::new();
    for (i, w) in suite.iter().enumerate() {
        let e = ipc_err(ss_ipc[i], eds_ipc[i]);
        errs.push(e);
        if e > IPC_ERR_BOUND {
            rep.failed += 1;
        }
        rep.check(e <= IPC_ERR_BOUND, || {
            format!(
                "{}: IPC error {:.1}% over the {:.0}% bound",
                w.name(),
                e * 100.0,
                IPC_ERR_BOUND * 100.0
            )
        });
    }
    let ipc_err_pct = errs.iter().sum::<f64>() / n as f64 * 100.0;
    for l in lines {
        rep.line(l);
    }
    rep.line(format!(
        "result digest {:016x} (identical over {round} rounds)",
        round_digest[0]
    ));
    rep.line(format!("ipc_err_pct {ipc_err_pct:.4} %"));

    // ---- end-to-end metrics -----------------------------------------
    // Every round repeats the same work, so each pass and each
    // (program, seed) simulation is timed once per round, and its
    // fastest repetition is its cost (see `fastest`): the host's slow
    // phases move a per-unit median by up to 2x within one run.
    let wall: f64 = pass_s.iter().map(|p| fastest(p)).sum();
    rep.set("setup_s", median(&setup_s), setup_s.len());
    rep.set("wall_s", wall, round as usize);
    // Simulation percentiles are taken over one program's seeds and
    // then averaged: ten programs form ten clusters of call times, and
    // a percentile over the pooled calls would sit in the gap between
    // two clusters.
    let sims = sim_ms.iter().map(Vec::len).sum();
    let per_seed: Vec<f64> = sim_ms.iter().map(|v| fastest(v)).collect();
    let mean_over_programs = |q: f64| {
        per_seed
            .chunks(SEEDS as usize)
            .map(|seeds| quantile(seeds, q))
            .sum::<f64>()
            / n as f64
    };
    rep.set("sim.p50_ms", mean_over_programs(0.5), sims);
    rep.set("sim.p90_ms", mean_over_programs(0.9), sims);
    rep.set("ipc_err_pct", ipc_err_pct, n);

    // ---- per-layer metrics (traced run) -----------------------------
    let pm = median(&profile_s);
    rep.set("profile.s", pm, profile_s.len());
    rep.set(
        "profile.minstr_per_s",
        (n as u64 * WINDOW) as f64 / pm / 1e6,
        profile_s.len(),
    );
    if !tracer.enabled() {
        return;
    }
    let spans = tracer.spans();
    let by_root = self_time_by_root(&spans);
    let rounds: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| (s.end - s.start, &by_root[&s.id]))
        .collect();
    let per_round = |name: &str| {
        median(
            &rounds
                .iter()
                .map(|(_, m)| m.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let coverage = median(
        &rounds
            .iter()
            .map(|(w, m)| {
                let glue = m.get("round").unwrap_or(&0.0) + m.get("pass").unwrap_or(&0.0);
                100.0 * (1.0 - glue / (*w as f64 / 1e9))
            })
            .collect::<Vec<_>>(),
    );
    let traced_rounds = rounds.len();
    rep.check(coverage >= MIN_COVERAGE_PCT, || {
        format!("layer spans cover {coverage:.2}% of a round's wall, under {MIN_COVERAGE_PCT}%")
    });
    let eds_run = per_round("eds.run");
    let sim_s = per_round("sim");
    rep.set("eds.skip_s", per_round("eds.skip"), traced_rounds);
    rep.set("eds.run_s", eds_run, traced_rounds);
    rep.set(
        "eds.minstr_per_s",
        (n as u64 * WINDOW) as f64 / eds_run / 1e6,
        traced_rounds,
    );
    rep.set("compile.s", per_round("compile"), traced_rounds);
    rep.set("compile.count", n as f64, traced_rounds);
    rep.set("sim.s", sim_s, traced_rounds);
    rep.set("trace.coverage_pct", coverage, traced_rounds);
    rep.set(
        "trace.overhead_pct",
        crate::common::overhead_pct(&round_wall),
        round_wall.len(),
    );

    // On the side, after the timed window: the same seeds through the
    // generator alone, and one counted simulation per workload (the
    // ssim-obs counters cost time on the simulator's hot path, so they
    // stay off while anything is timed).
    let mut gen_s = 0.0;
    let (mut steps, mut restarts) = (0u64, 0u64);
    for (i, sampler) in samplers.iter().enumerate() {
        for k in 0..SEEDS {
            let t = Instant::now();
            let trace = sampler.generate(seed_of(i, k));
            gen_s += t.elapsed().as_secs_f64();
            std::hint::black_box(trace.len());
            let walk = sampler.walk(seed_of(i, k));
            steps += walk.steps;
            restarts += walk.restarts;
        }
    }
    ssim_obs::force_enable();
    let c0 = crate::common::obs_counter("tracesim.wrong_path_injected");
    let i0 = crate::common::obs_counter("tracesim.instructions");
    for (i, sampler) in samplers.iter().enumerate() {
        engine.simulate_fused(sampler, seed_of(i, 0), &base);
    }
    let wrong = crate::common::obs_counter("tracesim.wrong_path_injected") - c0;
    let counted = crate::common::obs_counter("tracesim.instructions") - i0;
    rep.set("generate.s", gen_s, 1);
    rep.set(
        "walk_restarts_per_kstep",
        restarts as f64 * 1000.0 / steps.max(1) as f64,
        (n as u64 * SEEDS) as usize,
    );
    rep.set(
        "sim.minstr_per_s",
        committed as f64 / sim_s / 1e6,
        traced_rounds,
    );
    rep.set(
        "sim.wrong_path_per_committed",
        wrong as f64 / counted.max(1) as f64,
        n,
    );
}

fn ipc_err(ss: f64, eds: f64) -> f64 {
    (ss - eds).abs() / eds
}
