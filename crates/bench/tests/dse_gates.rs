//! Acceptance gates of the surrogate-guided DSE planner, run in release
//! by `./ci.sh dse` (`cargo test --release -p ssim-bench --test
//! dse_gates -- --ignored`). Ignored by default: the real-space phase
//! sweeps the whole quick §4.6 grid on the fused engine, which takes
//! minutes in a debug build.
//!
//! 1. **Real space** — the 296-point quick §4.6 grid
//!    ([`ssim_bench::sec46_space`]) on crafty. The exhaustive sweep is
//!    the ground truth; the adaptive planner gets 40% of the points and
//!    must stay within that budget, reproduce the exhaustive Pareto
//!    frontier within 2%, estimate every stratum mean IPC within 4%,
//!    and produce a byte-identical report on a re-run. The stratum gate
//!    reads the planner's **model-assisted** estimates
//!    (`StratumReport::model_ipc`): over a handful of samples per
//!    stratum a design-based mean carries a ~10% standard error
//!    whatever the planner does. The 296-point grid is too small for
//!    the full space's 25%/2% statistics, so the dials are scaled, not
//!    the claim weakened.
//! 2. **Synthetic scale** — the closed-form 20,736-point space, where
//!    the planner may simulate at most 5% of the points and at least
//!    90% of its declared 3σ stratum error bars must cover the true
//!    stratum mean (exact sums over the full space, affordable because
//!    the surface costs nanoseconds).
//!
//! `crates/dse/tests` covers the planner's determinism, subset and
//! frontier contracts on small synthetic grids; these gates are the
//! ones that need the real simulator or the large space.

use ssim::prelude::*;
use ssim_dse::{
    run_adaptive, run_exhaustive, splitmix64, EarlyStop, Evaluator, FeatureMap, PlanConfig,
    PlanReport, Response, Space, SurrogateConfig, SyntheticEvaluator,
};
use std::sync::Arc;

/// Fused-engine evaluator over [`ssim_bench::sec46_space`] points:
/// per-point seed early stop (§4.1 CoV rule), seeds keyed by
/// `(point id, run index)` so the response is a pure function of the
/// point — the planner's purity requirement.
struct FusedEvaluator {
    sampler: Arc<CompiledSampler>,
    base: MachineConfig,
    early: EarlyStop,
}

impl Evaluator for FusedEvaluator {
    fn eval(&self, space: &Space, id: u64) -> Response {
        let c = space.coords(id);
        let mut cfg = self.base.clone();
        cfg.ruu_size = c[0] as usize;
        cfg.lsq_size = c[1] as usize;
        cfg.decode_width = c[2] as usize;
        cfg.issue_width = c[3] as usize;
        cfg.commit_width = c[4] as usize;
        let mut mpki_sum = 0.0;
        let (ipc, sims) = self.early.run(|run| {
            let seed = splitmix64(id ^ ((u64::from(run) + 1) << 40));
            let res = ssim_bench::with_engine(|e| e.simulate_fused(&self.sampler, seed, &cfg));
            mpki_sum += res.mpki();
            res.ipc()
        });
        Response {
            ipc,
            mpki: mpki_sum / f64::from(sims),
            sims,
        }
    }
}

/// Worst relative IPC shortfall of the adaptive frontier against the
/// exhaustive frontier envelope: for every exhaustive frontier point,
/// the best adaptive frontier IPC at no greater cost (percent).
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
            1.0 // nothing at or under this cost: total miss
        };
        worst = worst.max(gap);
    }
    worst * 100.0
}

/// Worst relative error of the adaptive model-assisted stratum
/// estimates against the exhaustive stratum means (percent).
fn stratum_err_pct(reference: &PlanReport, adaptive: &PlanReport) -> f64 {
    assert_eq!(reference.strata.len(), adaptive.strata.len());
    let mut worst: f64 = 0.0;
    for (r, a) in reference.strata.iter().zip(&adaptive.strata) {
        assert_eq!(r.id, a.id);
        if r.mean_ipc > 0.0 {
            worst = worst.max((a.model_ipc - r.mean_ipc).abs() / r.mean_ipc);
        }
    }
    worst * 100.0
}

#[test]
#[ignore = "minutes in a debug build; run by ./ci.sh dse in release"]
fn planner_matches_exhaustive_on_the_quick_sec46_space() {
    // A private profile cache: the gate measures the planner, not
    // whatever an earlier run left under results/.
    let dir = std::env::temp_dir().join(format!("ssim-dse-gates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SSIM_PROFILE_CACHE_DIR", &dir);

    // The quick-mode budgets of the experiment binaries.
    let budget = ssim_bench::Budget {
        skip: 4_000_000,
        profile: 600_000,
        eds: 400_000,
    };
    let w = ssim::workloads::by_name("crafty").expect("crafty exists");
    let profile = ssim_bench::profiled(&MachineConfig::baseline(), w, &budget);
    // Short traces, the same target the sec46 sweep uses: hundreds of
    // simulations against one shared compiled sampler.
    let r = (profile.instructions() / 40_000).max(1);
    let eval = FusedEvaluator {
        sampler: ssim_bench::sampler_cached(&profile, r),
        base: MachineConfig::baseline(),
        early: EarlyStop::default(),
    };

    let space = ssim_bench::sec46_space(true);
    let cfg = PlanConfig {
        seed: 0xD5E46,
        budget: space.points() * 2 / 5,
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

    let exhaustive = run_exhaustive(&space, &cfg, &eval);
    let adaptive = run_adaptive(&space, &cfg, &eval);
    let rerun = run_adaptive(&space, &cfg, &eval);
    assert_eq!(
        adaptive.digest(),
        rerun.digest(),
        "adaptive plan not byte-deterministic on re-run"
    );

    let fraction = adaptive.simulated as f64 / space.points() as f64;
    assert!(
        fraction <= 0.40 + 1e-9,
        "planner overspent: {fraction:.3} of the space (bound 0.40)"
    );
    let gap = pareto_gap_pct(&exhaustive, &adaptive);
    assert!(gap <= 2.0, "Pareto frontier gap {gap:.2}% exceeds 2%");
    let err = stratum_err_pct(&exhaustive, &adaptive);
    assert!(err <= 4.0, "stratum mean IPC error {err:.2}% exceeds 4%");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "run by ./ci.sh dse in release"]
fn planner_is_calibrated_on_the_synthetic_space() {
    let space = ssim_dse::big_space(6); // 6⁴·16 = 20,736 points
    let eval = SyntheticEvaluator::new(0x5ca1e);
    let cfg = PlanConfig {
        seed: 0x5ca1e,
        budget: space.points() / 20,
        ..PlanConfig::default()
    };
    let report = run_adaptive(&space, &cfg, &eval);
    let fraction = report.simulated as f64 / space.points() as f64;
    assert!(
        fraction <= 0.05 + 1e-9,
        "synthetic phase overspent: {fraction:.4}"
    );

    let ids = space.valid_ids();
    let strata = space.stratify(cfg.bins_per_axis);
    let (mut within, mut bars) = (0usize, 0usize);
    for (st, rep) in strata.iter().zip(&report.strata) {
        assert_eq!(st.id, rep.id);
        if rep.simulated < 2 {
            continue; // no error bar declared
        }
        let true_mean = st
            .members
            .iter()
            .map(|&pos| eval.true_ipc(&space, ids[pos as usize]))
            .sum::<f64>()
            / st.members.len() as f64;
        bars += 1;
        within += usize::from((rep.mean_ipc - true_mean).abs() <= 3.0 * rep.stderr_ipc);
    }
    assert!(bars > 0, "no stratum declared an error bar");
    let covered = within as f64 / bars as f64;
    assert!(
        covered >= 0.9,
        "only {within}/{bars} declared 3σ error bars cover the true stratum mean"
    );
}
