//! # ssim — statistical simulation for processor design studies
//!
//! A full Rust implementation of *"Control Flow Modeling in Statistical
//! Simulation for Accurate and Efficient Processor Design Studies"*
//! (Eeckhout, Bell, Stougie, De Bosschere, John — ISCA 2004), together
//! with every substrate the method needs: a mini-RISC ISA and
//! benchmark suite, a cycle-level out-of-order superscalar simulator,
//! branch predictors, a cache hierarchy, a Wattch-style power model and
//! the HLS / SimPoint baselines.
//!
//! This facade crate re-exports the public API of the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `ssim-core` | statistical flow graphs, profiling, synthetic traces (the paper's contribution) |
//! | [`uarch`] | `ssim-uarch` | the out-of-order pipeline and execution-driven reference simulator |
//! | [`power`] | `ssim-power` | Wattch-style energy-per-cycle modeling |
//! | [`workloads`] | `ssim-workloads` | the ten SPECint-archetype benchmarks |
//! | [`baselines`] | `ssim-baselines` | HLS and SimPoint comparators |
//! | [`isa`], [`func`], [`bpred`], [`cache`], [`stats`] | … | the remaining substrates |
//!
//! # Quickstart
//!
//! ```no_run
//! use ssim::prelude::*;
//!
//! let machine = MachineConfig::baseline(); // the paper's Table 2
//! let program = ssim::workloads::by_name("gzip").unwrap().program();
//!
//! // Reference: execution-driven simulation.
//! let eds = ExecSim::new(&machine, &program).run(1_000_000);
//!
//! // Statistical simulation: profile once, then explore quickly.
//! let profile = profile(&program, &ProfileConfig::new(&machine));
//! let trace = profile.generate(100, 42);
//! let ss = simulate_trace(&trace, &machine);
//!
//! println!("EDS {:.3} vs SS {:.3} IPC", eds.ipc(), ss.ipc());
//! ```

pub use ssim_baselines as baselines;
pub use ssim_bpred as bpred;
pub use ssim_cache as cache;
pub use ssim_core as core;
pub use ssim_core::obs;
pub use ssim_func as func;
pub use ssim_isa as isa;
pub use ssim_power as power;
pub use ssim_stats as stats;
pub use ssim_uarch as uarch;
pub use ssim_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use ssim_core::{
        profile, simulate_fused, simulate_trace, BranchProfileMode, CompiledSampler, ProfileConfig,
        SimEngine, StatisticalProfile, SyntheticTrace, MAX_DEP_DISTANCE,
    };
    pub use ssim_power::{PowerBreakdown, PowerModel};
    pub use ssim_stats::{absolute_error, relative_error, MetricPair, Summary};
    pub use ssim_uarch::{ExecSim, MachineConfig, SimResult};
    pub use ssim_workloads::Workload;
}
