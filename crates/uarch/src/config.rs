//! Machine configuration (the paper's Table 2).

use ssim_bpred::BpredConfig;
use ssim_cache::HierarchyConfig;

/// Functional-unit pool sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Integer ALUs (also execute branches).
    pub int_alu: usize,
    /// Load/store ports.
    pub ld_st: usize,
    /// Floating-point adders (also fp compares/branches).
    pub fp_add: usize,
    /// Integer multiply/divide units.
    pub int_muldiv: usize,
    /// Floating-point multiply/divide units.
    pub fp_muldiv: usize,
}

impl FuConfig {
    /// Table 2: 8 integer ALUs, 4 load/store units, 2 fp adders,
    /// 2 integer and 2 fp mult/div units.
    pub fn baseline() -> Self {
        FuConfig {
            int_alu: 8,
            ld_st: 4,
            fp_add: 2,
            int_muldiv: 2,
            fp_muldiv: 2,
        }
    }
}

/// Operation and memory latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 data-cache hit (load-use) latency.
    pub l1d_hit: u64,
    /// Latency of a load hitting in the unified L2.
    pub l2_hit: u64,
    /// Round-trip main-memory latency.
    pub mem: u64,
    /// Extra cycles charged for a TLB miss (software walk).
    pub tlb_miss: u64,
    /// Integer ALU operations.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide.
    pub int_div: u64,
    /// Floating-point add/compare/convert.
    pub fp_alu: u64,
    /// Floating-point multiply.
    pub fp_mul: u64,
    /// Floating-point divide.
    pub fp_div: u64,
    /// Floating-point square root.
    pub fp_sqrt: u64,
}

impl LatencyConfig {
    /// Table 2 latencies (2-cycle L1D, 20-cycle L2, 150-cycle memory)
    /// with SimpleScalar's default operation latencies.
    pub fn baseline() -> Self {
        LatencyConfig {
            l1d_hit: 2,
            l2_hit: 20,
            mem: 150,
            tlb_miss: 30,
            int_alu: 1,
            int_mul: 3,
            int_div: 20,
            fp_alu: 2,
            fp_mul: 4,
            fp_div: 12,
            fp_sqrt: 24,
        }
    }
}

/// The full machine configuration.
///
/// [`MachineConfig::baseline`] reproduces the paper's Table 2; the
/// design-space experiments perturb individual fields from there.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Decode/dispatch width (instructions per cycle from IFQ to RUU).
    pub decode_width: usize,
    /// Fetch speed multiplier: fetch width = `decode_width * fetch_speed`.
    pub fetch_speed: usize,
    /// Issue width (instructions entering execution per cycle).
    pub issue_width: usize,
    /// Commit width (instructions retiring per cycle).
    pub commit_width: usize,
    /// Instruction fetch queue capacity.
    pub ifq_size: usize,
    /// Register update unit (unified window + ROB) capacity.
    pub ruu_size: usize,
    /// Load/store queue capacity.
    pub lsq_size: usize,
    /// Cycles between a misprediction resolving at writeback and fetch
    /// resuming on the correct path. Together with pipeline refill this
    /// yields the paper's ~14-cycle effective misprediction penalty.
    pub redirect_latency: u64,
    /// Fetch bubble for a BTB miss with a correct direction (target
    /// computed at decode) — the paper's "fetch redirection".
    pub fetch_redirect_penalty: u64,
    /// Functional-unit pools.
    pub fu: FuConfig,
    /// Operation/memory latencies.
    pub lat: LatencyConfig,
    /// Branch predictor sizing.
    pub bpred: BpredConfig,
    /// Cache/TLB hierarchy sizing.
    pub hierarchy: HierarchyConfig,
    /// Model every cache/TLB access as a hit (Figure 4/5 experiments).
    pub perfect_caches: bool,
    /// Model every branch as correctly predicted (Figure 4 experiment).
    pub perfect_bpred: bool,
    /// Issue instructions strictly in program order (the paper's
    /// future-work extension for in-order cores; §2.1.1).
    pub in_order_issue: bool,
    /// Honour write-after-write and write-after-read register hazards
    /// (no renaming). The paper's out-of-order model removes them
    /// ("dynamically removed through register renaming"); enabling this
    /// models a machine without enough physical registers.
    pub model_anti_deps: bool,
}

impl MachineConfig {
    /// The paper's Table 2 baseline: 8-wide out-of-order core, 32-entry
    /// IFQ, 128-entry RUU, 32-entry LSQ, hybrid predictor, 8 KB/16 KB L1
    /// caches with a 1 MB unified L2.
    pub fn baseline() -> Self {
        MachineConfig {
            decode_width: 8,
            fetch_speed: 2,
            issue_width: 8,
            commit_width: 8,
            ifq_size: 32,
            ruu_size: 128,
            lsq_size: 32,
            redirect_latency: 9,
            fetch_redirect_penalty: 2,
            fu: FuConfig::baseline(),
            lat: LatencyConfig::baseline(),
            bpred: BpredConfig::baseline(),
            hierarchy: HierarchyConfig::baseline(),
            perfect_caches: false,
            perfect_bpred: false,
            in_order_issue: false,
            model_anti_deps: false,
        }
    }

    /// Fetch width in instructions per cycle.
    pub fn fetch_width(&self) -> usize {
        self.decode_width * self.fetch_speed
    }

    /// Builder-style override of the processor width (decode = issue =
    /// commit), as swept in Table 4.
    pub fn with_width(mut self, width: usize) -> Self {
        self.decode_width = width;
        self.issue_width = width;
        self.commit_width = width;
        self
    }

    /// Builder-style override of the window (RUU) size with the paper's
    /// §4.5 convention that the LSQ is half the RUU.
    pub fn with_window(mut self, ruu: usize) -> Self {
        self.ruu_size = ruu;
        self.lsq_size = (ruu / 2).max(1);
        self
    }

    /// Builder-style override of the IFQ size.
    pub fn with_ifq(mut self, ifq: usize) -> Self {
        self.ifq_size = ifq;
        self
    }

    /// Builder-style in-order variant: program-order issue with WAW and
    /// WAR hazards honoured (no renaming).
    pub fn in_order(mut self) -> Self {
        self.in_order_issue = true;
        self.model_anti_deps = true;
        self
    }

    /// Checks every structure size and width against its admissible
    /// range, and the paper's §4.6 constraint that the LSQ may not
    /// exceed the RUU.
    ///
    /// The ranges are one table, wide enough for every machine the
    /// experiments build (the largest window is 256) and small enough
    /// that the simulator's per-structure allocations stay bounded. A
    /// machine that comes from outside the process — a served request,
    /// a command-line flag — is checked here before anything is
    /// simulated, so an oversized structure is an error, not an abort.
    pub fn check(&self) -> Result<(), String> {
        let ranges: [(&str, usize, usize); 7] = [
            ("decode width", self.decode_width, 64),
            ("issue width", self.issue_width, 64),
            ("commit width", self.commit_width, 64),
            ("fetch speed", self.fetch_speed, 16),
            ("IFQ size", self.ifq_size, 1024),
            ("RUU size", self.ruu_size, 1024),
            ("LSQ size", self.lsq_size, 1024),
        ];
        for (name, value, max) in ranges {
            if !(1..=max).contains(&value) {
                return Err(format!("{name} {value} is outside 1..={max}"));
            }
        }
        if self.lsq_size > self.ruu_size {
            return Err(format!(
                "LSQ size {} may not exceed the RUU size {}",
                self.lsq_size, self.ruu_size
            ));
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if [`MachineConfig::check`] fails.
    pub fn validate(&self) {
        self.check().expect("invalid machine configuration");
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = MachineConfig::baseline();
        assert_eq!(c.decode_width, 8);
        assert_eq!(c.fetch_width(), 16);
        assert_eq!(c.ifq_size, 32);
        assert_eq!(c.ruu_size, 128);
        assert_eq!(c.lsq_size, 32);
        assert_eq!(c.fu.int_alu, 8);
        assert_eq!(c.lat.mem, 150);
        c.validate();
    }

    #[test]
    fn builders_adjust_linked_fields() {
        let c = MachineConfig::baseline()
            .with_window(64)
            .with_width(4)
            .with_ifq(8);
        assert_eq!(c.ruu_size, 64);
        assert_eq!(c.lsq_size, 32);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.ifq_size, 8);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "may not exceed the RUU")]
    fn oversized_lsq_rejected() {
        let mut c = MachineConfig::baseline();
        c.lsq_size = 256;
        c.validate();
    }

    #[test]
    fn check_bounds_every_structure() {
        assert_eq!(MachineConfig::baseline().check(), Ok(()));
        assert!(MachineConfig::baseline().with_window(256).check().is_ok());
        let huge = MachineConfig::baseline().with_window(4_000_000_000);
        assert_eq!(
            huge.check(),
            Err("RUU size 4000000000 is outside 1..=1024".to_string())
        );
        let mut zero = MachineConfig::baseline();
        zero.issue_width = 0;
        assert!(zero.check().unwrap_err().starts_with("issue width 0"));
    }
}
