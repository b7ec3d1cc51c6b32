//! Processor-core configuration.

/// Branch-direction predictor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredictorKind {
    /// Bimodal 2-bit counters (the paper's Table 1 configuration).
    #[default]
    Bimodal,
    /// Gshare (global history) — an ablation alternative.
    Gshare,
}

/// Timing model selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CpuModel {
    /// Out-of-order issue from the register update unit (the paper's
    /// SimpleScalar configuration).
    #[default]
    OutOfOrder,
    /// In-order issue (ablation: shows how much latency hiding the OOO core
    /// contributes to the reported improvements).
    InOrder,
}

/// Core parameters (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Register update unit (reorder window) entries.
    pub ruu_entries: u32,
    /// Load/store queue entries.
    pub lsq_entries: u32,
    /// Simultaneous memory operations issued per cycle (memory ports).
    pub mem_ports: u32,
    /// Integer ALUs (integer/branch/toggle ops issued per cycle).
    pub int_units: u32,
    /// Floating-point units (FP ops issued per cycle; SimpleScalar's
    /// default configuration has four FP ALUs).
    pub fp_units: u32,
    /// Bimodal predictor entries.
    pub predictor_entries: usize,
    /// Which direction predictor to use.
    pub predictor: PredictorKind,
    /// Front-end refill penalty after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Integer ALU latency in cycles.
    pub int_latency: u64,
    /// Floating-point latency in cycles.
    pub fp_latency: u64,
    /// Bytes per instruction-fetch block (for I-cache access batching).
    pub fetch_block: u64,
    /// Timing model.
    pub model: CpuModel,
}

impl CpuConfig {
    /// The paper's base configuration: 4-wide issue, 64-entry RUU, 32-entry
    /// LSQ, 2 memory ports, 2048-entry bimodal predictor.
    pub fn paper_base() -> Self {
        CpuConfig {
            issue_width: 4,
            fetch_width: 4,
            commit_width: 4,
            ruu_entries: 64,
            lsq_entries: 32,
            mem_ports: 2,
            int_units: 4,
            fp_units: 4,
            predictor_entries: 2048,
            predictor: PredictorKind::Bimodal,
            mispredict_penalty: 3,
            int_latency: 1,
            fp_latency: 4,
            fetch_block: 32,
            model: CpuModel::OutOfOrder,
        }
    }

    /// Checks that a pipeline can make progress under this configuration:
    /// every width, queue and unit count, the predictor size, the
    /// fetch-block size, and both ALU latencies must be nonzero. A zero width or queue would stall the
    /// pipeline forever, a zero fetch block divides by zero, and the
    /// wakeup-driven issue stage relies on every ALU result completing at
    /// least one cycle after it issues.
    ///
    /// ```
    /// use selcache_cpu::CpuConfig;
    ///
    /// assert!(CpuConfig::paper_base().validate().is_ok());
    /// let cfg = CpuConfig { ruu_entries: 0, ..CpuConfig::paper_base() };
    /// assert_eq!(cfg.validate(), Err("ruu_entries must be at least 1".to_string()));
    /// ```
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("issue_width", u64::from(self.issue_width)),
            ("fetch_width", u64::from(self.fetch_width)),
            ("commit_width", u64::from(self.commit_width)),
            ("ruu_entries", u64::from(self.ruu_entries)),
            ("lsq_entries", u64::from(self.lsq_entries)),
            ("mem_ports", u64::from(self.mem_ports)),
            ("int_units", u64::from(self.int_units)),
            ("fp_units", u64::from(self.fp_units)),
            ("predictor_entries", self.predictor_entries as u64),
            ("fetch_block", self.fetch_block),
            ("int_latency", self.int_latency),
            ("fp_latency", self.fp_latency),
        ];
        match fields.iter().find(|(_, v)| *v == 0) {
            Some((name, _)) => Err(format!("{name} must be at least 1")),
            None => Ok(()),
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::paper_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_table1() {
        let c = CpuConfig::paper_base();
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.ruu_entries, 64);
        assert_eq!(c.lsq_entries, 32);
        assert_eq!(c.mem_ports, 2);
        assert_eq!((c.int_units, c.fp_units), (4, 4));
        assert_eq!(c.predictor_entries, 2048);
        assert_eq!(c.model, CpuModel::OutOfOrder);
    }

    #[test]
    fn validate_and_constructor_reject_each_zero_field() {
        type Zero = fn(&mut CpuConfig);
        let cases: [(&str, Zero); 12] = [
            ("issue_width", |c| c.issue_width = 0),
            ("fetch_width", |c| c.fetch_width = 0),
            ("commit_width", |c| c.commit_width = 0),
            ("ruu_entries", |c| c.ruu_entries = 0),
            ("lsq_entries", |c| c.lsq_entries = 0),
            ("mem_ports", |c| c.mem_ports = 0),
            ("int_units", |c| c.int_units = 0),
            ("fp_units", |c| c.fp_units = 0),
            ("predictor_entries", |c| c.predictor_entries = 0),
            ("fetch_block", |c| c.fetch_block = 0),
            ("int_latency", |c| c.int_latency = 0),
            ("fp_latency", |c| c.fp_latency = 0),
        ];
        for (name, zero) in cases {
            let mut c = CpuConfig::paper_base();
            zero(&mut c);
            assert_eq!(c.validate(), Err(format!("{name} must be at least 1")));
            // The constructor refuses it; no pipeline ever runs on it.
            let built = std::panic::catch_unwind(|| crate::Pipeline::new(c));
            assert!(built.is_err(), "Pipeline::new accepted zero {name}");
        }
        assert_eq!(CpuConfig::paper_base().validate(), Ok(()));
    }
}
