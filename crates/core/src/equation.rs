//! Pollution indicators: Equation 1 and the raw-LLCM alternative.
//!
//! Section 3.3 of the paper estimates a VM's actual pollution level with
//!
//! ```text
//! llc_cap_act = llc_misses * cpu_freq_khz / unhalted_core_cycles      (1)
//! ```
//!
//! i.e. LLC misses per millisecond of CPU time. Section 4.2 compares this
//! indicator against the raw LLC-miss count per sampling window (LLCM) and
//! shows — via Kendall's tau against the measured aggressiveness — that
//! Equation 1 ranks polluters better.

use kyoto_sim::pmc::PmcSet;

/// Computes Equation 1: LLC misses per millisecond of CPU time.
///
/// Returns `0` when no cycle has elapsed (an idle sampling window).
pub fn llc_cap_act(llc_misses: u64, unhalted_core_cycles: u64, cpu_freq_khz: u64) -> f64 {
    if unhalted_core_cycles == 0 {
        0.0
    } else {
        llc_misses as f64 * cpu_freq_khz as f64 / unhalted_core_cycles as f64
    }
}

/// Computes Equation 1 directly from a counter sample.
pub fn llc_cap_act_from_pmcs(pmcs: &PmcSet, cpu_freq_khz: u64) -> f64 {
    llc_cap_act(pmcs.llc_misses, pmcs.unhalted_core_cycles, cpu_freq_khz)
}

/// The raw-LLCM indicator of Section 4.2: LLC misses normalised to a fixed
/// instruction window (the paper samples "each 100 million of instructions").
///
/// Returns `0` when no instruction was retired.
pub fn llcm_indicator(llc_misses: u64, instructions: u64, window_instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        llc_misses as f64 * window_instructions as f64 / instructions as f64
    }
}

/// Sampling window used by the paper when computing indicators
/// (100 million instructions).
pub const PAPER_SAMPLING_WINDOW_INSTRUCTIONS: u64 = 100_000_000;

/// A pollution-indicator kind, used by the Fig. 4 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Indicator {
    /// Equation 1 (misses per millisecond of CPU time).
    Equation1,
    /// Raw LLC misses per instruction window.
    Llcm,
}

impl Indicator {
    /// Evaluates the indicator over a counter sample.
    pub fn evaluate(&self, pmcs: &PmcSet, cpu_freq_khz: u64) -> f64 {
        match self {
            Indicator::Equation1 => llc_cap_act_from_pmcs(pmcs, cpu_freq_khz),
            Indicator::Llcm => llcm_indicator(
                pmcs.llc_misses,
                pmcs.instructions,
                PAPER_SAMPLING_WINDOW_INSTRUCTIONS,
            ),
        }
    }

    /// Name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Indicator::Equation1 => "equation1",
            Indicator::Llcm => "llcm",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_1_matches_the_papers_formula() {
        // 1000 misses over 2.8M cycles at 2.8 GHz (2.8M kHz) = 1000 misses/ms.
        let value = llc_cap_act(1000, 2_800_000, 2_800_000);
        assert!((value - 1000.0).abs() < 1e-9);
        // Half the cycles -> twice the rate.
        assert!((llc_cap_act(1000, 1_400_000, 2_800_000) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn equation_1_handles_idle_windows() {
        assert_eq!(llc_cap_act(100, 0, 2_800_000), 0.0);
    }

    #[test]
    fn equation_1_is_linear_in_misses() {
        let one = llc_cap_act(10, 1_000_000, 2_800_000);
        let ten = llc_cap_act(100, 1_000_000, 2_800_000);
        assert!((ten / one - 10.0).abs() < 1e-9);
    }

    #[test]
    fn llcm_normalises_to_the_window() {
        // 50 misses over 50M instructions = 100 misses per 100M instructions.
        let value = llcm_indicator(50, 50_000_000, PAPER_SAMPLING_WINDOW_INSTRUCTIONS);
        assert!((value - 100.0).abs() < 1e-9);
        assert_eq!(
            llcm_indicator(50, 0, PAPER_SAMPLING_WINDOW_INSTRUCTIONS),
            0.0
        );
    }

    #[test]
    fn indicators_disagree_for_low_ipc_workloads() {
        // Two applications with the same misses per instruction but different
        // IPC: the slow (memory-stalled) one pollutes fewer lines per ms.
        let fast = PmcSet {
            instructions: 1_000_000,
            unhalted_core_cycles: 2_000_000,
            llc_misses: 10_000,
            ..PmcSet::default()
        };
        let slow = PmcSet {
            instructions: 1_000_000,
            unhalted_core_cycles: 20_000_000,
            llc_misses: 10_000,
            ..PmcSet::default()
        };
        let freq = 2_800_000;
        assert_eq!(
            Indicator::Llcm.evaluate(&fast, freq),
            Indicator::Llcm.evaluate(&slow, freq),
            "LLCM cannot tell them apart"
        );
        assert!(
            Indicator::Equation1.evaluate(&fast, freq)
                > Indicator::Equation1.evaluate(&slow, freq) * 5.0,
            "Equation 1 must rank the fast polluter far higher"
        );
    }

    #[test]
    fn indicator_names() {
        assert_eq!(Indicator::Equation1.name(), "equation1");
        assert_eq!(Indicator::Llcm.name(), "llcm");
    }
}
