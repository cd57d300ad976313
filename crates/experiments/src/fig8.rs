//! Fig. 8 — Comparison of Kyoto with Pisces.
//!
//! Pisces removes hypervisor-level interference by giving every enclave
//! exclusive cores and memory, yet the LLC stays shared: the paper measures
//! a ~24 % execution-time gap for `vsen1` (gcc) between running alone and
//! running co-located with `vdis1` (lbm) on plain Pisces, and shows that
//! KS4Pisces (Pisces + Kyoto pollution enforcement) closes that gap.

use crate::config::ExperimentConfig;
use crate::harness::{
    calibrate_permits, measurement_of, spec_workload, warmup_and_measure, DISRUPTOR_CORE,
    SENSITIVE_CORE,
};
use kyoto_core::ks4::ks4pisces_hypervisor;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::pisces_system;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_workloads::spec::SpecApp;

/// Work amount (instructions) whose execution time the bars report. The
/// absolute value is arbitrary; only the ratios matter.
const FIXED_WORK_INSTRUCTIONS: f64 = 50_000_000.0;

/// The Fig. 8 dataset: execution times of `vsen1` in the four configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Result {
    /// Execution time on plain Pisces, running alone.
    pub pisces_alone: f64,
    /// Execution time on plain Pisces, co-located with lbm.
    pub pisces_colocated: f64,
    /// Execution time on KS4Pisces, running alone.
    pub ks4pisces_alone: f64,
    /// Execution time on KS4Pisces, co-located with lbm.
    pub ks4pisces_colocated: f64,
}

impl Fig8Result {
    /// Relative execution-time increase (in %) on plain Pisces when
    /// co-located — the paper reports about 24 %.
    pub fn pisces_gap_percent(&self) -> f64 {
        if self.pisces_alone <= 0.0 {
            0.0
        } else {
            (self.pisces_colocated - self.pisces_alone) / self.pisces_alone * 100.0
        }
    }

    /// Relative execution-time increase (in %) on KS4Pisces when co-located.
    pub fn ks4pisces_gap_percent(&self) -> f64 {
        if self.ks4pisces_alone <= 0.0 {
            0.0
        } else {
            (self.ks4pisces_colocated - self.ks4pisces_alone) / self.ks4pisces_alone * 100.0
        }
    }

    /// Renders the four bars.
    pub fn to_table(&self) -> String {
        format!(
            "Fig. 8: vsen1 execution time (arbitrary seconds)\n  Pisces      alone: {:8.2}   colocated: {:8.2}   (gap {:+.1}%)\n  KS4Pisces   alone: {:8.2}   colocated: {:8.2}   (gap {:+.1}%)\n",
            self.pisces_alone,
            self.pisces_colocated,
            self.pisces_gap_percent(),
            self.ks4pisces_alone,
            self.ks4pisces_colocated,
            self.ks4pisces_gap_percent()
        )
    }
}

fn pisces_run(config: &ExperimentConfig, colocated: bool) -> f64 {
    let mut hv = pisces_system(config.machine(), config.hypervisor_config());
    hv.add_vm_with(
        VmConfig::new("vsen1").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, SpecApp::Gcc, 1),
    )
    .expect("valid VM");
    if colocated {
        hv.add_vm_with(
            VmConfig::new("vdis1").pinned_to(vec![DISRUPTOR_CORE]),
            spec_workload(config, SpecApp::Lbm, 2),
        )
        .expect("valid VM");
    }
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "vsen1").execution_time_for(FIXED_WORK_INSTRUCTIONS)
}

fn ks4pisces_run(config: &ExperimentConfig, colocated: bool, permit: f64) -> f64 {
    let mut hv = ks4pisces_hypervisor(
        config.machine(),
        config.hypervisor_config(),
        MonitoringStrategy::SimulatorAttribution,
    );
    hv.engine_mut()
        .enable_shadow_attribution()
        .expect("valid LLC geometry");
    hv.add_vm_with(
        VmConfig::new("vsen1")
            .pinned_to(vec![SENSITIVE_CORE])
            .with_llc_cap(permit),
        spec_workload(config, SpecApp::Gcc, 1),
    )
    .expect("valid VM");
    if colocated {
        hv.add_vm_with(
            VmConfig::new("vdis1")
                .pinned_to(vec![DISRUPTOR_CORE])
                .with_llc_cap(permit),
            spec_workload(config, SpecApp::Lbm, 2),
        )
        .expect("valid VM");
    }
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "vsen1").execution_time_for(FIXED_WORK_INSTRUCTIONS)
}

/// Runs the Fig. 8 comparison.
pub fn run(config: &ExperimentConfig) -> Fig8Result {
    let permit = calibrate_permits(config).paper_kilo(250.0);
    Fig8Result {
        pisces_alone: pisces_run(config, false),
        pisces_colocated: pisces_run(config, true),
        ks4pisces_alone: ks4pisces_run(config, false, permit),
        ks4pisces_colocated: ks4pisces_run(config, true, permit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 19,
            warmup_ticks: 3,
            measure_ticks: 8,
            parallel_engine: false,
        }
    }

    #[test]
    fn pisces_alone_suffers_no_hypervisor_interference() {
        let config = tiny_config();
        let alone = pisces_run(&config, false);
        assert!(alone.is_finite() && alone > 0.0);
    }

    #[test]
    fn plain_pisces_suffers_llc_contention_and_kyoto_reduces_it() {
        let config = tiny_config();
        let result = run(&config);
        assert!(
            result.pisces_gap_percent() > 5.0,
            "plain Pisces should show an execution-time gap under co-location, got {:+.1}%",
            result.pisces_gap_percent()
        );
        assert!(
            result.ks4pisces_gap_percent() < result.pisces_gap_percent(),
            "KS4Pisces ({:+.1}%) must shrink the gap of plain Pisces ({:+.1}%)",
            result.ks4pisces_gap_percent(),
            result.pisces_gap_percent()
        );
        assert!(result.to_table().contains("KS4Pisces"));
    }
}
