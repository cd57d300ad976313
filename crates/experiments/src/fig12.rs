//! Fig. 12 — The overhead incurred by KS4Xen is near zero.
//!
//! Two VMs hosting the CPU-bound SPEC application povray share the same
//! core; the experiment is repeated under XCS and under KS4Xen while the
//! scheduling time slice (and therefore the frequency at which the
//! monitoring code runs) varies. The execution times are identical, showing
//! that the PMC-gathering and quota accounting add no measurable overhead.

use crate::config::ExperimentConfig;
use crate::harness::{measurement_of, spec_workload, warmup_and_measure, SENSITIVE_CORE};
use kyoto_core::ks4::ks4xen_hypervisor;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::hypervisor::HypervisorConfig;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_hypervisor::xen_hypervisor;
use kyoto_workloads::spec::SpecApp;

/// Work amount (instructions) whose execution time the curves report.
const FIXED_WORK_INSTRUCTIONS: f64 = 50_000_000.0;

/// One point of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig12Point {
    /// Scheduling time slice (tick) in milliseconds.
    pub time_slice_ms: u64,
    /// Execution time of povray under plain XCS.
    pub xcs_execution_time: f64,
    /// Execution time of povray under KS4Xen.
    pub ks4xen_execution_time: f64,
}

impl Fig12Point {
    /// KS4Xen's overhead relative to XCS, in percent.
    pub fn overhead_percent(&self) -> f64 {
        if self.xcs_execution_time <= 0.0 {
            0.0
        } else {
            (self.ks4xen_execution_time - self.xcs_execution_time) / self.xcs_execution_time * 100.0
        }
    }
}

/// The Fig. 12 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Result {
    /// One point per evaluated time slice.
    pub points: Vec<Fig12Point>,
}

impl Fig12Result {
    /// The largest absolute overhead (in %) across every time slice.
    pub fn max_overhead_percent(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.overhead_percent().abs())
            .fold(0.0, f64::max)
    }

    /// Renders the two curves.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "Fig. 12: povray execution time vs scheduling time slice\n  slice(ms)   XCS          KS4Xen      overhead%\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:9} {:12.2} {:12.2} {:10.2}\n",
                p.time_slice_ms,
                p.xcs_execution_time,
                p.ks4xen_execution_time,
                p.overhead_percent()
            ));
        }
        out
    }
}

fn hypervisor_config_with_slice(config: &ExperimentConfig, tick_ms: u64) -> HypervisorConfig {
    config.hypervisor_config().with_tick_ms(tick_ms)
}

fn xcs_run(config: &ExperimentConfig, tick_ms: u64) -> f64 {
    let mut hv = xen_hypervisor(
        config.machine(),
        hypervisor_config_with_slice(config, tick_ms),
    );
    hv.add_vm_with(
        VmConfig::new("povray-a").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, SpecApp::Povray, 1),
    )
    .expect("valid VM");
    hv.add_vm_with(
        VmConfig::new("povray-b").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, SpecApp::Povray, 2),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "povray-a").execution_time_for(FIXED_WORK_INSTRUCTIONS)
}

fn ks4xen_run(config: &ExperimentConfig, tick_ms: u64) -> f64 {
    let mut hv = ks4xen_hypervisor(
        config.machine(),
        hypervisor_config_with_slice(config, tick_ms),
        MonitoringStrategy::DirectPmc,
    );
    // Both VMs book a comfortable permit; povray barely touches the LLC so
    // the quota machinery runs on every tick without ever punishing.
    let permit = 1_000_000.0;
    hv.add_vm_with(
        VmConfig::new("povray-a")
            .pinned_to(vec![SENSITIVE_CORE])
            .with_llc_cap(permit),
        spec_workload(config, SpecApp::Povray, 1),
    )
    .expect("valid VM");
    hv.add_vm_with(
        VmConfig::new("povray-b")
            .pinned_to(vec![SENSITIVE_CORE])
            .with_llc_cap(permit),
        spec_workload(config, SpecApp::Povray, 2),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "povray-a").execution_time_for(FIXED_WORK_INSTRUCTIONS)
}

/// Runs Fig. 12 with explicit time slices.
pub fn run_with_slices(config: &ExperimentConfig, slices_ms: &[u64]) -> Fig12Result {
    let points = slices_ms
        .iter()
        .map(|&tick_ms| Fig12Point {
            time_slice_ms: tick_ms,
            xcs_execution_time: xcs_run(config, tick_ms),
            ks4xen_execution_time: ks4xen_run(config, tick_ms),
        })
        .collect();
    Fig12Result { points }
}

/// Runs Fig. 12 with the paper's sweep (3 ms to 30 ms).
pub fn run(config: &ExperimentConfig) -> Fig12Result {
    run_with_slices(config, &[3, 6, 9, 12, 15, 18, 21, 24, 27, 30])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 37,
            warmup_ticks: 3,
            measure_ticks: 9,
            parallel_engine: false,
        }
    }

    #[test]
    fn ks4xen_overhead_is_negligible() {
        let config = tiny_config();
        let result = run_with_slices(&config, &[10, 30]);
        assert_eq!(result.points.len(), 2);
        assert!(
            result.max_overhead_percent() < 5.0,
            "KS4Xen should not slow povray down (max overhead {:.2}%)",
            result.max_overhead_percent()
        );
        assert!(result.to_table().contains("overhead"));
    }
}
