//! Fig. 6 — KS4Xen's scalability.
//!
//! The sensitive VM `250k·vsen1` (gcc) runs while the number of co-located
//! `50k·vdis1` (lbm) vCPUs grows from 1 to 15 — up to 16 vCPUs sharing the
//! four cores, i.e. the ~4 vCPUs-per-core consolidation ratio the paper
//! cites. KS4Xen is scalable if the sensitive VM's normalised performance
//! stays flat as disruptors are added.

use crate::config::ExperimentConfig;
use crate::harness::{
    calibrate_permits, measurement_of, spec_workload, warmup_and_measure, SENSITIVE_CORE,
};
use kyoto_core::ks4::ks4xen_hypervisor;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_metrics::degradation::normalized_performance;
use kyoto_sim::topology::CoreId;
use kyoto_workloads::spec::SpecApp;

/// The Fig. 6 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// Numbers of co-located disruptor vCPUs evaluated.
    pub counts: Vec<usize>,
    /// Normalised `vsen1` performance for each count.
    pub normalized_perf: Vec<(usize, f64)>,
}

impl Fig6Result {
    /// The worst (lowest) normalised performance across all counts.
    pub fn worst_normalized_perf(&self) -> f64 {
        self.normalized_perf
            .iter()
            .map(|(_, p)| *p)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the dataset.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "Fig. 6: normalised vsen1 performance vs number of co-located 50k vdis1 vCPUs\n  #vdis   normalised perf\n",
        );
        for (count, perf) in &self.normalized_perf {
            out.push_str(&format!("  {count:5}   {perf:.3}\n"));
        }
        out
    }
}

fn run_with_disruptors(
    config: &ExperimentConfig,
    disruptors: usize,
    sen_permit: f64,
    dis_permit: f64,
) -> f64 {
    let machine = config.machine();
    let num_cores = machine.num_cores();
    let mut hv = ks4xen_hypervisor(
        machine,
        config.hypervisor_config(),
        MonitoringStrategy::SimulatorAttribution,
    );
    hv.engine_mut()
        .enable_shadow_attribution()
        .expect("valid LLC geometry");
    hv.add_vm_with(
        VmConfig::new("vsen1")
            .pinned_to(vec![SENSITIVE_CORE])
            .with_llc_cap(sen_permit),
        spec_workload(config, SpecApp::Gcc, 1),
    )
    .expect("valid VM");
    for i in 0..disruptors {
        // Spread the disruptor vCPUs across every core (including the
        // sensitive VM's) like the paper's consolidation scenario.
        let core = CoreId((i + 1) % num_cores);
        hv.add_vm_with(
            VmConfig::new(format!("vdis1-{i}"))
                .pinned_to(vec![core])
                .with_llc_cap(dis_permit),
            spec_workload(config, SpecApp::Lbm, 100 + i as u64),
        )
        .expect("valid VM");
    }
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "vsen1").instructions_per_tick()
}

/// Runs Fig. 6 with explicit disruptor counts.
pub fn run_with_counts(config: &ExperimentConfig, counts: &[usize]) -> Fig6Result {
    let calibration = calibrate_permits(config);
    let sen_permit = calibration.paper_kilo(250.0);
    let dis_permit = calibration.paper_kilo(50.0);
    let solo = run_with_disruptors(config, 0, sen_permit, dis_permit);
    let normalized_perf = counts
        .iter()
        .map(|&count| {
            let throughput = run_with_disruptors(config, count, sen_permit, dis_permit);
            (count, normalized_performance(solo, throughput))
        })
        .collect();
    Fig6Result {
        counts: counts.to_vec(),
        normalized_perf,
    }
}

/// Runs Fig. 6 with the paper's disruptor counts (1 to 15 vCPUs).
pub fn run(config: &ExperimentConfig) -> Fig6Result {
    run_with_counts(config, &[1, 2, 4, 6, 8, 10, 13, 14, 15])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 17,
            warmup_ticks: 3,
            measure_ticks: 6,
            parallel_engine: false,
        }
    }

    #[test]
    fn sensitive_vm_performance_stays_reasonable_with_many_disruptors() {
        let config = tiny_config();
        let result = run_with_counts(&config, &[1, 3]);
        assert_eq!(result.counts, vec![1, 3]);
        for (count, perf) in &result.normalized_perf {
            assert!(
                *perf > 0.3,
                "with {count} punished disruptors vsen1 should keep most of its performance, got {perf:.2}"
            );
        }
        assert!(result.worst_normalized_perf() > 0.0);
        assert!(result.to_table().contains("normalised"));
    }
}
