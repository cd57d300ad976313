//! Fig. 3 — The processor is a good lever for punishing disruptive VMs.
//!
//! Each sensitive VM (`vsen1..3` = gcc, omnetpp, soplex) runs in parallel
//! with `vdis1` (lbm) while the disruptor's computing capacity (its Xen
//! `cap`) sweeps from a small share to 100 %. The paper observes that the
//! sensitive VM's degradation grows roughly linearly with the disruptor's
//! computing capacity — which is what justifies using the processor as the
//! lever that enforces pollution permits.

use crate::config::ExperimentConfig;
use crate::harness::{
    measurement_of, spec_workload, warmup_and_measure, DISRUPTOR_CORE, SENSITIVE_CORE,
};
use kyoto_hypervisor::hypervisor::HypervisorConfig;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_hypervisor::xen_hypervisor;
use kyoto_metrics::degradation::degradation_percent;
use kyoto_workloads::spec::SpecApp;

/// The cap sweep needs a finer enforcement granularity than Xen's default
/// 3-tick slice (a cap is rounded up to whole ticks within a slice): a 3 ms
/// tick with a 10-tick (30 ms) slice resolves cap steps of 10 %.
fn fine_grained_hypervisor_config(config: &ExperimentConfig) -> HypervisorConfig {
    HypervisorConfig {
        tick_ms: 3,
        ticks_per_slice: 10,
        ..config.hypervisor_config()
    }
}

/// One point of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// The sensitive application.
    pub sensitive: SpecApp,
    /// The disruptor's CPU cap, in percent of one core.
    pub disruptor_cap_percent: u32,
    /// Degradation (%) of the sensitive VM's IPC relative to running alone.
    pub degradation_percent: f64,
}

/// The Fig. 3 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// The swept cap values.
    pub caps: Vec<u32>,
    /// One point per (sensitive app, cap).
    pub points: Vec<Fig3Point>,
}

impl Fig3Result {
    /// The degradation series of one sensitive application, in cap order.
    pub fn series_of(&self, app: SpecApp) -> Vec<(u32, f64)> {
        self.caps
            .iter()
            .filter_map(|&cap| {
                self.points
                    .iter()
                    .find(|p| p.sensitive == app && p.disruptor_cap_percent == cap)
                    .map(|p| (cap, p.degradation_percent))
            })
            .collect()
    }

    /// Renders the dataset as a table (one column per sensitive VM).
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "Fig. 3: % degradation of vsen_i vs vdis1 (lbm) computing capacity\n  cap%     vsen1(gcc)  vsen2(omnetpp)  vsen3(soplex)\n",
        );
        for &cap in &self.caps {
            let mut line = format!("  {cap:4}    ");
            for app in SpecApp::SENSITIVE_VMS {
                let value = self
                    .points
                    .iter()
                    .find(|p| p.sensitive == app && p.disruptor_cap_percent == cap)
                    .map(|p| p.degradation_percent)
                    .unwrap_or(f64::NAN);
                line.push_str(&format!(" {value:11.1}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

fn solo_ipc(config: &ExperimentConfig, app: SpecApp) -> f64 {
    let mut hv = xen_hypervisor(config.machine(), fine_grained_hypervisor_config(config));
    hv.add_vm_with(
        VmConfig::new("sen").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, app, 1),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "sen").ipc()
}

fn contended_ipc(config: &ExperimentConfig, app: SpecApp, cap_percent: u32) -> f64 {
    let mut hv = xen_hypervisor(config.machine(), fine_grained_hypervisor_config(config));
    hv.add_vm_with(
        VmConfig::new("sen").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, app, 1),
    )
    .expect("valid VM");
    hv.add_vm_with(
        VmConfig::new("dis")
            .pinned_to(vec![DISRUPTOR_CORE])
            .with_cap_percent(cap_percent),
        spec_workload(config, SpecApp::Lbm, 2),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "sen").ipc()
}

/// Runs Fig. 3 with an explicit set of cap values.
pub fn run_with_caps(config: &ExperimentConfig, caps: &[u32]) -> Fig3Result {
    let mut points = Vec::new();
    for app in SpecApp::SENSITIVE_VMS {
        let solo = solo_ipc(config, app);
        for &cap in caps {
            let ipc = contended_ipc(config, app, cap);
            points.push(Fig3Point {
                sensitive: app,
                disruptor_cap_percent: cap,
                degradation_percent: degradation_percent(solo, ipc),
            });
        }
    }
    Fig3Result {
        caps: caps.to_vec(),
        points,
    }
}

/// Runs Fig. 3 with the paper's sweep (10 % to 100 %).
pub fn run(config: &ExperimentConfig) -> Fig3Result {
    run_with_caps(config, &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 11,
            warmup_ticks: 3,
            measure_ticks: 6,
            parallel_engine: false,
        }
    }

    #[test]
    fn more_disruptor_cpu_means_more_degradation() {
        let config = tiny_config();
        let result = run_with_caps(&config, &[20, 100]);
        let gcc = result.series_of(SpecApp::Gcc);
        assert_eq!(gcc.len(), 2);
        let low = gcc[0].1;
        let high = gcc[1].1;
        assert!(
            high > low,
            "a full-speed lbm must hurt gcc more than a 20%-capped one ({low:.1}% vs {high:.1}%)"
        );
    }

    #[test]
    fn table_lists_every_cap() {
        let result = Fig3Result {
            caps: vec![50],
            points: vec![Fig3Point {
                sensitive: SpecApp::Gcc,
                disruptor_cap_percent: 50,
                degradation_percent: 7.5,
            }],
        };
        let table = result.to_table();
        assert!(table.contains("50"));
        assert!(table.contains("7.5"));
        assert_eq!(result.series_of(SpecApp::Omnetpp).len(), 0);
    }
}
