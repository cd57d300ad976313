//! Fig. 10 — vCPU isolation could be avoided in some situations.
//!
//! Socket dedication is costly (Fig. 9), so the paper identifies two cases
//! where the measured `llc_cap_act` obtained *without* isolation is already
//! accurate:
//!
//! * a vCPU that generates very few LLC misses (hmmer): its counters are
//!   barely inflated by co-runners because it hardly touches the LLC;
//! * a vCPU that only shares the LLC with low-miss co-runners (bzip among
//!   hmmer neighbours): nobody evicts its lines, so its counters already
//!   reflect its solo behaviour.
//!
//! The figure shows the isolated and non-isolated `llc_cap_act` values side
//! by side for both cases and finds them nearly identical.

use crate::config::ExperimentConfig;
use crate::harness::{measurement_of, spec_workload, warmup_and_measure, SENSITIVE_CORE};
use kyoto_hypervisor::vm::VmConfig;
use kyoto_hypervisor::xen_hypervisor;
use kyoto_sim::topology::CoreId;
use kyoto_workloads::spec::SpecApp;

/// One pair of bars in Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Row {
    /// The measured application.
    pub app: SpecApp,
    /// `llc_cap_act` measured while co-located, without any isolation
    /// (raw per-vCPU counters).
    pub not_isolated: f64,
    /// `llc_cap_act` measured with the vCPU isolated (ground truth:
    /// a solo run on the dedicated socket).
    pub isolated: f64,
}

impl Fig10Row {
    /// Relative error (%) of the non-isolated measurement.
    pub fn relative_error_percent(&self) -> f64 {
        if self.isolated.abs() < f64::EPSILON {
            0.0
        } else {
            (self.not_isolated - self.isolated).abs() / self.isolated * 100.0
        }
    }
}

/// The Fig. 10 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Result {
    /// hmmer co-located with disruptive vCPUs (heuristic 1).
    pub hmmer: Fig10Row,
    /// bzip co-located with hmmer-like quiet vCPUs (heuristic 2).
    pub bzip: Fig10Row,
}

impl Fig10Result {
    /// Renders the four bars.
    pub fn to_table(&self) -> String {
        format!(
            "Fig. 10: llc_cap_act with and without vCPU isolation (misses/ms)\n  hmmer   not isolated: {:10.1}   isolated: {:10.1}   (error {:4.1}%)\n  bzip    not isolated: {:10.1}   isolated: {:10.1}   (error {:4.1}%)\n",
            self.hmmer.not_isolated,
            self.hmmer.isolated,
            self.hmmer.relative_error_percent(),
            self.bzip.not_isolated,
            self.bzip.isolated,
            self.bzip.relative_error_percent()
        )
    }
}

/// `llc_cap_act` of `app` running alone (the isolated ground truth).
fn isolated_llc_cap(config: &ExperimentConfig, app: SpecApp) -> f64 {
    let mut hv = xen_hypervisor(config.machine(), config.hypervisor_config());
    hv.add_vm_with(
        VmConfig::new("measured").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, app, 1),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "measured").llc_cap_act()
}

/// `llc_cap_act` of `app` measured from raw counters while co-located with
/// three `neighbour` VMs on the other cores.
fn colocated_llc_cap(config: &ExperimentConfig, app: SpecApp, neighbour: SpecApp) -> f64 {
    let mut hv = xen_hypervisor(config.machine(), config.hypervisor_config());
    hv.add_vm_with(
        VmConfig::new("measured").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, app, 1),
    )
    .expect("valid VM");
    for i in 0..3u64 {
        hv.add_vm_with(
            VmConfig::new(format!("neighbour-{i}")).pinned_to(vec![CoreId(1 + i as usize)]),
            spec_workload(config, neighbour, 10 + i),
        )
        .expect("valid VM");
    }
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "measured").llc_cap_act()
}

/// Runs the Fig. 10 comparison.
pub fn run(config: &ExperimentConfig) -> Fig10Result {
    Fig10Result {
        // Case 1: hmmer (a low-miss VM) surrounded by disruptors.
        hmmer: Fig10Row {
            app: SpecApp::Hmmer,
            not_isolated: colocated_llc_cap(config, SpecApp::Hmmer, SpecApp::Lbm),
            isolated: isolated_llc_cap(config, SpecApp::Hmmer),
        },
        // Case 2: bzip surrounded by quiet hmmer VMs.
        bzip: Fig10Row {
            app: SpecApp::Bzip,
            not_isolated: colocated_llc_cap(config, SpecApp::Bzip, SpecApp::Hmmer),
            isolated: isolated_llc_cap(config, SpecApp::Bzip),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 29,
            warmup_ticks: 3,
            measure_ticks: 8,
            parallel_engine: false,
        }
    }

    #[test]
    fn low_miss_vms_do_not_need_isolation() {
        let config = tiny_config();
        let result = run(&config);
        // hmmer barely uses the LLC, so both measurements should be small
        // and the bzip-among-hmmers case should stay close to its solo value.
        assert!(
            result.bzip.relative_error_percent() < 60.0,
            "bzip among quiet neighbours should measure close to its solo value (error {:.1}%)",
            result.bzip.relative_error_percent()
        );
        let lbm_solo = isolated_llc_cap(&config, SpecApp::Lbm);
        assert!(
            result.hmmer.isolated < lbm_solo / 10.0,
            "hmmer must be a low polluter compared to lbm"
        );
        assert!(result.to_table().contains("hmmer"));
    }
}
