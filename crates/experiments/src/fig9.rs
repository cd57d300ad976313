//! Fig. 9 — Migrating vCPUs could impact VMs which host memory-bound
//! applications.
//!
//! The socket-dedication monitor periodically migrates every vCPU except the
//! sampled one to the other socket of a NUMA machine (PowerEdge R420 in the
//! paper). Migrated vCPUs keep their memory on the original node, so every
//! LLC miss pays the remote-access penalty. The paper measures the resulting
//! overhead for eight SPEC applications and finds that memory-intensive
//! applications (milc, omnetpp, lbm, mcf) pay the most — up to ~12 %.

use crate::config::ExperimentConfig;
use crate::harness::{measurement_of, spec_workload, warmup_and_measure};
use kyoto_core::ks4::ks4xen_hypervisor;
use kyoto_core::monitor::{MonitoringStrategy, SocketDedicationConfig};
use kyoto_hypervisor::vm::VmConfig;
use kyoto_metrics::degradation::degradation_percent;
use kyoto_workloads::spec::SpecApp;

/// One bar of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Row {
    /// The measured application.
    pub app: SpecApp,
    /// IPC degradation (%) caused by the periodic socket-dedication
    /// migrations, relative to running without them.
    pub degradation_percent: f64,
}

/// The Fig. 9 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// One row per application.
    pub rows: Vec<Fig9Row>,
}

impl Fig9Result {
    /// The degradation of one application.
    pub fn degradation_of(&self, app: SpecApp) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.app == app)
            .map(|r| r.degradation_percent)
    }

    /// Renders the bars.
    pub fn to_table(&self) -> String {
        let mut out =
            String::from("Fig. 9: perf. degradation (%) caused by socket-dedication migrations\n");
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<9} {:6.1}%\n",
                row.app.name(),
                row.degradation_percent
            ));
        }
        out
    }
}

/// The dedication schedule used for the overhead experiment: frequent
/// sampling windows so the migration cost is visible within short runs.
fn dedication_config() -> SocketDedicationConfig {
    SocketDedicationConfig {
        sampling_ticks: 3,
        interval_ticks: 3,
        skip_low_polluters: false,
        skip_when_neighbours_quiet: false,
        ..SocketDedicationConfig::default()
    }
}

fn run_app(config: &ExperimentConfig, app: SpecApp, with_dedication: bool) -> f64 {
    let strategy = if with_dedication {
        MonitoringStrategy::SocketDedication(dedication_config())
    } else {
        MonitoringStrategy::DirectPmc
    };
    let mut hv = ks4xen_hypervisor(config.numa_machine(), config.hypervisor_config(), strategy);
    // The measured application; its memory lives on node 0 (where it starts).
    hv.add_vm_with(
        VmConfig::new("measured").on_numa_node(kyoto_sim::topology::NumaNode(0)),
        spec_workload(config, app, 1),
    )
    .expect("valid VM");
    // A second, quiet VM shares the machine: its sampling windows are what
    // forces the measured VM to migrate to the other socket.
    hv.add_vm_with(
        VmConfig::new("companion").on_numa_node(kyoto_sim::topology::NumaNode(0)),
        spec_workload(config, SpecApp::Hmmer, 2),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "measured").ipc()
}

/// Runs Fig. 9 restricted to `apps`.
pub fn run_with_apps(config: &ExperimentConfig, apps: &[SpecApp]) -> Fig9Result {
    let rows = apps
        .iter()
        .map(|&app| {
            let baseline = run_app(config, app, false);
            let dedicated = run_app(config, app, true);
            Fig9Row {
                app,
                degradation_percent: degradation_percent(baseline, dedicated),
            }
        })
        .collect();
    Fig9Result { rows }
}

/// Runs Fig. 9 with the paper's eight applications.
pub fn run(config: &ExperimentConfig) -> Fig9Result {
    run_with_apps(config, &SpecApp::FIG9_APPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 23,
            warmup_ticks: 3,
            measure_ticks: 9,
            // Fig. 9 runs the two-socket machine: exercise the hypervisor's
            // socket-parallel engine path in this test.
            parallel_engine: true,
        }
    }

    #[test]
    fn memory_bound_apps_pay_more_than_cpu_bound_apps() {
        let config = tiny_config();
        let result = run_with_apps(&config, &[SpecApp::Lbm, SpecApp::Bzip]);
        let lbm = result.degradation_of(SpecApp::Lbm).unwrap();
        let bzip = result.degradation_of(SpecApp::Bzip).unwrap();
        assert!(
            lbm > bzip,
            "lbm ({lbm:.1}%) should suffer more from remote memory than bzip ({bzip:.1}%)"
        );
        assert!(result.to_table().contains("lbm"));
        assert_eq!(result.degradation_of(SpecApp::Gcc), None);
    }
}
