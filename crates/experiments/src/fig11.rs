//! Fig. 11 — Socket dedication could be avoided when computing
//! `llc_cap_act`.
//!
//! The second attribution solution of Section 3.3 replays the VM's
//! instructions inside a micro-architectural simulator (McSimA+ in the
//! paper, the per-owner shadow LLC here) instead of dedicating the socket.
//! The figure compares, for the ten Fig. 4 applications, the Equation-1
//! value obtained with socket dedication against the one obtained without it
//! (simulator-based attribution while co-located) and finds them equivalent.

use crate::config::ExperimentConfig;
use crate::harness::{
    measurement_of, spec_workload, warmup_and_measure, DISRUPTOR_CORE, SENSITIVE_CORE,
};
use kyoto_core::ks4::ks4xen_hypervisor;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::vm::{VcpuId, VmConfig};
use kyoto_hypervisor::xen_hypervisor;
use kyoto_workloads::spec::SpecApp;

/// One pair of bars in Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Row {
    /// The application.
    pub app: SpecApp,
    /// Equation-1 value obtained with socket dedication (modelled by a solo
    /// run: the socket is entirely the VM's during sampling).
    pub with_dedication: f64,
    /// Equation-1 value obtained without dedication, from simulator-based
    /// attribution while co-located with a disruptor.
    pub without_dedication: f64,
}

impl Fig11Row {
    /// Relative difference (%) between the two measurements.
    pub fn relative_difference_percent(&self) -> f64 {
        if self.with_dedication.abs() < f64::EPSILON {
            0.0
        } else {
            (self.without_dedication - self.with_dedication).abs() / self.with_dedication * 100.0
        }
    }
}

/// The Fig. 11 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Result {
    /// One row per application.
    pub rows: Vec<Fig11Row>,
}

impl Fig11Result {
    /// The row of one application.
    pub fn row_of(&self, app: SpecApp) -> Option<&Fig11Row> {
        self.rows.iter().find(|r| r.app == app)
    }

    /// Renders the comparison.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "Fig. 11: equation-1 values with vs without socket dedication (misses/ms)\n  app        dedication   no dedication   diff%\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<9} {:11.1} {:15.1} {:7.1}\n",
                row.app.name(),
                row.with_dedication,
                row.without_dedication,
                row.relative_difference_percent()
            ));
        }
        out
    }
}

/// Ground truth: the application's Equation-1 value when the socket is
/// dedicated to it (a solo run).
fn dedicated_value(config: &ExperimentConfig, app: SpecApp) -> f64 {
    let mut hv = xen_hypervisor(config.machine(), config.hypervisor_config());
    hv.add_vm_with(
        VmConfig::new("measured").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, app, 1),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "measured").llc_cap_act()
}

/// The application's Equation-1 value estimated by simulator attribution
/// while it shares the LLC with a disruptor.
fn simulator_value(config: &ExperimentConfig, app: SpecApp) -> f64 {
    let mut hv = ks4xen_hypervisor(
        config.machine(),
        config.hypervisor_config(),
        MonitoringStrategy::SimulatorAttribution,
    );
    hv.engine_mut()
        .enable_shadow_attribution()
        .expect("valid LLC geometry");
    let measured = hv
        .add_vm_with(
            VmConfig::new("measured").pinned_to(vec![SENSITIVE_CORE]),
            spec_workload(config, app, 1),
        )
        .expect("valid VM");
    hv.add_vm_with(
        VmConfig::new("disruptor").pinned_to(vec![DISRUPTOR_CORE]),
        spec_workload(config, SpecApp::Blockie, 2),
    )
    .expect("valid VM");
    hv.run_ticks(config.total_ticks());
    hv.scheduler()
        .measured_llc_cap(VcpuId::new(measured, 0))
        .unwrap_or(0.0)
}

/// Runs Fig. 11 restricted to `apps`.
pub fn run_with_apps(config: &ExperimentConfig, apps: &[SpecApp]) -> Fig11Result {
    let rows = apps
        .iter()
        .map(|&app| Fig11Row {
            app,
            with_dedication: dedicated_value(config, app),
            without_dedication: simulator_value(config, app),
        })
        .collect();
    Fig11Result { rows }
}

/// Runs Fig. 11 with the paper's ten applications.
pub fn run(config: &ExperimentConfig) -> Fig11Result {
    run_with_apps(config, &SpecApp::FIG4_APPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 31,
            warmup_ticks: 3,
            measure_ticks: 8,
            parallel_engine: false,
        }
    }

    #[test]
    fn simulator_attribution_tracks_the_dedicated_measurement() {
        let config = tiny_config();
        let result = run_with_apps(&config, &[SpecApp::Lbm, SpecApp::Hmmer]);
        let lbm = result.row_of(SpecApp::Lbm).unwrap();
        let hmmer = result.row_of(SpecApp::Hmmer).unwrap();
        // The heavy polluter must still look like a heavy polluter without
        // dedication, and the quiet VM must still look quiet.
        assert!(lbm.without_dedication > hmmer.without_dedication * 5.0);
        assert!(lbm.with_dedication > hmmer.with_dedication * 5.0);
        // And the simulator estimate should stay in the same ballpark as the
        // dedicated measurement for the polluter.
        assert!(
            lbm.relative_difference_percent() < 75.0,
            "simulator vs dedicated differ by {:.1}%",
            lbm.relative_difference_percent()
        );
        assert!(result.to_table().contains("lbm"));
    }
}
