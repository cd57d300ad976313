//! Fig. 5 — KS4Xen minimises LLC contention, thus avoids performance
//! variations.
//!
//! The sensitive VM `250k·vsen1` (gcc with a 250k pollution permit) runs in
//! parallel with each disruptive VM `250k·vdis_i` (lbm, blockie, mcf) under
//! KS4Xen. The paper reports three things:
//!
//! * the normalised performance of `vsen1` stays close to 1.0 whatever the
//!   aggressiveness of the co-located VM (top-left plot);
//! * the disruptive VMs receive far more punishments than the sensitive VM
//!   (top-right plot);
//! * the per-tick trace of `vdis1` shows KS4Xen depriving it of the
//!   processor whenever its measured pollution exceeds the booked permit,
//!   unlike XCS which lets it run continuously (bottom plots).

use crate::config::ExperimentConfig;
use crate::harness::{
    calibrate_permits, measurement_of, spec_workload, warmup_and_measure, DISRUPTOR_CORE,
    SENSITIVE_CORE,
};
use kyoto_core::ks4::ks4xen_hypervisor;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::vm::{VcpuId, VmConfig};
use kyoto_hypervisor::xen_hypervisor;
use kyoto_metrics::degradation::normalized_performance;
use kyoto_metrics::series::TimeSeries;
use kyoto_workloads::spec::SpecApp;

/// The Fig. 5 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// Paper-scale permit booked by every VM in the scenario (250k).
    pub booked_llc_cap_paper: f64,
    /// Normalised performance of `vsen1` against each disruptor, under KS4Xen.
    pub normalized_perf: Vec<(SpecApp, f64)>,
    /// Punishment counts per disruptor scenario: (disruptor, vsen1
    /// punishments, disruptor punishments).
    pub punishments: Vec<(SpecApp, u64, u64)>,
    /// Per-tick CPU occupancy (1 = running) of `vdis1` under plain XCS.
    pub cpu_trace_xcs: TimeSeries,
    /// Per-tick CPU occupancy of `vdis1` under KS4Xen.
    pub cpu_trace_ks4xen: TimeSeries,
    /// Per-tick pollution quota of `vdis1` under KS4Xen (misses, may go
    /// negative while punished) — the paper's bottom "1k llc_cap" trace.
    pub quota_trace_ks4xen: TimeSeries,
}

impl Fig5Result {
    /// Renders the dataset.
    pub fn to_table(&self) -> String {
        let mut out = String::from("Fig. 5: KS4Xen effectiveness (vsen1 = gcc, permits = 250k)\n");
        out.push_str("  normalised vsen1 performance:\n");
        for (app, perf) in &self.normalized_perf {
            out.push_str(&format!("    vs {:<8} {:.3}\n", app.name(), perf));
        }
        out.push_str("  punishments (vsen1 / vdis):\n");
        for (app, sen, dis) in &self.punishments {
            out.push_str(&format!(
                "    vs {:<8} {:>6} / {:>6}\n",
                app.name(),
                sen,
                dis
            ));
        }
        out.push_str(&self.cpu_trace_xcs.to_table());
        out.push_str(&self.cpu_trace_ks4xen.to_table());
        out.push_str(&self.quota_trace_ks4xen.to_table());
        out
    }
}

/// Throughput of `vsen1` (gcc) running alone under KS4Xen with its permit —
/// the normalisation baseline.
fn solo_throughput(config: &ExperimentConfig, permit: f64) -> f64 {
    let mut hv = ks4xen_hypervisor(
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
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "vsen1").instructions_per_tick()
}

struct CorunOutcome {
    normalized: f64,
    sen_punishments: u64,
    dis_punishments: u64,
}

fn corun_under_ks4xen(
    config: &ExperimentConfig,
    disruptor: SpecApp,
    permit: f64,
    solo: f64,
) -> CorunOutcome {
    let mut hv = ks4xen_hypervisor(
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
    hv.add_vm_with(
        VmConfig::new("vdis")
            .pinned_to(vec![DISRUPTOR_CORE])
            .with_llc_cap(permit),
        spec_workload(config, disruptor, 2),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    let sen = measurement_of(&measurements, "vsen1");
    let dis = measurement_of(&measurements, "vdis");
    CorunOutcome {
        normalized: normalized_performance(solo, sen.instructions_per_tick()),
        sen_punishments: sen.punishments,
        dis_punishments: dis.punishments,
    }
}

/// Traces `vdis1` (lbm) tick by tick under plain XCS: CPU occupancy only.
fn trace_xcs(config: &ExperimentConfig, ticks: u64, permit: f64) -> TimeSeries {
    let _ = permit;
    let hv_config = config.hypervisor_config().with_history();
    let mut hv = xen_hypervisor(config.machine(), hv_config);
    hv.add_vm_with(
        VmConfig::new("vsen1").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, SpecApp::Gcc, 1),
    )
    .expect("valid VM");
    let dis = hv
        .add_vm_with(
            VmConfig::new("vdis1").pinned_to(vec![DISRUPTOR_CORE]),
            spec_workload(config, SpecApp::Lbm, 2),
        )
        .expect("valid VM");
    hv.run_ticks(ticks);
    let mut series = TimeSeries::new("vdis1 CPU usage with XCS");
    for sample in hv.history_of(VcpuId::new(dis, 0)) {
        series.push(sample.tick as f64, if sample.scheduled { 1.0 } else { 0.0 });
    }
    series
}

/// Traces `vdis1` tick by tick under KS4Xen: CPU occupancy and pollution
/// quota.
fn trace_ks4xen(config: &ExperimentConfig, ticks: u64, permit: f64) -> (TimeSeries, TimeSeries) {
    let hv_config = config.hypervisor_config().with_history();
    let mut hv = ks4xen_hypervisor(
        config.machine(),
        hv_config,
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
    let dis = hv
        .add_vm_with(
            VmConfig::new("vdis1")
                .pinned_to(vec![DISRUPTOR_CORE])
                .with_llc_cap(permit),
            spec_workload(config, SpecApp::Lbm, 2),
        )
        .expect("valid VM");
    let dis_vcpu = VcpuId::new(dis, 0);
    let mut quota_series = TimeSeries::new("vdis1 pollution quota with KS4Xen");
    for tick in 0..ticks {
        hv.step_tick();
        let quota = hv
            .scheduler()
            .quota(dis_vcpu)
            .map(|q| q.quota())
            .unwrap_or(0.0);
        quota_series.push(tick as f64, quota);
    }
    let mut cpu_series = TimeSeries::new("vdis1 CPU usage with KS4Xen");
    for sample in hv.history_of(dis_vcpu) {
        cpu_series.push(sample.tick as f64, if sample.scheduled { 1.0 } else { 0.0 });
    }
    (cpu_series, quota_series)
}

/// Runs Fig. 5 with a custom trace length in ticks (the paper plots ~70).
pub fn run_with_trace_ticks(config: &ExperimentConfig, trace_ticks: u64) -> Fig5Result {
    let paper_permit = 250_000.0;
    let calibration = calibrate_permits(config);
    let permit = calibration.paper_kilo(250.0);
    let solo = solo_throughput(config, permit);
    let mut normalized_perf = Vec::new();
    let mut punishments = Vec::new();
    for dis in SpecApp::DISRUPTIVE_VMS {
        let outcome = corun_under_ks4xen(config, dis, permit, solo);
        normalized_perf.push((dis, outcome.normalized));
        punishments.push((dis, outcome.sen_punishments, outcome.dis_punishments));
    }
    let cpu_trace_xcs = trace_xcs(config, trace_ticks, permit);
    let (cpu_trace_ks4xen, quota_trace_ks4xen) = trace_ks4xen(config, trace_ticks, permit);
    Fig5Result {
        booked_llc_cap_paper: paper_permit,
        normalized_perf,
        punishments,
        cpu_trace_xcs,
        cpu_trace_ks4xen,
        quota_trace_ks4xen,
    }
}

/// Runs the full Fig. 5 campaign (70-tick traces, like the paper's plots).
pub fn run(config: &ExperimentConfig) -> Fig5Result {
    run_with_trace_ticks(config, 70)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 13,
            warmup_ticks: 3,
            measure_ticks: 9,
            parallel_engine: false,
        }
    }

    #[test]
    fn disruptors_get_punished_more_than_the_sensitive_vm() {
        let config = tiny_config();
        let permit = calibrate_permits(&config).paper_kilo(250.0);
        let solo = solo_throughput(&config, permit);
        let outcome = corun_under_ks4xen(&config, SpecApp::Lbm, permit, solo);
        assert!(
            outcome.dis_punishments >= outcome.sen_punishments,
            "lbm ({}) should be punished at least as much as gcc ({})",
            outcome.dis_punishments,
            outcome.sen_punishments
        );
        assert!(
            outcome.normalized > 0.5,
            "vsen1 should retain most of its performance"
        );
    }

    #[test]
    fn ks4xen_deprives_the_disruptor_of_cpu() {
        let config = tiny_config();
        let permit = calibrate_permits(&config).paper_kilo(250.0);
        let xcs = trace_xcs(&config, 12, permit);
        let (ks4, quota) = trace_ks4xen(&config, 12, permit);
        let xcs_share = xcs.mean();
        let ks4_share = ks4.mean();
        assert!(
            ks4_share < xcs_share,
            "KS4Xen must reduce the polluter's CPU share (XCS {xcs_share:.2} vs KS4Xen {ks4_share:.2})"
        );
        assert_eq!(quota.len(), 12);
    }

    #[test]
    fn table_rendering_mentions_every_disruptor() {
        let result = Fig5Result {
            booked_llc_cap_paper: 250_000.0,
            normalized_perf: vec![(SpecApp::Lbm, 0.98)],
            punishments: vec![(SpecApp::Lbm, 1, 20)],
            cpu_trace_xcs: TimeSeries::new("xcs"),
            cpu_trace_ks4xen: TimeSeries::new("ks4xen"),
            quota_trace_ks4xen: TimeSeries::new("quota"),
        };
        let table = result.to_table();
        assert!(table.contains("lbm"));
        assert!(table.contains("0.98"));
    }
}
