//! Interactive scenario — sleep-mostly latency-sensitive VMs consolidated
//! with batch polluters under KS4Xen.
//!
//! The paper's evaluation keeps every VM CPU-hungry; real consolidation also
//! hosts interactive services that sleep most of the time (WFI) and run
//! short bursts when a request arrives. This scenario pairs two such
//! services with two batch VMs on shared cores and reports, per VM:
//!
//! * the **blocked fraction** (share of ticks spent asleep),
//! * the **wake-to-completion latency** (ticks between a wake event and the
//!   burst actually running — the scheduling delay an end user feels),
//! * the **pollution estimate and punishments**, showing that KS4Xen keeps
//!   punishing the batch polluter that overruns its permit while the
//!   sleeping services — whose Equation-1 estimate stays low because blocked
//!   vCPUs consume no CPU time — are never punished.

use crate::config::ExperimentConfig;
use crate::harness::vm_seed;
use kyoto_core::ks4::ks4xen_hypervisor;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::hypervisor::TickSample;
use kyoto_hypervisor::lifecycle::WakeSource;
use kyoto_hypervisor::vm::{VcpuId, VmConfig};
use kyoto_sim::topology::CoreId;
use kyoto_workloads::interactive::Interactive;
use kyoto_workloads::spec::{SpecApp, SpecWorkload};

/// Every interactive VM is woken by a periodic timer with this period.
pub const WAKE_PERIOD_TICKS: u64 = 4;

/// Ops granted per wake — below the engine's fetch chunk, so each burst
/// completes within the first scheduled tick after the wake.
const BURST_OPS: u32 = 48;

/// One VM of the interactive scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractiveRow {
    /// VM name (`svc-*` are interactive, `batch-*` are always-runnable).
    pub vm: String,
    /// Fraction of ticks the VM spent Blocked.
    pub blocked_fraction: f64,
    /// Fraction of ticks the VM was scheduled.
    pub cpu_share: f64,
    /// KS4Xen's smoothed Equation-1 pollution estimate (misses/ms).
    pub pollution_rate: f64,
    /// Punishments inflicted on the VM over the run.
    pub punishments: u64,
    /// Mean ticks between a wake event and the burst running
    /// (`None` for batch VMs, which never sleep).
    pub mean_wake_latency_ticks: Option<f64>,
}

/// The interactive scenario dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractiveResult {
    /// The wake-timer period shared by the interactive VMs.
    pub wake_period_ticks: u64,
    /// One row per VM, in creation order.
    pub rows: Vec<InteractiveRow>,
}

impl InteractiveResult {
    /// The row of one VM.
    pub fn row(&self, vm: &str) -> Option<&InteractiveRow> {
        self.rows.iter().find(|r| r.vm == vm)
    }

    /// Renders the scenario table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "Interactive scenario: sleep-mostly services vs batch polluters \
             (wake period {} ticks)\n",
            self.wake_period_ticks
        );
        out.push_str("  vm            blocked  cpu-share  pollution  punished  wake-latency\n");
        for row in &self.rows {
            let latency = row
                .mean_wake_latency_ticks
                .map(|l| format!("{l:.2} ticks"))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "  {:<13} {:6.1}%  {:8.1}%  {:9.1}  {:8}  {}\n",
                row.vm,
                row.blocked_fraction * 100.0,
                row.cpu_share * 100.0,
                row.pollution_rate,
                row.punishments,
                latency
            ));
        }
        out
    }
}

/// Mean ticks from each wake event to the next tick the vCPU actually ran.
/// Wakes that never got scheduled before the run ended are dropped.
fn mean_wake_latency(
    history: &[TickSample],
    vcpu: VcpuId,
    period: u64,
    total_ticks: u64,
) -> Option<f64> {
    let scheduled: Vec<u64> = history
        .iter()
        .filter(|s| s.vcpu == vcpu && s.scheduled)
        .map(|s| s.tick)
        .collect();
    // The vCPU starts Ready (tick 0 behaves like a wake); afterwards the
    // periodic timer wakes it at every multiple of the period.
    let wakes = (0..total_ticks).filter(|&t| t == 0 || t.is_multiple_of(period));
    let latencies: Vec<f64> = wakes
        .filter_map(|w| scheduled.iter().find(|&&s| s >= w).map(|&s| (s - w) as f64))
        .collect();
    if latencies.is_empty() {
        None
    } else {
        Some(latencies.iter().sum::<f64>() / latencies.len() as f64)
    }
}

/// Runs the interactive scenario.
pub fn run(config: &ExperimentConfig) -> InteractiveResult {
    let hv_config = config.hypervisor_config().with_history();
    let mut hv = ks4xen_hypervisor(config.machine(), hv_config, MonitoringStrategy::DirectPmc);

    // Two interactive services, each sharing a core with a batch VM. The
    // generous permit mirrors what a latency-sensitive tenant would book;
    // sleeping keeps their measured pollution far below it anyway.
    let generous = config.scaled_llc_cap(250_000.0);
    let tight = config.scaled_llc_cap(50_000.0);
    let interactive = |app: SpecApp, salt: u64| {
        Box::new(Interactive::new(
            SpecWorkload::new(app, config.scale, vm_seed(config, salt)),
            BURST_OPS,
        ))
    };
    let wake = |salt: u64| {
        WakeSource::new(config.seed.wrapping_add(salt)).with_timer_period(WAKE_PERIOD_TICKS)
    };
    hv.add_vm_with(
        VmConfig::new("svc-gcc")
            .pinned_to(vec![CoreId(0)])
            .with_llc_cap(generous)
            .with_wake_source(wake(1)),
        interactive(SpecApp::Gcc, 1),
    )
    .expect("valid VM");
    hv.add_vm_with(
        VmConfig::new("batch-lbm")
            .pinned_to(vec![CoreId(0)])
            .with_llc_cap(tight),
        Box::new(SpecWorkload::new(
            SpecApp::Lbm,
            config.scale,
            vm_seed(config, 2),
        )),
    )
    .expect("valid VM");
    hv.add_vm_with(
        VmConfig::new("svc-omnetpp")
            .pinned_to(vec![CoreId(1)])
            .with_llc_cap(generous)
            .with_wake_source(wake(3)),
        interactive(SpecApp::Omnetpp, 3),
    )
    .expect("valid VM");
    hv.add_vm_with(
        VmConfig::new("batch-mcf")
            .pinned_to(vec![CoreId(1)])
            .with_llc_cap(generous),
        Box::new(SpecWorkload::new(
            SpecApp::Mcf,
            config.scale,
            vm_seed(config, 4),
        )),
    )
    .expect("valid VM");

    let total_ticks = config.total_ticks();
    hv.run_ticks(total_ticks);

    let rows = hv
        .vm_ids()
        .into_iter()
        .map(|vm| {
            let report = hv.report(vm).expect("resident VM");
            let vcpu = VcpuId::new(vm, 0);
            let pollution_rate = hv.scheduler().measured_llc_cap(vcpu).unwrap_or(0.0);
            let mean_latency = if report.ticks_blocked > 0 {
                mean_wake_latency(hv.history(), vcpu, WAKE_PERIOD_TICKS, total_ticks)
            } else {
                None
            };
            InteractiveRow {
                vm: report.name.clone(),
                blocked_fraction: report.blocked_fraction(),
                cpu_share: report.cpu_share(),
                pollution_rate,
                punishments: report.punishments,
                mean_wake_latency_ticks: mean_latency,
            }
        })
        .collect();
    InteractiveResult {
        wake_period_ticks: WAKE_PERIOD_TICKS,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 17,
            warmup_ticks: 4,
            measure_ticks: 20,
            parallel_engine: false,
        }
    }

    #[test]
    fn services_sleep_and_batch_vms_do_not() {
        let result = run(&tiny());
        for svc in ["svc-gcc", "svc-omnetpp"] {
            let row = result.row(svc).unwrap();
            assert!(
                row.blocked_fraction > 0.5,
                "{svc} should sleep most of the time, got {}",
                row.blocked_fraction
            );
            assert!(row.mean_wake_latency_ticks.is_some());
        }
        for batch in ["batch-lbm", "batch-mcf"] {
            let row = result.row(batch).unwrap();
            assert_eq!(row.blocked_fraction, 0.0, "{batch} never blocks");
            assert_eq!(row.mean_wake_latency_ticks, None);
        }
    }

    #[test]
    fn sleeping_services_are_never_punished_but_the_tight_batch_vm_is() {
        let result = run(&tiny());
        let lbm = result.row("batch-lbm").unwrap();
        assert!(
            lbm.punishments > 0,
            "lbm overruns its tight permit and must be punished"
        );
        for svc in ["svc-gcc", "svc-omnetpp"] {
            let row = result.row(svc).unwrap();
            assert_eq!(row.punishments, 0, "{svc} sleeps within its permit");
            assert!(
                row.pollution_rate < lbm.pollution_rate,
                "a sleeping service must pollute less than the batch polluter"
            );
        }
    }

    #[test]
    fn wakes_are_served_within_a_period() {
        let result = run(&tiny());
        for svc in ["svc-gcc", "svc-omnetpp"] {
            let latency = result.row(svc).unwrap().mean_wake_latency_ticks.unwrap();
            assert!(
                latency < WAKE_PERIOD_TICKS as f64,
                "{svc} mean wake latency {latency} should stay below the period"
            );
        }
    }

    #[test]
    fn the_scenario_is_deterministic_and_renders() {
        let config = tiny();
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a, b);
        let table = a.to_table();
        assert!(table.contains("svc-gcc"));
        assert!(table.contains("batch-lbm"));
        assert!(table.contains("wake period 4 ticks"));
    }
}
