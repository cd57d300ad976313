//! Fig. 2 — Impact of LLC contention explained with LLC misses.
//!
//! The paper zooms in on the first six time slices of `v2rep` (the C2
//! pointer-chase VM, the most penalised type) and plots its LLC misses per
//! tick when running alone, in alternation with, in parallel with, and in
//! both modes with a disruptive VM.
//!
//! Expected shape: alone, misses only occur during the first slice (data
//! loading); alternation shows a zig-zag (the first tick of each slice
//! reloads the lines evicted by the disruptor during the previous slice);
//! parallel execution shows persistently high misses.

use crate::config::ExperimentConfig;
use crate::harness::{ExecutionMode, DISRUPTOR_CORE, SENSITIVE_CORE};
use kyoto_hypervisor::hypervisor::Hypervisor;
use kyoto_hypervisor::vm::{VcpuId, VmConfig};
use kyoto_hypervisor::xen_hypervisor;
use kyoto_metrics::series::TimeSeries;
use kyoto_workloads::category::Category;
use kyoto_workloads::micro::{disruptive, representative};

/// The Fig. 2 dataset: one LLC-miss time series per execution mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// Tick duration in milliseconds (the x axis unit).
    pub tick_ms: u64,
    /// One series per mode, in the order of [`Fig2Result::MODES`].
    pub series: Vec<TimeSeries>,
}

impl Fig2Result {
    /// The modes plotted, in order.
    pub const MODES: [ExecutionMode; 4] = [
        ExecutionMode::Alone,
        ExecutionMode::Alternative,
        ExecutionMode::Parallel,
        ExecutionMode::Combined,
    ];

    /// The series for a given mode.
    pub fn series_for(&self, mode: ExecutionMode) -> Option<&TimeSeries> {
        let index = Self::MODES.iter().position(|&m| m == mode)?;
        self.series.get(index)
    }

    /// Renders every series as gnuplot-style blocks.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "Fig. 2: v2rep LLC misses per tick (1 tick = {} ms, 1 slice = 3 ticks)\n",
            self.tick_ms
        );
        for series in &self.series {
            out.push_str(&series.to_table());
            out.push('\n');
        }
        out
    }
}

fn trace_mode(config: &ExperimentConfig, mode: ExecutionMode, ticks: u64) -> TimeSeries {
    let machine = config.machine();
    let machine_config = machine.config().clone();
    let hv_config = config.hypervisor_config().with_history();
    let mut hv = xen_hypervisor(machine, hv_config);
    let rep_vm = hv
        .add_vm_with(
            VmConfig::new("v2rep").pinned_to(vec![SENSITIVE_CORE]),
            representative(Category::C2, &machine_config, config.seed),
        )
        .expect("valid VM");
    match mode {
        ExecutionMode::Alone => {}
        ExecutionMode::Alternative => {
            hv.add_vm_with(
                VmConfig::new("v2dis").pinned_to(vec![SENSITIVE_CORE]),
                Box::new(disruptive(Category::C2, &machine_config, config.seed + 1)),
            )
            .expect("valid VM");
        }
        ExecutionMode::Parallel => {
            hv.add_vm_with(
                VmConfig::new("v2dis").pinned_to(vec![DISRUPTOR_CORE]),
                Box::new(disruptive(Category::C2, &machine_config, config.seed + 1)),
            )
            .expect("valid VM");
        }
        ExecutionMode::Combined => {
            hv.add_vm_with(
                VmConfig::new("v2dis-alt").pinned_to(vec![SENSITIVE_CORE]),
                Box::new(disruptive(Category::C2, &machine_config, config.seed + 1)),
            )
            .expect("valid VM");
            hv.add_vm_with(
                VmConfig::new("v2dis-par").pinned_to(vec![DISRUPTOR_CORE]),
                Box::new(disruptive(Category::C2, &machine_config, config.seed + 2)),
            )
            .expect("valid VM");
        }
    }
    hv.run_ticks(ticks);
    collect_series(&hv, rep_vm, mode, config.hypervisor_config().tick_ms)
}

fn collect_series<S: kyoto_hypervisor::scheduler::Scheduler>(
    hv: &Hypervisor<S>,
    rep_vm: kyoto_hypervisor::vm::VmId,
    mode: ExecutionMode,
    tick_ms: u64,
) -> TimeSeries {
    let vcpu = VcpuId::new(rep_vm, 0);
    let mut series = TimeSeries::new(mode.label());
    for sample in hv.history_of(vcpu) {
        let time_ms = (sample.tick * tick_ms + tick_ms) as f64;
        series.push(time_ms, sample.pmc_delta.llc_misses as f64);
    }
    series
}

/// Runs the Fig. 2 trace campaign over the first `slices` time slices
/// (the paper plots six).
pub fn run_slices(config: &ExperimentConfig, slices: u64) -> Fig2Result {
    let hv_config = config.hypervisor_config();
    let ticks = slices * u64::from(hv_config.ticks_per_slice);
    let series = Fig2Result::MODES
        .iter()
        .map(|&mode| trace_mode(config, mode, ticks))
        .collect();
    Fig2Result {
        tick_ms: hv_config.tick_ms,
        series,
    }
}

/// Runs the Fig. 2 trace campaign with the paper's six slices.
pub fn run(config: &ExperimentConfig) -> Fig2Result {
    run_slices(config, 6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 3,
            warmup_ticks: 0,
            measure_ticks: 0,
            parallel_engine: false,
        }
    }

    #[test]
    fn alone_traces_show_only_cold_misses() {
        let result = run_slices(&tiny_config(), 3);
        let alone = result.series_for(ExecutionMode::Alone).unwrap();
        assert!(!alone.is_empty());
        let values = alone.values();
        let first = values[0];
        let tail_max = values.iter().skip(3).fold(0.0_f64, |a, &b| a.max(b));
        assert!(
            first > tail_max * 2.0 || tail_max == 0.0,
            "after warm-up a lone v2rep should stop missing (first={first}, tail_max={tail_max})"
        );
    }

    #[test]
    fn parallel_traces_show_sustained_misses() {
        let result = run_slices(&tiny_config(), 3);
        let alone = result.series_for(ExecutionMode::Alone).unwrap();
        let parallel = result.series_for(ExecutionMode::Parallel).unwrap();
        // Compare steady-state (skip the loading slice).
        let steady = |s: &TimeSeries| {
            let v = s.values();
            v.iter().skip(3).sum::<f64>() / v.len().saturating_sub(3).max(1) as f64
        };
        assert!(
            steady(parallel) > steady(alone) * 2.0 + 1.0,
            "parallel contention must keep producing misses (alone={}, parallel={})",
            steady(alone),
            steady(parallel)
        );
    }

    #[test]
    fn all_four_modes_are_traced() {
        let result = run_slices(&tiny_config(), 1);
        assert_eq!(result.series.len(), 4);
        for mode in Fig2Result::MODES {
            assert!(result.series_for(mode).is_some());
        }
        assert!(result.to_table().contains("alone"));
    }
}
