//! Fig. 1 — LLC contention could impact some applications.
//!
//! Section 2.2 classifies VMs into three categories by working-set size (C1
//! fits the ILC, C2 fits the LLC, C3 exceeds it) and measures the
//! performance degradation of a representative VM of each category when
//! co-located with a disruptive VM of each category, under three execution
//! modes (alternative on the same core, parallel on different cores, and
//! both combined).
//!
//! Expected shape (paper): C1 representatives are unaffected by anything;
//! C2/C3 representatives suffer badly from C2/C3 disruptors; parallel
//! execution hurts much more (up to ~70 %) than alternative execution
//! (~13 %).

use crate::config::ExperimentConfig;
use crate::harness::{
    measurement_of, warmup_and_measure, ExecutionMode, DISRUPTOR_CORE, SENSITIVE_CORE,
};
use kyoto_hypervisor::vm::VmConfig;
use kyoto_hypervisor::xen_hypervisor;
use kyoto_metrics::degradation::degradation_percent;
use kyoto_workloads::category::Category;
use kyoto_workloads::micro::{disruptive, representative};

/// One bar of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Row {
    /// Category of the representative (measured) VM.
    pub representative: Category,
    /// Category of the disruptive VM.
    pub disruptor: Category,
    /// Co-location mode.
    pub mode: ExecutionMode,
    /// Performance degradation (in %) of the representative's IPC relative
    /// to running alone.
    pub degradation_percent: f64,
}

/// The full Fig. 1 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Result {
    /// Solo IPC of each representative VM.
    pub solo_ipc: Vec<(Category, f64)>,
    /// One row per (representative, disruptor, mode) combination.
    pub rows: Vec<Fig1Row>,
}

impl Fig1Result {
    /// The row for a given combination.
    pub fn row(&self, rep: Category, dis: Category, mode: ExecutionMode) -> Option<&Fig1Row> {
        self.rows
            .iter()
            .find(|r| r.representative == rep && r.disruptor == dis && r.mode == mode)
    }

    /// Renders the dataset the way the paper's three sub-plots present it.
    pub fn to_table(&self) -> String {
        let mut out =
            String::from("Fig. 1: % of perf. degradation of v_i_rep co-located with v_j_dis\n");
        for mode in ExecutionMode::CONTENDED {
            out.push_str(&format!("  [{}]\n", mode.label()));
            out.push_str("    rep\\dis      C1       C2       C3\n");
            for rep in Category::ALL {
                let mut line = format!("    v{}rep   ", rep.index());
                for dis in Category::ALL {
                    let value = self
                        .row(rep, dis, mode)
                        .map(|r| r.degradation_percent)
                        .unwrap_or(f64::NAN);
                    line.push_str(&format!(" {value:7.1}%"));
                }
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

fn solo_ipc(config: &ExperimentConfig, category: Category) -> f64 {
    let machine = config.machine();
    let machine_config = machine.config().clone();
    let mut hv = xen_hypervisor(machine, config.hypervisor_config());
    hv.add_vm_with(
        VmConfig::new("rep").pinned_to(vec![SENSITIVE_CORE]),
        representative(category, &machine_config, config.seed),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "rep").ipc()
}

fn contended_ipc(
    config: &ExperimentConfig,
    rep: Category,
    dis: Category,
    mode: ExecutionMode,
) -> f64 {
    let machine = config.machine();
    let machine_config = machine.config().clone();
    let mut hv = xen_hypervisor(machine, config.hypervisor_config());
    hv.add_vm_with(
        VmConfig::new("rep").pinned_to(vec![SENSITIVE_CORE]),
        representative(rep, &machine_config, config.seed),
    )
    .expect("valid VM");
    match mode {
        ExecutionMode::Alone => {}
        ExecutionMode::Alternative => {
            hv.add_vm_with(
                VmConfig::new("dis").pinned_to(vec![SENSITIVE_CORE]),
                Box::new(disruptive(dis, &machine_config, config.seed + 1)),
            )
            .expect("valid VM");
        }
        ExecutionMode::Parallel => {
            hv.add_vm_with(
                VmConfig::new("dis").pinned_to(vec![DISRUPTOR_CORE]),
                Box::new(disruptive(dis, &machine_config, config.seed + 1)),
            )
            .expect("valid VM");
        }
        ExecutionMode::Combined => {
            hv.add_vm_with(
                VmConfig::new("dis-alt").pinned_to(vec![SENSITIVE_CORE]),
                Box::new(disruptive(dis, &machine_config, config.seed + 1)),
            )
            .expect("valid VM");
            hv.add_vm_with(
                VmConfig::new("dis-par").pinned_to(vec![DISRUPTOR_CORE]),
                Box::new(disruptive(dis, &machine_config, config.seed + 2)),
            )
            .expect("valid VM");
        }
    }
    let measurements = warmup_and_measure(&mut hv, config);
    measurement_of(&measurements, "rep").ipc()
}

/// Runs the full Fig. 1 campaign.
pub fn run(config: &ExperimentConfig) -> Fig1Result {
    let solo: Vec<(Category, f64)> = Category::ALL
        .iter()
        .map(|&cat| (cat, solo_ipc(config, cat)))
        .collect();
    let mut rows = Vec::new();
    for &(rep, solo_ipc) in &solo {
        for dis in Category::ALL {
            for mode in ExecutionMode::CONTENDED {
                let ipc = contended_ipc(config, rep, dis, mode);
                rows.push(Fig1Row {
                    representative: rep,
                    disruptor: dis,
                    mode,
                    degradation_percent: degradation_percent(solo_ipc, ipc),
                });
            }
        }
    }
    Fig1Result {
        solo_ipc: solo,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 7,
            warmup_ticks: 2,
            measure_ticks: 4,
            parallel_engine: false,
        }
    }

    #[test]
    fn solo_runs_produce_positive_ipc() {
        let config = tiny_config();
        for category in Category::ALL {
            assert!(solo_ipc(&config, category) > 0.0, "{category}");
        }
    }

    #[test]
    fn c2_parallel_contention_hurts_more_than_c1_disruptors() {
        let config = tiny_config();
        let solo = solo_ipc(&config, Category::C2);
        let vs_c1 = contended_ipc(&config, Category::C2, Category::C1, ExecutionMode::Parallel);
        let vs_c3 = contended_ipc(&config, Category::C2, Category::C3, ExecutionMode::Parallel);
        let deg_c1 = degradation_percent(solo, vs_c1);
        let deg_c3 = degradation_percent(solo, vs_c3);
        assert!(
            deg_c3 > deg_c1,
            "an LLC-thrashing disruptor must hurt more than an ILC-only one ({deg_c3:.1}% vs {deg_c1:.1}%)"
        );
    }

    #[test]
    fn table_rendering_contains_all_modes() {
        let result = Fig1Result {
            solo_ipc: vec![(Category::C1, 1.0)],
            rows: vec![Fig1Row {
                representative: Category::C1,
                disruptor: Category::C2,
                mode: ExecutionMode::Parallel,
                degradation_percent: 12.5,
            }],
        };
        let table = result.to_table();
        assert!(table.contains("alternative"));
        assert!(table.contains("parallel"));
        assert!(table.contains("12.5"));
        assert!(result
            .row(Category::C1, Category::C2, ExecutionMode::Parallel)
            .is_some());
        assert!(result
            .row(Category::C3, Category::C2, ExecutionMode::Parallel)
            .is_none());
    }
}
