//! Fig. 4 — Equation 1 vs raw LLCM: which indicator ranks aggressiveness
//! better?
//!
//! Section 4.2 measures, for ten applications, (a) the *real* aggressiveness
//! of each application (the average degradation it inflicts on every other
//! application when co-run), (b) its raw LLC-miss indicator (misses per
//! instruction window) measured alone, and (c) its Equation-1 indicator
//! (misses per millisecond) measured alone. Kendall's tau against the real
//! aggressiveness ordering decides which indicator is the better `llc_cap`
//! estimator — the paper (and this reproduction) finds Equation 1 wins.

use crate::config::ExperimentConfig;
use crate::harness::{
    measurement_of, spec_workload, warmup_and_measure, Measurement, DISRUPTOR_CORE, SENSITIVE_CORE,
};
use kyoto_core::equation::{llcm_indicator, PAPER_SAMPLING_WINDOW_INSTRUCTIONS};
use kyoto_hypervisor::vm::VmConfig;
use kyoto_hypervisor::xen_hypervisor;
use kyoto_metrics::degradation::degradation_percent;
use kyoto_metrics::kendall::{kendall_tau, rank_by_score};
use kyoto_workloads::spec::SpecApp;
use std::collections::HashMap;

/// One row of Fig. 4 (one application).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Row {
    /// The application.
    pub app: SpecApp,
    /// Average degradation (%) it inflicts on the other applications.
    pub avg_aggressivity: f64,
    /// Raw-LLCM indicator measured alone (misses per 100M instructions).
    pub llcm: f64,
    /// Equation-1 indicator measured alone (misses per ms).
    pub equation1: f64,
}

/// The Fig. 4 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// One row per application, in descending real-aggressiveness order.
    pub rows: Vec<Fig4Row>,
    /// Applications ordered by measured aggressiveness (the paper's `o1`).
    pub aggressiveness_order: Vec<SpecApp>,
    /// Applications ordered by raw LLCM (the paper's `o2`).
    pub llcm_order: Vec<SpecApp>,
    /// Applications ordered by Equation 1 (the paper's `o3`).
    pub equation1_order: Vec<SpecApp>,
    /// Kendall's tau between the LLCM order and the aggressiveness order.
    pub tau_llcm: f64,
    /// Kendall's tau between the Equation-1 order and the aggressiveness order.
    pub tau_equation1: f64,
}

impl Fig4Result {
    /// Whether Equation 1 ranks closer to reality than raw LLCM — the claim
    /// of Section 4.2.
    pub fn equation1_wins(&self) -> bool {
        self.tau_equation1 >= self.tau_llcm
    }

    /// Renders the dataset.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "Fig. 4: aggressiveness vs indicators (apps sorted by measured aggressiveness)\n  app        avg.aggr.%      LLCM   equation1\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<9} {:10.1} {:10.0} {:10.0}\n",
                row.app.name(),
                row.avg_aggressivity,
                row.llcm,
                row.equation1
            ));
        }
        out.push_str(&format!(
            "  Kendall tau vs aggressiveness: equation1 = {:.3}, LLCM = {:.3}\n",
            self.tau_equation1, self.tau_llcm
        ));
        out
    }
}

struct SoloProfile {
    ipc: f64,
    llcm: f64,
    equation1: f64,
}

fn solo_profile(config: &ExperimentConfig, app: SpecApp) -> SoloProfile {
    let mut hv = xen_hypervisor(config.machine(), config.hypervisor_config());
    hv.add_vm_with(
        VmConfig::new("solo").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, app, 1),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    let m = measurement_of(&measurements, "solo");
    SoloProfile {
        ipc: m.ipc(),
        llcm: llcm_indicator(
            m.pmc_delta.llc_misses,
            m.pmc_delta.instructions,
            PAPER_SAMPLING_WINDOW_INSTRUCTIONS,
        ),
        equation1: m.llc_cap_act(),
    }
}

fn corun(config: &ExperimentConfig, a: SpecApp, b: SpecApp) -> (Measurement, Measurement) {
    let mut hv = xen_hypervisor(config.machine(), config.hypervisor_config());
    hv.add_vm_with(
        VmConfig::new("a").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, a, 1),
    )
    .expect("valid VM");
    hv.add_vm_with(
        VmConfig::new("b").pinned_to(vec![DISRUPTOR_CORE]),
        spec_workload(config, b, 2),
    )
    .expect("valid VM");
    let measurements = warmup_and_measure(&mut hv, config);
    (
        measurement_of(&measurements, "a").clone(),
        measurement_of(&measurements, "b").clone(),
    )
}

/// Runs Fig. 4 restricted to `apps` (the paper uses
/// [`SpecApp::FIG4_APPS`]; tests use a subset to stay fast).
pub fn run_with_apps(config: &ExperimentConfig, apps: &[SpecApp]) -> Fig4Result {
    let solos: HashMap<SpecApp, SoloProfile> = apps
        .iter()
        .map(|&app| (app, solo_profile(config, app)))
        .collect();

    // Pairwise co-runs: app i on the sensitive core, app j on the disruptor
    // core; each run measures the degradation inflicted in both directions.
    let mut inflicted: HashMap<SpecApp, Vec<f64>> = HashMap::new();
    for i in 0..apps.len() {
        for j in (i + 1)..apps.len() {
            let (a, b) = (apps[i], apps[j]);
            let (ma, mb) = corun(config, a, b);
            let deg_of_a = degradation_percent(solos[&a].ipc, ma.ipc());
            let deg_of_b = degradation_percent(solos[&b].ipc, mb.ipc());
            // b inflicted deg_of_a on a, and vice versa.
            inflicted.entry(b).or_default().push(deg_of_a);
            inflicted.entry(a).or_default().push(deg_of_b);
        }
    }

    let mut rows: Vec<Fig4Row> = apps
        .iter()
        .map(|&app| {
            let caused = inflicted.get(&app).cloned().unwrap_or_default();
            let avg = if caused.is_empty() {
                0.0
            } else {
                caused.iter().sum::<f64>() / caused.len() as f64
            };
            Fig4Row {
                app,
                avg_aggressivity: avg,
                llcm: solos[&app].llcm,
                equation1: solos[&app].equation1,
            }
        })
        .collect();

    let aggressiveness_order = rank_by_score(
        &rows
            .iter()
            .map(|r| (r.app, r.avg_aggressivity))
            .collect::<Vec<_>>(),
    );
    let llcm_order = rank_by_score(&rows.iter().map(|r| (r.app, r.llcm)).collect::<Vec<_>>());
    let equation1_order = rank_by_score(
        &rows
            .iter()
            .map(|r| (r.app, r.equation1))
            .collect::<Vec<_>>(),
    );
    let tau_llcm = kendall_tau(&llcm_order, &aggressiveness_order);
    let tau_equation1 = kendall_tau(&equation1_order, &aggressiveness_order);

    rows.sort_by(|a, b| {
        b.avg_aggressivity
            .partial_cmp(&a.avg_aggressivity)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    Fig4Result {
        rows,
        aggressiveness_order,
        llcm_order,
        equation1_order,
        tau_llcm,
        tau_equation1,
    }
}

/// Runs the full Fig. 4 campaign with the paper's ten applications.
pub fn run(config: &ExperimentConfig) -> Fig4Result {
    run_with_apps(config, &SpecApp::FIG4_APPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 5,
            warmup_ticks: 2,
            measure_ticks: 5,
            parallel_engine: false,
        }
    }

    #[test]
    fn polluters_are_ranked_more_aggressive_than_cpu_bound_apps() {
        let config = tiny_config();
        let result = run_with_apps(&config, &[SpecApp::Lbm, SpecApp::Gcc, SpecApp::Bzip]);
        let lbm = result.rows.iter().find(|r| r.app == SpecApp::Lbm).unwrap();
        let bzip = result.rows.iter().find(|r| r.app == SpecApp::Bzip).unwrap();
        assert!(
            lbm.avg_aggressivity > bzip.avg_aggressivity,
            "lbm ({:.1}%) must be more aggressive than bzip ({:.1}%)",
            lbm.avg_aggressivity,
            bzip.avg_aggressivity
        );
        assert!(lbm.equation1 > bzip.equation1);
    }

    #[test]
    fn result_orders_contain_every_app() {
        let config = tiny_config();
        let apps = [SpecApp::Lbm, SpecApp::Gcc, SpecApp::Bzip];
        let result = run_with_apps(&config, &apps);
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.aggressiveness_order.len(), 3);
        assert_eq!(result.llcm_order.len(), 3);
        assert_eq!(result.equation1_order.len(), 3);
        assert!(result.to_table().contains("Kendall"));
        assert!(result.tau_equation1 >= -1.0 && result.tau_equation1 <= 1.0);
    }
}
