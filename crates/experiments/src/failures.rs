//! Failures scenario: the fleet control plane under injected faults.
//!
//! The fleet and churn scenarios assume every machine stays up; real
//! clouds do not get that luxury. This scenario drives the same
//! consolidating fleet through the `kyoto-cluster` fault injector — cell
//! crashes (whose VMs re-enter admission through the bounded-backoff
//! retry queue), transient cell slowdowns and mid-migration aborts — and
//! sweeps crash rate × policy × planner mode. Per sweep point it reports
//! the full fault ledger (crashes, recoveries, slowdowns, aborts by
//! stage, orphans, re-admissions, rejections), the mean re-admission
//! latency, and the degradation penalty each fault rate inflicts on the
//! sensitive VMs relative to the quiet (rate-zero) row of the same
//! policy and planner mode.
//!
//! Two claims ride on the table:
//!
//! * **conservation** — every run re-verifies the VM ledger after the
//!   final epoch: no VM is ever lost or duplicated, whatever the fault
//!   mix (the property tests prove it per epoch; this re-proves it at
//!   scenario scale);
//! * **graceful degradation** — fault injection costs throughput (the
//!   sensitive-VM penalty grows with the crash rate) but never kills the
//!   fleet: rejected orphans are accounted, not dropped.
//!
//! Determinism: the fault plan is a pure function of `(seed, epoch)` and
//! injection happens at epoch boundaries on the control plane, so the
//! rendered table is byte-identical whether cell epochs run serially or
//! one per scoped thread — the CI determinism gate diffs
//! `figures --scenario failures` across both modes.

use crate::config::ExperimentConfig;
use crate::fleet::{self, FleetSweep, SweepCalibration, FLEET_MIX};
use crate::harness::run_jobs;
use kyoto_cluster::cluster::{Cluster, ClusterConfig};
use kyoto_cluster::faults::{FaultPlan, FaultPlanConfig};
use kyoto_cluster::planner::{ConsolidationPolicy, PlannerConfig};
use kyoto_cluster::snapshot::CellId;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_metrics::degradation::degradation_percent;

/// The sweep a failures run covers: crash rate × policy × planner mode
/// under fixed abort and slowdown rates.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSweep {
    /// Cells (machines) in the fleet.
    pub cells: usize,
    /// VMs seeded per cell.
    pub vms_per_cell: usize,
    /// Expected cell crashes per epoch — the sweep axis. The first entry
    /// should be `0.0`: the quiet baseline every faulted row's
    /// degradation penalty is measured against (a rate-zero row still
    /// installs a fault plan, proving the machinery itself is free).
    pub crash_rates: Vec<f64>,
    /// Expected mid-migration aborts per epoch (zeroed on the quiet row).
    pub abort_rate: f64,
    /// Expected cell slowdowns per epoch (zeroed on the quiet row).
    pub slowdown_rate: f64,
    /// Consolidation policies to compare at every crash rate.
    pub policies: Vec<ConsolidationPolicy>,
    /// Planner modes to compare: `false` = fixed move budget, `true` =
    /// cost-aware gate.
    pub cost_modes: Vec<bool>,
    /// Control-loop epochs each run executes.
    pub epochs: u64,
    /// Scheduler ticks per epoch.
    pub epoch_ticks: u64,
    /// Epochs a crashed cell stays down before rebooting.
    pub down_epochs: u64,
    /// Re-admission attempts an orphan gets before rejection.
    pub max_retries: u32,
    /// Paper-scale pollution permit (in thousands) booked by every VM.
    pub permit_paper_kilo: f64,
    /// Seed of the fault plan.
    pub seed: u64,
}

impl FailureSweep {
    /// The standard failures sweep: a 4-cell fleet at 2 VMs per cell,
    /// crash rates 0 / 0.25 / 0.75 against 0.5 aborts and 0.25 slowdowns
    /// per epoch, every policy in both planner modes, eight 6-tick
    /// epochs, 2-epoch reboots, 4 retries.
    pub fn standard() -> Self {
        FailureSweep {
            cells: 4,
            vms_per_cell: 2,
            crash_rates: vec![0.0, 0.25, 0.75],
            abort_rate: 0.5,
            slowdown_rate: 0.25,
            policies: ConsolidationPolicy::ALL.to_vec(),
            cost_modes: vec![false, true],
            epochs: 8,
            epoch_ticks: 6,
            down_epochs: 2,
            max_retries: 4,
            permit_paper_kilo: 250.0,
            seed: 0xFA17,
        }
    }

    /// A small sweep for tests and the CI determinism gate: 3 cells,
    /// rates 0 and 0.75, two policies, both planner modes, six 4-tick
    /// epochs.
    pub fn small() -> Self {
        FailureSweep {
            cells: 3,
            vms_per_cell: 2,
            crash_rates: vec![0.0, 0.75],
            abort_rate: 0.5,
            slowdown_rate: 0.25,
            policies: vec![
                ConsolidationPolicy::LoadBalance,
                ConsolidationPolicy::PollutionAware,
            ],
            cost_modes: vec![false, true],
            epochs: 6,
            epoch_ticks: 4,
            down_epochs: 2,
            max_retries: 3,
            permit_paper_kilo: 250.0,
            seed: 0xFA17,
        }
    }

    /// The fault plan one sweep point installs. A crash rate of zero
    /// zeroes every rate — the quiet baseline row still carries a plan,
    /// so the comparison isolates the *faults*, not the machinery.
    fn plan(&self, crash_rate: f64) -> FaultPlan {
        let quiet = crash_rate == 0.0;
        FaultPlan::new(
            FaultPlanConfig::new(self.seed)
                .with_crash_rate(crash_rate)
                .with_abort_rate(if quiet { 0.0 } else { self.abort_rate })
                .with_slowdown_rate(if quiet { 0.0 } else { self.slowdown_rate })
                .with_down_epochs(self.down_epochs)
                .with_max_retries(self.max_retries),
        )
    }
}

/// One failures sweep point: a crash rate, a policy and a planner mode.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureCell {
    /// Expected cell crashes per epoch.
    pub crash_rate: f64,
    /// Consolidation policy driving the planner.
    pub policy: ConsolidationPolicy,
    /// Whether the cost-aware gate was on.
    pub cost_aware: bool,
    /// Cell crashes injected over the run.
    pub crashes: u64,
    /// Crashed cells that rebooted within the run.
    pub recoveries: u64,
    /// Transient slowdowns injected.
    pub slowdowns: u64,
    /// Migrations aborted mid-flight (all three stages).
    pub aborted_migrations: u64,
    /// VMs orphaned by crashes.
    pub orphaned: u64,
    /// Orphans re-admitted through the retry queue.
    pub readmitted: u64,
    /// Orphans rejected after exhausting their retries (accounted, not
    /// dropped: their reports are archived with the departed).
    pub rejected_orphans: u64,
    /// Retry attempts that failed and backed off.
    pub retry_backoffs: u64,
    /// Orphans still waiting in the retry queue when the run ended.
    pub queued_orphans: usize,
    /// Mean epochs an orphan waited before re-admission, when any VM was
    /// re-admitted.
    pub mean_readmission_epochs: Option<f64>,
    /// Completed live migrations.
    pub migrations: u64,
    /// VMs resident when the run ended.
    pub final_vms: usize,
    /// Mean degradation (percent vs solo) of every sensitive VM that
    /// ever ran, departed and rejected VMs included.
    pub sensitive_degradation_pct: f64,
    /// Mean degradation (percent vs solo) of every disruptive VM.
    pub disruptive_degradation_pct: f64,
    /// Sensitive-VM degradation penalty vs the quiet (rate-zero) row of
    /// the same policy and planner mode, in percentage points.
    pub sensitive_penalty_vs_quiet_pct: f64,
}

/// The failures dataset: the fleet under every (crash rate, policy,
/// planner mode) combination.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureResult {
    /// Cells in the fleet.
    pub cells: usize,
    /// VMs seeded across the fleet.
    pub initial_vms: usize,
    /// Expected mid-migration aborts per epoch on the faulted rows.
    pub abort_rate: f64,
    /// Expected cell slowdowns per epoch on the faulted rows.
    pub slowdown_rate: f64,
    /// Paper-scale permit booked by every VM.
    pub permit_paper_kilo: f64,
    /// Every sweep point: rate outer, policy middle, planner mode inner.
    pub rows: Vec<FailureCell>,
}

impl FailureResult {
    /// The sweep point for a crash rate / policy / planner mode, if
    /// present.
    pub fn row(
        &self,
        crash_rate: f64,
        policy: ConsolidationPolicy,
        cost_aware: bool,
    ) -> Option<&FailureCell> {
        self.rows.iter().find(|r| {
            (r.crash_rate - crash_rate).abs() < 1e-12
                && r.policy == policy
                && r.cost_aware == cost_aware
        })
    }

    /// Renders the failures table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "Fleet failures: crash-rate x policy x planner-mode sweep ({} cells, {} VMs, {:.2} aborts + {:.2} slowdowns/epoch when faulted, {}k permits)\n",
            self.cells,
            self.initial_vms,
            self.abort_rate,
            self.slowdown_rate,
            self.permit_paper_kilo,
        );
        for row in &self.rows {
            let latency = row
                .mean_readmission_epochs
                .map(|l| format!("{l:4.1}"))
                .unwrap_or_else(|| "   -".to_string());
            out.push_str(&format!(
                "  rate {:.2}  {:<17} {:<10}  crash {:>2} recov {:>2} slow {:>2} abort {:>2}  orphan {:>2} readmit {:>2} reject {:>2} queued {:>2} backoff {:>2}  latency {} ep  migr {:>2}  vms {:>2}  degradation sens {:5.1}% / dis {:5.1}%  penalty {:+5.1}pp\n",
                row.crash_rate,
                row.policy.label(),
                if row.cost_aware { "cost-aware" } else { "fixed" },
                row.crashes,
                row.recoveries,
                row.slowdowns,
                row.aborted_migrations,
                row.orphaned,
                row.readmitted,
                row.rejected_orphans,
                row.queued_orphans,
                row.retry_backoffs,
                latency,
                row.migrations,
                row.final_vms,
                row.sensitive_degradation_pct,
                row.disruptive_degradation_pct,
                row.sensitive_penalty_vs_quiet_pct,
            ));
        }
        out
    }
}

/// The fleet-sweep shim that reuses the fleet scenario's calibration
/// (permit conversion + per-app solo baselines) at this sweep's epoch
/// geometry.
fn calibration_sweep(sweep: &FailureSweep) -> FleetSweep {
    FleetSweep {
        cell_counts: Vec::new(),
        vms_per_cell: Vec::new(),
        policies: Vec::new(),
        epochs: sweep.epochs,
        epoch_ticks: sweep.epoch_ticks,
        permit_paper_kilo: sweep.permit_paper_kilo,
        churn: None,
    }
}

/// Runs one failures sweep point: seed the fleet in arrival order,
/// install the fault plan, drive the control loop, re-verify VM
/// conservation and fold every VM that ever ran (re-admitted, rejected
/// and resident alike) into a [`FailureCell`].
pub fn run_failure_cell(
    config: &ExperimentConfig,
    sweep: &FailureSweep,
    crash_rate: f64,
    policy: ConsolidationPolicy,
    cost_aware: bool,
    calibration: &SweepCalibration,
) -> FailureCell {
    let cluster_config = ClusterConfig::new(sweep.cells, config.scale)
        .with_epoch_ticks(sweep.epoch_ticks)
        .with_policy(policy)
        .with_parallel_cells(config.parallel_engine)
        .with_hypervisor(config.hypervisor_config())
        .with_strategy(MonitoringStrategy::SimulatorAttribution)
        .with_planner(
            PlannerConfig::default()
                .with_max_moves(4)
                .with_polluter_threshold(calibration.polluter_threshold)
                .with_cost_aware(cost_aware),
        );
    let mut cluster = Cluster::new(cluster_config);
    cluster.install_faults(sweep.plan(crash_rate));
    let vm_count = sweep.cells * sweep.vms_per_cell;
    for i in 0..vm_count {
        let app = FLEET_MIX[i % FLEET_MIX.len()];
        cluster
            .add_vm(
                CellId(i / sweep.vms_per_cell),
                VmConfig::new(format!("fvm{i}-{}", app.name())).with_llc_cap(calibration.permit),
                Box::new(config.workload(app, fleet::app_salt(i))),
            )
            .expect("seeding stays within cell capacity");
    }
    cluster
        .run_epochs(sweep.epochs)
        .expect("the fault boundary handles every injected fault");
    cluster
        .verify_conservation()
        .expect("no VM is lost or duplicated under faults");

    let mut sensitive = (0usize, 0.0f64);
    let mut disruptive = (0usize, 0.0f64);
    for report in cluster.all_reports() {
        let app = fleet::app_of_report(&report.name);
        let solo = calibration
            .baselines
            .iter()
            .find(|(a, _)| *a == app)
            .map(|(_, t)| *t)
            .expect("baseline for every app in the mix");
        let degradation = degradation_percent(solo, report.instructions_per_tick());
        if fleet::is_sensitive(app) {
            sensitive.0 += 1;
            sensitive.1 += degradation;
        } else {
            disruptive.0 += 1;
            disruptive.1 += degradation;
        }
    }
    let mean = |(count, sum): (usize, f64)| if count == 0 { 0.0 } else { sum / count as f64 };
    let faults = cluster.total_faults();
    FailureCell {
        crash_rate,
        policy,
        cost_aware,
        crashes: faults.crashes,
        recoveries: faults.recoveries,
        slowdowns: faults.slowdowns,
        aborted_migrations: faults.aborted_migrations(),
        orphaned: faults.orphaned,
        readmitted: faults.readmitted,
        rejected_orphans: faults.rejected_orphans,
        retry_backoffs: faults.retry_backoffs,
        queued_orphans: cluster.orphan_count(),
        mean_readmission_epochs: cluster.mean_readmission_latency_epochs(),
        migrations: cluster.total_migrations(),
        final_vms: cluster.reports().len(),
        sensitive_degradation_pct: mean(sensitive),
        disruptive_degradation_pct: mean(disruptive),
        // Filled in by the sweep runner once the quiet row is known.
        sensitive_penalty_vs_quiet_pct: 0.0,
    }
}

/// Runs the full sweep described by `sweep`, with the independent sweep
/// points spread over up to `jobs` scoped worker threads (`jobs <= 1`
/// runs serially; the output is byte-identical either way), then charges
/// every faulted row its sensitive-VM penalty against the quiet row of
/// the same policy and planner mode.
pub fn run_with_sweep_jobs(
    config: &ExperimentConfig,
    sweep: &FailureSweep,
    jobs: usize,
) -> FailureResult {
    let calibration = fleet::calibrate_sweep(config, &calibration_sweep(sweep));
    let mut specs: Vec<(f64, ConsolidationPolicy, bool)> = Vec::new();
    for &rate in &sweep.crash_rates {
        for &policy in &sweep.policies {
            for &cost_aware in &sweep.cost_modes {
                specs.push((rate, policy, cost_aware));
            }
        }
    }
    let mut rows = run_jobs(specs.len(), jobs, |index| {
        let (rate, policy, cost_aware) = specs[index];
        run_failure_cell(config, sweep, rate, policy, cost_aware, &calibration)
    });
    let quiet: Vec<(ConsolidationPolicy, bool, f64)> = rows
        .iter()
        .filter(|r| r.crash_rate == 0.0)
        .map(|r| (r.policy, r.cost_aware, r.sensitive_degradation_pct))
        .collect();
    for row in &mut rows {
        row.sensitive_penalty_vs_quiet_pct = quiet
            .iter()
            .find(|(p, c, _)| *p == row.policy && *c == row.cost_aware)
            .map(|(_, _, baseline)| row.sensitive_degradation_pct - baseline)
            .unwrap_or(0.0);
    }
    FailureResult {
        cells: sweep.cells,
        initial_vms: sweep.cells * sweep.vms_per_cell,
        abort_rate: sweep.abort_rate,
        slowdown_rate: sweep.slowdown_rate,
        permit_paper_kilo: sweep.permit_paper_kilo,
        rows,
    }
}

/// Runs the full sweep described by `sweep` on the calling thread.
pub fn run_with_sweep(config: &ExperimentConfig, sweep: &FailureSweep) -> FailureResult {
    run_with_sweep_jobs(config, sweep, 1)
}

/// Runs the standard failures sweep.
pub fn run(config: &ExperimentConfig) -> FailureResult {
    run_with_sweep(config, &FailureSweep::standard())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 11,
            warmup_ticks: 2,
            measure_ticks: 5,
            parallel_engine: false,
        }
    }

    #[test]
    fn sweep_covers_every_point_and_faults_actually_fire() {
        let sweep = FailureSweep::small();
        let result = run_with_sweep(&tiny_config(), &sweep);
        assert_eq!(result.rows.len(), 8, "2 rates x 2 policies x 2 modes");
        for row in &result.rows {
            if row.crash_rate == 0.0 {
                assert_eq!(row.crashes, 0, "quiet row must stay quiet: {row:?}");
                assert_eq!(row.orphaned, 0);
                assert_eq!(row.aborted_migrations, 0);
                assert_eq!(
                    row.sensitive_penalty_vs_quiet_pct, 0.0,
                    "the quiet row is its own baseline"
                );
            }
        }
        let faulted: Vec<_> = result.rows.iter().filter(|r| r.crash_rate > 0.0).collect();
        assert!(
            faulted.iter().any(|r| r.crashes > 0),
            "a 0.75 crash rate over 6 epochs must crash something: {faulted:#?}"
        );
        assert!(
            faulted
                .iter()
                .all(|r| r.orphaned == r.readmitted + r.rejected_orphans + r.queued_orphans as u64),
            "every orphan is re-admitted, rejected or still queued: {faulted:#?}"
        );
        let table = result.to_table();
        assert!(table.contains("Fleet failures"));
        assert!(table.contains("cost-aware"));
        assert!(table.contains("rate 0.75"));
    }

    #[test]
    fn runs_are_deterministic_and_cell_parallelism_changes_nothing() {
        let sweep = FailureSweep::small();
        let serial = run_with_sweep(&tiny_config(), &sweep);
        let rerun = run_with_sweep(&tiny_config(), &sweep);
        assert_eq!(serial, rerun, "same config, same bytes");
        let parallel = run_with_sweep(&tiny_config().with_parallel_engine(true), &sweep);
        assert_eq!(serial, parallel, "cell-parallel epochs are bit-identical");
        assert_eq!(serial.to_table(), parallel.to_table());
    }

    #[test]
    fn sweep_worker_threads_change_no_bytes() {
        let sweep = FailureSweep::small();
        let serial = run_with_sweep_jobs(&tiny_config(), &sweep, 1);
        let threaded = run_with_sweep_jobs(&tiny_config(), &sweep, 4);
        assert_eq!(serial, threaded);
        assert_eq!(serial.to_table(), threaded.to_table());
    }
}
