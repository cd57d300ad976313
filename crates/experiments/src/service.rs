//! Service scenario: the fleet behind the control-plane front.
//!
//! Every other scenario drives the cluster directly; this one drives it
//! the way production traffic would — through `kyoto-service`'s
//! request/reply front. A deterministic [`RequestTrace`] (seeded `PlaceVm`
//! / `DepartVm` / `QueryTelemetry` streams plus one scripted drain/join
//! maintenance cycle) is replayed through the SLA-aware admission
//! controller over a sweep of **arrival rate × admission policy**, and
//! the per-epoch telemetry stream is what the table renders.
//!
//! The headline comparison: at high arrival rates the **contention-aware**
//! policy refuses (or queues) placements that would push a cell past its
//! pollution budget, holding mean per-cell pollution below the
//! **free-cores** baseline — the service turns the paper's polluters-pay
//! principle into an *admission* decision, not just a scheduling one.
//!
//! The scenario also exercises the restart story on its first sweep
//! point: replay to a mid-trace epoch, take a
//! [`ServiceCheckpoint`](kyoto_service::service::ServiceCheckpoint)
//! (PR 6's deep fleet checkpoint plus the service's queue, ledger and
//! telemetry), finish both the original and the restored copy, and
//! require **byte-identical** telemetry. A mismatch panics the scenario,
//! so the CI determinism gate doubles as a restart-correctness gate.
//!
//! Determinism: the trace is a pure function of `(seed, epoch)`, the
//! admission controller decides from snapshots only, and the telemetry
//! renderer pins field order and float precision — so the rendered output
//! is byte-identical across serial and `--parallel-engine` runs and
//! across `--jobs` fan-out, which `ci/check_determinism.sh` verifies.

use crate::config::ExperimentConfig;
use crate::fleet::{app_salt, FLEET_MIX};
use crate::harness::{calibrate_permits, run_jobs};
use kyoto_cluster::cluster::{Cluster, ClusterConfig};
use kyoto_cluster::planner::{ConsolidationPolicy, PlannerConfig};
use kyoto_cluster::snapshot::CellId;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_service::admission::{AdmissionConfig, AdmissionPolicy};
use kyoto_service::request::{RequestTrace, RequestTraceConfig, ServiceRequest};
use kyoto_service::service::{FleetService, ServiceConfig};
use kyoto_sim::workload::Workload;

/// An admission policy in calibration-relative units: the contention
/// limit is expressed as a multiple of the booked permit, and resolved to
/// an absolute [`AdmissionPolicy`] once the sweep is calibrated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// Capacity-only admission (the baseline).
    FreeCores,
    /// Contention-gated admission: per-cell pollution budget of
    /// `permit_multiple × permit`.
    Contention {
        /// Budget as a multiple of the simulated permit.
        permit_multiple: f64,
    },
}

impl PolicySpec {
    /// Resolves the spec against the calibrated permit.
    pub fn resolve(&self, permit: f64) -> AdmissionPolicy {
        match *self {
            PolicySpec::FreeCores => AdmissionPolicy::FreeCores,
            PolicySpec::Contention { permit_multiple } => AdmissionPolicy::ContentionAware {
                limit: permit_multiple * permit,
            },
        }
    }

    /// Short label for tables (stable across calibration).
    pub fn label(&self) -> String {
        match *self {
            PolicySpec::FreeCores => "free-cores".to_string(),
            PolicySpec::Contention { permit_multiple } => {
                format!("contention x{permit_multiple:.1}")
            }
        }
    }
}

/// The sweep a service run covers.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSweep {
    /// Cells (machines) behind the service.
    pub cells: usize,
    /// VMs seeded per cell before the trace starts.
    pub initial_vms_per_cell: usize,
    /// Expected `PlaceVm` requests per epoch — the sweep axis.
    pub place_rates: Vec<f64>,
    /// Expected `DepartVm` requests per epoch (fixed across the sweep).
    pub depart_rate: f64,
    /// Expected `QueryTelemetry` requests per epoch.
    pub query_rate: f64,
    /// Admission policies to compare at every rate.
    pub policies: Vec<PolicySpec>,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Trace length in epochs.
    pub epochs: u64,
    /// Scheduler ticks per epoch.
    pub epoch_ticks: u64,
    /// Epoch at which the last cell starts draining.
    pub drain_epoch: u64,
    /// Epoch at which it rejoins.
    pub join_epoch: u64,
    /// Mid-trace epoch at which the restart check checkpoints the first
    /// sweep point.
    pub restart_epoch: u64,
    /// Seed of the request trace.
    pub seed: u64,
    /// Paper-scale pollution permit (thousands) booked by every VM.
    pub permit_paper_kilo: f64,
}

impl ServiceSweep {
    /// The standard sweep: a 4-cell fleet seeded at 2 VMs per cell,
    /// arrival rates 0.5 / 1.5 / 3.0 against 0.5 departures, free-cores
    /// vs two contention budgets, ten 6-tick epochs with a drain/join
    /// cycle and a restart check at epoch 4.
    pub fn standard() -> Self {
        ServiceSweep {
            cells: 4,
            initial_vms_per_cell: 2,
            place_rates: vec![0.5, 1.5, 3.0],
            depart_rate: 0.5,
            query_rate: 0.25,
            policies: vec![
                PolicySpec::FreeCores,
                PolicySpec::Contention {
                    permit_multiple: 3.0,
                },
                PolicySpec::Contention {
                    permit_multiple: 1.5,
                },
            ],
            queue_capacity: 4,
            epochs: 10,
            epoch_ticks: 6,
            drain_epoch: 3,
            join_epoch: 6,
            restart_epoch: 4,
            seed: 0x5EC7,
            permit_paper_kilo: 250.0,
        }
    }

    /// A small sweep for tests and the CI determinism gate: 3 cells, two
    /// rates, free-cores vs one contention budget, six 4-tick epochs,
    /// restart check at epoch 2.
    pub fn small() -> Self {
        ServiceSweep {
            cells: 3,
            initial_vms_per_cell: 2,
            place_rates: vec![1.0, 2.5],
            depart_rate: 0.5,
            query_rate: 0.25,
            policies: vec![
                PolicySpec::FreeCores,
                PolicySpec::Contention {
                    permit_multiple: 1.5,
                },
            ],
            queue_capacity: 3,
            epochs: 6,
            epoch_ticks: 4,
            drain_epoch: 2,
            join_epoch: 4,
            restart_epoch: 2,
            seed: 0x5EC7,
            permit_paper_kilo: 250.0,
        }
    }

    /// The request trace one sweep point replays.
    fn trace(&self, place_rate: f64) -> RequestTrace {
        let drained = CellId(self.cells - 1);
        RequestTrace::new(
            RequestTraceConfig::new(self.seed, self.epochs)
                .with_place_rate(place_rate)
                .with_depart_rate(self.depart_rate)
                .with_query_rate(self.query_rate)
                .with_scripted(self.drain_epoch, ServiceRequest::DrainCell(drained))
                .with_scripted(self.join_epoch, ServiceRequest::JoinCell(drained)),
        )
    }
}

/// One service sweep point: an arrival rate and an admission policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePoint {
    /// Expected `PlaceVm` requests per epoch.
    pub place_rate: f64,
    /// The admission policy spec.
    pub policy: PolicySpec,
    /// Placement requests the trace issued.
    pub requested: u64,
    /// Placements admitted (immediately or from the queue).
    pub admitted: u64,
    /// Of `admitted`, how many waited in the queue first.
    pub admitted_from_queue: u64,
    /// Rejections: no open cell had a free core.
    pub rejected_saturated: u64,
    /// Rejections: every candidate cell over the contention budget.
    pub rejected_contention: u64,
    /// Admission-queue high-water mark.
    pub queue_peak: u64,
    /// Requests still queued when the trace ended.
    pub final_queue_len: u64,
    /// `DepartVm` requests that removed a VM.
    pub departures: u64,
    /// `QueryTelemetry` requests served.
    pub queries: u64,
    /// Planner moves over the run.
    pub migrations: u64,
    /// VMs resident when the trace ended.
    pub final_vms: u64,
    /// Mean per-cell pollution (misses per CPU-ms) over every epoch and
    /// open cell — the quantity the contention gate holds down.
    pub mean_cell_pollution: f64,
    /// Kyoto punishments summed over the fleet's lifetime.
    pub punishments: u64,
}

/// The service dataset: the sweep grid plus the telemetry stream of the
/// first point and the restart-check verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResult {
    /// Cells behind the service.
    pub cells: usize,
    /// VMs seeded before the trace started.
    pub initial_vms: usize,
    /// Expected departures per epoch.
    pub depart_rate: f64,
    /// Epochs at which the last cell drained / rejoined.
    pub drain_join: (u64, u64),
    /// Paper-scale permit booked by every VM.
    pub permit_paper_kilo: f64,
    /// Epoch of the mid-trace restart check.
    pub restart_epoch: u64,
    /// Every sweep point: rate outer, policy inner.
    pub rows: Vec<ServicePoint>,
    /// Rendered telemetry stream of the first sweep point (the
    /// publish-subscribe record stream, verbatim).
    pub first_point_telemetry: String,
}

impl ServiceResult {
    /// The sweep point for a rate / policy, if present.
    pub fn row(&self, place_rate: f64, policy: PolicySpec) -> Option<&ServicePoint> {
        self.rows
            .iter()
            .find(|r| (r.place_rate - place_rate).abs() < 1e-12 && r.policy == policy)
    }

    /// Renders the sweep table plus the first point's telemetry stream.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "Service: arrival-rate x admission-policy sweep ({} cells, {} initial VMs, {:.2} departures/epoch, drain@{} join@{}, {}k permits; restart check @ epoch {})\n",
            self.cells,
            self.initial_vms,
            self.depart_rate,
            self.drain_join.0,
            self.drain_join.1,
            self.permit_paper_kilo,
            self.restart_epoch,
        );
        for row in &self.rows {
            out.push_str(&format!(
                "  rate {:.2}  {:<16}  req {:>2} adm {:>2} (q:{:>2}) rej sat {:>2} cont {:>2}  queue peak {:>2} left {:>2}  dep {:>2} qry {:>2}  mig {:>2}  vms {:>2}  cell-poll {:8.3}/ms  punish {:>5}\n",
                row.place_rate,
                row.policy.label(),
                row.requested,
                row.admitted,
                row.admitted_from_queue,
                row.rejected_saturated,
                row.rejected_contention,
                row.queue_peak,
                row.final_queue_len,
                row.departures,
                row.queries,
                row.migrations,
                row.final_vms,
                row.mean_cell_pollution,
                row.punishments,
            ));
        }
        out.push_str("Telemetry stream of the first sweep point:\n");
        out.push_str(&self.first_point_telemetry);
        out
    }
}

/// Builds the cluster one sweep point wraps.
fn build_cluster(config: &ExperimentConfig, sweep: &ServiceSweep, permit: f64) -> Cluster {
    let cluster_config = ClusterConfig::new(sweep.cells, config.scale)
        .with_epoch_ticks(sweep.epoch_ticks)
        .with_policy(ConsolidationPolicy::PollutionAware)
        .with_parallel_cells(config.parallel_engine)
        .with_hypervisor(config.hypervisor_config())
        .with_strategy(MonitoringStrategy::SimulatorAttribution)
        .with_planner(
            PlannerConfig::default()
                .with_max_moves(4)
                .with_polluter_threshold(permit),
        );
    let mut cluster = Cluster::new(cluster_config);
    let initial = sweep.cells * sweep.initial_vms_per_cell;
    for i in 0..initial {
        let app = FLEET_MIX[i % FLEET_MIX.len()];
        cluster
            .add_vm(
                CellId(i / sweep.initial_vms_per_cell),
                VmConfig::new(format!("fvm{i}-{}", app.name())).with_llc_cap(permit),
                Box::new(config.workload(app, app_salt(i))),
            )
            .expect("seeding stays within cell capacity");
    }
    cluster
}

/// Builds the service for one sweep point.
fn build_service(
    config: &ExperimentConfig,
    sweep: &ServiceSweep,
    place_rate: f64,
    policy: PolicySpec,
    permit: f64,
) -> FleetService {
    FleetService::new(
        build_cluster(config, sweep, permit),
        sweep.trace(place_rate),
        ServiceConfig {
            admission: AdmissionConfig {
                policy: policy.resolve(permit),
                queue_capacity: sweep.queue_capacity,
            },
            checkpoint_every: None,
        },
    )
}

/// The spawn function every replay shares: trace arrivals continue the
/// seeded mix, keyed purely by arrival index.
fn spawn_fn(
    config: &ExperimentConfig,
    initial: usize,
    permit: f64,
) -> impl FnMut(u64) -> (VmConfig, Box<dyn Workload>) + '_ {
    move |index: u64| {
        let k = initial + index as usize;
        let app = FLEET_MIX[k % FLEET_MIX.len()];
        (
            VmConfig::new(format!("fvm{k}-{}", app.name())).with_llc_cap(permit),
            Box::new(config.workload(app, app_salt(k))) as Box<dyn Workload>,
        )
    }
}

/// Runs one sweep point: replay the trace to its end and fold the ledger
/// and telemetry into a [`ServicePoint`].
pub fn run_point(
    config: &ExperimentConfig,
    sweep: &ServiceSweep,
    place_rate: f64,
    policy: PolicySpec,
    permit: f64,
) -> ServicePoint {
    let initial = sweep.cells * sweep.initial_vms_per_cell;
    let mut service = build_service(config, sweep, place_rate, policy, permit);
    let mut spawn = spawn_fn(config, initial, permit);
    service
        .run_to_end(&mut spawn)
        .expect("service replay is fault-free");
    service
        .verify_conservation()
        .expect("placed/queued/rejected conservation holds");
    fold_point(place_rate, policy, &service)
}

fn fold_point(place_rate: f64, policy: PolicySpec, service: &FleetService) -> ServicePoint {
    let ledger = *service.ledger();
    let records = service.telemetry().records();
    let mut pollution_sum = 0.0f64;
    let mut pollution_cells = 0usize;
    let mut punishments = 0u64;
    for record in records {
        for cell in &record.cells {
            punishments += cell.punishments;
            if !cell.down {
                pollution_sum += cell.pollution_rate;
                pollution_cells += 1;
            }
        }
    }
    let last = records.last();
    ServicePoint {
        place_rate,
        policy,
        requested: ledger.requested,
        admitted: ledger.admitted,
        admitted_from_queue: ledger.admitted_from_queue,
        rejected_saturated: ledger.rejected_saturated,
        rejected_contention: ledger.rejected_contention,
        queue_peak: ledger.queue_peak,
        final_queue_len: ledger.queue_len,
        departures: ledger.departures_served,
        queries: ledger.queries,
        migrations: service.cluster().total_migrations(),
        final_vms: last.map(|record| record.vms).unwrap_or_default(),
        mean_cell_pollution: if pollution_cells == 0 {
            0.0
        } else {
            pollution_sum / pollution_cells as f64
        },
        punishments,
    }
}

/// Runs the restart check on one sweep point: replay to
/// [`ServiceSweep::restart_epoch`], checkpoint, finish both the original
/// and the restored copy, and demand byte-identical telemetry. Returns
/// the original's rendered telemetry stream.
///
/// # Panics
///
/// When the restored service's telemetry diverges — a broken restart
/// story is a correctness bug, and panicking here makes the CI
/// determinism gate catch it.
pub fn run_restart_check(
    config: &ExperimentConfig,
    sweep: &ServiceSweep,
    place_rate: f64,
    policy: PolicySpec,
    permit: f64,
) -> String {
    let initial = sweep.cells * sweep.initial_vms_per_cell;
    let mut original = build_service(config, sweep, place_rate, policy, permit);
    let mut spawn = spawn_fn(config, initial, permit);
    while original.epoch() < sweep.restart_epoch.min(sweep.epochs) {
        original
            .run_epoch(&mut spawn)
            .expect("service replay is fault-free");
    }
    let checkpoint = original.checkpoint().expect("fleet checkpoints cleanly");
    original
        .run_to_end(&mut spawn)
        .expect("service replay is fault-free");
    let mut restored = FleetService::restore(checkpoint);
    let mut spawn = spawn_fn(config, initial, permit);
    restored
        .run_to_end(&mut spawn)
        .expect("restored replay is fault-free");
    let expected = original.telemetry().render();
    let resumed = restored.telemetry().render();
    assert_eq!(
        expected, resumed,
        "restored service must republish byte-identical telemetry"
    );
    expected
}

/// Runs the full sweep described by `sweep`, with the independent sweep
/// points spread over up to `jobs` scoped worker threads (`jobs <= 1`
/// runs serially; the output is byte-identical either way).
pub fn run_with_sweep_jobs(
    config: &ExperimentConfig,
    sweep: &ServiceSweep,
    jobs: usize,
) -> ServiceResult {
    let permit = calibrate_permits(config).paper_kilo(sweep.permit_paper_kilo);
    let mut specs: Vec<(f64, PolicySpec)> = Vec::new();
    for &rate in &sweep.place_rates {
        for &policy in &sweep.policies {
            specs.push((rate, policy));
        }
    }
    let rows = run_jobs(specs.len(), jobs, |index| {
        let (rate, policy) = specs[index];
        run_point(config, sweep, rate, policy, permit)
    });
    let (first_rate, first_policy) = specs[0];
    let first_point_telemetry = run_restart_check(config, sweep, first_rate, first_policy, permit);
    ServiceResult {
        cells: sweep.cells,
        initial_vms: sweep.cells * sweep.initial_vms_per_cell,
        depart_rate: sweep.depart_rate,
        drain_join: (sweep.drain_epoch, sweep.join_epoch),
        permit_paper_kilo: sweep.permit_paper_kilo,
        restart_epoch: sweep.restart_epoch,
        rows,
        first_point_telemetry,
    }
}

/// Runs the full sweep on the calling thread.
pub fn run_with_sweep(config: &ExperimentConfig, sweep: &ServiceSweep) -> ServiceResult {
    run_with_sweep_jobs(config, sweep, 1)
}

/// Runs the standard service sweep.
pub fn run(config: &ExperimentConfig) -> ServiceResult {
    run_with_sweep(config, &ServiceSweep::standard())
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
    fn sweep_covers_every_point_and_renders() {
        let result = run_with_sweep(&tiny_config(), &ServiceSweep::small());
        assert_eq!(result.rows.len(), 4, "2 rates x 2 policies");
        let table = result.to_table();
        assert!(table.contains("free-cores"));
        assert!(table.contains("contention x1.5"));
        assert!(table.contains("Telemetry stream"));
        assert!(table.contains("epoch   0 v1"));
        for row in &result.rows {
            assert_eq!(
                row.requested,
                row.admitted
                    + row.rejected_saturated
                    + row.rejected_contention
                    + row.final_queue_len,
                "conservation in the rendered row: {row:?}"
            );
        }
    }

    #[test]
    fn contention_gate_bites_at_high_arrival_rates() {
        let sweep = ServiceSweep::small();
        let result = run_with_sweep(&tiny_config(), &sweep);
        let top_rate = sweep.place_rates[sweep.place_rates.len() - 1];
        let gated = result
            .row(
                top_rate,
                PolicySpec::Contention {
                    permit_multiple: 1.5,
                },
            )
            .expect("contention row");
        let open = result
            .row(top_rate, PolicySpec::FreeCores)
            .expect("free-cores row");
        assert!(
            gated.rejected_contention + gated.queue_peak > 0,
            "the contention gate must actually defer or refuse something: {gated:?}"
        );
        assert!(
            gated.admitted <= open.admitted,
            "gating can only reduce admissions"
        );
        assert!(
            gated.mean_cell_pollution <= open.mean_cell_pollution + 1e-9,
            "holding placements back must not raise mean cell pollution \
             (gated {:.3} vs open {:.3})",
            gated.mean_cell_pollution,
            open.mean_cell_pollution
        );
    }

    #[test]
    fn runs_are_deterministic_and_parallelism_changes_nothing() {
        let sweep = ServiceSweep::small();
        let serial = run_with_sweep(&tiny_config(), &sweep);
        let rerun = run_with_sweep(&tiny_config(), &sweep);
        assert_eq!(serial, rerun, "same config, same bytes");
        let parallel = run_with_sweep(&tiny_config().with_parallel_engine(true), &sweep);
        assert_eq!(serial, parallel, "cell-parallel epochs are bit-identical");
        let threaded = run_with_sweep_jobs(&tiny_config(), &sweep, 4);
        assert_eq!(serial, threaded, "sweep worker threads change no bytes");
        assert_eq!(serial.to_table(), parallel.to_table());
    }
}
