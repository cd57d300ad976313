//! `fleet_replay`: a `FleetService` replays a seeded request trace on a
//! cell-parallel fleet under a seeded fault plan, one 1-ms tick per epoch,
//! with an operator checkpoint every `checkpoint_every` epochs. This is the
//! only workload whose epoch boundary does real work.

use crate::probe::{now, replay_through_cache, Probe, SpanLog};
use crate::{derive_seed, Digest, Rep};
use kyoto_bench::figures_quick_config;
use kyoto_cluster::cluster::{Cluster, ClusterConfig};
use kyoto_cluster::faults::{FaultPlan, FaultPlanConfig};
use kyoto_cluster::planner::{ConsolidationPolicy, MigrationPlanner, PlannerConfig};
use kyoto_cluster::snapshot::CellId;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_experiments::config::ExperimentConfig;
use kyoto_experiments::fleet::FLEET_MIX;
use kyoto_experiments::harness::calibrate_permits;
use kyoto_hypervisor::hypervisor::HypervisorConfig;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_service::admission::{
    AdmissionConfig, AdmissionController, AdmissionPolicy, BoundaryView,
};
use kyoto_service::request::{RequestTrace, RequestTraceConfig, ServiceRequest};
use kyoto_service::service::{FleetService, ServiceConfig};
use kyoto_sim::topology::SocketId;
use kyoto_sim::workload::Workload;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The size of one rep.
pub struct Shape {
    /// Cells of the fleet; each runs on its own thread per epoch.
    pub cells: usize,
    /// Epochs replayed; one step each.
    pub epochs: u64,
    /// Epochs between operator checkpoints.
    pub checkpoint_every: u64,
}

/// The benchmark's shape.
pub const SHAPE: Shape = Shape {
    cells: 4,
    epochs: 1000,
    checkpoint_every: 100,
};

const INITIAL_VMS_PER_CELL: usize = 2;
const PERMIT_PAPER_KILO: f64 = 250.0;
const CONTENTION_BUDGET_PERMITS: f64 = 3.0;

/// What the spawn function needs to build a VM, keyed by arrival index.
pub struct Inputs {
    config: ExperimentConfig,
    permit: f64,
    initial: usize,
}

impl Inputs {
    fn vm(&self, k: usize, probe: Option<&Probe>) -> (VmConfig, Box<dyn Workload>) {
        let app = FLEET_MIX[k % FLEET_MIX.len()];
        let workload: Box<dyn Workload> =
            Box::new(self.config.workload(app, 0xf1ee_7000 + k as u64));
        (
            VmConfig::new(format!("fvm{k}-{}", app.name())).with_llc_cap(self.permit),
            match probe {
                Some(probe) => probe.wrap(workload),
                None => workload,
            },
        )
    }

    /// The VM of a trace arrival.
    pub fn arrival(&self, index: u64, probe: Option<&Probe>) -> (VmConfig, Box<dyn Workload>) {
        self.vm(self.initial + index as usize, probe)
    }

    fn admission(&self) -> AdmissionConfig {
        AdmissionConfig {
            policy: AdmissionPolicy::ContentionAware {
                limit: CONTENTION_BUDGET_PERMITS * self.permit,
            },
            queue_capacity: 4,
        }
    }
}

/// Builds the service of one rep; workloads go through `probe` when given.
pub fn build(seed: u64, shape: &Shape, probe: Option<&Probe>) -> (FleetService, Inputs) {
    let config = ExperimentConfig {
        seed,
        ..figures_quick_config()
    };
    let permit = calibrate_permits(&config).paper_kilo(PERMIT_PAPER_KILO);
    let inputs = Inputs {
        config,
        permit,
        initial: shape.cells * INITIAL_VMS_PER_CELL,
    };
    let cluster_config = ClusterConfig::new(shape.cells, config.scale)
        .with_epoch_ticks(1)
        .with_policy(ConsolidationPolicy::PollutionAware)
        .with_parallel_cells(true)
        .with_hypervisor(HypervisorConfig::default().with_tick_ms(1))
        .with_strategy(MonitoringStrategy::SimulatorAttribution)
        .with_planner(
            PlannerConfig::default()
                .with_max_moves(1)
                .with_polluter_threshold(permit),
        );
    let mut cluster = Cluster::new(cluster_config);
    for k in 0..inputs.initial {
        let (vm, workload) = inputs.vm(k, probe);
        cluster
            .add_vm(CellId(k / INITIAL_VMS_PER_CELL), vm, workload)
            .expect("two VMs fit on every cell");
    }
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(derive_seed(seed, 2))
            .with_crash_rate(0.01)
            .with_slowdown_rate(0.01)
            .with_abort_rate(0.05),
    ));
    let drained = CellId(shape.cells - 1);
    let trace = RequestTrace::new(
        RequestTraceConfig::new(derive_seed(seed, 1), shape.epochs)
            .with_place_rate(0.6)
            .with_depart_rate(0.25)
            .with_query_rate(0.1)
            .with_scripted(shape.epochs / 3, ServiceRequest::DrainCell(drained))
            .with_scripted(2 * shape.epochs / 3, ServiceRequest::JoinCell(drained)),
    );
    let service = FleetService::new(
        cluster,
        trace,
        ServiceConfig {
            admission: inputs.admission(),
            checkpoint_every: None,
        },
    );
    (service, inputs)
}

/// Digest of the service's output: the rendered telemetry stream and the
/// admission ledger.
pub fn digest(service: &FleetService) -> u64 {
    let mut digest = Digest::default();
    digest.str(&service.telemetry().render());
    let l = service.ledger();
    for value in [
        l.requested,
        l.admitted,
        l.admitted_from_queue,
        l.rejected_saturated,
        l.rejected_contention,
        l.queue_len,
        l.queue_peak,
        l.departures_served,
        l.departures_noop,
        l.drains,
        l.joins,
        l.queries,
    ] {
        digest.u64(value);
    }
    digest.finish()
}

/// Re-runs of pure boundary calls, taken after a step in traced reps.
#[derive(Default)]
struct Boundary {
    snapshot_ns: Vec<f64>,
    plan_ns: Vec<f64>,
    select_ns: Vec<f64>,
}

/// One rep: replay the whole trace.
pub fn rep(seed: u64, shape: &Shape, traced: bool, spans: &mut SpanLog) -> Rep {
    let setup_start = now();
    let probe = traced.then(Probe::default);
    let (mut service, inputs) = build(seed, shape, probe.as_ref());
    let planner = MigrationPlanner::new(service.cluster().config().planner);
    let policy = service.cluster().config().policy;
    let controller = AdmissionController::new(inputs.admission());
    let mut spawn = |index: u64| inputs.arrival(index, probe.as_ref());
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut rep = Rep {
        setup_s,
        ..Rep::default()
    };
    let mut boundary = Boundary::default();
    let mut checkpoint_ms = Vec::new();
    let mut last = probe.as_ref().map(Probe::totals).unwrap_or_default();
    let start = now();
    for epoch in 0..shape.epochs {
        let step_start = now();
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            service.run_epoch(&mut spawn).map(|_| ())
        }));
        let step_ns = step_start.elapsed().as_nanos() as u64;
        rep.step_ms.push(step_ns as f64 / 1e6);
        spans.record(epoch, "service.run_epoch", 1, step_ns);
        if !matches!(stepped, Ok(Ok(()))) {
            rep.failed += 1;
            break;
        }
        if let Some(probe) = &probe {
            let totals = probe.totals();
            spans.record(
                epoch,
                "workloads.fill_ops",
                totals.fill_calls - last.fill_calls,
                totals.gen_ns - last.gen_ns,
            );
            last = totals;
            let t = now();
            let snapshot = service.cluster().snapshot();
            let snapshot_ns = t.elapsed().as_nanos() as u64;
            let t = now();
            black_box(planner.plan(&snapshot, policy));
            let plan_ns = t.elapsed().as_nanos() as u64;
            let t = now();
            let _ = black_box(controller.select(&BoundaryView::of(&snapshot)));
            let select_ns = t.elapsed().as_nanos() as u64;
            spans.record(epoch, "cluster.snapshot", 1, snapshot_ns);
            spans.record(epoch, "cluster.plan", 1, plan_ns);
            spans.record(epoch, "service.select", 1, select_ns);
            boundary.snapshot_ns.push(snapshot_ns as f64);
            boundary.plan_ns.push(plan_ns as f64);
            boundary.select_ns.push(select_ns as f64);
        }
        if (epoch + 1) % shape.checkpoint_every == 0 {
            let t = now();
            let checkpoint = service.checkpoint();
            let ns = t.elapsed().as_nanos() as u64;
            spans.record(epoch, "service.checkpoint", 1, ns);
            checkpoint_ms.push(ns as f64 / 1e6);
            if checkpoint.is_err() {
                rep.failed += 1;
            }
        }
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    if service.verify_conservation().is_err() {
        rep.failed = rep.step_ms.len() as u64;
    }
    rep.digest = digest(&service);

    if let Some(probe) = &probe {
        let step_s: f64 = rep.step_ms.iter().sum::<f64>() / 1e3;
        let boundary_s = (boundary.snapshot_ns.iter().sum::<f64>()
            + boundary.plan_ns.iter().sum::<f64>()
            + boundary.select_ns.iter().sum::<f64>())
            / 1e9;
        let totals = probe.totals();
        crate::workload_layers(&totals, &mut rep);
        let layers = &mut rep.layers;
        layers.insert(
            "sim.engine_self_s".into(),
            step_s - totals.gen_ns as f64 / 1e9 - boundary_s,
        );
        layers.insert(
            "cluster.snapshot_us".into(),
            crate::median(&boundary.snapshot_ns) / 1e3,
        );
        layers.insert(
            "cluster.plan_us".into(),
            crate::median(&boundary.plan_ns) / 1e3,
        );
        layers.insert(
            "service.select_us".into(),
            crate::median(&boundary.select_ns) / 1e3,
        );
        layers.insert(
            "cluster.checkpoint_ms".into(),
            crate::median(&checkpoint_ms),
        );

        let cluster = service.cluster();
        let faults = cluster.total_faults();
        layers.insert(
            "cluster.migrations".into(),
            cluster.total_migrations() as f64,
        );
        layers.insert("cluster.crashes".into(), faults.crashes as f64);
        layers.insert("cluster.readmitted".into(), faults.readmitted as f64);
        let ledger = service.ledger();
        layers.insert("service.requested".into(), ledger.requested as f64);
        layers.insert("service.admitted".into(), ledger.admitted as f64);
        layers.insert("service.rejected".into(), ledger.rejected() as f64);
        layers.insert(
            "service.admit_ratio".into(),
            ledger.admitted as f64 / ledger.requested.max(1) as f64,
        );
        layers.insert("service.queue_peak".into(), ledger.queue_peak as f64);

        let reports = cluster.all_reports();
        let sum = |f: fn(&kyoto_cluster::cluster::FleetVmReport) -> u64| {
            reports.iter().map(f).sum::<u64>() as f64
        };
        layers.insert("sim.instructions".into(), sum(|r| r.pmcs.instructions));
        layers.insert("sim.cycles".into(), sum(|r| r.pmcs.unhalted_core_cycles));
        layers.insert("hypervisor.punishments".into(), sum(|r| r.punishments));
        layers.insert(
            "hypervisor.blocked_fraction".into(),
            sum(|r| r.ticks_blocked) / sum(|r| r.ticks_resident).max(1.0),
        );
        let (mut accesses, mut misses) = (0u64, 0u64);
        for cell in cluster.cells() {
            let stats = cell
                .hypervisor()
                .engine()
                .machine()
                .llc_stats(SocketId(0))
                .unwrap_or_default();
            accesses += stats.accesses;
            misses += stats.misses;
        }
        crate::llc_layers(accesses, misses, &mut rep);
        let llc = cluster.config().cell_machine_config().llc.clone();
        let (ns, hit_ratio) = replay_through_cache(&llc, &probe.captured());
        rep.layers.insert("cache.access_ns".into(), ns);
        rep.layers
            .insert("cache.replay_hit_ratio".into(), hit_ratio);
    }
    rep
}
