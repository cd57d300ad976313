//! Cross-crate scenarios exercising the whole stack through the facade
//! crate: VM lifecycle, determinism, permit policy wiring and the three
//! Kyoto scheduler variants.

use kyoto::core::ks4::{ks4linux_hypervisor, ks4xen_hypervisor};
use kyoto::core::monitor::{MonitoringStrategy, SocketDedicationConfig};
use kyoto::core::policy::{InstanceFamily, InstanceType, PermitCatalog};
use kyoto::hypervisor::{HypervisorConfig, VmConfig};
use kyoto::sim::topology::{CoreId, Machine, MachineConfig};
use kyoto::workloads::spec::{SpecApp, SpecWorkload};

const SCALE: u64 = 256;

fn machine() -> Machine {
    Machine::new(MachineConfig::scaled_paper_machine(SCALE))
}

#[test]
fn same_seed_same_results_different_seed_different_results() {
    let run = |seed: u64| {
        let mut hv = kyoto::hypervisor::xen_hypervisor(machine(), HypervisorConfig::default());
        let vm = hv
            .add_vm_with(
                VmConfig::new("gcc").pinned_to(vec![CoreId(0)]),
                Box::new(SpecWorkload::new(SpecApp::Gcc, SCALE, seed)),
            )
            .unwrap();
        hv.add_vm_with(
            VmConfig::new("lbm").pinned_to(vec![CoreId(1)]),
            Box::new(SpecWorkload::new(SpecApp::Lbm, SCALE, seed + 1)),
        )
        .unwrap();
        hv.run_ms(200);
        hv.report(vm).unwrap().pmcs
    };
    assert_eq!(
        run(7),
        run(7),
        "identical seeds must reproduce identical counters"
    );
    assert_ne!(run(7), run(8), "different seeds should diverge");
}

#[test]
fn vm_lifecycle_add_remove_add_again() {
    for strategy in [
        MonitoringStrategy::DirectPmc,
        MonitoringStrategy::SocketDedication(SocketDedicationConfig::default()),
    ] {
        let mut hv = ks4xen_hypervisor(machine(), HypervisorConfig::default(), strategy);
        let a = hv
            .add_vm_with(
                VmConfig::new("a").with_llc_cap(100.0),
                Box::new(SpecWorkload::new(SpecApp::Blockie, SCALE, 1)),
            )
            .unwrap();
        hv.run_ms(100);
        assert!(
            hv.report(a).unwrap().punishments > 0,
            "blockie should exceed a 100-miss/ms permit under {strategy:?}"
        );
        hv.remove_vm(a).unwrap();
        assert!(hv.report(a).is_none());
        // The machine keeps working after the removal.
        let b = hv
            .add_vm_with(
                VmConfig::new("b"),
                Box::new(SpecWorkload::new(SpecApp::Povray, SCALE, 2)),
            )
            .unwrap();
        hv.run_ms(100);
        let report = hv.report(b).unwrap();
        assert!(report.pmcs.instructions > 0);
        assert_eq!(
            report.punishments, 0,
            "povray books no permit and is never punished"
        );
    }
}

#[test]
fn permit_catalogue_feeds_the_scheduler_end_to_end() {
    let catalog = PermitCatalog::default();
    let r3 = InstanceType::new(InstanceFamily::MemoryOptimized, 1);
    let c3 = InstanceType::new(InstanceFamily::ComputeOptimized, 1);
    // Paper-scale permits converted to the scaled machine.
    let to_sim = |paper: f64| paper / SCALE as f64;
    let mut hv = ks4xen_hypervisor(
        machine(),
        HypervisorConfig::default(),
        MonitoringStrategy::SimulatorAttribution,
    );
    hv.engine_mut().enable_shadow_attribution().unwrap();
    let hpc = hv
        .add_vm_with(
            VmConfig::new("r3-soplex")
                .pinned_to(vec![CoreId(0)])
                .with_llc_cap(to_sim(catalog.permit_for(r3).misses_per_ms())),
            Box::new(SpecWorkload::new(SpecApp::Soplex, SCALE, 1)),
        )
        .unwrap();
    let batch = hv
        .add_vm_with(
            VmConfig::new("c3-blockie")
                .pinned_to(vec![CoreId(1)])
                .with_llc_cap(to_sim(catalog.permit_for(c3).misses_per_ms())),
            Box::new(SpecWorkload::new(SpecApp::Blockie, SCALE, 2)),
        )
        .unwrap();
    hv.run_ms(300);
    let hpc_report = hv.report(hpc).unwrap();
    let batch_report = hv.report(batch).unwrap();
    assert!(
        batch_report.punishments > hpc_report.punishments,
        "the small compute-optimised permit should be exceeded by blockie ({} punishments) more than soplex exceeds the memory-optimised one ({})",
        batch_report.punishments,
        hpc_report.punishments
    );
    // Billing stays consistent with the catalogue.
    assert!(catalog.bill(r3, 1.0).total() > catalog.bill(c3, 1.0).total());
}

#[test]
fn ks4linux_enforces_permits_like_ks4xen() {
    let mut hv = ks4linux_hypervisor(
        machine(),
        HypervisorConfig::default(),
        MonitoringStrategy::DirectPmc,
    );
    let polluter = hv
        .add_vm_with(
            VmConfig::new("lbm")
                .pinned_to(vec![CoreId(0)])
                .with_llc_cap(50.0),
            Box::new(SpecWorkload::new(SpecApp::Lbm, SCALE, 3)),
        )
        .unwrap();
    let neighbour = hv
        .add_vm_with(
            VmConfig::new("povray").pinned_to(vec![CoreId(1)]),
            Box::new(SpecWorkload::new(SpecApp::Povray, SCALE, 4)),
        )
        .unwrap();
    hv.run_ms(300);
    let polluter_report = hv.report(polluter).unwrap();
    let neighbour_report = hv.report(neighbour).unwrap();
    assert!(
        polluter_report.punishments > 0,
        "KS4Linux must punish the polluter"
    );
    assert!(
        polluter_report.cpu_share() < 0.9,
        "punishment must cost CPU time"
    );
    assert!(
        (neighbour_report.cpu_share() - 1.0).abs() < 1e-9,
        "the clean VM keeps its core"
    );
}

#[test]
fn history_supports_trace_analysis_across_crates() {
    let mut hv =
        kyoto::hypervisor::xen_hypervisor(machine(), HypervisorConfig::default().with_history());
    let vm = hv
        .add_vm_with(
            VmConfig::new("gcc").pinned_to(vec![CoreId(0)]),
            Box::new(SpecWorkload::new(SpecApp::Gcc, SCALE, 1)),
        )
        .unwrap();
    hv.run_ticks(12);
    let history = hv.history_of(kyoto::hypervisor::VcpuId::new(vm, 0));
    assert_eq!(history.len(), 12);
    let mut series = kyoto::metrics::series::TimeSeries::new("gcc llc misses");
    for sample in &history {
        series.push(sample.tick as f64, sample.pmc_delta.llc_misses as f64);
    }
    // The cold-start tick must carry the bulk of the misses.
    assert!(series.values()[0] >= series.values()[series.len() - 1]);
}
