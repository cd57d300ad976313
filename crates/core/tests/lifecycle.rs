//! Lifecycle regressions of the Kyoto mechanism: KS4Xen's quota and
//! punishment machinery must stand still for a Blocked vCPU, and the
//! socket-dedication sampler must never dedicate the socket to one.

use kyoto_core::ks4::ks4xen_hypervisor;
use kyoto_core::monitor::{MonitoringStrategy, SocketDedicationConfig};
use kyoto_hypervisor::hypervisor::HypervisorConfig;
use kyoto_hypervisor::lifecycle::VcpuState;
use kyoto_hypervisor::scheduler::Scheduler;
use kyoto_hypervisor::vm::{VcpuId, VmConfig};
use kyoto_sim::topology::{Machine, MachineConfig};
use kyoto_sim::workload::Workload;
use kyoto_workloads::interactive::Interactive;
use kyoto_workloads::spec::{SpecApp, SpecWorkload};

const SCALE: u64 = 256;

fn sleepy_workload(seed: u64) -> Box<dyn Workload> {
    // One short burst, then a WFI that no wake source ever ends.
    Box::new(Interactive::new(
        SpecWorkload::new(SpecApp::Lbm, SCALE, seed),
        48,
    ))
}

/// Regression: KS4Xen's quota must not advance — in either direction —
/// while a vCPU is Blocked. The sleeper books a permit of (almost)
/// nothing, so a single charged tick would drive its quota negative and
/// punish it; instead both its punishment count and its smoothed pollution
/// estimate freeze at their post-burst values, while the always-on
/// polluter with the same tight permit keeps collecting punishments.
#[test]
fn ks4xen_quota_and_punishments_freeze_while_a_vcpu_is_blocked() {
    let machine = Machine::new(MachineConfig::scaled_paper_machine(SCALE));
    let mut hv = ks4xen_hypervisor(
        machine,
        HypervisorConfig::default(),
        MonitoringStrategy::DirectPmc,
    );
    let tight = 1e-3;
    let sleepy = hv
        .add_vm_with(
            VmConfig::new("sleepy").with_llc_cap(tight),
            sleepy_workload(11),
        )
        .unwrap();
    let busy = hv
        .add_vm_with(
            VmConfig::new("busy").with_llc_cap(tight),
            Box::new(SpecWorkload::new(SpecApp::Lbm, SCALE, 12)),
        )
        .unwrap();
    let (sleepy, busy) = (VcpuId::new(sleepy, 0), VcpuId::new(busy, 0));

    // Let the burst run and the first slices settle.
    hv.run_ticks(6);
    assert_eq!(hv.vcpu_state(sleepy), Some(VcpuState::Blocked));
    let frozen_punishments = hv.scheduler().punishments(sleepy);
    let frozen_quota = hv.scheduler().quota(sleepy).unwrap().quota();
    let frozen_estimate = hv.scheduler().measured_llc_cap(sleepy);

    hv.run_ticks(30);
    assert_eq!(
        hv.scheduler().punishments(sleepy),
        frozen_punishments,
        "a sleeping vCPU cannot be punished further"
    );
    assert_eq!(
        hv.scheduler().quota(sleepy).unwrap().quota(),
        frozen_quota,
        "the quota neither earns nor debits during a WFI"
    );
    assert_eq!(
        hv.scheduler().measured_llc_cap(sleepy),
        frozen_estimate,
        "no execution, no new pollution evidence"
    );
    assert!(
        hv.scheduler().is_punished(busy),
        "the always-on polluter still overruns the same permit (sanity)"
    );
}

/// Pin for the sampler audit: under socket dedication a sleep-mostly
/// service never becomes the sampling target — windows go to the
/// always-on VMs, whose solo-rate estimates materialise, while the
/// sleeper (parked since its first burst) is marked blocked in the
/// sampler and finishes the run without a measured estimate.
#[test]
fn sampling_windows_skip_blocked_vcpus_and_still_estimate_the_busy_ones() {
    let machine = Machine::new(MachineConfig::scaled_paper_numa_machine(SCALE));
    let strategy = MonitoringStrategy::SocketDedication(SocketDedicationConfig {
        sampling_ticks: 2,
        interval_ticks: 3,
        ..SocketDedicationConfig::default()
    });
    let mut hv = ks4xen_hypervisor(machine, HypervisorConfig::default(), strategy);
    let sleepy = hv
        .add_vm_with(VmConfig::new("sleepy"), sleepy_workload(21))
        .unwrap();
    let busy = hv
        .add_vm_with(
            VmConfig::new("busy"),
            Box::new(SpecWorkload::new(SpecApp::Lbm, SCALE, 22)),
        )
        .unwrap();
    let (sleepy, busy) = (VcpuId::new(sleepy, 0), VcpuId::new(busy, 0));

    hv.step_tick(); // The burst runs (seeding a raw estimate), then parks.
    let frozen_estimate = hv.scheduler().measured_llc_cap(sleepy);
    for _ in 0..40 {
        hv.step_tick();
        let sampler = hv.scheduler().sampler().expect("socket dedication");
        assert_ne!(
            sampler.sampling_target(),
            Some(sleepy),
            "the socket must never be dedicated to a sleeping vCPU"
        );
    }
    let sampler = hv.scheduler().sampler().unwrap();
    assert!(sampler.is_blocked(sleepy), "the block reached the sampler");
    assert!(!sampler.is_blocked(busy));
    assert!(
        sampler.samples_taken() > 0,
        "the busy vCPU was still sampled"
    );
    assert_eq!(
        sampler.samples_skipped(),
        0,
        "passing over a sleeper is not a heuristic saving"
    );
    assert!(
        hv.scheduler().measured_llc_cap(busy).is_some(),
        "the always-on VM gets a solo-rate estimate"
    );
    assert_eq!(
        hv.scheduler().measured_llc_cap(sleepy),
        frozen_estimate,
        "the sleeper's estimate is frozen at its single pre-sleep tick"
    );
}
