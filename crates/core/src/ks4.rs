//! The Kyoto scheduler: pollution-quota enforcement layered over an existing
//! vCPU scheduler.
//!
//! Section 3.2 of the paper describes KS4Xen as a small extension of the Xen
//! credit scheduler (about 110 lines of C): on top of the CPU credit, every
//! VM gets a *pollution quota* fed by its booked `llc_cap`; the quota is
//! debited by the VM's measured pollution, and a VM whose quota goes
//! negative is put in priority `OVER` until the quota recovers. The same
//! extension applied to CFS gives KS4Linux and applied to Pisces gives
//! KS4Pisces.
//!
//! [`KyotoScheduler`] is that extension, generic over the inner scheduler,
//! with the three paper prototypes available as the type aliases
//! [`Ks4Xen`], [`Ks4Linux`] and [`Ks4Pisces`].

use crate::equation::{llc_cap_act, llc_cap_act_from_pmcs};
#[cfg(test)]
use crate::monitor::SocketDedicationConfig;
use crate::monitor::{DedicationSampler, MonitoringStrategy};
use crate::permit::{LlcCap, PollutionQuota};
use kyoto_hypervisor::cfs::{CfsConfig, CfsScheduler};
use kyoto_hypervisor::credit::{CreditConfig, CreditScheduler};
use kyoto_hypervisor::hypervisor::{Hypervisor, HypervisorConfig};
use kyoto_hypervisor::pisces::PiscesScheduler;
use kyoto_hypervisor::scheduler::{ExecOverrides, Priority, Scheduler, TickReport};
use kyoto_hypervisor::vm::{VcpuId, VmConfig, VmId};
use kyoto_sim::topology::{CoreId, Machine, MachineConfig};
use std::collections::{BTreeMap, BTreeSet};

/// Static configuration of a Kyoto scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KyotoConfig {
    /// Core frequency in kHz (the `cpu_freq_khz` term of Equation 1).
    pub freq_khz: u64,
    /// Scheduler tick length in milliseconds.
    pub tick_ms: u64,
    /// Ticks per time slice (quota is earned at slice boundaries).
    pub ticks_per_slice: u32,
    /// How pollution is attributed to individual vCPUs.
    pub strategy: MonitoringStrategy,
    /// Cores per socket (used to dedicate socket 0 during sampling).
    pub cores_per_socket: usize,
    /// Number of sockets on the machine.
    pub num_sockets: usize,
}

impl KyotoConfig {
    /// Derives the Kyoto configuration from a machine and the hypervisor
    /// timing parameters.
    pub fn from_machine(
        machine: &MachineConfig,
        hypervisor: &HypervisorConfig,
        strategy: MonitoringStrategy,
    ) -> Self {
        KyotoConfig {
            freq_khz: machine.freq_khz,
            tick_ms: hypervisor.tick_ms,
            ticks_per_slice: hypervisor.ticks_per_slice,
            strategy,
            cores_per_socket: machine.cores_per_socket,
            num_sockets: machine.sockets,
        }
    }

    /// Duration of one slice in milliseconds.
    pub fn slice_ms(&self) -> f64 {
        (self.tick_ms * u64::from(self.ticks_per_slice)) as f64
    }
}

/// Pollution-quota enforcement over an inner scheduler.
#[derive(Debug, Clone)]
pub struct KyotoScheduler<S> {
    inner: S,
    config: KyotoConfig,
    quotas: BTreeMap<VcpuId, PollutionQuota>,
    estimates: BTreeMap<VcpuId, f64>,
    sampler: Option<DedicationSampler>,
    vcpus: Vec<VcpuId>,
    /// vCPUs currently Blocked (WFI). Their quota accounting stands
    /// completely still — no debits (they never run) and no slice
    /// earnings: a VM cannot bank pollution budget, or serve out a
    /// punishment, by sleeping.
    blocked: BTreeSet<VcpuId>,
}

/// KS4Xen: the Kyoto extension of the Xen credit scheduler.
pub type Ks4Xen = KyotoScheduler<CreditScheduler>;
/// KS4Linux: the Kyoto extension of the Linux CFS (the KVM prototype).
pub type Ks4Linux = KyotoScheduler<CfsScheduler>;
/// KS4Pisces: the Kyoto extension of the Pisces co-kernel partitioner.
pub type Ks4Pisces = KyotoScheduler<PiscesScheduler>;

impl<S> KyotoScheduler<S> {
    /// Wraps `inner` with Kyoto pollution enforcement.
    pub fn new(inner: S, config: KyotoConfig) -> Self {
        let sampler = match config.strategy {
            MonitoringStrategy::SocketDedication(dedication) => {
                Some(DedicationSampler::new(dedication))
            }
            _ => None,
        };
        KyotoScheduler {
            inner,
            config,
            quotas: BTreeMap::new(),
            estimates: BTreeMap::new(),
            sampler,
            vcpus: Vec::new(),
            blocked: BTreeSet::new(),
        }
    }

    /// The inner (substrate) scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The Kyoto configuration.
    pub fn config(&self) -> KyotoConfig {
        self.config
    }

    /// The monitoring strategy in use.
    pub fn strategy(&self) -> MonitoringStrategy {
        self.config.strategy
    }

    /// The socket-dedication sampler, when that strategy is active.
    pub fn sampler(&self) -> Option<&DedicationSampler> {
        self.sampler.as_ref()
    }

    /// The current pollution estimate (`llc_cap_act`, misses/ms) of a vCPU.
    pub fn measured_llc_cap(&self, vcpu: VcpuId) -> Option<f64> {
        self.estimates.get(&vcpu).copied()
    }

    /// The quota accounting of a vCPU, when its VM booked a permit.
    pub fn quota(&self, vcpu: VcpuId) -> Option<&PollutionQuota> {
        self.quotas.get(&vcpu)
    }

    /// Whether a vCPU is currently punished.
    pub fn is_punished(&self, vcpu: VcpuId) -> bool {
        self.quotas
            .get(&vcpu)
            .map(|q| q.is_punished())
            .unwrap_or(false)
    }

    /// Books (or re-books) a permit for every vCPU of `vm`.
    pub fn set_vm_permit(&mut self, vm: VmId, permit: LlcCap) {
        let slice_ms = self.config.slice_ms();
        for vcpu in self.vcpus.iter().filter(|v| v.vm == vm) {
            self.quotas
                .insert(*vcpu, PollutionQuota::new(permit, slice_ms));
        }
    }

    /// Removes the permit of every vCPU of `vm` (the VM is no longer
    /// subject to pollution enforcement).
    pub fn clear_vm_permit(&mut self, vm: VmId) {
        self.quotas.retain(|vcpu, _| vcpu.vm != vm);
    }

    fn socket_of_core(&self, core: CoreId) -> usize {
        core.0 / self.config.cores_per_socket.max(1)
    }

    fn attribute(&self, vcpu: VcpuId, report: &TickReport) -> (f64, Option<f64>) {
        let raw_misses = report.pmc_delta.llc_misses as f64;
        let raw_estimate = llc_cap_act_from_pmcs(&report.pmc_delta, self.config.freq_khz);
        match self.config.strategy {
            MonitoringStrategy::DirectPmc => (raw_misses, Some(raw_estimate)),
            MonitoringStrategy::SimulatorAttribution => {
                let misses = report
                    .shadow_llc_misses
                    .map(|m| m as f64)
                    .unwrap_or(raw_misses);
                let estimate = llc_cap_act(
                    misses.round() as u64,
                    report.pmc_delta.unhalted_core_cycles,
                    self.config.freq_khz,
                );
                (misses, Some(estimate))
            }
            MonitoringStrategy::SocketDedication(_) => {
                let sampling_me = self
                    .sampler
                    .as_ref()
                    .and_then(|s| s.sampling_target())
                    .map(|t| t == vcpu)
                    .unwrap_or(false);
                if sampling_me {
                    // The socket is dedicated: the raw counters are the solo
                    // counters.
                    (raw_misses, Some(raw_estimate))
                } else {
                    // Outside a dedicated window, charge the last known
                    // estimate; fall back to the raw counters until the vCPU
                    // has been sampled at least once.
                    let consumed_ms = report.consumed_cycles as f64 / self.config.freq_khz as f64;
                    match self.estimates.get(&vcpu) {
                        Some(&estimate) => (estimate * consumed_ms, None),
                        None => (raw_misses, Some(raw_estimate)),
                    }
                }
            }
        }
    }
}

impl<S: Scheduler> Scheduler for KyotoScheduler<S> {
    fn add_vcpu(&mut self, vcpu: VcpuId, config: &VmConfig) {
        self.inner.add_vcpu(vcpu, config);
        self.vcpus.push(vcpu);
        if let Some(llc_cap) = config.llc_cap {
            self.quotas.insert(
                vcpu,
                PollutionQuota::new(LlcCap::new(llc_cap), self.config.slice_ms()),
            );
        }
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.register(vcpu);
        }
    }

    fn remove_vcpu(&mut self, vcpu: VcpuId) {
        self.inner.remove_vcpu(vcpu);
        self.vcpus.retain(|&v| v != vcpu);
        self.quotas.remove(&vcpu);
        self.estimates.remove(&vcpu);
        self.blocked.remove(&vcpu);
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.unregister(vcpu);
        }
    }

    fn pick_next(&mut self, core: CoreId, candidates: &[VcpuId]) -> Option<VcpuId> {
        // Punished vCPUs cannot use the processor at all — this is the
        // enforcement lever of the whole mechanism, so it is *not*
        // work-conserving for them.
        let mut filtered: Vec<VcpuId> = candidates
            .iter()
            .copied()
            .filter(|vcpu| !self.is_punished(*vcpu))
            .collect();

        // During a socket-dedication sampling window, socket 0 is reserved
        // for the sampled vCPU and everyone else is pushed to the other
        // socket(s).
        if let Some(target) = self.sampler.as_ref().and_then(|s| s.sampling_target()) {
            if self.socket_of_core(core) == 0 {
                filtered.retain(|&v| v == target);
            } else {
                filtered.retain(|&v| v != target);
            }
        }

        self.inner.pick_next(core, &filtered)
    }

    fn set_runnable(&mut self, vcpu: VcpuId, runnable: bool) {
        // Blocked vCPUs leave the sampling rotation for as long as they
        // sleep: dedicating the socket to a parked vCPU would measure an
        // empty window, and the abort path frees a window already open.
        // Their quota accounting freezes with them (see `on_tick`).
        if runnable {
            self.blocked.remove(&vcpu);
        } else {
            self.blocked.insert(vcpu);
        }
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.set_blocked(vcpu, !runnable);
        }
        self.inner.set_runnable(vcpu, runnable);
    }

    fn account(&mut self, vcpu: VcpuId, report: &TickReport) {
        let (attributed_misses, new_estimate) = self.attribute(vcpu, report);
        if let Some(estimate) = new_estimate {
            let entry = self.estimates.entry(vcpu).or_insert(estimate);
            // Light exponential smoothing keeps the estimate stable across
            // ticks without hiding workload phase changes.
            *entry = 0.5 * *entry + 0.5 * estimate;
        }
        if let Some(quota) = self.quotas.get_mut(&vcpu) {
            quota.debit(attributed_misses);
        }
        self.inner.account(vcpu, report);
    }

    fn on_tick(&mut self, tick: u64) {
        self.inner.on_tick(tick);
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.on_tick(&self.estimates);
        }
        if (tick + 1).is_multiple_of(u64::from(self.config.ticks_per_slice)) {
            let slice_ms = self.config.slice_ms();
            for (vcpu, quota) in self.quotas.iter_mut() {
                // A Blocked vCPU's quota stands still: no earnings accrue
                // while it sleeps, so a punished VM cannot serve out its
                // punishment — nor bank fresh budget — by blocking.
                if !self.blocked.contains(vcpu) {
                    quota.earn(slice_ms);
                }
            }
        }
    }

    fn priority(&self, vcpu: VcpuId) -> Priority {
        if self.is_punished(vcpu) {
            Priority::Over
        } else {
            self.inner.priority(vcpu)
        }
    }

    fn punishments(&self, vcpu: VcpuId) -> u64 {
        self.quotas.get(&vcpu).map(|q| q.punishments()).unwrap_or(0)
    }

    fn overrides(&self, vcpu: VcpuId) -> ExecOverrides {
        let force_remote = self
            .sampler
            .as_ref()
            .map(|s| s.is_migrated(vcpu))
            .unwrap_or(false);
        ExecOverrides { force_remote }
    }

    fn name(&self) -> &'static str {
        match self.inner.name() {
            "xcs" => "ks4xen",
            "cfs" => "ks4linux",
            "pisces" => "ks4pisces",
            _ => "kyoto",
        }
    }
}

/// Builds a KS4Xen scheduler sized for `machine`.
pub fn ks4xen(
    machine: &MachineConfig,
    hypervisor: &HypervisorConfig,
    strategy: MonitoringStrategy,
) -> Ks4Xen {
    let credit = CreditScheduler::new(CreditConfig::new(
        machine.num_cores(),
        machine.freq_khz * hypervisor.tick_ms,
        hypervisor.ticks_per_slice,
    ));
    KyotoScheduler::new(
        credit,
        KyotoConfig::from_machine(machine, hypervisor, strategy),
    )
}

/// Builds a KS4Linux scheduler sized for `machine`.
pub fn ks4linux(
    machine: &MachineConfig,
    hypervisor: &HypervisorConfig,
    strategy: MonitoringStrategy,
) -> Ks4Linux {
    let cfs = CfsScheduler::new(CfsConfig::new(
        machine.freq_khz * hypervisor.tick_ms,
        hypervisor.ticks_per_slice,
    ));
    KyotoScheduler::new(
        cfs,
        KyotoConfig::from_machine(machine, hypervisor, strategy),
    )
}

/// Builds a KS4Pisces scheduler sized for `machine`.
pub fn ks4pisces(
    machine: &MachineConfig,
    hypervisor: &HypervisorConfig,
    strategy: MonitoringStrategy,
) -> Ks4Pisces {
    let pisces = PiscesScheduler::new(machine.num_cores());
    KyotoScheduler::new(
        pisces,
        KyotoConfig::from_machine(machine, hypervisor, strategy),
    )
}

/// Builds a complete Kyoto-enabled Xen hypervisor (KS4Xen) for `machine`.
pub fn ks4xen_hypervisor(
    machine: Machine,
    hypervisor: HypervisorConfig,
    strategy: MonitoringStrategy,
) -> Hypervisor<Ks4Xen> {
    let scheduler = ks4xen(machine.config(), &hypervisor, strategy);
    Hypervisor::new(machine, scheduler, hypervisor)
}

/// Builds a complete Kyoto-enabled KVM hypervisor (KS4Linux) for `machine`.
pub fn ks4linux_hypervisor(
    machine: Machine,
    hypervisor: HypervisorConfig,
    strategy: MonitoringStrategy,
) -> Hypervisor<Ks4Linux> {
    let scheduler = ks4linux(machine.config(), &hypervisor, strategy);
    Hypervisor::new(machine, scheduler, hypervisor)
}

/// Builds a complete Kyoto-enabled Pisces system (KS4Pisces) for `machine`.
pub fn ks4pisces_hypervisor(
    machine: Machine,
    hypervisor: HypervisorConfig,
    strategy: MonitoringStrategy,
) -> Hypervisor<Ks4Pisces> {
    let scheduler = ks4pisces(machine.config(), &hypervisor, strategy);
    Hypervisor::new(machine, scheduler, hypervisor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyoto_sim::pmc::PmcSet;

    fn config(strategy: MonitoringStrategy) -> KyotoConfig {
        KyotoConfig::from_machine(
            &MachineConfig::scaled_paper_machine(64),
            &HypervisorConfig::default(),
            strategy,
        )
    }

    fn scheduler(strategy: MonitoringStrategy) -> Ks4Xen {
        ks4xen(
            &MachineConfig::scaled_paper_machine(64),
            &HypervisorConfig::default(),
            strategy,
        )
    }

    fn vcpu(vm: u16) -> VcpuId {
        VcpuId::new(VmId(vm), 0)
    }

    fn polluting_report(misses: u64, cycles: u64) -> TickReport {
        TickReport {
            consumed_cycles: cycles,
            budget_cycles: cycles,
            pmc_delta: PmcSet {
                instructions: cycles / 4,
                unhalted_core_cycles: cycles,
                llc_references: misses * 2,
                llc_misses: misses,
                memory_accesses: misses * 3,
                ..PmcSet::default()
            },
            pollution_events: misses / 2,
            shadow_llc_misses: None,
            tick_ms: 10,
        }
    }

    #[test]
    fn vm_without_permit_is_never_punished() {
        let mut s = scheduler(MonitoringStrategy::DirectPmc);
        s.add_vcpu(vcpu(1), &VmConfig::new("legacy"));
        s.account(vcpu(1), &polluting_report(1_000_000, 400_000));
        assert!(!s.is_punished(vcpu(1)));
        assert_eq!(s.punishments(vcpu(1)), 0);
        assert_eq!(s.quota(vcpu(1)), None);
    }

    #[test]
    fn exceeding_the_permit_triggers_punishment_and_recovery() {
        let mut s = scheduler(MonitoringStrategy::DirectPmc);
        // Permit of 100 misses/ms; slice = 30 ms => 3000 misses per slice.
        s.add_vcpu(vcpu(1), &VmConfig::new("polluter").with_llc_cap(100.0));
        // One tick with 50k misses blows through the quota.
        s.account(vcpu(1), &polluting_report(50_000, 400_000));
        assert!(s.is_punished(vcpu(1)));
        assert_eq!(s.priority(vcpu(1)), Priority::Over);
        assert_eq!(s.punishments(vcpu(1)), 1);
        // The punished vCPU is excluded from scheduling even as the only candidate.
        assert_eq!(s.pick_next(CoreId(0), &[vcpu(1)]), None);
        // Earning quota at slice boundaries eventually releases it.
        for tick in 0..3 * 20 {
            s.on_tick(tick);
        }
        assert!(!s.is_punished(vcpu(1)));
        assert_eq!(s.pick_next(CoreId(0), &[vcpu(1)]), Some(vcpu(1)));
    }

    #[test]
    fn vm_within_its_permit_is_not_punished() {
        let mut s = scheduler(MonitoringStrategy::DirectPmc);
        // Generous permit: 10k misses/ms while the VM only produces 100/tick.
        s.add_vcpu(vcpu(1), &VmConfig::new("modest").with_llc_cap(10_000.0));
        for tick in 0..30 {
            s.account(vcpu(1), &polluting_report(100, 400_000));
            s.on_tick(tick);
        }
        assert!(!s.is_punished(vcpu(1)));
        assert_eq!(s.punishments(vcpu(1)), 0);
    }

    #[test]
    fn measured_llc_cap_tracks_equation_1() {
        let mut s = scheduler(MonitoringStrategy::DirectPmc);
        s.add_vcpu(vcpu(1), &VmConfig::new("a"));
        let report = polluting_report(5_000, 437_500); // freq/64 = 43750 kHz
        s.account(vcpu(1), &report);
        let expected = llc_cap_act_from_pmcs(&report.pmc_delta, s.config().freq_khz);
        let measured = s.measured_llc_cap(vcpu(1)).unwrap();
        assert!((measured - expected).abs() < 1e-6);
    }

    #[test]
    fn simulator_strategy_uses_shadow_misses() {
        let mut s = scheduler(MonitoringStrategy::SimulatorAttribution);
        s.add_vcpu(vcpu(1), &VmConfig::new("victim").with_llc_cap(1_000.0));
        // Raw counters show 100k misses (inflated by contention) but the
        // shadow replay says the VM alone would only have missed 10 times.
        let mut report = polluting_report(100_000, 400_000);
        report.shadow_llc_misses = Some(10);
        s.account(vcpu(1), &report);
        assert!(
            !s.is_punished(vcpu(1)),
            "the VM must not be punished for contention-induced misses"
        );
        let estimate = s.measured_llc_cap(vcpu(1)).unwrap();
        let raw = llc_cap_act_from_pmcs(&report.pmc_delta, s.config().freq_khz);
        assert!(estimate < raw / 100.0);
    }

    #[test]
    fn direct_pmc_strategy_punishes_inflated_misses() {
        // The contrast with the previous test: without attribution the same
        // inflated counters do punish the VM.
        let mut s = scheduler(MonitoringStrategy::DirectPmc);
        s.add_vcpu(vcpu(1), &VmConfig::new("victim").with_llc_cap(1_000.0));
        let mut report = polluting_report(100_000, 400_000);
        report.shadow_llc_misses = Some(10);
        s.account(vcpu(1), &report);
        assert!(s.is_punished(vcpu(1)));
    }

    #[test]
    fn socket_dedication_reserves_socket_zero_for_the_target() {
        let dedication = SocketDedicationConfig {
            sampling_ticks: 5,
            interval_ticks: 1,
            ..SocketDedicationConfig::default()
        };
        let machine = MachineConfig::scaled_paper_numa_machine(64);
        let mut s = ks4xen(
            &machine,
            &HypervisorConfig::default(),
            MonitoringStrategy::SocketDedication(dedication),
        );
        s.add_vcpu(vcpu(1), &VmConfig::new("a"));
        s.add_vcpu(vcpu(2), &VmConfig::new("b"));
        // Advance until a sampling window opens.
        s.on_tick(0);
        let target = s.sampler().unwrap().sampling_target().expect("window open");
        let other = if target == vcpu(1) { vcpu(2) } else { vcpu(1) };
        // Socket 0 cores only accept the target.
        assert_eq!(s.pick_next(CoreId(0), &[vcpu(1), vcpu(2)]), Some(target));
        assert_eq!(s.pick_next(CoreId(1), &[other]), None);
        // Socket 1 cores (cores 4..8 on the NUMA machine) only accept the others.
        assert_eq!(s.pick_next(CoreId(4), &[vcpu(1), vcpu(2)]), Some(other));
        // Migrated vCPUs pay remote-memory latency.
        assert!(s.overrides(other).force_remote);
        assert!(!s.overrides(target).force_remote);
    }

    #[test]
    fn socket_dedication_uses_stale_estimates_outside_windows() {
        let dedication = SocketDedicationConfig {
            sampling_ticks: 1,
            interval_ticks: 100,
            ..SocketDedicationConfig::default()
        };
        let machine = MachineConfig::scaled_paper_numa_machine(64);
        let mut s = ks4xen(
            &machine,
            &HypervisorConfig::default(),
            MonitoringStrategy::SocketDedication(dedication),
        );
        s.add_vcpu(vcpu(1), &VmConfig::new("a").with_llc_cap(1_000_000.0));
        // Before any sampling the raw counters are used (fallback).
        s.account(vcpu(1), &polluting_report(100, 437_500));
        assert!(s.measured_llc_cap(vcpu(1)).is_some());
        let before = s.measured_llc_cap(vcpu(1)).unwrap();
        // Outside a window, a wildly different raw value does not move the
        // estimate (it is attributed from the stored rate instead).
        s.account(vcpu(1), &polluting_report(1_000_000, 437_500));
        let after = s.measured_llc_cap(vcpu(1)).unwrap();
        assert!((after - before).abs() < 1e-9);
    }

    #[test]
    fn permits_can_be_rebooked_at_runtime() {
        let mut s = scheduler(MonitoringStrategy::DirectPmc);
        s.add_vcpu(vcpu(1), &VmConfig::new("a"));
        assert_eq!(s.quota(vcpu(1)), None);
        s.set_vm_permit(VmId(1), LlcCap::kilo(50.0));
        assert!(s.quota(vcpu(1)).is_some());
        assert_eq!(s.quota(vcpu(1)).unwrap().booked().misses_per_ms(), 50_000.0);
        s.clear_vm_permit(VmId(1));
        assert_eq!(s.quota(vcpu(1)), None);
    }

    #[test]
    fn scheduler_names_reflect_the_substrate() {
        let machine = MachineConfig::scaled_paper_machine(64);
        let hv = HypervisorConfig::default();
        assert_eq!(
            ks4xen(&machine, &hv, MonitoringStrategy::DirectPmc).name(),
            "ks4xen"
        );
        assert_eq!(
            ks4linux(&machine, &hv, MonitoringStrategy::DirectPmc).name(),
            "ks4linux"
        );
        assert_eq!(
            ks4pisces(&machine, &hv, MonitoringStrategy::DirectPmc).name(),
            "ks4pisces"
        );
    }

    #[test]
    fn removing_a_vcpu_clears_its_kyoto_state() {
        let mut s = scheduler(MonitoringStrategy::DirectPmc);
        s.add_vcpu(vcpu(1), &VmConfig::new("a").with_llc_cap(10.0));
        s.account(vcpu(1), &polluting_report(100, 400_000));
        s.remove_vcpu(vcpu(1));
        assert_eq!(s.quota(vcpu(1)), None);
        assert_eq!(s.measured_llc_cap(vcpu(1)), None);
    }

    #[test]
    fn config_slice_duration() {
        let c = config(MonitoringStrategy::DirectPmc);
        assert_eq!(c.slice_ms(), 30.0);
    }

    #[test]
    fn quota_state_is_independent_of_registration_order() {
        // The quota-earn fold at slice boundaries and the sampler's estimate
        // walk iterate the quota/estimate maps; both are BTreeMaps so two
        // fleets registered in opposite orders stay bit-identical.
        let vms = [(5u16, 80.0), (1, 40.0), (3, 120.0), (2, 60.0)];
        let mut forward = scheduler(MonitoringStrategy::DirectPmc);
        for &(vm, cap) in &vms {
            forward.add_vcpu(vcpu(vm), &VmConfig::new("p").with_llc_cap(cap));
        }
        let mut reverse = scheduler(MonitoringStrategy::DirectPmc);
        for &(vm, cap) in vms.iter().rev() {
            reverse.add_vcpu(vcpu(vm), &VmConfig::new("p").with_llc_cap(cap));
        }
        for tick in 0..3 * 20u64 {
            for &(vm, _) in &vms {
                let charge = polluting_report(u64::from(vm) * 500, 400_000);
                forward.account(vcpu(vm), &charge);
                reverse.account(vcpu(vm), &charge);
            }
            forward.on_tick(tick);
            reverse.on_tick(tick);
        }
        for &(vm, _) in &vms {
            assert_eq!(forward.punishments(vcpu(vm)), reverse.punishments(vcpu(vm)));
            assert_eq!(forward.is_punished(vcpu(vm)), reverse.is_punished(vcpu(vm)));
            let f = forward.quota(vcpu(vm)).map(|q| q.quota());
            let r = reverse.quota(vcpu(vm)).map(|q| q.quota());
            assert_eq!(f, r, "vcpu {vm} quota diverged on registration order");
        }
    }
}
