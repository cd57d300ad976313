//! The scheduler abstraction shared by XCS, CFS, Pisces and the Kyoto
//! schedulers built on top of them.
//!
//! The hypervisor drives the machine in fixed ticks (10 ms in Xen). At every
//! tick it asks the scheduler, core by core, which runnable vCPU to place
//! next, runs the chosen vCPUs for one tick on the simulated machine, and
//! feeds the per-vCPU execution report back into the scheduler for
//! accounting. Schedulers are purely reactive state machines, which is what
//! makes the Kyoto extension (`kyoto-core`) a thin wrapper: it only adds the
//! pollution-quota bookkeeping and an extra "cannot run" condition.

use crate::vm::{VcpuId, VmConfig};
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::topology::CoreId;

/// Scheduling priority of a vCPU, following the Xen credit scheduler's
/// terminology: `UNDER` vCPUs still have credit (or quota) left and may run,
/// `OVER` vCPUs have exhausted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// The vCPU has remaining credit and is eligible to run.
    Under,
    /// The vCPU has exhausted its credit; it only runs when no `UNDER` vCPU
    /// is runnable (work-conserving behaviour).
    Over,
}

/// Per-tick execution report handed to [`Scheduler::account`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// Cycles the vCPU actually consumed during the tick.
    pub consumed_cycles: u64,
    /// The tick's cycle budget (what a fully used tick would consume).
    pub budget_cycles: u64,
    /// Performance-counter delta of the tick (the perfctr-xen sample).
    pub pmc_delta: PmcSet,
    /// LLC fills by this vCPU that evicted another owner's line.
    pub pollution_events: u64,
    /// Solo LLC misses estimated by the simulator-based attribution for this
    /// tick, when shadow attribution is enabled on the engine.
    pub shadow_llc_misses: Option<u64>,
    /// Duration of the tick in milliseconds.
    pub tick_ms: u64,
}

/// Execution-environment overrides a scheduler may impose on a vCPU.
///
/// The Kyoto socket-dedication monitor uses this to model vCPUs temporarily
/// migrated to the other socket during a sampling window: their memory stays
/// behind, so their LLC misses pay the remote-memory latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOverrides {
    /// Charge remote-memory latency for every LLC miss of this vCPU.
    pub force_remote: bool,
}

/// A vCPU scheduler.
///
/// Implementations must be deterministic: given the same sequence of calls
/// they must take the same decisions, so experiments are reproducible.
pub trait Scheduler {
    /// Registers a vCPU with its VM configuration.
    fn add_vcpu(&mut self, vcpu: VcpuId, config: &VmConfig);

    /// Removes a vCPU (VM destroyed).
    fn remove_vcpu(&mut self, vcpu: VcpuId);

    /// Chooses which of `candidates` should run on `core` for the next tick.
    ///
    /// `candidates` only contains *runnable* vCPUs: the hypervisor filters
    /// out Blocked vCPUs (see `kyoto_hypervisor::lifecycle::VcpuState`) in
    /// addition to pinning constraints and vCPUs already placed on another
    /// core this tick. A scheduler therefore never sees — and must never
    /// return — a sleeping vCPU. Returning `None` leaves the core idle.
    fn pick_next(&mut self, core: CoreId, candidates: &[VcpuId]) -> Option<VcpuId>;

    /// Feeds the execution report of the tick back for accounting (credit
    /// burn, quota debit, ...).
    fn account(&mut self, vcpu: VcpuId, report: &TickReport);

    /// Notifies the scheduler that tick `tick` has completed on every core.
    /// Periodic work (credit refill, quota earn) happens here.
    fn on_tick(&mut self, tick: u64);

    /// Current priority of a vCPU.
    fn priority(&self, vcpu: VcpuId) -> Priority;

    /// How many times the scheduler punished this vCPU (forced it to
    /// priority `OVER` because its measured pollution exceeded its permit).
    /// Non-Kyoto schedulers never punish and return `0`.
    fn punishments(&self, vcpu: VcpuId) -> u64 {
        let _ = vcpu;
        0
    }

    /// Execution-environment overrides for a vCPU (see [`ExecOverrides`]).
    fn overrides(&self, vcpu: VcpuId) -> ExecOverrides {
        let _ = vcpu;
        ExecOverrides::default()
    }

    /// Notifies the scheduler that `vcpu` became runnable (`true`, woken
    /// from Blocked) or unrunnable (`false`, blocked). Most schedulers can
    /// ignore this — a Blocked vCPU simply stops appearing in `pick_next`
    /// candidate lists — but schedulers with out-of-band sampling (the Kyoto
    /// dedication sampler) use it to avoid targeting sleeping vCPUs.
    fn set_runnable(&mut self, vcpu: VcpuId, runnable: bool) {
        let _ = (vcpu, runnable);
    }

    /// Short name used in reports ("xcs", "ks4xen", "cfs", ...).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmId;

    /// A scheduler that always picks the first candidate; used to check the
    /// trait's default methods.
    struct FirstComeScheduler;

    impl Scheduler for FirstComeScheduler {
        fn add_vcpu(&mut self, _vcpu: VcpuId, _config: &VmConfig) {}
        fn remove_vcpu(&mut self, _vcpu: VcpuId) {}
        fn pick_next(&mut self, _core: CoreId, candidates: &[VcpuId]) -> Option<VcpuId> {
            candidates.first().copied()
        }
        fn account(&mut self, _vcpu: VcpuId, _report: &TickReport) {}
        fn on_tick(&mut self, _tick: u64) {}
        fn priority(&self, _vcpu: VcpuId) -> Priority {
            Priority::Under
        }
        fn name(&self) -> &'static str {
            "first-come"
        }
    }

    #[test]
    fn default_trait_methods() {
        let mut scheduler = FirstComeScheduler;
        let vcpu = VcpuId::new(VmId(1), 0);
        assert_eq!(scheduler.punishments(vcpu), 0);
        assert_eq!(scheduler.overrides(vcpu), ExecOverrides::default());
        assert!(!scheduler.overrides(vcpu).force_remote);
        // set_runnable is a default no-op; it must at least be callable.
        scheduler.set_runnable(vcpu, false);
        scheduler.set_runnable(vcpu, true);
    }

    #[test]
    fn object_safety() {
        // The trait must stay object-safe: the hypervisor stores `Box<dyn Scheduler>`
        // in some experiment drivers.
        let mut boxed: Box<dyn Scheduler> = Box::new(FirstComeScheduler);
        let vcpu = VcpuId::new(VmId(1), 0);
        assert_eq!(boxed.pick_next(CoreId(0), &[vcpu]), Some(vcpu));
        assert_eq!(boxed.name(), "first-come");
    }
}
