//! Pollution-monitoring strategies (Section 3.3 of the paper).
//!
//! Computing a VM's `llc_cap_act` needs LLC statistics *attributable to that
//! VM alone*, which is hard when several VMs run in parallel atop the same
//! LLC ("a VM should not be punished for the pollution of another VM"). The
//! paper describes two solutions, both modelled here, plus the naive
//! baseline:
//!
//! * [`MonitoringStrategy::DirectPmc`] — read the per-vCPU virtualised
//!   counters as-is. Under contention the counts are inflated by the misses
//!   other VMs induce, which is exactly the inaccuracy Fig. 10 quantifies
//!   ("Not isolated" bars).
//! * [`MonitoringStrategy::SocketDedication`] — periodically dedicate the
//!   socket to the vCPU being sampled and migrate every other vCPU to the
//!   other socket for the duration of the sample. Accurate, but the migrated
//!   vCPUs pay remote-memory latencies (Fig. 9); two heuristics allow the
//!   sampling to be skipped (Fig. 10).
//! * [`MonitoringStrategy::SimulatorAttribution`] — replay the vCPU's access
//!   stream in a private micro-architectural simulator (McSimA+ in the
//!   paper, the shadow-LLC of `kyoto-sim` here) and use the solo miss count
//!   it reports (Fig. 11).

use kyoto_hypervisor::vm::VcpuId;
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of the socket-dedication monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketDedicationConfig {
    /// Length of one sampling window, in scheduler ticks.
    pub sampling_ticks: u64,
    /// Idle ticks between two consecutive sampling windows.
    pub interval_ticks: u64,
    /// Heuristic 1 (Fig. 10): skip the isolation of vCPUs whose last
    /// estimate is below [`SocketDedicationConfig::low_pollution_threshold`]
    /// — they are neither disturbers nor sensitive.
    pub skip_low_polluters: bool,
    /// Heuristic 2 (Fig. 10): skip the isolation when every *other* vCPU is
    /// below the threshold — the co-runners are quiet, so the raw counters
    /// are already close to the solo value.
    pub skip_when_neighbours_quiet: bool,
    /// Threshold (misses per ms) below which a vCPU counts as a low polluter.
    pub low_pollution_threshold: f64,
}

impl Default for SocketDedicationConfig {
    fn default() -> Self {
        SocketDedicationConfig {
            sampling_ticks: 3,
            interval_ticks: 9,
            skip_low_polluters: false,
            skip_when_neighbours_quiet: false,
            low_pollution_threshold: 1_000.0,
        }
    }
}

/// How the Kyoto scheduler attributes LLC statistics to individual vCPUs.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum MonitoringStrategy {
    /// Use the per-vCPU virtualised counters directly (no isolation).
    #[default]
    DirectPmc,
    /// Periodically dedicate the socket to the sampled vCPU.
    SocketDedication(SocketDedicationConfig),
    /// Use the shadow-LLC (simulator) solo-miss estimate.
    SimulatorAttribution,
}

impl MonitoringStrategy {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            MonitoringStrategy::DirectPmc => "direct-pmc",
            MonitoringStrategy::SocketDedication(_) => "socket-dedication",
            MonitoringStrategy::SimulatorAttribution => "simulator",
        }
    }
}

/// Phase of the socket-dedication state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No sampling in progress.
    Idle {
        /// Ticks until the next sampling window opens.
        remaining: u64,
    },
    /// A vCPU is being sampled with the socket dedicated to it.
    Sampling {
        /// The sampled vCPU.
        target: VcpuId,
        /// Ticks left in the window.
        remaining: u64,
    },
}

/// Rotating socket-dedication sampler.
///
/// The sampler cycles through the monitored vCPUs; while a vCPU is being
/// sampled, every other vCPU is considered *migrated*: the Kyoto scheduler
/// keeps it off the dedicated socket and charges it remote-memory latency.
#[derive(Debug, Clone)]
pub struct DedicationSampler {
    config: SocketDedicationConfig,
    rotation: Vec<VcpuId>,
    /// vCPUs currently Blocked (WFI): they execute nothing, so dedicating
    /// the socket to one would measure an empty window. They stay in the
    /// rotation and are sampled again once they wake.
    blocked: BTreeSet<VcpuId>,
    next_index: usize,
    phase: Phase,
    samples_taken: u64,
    samples_skipped: u64,
}

impl DedicationSampler {
    /// Creates an idle sampler.
    pub fn new(config: SocketDedicationConfig) -> Self {
        DedicationSampler {
            config,
            rotation: Vec::new(),
            blocked: BTreeSet::new(),
            next_index: 0,
            phase: Phase::Idle {
                remaining: config.interval_ticks,
            },
            samples_taken: 0,
            samples_skipped: 0,
        }
    }

    /// Registers a vCPU in the sampling rotation.
    pub fn register(&mut self, vcpu: VcpuId) {
        if !self.rotation.contains(&vcpu) {
            self.rotation.push(vcpu);
        }
    }

    /// Removes a vCPU from the rotation.
    pub fn unregister(&mut self, vcpu: VcpuId) {
        self.rotation.retain(|&v| v != vcpu);
        self.blocked.remove(&vcpu);
        if let Phase::Sampling { target, .. } = self.phase {
            if target == vcpu {
                self.phase = Phase::Idle {
                    remaining: self.config.interval_ticks,
                };
            }
        }
    }

    /// Marks a vCPU Blocked (parked on a WFI) or runnable again. Blocked
    /// vCPUs are passed over when a sampling window opens, and a target
    /// that blocks *mid-window* aborts its window on the spot — the socket
    /// would otherwise stay dedicated to a vCPU that executes nothing. The
    /// aborted window counts neither as taken nor as heuristically skipped.
    pub fn set_blocked(&mut self, vcpu: VcpuId, blocked: bool) {
        if blocked {
            self.blocked.insert(vcpu);
            if self.sampling_target() == Some(vcpu) {
                self.phase = Phase::Idle {
                    remaining: self.config.interval_ticks,
                };
            }
        } else {
            self.blocked.remove(&vcpu);
        }
    }

    /// Whether a vCPU is currently marked Blocked.
    pub fn is_blocked(&self, vcpu: VcpuId) -> bool {
        self.blocked.contains(&vcpu)
    }

    /// The vCPU currently being sampled, if any.
    pub fn sampling_target(&self) -> Option<VcpuId> {
        match self.phase {
            Phase::Sampling { target, .. } => Some(target),
            Phase::Idle { .. } => None,
        }
    }

    /// Whether `vcpu` is currently migrated away from the dedicated socket.
    pub fn is_migrated(&self, vcpu: VcpuId) -> bool {
        matches!(self.phase, Phase::Sampling { target, .. } if target != vcpu)
    }

    /// Number of sampling windows completed so far.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Number of sampling windows skipped *entirely* by the heuristics: the
    /// window would have opened, every candidate in the rotation was judged
    /// not to need isolation, and no vCPU was sampled for the whole window.
    ///
    /// Each skipped window counts exactly once, however many candidates the
    /// rotation holds. (An earlier version counted one skip per *candidate*
    /// considered, so a fully-skipped window over an `n`-vCPU rotation
    /// inflated the counter by `n` — overstating the Fig. 10 heuristic
    /// savings by the rotation length.) A window that passes over some
    /// low-pollution candidates but ends up sampling someone counts as
    /// taken, not skipped: isolation still happened, so nothing was saved.
    pub fn samples_skipped(&self) -> u64 {
        self.samples_skipped
    }

    /// Advances the state machine by one tick. `estimates` maps vCPUs to
    /// their last known pollution estimate (misses/ms) and feeds the two
    /// skip heuristics.
    pub fn on_tick(&mut self, estimates: &BTreeMap<VcpuId, f64>) {
        match &mut self.phase {
            Phase::Sampling { remaining, .. } => {
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    self.samples_taken += 1;
                    self.phase = Phase::Idle {
                        remaining: self.config.interval_ticks,
                    };
                }
            }
            Phase::Idle { remaining } => {
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    self.start_next_window(estimates);
                }
            }
        }
    }

    fn start_next_window(&mut self, estimates: &BTreeMap<VcpuId, f64>) {
        if self.rotation.is_empty() {
            self.phase = Phase::Idle {
                remaining: self.config.interval_ticks,
            };
            return;
        }
        // Try each vCPU in rotation order until one needs isolation.
        // Blocked vCPUs are passed over outright — they execute nothing,
        // so a window dedicated to one would measure an empty socket.
        let mut heuristic_skip = false;
        for _ in 0..self.rotation.len() {
            let target = self.rotation[self.next_index % self.rotation.len()];
            self.next_index = (self.next_index + 1) % self.rotation.len();
            if self.blocked.contains(&target) {
                continue;
            }
            if self.should_skip(target, estimates) {
                heuristic_skip = true;
                continue;
            }
            self.phase = Phase::Sampling {
                target,
                remaining: self.config.sampling_ticks.max(1),
            };
            return;
        }
        // Every candidate was passed over. The window counts as a heuristic
        // saving only when a heuristic did the skipping (once per window,
        // not per candidate — see [`DedicationSampler::samples_skipped`]);
        // a rotation that is merely asleep saves nothing worth reporting.
        if heuristic_skip {
            self.samples_skipped += 1;
        }
        self.phase = Phase::Idle {
            remaining: self.config.interval_ticks,
        };
    }

    fn should_skip(&self, target: VcpuId, estimates: &BTreeMap<VcpuId, f64>) -> bool {
        let threshold = self.config.low_pollution_threshold;
        if self.config.skip_low_polluters {
            if let Some(&estimate) = estimates.get(&target) {
                if estimate < threshold {
                    return true;
                }
            }
        }
        if self.config.skip_when_neighbours_quiet {
            let neighbours_quiet = self
                .rotation
                .iter()
                .filter(|&&v| v != target)
                .all(|v| estimates.get(v).copied().unwrap_or(f64::MAX) < threshold);
            if neighbours_quiet && !self.rotation.is_empty() && self.rotation.len() > 1 {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyoto_hypervisor::vm::VmId;

    fn vcpu(vm: u16) -> VcpuId {
        VcpuId::new(VmId(vm), 0)
    }

    fn sampler(config: SocketDedicationConfig) -> DedicationSampler {
        let mut s = DedicationSampler::new(config);
        s.register(vcpu(1));
        s.register(vcpu(2));
        s
    }

    fn tick_n(s: &mut DedicationSampler, n: u64, estimates: &BTreeMap<VcpuId, f64>) {
        for _ in 0..n {
            s.on_tick(estimates);
        }
    }

    #[test]
    fn sampler_rotates_through_vcpus() {
        let config = SocketDedicationConfig {
            sampling_ticks: 2,
            interval_ticks: 3,
            ..SocketDedicationConfig::default()
        };
        let mut s = sampler(config);
        let estimates = BTreeMap::new();
        assert_eq!(s.sampling_target(), None);
        tick_n(&mut s, 3, &estimates);
        let first = s.sampling_target().expect("a window should have opened");
        // Window runs for 2 ticks, then idles 3, then samples the other vCPU.
        tick_n(&mut s, 2, &estimates);
        assert_eq!(s.sampling_target(), None);
        tick_n(&mut s, 3, &estimates);
        let second = s.sampling_target().expect("second window");
        assert_ne!(first, second, "rotation should alternate targets");
        assert_eq!(s.samples_taken(), 1);
    }

    #[test]
    fn migration_applies_to_everyone_but_the_target() {
        let config = SocketDedicationConfig {
            sampling_ticks: 5,
            interval_ticks: 1,
            ..SocketDedicationConfig::default()
        };
        let mut s = sampler(config);
        let estimates = BTreeMap::new();
        tick_n(&mut s, 1, &estimates);
        let target = s.sampling_target().unwrap();
        let other = if target == vcpu(1) { vcpu(2) } else { vcpu(1) };
        assert!(!s.is_migrated(target));
        assert!(s.is_migrated(other));
        assert!(
            s.is_migrated(vcpu(99)),
            "unmonitored vCPUs are migrated too"
        );
    }

    #[test]
    fn no_sampling_without_registered_vcpus() {
        let mut s = DedicationSampler::new(SocketDedicationConfig {
            interval_ticks: 1,
            ..SocketDedicationConfig::default()
        });
        let estimates = BTreeMap::new();
        tick_n(&mut s, 10, &estimates);
        assert_eq!(s.sampling_target(), None);
        assert!(!s.is_migrated(vcpu(1)));
    }

    #[test]
    fn low_polluters_are_skipped_when_heuristic_enabled() {
        let config = SocketDedicationConfig {
            sampling_ticks: 2,
            interval_ticks: 1,
            skip_low_polluters: true,
            low_pollution_threshold: 1_000.0,
            ..SocketDedicationConfig::default()
        };
        let mut s = DedicationSampler::new(config);
        s.register(vcpu(1));
        s.register(vcpu(2));
        let mut estimates = BTreeMap::new();
        estimates.insert(vcpu(1), 10.0); // hmmer-like: way below threshold
        estimates.insert(vcpu(2), 50_000.0); // polluter
        for _ in 0..40 {
            s.on_tick(&estimates);
            if let Some(target) = s.sampling_target() {
                assert_eq!(target, vcpu(2), "the low polluter must never be isolated");
            }
        }
        assert!(s.samples_taken() > 0);
        // Every window still sampled the polluter, so no *window* was
        // skipped — passing over the low polluter inside a window that
        // isolates someone else saves nothing.
        assert_eq!(s.samples_skipped(), 0);
    }

    #[test]
    fn a_fully_skipped_window_counts_one_skip_not_one_per_candidate() {
        // Both vCPUs are below the threshold, so every window is skipped
        // entirely. With interval_ticks = 1 a window opportunity occurs on
        // every tick: after N ticks exactly N windows were skipped — not
        // N * rotation_len, which the pre-fix accounting reported and which
        // overstated the Fig. 10 heuristic savings.
        let config = SocketDedicationConfig {
            sampling_ticks: 2,
            interval_ticks: 1,
            skip_low_polluters: true,
            low_pollution_threshold: 1_000.0,
            ..SocketDedicationConfig::default()
        };
        let mut s = sampler(config);
        let mut estimates = BTreeMap::new();
        estimates.insert(vcpu(1), 10.0);
        estimates.insert(vcpu(2), 20.0);
        tick_n(&mut s, 25, &estimates);
        assert_eq!(s.sampling_target(), None);
        assert_eq!(s.samples_taken(), 0);
        assert_eq!(
            s.samples_skipped(),
            25,
            "one skip per skipped window, independent of rotation length"
        );
    }

    #[test]
    fn quiet_neighbours_skip_sampling_entirely() {
        let config = SocketDedicationConfig {
            sampling_ticks: 2,
            interval_ticks: 1,
            skip_when_neighbours_quiet: true,
            low_pollution_threshold: 1_000.0,
            ..SocketDedicationConfig::default()
        };
        let mut s = DedicationSampler::new(config);
        s.register(vcpu(1));
        s.register(vcpu(2));
        let mut estimates = BTreeMap::new();
        estimates.insert(vcpu(1), 10.0);
        estimates.insert(vcpu(2), 20.0);
        for _ in 0..40 {
            s.on_tick(&estimates);
            assert_eq!(
                s.sampling_target(),
                None,
                "when every co-runner is quiet no isolation is needed"
            );
        }
        assert!(s.samples_skipped() > 0);
    }

    #[test]
    fn unregistering_the_target_aborts_the_window() {
        let config = SocketDedicationConfig {
            sampling_ticks: 10,
            interval_ticks: 1,
            ..SocketDedicationConfig::default()
        };
        let mut s = sampler(config);
        let estimates = BTreeMap::new();
        tick_n(&mut s, 1, &estimates);
        let target = s.sampling_target().unwrap();
        s.unregister(target);
        assert_eq!(s.sampling_target(), None);
    }

    #[test]
    fn blocked_vcpus_are_passed_over_when_a_window_opens() {
        let config = SocketDedicationConfig {
            sampling_ticks: 2,
            interval_ticks: 3,
            ..SocketDedicationConfig::default()
        };
        let mut s = sampler(config);
        let estimates = BTreeMap::new();
        s.set_blocked(vcpu(1), true);
        assert!(s.is_blocked(vcpu(1)));
        // Three windows in a row: each must target the runnable vCPU 2.
        for _ in 0..3 {
            tick_n(&mut s, 3, &estimates);
            assert_eq!(s.sampling_target(), Some(vcpu(2)));
            tick_n(&mut s, 2, &estimates);
        }
        // Waking vCPU 1 puts it straight back into the rotation.
        s.set_blocked(vcpu(1), false);
        tick_n(&mut s, 3, &estimates);
        assert_eq!(s.sampling_target(), Some(vcpu(1)));
    }

    #[test]
    fn a_target_blocking_mid_window_aborts_the_window() {
        let config = SocketDedicationConfig {
            sampling_ticks: 5,
            interval_ticks: 1,
            ..SocketDedicationConfig::default()
        };
        let mut s = sampler(config);
        let estimates = BTreeMap::new();
        tick_n(&mut s, 1, &estimates);
        let target = s.sampling_target().unwrap();
        s.set_blocked(target, true);
        assert_eq!(
            s.sampling_target(),
            None,
            "the socket must not stay dedicated to a sleeping vCPU"
        );
        assert_eq!(s.samples_taken(), 0, "an aborted window is not a sample");
        assert_eq!(s.samples_skipped(), 0, "nor a heuristic saving");
    }

    #[test]
    fn an_all_blocked_rotation_opens_no_window_and_claims_no_savings() {
        let config = SocketDedicationConfig {
            sampling_ticks: 2,
            interval_ticks: 3,
            ..SocketDedicationConfig::default()
        };
        let mut s = sampler(config);
        let estimates = BTreeMap::new();
        s.set_blocked(vcpu(1), true);
        s.set_blocked(vcpu(2), true);
        tick_n(&mut s, 20, &estimates);
        assert_eq!(s.sampling_target(), None);
        assert_eq!(s.samples_taken(), 0);
        assert_eq!(
            s.samples_skipped(),
            0,
            "sleeping vCPUs are not a Fig. 10 heuristic saving"
        );
    }

    #[test]
    fn strategy_names_and_defaults() {
        assert_eq!(MonitoringStrategy::DirectPmc.name(), "direct-pmc");
        assert_eq!(MonitoringStrategy::SimulatorAttribution.name(), "simulator");
        assert_eq!(
            MonitoringStrategy::SocketDedication(SocketDedicationConfig::default()).name(),
            "socket-dedication"
        );
        assert_eq!(MonitoringStrategy::default(), MonitoringStrategy::DirectPmc);
        let config = SocketDedicationConfig::default();
        assert!(config.sampling_ticks >= 1);
        assert!(config.interval_ticks >= 1);
    }
}
