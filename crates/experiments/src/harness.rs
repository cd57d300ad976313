//! Shared scenario-execution helpers used by every figure module.

use crate::config::ExperimentConfig;
use kyoto_hypervisor::hypervisor::Hypervisor;
use kyoto_hypervisor::scheduler::Scheduler;
use kyoto_hypervisor::vm::{VmId, VmReport};
use kyoto_sim::fanout::fan_out;
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::topology::CoreId;
use kyoto_sim::workload::Workload;
use kyoto_workloads::spec::SpecApp;

/// The three co-location modes assessed in Section 2.2.4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// The representative VM runs alone on the machine.
    Alone,
    /// Representative and disruptive VMs time-share the same core.
    Alternative,
    /// Representative and disruptive VMs run simultaneously on different
    /// cores of the same socket.
    Parallel,
    /// Both at once: one disruptor shares the representative's core while a
    /// second one runs on a neighbouring core.
    Combined,
}

impl ExecutionMode {
    /// The three contended modes (everything except [`ExecutionMode::Alone`]).
    pub const CONTENDED: [ExecutionMode; 3] = [
        ExecutionMode::Alternative,
        ExecutionMode::Parallel,
        ExecutionMode::Combined,
    ];

    /// Display label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::Alone => "alone",
            ExecutionMode::Alternative => "alternative",
            ExecutionMode::Parallel => "parallel",
            ExecutionMode::Combined => "alternative+parallel",
        }
    }
}

/// Per-VM measurement taken over the measurement window only (warm-up
/// excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The measured VM.
    pub vm: VmId,
    /// Its configured name.
    pub name: String,
    /// Counter delta over the measurement window.
    pub pmc_delta: PmcSet,
    /// Ticks in the measurement window.
    pub ticks: u64,
    /// Ticks (within the window) during which the VM was scheduled.
    pub ticks_scheduled: u64,
    /// Punishments accumulated during the window.
    pub punishments: u64,
    /// Core frequency in kHz (to convert cycles to milliseconds).
    pub freq_khz: u64,
}

impl Measurement {
    /// Instructions per cycle while the VM was actually running — the
    /// performance metric of Section 2.2.3.
    pub fn ipc(&self) -> f64 {
        self.pmc_delta.ipc()
    }

    /// Instructions retired per elapsed tick: a wall-clock throughput, the
    /// inverse of the paper's execution time for a fixed amount of work.
    pub fn instructions_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.pmc_delta.instructions as f64 / self.ticks as f64
        }
    }

    /// Fraction of the window during which the VM was scheduled.
    pub fn cpu_share(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.ticks_scheduled as f64 / self.ticks as f64
        }
    }

    /// The VM's measured pollution (Equation 1 over the window).
    pub fn llc_cap_act(&self) -> f64 {
        kyoto_core::equation::llc_cap_act_from_pmcs(&self.pmc_delta, self.freq_khz)
    }

    /// LLC misses per measured tick.
    pub fn llc_misses_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.pmc_delta.llc_misses as f64 / self.ticks as f64
        }
    }

    /// Execution time (in arbitrary seconds) of a fixed amount of work,
    /// derived from the throughput. Used by the execution-time figures
    /// (Fig. 8, Fig. 12).
    pub fn execution_time_for(&self, work_instructions: f64) -> f64 {
        let throughput = self.instructions_per_tick();
        if throughput <= 0.0 {
            f64::INFINITY
        } else {
            work_instructions / throughput
        }
    }
}

fn delta_measurement(before: &VmReport, after: &VmReport, freq_khz: u64) -> Measurement {
    Measurement {
        vm: after.vm,
        name: after.name.clone(),
        pmc_delta: after.pmcs.delta_since(&before.pmcs),
        ticks: after.ticks_elapsed - before.ticks_elapsed,
        ticks_scheduled: after.ticks_scheduled - before.ticks_scheduled,
        punishments: after.punishments - before.punishments,
        freq_khz,
    }
}

/// Runs `hypervisor` for the configured warm-up then measurement windows and
/// returns one [`Measurement`] per VM (in creation order).
pub fn warmup_and_measure<S: Scheduler>(
    hypervisor: &mut Hypervisor<S>,
    config: &ExperimentConfig,
) -> Vec<Measurement> {
    let freq_khz = hypervisor.engine().machine().config().freq_khz;
    hypervisor.run_ticks(config.warmup_ticks);
    let before = hypervisor.reports();
    hypervisor.run_ticks(config.measure_ticks);
    let after = hypervisor.reports();
    before
        .iter()
        .zip(after.iter())
        .map(|(b, a)| delta_measurement(b, a, freq_khz))
        .collect()
}

/// Finds the measurement of a VM by name.
///
/// # Panics
///
/// Panics when no VM has that name — a scenario construction bug.
pub fn measurement_of<'a>(measurements: &'a [Measurement], name: &str) -> &'a Measurement {
    measurements
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no measurement for VM named {name}"))
}

/// Core on which the sensitive / representative VM is pinned by convention.
pub const SENSITIVE_CORE: CoreId = CoreId(0);
/// Core on which the (first) parallel disruptor is pinned by convention.
pub const DISRUPTOR_CORE: CoreId = CoreId(1);

/// Derives a per-VM workload seed from the experiment seed and a salt, so
/// co-located VMs never share RNG streams.
pub fn vm_seed(config: &ExperimentConfig, salt: u64) -> u64 {
    config.seed.wrapping_mul(0x9e37_79b9).wrapping_add(salt)
}

/// Conversion between the paper's `llc_cap` values (expressed for its
/// physical Xeon E5-1603 v3) and the simulated machine's pollution rates.
///
/// The paper books permits like `250k` misses/ms; the absolute pollution
/// rates of the simulated machine differ from the real testbed (and shrink
/// with the scale factor), so experiments calibrate the permit unit against
/// the heaviest polluter: the measured solo pollution of `lbm` is mapped to
/// the ~1.6M misses/ms peak rate implied by the paper's traces, and every
/// paper permit is converted with that ratio. This preserves the *relative*
/// tightness of each permit, which is what the figures depend on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermitCalibration {
    /// Simulated misses/ms corresponding to the paper's "1k" unit.
    pub sim_per_paper_kilo: f64,
}

/// Paper-scale kilo-units assumed for lbm's solo pollution rate (the
/// calibration anchor).
const LBM_PAPER_KILO: f64 = 1600.0;

impl PermitCalibration {
    /// Converts a paper permit expressed in thousands (the paper's `250k` is
    /// `paper_kilo(250.0)`) into simulated misses/ms.
    pub fn paper_kilo(&self, kilo: f64) -> f64 {
        kilo * self.sim_per_paper_kilo
    }
}

/// Measures the calibration anchor by running `lbm` alone for a few ticks.
pub fn calibrate_permits(config: &ExperimentConfig) -> PermitCalibration {
    let mut hv = kyoto_hypervisor::xen_hypervisor(config.machine(), config.hypervisor_config());
    hv.add_vm_with(
        kyoto_hypervisor::vm::VmConfig::new("lbm").pinned_to(vec![SENSITIVE_CORE]),
        spec_workload(config, SpecApp::Lbm, 0xca11),
    )
    .expect("valid VM");
    let short = ExperimentConfig {
        warmup_ticks: 2,
        measure_ticks: 4,
        ..*config
    };
    let measurements = warmup_and_measure(&mut hv, &short);
    let lbm_rate = measurement_of(&measurements, "lbm").llc_cap_act().max(1.0);
    PermitCalibration {
        sim_per_paper_kilo: lbm_rate / LBM_PAPER_KILO,
    }
}

/// Boxes a SPEC workload for VM creation.
pub fn spec_workload(config: &ExperimentConfig, app: SpecApp, salt: u64) -> Box<dyn Workload> {
    Box::new(config.workload(app, vm_seed(config, salt)))
}

/// Runs `count` independent sweep cells on up to `jobs` workers of
/// [`fan_out`], preserving input order (`jobs <= 1` runs on the calling
/// thread). Every cell must derive all its seeds from shared, immutable
/// inputs, so the assembled result is byte-identical whatever the
/// parallelism — the work-stealing shape behind the cloudscale, fleet,
/// failures and service sweeps (and `figures --jobs` one level up).
pub fn run_jobs<T: Send>(count: usize, jobs: usize, run_one: impl Fn(usize) -> T + Sync) -> Vec<T> {
    fan_out((0..count).collect(), jobs, run_one)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyoto_hypervisor::vm::VmConfig;
    use kyoto_hypervisor::xen_hypervisor;
    use kyoto_sim::workload::ComputeOnly;

    #[test]
    fn execution_mode_labels() {
        assert_eq!(ExecutionMode::Alone.label(), "alone");
        assert_eq!(ExecutionMode::Combined.label(), "alternative+parallel");
        assert_eq!(ExecutionMode::CONTENDED.len(), 3);
    }

    #[test]
    fn warmup_is_excluded_from_measurements() {
        let config = ExperimentConfig::quick();
        let mut hv = xen_hypervisor(config.machine(), config.hypervisor_config());
        hv.add_vm_with(VmConfig::new("solo"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        let measurements = warmup_and_measure(&mut hv, &config);
        assert_eq!(measurements.len(), 1);
        let m = &measurements[0];
        assert_eq!(m.ticks, config.measure_ticks);
        assert_eq!(m.ticks_scheduled, config.measure_ticks);
        assert!((m.ipc() - 1.0).abs() < 1e-9);
        assert!((m.cpu_share() - 1.0).abs() < 1e-9);
        assert!(m.instructions_per_tick() > 0.0);
    }

    #[test]
    fn measurement_lookup_by_name() {
        let config = ExperimentConfig::quick();
        let mut hv = xen_hypervisor(config.machine(), config.hypervisor_config());
        hv.add_vm_with(VmConfig::new("a"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        hv.add_vm_with(VmConfig::new("b"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        let measurements = warmup_and_measure(&mut hv, &config);
        assert_eq!(measurement_of(&measurements, "b").name, "b");
    }

    #[test]
    #[should_panic(expected = "no measurement")]
    fn missing_measurement_panics() {
        measurement_of(&[], "ghost");
    }

    #[test]
    fn execution_time_is_inverse_throughput() {
        let m = Measurement {
            vm: VmId(1),
            name: "x".into(),
            pmc_delta: PmcSet {
                instructions: 1000,
                unhalted_core_cycles: 1000,
                ..PmcSet::default()
            },
            ticks: 10,
            ticks_scheduled: 10,
            punishments: 0,
            freq_khz: 1000,
        };
        assert!((m.execution_time_for(1000.0) - 10.0).abs() < 1e-9);
        assert!((m.llc_misses_per_tick() - 0.0).abs() < 1e-12);
        let empty = Measurement { ticks: 0, ..m };
        assert!(empty.execution_time_for(1000.0).is_infinite());
    }

    #[test]
    fn vm_seeds_differ_per_salt() {
        let config = ExperimentConfig::quick();
        assert_ne!(vm_seed(&config, 1), vm_seed(&config, 2));
    }

    #[test]
    fn permit_calibration_is_positive_and_linear() {
        let config = ExperimentConfig {
            scale: 256,
            seed: 1,
            warmup_ticks: 2,
            measure_ticks: 3,
            parallel_engine: false,
        };
        let calibration = calibrate_permits(&config);
        assert!(calibration.sim_per_paper_kilo > 0.0);
        let a = calibration.paper_kilo(50.0);
        let b = calibration.paper_kilo(250.0);
        assert!((b / a - 5.0).abs() < 1e-9);
    }
}
