//! SPEC CPU2006-like application models plus `blockie`.
//!
//! The paper evaluates Kyoto with SPEC CPU2006 applications and the
//! `blockie` contention kernel (Table 2, Fig. 4, Fig. 9, Fig. 10, Fig. 12).
//! Running the real binaries is impossible inside a simulation library, so
//! every application is modelled as a parameterised access-pattern generator
//! ([`SpecWorkload`]) whose profile ([`SpecProfile`]) captures the features
//! the paper's experiments depend on:
//!
//! * the **working-set size** decides sensitivity (does the footprint fit
//!   the LLC?);
//! * the **memory intensity** and **memory-level parallelism** decide how
//!   many LLC lines the application can evict per millisecond, i.e. its
//!   aggressiveness and its Equation-1 value;
//! * the **locality** (hot-set reuse) decides the miss rate per instruction,
//!   i.e. the raw-LLCM indicator that Fig. 4 shows to be a worse
//!   aggressiveness predictor than Equation 1.

use crate::category::Category;
use kyoto_sim::topology::MachineConfig;
use kyoto_sim::workload::{Op, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Cache-line size assumed by the workload models.
const LINE_SIZE: u64 = 64;

/// The applications used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum SpecApp {
    Astar,
    Blockie,
    Bzip,
    Gcc,
    Hmmer,
    Lbm,
    Mcf,
    Milc,
    Omnetpp,
    Povray,
    Soplex,
    Xalan,
}

impl SpecApp {
    /// Every modelled application.
    pub const ALL: [SpecApp; 12] = [
        SpecApp::Astar,
        SpecApp::Blockie,
        SpecApp::Bzip,
        SpecApp::Gcc,
        SpecApp::Hmmer,
        SpecApp::Lbm,
        SpecApp::Mcf,
        SpecApp::Milc,
        SpecApp::Omnetpp,
        SpecApp::Povray,
        SpecApp::Soplex,
        SpecApp::Xalan,
    ];

    /// The ten applications ranked in Fig. 4 of the paper.
    pub const FIG4_APPS: [SpecApp; 10] = [
        SpecApp::Astar,
        SpecApp::Blockie,
        SpecApp::Bzip,
        SpecApp::Gcc,
        SpecApp::Lbm,
        SpecApp::Mcf,
        SpecApp::Milc,
        SpecApp::Omnetpp,
        SpecApp::Soplex,
        SpecApp::Xalan,
    ];

    /// The eight applications measured in Fig. 9 of the paper.
    pub const FIG9_APPS: [SpecApp; 8] = [
        SpecApp::Mcf,
        SpecApp::Soplex,
        SpecApp::Milc,
        SpecApp::Omnetpp,
        SpecApp::Xalan,
        SpecApp::Astar,
        SpecApp::Bzip,
        SpecApp::Lbm,
    ];

    /// The application's lowercase name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SpecApp::Astar => "astar",
            SpecApp::Blockie => "blockie",
            SpecApp::Bzip => "bzip",
            SpecApp::Gcc => "gcc",
            SpecApp::Hmmer => "hmmer",
            SpecApp::Lbm => "lbm",
            SpecApp::Mcf => "mcf",
            SpecApp::Milc => "milc",
            SpecApp::Omnetpp => "omnetpp",
            SpecApp::Povray => "povray",
            SpecApp::Soplex => "soplex",
            SpecApp::Xalan => "xalan",
        }
    }

    /// The sensitive VMs of Table 2 (`vsen1..3` = gcc, omnetpp, soplex).
    pub const SENSITIVE_VMS: [SpecApp; 3] = [SpecApp::Gcc, SpecApp::Omnetpp, SpecApp::Soplex];

    /// The disruptive VMs of Table 2 (`vdis1..3` = lbm, blockie, mcf).
    pub const DISRUPTIVE_VMS: [SpecApp; 3] = [SpecApp::Lbm, SpecApp::Blockie, SpecApp::Mcf];

    /// The real-aggressiveness order `o1` reported in Section 4.2
    /// (most aggressive first).
    pub const PAPER_AGGRESSIVENESS_ORDER: [SpecApp; 10] = [
        SpecApp::Blockie,
        SpecApp::Lbm,
        SpecApp::Mcf,
        SpecApp::Soplex,
        SpecApp::Milc,
        SpecApp::Omnetpp,
        SpecApp::Gcc,
        SpecApp::Xalan,
        SpecApp::Astar,
        SpecApp::Bzip,
    ];

    /// The raw-LLCM order `o2` reported in Section 4.2.
    pub const PAPER_LLCM_ORDER: [SpecApp; 10] = [
        SpecApp::Milc,
        SpecApp::Lbm,
        SpecApp::Soplex,
        SpecApp::Mcf,
        SpecApp::Blockie,
        SpecApp::Gcc,
        SpecApp::Omnetpp,
        SpecApp::Xalan,
        SpecApp::Astar,
        SpecApp::Bzip,
    ];

    /// The Equation-1 order `o3` reported in Section 4.2.
    pub const PAPER_EQUATION1_ORDER: [SpecApp; 10] = [
        SpecApp::Lbm,
        SpecApp::Blockie,
        SpecApp::Milc,
        SpecApp::Mcf,
        SpecApp::Soplex,
        SpecApp::Gcc,
        SpecApp::Omnetpp,
        SpecApp::Xalan,
        SpecApp::Astar,
        SpecApp::Bzip,
    ];

    /// The memory-behaviour profile of the application at the scale of the
    /// paper's machine (Table 1); working sets shrink with the machine when a
    /// scaled machine is used (see [`SpecWorkload::new`]).
    pub fn profile(&self) -> SpecProfile {
        // Working-set sizes and intensities are chosen from the applications'
        // published memory characterisation so the paper's sensitivity and
        // aggressiveness orderings are preserved; absolute values are not
        // meant to match the SPEC reference inputs byte for byte.
        match self {
            SpecApp::Povray => SpecProfile {
                working_set_bytes: 128 * 1024,
                hot_set_bytes: 64 * 1024,
                hot_fraction: 0.92,
                mem_fraction: 0.10,
                streaming_fraction: 0.0,
                mem_parallelism: 1.0,
                write_fraction: 0.2,
                compute_cycles: 1,
                cold_fraction: 0.0005,
            },
            SpecApp::Hmmer => SpecProfile {
                working_set_bytes: 192 * 1024,
                hot_set_bytes: 96 * 1024,
                hot_fraction: 0.9,
                mem_fraction: 0.22,
                streaming_fraction: 0.2,
                mem_parallelism: 2.0,
                write_fraction: 0.2,
                compute_cycles: 1,
                cold_fraction: 0.002,
            },
            SpecApp::Bzip => SpecProfile {
                working_set_bytes: 1536 * 1024,
                hot_set_bytes: 256 * 1024,
                hot_fraction: 0.75,
                mem_fraction: 0.25,
                streaming_fraction: 0.3,
                mem_parallelism: 2.0,
                write_fraction: 0.3,
                compute_cycles: 1,
                cold_fraction: 0.004,
            },
            SpecApp::Astar => SpecProfile {
                working_set_bytes: 2 * 1024 * 1024,
                hot_set_bytes: 512 * 1024,
                hot_fraction: 0.72,
                mem_fraction: 0.30,
                streaming_fraction: 0.1,
                mem_parallelism: 1.0,
                write_fraction: 0.2,
                compute_cycles: 1,
                cold_fraction: 0.003,
            },
            SpecApp::Xalan => SpecProfile {
                working_set_bytes: 3 * 1024 * 1024,
                hot_set_bytes: 512 * 1024,
                hot_fraction: 0.68,
                mem_fraction: 0.30,
                streaming_fraction: 0.2,
                mem_parallelism: 1.5,
                write_fraction: 0.2,
                compute_cycles: 1,
                cold_fraction: 0.004,
            },
            SpecApp::Gcc => SpecProfile {
                working_set_bytes: 5 * 1024 * 1024,
                hot_set_bytes: 1024 * 1024,
                hot_fraction: 0.60,
                mem_fraction: 0.35,
                streaming_fraction: 0.3,
                mem_parallelism: 1.5,
                write_fraction: 0.25,
                compute_cycles: 1,
                cold_fraction: 0.005,
            },
            SpecApp::Omnetpp => SpecProfile {
                working_set_bytes: 8 * 1024 * 1024,
                hot_set_bytes: 2 * 1024 * 1024,
                hot_fraction: 0.58,
                mem_fraction: 0.35,
                streaming_fraction: 0.1,
                mem_parallelism: 1.2,
                write_fraction: 0.3,
                compute_cycles: 1,
                cold_fraction: 0.006,
            },
            SpecApp::Soplex => SpecProfile {
                working_set_bytes: 16 * 1024 * 1024,
                hot_set_bytes: 2 * 1024 * 1024,
                hot_fraction: 0.55,
                mem_fraction: 0.38,
                streaming_fraction: 0.4,
                mem_parallelism: 2.2,
                write_fraction: 0.2,
                compute_cycles: 1,
                cold_fraction: 0.004,
            },
            SpecApp::Milc => SpecProfile {
                working_set_bytes: 48 * 1024 * 1024,
                hot_set_bytes: 4 * 1024 * 1024,
                hot_fraction: 0.25,
                mem_fraction: 0.60,
                streaming_fraction: 0.3,
                mem_parallelism: 1.6,
                write_fraction: 0.3,
                compute_cycles: 1,
                cold_fraction: 0.002,
            },
            SpecApp::Mcf => SpecProfile {
                working_set_bytes: 40 * 1024 * 1024,
                hot_set_bytes: 4 * 1024 * 1024,
                hot_fraction: 0.35,
                mem_fraction: 0.45,
                streaming_fraction: 0.1,
                mem_parallelism: 1.8,
                write_fraction: 0.2,
                compute_cycles: 1,
                cold_fraction: 0.002,
            },
            SpecApp::Lbm => SpecProfile {
                working_set_bytes: 64 * 1024 * 1024,
                hot_set_bytes: 2 * 1024 * 1024,
                hot_fraction: 0.15,
                mem_fraction: 0.40,
                streaming_fraction: 0.9,
                mem_parallelism: 8.0,
                write_fraction: 0.4,
                compute_cycles: 1,
                cold_fraction: 0.001,
            },
            SpecApp::Blockie => SpecProfile {
                working_set_bytes: 32 * 1024 * 1024,
                hot_set_bytes: 1024 * 1024,
                hot_fraction: 0.08,
                mem_fraction: 0.38,
                streaming_fraction: 0.95,
                mem_parallelism: 10.0,
                write_fraction: 0.45,
                compute_cycles: 1,
                cold_fraction: 0.001,
            },
        }
    }
}

impl fmt::Display for SpecApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Memory-behaviour parameters of a modelled application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecProfile {
    /// Total footprint at paper-machine scale, in bytes.
    pub working_set_bytes: u64,
    /// Size of the frequently reused subset, in bytes.
    pub hot_set_bytes: u64,
    /// Probability that a memory access targets the hot subset.
    pub hot_fraction: f64,
    /// Probability that an op is a memory access (the rest is computation).
    pub mem_fraction: f64,
    /// Probability that a cold access continues the sequential scan instead
    /// of jumping to a random line of the working set.
    pub streaming_fraction: f64,
    /// Average number of overlapping outstanding misses.
    pub mem_parallelism: f64,
    /// Probability that a memory access is a store.
    pub write_fraction: f64,
    /// Cycles burnt by one compute op.
    pub compute_cycles: u32,
    /// Fraction of memory accesses that touch never-reused data (compulsory
    /// misses: input parsing, allocation, paging). Gives every application a
    /// small, realistic background LLC-miss rate even once its working set
    /// is cache-resident.
    pub cold_fraction: f64,
}

/// Base address of the never-reused "cold" region touched by compulsory
/// misses (disjoint from every working set).
pub const COLD_REGION_BASE: u64 = 1 << 40;

/// The op classes a [`SpecWorkload`] draws from. The seed implementation
/// reached these through a chain of conditional `gen_bool` draws; the chain
/// is a categorical distribution in disguise, so the hot path now picks the
/// class with a single uniform draw against precomputed cumulative
/// thresholds (one more draw picks the line when the class needs one).
#[derive(Debug, Clone, Copy)]
struct OpClassThresholds {
    /// P(compute).
    compute: u64,
    /// P(compute) + P(cold).
    cold: u64,
    /// ... + P(hot load).
    hot_load: u64,
    /// ... + P(hot store).
    hot_store: u64,
    /// ... + P(stream load).
    stream_load: u64,
    /// ... + P(stream store).
    stream_store: u64,
    /// ... + P(random load); the remainder is a random store.
    random_load: u64,
}

impl OpClassThresholds {
    fn from_profile(p: &SpecProfile) -> Self {
        let mem = p.mem_fraction.clamp(0.0, 1.0);
        let cold = mem * p.cold_fraction.clamp(0.0, 1.0);
        let warm = mem - cold;
        let hot = warm * p.hot_fraction.clamp(0.0, 1.0);
        let stream = (warm - hot) * p.streaming_fraction.clamp(0.0, 1.0);
        let random = warm - hot - stream;
        let write = p.write_fraction.clamp(0.0, 1.0);
        let scale = |cumulative: f64| -> u64 {
            // Map a cumulative probability to a u64 threshold; 1.0 maps to
            // u64::MAX so a uniform draw is always below it.
            (cumulative.clamp(0.0, 1.0) * u64::MAX as f64) as u64
        };
        let compute = 1.0 - mem;
        OpClassThresholds {
            compute: scale(compute),
            cold: scale(compute + cold),
            hot_load: scale(compute + cold + hot * (1.0 - write)),
            hot_store: scale(compute + cold + hot),
            stream_load: scale(compute + cold + hot + stream * (1.0 - write)),
            stream_store: scale(compute + cold + hot + stream),
            random_load: scale(compute + cold + hot + stream + random * (1.0 - write)),
        }
    }
}

/// A running instance of a modelled application.
#[derive(Debug, Clone)]
pub struct SpecWorkload {
    app: SpecApp,
    profile: SpecProfile,
    thresholds: OpClassThresholds,
    ws_lines: u64,
    hot_lines: u64,
    scan_pos: u64,
    cold_pos: u64,
    rng: SmallRng,
}

impl SpecWorkload {
    /// Instantiates `app` on a machine scaled down by `scale`
    /// (use `1` for the paper-scale machine).
    ///
    /// The footprint scales with the machine so that the ratio between the
    /// application's working set and the cache capacities — the quantity that
    /// decides sensitivity and aggressiveness — is preserved.
    pub fn new(app: SpecApp, scale: u64, seed: u64) -> Self {
        let profile = app.profile();
        let scale = scale.max(1);
        let ws_lines = (profile.working_set_bytes / scale / LINE_SIZE).max(4);
        let hot_lines = (profile.hot_set_bytes / scale / LINE_SIZE)
            .max(1)
            .min(ws_lines);
        SpecWorkload {
            app,
            thresholds: OpClassThresholds::from_profile(&profile),
            profile,
            ws_lines,
            hot_lines,
            scan_pos: 0,
            cold_pos: 0,
            rng: SmallRng::seed_from_u64(seed ^ (app as u64) << 32),
        }
    }

    #[inline]
    fn line_in(&mut self, lines: u64) -> u64 {
        // Lemire multiply-shift draw in [0, lines).
        ((u128::from(self.rng.next_u64()) * u128::from(lines)) >> 64) as u64
    }

    /// The modelled application.
    pub fn app(&self) -> SpecApp {
        self.app
    }

    /// The profile driving this instance.
    pub fn profile(&self) -> &SpecProfile {
        &self.profile
    }

    /// The working-set category of this instance on `machine`.
    pub fn category(&self, machine: &MachineConfig) -> Category {
        Category::classify(self.working_set_bytes(), machine)
    }
}

impl Workload for SpecWorkload {
    #[inline]
    fn next_op(&mut self) -> Op {
        let t = self.thresholds;
        let draw = self.rng.next_u64();
        if draw < t.compute {
            return Op::Compute {
                cycles: self.profile.compute_cycles,
            };
        }
        if draw < t.cold {
            // Compulsory miss: touch a line that will never be reused.
            let addr = COLD_REGION_BASE + self.cold_pos * LINE_SIZE;
            self.cold_pos += 1;
            return Op::Load { addr };
        }
        if draw < t.hot_store {
            let addr = self.line_in(self.hot_lines) * LINE_SIZE;
            return if draw < t.hot_load {
                Op::Load { addr }
            } else {
                Op::Store { addr }
            };
        }
        if draw < t.stream_store {
            let addr = self.scan_pos * LINE_SIZE;
            self.scan_pos += 1;
            if self.scan_pos == self.ws_lines {
                self.scan_pos = 0;
            }
            return if draw < t.stream_load {
                Op::Load { addr }
            } else {
                Op::Store { addr }
            };
        }
        let addr = self.line_in(self.ws_lines) * LINE_SIZE;
        if draw < t.random_load {
            Op::Load { addr }
        } else {
            Op::Store { addr }
        }
    }

    fn name(&self) -> &str {
        self.app.name()
    }

    fn working_set_bytes(&self) -> u64 {
        self.ws_lines * LINE_SIZE
    }

    fn mem_parallelism(&self) -> f64 {
        self.profile.mem_parallelism
    }

    fn reset(&mut self) {
        self.scan_pos = 0;
        self.cold_pos = 0;
    }

    fn try_clone_box(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_has_a_valid_profile() {
        for app in SpecApp::ALL {
            let p = app.profile();
            assert!(p.working_set_bytes >= p.hot_set_bytes, "{app}");
            assert!((0.0..=1.0).contains(&p.hot_fraction), "{app}");
            assert!((0.0..=1.0).contains(&p.mem_fraction), "{app}");
            assert!((0.0..=1.0).contains(&p.streaming_fraction), "{app}");
            assert!((0.0..=1.0).contains(&p.write_fraction), "{app}");
            assert!(p.mem_parallelism >= 1.0, "{app}");
            assert!(p.compute_cycles >= 1, "{app}");
            assert!((0.0..=0.05).contains(&p.cold_fraction), "{app}");
        }
    }

    #[test]
    fn table2_vm_mapping_matches_the_paper() {
        assert_eq!(
            SpecApp::SENSITIVE_VMS.map(|a| a.name()),
            ["gcc", "omnetpp", "soplex"]
        );
        assert_eq!(
            SpecApp::DISRUPTIVE_VMS.map(|a| a.name()),
            ["lbm", "blockie", "mcf"]
        );
    }

    #[test]
    fn paper_orders_contain_the_same_ten_apps() {
        let mut o1 = SpecApp::PAPER_AGGRESSIVENESS_ORDER.to_vec();
        let mut o2 = SpecApp::PAPER_LLCM_ORDER.to_vec();
        let mut o3 = SpecApp::PAPER_EQUATION1_ORDER.to_vec();
        let mut fig4 = SpecApp::FIG4_APPS.to_vec();
        o1.sort();
        o2.sort();
        o3.sort();
        fig4.sort();
        assert_eq!(o1, fig4);
        assert_eq!(o2, fig4);
        assert_eq!(o3, fig4);
    }

    #[test]
    fn sensitive_vms_fit_the_llc_or_barely_exceed_it() {
        let machine = MachineConfig::paper_machine();
        let gcc = SpecWorkload::new(SpecApp::Gcc, 1, 1);
        let omnetpp = SpecWorkload::new(SpecApp::Omnetpp, 1, 1);
        assert_eq!(gcc.category(&machine), Category::C2);
        assert_eq!(omnetpp.category(&machine), Category::C2);
        let soplex = SpecWorkload::new(SpecApp::Soplex, 1, 1);
        assert_eq!(soplex.category(&machine), Category::C3);
    }

    #[test]
    fn cpu_bound_apps_are_c1() {
        let machine = MachineConfig::paper_machine();
        for app in [SpecApp::Povray, SpecApp::Hmmer] {
            let wl = SpecWorkload::new(app, 1, 1);
            assert_eq!(wl.category(&machine), Category::C1, "{app}");
        }
    }

    #[test]
    fn disruptors_exceed_the_llc() {
        let machine = MachineConfig::paper_machine();
        for app in SpecApp::DISRUPTIVE_VMS {
            let wl = SpecWorkload::new(app, 1, 1);
            assert_eq!(wl.category(&machine), Category::C3, "{app}");
        }
    }

    #[test]
    fn scaling_preserves_categories() {
        // Categories must be invariant when machine and workloads scale by
        // the same factor: this is the property that justifies running the
        // experiments on scaled-down machines.
        for scale in [8u64, 16, 64] {
            let machine = MachineConfig::scaled_paper_machine(scale);
            let paper_machine = MachineConfig::paper_machine();
            for app in SpecApp::ALL {
                let scaled = SpecWorkload::new(app, scale, 1);
                let full = SpecWorkload::new(app, 1, 1);
                assert_eq!(
                    scaled.category(&machine),
                    full.category(&paper_machine),
                    "{app} at scale {scale}"
                );
            }
        }
    }

    #[test]
    fn accesses_stay_within_the_working_set_or_the_cold_region() {
        let mut wl = SpecWorkload::new(SpecApp::Gcc, 16, 3);
        let ws = wl.working_set_bytes();
        let mut cold = 0u64;
        for _ in 0..20_000 {
            if let Some(addr) = wl.next_op().addr() {
                if addr >= COLD_REGION_BASE {
                    cold += 1;
                } else {
                    assert!(addr < ws);
                }
            }
        }
        // Compulsory misses exist but stay rare.
        assert!(cold > 0);
        assert!(cold < 200);
    }

    #[test]
    fn memory_fraction_is_respected() {
        let mut wl = SpecWorkload::new(SpecApp::Milc, 16, 3);
        let mut mem = 0;
        let total = 50_000;
        for _ in 0..total {
            if wl.next_op().addr().is_some() {
                mem += 1;
            }
        }
        let fraction = mem as f64 / total as f64;
        assert!((fraction - 0.60).abs() < 0.02, "measured {fraction}");
    }

    #[test]
    fn polluters_have_high_memory_level_parallelism() {
        let lbm = SpecWorkload::new(SpecApp::Lbm, 16, 1);
        let blockie = SpecWorkload::new(SpecApp::Blockie, 16, 1);
        let mcf = SpecWorkload::new(SpecApp::Mcf, 16, 1);
        assert!(lbm.mem_parallelism() >= 4.0);
        assert!(blockie.mem_parallelism() >= 4.0);
        assert!(
            mcf.mem_parallelism() < 4.0,
            "mcf is latency-bound pointer chasing"
        );
    }

    #[test]
    fn determinism_per_seed_and_divergence_across_seeds() {
        let mut a = SpecWorkload::new(SpecApp::Soplex, 16, 5);
        let mut b = SpecWorkload::new(SpecApp::Soplex, 16, 5);
        let mut c = SpecWorkload::new(SpecApp::Soplex, 16, 6);
        let sa: Vec<Op> = (0..200).map(|_| a.next_op()).collect();
        let sb: Vec<Op> = (0..200).map(|_| b.next_op()).collect();
        let sc: Vec<Op> = (0..200).map(|_| c.next_op()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(SpecApp::Xalan.to_string(), "xalan");
        assert_eq!(SpecWorkload::new(SpecApp::Bzip, 16, 0).name(), "bzip");
        assert_eq!(SpecApp::ALL.len(), 12);
        assert_eq!(SpecApp::FIG9_APPS.len(), 8);
    }

    #[test]
    fn hot_set_never_exceeds_working_set_after_scaling() {
        for app in SpecApp::ALL {
            let wl = SpecWorkload::new(app, 1_000_000, 0);
            assert!(wl.hot_lines <= wl.ws_lines, "{app}");
            assert!(wl.ws_lines >= 4, "{app}");
        }
    }
}
