//! Measures the raw simulation substrate and writes `BENCH_substrate.json`.
//!
//! `perfbench/` times what a whole scenario costs; this binary isolates the
//! two hot paths underneath every scenario — `Cache::access` and
//! `SimEngine::run_slots` — and records their throughput, plus the
//! speedup of the batched/epoch engine path over the per-op reference path,
//! as a committed JSON baseline. Subsequent PRs rerun it to track the
//! substrate's performance trajectory (see `DESIGN.md` for how to read the
//! file).
//!
//! ```text
//! cargo run --release -p kyoto-bench --bin substrate_baseline
//! cargo run --release -p kyoto-bench --bin substrate_baseline -- --stdout
//! ```

use kyoto_bench::bench_config;
use kyoto_bench::legacy::{
    legacy_run_slots, LegacyCache, LegacyMachine, LegacySlot, LegacySpecWorkload,
};
use kyoto_cluster::cluster::{Cluster, ClusterConfig};
use kyoto_cluster::events::{EventSchedule, EventScheduleConfig};
use kyoto_cluster::faults::{FaultPlan, FaultPlanConfig};
use kyoto_cluster::planner::{ConsolidationPolicy, PlannerConfig};
use kyoto_cluster::snapshot::CellId;
use kyoto_experiments::cloudscale;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_sim::cache::{Cache, CacheConfig};
use kyoto_sim::engine::{ExecSlot, SimEngine};
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::topology::{CoreId, Machine, MachineConfig};
use kyoto_sim::workload::Workload;
use kyoto_workloads::spec::{SpecApp, SpecWorkload};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Measurement repetitions; the best (fastest) repetition is reported to
/// suppress scheduling noise.
const REPS: usize = 9;

struct Sample {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// Runs `work` (which processes `amount` units per call) and returns the
/// best units/second over [`REPS`] repetitions.
fn best_rate(amount: f64, mut work: impl FnMut()) -> f64 {
    // One untimed warm-up.
    work();
    let mut best = f64::MIN;
    for _ in 0..REPS {
        let start = Instant::now();
        work();
        let rate = amount / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

fn cache_samples(samples: &mut Vec<Sample>) {
    const OPS: u64 = 200_000;
    let mut cache = Cache::new(CacheConfig::new(640 * 1024, 20, 64)).unwrap();
    let mut i = 0u64;
    let hit_rate = best_rate(OPS as f64, || {
        for _ in 0..OPS {
            black_box(cache.access((i % 4096) * 64, 1));
            i += 1;
        }
    });
    samples.push(Sample {
        name: "cache_access_hit_heavy",
        unit: "Mops/s",
        value: hit_rate / 1e6,
    });

    let mut cache = Cache::new(CacheConfig::new(640 * 1024, 20, 64)).unwrap();
    let mut i = 0u64;
    let miss_rate = best_rate(OPS as f64, || {
        for _ in 0..OPS {
            black_box(cache.access(i * 64, (i % 4) as u16 + 1));
            i += 1;
        }
    });
    samples.push(Sample {
        name: "cache_access_miss_heavy",
        unit: "Mops/s",
        value: miss_rate / 1e6,
    });

    // The seed's cache (div/mod split, per-eviction Vec, growing tables) on
    // the same access streams.
    let mut cache = LegacyCache::with_seed(CacheConfig::new(640 * 1024, 20, 64), 0x6b796f746f);
    let mut i = 0u64;
    let hit_rate = best_rate(OPS as f64, || {
        for _ in 0..OPS {
            black_box(cache.access((i % 4096) * 64, 1));
            i += 1;
        }
    });
    samples.push(Sample {
        name: "cache_access_hit_heavy_seed",
        unit: "Mops/s",
        value: hit_rate / 1e6,
    });
    let mut cache = LegacyCache::with_seed(CacheConfig::new(640 * 1024, 20, 64), 0x6b796f746f);
    let mut i = 0u64;
    let miss_rate = best_rate(OPS as f64, || {
        for _ in 0..OPS {
            black_box(cache.access(i * 64, (i % 4) as u16 + 1));
            i += 1;
        }
    });
    samples.push(Sample {
        name: "cache_access_miss_heavy_seed",
        unit: "Mops/s",
        value: miss_rate / 1e6,
    });
}

/// Throughput of the frozen seed hot path (`kyoto_bench::legacy`) on the
/// same scenario as [`engine_rate`].
fn seed_engine_rate(slots: usize, scale: u64) -> f64 {
    const BUDGET: u64 = 100_000;
    let mut machine = LegacyMachine::new(MachineConfig::scaled_paper_machine(scale));
    let mut workloads: Vec<LegacySpecWorkload> = (0..slots)
        .map(|i| LegacySpecWorkload::new(SpecApp::Gcc, scale, i as u64))
        .collect();
    best_rate((BUDGET * slots as u64) as f64, || {
        let mut slot_refs: Vec<LegacySlot<'_>> = workloads
            .iter_mut()
            .enumerate()
            .map(|(i, w)| LegacySlot {
                core: CoreId(i),
                owner: i as u16 + 1,
                workload: w,
                pmcs: PmcSet::default(),
            })
            .collect();
        black_box(legacy_run_slots(&mut machine, &mut slot_refs, BUDGET));
    })
}

fn engine_rate(slots: usize, scale: u64, batched: bool) -> f64 {
    const BUDGET: u64 = 100_000;
    let machine = Machine::new(MachineConfig::scaled_paper_machine(scale));
    let mut engine = SimEngine::new(machine);
    let mut workloads: Vec<SpecWorkload> = (0..slots)
        .map(|i| SpecWorkload::new(SpecApp::Gcc, scale, i as u64))
        .collect();
    best_rate((BUDGET * slots as u64) as f64, || {
        let mut slot_refs: Vec<ExecSlot<'_>> = workloads
            .iter_mut()
            .enumerate()
            .map(|(i, w)| ExecSlot::new(CoreId(i), i as u16 + 1, w))
            .collect();
        let reports = if batched {
            engine.run_slots(&mut slot_refs, BUDGET)
        } else {
            engine.run_slots_reference(&mut slot_refs, BUDGET)
        };
        black_box(reports);
    })
}

/// Throughput of the batched path with the cycle-domain trace plane
/// explicitly off (the default: the sink exists but `record_batch_trace`
/// branches out on the enum) or on (every batch emits an
/// `engine.run_slots` span and bumps the op/miss counters; the sink is
/// drained inside the timed region, so the rate includes the full traced
/// cost). Compared against the plain batched row, the off rate proves
/// disabled tracing is noise-level — `ci/check_bench.sh` gates the ratio.
fn traced_engine_rate(slots: usize, scale: u64, enabled: bool) -> f64 {
    const BUDGET: u64 = 100_000;
    let machine = Machine::new(MachineConfig::scaled_paper_machine(scale));
    let mut engine = SimEngine::new(machine);
    if enabled {
        engine.trace_mut().enable();
    }
    let mut workloads: Vec<SpecWorkload> = (0..slots)
        .map(|i| SpecWorkload::new(SpecApp::Gcc, scale, i as u64))
        .collect();
    best_rate((BUDGET * slots as u64) as f64, || {
        let mut slot_refs: Vec<ExecSlot<'_>> = workloads
            .iter_mut()
            .enumerate()
            .map(|(i, w)| ExecSlot::new(CoreId(i), i as u16 + 1, w))
            .collect();
        black_box(engine.run_slots(&mut slot_refs, BUDGET));
        if enabled {
            // Keep the sink from growing across repetitions; the drain is
            // part of the traced cost.
            black_box(engine.trace_mut().drain());
        }
    })
}

/// Throughput of the serial (`run_slots`) or socket-parallel
/// (`run_slots_parallel`) path on the two-socket NUMA machine, with `slots`
/// gcc-like workloads spread evenly across both sockets (4 cores per
/// socket: slot `i` runs on core `(i % 2) * 4 + i / 2`). The simulation
/// results of the two paths are bit-identical per socket — the equivalence
/// property tests prove it — so the ratio is a pure wall-clock speedup.
fn numa_engine_rate(slots: usize, scale: u64, parallel: bool) -> f64 {
    const BUDGET: u64 = 100_000;
    let machine = Machine::new(MachineConfig::scaled_paper_numa_machine(scale));
    let cores_per_socket = machine.config().cores_per_socket;
    let mut engine = SimEngine::new(machine);
    let mut workloads: Vec<SpecWorkload> = (0..slots)
        .map(|i| SpecWorkload::new(SpecApp::Gcc, scale, i as u64))
        .collect();
    best_rate((BUDGET * slots as u64) as f64, || {
        let mut slot_refs: Vec<ExecSlot<'_>> = workloads
            .iter_mut()
            .enumerate()
            .map(|(i, w)| {
                let core = (i % 2) * cores_per_socket + i / 2;
                ExecSlot::new(CoreId(core), i as u16 + 1, w)
            })
            .collect();
        let reports = if parallel {
            engine.run_slots_parallel(&mut slot_refs, BUDGET)
        } else {
            engine.run_slots(&mut slot_refs, BUDGET)
        };
        black_box(reports);
    })
}

/// Throughput of the serial path on the two-socket NUMA machine with eight
/// gcc-like slots (same core mapping as [`numa_engine_rate`]), with either
/// every slot runnable or every other slot marked [`ExecSlot::blocked`].
/// Blocked slots are skipped without charging cycles, so the rate — in
/// nominal cycles over the full slot set, blocked or not — should rise
/// well past the all-runnable row; `ci/check_bench.sh` gates the ratio
/// (`blocked_skip_benefit`) so the skip path never silently degrades into
/// "walk the slot anyway and discard the work".
fn blocked_engine_rate(scale: u64, half_blocked: bool) -> f64 {
    const BUDGET: u64 = 100_000;
    const SLOTS: usize = 8;
    let machine = Machine::new(MachineConfig::scaled_paper_numa_machine(scale));
    let cores_per_socket = machine.config().cores_per_socket;
    let mut engine = SimEngine::new(machine);
    let mut workloads: Vec<SpecWorkload> = (0..SLOTS)
        .map(|i| SpecWorkload::new(SpecApp::Gcc, scale, i as u64))
        .collect();
    best_rate((BUDGET * SLOTS as u64) as f64, || {
        let mut slot_refs: Vec<ExecSlot<'_>> = workloads
            .iter_mut()
            .enumerate()
            .map(|(i, w)| {
                let core = (i % 2) * cores_per_socket + i / 2;
                ExecSlot::new(CoreId(core), i as u16 + 1, w)
                    .with_blocked(half_blocked && i % 2 == 1)
            })
            .collect();
        black_box(engine.run_slots(&mut slot_refs, BUDGET));
    })
}

/// Throughput of the serial or socket-parallel path on an N-socket cloud
/// machine with two gcc-like slots per socket (slot `i` runs on core
/// `(i % sockets) * cores_per_socket + i / sockets`, so every socket hosts
/// two slots). Same bit-identical-per-socket guarantee as
/// [`numa_engine_rate`]; the ratio is a pure wall-clock speedup.
fn cloud_engine_rate(sockets: usize, scale: u64, parallel: bool) -> f64 {
    const BUDGET: u64 = 100_000;
    let slots = sockets * 2;
    let machine = Machine::new(MachineConfig::scaled_cloud_machine(sockets, scale));
    let cores_per_socket = machine.config().cores_per_socket;
    let mut engine = SimEngine::new(machine);
    let mut workloads: Vec<SpecWorkload> = (0..slots)
        .map(|i| SpecWorkload::new(SpecApp::Gcc, scale, i as u64))
        .collect();
    best_rate((BUDGET * slots as u64) as f64, || {
        let mut slot_refs: Vec<ExecSlot<'_>> = workloads
            .iter_mut()
            .enumerate()
            .map(|(i, w)| {
                let core = (i % sockets) * cores_per_socket + i / sockets;
                ExecSlot::new(CoreId(core), i as u16 + 1, w)
            })
            .collect();
        let reports = if parallel {
            engine.run_slots_parallel(&mut slot_refs, BUDGET)
        } else {
            engine.run_slots(&mut slot_refs, BUDGET)
        };
        black_box(reports);
    })
}

/// Wall-clock rate (epochs/second) of the cluster control loop on a fleet
/// of `cells` single-socket cells (two gcc-like VMs each), with cell epochs
/// executed serially or one-per-scoped-thread. The simulation results of
/// the two modes are bit-identical (`kyoto-cluster`'s property tests prove
/// it), so the ratio is a pure wall-clock speedup — the cluster-level
/// analogue of the socket-parallel engine rows. Needs as many hardware
/// threads as cells to approach the ideal.
fn cluster_epoch_rate(cells: usize, scale: u64, parallel: bool) -> f64 {
    cluster_epoch_rate_faulted(cells, scale, parallel, false)
}

/// [`cluster_epoch_rate`] with an optional zero-rate [`FaultPlan`]
/// installed. A zero-rate plan schedules no faults, so the simulation is
/// bit-identical to the plan-free run and the rate ratio isolates the pure
/// bookkeeping cost of the fault boundary (expected ~1.0; CI asserts it
/// stays above `KYOTO_MIN_FAULT_OVERHEAD_RATIO`).
fn cluster_epoch_rate_faulted(
    cells: usize,
    scale: u64,
    parallel: bool,
    zero_rate_plan: bool,
) -> f64 {
    const EPOCHS: u64 = 4;
    best_rate(EPOCHS as f64, || {
        let config = ClusterConfig::new(cells, scale)
            .with_epoch_ticks(5)
            .with_policy(ConsolidationPolicy::LoadBalance)
            .with_parallel_cells(parallel);
        let mut cluster = Cluster::new(config);
        if zero_rate_plan {
            cluster.install_faults(FaultPlan::new(FaultPlanConfig::new(0xFA17)));
        }
        for i in 0..cells * 2 {
            cluster
                .add_vm(
                    CellId(i % cells),
                    VmConfig::new(format!("vm{i}")),
                    Box::new(SpecWorkload::new(SpecApp::Gcc, scale, i as u64)),
                )
                .expect("seeding stays within cell capacity");
        }
        cluster.run_epochs(EPOCHS).expect("bench run is fault-free");
        black_box(cluster.reports());
    })
}

/// Wall-clock rate (epochs/second) of the cluster control loop under full
/// fleet dynamics: a churning fleet of `cells` single-socket cells (two
/// gcc-like VMs each at the start, one arrival and ~0.5 departures per
/// epoch, a drain/join cycle on the last cell) planned by the cost-aware
/// pollution-aware planner, with cell epochs serial or
/// one-per-scoped-thread. Event application is pure control-plane work
/// between epochs, so the two modes stay bit-identical (property-proven in
/// `kyoto-cluster`) and the ratio is a pure wall-clock speedup.
fn fleet_churn_epoch_rate(cells: usize, scale: u64, parallel: bool) -> f64 {
    const EPOCHS: u64 = 4;
    let schedule = EventSchedule::new(
        EventScheduleConfig::new(0xbe9c)
            .with_arrival_rate(1.0)
            .with_departure_rate(0.5)
            .with_drain(1, CellId(cells - 1))
            .with_join(3, CellId(cells - 1)),
    );
    best_rate(EPOCHS as f64, || {
        let config = ClusterConfig::new(cells, scale)
            .with_epoch_ticks(5)
            .with_policy(ConsolidationPolicy::PollutionAware)
            .with_planner(
                PlannerConfig::default()
                    .with_polluter_threshold(200.0)
                    .with_cost_aware(true),
            )
            .with_parallel_cells(parallel);
        let mut cluster = Cluster::new(config);
        for i in 0..cells * 2 {
            cluster
                .add_vm(
                    CellId(i % cells),
                    VmConfig::new(format!("vm{i}")),
                    Box::new(SpecWorkload::new(SpecApp::Gcc, scale, i as u64)),
                )
                .expect("seeding stays within cell capacity");
        }
        let mut spawn = |index: u64| -> (VmConfig, Box<dyn Workload>) {
            (
                VmConfig::new(format!("churn{index}")),
                Box::new(SpecWorkload::new(SpecApp::Lbm, scale, 0xc0 + index)),
            )
        };
        cluster
            .run_epochs_with_schedule(&schedule, EPOCHS, &mut spawn)
            .expect("bench run is fault-free");
        black_box(cluster.all_reports());
    })
}

fn main() {
    let stdout_only = std::env::args().any(|a| a == "--stdout");
    let config = bench_config();
    let mut samples = Vec::new();
    cache_samples(&mut samples);

    let mut speedups: Vec<(usize, f64)> = Vec::new();
    let mut seed_speedups: Vec<(usize, f64)> = Vec::new();
    let mut untraced_4slots = f64::NAN;
    for slots in [1usize, 2, 4] {
        let batched = engine_rate(slots, config.scale, true);
        if slots == 4 {
            untraced_4slots = batched;
        }
        let reference = engine_rate(slots, config.scale, false);
        let seed = seed_engine_rate(slots, config.scale);
        let name: &'static str = match slots {
            1 => "run_slots_batched_1slot",
            2 => "run_slots_batched_2slots",
            _ => "run_slots_batched_4slots",
        };
        samples.push(Sample {
            name,
            unit: "Msimcycles/s",
            value: batched / 1e6,
        });
        let ref_name: &'static str = match slots {
            1 => "run_slots_reference_1slot",
            2 => "run_slots_reference_2slots",
            _ => "run_slots_reference_4slots",
        };
        samples.push(Sample {
            name: ref_name,
            unit: "Msimcycles/s",
            value: reference / 1e6,
        });
        let seed_name: &'static str = match slots {
            1 => "run_slots_seed_1slot",
            2 => "run_slots_seed_2slots",
            _ => "run_slots_seed_4slots",
        };
        samples.push(Sample {
            name: seed_name,
            unit: "Msimcycles/s",
            value: seed / 1e6,
        });
        speedups.push((slots, batched / reference));
        seed_speedups.push((slots, batched / seed));
    }

    // Trace-plane overhead on the 4-slot batched scenario: explicitly-off
    // tracing must be indistinguishable from the plain batched row
    // (branch-on-enum; `off_vs_untraced` ~1.0, CI gates the floor), and
    // `off_vs_on` records what full span/counter recording costs.
    let (trace_off_vs_untraced, trace_off_vs_on) = {
        let off = traced_engine_rate(4, config.scale, false);
        let on = traced_engine_rate(4, config.scale, true);
        samples.push(Sample {
            name: "run_slots_trace_off_4slots",
            unit: "Msimcycles/s",
            value: off / 1e6,
        });
        samples.push(Sample {
            name: "run_slots_trace_on_4slots",
            unit: "Msimcycles/s",
            value: on / 1e6,
        });
        (off / untraced_4slots, off / on)
    };

    // Blocked-slot skip benefit: eight slots with half of them parked must
    // finish the same nominal cycle budget measurably faster than the
    // all-runnable run, because the engine never walks a blocked slot.
    let blocked_skip_benefit = {
        let all_runnable = blocked_engine_rate(config.scale, false);
        let half_blocked = blocked_engine_rate(config.scale, true);
        samples.push(Sample {
            name: "run_slots_all_runnable_8slots",
            unit: "Msimcycles/s",
            value: all_runnable / 1e6,
        });
        samples.push(Sample {
            name: "run_slots_half_blocked_8slots",
            unit: "Msimcycles/s",
            value: half_blocked / 1e6,
        });
        half_blocked / all_runnable
    };

    // Socket-parallel engine on the two-socket machine: slots split evenly
    // across both sockets, serial `run_slots` vs `run_slots_parallel`.
    // The speedup is machine-dependent (it needs at least two hardware
    // threads to materialise; ideal is ~2x on a 2-socket scenario).
    let mut parallel_speedups: Vec<(usize, f64)> = Vec::new();
    for slots in [2usize, 4, 8] {
        let serial = numa_engine_rate(slots, config.scale, false);
        let parallel = numa_engine_rate(slots, config.scale, true);
        let serial_name: &'static str = match slots {
            2 => "run_slots_serial_2sockets_2slots",
            4 => "run_slots_serial_2sockets_4slots",
            _ => "run_slots_serial_2sockets_8slots",
        };
        samples.push(Sample {
            name: serial_name,
            unit: "Msimcycles/s",
            value: serial / 1e6,
        });
        let parallel_name: &'static str = match slots {
            2 => "run_slots_parallel_2sockets_2slots",
            4 => "run_slots_parallel_2sockets_4slots",
            _ => "run_slots_parallel_2sockets_8slots",
        };
        samples.push(Sample {
            name: parallel_name,
            unit: "Msimcycles/s",
            value: parallel / 1e6,
        });
        parallel_speedups.push((slots, parallel / serial));
    }

    // Cloud-scale machines: the engine's socket-parallel path past two
    // sockets (two slots per socket), plus the end-to-end scenario scaling
    // curve measured through the cloudscale subsystem (hypervisor +
    // placement + engine). Both need as many hardware threads as sockets to
    // approach the ideal speedup; `parallel_bench_threads` records what this
    // host offered.
    let mut cloud_speedups: Vec<(usize, f64)> = Vec::new();
    for sockets in [4usize, 8] {
        let serial = cloud_engine_rate(sockets, config.scale, false);
        let parallel = cloud_engine_rate(sockets, config.scale, true);
        let serial_name: &'static str = match sockets {
            4 => "run_slots_serial_4sockets",
            _ => "run_slots_serial_8sockets",
        };
        samples.push(Sample {
            name: serial_name,
            unit: "Msimcycles/s",
            value: serial / 1e6,
        });
        let parallel_name: &'static str = match sockets {
            4 => "run_slots_parallel_4sockets",
            _ => "run_slots_parallel_8sockets",
        };
        samples.push(Sample {
            name: parallel_name,
            unit: "Msimcycles/s",
            value: parallel / 1e6,
        });
        cloud_speedups.push((sockets, parallel / serial));
    }
    let scaling_curve = cloudscale::measure_parallel_scaling(&config, &[1, 2, 4, 8], 2, 3);

    // Cluster control loop: whole-fleet epochs, serial vs cell-parallel.
    let mut cluster_speedups: Vec<(usize, f64)> = Vec::new();
    for cells in [4usize, 8] {
        let serial = cluster_epoch_rate(cells, config.scale, false);
        let parallel = cluster_epoch_rate(cells, config.scale, true);
        let serial_name: &'static str = match cells {
            4 => "cluster_epoch_serial_4cells",
            _ => "cluster_epoch_serial_8cells",
        };
        samples.push(Sample {
            name: serial_name,
            unit: "epochs/s",
            value: serial,
        });
        let parallel_name: &'static str = match cells {
            4 => "cluster_epoch_parallel_4cells",
            _ => "cluster_epoch_parallel_8cells",
        };
        samples.push(Sample {
            name: parallel_name,
            unit: "epochs/s",
            value: parallel,
        });
        cluster_speedups.push((cells, parallel / serial));
    }

    // Fleet dynamics: the same control loop under churn (arrivals,
    // departures, a drain/join cycle, cost-aware planning), serial vs
    // cell-parallel.
    let mut churn_speedups: Vec<(usize, f64)> = Vec::new();
    {
        let cells = 6usize;
        let serial = fleet_churn_epoch_rate(cells, config.scale, false);
        let parallel = fleet_churn_epoch_rate(cells, config.scale, true);
        samples.push(Sample {
            name: "fleet_churn_epoch_serial_6cells",
            unit: "epochs/s",
            value: serial,
        });
        samples.push(Sample {
            name: "fleet_churn_epoch_parallel_6cells",
            unit: "epochs/s",
            value: parallel,
        });
        churn_speedups.push((cells, parallel / serial));
    }

    // Fault machinery overhead: the same fleet epoch loop with a zero-rate
    // FaultPlan installed vs no plan at all. A zero-rate plan injects
    // nothing, so the two runs are bit-identical and the ratio isolates the
    // fault boundary's bookkeeping cost (~1.0 expected; ci/check_bench.sh
    // asserts a floor).
    let fault_overhead_ratio = {
        let cells = 4usize;
        let bare = cluster_epoch_rate_faulted(cells, config.scale, false, false);
        let planned = cluster_epoch_rate_faulted(cells, config.scale, false, true);
        samples.push(Sample {
            name: "cluster_epoch_no_fault_plan_4cells",
            unit: "epochs/s",
            value: bare,
        });
        samples.push(Sample {
            name: "cluster_epoch_zero_rate_plan_4cells",
            unit: "epochs/s",
            value: planned,
        });
        planned / bare
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"kyoto-substrate-bench/v1\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"scale\": {}, \"seed\": {}, \"engine_cycle_budget\": 100000 }},",
        config.scale, config.seed
    );
    json.push_str("  \"results\": [\n");
    for (i, sample) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"unit\": \"{}\", \"value\": {:.2} }}{}",
            sample.name, sample.unit, sample.value, comma
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"batched_vs_reference_speedup\": {\n");
    for (i, (slots, speedup)) in speedups.iter().enumerate() {
        let comma = if i + 1 == speedups.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{slots}_slots\": {speedup:.2}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"optimized_vs_seed_speedup\": {\n");
    for (i, (slots, speedup)) in seed_speedups.iter().enumerate() {
        let comma = if i + 1 == seed_speedups.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(json, "    \"{slots}_slots\": {speedup:.2}{comma}");
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"parallel_bench_threads\": {},",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    json.push_str("  \"parallel_vs_serial_speedup_2sockets\": {\n");
    for (i, (slots, speedup)) in parallel_speedups.iter().enumerate() {
        let comma = if i + 1 == parallel_speedups.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(json, "    \"{slots}_slots\": {speedup:.2}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"parallel_vs_serial_speedup_cloud\": {\n");
    for (i, (sockets, speedup)) in cloud_speedups.iter().enumerate() {
        let comma = if i + 1 == cloud_speedups.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(json, "    \"{sockets}_sockets\": {speedup:.2}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"cluster_epoch_parallel_vs_serial\": {\n");
    for (i, (cells, speedup)) in cluster_speedups.iter().enumerate() {
        let comma = if i + 1 == cluster_speedups.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(json, "    \"{cells}_cells\": {speedup:.2}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"fault_machinery_overhead\": {\n");
    let _ = writeln!(
        json,
        "    \"zero_rate_plan_vs_no_plan\": {fault_overhead_ratio:.2}"
    );
    json.push_str("  },\n");
    json.push_str("  \"trace_overhead\": {\n");
    let _ = writeln!(json, "    \"off_vs_untraced\": {trace_off_vs_untraced:.2},");
    let _ = writeln!(json, "    \"off_vs_on\": {trace_off_vs_on:.2}");
    json.push_str("  },\n");
    json.push_str("  \"blocked_skip_benefit\": {\n");
    let _ = writeln!(
        json,
        "    \"half_blocked_vs_all_runnable\": {blocked_skip_benefit:.2}"
    );
    json.push_str("  },\n");
    json.push_str("  \"fleet_churn_parallel_vs_serial\": {\n");
    for (i, (cells, speedup)) in churn_speedups.iter().enumerate() {
        let comma = if i + 1 == churn_speedups.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(json, "    \"{cells}_cells\": {speedup:.2}{comma}");
    }
    json.push_str("  },\n");
    // End-to-end cloudscale scenario wall-clock: serial vs parallel engine,
    // one point per socket count (two VMs per socket).
    json.push_str("  \"parallel_scaling_curve\": [\n");
    for (i, point) in scaling_curve.iter().enumerate() {
        let comma = if i + 1 == scaling_curve.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "    {{ \"sockets\": {}, \"vms\": {}, \"serial_secs\": {:.4}, \"parallel_secs\": {:.4}, \"speedup\": {:.2} }}{}",
            point.sockets,
            point.vms,
            point.serial_secs,
            point.parallel_secs,
            point.speedup(),
            comma
        );
    }
    json.push_str("  ]\n}\n");

    print!("{json}");
    if !stdout_only {
        std::fs::write("BENCH_substrate.json", &json).expect("write BENCH_substrate.json");
        eprintln!("[baseline written to BENCH_substrate.json]");
    }
}
