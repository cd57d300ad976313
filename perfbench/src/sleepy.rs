//! `sleepy_fleet`: a KS4Xen hypervisor on a two-socket machine, one engine
//! thread per socket, where most vCPUs sleep. Each core hosts a few
//! `Interactive` services woken by seeded interrupts and, on socket 0, a
//! shared timer; one batch `lbm` polluter per socket never sleeps. Most
//! slots are blocked, so the per-tick cost of the hypervisor shows.

use crate::probe::{now, replay_through_cache, Probe, SpanLog, TimedScheduler};
use crate::{derive_seed, Digest, Rep};
use kyoto_core::ks4::{ks4xen, Ks4Xen};
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::hypervisor::{Hypervisor, HypervisorConfig};
use kyoto_hypervisor::lifecycle::WakeSource;
use kyoto_hypervisor::scheduler::Scheduler;
use kyoto_hypervisor::vm::{VmConfig, VmReport};
use kyoto_sim::topology::{Machine, MachineConfig, SocketId};
use kyoto_sim::workload::Workload;
use kyoto_workloads::interactive::Interactive;
use kyoto_workloads::spec::{SpecApp, SpecWorkload};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The size of one rep.
pub struct Shape {
    /// Sockets of the machine; the engine runs one thread per socket.
    pub sockets: usize,
    /// Interactive VMs pinned to every core.
    pub interactive_per_core: usize,
    /// Scheduler ticks run; one step each.
    pub ticks: u64,
}

/// The benchmark's shape.
pub const SHAPE: Shape = Shape {
    sockets: 2,
    interactive_per_core: 3,
    ticks: 1500,
};

const SCALE: u64 = 128;
const BURST_OPS: u32 = 48;
const WAKE_RATE: f64 = 0.02;
/// A timer the services of socket 0 share: every `WAKE_PERIOD` ticks they
/// all wake at once. The heavy ticks are then a fixed share of the run, so
/// the step p99 lands among them rather than among ticks the host
/// interrupted. Only one socket's engine thread carries them, so a tick
/// stays about as long when the host lends the run a single CPU.
const WAKE_PERIOD: u64 = 50;
const SERVICE_APPS: [SpecApp; 4] = [SpecApp::Gcc, SpecApp::Omnetpp, SpecApp::Astar, SpecApp::Mcf];

/// Builds the hypervisor of one rep. `scheduler` wraps the KS4Xen
/// scheduler, and `wrap` every workload.
pub fn build<S: Scheduler>(
    seed: u64,
    shape: &Shape,
    scheduler: impl FnOnce(Ks4Xen) -> S,
    wrap: impl Fn(Box<dyn Workload>) -> Box<dyn Workload>,
) -> Hypervisor<S> {
    let machine = Machine::new(MachineConfig::scaled_cloud_machine(shape.sockets, SCALE));
    let hv_config = HypervisorConfig::default()
        .with_tick_ms(1)
        .with_parallel_engine(true);
    let ks4 = ks4xen(machine.config(), &hv_config, MonitoringStrategy::DirectPmc);
    let cores: Vec<_> = machine.cores().collect();
    let timer_cores = machine.cores_of_socket(SocketId(0));
    let polluter_cores: Vec<_> = (0..shape.sockets)
        .filter_map(|s| machine.config().core_on(SocketId(s), 0))
        .collect();
    let mut hv = Hypervisor::new(machine, scheduler(ks4), hv_config);
    let generous = 250_000.0 / SCALE as f64;
    let tight = 50_000.0 / SCALE as f64;
    let mut vm = 0u64;
    for &core in &cores {
        let timer = if timer_cores.contains(&core) {
            WAKE_PERIOD
        } else {
            0
        };
        for _ in 0..shape.interactive_per_core {
            let app = SERVICE_APPS[vm as usize % SERVICE_APPS.len()];
            let service = Interactive::new(
                SpecWorkload::new(app, SCALE, derive_seed(seed, 0x100 + vm)),
                BURST_OPS,
            );
            let config = VmConfig::new(format!("svc{vm}-{}", app.name()))
                .pinned_to(vec![core])
                .with_llc_cap(generous)
                .with_wake_source(
                    WakeSource::new(derive_seed(seed, 0x200 + vm))
                        .with_interrupt_rate(WAKE_RATE)
                        .with_timer_period(timer),
                );
            hv.add_vm_with(config, wrap(Box::new(service)))
                .expect("a pinned VM on an existing core is valid");
            vm += 1;
        }
    }
    for (i, &core) in polluter_cores.iter().enumerate() {
        let lbm = SpecWorkload::new(SpecApp::Lbm, SCALE, derive_seed(seed, 0x300 + i as u64));
        let config = VmConfig::new(format!("batch{i}-lbm"))
            .pinned_to(vec![core])
            .with_llc_cap(tight);
        hv.add_vm_with(config, wrap(Box::new(lbm)))
            .expect("a pinned VM on an existing core is valid");
    }
    hv
}

/// Digest of the hypervisor's per-VM reports.
pub fn digest(reports: &[VmReport]) -> u64 {
    let mut digest = Digest::default();
    for r in reports {
        digest.str(&r.name);
        let p = &r.pmcs;
        for value in [
            u64::from(r.vm.0),
            p.instructions,
            p.unhalted_core_cycles,
            p.memory_accesses,
            p.ilc_misses,
            p.llc_references,
            p.llc_misses,
            p.remote_accesses,
            r.cycles_run,
            r.ticks_scheduled,
            r.ticks_elapsed,
            r.punishments,
            r.ticks_blocked,
            r.blocked_cycles,
        ] {
            digest.u64(value);
        }
    }
    digest.finish()
}

/// Runs `ticks` steps, timing each; returns failed steps (0 or 1: the rep
/// stops at the first panic).
fn run_ticks<S: Scheduler>(
    hv: &mut Hypervisor<S>,
    ticks: u64,
    rep: &mut Rep,
    spans: &mut SpanLog,
    mut after_step: impl FnMut(u64, &Hypervisor<S>, &mut SpanLog),
) {
    for tick in 0..ticks {
        let start = now();
        let stepped = catch_unwind(AssertUnwindSafe(|| hv.step_tick()));
        let ns = start.elapsed().as_nanos() as u64;
        rep.step_ms.push(ns as f64 / 1e6);
        spans.record(tick, "hypervisor.step_tick", 1, ns);
        if stepped.is_err() {
            rep.failed += 1;
            return;
        }
        after_step(tick, hv, spans);
    }
}

/// One rep: build the hypervisor and run the fixed number of ticks.
pub fn rep(seed: u64, shape: &Shape, traced: bool, spans: &mut SpanLog) -> Rep {
    let setup_start = now();
    let mut rep = Rep::default();
    if !traced {
        let mut hv = build(seed, shape, |s| s, |w| w);
        rep.setup_s = setup_start.elapsed().as_secs_f64();
        let start = now();
        run_ticks(&mut hv, shape.ticks, &mut rep, spans, |_, _, _| {});
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.digest = digest(&hv.reports());
        return rep;
    }

    let probe = Probe::default();
    let mut hv = build(seed, shape, TimedScheduler::new, |w| probe.wrap(w));
    rep.setup_s = setup_start.elapsed().as_secs_f64();
    let mut last_w = probe.totals();
    let mut last_s = hv.scheduler().totals();
    let start = now();
    run_ticks(&mut hv, shape.ticks, &mut rep, spans, |tick, hv, spans| {
        let w = probe.totals();
        let s = hv.scheduler().totals();
        spans.record(
            tick,
            "workloads.fill_ops",
            w.fill_calls - last_w.fill_calls,
            w.gen_ns - last_w.gen_ns,
        );
        spans.record(
            tick,
            "scheduler.pick_next",
            s.pick_calls - last_s.pick_calls,
            s.pick_ns - last_s.pick_ns,
        );
        spans.record(
            tick,
            "scheduler.account",
            0,
            s.account_ns - last_s.account_ns,
        );
        (last_w, last_s) = (w, s);
    });
    rep.wall_s = start.elapsed().as_secs_f64();
    let reports = hv.reports();
    rep.digest = digest(&reports);

    let totals = probe.totals();
    let sched = hv.scheduler().totals();
    crate::workload_layers(&totals, &mut rep);
    let step_s: f64 = rep.step_ms.iter().sum::<f64>() / 1e3;
    let pick_s = sched.pick_ns as f64 / 1e9;
    let account_s = sched.account_ns as f64 / 1e9;
    let sum = |f: fn(&VmReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let layers = &mut rep.layers;
    layers.insert(
        "sim.engine_self_s".into(),
        step_s - totals.gen_ns as f64 / 1e9 - pick_s - account_s,
    );
    layers.insert("hypervisor.pick_calls".into(), sched.pick_calls as f64);
    layers.insert("hypervisor.pick_s".into(), pick_s);
    layers.insert("hypervisor.account_s".into(), account_s);
    layers.insert("hypervisor.idle_ticks".into(), sched.idle_picks as f64);
    layers.insert("hypervisor.punishments".into(), sum(|r| r.punishments));
    layers.insert(
        "hypervisor.blocked_fraction".into(),
        sum(|r| r.ticks_blocked) / sum(|r| r.ticks_elapsed).max(1.0),
    );
    layers.insert("sim.instructions".into(), sum(|r| r.pmcs.instructions));
    layers.insert("sim.cycles".into(), sum(|r| r.pmcs.unhalted_core_cycles));
    let machine = hv.engine().machine();
    let (mut accesses, mut misses) = (0u64, 0u64);
    for socket in 0..machine.num_sockets() {
        let stats = machine.llc_stats(SocketId(socket)).unwrap_or_default();
        accesses += stats.accesses;
        misses += stats.misses;
    }
    crate::llc_layers(accesses, misses, &mut rep);
    let (ns, hit_ratio) = replay_through_cache(&machine.config().llc, &probe.captured());
    rep.layers.insert("cache.access_ns".into(), ns);
    rep.layers
        .insert("cache.replay_hit_ratio".into(), hit_ratio);
    rep
}
