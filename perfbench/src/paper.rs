//! `paper_figures`: the paper's tables and figures at the quick
//! configuration, fanned out over `run_jobs`, the engine serial. This is the
//! run a reproducer waits on.

use crate::probe::{now, replay_through_cache, Probe, SpanLog};
use crate::{nproc, Digest, Rep};
use kyoto_bench::figures_quick_config;
use kyoto_experiments::config::ExperimentConfig;
use kyoto_experiments::harness::run_jobs;
use kyoto_experiments::{
    fig1, fig10, fig11, fig12, fig2, fig3, fig4, fig5, fig6, fig8, fig9, tables,
};
use kyoto_sim::workload::Op;
use kyoto_workloads::spec::SpecApp;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The paper's targets (Fig. 7 is an architecture diagram), longest first
/// as measured at the quick configuration. `run_jobs` hands them out in
/// this order, so targets of similar length run side by side and each
/// target's time does not hinge on which one happens to share the host.
pub const TARGETS: [&str; 13] = [
    "fig12", "fig4", "fig9", "fig11", "fig1", "fig10", "fig6", "fig5", "fig3", "fig8", "fig2",
    "table1", "table2",
];

fn render(target: &str, config: &ExperimentConfig) -> String {
    match target {
        "table1" => tables::table1().to_table(),
        "table2" => tables::table2().to_table(),
        "fig1" => fig1::run(config).to_table(),
        "fig2" => fig2::run(config).to_table(),
        "fig3" => fig3::run(config).to_table(),
        "fig4" => fig4::run(config).to_table(),
        "fig5" => fig5::run(config).to_table(),
        "fig6" => fig6::run(config).to_table(),
        "fig8" => fig8::run(config).to_table(),
        "fig9" => fig9::run(config).to_table(),
        "fig10" => fig10::run(config).to_table(),
        "fig11" => fig11::run(config).to_table(),
        "fig12" => fig12::run(config).to_table(),
        other => panic!("{other} is not a paper target"),
    }
}

/// One rep: render every target once, on as many workers as the host has
/// threads.
pub fn rep(seed: u64, traced: bool, spans: &mut SpanLog) -> Rep {
    let setup_start = now();
    let jobs = nproc();
    let config = ExperimentConfig {
        seed,
        ..figures_quick_config()
    };
    let setup_s = setup_start.elapsed().as_secs_f64();

    let start = now();
    let rendered = run_jobs(TARGETS.len(), jobs, |i| {
        let target_start = now();
        let table = catch_unwind(AssertUnwindSafe(|| render(TARGETS[i], &config))).ok();
        (table, target_start.elapsed())
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut rep = Rep {
        setup_s,
        wall_s,
        ..Rep::default()
    };
    let mut digest = Digest::default();
    for (i, (table, elapsed)) in rendered.iter().enumerate() {
        rep.step_ms.push(elapsed.as_secs_f64() * 1e3);
        spans.record(i as u64, "experiments.run", 1, elapsed.as_nanos() as u64);
        digest.str(TARGETS[i]);
        match table {
            Some(table) => digest.str(table),
            None => rep.failed += 1,
        }
    }
    rep.digest = digest.finish();
    if traced {
        let workers = jobs.clamp(1, TARGETS.len());
        let busy_s: f64 = rendered.iter().map(|(_, d)| d.as_secs_f64()).sum();
        for (target, (_, elapsed)) in TARGETS.iter().zip(&rendered) {
            rep.layers
                .insert(format!("experiments.{target}_s"), elapsed.as_secs_f64());
        }
        rep.layers.insert(
            "experiments.fanout_busy_ratio".into(),
            busy_s / (wall_s * workers as f64),
        );
        sim_counts(&config, &mut rep);
        cache_replay(&config, &mut rep);
    }
    rep
}

/// Simulated counts of the paper targets' representative traced run:
/// `figN::run` builds its own VMs, so its PMCs are out of reach. That run
/// counts no LLC accesses, so `sim.llc_accesses` and the miss ratio stay 0.
fn sim_counts(config: &ExperimentConfig, rep: &mut Rep) {
    let doc = kyoto_experiments::trace::capture_merged(&TARGETS, config);
    let counter = |name: &str| {
        doc.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    };
    rep.layers.insert(
        "sim.instructions".into(),
        counter("engine.engine.instructions"),
    );
    rep.layers
        .insert("sim.cycles".into(), counter("engine.engine.cycles"));
    rep.layers
        .insert("sim.llc_misses".into(), counter("engine.engine.llc_misses"));
}

/// The cache replay of `paper_figures`: decorated SPEC workloads of every
/// modelled app generate ops outside any engine, and their addresses go
/// through a standalone LLC of the paper machine's geometry.
fn cache_replay(config: &ExperimentConfig, rep: &mut Rep) {
    let probe = Probe::default();
    let mut buf = [Op::Compute { cycles: 1 }; 64];
    for (salt, app) in SpecApp::ALL.into_iter().enumerate() {
        let mut workload = probe.wrap(Box::new(config.workload(app, salt as u64)));
        for _ in 0..2048 {
            workload.fill_ops(&mut buf);
        }
    }
    let llc = config.machine_config().llc;
    let (ns, hit_ratio) = replay_through_cache(&llc, &probe.captured());
    rep.layers.insert("cache.access_ns".into(), ns);
    rep.layers
        .insert("cache.replay_hit_ratio".into(), hit_ratio);
}
