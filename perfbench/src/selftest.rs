//! Self-tests of the benchmark: the timing decorators must leave every
//! simulated output unchanged. Run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::probe::{Probe, SpanLog};
use crate::{fleet, paper, percentile, sleepy, DEFAULT_SEED, HELD_OUT_SEED};
use kyoto_service::service::FleetService;
use kyoto_sim::workload::{Op, Workload};

const SMALL_FLEET: fleet::Shape = fleet::Shape {
    cells: 3,
    epochs: 60,
    checkpoint_every: 20,
};

const SMALL_SLEEPY: sleepy::Shape = sleepy::Shape {
    sockets: 2,
    interactive_per_core: 2,
    ticks: 200,
};

#[test]
fn paper_figures_digest_is_the_same_traced_and_plain() {
    let plain = paper::rep(DEFAULT_SEED, false, &mut SpanLog::default());
    let traced = paper::rep(DEFAULT_SEED, true, &mut SpanLog::default());
    assert_eq!(plain.failed, 0);
    assert_eq!(plain.digest, traced.digest);
    assert_eq!(plain.step_ms.len(), paper::TARGETS.len());
    assert!(traced.layers["cache.access_ns"] > 0.0);
}

#[test]
fn fleet_replay_digest_is_the_same_with_and_without_decorators() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let plain = fleet::rep(seed, &SMALL_FLEET, false, &mut SpanLog::default());
        let traced = fleet::rep(seed, &SMALL_FLEET, true, &mut SpanLog::default());
        assert_eq!((plain.failed, traced.failed), (0, 0));
        assert_eq!(plain.digest, traced.digest, "seed {seed}");
        assert!(traced.layers["workloads.ops"] > 0.0);
    }
}

/// `try_clone_box` through a checkpoint: a service restored from a
/// checkpoint of decorated workloads finishes with the same digest as the
/// original, and as a run without decorators.
#[test]
fn fleet_checkpoint_clones_decorated_workloads_faithfully() {
    let probe = Probe::default();
    let (mut original, inputs) = fleet::build(DEFAULT_SEED, &SMALL_FLEET, Some(&probe));
    let mut spawn = |index: u64| inputs.arrival(index, Some(&probe));
    for _ in 0..SMALL_FLEET.epochs / 2 {
        original
            .run_epoch(&mut spawn)
            .expect("the replay is fault-free");
    }
    let checkpoint = original.checkpoint().expect("decorated workloads clone");
    original
        .run_to_end(&mut spawn)
        .expect("the replay is fault-free");
    let mut restored = FleetService::restore(checkpoint);
    restored
        .run_to_end(&mut spawn)
        .expect("the replay is fault-free");
    let plain = fleet::rep(DEFAULT_SEED, &SMALL_FLEET, false, &mut SpanLog::default());
    assert_eq!(fleet::digest(&original), fleet::digest(&restored));
    assert_eq!(fleet::digest(&original), plain.digest);
}

/// `wants_block` and `on_wake` through sleep/wake cycles: the interactive
/// services sleep and wake many times, and the digest does not move.
#[test]
fn sleepy_fleet_digest_is_the_same_with_and_without_decorators() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let plain = sleepy::rep(seed, &SMALL_SLEEPY, false, &mut SpanLog::default());
        let traced = sleepy::rep(seed, &SMALL_SLEEPY, true, &mut SpanLog::default());
        assert_eq!((plain.failed, traced.failed), (0, 0));
        assert_eq!(plain.digest, traced.digest, "seed {seed}");
        assert!(traced.layers["hypervisor.blocked_fraction"] > 0.5);
        assert!(traced.layers["workloads.useful_op_ratio"] < 1.0);
    }
    let mut hv = sleepy::build(DEFAULT_SEED, &SMALL_SLEEPY, |s| s, |w| w);
    hv.run_ticks(SMALL_SLEEPY.ticks);
    let woken_services = hv
        .reports()
        .iter()
        .filter(|r| r.name.starts_with("svc") && r.ticks_blocked > 0 && r.ticks_scheduled > 1)
        .count();
    assert!(woken_services > 0, "services must sleep and wake again");
}

/// A decorator that forgets to forward `on_wake`.
struct DropsWake(Box<dyn Workload>);

impl Workload for DropsWake {
    fn next_op(&mut self) -> Op {
        self.0.next_op()
    }
    fn name(&self) -> &str {
        self.0.name()
    }
    fn working_set_bytes(&self) -> u64 {
        self.0.working_set_bytes()
    }
    fn wants_block(&self) -> bool {
        self.0.wants_block()
    }
}

/// The digest check has teeth: a decorator that drops `on_wake` is caught.
#[test]
fn a_decorator_that_drops_wakes_changes_the_digest() {
    let plain = sleepy::rep(DEFAULT_SEED, &SMALL_SLEEPY, false, &mut SpanLog::default());
    let mut hv = sleepy::build(
        DEFAULT_SEED,
        &SMALL_SLEEPY,
        |s| s,
        |w| Box::new(DropsWake(w)) as Box<dyn Workload>,
    );
    hv.run_ticks(SMALL_SLEEPY.ticks);
    assert_ne!(sleepy::digest(&hv.reports()), plain.digest);
}

#[test]
fn percentiles_use_nearest_rank() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&values, 0.5), 50.0);
    assert_eq!(percentile(&values, 0.99), 99.0);
    assert_eq!(percentile(&[3.0], 0.99), 3.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
}
