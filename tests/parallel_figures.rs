//! The socket-parallel engine must not change a single byte of any figure.
//!
//! The `figures` binary guarantees byte-identical reports for any `--jobs`
//! value by buffering per-scenario output; this test pins the deeper
//! property that makes `--parallel-engine` safe too: the rendered figure
//! *content* is byte-identical whether scenario hypervisors run the serial
//! or the socket-parallel engine, because `SimEngine::run_slots_parallel`
//! preserves the per-socket op order exactly.

use kyoto::experiments::cloudscale::{self, CloudscaleSweep};
use kyoto::experiments::config::ExperimentConfig;
use kyoto::experiments::fleet::{self, FleetSweep};
use kyoto::experiments::{fig1, fig9};

fn test_config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 256,
        seed: 42,
        warmup_ticks: 2,
        measure_ticks: 5,
        parallel_engine: false,
    }
}

/// Fig. 9 runs the two-socket machine — the scenario where the parallel
/// engine actually splits execution across threads.
#[test]
fn fig9_output_is_byte_identical_with_the_parallel_engine() {
    let serial = fig9::run(&test_config()).to_table();
    let parallel = fig9::run(&test_config().with_parallel_engine(true)).to_table();
    assert_eq!(serial, parallel);
}

/// Fig. 1 runs the single-socket machine — the parallel path must fall back
/// to the serial engine without disturbing anything.
#[test]
fn fig1_output_is_byte_identical_with_the_parallel_engine() {
    let serial = fig1::run(&test_config()).to_table();
    let parallel = fig1::run(&test_config().with_parallel_engine(true)).to_table();
    assert_eq!(serial, parallel);
}

/// The cloudscale scenario runs machines of up to 4 sockets (8 at standard
/// size) — the first scenario where the parallel engine scales past two
/// threads. Its rendered table must still be byte-identical.
#[test]
fn cloudscale_output_is_byte_identical_with_the_parallel_engine() {
    let sweep = CloudscaleSweep::small();
    let serial = cloudscale::run(&test_config(), &sweep, 1).to_table();
    let parallel = cloudscale::run(&test_config().with_parallel_engine(true), &sweep, 1).to_table();
    assert_eq!(serial, parallel);
}

/// The cloudscale sweep's cells may fan out over scoped worker threads
/// (`figures --jobs`); the assembled table must not change by a byte.
#[test]
fn cloudscale_output_is_byte_identical_across_sweep_jobs() {
    let sweep = CloudscaleSweep::small();
    let serial = cloudscale::run(&test_config(), &sweep, 1).to_table();
    let threaded = cloudscale::run(&test_config(), &sweep, 8).to_table();
    assert_eq!(serial, threaded);
}

/// The fleet scenario stacks two parallelism levels — cell-parallel cluster
/// epochs plus the engine switch inside each cell — and must still render
/// byte-identically (`--parallel-engine` flips both). The small sweep
/// carries the churn half, so arrival/departure/drain/join dynamics are
/// covered too.
#[test]
fn fleet_output_is_byte_identical_with_parallel_cells() {
    let sweep = FleetSweep::small();
    let serial = fleet::run(&test_config(), &sweep, 1).to_table();
    let parallel = fleet::run(&test_config().with_parallel_engine(true), &sweep, 1).to_table();
    assert_eq!(serial, parallel);
    assert!(
        serial.contains("Fleet churn"),
        "churn rides in the fleet table"
    );
}

/// The fleet sweep's cells (static consolidation and churn points alike)
/// may fan out over scoped worker threads (`figures --jobs`); the assembled
/// table must not change by a byte.
#[test]
fn fleet_output_is_byte_identical_across_sweep_jobs() {
    let sweep = FleetSweep::small();
    let serial = fleet::run(&test_config(), &sweep, 1).to_table();
    let threaded = fleet::run(&test_config(), &sweep, 8).to_table();
    assert_eq!(serial, threaded);
}

/// The standalone churn rendering (the determinism gate's `churn` target)
/// is byte-identical across the engine switch and worker-thread counts.
#[test]
fn churn_output_is_byte_identical_with_parallel_cells_and_jobs() {
    let sweep = FleetSweep::small();
    let serial = fleet::run_churn(&test_config(), &sweep, 1)
        .expect("small sweep has churn")
        .to_table();
    let parallel = fleet::run_churn(&test_config().with_parallel_engine(true), &sweep, 1)
        .expect("small sweep has churn")
        .to_table();
    let threaded = fleet::run_churn(&test_config(), &sweep, 8)
        .expect("small sweep has churn")
        .to_table();
    assert_eq!(serial, parallel);
    assert_eq!(serial, threaded);
}
