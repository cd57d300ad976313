//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p kyoto-bench --bin figures -- all
//! cargo run --release -p kyoto-bench --bin figures -- fig1 fig5
//! cargo run --release -p kyoto-bench --bin figures -- --quick all
//! cargo run --release -p kyoto-bench --bin figures -- --jobs 4 all
//! cargo run --release -p kyoto-bench --bin figures -- --parallel-engine all
//! cargo run --release -p kyoto-bench --bin figures -- --scenario cloudscale
//! cargo run --release -p kyoto-bench --bin figures -- --scenario fleet
//! cargo run --release -p kyoto-bench --bin figures -- --scenario churn
//! cargo run --release -p kyoto-bench --bin figures -- --scenario failures
//! cargo run --release -p kyoto-bench --bin figures -- --no-timing all
//! cargo run --release -p kyoto-bench --bin figures -- --scenario service --trace-out t.txt
//! cargo run --release -p kyoto-bench --bin figures -- --trace-out trace.json all
//! ```
//!
//! `all` renders every target once; the `fleet` table already includes the
//! churn sweep, so `churn` (that half alone) is only rendered when named.
//! Parsing is strict: an unknown flag or target, `--jobs` without a positive
//! integer, or `--trace-out`/`--scenario` without a value prints the usage
//! to stderr and exits with status 2.
//!
//! Figure scenarios are independent: each builds its own machine, engine and
//! hypervisor from the shared [`ExperimentConfig`] and derives deterministic
//! per-VM seeds from it. `--jobs N` therefore runs them on `N` worker
//! threads through [`run_jobs`] (the cloudscale and fleet sweeps
//! additionally fan their own cells out over the same budget); outputs are
//! buffered and printed in the requested order, so the report is
//! byte-identical whatever the parallelism. The `fleet` scenario (the `kyoto-cluster` subsystem,
//! including its churn sweep — `churn` renders that half alone) runs its
//! cluster cells on scoped threads when `--parallel-engine` is set — also
//! bit-identically.
//! `--parallel-engine` additionally runs each scenario's engine ticks with
//! one thread per populated socket (`SimEngine::run_slots_parallel`); the
//! per-socket op order is preserved exactly, so figure content stays
//! byte-identical with the switch on or off. `--no-timing` suppresses the
//! wall-clock lines, making the *entire* output byte-deterministic — the CI
//! determinism gate diffs two such runs. `--scenario NAME` is an explicit
//! way to select one target (identical to passing `NAME` positionally).
//! `--trace-out PATH` additionally captures one representative cycle-domain
//! trace per selected target domain ([`kyoto_experiments::trace`]) and
//! writes the merged document to PATH — Chrome trace-event JSON (open in
//! Perfetto) when PATH ends in `.json`, text format v1 with the
//! `CycleProfile` rollup appended as comments otherwise. Trace timestamps
//! are simulated cycles, so the file is byte-identical across reruns and
//! `--parallel-engine`; the status note goes to stderr, keeping stdout
//! unchanged.

use kyoto_bench::{figures_config, figures_quick_config};
use kyoto_experiments::cloudscale::{self, CloudscaleSweep};
use kyoto_experiments::config::ExperimentConfig;
use kyoto_experiments::failures::{self, FailureSweep};
use kyoto_experiments::fleet::{self, FleetSweep};
use kyoto_experiments::harness::run_jobs;
use kyoto_experiments::service::{self, ServiceSweep};
use kyoto_experiments::{
    fig1, fig10, fig11, fig12, fig2, fig3, fig4, fig5, fig6, fig8, fig9, interactive, tables,
};
use std::time::Instant;

const USAGE: &str = "usage: figures [--quick] [--parallel-engine] [--no-timing] [--jobs N] \
[--scenario NAME] [--trace-out PATH] [TARGET...]
targets: all, churn, table1, table2, fig1-fig6, fig8-fig12, cloudscale, fleet, failures, \
service, interactive";

/// What `all` renders. `churn` is left out because the `fleet` table already
/// appends the churn sweep.
const ALL_TARGETS: [&str; 18] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "cloudscale",
    "fleet",
    "failures",
    "service",
    "interactive",
];

fn render_target(target: &str, config: &ExperimentConfig, quick: bool, jobs: usize) -> String {
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
        "cloudscale" => {
            let sweep = if quick {
                CloudscaleSweep::small()
            } else {
                CloudscaleSweep::standard()
            };
            // The sweep's cells fan out over their own `--jobs`-sized pool,
            // nested inside this scenario worker (transiently up to ~2x the
            // budget while other scenarios finish; scoped threads, so the
            // surplus drains with them). Output is byte-identical whatever
            // the thread count.
            cloudscale::run_with_sweep_jobs(config, &sweep, jobs).to_table()
        }
        "fleet" => {
            let sweep = if quick {
                FleetSweep::small()
            } else {
                FleetSweep::standard()
            };
            // Static consolidation cells plus the churn sweep, fanned out
            // over the shared `--jobs` budget like cloudscale's cells.
            fleet::run_with_sweep_jobs(config, &sweep, jobs).to_table()
        }
        "churn" => {
            // The churn half alone: fleet dynamics (VM arrival/departure
            // streams, a scripted drain/join cycle) under every policy in
            // both planner modes — the CI determinism gate's churn target.
            let sweep = if quick {
                FleetSweep::small()
            } else {
                FleetSweep::standard()
            };
            fleet::run_churn_with_jobs(config, &sweep, jobs)
                .map(|churn| churn.to_table())
                .unwrap_or_else(|| "Fleet churn: no churn sweep configured\n".to_string())
        }
        "failures" => {
            // The fleet under injected faults: cell crashes (orphans
            // re-admitted through the bounded-backoff retry queue),
            // slowdowns and mid-migration aborts, swept over crash rate x
            // policy x planner mode — the CI determinism gate's failures
            // target.
            let sweep = if quick {
                FailureSweep::small()
            } else {
                FailureSweep::standard()
            };
            failures::run_with_sweep_jobs(config, &sweep, jobs).to_table()
        }
        "service" => {
            // The fleet behind the kyoto-service control plane: a request
            // trace replayed through the SLA-aware admission controller
            // over arrival rate x admission policy, with a mid-trace
            // checkpoint/restore check baked in — the CI determinism
            // gate's service target.
            let sweep = if quick {
                ServiceSweep::small()
            } else {
                ServiceSweep::standard()
            };
            service::run_with_sweep_jobs(config, &sweep, jobs).to_table()
        }
        "interactive" => {
            // Sleep-mostly latency-sensitive VMs (Ready/Running/Blocked
            // lifecycle, timer wakes) consolidated with batch polluters
            // under KS4Xen — the CI determinism gate's interactive target.
            interactive::run(config).to_table()
        }
        other => unreachable!("target `{other}` passed parse_args"),
    }
}

/// The parsed command line.
struct Options {
    quick: bool,
    parallel_engine: bool,
    no_timing: bool,
    jobs: usize,
    trace_out: Option<String>,
    targets: Vec<String>,
}

/// Parses the command line, rejecting anything it does not understand.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        quick: false,
        parallel_engine: false,
        no_timing: false,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace_out: None,
        targets: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--parallel-engine" => options.parallel_engine = true,
            "--no-timing" => options.no_timing = true,
            _ if !arg.starts_with('-') => options.targets.push(arg.clone()),
            _ => {
                let (flag, inline) = arg
                    .split_once('=')
                    .map_or((arg.as_str(), None), |(flag, value)| (flag, Some(value)));
                if !matches!(flag, "--jobs" | "--trace-out" | "--scenario") {
                    return Err(format!("unknown flag `{arg}`"));
                }
                let value = match inline {
                    Some(value) => value,
                    None => args.next().map_or("", |v| v.as_str()),
                };
                if value.is_empty() || value.starts_with("--") {
                    return Err(format!("`{flag}` needs a value"));
                }
                match flag {
                    "--jobs" => match value.parse() {
                        Ok(jobs) if jobs > 0 => options.jobs = jobs,
                        _ => {
                            return Err(format!("`--jobs` needs a positive integer, got `{value}`"))
                        }
                    },
                    "--trace-out" => options.trace_out = Some(value.to_string()),
                    _ => options.targets.push(value.to_string()),
                }
            }
        }
    }
    for target in &options.targets {
        if !(target == "all" || target == "churn" || ALL_TARGETS.contains(&target.as_str())) {
            return Err(format!("unknown target `{target}`"));
        }
    }
    Ok(options)
}

/// Captures the selected targets' representative traces and writes the
/// merged document to `path` — Chrome JSON for `.json`, text v1 with the
/// cycle-profile rollup otherwise. Status goes to stderr so stdout stays
/// byte-identical with and without the flag.
fn write_trace(path: &str, targets: &[&str], config: &ExperimentConfig) {
    let doc = kyoto_experiments::trace::capture_merged(targets, config);
    let output = if path.ends_with(".json") {
        let json = kyoto_trace::to_chrome_json(&doc);
        kyoto_trace::validate_json(&json).expect("chrome trace export is valid JSON");
        json
    } else {
        kyoto_experiments::trace::render_with_profile(&doc)
    };
    if let Err(error) = std::fs::write(path, output) {
        eprintln!("failed to write trace to `{path}`: {error}");
        std::process::exit(1);
    }
    eprintln!("[trace written to {path}]");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args).unwrap_or_else(|error| {
        eprintln!("figures: {error}\n{USAGE}");
        std::process::exit(2);
    });
    let (quick, jobs) = (options.quick, options.jobs);
    let config = if quick {
        figures_quick_config()
    } else {
        figures_config()
    }
    .with_parallel_engine(options.parallel_engine);
    let mut targets: Vec<&str> = options.targets.iter().map(String::as_str).collect();
    if targets.is_empty() || targets.contains(&"all") {
        targets = ALL_TARGETS.to_vec();
    }
    println!(
        "Kyoto figure regeneration (scale 1/{}, {} warm-up + {} measured ticks per scenario, {} jobs)",
        config.scale, config.warmup_ticks, config.measure_ticks, jobs
    );
    println!("{}", "=".repeat(72));
    let start = Instant::now();
    let rendered = run_jobs(targets.len(), jobs, |index| {
        let start = Instant::now();
        let table = render_target(targets[index], &config, quick, jobs);
        (table, start.elapsed())
    });
    for (target, (table, elapsed)) in targets.iter().zip(rendered) {
        println!("{table}");
        if !options.no_timing {
            println!("[{} generated in {:.1?}]", target, elapsed);
        }
        println!("{}", "=".repeat(72));
    }
    if !options.no_timing {
        println!("[all targets done in {:.1?}]", start.elapsed());
    }
    if let Some(path) = &options.trace_out {
        write_trace(path, &targets, &config);
    }
}
