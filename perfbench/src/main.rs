//! The repository's benchmark runner: three workloads through the public
//! APIs of the Kyoto reproduction, timed from outside.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_figures --seed 42 --seconds 20 --trace 0
//! ```
//!
//! A run repeats the workload's fixed simulated work ("reps") for about
//! `--seconds`, building the workload afresh for every rep. It reports the
//! fastest rep, the fastest time of each step and the median set-up (see
//! README.md for why). `--trace 0` prints the end-to-end metrics. `--trace 1`
//! alternates plain reps with reps run through the timing decorators of
//! [`probe`], prints the per-layer metrics, and writes the span log to
//! `perfbench/out/`. Every rep's output digest is checked; see README.md.

#![forbid(unsafe_code)]

mod fleet;
mod paper;
mod probe;
#[cfg(test)]
mod selftest;
mod sleepy;

use probe::{now, SpanLog};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The default workload seed: the one whose digests are recorded below.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning, for checking later claims.
pub const HELD_OUT_SEED: u64 = 4242;

/// Output digests of the default seed, recorded on this benchmark's first
/// commit. A change that alters any simulated output changes them.
const RECORDED: [(&str, u64); 3] = [
    ("paper_figures", 0xb436_bac7_3d49_9959),
    ("fleet_replay", 0x9f72_4bc3_4cd8_30e0),
    ("sleepy_fleet", 0x1db7_bfc6_4316_b459),
];

const WORKLOADS: [&str; 3] = ["paper_figures", "fleet_replay", "sleepy_fleet"];

/// Reps a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// What one rep of a workload measured.
#[derive(Default)]
pub struct Rep {
    /// Host seconds from the rep's start to its first timed call.
    pub setup_s: f64,
    /// Host seconds of the fixed simulated work.
    pub wall_s: f64,
    /// Host milliseconds of each step.
    pub step_ms: Vec<f64>,
    /// Steps that returned an error or panicked.
    pub failed: u64,
    /// Digest of the workload's simulated output.
    pub digest: u64,
    /// Per-layer metrics; filled by traced reps only.
    pub layers: BTreeMap<String, f64>,
}

/// What the run keeps of a rep: its step samples are folded into
/// percentiles at once, so memory does not grow with the run's length.
struct Summary {
    setup_s: f64,
    wall_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Host seconds of the rep spent outside its steps.
    outside_steps_s: f64,
    steps: u64,
    failed: u64,
    digest: u64,
    layers: BTreeMap<String, f64>,
}

impl From<Rep> for Summary {
    fn from(rep: Rep) -> Self {
        Summary {
            setup_s: rep.setup_s,
            wall_s: rep.wall_s,
            p50_ms: percentile(&rep.step_ms, 0.5),
            p99_ms: percentile(&rep.step_ms, 0.99),
            outside_steps_s: rep.wall_s - rep.step_ms.iter().sum::<f64>() / 1e3,
            steps: rep.step_ms.len() as u64,
            failed: rep.failed,
            digest: rep.digest,
            layers: rep.layers,
        }
    }
}

/// FNV-1a, 64-bit: a stable digest of the simulated outputs.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string in, length-prefixed.
    pub fn str(&mut self, text: &str) {
        self.u64(text.len() as u64);
        self.bytes(text.as_bytes());
    }

    /// Folds a number in.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A seed for one input stream of a workload, derived from the run's seed
/// (SplitMix64 finaliser), so that every stream moves with `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Inserts the `workloads.*` metrics of a traced rep.
pub fn workload_layers(totals: &probe::WorkloadTotals, rep: &mut Rep) {
    let layers = &mut rep.layers;
    layers.insert("workloads.ops".into(), totals.ops as f64);
    layers.insert("workloads.fill_calls".into(), totals.fill_calls as f64);
    layers.insert("workloads.gen_s".into(), totals.gen_ns as f64 / 1e9);
    layers.insert(
        "workloads.useful_op_ratio".into(),
        totals.useful_ops as f64 / totals.ops.max(1) as f64,
    );
}

/// Inserts the LLC counts of a traced rep, summed over its caches.
pub fn llc_layers(accesses: u64, misses: u64, rep: &mut Rep) {
    let layers = &mut rep.layers;
    layers.insert("sim.llc_accesses".into(), accesses as f64);
    layers.insert("sim.llc_misses".into(), misses as f64);
    layers.insert(
        "sim.llc_miss_ratio".into(),
        misses as f64 / accesses.max(1) as f64,
    );
}

/// Host threads available to the program's parallel layers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 120),
            "--trace" => match number()? {
                0 => trace = false,
                1 => trace = true,
                _ => return Err("--trace takes 0 or 1".to_string()),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_rep(workload: &str, seed: u64, traced: bool, spans: &mut SpanLog) -> Rep {
    match workload {
        "paper_figures" => paper::rep(seed, traced, spans),
        "fleet_replay" => fleet::rep(seed, &fleet::SHAPE, traced, spans),
        _ => sleepy::rep(seed, &sleepy::SHAPE, traced, spans),
    }
}

fn parallelism(workload: &str) -> String {
    match workload {
        "paper_figures" => format!("jobs={} engine=serial", nproc()),
        "fleet_replay" => format!("cells={} parallel_cells=on", fleet::SHAPE.cells),
        _ => format!("sockets={} parallel_engine=on", sleepy::SHAPE.sockets),
    }
}

/// The median; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p` in `[0, 1]`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Process CPU seconds (user + system, every thread), from /proc.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in USER_HZ (100 per second) ticks.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The process's resident-memory high-water mark in MB, from /proc.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "none".to_string())
}

fn host_metadata(args: &Args) -> String {
    format!(
        "host nproc={} rustc=\"{}\" git={} workload={} seed={} trace={} parallelism=\"{}\"",
        nproc(),
        command_output("rustc", &["--version"]),
        command_output("git", &["rev-parse", "--short=12", "HEAD"]),
        args.workload,
        args.seed,
        u8::from(args.trace),
        parallelism(&args.workload),
    )
}

/// Every per-layer metric name with its unit, in print order.
fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut units: Vec<(String, &'static str)> = vec![("host.cpu_s".into(), "s")];
    for target in paper::TARGETS {
        units.push((format!("experiments.{target}_s"), "s"));
    }
    for (name, unit) in [
        ("experiments.fanout_busy_ratio", "ratio"),
        ("workloads.ops", "count"),
        ("workloads.fill_calls", "count"),
        ("workloads.gen_s", "s"),
        ("workloads.useful_op_ratio", "ratio"),
        ("sim.instructions", "count"),
        ("sim.cycles", "count"),
        ("sim.llc_accesses", "count"),
        ("sim.llc_misses", "count"),
        ("sim.llc_miss_ratio", "ratio"),
        ("sim.engine_self_s", "s"),
        ("cache.access_ns", "ns"),
        ("cache.replay_hit_ratio", "ratio"),
        ("hypervisor.pick_calls", "count"),
        ("hypervisor.pick_s", "s"),
        ("hypervisor.account_s", "s"),
        ("hypervisor.punishments", "count"),
        ("hypervisor.blocked_fraction", "ratio"),
        ("hypervisor.idle_ticks", "count"),
        ("cluster.snapshot_us", "us"),
        ("cluster.plan_us", "us"),
        ("cluster.checkpoint_ms", "ms"),
        ("cluster.migrations", "count"),
        ("cluster.crashes", "count"),
        ("cluster.readmitted", "count"),
        ("service.select_us", "us"),
        ("service.requested", "count"),
        ("service.admitted", "count"),
        ("service.rejected", "count"),
        ("service.admit_ratio", "ratio"),
        ("service.queue_peak", "count"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        units.push((name.into(), unit));
    }
    units
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let recorded = RECORDED
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, digest)| digest)
        .filter(|_| args.seed == DEFAULT_SEED);

    let mut spans = SpanLog::new(args.trace);
    // The lowest host time seen for each step index over the plain reps:
    // every rep does the same work at the same step index.
    let mut step_min: Vec<f64> = Vec::new();
    let mut plain: Vec<Summary> = Vec::new();
    let mut traced: Vec<Summary> = Vec::new();
    let mut plain_cpu_s: Vec<f64> = Vec::new();
    // A rep starts only if one more of the last rep's length still ends
    // within `--seconds`, so a run measures for about that long.
    let budget = std::time::Duration::from_secs(args.seconds);
    let start = now();
    let mut last_rep = std::time::Duration::ZERO;
    while plain.len() < MIN_REPS || start.elapsed() + last_rep <= budget {
        let rep_start = now();
        spans.rep = plain.len();
        spans.traced = false;
        let cpu_before = cpu_seconds();
        let rep = run_rep(&args.workload, args.seed, false, &mut spans);
        for (i, &ms) in rep.step_ms.iter().enumerate() {
            match step_min.get_mut(i) {
                Some(min) => *min = min.min(ms),
                None => step_min.push(ms),
            }
        }
        plain.push(rep.into());
        plain_cpu_s.push(cpu_seconds() - cpu_before);
        if args.trace {
            spans.rep = traced.len();
            spans.traced = true;
            traced.push(run_rep(&args.workload, args.seed, true, &mut spans).into());
        }
        last_rep = rep_start.elapsed();
    }

    // Output check: every rep, traced or not, must reproduce the recorded
    // digest (default seed) or else the first rep's digest. A rep that does
    // not counts all of its steps as failed.
    let reference = recorded.unwrap_or(plain[0].digest);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for rep in plain.iter().chain(&traced) {
        attempted += rep.steps;
        failed += if rep.digest == reference {
            rep.failed
        } else {
            rep.steps
        };
    }
    let digests: Vec<String> = plain
        .iter()
        .chain(&traced)
        .map(|rep| format!("{:016x}", rep.digest))
        .collect();

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let wall = |reps: &[Summary]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        for (name, unit) in per_layer_units() {
            let value = match name.as_str() {
                "host.cpu_s" => median(&plain_cpu_s),
                "trace.overhead_ratio" => wall(&traced) / wall(&plain),
                _ => median(
                    &traced
                        .iter()
                        .map(|rep| rep.layers.get(&name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            metrics.push((name, value, unit));
        }
        let header = host_metadata(&args);
        let written = std::fs::create_dir_all("perfbench/out").and_then(|()| {
            let path = format!(
                "perfbench/out/spans-{}-seed{}.tsv",
                args.workload, args.seed
            );
            let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
            spans.write_tsv(&mut file, &args.workload, &header)?;
            std::io::Write::flush(&mut file)?;
            Ok(path)
        });
        match written {
            Ok(path) => println!("# spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write the span log: {e}"),
        }
    } else {
        // Time stolen by other tenants of the host only ever adds to a rep,
        // and on a 2-vCPU virtual machine it came in bursts of seconds to
        // minutes. So every step is timed at its fastest over the reps.
        // Where steps run one after another, the work's host time is their
        // sum plus the fastest time spent outside them; `paper_figures`
        // overlaps its steps, so its fastest rep stands instead.
        let fastest = |f: fn(&Summary) -> f64| plain.iter().map(f).fold(f64::INFINITY, f64::min);
        let wall_s = if args.workload == "paper_figures" {
            fastest(|r| r.wall_s)
        } else {
            step_min.iter().sum::<f64>() / 1e3 + fastest(|r| r.outside_steps_s)
        };
        let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        metrics.push(("setup_s".into(), median(&setups), "s"));
        metrics.push(("wall_s".into(), wall_s, "s"));
        metrics.push(("step_p50_ms".into(), percentile(&step_min, 0.5), "ms"));
        metrics.push(("step_p99_ms".into(), percentile(&step_min, 0.99), "ms"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
    }

    println!("# {}", host_metadata(&args));
    println!(
        "# reps={} traced_reps={} steps={} failed={} failed_ratio={} digests={}",
        plain.len(),
        traced.len(),
        attempted,
        failed,
        failed as f64 / attempted.max(1) as f64,
        digests.join(",")
    );
    let per_rep = |f: fn(&Summary) -> f64| {
        plain
            .iter()
            .map(|r| format!("{:.4}", f(r)))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!("# per plain rep: wall_s={}", per_rep(|r| r.wall_s));
    println!("# per plain rep: step_p50_ms={}", per_rep(|r| r.p50_ms));
    println!("# per plain rep: step_p99_ms={}", per_rep(|r| r.p99_ms));
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
