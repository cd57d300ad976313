//! Timing taken from outside the program: a host clock, a workload
//! decorator, a scheduler decorator and the in-memory span log.
//!
//! The decorators forward every trait method to the wrapped value, so the
//! simulation they take part in is unchanged: the self-tests compare output
//! digests with and without them.

use kyoto_hypervisor::scheduler::{ExecOverrides, Priority, Scheduler, TickReport};
use kyoto_hypervisor::vm::{VcpuId, VmConfig};
use kyoto_sim::cache::{Cache, CacheConfig};
use kyoto_sim::topology::CoreId;
use kyoto_sim::workload::{Op, Workload};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The host clock. Every host-time number of the benchmark starts here.
pub fn now() -> Instant {
    // kyoto-lint: allow(wall-clock): the benchmark measures host time; no simulated result reads it
    Instant::now()
}

/// Memory addresses kept per decorated workload for the cache replay.
const CAPTURE_PER_WORKLOAD: usize = 1 << 15;

/// Counters of one decorated workload, shared with its clones (a clone
/// taken for a checkpoint or a migration keeps counting into them).
#[derive(Default)]
pub struct WorkloadStats {
    ops: AtomicU64,
    useful_ops: AtomicU64,
    fill_calls: AtomicU64,
    gen_ns: AtomicU64,
    addrs: Mutex<Vec<u64>>,
}

/// Totals over every workload a [`Probe`] decorated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadTotals {
    /// Ops generated.
    pub ops: u64,
    /// Ops generated while the workload did not yet want to block.
    pub useful_ops: u64,
    /// `fill_ops` (and `next_op`) calls.
    pub fill_calls: u64,
    /// Host nanoseconds spent generating ops.
    pub gen_ns: u64,
}

/// The registry of one rep's decorated workloads.
#[derive(Default)]
pub struct Probe {
    workloads: Mutex<Vec<Arc<WorkloadStats>>>,
}

impl Probe {
    /// Wraps `inner` in a [`TimedWorkload`] that counts into this probe.
    pub fn wrap(&self, inner: Box<dyn Workload>) -> Box<dyn Workload> {
        let stats = Arc::new(WorkloadStats::default());
        self.workloads
            .lock()
            .expect("probe lock is never held across a panic")
            .push(Arc::clone(&stats));
        Box::new(TimedWorkload { inner, stats })
    }

    /// Sums the counters of every decorated workload.
    pub fn totals(&self) -> WorkloadTotals {
        let workloads = self
            .workloads
            .lock()
            .expect("probe lock is never held across a panic");
        let mut totals = WorkloadTotals::default();
        for stats in workloads.iter() {
            totals.ops += stats.ops.load(Relaxed);
            totals.useful_ops += stats.useful_ops.load(Relaxed);
            totals.fill_calls += stats.fill_calls.load(Relaxed);
            totals.gen_ns += stats.gen_ns.load(Relaxed);
        }
        totals
    }

    /// The captured memory-address streams, one per decorated workload in
    /// decoration order.
    pub fn captured(&self) -> Vec<Vec<u64>> {
        let workloads = self
            .workloads
            .lock()
            .expect("probe lock is never held across a panic");
        workloads
            .iter()
            .map(|stats| {
                stats
                    .addrs
                    .lock()
                    .expect("capture lock is never held across a panic")
                    .clone()
            })
            .collect()
    }
}

/// A workload decorator that counts and times op generation and captures
/// the first memory addresses. Ops come from the inner workload's
/// `next_op`, one at a time, which is what the default `fill_ops` does.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    stats: Arc<WorkloadStats>,
}

impl TimedWorkload {
    fn generate(&mut self, buf: &mut [Op]) {
        let start = now();
        let mut useful = 0u64;
        for slot in buf.iter_mut() {
            if !self.inner.wants_block() {
                useful += 1;
            }
            *slot = self.inner.next_op();
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        let stats = &self.stats;
        stats.ops.fetch_add(buf.len() as u64, Relaxed);
        stats.useful_ops.fetch_add(useful, Relaxed);
        stats.fill_calls.fetch_add(1, Relaxed);
        stats.gen_ns.fetch_add(elapsed, Relaxed);
        let mut addrs = stats
            .addrs
            .lock()
            .expect("capture lock is never held across a panic");
        let room = CAPTURE_PER_WORKLOAD.saturating_sub(addrs.len());
        addrs.extend(buf.iter().filter_map(Op::addr).take(room));
    }
}

impl Workload for TimedWorkload {
    fn next_op(&mut self) -> Op {
        let mut op = [Op::Compute { cycles: 1 }];
        self.generate(&mut op);
        op[0]
    }

    fn fill_ops(&mut self, buf: &mut [Op]) -> usize {
        self.generate(buf);
        buf.len()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn working_set_bytes(&self) -> u64 {
        self.inner.working_set_bytes()
    }

    fn mem_parallelism(&self) -> f64 {
        self.inner.mem_parallelism()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn wants_block(&self) -> bool {
        self.inner.wants_block()
    }

    fn on_wake(&mut self) {
        self.inner.on_wake()
    }

    fn try_clone_box(&self) -> Option<Box<dyn Workload>> {
        let inner = self.inner.try_clone_box()?;
        Some(Box::new(TimedWorkload {
            inner,
            stats: Arc::clone(&self.stats),
        }))
    }
}

/// Counters of a [`TimedScheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedulerTotals {
    /// `pick_next` calls.
    pub pick_calls: u64,
    /// `pick_next` calls that left the core idle.
    pub idle_picks: u64,
    /// Host nanoseconds in `pick_next`.
    pub pick_ns: u64,
    /// Host nanoseconds in `account` and `on_tick`: the Equation-1
    /// estimate, quota debits and earnings, and punishment.
    pub account_ns: u64,
}

/// A scheduler decorator that counts and times the hypervisor's calls.
#[derive(Clone)]
pub struct TimedScheduler<S> {
    inner: S,
    totals: SchedulerTotals,
}

impl<S> TimedScheduler<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedScheduler {
            inner,
            totals: SchedulerTotals::default(),
        }
    }

    /// The counters so far.
    pub fn totals(&self) -> SchedulerTotals {
        self.totals
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn add_vcpu(&mut self, vcpu: VcpuId, config: &VmConfig) {
        self.inner.add_vcpu(vcpu, config)
    }

    fn remove_vcpu(&mut self, vcpu: VcpuId) {
        self.inner.remove_vcpu(vcpu)
    }

    fn pick_next(&mut self, core: CoreId, candidates: &[VcpuId]) -> Option<VcpuId> {
        let start = now();
        let picked = self.inner.pick_next(core, candidates);
        self.totals.pick_ns += start.elapsed().as_nanos() as u64;
        self.totals.pick_calls += 1;
        self.totals.idle_picks += u64::from(picked.is_none());
        picked
    }

    fn account(&mut self, vcpu: VcpuId, report: &TickReport) {
        let start = now();
        self.inner.account(vcpu, report);
        self.totals.account_ns += start.elapsed().as_nanos() as u64;
    }

    fn on_tick(&mut self, tick: u64) {
        let start = now();
        self.inner.on_tick(tick);
        self.totals.account_ns += start.elapsed().as_nanos() as u64;
    }

    fn priority(&self, vcpu: VcpuId) -> Priority {
        self.inner.priority(vcpu)
    }

    fn punishments(&self, vcpu: VcpuId) -> u64 {
        self.inner.punishments(vcpu)
    }

    fn overrides(&self, vcpu: VcpuId) -> ExecOverrides {
        self.inner.overrides(vcpu)
    }

    fn set_runnable(&mut self, vcpu: VcpuId, runnable: bool) {
        self.inner.set_runnable(vcpu, runnable)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Replays captured address streams through a standalone [`Cache`] with
/// the given geometry, interleaved round-robin in 64-access chunks (the
/// engine's op-batch size), each stream as its own owner. Returns host ns
/// per access and the hit ratio; `(0, 0)` for an empty capture.
pub fn replay_through_cache(llc: &CacheConfig, streams: &[Vec<u64>]) -> (f64, f64) {
    const CHUNK: usize = 64;
    let mut cache = Cache::new(llc.clone()).expect("a machine's LLC geometry is valid");
    for owner in 0..streams.len() {
        cache.register_owner(owner_of(owner));
    }
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let start = now();
    for chunk_start in (0..longest).step_by(CHUNK) {
        for (owner, stream) in streams.iter().enumerate() {
            let end = (chunk_start + CHUNK).min(stream.len());
            for &addr in stream.get(chunk_start..end).unwrap_or(&[]) {
                std::hint::black_box(cache.access(addr, owner_of(owner)));
            }
        }
    }
    let elapsed_ns = start.elapsed().as_nanos() as f64;
    let stats = cache.stats();
    if stats.accesses == 0 {
        return (0.0, 0.0);
    }
    (elapsed_ns / stats.accesses as f64, stats.hit_ratio())
}

fn owner_of(index: usize) -> u16 {
    // Streams take owners from 1, as the hypervisor's VM ids do.
    u16::try_from(index + 1).unwrap_or(u16::MAX)
}

/// One span row: the time and call count of one layer call within one
/// step of one rep.
pub struct Span {
    /// Rep index within the run.
    pub rep: usize,
    /// Whether the rep ran with the decorators.
    pub traced: bool,
    /// Step index within the rep.
    pub step: u64,
    /// The layer call, such as `hypervisor.step_tick`.
    pub layer: &'static str,
    /// Calls aggregated into the row.
    pub calls: u64,
    /// Host nanoseconds of those calls.
    pub ns: u64,
}

/// Spans kept in memory until the run ends. A disabled log records
/// nothing, so an untraced run's memory does not grow with its length.
#[derive(Default)]
pub struct SpanLog {
    rows: Vec<Span>,
    /// Whether rows are kept.
    pub enabled: bool,
    /// Rep index stamped on new rows.
    pub rep: usize,
    /// Traced flag stamped on new rows.
    pub traced: bool,
}

impl SpanLog {
    /// A log that keeps rows only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            ..SpanLog::default()
        }
    }

    /// Records one row for the current rep.
    pub fn record(&mut self, step: u64, layer: &'static str, calls: u64, ns: u64) {
        if !self.enabled {
            return;
        }
        self.rows.push(Span {
            rep: self.rep,
            traced: self.traced,
            step,
            layer,
            calls,
            ns,
        });
    }

    /// Writes the rows as tab-separated values under a `#` header.
    pub fn write_tsv(
        &self,
        out: &mut impl Write,
        workload: &str,
        header: &str,
    ) -> std::io::Result<()> {
        writeln!(out, "# {header}")?;
        writeln!(out, "workload\trep\ttraced\tstep\tlayer\tcalls\tns")?;
        for row in &self.rows {
            writeln!(
                out,
                "{workload}\t{}\t{}\t{}\t{}\t{}\t{}",
                row.rep,
                u8::from(row.traced),
                row.step,
                row.layer,
                row.calls,
                row.ns
            )?;
        }
        Ok(())
    }
}
