//! Deterministic time-stepped simulation engine.
//!
//! The engine executes a set of *slots* — (core, owner, workload) bindings —
//! for a common cycle budget, interleaving their memory accesses over the
//! shared machine in cycle order. This models the two contention modes of
//! Section 2.2 of the paper:
//!
//! * **parallel execution**: slots on different cores of the same socket are
//!   interleaved within the same call, so their access streams compete for
//!   LLC sets concurrently;
//! * **alternative execution**: slots scheduled on the same core in
//!   *successive* calls (as the hypervisor's scheduler time-shares the core)
//!   find the LLC state left behind by the previous occupant.
//!
//! The default [`SimEngine::run_slots`] path batches op fetching through
//! [`Workload::fill_ops`] and advances slots in epochs (run the
//! furthest-behind slot until it catches up with the next one) instead of
//! re-scanning every slot per op. The interleaving it produces is
//! bit-identical to the per-op [`SimEngine::run_slots_reference`] path,
//! which is kept as the semantic baseline for equivalence tests and
//! benchmarks.

use crate::cache::OwnerId;
use crate::error::SimError;
use crate::hierarchy::{AccessKind, AccessOutcome};
use crate::pmc::PmcSet;
use crate::shadow::ShadowAttribution;
use crate::topology::{AccessRoute, CoreId, Machine, NumaNode, SocketView};
use crate::workload::{Op, Workload};
use kyoto_trace::TraceSink;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Ops fetched from a workload per `fill_ops` batch: large enough to
/// amortise the dynamic dispatch, small enough that carried-over ops stay
/// negligible in memory.
const OP_CHUNK: usize = 64;

/// Calls a carried op buffer may sit unused before the stale sweep drops it.
/// Large enough that any legitimately descheduled stream (alternative
/// execution, long Kyoto punishments) survives, small enough that abandoned
/// tags cannot accumulate without bound.
const CARRY_STALE_AFTER: u64 = 1024;

/// How often (in batched `run_slots*` calls) the stale-carry sweep runs.
const CARRY_PRUNE_INTERVAL: u64 = 256;

/// An execution binding: a workload running on behalf of `owner` on `core`.
pub struct ExecSlot<'a> {
    /// Core the slot runs on.
    pub core: CoreId,
    /// Owner (VM id) of the memory traffic.
    pub owner: OwnerId,
    /// The workload generating micro-operations.
    pub workload: &'a mut dyn Workload,
    /// NUMA node where the owner's memory lives.
    pub data_node: NumaNode,
    /// When set, every LLC miss pays the remote-memory latency regardless of
    /// placement. Used to model a vCPU migrated away from its memory by the
    /// socket-dedication pollution monitor (Fig. 9).
    pub force_remote: bool,
    /// Stable identity of the workload stream behind this slot, used to key
    /// the engine's batched op buffers across [`SimEngine::run_slots`]
    /// calls. Slots rebuilt every call (as the hypervisor does per tick)
    /// must reuse the same tag for the same workload so its op stream
    /// continues seamlessly; tags must be unique within one call.
    ///
    /// Defaults to a value derived from `(owner, core)`, which is correct
    /// as long as a given workload always runs under the same owner/core
    /// pair. **Migration pitfall:** the default tag changes when the same
    /// workload is rebound to a different core, so the ops prefetched under
    /// the old tag are orphaned — the stream silently skips up to one chunk
    /// and the abandoned buffer lingers until the engine's stale sweep
    /// prunes it. Callers that migrate streams between cores must supply a
    /// core-independent tag via [`ExecSlot::with_tag`]; the hypervisor uses
    /// the vCPU key.
    pub tag: u64,
    /// A blocked (sleeping) vCPU slot: the engine executes nothing for it
    /// and charges zero cycles, but keeps the ops already prefetched under
    /// its tag parked so the stream resumes exactly where it stopped when
    /// the slot wakes. The hypervisor passes its Blocked vCPUs this way so
    /// per-core schedules keep their shape while idle slots stay free.
    pub blocked: bool,
    /// Cumulative counters across every call this slot participated in.
    pub pmcs: PmcSet,
}

impl std::fmt::Debug for ExecSlot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecSlot")
            .field("core", &self.core)
            .field("owner", &self.owner)
            .field("workload", &self.workload.name())
            .field("data_node", &self.data_node)
            .field("force_remote", &self.force_remote)
            .field("tag", &self.tag)
            .field("blocked", &self.blocked)
            .field("pmcs", &self.pmcs)
            .finish()
    }
}

impl<'a> ExecSlot<'a> {
    /// Creates a slot with data local to the core's socket and no forced
    /// remote accesses.
    pub fn new(core: CoreId, owner: OwnerId, workload: &'a mut dyn Workload) -> Self {
        ExecSlot {
            tag: (u64::from(owner) << 32) | (core.0 as u64 & 0xffff_ffff),
            core,
            owner,
            workload,
            data_node: NumaNode(usize::MAX), // resolved lazily to the core's node
            force_remote: false,
            blocked: false,
            pmcs: PmcSet::default(),
        }
    }

    /// Overrides the op-stream identity tag (see [`ExecSlot::tag`]).
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Places the owner's memory on an explicit NUMA node.
    pub fn with_data_node(mut self, node: NumaNode) -> Self {
        self.data_node = node;
        self
    }

    /// Forces LLC misses to pay the remote-memory latency.
    pub fn with_force_remote(mut self, force: bool) -> Self {
        self.force_remote = force;
        self
    }

    /// Marks the slot blocked (see [`ExecSlot::blocked`]).
    pub fn with_blocked(mut self, blocked: bool) -> Self {
        self.blocked = blocked;
        self
    }
}

/// Per-slot outcome of one [`SimEngine::run_slots`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantumReport {
    /// Cycles actually consumed (>= the requested budget, because the last
    /// op may overshoot it slightly).
    pub consumed_cycles: u64,
    /// Counter delta produced during this call.
    pub pmc_delta: PmcSet,
    /// Number of LLC fills that evicted another owner's line.
    pub pollution_events: u64,
}

impl QuantumReport {
    /// Instructions per cycle achieved during this quantum.
    pub fn ipc(&self) -> f64 {
        self.pmc_delta.ipc()
    }
}

/// A batched op stream: ops prefetched from a workload in [`OP_CHUNK`]
/// blocks, consumed one at a time. Unconsumed ops survive in the engine's
/// carry map so the stream continues exactly where it stopped on the next
/// call — batching is invisible to the simulation semantics.
#[derive(Debug, Default, Clone)]
struct OpQueue {
    buf: Vec<Op>,
    head: usize,
}

impl OpQueue {
    #[inline]
    fn next(&mut self, workload: &mut dyn Workload) -> Op {
        if self.head == self.buf.len() {
            self.refill(workload);
        }
        let op = self.buf[self.head];
        self.head += 1;
        op
    }

    fn refill(&mut self, workload: &mut dyn Workload) {
        self.buf.clear();
        self.buf.resize(OP_CHUNK, Op::Compute { cycles: 1 });
        self.head = 0;
        let filled = workload.fill_ops(&mut self.buf);
        self.buf.truncate(filled);
        if self.buf.is_empty() {
            // Defensive: a short-filling workload must still make progress.
            self.buf.push(workload.next_op());
        }
    }

    fn is_drained(&self) -> bool {
        self.head == self.buf.len()
    }
}

/// Memory-access target of the engine's execution loops: the whole machine
/// (serial paths) or one socket's split-borrowed view (the socket-parallel
/// path). Monomorphised, so the per-op cost is identical either way.
trait AccessMem {
    fn access_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> AccessOutcome;
}

impl AccessMem for Machine {
    #[inline]
    fn access_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> AccessOutcome {
        Machine::access_routed(self, route, addr, kind, owner)
    }
}

impl AccessMem for SocketView<'_> {
    #[inline]
    fn access_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> AccessOutcome {
        SocketView::access_routed(self, route, addr, kind, owner)
    }
}

/// Several sockets' split-borrowed views driven by one thread: the execution
/// target of a merged component in [`SimEngine::run_slots_parallel`] (sockets
/// coupled by a shadow-attributed owner that has slots on more than one of
/// them). Single-socket components keep using [`SocketView`] directly, so the
/// common path pays no extra indirection.
struct SocketGroup<'a> {
    views: Vec<SocketView<'a>>,
    /// Socket index -> position in `views` (only the member sockets are
    /// populated; a routed access to any other socket is a grouping bug).
    view_of_socket: Vec<usize>,
}

impl AccessMem for SocketGroup<'_> {
    #[inline]
    fn access_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> AccessOutcome {
        let view = self.view_of_socket[route.socket_index()];
        self.views[view].access_routed(route, addr, kind, owner)
    }
}

/// Executes one micro-op for a slot, accumulating its cycle cost, counter
/// deltas and pollution events directly into `report`: the shared cost
/// model of every engine path.
#[inline]
fn execute_op<M: AccessMem>(
    machine: &mut M,
    shadow: &mut Option<ShadowAttribution>,
    route: AccessRoute,
    owner: OwnerId,
    mem_parallelism: f64,
    op: Op,
    report: &mut QuantumReport,
) {
    match op {
        Op::Compute { cycles } => {
            let cycles = u64::from(cycles.max(1));
            report.consumed_cycles += cycles;
            report.pmc_delta.instructions += 1;
            report.pmc_delta.unhalted_core_cycles += cycles;
        }
        Op::Load { addr } | Op::Store { addr } => {
            let kind = if matches!(op, Op::Store { .. }) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let outcome = machine.access_routed(route, addr, kind, owner);
            if outcome.level.reached_llc() {
                if let Some(shadow) = shadow.as_mut() {
                    shadow.observe(owner, addr);
                }
            }
            // Memory-level parallelism: streaming workloads overlap
            // independent misses, so the per-access charge of an LLC
            // miss shrinks by the declared parallelism factor.
            let effective_latency = if outcome.level.is_llc_miss() {
                ((f64::from(outcome.latency) / mem_parallelism).round() as u32).max(1)
            } else {
                outcome.latency
            };
            let cycles = u64::from(effective_latency) + 1;
            report.consumed_cycles += cycles;
            let delta = &mut report.pmc_delta;
            delta.instructions += 1;
            delta.unhalted_core_cycles += cycles;
            delta.memory_accesses += 1;
            delta.ilc_misses += u64::from(outcome.level.missed_l1());
            delta.llc_references += u64::from(outcome.level.reached_llc());
            delta.llc_misses += u64::from(outcome.level.is_llc_miss());
            delta.remote_accesses +=
                u64::from(outcome.level == crate::hierarchy::MemLevel::RemoteMemory);
            report.pollution_events += u64::from(outcome.polluted_llc);
        }
    }
}

/// The batched/epoch interleaving loop shared by [`SimEngine::run_slots`]
/// (whole machine) and the per-socket groups of
/// [`SimEngine::run_slots_parallel`] (split-borrowed socket views).
///
/// Pops the furthest-behind slot from a min-heap on
/// `(consumed_cycles, slot index)` — exactly the slot the reference path's
/// linear scan would pick — and runs it op by op until it would no longer be
/// the scheduling minimum (or its budget is spent), then requeues it.
/// `slots`, `queues`, `routes`, `mlps` and `reports` are parallel arrays.
#[allow(clippy::too_many_arguments)]
fn run_epoch_interleaving<M: AccessMem>(
    machine: &mut M,
    shadow: &mut Option<ShadowAttribution>,
    slots: &mut [&mut ExecSlot<'_>],
    queues: &mut [OpQueue],
    routes: &[AccessRoute],
    mlps: &[f64],
    reports: &mut [QuantumReport],
    cycle_budget: u64,
) {
    let n = slots.len();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..n).map(|i| Reverse((0u64, i))).collect();
    while let Some(Reverse((_, i))) = heap.pop() {
        let (limit_cycles, limit_index) = match heap.peek() {
            Some(Reverse((cycles, index))) => (*cycles, *index),
            None => (cycle_budget, usize::MAX),
        };
        let slot = &mut *slots[i];
        let queue = &mut queues[i];
        let report = &mut reports[i];
        let route = routes[i];
        let mlp = mlps[i];
        let owner = slot.owner;
        loop {
            let op = queue.next(&mut *slot.workload);
            execute_op(machine, shadow, route, owner, mlp, op, report);
            let consumed = report.consumed_cycles;
            if consumed >= cycle_budget {
                break;
            }
            if consumed > limit_cycles || (consumed == limit_cycles && i > limit_index) {
                heap.push(Reverse((consumed, i)));
                break;
            }
        }
    }
}

/// A carried op buffer plus the call number that last touched it, so the
/// stale sweep can prune buffers whose tag never reappears.
#[derive(Debug, Clone)]
struct CarriedOps {
    queue: OpQueue,
    last_used: u64,
}

/// The time-stepped simulation engine.
///
/// `Clone` deep-copies the whole machine state (cache hierarchies, shadow
/// replay, carried op buffers), which is what fleet checkpointing relies on:
/// a cloned engine continues bit-identically to the original.
#[derive(Debug, Clone)]
pub struct SimEngine {
    machine: Machine,
    shadow: Option<ShadowAttribution>,
    elapsed_cycles: u64,
    /// Batched-but-unexecuted ops per slot tag, carried across
    /// [`SimEngine::run_slots`] calls so op streams continue seamlessly.
    /// Entries whose tag stays absent for [`CARRY_STALE_AFTER`] calls are
    /// pruned (see [`ExecSlot::tag`] for how stale tags arise).
    op_carry: HashMap<u64, CarriedOps>,
    /// Number of batched (`run_slots` / `run_slots_parallel`) calls so far;
    /// the logical clock of the carry map's staleness accounting.
    run_calls: u64,
    /// Worker threads the most recent [`SimEngine::run_slots_parallel`] call
    /// spawned (0 when it fell back to the serial path). Diagnostics only —
    /// lets tests pin which batches actually parallelise.
    last_parallel_groups: usize,
    /// The cycle-domain trace sink (disabled by default; one enabled-branch
    /// per batched call when off, bench-gated by `trace_overhead`). Cloned
    /// with the engine, so checkpoints carry trace state bit-identically.
    trace: TraceSink,
}

impl SimEngine {
    /// Creates an engine around a machine, without shadow attribution.
    pub fn new(machine: Machine) -> Self {
        SimEngine {
            machine,
            shadow: None,
            elapsed_cycles: 0,
            op_carry: HashMap::new(),
            run_calls: 0,
            last_parallel_groups: 0,
            trace: TraceSink::default(),
        }
    }

    /// The engine's trace sink. Disabled by default; when enabled via
    /// [`SimEngine::trace_mut`], every batched call records an
    /// `engine.run_slots` span (timestamped in [`SimEngine::elapsed_cycles`],
    /// the simulated clock), per-batch instruction/LLC-miss counters and a
    /// batch-cycles histogram.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable access to the trace sink — enable recording with
    /// [`TraceSink::enable`], or drain per-epoch data into an upper-layer
    /// sink with [`TraceSink::drain`].
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Worker threads the most recent [`SimEngine::run_slots_parallel`] call
    /// used, 0 when it took the serial path (fewer than two populated
    /// sockets, or every populated socket coupled into one component by
    /// shadow-attributed owners).
    pub fn parallel_groups_last_call(&self) -> usize {
        self.last_parallel_groups
    }

    /// Discards batched-but-unexecuted ops fetched for `tag`. Call when the
    /// entity behind the tag disappears (VM destroyed) or its workload is
    /// replaced or reset, so a future reuse of the tag starts clean.
    pub fn clear_op_buffer(&mut self, tag: u64) {
        self.op_carry.remove(&tag);
    }

    /// Discards every batched op buffer (see [`SimEngine::clear_op_buffer`]).
    pub fn clear_op_buffers(&mut self) {
        self.op_carry.clear();
    }

    /// Number of batched op buffers currently carried across calls
    /// (diagnostics; lets tests observe the stale sweep).
    pub fn carried_op_buffers(&self) -> usize {
        self.op_carry.len()
    }

    /// Drops carried op buffers whose tag has not been seen for
    /// [`CARRY_STALE_AFTER`] calls: their stream was migrated under a
    /// different default tag or abandoned outright, and nothing will ever
    /// consume them.
    #[cold]
    fn prune_stale_carries(&mut self) {
        let cutoff = self.run_calls.saturating_sub(CARRY_STALE_AFTER);
        self.op_carry
            .retain(|_, carried| carried.last_used >= cutoff);
    }

    /// Bumps the batched-call clock and runs the periodic stale sweep.
    fn begin_batched_call(&mut self) {
        self.run_calls += 1;
        if self.run_calls.is_multiple_of(CARRY_PRUNE_INTERVAL) {
            self.prune_stale_carries();
        }
    }

    /// Enables simulator-based pollution attribution (the McSimA+ stand-in):
    /// LLC-level accesses are additionally replayed into per-owner shadow
    /// caches.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidCacheConfig`] if the machine's LLC
    /// geometry is invalid (cannot happen for a validated machine).
    pub fn enable_shadow_attribution(&mut self) -> Result<(), SimError> {
        if self.shadow.is_none() {
            self.shadow = Some(ShadowAttribution::new(self.machine.config().llc.clone())?);
        }
        Ok(())
    }

    /// Disables shadow attribution and drops its state.
    pub fn disable_shadow_attribution(&mut self) {
        self.shadow = None;
    }

    /// The shadow attribution component, if enabled.
    pub fn shadow(&self) -> Option<&ShadowAttribution> {
        self.shadow.as_ref()
    }

    /// Mutable access to the shadow attribution component, if enabled.
    pub fn shadow_mut(&mut self) -> Option<&mut ShadowAttribution> {
        self.shadow.as_mut()
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the simulated machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Total cycles executed by the busiest slot so far (a logical clock):
    /// the sum over every `run_slots*` call of the largest
    /// [`QuantumReport::consumed_cycles`] that call produced. Because the
    /// last op of a quantum may overshoot the requested budget, this runs
    /// slightly ahead of the sum of budgets; before the fix pinned by
    /// `elapsed_cycles_track_the_busiest_slot` it silently advanced by the
    /// budget instead, under-reporting the overshoot. The socket-parallel
    /// path uses the same definition (the busiest slot across all sockets).
    pub fn elapsed_cycles(&self) -> u64 {
        self.elapsed_cycles
    }

    /// Runs every slot for `cycle_budget` cycles, interleaving their
    /// execution in cycle order.
    ///
    /// Returns one report per slot, in the order of `slots`. Slots also
    /// accumulate the counter deltas into their own [`ExecSlot::pmcs`].
    ///
    /// The interleaving is epoch-based: the slot that is furthest behind in
    /// cycle time (ties broken by slot index) executes ops until it catches
    /// up with the next slot, with ops pulled from batched per-slot buffers
    /// ([`Workload::fill_ops`]). The resulting global op order — and
    /// therefore every cache state, counter and pollution attribution — is
    /// bit-identical to advancing one op at a time as
    /// [`SimEngine::run_slots_reference`] does, which a property test
    /// asserts; only the bookkeeping cost per op differs.
    ///
    /// Slots marked [`ExecSlot::blocked`] are skipped entirely: they
    /// execute no ops, consume zero cycles, report all-zero deltas, and
    /// their prefetched op buffers stay parked under their tag for the
    /// wake-up call. The runnable slots behave bit-identically to a call
    /// made without the blocked slots present.
    ///
    /// # Panics
    ///
    /// Panics if a slot references a core that does not exist on the machine
    /// (a programming error in the hypervisor layer).
    pub fn run_slots(
        &mut self,
        slots: &mut [ExecSlot<'_>],
        cycle_budget: u64,
    ) -> Vec<QuantumReport> {
        let n = slots.len();
        let mut reports = vec![QuantumReport::default(); n];
        if n == 0 || cycle_budget == 0 {
            return reports;
        }
        let trace_start = self.elapsed_cycles;
        self.resolve_data_nodes(slots);
        debug_assert!(
            {
                let mut tags: Vec<u64> = slots.iter().map(|s| s.tag).collect();
                tags.sort_unstable();
                tags.windows(2).all(|w| w[0] != w[1])
            },
            "slot tags must be unique within one run_slots call"
        );
        self.begin_batched_call();
        self.refresh_blocked_carries(slots);

        // Blocked slots execute nothing and charge nothing: the active
        // (runnable) slots run exactly the interleaving they would run in a
        // call without the blocked slots, and the blocked slots keep their
        // all-zero default reports. The mapping from active position to
        // original index is monotone, so the epoch tie-break (local array
        // index) preserves relative order — bit-identity discipline holds.
        let active: Vec<usize> = (0..n).filter(|&i| !slots[i].blocked).collect();

        // Pick the op streams up exactly where the previous call left them.
        let mut queues: Vec<OpQueue> = active
            .iter()
            .map(|&i| {
                self.op_carry
                    .remove(&slots[i].tag)
                    .map(|carried| carried.queue)
                    .unwrap_or_default()
            })
            .collect();
        // Memory-level parallelism and the access route are static per
        // slot; hoist both out of the per-op loop.
        let mlps: Vec<f64> = active
            .iter()
            .map(|&i| slots[i].workload.mem_parallelism().max(1.0))
            .collect();
        let routes: Vec<AccessRoute> = active
            .iter()
            .map(|&i| {
                let slot = &slots[i];
                self.machine
                    .route(slot.core, slot.data_node, slot.force_remote)
                    .expect("slot references an unknown core")
            })
            .collect();

        let mut sub_reports = vec![QuantumReport::default(); active.len()];
        if !active.is_empty() {
            let mut slot_refs: Vec<&mut ExecSlot<'_>> =
                slots.iter_mut().filter(|slot| !slot.blocked).collect();
            run_epoch_interleaving(
                &mut self.machine,
                &mut self.shadow,
                &mut slot_refs,
                &mut queues,
                &routes,
                &mlps,
                &mut sub_reports,
                cycle_budget,
            );
        }

        // Scatter the active results back to original slot order; blocked
        // positions keep default reports and default (drained) queues, so
        // `finish_batched_call` leaves their carried ops untouched.
        let mut full_queues: Vec<OpQueue> = Vec::with_capacity(n);
        full_queues.resize_with(n, OpQueue::default);
        for ((&i, report), queue) in active.iter().zip(&sub_reports).zip(queues) {
            reports[i] = *report;
            full_queues[i] = queue;
        }

        self.finish_batched_call(slots, full_queues, &reports);
        self.record_batch_trace(trace_start, &reports);
        reports
    }

    /// Keeps the carried op buffers of blocked slots alive: they are not
    /// consumed this call, but the stream is merely sleeping, not abandoned
    /// — without the refresh a long block would trip the stale-carry sweep
    /// and silently restart the stream on wake.
    fn refresh_blocked_carries(&mut self, slots: &[ExecSlot<'_>]) {
        let run_calls = self.run_calls;
        for slot in slots.iter().filter(|slot| slot.blocked) {
            if let Some(carried) = self.op_carry.get_mut(&slot.tag) {
                carried.last_used = run_calls;
            }
        }
    }

    /// Records one batched call into the trace sink: the `engine.run_slots`
    /// span covering `[start, elapsed)` on the simulated clock, plus PMC
    /// counters and the batch-cycles histogram. A single branch when
    /// tracing is off. Both the serial and socket-parallel paths call this
    /// exactly once per top-level batched call (the parallel path's serial
    /// fallbacks record through `run_slots` itself), so traces are
    /// byte-identical across the two modes.
    fn record_batch_trace(&mut self, start: u64, reports: &[QuantumReport]) {
        if !self.trace.is_enabled() {
            return;
        }
        let dur = self.elapsed_cycles - start;
        self.trace.span("engine", "engine.run_slots", start, dur);
        self.trace.counter_add("engine.batches", 1);
        self.trace.counter_add("engine.cycles", dur);
        let mut instructions = 0u64;
        let mut llc_misses = 0u64;
        for report in reports {
            instructions += report.pmc_delta.instructions;
            llc_misses += report.pmc_delta.llc_misses;
        }
        self.trace.counter_add("engine.instructions", instructions);
        self.trace.counter_add("engine.llc_misses", llc_misses);
        self.trace.hist_record("engine.batch_cycles", dur);
    }

    /// Folds a call's counter deltas into the slots' cumulative PMCs (done
    /// once per call instead of once per op), preserves
    /// fetched-but-unexecuted ops for the next call on each tag, and
    /// advances the logical clock by the busiest slot's consumed cycles.
    fn finish_batched_call(
        &mut self,
        slots: &mut [ExecSlot<'_>],
        queues: Vec<OpQueue>,
        reports: &[QuantumReport],
    ) {
        let run_calls = self.run_calls;
        for ((slot, queue), report) in slots.iter_mut().zip(queues).zip(reports) {
            slot.pmcs += report.pmc_delta;
            if !queue.is_drained() {
                self.op_carry.insert(
                    slot.tag,
                    CarriedOps {
                        queue,
                        last_used: run_calls,
                    },
                );
            }
        }
        self.elapsed_cycles += reports
            .iter()
            .map(|report| report.consumed_cycles)
            .max()
            .unwrap_or(0);
    }

    /// The semantic reference for [`SimEngine::run_slots`]: advance the
    /// furthest-behind slot by exactly one op per iteration, pulled straight
    /// from the workload with no batching. O(slots) bookkeeping per op —
    /// kept for the equivalence property tests and as the baseline the
    /// substrate benchmarks compare against.
    ///
    /// # Panics
    ///
    /// Panics if a slot references a core that does not exist on the machine.
    pub fn run_slots_reference(
        &mut self,
        slots: &mut [ExecSlot<'_>],
        cycle_budget: u64,
    ) -> Vec<QuantumReport> {
        let n = slots.len();
        let mut reports = vec![QuantumReport::default(); n];
        if n == 0 || cycle_budget == 0 {
            return reports;
        }
        self.resolve_data_nodes(slots);

        // Interleave in cycle order: always advance the slot that is the
        // furthest behind, scanning linearly (first index wins ties).
        loop {
            let mut next: Option<usize> = None;
            let mut min_cycles = u64::MAX;
            for (i, report) in reports.iter().enumerate() {
                if report.consumed_cycles < cycle_budget && report.consumed_cycles < min_cycles {
                    min_cycles = report.consumed_cycles;
                    next = Some(i);
                }
            }
            let Some(i) = next else { break };

            let slot = &mut slots[i];
            let op = slot.workload.next_op();
            let mlp = slot.workload.mem_parallelism().max(1.0);
            let route = self
                .machine
                .route(slot.core, slot.data_node, slot.force_remote)
                .expect("slot references an unknown core");
            execute_op(
                &mut self.machine,
                &mut self.shadow,
                route,
                slot.owner,
                mlp,
                op,
                &mut reports[i],
            );
        }

        for (slot, report) in slots.iter_mut().zip(&reports) {
            slot.pmcs += report.pmc_delta;
        }
        self.elapsed_cycles += reports
            .iter()
            .map(|report| report.consumed_cycles)
            .max()
            .unwrap_or(0);
        reports
    }

    /// Runs every slot for `cycle_budget` cycles like
    /// [`SimEngine::run_slots`], executing each socket's slots on its own
    /// scoped thread.
    ///
    /// Sockets share no cache state, so the machine is split into
    /// independently mutable per-socket views ([`Machine::sockets_mut`]) and
    /// the batch is partitioned by the socket of each slot's core; every
    /// group runs the same epoch interleaving as the serial path against its
    /// own view. Within a socket the produced op order — and therefore every
    /// cache state, counter, pollution attribution and shadow observation —
    /// is bit-identical to [`SimEngine::run_slots`] and
    /// [`SimEngine::run_slots_reference`] over the same slots; only the
    /// cross-socket interleaving in wall-clock time differs, which no
    /// simulation output observes. Shadow-attribution state is partitioned
    /// by owner along the same socket boundaries and merged back after the
    /// threads join.
    ///
    /// Falls back to the serial path when fewer than two sockets have slots
    /// (nothing to parallelise). When shadow attribution is enabled and an
    /// owner has slots on several sockets *in the current batch* (its single
    /// shadow cache cannot be driven from two threads deterministically),
    /// only the sockets coupled by such owners are merged onto one thread —
    /// every other populated socket keeps its own thread. Only when the
    /// coupling collapses every populated socket into a single component
    /// does the whole call run serially. Owners that spanned sockets in
    /// *earlier* calls, or that merely have shadow state but no slot in this
    /// batch, never affect the decision.
    ///
    /// [`ExecSlot::blocked`] slots are skipped exactly as in the serial
    /// path — they populate no socket group, couple no sockets, execute
    /// nothing and keep their carried ops parked — so the two paths stay
    /// bit-identical under blocking too.
    ///
    /// # Panics
    ///
    /// Panics if a slot references a core that does not exist on the machine
    /// (a programming error in the hypervisor layer).
    pub fn run_slots_parallel(
        &mut self,
        slots: &mut [ExecSlot<'_>],
        cycle_budget: u64,
    ) -> Vec<QuantumReport> {
        let n = slots.len();
        self.last_parallel_groups = 0;
        if n == 0 || cycle_budget == 0 {
            return vec![QuantumReport::default(); n];
        }
        let trace_start = self.elapsed_cycles;
        // Decide the serial fallback before resolving any routes: on a
        // single-socket machine (the default `figures` machine) every tick
        // takes this exit, so it must stay allocation-free beyond the
        // grouping itself.
        let num_sockets = self.machine.num_sockets();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); num_sockets];
        let mut slot_sockets: Vec<usize> = Vec::with_capacity(n);
        for (i, slot) in slots.iter().enumerate() {
            let socket = self
                .machine
                .socket_of(slot.core)
                .expect("slot references an unknown core")
                .0;
            // Blocked slots execute nothing: they neither populate a socket
            // group nor couple sockets via shadow owners. The serial path
            // applies the same filter, so the per-socket active order — and
            // with it bit-identity — is preserved.
            if !slot.blocked {
                groups[socket].push(i);
            }
            slot_sockets.push(socket);
        }
        let populated = groups.iter().filter(|group| !group.is_empty()).count();
        if populated < 2 {
            return self.run_slots(slots, cycle_budget);
        }
        // Execution components: normally one per populated socket. With
        // shadow attribution on, sockets sharing an owner in this batch must
        // run on the same thread (one shadow cache per owner), so they are
        // unioned into one component. Only owners with slots in the current
        // batch participate — stale shadow state or placements from earlier
        // calls cannot force a merge.
        let mut component: Vec<usize> = (0..num_sockets).collect();
        fn find(component: &mut [usize], mut socket: usize) -> usize {
            while component[socket] != socket {
                component[socket] = component[component[socket]];
                socket = component[socket];
            }
            socket
        }
        if self.shadow.is_some() {
            let mut owner_socket: HashMap<OwnerId, usize> = HashMap::with_capacity(n);
            for (slot, &socket) in slots.iter().zip(&slot_sockets) {
                if slot.blocked {
                    continue;
                }
                if let Some(&previous) = owner_socket.get(&slot.owner) {
                    let a = find(&mut component, previous);
                    let b = find(&mut component, socket);
                    // Union by smaller root so component labels stay
                    // deterministic.
                    component[a.max(b)] = a.min(b);
                } else {
                    owner_socket.insert(slot.owner, socket);
                }
            }
        }
        // Enumerate components of populated sockets in ascending order of
        // their smallest member socket (the spawn/merge order).
        let mut component_of_root: Vec<Option<usize>> = vec![None; num_sockets];
        let mut component_sockets: Vec<Vec<usize>> = Vec::new();
        for (socket, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let root = find(&mut component, socket);
            match component_of_root[root] {
                Some(c) => component_sockets[c].push(socket),
                None => {
                    component_of_root[root] = Some(component_sockets.len());
                    component_sockets.push(vec![socket]);
                }
            }
        }
        if component_sockets.len() < 2 {
            // Every populated socket is coupled to every other: nothing left
            // to parallelise.
            return self.run_slots(slots, cycle_budget);
        }

        self.resolve_data_nodes(slots);
        let routes: Vec<AccessRoute> = slots
            .iter()
            .map(|slot| {
                self.machine
                    .route(slot.core, slot.data_node, slot.force_remote)
                    .expect("slot references an unknown core")
            })
            .collect();

        debug_assert!(
            {
                let mut tags: Vec<u64> = slots.iter().map(|s| s.tag).collect();
                tags.sort_unstable();
                tags.windows(2).all(|w| w[0] != w[1])
            },
            "slot tags must be unique within one run_slots_parallel call"
        );
        self.begin_batched_call();
        self.refresh_blocked_carries(slots);

        let mut queues: Vec<Option<OpQueue>> = slots
            .iter()
            .map(|slot| {
                if slot.blocked {
                    // The stream stays parked in the carry map.
                    None
                } else {
                    self.op_carry.remove(&slot.tag).map(|carried| carried.queue)
                }
            })
            .collect();
        let mlps: Vec<f64> = slots
            .iter()
            .map(|slot| slot.workload.mem_parallelism().max(1.0))
            .collect();
        // One work item per component, in component order: the component's
        // slots (with their original indices, ascending — the relative order
        // the epoch tie-break depends on) plus its parallel arrays.
        struct GroupWork<'engine, 'wl> {
            sockets: Vec<usize>,
            indices: Vec<usize>,
            slots: Vec<&'engine mut ExecSlot<'wl>>,
            queues: Vec<OpQueue>,
            routes: Vec<AccessRoute>,
            mlps: Vec<f64>,
            shadow: Option<ShadowAttribution>,
        }
        let mut work: Vec<GroupWork<'_, '_>> = component_sockets
            .into_iter()
            .map(|sockets| {
                let mut indices: Vec<usize> = sockets
                    .iter()
                    .flat_map(|&s| groups[s].iter().copied())
                    .collect();
                indices.sort_unstable();
                let shadow = self.shadow.as_mut().map(|shadow| {
                    let owners: Vec<OwnerId> = indices.iter().map(|&i| slots[i].owner).collect();
                    shadow.take_partition(&owners)
                });
                GroupWork {
                    sockets,
                    slots: Vec::with_capacity(indices.len()),
                    queues: indices
                        .iter()
                        .map(|&i| queues[i].take().unwrap_or_default())
                        .collect(),
                    routes: indices.iter().map(|&i| routes[i]).collect(),
                    mlps: indices.iter().map(|&i| mlps[i]).collect(),
                    shadow,
                    indices,
                }
            })
            .collect();
        // Distribute the exclusive slot borrows into their components (in
        // original index order, matching each component's sorted `indices`).
        let mut work_of_socket: Vec<Option<usize>> = vec![None; num_sockets];
        for (w, group) in work.iter().enumerate() {
            for &socket in &group.sockets {
                work_of_socket[socket] = Some(w);
            }
        }
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.blocked {
                continue;
            }
            let w = work_of_socket[routes[i].socket_index()].expect("populated socket");
            work[w].slots.push(slot);
        }
        self.last_parallel_groups = work.len();

        // Execute every component on its own scoped thread, against the
        // split-borrowed views of its member sockets. Single-socket
        // components (the common case) drive their `SocketView` directly;
        // merged components route each access to the right member view.
        let mut views: Vec<Option<SocketView<'_>>> = self.machine.sockets_mut().map(Some).collect();
        let finished: Vec<(GroupWork<'_, '_>, Vec<QuantumReport>)> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(work.len());
            for mut group in work {
                if group.sockets.len() == 1 {
                    let mut view = views[group.sockets[0]].take().expect("one view per socket");
                    handles.push(scope.spawn(move || {
                        let mut reports = vec![QuantumReport::default(); group.slots.len()];
                        run_epoch_interleaving(
                            &mut view,
                            &mut group.shadow,
                            &mut group.slots,
                            &mut group.queues,
                            &group.routes,
                            &group.mlps,
                            &mut reports,
                            cycle_budget,
                        );
                        (group, reports)
                    }));
                } else {
                    let mut view_of_socket = vec![usize::MAX; num_sockets];
                    let mut member_views = Vec::with_capacity(group.sockets.len());
                    for &socket in &group.sockets {
                        view_of_socket[socket] = member_views.len();
                        member_views.push(views[socket].take().expect("one view per socket"));
                    }
                    let mut view = SocketGroup {
                        views: member_views,
                        view_of_socket,
                    };
                    handles.push(scope.spawn(move || {
                        let mut reports = vec![QuantumReport::default(); group.slots.len()];
                        run_epoch_interleaving(
                            &mut view,
                            &mut group.shadow,
                            &mut group.slots,
                            &mut group.queues,
                            &group.routes,
                            &group.mlps,
                            &mut reports,
                            cycle_budget,
                        );
                        (group, reports)
                    }));
                }
            }
            handles
                .into_iter()
                .map(|handle| handle.join().expect("socket worker panicked"))
                .collect()
        });
        drop(views);

        // Deterministic merge: scatter reports back to original slot order
        // and reabsorb shadow partitions in component order (`finished`
        // preserves spawn order, which is component order).
        let mut reports = vec![QuantumReport::default(); n];
        let mut merged_queues: Vec<OpQueue> = Vec::with_capacity(n);
        merged_queues.resize_with(n, OpQueue::default);
        for (group, group_reports) in finished {
            for ((&orig, report), queue) in
                group.indices.iter().zip(group_reports).zip(group.queues)
            {
                reports[orig] = report;
                merged_queues[orig] = queue;
            }
            if let (Some(shadow), Some(part)) = (self.shadow.as_mut(), group.shadow) {
                shadow.merge(part);
            }
        }
        self.finish_batched_call(slots, merged_queues, &reports);
        self.record_batch_trace(trace_start, &reports);
        reports
    }

    /// Resolves lazy data-node placement and validates slot cores.
    fn resolve_data_nodes(&self, slots: &mut [ExecSlot<'_>]) {
        for slot in slots.iter_mut() {
            let node = self
                .machine
                .numa_node_of(slot.core)
                .expect("slot references an unknown core");
            if slot.data_node.0 == usize::MAX {
                slot.data_node = node;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MachineConfig;
    use crate::workload::{ComputeOnly, FixedSequence};

    fn engine() -> SimEngine {
        SimEngine::new(Machine::new(MachineConfig::scaled_paper_machine(64)))
    }

    #[test]
    fn empty_slots_or_zero_budget_are_noops() {
        let mut e = engine();
        assert!(e.run_slots(&mut [], 1000).is_empty());
        let mut wl = ComputeOnly::new(1);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        let reports = e.run_slots(std::slice::from_mut(&mut slot), 0);
        assert_eq!(reports[0].consumed_cycles, 0);
    }

    #[test]
    fn compute_only_reaches_ipc_one() {
        let mut e = engine();
        let mut wl = ComputeOnly::new(1);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        let reports = e.run_slots(std::slice::from_mut(&mut slot), 10_000);
        assert!(reports[0].consumed_cycles >= 10_000);
        assert!((reports[0].ipc() - 1.0).abs() < 1e-9);
        assert_eq!(reports[0].pmc_delta.llc_misses, 0);
    }

    #[test]
    fn memory_ops_cost_hierarchy_latency() {
        let mut e = engine();
        let mut wl = FixedSequence::new("one-line", vec![Op::Load { addr: 0 }]);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        let reports = e.run_slots(std::slice::from_mut(&mut slot), 1_000);
        let pmc = reports[0].pmc_delta;
        // First access misses everywhere (~181 cycles) then hits L1 (5 cycles).
        assert_eq!(pmc.llc_misses, 1);
        assert!(pmc.instructions > 100);
        assert!(reports[0].consumed_cycles >= 1_000);
    }

    #[test]
    fn all_slots_consume_the_full_budget() {
        let mut e = engine();
        let mut fast = ComputeOnly::new(1);
        let mut slow = FixedSequence::new(
            "mem",
            vec![Op::Load { addr: 0 }, Op::Load { addr: 1 << 20 }],
        );
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut fast),
            ExecSlot::new(CoreId(1), 2, &mut slow),
        ];
        let reports = e.run_slots(&mut slots, 5_000);
        for report in &reports {
            assert!(report.consumed_cycles >= 5_000);
            // Overshoot is bounded by the cost of a single op.
            assert!(report.consumed_cycles < 5_000 + 400);
        }
    }

    #[test]
    fn parallel_slots_on_same_socket_contend_for_the_llc() {
        // A "sensitive" workload whose working set fits the LLC but not the
        // L2, co-run with a streaming "disruptive" workload.
        let config = MachineConfig::scaled_paper_machine(64);
        let llc_lines = config.llc.num_lines();
        let sensitive_lines: Vec<Op> = (0..llc_lines / 2)
            .map(|i| Op::Load { addr: i * 64 })
            .collect();

        let solo_misses = {
            let mut e = SimEngine::new(Machine::new(config.clone()));
            let mut wl = FixedSequence::new("sensitive", sensitive_lines.clone());
            let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
            // Warm up, then measure.
            e.run_slots(std::slice::from_mut(&mut slot), 200_000);
            slot.pmcs = PmcSet::default();
            let r = e.run_slots(std::slice::from_mut(&mut slot), 200_000);
            r[0].pmc_delta.llc_misses
        };

        let contended_misses = {
            let mut e = SimEngine::new(Machine::new(config));
            let mut wl = FixedSequence::new("sensitive", sensitive_lines);
            let disruptor_ops: Vec<Op> = (0..4096u64)
                .map(|i| Op::Load {
                    addr: (1 << 30) + i * 64,
                })
                .collect();
            let mut dis = FixedSequence::new("disruptor", disruptor_ops).with_mem_parallelism(8.0);
            let mut slots = vec![
                ExecSlot::new(CoreId(0), 1, &mut wl),
                ExecSlot::new(CoreId(1), 2, &mut dis),
            ];
            e.run_slots(&mut slots, 200_000);
            slots[0].pmcs = PmcSet::default();
            let r = e.run_slots(&mut slots, 200_000);
            r[0].pmc_delta.llc_misses
        };

        assert!(
            contended_misses > solo_misses * 2,
            "co-running a streaming disruptor should inflate LLC misses (solo={solo_misses}, contended={contended_misses})"
        );
    }

    #[test]
    fn force_remote_increases_remote_access_count() {
        let mut e = SimEngine::new(Machine::new(MachineConfig::scaled_paper_numa_machine(64)));
        let ops: Vec<Op> = (0..512u64).map(|i| Op::Load { addr: i * 4096 }).collect();
        let mut wl = FixedSequence::new("mem", ops);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl).with_force_remote(true);
        let reports = e.run_slots(std::slice::from_mut(&mut slot), 50_000);
        assert!(reports[0].pmc_delta.remote_accesses > 0);
        assert_eq!(
            reports[0].pmc_delta.remote_accesses,
            reports[0].pmc_delta.llc_misses
        );
    }

    #[test]
    fn shadow_attribution_tracks_solo_misses_under_contention() {
        let config = MachineConfig::scaled_paper_machine(64);
        let mut e = SimEngine::new(Machine::new(config.clone()));
        e.enable_shadow_attribution().unwrap();
        // Small reused set for owner 1, huge stream for owner 2.
        let reused: Vec<Op> = (0..64u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let stream: Vec<Op> = (0..100_000u64)
            .map(|i| Op::Load {
                addr: (1 << 32) + i * 64,
            })
            .collect();
        let mut wl1 = FixedSequence::new("reused", reused);
        let mut wl2 = FixedSequence::new("stream", stream).with_mem_parallelism(8.0);
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut wl1),
            ExecSlot::new(CoreId(1), 2, &mut wl2),
        ];
        e.run_slots(&mut slots, 300_000);
        let shadow = e.shadow().unwrap();
        // In the shared LLC owner 1 suffers from owner 2's stream, but its
        // shadow (solo) miss count stays at the cold-miss level.
        assert!(shadow.solo_misses(1) <= 64 * 3);
        assert!(shadow.solo_misses(2) > 1000);
        assert!(slots[0].pmcs.llc_misses >= shadow.solo_misses(1));
    }

    #[test]
    fn pollution_events_are_reported_for_the_polluter() {
        let config = MachineConfig::scaled_paper_machine(64);
        let llc_lines = config.llc.num_lines();
        let mut e = SimEngine::new(Machine::new(config));
        let victim_ops: Vec<Op> = (0..llc_lines / 2)
            .map(|i| Op::Load { addr: i * 64 })
            .collect();
        let stream: Vec<Op> = (0..1_000_000u64)
            .map(|i| Op::Load {
                addr: (1 << 32) + i * 64,
            })
            .collect();
        let mut victim = FixedSequence::new("victim", victim_ops);
        let mut polluter = FixedSequence::new("polluter", stream).with_mem_parallelism(8.0);
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut victim),
            ExecSlot::new(CoreId(1), 2, &mut polluter),
        ];
        // Warm the LLC with the victim, then let both run.
        e.run_slots(&mut slots[..1], 200_000);
        let reports = e.run_slots(&mut slots, 200_000);
        assert!(
            reports[1].pollution_events > 0,
            "the streaming owner should evict victim lines"
        );
    }

    #[test]
    fn mem_parallelism_speeds_up_streaming_workloads() {
        let ops: Vec<Op> = (0..100_000u64)
            .map(|i| Op::Load { addr: i * 4096 })
            .collect();
        let run = |mlp: f64| -> u64 {
            let mut e = engine();
            let mut wl = FixedSequence::new("stream", ops.clone()).with_mem_parallelism(mlp);
            let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
            let r = e.run_slots(std::slice::from_mut(&mut slot), 100_000);
            r[0].pmc_delta.llc_misses
        };
        let dependent = run(1.0);
        let streaming = run(8.0);
        assert!(
            streaming > dependent * 3,
            "an MLP of 8 should let the stream touch far more lines per cycle (dependent={dependent}, streaming={streaming})"
        );
    }

    #[test]
    fn elapsed_cycles_accumulate() {
        let mut e = engine();
        let mut wl = ComputeOnly::new(1);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        e.run_slots(std::slice::from_mut(&mut slot), 1000);
        e.run_slots(std::slice::from_mut(&mut slot), 500);
        // One-cycle compute ops land exactly on the budget, so the logical
        // clock equals the sum of budgets here.
        assert_eq!(e.elapsed_cycles(), 1500);
    }

    #[test]
    fn elapsed_cycles_track_the_busiest_slot() {
        // Memory ops overshoot the budget (the last op completes), so the
        // logical clock must advance by the busiest slot's consumed cycles,
        // not by the requested budget.
        let mut e = engine();
        let mut fast = ComputeOnly::new(1);
        let mut slow = FixedSequence::new(
            "mem",
            (0..64u64).map(|i| Op::Load { addr: i * 4096 }).collect(),
        );
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut fast),
            ExecSlot::new(CoreId(1), 2, &mut slow),
        ];
        let reports = e.run_slots(&mut slots, 1_000);
        let busiest = reports.iter().map(|r| r.consumed_cycles).max().unwrap();
        assert!(busiest > 1_000, "a memory op must overshoot the budget");
        assert_eq!(e.elapsed_cycles(), busiest);
        // The reference path uses the same semantics.
        let mut e = engine();
        let mut slow = FixedSequence::new(
            "mem",
            (0..64u64).map(|i| Op::Load { addr: i * 4096 }).collect(),
        );
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut slow);
        let reports = e.run_slots_reference(std::slice::from_mut(&mut slot), 1_000);
        assert_eq!(e.elapsed_cycles(), reports[0].consumed_cycles);
    }

    #[test]
    fn ilc_misses_count_l2_hits_too() {
        // L1D at scale 64: 512 B, 8-way, 64 B lines => 1 set. Ten distinct
        // lines overflow it but fit the 4 KiB L2, so re-touching them misses
        // L1 and hits L2: each such access is an ILC miss but not an LLC
        // reference.
        let mut e = engine();
        let lines: Vec<Op> = (0..10u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let mut wl = FixedSequence::new("l2-resident", lines);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        e.run_slots(std::slice::from_mut(&mut slot), 50_000);
        let pmcs = slot.pmcs;
        assert!(
            pmcs.ilc_misses > pmcs.llc_references,
            "L2 hits must count as ILC misses (ilc={}, llc_refs={})",
            pmcs.ilc_misses,
            pmcs.llc_references
        );
        assert!(pmcs.ilc_misses <= pmcs.memory_accesses);
    }

    #[test]
    fn stale_op_carries_are_pruned() {
        let mut e = engine();
        let ops: Vec<Op> = (0..1024u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let mut abandoned = FixedSequence::new("abandoned", ops.clone());
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut abandoned).with_tag(7);
        e.run_slots(std::slice::from_mut(&mut slot), 1_000);
        assert_eq!(e.carried_op_buffers(), 1, "tag 7 carries unexecuted ops");
        // Tag 7 never reappears; a live stream keeps running under tag 8.
        let mut live = FixedSequence::new("live", ops);
        for _ in 0..(CARRY_STALE_AFTER + CARRY_PRUNE_INTERVAL + 1) {
            let mut slot = ExecSlot::new(CoreId(1), 2, &mut live).with_tag(8);
            e.run_slots(std::slice::from_mut(&mut slot), 500);
        }
        assert_eq!(
            e.carried_op_buffers(),
            1,
            "the abandoned tag must be pruned while the live tag survives"
        );
        // The live stream still continues: running again works.
        let mut slot = ExecSlot::new(CoreId(1), 2, &mut live).with_tag(8);
        let reports = e.run_slots(std::slice::from_mut(&mut slot), 500);
        assert!(reports[0].consumed_cycles >= 500);
    }

    #[test]
    fn recently_used_carries_survive_the_sweep() {
        let mut e = engine();
        let ops: Vec<Op> = (0..1024u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let mut a = FixedSequence::new("a", ops.clone());
        let mut b = FixedSequence::new("b", ops);
        // Alternative execution: the two tags take turns, so neither ever
        // goes stale even across many sweeps.
        for call in 0..(2 * CARRY_PRUNE_INTERVAL + 3) {
            if call % 2 == 0 {
                let mut slot = ExecSlot::new(CoreId(0), 1, &mut a).with_tag(1);
                e.run_slots(std::slice::from_mut(&mut slot), 500);
            } else {
                let mut slot = ExecSlot::new(CoreId(0), 2, &mut b).with_tag(2);
                e.run_slots(std::slice::from_mut(&mut slot), 500);
            }
        }
        assert_eq!(e.carried_op_buffers(), 2);
    }

    fn lcg_ops(seed: u64, count: usize) -> Vec<Op> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let draw = state >> 33;
                match draw % 4 {
                    0 => Op::Compute {
                        cycles: (draw / 4 % 7 + 1) as u32,
                    },
                    1 => Op::Store {
                        addr: (draw / 4 % 4096) * 64,
                    },
                    _ => Op::Load {
                        addr: (draw / 4 % 4096) * 64,
                    },
                }
            })
            .collect()
    }

    /// Runs the same four-slot, two-socket scenario through `run_slots` and
    /// `run_slots_parallel` and asserts identical observable state.
    fn assert_parallel_matches_serial(shadow: bool) {
        let config = MachineConfig::scaled_paper_numa_machine(64);
        let run = |parallel: bool| {
            let mut e = SimEngine::new(Machine::new(config.clone()));
            if shadow {
                e.enable_shadow_attribution().unwrap();
            }
            let mut workloads: Vec<FixedSequence> = (0..4)
                .map(|w| {
                    FixedSequence::new(format!("wl{w}"), lcg_ops(w as u64 + 1, 2048))
                        .with_mem_parallelism(1.0 + w as f64)
                })
                .collect();
            let mut all_reports = Vec::new();
            for round in 0..3 {
                let mut slots: Vec<ExecSlot<'_>> = workloads
                    .iter_mut()
                    .enumerate()
                    .map(|(w, wl)| {
                        // Slots 0,1 on socket 0 (cores 0,1); slots 2,3 on
                        // socket 1 (cores 4,5).
                        let core = CoreId(if w < 2 { w } else { w + 2 });
                        ExecSlot::new(core, w as OwnerId + 1, wl).with_tag(w as u64 + 1)
                    })
                    .collect();
                let reports = if parallel {
                    e.run_slots_parallel(&mut slots, 8_000 + round * 1_000)
                } else {
                    e.run_slots(&mut slots, 8_000 + round * 1_000)
                };
                all_reports.push(reports);
            }
            let llc0 = e.machine().llc_stats(crate::topology::SocketId(0)).unwrap();
            let llc1 = e.machine().llc_stats(crate::topology::SocketId(1)).unwrap();
            let shadow_misses: Vec<u64> = (1..=4)
                .map(|owner| e.shadow().map(|s| s.solo_misses(owner)).unwrap_or(0))
                .collect();
            (all_reports, llc0, llc1, shadow_misses, e.elapsed_cycles())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn parallel_path_matches_serial_across_sockets() {
        assert_parallel_matches_serial(false);
    }

    #[test]
    fn parallel_path_matches_serial_with_shadow_attribution() {
        assert_parallel_matches_serial(true);
    }

    #[test]
    fn parallel_path_falls_back_on_a_single_socket() {
        // All slots on socket 0: the parallel path must delegate to the
        // serial path and still be correct.
        let mut e = engine();
        let mut a = ComputeOnly::new(1);
        let mut b = ComputeOnly::new(2);
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut a),
            ExecSlot::new(CoreId(1), 2, &mut b),
        ];
        let reports = e.run_slots_parallel(&mut slots, 5_000);
        assert!(reports.iter().all(|r| r.consumed_cycles >= 5_000));
    }

    #[test]
    fn parallel_path_falls_back_when_an_owner_spans_sockets_with_shadow() {
        let config = MachineConfig::scaled_paper_numa_machine(64);
        let mut e = SimEngine::new(Machine::new(config));
        e.enable_shadow_attribution().unwrap();
        let ops: Vec<Op> = (0..256u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let mut a = FixedSequence::new("a", ops.clone());
        let mut b = FixedSequence::new("b", ops);
        // Owner 1 has slots on both sockets: one shadow cache, two threads —
        // the engine must take the serial path instead.
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut a).with_tag(10),
            ExecSlot::new(CoreId(4), 1, &mut b).with_tag(11),
        ];
        let reports = e.run_slots_parallel(&mut slots, 5_000);
        assert!(reports.iter().all(|r| r.consumed_cycles >= 5_000));
        assert!(e.shadow().unwrap().solo_misses(1) > 0);
    }

    #[test]
    fn spanning_owner_with_shadow_merges_only_its_sockets() {
        // 4-socket machine, shadow on. Owner 1 spans sockets 0 and 1: those
        // two sockets must share a thread (one shadow cache), but sockets 2
        // and 3 keep their own threads — the batch must NOT collapse to the
        // serial path. Results stay bit-identical to the serial engine.
        let config = MachineConfig::scaled_cloud_machine(4, 64);
        let cps = config.cores_per_socket;
        let ops = |seed: u64| lcg_ops(seed, 2048);
        let run = |parallel: bool| {
            let mut e = SimEngine::new(Machine::new(config.clone()));
            e.enable_shadow_attribution().unwrap();
            let mut workloads: Vec<FixedSequence> = (0..4)
                .map(|w| FixedSequence::new(format!("wl{w}"), ops(w as u64 + 1)))
                .collect();
            let mut iter = workloads.iter_mut();
            let cores = [0, cps, 2 * cps, 3 * cps];
            let owners = [1u16, 1, 2, 3];
            let mut slots: Vec<ExecSlot<'_>> = cores
                .iter()
                .zip(owners)
                .map(|(&core, owner)| {
                    ExecSlot::new(CoreId(core), owner, iter.next().unwrap())
                        .with_tag(core as u64 + 100)
                })
                .collect();
            let reports = if parallel {
                e.run_slots_parallel(&mut slots, 20_000)
            } else {
                e.run_slots(&mut slots, 20_000)
            };
            let groups = e.parallel_groups_last_call();
            let shadow: Vec<u64> = (1..=3)
                .map(|o| e.shadow().unwrap().solo_misses(o))
                .collect();
            let llc: Vec<_> = (0..4)
                .map(|s| e.machine().llc_stats(crate::topology::SocketId(s)).unwrap())
                .collect();
            (reports, shadow, llc, e.elapsed_cycles(), groups)
        };
        let (s_reports, s_shadow, s_llc, s_elapsed, _) = run(false);
        let (p_reports, p_shadow, p_llc, p_elapsed, p_groups) = run(true);
        assert_eq!(
            p_groups, 3,
            "sockets {{0,1}} merge, sockets 2 and 3 stay independent"
        );
        assert_eq!(s_reports, p_reports);
        assert_eq!(s_shadow, p_shadow);
        assert_eq!(s_llc, p_llc);
        assert_eq!(s_elapsed, p_elapsed);
    }

    #[test]
    fn owner_span_check_only_sees_the_current_batch() {
        // Call 1: owner 1 spans both sockets with shadow on -> one component,
        // serial fallback. Call 2: every owner (including owner 1, which
        // still has shadow state from call 1) is confined to one socket ->
        // the batch must parallelise; history must not force a fallback.
        let config = MachineConfig::scaled_paper_numa_machine(64);
        let mut e = SimEngine::new(Machine::new(config));
        e.enable_shadow_attribution().unwrap();
        let ops: Vec<Op> = (0..512u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let mut a = FixedSequence::new("a", ops.clone());
        let mut b = FixedSequence::new("b", ops.clone());
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut a).with_tag(10),
            ExecSlot::new(CoreId(4), 1, &mut b).with_tag(11),
        ];
        e.run_slots_parallel(&mut slots, 5_000);
        assert_eq!(
            e.parallel_groups_last_call(),
            0,
            "a spanning owner couples both sockets: serial fallback"
        );
        drop(slots);
        let mut c = FixedSequence::new("c", ops);
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut a).with_tag(10),
            ExecSlot::new(CoreId(4), 2, &mut c).with_tag(12),
        ];
        let reports = e.run_slots_parallel(&mut slots, 5_000);
        assert_eq!(
            e.parallel_groups_last_call(),
            2,
            "owner 1's earlier span (and its shadow state) must not serialise a batch where every owner sits on one socket"
        );
        assert!(reports.iter().all(|r| r.consumed_cycles >= 5_000));
        assert!(e.shadow().unwrap().solo_misses(1) > 0);
    }

    #[test]
    fn op_buffers_carry_across_calls_per_tag() {
        // A FixedSequence visiting distinct lines: if the engine dropped the
        // prefetched-but-unexecuted ops between calls, the visited address
        // sequence would skip lines and the total distinct-line count of two
        // short calls would diverge from one long call.
        let ops: Vec<Op> = (0..1024u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let run = |budgets: &[u64]| -> u64 {
            let mut e = engine();
            let mut wl = FixedSequence::new("seq", ops.clone());
            for &budget in budgets {
                let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl).with_tag(7);
                e.run_slots(std::slice::from_mut(&mut slot), budget);
            }
            e.machine()
                .socket(crate::topology::SocketId(0))
                .unwrap()
                .llc()
                .stats()
                .accesses
        };
        let split = run(&[3_000, 3_000, 3_000]);
        let joined = run(&[9_000]);
        // Each extra call can overshoot by at most one op, so the two runs
        // stay within a few accesses of each other.
        assert!(
            split.abs_diff(joined) <= 4,
            "split={split}, joined={joined}"
        );
    }

    #[test]
    fn clear_op_buffer_restarts_the_stream_for_a_tag() {
        let ops: Vec<Op> = (0..256u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let mut e = engine();
        let mut wl = FixedSequence::new("seq", ops);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl).with_tag(42);
        e.run_slots(std::slice::from_mut(&mut slot), 1_000);
        e.clear_op_buffer(42);
        e.clear_op_buffers();
        // After clearing, running again must still work (fresh fetch).
        let reports = e.run_slots(std::slice::from_mut(&mut slot), 1_000);
        assert!(reports[0].consumed_cycles >= 1_000);
    }

    #[test]
    fn blocked_slots_report_nothing_and_charge_nothing() {
        // A blocked slot must produce an all-zero report, leave its own
        // PMCs untouched, and leave the runnable slots' results exactly as
        // a call without it would.
        let ops = lcg_ops(3, 2048);
        let run = |with_blocked: bool| {
            let mut e = engine();
            let mut runnable = FixedSequence::new("runnable", ops.clone());
            let mut sleeper = FixedSequence::new("sleeper", ops.clone());
            let mut slots = vec![ExecSlot::new(CoreId(0), 1, &mut runnable).with_tag(1)];
            if with_blocked {
                slots.push(
                    ExecSlot::new(CoreId(1), 2, &mut sleeper)
                        .with_tag(2)
                        .with_blocked(true),
                );
            }
            let reports = e.run_slots(&mut slots, 10_000);
            if with_blocked {
                assert_eq!(reports[1], QuantumReport::default());
                assert_eq!(slots[1].pmcs, PmcSet::default());
            }
            (reports[0], slots[0].pmcs, e.elapsed_cycles())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn an_all_blocked_call_is_free_and_preserves_carries() {
        let ops: Vec<Op> = (0..1024u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let mut e = engine();
        let mut wl = FixedSequence::new("seq", ops);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl).with_tag(9);
        e.run_slots(std::slice::from_mut(&mut slot), 3_000);
        let elapsed = e.elapsed_cycles();
        let carried = e.carried_op_buffers();
        let mut blocked = ExecSlot::new(CoreId(0), 1, &mut wl)
            .with_tag(9)
            .with_blocked(true);
        let reports = e.run_slots(std::slice::from_mut(&mut blocked), 3_000);
        assert_eq!(reports[0], QuantumReport::default());
        assert_eq!(
            e.elapsed_cycles(),
            elapsed,
            "blocked calls charge no cycles"
        );
        assert_eq!(e.carried_op_buffers(), carried);
    }

    #[test]
    fn a_long_block_does_not_lose_the_prefetched_op_stream() {
        // The stale-carry sweep reclaims tags unseen for CARRY_STALE_AFTER
        // calls; a blocked slot *is* seen, so its prefetched ops must
        // survive arbitrarily long sleeps and the stream must continue
        // seamlessly on wake — same distinct-line continuity check as
        // `op_buffers_carry_across_calls_per_tag`.
        let ops: Vec<Op> = (0..1024u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let run = |sleep_calls: u64| -> u64 {
            let mut e = engine();
            let mut wl = FixedSequence::new("seq", ops.clone());
            let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl).with_tag(7);
            e.run_slots(std::slice::from_mut(&mut slot), 3_000);
            for _ in 0..sleep_calls {
                let mut blocked = ExecSlot::new(CoreId(0), 1, &mut wl)
                    .with_tag(7)
                    .with_blocked(true);
                e.run_slots(std::slice::from_mut(&mut blocked), 3_000);
            }
            assert_eq!(e.carried_op_buffers(), 1, "the sleeping stream survives");
            let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl).with_tag(7);
            e.run_slots(std::slice::from_mut(&mut slot), 3_000);
            e.machine()
                .socket(crate::topology::SocketId(0))
                .unwrap()
                .llc()
                .stats()
                .accesses
        };
        // Sleep well past CARRY_STALE_AFTER (1024) + the prune interval.
        let slept = run(1300);
        let awake = run(0);
        assert!(slept.abs_diff(awake) <= 4, "slept={slept}, awake={awake}");
    }

    #[test]
    fn parallel_path_matches_serial_with_blocked_slots() {
        // The four-slot two-socket scenario with a rotating blocked slot:
        // both paths must agree bit-for-bit, including rounds where a whole
        // socket is asleep (serial fallback) and rounds where both sockets
        // stay populated.
        let config = MachineConfig::scaled_paper_numa_machine(64);
        let run = |parallel: bool| {
            let mut e = SimEngine::new(Machine::new(config.clone()));
            let mut workloads: Vec<FixedSequence> = (0..4)
                .map(|w| {
                    FixedSequence::new(format!("wl{w}"), lcg_ops(w as u64 + 1, 2048))
                        .with_mem_parallelism(1.0 + w as f64)
                })
                .collect();
            let mut all_reports = Vec::new();
            for round in 0..6usize {
                let mut slots: Vec<ExecSlot<'_>> = workloads
                    .iter_mut()
                    .enumerate()
                    .map(|(w, wl)| {
                        let core = CoreId(if w < 2 { w } else { w + 2 });
                        // Rounds 0-3 block one slot each; round 4 blocks all
                        // of socket 1; round 5 runs everyone.
                        let blocked = match round {
                            0..=3 => w == round,
                            4 => w >= 2,
                            _ => false,
                        };
                        ExecSlot::new(core, w as OwnerId + 1, wl)
                            .with_tag(w as u64 + 1)
                            .with_blocked(blocked)
                    })
                    .collect();
                let reports = if parallel {
                    e.run_slots_parallel(&mut slots, 8_000)
                } else {
                    e.run_slots(&mut slots, 8_000)
                };
                for (slot, report) in slots.iter().zip(&reports) {
                    if slot.blocked {
                        assert_eq!(*report, QuantumReport::default());
                    }
                }
                all_reports.push(reports);
            }
            let llc0 = e.machine().llc_stats(crate::topology::SocketId(0)).unwrap();
            let llc1 = e.machine().llc_stats(crate::topology::SocketId(1)).unwrap();
            (all_reports, llc0, llc1, e.elapsed_cycles())
        };
        assert_eq!(run(false), run(true));
    }
}
