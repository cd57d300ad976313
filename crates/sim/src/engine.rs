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
//! [`Workload::fill_ops`] into each stream owner's [`OpBuffer`] and advances
//! slots in epochs (run the furthest-behind slot until it catches up with
//! the next one) instead of re-scanning every slot per op. The interleaving
//! it produces is bit-identical to the per-op
//! [`SimEngine::run_slots_reference`] path, which is kept as the semantic
//! baseline for equivalence tests and benchmarks.

use crate::cache::OwnerId;
use crate::error::SimError;
use crate::fanout::fan_out;
use crate::hierarchy::{AccessKind, AccessOutcome};
use crate::pmc::PmcSet;
use crate::shadow::ShadowAttribution;
use crate::topology::{AccessRoute, CoreId, Machine, NumaNode, SocketView};
use crate::workload::{Op, Workload};
use kyoto_trace::TraceSink;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Ops fetched from a workload per `fill_ops` call into a slot's
/// [`OpBuffer`]: large enough to amortise the dynamic dispatch, small enough
/// that a buffered remainder stays negligible in memory.
const OP_CHUNK: usize = 64;

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
    /// The workload's op buffer, owned by whoever owns the stream (see
    /// [`ExecSlot::with_ops`]); `None` fetches one op at a time.
    ops: Option<&'a mut OpBuffer>,
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
            .field("ops", &self.ops)
            .field("pmcs", &self.pmcs)
            .finish()
    }
}

impl<'a> ExecSlot<'a> {
    /// Creates an unbuffered slot with data local to the core's socket and
    /// no forced remote accesses.
    pub fn new(core: CoreId, owner: OwnerId, workload: &'a mut dyn Workload) -> Self {
        ExecSlot {
            core,
            owner,
            workload,
            data_node: NumaNode(usize::MAX), // resolved lazily to the core's node
            force_remote: false,
            ops: None,
            pmcs: PmcSet::default(),
        }
    }

    /// Batches the workload's op fetching through `ops`: the slot fetches
    /// 64 ops at a time into the buffer and leaves the unexecuted remainder
    /// there, so the next call given the same buffer continues the stream
    /// exactly where this one stopped — on any core, after any time
    /// off-core. Pair one buffer with one workload for the stream's whole
    /// life; dropping the buffer drops the prefetched ops.
    ///
    /// Without a buffer the slot fetches only the op it is about to
    /// execute, so no op is ever fetched and then lost.
    pub fn with_ops(mut self, ops: &'a mut OpBuffer) -> Self {
        self.ops = Some(ops);
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

/// A workload's op stream as the engine fetched it: ops prefetched in
/// chunks, consumed one at a time. Opaque; the owner of the stream keeps
/// it between calls and lends it to each slot with [`ExecSlot::with_ops`],
/// so batching is invisible to the simulation semantics. `Clone` copies the
/// prefetched ops, so a cloned owner continues bit-identically.
#[derive(Debug, Default, Clone)]
pub struct OpBuffer {
    buf: Vec<Op>,
    head: usize,
}

impl OpBuffer {
    /// The next op of the stream, fetching a chunk of `chunk` ops from
    /// `workload` only when the buffer is drained.
    #[inline]
    fn next(&mut self, workload: &mut dyn Workload, chunk: usize) -> Op {
        if self.head == self.buf.len() {
            self.refill(workload, chunk);
        }
        let op = self.buf[self.head];
        self.head += 1;
        op
    }

    /// Charges the rest of `cycle_budget` to a drained slot whose workload
    /// wants to block, in one step: by the [`Workload::wants_block`]
    /// contract every op it would fetch is `Compute { cycles: 1 }` and
    /// fetching one changes nothing, so the `n` remaining cycles are `n`
    /// padding ops — `n` instructions and `n` unhalted cycles. The buffer
    /// keeps what the op loop would have left of its last `chunk`-op fetch
    /// (`(chunk - n % chunk) % chunk` padding ops), which runs after
    /// [`Workload::on_wake`] exactly as before; an unbuffered slot
    /// (`chunk == 1`) keeps none.
    fn skip_padding(&mut self, report: &mut QuantumReport, cycle_budget: u64, chunk: usize) {
        let n = cycle_budget - report.consumed_cycles;
        report.consumed_cycles = cycle_budget;
        report.pmc_delta.instructions += n;
        report.pmc_delta.unhalted_core_cycles += n;
        let chunk = chunk as u64;
        let tail = (chunk - n % chunk) % chunk;
        self.buf.clear();
        self.buf.resize(tail as usize, Op::Compute { cycles: 1 });
        self.head = 0;
    }

    fn refill(&mut self, workload: &mut dyn Workload, chunk: usize) {
        self.buf.clear();
        self.buf.resize(chunk, Op::Compute { cycles: 1 });
        self.head = 0;
        let filled = workload.fill_ops(&mut self.buf);
        self.buf.truncate(filled);
        if self.buf.is_empty() {
            // Defensive: a short-filling workload must still make progress.
            self.buf.push(workload.next_op());
        }
    }

    /// Executes the run of already-buffered [`Op::Compute`] ops at the head
    /// of the buffer, with the same cost as [`execute_op`]. Stops at the
    /// cycle budget, at the first memory op or at the end of the buffer —
    /// never refills, so fetch timing stays that of [`OpBuffer::next`].
    #[inline]
    fn run_buffered_compute(&mut self, report: &mut QuantumReport, cycle_budget: u64) {
        let start = report.consumed_cycles;
        let mut consumed = start;
        let mut instructions = 0u64;
        let mut head = self.head;
        while consumed < cycle_budget {
            let Some(&Op::Compute { cycles }) = self.buf.get(head) else {
                break;
            };
            consumed += u64::from(cycles.max(1));
            instructions += 1;
            head += 1;
        }
        self.head = head;
        report.consumed_cycles = consumed;
        report.pmc_delta.instructions += instructions;
        report.pmc_delta.unhalted_core_cycles += consumed - start;
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
struct SocketGroup<'g, 'a> {
    views: &'g mut [SocketView<'a>],
    /// Socket index -> position of its view among its component's member
    /// views (a routed access to a non-member socket is a grouping bug).
    view_of_socket: &'g [usize],
}

impl AccessMem for SocketGroup<'_, '_> {
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

/// One socket-parallel work item: a component's member socket views (in
/// socket order), its share of the batch with each slot's position in the
/// whole batch, and its shadow partition.
struct Component<'m, 's, 'wl> {
    views: Vec<SocketView<'m>>,
    positions: Vec<usize>,
    batch: Batch<'s, 'wl>,
    shadow: Option<ShadowAttribution>,
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

/// One batched call's slots with their per-slot operands, as parallel
/// arrays in slot order: the input and output of [`run_epoch_interleaving`].
#[derive(Default)]
struct Batch<'s, 'wl> {
    slots: Vec<&'s mut ExecSlot<'wl>>,
    routes: Vec<AccessRoute>,
    mlps: Vec<f64>,
    reports: Vec<QuantumReport>,
}

/// The batched/epoch interleaving loop of [`SimEngine::run_slots`] (whole
/// machine) and of each socket component of
/// [`SimEngine::run_slots_parallel`] (split-borrowed socket views).
///
/// Pops the furthest-behind slot from a min-heap on
/// `(consumed_cycles, slot index)` — exactly the slot the reference path's
/// linear scan would pick — and runs it op by op until it would no longer be
/// the scheduling minimum (or its budget is spent), then requeues it.
///
/// A slot with an [`OpBuffer`] fetches [`OP_CHUNK`] ops at a time into it;
/// an unbuffered slot fetches one op at a time into a scratch buffer that
/// is drained again before the slot yields. Otherwise the two share this
/// loop.
///
/// A slot yields only before an op that touches shared state. After each
/// executed op the already-buffered run of [`Op::Compute`] at its buffer head
/// executes in one tight loop ([`OpBuffer::run_buffered_compute`]), so a
/// slot goes back on the heap only when it is past the scheduling limit and
/// its next op is not a buffered compute op. This is bit-identical by
/// construction: compute ops touch no cache, no shadow attribution and no
/// shared counter, only the slot's own clock, so the global order of memory
/// ops stays sorted by (start cycle, slot index) — the order
/// [`SimEngine::run_slots_reference`] defines. The run never refills to
/// look ahead: a chunk is fetched only to execute its first op, exactly
/// when the op-at-a-time loop would fetch it.
///
/// When a slot's buffer is drained and its workload
/// [wants to block](Workload::wants_block), the rest of its budget can
/// only be padding, which touches no shared state either: the slot is
/// charged it in one step ([`OpBuffer::skip_padding`]) and retires, with
/// the padding tail of the last chunk the op loop would have fetched left
/// in its buffer. This is the discrete-event rule "advance time to the next
/// interesting event" applied to one slot, and it is bit-identical to
/// stepping every padding op.
fn run_epoch_interleaving<M: AccessMem>(
    machine: &mut M,
    shadow: &mut Option<ShadowAttribution>,
    batch: &mut Batch<'_, '_>,
    cycle_budget: u64,
) {
    let Batch {
        slots,
        routes,
        mlps,
        reports,
    } = batch;
    let n = slots.len();
    let mut unbuffered = OpBuffer::default();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..n).map(|i| Reverse((0u64, i))).collect();
    while let Some(Reverse((_, i))) = heap.pop() {
        let (limit_cycles, limit_index) = match heap.peek() {
            Some(Reverse((cycles, index))) => (*cycles, *index),
            None => (cycle_budget, usize::MAX),
        };
        let ExecSlot {
            owner,
            workload,
            ops,
            ..
        } = &mut *slots[i];
        let (buffer, chunk) = match ops.as_deref_mut() {
            Some(buffer) => (buffer, OP_CHUNK),
            None => (&mut unbuffered, 1),
        };
        let report = &mut reports[i];
        let route = routes[i];
        let mlp = mlps[i];
        loop {
            if buffer.head == buffer.buf.len() && workload.wants_block() {
                buffer.skip_padding(report, cycle_budget, chunk);
                break;
            }
            let op = buffer.next(&mut **workload, chunk);
            execute_op(machine, shadow, route, *owner, mlp, op, report);
            buffer.run_buffered_compute(report, cycle_budget);
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

/// The time-stepped simulation engine.
///
/// `Clone` deep-copies the whole machine state (cache hierarchies, shadow
/// replay, trace), which is what fleet checkpointing relies on: a cloned
/// engine continues bit-identically to the original. The engine keeps no
/// per-stream state: prefetched ops live in each stream owner's
/// [`OpBuffer`], which the owner clones alongside.
#[derive(Debug, Clone)]
pub struct SimEngine {
    machine: Machine,
    shadow: Option<ShadowAttribution>,
    elapsed_cycles: u64,
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
    /// up with the next slot, with ops pulled through [`Workload::fill_ops`]
    /// into each slot's [`OpBuffer`] (see [`ExecSlot::with_ops`]) or one at
    /// a time for an unbuffered slot. The resulting global op order — and
    /// therefore every cache state, counter and pollution attribution — is
    /// bit-identical to advancing one op at a time as
    /// [`SimEngine::run_slots_reference`] does, which a property test
    /// asserts; only the bookkeeping cost per op differs.
    ///
    /// A slot yields to the others only before an op that touches shared
    /// state: after every executed op, the run of [`Op::Compute`] already
    /// buffered at the head of its buffer executes in one tight loop, up to
    /// the budget, the first load or store, or the end of the fetched chunk.
    /// Compute ops move only the slot's own clock, so running them early
    /// leaves the global order of memory ops — sorted by (start cycle, slot
    /// index) — unchanged. The loop never fetches ahead: a chunk is fetched
    /// only to execute its first op, so refill timing (which workloads such
    /// as `Interactive` and VM migration observe) is unchanged too.
    ///
    /// A slot whose buffer runs dry while its workload
    /// [wants to block](Workload::wants_block) has only padding
    /// (`Compute { cycles: 1 }`) left until its next wake. It is charged the
    /// rest of the budget in one step — `n` cycles, `n` instructions, `n`
    /// unhalted cycles — and its buffer keeps the padding the last 64-op
    /// fetch would have left unexecuted, so the reports, the caches and the
    /// op stream after the wake match stepping each padding op.
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
        self.run_batched(slots, cycle_budget, false)
    }

    /// Runs every slot for `cycle_budget` cycles like
    /// [`SimEngine::run_slots`], running each socket's slots on its own
    /// worker of [`fan_out`].
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
    /// by owner along the same socket boundaries and merged back, in socket
    /// order, after the workers finish.
    ///
    /// Runs serially on the calling thread when fewer than two sockets have
    /// slots (nothing to parallelise). When shadow attribution is
    /// enabled and an owner has slots on several sockets *in the current
    /// batch* (its single shadow cache cannot be driven from two threads
    /// deterministically), only the sockets coupled by such owners share a
    /// worker — every other populated socket keeps its own. Only when the
    /// coupling collapses every populated socket into a single component
    /// does the whole call run serially. Owners that spanned sockets in
    /// *earlier* calls, or that merely have shadow state but no slot in this
    /// batch, never affect the decision.
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
        self.run_batched(slots, cycle_budget, true)
    }

    /// The one batched call body behind [`SimEngine::run_slots`] and
    /// [`SimEngine::run_slots_parallel`]: they differ only in whether the
    /// slots may be split into socket components.
    fn run_batched(
        &mut self,
        slots: &mut [ExecSlot<'_>],
        cycle_budget: u64,
        parallel: bool,
    ) -> Vec<QuantumReport> {
        let n = slots.len();
        if parallel {
            self.last_parallel_groups = 0;
        }
        if n == 0 || cycle_budget == 0 {
            return vec![QuantumReport::default(); n];
        }
        let trace_start = self.elapsed_cycles;
        self.resolve_data_nodes(slots);
        let mut batch = Batch {
            // Memory-level parallelism and the access route are static per
            // slot; hoist both out of the per-op loop.
            mlps: slots
                .iter()
                .map(|slot| slot.workload.mem_parallelism().max(1.0))
                .collect(),
            routes: slots
                .iter()
                .map(|slot| {
                    self.machine
                        .route(slot.core, slot.data_node, slot.force_remote)
                        .expect("slot references an unknown core")
                })
                .collect(),
            reports: vec![QuantumReport::default(); n],
            slots: slots.iter_mut().collect(),
        };

        let components = parallel.then(|| self.socket_components(&batch)).flatten();
        if let Some(components) = components {
            self.run_components(&mut batch, components, cycle_budget);
        } else {
            run_epoch_interleaving(
                &mut self.machine,
                &mut self.shadow,
                &mut batch,
                cycle_budget,
            );
        }

        let reports = batch.reports;
        self.finish_batched_call(slots, &reports);
        self.record_batch_trace(trace_start, &reports);
        reports
    }

    /// Records one batched call into the trace sink: the `engine.run_slots`
    /// span covering `[start, elapsed)` on the simulated clock, plus PMC
    /// counters and the batch-cycles histogram. A single branch when
    /// tracing is off. The one batched body calls this exactly once per
    /// call, serial or socket-parallel, so traces are byte-identical across
    /// the two modes.
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
    /// once per call instead of once per op) and advances the logical clock
    /// by the busiest slot's consumed cycles.
    fn finish_batched_call(&mut self, slots: &mut [ExecSlot<'_>], reports: &[QuantumReport]) {
        for (slot, report) in slots.iter_mut().zip(reports) {
            slot.pmcs += report.pmc_delta;
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

    /// The execution components of a parallel call's slots, as
    /// `(count, component of each socket)`: normally one component per
    /// populated socket. With shadow attribution on, sockets sharing an
    /// owner in this batch must run on the same worker (one shadow cache per
    /// owner), so they are unioned into one component. Only owners with
    /// slots in the current batch participate — stale shadow state or
    /// placements from earlier calls cannot force a merge. Components are
    /// numbered in ascending order of their smallest member socket, the
    /// fan-out and merge order. `None` when there are fewer than two
    /// components: nothing to parallelise.
    fn socket_components(&self, batch: &Batch<'_, '_>) -> Option<(usize, Vec<Option<usize>>)> {
        let num_sockets = self.machine.num_sockets();
        let mut populated = vec![false; num_sockets];
        for route in &batch.routes {
            populated[route.socket_index()] = true;
        }
        if populated.iter().filter(|&&p| p).count() < 2 {
            return None;
        }
        let mut root: Vec<usize> = (0..num_sockets).collect();
        fn find(root: &mut [usize], mut socket: usize) -> usize {
            while root[socket] != socket {
                root[socket] = root[root[socket]];
                socket = root[socket];
            }
            socket
        }
        if self.shadow.is_some() {
            let mut owner_socket: HashMap<OwnerId, usize> =
                HashMap::with_capacity(batch.slots.len());
            for (slot, route) in batch.slots.iter().zip(&batch.routes) {
                let socket = route.socket_index();
                if let Some(&previous) = owner_socket.get(&slot.owner) {
                    let a = find(&mut root, previous);
                    let b = find(&mut root, socket);
                    // Union by smaller root so component labels stay
                    // deterministic.
                    root[a.max(b)] = a.min(b);
                } else {
                    owner_socket.insert(slot.owner, socket);
                }
            }
        }
        let mut component_of_root: Vec<Option<usize>> = vec![None; num_sockets];
        let mut count = 0;
        let component_of_socket = (0..num_sockets)
            .map(|socket| {
                populated[socket].then(|| {
                    let r = find(&mut root, socket);
                    *component_of_root[r].get_or_insert_with(|| {
                        count += 1;
                        count - 1
                    })
                })
            })
            .collect();
        (count >= 2).then_some((count, component_of_socket))
    }

    /// Splits `batch` into `count` (at least two) components, runs each on
    /// its own [`fan_out`] worker against the split-borrowed views of its
    /// member sockets, then scatters reports back into `batch`
    /// and reabsorbs the shadow partitions in component order.
    fn run_components(
        &mut self,
        batch: &mut Batch<'_, '_>,
        (count, component_of_socket): (usize, Vec<Option<usize>>),
        cycle_budget: u64,
    ) {
        self.last_parallel_groups = count;
        let mut parts: Vec<Component<'_, '_, '_>> = (0..count)
            .map(|_| Component {
                views: Vec::new(),
                positions: Vec::new(),
                batch: Batch::default(),
                shadow: None,
            })
            .collect();
        let mut view_of_socket = vec![usize::MAX; component_of_socket.len()];
        let views = self.machine.sockets_mut().zip(&component_of_socket);
        for (socket, (view, component)) in views.enumerate() {
            if let Some(c) = *component {
                view_of_socket[socket] = parts[c].views.len();
                parts[c].views.push(view);
            }
        }
        // Each component's slots keep their ascending batch order: the
        // relative order the epoch tie-break depends on.
        for (position, slot) in std::mem::take(&mut batch.slots).into_iter().enumerate() {
            let route = batch.routes[position];
            let c = component_of_socket[route.socket_index()].expect("populated socket");
            let part = &mut parts[c];
            part.positions.push(position);
            part.batch.slots.push(slot);
            part.batch.routes.push(route);
            part.batch.mlps.push(batch.mlps[position]);
            part.batch.reports.push(QuantumReport::default());
        }
        if let Some(shadow) = self.shadow.as_mut() {
            for part in &mut parts {
                let owners: Vec<OwnerId> = part.batch.slots.iter().map(|slot| slot.owner).collect();
                part.shadow = Some(shadow.take_partition(&owners));
            }
        }

        let finished = fan_out(parts, count, |mut part| {
            let (batch, shadow) = (&mut part.batch, &mut part.shadow);
            match part.views.as_mut_slice() {
                [view] => run_epoch_interleaving(view, shadow, batch, cycle_budget),
                views => {
                    let view_of_socket = &view_of_socket;
                    let mut group = SocketGroup {
                        views,
                        view_of_socket,
                    };
                    run_epoch_interleaving(&mut group, shadow, batch, cycle_budget);
                }
            }
            part
        });

        for part in finished {
            for (position, report) in part.positions.into_iter().zip(part.batch.reports) {
                batch.reports[position] = report;
            }
            if let (Some(shadow), Some(partition)) = (self.shadow.as_mut(), part.shadow) {
                shadow.merge(partition);
            }
        }
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
            let mut buffers = vec![OpBuffer::default(); workloads.len()];
            let mut all_reports = Vec::new();
            for round in 0..3 {
                let mut slots: Vec<ExecSlot<'_>> = workloads
                    .iter_mut()
                    .zip(&mut buffers)
                    .enumerate()
                    .map(|(w, (wl, ops))| {
                        // Slots 0,1 on socket 0 (cores 0,1); slots 2,3 on
                        // socket 1 (cores 4,5).
                        let core = CoreId(if w < 2 { w } else { w + 2 });
                        ExecSlot::new(core, w as OwnerId + 1, wl).with_ops(ops)
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
            ExecSlot::new(CoreId(0), 1, &mut a),
            ExecSlot::new(CoreId(4), 1, &mut b),
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
                .map(|(&core, owner)| ExecSlot::new(CoreId(core), owner, iter.next().unwrap()))
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
            ExecSlot::new(CoreId(0), 1, &mut a),
            ExecSlot::new(CoreId(4), 1, &mut b),
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
            ExecSlot::new(CoreId(0), 1, &mut a),
            ExecSlot::new(CoreId(4), 2, &mut c),
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
    fn an_op_buffer_carries_its_stream_across_calls_and_cores() {
        // A FixedSequence visiting distinct lines: if prefetched-but-
        // unexecuted ops were lost between calls, the visited address
        // sequence would skip lines and the total distinct-line count of
        // three short calls would diverge from one long call. The short
        // calls hop between cores of the socket: the stream's continuity
        // lives in its buffer, not in where it ran last.
        let ops: Vec<Op> = (0..1024u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let run = |calls: &[(usize, u64)]| -> u64 {
            let mut e = engine();
            let mut wl = FixedSequence::new("seq", ops.clone());
            let mut buffer = OpBuffer::default();
            for &(core, budget) in calls {
                let mut slot = ExecSlot::new(CoreId(core), 1, &mut wl).with_ops(&mut buffer);
                e.run_slots(std::slice::from_mut(&mut slot), budget);
            }
            e.machine()
                .socket(crate::topology::SocketId(0))
                .unwrap()
                .llc()
                .stats()
                .accesses
        };
        let split = run(&[(0, 3_000), (1, 3_000), (2, 3_000)]);
        let joined = run(&[(0, 9_000)]);
        // Each extra call can overshoot by at most one op, so the two runs
        // stay within a few accesses of each other.
        assert!(
            split.abs_diff(joined) <= 4,
            "split={split}, joined={joined}"
        );
    }
}
