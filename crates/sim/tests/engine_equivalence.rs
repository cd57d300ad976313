//! Equivalence of the batched/epoch and socket-parallel engine paths with
//! the per-op reference.
//!
//! `SimEngine::run_slots` batches op fetching and interleaves slots in
//! epochs; `SimEngine::run_slots_parallel` additionally executes each
//! socket's slots on its own thread; `SimEngine::run_slots_reference`
//! advances one op at a time with a linear furthest-behind scan. All three
//! must be *bit-identical*: same `QuantumReport`s, same cumulative slot
//! PMCs, same per-socket LLC `CacheStats` and per-owner occupancy/miss
//! attribution, same shadow (solo) misses, same logical clock — across
//! replacement policies, budgets, slot counts, machines of 1/2/4/8 sockets
//! (placements spreading slots across every socket), and the paper's
//! execution modes (parallel co-scheduling and
//! alternative time-sharing over successive calls, which exercises each
//! workload's op buffer carrying its stream across calls and cores). The
//! unbuffered `run_slots` path, which fetches one op at a time, is held to
//! the same bar. Padded bursts pin the compute-run rule: buffered compute
//! ops run without yielding, and a chunk is fetched only to execute its
//! first op. Drained `Interactive` services pin the fast-forward of their
//! padding against the same services with `wants_block` hidden: the
//! reference has no prefetch, so it cannot model the padding a drained
//! slot leaves in its buffer.

use kyoto_sim::cache::OwnerId;
use kyoto_sim::engine::{ExecSlot, OpBuffer, SimEngine};
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::replacement::ReplacementPolicy;
use kyoto_sim::topology::{CoreId, Machine, MachineConfig, SocketId};
use kyoto_sim::workload::{FixedSequence, Op, Workload};
use kyoto_sim::CacheStats;
use kyoto_workloads::Interactive;
use proptest::prelude::*;

/// A deterministic mixed load/store/compute generator (LCG-driven), so the
/// equivalence properties do not depend on the `kyoto-workloads` models.
#[derive(Debug, Clone)]
struct LcgWorkload {
    state: u64,
    lines: u64,
    mem_parallelism: f64,
}

impl LcgWorkload {
    fn new(seed: u64, lines: u64, mem_parallelism: f64) -> Self {
        LcgWorkload {
            state: seed | 1,
            lines: lines.max(1),
            mem_parallelism,
        }
    }
}

impl Workload for LcgWorkload {
    fn next_op(&mut self) -> Op {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let draw = self.state >> 33;
        let line = (draw / 16) % self.lines;
        match draw % 16 {
            0..=2 => Op::Compute {
                cycles: (draw / 16 % 13 + 1) as u32,
            },
            3..=5 => Op::Store { addr: line * 64 },
            _ => Op::Load { addr: line * 64 },
        }
    }

    fn name(&self) -> &str {
        "lcg"
    }

    fn working_set_bytes(&self) -> u64 {
        self.lines * 64
    }

    fn mem_parallelism(&self) -> f64 {
        self.mem_parallelism
    }
}

/// One slot blueprint: which core/owner the workload runs on during a call.
#[derive(Debug, Clone, Copy)]
struct SlotSpec {
    core: usize,
    owner: OwnerId,
}

/// Which engine entry point drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EnginePath {
    /// `run_slots_reference`: one op at a time, no batching.
    Reference,
    /// `run_slots` with a per-workload op buffer: 64-op chunked fetching,
    /// epoch interleaving, one thread.
    Batched,
    /// `run_slots` without op buffers: one op fetched at a time.
    Unbuffered,
    /// `run_slots_parallel` with per-workload op buffers: epoch
    /// interleaving per socket, one thread per populated socket.
    Parallel,
}

impl EnginePath {
    /// Builds the slot for `workload` on this path: batched paths lend the
    /// workload's own op buffer, the others run unbuffered.
    fn slot<'a>(
        self,
        core: usize,
        owner: OwnerId,
        workload: &'a mut dyn Workload,
        ops: &'a mut OpBuffer,
    ) -> ExecSlot<'a> {
        let slot = ExecSlot::new(CoreId(core), owner, workload);
        match self {
            EnginePath::Batched | EnginePath::Parallel => slot.with_ops(ops),
            EnginePath::Reference | EnginePath::Unbuffered => slot,
        }
    }

    /// Runs one call of `slots` through this path's engine entry point.
    fn run(
        self,
        engine: &mut SimEngine,
        slots: &mut [ExecSlot<'_>],
        budget: u64,
    ) -> Vec<kyoto_sim::QuantumReport> {
        match self {
            EnginePath::Reference => engine.run_slots_reference(slots, budget),
            EnginePath::Batched | EnginePath::Unbuffered => engine.run_slots(slots, budget),
            EnginePath::Parallel => engine.run_slots_parallel(slots, budget),
        }
    }
}

/// Which workloads participate in each successive `run_slots` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// All workloads co-run on distinct cores every call (Section 2.2's
    /// parallel execution). On the two-socket machine the cores straddle
    /// both sockets.
    Parallel,
    /// Workloads take turns on core 0 across calls (alternative execution;
    /// exercises op buffers carried across calls).
    Alternative,
    /// One workload alternates on core 0 while another runs steadily on
    /// another core (the other socket, when there is one).
    Combined,
}

/// Everything observable about a run: per-call reports plus final machine,
/// slot and shadow state (per-socket where the machine has several).
#[derive(Debug, PartialEq)]
struct Observed {
    reports: Vec<Vec<kyoto_sim::QuantumReport>>,
    pmcs: Vec<PmcSet>,
    llc_stats: Vec<CacheStats>,
    llc_occupancy: Vec<Vec<u64>>,
    llc_misses_of: Vec<Vec<u64>>,
    shadow_misses: Vec<u64>,
    elapsed_cycles: u64,
}

fn participants(
    mode: Mode,
    call: usize,
    workload_count: usize,
    sockets: usize,
) -> Vec<(usize, SlotSpec)> {
    // On multi-socket machines (4 cores per socket), spread the parallel
    // placements across every socket round-robin: workload `w` runs on
    // socket `w % sockets`. Every workload keeps a fixed core and owner, so
    // no owner ever spans sockets.
    let core_of = |w: usize| (w % sockets) * 4 + w / sockets;
    match mode {
        Mode::Parallel => (0..workload_count)
            .map(|w| {
                (
                    w,
                    SlotSpec {
                        core: core_of(w),
                        owner: w as OwnerId + 1,
                    },
                )
            })
            .collect(),
        Mode::Alternative => {
            let w = call % workload_count;
            vec![(
                w,
                SlotSpec {
                    core: 0,
                    owner: w as OwnerId + 1,
                },
            )]
        }
        Mode::Combined => {
            let w = call % (workload_count - 1).max(1);
            let steady = workload_count - 1;
            vec![
                (
                    w,
                    SlotSpec {
                        core: 0,
                        owner: w as OwnerId + 1,
                    },
                ),
                (
                    steady,
                    SlotSpec {
                        core: if sockets > 1 { 4 } else { 1 },
                        owner: steady as OwnerId + 1,
                    },
                ),
            ]
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_path(
    path: EnginePath,
    policy: ReplacementPolicy,
    mode: Mode,
    seed: u64,
    workload_count: usize,
    budgets: &[u64],
    shadow: bool,
    sockets: usize,
) -> Observed {
    // `cloud_machine(1)` and `cloud_machine(2)` are exactly the paper's
    // single-socket and two-socket machines; larger counts replicate the
    // same per-socket geometry.
    let config = MachineConfig::scaled_cloud_machine(sockets, 256).with_llc_policy(policy);
    let llc_lines = config.llc.num_lines();
    let mut engine = SimEngine::new(Machine::new(config));
    if shadow {
        engine.enable_shadow_attribution().unwrap();
    }
    // Working sets straddle the LLC so hits, misses and cross-owner
    // evictions all occur.
    let mut streams: Vec<(LcgWorkload, OpBuffer)> = (0..workload_count)
        .map(|w| {
            let workload = LcgWorkload::new(
                seed.wrapping_add(w as u64).wrapping_mul(0x9e3779b9) | 1,
                llc_lines / 2 + (w as u64 + 1) * llc_lines / 3,
                1.0 + w as f64 * 2.0,
            );
            (workload, OpBuffer::default())
        })
        .collect();
    let mut pmcs = vec![PmcSet::default(); workload_count];
    let mut reports = Vec::with_capacity(budgets.len());

    for (call, &budget) in budgets.iter().enumerate() {
        let selected = participants(mode, call, workload_count, sockets);
        let mut remaining: Vec<&mut (LcgWorkload, OpBuffer)> = streams.iter_mut().collect();
        // Pull the selected workloads out in index order so each call can
        // borrow several of them mutably at once.
        let mut slots: Vec<ExecSlot<'_>> = Vec::new();
        let mut slot_workload_indices = Vec::new();
        for &(w, spec) in selected.iter().rev() {
            let (workload, ops) = remaining.remove(w);
            slots.push(path.slot(spec.core, spec.owner, workload, ops));
            slot_workload_indices.push(w);
        }
        slots.reverse();
        slot_workload_indices.reverse();
        let call_reports = path.run(&mut engine, &mut slots, budget);
        for (slot, &w) in slots.iter().zip(&slot_workload_indices) {
            pmcs[w] += slot.pmcs;
        }
        reports.push(call_reports);
    }

    observe(&engine, reports, pmcs)
}

/// Collects everything [`Observed`] compares from an engine after a run:
/// per-socket LLC statistics and attribution for owners `0..=pmcs.len()`,
/// shadow (solo) misses and the logical clock.
fn observe(
    engine: &SimEngine,
    reports: Vec<Vec<kyoto_sim::QuantumReport>>,
    pmcs: Vec<PmcSet>,
) -> Observed {
    let owners = 0..=pmcs.len() as OwnerId;
    let num_sockets = engine.machine().config().sockets;
    let mut llc_stats = Vec::with_capacity(num_sockets);
    let mut llc_occupancy = Vec::with_capacity(num_sockets);
    let mut llc_misses_of = Vec::with_capacity(num_sockets);
    for s in 0..num_sockets {
        let llc = engine.machine().socket(SocketId(s)).unwrap().llc();
        llc_stats.push(llc.stats());
        llc_occupancy.push(
            owners
                .clone()
                .map(|owner| llc.occupancy_of(owner))
                .collect(),
        );
        llc_misses_of.push(owners.clone().map(|owner| llc.misses_of(owner)).collect());
    }
    Observed {
        reports,
        pmcs,
        llc_stats,
        llc_occupancy,
        llc_misses_of,
        shadow_misses: owners
            .map(|owner| {
                engine
                    .shadow()
                    .map(|shadow| shadow.solo_misses(owner))
                    .unwrap_or(0)
            })
            .collect(),
        elapsed_cycles: engine.elapsed_cycles(),
    }
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop_oneof![
        Just(ReplacementPolicy::Lru),
        Just(ReplacementPolicy::Bip),
        Just(ReplacementPolicy::Dip),
        Just(ReplacementPolicy::Random),
    ]
}

fn arb_mode() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Parallel),
        Just(Mode::Alternative),
        Just(Mode::Combined),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batched/epoch path, buffered or not, and the per-op reference
    /// produce identical simulations: reports, PMCs, LLC statistics,
    /// per-owner attribution and shadow misses all match exactly — on the
    /// single-socket and the two-socket machine.
    #[test]
    fn batched_path_is_bit_identical_to_reference(
        path in prop_oneof![Just(EnginePath::Batched), Just(EnginePath::Unbuffered)],
        policy in arb_policy(),
        mode in arb_mode(),
        seed in 0u64..1_000_000,
        workload_count in 2usize..4,
        budgets in prop::collection::vec(500u64..30_000, 1..5),
        shadow in prop_oneof![Just(false), Just(true)],
        sockets in prop_oneof![Just(1usize), Just(2)],
    ) {
        let batched = run_path(path, policy, mode, seed, workload_count, &budgets, shadow, sockets);
        let reference = run_path(EnginePath::Reference, policy, mode, seed, workload_count, &budgets, shadow, sockets);
        prop_assert_eq!(batched, reference);
    }

    /// The socket-parallel path matches the per-op reference exactly, with
    /// multi-socket placements (slots straddling both sockets run on
    /// separate threads), shadow attribution on and off, and both execution
    /// modes — including Alternative, which degenerates to a single
    /// populated socket and exercises the serial fallback.
    #[test]
    fn parallel_path_is_bit_identical_to_reference(
        policy in arb_policy(),
        mode in arb_mode(),
        seed in 0u64..1_000_000,
        workload_count in 2usize..4,
        budgets in prop::collection::vec(500u64..30_000, 1..5),
        shadow in prop_oneof![Just(false), Just(true)],
    ) {
        let parallel = run_path(EnginePath::Parallel, policy, mode, seed, workload_count, &budgets, shadow, 2);
        let reference = run_path(EnginePath::Reference, policy, mode, seed, workload_count, &budgets, shadow, 2);
        prop_assert_eq!(parallel, reference);
    }

    /// Per-socket bit-identity holds past two sockets: on 4- and 8-socket
    /// cloud machines, with enough slots to populate many sockets at once,
    /// the socket-parallel path still reproduces the reference exactly —
    /// the determinism guarantee behind the cloudscale scenario.
    #[test]
    fn parallel_path_is_bit_identical_at_4_and_8_sockets(
        policy in arb_policy(),
        mode in arb_mode(),
        seed in 0u64..1_000_000,
        workload_count in 4usize..10,
        budgets in prop::collection::vec(500u64..20_000, 1..4),
        shadow in prop_oneof![Just(false), Just(true)],
        sockets in prop_oneof![Just(4usize), Just(8)],
    ) {
        let parallel = run_path(EnginePath::Parallel, policy, mode, seed, workload_count, &budgets, shadow, sockets);
        let reference = run_path(EnginePath::Reference, policy, mode, seed, workload_count, &budgets, shadow, sockets);
        prop_assert_eq!(parallel, reference);
    }

    /// A single slot driven to large budgets (the tight single-slot epoch
    /// loop) also matches the reference exactly.
    #[test]
    fn single_slot_epochs_match_reference(
        policy in arb_policy(),
        seed in 0u64..1_000_000,
        budgets in prop::collection::vec(10_000u64..200_000, 1..4),
    ) {
        let batched = run_path(EnginePath::Batched, policy, Mode::Parallel, seed, 1, &budgets, false, 1);
        let reference = run_path(EnginePath::Reference, policy, Mode::Parallel, seed, 1, &budgets, false, 1);
        prop_assert_eq!(batched, reference);
    }
}

/// Non-property smoke check: a workload's op buffer really continues the
/// stream (a workload interrupted mid-chunk resumes where the engine
/// stopped consuming, not where the prefetch stopped).
#[test]
fn op_buffers_preserve_the_stream_across_calls() {
    let many_small_budgets: Vec<u64> = (0..12).map(|i| 700 + i * 137).collect();
    let one_big_budget = [many_small_budgets.iter().sum::<u64>()];
    let split = run_path(
        EnginePath::Batched,
        ReplacementPolicy::Lru,
        Mode::Parallel,
        99,
        2,
        &many_small_budgets,
        false,
        1,
    );
    let joined = run_path(
        EnginePath::Batched,
        ReplacementPolicy::Lru,
        Mode::Parallel,
        99,
        2,
        &one_big_budget,
        false,
        1,
    );
    // Not bit-identical (quantum boundaries differ: each call lets every
    // slot overshoot its budget by at most one op) but the same op streams
    // were consumed, so instruction counts must be very close.
    for (a, b) in split.pmcs.iter().zip(&joined.pmcs) {
        let (low, high) = (
            a.instructions.min(b.instructions),
            a.instructions.max(b.instructions),
        );
        assert!(
            high > 0 && high - low < high / 10,
            "stream diverged: {low} vs {high} instructions"
        );
    }
}

/// A padded burst: a few memory ops, then idle compute padding long enough
/// that its run crosses the engine's 64-op fetch chunks. `phase` rotates
/// the burst so ties and non-ties between padded slots both occur; the
/// zero-cycle compute ops exercise the engine's `cycles.max(1)` rule.
fn padded_burst(base: u64, phase: usize) -> FixedSequence {
    let mut ops = vec![
        Op::Load { addr: base },
        Op::Store { addr: base + 64 },
        Op::Load { addr: base + 4096 },
    ];
    ops.extend((0..100).map(|i| Op::Compute {
        cycles: if i % 37 == 5 { 0 } else { 1 },
    }));
    ops.rotate_left(phase);
    FixedSequence::new("padded", ops)
}

/// Budgets for the compute-run scenario: short and long calls, some ending
/// mid-chunk, so compute runs stop at the budget as well as at a memory op
/// or a chunk end.
const PADDED_BUDGETS: [u64; 6] = [1_000, 777, 192, 5_000, 131, 2_048];

/// The compute-run scenario on a two-socket machine: socket 0 holds three
/// padded-burst slots (two in phase, so their clocks tie) and a
/// memory-heavy slot; socket 1 holds a padded slot and a memory-heavy slot,
/// so the socket-parallel path really splits the call.
fn run_padded(path: EnginePath, shadow: bool) -> Observed {
    let config = MachineConfig::scaled_cloud_machine(2, 256);
    let mut engine = SimEngine::new(Machine::new(config));
    if shadow {
        engine.enable_shadow_attribution().unwrap();
    }
    let mut workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(padded_burst(0, 0)),
        Box::new(padded_burst(1 << 20, 0)),
        Box::new(padded_burst(2 << 20, 40)),
        Box::new(LcgWorkload::new(17, 3000, 1.0)),
        Box::new(padded_burst(3 << 20, 7)),
        Box::new(LcgWorkload::new(29, 3000, 4.0)),
    ];
    let second = engine.machine().config().cores_per_socket;
    let cores = [0, 1, 2, 3, second, second + 1];
    let mut buffers = vec![OpBuffer::default(); workloads.len()];
    let mut pmcs = vec![PmcSet::default(); workloads.len()];
    let mut reports = Vec::new();
    for &budget in &PADDED_BUDGETS {
        let mut slots: Vec<ExecSlot<'_>> = workloads
            .iter_mut()
            .zip(&mut buffers)
            .zip(cores)
            .enumerate()
            .map(|(w, ((workload, ops), core))| {
                path.slot(core, w as OwnerId + 1, workload.as_mut(), ops)
            })
            .collect();
        reports.push(path.run(&mut engine, &mut slots, budget));
        for (total, slot) in pmcs.iter_mut().zip(&slots) {
            *total += slot.pmcs;
        }
    }
    observe(&engine, reports, pmcs)
}

/// Runs of buffered compute ops execute without yielding to the other
/// slots, yet the batched (buffered and unbuffered) and socket-parallel
/// paths stay bit-identical to the per-op reference: same reports, PMCs, LLC statistics, attribution
/// and shadow misses, with shadow attribution off and on.
#[test]
fn compute_runs_keep_both_batched_paths_bit_identical() {
    for shadow in [false, true] {
        let reference = run_padded(EnginePath::Reference, shadow);
        // The scenario must exercise a compute run ending exactly on the
        // budget, not only runs cut short by a memory op.
        let padded_slots = [0, 1, 2, 4];
        assert!(
            reference
                .reports
                .iter()
                .zip(PADDED_BUDGETS)
                .any(|(call, budget)| {
                    padded_slots
                        .iter()
                        .any(|&s| call[s].consumed_cycles == budget)
                }),
            "no padded slot ended a call exactly on its budget"
        );
        assert_eq!(
            run_padded(EnginePath::Batched, shadow),
            reference,
            "run_slots diverged (shadow {shadow})"
        );
        assert_eq!(
            run_padded(EnginePath::Parallel, shadow),
            reference,
            "run_slots_parallel diverged (shadow {shadow})"
        );
        assert_eq!(
            run_padded(EnginePath::Unbuffered, shadow),
            reference,
            "unbuffered run_slots diverged (shadow {shadow})"
        );
    }
}

/// Counts the chunks the engine fetches from the wrapped workload, and
/// separately those fetched while it wanted to block.
struct CountingFills<W> {
    inner: W,
    fills: u64,
    drained_fills: u64,
}

impl<W: Workload> CountingFills<W> {
    fn new(inner: W) -> Self {
        CountingFills {
            inner,
            fills: 0,
            drained_fills: 0,
        }
    }
}

impl<W: Workload> Workload for CountingFills<W> {
    fn next_op(&mut self) -> Op {
        self.inner.next_op()
    }

    fn fill_ops(&mut self, buf: &mut [Op]) -> usize {
        self.fills += 1;
        self.drained_fills += u64::from(self.inner.wants_block());
        self.inner.fill_ops(buf)
    }

    fn name(&self) -> &str {
        "counting-fills"
    }

    fn working_set_bytes(&self) -> u64 {
        self.inner.working_set_bytes()
    }

    fn mem_parallelism(&self) -> f64 {
        self.inner.mem_parallelism()
    }

    fn wants_block(&self) -> bool {
        self.inner.wants_block()
    }

    fn on_wake(&mut self) {
        self.inner.on_wake()
    }
}

/// The engine fetches a chunk only to execute its first op, never to look
/// at the next op: after every call, each buffered slot's fetch count is
/// exactly ceil(executed ops / 64), and an unbuffered slot fetches exactly
/// the ops it executes. Refill timing is observable (an `Interactive` burst
/// is accounted at fetch time; migration drops prefetched ops), so running
/// buffered compute ops ahead must not fetch early.
#[test]
fn the_engine_fetches_a_chunk_only_to_execute_its_first_op() {
    for path in [
        EnginePath::Batched,
        EnginePath::Parallel,
        EnginePath::Unbuffered,
    ] {
        let mut engine = SimEngine::new(Machine::new(MachineConfig::scaled_cloud_machine(2, 256)));
        let cores_per_socket = engine.machine().config().cores_per_socket;
        let mut workloads: Vec<CountingFills<FixedSequence>> =
            [(0, 0), (1 << 20, 0), (2 << 20, 40), (3 << 20, 63)]
                .into_iter()
                .map(|(base, phase)| CountingFills::new(padded_burst(base, phase)))
                .collect();
        let cores = [0, 1, 2, cores_per_socket];
        let mut buffers = vec![OpBuffer::default(); workloads.len()];
        let chunk: u64 = if path == EnginePath::Unbuffered {
            1
        } else {
            64
        };
        let mut executed = [0u64; 4];
        // Calls after which some slot had drained its last chunk exactly:
        // the case where fetching to peek would show.
        let mut drained_at_call_end = 0;
        for &budget in &PADDED_BUDGETS {
            let mut slots: Vec<ExecSlot<'_>> = workloads
                .iter_mut()
                .zip(&mut buffers)
                .zip(cores)
                .enumerate()
                .map(|(w, ((workload, ops), core))| {
                    path.slot(core, w as OwnerId + 1, workload, ops)
                })
                .collect();
            let reports = path.run(&mut engine, &mut slots, budget);
            drop(slots);
            for ((count, report), workload) in executed.iter_mut().zip(&reports).zip(&workloads) {
                *count += report.pmc_delta.instructions;
                assert_eq!(
                    workload.fills,
                    count.div_ceil(chunk),
                    "{path:?}: {count} executed ops after a {budget}-cycle call"
                );
                drained_at_call_end += usize::from(*count % chunk == 0);
            }
        }
        assert!(drained_at_call_end > 0, "no call ended on a chunk boundary");
    }
}

/// Forwards everything to the wrapped workload except, with `hide` set,
/// [`Workload::wants_block`], which then reads `false`. A drained slot is
/// then never fast-forwarded: the engine fetches and steps every padding
/// op, the path it took before padding was skipped. With `hide` off the
/// wrapper forwards `wants_block` too, so both runs share one type.
struct HidesBlock<W> {
    inner: W,
    hide: bool,
}

impl<W: Workload> Workload for HidesBlock<W> {
    fn next_op(&mut self) -> Op {
        self.inner.next_op()
    }

    fn fill_ops(&mut self, buf: &mut [Op]) -> usize {
        self.inner.fill_ops(buf)
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

    fn wants_block(&self) -> bool {
        !self.hide && self.inner.wants_block()
    }

    fn on_wake(&mut self) {
        self.inner.on_wake()
    }
}

type Service = HidesBlock<CountingFills<Interactive<LcgWorkload>>>;

/// Call budgets of the fast-forward scenario: none a multiple of 64, so
/// drained slots stop mid-chunk and leave padding in their buffers.
const SERVICE_BUDGETS: [u64; 11] = [
    1_000, 777, 131, 20_011, 2_050, 333, 12_345, 900, 65, 9_001, 5_003,
];

/// Each service's `remaining_ops` and next ops after a final wake.
#[derive(Debug, PartialEq)]
struct AfterWake {
    remaining: Vec<u32>,
    streams: Vec<Vec<Op>>,
}

/// Four `Interactive` services (bursts below, across and far above one
/// 64-op chunk) share a two-socket machine with two memory-heavy LCG
/// slots; between calls, drained services are woken on a fixed schedule
/// that leaves some asleep for several calls. Returns the observables, the
/// post-wake streams, each service's fetches made while drained, and the
/// number of wakes that found a partial chunk of padding in the buffer.
fn run_services(
    path: EnginePath,
    shadow: bool,
    hide: bool,
) -> (Observed, AfterWake, Vec<u64>, usize) {
    let mut engine = SimEngine::new(Machine::new(MachineConfig::scaled_cloud_machine(2, 256)));
    if shadow {
        engine.enable_shadow_attribution().unwrap();
    }
    let second = engine.machine().config().cores_per_socket;
    let mut services: Vec<Service> = [(48u32, 3u64), (100, 5), (700, 7), (37, 11)]
        .into_iter()
        .map(|(burst, seed)| HidesBlock {
            inner: CountingFills::new(Interactive::new(LcgWorkload::new(seed, 900, 2.0), burst)),
            hide,
        })
        .collect();
    let mut polluters = [
        LcgWorkload::new(17, 3000, 1.0),
        LcgWorkload::new(29, 3000, 4.0),
    ];
    let cores = [0, 1, second, 2, 3, second + 1];
    let slots_total = cores.len();
    let mut buffers = vec![OpBuffer::default(); slots_total];
    let mut pmcs = vec![PmcSet::default(); slots_total];
    let chunk = if path == EnginePath::Unbuffered {
        1
    } else {
        64
    };
    let mut executed = [0u64; 4];
    let mut partial_wakes = 0;
    let mut reports = Vec::new();
    for (call, &budget) in SERVICE_BUDGETS.iter().enumerate() {
        let workloads = services
            .iter_mut()
            .map(|service| service as &mut dyn Workload)
            .chain(polluters.iter_mut().map(|lcg| lcg as &mut dyn Workload));
        let mut slots: Vec<ExecSlot<'_>> = workloads
            .zip(&mut buffers)
            .zip(cores)
            .enumerate()
            .map(|(w, ((workload, ops), core))| path.slot(core, w as OwnerId + 1, workload, ops))
            .collect();
        let call_reports = path.run(&mut engine, &mut slots, budget);
        for (total, slot) in pmcs.iter_mut().zip(&slots) {
            *total += slot.pmcs;
        }
        drop(slots);
        for (s, service) in services.iter_mut().enumerate() {
            executed[s] += call_reports[s].pmc_delta.instructions;
            let interactive = &mut service.inner.inner;
            if interactive.wants_block() && (call + s) % 3 != 0 {
                // Without fast-forwarding, the buffer holds what the last
                // fetched chunk has not executed yet.
                partial_wakes += usize::from(service.inner.fills * chunk > executed[s]);
                interactive.on_wake();
            }
        }
        reports.push(call_reports);
    }
    let observed = observe(&engine, reports, pmcs);
    let drained_fills = services.iter().map(|s| s.inner.drained_fills).collect();
    let after = AfterWake {
        remaining: services
            .iter_mut()
            .map(|service| {
                service.on_wake();
                service.inner.inner.remaining_ops()
            })
            .collect(),
        streams: services
            .iter_mut()
            .map(|service| (0..800).map(|_| service.next_op()).collect())
            .collect(),
    };
    (observed, after, drained_fills, partial_wakes)
}

/// Fast-forwarding a drained slot is invisible: against the same
/// `Interactive` services with `wants_block` hidden (so the engine steps
/// every padding op), `run_slots` — buffered and unbuffered — and
/// `run_slots_parallel` produce the same per-call reports, PMCs, LLC
/// statistics and attribution, shadow misses and logical clock, with
/// shadow attribution off and on; after a final wake every service has the
/// same burst left and emits the same ops. The fast-forwarded services
/// never fetch a chunk while drained.
#[test]
fn fast_forwarded_padding_matches_stepped_padding() {
    for path in [
        EnginePath::Batched,
        EnginePath::Parallel,
        EnginePath::Unbuffered,
    ] {
        for shadow in [false, true] {
            let (stepped, stepped_after, stepped_drained, partial_wakes) =
                run_services(path, shadow, true);
            let (skipped, skipped_after, skipped_drained, _) = run_services(path, shadow, false);
            assert_eq!(skipped, stepped, "{path:?}, shadow {shadow}");
            assert_eq!(skipped_after, stepped_after, "{path:?}, shadow {shadow}");
            assert!(
                stepped_drained.iter().all(|&fills| fills > 0),
                "{path:?}: every service must drain and pad: {stepped_drained:?}"
            );
            assert_eq!(skipped_drained, vec![0; 4], "{path:?}, shadow {shadow}");
            if path != EnginePath::Unbuffered {
                assert!(partial_wakes > 0, "{path:?}: no wake found a partial chunk");
            }
        }
    }
}
