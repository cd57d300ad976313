//! The migration planner: pure, deterministic consolidation decisions.
//!
//! At every epoch boundary the cluster hands the planner a
//! [`ClusterSnapshot`] and gets back a [`MigrationPlan`] — a list of VM
//! moves. The planner is a pure function of the snapshot: identical
//! snapshots produce identical plans (a property test pins this), no plan
//! ever moves the same VM twice, and no move pushes a destination cell past
//! its core capacity (the no-overcommit rule).
//!
//! Four consolidation policies are provided:
//!
//! * [`ConsolidationPolicy::LoadBalance`] — equalise VM counts across cells,
//!   the classic "spread" strategy of schedulers that ignore cache
//!   behaviour;
//! * [`ConsolidationPolicy::BinPack`] — consolidate VMs onto as few cells as
//!   possible (the provider's cost-saving strategy), draining lightly
//!   loaded cells into fuller ones;
//! * [`ConsolidationPolicy::PollutionAware`] — the Kyoto-native strategy:
//!   use per-VM PMC/punishment data to co-locate LLC polluters with each
//!   other on dedicated cells, away from cache-sensitive VMs;
//! * [`ConsolidationPolicy::PollutionAwareDensity`] — pollution-aware with a
//!   cap on sensitive co-location, so separation keeps paying at high
//!   packing density (3+ VMs per cell), where plain separation concentrates
//!   the sensitive VMs until they contend with *each other*.
//!
//! Two planner mechanics sit across every policy:
//!
//! * **Drain evacuation** — cells marked draining in the snapshot are
//!   evacuated before any policy move is considered, and no move (policy or
//!   evacuation) ever *targets* a draining cell.
//! * **Cost awareness** ([`PlannerConfig::cost_aware`]) — instead of
//!   spending the whole fixed move budget, each candidate policy move is
//!   admitted only when its projected contention savings outweigh its cost
//!   (downtime ticks plus the cold-cache refill implied by the VM's
//!   resident line count). Evacuations are mandatory and never gated. The
//!   cost-aware plan is always a subset of the fixed-budget plan, so its
//!   total downtime can never exceed the fixed-budget planner's.

use crate::snapshot::{CellId, CellSnapshot, ClusterSnapshot, FleetVmId};
use std::collections::BTreeSet;

/// How the cluster re-places VMs at epoch boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsolidationPolicy {
    /// Equalise VM counts across cells.
    LoadBalance,
    /// Consolidate VMs onto as few cells as possible.
    BinPack,
    /// Co-locate polluters away from sensitive VMs, using measured
    /// pollution rates and Kyoto punishment counts.
    PollutionAware,
    /// Pollution-aware separation with a cap on how many sensitive VMs may
    /// share a clean cell ([`PlannerConfig::max_sensitive_per_cell`]). At
    /// high density plain separation piles the sensitive VMs onto few clean
    /// cells where they degrade each other; this variant spreads them and
    /// leaves the overflow mixed rather than concentrated.
    PollutionAwareDensity,
}

impl ConsolidationPolicy {
    /// Every policy, in display order.
    pub const ALL: [ConsolidationPolicy; 4] = [
        ConsolidationPolicy::LoadBalance,
        ConsolidationPolicy::BinPack,
        ConsolidationPolicy::PollutionAware,
        ConsolidationPolicy::PollutionAwareDensity,
    ];

    /// Display label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            ConsolidationPolicy::LoadBalance => "load-balance",
            ConsolidationPolicy::BinPack => "bin-pack",
            ConsolidationPolicy::PollutionAware => "pollution-aware",
            ConsolidationPolicy::PollutionAwareDensity => "pollution-density",
        }
    }
}

/// One VM live migration: `vm` leaves `from` and arrives on `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationMove {
    /// The VM to migrate.
    pub vm: FleetVmId,
    /// Source cell.
    pub from: CellId,
    /// Destination cell.
    pub to: CellId,
}

/// The cost a single live migration inflicts on the migrated VM.
///
/// Two components, mirroring what real live migration costs a guest:
///
/// * **Downtime** — the stop-and-copy blackout. The VM runs on *neither*
///   cell for [`MigrationCostModel::downtime_ticks`] scheduler ticks at the
///   start of the arrival epoch.
/// * **Cold cache on arrival** — nothing of the VM's cache footprint
///   travels. The source cell flushes the VM's lines on extraction and the
///   destination LLC knows nothing about it, so the post-arrival warm-up
///   penalty *emerges* from the cache simulation itself rather than being
///   charged as a constant. [`MigrationCostModel::cold_lines`] estimates how
///   many lines must be re-fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCostModel {
    /// Scheduler ticks the VM runs nowhere after a move.
    pub downtime_ticks: u64,
    /// Cold cache lines one tick's worth of memory bandwidth re-fetches at
    /// the destination — converts a VM's resident line count (what
    /// `flush_owner` drops at the source) into the refill ticks the
    /// cost-aware planner charges a candidate move.
    pub refill_lines_per_tick: u64,
}

impl Default for MigrationCostModel {
    fn default() -> Self {
        MigrationCostModel {
            // One 10 ms tick of blackout — in the ballpark of the sub-100 ms
            // downtimes live migration achieves on a local network.
            downtime_ticks: 1,
            // A few hundred lines per tick: a scaled LLC's worth of refill
            // costs roughly one extra tick.
            refill_lines_per_tick: 512,
        }
    }
}

impl MigrationCostModel {
    /// Downtime expressed in core cycles (what the VM loses outright).
    pub fn downtime_cycles(&self, freq_khz: u64, tick_ms: u64) -> u64 {
        self.downtime_ticks * freq_khz * tick_ms
    }

    /// Cache lines the VM must re-fetch at the destination (its whole
    /// working set arrives cold).
    pub fn cold_lines(&self, working_set_bytes: u64, line_bytes: u64) -> u64 {
        working_set_bytes.div_ceil(line_bytes.max(1))
    }

    /// Projected cost of moving a VM that owns `resident_lines` warm lines
    /// at its source, in scheduler ticks: the downtime blackout plus the
    /// cold-cache refill those lines imply at the destination.
    pub fn move_cost_ticks(&self, resident_lines: u64) -> f64 {
        self.downtime_ticks as f64
            + resident_lines as f64 / self.refill_lines_per_tick.max(1) as f64
    }
}

/// A batch of migrations for one epoch boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MigrationPlan {
    /// The moves, in application order.
    pub moves: Vec<MigrationMove>,
}

impl MigrationPlan {
    /// Whether the plan moves nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Number of planned moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Total blackout the plan inflicts, in ticks (one downtime window per
    /// migrated VM).
    pub fn total_downtime_ticks(&self, cost: &MigrationCostModel) -> u64 {
        self.moves.len() as u64 * cost.downtime_ticks
    }

    /// Checks the plan against the snapshot it was derived from: every move
    /// must reference a resident VM at its actual cell, no VM may move
    /// twice, no move may target its own source or a draining cell, and
    /// applying the moves in order must never push a cell past its core
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn validate(&self, snapshot: &ClusterSnapshot) -> Result<(), String> {
        let mut occupancy: Vec<usize> =
            snapshot.cells.iter().map(CellSnapshot::occupancy).collect();
        let cores: Vec<usize> = snapshot.cells.iter().map(|c| c.cores).collect();
        let mut moved = BTreeSet::new();
        for mv in &self.moves {
            if mv.from == mv.to {
                return Err(format!("{} moves to its own cell {}", mv.vm, mv.to));
            }
            let Some((cell, _)) = snapshot.find(mv.vm) else {
                return Err(format!("{} is not resident anywhere", mv.vm));
            };
            if cell.cell != mv.from {
                return Err(format!(
                    "{} is on {} but the plan moves it from {}",
                    mv.vm, cell.cell, mv.from
                ));
            }
            if !moved.insert(mv.vm) {
                return Err(format!("{} is moved twice", mv.vm));
            }
            let (from, to) = (mv.from.0, mv.to.0);
            if to >= occupancy.len() {
                return Err(format!("{} does not exist", mv.to));
            }
            if snapshot.cells[to].draining {
                return Err(format!(
                    "{} is moved into {} while it is draining",
                    mv.vm, mv.to
                ));
            }
            if snapshot.cells[to].down {
                return Err(format!(
                    "{} is moved into {} while it is down",
                    mv.vm, mv.to
                ));
            }
            if occupancy[to] + 1 > cores[to] {
                return Err(format!(
                    "{} would overcommit {} ({} VMs on {} cores)",
                    mv.vm,
                    mv.to,
                    occupancy[to] + 1,
                    cores[to]
                ));
            }
            occupancy[from] -= 1;
            occupancy[to] += 1;
        }
        Ok(())
    }
}

/// Static planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Maximum migrations per epoch boundary (models the migration
    /// bandwidth of the fleet's network).
    pub max_moves_per_epoch: usize,
    /// Pollution rate (LLC misses per CPU-millisecond) at or above which a
    /// VM counts as a polluter, independently of punishments. The default
    /// is infinite, i.e. classification is purely permit-driven: a VM is a
    /// polluter only when the Kyoto scheduler punished it during the epoch.
    pub polluter_threshold: f64,
    /// The migration cost model (consumed by the cluster when applying a
    /// plan, and by the cost-aware gate when weighing one).
    pub cost: MigrationCostModel,
    /// Weigh each candidate policy move's projected contention savings
    /// against its projected cost instead of spending the whole fixed move
    /// budget. Drain evacuations are mandatory and never gated. The
    /// resulting plan is a subset of the fixed-budget plan, so enabling
    /// this can only lower total downtime.
    pub cost_aware: bool,
    /// Contention savings (summed misses-per-CPU-ms pressure relief across
    /// the two touched cells) that justify one tick of migration cost. A
    /// cost-aware move is admitted when
    /// `savings >= savings_per_tick * move_cost_ticks`.
    pub savings_per_tick: f64,
    /// Sensitive VMs allowed to share one clean cell under
    /// [`ConsolidationPolicy::PollutionAwareDensity`].
    pub max_sensitive_per_cell: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_moves_per_epoch: 4,
            polluter_threshold: f64::INFINITY,
            cost: MigrationCostModel::default(),
            cost_aware: false,
            savings_per_tick: 10.0,
            max_sensitive_per_cell: 2,
        }
    }
}

impl PlannerConfig {
    /// Sets the per-epoch migration budget.
    pub fn with_max_moves(mut self, max_moves: usize) -> Self {
        self.max_moves_per_epoch = max_moves;
        self
    }

    /// Sets the polluter classification threshold (misses per CPU-ms).
    pub fn with_polluter_threshold(mut self, threshold: f64) -> Self {
        self.polluter_threshold = threshold.max(0.0);
        self
    }

    /// Sets the migration downtime in ticks.
    pub fn with_downtime_ticks(mut self, ticks: u64) -> Self {
        self.cost.downtime_ticks = ticks;
        self
    }

    /// Enables or disables the cost-aware move gate.
    pub fn with_cost_aware(mut self, cost_aware: bool) -> Self {
        self.cost_aware = cost_aware;
        self
    }

    /// Sets the contention savings worth one tick of migration cost.
    pub fn with_savings_per_tick(mut self, savings: f64) -> Self {
        self.savings_per_tick = savings.max(0.0);
        self
    }

    /// Sets the sensitive co-location cap of the density-aware policy.
    pub fn with_max_sensitive_per_cell(mut self, cap: usize) -> Self {
        self.max_sensitive_per_cell = cap.max(1);
        self
    }
}

/// Mutable planning state: the snapshot's occupancy with planned moves
/// virtually applied, so capacity checks see the plan so far.
struct PlanState {
    cores: Vec<usize>,
    /// Draining cells: never a valid destination.
    draining: Vec<bool>,
    /// Crashed (down) cells: they host nothing and may receive nothing
    /// until they reboot.
    down: Vec<bool>,
    /// Resident VM ids per cell, updated as moves are planned. Order within
    /// a cell: snapshot order, with planned arrivals appended.
    residents: Vec<Vec<FleetVmId>>,
    moved: BTreeSet<FleetVmId>,
    moves: Vec<MigrationMove>,
    budget: usize,
}

impl PlanState {
    fn new(snapshot: &ClusterSnapshot, budget: usize) -> Self {
        PlanState {
            cores: snapshot.cells.iter().map(|c| c.cores).collect(),
            draining: snapshot.cells.iter().map(|c| c.draining).collect(),
            down: snapshot.cells.iter().map(|c| c.down).collect(),
            residents: snapshot
                .cells
                .iter()
                .map(|c| c.vms.iter().map(|vm| vm.vm).collect())
                .collect(),
            moved: BTreeSet::new(),
            moves: Vec::new(),
            budget,
        }
    }

    fn occupancy(&self, cell: usize) -> usize {
        self.residents[cell].len()
    }

    fn has_capacity(&self, cell: usize) -> bool {
        self.occupancy(cell) < self.cores[cell]
    }

    /// Whether the cell refuses all placements: draining or down.
    fn blocked(&self, cell: usize) -> bool {
        self.draining[cell] || self.down[cell]
    }

    /// Whether the cell may receive a VM: neither draining nor down, and
    /// below capacity.
    fn is_open(&self, cell: usize) -> bool {
        !self.blocked(cell) && self.has_capacity(cell)
    }

    fn free_cores(&self, cell: usize) -> usize {
        self.cores[cell].saturating_sub(self.occupancy(cell))
    }

    fn exhausted(&self) -> bool {
        self.moves.len() >= self.budget
    }

    /// Plans one move. Returns false (and plans nothing) when the budget is
    /// exhausted, the VM already moved, or the destination is full or
    /// draining.
    fn push(&mut self, vm: FleetVmId, from: usize, to: usize) -> bool {
        if self.exhausted() || from == to || self.moved.contains(&vm) || !self.is_open(to) {
            return false;
        }
        let Some(pos) = self.residents[from].iter().position(|&v| v == vm) else {
            return false;
        };
        self.residents[from].remove(pos);
        self.residents[to].push(vm);
        self.moved.insert(vm);
        self.moves.push(MigrationMove {
            vm,
            from: CellId(from),
            to: CellId(to),
        });
        true
    }

    fn into_plan(self) -> MigrationPlan {
        MigrationPlan { moves: self.moves }
    }
}

/// The deterministic migration planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPlanner {
    config: PlannerConfig,
}

impl MigrationPlanner {
    /// Creates a planner.
    pub fn new(config: PlannerConfig) -> Self {
        MigrationPlanner { config }
    }

    /// The planner configuration.
    pub fn config(&self) -> PlannerConfig {
        self.config
    }

    /// Computes the migration plan for `snapshot` under `policy`.
    ///
    /// Pure: two calls with equal arguments return equal plans. The result
    /// always passes [`MigrationPlan::validate`] against `snapshot`.
    ///
    /// Draining cells are evacuated first (a mandatory pre-pass shared by
    /// every policy); policy moves follow, never targeting a draining cell.
    /// With [`PlannerConfig::cost_aware`] set, policy moves are additionally
    /// filtered through the cost gate — the result is a subset of the
    /// fixed-budget plan.
    ///
    /// # Example
    ///
    /// Four VMs piled onto cell 0 of a two-cell fleet: load balancing must
    /// move some of them to the empty cell, and the plan validates against
    /// the snapshot it came from:
    ///
    /// ```
    /// use kyoto_cluster::cluster::{Cluster, ClusterConfig};
    /// use kyoto_cluster::planner::{ConsolidationPolicy, MigrationPlanner, PlannerConfig};
    /// use kyoto_cluster::snapshot::CellId;
    /// use kyoto_hypervisor::vm::VmConfig;
    /// use kyoto_workloads::spec::{SpecApp, SpecWorkload};
    ///
    /// let mut cluster = Cluster::new(ClusterConfig::new(2, 256));
    /// for i in 0..4u64 {
    ///     cluster.add_vm(
    ///         CellId(0),
    ///         VmConfig::new(format!("vm-{i}")),
    ///         Box::new(SpecWorkload::new(SpecApp::Lbm, 256, i)),
    ///     ).unwrap();
    /// }
    /// let snapshot = cluster.snapshot();
    /// let planner = MigrationPlanner::new(PlannerConfig::default());
    /// let plan = planner.plan(&snapshot, ConsolidationPolicy::LoadBalance);
    /// assert!(!plan.moves.is_empty());
    /// assert!(plan.moves.iter().all(|m| m.to == CellId(1)));
    /// assert!(plan.validate(&snapshot).is_ok());
    /// ```
    pub fn plan(&self, snapshot: &ClusterSnapshot, policy: ConsolidationPolicy) -> MigrationPlan {
        if snapshot.cells.len() < 2 {
            return MigrationPlan::default();
        }
        let mut state = PlanState::new(snapshot, self.config.max_moves_per_epoch);
        self.plan_evacuations(snapshot, &mut state);
        let mandatory = state.moves.len();
        match policy {
            ConsolidationPolicy::LoadBalance => self.plan_load_balance(&mut state),
            ConsolidationPolicy::BinPack => self.plan_bin_pack(&mut state),
            ConsolidationPolicy::PollutionAware => {
                self.plan_pollution_aware(snapshot, &mut state, false)
            }
            ConsolidationPolicy::PollutionAwareDensity => {
                self.plan_pollution_aware(snapshot, &mut state, true)
            }
        }
        let plan = state.into_plan();
        if self.config.cost_aware {
            self.cost_filter(snapshot, plan, mandatory)
        } else {
            plan
        }
    }

    /// Mandatory pre-pass: move every VM off a draining cell onto the open
    /// cell with the most free cores (ties toward low ids). Runs before any
    /// policy move so maintenance always outranks consolidation; when the
    /// budget or open capacity runs out, the remaining VMs stay put and are
    /// evacuated at later epoch boundaries.
    fn plan_evacuations(&self, snapshot: &ClusterSnapshot, state: &mut PlanState) {
        for cell in &snapshot.cells {
            if !cell.draining {
                continue;
            }
            for vm in &cell.vms {
                if state.exhausted() {
                    return;
                }
                let Some(dst) = (0..state.cores.len())
                    .filter(|&c| state.is_open(c))
                    .max_by_key(|&c| (state.free_cores(c), std::cmp::Reverse(c)))
                else {
                    return;
                };
                state.push(vm.vm, cell.cell.0, dst);
            }
        }
    }

    /// The cost-aware gate: walks the fixed-budget plan's moves in order and
    /// keeps each one only when (a) it still fits (dropping an earlier move
    /// leaves its VM in place, which can consume a destination's room) and
    /// (b) it is mandatory (the first `mandatory` moves are drain
    /// evacuations) or its projected contention savings pay for its
    /// projected cost in ticks. Keeping a subset of the plan's moves means
    /// total downtime can only shrink.
    fn cost_filter(
        &self,
        snapshot: &ClusterSnapshot,
        plan: MigrationPlan,
        mandatory: usize,
    ) -> MigrationPlan {
        let threshold = self.config.polluter_threshold;
        let cores: Vec<usize> = snapshot.cells.iter().map(|c| c.cores).collect();
        let mut residents: Vec<Vec<VmPressure>> = snapshot
            .cells
            .iter()
            .map(|c| {
                c.vms
                    .iter()
                    .map(|vm| VmPressure {
                        vm: vm.vm,
                        rate: vm.pollution_rate,
                        weight: if is_polluter(vm, threshold) {
                            POLLUTER_PRESSURE_WEIGHT
                        } else {
                            1.0
                        },
                    })
                    .collect()
            })
            .collect();
        let lines: std::collections::BTreeMap<FleetVmId, u64> = snapshot
            .cells
            .iter()
            .flat_map(|c| c.vms.iter().map(|vm| (vm.vm, vm.resident_lines)))
            .collect();
        let mut kept = Vec::new();
        for (index, mv) in plan.moves.iter().enumerate() {
            let (from, to) = (mv.from.0, mv.to.0);
            if residents[to].len() >= cores[to] {
                continue;
            }
            let Some(pos) = residents[from].iter().position(|vm| vm.vm == mv.vm) else {
                continue;
            };
            let mover = residents[from][pos];
            if index >= mandatory {
                let cost_ticks = self
                    .config
                    .cost
                    .move_cost_ticks(lines.get(&mv.vm).copied().unwrap_or(0));
                let savings = contention_savings(&residents[from], &residents[to], mover);
                if savings < self.config.savings_per_tick * cost_ticks {
                    continue;
                }
            }
            residents[from].remove(pos);
            residents[to].push(mover);
            kept.push(*mv);
        }
        MigrationPlan { moves: kept }
    }

    /// Repeatedly moves a VM from the fullest cell to the emptiest open cell
    /// until the counts differ by at most one (or a budget/capacity limit
    /// bites). The most recently arrived VM of the full cell moves first,
    /// which keeps long-resident VMs (and their warm caches) anchored.
    fn plan_load_balance(&self, state: &mut PlanState) {
        loop {
            if state.exhausted() {
                break;
            }
            let cells = state.cores.len();
            let Some(src) = (0..cells).max_by_key(|&c| (state.occupancy(c), std::cmp::Reverse(c)))
            else {
                // Zero-cell fleet: nothing to balance.
                break;
            };
            let Some(dst) = (0..cells)
                .filter(|&c| !state.blocked(c))
                .min_by_key(|&c| (state.occupancy(c), c))
            else {
                break;
            };
            if state.occupancy(src) <= state.occupancy(dst) + 1 || !state.is_open(dst) {
                break;
            }
            let Some(&vm) = state.residents[src]
                .iter()
                .rev()
                .find(|vm| !state.moved.contains(vm))
            else {
                break;
            };
            if !state.push(vm, src, dst) {
                break;
            }
        }
    }

    /// Keeps the fullest open cells (enough of them to hold every VM) and
    /// drains everyone else into their free cores, emptiest donor first —
    /// the consolidation move that lets a provider power cells down.
    /// Draining cells are never kept: their VMs must leave anyway.
    fn plan_bin_pack(&self, state: &mut PlanState) {
        let cells = state.cores.len();
        let total: usize = (0..cells).map(|c| state.occupancy(c)).sum();
        // Cells to keep: fullest open cells first (ties toward low ids),
        // until their combined capacity covers the fleet.
        let mut by_occupancy: Vec<usize> = (0..cells).filter(|&c| !state.blocked(c)).collect();
        by_occupancy.sort_by_key(|&c| (std::cmp::Reverse(state.occupancy(c)), c));
        let mut kept: BTreeSet<usize> = BTreeSet::new();
        let mut capacity = 0usize;
        for &c in &by_occupancy {
            if capacity >= total {
                break;
            }
            kept.insert(c);
            capacity += state.cores[c];
        }
        // Drain donors, emptiest first (ties toward high ids, so low ids
        // persist), each VM to the fullest kept cell with room.
        let mut donors: Vec<usize> = (0..cells).filter(|c| !kept.contains(c)).collect();
        donors.sort_by_key(|&c| (state.occupancy(c), std::cmp::Reverse(c)));
        for src in donors {
            let vms: Vec<FleetVmId> = state.residents[src].clone();
            for vm in vms {
                let Some(&dst) = kept
                    .iter()
                    .filter(|&&c| state.has_capacity(c))
                    .max_by_key(|&&c| (state.occupancy(c), std::cmp::Reverse(c)))
                else {
                    return;
                };
                if !state.push(vm, src, dst) {
                    return;
                }
            }
        }
    }

    /// Separates polluters from sensitive VMs using the epoch's measured
    /// PMC/punishment data: designate enough open "sin bin" cells to hold
    /// every polluter (preferring cells that already host the most
    /// polluters), evacuate sensitive VMs from those cells, then pull stray
    /// polluters in. Converges over a few epochs when the per-epoch
    /// migration budget is smaller than the required shuffle.
    ///
    /// With `density` set (the [`ConsolidationPolicy::PollutionAwareDensity`]
    /// policy), sensitive VMs are *spread* across the clean cells — each
    /// taking at most [`PlannerConfig::max_sensitive_per_cell`] of them —
    /// and over-cap concentrations are rebalanced; sensitive VMs that no
    /// clean cell can take under the cap stay mixed where they are instead
    /// of being piled onto a shared clean cell.
    fn plan_pollution_aware(
        &self,
        snapshot: &ClusterSnapshot,
        state: &mut PlanState,
        density: bool,
    ) {
        let threshold = self.config.polluter_threshold;
        // Classification and rates come from the snapshot; locations come
        // from `state`, which may already hold drain evacuations.
        let mut polluter_set: BTreeSet<FleetVmId> = BTreeSet::new();
        for cell in &snapshot.cells {
            for vm in &cell.vms {
                if is_polluter(vm, threshold) {
                    polluter_set.insert(vm.vm);
                }
            }
        }
        if polluter_set.is_empty() {
            return;
        }
        // Worst polluters first (rate desc, id asc).
        let mut polluters: Vec<(FleetVmId, f64)> = snapshot
            .cells
            .iter()
            .flat_map(|c| c.vms.iter())
            .filter(|vm| polluter_set.contains(&vm.vm))
            .map(|vm| (vm.vm, vm.pollution_rate))
            .collect();
        polluters.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let cells = state.cores.len();
        let polluters_on = |state: &PlanState, c: usize| {
            state.residents[c]
                .iter()
                .filter(|vm| polluter_set.contains(vm))
                .count()
        };
        let sensitive_on = |state: &PlanState, c: usize| {
            state.residents[c]
                .iter()
                .filter(|vm| !polluter_set.contains(vm))
                .count()
        };
        // Designate sin-bin cells among the open cells: most polluters
        // first, ties toward high ids (the bin gravitates to the end of the
        // fleet), until their capacity covers every polluter.
        let mut by_polluters: Vec<usize> = (0..cells).filter(|&c| !state.blocked(c)).collect();
        by_polluters.sort_by_key(|&c| {
            (
                std::cmp::Reverse(polluters_on(state, c)),
                std::cmp::Reverse(c),
            )
        });
        let mut bins: Vec<usize> = Vec::new();
        let mut capacity = 0usize;
        for &c in &by_polluters {
            if capacity >= polluters.len() {
                break;
            }
            bins.push(c);
            capacity += state.cores[c];
        }
        if bins.len() >= by_polluters.len() {
            // Every open cell would be a sin bin: separation is impossible.
            return;
        }
        let bin_set: BTreeSet<usize> = bins.iter().copied().collect();
        let cap = if density {
            self.config.max_sensitive_per_cell.max(1)
        } else {
            usize::MAX
        };
        let is_clean = |state: &PlanState, c: usize| !bin_set.contains(&c) && !state.blocked(c);
        // Destination for a sensitive VM: under the density cap the clean
        // cell with the fewest sensitive VMs (then most free cores, then
        // low id); otherwise the clean cell with the most free cores (low
        // id ties).
        let sensitive_dst = |state: &PlanState| {
            (0..cells)
                .filter(|&c| {
                    is_clean(state, c) && state.has_capacity(c) && sensitive_on(state, c) < cap
                })
                .min_by_key(|&c| {
                    (
                        if density { sensitive_on(state, c) } else { 0 },
                        std::cmp::Reverse(state.free_cores(c)),
                        c,
                    )
                })
        };
        // Phase 1: evacuate sensitive VMs from the bins (resident order).
        for &bin in &bins {
            let sensitive: Vec<FleetVmId> = state.residents[bin]
                .iter()
                .copied()
                .filter(|vm| !polluter_set.contains(vm))
                .collect();
            for vm in sensitive {
                if state.exhausted() {
                    return;
                }
                let Some(dst) = sensitive_dst(state) else {
                    break;
                };
                state.push(vm, bin, dst);
            }
        }
        // Phase 2: pull stray polluters into the bins, worst polluter first.
        for &(vm, _) in &polluters {
            if state.exhausted() {
                return;
            }
            let Some(src) = (0..cells).find(|&c| state.residents[c].contains(&vm)) else {
                continue;
            };
            if bin_set.contains(&src) {
                continue;
            }
            let Some(&dst) = bins.iter().find(|&&b| state.has_capacity(b)) else {
                break;
            };
            state.push(vm, src, dst);
        }
        // Phase 3 (density only): spread over-cap sensitive concentrations
        // across the clean cells, most recent arrival first.
        if density {
            loop {
                if state.exhausted() {
                    return;
                }
                let Some(src) = (0..cells)
                    .filter(|&c| is_clean(state, c) && sensitive_on(state, c) > cap)
                    .max_by_key(|&c| (sensitive_on(state, c), std::cmp::Reverse(c)))
                else {
                    break;
                };
                let Some(dst) = (0..cells)
                    .filter(|&c| {
                        c != src
                            && is_clean(state, c)
                            && state.has_capacity(c)
                            && sensitive_on(state, c) < cap
                    })
                    .min_by_key(|&c| {
                        (
                            sensitive_on(state, c),
                            std::cmp::Reverse(state.free_cores(c)),
                            c,
                        )
                    })
                else {
                    break;
                };
                let Some(&vm) = state.residents[src]
                    .iter()
                    .rev()
                    .find(|vm| !polluter_set.contains(vm) && !state.moved.contains(vm))
                else {
                    break;
                };
                if !state.push(vm, src, dst) {
                    break;
                }
            }
        }
    }
}

/// Whether a VM counts as a polluter under the planner's classification:
/// punished by the Kyoto scheduler during the epoch, or estimated above the
/// configured pollution-rate threshold. Shared by the pollution-aware
/// policies and the cost gate so both always price with the same polluter
/// definition.
fn is_polluter(vm: &crate::snapshot::VmSnapshot, threshold: f64) -> bool {
    vm.punishments > 0 || vm.pollution_rate >= threshold
}

/// How much a polluter's own suffered pressure counts in the contention
/// model, relative to a sensitive VM's. Polluters are streaming,
/// cache-insensitive workloads: extra misses barely slow them, so pressure
/// inflicted *on* them is mostly free — which is exactly why sin-binning
/// pays even though it concentrates pollution.
const POLLUTER_PRESSURE_WEIGHT: f64 = 0.25;

/// One VM in the cost gate's pressure model.
#[derive(Debug, Clone, Copy)]
struct VmPressure {
    vm: FleetVmId,
    /// Pollution the VM inflicts on co-residents (misses per CPU-ms).
    rate: f64,
    /// How much pressure suffered by this VM counts (1.0 for sensitive
    /// VMs, [`POLLUTER_PRESSURE_WEIGHT`] for polluters).
    weight: f64,
}

/// Weighted contention pressure inside one cell: every VM suffers the
/// summed pollution rates of its co-residents, scaled by its own
/// sensitivity weight. The cost-aware gate scores a candidate move by how
/// much this quantity drops across the two touched cells.
fn cell_contention(vms: &[VmPressure]) -> f64 {
    if vms.len() < 2 {
        return 0.0;
    }
    let total: f64 = vms.iter().map(|vm| vm.rate).sum();
    vms.iter().map(|vm| vm.weight * (total - vm.rate)).sum()
}

/// Projected contention savings of moving `mover` from `src` to `dst` (both
/// in their pre-move state). Positive when the move relieves more weighted
/// pressure at the source than it adds at the destination.
fn contention_savings(src: &[VmPressure], dst: &[VmPressure], mover: VmPressure) -> f64 {
    let before = cell_contention(src) + cell_contention(dst);
    let src_after: Vec<VmPressure> = src.iter().copied().filter(|vm| vm.vm != mover.vm).collect();
    let mut dst_after: Vec<VmPressure> = dst.to_vec();
    dst_after.push(mover);
    before - (cell_contention(&src_after) + cell_contention(&dst_after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::VmSnapshot;

    fn vm(id: u32, pollution: f64, punishments: u64) -> VmSnapshot {
        VmSnapshot {
            vm: FleetVmId(id),
            name: format!("fvm{id}"),
            pollution_rate: pollution,
            punishments,
            instructions: 1000,
            llc_misses: 100,
            ipc: 1.0,
            working_set_bytes: 64 * 1024,
            resident_lines: 256,
            blocked_fraction: 0.0,
        }
    }

    fn snapshot(cells: Vec<(usize, Vec<VmSnapshot>)>) -> ClusterSnapshot {
        ClusterSnapshot {
            epoch: 0,
            cells: cells
                .into_iter()
                .enumerate()
                .map(|(i, (cores, vms))| CellSnapshot {
                    cell: CellId(i),
                    cores,
                    draining: false,
                    down: false,
                    vms,
                })
                .collect(),
        }
    }

    fn snapshot_with_drains(cells: Vec<(usize, bool, Vec<VmSnapshot>)>) -> ClusterSnapshot {
        ClusterSnapshot {
            epoch: 0,
            cells: cells
                .into_iter()
                .enumerate()
                .map(|(i, (cores, draining, vms))| CellSnapshot {
                    cell: CellId(i),
                    cores,
                    draining,
                    down: false,
                    vms,
                })
                .collect(),
        }
    }

    fn planner() -> MigrationPlanner {
        MigrationPlanner::new(PlannerConfig::default().with_max_moves(16))
    }

    #[test]
    fn load_balance_equalises_counts() {
        let snap = snapshot(vec![
            (
                4,
                vec![vm(1, 0.0, 0), vm(2, 0.0, 0), vm(3, 0.0, 0), vm(4, 0.0, 0)],
            ),
            (4, vec![]),
        ]);
        let plan = planner().plan(&snap, ConsolidationPolicy::LoadBalance);
        plan.validate(&snap).unwrap();
        assert_eq!(plan.len(), 2);
        assert!(plan.moves.iter().all(|m| m.to == CellId(1)));
        // Most recently arrived VMs move first.
        assert_eq!(plan.moves[0].vm, FleetVmId(4));
        assert_eq!(plan.moves[1].vm, FleetVmId(3));
    }

    #[test]
    fn bin_pack_drains_the_emptiest_cells() {
        let snap = snapshot(vec![
            (4, vec![vm(1, 0.0, 0), vm(2, 0.0, 0), vm(3, 0.0, 0)]),
            (4, vec![vm(4, 0.0, 0)]),
            (4, vec![vm(5, 0.0, 0), vm(6, 0.0, 0)]),
        ]);
        let plan = planner().plan(&snap, ConsolidationPolicy::BinPack);
        plan.validate(&snap).unwrap();
        // 6 VMs fit on two 4-core cells: cell 1 (the emptiest donor) drains.
        assert_eq!(plan.len(), 1);
        assert_eq!(
            plan.moves[0],
            MigrationMove {
                vm: FleetVmId(4),
                from: CellId(1),
                to: CellId(0),
            }
        );
    }

    #[test]
    fn bin_pack_does_nothing_when_already_packed() {
        let snap = snapshot(vec![
            (2, vec![vm(1, 0.0, 0), vm(2, 0.0, 0)]),
            (2, vec![vm(3, 0.0, 0)]),
            (2, vec![]),
        ]);
        let plan = planner().plan(&snap, ConsolidationPolicy::BinPack);
        plan.validate(&snap).unwrap();
        assert!(plan.is_empty(), "3 VMs need two 2-core cells: {:?}", plan);
    }

    #[test]
    fn pollution_aware_separates_polluters_from_sensitive_vms() {
        // Polluters (punished or above threshold) spread across both cells;
        // the plan must gather them on one cell and the sensitive VMs on the
        // other.
        let snap = snapshot(vec![
            (4, vec![vm(1, 900.0, 3), vm(2, 10.0, 0)]),
            (4, vec![vm(3, 800.0, 2), vm(4, 5.0, 0)]),
        ]);
        let plan = planner().plan(&snap, ConsolidationPolicy::PollutionAware);
        plan.validate(&snap).unwrap();
        // Apply the plan and check the separation.
        let mut location: Vec<(u32, usize)> = vec![(1, 0), (2, 0), (3, 1), (4, 1)];
        for mv in &plan.moves {
            let entry = location
                .iter_mut()
                .find(|(id, _)| *id == mv.vm.0)
                .expect("known VM");
            entry.1 = mv.to.0;
        }
        let cell_of = |id: u32| location.iter().find(|(v, _)| *v == id).unwrap().1;
        assert_eq!(cell_of(1), cell_of(3), "polluters co-located");
        assert_eq!(cell_of(2), cell_of(4), "sensitive VMs co-located");
        assert_ne!(cell_of(1), cell_of(2), "groups separated");
    }

    #[test]
    fn pollution_aware_uses_the_rate_threshold_without_punishments() {
        let snap = snapshot(vec![
            (4, vec![vm(1, 900.0, 0), vm(2, 10.0, 0)]),
            (4, vec![vm(3, 800.0, 0), vm(4, 5.0, 0)]),
        ]);
        let quiet = planner().plan(&snap, ConsolidationPolicy::PollutionAware);
        assert!(
            quiet.is_empty(),
            "no punishments and an infinite threshold: nobody is a polluter"
        );
        let planner = MigrationPlanner::new(
            PlannerConfig::default()
                .with_max_moves(16)
                .with_polluter_threshold(500.0),
        );
        let plan = planner.plan(&snap, ConsolidationPolicy::PollutionAware);
        plan.validate(&snap).unwrap();
        assert!(!plan.is_empty(), "threshold classification must kick in");
    }

    #[test]
    fn move_budget_is_respected() {
        let snap = snapshot(vec![
            (8, (1..=8).map(|i| vm(i, 0.0, 0)).collect()),
            (8, vec![]),
        ]);
        let planner = MigrationPlanner::new(PlannerConfig::default().with_max_moves(2));
        let plan = planner.plan(&snap, ConsolidationPolicy::LoadBalance);
        plan.validate(&snap).unwrap();
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn full_destinations_are_never_overcommitted() {
        let snap = snapshot(vec![
            (2, vec![vm(1, 0.0, 0), vm(2, 0.0, 0)]),
            // Cell 1 is at capacity: nothing may move there, and balancing
            // toward cell 2 is the only option.
            (1, vec![vm(3, 0.0, 0)]),
            (1, vec![]),
        ]);
        let plan = planner().plan(&snap, ConsolidationPolicy::LoadBalance);
        plan.validate(&snap).unwrap();
        for mv in &plan.moves {
            assert_ne!(mv.to, CellId(1));
        }
    }

    #[test]
    fn single_cell_clusters_never_migrate() {
        let snap = snapshot(vec![(4, vec![vm(1, 1000.0, 5), vm(2, 1.0, 0)])]);
        for policy in ConsolidationPolicy::ALL {
            assert!(planner().plan(&snap, policy).is_empty());
        }
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let snap = snapshot(vec![(2, vec![vm(1, 0.0, 0)]), (1, vec![vm(2, 0.0, 0)])]);
        let self_move = MigrationPlan {
            moves: vec![MigrationMove {
                vm: FleetVmId(1),
                from: CellId(0),
                to: CellId(0),
            }],
        };
        assert!(self_move.validate(&snap).is_err());
        let ghost = MigrationPlan {
            moves: vec![MigrationMove {
                vm: FleetVmId(9),
                from: CellId(0),
                to: CellId(1),
            }],
        };
        assert!(ghost.validate(&snap).is_err());
        let overcommit = MigrationPlan {
            moves: vec![MigrationMove {
                vm: FleetVmId(1),
                from: CellId(0),
                to: CellId(1),
            }],
        };
        assert!(overcommit.validate(&snap).is_err(), "cell 1 is full");
    }

    #[test]
    fn cost_model_arithmetic() {
        let cost = MigrationCostModel {
            downtime_ticks: 3,
            refill_lines_per_tick: 100,
        };
        assert_eq!(cost.downtime_cycles(1000, 10), 30_000);
        assert_eq!(cost.cold_lines(130, 64), 3);
        assert!((cost.move_cost_ticks(250) - 5.5).abs() < 1e-12);
        let plan = MigrationPlan {
            moves: vec![
                MigrationMove {
                    vm: FleetVmId(1),
                    from: CellId(0),
                    to: CellId(1),
                },
                MigrationMove {
                    vm: FleetVmId(2),
                    from: CellId(0),
                    to: CellId(1),
                },
            ],
        };
        assert_eq!(plan.total_downtime_ticks(&cost), 6);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ConsolidationPolicy::LoadBalance.label(), "load-balance");
        assert_eq!(ConsolidationPolicy::BinPack.label(), "bin-pack");
        assert_eq!(
            ConsolidationPolicy::PollutionAware.label(),
            "pollution-aware"
        );
        assert_eq!(
            ConsolidationPolicy::PollutionAwareDensity.label(),
            "pollution-density"
        );
        assert_eq!(ConsolidationPolicy::ALL.len(), 4);
    }

    #[test]
    fn draining_cells_are_evacuated_before_policy_moves() {
        let snap = snapshot_with_drains(vec![
            (4, true, vec![vm(1, 0.0, 0), vm(2, 0.0, 0)]),
            (4, false, vec![vm(3, 0.0, 0)]),
            (4, false, vec![]),
        ]);
        for policy in ConsolidationPolicy::ALL {
            let plan = planner().plan(&snap, policy);
            plan.validate(&snap).unwrap();
            let evacuated: Vec<_> = plan
                .moves
                .iter()
                .filter(|mv| mv.from == CellId(0))
                .collect();
            assert_eq!(evacuated.len(), 2, "{policy:?} must evacuate the drain");
            assert!(
                plan.moves.iter().all(|mv| mv.to != CellId(0)),
                "{policy:?} must never target the draining cell"
            );
        }
    }

    #[test]
    fn evacuation_respects_capacity_and_budget() {
        // Only one open core in the whole fleet: exactly one VM evacuates.
        let snap = snapshot_with_drains(vec![
            (4, true, vec![vm(1, 0.0, 0), vm(2, 0.0, 0), vm(3, 0.0, 0)]),
            (2, false, vec![vm(4, 0.0, 0)]),
        ]);
        let plan = planner().plan(&snap, ConsolidationPolicy::LoadBalance);
        plan.validate(&snap).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.moves[0].vm, FleetVmId(1));
    }

    #[test]
    fn cost_aware_plans_are_a_subset_with_no_more_downtime() {
        // All-quiet fleet: balancing counts, but no contention to relieve.
        let snap = snapshot(vec![
            (
                4,
                vec![vm(1, 2.0, 0), vm(2, 1.0, 0), vm(3, 2.0, 0), vm(4, 1.0, 0)],
            ),
            (4, vec![vm(5, 1.0, 0)]),
        ]);
        let fixed = planner().plan(&snap, ConsolidationPolicy::LoadBalance);
        let cost_aware = MigrationPlanner::new(
            PlannerConfig::default()
                .with_max_moves(16)
                .with_cost_aware(true),
        )
        .plan(&snap, ConsolidationPolicy::LoadBalance);
        cost_aware.validate(&snap).unwrap();
        let cost = MigrationCostModel::default();
        assert!(
            cost_aware.total_downtime_ticks(&cost) <= fixed.total_downtime_ticks(&cost),
            "cost-aware may never inflict more downtime"
        );
        for mv in &cost_aware.moves {
            assert!(fixed.moves.contains(mv), "{mv:?} not in the fixed plan");
        }
        // The zero-pollution balancing moves are pruned: moving vm3/vm4
        // saves almost no contention but costs a downtime blackout.
        assert!(cost_aware.len() < fixed.len());
    }

    #[test]
    fn cost_aware_still_separates_heavy_polluters() {
        // A punished 900-misses/ms polluter sharing a cell with three
        // sensitive VMs: moving it to the quiet cell relieves far more
        // contention than the move costs, so the gate admits it.
        let snap = snapshot(vec![
            (
                4,
                vec![vm(1, 900.0, 3), vm(2, 4.0, 0), vm(3, 3.0, 0), vm(4, 2.0, 0)],
            ),
            (4, vec![vm(5, 850.0, 2)]),
        ]);
        let planner = MigrationPlanner::new(
            PlannerConfig::default()
                .with_max_moves(16)
                .with_cost_aware(true),
        );
        let plan = planner.plan(&snap, ConsolidationPolicy::PollutionAware);
        plan.validate(&snap).unwrap();
        assert!(
            plan.moves.iter().any(|mv| mv.vm == FleetVmId(1)),
            "the heavy polluter must still be worth moving: {plan:?}"
        );
    }

    #[test]
    fn cost_aware_never_gates_drain_evacuations() {
        // Zero-pollution VMs on a draining cell: no contention savings at
        // all, but evacuation is mandatory.
        let snap = snapshot_with_drains(vec![
            (4, true, vec![vm(1, 0.0, 0), vm(2, 0.0, 0)]),
            (4, false, vec![]),
        ]);
        let planner = MigrationPlanner::new(
            PlannerConfig::default()
                .with_max_moves(16)
                .with_cost_aware(true),
        );
        let plan = planner.plan(&snap, ConsolidationPolicy::LoadBalance);
        plan.validate(&snap).unwrap();
        assert_eq!(plan.len(), 2, "both VMs leave the draining cell: {plan:?}");
    }

    #[test]
    fn density_policy_caps_sensitive_co_location() {
        // 2 polluters and 4 sensitive VMs on 3 cells. Plain separation
        // piles every sensitive VM onto the clean cells as densely as
        // fit allows; the density variant never lets a clean cell exceed
        // `max_sensitive_per_cell`.
        let snap = snapshot(vec![
            (4, vec![vm(1, 900.0, 2), vm(2, 1.0, 0), vm(3, 1.0, 0)]),
            (4, vec![vm(4, 800.0, 2), vm(5, 1.0, 0), vm(6, 1.0, 0)]),
            (4, vec![]),
        ]);
        let planner = MigrationPlanner::new(
            PlannerConfig::default()
                .with_max_moves(16)
                .with_max_sensitive_per_cell(2),
        );
        let plan = planner.plan(&snap, ConsolidationPolicy::PollutionAwareDensity);
        plan.validate(&snap).unwrap();
        // Apply and count sensitive VMs per cell.
        let sensitive = [2u32, 3, 5, 6];
        let mut location: Vec<(u32, usize)> = vec![(1, 0), (2, 0), (3, 0), (4, 1), (5, 1), (6, 1)];
        for mv in &plan.moves {
            location
                .iter_mut()
                .find(|(id, _)| *id == mv.vm.0)
                .expect("known VM")
                .1 = mv.to.0;
        }
        for cell in 0..3 {
            let count = location
                .iter()
                .filter(|(id, c)| *c == cell && sensitive.contains(id))
                .count();
            assert!(
                count <= 2,
                "cell {cell} hosts {count} sensitive VMs: {location:?}"
            );
        }
    }

    #[test]
    fn down_cells_are_never_migration_targets() {
        // Cell 2 crashed: it is empty (its VMs were orphaned) and must not
        // receive anything, even though it has the most free cores.
        let mut snap = snapshot(vec![
            (
                4,
                vec![vm(1, 900.0, 2), vm(2, 1.0, 0), vm(3, 1.0, 0), vm(4, 1.0, 0)],
            ),
            (4, vec![vm(5, 800.0, 2)]),
            (4, vec![]),
        ]);
        snap.cells[2].down = true;
        for policy in ConsolidationPolicy::ALL {
            let plan = planner().plan(&snap, policy);
            plan.validate(&snap).unwrap();
            assert!(
                plan.moves.iter().all(|mv| mv.to != CellId(2)),
                "{policy:?} targeted the down cell: {plan:?}"
            );
        }
        let into_down = MigrationPlan {
            moves: vec![MigrationMove {
                vm: FleetVmId(1),
                from: CellId(0),
                to: CellId(2),
            }],
        };
        let err = into_down.validate(&snap).unwrap_err();
        assert!(err.contains("down"), "{err}");
    }

    #[test]
    fn contention_model_arithmetic() {
        let vp = |id: u32, rate: f64, weight: f64| VmPressure {
            vm: FleetVmId(id),
            rate,
            weight,
        };
        // Uniform weights reduce to (n-1) * total: 3 VMs totalling 60 ->
        // 120.
        let cell = vec![vp(1, 10.0, 1.0), vp(2, 20.0, 1.0), vp(3, 30.0, 1.0)];
        assert!((cell_contention(&cell) - 120.0).abs() < 1e-12);
        assert_eq!(cell_contention(&cell[..1]), 0.0);
        // Moving the 30-rate VM to an empty cell: before 120, after
        // (2-1)*30 + 0 = 30 -> savings 90.
        let savings = contention_savings(&cell, &[], cell[2]);
        assert!((savings - 90.0).abs() < 1e-12, "{savings}");
        // Sin-binning a polluter: pressure added onto other polluters is
        // discounted by their weight, so the move scores far better than
        // the uniform model would say.
        let mixed = vec![vp(4, 900.0, POLLUTER_PRESSURE_WEIGHT), vp(5, 1.0, 1.0)];
        let bin = vec![vp(6, 800.0, POLLUTER_PRESSURE_WEIGHT)];
        let savings = contention_savings(&mixed, &bin, mixed[0]);
        assert!(
            savings > 400.0,
            "pulling the polluter off the sensitive VM must pay: {savings}"
        );
    }
}
