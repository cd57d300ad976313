//! Fleet checkpointing: a deep copy of the whole cluster that
//! [`Cluster::restore`](crate::cluster::Cluster::restore) resumes
//! **bit-identically**.
//!
//! A checkpoint is a *value*, not a view: every cell's machine (caches,
//! PMCs), hypervisor (scheduler state, VM runtimes, workload progress),
//! every in-flight arrival, the crash-retry queue, the installed
//! [`FaultPlan`] and all control-plane counters
//! are cloned outright. Because the simulation is deterministic, resuming
//! from the copy replays exactly the epochs the original would have run —
//! `run(k) == restore(checkpoint(run(j))).run(k - j)` is property-tested
//! across every policy and planner mode.
//!
//! Cloning can fail: workloads are trait objects, and only those
//! implementing [`Workload::try_clone_box`](kyoto_sim::workload::Workload)
//! participate. [`Cluster::checkpoint`](crate::cluster::Cluster::checkpoint)
//! surfaces the offender instead of panicking.

use crate::cluster::{Cell, ClusterConfig, EpochReport, FleetVm, FleetVmReport, Orphan};
use crate::faults::{FaultCounts, FaultPlan};
use kyoto_trace::TraceSink;

/// A deep copy of a [`Cluster`](crate::cluster::Cluster) at an epoch
/// boundary. Opaque by design — the only useful operation is
/// [`Cluster::restore`](crate::cluster::Cluster::restore) — but a few
/// read-only accessors support sanity checks without a restore.
pub struct FleetCheckpoint {
    pub(crate) config: ClusterConfig,
    pub(crate) cells: Vec<Cell>,
    pub(crate) vms: Vec<FleetVm>,
    pub(crate) departed: Vec<FleetVmReport>,
    pub(crate) retry: Vec<Orphan>,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) next_fleet_id: u32,
    pub(crate) arrival_index: u64,
    pub(crate) epoch: u64,
    pub(crate) total_migrations: u64,
    pub(crate) total_arrivals: u64,
    pub(crate) total_departures: u64,
    pub(crate) rejected_arrivals: u64,
    pub(crate) total_faults: FaultCounts,
    pub(crate) readmission_latency_epochs: u64,
    pub(crate) history: Vec<EpochReport>,
    pub(crate) freq_khz: u64,
    pub(crate) trace: TraceSink,
    pub(crate) control_cursor: u64,
}

impl FleetCheckpoint {
    /// The epoch the checkpointed cluster had completed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of cells in the checkpointed fleet.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Live VMs captured (residents, in-flight arrivals and orphans alike).
    pub fn live_vms(&self) -> usize {
        self.vms.len()
    }

    /// Crash-orphaned VMs captured in the retry queue.
    pub fn queued_orphans(&self) -> usize {
        self.retry.len()
    }
}

impl std::fmt::Debug for FleetCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetCheckpoint")
            .field("epoch", &self.epoch)
            .field("cells", &self.cells.len())
            .field("vms", &self.vms.len())
            .field("orphans", &self.retry.len())
            .field("departed", &self.departed.len())
            .finish_non_exhaustive()
    }
}
