//! Per-epoch observations of the fleet: the pure data the migration planner
//! consumes.
//!
//! A snapshot is taken at every epoch boundary, after all cells have run
//! their ticks and before any migration is planned. It contains only plain
//! values (no references into cells), so the planner is a pure function of
//! it — the determinism property tests exploit exactly that.

use std::fmt;

/// Identifier of a cell (one machine + hypervisor) within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub usize);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell{}", self.0)
    }
}

/// Fleet-wide identifier of a VM. Stable across migrations, unlike the
/// per-cell `VmId` a hypervisor hands out locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FleetVmId(pub u32);

impl fmt::Display for FleetVmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fvm{}", self.0)
    }
}

/// What one VM did during the last epoch (all counters are epoch deltas, not
/// lifetime totals).
#[derive(Debug, Clone, PartialEq)]
pub struct VmSnapshot {
    /// The VM.
    pub vm: FleetVmId,
    /// Its configured name.
    pub name: String,
    /// Measured pollution over the epoch, in LLC misses per millisecond of
    /// CPU time — the quantity the paper's Equation 1 estimates.
    pub pollution_rate: f64,
    /// Punishments the Kyoto scheduler inflicted during the epoch (zero when
    /// the VM booked no permit).
    pub punishments: u64,
    /// Instructions retired during the epoch.
    pub instructions: u64,
    /// LLC misses during the epoch.
    pub llc_misses: u64,
    /// Instructions per cycle over the epoch.
    pub ipc: f64,
    /// Working-set size of the VM's workload in bytes.
    pub working_set_bytes: u64,
    /// LLC lines the VM currently owns on its cell — what
    /// `Machine::flush_owner` would invalidate if the VM migrated now, and
    /// therefore the cold-cache refill bill the cost-aware planner charges a
    /// candidate move.
    pub resident_lines: u64,
    /// Fraction of the epoch's vCPU-ticks the VM spent Blocked (WFI-style
    /// sleep). `0.0` for always-runnable VMs; close to `1.0` for
    /// sleep-mostly interactive VMs.
    pub blocked_fraction: f64,
}

/// One cell at an epoch boundary: capacity plus the VMs it hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSnapshot {
    /// The cell.
    pub cell: CellId,
    /// Number of physical cores the cell's machine has — its VM capacity
    /// under the no-overcommit rule the planner enforces.
    pub cores: usize,
    /// Whether the cell is draining for maintenance: it stops accepting
    /// placements (the planner never targets it, admission skips it) and
    /// its resident VMs are evacuated before any policy move is considered.
    pub draining: bool,
    /// Whether the cell is down after a crash: it runs nothing, hosts
    /// nothing (its VMs were orphaned into the retry queue), and accepts no
    /// placements until it reboots.
    pub down: bool,
    /// Resident VMs in fleet-id order.
    pub vms: Vec<VmSnapshot>,
}

impl CellSnapshot {
    /// Number of VMs resident on the cell.
    pub fn occupancy(&self) -> usize {
        self.vms.len()
    }

    /// Whether the cell accepts new placements (i.e. it is neither draining
    /// nor down).
    pub fn is_open(&self) -> bool {
        !self.draining && !self.down
    }

    /// Cores not currently claimed by a resident VM (saturating: a cell
    /// seeded beyond capacity reports zero).
    pub fn free_cores(&self) -> usize {
        self.cores.saturating_sub(self.vms.len())
    }

    /// Sum of the resident VMs' epoch pollution rates — the cell's total
    /// pressure on its shared LLC. (`+ 0.0` normalises the `-0.0` an empty
    /// float sum produces, keeping rendered tables tidy.)
    pub fn pollution_rate(&self) -> f64 {
        self.vms.iter().map(|vm| vm.pollution_rate).sum::<f64>() + 0.0
    }
}

/// The whole fleet at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// Epoch index this snapshot closes (0-based).
    pub epoch: u64,
    /// Every cell, in cell-id order.
    pub cells: Vec<CellSnapshot>,
}

impl ClusterSnapshot {
    /// Total VMs across the fleet.
    pub fn total_vms(&self) -> usize {
        self.cells.iter().map(|c| c.vms.len()).sum()
    }

    /// Finds a VM and the cell hosting it.
    pub fn find(&self, vm: FleetVmId) -> Option<(&CellSnapshot, &VmSnapshot)> {
        self.cells.iter().find_map(|cell| {
            cell.vms
                .iter()
                .find(|snapshot| snapshot.vm == vm)
                .map(|snapshot| (cell, snapshot))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(id: u32, pollution: f64) -> VmSnapshot {
        VmSnapshot {
            vm: FleetVmId(id),
            name: format!("fvm{id}"),
            pollution_rate: pollution,
            punishments: 0,
            instructions: 100,
            llc_misses: 10,
            ipc: 1.0,
            working_set_bytes: 4096,
            resident_lines: 64,
            blocked_fraction: 0.0,
        }
    }

    #[test]
    fn cell_accessors() {
        let cell = CellSnapshot {
            cell: CellId(0),
            cores: 4,
            draining: false,
            down: false,
            vms: vec![vm(1, 10.0), vm(2, 5.0)],
        };
        assert_eq!(cell.occupancy(), 2);
        assert_eq!(cell.free_cores(), 2);
        assert!(cell.is_open());
        assert!((cell.pollution_rate() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn draining_cells_are_not_open() {
        let cell = CellSnapshot {
            cell: CellId(0),
            cores: 4,
            draining: true,
            down: false,
            vms: vec![vm(1, 0.0)],
        };
        assert!(!cell.is_open());
    }

    #[test]
    fn overcommitted_cell_reports_zero_free_cores() {
        let cell = CellSnapshot {
            cell: CellId(0),
            cores: 1,
            draining: false,
            down: false,
            vms: vec![vm(1, 0.0), vm(2, 0.0)],
        };
        assert_eq!(cell.free_cores(), 0);
    }

    #[test]
    fn cluster_lookup() {
        let snapshot = ClusterSnapshot {
            epoch: 3,
            cells: vec![
                CellSnapshot {
                    cell: CellId(0),
                    cores: 4,
                    draining: false,
                    down: false,
                    vms: vec![vm(1, 1.0)],
                },
                CellSnapshot {
                    cell: CellId(1),
                    cores: 4,
                    draining: false,
                    down: false,
                    vms: vec![vm(2, 2.0)],
                },
            ],
        };
        assert_eq!(snapshot.total_vms(), 2);
        let (cell, found) = snapshot.find(FleetVmId(2)).unwrap();
        assert_eq!(cell.cell, CellId(1));
        assert_eq!(found.vm, FleetVmId(2));
        assert!(snapshot.find(FleetVmId(9)).is_none());
        assert_eq!(CellId(1).to_string(), "cell1");
        assert_eq!(FleetVmId(2).to_string(), "fvm2");
    }
}
