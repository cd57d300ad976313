//! VM-to-socket placement policies for consolidation scenarios.
//!
//! The paper's experiments pin every VM by hand because the testbed has one
//! socket. A cloud-scale consolidation run (the `cloudscale` scenario in
//! `kyoto-experiments`) instead places dozens of VMs across an N-socket
//! machine, and *where* they land decides which LLCs they contend for.
//! [`PlacementPolicy`] captures the three classic strategies; the planner
//! produces ordinary pinnings and NUMA nodes, so placement flows through the
//! scheduler's pinning filter and `Machine::route` exactly like a hand-built
//! scenario — no side channel into the engine.

use crate::vm::VmConfig;
use kyoto_sim::topology::{CoreId, MachineConfig, NumaNode, SocketId};

/// How a consolidation scenario spreads VMs over the machine's sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// VM `i` lands on socket `i % sockets`, cores within a socket are
    /// filled round-robin. Memory follows the vCPU (always local), the
    /// default of schedulers that balance load but ignore topology.
    RoundRobin,
    /// Sockets are filled one after the other: a VM only spills to the next
    /// socket once every core of the current one is occupied, and once every
    /// core of the machine is occupied the fill wraps around (VMs then
    /// time-share cores). Models consolidation-first packing.
    Packed,
    /// Greedy NUMA-aware balancing: each VM goes to the socket with the
    /// smallest total working-set load so far, and its memory is pinned to
    /// that node. Models a topology-aware provider placing by memory
    /// footprint.
    NumaAware,
}

impl PlacementPolicy {
    /// Every policy, in display order.
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::Packed,
        PlacementPolicy::NumaAware,
    ];

    /// Display label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::Packed => "packed",
            PlacementPolicy::NumaAware => "numa-aware",
        }
    }
}

/// Where one (single-vCPU) VM ends up: the core it is pinned to, the socket
/// that core belongs to, and the NUMA node its memory is placed on (`None`
/// means "local to wherever the vCPU runs", the hypervisor default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Socket the VM's core belongs to.
    pub socket: SocketId,
    /// Core the VM's vCPU is pinned to.
    pub core: CoreId,
    /// Explicit memory node, if the policy pins memory.
    pub numa_node: Option<NumaNode>,
}

impl Placement {
    /// Applies this placement to a VM configuration (pinning + NUMA node).
    pub fn apply(&self, config: VmConfig) -> VmConfig {
        let config = config.pinned_to(vec![self.core]);
        match self.numa_node {
            Some(node) => config.on_numa_node(node),
            None => config,
        }
    }
}

/// Computes the placement of `working_sets.len()` single-vCPU VMs on
/// `machine` under `policy`. `working_sets[i]` is the working-set size in
/// bytes of VM `i` (only [`PlacementPolicy::NumaAware`] reads it).
///
/// The plan is a pure function of its inputs — two calls with the same
/// arguments return identical placements (a property test pins this) — and
/// every returned core exists on the machine.
pub fn place_vms(
    policy: PlacementPolicy,
    machine: &MachineConfig,
    working_sets: &[u64],
) -> Vec<Placement> {
    let sockets = machine.sockets;
    let cores_per_socket = machine.cores_per_socket;
    let mut placements = Vec::with_capacity(working_sets.len());
    match policy {
        PlacementPolicy::RoundRobin => {
            // Per-socket arrival counters fill the socket's cores in order.
            let mut arrivals = vec![0usize; sockets];
            for i in 0..working_sets.len() {
                let socket = SocketId(i % sockets);
                let core = machine
                    .core_on(socket, arrivals[socket.0] % cores_per_socket)
                    .expect("socket and core index in range");
                arrivals[socket.0] += 1;
                placements.push(Placement {
                    socket,
                    core,
                    numa_node: None,
                });
            }
        }
        PlacementPolicy::Packed => {
            for i in 0..working_sets.len() {
                let slot = i % (sockets * cores_per_socket);
                let socket = SocketId(slot / cores_per_socket);
                let core = machine
                    .core_on(socket, slot % cores_per_socket)
                    .expect("socket and core index in range");
                placements.push(Placement {
                    socket,
                    core,
                    numa_node: None,
                });
            }
        }
        PlacementPolicy::NumaAware => {
            let mut load = vec![0u64; sockets];
            let mut occupancy = vec![0usize; sockets];
            for &working_set in working_sets {
                let socket = SocketId(
                    (0..sockets)
                        .min_by_key(|&s| (load[s], s))
                        .expect("at least one socket"),
                );
                let core = machine
                    .core_on(socket, occupancy[socket.0] % cores_per_socket)
                    .expect("socket and core index in range");
                load[socket.0] += working_set;
                occupancy[socket.0] += 1;
                placements.push(Placement {
                    socket,
                    core,
                    numa_node: Some(NumaNode(socket.0)),
                });
            }
        }
    }
    placements
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        MachineConfig::cloud_machine(4)
    }

    #[test]
    fn round_robin_cycles_sockets() {
        let placements = place_vms(PlacementPolicy::RoundRobin, &machine(), &[1; 8]);
        let sockets: Vec<usize> = placements.iter().map(|p| p.socket.0).collect();
        assert_eq!(sockets, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert!(placements.iter().all(|p| p.numa_node.is_none()));
        // Two VMs on the same socket occupy different cores.
        assert_ne!(placements[0].core, placements[4].core);
    }

    #[test]
    fn packed_fills_a_socket_before_spilling() {
        let config = machine();
        let placements = place_vms(PlacementPolicy::Packed, &config, &[1; 10]);
        let sockets: Vec<usize> = placements.iter().map(|p| p.socket.0).collect();
        // 4 cores per socket: the first four VMs fill socket 0, the next
        // four fill socket 1, the last two start socket 2.
        assert_eq!(sockets, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
        // Wrap-around: VM 16 lands back on socket 0 core 0 (time-sharing).
        let wrapped = place_vms(PlacementPolicy::Packed, &config, &[1; 17]);
        assert_eq!(wrapped[16].socket, SocketId(0));
        assert_eq!(wrapped[16].core, wrapped[0].core);
    }

    #[test]
    fn numa_aware_balances_by_working_set_and_pins_memory() {
        // One huge VM followed by small ones: the small ones must all avoid
        // the huge VM's socket until the load evens out.
        let placements = place_vms(
            PlacementPolicy::NumaAware,
            &machine(),
            &[1000, 10, 10, 10, 10],
        );
        assert_eq!(placements[0].socket, SocketId(0));
        for p in &placements[1..] {
            assert_ne!(p.socket, SocketId(0), "small VMs avoid the loaded socket");
        }
        for p in placements {
            assert_eq!(p.numa_node, Some(NumaNode(p.socket.0)));
        }
    }

    #[test]
    fn placements_always_reference_existing_cores() {
        let config = machine();
        for policy in PlacementPolicy::ALL {
            for count in [1usize, 7, 33] {
                let sets: Vec<u64> = (0..count as u64).map(|i| (i + 1) * 4096).collect();
                for p in place_vms(policy, &config, &sets) {
                    assert!(p.core.0 < config.num_cores());
                    assert_eq!(config.socket_of_core(p.core), Some(p.socket));
                }
            }
        }
    }

    #[test]
    fn apply_sets_pinning_and_numa_node() {
        let placement = Placement {
            socket: SocketId(1),
            core: CoreId(5),
            numa_node: Some(NumaNode(1)),
        };
        let config = placement.apply(VmConfig::new("vm"));
        assert_eq!(config.pinned_core(0), Some(CoreId(5)));
        assert_eq!(config.numa_node, Some(NumaNode(1)));
        let local = Placement {
            numa_node: None,
            ..placement
        };
        assert_eq!(local.apply(VmConfig::new("vm")).numa_node, None);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PlacementPolicy::RoundRobin.label(), "round-robin");
        assert_eq!(PlacementPolicy::Packed.label(), "packed");
        assert_eq!(PlacementPolicy::NumaAware.label(), "numa-aware");
        assert_eq!(PlacementPolicy::ALL.len(), 3);
    }
}
