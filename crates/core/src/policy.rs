//! Provider-side permit policy (Section 5 of the paper).
//!
//! The paper answers "how does a user choose a VM's `llc_cap`?" by observing
//! that IaaS providers already sell a catalogue of instance types (Amazon
//! EC2 has 38 of them) and that a pollution permit can simply be attached to
//! each type, proportional to the memory assigned to the instance: a
//! memory-optimised R3 instance gets a much larger `llc_cap` than a
//! compute-optimised C3 instance of the same size.
//!
//! This module provides that catalogue plus a small billing helper, so the
//! `pollution_permits` example can show the full provider workflow.

use crate::permit::LlcCap;
use std::fmt;

/// Families of bookable instance types, mirroring the EC2 families the paper
/// cites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceFamily {
    /// General-purpose instances (balanced CPU/memory), e.g. EC2 M3.
    GeneralPurpose,
    /// Compute-optimised instances (lots of CPU, little memory), e.g. EC2 C3.
    ComputeOptimized,
    /// Memory-optimised instances (lots of memory per vCPU), e.g. EC2 R3.
    MemoryOptimized,
    /// HPC instances sold with strong performance-isolation guarantees.
    Hpc,
}

impl InstanceFamily {
    /// All families.
    pub const ALL: [InstanceFamily; 4] = [
        InstanceFamily::GeneralPurpose,
        InstanceFamily::ComputeOptimized,
        InstanceFamily::MemoryOptimized,
        InstanceFamily::Hpc,
    ];

    /// Gibibytes of memory per vCPU for this family.
    pub fn memory_gib_per_vcpu(&self) -> f64 {
        match self {
            InstanceFamily::GeneralPurpose => 4.0,
            InstanceFamily::ComputeOptimized => 2.0,
            InstanceFamily::MemoryOptimized => 8.0,
            InstanceFamily::Hpc => 4.0,
        }
    }

    /// Short family prefix used in instance-type names.
    pub fn prefix(&self) -> &'static str {
        match self {
            InstanceFamily::GeneralPurpose => "m3",
            InstanceFamily::ComputeOptimized => "c3",
            InstanceFamily::MemoryOptimized => "r3",
            InstanceFamily::Hpc => "h1",
        }
    }
}

impl fmt::Display for InstanceFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// A bookable instance type: a family plus a size (number of vCPUs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceType {
    /// The family.
    pub family: InstanceFamily,
    /// Number of vCPUs.
    pub vcpus: u32,
}

impl InstanceType {
    /// Creates an instance type.
    pub fn new(family: InstanceFamily, vcpus: u32) -> Self {
        InstanceType {
            family,
            vcpus: vcpus.max(1),
        }
    }

    /// Total memory of the instance, in GiB.
    pub fn memory_gib(&self) -> f64 {
        self.family.memory_gib_per_vcpu() * f64::from(self.vcpus)
    }

    /// Conventional instance-type name, e.g. `r3.4x`.
    pub fn name(&self) -> String {
        format!("{}.{}x", self.family.prefix(), self.vcpus)
    }
}

/// The provider's permit catalogue: maps instance types to pollution permits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermitCatalog {
    /// Pollution permit granted per GiB of instance memory, in misses/ms.
    pub permit_per_gib: f64,
    /// Price of one unit (1k misses/ms) of booked permit, in arbitrary
    /// currency per hour.
    pub price_per_kilo_permit_hour: f64,
    /// Base price of one vCPU-hour.
    pub price_per_vcpu_hour: f64,
}

impl Default for PermitCatalog {
    fn default() -> Self {
        PermitCatalog {
            // 25k misses/ms per GiB: an r3.4x (32 GiB) books 800k, a c3.4x
            // (8 GiB) books 200k — preserving the R3 >> C3 relation the paper
            // suggests.
            permit_per_gib: 25_000.0,
            price_per_kilo_permit_hour: 0.002,
            price_per_vcpu_hour: 0.05,
        }
    }
}

impl PermitCatalog {
    /// The permit attached to `instance`, proportional to its memory.
    pub fn permit_for(&self, instance: InstanceType) -> LlcCap {
        LlcCap::new(self.permit_per_gib * instance.memory_gib())
    }

    /// Hourly price of `instance`, including its pollution permit.
    pub fn hourly_price(&self, instance: InstanceType) -> f64 {
        let permit = self.permit_for(instance).misses_per_ms();
        f64::from(instance.vcpus) * self.price_per_vcpu_hour
            + permit / 1000.0 * self.price_per_kilo_permit_hour
    }

    /// Splits a bill between base compute and the pollution permit.
    pub fn bill(&self, instance: InstanceType, hours: f64) -> Bill {
        let compute = f64::from(instance.vcpus) * self.price_per_vcpu_hour * hours;
        let permit = self.permit_for(instance).misses_per_ms() / 1000.0
            * self.price_per_kilo_permit_hour
            * hours;
        Bill {
            instance,
            hours,
            compute_cost: compute,
            permit_cost: permit,
        }
    }
}

/// A priced booking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bill {
    /// What was booked.
    pub instance: InstanceType,
    /// For how long, in hours.
    pub hours: f64,
    /// Cost of the compute capacity.
    pub compute_cost: f64,
    /// Cost of the pollution permit.
    pub permit_cost: f64,
}

impl Bill {
    /// Total cost.
    pub fn total(&self) -> f64 {
        self.compute_cost + self.permit_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_optimised_instances_get_larger_permits_than_compute_optimised() {
        let catalog = PermitCatalog::default();
        let r3 = InstanceType::new(InstanceFamily::MemoryOptimized, 4);
        let c3 = InstanceType::new(InstanceFamily::ComputeOptimized, 4);
        assert!(
            catalog.permit_for(r3).misses_per_ms() > catalog.permit_for(c3).misses_per_ms() * 2.0,
            "R3 instances must book much more llc_cap than C3 instances (Section 5)"
        );
    }

    #[test]
    fn permits_scale_with_instance_size() {
        let catalog = PermitCatalog::default();
        let small = InstanceType::new(InstanceFamily::GeneralPurpose, 1);
        let large = InstanceType::new(InstanceFamily::GeneralPurpose, 8);
        assert!(
            (catalog.permit_for(large).misses_per_ms()
                - catalog.permit_for(small).misses_per_ms() * 8.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn bills_split_compute_and_permit_costs() {
        let catalog = PermitCatalog::default();
        let instance = InstanceType::new(InstanceFamily::Hpc, 4);
        let bill = catalog.bill(instance, 10.0);
        assert!(bill.compute_cost > 0.0);
        assert!(bill.permit_cost > 0.0);
        assert!((bill.total() - (bill.compute_cost + bill.permit_cost)).abs() < 1e-12);
        assert!((catalog.hourly_price(instance) * 10.0 - bill.total()).abs() < 1e-9);
    }

    #[test]
    fn instance_names_follow_the_ec2_convention() {
        assert_eq!(
            InstanceType::new(InstanceFamily::MemoryOptimized, 4).name(),
            "r3.4x"
        );
        assert_eq!(
            InstanceType::new(InstanceFamily::ComputeOptimized, 2).name(),
            "c3.2x"
        );
        assert_eq!(InstanceFamily::Hpc.to_string(), "h1");
        assert_eq!(InstanceType::new(InstanceFamily::Hpc, 0).vcpus, 1);
    }

    #[test]
    fn all_families_have_positive_memory() {
        for family in InstanceFamily::ALL {
            assert!(family.memory_gib_per_vcpu() > 0.0);
        }
    }
}
