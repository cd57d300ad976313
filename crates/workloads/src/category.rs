//! VM categories used by the problem-assessment experiments (Section 2.2.4).
//!
//! The paper classifies VMs by where their working set fits:
//!
//! * **C1** — fits within the intermediate-level caches (L1 + L2), so the VM
//!   is insensitive to both ILC and LLC contention;
//! * **C2** — fits within the LLC but not the ILC, so the VM is the most
//!   sensitive to LLC contention (its whole working set can be evicted);
//! * **C3** — exceeds the LLC, so the VM already misses to memory on its own
//!   but still suffers additional misses under contention.

use kyoto_sim::topology::MachineConfig;
use std::fmt;

/// Working-set category of a VM (Section 2.2.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Working set fits the intermediate-level caches (L1 + L2).
    C1,
    /// Working set fits the LLC but not the ILC.
    C2,
    /// Working set exceeds the LLC.
    C3,
}

impl Category {
    /// All categories, in order.
    pub const ALL: [Category; 3] = [Category::C1, Category::C2, Category::C3];

    /// Classifies a working-set size against a machine's cache capacities.
    pub fn classify(working_set_bytes: u64, machine: &MachineConfig) -> Category {
        let ilc_capacity = machine.l1d.size_bytes + machine.l2.size_bytes;
        if working_set_bytes <= ilc_capacity {
            Category::C1
        } else if working_set_bytes <= machine.llc.size_bytes {
            Category::C2
        } else {
            Category::C3
        }
    }

    /// A working-set size (in bytes) squarely inside this category for the
    /// given machine: half the ILC for C1, 60 % of the LLC for C2, and four
    /// times the LLC for C3.
    pub fn representative_working_set(&self, machine: &MachineConfig) -> u64 {
        let ilc = machine.l1d.size_bytes + machine.l2.size_bytes;
        let llc = machine.llc.size_bytes;
        match self {
            Category::C1 => (ilc / 2).max(machine.l1d.line_size as u64),
            Category::C2 => (llc * 6 / 10).max(ilc * 2),
            Category::C3 => llc * 4,
        }
    }

    /// Whether a VM in this category is *sensitive* to LLC contention.
    /// The paper calls C2 and C3 VMs "sensitive VMs" (end of Section 2.2.5).
    pub fn is_sensitive(&self) -> bool {
        matches!(self, Category::C2 | Category::C3)
    }

    /// Index (1-based) used in the paper's notation `v^i_rep` / `v^i_dis`.
    pub fn index(&self) -> usize {
        match self {
            Category::C1 => 1,
            Category::C2 => 2,
            Category::C3 => 3,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper_thresholds() {
        let machine = MachineConfig::paper_machine();
        // 64 KB fits L1+L2 (288 KB).
        assert_eq!(Category::classify(64 * 1024, &machine), Category::C1);
        // 4 MB fits the 10 MB LLC but not the ILC.
        assert_eq!(Category::classify(4 * 1024 * 1024, &machine), Category::C2);
        // 64 MB exceeds the LLC.
        assert_eq!(Category::classify(64 * 1024 * 1024, &machine), Category::C3);
    }

    #[test]
    fn representative_working_sets_fall_in_their_own_category() {
        for scale in [1u64, 16, 64] {
            let machine = MachineConfig::scaled_paper_machine(scale);
            for category in Category::ALL {
                let ws = category.representative_working_set(&machine);
                assert_eq!(
                    Category::classify(ws, &machine),
                    category,
                    "scale {scale}, category {category}"
                );
            }
        }
    }

    #[test]
    fn sensitivity_matches_the_papers_definition() {
        assert!(!Category::C1.is_sensitive());
        assert!(Category::C2.is_sensitive());
        assert!(Category::C3.is_sensitive());
    }

    #[test]
    fn display_and_index() {
        assert_eq!(Category::C1.to_string(), "C1");
        assert_eq!(Category::C3.index(), 3);
        assert!(Category::C1 < Category::C2);
    }
}
