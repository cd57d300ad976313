//! Cache hierarchy: private per-core L1D/L1I/L2 and the shared LLC.
//!
//! The hierarchy mirrors the paper's testbed (Table 1): every core owns a
//! split 32 KB L1 and a unified 256 KB L2 ("intermediate level caches", ILC,
//! in the paper's terminology) while the 10 MB, 20-way LLC is shared by every
//! core of a socket. Accesses walk the hierarchy top-down and fill every
//! level on the path on a miss.

use crate::cache::{Cache, CacheConfig, OwnerId};
use crate::error::SimError;

/// Kind of memory access issued by a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (looked up in the L1I).
    InstructionFetch,
    /// Data load (looked up in the L1D).
    Load,
    /// Data store (looked up in the L1D; write-allocate).
    Store,
}

/// Level of the memory hierarchy that satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// Hit in the level-1 cache.
    L1,
    /// Hit in the level-2 cache (an "intermediate level cache" hit).
    L2,
    /// Hit in the shared last-level cache.
    Llc,
    /// Served from the local NUMA node's memory (an LLC miss).
    LocalMemory,
    /// Served from a remote NUMA node's memory (an LLC miss with the
    /// additional interconnect penalty — the cost socket dedication imposes
    /// on migrated vCPUs in Fig. 9).
    RemoteMemory,
}

impl MemLevel {
    /// Whether the access had to leave the socket's cache hierarchy.
    pub fn is_llc_miss(&self) -> bool {
        matches!(self, MemLevel::LocalMemory | MemLevel::RemoteMemory)
    }

    /// Whether the access had to be looked up in the LLC at all
    /// (i.e. it missed every intermediate-level cache).
    pub fn reached_llc(&self) -> bool {
        matches!(
            self,
            MemLevel::Llc | MemLevel::LocalMemory | MemLevel::RemoteMemory
        )
    }

    /// Whether the access missed the L1, i.e. was resolved at or beyond the
    /// L2 — a miss in at least one intermediate-level cache. This is the
    /// event the `ilc_misses` counter records: an access that misses L1 but
    /// hits L2 counts, unlike [`MemLevel::reached_llc`] which requires
    /// missing the L2 as well.
    pub fn missed_l1(&self) -> bool {
        !matches!(self, MemLevel::L1)
    }
}

/// Outcome of a single memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The level that satisfied the access.
    pub level: MemLevel,
    /// Latency charged to the access, in core cycles.
    pub latency: u32,
    /// Whether a valid LLC line belonging to another owner was evicted by
    /// this access (a pollution event).
    pub polluted_llc: bool,
}

/// The private caches of one core.
#[derive(Debug, Clone)]
pub struct CoreCaches {
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
}

impl CoreCaches {
    /// Builds the private caches of a core.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidCacheConfig`] if any geometry is invalid.
    pub fn new(
        l1d: CacheConfig,
        l1i: CacheConfig,
        l2: CacheConfig,
        seed: u64,
    ) -> Result<Self, SimError> {
        Ok(CoreCaches {
            l1d: Cache::with_seed(l1d, seed ^ 0x11d)?,
            l1i: Cache::with_seed(l1i, seed ^ 0x111)?,
            l2: Cache::with_seed(l2, seed ^ 0x222)?,
        })
    }

    /// Immutable view of the L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Immutable view of the L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// Immutable view of the unified L2 cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Flushes all lines of `owner` from the private caches, returning how
    /// many were invalidated.
    pub fn flush_owner(&mut self, owner: OwnerId) -> u64 {
        self.l1d.flush_owner(owner) + self.l1i.flush_owner(owner) + self.l2.flush_owner(owner)
    }

    /// Pre-sizes the per-owner counters of every private cache for `owner`
    /// (see [`Cache::register_owner`]).
    pub fn register_owner(&mut self, owner: OwnerId) {
        self.l1d.register_owner(owner);
        self.l1i.register_owner(owner);
        self.l2.register_owner(owner);
    }

    /// Resets private cache statistics.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l1i.reset_stats();
        self.l2.reset_stats();
    }

    /// Walks the private caches and, on an L2 miss, the shared `llc`.
    ///
    /// Returns which level satisfied the access (memory levels are reported
    /// as [`MemLevel::LocalMemory`]; the caller decides whether the NUMA
    /// placement turns it into [`MemLevel::RemoteMemory`]) and whether the
    /// LLC fill evicted another owner's line.
    #[inline]
    pub fn walk(
        &mut self,
        llc: &mut Cache,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> (MemLevel, bool) {
        let l1 = match kind {
            AccessKind::InstructionFetch => &mut self.l1i,
            AccessKind::Load | AccessKind::Store => &mut self.l1d,
        };
        if l1.access(addr, owner).hit {
            return (MemLevel::L1, false);
        }
        if self.l2.access(addr, owner).hit {
            return (MemLevel::L2, false);
        }
        let llc_result = llc.access(addr, owner);
        let polluted = llc_result
            .evicted_owner
            .map(|victim| victim != owner)
            .unwrap_or(false);
        if llc_result.hit {
            (MemLevel::Llc, false)
        } else {
            (MemLevel::LocalMemory, polluted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_hierarchy() -> (CoreCaches, Cache) {
        let l1 = CacheConfig::new(1024, 2, 64);
        let l2 = CacheConfig::new(4096, 4, 64);
        let llc = CacheConfig::new(16 * 1024, 8, 64);
        (
            CoreCaches::new(l1.clone(), l1, l2, 1).unwrap(),
            Cache::new(llc).unwrap(),
        )
    }

    #[test]
    fn cold_access_goes_to_memory_then_warms_all_levels() {
        let (mut core, mut llc) = tiny_hierarchy();
        let (level, _) = core.walk(&mut llc, 0x4000, AccessKind::Load, 1);
        assert_eq!(level, MemLevel::LocalMemory);
        let (level, _) = core.walk(&mut llc, 0x4000, AccessKind::Load, 1);
        assert_eq!(level, MemLevel::L1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let (mut core, mut llc) = tiny_hierarchy();
        // L1: 1024 B, 2-way, 64 B lines => 8 sets. Address stride of
        // 8*64 = 512 maps to the same L1 set; three such lines overflow it.
        let addrs = [0u64, 512, 1024];
        for &a in &addrs {
            core.walk(&mut llc, a, AccessKind::Load, 1);
        }
        // First address has been evicted from L1 (2 ways) but still sits in L2.
        let (level, _) = core.walk(&mut llc, addrs[0], AccessKind::Load, 1);
        assert_eq!(level, MemLevel::L2);
    }

    #[test]
    fn llc_hit_when_l2_too_small() {
        let (mut core, mut llc) = tiny_hierarchy();
        // Working set of 128 lines (8 KiB) overflows the 4 KiB L2 but fits
        // in the 16 KiB LLC.
        for round in 0..3 {
            let mut llc_hits = 0;
            for i in 0..128u64 {
                let (level, _) = core.walk(&mut llc, i * 64, AccessKind::Load, 1);
                if level == MemLevel::Llc {
                    llc_hits += 1;
                }
            }
            if round > 0 {
                assert!(llc_hits > 0, "round {round} should see LLC hits");
            }
        }
    }

    #[test]
    fn instruction_fetches_use_the_l1i() {
        let (mut core, mut llc) = tiny_hierarchy();
        core.walk(&mut llc, 0x100, AccessKind::InstructionFetch, 1);
        assert_eq!(core.l1i().stats().accesses, 1);
        assert_eq!(core.l1d().stats().accesses, 0);
    }

    #[test]
    fn pollution_flag_reports_cross_owner_llc_eviction() {
        let l1 = CacheConfig::new(128, 2, 64); // 1 set, 2 ways
        let l2 = CacheConfig::new(256, 2, 64); // 2 sets
        let llc_cfg = CacheConfig::new(256, 2, 64); // 2 sets, 2 ways: tiny LLC
        let mut core = CoreCaches::new(l1.clone(), l1, l2, 1).unwrap();
        let mut llc = Cache::new(llc_cfg).unwrap();
        // Owner 1 fills both ways of LLC set 0 (stride 2*64=128 maps to set 0).
        core.walk(&mut llc, 0, AccessKind::Load, 1);
        core.walk(&mut llc, 128, AccessKind::Load, 1);
        // Owner 2 now misses into the same set and must evict owner 1.
        let (_, polluted) = core.walk(&mut llc, 256, AccessKind::Load, 2);
        assert!(polluted);
    }

    #[test]
    fn mem_level_predicates() {
        assert!(MemLevel::LocalMemory.is_llc_miss());
        assert!(MemLevel::RemoteMemory.is_llc_miss());
        assert!(!MemLevel::Llc.is_llc_miss());
        assert!(MemLevel::Llc.reached_llc());
        assert!(!MemLevel::L2.reached_llc());
        // An L2 hit missed the L1, so it counts as an ILC miss even though
        // it never reached the LLC.
        assert!(!MemLevel::L1.missed_l1());
        assert!(MemLevel::L2.missed_l1());
        assert!(MemLevel::Llc.missed_l1());
        assert!(MemLevel::LocalMemory.missed_l1());
    }

    #[test]
    fn flush_owner_clears_private_and_not_other_owner() {
        let (mut core, mut llc) = tiny_hierarchy();
        core.walk(&mut llc, 0x40, AccessKind::Load, 1);
        core.walk(&mut llc, 0x80, AccessKind::Load, 2);
        core.flush_owner(1);
        let (level, _) = core.walk(&mut llc, 0x80, AccessKind::Load, 2);
        assert_eq!(level, MemLevel::L1);
        let (level, _) = core.walk(&mut llc, 0x40, AccessKind::Load, 1);
        assert_ne!(level, MemLevel::L1);
    }
}
