//! Pollution permits and the pollution-quota accounting.
//!
//! Kyoto adds one configuration parameter to a VM: its booked pollution
//! permit `llc_cap`, expressed in LLC misses per millisecond of CPU time.
//! At runtime the scheduler maintains a *pollution quota* per VM which works
//! exactly like the credit scheduler's credit:
//!
//! * at the end of every time slice the VM **earns** quota proportional to
//!   its booked `llc_cap`;
//! * every tick the scheduler **debits** the quota by the pollution the VM
//!   actually generated (its measured `llc_cap_act` times the CPU time it
//!   consumed, i.e. its attributed LLC misses);
//! * a VM whose quota goes negative is **punished**: it is put in priority
//!   `OVER` and cannot use the processor until its quota becomes positive
//!   again.

use std::fmt;

/// A booked pollution permit: LLC misses per millisecond of CPU time.
///
/// The paper writes `250k·v` for a VM `v` whose permit is 250 000.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct LlcCap(f64);

impl LlcCap {
    /// Creates a permit; negative values are clamped to zero.
    pub fn new(misses_per_ms: f64) -> Self {
        LlcCap(misses_per_ms.max(0.0))
    }

    /// Creates a permit from the paper's `k` notation (`LlcCap::kilo(250)` is
    /// the paper's `250k`).
    pub fn kilo(thousands: f64) -> Self {
        Self::new(thousands * 1000.0)
    }

    /// The permit value in misses per millisecond.
    pub fn misses_per_ms(&self) -> f64 {
        self.0
    }

    /// Scales the permit (used when experiments run on scaled-down machines:
    /// a machine scaled by `s` has `1/s` of the memory bandwidth, so booked
    /// permits scale identically).
    pub fn scaled(&self, factor: u64) -> Self {
        LlcCap(self.0 / factor.max(1) as f64)
    }
}

impl fmt::Display for LlcCap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.0}k", self.0 / 1000.0)
        } else {
            write!(f, "{:.0}", self.0)
        }
    }
}

impl From<f64> for LlcCap {
    fn from(value: f64) -> Self {
        LlcCap::new(value)
    }
}

/// Runtime pollution-quota accounting for one VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollutionQuota {
    booked: LlcCap,
    quota: f64,
    /// Maximum quota the VM may bank, in multiples of one slice's earning.
    max_bank_slices: f64,
    punished: bool,
    punishments: u64,
    total_debited: f64,
    total_earned: f64,
}

impl PollutionQuota {
    /// Creates the quota accounting for a VM that booked `booked`.
    ///
    /// The VM starts with one slice worth of quota so it is not punished
    /// before its first accounting period.
    pub fn new(booked: LlcCap, slice_ms: f64) -> Self {
        PollutionQuota {
            booked,
            quota: booked.misses_per_ms() * slice_ms,
            max_bank_slices: 2.0,
            punished: false,
            punishments: 0,
            total_debited: 0.0,
            total_earned: 0.0,
        }
    }

    /// The booked permit.
    pub fn booked(&self) -> LlcCap {
        self.booked
    }

    /// Current quota in misses (may be negative while punished).
    pub fn quota(&self) -> f64 {
        self.quota
    }

    /// Whether the VM is currently punished (quota exhausted).
    pub fn is_punished(&self) -> bool {
        self.punished
    }

    /// Number of times the VM entered the punished state.
    pub fn punishments(&self) -> u64 {
        self.punishments
    }

    /// Total pollution debited so far (misses).
    pub fn total_debited(&self) -> f64 {
        self.total_debited
    }

    /// Total quota earned so far (misses).
    pub fn total_earned(&self) -> f64 {
        self.total_earned
    }

    /// Debits the pollution attributed to the VM for one tick.
    ///
    /// Returns `true` when this debit pushed the VM into the punished state.
    pub fn debit(&mut self, attributed_misses: f64) -> bool {
        let misses = attributed_misses.max(0.0);
        self.quota -= misses;
        self.total_debited += misses;
        if self.quota < 0.0 && !self.punished {
            self.punished = true;
            self.punishments += 1;
            true
        } else {
            false
        }
    }

    /// Earns the end-of-slice quota replenishment for a slice of `slice_ms`
    /// milliseconds. Returns `true` when the VM left the punished state.
    pub fn earn(&mut self, slice_ms: f64) -> bool {
        let earned = self.booked.misses_per_ms() * slice_ms.max(0.0);
        let cap = earned * self.max_bank_slices;
        // The banking cap only limits growth: it never claws back quota that
        // was already banked under a longer slice.
        let target = (self.quota + earned).min(cap.max(earned));
        if target > self.quota {
            self.total_earned += target - self.quota;
            self.quota = target;
        }
        if self.punished && self.quota >= 0.0 {
            self.punished = false;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llc_cap_construction_and_display() {
        assert_eq!(LlcCap::kilo(250.0).misses_per_ms(), 250_000.0);
        assert_eq!(LlcCap::new(-5.0).misses_per_ms(), 0.0);
        assert_eq!(LlcCap::kilo(250.0).to_string(), "250k");
        assert_eq!(LlcCap::new(42.0).to_string(), "42");
        assert_eq!(LlcCap::from(10.0).misses_per_ms(), 10.0);
    }

    #[test]
    fn scaled_permits_shrink_with_the_machine() {
        let permit = LlcCap::kilo(250.0);
        assert_eq!(permit.scaled(16).misses_per_ms(), 250_000.0 / 16.0);
        assert_eq!(permit.scaled(0).misses_per_ms(), 250_000.0);
    }

    #[test]
    fn quota_starts_with_one_slice_of_headroom() {
        let quota = PollutionQuota::new(LlcCap::new(1000.0), 30.0);
        assert_eq!(quota.quota(), 30_000.0);
        assert!(!quota.is_punished());
    }

    #[test]
    fn debit_beyond_quota_punishes_once() {
        let mut quota = PollutionQuota::new(LlcCap::new(100.0), 30.0);
        assert!(!quota.debit(1000.0));
        assert!(
            quota.debit(5000.0),
            "crossing zero should report a punishment"
        );
        assert!(quota.is_punished());
        assert!(
            !quota.debit(1000.0),
            "already punished: not a new punishment"
        );
        assert_eq!(quota.punishments(), 1);
    }

    #[test]
    fn earning_restores_the_vm_when_quota_turns_positive() {
        let mut quota = PollutionQuota::new(LlcCap::new(100.0), 30.0);
        quota.debit(10_000.0); // way beyond the 3000 initial quota
        assert!(quota.is_punished());
        // One slice earns 3000: not yet positive.
        assert!(!quota.earn(30.0));
        assert!(quota.is_punished());
        // Keep earning until the debt is paid off.
        let mut released = false;
        for _ in 0..10 {
            released = quota.earn(30.0) || released;
        }
        assert!(released);
        assert!(!quota.is_punished());
    }

    #[test]
    fn quota_banking_is_bounded() {
        let mut quota = PollutionQuota::new(LlcCap::new(100.0), 30.0);
        for _ in 0..100 {
            quota.earn(30.0);
        }
        // At most two slices worth of quota can be banked.
        assert!(quota.quota() <= 100.0 * 30.0 * 2.0 + 1e-9);
    }

    #[test]
    fn zero_permit_vm_is_punished_by_any_pollution() {
        let mut quota = PollutionQuota::new(LlcCap::new(0.0), 30.0);
        assert!(quota.debit(1.0));
        assert!(quota.is_punished());
        // Earning nothing never releases it.
        assert!(!quota.earn(30.0));
        assert!(quota.is_punished());
    }

    #[test]
    fn negative_debits_are_ignored() {
        let mut quota = PollutionQuota::new(LlcCap::new(100.0), 30.0);
        let before = quota.quota();
        quota.debit(-500.0);
        assert_eq!(quota.quota(), before);
    }

    #[test]
    fn totals_accumulate() {
        let mut quota = PollutionQuota::new(LlcCap::new(100.0), 30.0);
        quota.debit(100.0);
        quota.debit(200.0);
        quota.earn(30.0);
        assert_eq!(quota.total_debited(), 300.0);
        assert!(quota.total_earned() > 0.0);
    }

    #[test]
    fn punishment_cycle_can_repeat() {
        let mut quota = PollutionQuota::new(LlcCap::new(100.0), 30.0);
        quota.debit(10_000.0);
        for _ in 0..10 {
            quota.earn(30.0);
        }
        assert!(!quota.is_punished());
        quota.debit(10_000.0);
        assert!(quota.is_punished());
        assert_eq!(quota.punishments(), 2);
    }
}
