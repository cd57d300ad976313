//! Fleet dynamics: deterministic churn and maintenance event streams.
//!
//! A static fleet is a laboratory convenience; the operational reality the
//! paper's cloud setting implies is *churn* — VMs arrive and depart
//! continuously, machines drain for maintenance and rejoin later. This
//! module models that as an [`EventSchedule`]: a seeded arrival/departure
//! stream plus scripted [`FleetEvent::CellDrain`]/[`FleetEvent::CellJoin`]
//! maintenance events, all applied at epoch boundaries by
//! [`Cluster::run_epoch_with_events`](crate::cluster::Cluster::run_epoch_with_events).
//!
//! # Determinism
//!
//! The schedule is **stateless**: the events of epoch `e` are a pure
//! function of `(seed, e)` — each epoch derives its own RNG via SplitMix64
//! mixing, so no draw depends on how many draws earlier epochs made. A
//! departure event does not name a VM (the schedule cannot know the
//! population); it carries a raw `pick` that the cluster folds onto the
//! live population (`pick % population`, fleet-id order). Event application
//! is therefore a pure function of (cluster state, event list), which is
//! what lets the churn property tests demand bit-identical serial and
//! cell-parallel runs.

use crate::snapshot::CellId;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// One fleet-dynamics event, applied at an epoch boundary before the epoch
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// A new VM arrives. The cluster admits it onto the open (non-draining)
    /// cell with the most free cores; when every cell is draining or full,
    /// the arrival is rejected and counted.
    VmArrival,
    /// A VM departs. `pick` selects the victim among the currently resident
    /// VMs (`pick % population`, fleet-id order); the event is a no-op on an
    /// empty fleet.
    VmDeparture {
        /// Raw selector folded onto the live population at apply time.
        pick: u64,
    },
    /// The cell stops accepting placements and is evacuated by the planner
    /// (maintenance begins).
    CellDrain(CellId),
    /// The cell becomes a placement target again (maintenance over).
    CellJoin(CellId),
}

/// Configuration of an [`EventSchedule`]: seeded churn rates plus scripted
/// maintenance events.
#[derive(Debug, Clone, PartialEq)]
pub struct EventScheduleConfig {
    /// Seed of the arrival/departure streams.
    pub seed: u64,
    /// Expected VM arrivals per epoch (fractional rates are realised
    /// probabilistically but deterministically per epoch).
    pub arrival_rate: f64,
    /// Expected VM departures per epoch.
    pub departure_rate: f64,
    /// Scripted `(epoch, event)` maintenance entries, applied in list order
    /// at their epoch's boundary (before any churn event of that epoch).
    pub maintenance: Vec<(u64, FleetEvent)>,
}

impl EventScheduleConfig {
    /// A schedule with the given seed and no churn or maintenance.
    pub fn new(seed: u64) -> Self {
        EventScheduleConfig {
            seed,
            arrival_rate: 0.0,
            departure_rate: 0.0,
            maintenance: Vec::new(),
        }
    }

    /// Sets the expected arrivals per epoch.
    pub fn with_arrival_rate(mut self, rate: f64) -> Self {
        self.arrival_rate = rate.max(0.0);
        self
    }

    /// Sets the expected departures per epoch.
    pub fn with_departure_rate(mut self, rate: f64) -> Self {
        self.departure_rate = rate.max(0.0);
        self
    }

    /// Scripts a cell drain at the given epoch boundary.
    pub fn with_drain(mut self, epoch: u64, cell: CellId) -> Self {
        self.maintenance.push((epoch, FleetEvent::CellDrain(cell)));
        self
    }

    /// Scripts a cell rejoin at the given epoch boundary.
    pub fn with_join(mut self, epoch: u64, cell: CellId) -> Self {
        self.maintenance.push((epoch, FleetEvent::CellJoin(cell)));
        self
    }
}

/// A deterministic stream of fleet events, indexed by epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSchedule {
    config: EventScheduleConfig,
}

impl EventSchedule {
    /// Creates a schedule.
    pub fn new(config: EventScheduleConfig) -> Self {
        EventSchedule { config }
    }

    /// The schedule configuration.
    pub fn config(&self) -> &EventScheduleConfig {
        &self.config
    }

    /// The events of epoch `epoch`, in application order: scripted
    /// maintenance first, then departures, then arrivals (so an arrival in
    /// the same epoch as a drain is never admitted onto the draining cell).
    /// Pure: two calls with the same epoch return the same list.
    pub fn events_for_epoch(&self, epoch: u64) -> Vec<FleetEvent> {
        let mut events: Vec<FleetEvent> = self
            .config
            .maintenance
            .iter()
            .filter(|(e, _)| *e == epoch)
            .map(|(_, event)| *event)
            .collect();
        // Per-epoch RNG: golden-ratio mixing keeps the stream of epoch `e`
        // independent of how many draws other epochs made.
        let mut rng =
            SmallRng::seed_from_u64(self.config.seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let departures = draw_count(&mut rng, self.config.departure_rate);
        for _ in 0..departures {
            let pick = rng.next_u64();
            events.push(FleetEvent::VmDeparture { pick });
        }
        let arrivals = draw_count(&mut rng, self.config.arrival_rate);
        for _ in 0..arrivals {
            events.push(FleetEvent::VmArrival);
        }
        events
    }
}

/// Realises a fractional per-epoch rate as an integer count: the integer
/// part always happens, the fractional part happens with its probability.
/// Shared with the fault schedule in [`crate::faults`] and the
/// `kyoto-service` request-trace generators.
pub fn draw_count(rng: &mut SmallRng, rate: f64) -> u64 {
    let base = rate.floor();
    let frac = rate - base;
    let extra = frac > 0.0 && rng.gen_bool(frac);
    base as u64 + u64::from(extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_per_epoch() {
        let schedule = EventSchedule::new(
            EventScheduleConfig::new(7)
                .with_arrival_rate(1.5)
                .with_departure_rate(0.5)
                .with_drain(2, CellId(1))
                .with_join(4, CellId(1)),
        );
        for epoch in 0..8 {
            assert_eq!(
                schedule.events_for_epoch(epoch),
                schedule.events_for_epoch(epoch),
                "epoch {epoch} stream must be pure"
            );
        }
    }

    #[test]
    fn epochs_are_independent_of_query_order() {
        let schedule = EventSchedule::new(
            EventScheduleConfig::new(99)
                .with_arrival_rate(0.75)
                .with_departure_rate(1.25),
        );
        let forward: Vec<_> = (0..6).map(|e| schedule.events_for_epoch(e)).collect();
        let backward: Vec<_> = (0..6).rev().map(|e| schedule.events_for_epoch(e)).collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn maintenance_fires_at_its_epoch_and_leads_the_list() {
        let schedule = EventSchedule::new(
            EventScheduleConfig::new(3)
                .with_arrival_rate(2.0)
                .with_drain(1, CellId(0)),
        );
        assert!(!schedule
            .events_for_epoch(0)
            .contains(&FleetEvent::CellDrain(CellId(0))));
        let epoch1 = schedule.events_for_epoch(1);
        assert_eq!(epoch1[0], FleetEvent::CellDrain(CellId(0)));
    }

    #[test]
    fn integer_rates_are_exact() {
        let schedule = EventSchedule::new(EventScheduleConfig::new(11).with_arrival_rate(3.0));
        for epoch in 0..10 {
            let arrivals = schedule
                .events_for_epoch(epoch)
                .iter()
                .filter(|e| matches!(e, FleetEvent::VmArrival))
                .count();
            assert_eq!(arrivals, 3);
        }
    }

    #[test]
    fn fractional_rates_average_out() {
        let schedule = EventSchedule::new(
            EventScheduleConfig::new(5)
                .with_arrival_rate(0.5)
                .with_departure_rate(0.25),
        );
        let mut arrivals = 0usize;
        let mut departures = 0usize;
        for epoch in 0..400 {
            for event in schedule.events_for_epoch(epoch) {
                match event {
                    FleetEvent::VmArrival => arrivals += 1,
                    FleetEvent::VmDeparture { .. } => departures += 1,
                    _ => {}
                }
            }
        }
        assert!((120..=280).contains(&arrivals), "{arrivals} arrivals");
        assert!((40..=160).contains(&departures), "{departures} departures");
    }
}
