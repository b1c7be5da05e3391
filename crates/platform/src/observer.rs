//! Slot observers — the uniform consumer interface of the slot pipeline.
//!
//! Every diagnostic subsystem in the DECOS reproduction consumes the same
//! raw material: the per-slot interface-state records ([`SlotRecord`]) the
//! cluster simulation emits. [`SlotObserver`] makes that contract a
//! first-class trait, so campaign drivers push each record through an
//! arbitrary set of observers — the integrated diagnostic engine, the
//! federated OBD baseline, metrics recorders, ad-hoc probes — instead of
//! hard-wiring a fixed chain of calls.
//!
//! The trait is deliberately pull-free: observers receive a shared
//! reference to the simulation (for schedule, LIF and component lookups)
//! and to the record; they must not assume exclusive access to either, and
//! records may be *reused buffers* — an observer that wants to keep data
//! beyond the callback must copy it out.

use crate::cluster::{ClusterSim, SlotRecord};

/// A consumer of the slot-stepped simulation's interface-state records.
pub trait SlotObserver {
    /// Called once per TDMA slot, after the simulation has fully resolved
    /// the slot. `rec` may be a reused buffer: retain nothing that borrows
    /// from it.
    fn on_slot(&mut self, sim: &ClusterSim, rec: &SlotRecord);

    /// Called after the last slot of each TDMA round (following that
    /// slot's [`on_slot`](SlotObserver::on_slot)). Observers that work at
    /// round granularity hook in here; the default does nothing.
    fn on_round_end(&mut self, _sim: &ClusterSim, _rec: &SlotRecord) {}
}

/// A cheap counting observer summarizing the traffic and symptom surface
/// of a run — handy as a sanity probe next to the heavyweight diagnostic
/// observers, and as the reference implementation of the trait.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotMetrics {
    /// Slots observed.
    pub slots: u64,
    /// Completed TDMA rounds observed.
    pub rounds: u64,
    /// Slots in which the owner actually transmitted.
    pub transmissions: u64,
    /// Messages sent across all virtual networks.
    pub messages_sent: u64,
    /// Error observations (omission / invalid CRC / timing violation)
    /// summed over receivers.
    pub error_observations: u64,
    /// Synchronization losses recorded.
    pub sync_losses: u64,
    /// Membership changes (departures + rejoins) recorded.
    pub membership_changes: u64,
    /// Component restarts completed.
    pub restarts: u64,
    /// Queue-overflow delta entries recorded.
    pub overflow_deltas: u64,
}

impl SlotMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SlotObserver for SlotMetrics {
    fn on_slot(&mut self, _sim: &ClusterSim, rec: &SlotRecord) {
        self.slots += 1;
        self.transmissions += u64::from(rec.transmitted);
        self.messages_sent += rec.sent.iter().map(|(_, m)| m.len() as u64).sum::<u64>();
        self.error_observations += rec.observations.iter().filter(|o| o.is_error()).count() as u64;
        self.sync_losses += rec.sync_losses.len() as u64;
        self.membership_changes += rec.membership_changes.len() as u64;
        self.restarts += rec.restarts_completed.len() as u64;
        self.overflow_deltas += rec.overflow_deltas.len() as u64;
    }

    fn on_round_end(&mut self, _sim: &ClusterSim, _rec: &SlotRecord) {
        self.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::NullEnvironment;
    use crate::fig10;

    #[test]
    fn metrics_count_a_clean_run() {
        let mut sim = ClusterSim::new(fig10::reference_spec(), 7).unwrap();
        let mut env = NullEnvironment;
        let mut metrics = SlotMetrics::new();
        let spr = sim.schedule().slots_per_round();
        for _ in 0..10 {
            for s in 0..spr {
                let rec = sim.step_slot(&mut env);
                metrics.on_slot(&sim, &rec);
                if s == spr - 1 {
                    metrics.on_round_end(&sim, &rec);
                }
            }
        }
        assert_eq!(metrics.slots, 10 * spr as u64);
        assert_eq!(metrics.rounds, 10);
        assert!(metrics.transmissions > 0);
        assert!(metrics.messages_sent > 0);
        assert_eq!(metrics.error_observations, 0, "clean run has no error observations");
        assert_eq!(metrics.sync_losses + metrics.membership_changes + metrics.restarts, 0);
    }
}
