//! Per-FRU trust levels (Fig. 9).
//!
//! "The diagnostic DAS outputs a *trust level* for each component, that
//! acts as the basis for the decision of the maintenance engineer" (§II-D).
//! A trust level lives in `[0, 1]`: 1 = full confidence the FRU conforms to
//! its specification.
//!
//! Dynamics follow the assessment-trajectory picture of Fig. 9:
//!
//! * pattern matches *decay* trust, weighted by confidence and by how
//!   actionable the indicated class is — external-fault evidence barely
//!   moves it (nothing is wrong with the FRU), internal evidence cuts deep;
//! * every quiet round *recovers* trust exponentially toward 1, so
//!   trajectory B (a healthy FRU exposed to environmental transients)
//!   returns to high trust while trajectory A (a degrading FRU) ratchets
//!   down.
//!
//! Both dynamics presume the symptom stream is *flowing*. When the
//! diagnostic path itself degrades, a quiet round stops meaning "the FRU is
//! healthy" and starts meaning "we are blind" — so updates are weighted by
//! the round's delivery quality, and below a hysteresis threshold
//! ([`TrustParams::freeze_quality`]) trust freezes entirely: no evidence is
//! not evidence of health.

use crate::patterns::PatternMatch;
use decos_faults::{FaultClass, FruRef};
use decos_platform::{JobId, NodeId};
use serde::{Deserialize, Serialize};

/// Trust dynamics parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrustParams {
    /// Base decay factor per unit of match confidence.
    pub decay_weight: f64,
    /// Recovery rate toward 1 per quiet round.
    pub recovery_per_round: f64,
    /// Delivery-quality hysteresis threshold: below this, the round's
    /// evidence is too starved to act on and trust levels freeze.
    pub freeze_quality: f64,
}

impl Default for TrustParams {
    fn default() -> Self {
        TrustParams { decay_weight: 0.05, recovery_per_round: 0.001, freeze_quality: 0.2 }
    }
}

/// How strongly evidence of each class should erode trust in the FRU.
///
/// Public so the static analyzer can reason about the trust transition
/// relation (totality, decay-vs-recovery balance) with the exact weights
/// the assessor applies at runtime.
pub fn class_severity(class: FaultClass) -> f64 {
    match class {
        // Nothing wrong with the FRU itself.
        FaultClass::ComponentExternal => 0.05,
        FaultClass::ComponentBorderline => 0.7,
        FaultClass::ComponentInternal => 1.0,
        FaultClass::JobBorderline => 0.6,
        FaultClass::JobInherentSoftware => 0.8,
        FaultClass::JobInherentTransducer => 0.8,
    }
}

/// The per-FRU trust assessor.
///
/// Trust is stored struct-of-arrays: component trust lives in a flat
/// vector indexed by [`NodeId`] (with a parallel touched-flag column) and
/// job trust in a [`JobId`]-sorted vector, so the per-round recovery
/// sweep walks contiguous memory instead of chasing tree nodes. Iteration
/// order of [`tracked`](FruAssessor::tracked) — components ascending,
/// then jobs ascending — matches [`FruRef`]'s derived `Ord`, i.e. the
/// order the former `BTreeMap<FruRef, f64>` storage produced.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FruAssessor {
    params: TrustParams,
    /// Component trust by node index; meaningful only where the matching
    /// `comp_tracked` flag is set.
    comp_trust: Vec<f64>,
    /// Which component slots have ever been touched by evidence.
    comp_tracked: Vec<bool>,
    /// Job trust, sorted by job id.
    job_trust: Vec<(JobId, f64)>,
    /// Rounds skipped because delivery quality was below the freeze
    /// threshold.
    frozen_rounds: u64,
}

impl FruAssessor {
    /// Creates an assessor; unknown FRUs implicitly start at trust 1.
    pub fn new(params: TrustParams) -> Self {
        FruAssessor {
            params,
            comp_trust: Vec::new(),
            comp_tracked: Vec::new(),
            job_trust: Vec::new(),
            frozen_rounds: 0,
        }
    }

    fn slot(&mut self, fru: FruRef) -> &mut f64 {
        match fru {
            FruRef::Component(n) => {
                let i = n.0 as usize;
                if i >= self.comp_trust.len() {
                    self.comp_trust.resize(i + 1, 1.0);
                    self.comp_tracked.resize(i + 1, false);
                }
                if !self.comp_tracked[i] {
                    self.comp_tracked[i] = true;
                    self.comp_trust[i] = 1.0;
                }
                &mut self.comp_trust[i]
            }
            FruRef::Job(j) => {
                let i = match self.job_trust.binary_search_by_key(&j, |e| e.0) {
                    Ok(i) => i,
                    Err(i) => {
                        self.job_trust.insert(i, (j, 1.0));
                        i
                    }
                };
                &mut self.job_trust[i].1
            }
        }
    }

    /// The current trust level of a FRU.
    pub fn trust(&self, fru: FruRef) -> f64 {
        match fru {
            FruRef::Component(n) => {
                let i = n.0 as usize;
                if i < self.comp_trust.len() && self.comp_tracked[i] {
                    self.comp_trust[i]
                } else {
                    1.0
                }
            }
            FruRef::Job(j) => self
                .job_trust
                .binary_search_by_key(&j, |e| e.0)
                .map(|i| self.job_trust[i].1)
                .unwrap_or(1.0),
        }
    }

    /// All FRUs whose trust has ever been touched, in [`FruRef`] order.
    pub fn tracked(&self) -> impl Iterator<Item = (FruRef, f64)> + '_ {
        let comps = self
            .comp_trust
            .iter()
            .zip(self.comp_tracked.iter())
            .enumerate()
            .filter(|(_, (_, &tracked))| tracked)
            .map(|(i, (t, _))| (FruRef::Component(NodeId(i as u16)), *t));
        let jobs = self.job_trust.iter().map(|&(j, t)| (FruRef::Job(j), t));
        comps.chain(jobs)
    }

    /// Applies one round of pattern matches, then lets every tracked FRU
    /// recover slightly. Assumes a healthy diagnostic path (delivery
    /// quality 1); campaign drivers use
    /// [`update_round_weighted`](FruAssessor::update_round_weighted).
    pub fn update_round(&mut self, matches: &[PatternMatch]) {
        self.update_round_weighted(matches, 1.0);
    }

    /// Applies one round of pattern matches under a given delivery
    /// quality.
    ///
    /// Below [`TrustParams::freeze_quality`] the round is discarded whole
    /// — with a starved symptom stream, neither the matches (built on
    /// fragmentary evidence) nor the quiet (blindness, not health) are
    /// actionable. Above the threshold, decay applies as usual (the
    /// engine already scales match confidence by quality) and recovery is
    /// scaled by quality: partial evidence earns partial recovery.
    pub fn update_round_weighted(&mut self, matches: &[PatternMatch], quality: f64) {
        let q = quality.clamp(0.0, 1.0);
        if q < self.params.freeze_quality {
            self.frozen_rounds += 1;
            return;
        }
        for m in matches {
            let hit = self.params.decay_weight * m.confidence * class_severity(m.class);
            let factor = 1.0 - hit.clamp(0.0, 1.0);
            *self.slot(m.fru) *= factor;
        }
        let rate = self.params.recovery_per_round * q;
        for (t, &tracked) in self.comp_trust.iter_mut().zip(self.comp_tracked.iter()) {
            if tracked {
                *t += rate * (1.0 - *t);
                *t = t.clamp(0.0, 1.0);
            }
        }
        for (_, t) in &mut self.job_trust {
            *t += rate * (1.0 - *t);
            *t = t.clamp(0.0, 1.0);
        }
    }

    /// Rounds discarded by the delivery-quality freeze.
    pub fn frozen_rounds(&self) -> u64 {
        self.frozen_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_platform::NodeId;
    use decos_sim::SimTime;

    fn m(class: FaultClass, confidence: f64) -> PatternMatch {
        PatternMatch {
            at: SimTime::ZERO,
            fru: FruRef::Component(NodeId(1)),
            class,
            pattern: crate::model::Pattern::Wearout,
            confidence,
        }
    }

    #[test]
    fn unknown_fru_is_fully_trusted() {
        let a = FruAssessor::new(TrustParams::default());
        assert_eq!(a.trust(FruRef::Component(NodeId(9))), 1.0);
    }

    #[test]
    fn internal_evidence_ratchets_trust_down() {
        let mut a = FruAssessor::new(TrustParams::default());
        for _ in 0..200 {
            a.update_round(&[m(FaultClass::ComponentInternal, 0.9)]);
        }
        assert!(a.trust(FruRef::Component(NodeId(1))) < 0.05);
    }

    #[test]
    fn external_evidence_recovers_fig9_trajectory_b() {
        let mut a = FruAssessor::new(TrustParams::default());
        // A burst of external-fault evidence…
        for _ in 0..50 {
            a.update_round(&[m(FaultClass::ComponentExternal, 0.9)]);
        }
        let after_burst = a.trust(FruRef::Component(NodeId(1)));
        assert!(after_burst > 0.8, "external evidence barely moves trust: {after_burst}");
        // …followed by quiet rounds: trust recovers toward 1.
        for _ in 0..2000 {
            a.update_round(&[]);
        }
        let recovered = a.trust(FruRef::Component(NodeId(1)));
        assert!(recovered > 0.95, "trajectory B must recover: {recovered}");
    }

    #[test]
    fn internal_beats_recovery_fig9_trajectory_a() {
        let mut a = FruAssessor::new(TrustParams::default());
        // Sparse but recurring internal evidence: one match every 20 rounds.
        for i in 0..4000 {
            if i % 20 == 0 {
                a.update_round(&[m(FaultClass::ComponentInternal, 0.8)]);
            } else {
                a.update_round(&[]);
            }
        }
        assert!(
            a.trust(FruRef::Component(NodeId(1))) < 0.5,
            "trajectory A must keep degrading: {}",
            a.trust(FruRef::Component(NodeId(1)))
        );
    }

    #[test]
    fn starved_network_freezes_trust_instead_of_recovering_it() {
        let mut a = FruAssessor::new(TrustParams::default());
        // Establish degraded trust with good evidence flow.
        for _ in 0..100 {
            a.update_round(&[m(FaultClass::ComponentInternal, 0.9)]);
        }
        let degraded = a.trust(FruRef::Component(NodeId(1)));
        assert!(degraded < 0.5);
        // Then the diagnostic path starves: 2000 rounds of near-zero
        // quality must not read as 2000 quiet (healthy) rounds.
        for _ in 0..2000 {
            a.update_round_weighted(&[], 0.0);
        }
        assert_eq!(a.trust(FruRef::Component(NodeId(1))), degraded, "trust must freeze");
        assert_eq!(a.frozen_rounds(), 2000);
        // With the path restored, recovery resumes.
        for _ in 0..2000 {
            a.update_round_weighted(&[], 1.0);
        }
        assert!(a.trust(FruRef::Component(NodeId(1))) > degraded);
    }

    #[test]
    fn partial_quality_slows_recovery() {
        let run = |q: f64| {
            let mut a = FruAssessor::new(TrustParams::default());
            for _ in 0..50 {
                a.update_round(&[m(FaultClass::ComponentInternal, 0.9)]);
            }
            for _ in 0..1000 {
                a.update_round_weighted(&[], q);
            }
            a.trust(FruRef::Component(NodeId(1)))
        };
        assert!(run(0.5) < run(1.0), "half-quality evidence must earn less recovery");
    }

    #[test]
    fn tracked_lists_touched_frus() {
        let mut a = FruAssessor::new(TrustParams::default());
        a.update_round(&[m(FaultClass::ComponentInternal, 0.5)]);
        let tracked: Vec<(FruRef, f64)> = a.tracked().collect();
        assert_eq!(tracked.len(), 1);
        assert_eq!(tracked[0].0, FruRef::Component(NodeId(1)));
        assert!(tracked[0].1 < 1.0);
    }
}
