//! Verdict aggregation and the maintenance advisor (§V-C, Fig. 11).
//!
//! Pattern matches accumulate per FRU; the advisor's report gives, per FRU,
//! the dominant fault class, the accumulated evidence, the trust level and
//! the prescribed maintenance action. A replacement-class action is only
//! recommended once evidence clears a threshold — recommending removals on
//! thin evidence is precisely the no-fault-found behaviour the architecture
//! exists to avoid.

use crate::model::Pattern;
use crate::patterns::PatternMatch;
use crate::trust::FruAssessor;
use decos_faults::{FaultClass, FruRef, MaintenanceAction};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Advisor thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdvisorParams {
    /// Minimum accumulated confidence of the dominant class before an
    /// action is recommended at all.
    pub min_evidence: f64,
    /// The dominant class must hold at least this share of the total
    /// evidence for the FRU (ambiguous FRUs stay under observation).
    pub min_share: f64,
}

impl Default for AdvisorParams {
    fn default() -> Self {
        AdvisorParams { min_evidence: 3.0, min_share: 0.5 }
    }
}

/// Verdict for one FRU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FruVerdict {
    /// The assessed FRU.
    pub fru: FruRef,
    /// Dominant fault class (None = evidence too thin / ambiguous).
    pub class: Option<FaultClass>,
    /// Accumulated confidence of the dominant class.
    pub evidence: f64,
    /// Share of the dominant class in the FRU's total evidence.
    pub share: f64,
    /// Trust level at report time.
    pub trust: f64,
    /// Recommended maintenance action (None = keep under observation).
    pub action: Option<MaintenanceAction>,
    /// Per-pattern match counts by pattern name (explainability for the
    /// technician).
    pub patterns: BTreeMap<String, u64>,
}

/// The campaign-level diagnostic report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosticReport {
    /// Per-FRU verdicts, worst trust first.
    pub verdicts: Vec<FruVerdict>,
    /// Total pattern matches ingested.
    pub total_matches: u64,
    /// Mean delivery quality of the diagnostic path over the campaign
    /// (1 = every offered symptom survived transit).
    pub delivery_quality: f64,
    /// True when the diagnostic path itself was faulty enough that the
    /// verdicts rest on a starved or distorted symptom stream.
    pub degraded: bool,
    /// Cold-standby failovers of the diagnostic component.
    pub failovers: u32,
    /// Rounds lost to a crashed diagnostic component.
    pub crashed_rounds: u64,
}

impl DiagnosticReport {
    /// The verdict for one FRU, if it accumulated any evidence.
    pub fn verdict_of(&self, fru: FruRef) -> Option<&FruVerdict> {
        self.verdicts.iter().find(|v| v.fru == fru)
    }

    /// All recommended actions as (FRU, action) pairs.
    pub fn actions(&self) -> Vec<(FruRef, MaintenanceAction)> {
        self.verdicts.iter().filter_map(|v| v.action.map(|a| (v.fru, a))).collect()
    }
}

/// Accumulates pattern matches into per-FRU evidence.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceAdvisor {
    params: AdvisorParams,
    evidence: BTreeMap<FruRef, BTreeMap<FaultClass, f64>>,
    patterns: BTreeMap<FruRef, BTreeMap<Pattern, u64>>,
    /// Host component of each job (root-cause consolidation).
    job_hosts: BTreeMap<decos_platform::JobId, decos_platform::NodeId>,
    total: u64,
}

impl MaintenanceAdvisor {
    /// Creates an advisor.
    pub fn new(params: AdvisorParams) -> Self {
        MaintenanceAdvisor { params, ..Default::default() }
    }

    /// Creates an advisor that knows which component hosts each job, so a
    /// decided component-internal verdict consolidates the actions of its
    /// hosted jobs (replacing the ECU subsumes job-level measures that were
    /// only ever shadows of the hardware fault).
    pub fn with_hosts(
        params: AdvisorParams,
        job_hosts: BTreeMap<decos_platform::JobId, decos_platform::NodeId>,
    ) -> Self {
        MaintenanceAdvisor { params, job_hosts, ..Default::default() }
    }

    /// Ingests one round of pattern matches.
    pub fn ingest(&mut self, matches: &[PatternMatch]) {
        for m in matches {
            self.total += 1;
            *self.evidence.entry(m.fru).or_default().entry(m.class).or_insert(0.0) += m.confidence;
            *self.patterns.entry(m.fru).or_default().entry(m.pattern).or_insert(0) += 1;
        }
    }

    /// The decided dominant class of one FRU right now, applying the same
    /// thresholds as [`report`](Self::report) — `None` while the evidence
    /// is too thin or too ambiguous. This is the conviction edge the
    /// flight recorder watches: the round this first turns `Some` is the
    /// FRU's stable-conviction round.
    pub fn decided_class(&self, fru: FruRef) -> Option<FaultClass> {
        let classes = self.evidence.get(&fru)?;
        let (best_class, best_score, total) = Self::dominant(classes)?;
        let share = if total > 0.0 { best_score / total } else { 0.0 };
        (best_score >= self.params.min_evidence && share >= self.params.min_share)
            .then_some(best_class)
    }

    fn dominant(classes: &BTreeMap<FaultClass, f64>) -> Option<(FaultClass, f64, f64)> {
        let total: f64 = classes.values().sum();
        classes
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(c, s)| (*c, *s, total))
    }

    /// Builds the report against the current trust levels.
    pub fn report(&self, trust: &FruAssessor) -> DiagnosticReport {
        let mut verdicts: Vec<FruVerdict> = self
            .evidence
            .iter()
            .map(|(fru, classes)| {
                let (best_class, best_score, total) =
                    Self::dominant(classes).expect("non-empty by construction");
                let share = if total > 0.0 { best_score / total } else { 0.0 };
                let decided =
                    best_score >= self.params.min_evidence && share >= self.params.min_share;
                let class = decided.then_some(best_class);
                let action = class.map(|c| c.prescribed_action());
                FruVerdict {
                    fru: *fru,
                    class,
                    evidence: best_score,
                    share,
                    trust: trust.trust(*fru),
                    action,
                    patterns: self.patterns[fru]
                        .iter()
                        .map(|(p, &n)| (p.name().to_string(), n))
                        .collect(),
                }
            })
            .collect();
        // Root-cause consolidation: when a component is decided internal
        // (replacement), its hosted jobs' actions are withdrawn — their
        // symptoms were manifestations of the shared hardware.
        let internal_comps: Vec<decos_platform::NodeId> = verdicts
            .iter()
            .filter_map(|v| match (v.fru, v.class) {
                (FruRef::Component(n), Some(FaultClass::ComponentInternal)) => Some(n),
                _ => None,
            })
            .collect();
        if !internal_comps.is_empty() {
            for v in verdicts.iter_mut() {
                if let FruRef::Job(j) = v.fru {
                    if let Some(host) = self.job_hosts.get(&j) {
                        if internal_comps.contains(host) {
                            v.action = None;
                        }
                    }
                }
            }
        }
        verdicts.sort_by(|a, b| a.trust.partial_cmp(&b.trust).expect("finite"));
        // Path-health fields default to "healthy"; the engine overwrites
        // them from its delivery-quality bookkeeping.
        DiagnosticReport {
            verdicts,
            total_matches: self.total,
            delivery_quality: 1.0,
            degraded: false,
            failovers: 0,
            crashed_rounds: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trust::TrustParams;
    use decos_platform::{JobId, NodeId};
    use decos_sim::SimTime;

    fn m(fru: FruRef, class: FaultClass, confidence: f64, pattern: Pattern) -> PatternMatch {
        PatternMatch { at: SimTime::ZERO, fru, class, pattern, confidence }
    }

    #[test]
    fn empty_advisor_reports_nothing() {
        let adv = MaintenanceAdvisor::new(AdvisorParams::default());
        let rep = adv.report(&FruAssessor::new(TrustParams::default()));
        assert!(rep.verdicts.is_empty());
        assert_eq!(rep.total_matches, 0);
        assert!(rep.actions().is_empty());
    }

    #[test]
    fn dominant_class_wins_and_maps_to_action() {
        let mut adv = MaintenanceAdvisor::new(AdvisorParams::default());
        let fru = FruRef::Component(NodeId(1));
        for _ in 0..10 {
            adv.ingest(&[m(fru, FaultClass::ComponentInternal, 0.8, Pattern::Wearout)]);
        }
        adv.ingest(&[m(fru, FaultClass::ComponentExternal, 0.4, Pattern::IsolatedTransient)]);
        let rep = adv.report(&FruAssessor::new(TrustParams::default()));
        let v = rep.verdict_of(fru).unwrap();
        assert_eq!(v.class, Some(FaultClass::ComponentInternal));
        assert_eq!(v.action, Some(MaintenanceAction::ReplaceComponent));
        assert_eq!(v.patterns["wearout"], 10);
        assert!(v.share > 0.9);
    }

    #[test]
    fn thin_evidence_gives_no_action() {
        let mut adv = MaintenanceAdvisor::new(AdvisorParams::default());
        let fru = FruRef::Job(JobId(3));
        adv.ingest(&[m(fru, FaultClass::JobInherentSoftware, 0.5, Pattern::SoftwareDesign)]);
        let rep = adv.report(&FruAssessor::new(TrustParams::default()));
        let v = rep.verdict_of(fru).unwrap();
        assert_eq!(v.class, None);
        assert_eq!(v.action, None);
    }

    #[test]
    fn ambiguous_evidence_gives_no_action() {
        let mut adv = MaintenanceAdvisor::new(AdvisorParams { min_evidence: 1.0, min_share: 0.6 });
        let fru = FruRef::Component(NodeId(2));
        for _ in 0..5 {
            adv.ingest(&[
                m(fru, FaultClass::ComponentInternal, 0.5, Pattern::RecurringInternal),
                m(fru, FaultClass::ComponentBorderline, 0.5, Pattern::Connector),
            ]);
        }
        let rep = adv.report(&FruAssessor::new(TrustParams::default()));
        let v = rep.verdict_of(fru).unwrap();
        assert_eq!(v.class, None, "50/50 split must stay undecided");
    }

    #[test]
    fn decided_class_matches_report_thresholds() {
        let mut adv = MaintenanceAdvisor::new(AdvisorParams::default());
        let fru = FruRef::Component(NodeId(1));
        assert_eq!(adv.decided_class(fru), None, "no evidence at all");
        adv.ingest(&[m(fru, FaultClass::ComponentInternal, 0.8, Pattern::Wearout)]);
        assert_eq!(adv.decided_class(fru), None, "below min_evidence");
        for _ in 0..9 {
            adv.ingest(&[m(fru, FaultClass::ComponentInternal, 0.8, Pattern::Wearout)]);
        }
        assert_eq!(adv.decided_class(fru), Some(FaultClass::ComponentInternal));
        let rep = adv.report(&FruAssessor::new(TrustParams::default()));
        assert_eq!(rep.verdict_of(fru).unwrap().class, adv.decided_class(fru));
    }

    #[test]
    fn report_sorted_by_trust() {
        let mut adv = MaintenanceAdvisor::new(AdvisorParams::default());
        let bad = FruRef::Component(NodeId(1));
        let ok = FruRef::Component(NodeId(2));
        for _ in 0..10 {
            adv.ingest(&[m(bad, FaultClass::ComponentInternal, 0.9, Pattern::Wearout)]);
        }
        adv.ingest(&[m(ok, FaultClass::ComponentExternal, 0.3, Pattern::IsolatedTransient)]);
        let mut trust = FruAssessor::new(TrustParams::default());
        for _ in 0..100 {
            trust.update_round(&[m(bad, FaultClass::ComponentInternal, 0.9, Pattern::Wearout)]);
        }
        let rep = adv.report(&trust);
        assert_eq!(rep.verdicts[0].fru, bad, "worst trust first");
    }
}
