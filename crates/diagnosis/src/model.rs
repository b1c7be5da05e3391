//! The ONA pattern model: the one catalog of the Fig. 8 fault patterns.
//!
//! The [`OnaBank`](crate::patterns::OnaBank) matches symptom streams at
//! runtime; the analyzer's coverage check (DA020/DA021) and its static
//! n-diagnosability check (DA080–DA082) need the facts *behind* those
//! matchers — which class a pattern indicates, where its evidence is
//! observed, what confidence a firing carries, how early it can fire and
//! whether it can fire at all — without running a simulation. [`Pattern`]
//! and its table are the single home of those facts: the matchers emit
//! `Pattern` values with the class and top confidence read from the table,
//! and both analyzer passes read [`earliest_fire_round`] and
//! [`unavailability`]. Pattern names are rendered from the table
//! ([`Pattern::name`]) only where a report or a trace shows them.
//!
//! The model is deliberately **optimistic** (a best-case envelope of the
//! runtime): it assumes every manifestation is observed at the earliest
//! possible round and scores with the highest confidence the matcher can
//! emit. Consequences for the analyzer's verdicts:
//!
//! * "pattern unreachable" / "conviction impossible within n rounds" are
//!   *sound* — if the optimistic envelope cannot reach it, the simulator
//!   cannot either. `crates/decos/tests/diagnosability.rs` checks that no
//!   pattern fires in a simulation before its [`earliest_fire_round`];
//! * "reachable"/"diagnosable" are optimistic claims, validated
//!   empirically by the paired-simulation soundness suite in the same
//!   file.

use decos_faults::{FaultClass, FaultKind};
use decos_reliability::AlphaParams;

use crate::patterns::OnaParams;

/// Where a pattern's evidence is observed, which determines the detector
/// placement precondition the analyzer must check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymptomDomain {
    /// Frame-level communication errors on the TDMA channel: observable
    /// only if the subject component owns a transmission slot and at
    /// least one peer exists to observe it.
    Comm,
    /// Clock-synchronization violations: observable via the membership /
    /// resync protocol, again requiring the subject to transmit.
    Sync,
    /// Queue overflows at a vnet port: detected *locally* at the
    /// affected job's host; no transmission slot of its own required.
    Queue,
    /// Message-value / timing violations of a job's outputs: observable
    /// where the outputs are published, i.e. the hosting component must
    /// own a slot.
    JobValue,
}

/// A fault pattern of the ONA bank, in Fig. 8 order.
///
/// §V-A defines an ONA as a predicate over the distributed state in the
/// time, value and space domains; each variant names the dimensions its
/// predicate quantifies over. The derived order is Fig. 8 order; where a
/// report's order is observable, callers sort by [`Pattern::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pattern {
    /// Time, value, space: corruption-dominant errors at ≥ 2 spatially
    /// close components within the correlation window.
    MassiveTransient,
    /// Time: an error burst about one subject whose α-count has not
    /// declared.
    IsolatedTransient,
    /// Time, space: omissions in both directions at one stub.
    Connector,
    /// Time, space: receive-side-only omissions at one stub, the weaker
    /// backing evidence of [`Pattern::Connector`].
    ConnectorRx,
    /// Time, space: errors about one subject recurring until its α-count
    /// declares.
    RecurringInternal,
    /// Time, value: errors about one subject at a rising rate.
    Wearout,
    /// Time: repeated clock-synchronization losses of one component.
    Oscillator,
    /// Space, value: value symptoms of jobs of ≥ 2 DASs on one host.
    CohostCorrelation,
    /// Value: recurring queue overflows while the senders conform.
    Configuration,
    /// Value, time: intermittent value wrongness confined to one job.
    SoftwareDesign,
    /// Value: one job persistently repeating the identical reading.
    TransducerStuck,
    /// Value: one job's readings drifting away monotonically.
    TransducerDrift,
    /// Value: one job's outputs missing in almost every round.
    TransducerDead,
}

use FaultClass::{
    ComponentBorderline, ComponentExternal, ComponentInternal, JobBorderline, JobInherentSoftware,
    JobInherentTransducer,
};
use SymptomDomain::{Comm, JobValue, Queue, Sync};

/// The pattern table, one `(name, class, domain, top confidence)` row per
/// pattern, indexed by `Pattern as usize`.
const TABLE: [(&str, FaultClass, SymptomDomain, f64); Pattern::ALL.len()] = [
    ("massive-transient", ComponentExternal, Comm, 0.9),
    ("isolated-transient", ComponentExternal, Comm, 0.4),
    ("connector", ComponentBorderline, Comm, 0.9),
    ("connector-rx", ComponentBorderline, Comm, 0.45),
    ("recurring-internal", ComponentInternal, Comm, 0.8),
    ("wearout", ComponentInternal, Comm, 0.95),
    ("oscillator", ComponentInternal, Sync, 0.85),
    ("cohost-correlation", ComponentInternal, JobValue, 0.85),
    ("configuration", JobBorderline, Queue, 0.9),
    ("software-design", JobInherentSoftware, JobValue, 0.7),
    ("transducer-stuck", JobInherentTransducer, JobValue, 0.8),
    ("transducer-drift", JobInherentTransducer, JobValue, 0.8),
    ("transducer-dead", JobInherentTransducer, JobValue, 0.75),
];

impl Pattern {
    /// Every pattern, in Fig. 8 order.
    pub const ALL: [Pattern; 13] = [
        Pattern::MassiveTransient,
        Pattern::IsolatedTransient,
        Pattern::Connector,
        Pattern::ConnectorRx,
        Pattern::RecurringInternal,
        Pattern::Wearout,
        Pattern::Oscillator,
        Pattern::CohostCorrelation,
        Pattern::Configuration,
        Pattern::SoftwareDesign,
        Pattern::TransducerStuck,
        Pattern::TransducerDrift,
        Pattern::TransducerDead,
    ];

    /// Stable pattern name, as reports and traces render it.
    pub fn name(self) -> &'static str {
        TABLE[self as usize].0
    }

    /// The maintenance-oriented fault class the pattern indicates (Fig. 8).
    pub fn class(self) -> FaultClass {
        TABLE[self as usize].1
    }

    /// Evidence domain (detector-placement precondition).
    pub fn domain(self) -> SymptomDomain {
        TABLE[self as usize].2
    }

    /// Highest confidence the matcher ever attaches to a firing of this
    /// pattern (optimistic envelope).
    pub fn confidence(self) -> f64 {
        TABLE[self as usize].3
    }
}

impl core::fmt::Display for Pattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The rule `AlphaCount::new` asserts: a decay in `[0, 1)` and a
/// positive threshold.
fn alpha_accepted(a: &AlphaParams) -> bool {
    (0.0..1.0).contains(&a.decay) && a.threshold > 0.0
}

/// Why the ONA bank would panic on these parameters, or `None` if it
/// runs: the α-counts must accept their parameters, and the judgement
/// interval must be at least one round.
pub fn params_error(ona: &OnaParams) -> Option<String> {
    let a = &ona.alpha;
    if !alpha_accepted(a) {
        Some(format!(
            "alpha-count decay {} must lie in [0, 1) and threshold {} must be positive",
            a.decay, a.threshold
        ))
    } else if ona.judgement_rounds == 0 {
        Some("the judgement interval is 0 rounds".into())
    } else {
        None
    }
}

/// Judgement windows until an α-count declares, under the optimistic
/// assumption that *every* window fails (α grows by exactly 1 per
/// window, no decay is ever applied). `None` if the counter can never
/// declare: parameters the runtime rejects, or a non-finite threshold.
pub fn alpha_windows_to_declare(a: &AlphaParams) -> Option<u64> {
    if !(alpha_accepted(a) && a.threshold.is_finite()) {
        return None;
    }
    Some((a.threshold.ceil() as u64).max(1))
}

/// Earliest round (1-indexed) at which a pattern can possibly fire,
/// under the optimistic envelope (a manifestation in every round /
/// judgement window from round 1 on). `None` when the α-count behind
/// [`Pattern::RecurringInternal`] can never declare.
pub fn earliest_fire_round(pattern: Pattern, ona: &OnaParams) -> Option<u64> {
    let jr = ona.judgement_rounds as u64;
    match pattern {
        // Single-round comm/sync evidence, or correlated value violations
        // within the correlation window.
        Pattern::MassiveTransient
        | Pattern::IsolatedTransient
        | Pattern::Connector
        | Pattern::ConnectorRx
        | Pattern::Oscillator
        | Pattern::CohostCorrelation => Some(1),
        // The α-count must declare: one failing judgement window per
        // α-increment.
        Pattern::RecurringInternal => {
            Some(alpha_windows_to_declare(&ona.alpha)?.saturating_mul(jr).max(1))
        }
        // An established positive trend over the minimum trend-window
        // count; the matcher does not wait for the α-count to declare.
        Pattern::Wearout => Some((ona.wearout_min_windows as u64).saturating_mul(jr).max(1)),
        // One overflowing round per required overflow window.
        Pattern::Configuration => Some(ona.overflow_min_windows.max(1)),
        // One symptomatic dispatch per round until the event floor.
        Pattern::SoftwareDesign
        | Pattern::TransducerStuck
        | Pattern::TransducerDrift
        | Pattern::TransducerDead => Some(ona.job_min_events.max(1)),
    }
}

/// Why `pattern` cannot fire under `ona` within `horizon` rounds
/// (`None` = no fixed horizon), or `None` if it can.
pub fn unavailability(pattern: Pattern, ona: &OnaParams, horizon: Option<u64>) -> Option<String> {
    let gated = match pattern {
        Pattern::MassiveTransient if !ona.enable_spatial => {
            Some("the spatial ONA is disabled (enable_spatial = false)".into())
        }
        Pattern::MassiveTransient
            if !(ona.zone_radius_m.is_finite() && ona.zone_radius_m > 0.0) =>
        {
            Some(format!("zone radius {} m is not a positive finite number", ona.zone_radius_m))
        }
        Pattern::RecurringInternal if alpha_windows_to_declare(&ona.alpha).is_none() => {
            Some(format!(
                "alpha-count parameters (decay {}, threshold {}) cannot cross the threshold",
                ona.alpha.decay, ona.alpha.threshold
            ))
        }
        Pattern::Wearout if !ona.wearout_slope_min.is_finite() => {
            Some("the minimum wearout slope is not finite".into())
        }
        Pattern::CohostCorrelation if !ona.enable_cohost => {
            Some("the co-host correlation ONA is disabled (enable_cohost = false)".into())
        }
        Pattern::TransducerStuck if !(ona.stuck_duty > 0.0 && ona.stuck_duty <= 1.0) => {
            Some(format!("stuck duty {} is outside (0, 1]", ona.stuck_duty))
        }
        _ => None,
    };
    if gated.is_some() {
        return gated;
    }
    // Every pattern that passed its gate has a floor.
    let floor = earliest_fire_round(pattern, ona)?;
    let horizon = horizon.filter(|&h| floor > h)?;
    Some(format!("its earliest firing is round {floor} but the horizon is {horizon} rounds"))
}

/// The set of ONA patterns a fault kind can manifest as, anywhere in its
/// parameter space (optimistic reachability — attribution scope is the
/// analyzer's concern). Derived from the manifestation survey of
/// `decos_faults::injector` crossed with the matcher branches in
/// `patterns.rs`. Diagnostic-path kinds perturb the diagnostic transport
/// only and never appear as application-level symptoms, hence the empty
/// slice.
pub fn patterns_for_kind(kind: &FaultKind) -> &'static [Pattern] {
    use Pattern::*;
    match kind {
        // Spatially scoped frame corruption across the affected zone;
        // recurring bursts can also drive zone members' α-counts over
        // the threshold.
        FaultKind::EmiBurst { .. } => &[MassiveTransient, IsolatedTransient, RecurringInternal],
        // Point frame corruption; recurrence reads as internal — the
        // α-count deliberately classifies *any* recurrence at one
        // location as repair-requiring (§V-C).
        FaultKind::CosmicRaySeu { .. } => &[IsolatedTransient, RecurringInternal],
        // Transient outages (omission episodes) at one component.
        FaultKind::StressOutage { .. } | FaultKind::PowerSupplyMarginal { .. } => {
            &[IsolatedTransient, RecurringInternal]
        }
        // Stub-level bidirectional omissions; the rx-side complaint
        // pattern backs the tx-side one.
        FaultKind::ConnectorIntermittent { .. } | FaultKind::ConnectorWearout { .. } => {
            &[Connector, ConnectorRx]
        }
        // Growing-rate episodes add the wearout trend to the recurring
        // evidence.
        FaultKind::PcbCrack { .. } | FaultKind::SolderJointCrack { .. } => {
            &[IsolatedTransient, RecurringInternal, Wearout]
        }
        FaultKind::QuartzDegradation { .. } => &[Oscillator],
        // Death manifests as permanent omissions: recurring from the
        // observers' perspective.
        FaultKind::IcPermanent { .. } | FaultKind::IcTransient { .. } => {
            &[IsolatedTransient, RecurringInternal]
        }
        // Value drift of every hosted job: correlated across jobs when
        // more than one DAS is hosted, otherwise indistinguishable from
        // a per-job transducer drift.
        FaultKind::CapacitorAging { .. } => &[CohostCorrelation, TransducerDrift],
        FaultKind::VnetMisconfiguration => &[Configuration],
        // Interface-level value anomalies without persistence or trend —
        // includes noisy transducers, which the paper concedes cannot be
        // told apart from rare software bugs at the interface (§III-D).
        FaultKind::Bohrbug { .. } | FaultKind::Heisenbug { .. } | FaultKind::SensorNoise { .. } => {
            &[SoftwareDesign]
        }
        FaultKind::SensorStuck { .. } => &[TransducerStuck],
        FaultKind::SensorDrift { .. } => &[TransducerDrift],
        FaultKind::SensorDead => &[TransducerDead],
        // Diagnostic-path kinds never produce application symptoms; they
        // degrade the observer, which DA070-DA073 cover.
        FaultKind::DiagFrameLoss { .. }
        | FaultKind::DiagFrameCorruption { .. }
        | FaultKind::DiagFrameDelay { .. }
        | FaultKind::BabblingObserver { .. }
        | FaultKind::DiagComponentCrash { .. } => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_reliability::AlphaCount;

    #[test]
    fn every_reachable_pattern_has_a_model_row() {
        use decos_platform::Position;
        let kinds = [
            FaultKind::EmiBurst {
                rate_per_hour: 1.0,
                duration_ms: 10.0,
                center: Position { x: 0.0, y: 0.0 },
                radius_m: 1.0,
            },
            FaultKind::CosmicRaySeu { rate_per_hour: 1.0 },
            FaultKind::StressOutage { rate_per_hour: 1.0, outage_ms: 10.0 },
            FaultKind::ConnectorIntermittent { rate_per_hour: 1.0, duration_ms: 5.0 },
            FaultKind::ConnectorWearout {
                base_rate_per_hour: 1.0,
                growth_per_hour: 1.0,
                duration_ms: 5.0,
            },
            FaultKind::PcbCrack { base_rate_per_hour: 1.0, growth_per_hour: 1.0, outage_ms: 10.0 },
            FaultKind::SolderJointCrack {
                base_rate_per_hour: 1.0,
                growth_per_hour: 1.0,
                duration_ms: 5.0,
            },
            FaultKind::QuartzDegradation { drift_ppm_per_hour: 10.0 },
            FaultKind::IcPermanent { after_hours: 1.0 },
            FaultKind::IcTransient { rate_per_hour: 1.0, duration_ms: 5.0 },
            FaultKind::CapacitorAging { bias_per_hour: 1.0 },
            FaultKind::PowerSupplyMarginal { rate_per_hour: 1.0, outage_ms: 10.0 },
            FaultKind::VnetMisconfiguration,
            FaultKind::Bohrbug { trigger_band: (0.0, 1.0), offset: 1.0 },
            FaultKind::Heisenbug { prob_per_dispatch: 0.1, drop: false, wrong_value: 0.0 },
            FaultKind::SensorStuck { value: 0.0 },
            FaultKind::SensorDrift { per_hour: 1.0 },
            FaultKind::SensorNoise { std_dev: 1.0 },
            FaultKind::SensorDead,
            FaultKind::DiagFrameLoss { loss_prob: 0.5 },
            FaultKind::BabblingObserver { forged_per_round: 1 },
        ];
        let ona = OnaParams::default();
        for kind in &kinds {
            for &p in patterns_for_kind(kind) {
                assert!(p.confidence() > 0.0 && p.confidence() <= 1.0);
                assert!(
                    unavailability(p, &ona, None).is_none(),
                    "{p}: unavailable under default params"
                );
            }
            assert_eq!(
                patterns_for_kind(kind).is_empty(),
                kind.is_diag_path(),
                "{}: only diagnostic-path kinds are invisible to the ONA bank",
                kind.name()
            );
        }
        for (i, p) in Pattern::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "ALL is in declaration order");
        }
    }

    #[test]
    fn alpha_windows_match_the_runtime_counter() {
        // The optimistic bound must be exactly the number of consecutive
        // failing windows the real AlphaCount needs before declaring.
        for (decay, threshold) in [(0.95, 2.5), (0.9, 3.0), (0.5, 1.0), (0.0, 6.0)] {
            let params = AlphaParams { decay, threshold };
            let predicted = alpha_windows_to_declare(&params).expect("finite threshold");
            let mut a = AlphaCount::new(params);
            let mut windows = 0u64;
            while !a.is_declared() {
                a.observe(true);
                windows += 1;
                assert!(windows < 10_000, "counter must declare under constant failures");
            }
            assert_eq!(predicted, windows, "decay={decay} threshold={threshold}");
        }
    }

    #[test]
    fn earliest_fire_respects_judgement_horizon() {
        let ona = OnaParams::default();
        // Defaults: threshold 2.5 -> 3 windows of 50 rounds.
        assert_eq!(earliest_fire_round(Pattern::RecurringInternal, &ona), Some(150));
        // The wearout matcher needs its trend windows, not a declared
        // alpha-count: 4 windows of 50 rounds, whatever the threshold.
        assert_eq!(earliest_fire_round(Pattern::Wearout, &ona), Some(200));
        let slow = OnaParams { alpha: AlphaParams { decay: 0.95, threshold: 10.0 }, ..ona };
        assert_eq!(earliest_fire_round(Pattern::Wearout, &slow), Some(200));
        assert_eq!(earliest_fire_round(Pattern::RecurringInternal, &slow), Some(500));
        assert_eq!(earliest_fire_round(Pattern::Configuration, &ona), Some(5));
        assert_eq!(earliest_fire_round(Pattern::SoftwareDesign, &ona), Some(3));
        assert_eq!(earliest_fire_round(Pattern::IsolatedTransient, &ona), Some(1));
        let never =
            OnaParams { alpha: AlphaParams { decay: 0.9, threshold: f64::INFINITY }, ..ona };
        assert_eq!(earliest_fire_round(Pattern::RecurringInternal, &never), None);
    }

    #[test]
    fn params_error_is_the_runtime_rule() {
        let with_alpha = |decay: f64, threshold: f64| OnaParams {
            alpha: AlphaParams { decay, threshold },
            ..OnaParams::default()
        };
        // What the ONA bank accepts: the defaults, E12's memoryless
        // ablation (decay 0) and a threshold the count never crosses.
        for ok in [OnaParams::default(), with_alpha(0.0, 2.5), with_alpha(0.9, f64::INFINITY)] {
            assert_eq!(params_error(&ok), None, "{:?}", ok.alpha);
        }
        for bad in [
            with_alpha(1.0, 2.5),
            with_alpha(-0.1, 2.5),
            with_alpha(f64::NAN, 2.5),
            with_alpha(0.9, 0.0),
            with_alpha(0.9, -1.0),
            with_alpha(0.9, f64::NAN),
            OnaParams { judgement_rounds: 0, ..OnaParams::default() },
        ] {
            assert!(params_error(&bad).is_some(), "{bad:?}");
        }
    }

    // -- availability -------------------------------------------------------

    #[test]
    fn catalog_covers_every_class_by_default() {
        let ona = OnaParams::default();
        for class in FaultClass::ALL {
            let covered = Pattern::ALL
                .into_iter()
                .any(|p| p.class() == class && unavailability(p, &ona, None).is_none());
            assert!(covered, "{class} uncovered under default parameters");
        }
    }

    #[test]
    fn disabling_spatial_removes_only_massive_transient() {
        let ona = OnaParams { enable_spatial: false, ..OnaParams::default() };
        assert!(unavailability(Pattern::MassiveTransient, &ona, None).is_some());
        // The class stays covered through the isolated-transient pattern.
        assert!(unavailability(Pattern::IsolatedTransient, &ona, None).is_none());
    }

    #[test]
    fn short_horizon_starves_evidence_thresholds() {
        let ona = OnaParams::default();
        let cfgp = Pattern::Configuration;
        assert!(
            unavailability(cfgp, &ona, Some(2)).is_some(),
            "5 overflow windows need > 2 rounds"
        );
        assert!(unavailability(cfgp, &ona, Some(100)).is_none());
    }

    fn with_alpha(decay: f64, threshold: f64) -> OnaParams {
        let mut o = OnaParams::default();
        o.alpha.decay = decay;
        o.alpha.threshold = threshold;
        o
    }

    #[test]
    fn unavailability_boundaries_table() {
        // Table-driven boundary cases: (pattern, ona, horizon, expect
        // unavailable). Defaults: judgement_rounds 50, alpha threshold 2.5,
        // wearout windows 4, overflow windows 5, job events 3.
        use Pattern::*;
        let dflt = OnaParams::default;
        let cases: Vec<(Pattern, OnaParams, Option<u64>, bool)> = vec![
            // No fixed horizon: horizon starvation never fires.
            (RecurringInternal, dflt(), None, false),
            (Wearout, dflt(), None, false),
            (Configuration, dflt(), None, false),
            (SoftwareDesign, dflt(), None, false),
            // Off-by-one around each evidence floor.
            (RecurringInternal, dflt(), Some(149), true),
            (RecurringInternal, dflt(), Some(150), false),
            (Wearout, dflt(), Some(199), true),
            (Wearout, dflt(), Some(200), false),
            (Configuration, dflt(), Some(4), true),
            (Configuration, dflt(), Some(5), false),
            (SoftwareDesign, dflt(), Some(2), true),
            (SoftwareDesign, dflt(), Some(3), false),
            (TransducerStuck, dflt(), Some(2), true),
            (TransducerStuck, dflt(), Some(3), false),
            (TransducerDrift, dflt(), Some(2), true),
            (TransducerDead, dflt(), Some(3), false),
            // Instant patterns survive a one-round horizon, but not a
            // zero-round one.
            (IsolatedTransient, dflt(), Some(1), false),
            (Connector, dflt(), Some(1), false),
            (ConnectorRx, dflt(), Some(1), false),
            (Oscillator, dflt(), Some(1), false),
            (MassiveTransient, dflt(), Some(1), false),
            (IsolatedTransient, dflt(), Some(0), true),
            // Saturated / degenerate parameters kill the pattern outright,
            // regardless of horizon.
            (RecurringInternal, with_alpha(0.9, f64::INFINITY), None, true),
            (RecurringInternal, with_alpha(1.0, 2.5), None, true),
            (Wearout, OnaParams { wearout_slope_min: f64::NAN, ..dflt() }, None, true),
            (MassiveTransient, OnaParams { zone_radius_m: 0.0, ..dflt() }, None, true),
            (MassiveTransient, OnaParams { zone_radius_m: f64::INFINITY, ..dflt() }, None, true),
            (MassiveTransient, OnaParams { enable_spatial: false, ..dflt() }, None, true),
            (CohostCorrelation, OnaParams { enable_cohost: false, ..dflt() }, None, true),
            (CohostCorrelation, dflt(), Some(1), false),
            (TransducerStuck, OnaParams { stuck_duty: 0.0, ..dflt() }, None, true),
            (TransducerStuck, OnaParams { stuck_duty: 1.5, ..dflt() }, None, true),
            (TransducerStuck, OnaParams { stuck_duty: 1.0, ..dflt() }, None, false),
            // A memoryless alpha-count (decay 0) still declares: three
            // consecutive failing windows reach the threshold.
            (RecurringInternal, with_alpha(0.0, 2.5), Some(150), false),
            (RecurringInternal, with_alpha(0.0, 2.5), Some(149), true),
        ];
        for (i, (p, ona, horizon, expect_unavailable)) in cases.iter().enumerate() {
            let got = unavailability(*p, ona, *horizon);
            assert_eq!(
                got.is_some(),
                *expect_unavailable,
                "case {i}: {p} at {horizon:?} rounds -> {got:?}"
            );
        }
    }

    #[test]
    fn scaled_judgement_interval_moves_the_horizon() {
        // The floors scale with the parameters, not with constants.
        let ona =
            OnaParams { judgement_rounds: 10, wearout_min_windows: 7, ..OnaParams::default() };
        assert!(unavailability(Pattern::RecurringInternal, &ona, Some(29)).is_some());
        assert!(unavailability(Pattern::RecurringInternal, &ona, Some(30)).is_none());
        assert!(unavailability(Pattern::Wearout, &ona, Some(69)).is_some());
        assert!(unavailability(Pattern::Wearout, &ona, Some(70)).is_none());
        let ona = OnaParams { overflow_min_windows: 1, job_min_events: 1, ..OnaParams::default() };
        assert!(unavailability(Pattern::Configuration, &ona, Some(1)).is_none());
        assert!(unavailability(Pattern::SoftwareDesign, &ona, Some(1)).is_none());
    }
}
