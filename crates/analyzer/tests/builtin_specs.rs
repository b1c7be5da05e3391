//! Self-check: every spec this repository ships — the Fig. 10 reference
//! cluster, the avionics cluster, and the campaign variants the examples
//! drive — must analyze without error-severity diagnostics; seeded
//! mutations must each produce their specific diagnostic code.

use decos::diagnosis::OnaParams;
use decos::prelude::*;
use decos_analyzer::{analyze, DiagCode, ExperimentSpec, ScheduleSpec, Severity};
use decos_platform::{avionics, fig10, NodeId};

/// The horizon the examples and the fleet default use.
const ROUNDS: u64 = 4000;

fn assert_clean(name: &str, exp: &ExperimentSpec<'_>) {
    let report = analyze(exp);
    assert!(!report.has_errors(), "{name} should have no errors:\n{report}");
}

#[test]
fn fig10_reference_is_spotless() {
    let spec = fig10::reference_spec();
    let mut exp = ExperimentSpec::new(&spec);
    exp.rounds = Some(ROUNDS);
    let report = analyze(&exp);
    assert!(!report.has_errors(), "{report}");
    assert_eq!(report.count_severity(Severity::Warning), 0, "{report}");
}

#[test]
fn avionics_has_no_errors() {
    let spec = avionics::avionics_spec();
    let mut exp = ExperimentSpec::new(&spec);
    exp.rounds = Some(ROUNDS);
    let report = analyze(&exp);
    assert!(!report.has_errors(), "{report}");
    // The F1/F2/F3 replicas sit on adjacent forward LRMs — the analyzer is
    // expected to flag the tight spatial grouping, as a warning only.
    assert!(report.contains(DiagCode::TmrTriadSpatiallyClose), "{report}");
}

#[test]
fn example_campaigns_have_no_errors() {
    use decos::faults::campaign;
    let spec = fig10::reference_spec();
    let cases: Vec<(&str, Vec<FaultSpec>)> = vec![
        ("external", campaign::external_environment(&spec, 2000.0)),
        ("connector", campaign::connector_campaign(NodeId(2), 2000.0)),
        ("wearout", campaign::wearout_campaign(NodeId(1), 500.0, 100_000.0)),
        ("internal", campaign::internal_degradation_campaign(NodeId(2))),
        ("software", campaign::software_campaign(fig10::jobs::A3, true)),
        (
            "sensor",
            campaign::sensor_campaign(fig10::jobs::A1, FaultKind::SensorStuck { value: 0.4 }),
        ),
    ];
    for (name, faults) in &cases {
        assert_clean(name, &ExperimentSpec::with_campaign(&spec, faults, 10.0, ROUNDS));
    }
}

#[test]
fn deliberate_misconfiguration_warns_but_runs() {
    let (spec, faults) =
        decos::faults::campaign::misconfiguration_campaign(fig10::reference_spec(), 4);
    let report = analyze(&ExperimentSpec::with_campaign(&spec, &faults, 10.0, ROUNDS));
    assert!(!report.has_errors(), "deliberate defects must not be errors:\n{report}");
    // ... and the ground-truth fault is consistent with the defect, so the
    // missing-defect warning must NOT fire.
    assert!(!report.contains(DiagCode::MisconfigTruthWithoutDefect), "{report}");
}

// ---------------------------------------------------------------------------
// Seeded mutations: each must fire its specific code.
// ---------------------------------------------------------------------------

#[test]
fn mutation_shared_fru_triad_fires_da010() {
    let mut spec = fig10::reference_spec();
    // Move replica S2 onto S1's component: two replicas on one FRU.
    spec.jobs.iter_mut().find(|j| j.id == fig10::jobs::S2).unwrap().host = NodeId(0);
    let report = analyze(&ExperimentSpec::new(&spec));
    assert!(report.contains(DiagCode::TmrTriadSharedFru), "{report}");
    assert!(report.has_errors());
}

#[test]
fn mutation_starved_pattern_fires_da020() {
    let spec = fig10::reference_spec();
    let mut exp = ExperimentSpec::new(&spec);
    // The configuration pattern needs overflow_min_windows rounds of
    // evidence; an impossible threshold starves the JobBorderline class.
    exp.ona.overflow_min_windows = u64::MAX;
    exp.rounds = Some(ROUNDS);
    let report = analyze(&exp);
    assert!(report.contains(DiagCode::UncoveredFaultClass), "{report}");
    assert!(report.contains(DiagCode::OnaPatternUnavailable), "{report}");
}

/// The fig10 reference experiment at the example horizon, with the ONA
/// parameters edited by `edit`.
fn analyze_with_ona(edit: impl FnOnce(&mut OnaParams)) -> decos_analyzer::AnalysisReport {
    let spec = fig10::reference_spec();
    let mut exp = ExperimentSpec::new(&spec);
    exp.rounds = Some(ROUNDS);
    edit(&mut exp.ona);
    analyze(&exp)
}

#[test]
fn mutation_alpha_decay_one_fires_da022() {
    // AlphaCount::new panics on a decay outside [0, 1) at the first
    // judgement boundary; the analyzer must refuse the run instead.
    let report = analyze_with_ona(|ona| ona.alpha.decay = 1.0);
    assert!(report.contains(DiagCode::OnaParamsRejected), "{report}");
    assert!(report.has_errors());
}

#[test]
fn mutation_zero_judgement_interval_fires_da022() {
    // A zero judgement interval divides by zero in the first round.
    let report = analyze_with_ona(|ona| ona.judgement_rounds = 0);
    assert!(report.contains(DiagCode::OnaParamsRejected), "{report}");
    assert!(report.has_errors());
}

#[test]
fn ona_ablations_pass_the_parameter_check() {
    // The defaults and the E12 ablations, the memoryless alpha-count
    // (decay 0) included, run: no DA022 and no error.
    let edits: [fn(&mut OnaParams); 4] = [
        |_| {},
        |ona| ona.enable_spatial = false,
        |ona| ona.enable_cohost = false,
        |ona| ona.alpha.decay = 0.0,
    ];
    for (i, edit) in edits.into_iter().enumerate() {
        let report = analyze_with_ona(edit);
        assert!(!report.contains(DiagCode::OnaParamsRejected), "case {i}: {report}");
        assert!(!report.has_errors(), "case {i}: {report}");
    }
}

#[test]
fn recurring_internal_needs_three_judgement_intervals() {
    // The alpha-count declares after ceil(2.5) = 3 failing intervals of
    // 50 rounds; a memoryless count (decay 0) declares just as early.
    let spec = fig10::reference_spec();
    let unavailable = |exp: &ExperimentSpec<'_>| {
        analyze(exp).diagnostics.iter().any(|d| {
            d.code == DiagCode::OnaPatternUnavailable && d.message.contains("recurring-internal")
        })
    };
    let mut exp = ExperimentSpec::with_campaign(&spec, &[], 1.0, 100);
    assert!(unavailable(&exp), "100 rounds < 150");
    exp.ona.alpha.decay = 0.0;
    assert!(unavailable(&exp), "decay 0 does not shorten the floor");
    exp.rounds = Some(150);
    assert!(!unavailable(&exp), "decay 0 still declares at 150 rounds");
}

#[test]
fn mutation_double_booked_slot_fires_da001() {
    let spec = fig10::reference_spec();
    let mut exp = ExperimentSpec::new(&spec);
    let mut sched = ScheduleSpec::derived(&spec);
    // Claim slot 0 for component 1 as well: two owners, one slot.
    sched.claims.push((0, NodeId(1)));
    exp.schedule = sched;
    let report = analyze(&exp);
    assert!(report.contains(DiagCode::SlotCollision), "{report}");
    assert!(report.has_errors());
}

#[test]
fn mutation_unknown_target_fires_da040() {
    let spec = fig10::reference_spec();
    let faults = vec![FaultSpec {
        id: 1,
        kind: FaultKind::CosmicRaySeu { rate_per_hour: 50.0 },
        target: FruRef::Component(NodeId(17)),
        onset: decos::sim::SimTime::ZERO,
    }];
    let report = analyze(&ExperimentSpec::with_campaign(&spec, &faults, 1.0, ROUNDS));
    assert!(report.contains(DiagCode::UnknownFaultTarget), "{report}");
    assert!(report.has_errors());
}

#[test]
fn mutation_onset_beyond_horizon_fires_da041() {
    let spec = fig10::reference_spec();
    let faults = vec![FaultSpec {
        id: 1,
        kind: FaultKind::SensorDead,
        target: FruRef::Job(fig10::jobs::A1),
        onset: decos::sim::SimTime::from_secs(3600),
    }];
    // 4000 rounds x 4 ms = 16 s << the one-hour onset.
    let report = analyze(&ExperimentSpec::with_campaign(&spec, &faults, 1.0, ROUNDS));
    assert!(report.contains(DiagCode::OnsetBeyondHorizon), "{report}");
    assert!(report.has_errors());
}

#[test]
fn mutation_zero_diag_capacity_fires_da070() {
    let mut spec = fig10::reference_spec();
    spec.diag_net.capacity_per_round = 0;
    let report = analyze(&ExperimentSpec::new(&spec));
    assert!(report.contains(DiagCode::InvalidDiagNetConfig), "{report}");
    assert!(report.has_errors());
}

#[test]
fn mutation_diag_delay_beyond_horizon_fires_da072() {
    let spec = fig10::reference_spec();
    let faults = decos::faults::campaign::diag_degradation_campaign(0.0, 0.0, 200);
    // 100 rounds of horizon, 200 rounds of delay: nothing ever arrives.
    let report = analyze(&ExperimentSpec::with_campaign(&spec, &faults, 10.0, 100));
    assert!(report.contains(DiagCode::DiagDelayExceedsHorizon), "{report}");
    assert!(report.has_errors());
}

#[test]
fn quiet_babbler_fires_da073_info_only() {
    let spec = fig10::reference_spec();
    // Four forged frames per round is far under the rate-screen ceiling:
    // the screen will never flag this observer, which is worth knowing but
    // is not a defect of the experiment.
    let faults = decos::faults::campaign::babbling_observer_campaign(NodeId(3), 4);
    let report = analyze(&ExperimentSpec::with_campaign(&spec, &faults, 10.0, ROUNDS));
    assert!(!report.has_errors(), "{report}");
    assert!(report.contains(DiagCode::DiagBabbleUndetectable), "{report}");
}

#[test]
fn mutation_dominating_crash_fires_da071() {
    let spec = fig10::reference_spec();
    // One crash per accelerated second with one-second outages: the
    // diagnostic component is down about as often as it is up.
    let faults = decos::faults::campaign::diag_crash_campaign(NodeId(0), 3600.0, 1000.0);
    let report = analyze(&ExperimentSpec::with_campaign(&spec, &faults, 10.0, ROUNDS));
    assert!(report.contains(DiagCode::DiagCrashDominatesHorizon), "{report}");
}

#[test]
fn degradation_campaigns_analyze_clean() {
    use decos::faults::campaign;
    let spec = fig10::reference_spec();
    for (name, faults) in [
        ("loss", campaign::diag_degradation_campaign(0.5, 0.0, 0)),
        ("corruption", campaign::diag_degradation_campaign(0.0, 0.5, 0)),
        ("total-loss", campaign::diag_degradation_campaign(1.0, 0.0, 0)),
    ] {
        assert_clean(name, &ExperimentSpec::with_campaign(&spec, &faults, 10.0, ROUNDS));
    }
}

#[test]
fn runner_refuses_what_the_analyzer_rejects() {
    // Broken campaigns through the public entry point: the run must not
    // start, and the full report must come back.
    let seu = |node: u16| FaultSpec {
        id: 1,
        kind: FaultKind::CosmicRaySeu { rate_per_hour: 50.0 },
        target: FruRef::Component(NodeId(node)),
        onset: decos::sim::SimTime::ZERO,
    };
    let cases = [
        (seu(17), 100, DiagCode::UnknownFaultTarget),
        // A zero horizon is a horizon, not "no fixed horizon": no fault
        // can manifest in it.
        (seu(1), 0, DiagCode::OnsetBeyondHorizon),
    ];
    for (fault, rounds, code) in cases {
        let c = Campaign::reference(vec![fault], 1.0, rounds, 3);
        match run_campaign(&c) {
            Err(CampaignError::Rejected(report)) => {
                assert!(report.contains(code), "{report}");
            }
            other => panic!("expected analyzer rejection, got {other:?}"),
        }
    }
}
