//! Soundness suite for the static diagnosability engine.
//!
//! The analyzer's verdicts are claims about what `ClusterSim` *can*
//! observe; this suite checks them against what paired simulations
//! actually convict. For a pair the analyzer declares **ambiguous**, two
//! campaigns differing only in the injected hypothesis must land on the
//! same conviction outcome (the architecture cannot tell them apart, so
//! confusing them is observable reality, not an analyzer bug). For pairs
//! declared **diagnosable**, the paired runs must land on *different*
//! outcomes — the distinguishing observation the analyzer predicts is
//! really there.
//!
//! Conviction outcome = the sorted set of `(FRU, decided class)` pairs of
//! the final report. Seeds, rates and horizons are pinned; everything
//! here is deterministic.

use decos::analyzer::diagnosability::{pair_verdict, Hypothesis, Verdict};
use decos::analyzer::ExperimentSpec;
use decos::diagnosis::{earliest_fire_round, Pattern};
use decos::platform::{fig10, ClusterSpec, NodeId, Position};
use decos::prelude::{
    run_campaign, run_campaign_opts, Campaign, EngineParams, FaultClass, FaultKind, FaultSpec,
    FruRef, RunOptions,
};
use decos::sim::time::SimTime;

const ROUNDS: u64 = 4000;
const ACCEL: f64 = 10.0;

fn hyp(kind: &FaultKind, fru: FruRef) -> Hypothesis {
    Hypothesis { kind: kind.clone(), fru, fault_id: None }
}

/// The analyzer's static verdict for the pair on the fig10 cluster.
fn static_verdict(a: &(FaultKind, FruRef), b: &(FaultKind, FruRef)) -> Verdict {
    let spec = fig10::reference_spec();
    let mut exp = ExperimentSpec::new(&spec);
    exp.rounds = Some(ROUNDS);
    pair_verdict(&exp, &hyp(&a.0, a.1), &hyp(&b.0, b.1), ROUNDS)
}

/// Runs a single-hypothesis campaign and extracts its conviction outcome.
fn convictions(h: &(FaultKind, FruRef), seed: u64) -> Vec<(FruRef, FaultClass)> {
    let fault = FaultSpec { id: 1, kind: h.0.clone(), target: h.1, onset: SimTime::ZERO };
    let c = Campaign::reference(vec![fault], ACCEL, ROUNDS, seed);
    let out = run_campaign(&c).unwrap_or_else(|e| panic!("{}@{} rejected: {e:?}", h.0.name(), h.1));
    let mut decided: Vec<(FruRef, FaultClass)> =
        out.report.verdicts.iter().filter_map(|v| v.class.map(|c| (v.fru, c))).collect();
    decided.sort();
    decided
}

/// Asserts the analyzer calls the pair ambiguous and the paired runs
/// collide on a non-trivial conviction outcome.
fn assert_ambiguity_is_real(a: (FaultKind, FruRef), b: (FaultKind, FruRef), seed: u64) {
    let label = format!("{}@{} ~ {}@{}", a.0.name(), a.1, b.0.name(), b.1);
    match static_verdict(&a, &b) {
        Verdict::Ambiguous { witness } => {
            assert!(!witness.is_empty(), "{label}: ambiguous without a witness")
        }
        other => panic!("{label}: expected Ambiguous, analyzer says {other:?}"),
    }
    let ca = convictions(&a, seed);
    let cb = convictions(&b, seed);
    assert!(!ca.is_empty(), "{label}: first run convicted nothing — the collision is vacuous");
    assert_eq!(ca, cb, "{label}: declared ambiguous, but the paired runs disagree");
}

/// Asserts the analyzer calls the pair diagnosable and the paired runs
/// really land on different conviction outcomes.
fn assert_distinguishable(a: (FaultKind, FruRef), b: (FaultKind, FruRef), seed: u64) {
    let label = format!("{}@{} vs {}@{}", a.0.name(), a.1, b.0.name(), b.1);
    match static_verdict(&a, &b) {
        Verdict::Diagnosable { round } => {
            assert!((1..=ROUNDS).contains(&round), "{label}: round {round} out of horizon")
        }
        other => panic!("{label}: expected Diagnosable, analyzer says {other:?}"),
    }
    let ca = convictions(&a, seed);
    let cb = convictions(&b, seed);
    assert_ne!(
        ca, cb,
        "{label}: declared diagnosable, but the paired runs convict identically ({ca:?})"
    );
}

fn seu(rate: f64) -> FaultKind {
    FaultKind::CosmicRaySeu { rate_per_hour: rate }
}

fn ic_transient(rate: f64) -> FaultKind {
    FaultKind::IcTransient { rate_per_hour: rate, duration_ms: 4.0 }
}

fn emi_at(center: Position) -> FaultKind {
    FaultKind::EmiBurst { rate_per_hour: 20_000.0, duration_ms: 10.0, center, radius_m: 1.5 }
}

fn node_pos(n: u16) -> Position {
    fig10::reference_spec()
        .components
        .iter()
        .find(|c| c.node == NodeId(n))
        .expect("fig10 node")
        .position
}

// ---------------------------------------------------------------------
// Declared-ambiguous pairs: the confusion must be observable in vivo.
// ---------------------------------------------------------------------

/// A cosmic-ray environment and a residual IC defect at the same node
/// both manifest as isolated + recurring transients there; the advisor
/// convicts the same FRU with the same class either way.
#[test]
fn seu_vs_ic_transient_same_node_collide() {
    let n1 = FruRef::Component(NodeId(1));
    assert_ambiguity_is_real((seu(20_000.0), n1), (ic_transient(20_000.0), n1), 23);
}

/// Stress outages and power-supply brownouts are both constant-rate
/// outage processes: identical symptom signatures, identical convictions.
#[test]
fn stress_outage_vs_brownout_same_node_collide() {
    let n2 = FruRef::Component(NodeId(2));
    let stress = FaultKind::StressOutage { rate_per_hour: 20_000.0, outage_ms: 4.0 };
    let brown = FaultKind::PowerSupplyMarginal { rate_per_hour: 20_000.0, outage_ms: 4.0 };
    assert_ambiguity_is_real((stress, n2), (brown, n2), 29);
}

/// EMI centred on N0 and EMI centred on N1 share the proximity zone
/// {N0, N1} (0.54 m apart, 1.5 m radius): the massive-transient pattern
/// attributes both to the same zone, so the source is not localizable.
#[test]
fn emi_zone_sources_collide() {
    let a = (emi_at(node_pos(0)), FruRef::Component(NodeId(0)));
    let b = (emi_at(node_pos(1)), FruRef::Component(NodeId(1)));
    assert_ambiguity_is_real(a, b, 31);
}

// ---------------------------------------------------------------------
// Declared-diagnosable pairs: the predicted distinction must show up.
// ---------------------------------------------------------------------

/// A connector fault at N2 and an IC defect at N1 differ in both pattern
/// and attributed FRU.
#[test]
fn connector_vs_ic_transient_distinguishable() {
    let conn = FaultKind::ConnectorIntermittent { rate_per_hour: 2_000.0, duration_ms: 5.0 };
    let a = (conn, FruRef::Component(NodeId(2)));
    let b = (ic_transient(20_000.0), FruRef::Component(NodeId(1)));
    assert_distinguishable(a, b, 37);
}

/// A stuck transducer and a software design fault on the same job fire
/// different value-domain patterns (transducer-stuck vs software-design).
#[test]
fn sensor_stuck_vs_bohrbug_distinguishable() {
    let a1 = FruRef::Job(fig10::jobs::A1);
    let stuck = FaultKind::SensorStuck { value: 99.0 };
    let bohr = FaultKind::Bohrbug { trigger_band: (-1e9, 1e9), offset: 40.0 };
    assert_distinguishable((stuck, a1), (bohr, a1), 41);
}

/// EMI zones {N0, N1} and {N2, N3} are ~3 m apart: disjoint footprints,
/// disjoint attribution.
#[test]
fn distant_emi_zones_distinguishable() {
    let a = (emi_at(node_pos(0)), FruRef::Component(NodeId(0)));
    let b = (emi_at(node_pos(2)), FruRef::Component(NodeId(2)));
    assert_distinguishable(a, b, 43);
}

/// An oscillator defect and a connector defect at the same node stay
/// distinguishable even on the same FRU: quartz degradation fires the
/// oscillator pattern, the connector fires the omission patterns.
#[test]
fn quartz_vs_connector_same_node_distinguishable() {
    let n2 = FruRef::Component(NodeId(2));
    let quartz = FaultKind::QuartzDegradation { drift_ppm_per_hour: 2_000.0 };
    let conn = FaultKind::ConnectorIntermittent { rate_per_hour: 2_000.0, duration_ms: 5.0 };
    assert_distinguishable((quartz, n2), (conn, n2), 47);
}

// ---------------------------------------------------------------------
// The model's floors against the runtime: no pattern fires early.
// ---------------------------------------------------------------------

/// The first 1-indexed round in which each pattern appears in the
/// engine's per-round matches.
fn first_fire_rounds(
    c: &Campaign,
    params: EngineParams,
) -> std::collections::BTreeMap<Pattern, u64> {
    let mut first = std::collections::BTreeMap::new();
    run_campaign_opts(c, params, RunOptions::default(), &mut [], |sim, engine, rec| {
        if rec.addr.slot.0 + 1 == sim.schedule().slots_per_round() {
            for m in engine.last_matches() {
                first.entry(m.pattern).or_insert(rec.addr.round + 1);
            }
        }
    })
    .unwrap_or_else(|e| panic!("rejected: {e:?}"));
    first
}

/// One fault kind per `patterns_for_kind` group, at seed-pinned high
/// rates, run at the default ONA parameters and at an alpha threshold of
/// 10: every pattern's first firing lies at or after the model's
/// `earliest_fire_round`.
#[test]
fn no_pattern_fires_before_its_floor() {
    use decos::faults::campaign;
    let comp = |kind: FaultKind, n: u16| {
        vec![FaultSpec { id: 1, kind, target: FruRef::Component(NodeId(n)), onset: SimTime::ZERO }]
    };
    let spec = fig10::reference_spec;
    let a1 = fig10::jobs::A1;
    let groups: Vec<(ClusterSpec, Vec<FaultSpec>)> = vec![
        (spec(), comp(emi_at(Position { x: 0.2, y: 0.1 }), 0)),
        (spec(), comp(seu(20_000.0), 1)),
        (spec(), comp(FaultKind::StressOutage { rate_per_hour: 20_000.0, outage_ms: 4.0 }, 2)),
        (
            spec(),
            comp(FaultKind::ConnectorIntermittent { rate_per_hour: 4_000.0, duration_ms: 5.0 }, 2),
        ),
        (
            spec(),
            comp(
                FaultKind::PcbCrack {
                    base_rate_per_hour: 500.0,
                    growth_per_hour: 100_000.0,
                    outage_ms: 4.0,
                },
                1,
            ),
        ),
        (spec(), comp(FaultKind::QuartzDegradation { drift_ppm_per_hour: 1e7 }, 3)),
        (spec(), comp(ic_transient(20_000.0), 1)),
        (spec(), comp(FaultKind::CapacitorAging { bias_per_hour: 40_000.0 }, 0)),
        campaign::misconfiguration_campaign(spec(), 16),
        (spec(), campaign::software_campaign(a1, false)),
        (spec(), campaign::sensor_campaign(a1, FaultKind::SensorStuck { value: 99.0 })),
        (spec(), campaign::sensor_campaign(a1, FaultKind::SensorDrift { per_hour: 40_000.0 })),
        (spec(), campaign::sensor_campaign(a1, FaultKind::SensorDead)),
    ];
    let slow_alpha = {
        let mut p = EngineParams::default();
        p.ona.alpha.threshold = 10.0;
        p
    };
    let mut seen = std::collections::BTreeSet::new();
    for params in [EngineParams::default(), slow_alpha] {
        for (i, (spec, faults)) in groups.iter().enumerate() {
            let c = Campaign {
                spec: spec.clone(),
                faults: faults.clone(),
                accel: ACCEL,
                rounds: 600,
                seed: 3,
            };
            for (pattern, round) in first_fire_rounds(&c, params) {
                let floor = earliest_fire_round(pattern, &params.ona)
                    .unwrap_or_else(|| panic!("{pattern} fired but the model says it never can"));
                assert!(
                    round >= floor,
                    "group {i} ({}): {pattern} fired in round {round}, before its floor {floor} \
                     (alpha threshold {})",
                    faults[0].kind.name(),
                    params.ona.alpha.threshold
                );
                seen.insert((params.ona.alpha.threshold.to_bits(), pattern));
            }
        }
    }
    // The slow evidence patterns must actually fire, or the floors above
    // were never tested.
    for threshold in [2.5f64, 10.0] {
        for p in [Pattern::RecurringInternal, Pattern::Wearout] {
            assert!(
                seen.contains(&(threshold.to_bits(), p)),
                "{p} never fired at alpha {threshold}"
            );
        }
    }
}
