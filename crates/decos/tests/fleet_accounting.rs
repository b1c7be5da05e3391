//! Regression: fleet degraded-vehicle accounting must follow the engine's
//! own `report.degraded` verdict, not a re-derived quality threshold.
//!
//! The historical bug: the fleet runner recomputed "degraded" as
//! `delivery_quality < 0.9`, silently dropping the failover and
//! primary-down conditions the engine folds into `report.degraded` — so a
//! vehicle whose diagnostic component crashed and failed over to the cold
//! standby, while keeping high delivery quality the rest of the run, was
//! not counted.

use decos::prelude::*;

/// A fleet where every vehicle additionally suffers rare, short outages of
/// its diagnostic component: failovers happen, but the outages are brief
/// enough that mean delivery quality stays at or above the degradation
/// threshold for at least one vehicle.
fn crashy_fleet() -> FleetOutcome {
    let cfg = FleetConfig { vehicles: 10, rounds: 2000, accel: 10.0, seed: 41 };
    let opts = FleetOptions {
        telemetry: false,
        base_faults: decos::faults::campaign::diag_crash_campaign(NodeId(0), 40.0, 12.0),
        ..FleetOptions::default()
    };
    run_fleet_configured(&fig10::reference_spec(), cfg, EngineParams::default(), &opts).unwrap()
}

#[test]
fn failover_only_vehicles_count_as_degraded() {
    let out = crashy_fleet();
    // The scenario must actually produce the interesting case: at least
    // one vehicle that failed over yet kept quality >= the threshold.
    let failover_high_quality = out
        .vehicles
        .iter()
        .filter(|v| v.failovers > 0 && v.delivery_quality >= DEGRADED_QUALITY_THRESHOLD)
        .count() as u64;
    assert!(
        failover_high_quality > 0,
        "scenario must contain a failover-only vehicle (quality >= {DEGRADED_QUALITY_THRESHOLD})"
    );

    // The aggregate must agree with the engine's per-vehicle verdicts...
    let engine_degraded = out.vehicles.iter().filter(|v| v.degraded).count() as u64;
    assert_eq!(out.degraded_vehicles, engine_degraded);

    // ...and therefore exceed what the buggy quality-only re-derivation
    // would have counted.
    let quality_only =
        out.vehicles.iter().filter(|v| v.delivery_quality < DEGRADED_QUALITY_THRESHOLD).count()
            as u64;
    assert!(
        out.degraded_vehicles >= quality_only + failover_high_quality,
        "failover-only vehicles must be counted: degraded={} quality_only={} failover_high={}",
        out.degraded_vehicles,
        quality_only,
        failover_high_quality
    );

    // Every vehicle that failed over is degraded by definition.
    for v in &out.vehicles {
        if v.failovers > 0 {
            assert!(v.degraded, "failover implies degraded: {v:?}");
        }
    }
}

#[test]
fn base_faults_do_not_perturb_sampled_ground_truth() {
    // The same fleet with and without base faults must sample identical
    // ground-truth faults (base faults ride along, they are not truth).
    let cfg = FleetConfig { vehicles: 6, rounds: 600, accel: 10.0, seed: 9 };
    let plain = run_fleet(&fig10::reference_spec(), cfg).unwrap();
    let opts = FleetOptions {
        telemetry: false,
        base_faults: decos::faults::campaign::diag_crash_campaign(NodeId(0), 40.0, 12.0),
        ..FleetOptions::default()
    };
    let crashy =
        run_fleet_configured(&fig10::reference_spec(), cfg, EngineParams::default(), &opts)
            .unwrap();
    assert_eq!(plain.vehicles.len(), crashy.vehicles.len());
    for (a, b) in plain.vehicles.iter().zip(&crashy.vehicles) {
        assert_eq!(a.truth_fru, b.truth_fru);
        assert_eq!(a.truth_class, b.truth_class);
    }
}
