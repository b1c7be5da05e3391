//! The perf-trajectory gate: `repro bench-compare`.
//!
//! ROADMAP item 2 asks for the committed `BENCH_*.json` trajectory to be
//! an enforced contract, not decoration. This module re-runs both
//! benchmark shapes and compares their `slots_per_sec` — a wall-clock
//! *rate*, so comparable across effort scales — against the committed
//! baselines, failing on a regression beyond the tolerance. Determinism
//! mismatches fail unconditionally: a non-reproducible benchmark is a
//! worse defect than a slow one.

use crate::perf::{bench_fleet, bench_slot, BenchReport};
use crate::Effort;

/// Default regression tolerance: >10% below baseline fails, per ROADMAP
/// item 2. CI passes a larger value to absorb shared-runner noise.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// Pipeline phases whose p50 the gate tracks. Kernel and TtNet are the
/// two simulation-side phases of the flattened slot hot path — the ones
/// the slot-table/SoA refactor is accountable for.
pub const GATED_PHASES: [&str; 2] = ["kernel", "ttnet"];

/// Minimum tolerance for the per-phase p50 gate. Phase quantiles come
/// from log₂ histograms (bucket-bound estimates, factor-of-two granular)
/// over sampled spans, so a tighter throughput tolerance must not make
/// the phase gate noisier than its own resolution.
pub const PHASE_TOLERANCE_FLOOR: f64 = 0.25;

/// The committed numbers one gate comparison runs against.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Schema tag of the committed report.
    pub schema: String,
    /// Committed throughput, slots per wall-clock second.
    pub slots_per_sec: f64,
    /// Committed fleet throughput, vehicles per wall-clock second.
    /// `None` for the slot shape (where the field is `null`) and for
    /// baselines predating it.
    pub vehicles_per_sec: Option<f64>,
    /// Committed per-phase p50s, nanoseconds, as `(name, p50_ns)`.
    /// Empty for baselines predating phase quantiles.
    pub phase_p50: Vec<(String, u64)>,
}

/// Parses a committed `BENCH_*.json` into a [`Baseline`]. Tolerant of the
/// `/1` schema generation (pre-lifecycle metrics, `vehicles_per_sec: 0.0`
/// on the slot shape, no `phases` array): the gate compares throughput,
/// not schemas.
pub fn read_baseline(path: &str) -> Result<Baseline, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = serde::value::parse_embedded(&body).map_err(|e| format!("{path}: {e}"))?;
    let entries = v.as_map().map_err(|e| format!("{path}: {e}"))?;
    let schema = serde::value::field(entries, "schema")
        .and_then(|s| s.as_str().map(str::to_string))
        .map_err(|e| format!("{path}: {e}"))?;
    if !schema.starts_with("decos-bench-") {
        return Err(format!("{path}: not a bench report (schema {schema:?})"));
    }
    let slots_per_sec = serde::value::field(entries, "slots_per_sec")
        .and_then(|s| s.as_f64())
        .map_err(|e| format!("{path}: {e}"))?;
    // Absent (old slot schema) and `null` (new slot schema) both mean
    // "this shape has no fleet rate" — neither is an error.
    let vehicles_per_sec =
        serde::value::field(entries, "vehicles_per_sec").ok().and_then(|s| s.as_f64().ok());
    let mut phase_p50 = Vec::new();
    if let Ok(phases) = serde::value::field(entries, "phases").and_then(|p| p.as_seq()) {
        for p in phases {
            let pm = p.as_map().map_err(|e| format!("{path}: phases: {e}"))?;
            let name = serde::value::field(pm, "name")
                .and_then(|s| s.as_str().map(str::to_string))
                .map_err(|e| format!("{path}: phases: {e}"))?;
            let p50 = serde::value::field(pm, "p50_ns")
                .and_then(|s| s.as_u64())
                .map_err(|e| format!("{path}: phases: {e}"))?;
            phase_p50.push((name, p50));
        }
    }
    Ok(Baseline { schema, slots_per_sec, vehicles_per_sec, phase_p50 })
}

/// The gate predicate, kept pure so the synthetic-regression test pins
/// the exact boundary: a regression is a current rate strictly below
/// `baseline * (1 - tolerance)`. Improvements never fail.
pub fn regressed(baseline: f64, current: f64, tolerance: f64) -> bool {
    current < baseline * (1.0 - tolerance)
}

/// The per-phase latency gate predicate: a phase regresses when its
/// current p50 exceeds the committed p50 by more than one log₂ bucket
/// (×2) times `1 + tolerance.max(PHASE_TOLERANCE_FLOOR)`. The bucket of
/// headroom is not generosity — p50s *are* bucket upper bounds, so the
/// minimum possible movement is a full bucket (+100%), and the median
/// crossing one boundary under load noise must not fail the gate. Two
/// buckets (≥4×) is a real regression. A zero baseline (phase never
/// sampled in the committed run) gates nothing, and faster phases never
/// fail.
pub fn phase_regressed(baseline_ns: u64, current_ns: u64, tolerance: f64) -> bool {
    baseline_ns > 0
        && current_ns as f64
            > baseline_ns as f64 * 2.0 * (1.0 + tolerance.max(PHASE_TOLERANCE_FLOOR))
}

/// One gated phase's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseGate {
    /// Phase registry name.
    pub name: String,
    /// Committed p50, nanoseconds.
    pub baseline_p50_ns: u64,
    /// Measured p50, nanoseconds.
    pub current_p50_ns: u64,
    /// Whether the measured p50 fails the phase tolerance.
    pub regressed: bool,
}

/// The fleet-rate leg of a shape's verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehiclesGate {
    /// Committed baseline, vehicles/sec.
    pub baseline: f64,
    /// Measured rate, vehicles/sec.
    pub current: f64,
    /// Whether the measured rate fails the tolerance.
    pub regressed: bool,
}

/// One shape's gate verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateResult {
    /// Shape name (`fleet` / `slot`).
    pub name: &'static str,
    /// Committed baseline, slots/sec.
    pub baseline: f64,
    /// Measured rate, slots/sec.
    pub current: f64,
    /// Whether the measured rate fails the tolerance.
    pub regressed: bool,
    /// Whether the measured run's same-seed fingerprints agreed.
    pub deterministic: bool,
    /// Fleet throughput verdict — `None` when either side has no
    /// vehicles/sec (the slot shape, or a pre-fleet-rate baseline).
    pub vehicles: Option<VehiclesGate>,
    /// Per-phase p50 verdicts over [`GATED_PHASES`] (empty when the
    /// committed baseline predates phase quantiles).
    pub phases: Vec<PhaseGate>,
}

impl GateResult {
    /// Whether this shape passes the gate.
    pub fn passed(&self) -> bool {
        !self.regressed
            && self.deterministic
            && self.vehicles.is_none_or(|v| !v.regressed)
            && self.phases.iter().all(|p| !p.regressed)
    }

    fn of(name: &'static str, baseline: &Baseline, report: &BenchReport, tol: f64) -> Self {
        let phases = GATED_PHASES
            .iter()
            .filter_map(|gp| {
                let base = baseline.phase_p50.iter().find(|(n, _)| n == gp)?.1;
                let cur = report.phases.iter().find(|p| p.name == *gp)?.p50_ns;
                Some(PhaseGate {
                    name: gp.to_string(),
                    baseline_p50_ns: base,
                    current_p50_ns: cur,
                    regressed: phase_regressed(base, cur, tol),
                })
            })
            .collect();
        let vehicles = match (baseline.vehicles_per_sec, report.vehicles_per_sec) {
            (Some(base), Some(cur)) if base > 0.0 => Some(VehiclesGate {
                baseline: base,
                current: cur,
                regressed: regressed(base, cur, tol),
            }),
            _ => None,
        };
        GateResult {
            name,
            baseline: baseline.slots_per_sec,
            current: report.slots_per_sec,
            regressed: regressed(baseline.slots_per_sec, report.slots_per_sec, tol),
            deterministic: report.deterministic,
            vehicles,
            phases,
        }
    }
}

/// Runs both benchmark shapes at `effort` and gates them against the
/// committed baselines. Errors on unreadable baselines and on a fleet the
/// analyzer rejects; regressions are reported in the results for the
/// caller to turn into an exit code.
pub fn bench_compare(
    effort: Effort,
    tolerance: f64,
    fleet_baseline: &str,
    slot_baseline: &str,
) -> Result<Vec<GateResult>, String> {
    let fleet_base = read_baseline(fleet_baseline)?;
    let slot_base = read_baseline(slot_baseline)?;
    let fleet = bench_fleet(effort).map_err(|e| format!("fleet: {e}"))?;
    let slot = bench_slot(effort);
    Ok(vec![
        GateResult::of("fleet", &fleet_base, &fleet, tolerance),
        GateResult::of("slot", &slot_base, &slot, tolerance),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_boundary_is_ten_percent_by_default() {
        // Exactly at the boundary passes; strictly below fails.
        assert!(!regressed(1000.0, 900.0, DEFAULT_TOLERANCE));
        assert!(regressed(1000.0, 899.9, DEFAULT_TOLERANCE));
        assert!(!regressed(1000.0, 1500.0, DEFAULT_TOLERANCE), "improvements never fail");
        assert!(!regressed(1000.0, 501.0, 0.5), "wider tolerance widens the gate");
    }

    #[test]
    fn synthetic_regression_fails_the_gate() {
        // The acceptance condition: a >10% synthetic regression must
        // demonstrably fail against a committed-style baseline.
        let baseline = Baseline {
            schema: "decos-bench-slot/2".to_string(),
            slots_per_sec: 100.0,
            vehicles_per_sec: None,
            phase_p50: vec![("kernel".to_string(), 1000)],
        };
        let current = baseline.slots_per_sec * 0.85; // 15% slower
        assert!(regressed(baseline.slots_per_sec, current, DEFAULT_TOLERANCE));
    }

    #[test]
    fn phase_gate_allows_one_bucket_plus_the_floor() {
        // One log₂ bucket (×2) plus the 25% floor: ≤2.5× passes, above
        // fails, even with a tighter throughput tolerance.
        assert!(!phase_regressed(1000, 2500, DEFAULT_TOLERANCE));
        assert!(phase_regressed(1000, 2501, DEFAULT_TOLERANCE));
        // A single bucket step (p50 bound 511 → 1023) is measurement
        // noise by construction and must pass.
        assert!(!phase_regressed(511, 1023, DEFAULT_TOLERANCE));
        // Two buckets up is a real regression.
        assert!(phase_regressed(511, 2047, DEFAULT_TOLERANCE));
        // A looser CI tolerance widens the phase gate with it.
        assert!(!phase_regressed(1000, 3000, 0.5));
        assert!(phase_regressed(1000, 3001, 0.5));
        // Faster phases and unsampled baselines never fail.
        assert!(!phase_regressed(1000, 100, DEFAULT_TOLERANCE));
        assert!(!phase_regressed(0, 10_000, DEFAULT_TOLERANCE));
    }

    #[test]
    fn phase_verdicts_feed_the_shape_verdict() {
        let r = GateResult {
            name: "slot",
            baseline: 100.0,
            current: 120.0,
            regressed: false,
            deterministic: true,
            vehicles: None,
            phases: vec![PhaseGate {
                name: "kernel".to_string(),
                baseline_p50_ns: 511,
                current_p50_ns: 2047,
                regressed: true,
            }],
        };
        assert!(!r.passed(), "a phase p50 regression must fail the shape");
    }

    #[test]
    fn vehicles_rate_feeds_the_shape_verdict() {
        let mut r = GateResult {
            name: "fleet",
            baseline: 100.0,
            current: 120.0,
            regressed: false,
            deterministic: true,
            vehicles: Some(VehiclesGate { baseline: 1000.0, current: 500.0, regressed: true }),
            phases: Vec::new(),
        };
        assert!(!r.passed(), "a vehicles/sec regression must fail the fleet shape");
        r.vehicles = Some(VehiclesGate { baseline: 1000.0, current: 980.0, regressed: false });
        assert!(r.passed());
        r.vehicles = None;
        assert!(r.passed(), "shapes without a fleet rate gate only slots/sec");
    }

    #[test]
    fn baselines_parse_old_and_new_schemas() {
        let dir = std::env::temp_dir().join("decos-compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("old.json");
        std::fs::write(
            &old,
            "{\"schema\":\"decos-bench-slot/1\",\"slots_per_sec\":123.5,\"vehicles_per_sec\":0.0}",
        )
        .unwrap();
        let b = read_baseline(old.to_str().unwrap()).unwrap();
        assert_eq!(b.slots_per_sec, 123.5);
        assert!(b.phase_p50.is_empty(), "old schema carries no phase quantiles");
        let new = dir.join("new.json");
        std::fs::write(
            &new,
            "{\"schema\":\"decos-bench-slot/2\",\"slots_per_sec\":140,\"vehicles_per_sec\":null}",
        )
        .unwrap();
        let b = read_baseline(new.to_str().unwrap()).unwrap();
        assert_eq!(b.slots_per_sec, 140.0);
        let phased = dir.join("phased.json");
        std::fs::write(
            &phased,
            "{\"schema\":\"decos-bench-slot/2\",\"slots_per_sec\":140,\"vehicles_per_sec\":null,\
             \"phases\":[{\"name\":\"kernel\",\"p50_ns\":511},{\"name\":\"ttnet\",\"p50_ns\":255}]}",
        )
        .unwrap();
        let b = read_baseline(phased.to_str().unwrap()).unwrap();
        assert_eq!(b.phase_p50, vec![("kernel".to_string(), 511), ("ttnet".to_string(), 255)]);
        let junk = dir.join("junk.json");
        std::fs::write(&junk, "{\"schema\":\"decos-trace-round/1\"}").unwrap();
        assert!(read_baseline(junk.to_str().unwrap()).is_err());
    }
}
