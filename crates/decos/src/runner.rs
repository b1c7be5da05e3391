//! Campaign runner — one vehicle, one fault scenario, both diagnoses.
//!
//! A [`Campaign`] bundles a cluster specification, the faults to inject,
//! the rate acceleration and the horizon; [`run_campaign`] executes it with
//! the integrated diagnostic engine *and* the federated OBD baseline
//! observing the same slot records, so every experiment compares like for
//! like.

use decos_analyzer::{analyze, AnalysisReport, ExperimentSpec};
use decos_diagnosis::{
    DiagnosticEngine, DiagnosticReport, DisseminationStats, EngineParams, ObdDiagnosis, ObdParams,
    ObdReport,
};
use decos_faults::{FaultEnvironment, FaultSpec, FruRef};
use decos_platform::{ClusterSim, ClusterSpec, SlotObserver, SlotRecord, SpecError};
use decos_sim::flightrec::{self, FaultLifecycle, FlightRecording, NO_COMPONENT};
use decos_sim::rng::SeedSource;
use decos_sim::telemetry::{Counter, CounterSet, Gauge, GaugeSet, TelemetrySnapshot};
use decos_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Why a campaign refused to run.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The cluster specification is structurally broken.
    Spec(SpecError),
    /// The static analyzer found error-severity diagnostics; the full
    /// report (errors, warnings and notes) is attached.
    Rejected(AnalysisReport),
}

impl core::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "invalid cluster specification: {e:?}"),
            CampaignError::Rejected(report) => {
                write!(f, "experiment rejected by static analysis:\n{report}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> Self {
        CampaignError::Spec(e)
    }
}

/// A complete scenario description.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The cluster (possibly carrying configuration defects).
    pub spec: ClusterSpec,
    /// Faults to inject.
    pub faults: Vec<FaultSpec>,
    /// Rate acceleration factor for episodic faults.
    pub accel: f64,
    /// Horizon in TDMA rounds.
    pub rounds: u64,
    /// Master seed (cluster, workload and injection streams derive from
    /// it).
    pub seed: u64,
}

impl Campaign {
    /// A campaign over the Fig. 10 reference cluster.
    pub fn reference(faults: Vec<FaultSpec>, accel: f64, rounds: u64, seed: u64) -> Self {
        Campaign { spec: decos_platform::fig10::reference_spec(), faults, accel, rounds, seed }
    }

    /// Statically analyzes this campaign under the given engine parameters.
    ///
    /// Every `run_campaign*` entry point calls this and refuses to simulate
    /// when the report carries error-severity diagnostics; call it directly
    /// to inspect warnings and notes of a runnable experiment.
    pub fn analyze(&self, params: &EngineParams) -> AnalysisReport {
        let mut exp =
            ExperimentSpec::with_campaign(&self.spec, &self.faults, self.accel, self.rounds);
        exp.ona = params.ona;
        exp.trust = params.trust;
        exp.advisor = params.advisor;
        analyze(&exp)
    }
}

/// Everything a campaign produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// The integrated diagnosis report.
    pub report: DiagnosticReport,
    /// The OBD baseline's workshop decision.
    pub obd: ObdReport,
    /// Diagnostic-network delivery statistics.
    pub dissemination: DisseminationStats,
    /// The injected ground truth.
    pub injected: Vec<FaultSpec>,
    /// Ground-truth manifestation episodes observed.
    pub episodes: usize,
    /// Simulated horizon in seconds.
    pub sim_seconds: f64,
    /// Pipeline telemetry ([`RunOptions::telemetry`]); `None` when off.
    /// Counters and gauges are deterministic per seed; phase timings are
    /// wall-clock and excluded from the determinism contract.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Per-fault lifecycle records — onset→first-symptom, onset→first-ONA,
    /// onset→conviction latencies in rounds plus FRU attribution. Present
    /// when either [`RunOptions::telemetry`] or [`RunOptions::flightrec`]
    /// is on; fully deterministic per seed.
    pub lifecycle: Option<FaultLifecycle>,
    /// The retained flight-recorder event ring
    /// ([`RunOptions::flightrec`]); `None` when off. Deterministic per
    /// seed.
    pub trace: Option<FlightRecording>,
}

/// Optional behaviours of a campaign run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Collect registry-keyed counters and per-phase wall-time spans over
    /// the whole slot pipeline and attach a [`TelemetrySnapshot`] to the
    /// outcome. Off by default: uninstrumented runs never read the wall
    /// clock and the steady-state loop stays allocation-free.
    pub telemetry: bool,
    /// Record the fault-lifecycle event trace into a bounded ring and
    /// attach a [`FlightRecording`] to the outcome. Off by default; when
    /// on, the ring is preallocated once and steady-state recording stays
    /// allocation-free. Telemetry alone already runs the (ring-less)
    /// lifecycle fold for the latency metrics.
    pub flightrec: bool,
    /// Route every slot through the legacy per-slot simulation body,
    /// ignoring the environment's quiescence/disturbance hints (see
    /// [`ClusterSim::force_legacy_path`]). The outcome is bit-identical by
    /// contract; equivalence tests pin that contract with this switch.
    pub legacy_paths: bool,
    /// Escalate the analyzer's DA080-series diagnosability verdicts from
    /// warnings to rejection: refuse to simulate a campaign whose fault
    /// hypotheses are observation-equivalent (DA080), invisible to the ONA
    /// bank (DA081), or unconvictable within the horizon (DA082). Off by
    /// default — such campaigns still measure something (often
    /// deliberately); opt in when the experiment's claim *is* the pinned
    /// FRU.
    pub deny_diagnosability: bool,
}

/// Runs a campaign with default engine parameters and options.
pub fn run_campaign(c: &Campaign) -> Result<CampaignOutcome, CampaignError> {
    run_campaign_opts(c, EngineParams::default(), RunOptions::default(), &mut [], |_, _, _| {})
}

/// Runs a campaign with explicit engine parameters (ablations, tuning),
/// [`RunOptions`] and observers.
///
/// The integrated engine and the OBD baseline are always present (they
/// produce the [`CampaignOutcome`]); `extras` — metrics recorders, probes,
/// custom accumulators — see every record right after them, in order.
/// `observe` then sees the cluster, the engine and the slot record (for
/// trajectory sampling and custom instrumentation). Records are a *reused
/// buffer*: observers must copy anything they keep.
pub fn run_campaign_opts(
    c: &Campaign,
    params: EngineParams,
    opts: RunOptions,
    extras: &mut [&mut dyn SlotObserver],
    mut observe: impl FnMut(&ClusterSim, &DiagnosticEngine, &SlotRecord),
) -> Result<CampaignOutcome, CampaignError> {
    // Static model check first: refuse to simulate an experiment whose
    // outcome would be structurally meaningless (or would crash mid-run).
    let analysis = c.analyze(&params);
    if analysis.has_errors() {
        return Err(CampaignError::Rejected(analysis));
    }
    // The diagnosability verdicts are warnings by default; the caller can
    // harden the gate when the experiment stands on distinguishable faults.
    if opts.deny_diagnosability && analysis.diagnostics.iter().any(|d| d.code.is_diagnosability()) {
        return Err(CampaignError::Rejected(analysis));
    }
    let mut sim = ClusterSim::new(c.spec.clone(), c.seed)?;
    let mut env = FaultEnvironment::for_cluster(
        c.faults.clone(),
        &c.spec,
        c.accel,
        SeedSource::new(c.seed).child(1),
    );
    let mut engine = DiagnosticEngine::try_new(&sim, params)?;
    // Decorrelate the diagnostic path's transit randomness from the
    // workload/injection streams (and between fleet vehicles).
    let mut diag_seed = c.seed ^ 0xD1A6_0000_0000_0000;
    engine.reseed_diag(decos_sim::rng::splitmix64(&mut diag_seed));
    let mut obd = ObdDiagnosis::new(&sim, ObdParams::default());
    if opts.telemetry {
        sim.enable_telemetry();
        engine.enable_telemetry();
    }
    // The lifecycle fold runs whenever latency metrics are wanted
    // (telemetry) or events are kept (flightrec); the ring itself is only
    // paid for under `flightrec`.
    let lifecycle_on = opts.telemetry || opts.flightrec;
    if lifecycle_on {
        engine.enable_flightrec(if opts.flightrec { flightrec::DEFAULT_CAPACITY } else { 0 });
        for f in &c.faults {
            let comp = match f.target {
                FruRef::Component(n) => n.0,
                FruRef::Job(j) => {
                    c.spec.jobs.iter().find(|js| js.id == j).map_or(NO_COMPONENT, |js| js.host.0)
                }
            };
            engine.flightrec_mut().register_fault(f.id, comp, f.kind.is_diag_path());
        }
    }
    // Ground-truth watchers for fault-injected/cleared events: continuous
    // kinds fire once at onset; episodic kinds follow the environment's
    // activation windows (cleared on expiry, re-injected per episode).
    let mut pending_continuous: Vec<(u32, SimTime)> = if lifecycle_on {
        c.faults.iter().filter(|f| !f.kind.is_episodic()).map(|f| (f.id, f.onset)).collect()
    } else {
        Vec::new()
    };
    let mut active_windows: Vec<(u32, SimTime)> = Vec::new();
    let mut seen_windows = 0usize;

    // Runtime mirrors of the statically checked invariants (debug builds
    // only): the records the observers consume must agree with the model
    // the analyzer approved.
    #[cfg(debug_assertions)]
    let deployed_ids: Vec<decos_vnet::VnetId> =
        c.spec.deployed_vnets().iter().map(|v| v.id).collect();
    let n_components = c.spec.n_components();

    sim.force_legacy_path(opts.legacy_paths);
    let spr = sim.schedule().slots_per_round();
    let slots = c.rounds * spr as u64;
    let mut rec = SlotRecord::empty();
    // Round-batched dispatch: the cluster drives a whole precomputed round
    // per call (probing the environment once for quiescence) and feeds
    // every record to this per-slot observer chain. The environment comes
    // back through the sink so the diagnostic-path bridge below sees the
    // state `begin_slot` just established.
    for _ in 0..c.rounds {
        sim.step_round_with(&mut env, &mut rec, &mut |sim, env, rec| {
            debug_assert_eq!(
                rec.observations.len(),
                n_components,
                "slot record must carry one observation per component"
            );
            debug_assert_eq!(
                rec.owner,
                sim.schedule().owner(rec.addr.slot),
                "slot ownership must follow the analyzed TDMA table"
            );
            #[cfg(debug_assertions)]
            debug_assert!(
                rec.sent.iter().all(|(v, _)| deployed_ids.contains(v)),
                "transmitted segments must belong to deployed vnets"
            );
            if lifecycle_on {
                let (round, slot) = (rec.addr.round, rec.addr.slot.0);
                let mut i = 0;
                while i < pending_continuous.len() {
                    if rec.start >= pending_continuous[i].1 {
                        engine.flightrec_mut().fault_injected(pending_continuous[i].0, round, slot);
                        pending_continuous.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
                // Expire before scanning for new windows, so a same-slot
                // re-activation is recorded cleared-then-injected.
                let mut i = 0;
                while i < active_windows.len() {
                    if rec.start >= active_windows[i].1 {
                        engine.flightrec_mut().fault_cleared(active_windows[i].0, round, slot);
                        active_windows.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
                while seen_windows < env.log().windows.len() {
                    let w = env.log().windows[seen_windows];
                    seen_windows += 1;
                    engine.flightrec_mut().fault_injected(w.fault_id, round, slot);
                    if w.until < SimTime::MAX {
                        active_windows.push((w.fault_id, w.until));
                    }
                }
            }
            // The diagnostic path is itself subject to the fault model:
            // bridge the environment's active path disturbance into the
            // engine.
            engine.inject_disturbance(env.diag_disturbance());
            engine.on_slot(sim, rec);
            obd.on_slot(sim, rec);
            for ex in extras.iter_mut() {
                ex.on_slot(sim, rec);
            }
            if rec.addr.slot.0 == spr - 1 {
                engine.on_round_end(sim, rec);
                obd.on_round_end(sim, rec);
                for ex in extras.iter_mut() {
                    ex.on_round_end(sim, rec);
                }
            }
            observe(sim, &engine, rec);
        });
    }
    let end = sim.now();
    let report = engine.report();
    let lifecycle = lifecycle_on.then(|| engine.flightrec().lifecycle());
    let trace = opts.flightrec.then(|| engine.flightrec().recording());
    let telemetry = opts
        .telemetry
        .then(|| assemble_telemetry(&sim, &engine, &report, c.rounds, slots, lifecycle.as_ref()));
    Ok(CampaignOutcome {
        obd: obd.report(end),
        dissemination: engine.dissemination_stats(),
        injected: c.faults.clone(),
        episodes: env.log().windows.len(),
        sim_seconds: end.as_secs_f64(),
        telemetry,
        lifecycle,
        trace,
        report,
    })
}

/// Builds the campaign-level [`TelemetrySnapshot`]: the full counter
/// registry filled from the engine's authoritative statistics, quality as
/// a gauge, and the merged simulation + diagnosis phase spans.
fn assemble_telemetry(
    sim: &ClusterSim,
    engine: &DiagnosticEngine,
    report: &DiagnosticReport,
    rounds: u64,
    slots: u64,
    lifecycle: Option<&FaultLifecycle>,
) -> TelemetrySnapshot {
    let stats = engine.dissemination_stats();
    let mut counters = CounterSet::new();
    counters.set(Counter::SlotsSimulated, slots);
    counters.set(Counter::RoundsSimulated, rounds);
    counters.set(Counter::SymptomsOffered, stats.offered);
    counters.set(Counter::SymptomsDelivered, stats.delivered);
    counters.set(Counter::SymptomsDropped, stats.dropped);
    counters.set(Counter::FramesCorrupted, stats.corrupted);
    counters.set(Counter::FramesRejected, stats.rejected);
    counters.set(Counter::FramesDelayed, stats.delayed);
    counters.set(Counter::FramesForgedSuspected, stats.forged_suspected);
    counters.set(Counter::OnaMatches, engine.ona_matches());
    counters.set(Counter::TrustFrozenRounds, engine.frozen_rounds());
    counters.set(Counter::Failovers, u64::from(engine.failovers()));
    counters.set(Counter::CrashedRounds, engine.crashed_rounds());
    counters.set(Counter::Vehicles, 1);
    counters.set(Counter::DegradedVehicles, u64::from(report.degraded));
    let mut gauges = GaugeSet::new();
    gauges.set(Gauge::DeliveryQuality, report.delivery_quality);
    if let Some(lc) = lifecycle {
        counters.set(Counter::FaultsInjected, lc.faults_injected());
        counters.set(Counter::FaultsDetected, lc.faults_detected());
        counters.set(Counter::FaultsConvicted, lc.faults_convicted());
        counters.set(Counter::WrongFruConvictions, lc.wrong_fru_convictions);
        counters.set(Counter::DetectLatencyRounds, lc.detect_latency_total());
        counters.set(Counter::ConvictLatencyRounds, lc.convict_latency_total());
        gauges.set(Gauge::DetectLatency, lc.mean_detect_latency());
        gauges.set(Gauge::ConvictLatency, lc.mean_convict_latency());
    }
    let mut spans = *sim.telemetry_spans();
    spans.merge(engine.telemetry_spans());
    TelemetrySnapshot::assemble(&counters, &gauges, &spans)
}

/// Per-FRU trust trajectory: `(seconds, trust)` samples per sampled FRU.
pub type TrustSeries = Vec<(FruRef, Vec<(f64, f64)>)>;

/// Samples the trust trajectory of selected FRUs every `every_rounds`
/// rounds. Returns, per FRU, the series of (seconds, trust).
pub fn trust_trajectories(
    c: &Campaign,
    frus: &[FruRef],
    every_rounds: u64,
) -> Result<TrustSeries, CampaignError> {
    let mut series: TrustSeries = frus.iter().map(|f| (*f, Vec::new())).collect();
    run_campaign_opts(
        c,
        EngineParams::default(),
        RunOptions::default(),
        &mut [],
        |sim, engine, rec| {
            // Sample on the last slot of every `every_rounds`-th round. The
            // cadence must come from the schedule, not the component count —
            // the two only coincide on clusters with one slot per component.
            let spr = sim.schedule().slots_per_round();
            if rec.addr.slot.0 == spr - 1 && (rec.addr.round + 1) % every_rounds == 0 {
                for (fru, s) in series.iter_mut() {
                    s.push((rec.start.as_secs_f64(), engine.trust_of(*fru)));
                }
            }
        },
    )?;
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_platform::fig10;
    use decos_platform::NodeId;

    #[test]
    fn campaign_runs_end_to_end() {
        let c = Campaign::reference(
            decos_faults::campaign::connector_campaign(NodeId(2), 2000.0),
            10.0,
            1000,
            5,
        );
        let out = run_campaign(&c).unwrap();
        assert!(out.episodes > 0);
        assert!(out.sim_seconds > 3.9);
        assert!(out.dissemination.offered > 0);
        assert!(!out.report.verdicts.is_empty());
    }

    #[test]
    fn campaign_is_deterministic() {
        let c = Campaign::reference(
            decos_faults::campaign::wearout_campaign(NodeId(1), 500.0, 100_000.0),
            1.0,
            800,
            9,
        );
        let a = run_campaign(&c).unwrap();
        let b = run_campaign(&c).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.obd, b.obd);
        assert_eq!(a.episodes, b.episodes);
    }

    #[test]
    fn extra_observers_ride_along_without_changing_the_outcome() {
        use decos_platform::SlotMetrics;
        let c = Campaign::reference(
            decos_faults::campaign::connector_campaign(NodeId(2), 2000.0),
            10.0,
            300,
            5,
        );
        let mut metrics = SlotMetrics::new();
        let opts = RunOptions::default();
        let out =
            run_campaign_opts(&c, EngineParams::default(), opts, &mut [&mut metrics], |_, _, _| {})
                .unwrap();
        let spr =
            ClusterSim::new(c.spec.clone(), c.seed).unwrap().schedule().slots_per_round() as u64;
        assert_eq!(metrics.slots, c.rounds * spr);
        assert_eq!(metrics.rounds, c.rounds, "on_round_end reaches the extras");
        let plain = run_campaign(&c).unwrap();
        assert_eq!(out.report, plain.report);
        assert_eq!(out.obd, plain.obd);
    }

    #[test]
    fn analyzer_gate_refuses_broken_campaigns() {
        use decos_analyzer::DiagCode;
        use decos_faults::FaultKind;
        use decos_sim::time::SimTime;
        // A fault aimed at a component that does not exist would panic the
        // fault environment mid-run; the gate must reject it up front with
        // the full analysis attached.
        let c = Campaign::reference(
            vec![decos_faults::FaultSpec {
                id: 1,
                kind: FaultKind::CosmicRaySeu { rate_per_hour: 100.0 },
                target: FruRef::Component(NodeId(99)),
                onset: SimTime::ZERO,
            }],
            1.0,
            100,
            7,
        );
        match run_campaign(&c) {
            Err(CampaignError::Rejected(report)) => {
                assert!(report.contains(DiagCode::UnknownFaultTarget), "{report}");
                assert!(report.has_errors());
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn deny_diagnosability_escalates_da080_warnings() {
        use decos_analyzer::DiagCode;
        use decos_faults::FaultKind;
        use decos_sim::time::SimTime;
        // A recurring environmental disturbance and a residual IC defect at
        // the same component are observation-equivalent: DA080 at warning
        // level, so the default gate lets the campaign run…
        let ambiguous = Campaign::reference(
            vec![
                decos_faults::FaultSpec {
                    id: 1,
                    kind: FaultKind::CosmicRaySeu { rate_per_hour: 20_000.0 },
                    target: FruRef::Component(NodeId(1)),
                    onset: SimTime::ZERO,
                },
                decos_faults::FaultSpec {
                    id: 2,
                    kind: FaultKind::IcTransient { rate_per_hour: 20_000.0, duration_ms: 4.0 },
                    target: FruRef::Component(NodeId(1)),
                    onset: SimTime::ZERO,
                },
            ],
            10.0,
            400,
            11,
        );
        let analysis = ambiguous.analyze(&EngineParams::default());
        assert!(analysis.contains(DiagCode::FaultPairIndistinguishable), "{analysis}");
        assert!(!analysis.has_errors(), "diagnosability verdicts stay warnings: {analysis}");
        assert!(run_campaign(&ambiguous).is_ok(), "default gate must not reject");
        // …while the hardened gate refuses it, attaching the full report.
        let opts = RunOptions { deny_diagnosability: true, ..RunOptions::default() };
        match run_campaign_opts(&ambiguous, EngineParams::default(), opts, &mut [], |_, _, _| {}) {
            Err(CampaignError::Rejected(report)) => {
                assert!(report.contains(DiagCode::FaultPairIndistinguishable), "{report}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // A distinguishable campaign passes the hardened gate untouched.
        let clean = Campaign::reference(
            decos_faults::campaign::connector_campaign(NodeId(2), 2000.0),
            10.0,
            400,
            11,
        );
        assert!(
            run_campaign_opts(&clean, EngineParams::default(), opts, &mut [], |_, _, _| {}).is_ok()
        );
    }

    #[test]
    fn trajectories_are_sampled() {
        let c = Campaign::reference(vec![], 1.0, 200, 3);
        let frus = [FruRef::Component(NodeId(0)), FruRef::Job(fig10::jobs::A1)];
        let series = trust_trajectories(&c, &frus, 10).unwrap();
        assert_eq!(series.len(), 2);
        assert!(series[0].1.len() >= 19);
        assert!(series[0].1.iter().all(|&(_, t)| t == 1.0), "healthy FRU stays at 1.0");
    }
}
