//! Per-layer attribution from outside the program.
//!
//! The replica re-drives one vehicle's pipeline through the layers' public
//! calls, in the order `decos::fleet` runs it with telemetry off, and reads
//! the clock between consecutive calls. Every interval between two clock
//! reads is charged to exactly one bucket, so the buckets of a thread add up
//! to its traced time; the calibrated cost of one clock read is subtracted
//! from every interval. Time in the replica's own code between calls lands
//! in [`Bucket::Glue`], the only bucket no layer owns.

use decos::analyzer::{analyze, ExperimentSpec};
use decos::diagnosis::{score_case, DiagnosticEngine, EngineParams, ObdDiagnosis, ObdParams};
use decos::faults::{FaultEnvironment, FruRef, MaintenanceAction};
use decos::fleet::{
    FleetAccumulator, FleetConfig, FleetOutcome, FleetRetention, VehicleOutcome, FLEET_BLOCK,
};
use decos::fleet_exec::run_sharded;
use decos::platform::{ClusterSim, ClusterSpec, NodeId, SlotObserver, SlotRecord};
use decos::runner::Campaign;
use decos::sim::rng::{splitmix64, SeedSource};
use std::time::Instant;

/// Where an interval between two clock reads is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// The replica's own code between calls.
    Glue,
    /// `faults`: `sample_mixed_fault`.
    Sample,
    /// `analyzer`: the per-vehicle `Campaign::analyze`.
    Preflight,
    /// `platform`: `ClusterSim::new`, and dropping the simulation.
    PlatformBuild,
    /// `faults`: `FaultEnvironment::for_cluster`, and dropping it.
    EnvBuild,
    /// `diagnosis`: engine and OBD construction, and dropping both.
    DiagBuild,
    /// `platform`: `step_round_with` outside its per-slot sink.
    Platform,
    /// `diagnosis`: engine `on_slot` on a slot that does not close a round.
    EngineSlot,
    /// `diagnosis`: engine `on_slot` on a round's last slot (it closes the
    /// round: delivery, state, ONA, trust).
    EngineRoundSlot,
    /// `diagnosis`: the OBD baseline's `on_slot`.
    Obd,
    /// `diagnosis`: `DiagnosticEngine::report` and `ObdDiagnosis::report`.
    Report,
    /// `diagnosis`: `score_case` for both diagnoses.
    Score,
    /// `fleet`: `FleetAccumulator::new` and `record`.
    Record,
    /// `fleet_exec`: between index blocks of one shard.
    Dispatch,
}

const BUCKETS: usize = Bucket::Dispatch as usize + 1;

/// A lap clock: each [`Tracer::lap`] charges the time since the previous
/// lap, less one calibrated clock read, to a bucket.
pub struct Tracer {
    last: Instant,
    clock_ns: f64,
    ns: [f64; BUCKETS],
    laps: [u64; BUCKETS],
    /// Sum of every charged interval (the running traced time).
    elapsed: f64,
}

impl Tracer {
    pub fn new(clock_ns: f64) -> Self {
        Tracer {
            last: Instant::now(),
            clock_ns,
            ns: [0.0; BUCKETS],
            laps: [0; BUCKETS],
            elapsed: 0.0,
        }
    }

    #[inline(always)]
    pub fn lap(&mut self, b: Bucket) {
        let now = Instant::now();
        let d = now.duration_since(self.last).as_nanos() as f64 - self.clock_ns;
        self.last = now;
        self.ns[b as usize] += d;
        self.elapsed += d;
        self.laps[b as usize] += 1;
    }

    /// Uncalibrated time charged to `b`: its intervals with their clock
    /// reads put back.
    fn raw_ns(&self, b: Bucket) -> f64 {
        self.ns[b as usize] + self.laps[b as usize] as f64 * self.clock_ns
    }

    fn total_laps(&self) -> u64 {
        self.laps.iter().sum()
    }
}

/// Time since `t`, less one clock read.
fn span_ns(t: Instant, clock_ns: f64) -> f64 {
    t.elapsed().as_nanos() as f64 - clock_ns
}

/// Cost of one [`Tracer::lap`] with nothing between laps: the median over
/// several bursts of empty laps.
pub fn calibrate_clock_ns() -> f64 {
    const LAPS: u32 = 200_000;
    let mut bursts: Vec<f64> = (0..7)
        .map(|_| {
            let mut t = Tracer::new(0.0);
            let start = Instant::now();
            for _ in 0..LAPS {
                t.lap(std::hint::black_box(Bucket::Glue));
            }
            std::hint::black_box(t.elapsed);
            start.elapsed().as_nanos() as f64 / f64::from(LAPS)
        })
        .collect();
    crate::median(&mut bursts)
}

/// One replicated vehicle: its scored outcome plus what the per-vehicle
/// check against `run_campaign_opts` compares.
pub struct VehicleRun {
    pub outcome: VehicleOutcome,
    pub actions: Vec<(FruRef, MaintenanceAction)>,
    pub obd_replacements: Vec<NodeId>,
    pub symptoms: u64,
    pub ona_matches: u64,
}

/// Replays vehicle `index` of a fleet through the layers' public calls,
/// charging each call to its bucket. Mirrors `decos::fleet` with telemetry
/// and the flight recorder off and no fleet-wide base faults.
pub fn traced_vehicle(
    t: &mut Tracer,
    spec: &ClusterSpec,
    cfg: FleetConfig,
    index: u64,
    params: EngineParams,
) -> Result<VehicleRun, String> {
    let seeds = SeedSource::new(cfg.seed);
    t.lap(Bucket::Glue);
    let (vspec, faults) = decos::faults::campaign::sample_mixed_fault(spec, seeds, index);
    t.lap(Bucket::Sample);
    let truth_fru = faults[0].target;
    let truth_class = faults[0].class();
    let c = Campaign {
        spec: vspec,
        faults,
        accel: cfg.accel,
        rounds: cfg.rounds,
        seed: seeds.child(index).master(),
    };
    t.lap(Bucket::Glue);
    let analysis = c.analyze(&params);
    t.lap(Bucket::Preflight);
    if analysis.has_errors() {
        return Err(format!("vehicle {index} rejected by its pre-flight:\n{analysis}"));
    }
    let mut sim = ClusterSim::new(c.spec.clone(), c.seed).map_err(|e| format!("{e:?}"))?;
    sim.force_legacy_path(false);
    t.lap(Bucket::PlatformBuild);
    let mut env = FaultEnvironment::for_cluster(
        c.faults.clone(),
        &c.spec,
        c.accel,
        SeedSource::new(c.seed).child(1),
    );
    t.lap(Bucket::EnvBuild);
    let mut engine = DiagnosticEngine::try_new(&sim, params).map_err(|e| format!("{e:?}"))?;
    let mut diag_seed = c.seed ^ 0xD1A6_0000_0000_0000;
    engine.reseed_diag(splitmix64(&mut diag_seed));
    let mut obd = ObdDiagnosis::new(&sim, ObdParams::default());
    t.lap(Bucket::DiagBuild);
    let spr = sim.schedule().slots_per_round();
    let mut rec = SlotRecord::empty();
    for _ in 0..c.rounds {
        sim.step_round_with(&mut env, &mut rec, &mut |sim, env, rec| {
            t.lap(Bucket::Platform);
            let closes_round = rec.addr.slot.0 == spr - 1;
            engine.inject_disturbance(env.diag_disturbance());
            engine.on_slot(sim, rec);
            if closes_round {
                engine.on_round_end(sim, rec);
                t.lap(Bucket::EngineRoundSlot);
            } else {
                t.lap(Bucket::EngineSlot);
            }
            obd.on_slot(sim, rec);
            if closes_round {
                obd.on_round_end(sim, rec);
            }
            t.lap(Bucket::Obd);
        });
        t.lap(Bucket::Platform);
    }
    let report = engine.report();
    let obd_report = obd.report(sim.now());
    t.lap(Bucket::Report);
    let actions = report.actions();
    let obd_actions: Vec<(FruRef, MaintenanceAction)> = obd_report
        .replacements
        .iter()
        .map(|n| (FruRef::Component(*n), MaintenanceAction::ReplaceComponent))
        .collect();
    let outcome = VehicleOutcome {
        truth_class,
        truth_fru,
        decos_class: report.verdict_of(truth_fru).and_then(|v| v.class),
        decos: score_case(truth_fru, truth_class, &actions),
        obd: score_case(truth_fru, truth_class, &obd_actions),
        delivery_quality: report.delivery_quality,
        degraded: report.degraded,
        failovers: report.failovers,
        crashed_rounds: report.crashed_rounds,
    };
    t.lap(Bucket::Score);
    let symptoms = engine.dissemination_stats().offered;
    let ona_matches = engine.ona_matches();
    t.lap(Bucket::Glue);
    // Teardown is part of each layer's per-vehicle cost.
    drop(sim);
    t.lap(Bucket::PlatformBuild);
    drop(env);
    t.lap(Bucket::EnvBuild);
    drop((engine, obd, report));
    t.lap(Bucket::DiagBuild);
    Ok(VehicleRun {
        outcome,
        actions,
        obd_replacements: obd_report.replacements,
        symptoms,
        ona_matches,
    })
}

/// One executor shard of the traced fleet.
struct Shard {
    acc: FleetAccumulator,
    t: Tracer,
    vehicle_ns: Vec<f32>,
    symptoms: u64,
    ona_matches: u64,
    error: Option<String>,
}

/// Per-bucket totals of a traced fleet, with the executor and main-thread
/// figures that only exist at fleet scope.
#[derive(Debug, Clone, Default)]
pub struct FleetTrace {
    pub ns: [f64; BUCKETS],
    pub laps: u64,
    pub vehicles: u64,
    pub slots: u64,
    pub rounds: u64,
    pub symptoms: u64,
    pub ona_matches: u64,
    pub vehicle_ns: Vec<f32>,
    /// `fleet_exec`: shard-time not spent inside blocks (dispatch, thread
    /// start, idle tail until the slowest shard ends), less clock reads.
    pub exec_ns: f64,
    pub base_preflight_ns: f64,
    pub merge_ns: f64,
    pub finish_ns: f64,
    /// Shards × `run_sharded` wall plus the main-thread spans, less the
    /// calibrated clock reads.
    pub thread_ns: f64,
    /// Wall time of the whole traced fleet call.
    pub wall_ns: f64,
    /// Block work ÷ (shards × `run_sharded` wall).
    pub busy_share: f64,
    /// Busiest shard's block work ÷ the mean shard's.
    pub imbalance: f64,
}

impl FleetTrace {
    pub fn bucket(&self, b: Bucket) -> f64 {
        self.ns[b as usize]
    }

    /// Everything charged to a layer (all but [`Bucket::Glue`]), with the
    /// clock reads already taken out.
    pub fn attributed_ns(&self) -> f64 {
        let layers: f64 = self.ns.iter().sum::<f64>() - self.bucket(Bucket::Glue);
        layers + self.exec_ns + self.base_preflight_ns + self.merge_ns + self.finish_ns
    }
}

/// The fleet's base experiment (spec, no base faults, engine parameters)
/// that `run_fleet_configured` analyzes before any vehicle.
pub fn base_experiment(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    params: EngineParams,
) -> ExperimentSpec<'_> {
    let mut base = ExperimentSpec::with_campaign(spec, &[], cfg.accel, cfg.rounds);
    base.ona = params.ona;
    base.trust = params.trust;
    base.advisor = params.advisor;
    base
}

/// The traced replica of `run_fleet_configured` (no base faults, telemetry
/// off): base pre-flight, `run_sharded` over `FLEET_BLOCK` blocks with a
/// timed work closure, shard merges in shard order, then `finish`.
pub fn traced_fleet(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    params: EngineParams,
    shards: usize,
    slots_per_round: u64,
    clock_ns: f64,
) -> Result<(FleetOutcome, FleetTrace), String> {
    let start = Instant::now();
    let report = analyze(&base_experiment(spec, cfg, params));
    let base_preflight_ns = span_ns(start, clock_ns);
    if report.has_errors() {
        return Err(format!("base experiment rejected:\n{report}"));
    }
    let sharded = Instant::now();
    let parts = run_sharded(
        cfg.vehicles,
        FLEET_BLOCK,
        shards,
        || {
            let mut t = Tracer::new(clock_ns);
            let acc = FleetAccumulator::new(cfg.vehicles, FleetRetention::Auto);
            t.lap(Bucket::Record);
            Shard { acc, t, vehicle_ns: Vec::new(), symptoms: 0, ona_matches: 0, error: None }
        },
        |sh, range| {
            sh.t.lap(Bucket::Dispatch);
            for v in range {
                if sh.error.is_some() {
                    return;
                }
                let before = sh.t.elapsed;
                match traced_vehicle(&mut sh.t, spec, cfg, v, params) {
                    Ok(run) => {
                        sh.acc.record(v, run.outcome, None);
                        sh.t.lap(Bucket::Record);
                        sh.vehicle_ns.push((sh.t.elapsed - before) as f32);
                        sh.symptoms += run.symptoms;
                        sh.ona_matches += run.ona_matches;
                    }
                    Err(e) => sh.error = Some(e),
                }
            }
        },
    );
    let sharded_ns = span_ns(sharded, clock_ns);
    let mut tr = FleetTrace { base_preflight_ns, ..FleetTrace::default() };
    let mut busy = Vec::with_capacity(parts.len());
    let mut dispatch_raw = 0.0;
    let mut accs = Vec::with_capacity(parts.len());
    for sh in parts {
        if let Some(e) = sh.error {
            return Err(e);
        }
        for (i, ns) in sh.t.ns.iter().enumerate() {
            tr.ns[i] += ns;
        }
        tr.laps += sh.t.total_laps();
        dispatch_raw += sh.t.raw_ns(Bucket::Dispatch);
        // Block work, clock reads included: they are spent inside blocks.
        busy.push(
            sh.t.elapsed + sh.t.total_laps() as f64 * clock_ns - sh.t.raw_ns(Bucket::Dispatch),
        );
        tr.symptoms += sh.symptoms;
        tr.ona_matches += sh.ona_matches;
        tr.vehicle_ns.extend(sh.vehicle_ns);
        accs.push(sh.acc);
    }
    // The executor owns the shard time outside blocks, clock reads aside.
    let n_shards = busy.len() as f64;
    let busy_total: f64 = busy.iter().sum();
    let shard_time = n_shards * sharded_ns;
    tr.exec_ns = shard_time - busy_total - (dispatch_raw - tr.bucket(Bucket::Dispatch));
    tr.ns[Bucket::Dispatch as usize] = 0.0;
    tr.busy_share = busy_total / shard_time;
    tr.imbalance = busy.iter().copied().fold(0.0, f64::max) / (busy_total / n_shards);
    let merge = Instant::now();
    let mut accs = accs.into_iter();
    let mut acc = accs.next().ok_or("run_sharded returned no shard")?;
    for part in accs {
        acc.merge(part);
    }
    tr.merge_ns = span_ns(merge, clock_ns);
    let finish = Instant::now();
    let out = acc.finish();
    tr.finish_ns = span_ns(finish, clock_ns);
    tr.wall_ns = start.elapsed().as_nanos() as f64;
    tr.thread_ns =
        shard_time - tr.laps as f64 * clock_ns + base_preflight_ns + tr.merge_ns + tr.finish_ns;
    tr.vehicles = cfg.vehicles;
    tr.rounds = cfg.vehicles * cfg.rounds;
    tr.slots = tr.rounds * slots_per_round;
    Ok((out, tr))
}
