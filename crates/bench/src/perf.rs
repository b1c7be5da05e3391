//! Performance sinks for the telemetry layer: `BENCH_*.json` emitters and
//! the per-round JSONL trace writer.
//!
//! Two benchmark shapes track the repo's perf trajectory:
//!
//! * [`bench_fleet`] — the sharded streaming fleet executor end to end
//!   (vehicles/sec, slots/sec, per-shard-count scaling), written to
//!   `BENCH_fleet.json`. The headline workload is a million short
//!   vehicles ([`FLEET_BENCH_ROUNDS`] rounds each): fleet *throughput*
//!   is the claim, per-vehicle depth is the slot shape's job;
//! * [`bench_slot`] — a single campaign through the full slot pipeline
//!   (slots/sec plus per-phase p50/p99), written to `BENCH_slot.json`.
//!
//! Both run their workload **twice with the same seed** and record whether
//! the two telemetry counter fingerprints agree ([`BenchReport::deterministic`]).
//! CI treats a mismatch as a hard failure: counters are part of the
//! determinism contract, wall-time spans are not (DESIGN.md §11).
//!
//! The [`TraceWriter`] is the third sink: one JSON object per TDMA round
//! with the *cumulative* dissemination/engine counters, suitable for
//! plotting a run's trajectory or diffing two runs row by row.

use std::io::Write as _;
use std::time::Instant;

use decos::prelude::*;
use serde::Serialize;

use crate::Effort;

/// Schema tag for `BENCH_fleet.json`. `/3`: the workload moved to the
/// sharded streaming executor (million-vehicle headline, fixed
/// [`FLEET_BENCH_ROUNDS`] per vehicle so `vehicles_per_sec` is comparable
/// across efforts) and the report gained the per-shard-count `scaling`
/// ladder. `/2` added the fault-lifecycle latency counters/gauges.
pub const FLEET_SCHEMA: &str = "decos-bench-fleet/3";

/// Rounds per vehicle in the fleet benchmark. Deliberately *not* scaled
/// by effort: effort scales the vehicle count only, so `vehicles_per_sec`
/// measures the same per-vehicle workload at every effort and stays
/// gateable across efforts.
pub const FLEET_BENCH_ROUNDS: u64 = 40;

/// Vehicles in the fleet benchmark at effort 1.0 — the ROADMAP item 1
/// fleet scale (10⁶).
pub const FLEET_BENCH_VEHICLES: u64 = 1_000_000;
/// Schema tag for `BENCH_slot.json`. `/2`: `vehicles_per_sec` is now
/// `null` for this non-fleet shape (it used to be a meaningless `0.0`),
/// and the lifecycle latency metrics joined the registry.
pub const SLOT_SCHEMA: &str = "decos-bench-slot/2";
/// Schema tag for each JSONL trace row.
pub const TRACE_SCHEMA: &str = "decos-trace-round/1";

/// One rung of the fleet benchmark's shard-scaling ladder.
#[derive(Debug, Clone, Serialize)]
pub struct ShardScaling {
    /// Executor shard count of this rung.
    pub shards: usize,
    /// Wall-clock seconds of the rung's timed run.
    pub wall_secs: f64,
    /// Vehicles completed per wall-clock second at this shard count.
    pub vehicles_per_sec: f64,
}

/// Per-phase latency summary extracted from a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct PhaseQuantiles {
    /// Phase name from the static registry (kernel, ttnet, detect, ...).
    pub name: String,
    /// Laps recorded.
    pub count: u64,
    /// Mean lap, nanoseconds.
    pub mean_ns: f64,
    /// Median lap (log₂-bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile lap (log₂-bucket upper bound), nanoseconds.
    pub p99_ns: u64,
    /// Worst lap, nanoseconds.
    pub max_ns: u64,
}

/// One `BENCH_*.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Schema tag ([`FLEET_SCHEMA`] or [`SLOT_SCHEMA`]).
    pub schema: String,
    /// Workload shape, human-readable (vehicles/rounds/accel/seed).
    pub workload: String,
    /// Effort multiplier the workload was scaled by.
    pub effort: f64,
    /// Wall-clock seconds of the measured (second) run.
    pub wall_secs: f64,
    /// Vehicles completed per wall-clock second. Fleet shape only —
    /// `null` for single-campaign shapes, where the notion is meaningless.
    pub vehicles_per_sec: Option<f64>,
    /// Pipeline slots stepped per wall-clock second.
    pub slots_per_sec: f64,
    /// Whether two same-seed runs produced byte-identical counter
    /// fingerprints. CI fails the build when false.
    pub deterministic: bool,
    /// Canonical `name=value;` counter/gauge fingerprint of the run.
    pub counter_fingerprint: String,
    /// Shard-count scaling ladder of the fleet shape (1, powers of two,
    /// then the host's available parallelism; a pinned `--shards` run has
    /// one rung). Empty for the slot shape. Timing fields — *not* part of
    /// the determinism contract; the counter fingerprints of every rung
    /// *are*, and feed [`BenchReport::deterministic`].
    pub scaling: Vec<ShardScaling>,
    /// Per-phase wall-time quantiles (timing fields — *not* part of the
    /// determinism contract).
    pub phases: Vec<PhaseQuantiles>,
    /// The full telemetry snapshot of the measured run.
    pub telemetry: TelemetrySnapshot,
}

fn phase_quantiles(snap: &TelemetrySnapshot) -> Vec<PhaseQuantiles> {
    snap.phases
        .iter()
        .map(|p| PhaseQuantiles {
            name: p.name.clone(),
            count: p.count,
            mean_ns: p.mean_ns,
            p50_ns: p.p50_ns,
            p99_ns: p.p99_ns,
            max_ns: p.max_ns,
        })
        .collect()
}

/// Benchmarks the fleet executor on the headline workload:
/// `effort × 10⁶` vehicles, [`FLEET_BENCH_ROUNDS`] rounds each.
pub fn bench_fleet(effort: Effort) -> Result<BenchReport, CampaignError> {
    let cfg = FleetConfig {
        vehicles: effort.scale(FLEET_BENCH_VEHICLES),
        rounds: FLEET_BENCH_ROUNDS,
        accel: 10.0,
        seed: 2026,
    };
    bench_fleet_workload(cfg, None, effort.0)
}

/// The shard-count ladder the fleet benchmark climbs: 1, powers of two,
/// then the host's available parallelism.
fn shard_ladder() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ladder = vec![1];
    let mut s = 2;
    while s < max {
        ladder.push(s);
        s *= 2;
    }
    if max > 1 {
        ladder.push(max);
    }
    ladder
}

/// Benchmarks an explicit fleet workload: one untimed warm-up run, then
/// one timed run per shard-ladder rung (a pinned `shards` collapses the
/// ladder to that one rung). Every run uses the same seed, and the report
/// is `deterministic` only if *all* counter fingerprints agree — which
/// folds the shard-count-invariance contract into the CI gate. A fleet
/// the analyzer rejects returns its [`CampaignError`] before any timing.
pub fn bench_fleet_workload(
    cfg: FleetConfig,
    shards: Option<usize>,
    effort: f64,
) -> Result<BenchReport, CampaignError> {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = FleetOptions { telemetry: true, ..FleetOptions::default() };
    let first = run_fleet_configured(&spec, cfg, params, &opts)?;
    let reference_fp = first.telemetry.expect("telemetry on").counter_fingerprint();
    let ladder = match shards {
        Some(s) => vec![s.max(1)],
        None => shard_ladder(),
    };
    let mut scaling = Vec::with_capacity(ladder.len());
    let mut deterministic = true;
    let mut wall_secs = 0.0;
    let mut last = None;
    for s in ladder {
        let opts = FleetOptions { shards: Some(s), ..opts.clone() };
        let t0 = Instant::now();
        let out = run_fleet_configured(&spec, cfg, params, &opts)?;
        wall_secs = t0.elapsed().as_secs_f64();
        let fp = out.telemetry.as_ref().expect("telemetry on").counter_fingerprint();
        deterministic &= fp == reference_fp;
        scaling.push(ShardScaling {
            shards: s,
            wall_secs,
            vehicles_per_sec: cfg.vehicles as f64 / wall_secs,
        });
        last = Some(out);
    }
    let snap = last.expect("ladder has at least one rung").telemetry.expect("telemetry on");
    let slots = snap.counter("slots_simulated").unwrap_or(0);
    Ok(BenchReport {
        schema: FLEET_SCHEMA.to_string(),
        workload: format!(
            "fleet vehicles={} rounds={} accel={} seed={}",
            cfg.vehicles, cfg.rounds, cfg.accel, cfg.seed
        ),
        effort,
        wall_secs,
        vehicles_per_sec: Some(cfg.vehicles as f64 / wall_secs),
        slots_per_sec: slots as f64 / wall_secs,
        deterministic,
        counter_fingerprint: snap.counter_fingerprint(),
        scaling,
        phases: phase_quantiles(&snap),
        telemetry: snap,
    })
}

/// One timed streaming-fleet run (telemetry on so the caller can print
/// the counter fingerprint). The cheap path behind `repro fleet` without
/// `--telemetry`: no warm-up, no ladder.
pub fn fleet_once(
    cfg: FleetConfig,
    shards: Option<usize>,
) -> Result<(FleetOutcome, f64), CampaignError> {
    let spec = fig10::reference_spec();
    let opts = FleetOptions { telemetry: true, shards, ..FleetOptions::default() };
    let t0 = Instant::now();
    let out = run_fleet_configured(&spec, cfg, EngineParams::default(), &opts)?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// Benchmarks a single campaign through the full slot pipeline: two
/// same-seed telemetry runs, timed on the second (warm) one.
pub fn bench_slot(effort: Effort) -> BenchReport {
    let rounds = effort.scale(4_000);
    let c = Campaign::reference(
        decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
        10.0,
        rounds,
        2026,
    );
    let opts = RunOptions { telemetry: true, ..Default::default() };
    let run = |c: &Campaign| {
        run_campaign_opts(c, EngineParams::default(), opts, &mut [], |_, _, _| {})
            .expect("campaign run")
    };
    let first = run(&c);
    let t0 = Instant::now();
    let second = run(&c);
    let wall_secs = t0.elapsed().as_secs_f64();
    let snap = second.telemetry.expect("telemetry on");
    let fp_a = first.telemetry.expect("telemetry on").counter_fingerprint();
    let fp_b = snap.counter_fingerprint();
    let slots = snap.counter("slots_simulated").unwrap_or(0);
    BenchReport {
        schema: SLOT_SCHEMA.to_string(),
        workload: format!("campaign connector rounds={rounds} accel=10 seed=2026"),
        effort: effort.0,
        wall_secs,
        vehicles_per_sec: None,
        slots_per_sec: slots as f64 / wall_secs,
        deterministic: fp_a == fp_b,
        counter_fingerprint: fp_b,
        scaling: Vec::new(),
        phases: phase_quantiles(&snap),
        telemetry: snap,
    }
}

/// Writes a [`BenchReport`] as pretty-printed JSON, atomically: the
/// committed `BENCH_*.json` baselines gate CI, so a crash mid-write must
/// never leave a truncated document behind.
pub fn write_report(report: &BenchReport, path: &str) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report).expect("serializable");
    decos::store::write_atomic(std::path::Path::new(path), (json + "\n").as_bytes())
}

/// One cumulative-counter row of the JSONL trace (one per TDMA round).
#[derive(Debug, Clone, Serialize)]
pub struct TraceRow {
    /// Schema tag ([`TRACE_SCHEMA`]).
    pub schema: &'static str,
    /// TDMA round index (0-based).
    pub round: u64,
    /// Simulated time at the end of the round, seconds.
    pub t_secs: f64,
    /// Symptoms offered so far.
    pub offered: u64,
    /// Symptoms delivered so far.
    pub delivered: u64,
    /// Symptoms dropped so far.
    pub dropped: u64,
    /// Frames discarded by CRC so far.
    pub corrupted: u64,
    /// Frames rejected by plausibility screening so far.
    pub rejected: u64,
    /// Frames that arrived late so far.
    pub delayed: u64,
    /// Frames flagged as forged so far.
    pub forged_suspected: u64,
    /// Running delivery quality of the diagnostic path.
    pub quality: f64,
    /// Diagnostic-component failovers so far.
    pub failovers: u32,
    /// Rounds with the diagnostic path fully down so far.
    pub crashed_rounds: u64,
    /// FRU-rounds spent with trust frozen so far.
    pub frozen_rounds: u64,
}

/// Streams one [`TraceRow`] per round into a JSONL file.
///
/// Drive it from the [`run_campaign_opts`] observer; rows are written on
/// the last slot of every round. Counters are cumulative — diffing
/// consecutive rows recovers per-round rates.
///
/// Rows stream into a `.tmp` sibling; [`TraceWriter::finish`] syncs and
/// renames it over the final path, so readers only ever see a complete
/// trace — an aborted run leaves the previous trace (if any) untouched.
pub struct TraceWriter {
    out: std::io::BufWriter<std::fs::File>,
    path: std::path::PathBuf,
    tmp: std::path::PathBuf,
    rows: u64,
}

impl TraceWriter {
    /// Creates (truncates) the trace's temp sibling; the final path is
    /// untouched until [`TraceWriter::finish`].
    pub fn create(path: &str) -> std::io::Result<Self> {
        let path = std::path::PathBuf::from(path);
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        let tmp = path.with_file_name(name);
        Ok(Self { out: std::io::BufWriter::new(std::fs::File::create(&tmp)?), path, tmp, rows: 0 })
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Observes one slot; writes a row when `rec` closes a round.
    pub fn on_slot(
        &mut self,
        sim: &ClusterSim,
        engine: &DiagnosticEngine,
        rec: &decos::platform::SlotRecord,
    ) {
        let spr = sim.schedule().slots_per_round();
        if rec.addr.slot.0 != spr - 1 {
            return;
        }
        let stats = engine.dissemination_stats();
        let row = TraceRow {
            schema: TRACE_SCHEMA,
            round: rec.addr.round,
            t_secs: rec.start.as_secs_f64(),
            offered: stats.offered,
            delivered: stats.delivered,
            dropped: stats.dropped,
            corrupted: stats.corrupted,
            rejected: stats.rejected,
            delayed: stats.delayed,
            forged_suspected: stats.forged_suspected,
            quality: engine.delivery_quality(),
            failovers: engine.failovers(),
            crashed_rounds: engine.crashed_rounds(),
            frozen_rounds: engine.frozen_rounds(),
        };
        let line = serde_json::to_string(&row).expect("serializable");
        writeln!(self.out, "{line}").expect("trace write");
        self.rows += 1;
    }

    /// Flushes, syncs, and renames the temp file over the final path —
    /// the trace's commit point.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        drop(self.out);
        std::fs::rename(&self.tmp, &self.path)
    }
}

/// Runs a campaign with telemetry on and a JSONL trace streaming to
/// `path`; returns the outcome (carrying the [`TelemetrySnapshot`]).
pub fn traced_campaign(
    c: &Campaign,
    path: &str,
) -> Result<CampaignOutcome, Box<dyn std::error::Error>> {
    let mut writer = TraceWriter::create(path)?;
    let opts = RunOptions { telemetry: true, ..Default::default() };
    let out = run_campaign_opts(c, EngineParams::default(), opts, &mut [], |sim, engine, rec| {
        writer.on_slot(sim, engine, rec);
    })
    .map_err(|e| format!("{e:?}"))?;
    writer.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_bench_is_deterministic_and_fast_enough_to_test() {
        let r = bench_slot(Effort(0.05));
        assert!(r.deterministic, "same-seed counter fingerprints must agree");
        assert!(r.slots_per_sec > 0.0);
        assert_eq!(r.schema, SLOT_SCHEMA);
        assert_eq!(r.vehicles_per_sec, None, "slot shape has no vehicles/sec");
        assert_eq!(r.phases.len(), 7, "all seven pipeline phases present");
        assert!(r.phases.iter().all(|p| p.count > 0), "every phase was timed");
    }

    #[test]
    fn fleet_bench_is_deterministic() {
        // Effort 0.0002 of the million-vehicle headline = 200 vehicles,
        // still FLEET_BENCH_ROUNDS rounds each (rounds don't scale).
        let r = bench_fleet(Effort(0.0002)).unwrap();
        assert!(r.deterministic, "fingerprints must agree across runs and shard counts");
        assert_eq!(r.schema, FLEET_SCHEMA);
        assert!(r.vehicles_per_sec.expect("fleet shape reports vehicles/sec") > 0.0);
        assert_eq!(r.telemetry.counter("vehicles").unwrap(), 200);
        assert_eq!(
            r.telemetry.counter("slots_simulated").unwrap()
                % r.telemetry.counter("vehicles").unwrap(),
            0,
            "every vehicle simulates the same slot count"
        );
        assert!(!r.scaling.is_empty(), "fleet shape records its shard ladder");
        assert_eq!(r.scaling[0].shards, 1, "ladder starts at one shard");
    }

    #[test]
    fn fleet_bench_ladder_collapses_when_shards_are_pinned() {
        let cfg = FleetConfig { vehicles: 96, rounds: 30, accel: 10.0, seed: 9 };
        let r = bench_fleet_workload(cfg, Some(2), 1.0).unwrap();
        assert!(r.deterministic, "two shards must fingerprint like the warm-up run");
        assert_eq!(r.scaling.len(), 1);
        assert_eq!(r.scaling[0].shards, 2);
    }

    #[test]
    fn trace_writer_emits_one_row_per_round() {
        let dir = std::env::temp_dir().join("decos-perf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path = path.to_str().unwrap();
        let rounds = 50;
        let c = Campaign::reference(
            decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
            10.0,
            rounds,
            7,
        );
        let out = traced_campaign(&c, path).unwrap();
        assert!(out.telemetry.is_some());
        let body = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len() as u64, rounds);
        let mut prev_offered = 0;
        let mut last_offered = 0;
        // The `decos-trace-round/1` contract: every row carries every
        // required field, with counters cumulative. Missing or renamed
        // fields fail here, so the schema can't silently drift.
        const REQUIRED_U64: &[&str] = &[
            "round",
            "offered",
            "delivered",
            "dropped",
            "corrupted",
            "rejected",
            "delayed",
            "forged_suspected",
            "failovers",
            "crashed_rounds",
            "frozen_rounds",
        ];
        for line in &lines {
            let v = serde::value::parse_embedded(line).unwrap();
            let entries = v.as_map().unwrap();
            let schema = serde::value::field(entries, "schema").unwrap();
            assert_eq!(schema.as_str().unwrap(), TRACE_SCHEMA);
            for name in REQUIRED_U64 {
                serde::value::field(entries, name)
                    .and_then(|f| f.as_u64())
                    .unwrap_or_else(|e| panic!("required field {name}: {e}"));
            }
            for name in ["t_secs", "quality"] {
                serde::value::field(entries, name)
                    .and_then(|f| f.as_f64())
                    .unwrap_or_else(|e| panic!("required field {name}: {e}"));
            }
            let offered = serde::value::field(entries, "offered").unwrap().as_u64().unwrap();
            assert!(offered >= prev_offered, "counters are cumulative");
            prev_offered = offered;
            last_offered = offered;
        }
        // The last row agrees with the final snapshot.
        let snap = out.telemetry.unwrap();
        assert_eq!(last_offered, snap.counter("symptoms_offered").unwrap());
    }
}
