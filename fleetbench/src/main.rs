//! Fleet benchmark of the DECOS reproduction.
//!
//! Drives the public fleet entry points (`run_fleet_configured`,
//! `FleetStore::open_or_create`, `run_fleet_stored`) as batch jobs at a
//! stated fleet size, checks their outputs, and prints one JSON result as
//! the last line of standard output. `--trace 1` runs a separate traced
//! replica that attributes time to the layers from outside the program
//! (see `trace.rs` and `timed_io.rs`).
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload fleet-headline [--seed 2026] [--seconds 20] [--trace 0|1]
//! ```

mod timed_io;
mod trace;

use decos::analyzer::{analyze, DiagCode, Subject};
use decos::diagnosis::EngineParams;
use decos::faults::FaultClass;
use decos::fleet::{run_fleet_configured, FleetConfig, FleetOptions, FleetOutcome};
use decos::platform::{fig10, ClusterSim, ClusterSpec};
use decos::runner::{run_campaign_opts, Campaign, RunOptions};
use decos::sim::rng::SeedSource;
use decos::store::FsIo;
use decos::store_run::{run_fleet_stored, FleetStore, StorePolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use timed_io::{IoStats, TimedIo};
use trace::{Bucket, FleetTrace, Tracer};

const USAGE: &str = "usage: fleetbench --workload <fleet-headline|fleet-certified|fleet-stored> \
                     [--seed N] [--seconds S] [--trace 0|1]";
const DEFAULT_SEED: u64 = 2026;
const DEFAULT_SECONDS: u64 = 20;
/// Rate acceleration of every workload (the fleet default).
const ACCEL: f64 = 10.0;
/// Set-up lasts microseconds (storeless) to a millisecond (store
/// creation). At that length its median follows whatever the shared host
/// is doing in those milliseconds, so `setup_s` is the minimum over a burst
/// of repetitions before every batch: up to `SETUP_REPS`, within
/// `SETUP_BURST`.
const SETUP_REPS: usize = 2001;
const SETUP_BURST: Duration = Duration::from_millis(200);
/// Vehicles the replica checks one by one against `run_campaign_opts`.
const CHECK_VEHICLES: u64 = 64;
/// Bounds on `trace.attributed_share`: below the floor, the replica's own
/// code or an unmeasured call holds a visible share of the traced time;
/// above the ceiling, spans overlap or the clock calibration overshoots.
const ATTRIBUTED_SHARE: (f64, f64) = (0.95, 1.01);

/// One benchmark workload: a fleet shape and how it is executed. Every
/// workload runs one executor shard per available core.
struct Workload {
    name: &'static str,
    /// Vehicles of one batch (for `fleet-stored`: the size after extension).
    vehicles: u64,
    rounds: u64,
    /// `N` vehicles into an empty store, reopen, extend to `vehicles`.
    stored: bool,
}

const WORKLOADS: [Workload; 3] = [
    Workload { name: "fleet-headline", vehicles: 20_000, rounds: 40, stored: false },
    Workload { name: "fleet-certified", vehicles: 2_000, rounds: 400, stored: false },
    Workload { name: "fleet-stored", vehicles: 20_000, rounds: 40, stored: true },
];

impl Workload {
    fn cfg(&self, vehicles: u64, seed: u64) -> FleetConfig {
        FleetConfig { vehicles, rounds: self.rounds, accel: ACCEL, seed }
    }

    fn opts(&self) -> FleetOptions {
        FleetOptions { shards: Some(nproc()), ..FleetOptions::default() }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = number(&value)?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = match Scratch::new(args.workload.name) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fleetbench: cannot create the store scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let mut run = Run::default();
    if args.trace {
        traced(&args, &scratch, &mut run);
    } else {
        measured(&args, &scratch, &mut run);
    }
    drop(scratch);
    // A run cut short by an error still names every metric; the missing
    // ones read NaN, which marks the run incorrect.
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in expected {
        if !run.metrics.iter().any(|m| m.name == name) {
            run.metric(name, f64::NAN, unit);
        }
    }
    run.print(&args);
}

/// Every gated end-to-end metric with its unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("vehicles_per_sec", "1/s"),
    ("slots_per_sec", "1/s"),
    ("peak_rss_mb", "MB"),
];

// ---------------------------------------------------------------------------
// Result bookkeeping
// ---------------------------------------------------------------------------

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// A figure printed for the reader but left out of the result line: it
/// applies to some workloads only, and elsewhere carries why it is null.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: Result<f64, String>,
}

#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    reported: Vec<Reported>,
    checks: Vec<(String, Result<(), String>)>,
    notes: Vec<String>,
}

impl Run {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn report(&mut self, name: &'static str, unit: &'static str, value: Result<f64, String>) {
        self.reported.push(Reported { name, unit, value });
    }

    fn check(&mut self, name: impl Into<String>, r: Result<(), String>) {
        self.checks.push((name.into(), r));
    }

    /// Runs one fleet batch of `vehicles` through `f`, counting them as
    /// attempted, and all of them as failed if `f` errors or panics.
    fn batch<T>(
        &mut self,
        what: &str,
        vehicles: u64,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += vehicles;
        match guarded(what, f) {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += vehicles;
                self.check(what.to_string(), Err(e));
                None
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|(_, r)| r.is_ok())
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn print(&self, args: &Args) {
        let wl = args.workload;
        println!(
            "fleetbench {} seed={} vehicles={} rounds={} shards={} nproc={} trace={}",
            wl.name,
            args.seed,
            wl.vehicles,
            wl.rounds,
            nproc(),
            nproc(),
            u8::from(args.trace)
        );
        for n in &self.notes {
            println!("  note: {n}");
        }
        for m in &self.metrics {
            println!("  {:<36} {} {}", m.name, m.value, m.unit);
        }
        for r in &self.reported {
            match &r.value {
                Ok(v) => println!("  {:<36} {} {} (not gated)", r.name, v, r.unit),
                Err(why) => println!("  {:<36} null {} ({why})", r.name, r.unit),
            }
        }
        for (name, r) in &self.checks {
            match r {
                Ok(()) => println!("  check {name}: ok"),
                Err(e) => {
                    println!("  check {name}: FAILED: {e}");
                    eprintln!("fleetbench: check {name} failed: {e}");
                }
            }
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Runs `f`, turning a panic into an error so that one failing batch is
/// counted instead of aborting the whole benchmark.
fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("{what} panicked: {msg}"))
        }
    }
}

pub(crate) fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(v: &mut [f32], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f32::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    f64::from(v[rank.clamp(1, v.len()) - 1])
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn outcome_json(out: &FleetOutcome) -> Result<String, String> {
    serde_json::to_string(out).map_err(|e| format!("fleet outcome does not serialize: {e}"))
}

fn same(what: &str, a: &str, b: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
        Err(format!("{what}: outcomes differ from byte {at}"))
    }
}

/// Resident-set high-water mark of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Store directories of this process, inside the working directory and
/// removed when dropped.
struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Self> {
        let root = Path::new(".bench_scratch").join(format!("{workload}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: std::cell::Cell::new(0) })
    }

    /// A fresh, empty store directory.
    fn fresh(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("store-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The stored workload's policy: the default snapshot cadence, one fsync
/// per 256-vehicle chunk. With the default 8-vehicle chunk a batch makes
/// 2 500 fsyncs and its time follows the shared host's disk latency
/// (975 to 3 700 vehicles/s across ten runs).
fn store_policy() -> StorePolicy {
    StorePolicy { chunk: 256, ..StorePolicy::default() }
}

fn slots_per_round(spec: &ClusterSpec) -> Result<u64, String> {
    let sim = ClusterSim::new(spec.clone(), 0).map_err(|e| format!("{e:?}"))?;
    Ok(u64::from(sim.schedule().slots_per_round()))
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

/// Spec build, base pre-flight and (stored) store creation: everything up
/// to the first vehicle, measured as a zero-vehicle run of the entry point.
fn setup_once(wl: &Workload, seed: u64, scratch: &Scratch) -> Result<f64, String> {
    let params = EngineParams::default();
    let opts = wl.opts();
    let t = Instant::now();
    let spec = fig10::reference_spec();
    if wl.stored {
        let dir = scratch.fresh();
        let io = FsIo::new(&dir).map_err(|e| e.to_string())?;
        let policy = store_policy();
        let mut fs = FleetStore::open_or_create(
            io,
            &spec,
            &wl.cfg(wl.vehicles / 2, seed),
            &params,
            &opts,
            &policy,
        )
        .map_err(|e| e.to_string())?;
        run_fleet_stored(&spec, wl.cfg(0, seed), params, &opts, &policy, &mut fs)
            .map_err(|e| e.to_string())?;
        let s = secs(t);
        drop(fs);
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(s)
    } else {
        run_fleet_configured(&spec, wl.cfg(0, seed), params, &opts).map_err(|e| e.to_string())?;
        Ok(secs(t))
    }
}

/// The fastest of up to `SETUP_REPS` set-ups that fit in `SETUP_BURST`.
fn setup_burst(wl: &Workload, seed: u64, scratch: &Scratch) -> Result<f64, String> {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    for _ in 0..SETUP_REPS {
        best = best.min(guarded("set-up", || setup_once(wl, seed, scratch))?);
        if start.elapsed() > SETUP_BURST {
            break;
        }
    }
    Ok(best)
}

/// One timed batch: fresh vehicles simulated, their wall time, and the
/// fleet outcome.
struct Batch {
    fresh: u64,
    secs: f64,
    outcome: FleetOutcome,
    recovery_s: Option<f64>,
    journal_bytes: Option<u64>,
}

fn storeless_batch(run: &mut Run, wl: &Workload, seed: u64, spec: &ClusterSpec) -> Option<Batch> {
    run.batch("storeless fleet", wl.vehicles, || {
        let t = Instant::now();
        let outcome = run_fleet_configured(
            spec,
            wl.cfg(wl.vehicles, seed),
            EngineParams::default(),
            &wl.opts(),
        )
        .map_err(|e| e.to_string())?;
        Ok(Batch {
            fresh: wl.vehicles,
            secs: secs(t),
            outcome,
            recovery_s: None,
            journal_bytes: None,
        })
    })
}

/// `N` vehicles into an empty store, reopen (recovery), extend to `2N`.
/// Only the two `run_fleet_stored` calls count as fleet time.
fn stored_batch(
    run: &mut Run,
    wl: &Workload,
    seed: u64,
    spec: &ClusterSpec,
    scratch: &Scratch,
) -> Option<Batch> {
    let params = EngineParams::default();
    let opts = wl.opts();
    let policy = store_policy();
    let (half, full) = (wl.cfg(wl.vehicles / 2, seed), wl.cfg(wl.vehicles, seed));
    let dir = scratch.fresh();
    let open = |cfg: &FleetConfig| -> Result<FleetStore<FsIo>, String> {
        let io = FsIo::new(&dir).map_err(|e| e.to_string())?;
        FleetStore::open_or_create(io, spec, cfg, &params, &opts, &policy)
            .map_err(|e| e.to_string())
    };
    let first = run.batch("stored fleet, first half", half.vehicles, || {
        let mut fs = open(&half)?;
        let t = Instant::now();
        run_fleet_stored(spec, half, params, &opts, &policy, &mut fs).map_err(|e| e.to_string())?;
        Ok(secs(t))
    });
    let batch = first.and_then(|first_s| {
        run.batch("stored fleet, resumed half", full.vehicles - half.vehicles, || {
            let t = Instant::now();
            let mut fs = open(&full)?;
            let recovery_s = secs(t);
            if fs.committed_vehicles() != half.vehicles {
                return Err(format!(
                    "reopened store holds {} vehicles, expected {}",
                    fs.committed_vehicles(),
                    half.vehicles
                ));
            }
            let t = Instant::now();
            let (outcome, stats) = run_fleet_stored(spec, full, params, &opts, &policy, &mut fs)
                .map_err(|e| e.to_string())?;
            let second_s = secs(t);
            if stats.appended != full.vehicles - half.vehicles {
                return Err(format!("resume appended {} vehicles", stats.appended));
            }
            Ok(Batch {
                fresh: full.vehicles,
                secs: first_s + second_s,
                outcome,
                recovery_s: Some(recovery_s),
                journal_bytes: Some(stats.journal_bytes),
            })
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    batch
}

/// Why the quality metrics are withheld at this workload's horizon, if
/// they are: a DA021 (an ONA pattern cannot fire) or DA082 (conviction
/// needs a longer horizon) finding for a fault class the workload's
/// sampler draws. DA021 is read off the base experiment; DA082 off one
/// sampled vehicle per drawn class.
fn quality_gate(wl: &Workload, seed: u64, spec: &ClusterSpec) -> Option<String> {
    let params = EngineParams::default();
    let seeds = SeedSource::new(seed);
    let mut drawn: Vec<(FaultClass, u64)> = Vec::new();
    for i in 0..wl.vehicles {
        let (_, faults) = decos::faults::campaign::sample_mixed_fault(spec, seeds, i);
        let class = faults[0].class();
        if !drawn.iter().any(|(c, _)| *c == class) {
            drawn.push((class, i));
        }
    }
    let report = analyze(&trace::base_experiment(spec, wl.cfg(0, seed), params));
    let blocking = report.diagnostics.iter().find(|d| {
        d.code == DiagCode::OnaPatternUnavailable
            && d.subjects
                .iter()
                .any(|s| matches!(s, Subject::Class(c) if drawn.iter().any(|(k, _)| k == c)))
    });
    if let Some(d) = blocking {
        return Some(format!("{} at {} rounds: {}", d.code.code(), wl.rounds, d.message));
    }
    for (class, i) in drawn {
        let (vspec, faults) = decos::faults::campaign::sample_mixed_fault(spec, seeds, i);
        let c = Campaign {
            spec: vspec,
            faults,
            accel: ACCEL,
            rounds: wl.rounds,
            seed: seeds.child(i).master(),
        };
        let report = c.analyze(&params);
        if let Some(d) =
            report.diagnostics.iter().find(|d| d.code == DiagCode::HorizonTooShortForConviction)
        {
            return Some(format!(
                "{} for {class} at {} rounds: {}",
                d.code.code(),
                wl.rounds,
                d.message
            ));
        }
    }
    None
}

fn measured(args: &Args, scratch: &Scratch, run: &mut Run) {
    let wl = args.workload;
    let spec = fig10::reference_spec();
    let spr = match slots_per_round(&spec) {
        Ok(s) => s,
        Err(e) => return run.check("cluster build", Err(e)),
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut setup_s = f64::INFINITY;
    let (mut rates, mut recoveries) = (Vec::new(), Vec::new());
    let mut journal_bytes = None;
    let mut first: Option<(String, FleetOutcome)> = None;
    let mut agree = Ok(());
    loop {
        match setup_burst(wl, args.seed, scratch) {
            Ok(s) => setup_s = setup_s.min(s),
            Err(e) => return run.check("set-up", Err(e)),
        }
        let batch = if wl.stored {
            stored_batch(run, wl, args.seed, &spec, scratch)
        } else {
            storeless_batch(run, wl, args.seed, &spec)
        };
        if let Some(b) = batch {
            rates.push(b.fresh as f64 / b.secs);
            recoveries.extend(b.recovery_s);
            journal_bytes = journal_bytes.or(b.journal_bytes);
            match outcome_json(&b.outcome) {
                Ok(json) => match &first {
                    None => first = Some((json, b.outcome)),
                    Some((f, _)) if agree.is_ok() => agree = same("same-seed batches", f, &json),
                    Some(_) => {}
                },
                Err(e) => agree = Err(e),
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    run.notes.push(format!(
        "{} timed batches, vehicles/s: {}",
        rates.len(),
        rates.iter().map(|r| format!("{r:.1}")).collect::<Vec<_>>().join(" ")
    ));

    let vps = median(&mut rates);
    let [setup, vehicles, slots, rss] = END_TO_END;
    run.metric(setup.0, setup_s, setup.1);
    run.metric(vehicles.0, vps, vehicles.1);
    run.metric(slots.0, vps * (wl.rounds * spr) as f64, slots.1);
    run.metric(rss.0, peak_rss, rss.1);

    // The result line needs a number for every gated metric on every
    // workload, so the figures that apply to some workloads only are
    // printed by name here and not gated.
    let no_store = || Err(format!("{} has no store", wl.name));
    if wl.stored {
        run.report("recovery_s", "s", Ok(median(&mut recoveries)));
        let per_vehicle = journal_bytes.map(|b| b as f64 / wl.vehicles as f64);
        run.report("journal_bytes_per_vehicle", "B", per_vehicle.ok_or_else(|| "no batch".into()));
    } else {
        run.report("recovery_s", "s", no_store());
        run.report("journal_bytes_per_vehicle", "B", no_store());
    }
    let failed_ratio = run.failed as f64 / run.attempted.max(1) as f64;
    run.report("failed_vehicle_ratio", "ratio", Ok(failed_ratio));

    let Some((first_json, outcome)) = first else {
        return run.check("any batch completed", Err("no timed batch completed".into()));
    };
    run.check("same-seed batches agree", agree);

    match quality_gate(wl, args.seed, &spec) {
        Some(why) => {
            for name in ["decos_nff_ratio", "obd_nff_ratio", "decos_correct_action_rate"] {
                run.report(name, "ratio", Err(why.clone()));
            }
        }
        None => {
            let (decos, obd) = (outcome.decos.nff_ratio(), outcome.obd.nff_ratio());
            let rate = outcome.decos.correct_actions as f64 / outcome.decos.cases.max(1) as f64;
            run.report("decos_nff_ratio", "ratio", Ok(decos));
            run.report("obd_nff_ratio", "ratio", Ok(obd));
            run.report("decos_correct_action_rate", "ratio", Ok(rate));
            run.check(
                "integrated NFF ratio below OBD",
                if decos < obd { Ok(()) } else { Err(format!("decos {decos} >= obd {obd}")) },
            );
        }
    }

    if wl.stored {
        let r = guarded("storeless reference", || {
            let cfg = wl.cfg(wl.vehicles, args.seed);
            let out = run_fleet_configured(&spec, cfg, EngineParams::default(), &wl.opts())
                .map_err(|e| e.to_string())?;
            same("resumed store vs storeless", &first_json, &outcome_json(&out)?)
        });
        run.check("stored outcome after resume equals storeless", r);
    }
    let small = CHECK_VEHICLES.min(wl.vehicles);
    run.check(
        "replica matches run_campaign_opts vehicle by vehicle",
        guarded("replica check", || check_vehicles(wl, args.seed, &spec, small)),
    );
    run.check(
        "replica fold equals run_fleet_configured",
        guarded("replica fold", || {
            let cfg = wl.cfg(small, args.seed);
            let want = run_fleet_configured(&spec, cfg, EngineParams::default(), &wl.opts())
                .map_err(|e| e.to_string())?;
            let (got, _) =
                trace::traced_fleet(&spec, cfg, EngineParams::default(), nproc(), spr, 0.0)?;
            same("replica fold", &outcome_json(&want)?, &outcome_json(&got)?)
        }),
    );
}

/// Replays the first `n` vehicles through the replica and through
/// `run_campaign_opts`, comparing actions, OBD replacements and the
/// decided class.
fn check_vehicles(wl: &Workload, seed: u64, spec: &ClusterSpec, n: u64) -> Result<(), String> {
    let params = EngineParams::default();
    let cfg = wl.cfg(n, seed);
    let seeds = SeedSource::new(seed);
    let mut t = Tracer::new(0.0);
    for i in 0..n {
        let replica = trace::traced_vehicle(&mut t, spec, cfg, i, params)?;
        let (vspec, faults) = decos::faults::campaign::sample_mixed_fault(spec, seeds, i);
        let truth = faults[0].target;
        let c = Campaign {
            spec: vspec,
            faults,
            accel: ACCEL,
            rounds: wl.rounds,
            seed: seeds.child(i).master(),
        };
        let out = run_campaign_opts(&c, params, RunOptions::default(), &mut [], |_, _, _| {})
            .map_err(|e| e.to_string())?;
        let class = out.report.verdict_of(truth).and_then(|v| v.class);
        if replica.actions != out.report.actions()
            || replica.obd_replacements != out.obd.replacements
            || replica.outcome.decos_class != class
        {
            return Err(format!("vehicle {i} differs from run_campaign_opts"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------------

/// Every per-layer metric with its unit, in the order printed.
const PER_LAYER: [(&str, &str); 37] = [
    ("faults.sample_us", "us"),
    ("faults.env_build_us", "us"),
    ("analyzer.vehicle_preflight_us", "us"),
    ("analyzer.base_preflight_ms", "ms"),
    ("platform.build_us", "us"),
    ("diagnosis.build_us", "us"),
    ("runner.setup_share", "ratio"),
    ("platform.slot_ns", "ns"),
    ("diagnosis.engine_slot_ns", "ns"),
    ("diagnosis.engine_round_ns", "ns"),
    ("diagnosis.obd_slot_ns", "ns"),
    ("diagnosis.report_us", "us"),
    ("diagnosis.score_ns", "ns"),
    ("diagnosis.symptoms_per_vehicle", "count"),
    ("diagnosis.ona_matches_per_vehicle", "count"),
    ("diagnosis.ona_matches_per_symptom", "ratio"),
    ("runner.vehicle_us.p50", "us"),
    ("runner.vehicle_us.p99", "us"),
    ("fleet.record_ns", "ns"),
    ("fleet.merge_us", "us"),
    ("fleet.finish_us", "us"),
    ("fleet_exec.busy_share", "ratio"),
    ("fleet_exec.imbalance", "ratio"),
    ("store.append_us", "us"),
    ("store.sync_ms", "ms"),
    ("store.syncs_per_1k_vehicles", "count"),
    ("store.sync_share", "ratio"),
    ("store.snapshot_ms", "ms"),
    ("store_run.unattributed_s", "s"),
    ("store.read_ms", "ms"),
    ("store.decode_share", "ratio"),
    ("store.append_bytes_per_vehicle", "B"),
    ("trace.clock_ns", "ns"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("runner.vehicles_traced", "count"),
    ("trace.repetitions", "count"),
];

/// Per-repetition values of the per-layer metrics, reported as medians.
#[derive(Default)]
struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} is not listed");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    /// The median of `name`; NaN (which marks the run incorrect) when no
    /// repetition produced it.
    fn median(&mut self, name: &str) -> f64 {
        self.0.iter_mut().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| median(v))
    }
}

fn per_vehicle_metrics(s: &mut Samples, tr: &mut FleetTrace, untraced_s: f64) {
    let v = tr.vehicles as f64;
    let per_vehicle_us = |b: Bucket| tr.bucket(b) / v / 1e3;
    s.push("faults.sample_us", per_vehicle_us(Bucket::Sample));
    s.push("faults.env_build_us", per_vehicle_us(Bucket::EnvBuild));
    s.push("analyzer.vehicle_preflight_us", per_vehicle_us(Bucket::Preflight));
    s.push("platform.build_us", per_vehicle_us(Bucket::PlatformBuild));
    s.push("diagnosis.build_us", per_vehicle_us(Bucket::DiagBuild));
    let setup: f64 = [
        Bucket::Sample,
        Bucket::Preflight,
        Bucket::PlatformBuild,
        Bucket::EnvBuild,
        Bucket::DiagBuild,
    ]
    .iter()
    .map(|b| tr.bucket(*b))
    .sum();
    let vehicle_total: f64 = tr.vehicle_ns.iter().map(|x| f64::from(*x)).sum();
    s.push("runner.setup_share", setup / vehicle_total);
    let (slots, rounds) = (tr.slots as f64, tr.rounds as f64);
    let engine_slot = tr.bucket(Bucket::EngineSlot) / (slots - rounds);
    s.push("platform.slot_ns", tr.bucket(Bucket::Platform) / slots);
    s.push("diagnosis.engine_slot_ns", engine_slot);
    s.push("diagnosis.engine_round_ns", tr.bucket(Bucket::EngineRoundSlot) / rounds - engine_slot);
    s.push("diagnosis.obd_slot_ns", tr.bucket(Bucket::Obd) / slots);
    s.push("diagnosis.report_us", per_vehicle_us(Bucket::Report));
    s.push("diagnosis.score_ns", tr.bucket(Bucket::Score) / v);
    s.push("diagnosis.symptoms_per_vehicle", tr.symptoms as f64 / v);
    s.push("diagnosis.ona_matches_per_vehicle", tr.ona_matches as f64 / v);
    s.push(
        "diagnosis.ona_matches_per_symptom",
        if tr.symptoms == 0 { 0.0 } else { tr.ona_matches as f64 / tr.symptoms as f64 },
    );
    s.push("runner.vehicle_us.p50", percentile(&mut tr.vehicle_ns, 50.0) / 1e3);
    s.push("runner.vehicle_us.p99", percentile(&mut tr.vehicle_ns, 99.0) / 1e3);
    s.push("fleet.record_ns", tr.bucket(Bucket::Record) / v);
    s.push("fleet.merge_us", tr.merge_ns / 1e3);
    s.push("fleet.finish_us", tr.finish_ns / 1e3);
    s.push("fleet_exec.busy_share", tr.busy_share);
    s.push("fleet_exec.imbalance", tr.imbalance);
    s.push("trace.attributed_share", tr.attributed_ns() / tr.thread_ns);
    s.push("trace.overhead_ratio", tr.wall_ns / 1e9 / untraced_s);
}

/// Store I/O of one stored batch of the workload's fleet, through the
/// timing adapter. The storeless workloads make this batch in their traced
/// run only, so that the store layer is measured at every fleet shape.
fn stored_traced(
    s: &mut Samples,
    run: &mut Run,
    wl: &Workload,
    seed: u64,
    spec: &ClusterSpec,
    scratch: &Scratch,
    storeless_s: f64,
) {
    let params = EngineParams::default();
    let opts = wl.opts();
    let policy = store_policy();
    let (half, full) = (wl.cfg(wl.vehicles / 2, seed), wl.cfg(wl.vehicles, seed));
    let dir = scratch.fresh();
    let open = |cfg: &FleetConfig| -> Result<FleetStore<TimedIo>, String> {
        let io = TimedIo::new(FsIo::new(&dir).map_err(|e| e.to_string())?);
        FleetStore::open_or_create(io, spec, cfg, &params, &opts, &policy)
            .map_err(|e| e.to_string())
    };
    let r = run.batch("traced stored fleet", full.vehicles, || {
        let mut fs = open(&half)?;
        fs.store_mut().io_mut().take();
        let t = Instant::now();
        run_fleet_stored(spec, half, params, &opts, &policy, &mut fs).map_err(|e| e.to_string())?;
        let first_s = secs(t);
        let mut io = fs.store_mut().io_mut().take();
        drop(fs);
        let t = Instant::now();
        let mut fs = open(&full)?;
        let open_s = secs(t);
        let at_open = fs.store_mut().io_mut().take();
        let t = Instant::now();
        run_fleet_stored(spec, full, params, &opts, &policy, &mut fs).map_err(|e| e.to_string())?;
        let stored_s = first_s + secs(t);
        io.add(&fs.store_mut().io_mut().take());
        Ok((io, at_open, open_s, stored_s))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let Some((io, at_open, open_s, stored_s)): Option<(IoStats, IoStats, f64, f64)> = r else {
        return;
    };
    let fresh = full.vehicles as f64;
    s.push("store.append_us", io.append_ns as f64 / io.appends.max(1) as f64 / 1e3);
    s.push("store.sync_ms", io.sync_ns as f64 / io.syncs.max(1) as f64 / 1e6);
    s.push("store.syncs_per_1k_vehicles", io.syncs as f64 / fresh * 1e3);
    s.push("store.sync_share", io.sync_ns as f64 / 1e9 / stored_s);
    s.push("store.snapshot_ms", io.snapshot_ns as f64 / io.snapshots.max(1) as f64 / 1e6);
    s.push("store_run.unattributed_s", stored_s - io.total_ns() as f64 / 1e9 - storeless_s);
    s.push("store.read_ms", at_open.read_ns as f64 / 1e6);
    s.push("store.decode_share", 1.0 - at_open.total_ns() as f64 / 1e9 / open_s);
    s.push("store.append_bytes_per_vehicle", io.append_bytes as f64 / fresh);
}

fn traced(args: &Args, scratch: &Scratch, run: &mut Run) {
    let wl = args.workload;
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let spr = match slots_per_round(&spec) {
        Ok(s) => s,
        Err(e) => return run.check("cluster build", Err(e)),
    };
    let clock_ns = trace::calibrate_clock_ns();
    let mut s = Samples::default();
    s.push("trace.clock_ns", clock_ns);
    let cfg = wl.cfg(wl.vehicles, args.seed);
    // Minimum over repetitions, like `setup_s`, which it should move.
    let base = trace::base_experiment(&spec, cfg, params);
    let preflight_s = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(analyze(&base));
            secs(t)
        })
        .fold(f64::INFINITY, f64::min);
    s.push("analyzer.base_preflight_ms", preflight_s * 1e3);

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps = 0;
    let mut agree = Ok(());
    loop {
        let untraced = run.batch("untraced fleet", cfg.vehicles, || {
            let t = Instant::now();
            let out =
                run_fleet_configured(&spec, cfg, params, &wl.opts()).map_err(|e| e.to_string())?;
            Ok((secs(t), outcome_json(&out)?))
        });
        let traced = run.batch("traced fleet", cfg.vehicles, || {
            trace::traced_fleet(&spec, cfg, params, nproc(), spr, clock_ns)
        });
        if let (Some((untraced_s, want)), Some((got, mut tr))) = (untraced, traced) {
            reps += 1;
            if agree.is_ok() {
                agree = outcome_json(&got).and_then(|g| same("traced replica", &want, &g));
            }
            s.push("runner.vehicles_traced", cfg.vehicles as f64);
            per_vehicle_metrics(&mut s, &mut tr, untraced_s);
            stored_traced(&mut s, run, wl, args.seed, &spec, scratch, untraced_s);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    s.push("trace.repetitions", f64::from(reps));
    run.check("traced replica equals run_fleet_configured", agree);
    run.check(
        "replica matches run_campaign_opts vehicle by vehicle",
        guarded("replica check", || {
            check_vehicles(wl, args.seed, &spec, CHECK_VEHICLES.min(wl.vehicles))
        }),
    );
    for (name, unit) in PER_LAYER {
        run.metric(name, s.median(name), unit);
    }
    if let Some(m) = run.metrics.iter().find(|m| m.name == "trace.attributed_share") {
        let (lo, hi) = ATTRIBUTED_SHARE;
        let v = m.value;
        run.check(
            format!("trace.attributed_share within [{lo}, {hi}]"),
            if (lo..=hi).contains(&v) { Ok(()) } else { Err(format!("{v}")) },
        );
    }
}
