//! `repro` subcommands for the crash-safe campaign store: `campaign
//! --store`, `fleet --store`, `resume`, and `store-stat`.
//!
//! The CLI journals the repo's canonical workloads — the reference
//! connector campaign (the `--trace`/`--flightrec` campaign) and the
//! fig10 fleet — so a `resume` can reconstruct the experiment from the
//! manifest alone and let the spec-hash check (DA090) prove it is the
//! same one. Arbitrary specs go through the library API
//! (`decos::store_run`), not this front end.

use decos::prelude::*;
use decos::store::{FsIo, Store, JOURNAL_FILE};
use decos::store_run::{
    self, CampaignStore, FleetStore, StorePolicy, StoreRunError, StoreRunStats,
};

use crate::exitcode;

/// Knobs shared by the store subcommands; `None` means "use the
/// subcommand default, or on `resume` the manifest value".
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCliOpts {
    /// Campaign rounds / fleet rounds-per-vehicle.
    pub rounds: Option<u64>,
    /// Fleet vehicles.
    pub vehicles: Option<u64>,
    /// Master seed.
    pub seed: Option<u64>,
    /// Rate acceleration factor.
    pub accel: Option<f64>,
    /// Snapshot cadence ([`StorePolicy::snapshot_every`]).
    pub snapshot_every: Option<u64>,
    /// Fsync cadence ([`StorePolicy::sync_every`]).
    pub sync_every: Option<u64>,
    /// Fleet batch size ([`StorePolicy::chunk`]).
    pub chunk: Option<usize>,
}

impl StoreCliOpts {
    fn policy(&self) -> StorePolicy {
        let d = StorePolicy::default();
        StorePolicy {
            snapshot_every: self.snapshot_every.unwrap_or(d.snapshot_every),
            sync_every: self.sync_every.unwrap_or(d.sync_every),
            chunk: self.chunk.unwrap_or(d.chunk),
        }
    }
}

/// The canonical stored-campaign workload: the reference connector
/// campaign, same shape as `--trace`/`--flightrec`.
fn reference_campaign(rounds: u64, accel: f64, seed: u64) -> Campaign {
    Campaign::reference(
        decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
        accel,
        rounds,
        seed,
    )
}

fn fleet_options() -> decos::fleet::FleetOptions {
    decos::fleet::FleetOptions { telemetry: true, ..Default::default() }
}

fn exit_for(e: &StoreRunError) -> i32 {
    match e {
        StoreRunError::Campaign(_) => exitcode::SPEC_REJECTED,
        StoreRunError::Store(_) => exitcode::STORE_CORRUPT,
        StoreRunError::Determinism { .. } => exitcode::DETERMINISM,
    }
}

fn open_fs(dir: &str) -> Result<FsIo, i32> {
    FsIo::new(dir).map_err(|e| {
        eprintln!("cannot open store root {dir}: {e}");
        exitcode::STORE_CORRUPT
    })
}

fn report_stats(what: &str, stats: &StoreRunStats) {
    println!(
        "{what}: committed_before={} verified={} appended={} \
         journal_records={} journal_bytes={} fsyncs={} snapshots={} quarantined_bytes={}",
        stats.committed_before,
        stats.verified,
        stats.appended,
        stats.journal_records,
        stats.journal_bytes,
        stats.fsyncs,
        stats.snapshots_written,
        stats.quarantined_bytes,
    );
}

/// Runs (or extends) the stored reference campaign under `dir`.
pub fn cmd_campaign(dir: &str, o: &StoreCliOpts) -> i32 {
    let rounds = o.rounds.unwrap_or(2_000);
    let accel = o.accel.unwrap_or(10.0);
    let seed = o.seed.unwrap_or(2026);
    run_stored_campaign(dir, rounds, accel, seed, o)
}

fn run_stored_campaign(dir: &str, rounds: u64, accel: f64, seed: u64, o: &StoreCliOpts) -> i32 {
    let io = match open_fs(dir) {
        Ok(io) => io,
        Err(code) => return code,
    };
    let c = reference_campaign(rounds, accel, seed);
    let params = EngineParams::default();
    let policy = o.policy();
    let mut cs = match CampaignStore::open_or_create(io, &c, &params, &policy) {
        Ok(cs) => cs,
        Err(e) => {
            eprintln!("{e}");
            return exit_for(&e);
        }
    };
    let opts = RunOptions { telemetry: true, ..Default::default() };
    match store_run::run_campaign_stored(&c, params, opts, &policy, &mut cs) {
        Ok((out, stats)) => {
            let snap = out.telemetry.expect("telemetry on");
            println!(
                "{dir}: campaign rounds={rounds} seed={seed} accel={accel} \
                 fingerprint_hash={:016x}",
                decos::store::fnv1a(snap.counter_fingerprint().as_bytes())
            );
            report_stats("store", &stats);
            exitcode::OK
        }
        Err(e) => {
            eprintln!("{e}");
            exit_for(&e)
        }
    }
}

/// Runs (or extends) the stored fig10 fleet under `dir`.
pub fn cmd_fleet(dir: &str, o: &StoreCliOpts) -> i32 {
    let cfg = FleetConfig {
        vehicles: o.vehicles.unwrap_or(24),
        rounds: o.rounds.unwrap_or(1_500),
        accel: o.accel.unwrap_or(10.0),
        seed: o.seed.unwrap_or(2026),
    };
    run_stored_fleet(dir, cfg, o)
}

fn run_stored_fleet(dir: &str, cfg: FleetConfig, o: &StoreCliOpts) -> i32 {
    let io = match open_fs(dir) {
        Ok(io) => io,
        Err(code) => return code,
    };
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = fleet_options();
    let policy = o.policy();
    let mut fs = match FleetStore::open_or_create(io, &spec, &cfg, &params, &opts, &policy) {
        Ok(fs) => fs,
        Err(e) => {
            eprintln!("{e}");
            return exit_for(&e);
        }
    };
    match store_run::run_fleet_stored(&spec, cfg, params, &opts, &policy, &mut fs) {
        Ok((out, stats)) => {
            let snap = out.telemetry.as_ref().expect("telemetry on");
            println!(
                "{dir}: fleet vehicles={} rounds={} seed={} nff={:.3} degraded={} \
                 fingerprint_hash={:016x}",
                cfg.vehicles,
                cfg.rounds,
                cfg.seed,
                out.decos.nff_ratio(),
                out.degraded_vehicles,
                decos::store::fnv1a(snap.counter_fingerprint().as_bytes())
            );
            report_stats("store", &stats);
            exitcode::OK
        }
        Err(e) => {
            eprintln!("{e}");
            exit_for(&e)
        }
    }
}

/// Resumes whatever experiment the store under `dir` belongs to,
/// optionally extending the horizon (`--rounds` for campaigns,
/// `--vehicles` for fleets). Everything else comes from the manifest; the
/// spec-hash check rejects a drifted reconstruction with DA090.
pub fn cmd_resume(dir: &str, o: &StoreCliOpts) -> i32 {
    let io = match open_fs(dir) {
        Ok(io) => io,
        Err(code) => return code,
    };
    let (manifest, _, _) = match Store::inspect(io) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return exitcode::STORE_CORRUPT;
        }
    };
    match manifest.kind.as_str() {
        store_run::CAMPAIGN_KIND => {
            let rounds = o.rounds.unwrap_or(manifest.rounds);
            run_stored_campaign(dir, rounds, manifest.accel, manifest.seed, o)
        }
        store_run::FLEET_KIND => {
            let cfg = FleetConfig {
                vehicles: o.vehicles.unwrap_or(manifest.vehicles),
                rounds: manifest.rounds,
                accel: manifest.accel,
                seed: manifest.seed,
            };
            run_stored_fleet(dir, cfg, o)
        }
        other => {
            eprintln!("store kind {other:?} is not resumable by this binary");
            exitcode::STORE_CORRUPT
        }
    }
}

/// Read-only store inspection: manifest, scan verdict, snapshots,
/// quarantine. Never mutates the store (a torn tail is reported, not
/// quarantined — the next open does that).
pub fn cmd_store_stat(dir: &str) -> i32 {
    let io = match open_fs(dir) {
        Ok(io) => io,
        Err(code) => return code,
    };
    let (manifest, scan, total) = match Store::inspect(io) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return exitcode::STORE_CORRUPT;
        }
    };
    println!("store:          {dir}");
    println!("schema:         {}", manifest.schema);
    println!("kind:           {}", manifest.kind);
    println!("workload:       {}", manifest.workload);
    println!("spec_hash:      {:016x}", manifest.spec_hash);
    println!("seed:           {}", manifest.seed);
    println!("accel:          {}", manifest.accel);
    println!("rounds:         {}", manifest.rounds);
    println!("vehicles:       {}", manifest.vehicles);
    println!("snapshot_every: {}", manifest.snapshot_every);
    println!(
        "journal:        {} committed records, {} committed bytes ({total} on disk)",
        scan.records, scan.valid_len
    );
    match &scan.torn {
        Some(reason) => println!(
            "tail:           TORN at byte {} ({reason}); {} bytes pending quarantine",
            scan.valid_len,
            total - scan.valid_len
        ),
        None => println!("tail:           clean"),
    }
    // Fresh handles for the directory listings (inspect consumed the
    // first), plus direct journal presence for sanity.
    if let Ok(mut io) = FsIo::new(dir) {
        use decos::store::StoreIo as _;
        if let Ok(snaps) = io.list(decos::store::SNAP_DIR) {
            println!("snapshots:      {}", render_names(&snaps));
        }
        if let Ok(q) = io.list(decos::store::QUARANTINE_DIR) {
            println!("quarantine:     {}", render_names(&q));
        }
        if !io.exists(JOURNAL_FILE) && scan.records == 0 {
            println!("note:           journal not yet created (no rounds committed)");
        }
    }
    exitcode::OK
}

fn render_names(names: &[String]) -> String {
    if names.is_empty() {
        "(none)".to_string()
    } else {
        names.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("decos-storecli-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn campaign_then_resume_then_stat_round_trips_on_the_real_fs() {
        let dir = tmpdir("campaign");
        let o = StoreCliOpts {
            rounds: Some(120),
            seed: Some(11),
            snapshot_every: Some(64),
            sync_every: Some(8),
            ..Default::default()
        };
        assert_eq!(cmd_campaign(&dir, &o), exitcode::OK);
        // Resume with a longer horizon: replays 120, appends 80 more.
        let extend = StoreCliOpts { rounds: Some(200), ..o };
        assert_eq!(cmd_resume(&dir, &extend), exitcode::OK);
        assert_eq!(cmd_store_stat(&dir), exitcode::OK);
        // A different seed is a different experiment: DA090 → spec-rejected.
        let drifted = StoreCliOpts { seed: Some(12), ..o };
        assert_eq!(cmd_campaign(&dir, &drifted), exitcode::SPEC_REJECTED);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_store_resume_skips_committed_vehicles() {
        let dir = tmpdir("fleet");
        let o = StoreCliOpts {
            vehicles: Some(4),
            rounds: Some(400),
            seed: Some(3),
            chunk: Some(2),
            ..Default::default()
        };
        assert_eq!(cmd_fleet(&dir, &o), exitcode::OK);
        // Growing the fleet reuses the four committed vehicles.
        let grown = StoreCliOpts { vehicles: Some(6), ..o };
        assert_eq!(cmd_resume(&dir, &grown), exitcode::OK);
        assert_eq!(cmd_store_stat(&dir), exitcode::OK);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_stat_on_a_non_store_is_store_corrupt() {
        let dir = tmpdir("nonstore");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(cmd_store_stat(&dir), exitcode::STORE_CORRUPT);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
