//! Regenerates the paper's figures as data: one subcommand per experiment.
//!
//! ```sh
//! cargo run --release -p decos-bench --bin repro -- all
//! cargo run --release -p decos-bench --bin repro -- e5-bathtub --json
//! cargo run --release -p decos-bench --bin repro -- e9-actions --effort 0.2
//! ```
//!
//! Telemetry sinks (DESIGN.md §11):
//!
//! ```sh
//! # Emit BENCH_fleet.json + BENCH_slot.json (exits 5 if same-seed
//! # counter snapshots disagree — the CI determinism gate).
//! cargo run --release -p decos-bench --bin repro -- --telemetry
//! # Stream a per-round JSONL trace of a reference campaign.
//! cargo run --release -p decos-bench --bin repro -- --trace trace.jsonl
//! # Record a fault-lifecycle flight-recorder dump of the same campaign.
//! cargo run --release -p decos-bench --bin repro -- --flightrec flightrec.jsonl
//! # Render a dump as a fault timeline + latency table.
//! cargo run --release -p decos-bench --bin repro -- trace-report flightrec.jsonl
//! # Enforce the perf trajectory against the committed BENCH files
//! # (exit 6 on a >10% slots/sec regression, 5 on a determinism mismatch).
//! cargo run --release -p decos-bench --bin repro -- bench-compare --tolerance 0.10
//! ```
//!
//! Fleet scale (DESIGN.md §16):
//!
//! ```sh
//! # Stream the million-vehicle fleet through the sharded executor.
//! cargo run --release -p decos-bench --bin repro -- fleet --vehicles 1_000_000
//! # Pin the shard count (default: available parallelism).
//! cargo run --release -p decos-bench --bin repro -- fleet --vehicles 50_000 --shards 2
//! # Regenerate BENCH_fleet.json from an explicit workload.
//! cargo run --release -p decos-bench --bin repro -- fleet --vehicles 1_000_000 --telemetry
//! ```
//!
//! Numeric flags parse strictly: `--vehicles 24x` is a usage error
//! (exit 2), never a silent fallback to the default workload, and `_`
//! digit separators are accepted (`1_000_000`).
//!
//! Crash-safe persistence (DESIGN.md §15):
//!
//! ```sh
//! # Journal the reference campaign / the fig10 fleet as it runs.
//! cargo run --release -p decos-bench --bin repro -- campaign --store /tmp/c1
//! cargo run --release -p decos-bench --bin repro -- fleet --store /tmp/f1 --vehicles 24
//! # Continue after a crash (or extend the horizon) — bit-identical resume.
//! cargo run --release -p decos-bench --bin repro -- resume /tmp/c1 --rounds 4000
//! # Inspect a store without mutating it.
//! cargo run --release -p decos-bench --bin repro -- store-stat /tmp/c1
//! ```
//!
//! Exit codes are one-per-failure-class (`decos_bench::exitcode`,
//! README §"Exit codes"): 0 ok, 1 failure, 2 usage, 3 spec rejected,
//! 4 store corrupt, 5 determinism mismatch, 6 perf-gate regression.

use decos_bench::experiments as exp;
use decos_bench::{cliflags, compare, exitcode, flightdump, perf, storecli, Effort};

const IDS: &[&str] = &[
    "e1-architecture",
    "e2-taxonomy",
    "e3-component",
    "e4-job",
    "e5-bathtub",
    "e6-patterns",
    "e7-trust",
    "e8-judgment",
    "e9-actions",
    "e10-assumptions",
    "e11-alpha",
    "e12-ablation",
    "e13-service-loop",
    "e14-diag-degradation",
];

fn run_one(id: &str, effort: Effort, json: bool) {
    macro_rules! emit {
        ($result:expr) => {{
            let r = $result;
            if json {
                println!("{}", serde_json::to_string_pretty(&r).expect("serializable"));
            } else {
                println!("{}", r.render());
            }
        }};
    }
    match id {
        "bench-fleet" => run_bench(fleet_or_exit(perf::bench_fleet(effort)), "BENCH_fleet.json"),
        "bench-slot" => run_bench(perf::bench_slot(effort), "BENCH_slot.json"),
        "e1-architecture" => emit!(exp::e1_architecture()),
        "e2-taxonomy" => emit!(exp::e2_taxonomy(effort)),
        "e3-component" => emit!(exp::e3_component(effort)),
        "e4-job" => emit!(exp::e4_job(effort)),
        "e5-bathtub" => emit!(exp::e5_bathtub(effort)),
        "e6-patterns" => emit!(exp::e6_patterns(effort)),
        "e7-trust" => emit!(exp::e7_trust(effort)),
        "e8-judgment" => emit!(exp::e8_judgment(effort)),
        "e9-actions" => emit!(exp::e9_actions(effort)),
        "e10-assumptions" => emit!(exp::e10_assumptions(effort)),
        "e11-alpha" => emit!(exp::e11_alpha(effort)),
        "e12-ablation" => emit!(exp::e12_ablation(effort)),
        "e13-service-loop" => emit!(exp::e13_service_loop(effort)),
        "e14-diag-degradation" => emit!(exp::e14_diag_degradation(effort)),
        other => {
            eprintln!("unknown experiment '{other}'; available: {IDS:?} or 'all'");
            std::process::exit(exitcode::USAGE);
        }
    }
}

/// Runs one BENCH shape: writes the report, prints the headline, and exits
/// nonzero when the same-seed double run was not counter-deterministic.
fn run_bench(report: perf::BenchReport, path: &str) {
    perf::write_report(&report, path).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(exitcode::FAILURE);
    });
    println!(
        "{path}: {:.0} slots/sec{} deterministic={}",
        report.slots_per_sec,
        report.vehicles_per_sec.map_or_else(String::new, |v| format!(", {v:.2} vehicles/sec")),
        report.deterministic
    );
    if !report.deterministic {
        eprintln!("FAIL: same-seed runs produced different counter snapshots");
        std::process::exit(exitcode::DETERMINISM);
    }
}

/// Streams a per-round JSONL trace of the reference connector campaign.
fn run_trace(path: &str, effort: Effort) {
    use decos::prelude::*;
    let rounds = effort.scale(2_000);
    let c = Campaign::reference(
        decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
        10.0,
        rounds,
        2026,
    );
    match perf::traced_campaign(&c, path) {
        Ok(out) => {
            let snap = out.telemetry.expect("telemetry on");
            println!(
                "{path}: {rounds} rows, fingerprint {} chars",
                snap.counter_fingerprint().len()
            );
        }
        Err(e) => {
            eprintln!("trace failed: {e}");
            std::process::exit(exitcode::FAILURE);
        }
    }
}

/// Records a flight-recorder dump of the reference connector campaign
/// (the `--trace` campaign, recorder on) and always writes it — the
/// on-anomaly policy applies to experiment sweeps, not to an explicit
/// dump request.
fn run_flightrec(path: &str, effort: Effort) {
    use decos::prelude::*;
    let rounds = effort.scale(2_000);
    let c = Campaign::reference(
        decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
        10.0,
        rounds,
        2026,
    );
    let opts = RunOptions { telemetry: true, flightrec: true, ..Default::default() };
    let out =
        decos::runner::run_campaign_opts(&c, EngineParams::default(), opts, &mut [], |_, _, _| {})
            .unwrap_or_else(|e| {
                eprintln!("flightrec campaign failed: {e}");
                std::process::exit(exitcode::FAILURE);
            });
    let trace = out.trace.as_ref().expect("flightrec on");
    flightdump::write_flightrec(trace, path).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(exitcode::FAILURE);
    });
    println!(
        "{path}: {} events ({} overwritten), anomalous={}",
        trace.events.len(),
        trace.dropped,
        flightdump::is_anomalous(&out)
    );
}

/// Renders a `decos-flightrec/1` dump as a fault timeline + latency table.
fn run_trace_report(path: &str) {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(exitcode::FAILURE);
    });
    let events = flightdump::read_flightrec(&body).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(exitcode::FAILURE);
    });
    print!("{}", flightdump::render_trace_report(&events));
}

/// Renders the phase-share table from a committed `BENCH_*.json`: what
/// percent of the pipeline's wall time each phase accounts for.
fn run_phase_shares(path: &str) {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(exitcode::FAILURE);
    });
    let phases = (|| -> Result<Vec<(String, u64, f64)>, serde::value::DeError> {
        let v = serde::value::parse_embedded(&body)?;
        let entries = v.as_map()?;
        let mut out = Vec::new();
        for p in serde::value::field(entries, "phases")?.as_seq()? {
            let pm = p.as_map()?;
            out.push((
                serde::value::field(pm, "name")?.as_str()?.to_string(),
                serde::value::field(pm, "count")?.as_u64()?,
                serde::value::field(pm, "mean_ns")?.as_f64()?,
            ));
        }
        Ok(out)
    })()
    .unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(exitcode::FAILURE);
    });
    println!();
    print!("{}", flightdump::render_phase_shares(&flightdump::phase_shares(&phases)));
}

/// Strict numeric flag lookup ([`cliflags::numeric_flag`]): a present
/// flag with a missing or malformed value is a usage error (exit 2),
/// never a silent fallback to the default workload.
fn numeric_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    cliflags::numeric_flag(args, name).unwrap_or_else(|msg| {
        eprintln!("usage error: {msg}");
        std::process::exit(exitcode::USAGE);
    })
}

/// `repro fleet` without `--store`: one streaming run of the sharded
/// fleet executor (DESIGN.md §16). Defaults to the BENCH headline
/// workload — effort × 10⁶ vehicles, [`perf::FLEET_BENCH_ROUNDS`] rounds
/// each — and with `--telemetry` regenerates `BENCH_fleet.json` from the
/// same workload (warm-up + shard ladder).
fn run_fleet_scale(
    o: &storecli::StoreCliOpts,
    shards: Option<usize>,
    effort: Effort,
    telemetry: bool,
) {
    use decos::prelude::*;
    let cfg = FleetConfig {
        vehicles: o.vehicles.unwrap_or_else(|| effort.scale(perf::FLEET_BENCH_VEHICLES)),
        rounds: o.rounds.unwrap_or(perf::FLEET_BENCH_ROUNDS),
        accel: o.accel.unwrap_or(10.0),
        seed: o.seed.unwrap_or(2026),
    };
    if telemetry {
        let report = fleet_or_exit(perf::bench_fleet_workload(cfg, shards, effort.0));
        run_bench(report, "BENCH_fleet.json");
        return;
    }
    let (out, wall_secs) = fleet_or_exit(perf::fleet_once(cfg, shards));
    let snap = out.telemetry.as_ref().expect("telemetry on");
    let slots = snap.counter("slots_simulated").unwrap_or(0);
    println!(
        "fleet vehicles={} rounds={} seed={} shards={}: {:.2}s wall, \
         {:.0} vehicles/sec, {:.0} slots/sec",
        cfg.vehicles,
        cfg.rounds,
        cfg.seed,
        shards.map_or_else(|| "auto".to_string(), |s| s.to_string()),
        wall_secs,
        cfg.vehicles as f64 / wall_secs,
        slots as f64 / wall_secs,
    );
    println!(
        "  nff={:.3} degraded={} retained={}/{} (stride {}) fingerprint_hash={:016x}",
        out.decos.nff_ratio(),
        out.degraded_vehicles,
        out.vehicles.len(),
        out.vehicles.total(),
        out.vehicles.stride(),
        decos::store::fnv1a(snap.counter_fingerprint().as_bytes())
    );
}

/// Unwraps a fleet result; a failed fleet exits 3 when the analyzer
/// rejected a sampled vehicle and 1 on a broken specification.
fn fleet_or_exit<T>(result: Result<T, decos::runner::CampaignError>) -> T {
    use decos::runner::CampaignError;
    result.unwrap_or_else(|e| {
        eprintln!("fleet failed: {e}");
        std::process::exit(match e {
            CampaignError::Rejected(_) => exitcode::SPEC_REJECTED,
            CampaignError::Spec(_) => exitcode::FAILURE,
        });
    })
}

/// The perf-trajectory gate: exits 6 on a regression beyond tolerance,
/// 5 on a determinism mismatch.
fn run_bench_compare(effort: Effort, tolerance: f64) {
    let results = compare::bench_compare(effort, tolerance, "BENCH_fleet.json", "BENCH_slot.json")
        .unwrap_or_else(|e| {
            eprintln!("bench-compare: {e}");
            std::process::exit(exitcode::FAILURE);
        });
    let mut failed = false;
    let mut nondeterministic = false;
    for r in &results {
        println!(
            "{}: baseline {:.0} slots/sec, current {:.0} slots/sec ({:+.1}%) — {}",
            r.name,
            r.baseline,
            r.current,
            (r.current / r.baseline - 1.0) * 100.0,
            if r.passed() {
                "ok"
            } else if !r.deterministic {
                "FAIL (non-deterministic)"
            } else if r.regressed {
                "FAIL (regression)"
            } else if r.vehicles.is_some_and(|v| v.regressed) {
                "FAIL (vehicles/sec regression)"
            } else {
                "FAIL (phase regression)"
            }
        );
        if let Some(v) = r.vehicles {
            println!(
                "  vehicles/sec: baseline {:.0}, current {:.0} ({:+.1}%) — {}",
                v.baseline,
                v.current,
                (v.current / v.baseline - 1.0) * 100.0,
                if v.regressed { "FAIL" } else { "ok" }
            );
        }
        for p in &r.phases {
            println!(
                "  {} p50: baseline {} ns, current {} ns — {}",
                p.name,
                p.baseline_p50_ns,
                p.current_p50_ns,
                if p.regressed { "FAIL" } else { "ok" }
            );
        }
        failed |= !r.passed();
        nondeterministic |= !r.deterministic;
    }
    if failed {
        eprintln!("FAIL: perf trajectory gate (tolerance {:.0}%)", tolerance * 100.0);
        // Determinism breakage outranks a perf regression as a verdict:
        // a nondeterministic run's timing numbers aren't trustworthy.
        std::process::exit(if nondeterministic {
            exitcode::DETERMINISM
        } else {
            exitcode::PERF_GATE
        });
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let flag_value = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
    let effort = numeric_flag(&args, "--effort").map_or(Effort(1.0), Effort);
    let telemetry = args.iter().any(|a| a == "--telemetry");
    let trace = flag_value("--trace").cloned();
    let flightrec = flag_value("--flightrec").cloned();
    let tolerance = numeric_flag(&args, "--tolerance").unwrap_or(compare::DEFAULT_TOLERANCE);
    let store_dir = flag_value("--store").cloned();
    let resume_dir = flag_value("--resume").cloned();
    let shards: Option<usize> = numeric_flag(&args, "--shards");
    let store_opts = storecli::StoreCliOpts {
        rounds: numeric_flag(&args, "--rounds"),
        vehicles: numeric_flag(&args, "--vehicles"),
        seed: numeric_flag(&args, "--seed"),
        accel: numeric_flag(&args, "--accel"),
        snapshot_every: numeric_flag(&args, "--snapshot-every"),
        sync_every: numeric_flag(&args, "--sync-every"),
        chunk: numeric_flag(&args, "--chunk"),
    };
    const VALUE_FLAGS: &[&str] = &[
        "--effort",
        "--trace",
        "--flightrec",
        "--tolerance",
        "--store",
        "--resume",
        "--rounds",
        "--vehicles",
        "--seed",
        "--accel",
        "--snapshot-every",
        "--sync-every",
        "--chunk",
        "--shards",
    ];
    let ids: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            // Skip flags and flag values (--effort 0.2, --trace out.jsonl).
            !a.starts_with("--")
                && args.get(i.wrapping_sub(1)).is_none_or(|p| !VALUE_FLAGS.contains(&p.as_str()))
        })
        .map(|(_, s)| s.as_str())
        .collect();
    // Subcommands with their own argument shapes come first.
    match ids.first() {
        Some(&"campaign") | Some(&"fleet") if store_dir.is_some() => {
            let dir = store_dir.as_deref().expect("guarded above");
            let code = if ids[0] == "campaign" {
                storecli::cmd_campaign(dir, &store_opts)
            } else {
                storecli::cmd_fleet(dir, &store_opts)
            };
            std::process::exit(code);
        }
        Some(&"fleet") => {
            // Storeless fleet = the streaming scale workload (§16).
            run_fleet_scale(&store_opts, shards, effort, telemetry);
            return;
        }
        Some(&"campaign") => {
            eprintln!("usage: repro campaign --store <dir> [--rounds N] [--seed N] ...");
            std::process::exit(exitcode::USAGE);
        }
        Some(&"resume") => {
            let Some(dir) = ids.get(1) else {
                eprintln!("usage: repro resume <store-dir> [--rounds N] [--vehicles N]");
                std::process::exit(exitcode::USAGE);
            };
            std::process::exit(storecli::cmd_resume(dir, &store_opts));
        }
        Some(&"store-stat") => {
            let Some(dir) = ids.get(1) else {
                eprintln!("usage: repro store-stat <store-dir>");
                std::process::exit(exitcode::USAGE);
            };
            std::process::exit(storecli::cmd_store_stat(dir));
        }
        _ => {}
    }
    if let Some(dir) = &resume_dir {
        // `--resume <dir>` is shorthand for the resume subcommand.
        std::process::exit(storecli::cmd_resume(dir, &store_opts));
    }
    if ids.first() == Some(&"trace-report") {
        let Some(path) = ids.get(1) else {
            eprintln!("usage: repro trace-report <flightrec.jsonl> [BENCH_*.json]");
            std::process::exit(exitcode::USAGE);
        };
        run_trace_report(path);
        if let Some(bench) = ids.get(2) {
            run_phase_shares(bench);
        }
        return;
    }
    if ids.first() == Some(&"bench-compare") {
        run_bench_compare(effort, tolerance);
        return;
    }
    if telemetry {
        // Shorthand for both BENCH emitters.
        run_bench(fleet_or_exit(perf::bench_fleet(effort)), "BENCH_fleet.json");
        run_bench(perf::bench_slot(effort), "BENCH_slot.json");
    }
    if let Some(path) = &trace {
        run_trace(path, effort);
    }
    if let Some(path) = &flightrec {
        run_flightrec(path, effort);
    }
    if ids.is_empty() {
        if telemetry || trace.is_some() || flightrec.is_some() {
            return;
        }
        eprintln!(
            "usage: repro <experiment|all> [--json] [--effort <f>] [--telemetry] \
             [--trace <path>] [--flightrec <path>]"
        );
        eprintln!("       repro trace-report <flightrec.jsonl> [BENCH_*.json]");
        eprintln!("       repro bench-compare [--effort <f>] [--tolerance <f>]");
        eprintln!("       repro fleet [--vehicles N] [--rounds N] [--shards N] [--telemetry]");
        eprintln!("       repro campaign|fleet --store <dir> [--rounds N] [--vehicles N] ...");
        eprintln!("       repro resume <dir> | repro store-stat <dir>");
        eprintln!("experiments: {IDS:?} plus bench-fleet, bench-slot");
        std::process::exit(exitcode::USAGE);
    }
    for id in ids {
        if id == "all" {
            for e in IDS {
                println!("================================================================");
                run_one(e, effort, json);
            }
        } else {
            run_one(id, effort, json);
        }
    }
}
