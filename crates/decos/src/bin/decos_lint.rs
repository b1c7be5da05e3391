//! `decos-lint` — static model checking of cluster specifications.
//!
//! Runs the `decos-analyzer` pass over the built-in clusters (or a chosen
//! one) and pretty-prints the findings. Exits nonzero when any diagnostic
//! has error severity, so CI can gate on model validity.
//!
//! With `--diagnosability` it instead runs the bounded n-diagnosability
//! engine over the full class x FRU hypothesis matrix of each cluster and
//! prints the ambiguity matrix (DA080-series view). Diagnosability
//! findings are warnings, so this mode always exits zero unless the
//! report cannot be produced.
//!
//! ```text
//! decos-lint [--json] [--rounds N] [--diagnosability] [fig10|avionics|all]
//! ```

use decos::analyzer::{
    analyze, analyze_diagnosability, full_hypotheses, AnalysisReport, ExperimentSpec, Verdict,
};
use decos::platform::{avionics, fig10, ClusterSpec};
use serde::Serialize;
use std::process::ExitCode;

/// JSON form of one pairwise verdict.
#[derive(Serialize)]
struct JsonPair {
    a: String,
    b: String,
    verdict: &'static str,
    /// Earliest distinguishing round (diagnosable pairs only).
    round: Option<u64>,
    /// Witness trace steps (ambiguous pairs only).
    witness: Vec<String>,
}

/// JSON form of one cluster's diagnosability report.
#[derive(Serialize)]
struct JsonReport {
    cluster: String,
    rounds: u64,
    summary: String,
    hypotheses: Vec<String>,
    invisible: Vec<String>,
    pairs: Vec<JsonPair>,
}

const USAGE: &str =
    "usage: decos-lint [--json] [--rounds N] [--diagnosability] [fig10|avionics|all]";

fn lint(name: &str, spec: &ClusterSpec, rounds: u64) -> AnalysisReport {
    let mut exp = ExperimentSpec::new(spec);
    // `--rounds 0` lints the cluster without a horizon.
    exp.rounds = Some(rounds).filter(|&r| r > 0);
    let report = analyze(&exp);
    eprintln!("== {name}: {} ==", report.summary());
    report
}

/// Runs the diagnosability engine over the full hypothesis matrix of one
/// cluster and prints the ambiguity matrix (or its JSON form).
fn lint_diagnosability(name: &str, spec: &ClusterSpec, rounds: u64, json: bool) -> Option<()> {
    let exp = ExperimentSpec::new(spec);
    let report = analyze_diagnosability(&exp, full_hypotheses(&exp), rounds);
    eprintln!("== {name}: {} ==", report.summary());
    if json {
        let hyps: Vec<String> = report.hypotheses.iter().map(|h| h.label()).collect();
        let pairs = report
            .pairs
            .iter()
            .map(|p| {
                let (verdict, round, witness) = match &p.verdict {
                    Verdict::Diagnosable { round } => ("diagnosable", Some(*round), Vec::new()),
                    Verdict::Ambiguous { witness } => {
                        ("ambiguous", None, witness.iter().map(|w| w.to_string()).collect())
                    }
                    Verdict::Undetectable => ("undetectable", None, Vec::new()),
                };
                JsonPair { a: hyps[p.a].clone(), b: hyps[p.b].clone(), verdict, round, witness }
            })
            .collect();
        let doc = JsonReport {
            cluster: name.to_string(),
            rounds,
            summary: report.summary(),
            invisible: report.invisible().map(|i| hyps[i].clone()).collect(),
            hypotheses: hyps,
            pairs,
        };
        match serde_json::to_string_pretty(&doc) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serializing the {name} diagnosability report failed: {e:?}");
                return None;
            }
        }
    } else {
        println!("# {name} (n = {rounds})\n{}", report.matrix());
    }
    Some(())
}

fn main() -> ExitCode {
    let mut json = false;
    let mut diagnosability = false;
    let mut rounds: u64 = 4000;
    let mut target = String::from("all");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--diagnosability" => diagnosability = true,
            "--rounds" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => rounds = n,
                None => {
                    eprintln!("--rounds needs an integer argument\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "fig10" | "avionics" | "all" => target = a,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if diagnosability {
        let mut ok = true;
        if target == "fig10" || target == "all" {
            ok &= lint_diagnosability("fig10", &fig10::reference_spec(), rounds, json).is_some();
        }
        if target == "avionics" || target == "all" {
            ok &=
                lint_diagnosability("avionics", &avionics::avionics_spec(), rounds, json).is_some();
        }
        return if ok { ExitCode::SUCCESS } else { ExitCode::from(2) };
    }

    let mut reports: Vec<(String, AnalysisReport)> = Vec::new();
    if target == "fig10" || target == "all" {
        reports.push(("fig10".into(), lint("fig10", &fig10::reference_spec(), rounds)));
    }
    if target == "avionics" || target == "all" {
        reports.push(("avionics".into(), lint("avionics", &avionics::avionics_spec(), rounds)));
    }

    let mut failed = false;
    for (name, report) in &reports {
        if json {
            match serde_json::to_string_pretty(report) {
                Ok(s) => println!("{s}"),
                Err(e) => {
                    eprintln!("serializing the {name} report failed: {e:?}");
                    return ExitCode::from(2);
                }
            }
        } else {
            println!("# {name}\n{report}\n");
        }
        failed |= report.has_errors();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
