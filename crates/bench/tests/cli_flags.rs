//! End-to-end regression for the silent flag-parse fallback: `repro`
//! used to swallow numeric parse errors (`--vehicles 24x` ran the
//! 24-vehicle default instead of failing). Malformed numeric flags must
//! now exit 2 with a usage message naming the flag, and `_` digit
//! separators must parse (`--vehicles 1_000_000` is one million).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro spawns")
}

#[test]
fn malformed_vehicles_flag_is_a_usage_error() {
    let out = repro(&["fleet", "--vehicles", "24x", "--rounds", "10"]);
    assert_eq!(out.status.code(), Some(2), "exit 2, not a silent default run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--vehicles"), "stderr names the flag: {err}");
    assert!(err.contains("24x"), "stderr echoes the bad value: {err}");
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    let out = repro(&["fleet", "--vehicles"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--vehicles"));
}

#[test]
fn malformed_effort_is_a_usage_error_even_for_experiments() {
    let out = repro(&["e1-architecture", "--effort", "fast"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--effort"));
}

#[test]
fn underscored_digit_separators_parse() {
    // `2_0` vehicles → a real (cheap) 20-vehicle streaming run, proving
    // the separator form reaches the workload, not just the parser.
    let out = repro(&["fleet", "--vehicles", "2_0", "--rounds", "10", "--shards", "2"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("vehicles=20"), "ran exactly 20 vehicles: {stdout}");
    assert!(stdout.contains("fingerprint_hash="), "summary prints the fingerprint: {stdout}");
}

#[test]
fn storeless_campaign_is_still_a_usage_error() {
    let out = repro(&["campaign"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn empty_fleet_prints_an_empty_report() {
    let dir = std::env::temp_dir().join(format!("decos-cli-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = dir.join("store");
    let store = store.to_str().expect("utf-8 temp dir");
    for args in [
        vec!["fleet", "--vehicles", "0"],
        vec!["fleet", "--vehicles", "0", "--telemetry"],
        vec!["fleet", "--store", store, "--vehicles", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("repro spawns");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} stderr: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_sampled_vehicle_exits_spec_rejected() {
    // One round is too short for the job-borderline pattern, so the first
    // sampled job-borderline vehicle is rejected: exit 3, not a panic —
    // also on the BENCH emitter path, which must then write no BENCH file.
    // In a horizon of 0 rounds no sampled fault can manifest at all.
    let dir = std::env::temp_dir().join(format!("decos-cli-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (rounds, extra) in [("1", None), ("1", Some("--telemetry")), ("0", None)] {
        let fleet = ["fleet", "--vehicles", "200", "--rounds", rounds, "--shards", "1"];
        let args: Vec<&str> = fleet.iter().copied().chain(extra).collect();
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("repro spawns");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?} stderr: {err}");
        assert!(err.contains("UncoveredFaultClass"), "stderr names the rejection: {err}");
        assert!(!err.contains("panicked"), "no panic: {err}");
        assert!(!dir.join("BENCH_fleet.json").exists(), "{args:?} wrote a BENCH file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_sampled_vehicle_in_a_stored_fleet_exits_spec_rejected() {
    let dir = std::env::temp_dir().join(format!("decos-cli-rejected-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().expect("utf-8 temp dir");
    let out = repro(&["fleet", "--store", dir_s, "--vehicles", "200", "--rounds", "1"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "no worker panic: {err}");
}
