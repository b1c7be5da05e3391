//! Crash-safe store integration: bit-identical resume, the campaign-level
//! crash matrix, DA090 spec-hash rejection, fleet vehicle skipping, and
//! tamper detection.
//!
//! The contract under test (DESIGN.md §15): running `2N` rounds straight
//! and running `N` rounds, crashing, recovering, and running `N` more
//! produce identical telemetry counter fingerprints — and byte-identical
//! journals. Everything here runs on [`FaultIo`], so "crash" means a real
//! torn write at a scripted byte offset, not a polite shutdown.

use decos::analyzer::DiagCode;
use decos::prelude::*;
use decos::store::{
    fnv1a, fnv1a_extend, frame, scan, FaultIo, FaultPlan, RoundDelta, Store, StoreError,
    JOURNAL_FILE, ROUND_DELTA_KIND, VEHICLE_KIND,
};
use decos::store_run::{
    run_campaign_stored, run_fleet_stored, CampaignSnapshot, CampaignStore, FleetSnapshot,
    FleetStore, StorePolicy, StoreRunError,
};

fn reference_campaign(rounds: u64, seed: u64) -> Campaign {
    Campaign::reference(
        decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
        10.0,
        rounds,
        seed,
    )
}

fn policy() -> StorePolicy {
    StorePolicy { snapshot_every: 16, sync_every: 4, chunk: 2 }
}

fn telemetry_opts() -> RunOptions {
    RunOptions { telemetry: true, ..Default::default() }
}

/// Straight (unstored) campaign fingerprint — the ground truth a resumed
/// run must reproduce.
fn straight_fingerprint(c: &Campaign) -> String {
    let out = decos::runner::run_campaign_opts(
        c,
        EngineParams::default(),
        telemetry_opts(),
        &mut [],
        |_, _, _| {},
    )
    .expect("straight campaign runs");
    out.telemetry.expect("telemetry on").counter_fingerprint()
}

fn run_stored(
    io: FaultIo,
    c: &Campaign,
) -> Result<(CampaignOutcome, decos::store_run::StoreRunStats), StoreRunError> {
    let params = EngineParams::default();
    let mut cs = CampaignStore::open_or_create(io, c, &params, &policy())?;
    run_campaign_stored(c, params, telemetry_opts(), &policy(), &mut cs)
}

#[test]
fn resume_after_clean_half_run_is_bit_identical_to_the_straight_run() {
    const N: u64 = 40;
    let half = reference_campaign(N, 909);
    let full = reference_campaign(2 * N, 909);
    let fp_straight = straight_fingerprint(&full);

    // First process: journal N rounds, then "the machine loses power"
    // (we simply stop using the handle — everything appended survives).
    let io = FaultIo::pristine();
    let (_, stats) = run_stored(io.clone(), &half).expect("first half runs");
    assert_eq!(stats.committed_before, 0);
    assert_eq!(stats.appended, N);
    let journal_after_half = io.file(JOURNAL_FILE).expect("journal exists");

    // Second process: same disk image, extended horizon. The committed
    // prefix is replay-verified, the second half appended.
    let io2 = FaultIo::from_files(io.files(), FaultPlan::default());
    let (out, stats) = run_stored(io2.clone(), &full).expect("resume runs");
    assert_eq!(stats.committed_before, N);
    assert_eq!(stats.verified, N, "every committed round was replay-verified");
    assert_eq!(stats.appended, N, "only the second half was appended");
    let fp_resumed = out.telemetry.expect("telemetry on").counter_fingerprint();
    assert_eq!(fp_resumed, fp_straight, "resume must be bit-identical to the straight run");

    // The resumed journal extends the first-half journal byte for byte,
    // and equals the journal a single uninterrupted stored run writes.
    let journal_resumed = io2.file(JOURNAL_FILE).expect("journal exists");
    assert_eq!(&journal_resumed[..journal_after_half.len()], &journal_after_half[..]);
    let io3 = FaultIo::pristine();
    let _ = run_stored(io3.clone(), &full).expect("uninterrupted stored run");
    assert_eq!(io3.file(JOURNAL_FILE).unwrap(), journal_resumed, "journals are byte-identical");
}

#[test]
fn crash_matrix_every_cut_of_a_mid_journal_record_recovers_and_resumes() {
    const N: u64 = 24;
    let c = reference_campaign(N, 4242);
    let fp_straight = straight_fingerprint(&c);
    let record_len = frame::framed_len(decos::store::codec::ROUND_DELTA_LEN) as u64;

    // Cut the journal at every byte offset of record 5: before it starts
    // (clean boundary), through its header, payload, and CRC trailer.
    let base = 5 * record_len;
    for cut in 0..=record_len {
        let budget = base + cut;
        let io =
            FaultIo::with_plan(FaultPlan { crash_after_bytes: Some(budget), ..Default::default() });
        let err = run_stored(io.clone(), &c).expect_err("the scripted crash must surface");
        assert!(
            matches!(err, StoreRunError::Store(StoreError::Io(_))),
            "crash at byte {budget} surfaced as {err}"
        );
        assert!(io.crashed(), "the process died");

        // Restart on the surviving disk image: recovery must keep exactly
        // the fully-persisted records and quarantine the torn remainder.
        io.restart();
        let expected_committed = budget / record_len;
        let torn_bytes = budget % record_len;
        let (out, stats) = run_stored(io.clone(), &c).expect("post-crash resume runs");
        assert_eq!(
            stats.committed_before, expected_committed,
            "crash at byte {budget}: committed prefix"
        );
        assert_eq!(stats.quarantined_bytes, torn_bytes, "crash at byte {budget}: torn tail");
        assert_eq!(stats.verified, expected_committed);
        assert_eq!(stats.appended, N - expected_committed);
        let fp = out.telemetry.expect("telemetry on").counter_fingerprint();
        assert_eq!(fp, fp_straight, "crash at byte {budget}: resume diverged");
        assert_eq!(
            io.file(JOURNAL_FILE).unwrap().len() as u64,
            N * record_len,
            "journal is whole again"
        );
    }
}

#[test]
fn resume_against_a_different_experiment_is_rejected_with_da090() {
    let c1 = reference_campaign(30, 1);
    let c2 = reference_campaign(30, 2); // different seed = different experiment
    let io = FaultIo::pristine();
    run_stored(io.clone(), &c1).expect("first experiment runs");

    let params = EngineParams::default();
    let io2 = FaultIo::from_files(io.files(), FaultPlan::default());
    let err = CampaignStore::open_or_create(io2, &c2, &params, &policy())
        .err()
        .expect("spec mismatch must be rejected");
    match err {
        StoreRunError::Campaign(CampaignError::Rejected(report)) => {
            assert!(
                report.diagnostics.iter().any(|d| d.code == DiagCode::StoreSpecMismatch),
                "rejection must carry DA090, got: {:?}",
                report.diagnostics.iter().map(|d| d.code.code()).collect::<Vec<_>>()
            );
            assert!(report.has_errors(), "DA090 is error severity");
        }
        other => panic!("expected a DA090 rejection, got {other}"),
    }
}

#[test]
fn tampered_journal_payload_fails_replay_verification() {
    const N: u64 = 20;
    let c = reference_campaign(N, 77);
    let io = FaultIo::pristine();
    run_stored(io.clone(), &c).expect("campaign runs");

    // Rewrite the journal with round 7's delivered-count inflated by one.
    // Re-framing keeps every CRC valid, so only replay verification —
    // not recovery — can catch the lie.
    let bytes = io.file(JOURNAL_FILE).unwrap();
    let mut forged = Vec::new();
    let scanned = scan(&bytes, |rec| {
        let mut delta = RoundDelta::decode(rec.payload).unwrap();
        if rec.round == 7 {
            delta.delivered += 1;
        }
        frame::encode_record(ROUND_DELTA_KIND, rec.round, rec.seq, &delta.encode(), &mut forged);
    });
    assert_eq!(scanned.records, N);
    assert!(scanned.torn.is_none());
    let io2 = FaultIo::from_files([(JOURNAL_FILE.to_string(), forged)], FaultPlan::default());
    // Carry the manifest over unchanged.
    io2.put("MANIFEST.json", io.file("MANIFEST.json").unwrap());

    let err = run_stored(io2, &c).expect_err("tampered journal must not verify");
    match err {
        StoreRunError::Determinism { round, .. } => assert_eq!(round, 7),
        other => panic!("expected a determinism mismatch at round 7, got {other}"),
    }
}

#[test]
fn campaign_snapshots_anchor_the_journal_prefix() {
    const N: u64 = 40; // snapshot_every=16 → snapshots after rounds 15 and 31
    let c = reference_campaign(N, 33);
    let io = FaultIo::pristine();
    let params = EngineParams::default();
    let mut cs = CampaignStore::open_or_create(io, &c, &params, &policy()).unwrap();
    run_campaign_stored(&c, params, telemetry_opts(), &policy(), &mut cs).unwrap();

    let names = cs.store_mut().snapshot_names().unwrap();
    assert_eq!(names, vec!["snap-000000000015.json", "snap-000000000031.json"]);
    let body = cs.store_mut().read_snapshot("snap-000000000031.json").unwrap();
    let snap: CampaignSnapshot = serde_json::from_str(&body).unwrap();
    assert_eq!(snap.round, 31);
    // The snapshot's fingerprint is the streaming hash of the journal
    // prefix it claims to capture.
    let mut fp = fnv1a(b"decos-store-campaign");
    cs.store_mut()
        .visit(|rec| {
            if rec.round < 32 {
                fp = fnv1a_extend(fp, rec.payload);
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(snap.journal_fingerprint, fp);
    assert!(snap.delivery_quality > 0.0);
    // The embedded diagnostic report is self-consistent with the
    // snapshot's own summary fields (verdicts may legitimately be empty
    // this early in a short campaign).
    assert_eq!(snap.report.delivery_quality, snap.delivery_quality);
}

#[test]
fn fleet_resume_skips_committed_vehicles_and_matches_the_straight_fleet() {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = decos::fleet::FleetOptions { telemetry: true, ..Default::default() };
    let small = FleetConfig { vehicles: 3, rounds: 300, accel: 10.0, seed: 5 };
    let grown = FleetConfig { vehicles: 6, ..small };

    let straight = decos::fleet::run_fleet_configured(&spec, grown, params, &opts).unwrap();
    let fp_straight = straight.telemetry.as_ref().unwrap().counter_fingerprint();

    let io = FaultIo::pristine();
    let mut fs = FleetStore::open_or_create(io.clone(), &spec, &small, &params, &opts, &policy())
        .expect("fleet store opens");
    let (_, stats) = run_fleet_stored(&spec, small, params, &opts, &policy(), &mut fs).unwrap();
    assert_eq!(stats.appended, 3);

    // Second process, bigger fleet: the three committed vehicles are read
    // back from the journal, only the new three are simulated.
    let io2 = FaultIo::from_files(io.files(), FaultPlan::default());
    let mut fs2 = FleetStore::open_or_create(io2, &spec, &grown, &params, &opts, &policy())
        .expect("fleet store reopens");
    let (out, stats) = run_fleet_stored(&spec, grown, params, &opts, &policy(), &mut fs2).unwrap();
    assert_eq!(stats.committed_before, 3);
    assert_eq!(stats.verified, 3, "committed vehicles reused, not re-simulated");
    assert_eq!(stats.appended, 3);

    assert_eq!(out.telemetry.as_ref().unwrap().counter_fingerprint(), fp_straight);
    assert_eq!(out.vehicles.len(), straight.vehicles.len());
    assert_eq!(out.confusion, straight.confusion);
    assert_eq!(out.decos, straight.decos);
    assert_eq!(out.obd, straight.obd);
    assert_eq!(out.mean_delivery_quality, straight.mean_delivery_quality);
    assert_eq!(out.degraded_vehicles, straight.degraded_vehicles);
    for (a, b) in out.vehicles.iter().zip(&straight.vehicles) {
        assert_eq!(a.truth_fru, b.truth_fru);
        assert_eq!(a.decos_class, b.decos_class);
        assert_eq!(a.delivery_quality, b.delivery_quality);
    }
}

#[test]
fn fleet_crash_mid_batch_loses_at_most_the_uncommitted_batch() {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = decos::fleet::FleetOptions { telemetry: true, ..Default::default() };
    let cfg = FleetConfig { vehicles: 5, rounds: 250, accel: 10.0, seed: 8 };

    // Let two vehicles commit, then kill the journal mid-append of the
    // third record. (Vehicle records are JSON, variable length — find the
    // third record's start from a clean reference run.)
    let ref_io = FaultIo::pristine();
    let mut ref_fs =
        FleetStore::open_or_create(ref_io.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
    run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut ref_fs).unwrap();
    let clean = ref_io.file(JOURNAL_FILE).unwrap();
    let mut scanned = Vec::new();
    scan(&clean, |rec| scanned.push(rec));
    assert_eq!(scanned.len(), 5);
    let third_start = scanned[2].offset;

    let io = FaultIo::with_plan(FaultPlan {
        crash_after_bytes: Some(third_start + 10),
        ..Default::default()
    });
    let mut fs =
        FleetStore::open_or_create(io.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
    let err = run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut fs)
        .expect_err("the scripted crash must surface");
    assert!(matches!(err, StoreRunError::Store(StoreError::Io(_))), "got {err}");

    io.restart();
    let io2 = FaultIo::from_files(io.files(), FaultPlan::default());
    let mut fs2 =
        FleetStore::open_or_create(io2.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
    assert_eq!(fs2.committed_vehicles(), 2, "two committed vehicles survive the crash");
    let (out, stats) = run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut fs2).unwrap();
    assert_eq!(stats.verified, 2);
    assert_eq!(stats.appended, 3);
    assert!(stats.quarantined_bytes > 0, "the torn vehicle record was quarantined");

    // And the recovered fleet still matches the uninterrupted one.
    let straight = decos::fleet::run_fleet_configured(&spec, cfg, params, &opts).unwrap();
    assert_eq!(
        out.telemetry.as_ref().unwrap().counter_fingerprint(),
        straight.telemetry.as_ref().unwrap().counter_fingerprint()
    );
    assert_eq!(io2.file(JOURNAL_FILE).unwrap(), clean, "journal is byte-identical again");
}

#[test]
fn fleet_journal_with_a_vehicle_gap_is_rejected_as_corrupt() {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = decos::fleet::FleetOptions::default();
    let cfg = FleetConfig { vehicles: 3, rounds: 200, accel: 10.0, seed: 12 };

    // Real vehicle records from a clean run, re-journaled as vehicles 0
    // and 2: in order (so `Store::append` accepts them), but vehicle 1 is
    // missing from the committed history.
    let ref_io = FaultIo::pristine();
    let mut ref_fs =
        FleetStore::open_or_create(ref_io.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
    run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut ref_fs).unwrap();
    let clean = ref_io.file(JOURNAL_FILE).unwrap();
    let mut records = Vec::new();
    scan(&clean, |rec| records.push(rec));
    let manifest = ref_fs.store().manifest().clone();

    let io = FaultIo::pristine();
    let mut store = Store::create(io.clone(), manifest).unwrap();
    for rec in [&records[0], &records[2]] {
        store.append(rec.kind, rec.round, rec.seq, rec.payload).unwrap();
    }
    store.sync().unwrap();
    drop(store);

    let err = FleetStore::open_or_create(io, &spec, &cfg, &params, &opts, &policy())
        .err()
        .expect("a gap in the committed vehicles must not open");
    assert!(matches!(err, StoreRunError::Store(StoreError::Corrupt(_))), "got {err}");
}

#[test]
fn fleet_resume_below_the_committed_count_folds_exactly_that_prefix() {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = decos::fleet::FleetOptions { telemetry: true, ..Default::default() };
    let full = FleetConfig { vehicles: 6, rounds: 300, accel: 10.0, seed: 5 };
    let prefix = FleetConfig { vehicles: 4, ..full };

    let io = FaultIo::pristine();
    let mut fs =
        FleetStore::open_or_create(io.clone(), &spec, &full, &params, &opts, &policy()).unwrap();
    run_fleet_stored(&spec, full, params, &opts, &policy(), &mut fs).unwrap();

    let io2 = FaultIo::from_files(io.files(), FaultPlan::default());
    let mut fs2 =
        FleetStore::open_or_create(io2, &spec, &prefix, &params, &opts, &policy()).unwrap();
    let (out, stats) = run_fleet_stored(&spec, prefix, params, &opts, &policy(), &mut fs2).unwrap();
    assert_eq!(stats.committed_before, 6);
    assert_eq!(stats.verified, 4, "only the requested prefix is folded");
    assert_eq!(stats.appended, 0);
    assert_eq!(stats.journal_records, 6, "the journal keeps every committed vehicle");
    assert_eq!(fs2.store().manifest().vehicles, 6, "the manifest never shrinks");

    let straight = decos::fleet::run_fleet_configured(&spec, prefix, params, &opts).unwrap();
    assert_eq!(
        out.telemetry.as_ref().unwrap().counter_fingerprint(),
        straight.telemetry.as_ref().unwrap().counter_fingerprint()
    );
    assert_eq!(out.vehicles.total(), 4);
    assert_eq!(out.vehicles.len(), straight.vehicles.len());
    assert_eq!(out.confusion, straight.confusion);
    assert_eq!(out.decos, straight.decos);
    assert_eq!(out.obd, straight.obd);
    assert_eq!(out.mean_delivery_quality.to_bits(), straight.mean_delivery_quality.to_bits());
    assert_eq!(out.degraded_vehicles, straight.degraded_vehicles);
}

#[test]
fn a_second_run_on_the_same_fleet_store_handle_extends_the_fleet() {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = decos::fleet::FleetOptions { telemetry: true, ..Default::default() };
    let full = FleetConfig { vehicles: 6, rounds: 300, accel: 10.0, seed: 5 };
    let half = FleetConfig { vehicles: 3, ..full };
    let fingerprint = |out: &FleetOutcome| out.telemetry.as_ref().unwrap().counter_fingerprint();

    // Half, then full, on one handle.
    let io = FaultIo::pristine();
    let mut fs =
        FleetStore::open_or_create(io.clone(), &spec, &half, &params, &opts, &policy()).unwrap();
    run_fleet_stored(&spec, half, params, &opts, &policy(), &mut fs).unwrap();
    assert_eq!(fs.committed_vehicles(), 3, "the handle counts what it committed");
    let (same_handle, stats) =
        run_fleet_stored(&spec, full, params, &opts, &policy(), &mut fs).unwrap();
    assert_eq!(stats.committed_before, 3);
    assert_eq!(stats.verified, 3);
    assert_eq!(stats.appended, 3);
    assert_eq!(fs.committed_vehicles(), 6);

    // Half, then full, through a reopen.
    let io2 = FaultIo::pristine();
    let mut fs2 =
        FleetStore::open_or_create(io2.clone(), &spec, &half, &params, &opts, &policy()).unwrap();
    run_fleet_stored(&spec, half, params, &opts, &policy(), &mut fs2).unwrap();
    drop(fs2);
    let mut fs2 =
        FleetStore::open_or_create(io2.clone(), &spec, &full, &params, &opts, &policy()).unwrap();
    let (reopened, _) = run_fleet_stored(&spec, full, params, &opts, &policy(), &mut fs2).unwrap();

    let straight = decos::fleet::run_fleet_configured(&spec, full, params, &opts).unwrap();
    assert_eq!(fingerprint(&same_handle), fingerprint(&reopened));
    assert_eq!(fingerprint(&same_handle), fingerprint(&straight));
    assert_eq!(io.file(JOURNAL_FILE), io2.file(JOURNAL_FILE), "same journal either way");
}

#[test]
fn fleet_snapshots_follow_their_cadence_off_the_grid() {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = decos::fleet::FleetOptions::default();
    let policy = StorePolicy { snapshot_every: 4, sync_every: 1, chunk: 2 };
    let small = FleetConfig { vehicles: 3, rounds: 200, accel: 10.0, seed: 12 };
    let grown = FleetConfig { vehicles: 11, ..small };

    let io = FaultIo::pristine();
    let mut fs =
        FleetStore::open_or_create(io.clone(), &spec, &small, &params, &opts, &policy).unwrap();
    let (_, first) = run_fleet_stored(&spec, small, params, &opts, &policy, &mut fs).unwrap();
    assert_eq!(first.snapshots_written, 0, "batches 0..2 and 2..3 cross no multiple of 4");

    // The resume starts off the grid at 3 and its batches (3..5, 5..7,
    // 7..9, 9..11) never end on a multiple of 4; the first and third
    // cross one.
    let io2 = FaultIo::from_files(io.files(), FaultPlan::default());
    let mut fs2 = FleetStore::open_or_create(io2, &spec, &grown, &params, &opts, &policy).unwrap();
    let (_, stats) = run_fleet_stored(&spec, grown, params, &opts, &policy, &mut fs2).unwrap();
    assert_eq!(stats.snapshots_written, 2);
    let names = fs2.store_mut().snapshot_names().unwrap();
    assert_eq!(names, ["snap-000000000005.json", "snap-000000000009.json"]);

    // Each snapshot anchors the journal prefix it names.
    let body = fs2.store_mut().read_snapshot(&names[1]).unwrap();
    let snap: FleetSnapshot = serde_json::from_str(&body).unwrap();
    assert_eq!(snap.vehicles_done, 9);
    let mut fp = fnv1a(b"decos-store-fleet");
    fs2.store_mut()
        .visit(|rec| {
            if rec.round < 9 {
                fp = fnv1a_extend(fp, rec.payload);
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(snap.journal_fingerprint, fp);
}

#[test]
fn a_crc_valid_vehicle_record_that_does_not_decode_is_rejected_as_corrupt() {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = decos::fleet::FleetOptions::default();
    let cfg = FleetConfig { vehicles: 3, rounds: 200, accel: 10.0, seed: 12 };

    let ref_io = FaultIo::pristine();
    let mut ref_fs =
        FleetStore::open_or_create(ref_io.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
    run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut ref_fs).unwrap();
    let clean = ref_io.file(JOURNAL_FILE).unwrap();
    let mut records = Vec::new();
    scan(&clean, |rec| records.push(rec));
    let vehicle0 = records[0].payload.to_vec();
    let manifest = ref_fs.store().manifest().clone();

    // Vehicle 1's record is framed with a valid CRC, so recovery keeps
    // it; only decoding can tell it is wrong.
    for (case, bad) in [
        ("payload is not a vehicle record", b"{\"schema\": 7".to_vec()),
        ("vehicle field disagrees with the frame header", vehicle0.clone()),
    ] {
        let io = FaultIo::pristine();
        let mut store = Store::create(io.clone(), manifest.clone()).unwrap();
        store.append(VEHICLE_KIND, 0, 0, &vehicle0).unwrap();
        store.append(VEHICLE_KIND, 1, 1, &bad).unwrap();
        store.sync().unwrap();
        drop(store);
        let before = io.files();

        let err = FleetStore::open_or_create(io.clone(), &spec, &cfg, &params, &opts, &policy())
            .and_then(|mut fs| run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut fs))
            .err()
            .unwrap_or_else(|| panic!("{case}: the fleet must not run"));
        assert!(matches!(err, StoreRunError::Store(StoreError::Corrupt(_))), "{case}: got {err}");
        assert_eq!(io.files(), before, "{case}: the store is untouched");
    }
}
