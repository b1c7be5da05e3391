//! Crash matrix at the store layer (ISSUE 9): kill the writer at every
//! byte boundary of a journal record and prove recovery never loses a
//! committed record nor resurrects an uncommitted one.
//!
//! The campaign-level twin of this suite (crashing a real simulation and
//! checking resume fingerprints) lives in the repo-root `store_resume`
//! test; this one exhausts the byte-offset space cheaply on synthetic
//! records through [`FaultIo`].

use decos_store::frame::framed_len;
use decos_store::store::{Manifest, Store, StoreError, JOURNAL_FILE, STORE_SCHEMA};
use decos_store::{FaultIo, FaultPlan, ROUND_DELTA_KIND};

fn manifest() -> Manifest {
    Manifest {
        schema: STORE_SCHEMA.to_string(),
        kind: "campaign".to_string(),
        workload: "crash-matrix".to_string(),
        spec_hash: 0xDEAD_BEEF,
        seed: 1,
        accel: 1.0,
        rounds: 64,
        vehicles: 1,
        snapshot_every: 0,
    }
}

fn payload(r: u64) -> Vec<u8> {
    // Distinctive, round-dependent content so a resurrected or shuffled
    // record cannot masquerade as the right one.
    (0..24).map(|i| (r as u8).wrapping_mul(31).wrapping_add(i)).collect()
}

/// One framed record's length for this suite's payloads.
fn record_len() -> u64 {
    framed_len(payload(0).len()) as u64
}

#[test]
fn crash_at_every_byte_of_a_record_preserves_exactly_the_committed_prefix() {
    const COMMITTED: u64 = 5;
    let rec = record_len();
    let base = COMMITTED * rec;
    // Sweep the crash budget across every byte of record COMMITTED (plus
    // the clean boundary on each side).
    for extra in 0..=rec {
        let io = FaultIo::with_plan(FaultPlan {
            crash_after_bytes: Some(base + extra),
            ..Default::default()
        });
        let mut s = Store::create(io.clone(), manifest()).unwrap();
        let mut written = 0u64;
        for r in 0..COMMITTED + 1 {
            match s.append(ROUND_DELTA_KIND, r, r, &payload(r)) {
                Ok(()) => written += 1,
                Err(e) => {
                    assert!(
                        matches!(e, StoreError::Io(_)),
                        "crash at +{extra} must surface as I/O, got {e}"
                    );
                    break;
                }
            }
        }
        if extra == rec {
            assert_eq!(written, COMMITTED + 1, "full budget fits every record");
        } else {
            assert_eq!(written, COMMITTED, "crash lands inside the last record");
        }
        assert_eq!(io.crashed(), extra < rec);

        // "Restart the process" on the surviving disk image and recover.
        io.restart();
        let mut back = Store::open(io.clone()).expect("recovery must never fail on a torn tail");
        let mut recovered = Vec::new();
        back.visit(|record| {
            recovered.push((record.round, record.payload.to_vec()));
            Ok(())
        })
        .unwrap();
        let expect = written.min(COMMITTED + 1);
        assert_eq!(
            recovered.len() as u64,
            expect,
            "crash at +{extra}: committed records must survive, uncommitted must not"
        );
        for (r, (round, got)) in recovered.iter().enumerate() {
            assert_eq!(*round, r as u64, "crash at +{extra}");
            assert_eq!(*got, payload(r as u64), "crash at +{extra}");
        }
        // Torn bytes (if any) are quarantined, never deleted; the journal
        // is truncated back to the committed prefix.
        let torn_bytes = extra.min(rec) % rec;
        if torn_bytes > 0 {
            let q = back.quarantine_names().unwrap();
            assert_eq!(q.len(), 1, "crash at +{extra}: torn tail must be quarantined");
            assert_eq!(back.stats().quarantined_bytes, torn_bytes, "crash at +{extra}");
        } else {
            assert!(back.quarantine_names().unwrap().is_empty(), "clean boundary at +{extra}");
        }
        assert_eq!(io.file(JOURNAL_FILE).unwrap().len() as u64, expect * rec);

        // The recovered store keeps appending from where it left off.
        let next = recovered.len() as u64;
        back.append(ROUND_DELTA_KIND, next, next, &payload(next)).unwrap();
        back.sync().unwrap();
        let reread = Store::open(io).unwrap();
        assert_eq!(reread.committed_records(), next + 1);
        assert!(reread.stats().torn.is_none());
    }
}

#[test]
fn crash_during_atomic_manifest_update_keeps_the_old_manifest() {
    let io = FaultIo::pristine();
    let mut s = Store::create(io.clone(), manifest()).unwrap();
    s.append(ROUND_DELTA_KIND, 0, 0, &payload(0)).unwrap();
    drop(s);
    // Arm the plan so the next atomic write dies before its rename.
    let io2 =
        FaultIo::from_files(io.files(), FaultPlan { crash_on_atomic: true, ..Default::default() });
    let mut s2 = Store::open(io2.clone()).unwrap();
    let mut grown = manifest();
    grown.rounds = 128;
    assert!(s2.update_manifest(grown).is_err(), "budgeted crash must fire");
    io2.restart();
    let back = Store::open(io2).unwrap();
    assert_eq!(back.manifest().rounds, 64, "old manifest survives the torn update");
    assert_eq!(back.committed_records(), 1);
}

#[test]
fn double_crash_during_recovery_is_idempotent() {
    // Crash leaves a torn tail; recovery quarantines it; a second crash
    // before the truncate would leave quarantine written but the journal
    // still long. Re-running recovery must converge to the same state.
    let io = FaultIo::pristine();
    let mut s = Store::create(io.clone(), manifest()).unwrap();
    for r in 0..3u64 {
        s.append(ROUND_DELTA_KIND, r, r, &payload(r)).unwrap();
    }
    drop(s);
    let mut j = io.file(JOURNAL_FILE).unwrap();
    j.truncate(j.len() - 7);
    io.put(JOURNAL_FILE, j);

    let a = Store::open(io.clone()).unwrap();
    assert_eq!(a.committed_records(), 2);
    drop(a);
    let b = Store::open(io.clone()).unwrap();
    assert_eq!(b.committed_records(), 2);
    assert!(b.stats().torn.is_none(), "second open sees an already-clean journal");
    assert_eq!(io.files().keys().filter(|k| k.starts_with("quarantine/")).count(), 1);
}
