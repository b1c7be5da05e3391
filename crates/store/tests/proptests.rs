//! Property coverage for the journal codec and framing (ISSUE 9):
//! arbitrary round deltas encode→decode bit-identically, and any
//! single-byte mutation of a framed record is rejected by the CRC check.

use decos_store::codec::{RoundDelta, ROUND_DELTA_LEN};
use decos_store::frame::{self, encode_record, scan};
use decos_store::ROUND_DELTA_KIND;
use proptest::prelude::*;
use proptest::Any;

use decos_faults::DiagDisturbance;
use decos_platform::NodeId;

type Four = (u64, u64, u64, u64);

fn delta(
    round: u64,
    net: Four,
    frames: Four,
    lifecycle: (u64, u64, u32),
    quality: f64,
    disturbance: DiagDisturbance,
) -> RoundDelta {
    let (offered, delivered, dropped, corrupted) = net;
    let (rejected, delayed, forged_suspected, ona_matches) = frames;
    let (frozen_rounds, crashed_rounds, failovers) = lifecycle;
    RoundDelta {
        round,
        offered,
        delivered,
        dropped,
        corrupted,
        rejected,
        delayed,
        forged_suspected,
        ona_matches,
        frozen_rounds,
        crashed_rounds,
        failovers,
        quality_bits: quality.to_bits(),
        disturbance,
    }
}

fn four() -> (Any<u64>, Any<u64>, Any<u64>, Any<u64>) {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
}

proptest! {
    #[test]
    fn round_delta_round_trips_bit_identically(
        round in any::<u64>(),
        net in four(),
        frames in four(),
        lifecycle in (any::<u64>(), any::<u64>(), any::<u32>()),
        quality in 0.0f64..1.0,
        loss in 0.0f64..1.0,
        corrupt in 0.0f64..1.0,
        delay in any::<u32>(),
        babbler in proptest::option::of(any::<u16>()),
        forged in any::<u32>(),
        crashed in any::<bool>(),
    ) {
        let d = delta(round, net, frames, lifecycle, quality, DiagDisturbance {
            loss_prob: loss,
            corrupt_prob: corrupt,
            delay_rounds: delay,
            babbler: babbler.map(NodeId),
            forged_per_round: forged,
            crashed,
        });
        let enc = d.encode();
        prop_assert_eq!(enc.len(), ROUND_DELTA_LEN);
        let back = RoundDelta::decode(&enc).unwrap();
        prop_assert_eq!(back, d);
        prop_assert_eq!(back.encode(), enc, "re-encode must be byte-identical");
    }

    #[test]
    fn any_single_byte_mutation_of_a_framed_record_is_rejected(
        round in 0u64..1_000_000,
        net in four(),
        quality in 0.0f64..1.0,
        byte in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let d = delta(round, net, (0, 0, 0, 0), (0, 0, 0), quality, DiagDisturbance::NONE);
        let mut framed = Vec::new();
        encode_record(ROUND_DELTA_KIND, round, round, &d.encode(), &mut framed);
        let idx = byte % framed.len();
        framed[idx] ^= mask;
        let mut records = Vec::new();
        let out = scan(&framed, |r| records.push(r));
        // Whatever byte was flipped — magic, header, payload or CRC — the
        // scan must not hand back a valid record claiming to be this one.
        prop_assert!(
            records.is_empty(),
            "flip at byte {} (of {}) survived: {:?}",
            idx, framed.len(), records[0]
        );
        prop_assert!(out.torn.is_some());
    }

    #[test]
    fn journals_of_random_deltas_scan_back_fully(
        rounds in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), 0u64..1000), 1..20),
    ) {
        let mut journal = Vec::new();
        let mut expect = Vec::new();
        for (i, &(offered, delivered, quality_seed)) in rounds.iter().enumerate() {
            let d = delta(
                i as u64,
                (offered, delivered, 0, 0),
                (0, 0, 0, 0),
                (0, 0, 0),
                quality_seed as f64 / 1000.0,
                DiagDisturbance::NONE,
            );
            encode_record(ROUND_DELTA_KIND, i as u64, i as u64, &d.encode(), &mut journal);
            expect.push(d);
        }
        let mut records = Vec::new();
        let out = scan(&journal, |r| records.push(r));
        prop_assert!(out.torn.is_none());
        prop_assert_eq!(out.valid_len, journal.len() as u64);
        prop_assert_eq!(records.len(), expect.len());
        for (rec, want) in records.iter().zip(&expect) {
            prop_assert_eq!(rec.kind, ROUND_DELTA_KIND);
            prop_assert_eq!(RoundDelta::decode(rec.payload).unwrap(), *want);
        }
    }

    #[test]
    fn crc32_detects_any_single_bit_flip(
        data in proptest::collection::vec(any::<u8>(), 1..200),
        bit in any::<usize>(),
    ) {
        let clean = frame::crc32(&data);
        let mut flipped = data.clone();
        let b = bit % (data.len() * 8);
        flipped[b / 8] ^= 1 << (b % 8);
        prop_assert_ne!(clean, frame::crc32(&flipped));
    }
}
