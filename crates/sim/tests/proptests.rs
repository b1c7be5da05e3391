//! Property tests for the simulation substrate: time and statistics.

use decos_sim::stats::{quantile, Histogram, Running};
use decos_sim::{SeedSource, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    // -----------------------------------------------------------------------
    // Time arithmetic
    // -----------------------------------------------------------------------

    #[test]
    fn align_brackets_the_instant(t in 0u64..u64::MAX / 2, g in 1u64..1_000_000_000) {
        let granule = SimDuration::from_nanos(g);
        let t = SimTime::from_nanos(t);
        let down = t.align_down(granule);
        let up = t.align_up(granule);
        prop_assert!(down <= t && t <= up);
        prop_assert_eq!(down.as_nanos() % g, 0);
        prop_assert_eq!(up.as_nanos() % g, 0);
        prop_assert!(up.as_nanos() - down.as_nanos() <= g);
    }

    // -----------------------------------------------------------------------
    // Streaming statistics
    // -----------------------------------------------------------------------

    #[test]
    fn running_merge_is_associative_enough(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        cut in 0usize..100,
    ) {
        let cut = cut.min(xs.len());
        let mut whole = Running::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = Running::new();
        let mut b = Running::new();
        xs[..cut].iter().for_each(|&x| a.push(x));
        xs[cut..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-3 * (1.0 + whole.variance()));
    }

    #[test]
    fn histogram_conserves_counts(
        xs in proptest::collection::vec(-100.0f64..200.0, 0..500),
    ) {
        let mut h = Histogram::new(0.0, 100.0, 10);
        xs.iter().for_each(|&x| h.push(x));
        prop_assert_eq!(h.total(), xs.len() as u64);
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&mut xs, lo);
        let b = quantile(&mut xs, hi);
        prop_assert!(a <= b);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min && b <= max);
    }

    // -----------------------------------------------------------------------
    // Seeded streams
    // -----------------------------------------------------------------------

    #[test]
    fn streams_reproduce_and_child_indices_do_not_collide(
        master in any::<u64>(),
        name in "[a-z]{1,12}",
        idx in 0u64..1000,
    ) {
        use rand::RngExt as _;
        let s = SeedSource::new(master);
        let a: u64 = s.stream(&name, idx).random();
        let b: u64 = s.stream(&name, idx).random();
        prop_assert_eq!(a, b);
        prop_assert_ne!(s.child(idx).master(), s.child(idx + 1).master());
    }
}
