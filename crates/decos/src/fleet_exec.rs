//! Sharded work-stealing execution over a dense index space — the one
//! parallel executor of the workspace.
//!
//! Two entry points share one dispatcher:
//!
//! 1. [`run_sharded`] — **streaming aggregation**: a shard folds each
//!    finished item into its own accumulator immediately instead of
//!    materializing a `Vec` of per-item results. Shards pull fixed-size
//!    index *blocks* from a shared atomic cursor (**work stealing**), so a
//!    straggler block (an expensive vehicle) idles one shard for one
//!    block, not a whole contiguous range. The storeless fleet runs here.
//! 2. [`map_ordered`] — an index-ordered parallel map returning `Vec<R>`
//!    for the bounded batches that need every result: stored-fleet
//!    batches (journaled in index order) and the experiment sweeps.
//!
//! Determinism contract: blocks are dealt in ascending order and each
//! block is processed front-to-back by exactly one shard, so the set of
//! `(block, shard)` assignments varies between runs but the *per-block*
//! fold order never does. Aggregates that are order-invariant across
//! blocks (integer counters) — or that the caller folds back together in
//! ascending block order (see `FleetAccumulator`'s block-indexed float
//! sums) — are therefore bit-identical for any shard count, including 1.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Runs `work` over `0..items` split into `block`-sized index blocks,
/// dealt to `shards` worker threads through an atomic cursor.
///
/// `init` builds one accumulator per shard; `work` processes one
/// ascending index block into the shard's accumulator. Returns the
/// per-shard accumulators in shard-index order (the caller merges them
/// in that order so any order-sensitive fold stays deterministic).
///
/// `shards` is clamped to the number of blocks (an idle shard would only
/// return an empty accumulator) and to a minimum of 1; with one shard
/// the blocks run sequentially on the calling thread — same block
/// bookkeeping, no thread machinery.
pub fn run_sharded<A, I, W>(items: u64, block: u64, shards: usize, init: I, work: W) -> Vec<A>
where
    A: Send,
    I: Fn() -> A + Sync,
    W: Fn(&mut A, Range<u64>) + Sync,
{
    let block = block.max(1);
    let blocks = items.div_ceil(block);
    let shards = shards.clamp(1, blocks.max(1).min(usize::MAX as u64) as usize);
    let block_range = |b: u64| {
        let lo = b * block;
        lo..(lo + block).min(items)
    };
    if shards <= 1 {
        let mut acc = init();
        for b in 0..blocks {
            work(&mut acc, block_range(b));
        }
        return vec![acc];
    }
    let cursor = AtomicU64::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|_| {
                let (cursor, init, work) = (&cursor, &init, &work);
                s.spawn(move || {
                    let mut acc = init();
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= blocks {
                            break;
                        }
                        work(&mut acc, block_range(b));
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("fleet shard panicked")).collect()
    })
}

/// Maps `f` over `0..items` on `shards` worker threads and returns the
/// results in index order, whatever the shard count.
///
/// The index space is split contiguously into `items.div_ceil(shards)`-
/// sized blocks, at most one per shard, and the blocks are reassembled by
/// their start index, so the order in which shards finish never shows.
pub fn map_ordered<R, F>(items: u64, shards: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let block = items.div_ceil(shards.max(1) as u64);
    let mut blocks: Vec<(u64, Vec<R>)> =
        run_sharded(items, block, shards, Vec::new, |acc: &mut Vec<(u64, Vec<R>)>, r| {
            acc.push((r.start, r.map(&f).collect()));
        })
        .into_iter()
        .flatten()
        .collect();
    blocks.sort_unstable_by_key(|&(start, _)| start);
    blocks.into_iter().flat_map(|(_, results)| results).collect()
}

/// One executor shard per available core (the per-item work is CPU-bound
/// and independent).
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Collects every processed index; merging in shard order must
    /// reconstruct a permutation of the input space with no duplicates.
    fn indices(items: u64, block: u64, shards: usize) -> Vec<Vec<u64>> {
        run_sharded(items, block, shards, Vec::new, |acc: &mut Vec<u64>, r| acc.extend(r))
    }

    fn flatten_sorted(parts: Vec<Vec<u64>>) -> Vec<u64> {
        let mut all: Vec<u64> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn empty_input_yields_one_empty_shard() {
        let parts = indices(0, 64, 8);
        assert_eq!(parts.len(), 1, "no items → no idle shard fan-out");
        assert!(parts[0].is_empty());
    }

    #[test]
    fn fewer_items_than_shards_covers_exactly_once() {
        let parts = indices(3, 1, 8);
        assert_eq!(parts.len(), 3, "shards clamp to block count");
        assert_eq!(flatten_sorted(parts), vec![0, 1, 2]);
    }

    #[test]
    fn one_more_item_than_shards_covers_exactly_once() {
        let parts = indices(5, 1, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(flatten_sorted(parts), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_shard_runs_blocks_in_ascending_order() {
        let parts = indices(10, 3, 1);
        assert_eq!(parts, vec![vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]);
    }

    #[test]
    fn partial_trailing_block_is_not_overrun() {
        let parts = indices(130, 64, 2);
        assert_eq!(flatten_sorted(parts), (0..130).collect::<Vec<_>>());
    }

    #[test]
    fn shard_indices_are_strictly_increasing_within_a_shard() {
        for shards in [1, 2, 3, 7] {
            for part in indices(200, 8, shards) {
                assert!(part.windows(2).all(|w| w[0] < w[1]), "shard saw {part:?}");
            }
        }
    }

    #[test]
    fn straggler_block_does_not_idle_the_other_shard() {
        // Index 0 sleeps long enough for the other shard to drain every
        // remaining near-instant block off the shared cursor.
        let parts = run_sharded(8, 1, 2, Vec::new, |acc: &mut Vec<u64>, r| {
            for i in r {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(150));
                }
                acc.push(i);
            }
        });
        assert_eq!(flatten_sorted(parts.clone()), (0..8).collect::<Vec<_>>());
        let straggler =
            parts.iter().find(|p| p.contains(&0)).expect("some shard processed index 0");
        assert_eq!(
            straggler,
            &vec![0],
            "work stealing must let the free shard take the remaining blocks"
        );
    }

    #[test]
    fn map_ordered_keeps_index_order_past_a_straggler() {
        // 64 items on four shards make four 16-index blocks. Index 0 waits
        // until the last block reaches its end (index 63), so the first
        // block cannot finish first; the output must still start with it.
        let meet = std::sync::Barrier::new(2);
        let out = map_ordered(64, 4, |i| {
            if i == 0 || i == 63 {
                meet.wait();
            }
            i * i
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_ordered_of_nothing_is_empty() {
        assert!(map_ordered(0, 4, |i| i).is_empty());
    }

    #[test]
    fn map_ordered_with_fewer_items_than_shards_covers_every_item() {
        for items in 1..=4 {
            assert_eq!(map_ordered(items, 8, |i| i + 1), (1..=items).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_ordered_with_one_more_item_than_shards_keeps_the_remainder() {
        for shards in [1, 2, 3, 8] {
            let items = shards as u64 + 1;
            assert_eq!(
                map_ordered(items, shards, |i| 2 * i),
                (0..items).map(|i| 2 * i).collect::<Vec<_>>()
            );
        }
    }
}
