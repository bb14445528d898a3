//! Property tests of the memory substrate: the set-associative tag array
//! against a naive LRU model (every operation, result and counter), and
//! block-range geometry.

use std::collections::VecDeque;

use proptest::prelude::*;

use sabre_mem::tags::{Insert, SetAssocTags};
use sabre_mem::{Addr, BlockRange};

/// Naive per-set LRU lists with the tag array's counters.
struct LruModel {
    sets: usize,
    ways: usize,
    lists: Vec<VecDeque<u64>>, // front = MRU
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruModel {
    fn new(sets: usize, ways: usize) -> Self {
        LruModel {
            sets,
            ways,
            lists: vec![VecDeque::new(); sets],
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn list(&mut self, tag: u64) -> &mut VecDeque<u64> {
        let set = (tag % self.sets as u64) as usize;
        &mut self.lists[set]
    }

    fn insert(&mut self, tag: u64) -> Insert {
        let ways = self.ways;
        let list = self.list(tag);
        if let Some(pos) = list.iter().position(|&t| t == tag) {
            list.remove(pos);
            list.push_front(tag);
            self.hits += 1;
            return Insert::Hit;
        }
        list.push_front(tag);
        let evicted = if list.len() > ways {
            list.pop_back()
        } else {
            None
        };
        self.misses += 1;
        self.evictions += evicted.is_some() as u64;
        Insert::Fill(evicted)
    }

    fn invalidate(&mut self, tag: u64) -> bool {
        let list = self.list(tag);
        let pos = list.iter().position(|&t| t == tag);
        pos.map(|p| list.remove(p)).is_some()
    }

    fn contains(&self, tag: u64) -> bool {
        let set = (tag % self.sets as u64) as usize;
        self.lists[set].contains(&tag)
    }

    fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

/// Replays `ops` — `(kind, pool index)` pairs: insert, invalidate or
/// contains of a tag drawn from `pool` — on the tag array and the
/// model, checking every result and the `(hits, misses, evictions)`
/// triple after each step, then presence of every pool tag.
fn check_against_model(
    sets: usize,
    ways: usize,
    pool: &[u64],
    ops: &[(u8, usize)],
) -> Result<(), TestCaseError> {
    let mut real = SetAssocTags::new(sets, ways);
    let mut model = LruModel::new(sets, ways);
    for (step, &(kind, idx)) in ops.iter().enumerate() {
        let t = pool[idx % pool.len()];
        match kind {
            0 => prop_assert_eq!(
                real.insert(t),
                model.insert(t),
                "step {}: insert({})",
                step,
                t
            ),
            1 => prop_assert_eq!(
                real.invalidate(t),
                model.invalidate(t),
                "step {}: invalidate({})",
                step,
                t
            ),
            _ => prop_assert_eq!(
                real.contains(t),
                model.contains(t),
                "step {}: contains({})",
                step,
                t
            ),
        }
        prop_assert_eq!(real.stats(), model.stats(), "step {}: stats", step);
    }
    for &t in pool {
        prop_assert_eq!(real.contains(t), model.contains(t), "contains({})", t);
    }
    Ok(())
}

/// Operation scripts in which two steps in three are inserts (hits
/// refresh, misses fill), so sets fill and evict.
fn ops() -> impl Strategy<Value = Vec<(u8, usize)>> {
    const KINDS: [u8; 6] = [0, 0, 0, 0, 1, 2];
    proptest::collection::vec((0usize..6, 0usize..64), 1..300)
        .prop_map(|v| v.into_iter().map(|(k, i)| (KINDS[k], i)).collect())
}

proptest! {
    #[test]
    fn tags_match_naive_lru(
        sets in 1usize..8,
        ways in 1usize..6,
        tags in proptest::collection::vec(0u64..64, 1..200),
    ) {
        let mut real = SetAssocTags::new(sets, ways);
        let mut model = LruModel::new(sets, ways);
        for &t in &tags {
            let evicted_real = real.insert(t);
            let evicted_model = model.insert(t);
            prop_assert_eq!(evicted_real, evicted_model, "insert({})", t);
        }
        for t in 0..64u64 {
            prop_assert_eq!(real.contains(t), model.contains(t), "contains({})", t);
        }
        prop_assert_eq!(real.stats(), model.stats());
    }

    /// Mixed insert/invalidate/contains scripts over any set count
    /// (powers of two take the masked set index, others the division) and
    /// tags up to 2^40.
    #[test]
    fn mixed_operations_match_naive_lru(
        sets in 1usize..12,
        ways in 1usize..9,
        pool in proptest::collection::vec(0u64..(1u64 << 40), 1..24),
        script in ops(),
    ) {
        check_against_model(sets, ways, &pool, &script)?;
    }

    /// Power-of-two set counts up to the Table 2 LLC's 2,048 sets, with
    /// tags that share their low bits so that one set overflows.
    #[test]
    fn masked_set_index_matches_naive_lru(
        log2_sets in 0u32..12,
        ways in 1usize..17,
        base in 0u64..(1u64 << 40),
        script in ops(),
    ) {
        let sets = 1usize << log2_sets;
        let pool: Vec<u64> = (0..24u64).map(|i| (base + i * sets as u64) % (1u64 << 40)).collect();
        check_against_model(sets, ways, &pool, &script)?;
    }

    #[test]
    fn block_range_covers_exactly(
        base in 0u64..1_000_000u64,
        len in 1u64..100_000,
    ) {
        let range = BlockRange::covering(Addr::new(base), len);
        // Every byte of [base, base+len) is in a covered block.
        let first_byte_block = Addr::new(base).block();
        let last_byte_block = Addr::new(base + len - 1).block();
        prop_assert!(range.contains(first_byte_block));
        prop_assert!(range.contains(last_byte_block));
        // And no block outside is covered.
        prop_assert!(!range.contains(first_byte_block.offset(range.block_count())));
        // Count is minimal: removing the last block would lose coverage.
        prop_assert_eq!(
            range.block_count(),
            last_byte_block.index() - first_byte_block.index() + 1
        );
    }

    #[test]
    fn block_range_iter_is_consecutive(
        base_block in 0u64..1_000_000u64,
        count in 1u64..300,
    ) {
        let range = BlockRange::from_blocks(sabre_mem::BlockAddr::from_index(base_block), count);
        let blocks: Vec<u64> = range.iter().map(|b| b.index()).collect();
        prop_assert_eq!(blocks.len() as u64, count);
        for (i, b) in blocks.iter().enumerate() {
            prop_assert_eq!(*b, base_block + i as u64);
        }
    }
}
