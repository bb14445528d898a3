//! A generic LRU set-associative tag array.
//!
//! Used for the LLC presence model (and reusable for any other
//! set-associative structure). Only tags are stored — data lives in
//! [`crate::memory::NodeMemory`] — because the simulation needs *presence*
//! (hit/miss/eviction), not duplicated contents.
//!
//! # Layout
//!
//! One flat `Vec<u64>` holds every set's `ways` slots. A set keeps its
//! valid tags in recency order, most recently used first, packed before
//! its empty slots. A slot stores `tag + 1`, so `0` is an empty slot and
//! the array is allocated zeroed: the allocator hands out untouched pages
//! and a set costs no host memory until its first fill. A hit rotates the
//! set's prefix up to the tag by one, a fill rotates the tag in at the
//! front (the least recently used tag falls off the end when the set is
//! full), and an invalidation shifts the later tags left. The order is
//! the one unique per-access timestamps would give, so hits, misses and
//! evictions are exactly those of a textbook LRU array.

use crate::block::Interleave;

/// The slot value of an empty way.
const EMPTY: u64 = 0;

/// The slot value that stores `tag`.
///
/// # Panics
///
/// Panics if `tag` is `u64::MAX`, whose key would read as an empty slot.
fn key(tag: u64) -> u64 {
    tag.checked_add(1).expect("u64::MAX is not a valid tag")
}

/// Where `key` sits in `set` (`Ok`), or, when absent, how many valid
/// slots the set holds (`Err`): the scan stops at the first empty slot.
fn find(set: &[u64], key: u64) -> Result<usize, usize> {
    for (i, &k) in set.iter().enumerate() {
        if k == key {
            return Ok(i);
        }
        if k == EMPTY {
            return Err(i);
        }
    }
    Err(set.len())
}

/// Moves the tag in slot `i` to the front of `set`, shifting the more
/// recent tags back by one. A hit on the most recent tag, where the
/// order does not change, skips the rotation.
fn to_front(set: &mut [u64], i: usize) {
    if i > 0 {
        set[..=i].rotate_right(1);
    }
}

/// What [`SetAssocTags::insert`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// The tag was present; it is now the most recently used of its set.
    Hit,
    /// The tag was absent and is filled, displacing the least recently
    /// used tag of a full set (`None` when the set had an empty way).
    Fill(Option<u64>),
}

/// An LRU set-associative tag array over `u64` tags; see the
/// [module docs](self) for the layout.
///
/// Every method that takes a tag panics if it is `u64::MAX`, whose slot
/// value would read as an empty way.
///
/// # Example
///
/// ```
/// use sabre_mem::tags::{Insert, SetAssocTags};
///
/// let mut t = SetAssocTags::new(2, 2);        // 2 sets, 2 ways
/// assert_eq!(t.insert(0), Insert::Fill(None)); // miss, no eviction
/// assert_eq!(t.insert(2), Insert::Fill(None)); // same set (2 % 2 == 0)
/// assert_eq!(t.insert(0), Insert::Hit);        // 0 is most recent again
/// assert_eq!(t.insert(4), Insert::Fill(Some(2))); // set full: LRU tag 2 evicted
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocTags {
    sets: usize,
    ways: usize,
    /// The set index of a tag: a mask for the Table 2 LLC's 2,048 sets.
    set_of: Interleave,
    /// `slots[set * ways..][..ways]`: the set's tags as `tag + 1`, most
    /// recently used first, then its empty (`0`) slots.
    slots: Vec<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetAssocTags {
    /// Creates an empty array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "sets and ways must be positive");
        SetAssocTags {
            sets,
            ways,
            set_of: Interleave::new(sets),
            slots: vec![EMPTY; sets * ways],
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Creates an array sized for `capacity_bytes` of `line_bytes` lines at
    /// the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn with_geometry(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines.is_multiple_of(ways) && lines > 0,
            "capacity {capacity_bytes} not divisible into {ways}-way sets of {line_bytes}B lines"
        );
        SetAssocTags::new(lines / ways, ways)
    }

    /// The slot range of the set `tag` maps to.
    fn range(&self, tag: u64) -> std::ops::Range<usize> {
        let set = self.set_of.unit(tag);
        set * self.ways..(set + 1) * self.ways
    }

    /// Whether `tag` is currently present (does not update LRU state).
    pub fn contains(&self, tag: u64) -> bool {
        find(&self.slots[self.range(tag)], key(tag)).is_ok()
    }

    /// Ensures `tag` is present and most recently used, in one scan of
    /// its set: a hit refreshes it, a miss fills it.
    pub fn insert(&mut self, tag: u64) -> Insert {
        let key = key(tag);
        let range = self.range(tag);
        let set = &mut self.slots[range];
        match find(set, key) {
            Ok(i) => {
                to_front(set, i);
                self.hits += 1;
                Insert::Hit
            }
            Err(valid) => {
                self.misses += 1;
                // The slot rotated to the front: the first empty one, or
                // the least recently used tag of a full set.
                let last = valid.min(set.len() - 1);
                let victim = set[last];
                set[..=last].rotate_right(1);
                set[0] = key;
                if victim == EMPTY {
                    Insert::Fill(None)
                } else {
                    self.evictions += 1;
                    Insert::Fill(Some(victim - 1))
                }
            }
        }
    }

    /// Removes `tag` if present; returns whether it was present.
    pub fn invalidate(&mut self, tag: u64) -> bool {
        let range = self.range(tag);
        let set = &mut self.slots[range];
        match find(set, key(tag)) {
            Ok(i) => {
                set[i..].rotate_left(1);
                set[set.len() - 1] = EMPTY;
                true
            }
            Err(_) => false,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// (hits, misses, evictions) since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_basic() {
        let mut t = SetAssocTags::new(4, 2);
        assert_eq!(t.insert(5), Insert::Fill(None));
        assert_eq!(t.insert(5), Insert::Hit);
        assert!(t.contains(5));
        // One scan per access: the fill is one miss, the refresh one hit.
        assert_eq!(t.stats(), (1, 1, 0));
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = SetAssocTags::new(1, 3);
        t.insert(10);
        t.insert(20);
        t.insert(30);
        // Refresh 10 so 20 becomes LRU.
        assert_eq!(t.insert(10), Insert::Hit);
        assert_eq!(t.insert(40), Insert::Fill(Some(20)));
        assert!(t.contains(10));
        assert!(!t.contains(20));
    }

    #[test]
    fn invalidate_frees_way() {
        let mut t = SetAssocTags::new(1, 2);
        t.insert(1);
        t.insert(2);
        assert!(t.invalidate(1));
        assert!(!t.invalidate(1));
        // Now an insert fills the invalid way without eviction.
        assert_eq!(t.insert(3), Insert::Fill(None));
    }

    #[test]
    fn invalidate_keeps_recency_order() {
        let mut t = SetAssocTags::new(1, 3);
        t.insert(1);
        t.insert(2);
        t.insert(3); // recency 3, 2, 1
        assert!(t.invalidate(2));
        t.insert(4); // fills the freed way: 4, 3, 1
        assert_eq!(t.insert(5), Insert::Fill(Some(1)));
        assert_eq!(t.insert(6), Insert::Fill(Some(3)));
        assert_eq!(t.stats(), (0, 6, 2));
    }

    #[test]
    fn odd_set_count_divides() {
        let mut t = SetAssocTags::new(3, 1);
        t.insert(4); // set 1
        assert_eq!(t.insert(7), Insert::Fill(Some(4))); // 7 % 3 == 1
        assert!(t.contains(7));
        assert!(!t.contains(4));
    }

    #[test]
    fn geometry_constructor() {
        // 2 MB, 64 B lines, 16-way: 2048 sets (Table 2 LLC).
        let t = SetAssocTags::with_geometry(2 * 1024 * 1024, 64, 16);
        assert_eq!(t.sets(), 2048);
        assert_eq!(t.ways(), 16);
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut t = SetAssocTags::new(2, 1);
        t.insert(0); // set 0
        t.insert(1); // set 1
        assert!(t.contains(0));
        assert!(t.contains(1));
        // Inserting 2 (set 0) evicts 0, not 1.
        assert_eq!(t.insert(2), Insert::Fill(Some(0)));
        assert!(t.contains(1));
    }

    #[test]
    #[should_panic(expected = "not a valid tag")]
    fn max_tag_rejected() {
        let _ = SetAssocTags::new(1, 1).insert(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_geometry_rejected() {
        let _ = SetAssocTags::new(0, 1);
    }
}
