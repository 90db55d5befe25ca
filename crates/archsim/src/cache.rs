//! Set-associative LRU cache simulation.
//!
//! The cost model drives the *actual* CSR column-index stream of each
//! thread through a small cache hierarchy to count how many `x`-vector
//! accesses reach DRAM. Only `x` accesses are simulated — matrix data
//! streams through once with no reuse and is accounted analytically.

/// A set-associative LRU cache over 64-byte lines.
#[derive(Debug, Clone)]
pub struct CacheSim {
    /// log2 of the number of sets.
    set_shift: u32,
    set_mask: u64,
    ways: usize,
    /// `sets[s * ways .. (s+1) * ways]`: tags in MRU→LRU order;
    /// `u64::MAX` = empty.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

/// Cache line size in bytes (all modelled machines use 64 B lines).
pub const LINE_BYTES: usize = 64;

impl CacheSim {
    /// Build a cache of roughly `capacity_bytes` with the given
    /// associativity. Capacity is rounded down to a power-of-two number
    /// of sets (at least one).
    pub fn new(capacity_bytes: usize, ways: usize) -> CacheSim {
        let ways = ways.max(1);
        let lines = (capacity_bytes / LINE_BYTES / ways).max(1);
        let set_count = lines.next_power_of_two() >> usize::from(!lines.is_power_of_two());
        let set_count = set_count.max(1);
        CacheSim {
            set_shift: set_count.trailing_zeros(),
            set_mask: set_count as u64 - 1,
            ways,
            tags: vec![u64::MAX; set_count * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// Access a line address (byte address / 64). Returns true on hit;
    /// on miss the line is installed, evicting the LRU way.
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let base = set * self.ways;
        let slot = &mut self.tags[base..base + self.ways];
        // MRU search.
        for i in 0..slot.len() {
            if slot[i] == tag {
                // Move to front.
                slot[..=i].rotate_right(1);
                self.hits += 1;
                return true;
            }
        }
        // Miss: install at MRU, evict LRU.
        slot.rotate_right(1);
        slot[0] = tag;
        self.misses += 1;
        false
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Reset counters and contents.
    pub fn clear(&mut self) {
        self.tags.fill(u64::MAX);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheSim::new(4096, 4);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert!(c.access(1));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2-way, 1 set: capacity 2 lines.
        let mut c = CacheSim::new(2 * LINE_BYTES, 2);
        assert_eq!(c.tags.len(), 2, "capacity: two lines");
        c.access(0);
        c.access(1);
        assert!(c.access(0), "0 still resident");
        c.access(2); // evicts LRU = 1
        assert!(!c.access(1), "1 was evicted");
        assert!(c.access(2));
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = CacheSim::new(64 * LINE_BYTES, 8);
        for round in 0..3 {
            for line in 0..32u64 {
                let hit = c.access(line);
                if round > 0 {
                    assert!(hit, "line {line} should be resident in round {round}");
                }
            }
        }
    }

    #[test]
    fn streaming_larger_than_capacity_always_misses() {
        let mut c = CacheSim::new(16 * LINE_BYTES, 4);
        for round in 0..2 {
            for line in 0..1000u64 {
                let hit = c.access(line);
                assert!(!hit, "round {round} line {line}: streaming cannot hit");
            }
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = CacheSim::new(4096, 4);
        c.access(5);
        c.access(5);
        c.clear();
        assert_eq!(c.hits(), 0);
        assert!(!c.access(5));
    }

    #[test]
    fn tiny_capacity_is_usable() {
        let mut c = CacheSim::new(1, 1);
        assert!(!c.access(0));
        assert!(c.access(0));
    }
}
