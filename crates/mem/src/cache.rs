//! Tags-only direct-mapped cache model.

use std::fmt;

use aurora_isa::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::addr::{Geometry, LineAddr};

/// Hit/miss counters for a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total probes.
    pub accesses: u64,
    /// Probes that found their line resident.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Fills that displaced a valid line with a different tag.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} hits ({:.2}%), {} evictions",
            self.accesses,
            self.hits,
            100.0 * self.hit_rate(),
            self.evictions
        )
    }
}

/// A direct-mapped, tags-only cache.
///
/// Models residency and statistics; data contents live in the functional
/// emulator. Used both for the on-chip instruction cache (1–4 KB) and the
/// external pipelined data cache (16–64 KB) of Table 1.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct DirectMappedCache {
    geom: Geometry,
    tags: Vec<Option<u64>>,
    stats: CacheStats,
}

impl DirectMappedCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geom: Geometry) -> DirectMappedCache {
        DirectMappedCache {
            geom,
            tags: vec![None; geom.num_lines() as usize],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Probes byte address `addr`, recording a hit or miss.
    pub fn probe(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let hit = self.contains(addr);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Whether the line holding `addr` is resident (no stats recorded).
    pub fn contains(&self, addr: u64) -> bool {
        self.tags.get(self.geom.index(addr)).copied().flatten() == Some(self.geom.tag(addr))
    }

    /// Whether `line` is resident (no stats recorded).
    pub fn contains_line(&self, line: LineAddr) -> bool {
        let addr = line.to_bytes(self.geom.line_bytes());
        self.contains(addr)
    }

    /// Installs the line holding `addr`, returning `true` if a valid line
    /// with a different tag was displaced.
    pub fn fill(&mut self, addr: u64) -> bool {
        let idx = self.geom.index(addr);
        let tag = self.geom.tag(addr);
        // The geometry masks indices into range, so the slot always exists.
        let Some(slot) = self.tags.get_mut(idx) else {
            return false;
        };
        let evicted = matches!(*slot, Some(t) if t != tag);
        if evicted {
            self.stats.evictions += 1;
        }
        *slot = Some(tag);
        evicted
    }

    /// Installs `line` (see [`DirectMappedCache::fill`]).
    pub fn fill_line(&mut self, line: LineAddr) -> bool {
        self.fill(line.to_bytes(self.geom.line_bytes()))
    }

    /// Invalidates everything.
    pub fn clear(&mut self) {
        self.tags.fill(None);
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (keeps contents; used to exclude warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

impl Snapshot for CacheStats {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.accesses);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.evictions);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.accesses = r.u64()?;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        self.evictions = r.u64()?;
        Ok(())
    }
}

impl Snapshot for DirectMappedCache {
    /// Geometry is configuration, not state: only the tag array and the
    /// counters are recorded, and a restore into a cache with a different
    /// line count fails as corruption.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(*b"CACH");
        w.put_len(self.tags.len());
        for &tag in &self.tags {
            w.put_opt_u64(tag);
        }
        self.stats.save(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section(*b"CACH")?;
        let n = r.len(self.tags.len())?;
        if n != self.tags.len() {
            return Err(SnapshotError::Corrupt("cache line count mismatch"));
        }
        for slot in self.tags.iter_mut() {
            *slot = r.opt_u64()?;
        }
        self.stats.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn cache(kb: u32) -> DirectMappedCache {
        DirectMappedCache::new(Geometry::new(kb * 1024, 32))
    }

    #[test]
    fn fill_then_hit() {
        let mut c = cache(1);
        assert!(!c.probe(0x1000));
        c.fill(0x1000);
        assert!(c.probe(0x1000));
        assert!(c.probe(0x101f)); // same 32-byte line
        assert!(!c.probe(0x1020)); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = cache(1); // 32 lines; addresses 1024 apart conflict
        c.fill(0x0);
        assert!(c.contains(0x0));
        let evicted = c.fill(1024);
        assert!(evicted);
        assert!(!c.contains(0x0));
        assert!(c.contains(1024));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn refill_same_line_is_not_eviction() {
        let mut c = cache(1);
        c.fill(0x40);
        assert!(!c.fill(0x40));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn clear_invalidates() {
        let mut c = cache(1);
        c.fill(0x40);
        c.clear();
        assert!(!c.contains(0x40));
    }

    #[test]
    fn larger_cache_is_no_worse_on_any_trace() {
        // Monotonicity spot check: a 4 KB cache never misses more than a
        // 1 KB cache on the same sequence of probes+fill-on-miss.
        let addrs: Vec<u64> = (0..4000u64).map(|i| (i * 937) % 8192).collect();
        let mut misses = Vec::new();
        for kb in [1, 4] {
            let mut c = cache(kb);
            for &a in &addrs {
                if !c.probe(a) {
                    c.fill(a);
                }
            }
            misses.push(c.stats().misses);
        }
        assert!(misses[1] <= misses[0], "{misses:?}");
    }

    proptest! {
        /// The cache agrees with a reference model that maps each index to
        /// the most recently filled tag.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec((any::<bool>(), 0u64..1 << 20), 1..200)) {
            let g = Geometry::new(2048, 32);
            let mut c = DirectMappedCache::new(g);
            let mut reference: HashMap<usize, u64> = HashMap::new();
            for (is_fill, addr) in ops {
                if is_fill {
                    c.fill(addr);
                    reference.insert(g.index(addr), g.tag(addr));
                } else {
                    let expect = reference.get(&g.index(addr)) == Some(&g.tag(addr));
                    prop_assert_eq!(c.probe(addr), expect);
                }
            }
        }

        /// hits + misses == accesses always.
        #[test]
        fn stats_balance(addrs in proptest::collection::vec(0u64..1 << 16, 0..100)) {
            let mut c = cache(1);
            for a in addrs {
                if !c.probe(a) {
                    c.fill(a);
                }
            }
            let s = c.stats();
            prop_assert_eq!(s.hits + s.misses, s.accesses);
        }
    }
}
