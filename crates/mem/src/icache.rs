//! The pre-decoded instruction cache of paper Figure 3.
//!
//! Instructions are pre-decoded before insertion into the cache and stored
//! as EVEN/ODD pairs carrying three extra fields:
//!
//! * **DI** — a true dependency inside the pair prohibits dual issue,
//! * **CONT** — the pair contains a control-flow instruction,
//! * **NEXT** — the cache location of the branch target, enabling branch
//!   folding: the target can be fetched the cycle after the branch with no
//!   pipeline bubble.

use aurora_isa::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::addr::Geometry;
use crate::cache::{CacheStats, DirectMappedCache};

/// Pre-decode information for one instruction pair (Figure 3 fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairInfo {
    /// DI bit: an intra-pair true dependency prohibits dual issue.
    pub dual_issue_inhibit: bool,
    /// CONT bit: the pair contains a branch or jump.
    pub has_control_flow: bool,
    /// NEXT field: the branch target address, when the pair's control-flow
    /// instruction has a statically known target (branch folding).
    pub folded_target: Option<u64>,
}

/// A direct-mapped instruction cache holding pre-decoded pairs.
///
/// Pre-decode entries live in a slot-indexed side array with one slot per
/// pair position of every cache line — the hardware arrangement of
/// Figure 3, where the DI/CONT/NEXT bits are part of the cache line
/// itself. Replacing a line discards its pre-decode (the new text must be
/// decoded afresh), and a pair lookup is one array index with no hashing
/// or heap traffic on the simulator's fetch path.
///
/// ```
/// use aurora_mem::{DecodedICache, Geometry, PairInfo};
///
/// let mut ic = DecodedICache::new(Geometry::new(1024, 32));
/// let pc = 0x400000;
/// assert!(!ic.probe(pc));
/// ic.fill(pc);
/// ic.record_pair(pc, PairInfo { has_control_flow: true, ..Default::default() });
/// assert!(ic.probe(pc));
/// assert!(ic.pair_info(pc).unwrap().has_control_flow);
/// ```
#[derive(Debug, Clone)]
pub struct DecodedICache {
    cache: DirectMappedCache,
    /// `num_lines * pairs_per_line` pre-decode slots, index-parallel with
    /// the tag array; `None` marks a never-decoded (or replaced) pair.
    pairs: Vec<Option<PairInfo>>,
    pairs_per_line: usize,
}

impl DecodedICache {
    /// Creates an empty pre-decoded cache.
    pub fn new(geom: Geometry) -> DecodedICache {
        let pairs_per_line = (geom.line_bytes() / 8).max(1) as usize;
        DecodedICache {
            cache: DirectMappedCache::new(geom),
            pairs: vec![None; geom.num_lines() as usize * pairs_per_line],
            pairs_per_line,
        }
    }

    /// Side-array slot for the pair containing `pc`: the line's index
    /// scaled by pairs-per-line, plus the pair's position within the line.
    /// The pair is identified by `pc >> 3`: EVEN instructions occupy the
    /// lower of two consecutive word addresses (§2, Figure 3).
    fn slot(&self, pc: u64) -> usize {
        let geom = self.cache.geometry();
        geom.index(pc) * self.pairs_per_line + ((pc >> 3) as usize & (self.pairs_per_line - 1))
    }

    /// The underlying geometry.
    pub fn geometry(&self) -> Geometry {
        self.cache.geometry()
    }

    /// Probes the line containing `pc`, recording statistics.
    pub fn probe(&mut self, pc: u64) -> bool {
        self.cache.probe(pc)
    }

    /// Whether the line containing `pc` is resident (no stats).
    pub fn contains(&self, pc: u64) -> bool {
        self.cache.contains(pc)
    }

    /// Installs the line containing `pc`. Replacing a line with different
    /// text invalidates its pre-decode slots: the DI/CONT/NEXT fields are
    /// stored with the line and leave with it (Figure 3).
    pub fn fill(&mut self, pc: u64) -> bool {
        if !self.cache.contains(pc) {
            let base = self.cache.geometry().index(pc) * self.pairs_per_line;
            if let Some(slots) = self.pairs.get_mut(base..base + self.pairs_per_line) {
                slots.fill(None);
            }
        }
        self.cache.fill(pc)
    }

    /// Records pre-decode information for the pair containing `pc`.
    pub fn record_pair(&mut self, pc: u64, info: PairInfo) {
        let slot = self.slot(pc);
        if let Some(entry) = self.pairs.get_mut(slot) {
            *entry = Some(info);
        }
    }

    /// Pre-decode info for the pair containing `pc`, if the resident line's
    /// pair has been decoded. Only meaningful when
    /// [`DecodedICache::contains`] holds.
    pub fn pair_info(&self, pc: u64) -> Option<PairInfo> {
        self.pairs.get(self.slot(pc)).copied().flatten()
    }

    /// Whether a taken control transfer from the pair at `branch_pc` can be
    /// folded: the pair's NEXT field points at `target` and the target's
    /// line is resident, so the fetch proceeds with no bubble.
    pub fn can_fold(&self, branch_pc: u64, target: u64) -> bool {
        matches!(
            self.pair_info(branch_pc),
            Some(PairInfo { folded_target: Some(t), .. }) if t == target
        ) && self.contains(target)
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resets statistics (keeps contents).
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }
}

impl Snapshot for DecodedICache {
    /// Records the tag array (via the inner cache) and every pre-decode
    /// slot, so folding behaviour resumes exactly where it left off.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(*b"ICAC");
        self.cache.save(w);
        w.put_len(self.pairs.len());
        for info in &self.pairs {
            match info {
                Some(p) => {
                    w.put_bool(true);
                    w.put_bool(p.dual_issue_inhibit);
                    w.put_bool(p.has_control_flow);
                    w.put_opt_u64(p.folded_target);
                }
                None => w.put_bool(false),
            }
        }
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section(*b"ICAC")?;
        self.cache.restore(r)?;
        let n = r.len(self.pairs.len())?;
        if n != self.pairs.len() {
            return Err(SnapshotError::Corrupt(
                "icache pre-decode slot count mismatch",
            ));
        }
        for slot in self.pairs.iter_mut() {
            *slot = if r.bool()? {
                Some(PairInfo {
                    dual_issue_inhibit: r.bool()?,
                    has_control_flow: r.bool()?,
                    folded_target: r.opt_u64()?,
                })
            } else {
                None
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn icache() -> DecodedICache {
        DecodedICache::new(Geometry::new(1024, 32))
    }

    #[test]
    fn pair_identity_is_eight_bytes() {
        let mut ic = icache();
        ic.record_pair(
            0x100,
            PairInfo {
                dual_issue_inhibit: true,
                ..Default::default()
            },
        );
        // Both the EVEN (0x100) and ODD (0x104) member see the same info.
        assert!(ic.pair_info(0x104).unwrap().dual_issue_inhibit);
        assert!(ic.pair_info(0x108).is_none());
    }

    #[test]
    fn folding_requires_matching_target_and_residency() {
        let mut ic = icache();
        ic.fill(0x100);
        ic.record_pair(
            0x100,
            PairInfo {
                has_control_flow: true,
                folded_target: Some(0x800),
                ..Default::default()
            },
        );
        // Target line not resident: no folding.
        assert!(!ic.can_fold(0x100, 0x800));
        ic.fill(0x800);
        assert!(ic.can_fold(0x100, 0x800));
        // Different dynamic target (e.g. jr): no folding.
        assert!(!ic.can_fold(0x100, 0x900));
        // Pair without a NEXT field: no folding.
        ic.fill(0x200);
        ic.record_pair(
            0x200,
            PairInfo {
                has_control_flow: true,
                ..Default::default()
            },
        );
        assert!(!ic.can_fold(0x200, 0x800));
    }

    #[test]
    fn predecode_invalidated_on_replacement() {
        let mut ic = icache();
        ic.fill(0x0);
        ic.record_pair(
            0x0,
            PairInfo {
                has_control_flow: true,
                ..Default::default()
            },
        );
        assert!(ic.pair_info(0x0).unwrap().has_control_flow);
        ic.fill(1024); // evicts line 0 (1 KB cache): pre-decode leaves with it
        assert!(!ic.contains(0x0));
        assert!(ic.pair_info(0x0).is_none());
        // Refill: the line must be decoded afresh.
        ic.fill(0x0);
        assert!(ic.pair_info(0x0).is_none());
        // Re-filling a line that is already resident keeps its pre-decode.
        ic.record_pair(
            0x0,
            PairInfo {
                has_control_flow: true,
                ..Default::default()
            },
        );
        ic.fill(0x0);
        assert!(ic.pair_info(0x0).unwrap().has_control_flow);
    }

    #[test]
    fn stats_delegate() {
        let mut ic = icache();
        ic.probe(0x40);
        ic.fill(0x40);
        ic.probe(0x40);
        assert_eq!(ic.stats().accesses, 2);
        assert_eq!(ic.stats().hits, 1);
        ic.reset_stats();
        assert_eq!(ic.stats().accesses, 0);
    }
}
