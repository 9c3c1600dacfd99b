//! Full-bit-vector directory state, one entry per line, kept at the line's
//! home node (logically; stored centrally for the whole machine, in a dense
//! table indexed by line number where an uncached line is the default
//! entry).
//!
//! The protocol is MESI-flavoured, matching the Origin2000's behaviour at
//! the fidelity the paper's analysis needs: reads of unshared lines are
//! granted exclusively, dirty remote lines are forwarded by their owner
//! (3-hop "remote dirty" transactions), and writes invalidate sharers.

/// Directory knowledge about one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirEntry {
    /// Bit *i* set ⇒ processor *i* may hold the line in `Shared`.
    pub sharers: u128,
    /// `Some(p)` ⇒ processor *p* holds the line `Exclusive`/`Modified`.
    pub owner: Option<u8>,
}

/// Classification of a directory lookup for a requested line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line.
    Uncached,
    /// One or more caches hold it read-only.
    Shared,
    /// Exactly one cache holds it exclusively (possibly dirty).
    Exclusive(usize),
}

impl DirEntry {
    /// Current protocol state of the entry.
    pub fn state(&self) -> DirState {
        match self.owner {
            Some(p) => DirState::Exclusive(p as usize),
            None if self.sharers != 0 => DirState::Shared,
            None => DirState::Uncached,
        }
    }

    /// Adds `p` as a sharer.
    pub fn add_sharer(&mut self, p: usize) {
        self.sharers |= 1u128 << p;
    }

    /// Removes `p` from the sharer set (e.g. on silent eviction).
    pub fn remove_sharer(&mut self, p: usize) {
        self.sharers &= !(1u128 << p);
    }

    /// Makes `p` the exclusive owner, clearing all sharers.
    pub fn set_owner(&mut self, p: usize) {
        self.owner = Some(p as u8);
        self.sharers = 1u128 << p;
    }

    /// Drops ownership (writeback of a dirty line, or silent E eviction).
    pub fn clear_owner(&mut self) {
        self.owner = None;
        self.sharers = 0;
    }

    /// Sharers other than `p`, as processor indices in ascending order.
    /// Walks the set bits only.
    pub fn other_sharers(&self, p: usize) -> impl Iterator<Item = usize> {
        let mut mask = self.sharers & !(1u128 << p);
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                i
            })
        })
    }

    /// Number of sharers other than `p`.
    pub fn n_other_sharers(&self, p: usize) -> u32 {
        (self.sharers & !(1u128 << p)).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_transitions() {
        let mut e = DirEntry::default();
        assert_eq!(e.state(), DirState::Uncached);
        e.add_sharer(3);
        e.add_sharer(7);
        assert_eq!(e.state(), DirState::Shared);
        assert_eq!(e.n_other_sharers(3), 1);
        assert_eq!(e.other_sharers(3).collect::<Vec<_>>(), vec![7]);
        e.set_owner(5);
        assert_eq!(e.state(), DirState::Exclusive(5));
        assert_eq!(e.sharers, 1 << 5);
        e.clear_owner();
        assert_eq!(e, DirEntry::default());
    }

    #[test]
    fn remove_sharer_can_empty_entry() {
        let mut e = DirEntry::default();
        e.add_sharer(0);
        e.remove_sharer(0);
        assert_eq!(e, DirEntry::default());
    }

    #[test]
    fn other_sharers_walks_the_set_bits_except_p() {
        for set in [vec![], vec![0], vec![63, 64], vec![127]] {
            let mut e = DirEntry::default();
            for &q in &set {
                e.add_sharer(q);
            }
            for p in [0, 1, 63, 64, 127] {
                let want: Vec<usize> = set.iter().copied().filter(|&q| q != p).collect();
                assert_eq!(
                    e.other_sharers(p).collect::<Vec<_>>(),
                    want,
                    "{set:?} p={p}"
                );
                assert_eq!(e.n_other_sharers(p) as usize, want.len());
            }
        }
    }

    #[test]
    fn sharer_set_handles_proc_127() {
        let mut e = DirEntry::default();
        e.add_sharer(127);
        assert_eq!(e.state(), DirState::Shared);
        assert_eq!(e.other_sharers(0).collect::<Vec<_>>(), vec![127]);
        e.set_owner(127);
        assert_eq!(e.state(), DirState::Exclusive(127));
    }
}
