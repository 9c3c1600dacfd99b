//! A table keyed by small, dense integers: line, page and granule numbers.
//!
//! `Machine::alloc_bytes` hands out pages upward from page 1, so every
//! simulated key is small and dense. The table is a `Vec` of fixed-size
//! blocks; a block is filled with `T::default()` when one of its keys is
//! first written. A lookup is two indexings and no hash, and a far key
//! allocates its own block only (the index costs one pointer per block up
//! to it).

/// log₂ of the keys per block: 16 keys. Each sync object sits alone on
/// its own page, so its directory line fills a block by itself: against
/// hash maps, simbench's `handoff` (577 sync objects per Protein cell)
/// peaks 1 MiB higher with 64-key blocks, 0.5 MiB with 16. 512-key blocks
/// cost short sanitized cells CPU filling shadow blocks. From 8 to 64
/// keys, CPU did not differ beyond run-to-run noise, and the index costs
/// 8 bytes per block up to the highest key.
const BLOCK_BITS: u32 = 4;
const BLOCK: usize = 1 << BLOCK_BITS;

/// A map from `u64` keys to `T` where an absent key reads as
/// `T::default()` once its block exists.
#[derive(Debug, Default)]
pub(crate) struct DenseTable<T> {
    blocks: Vec<Option<Box<[T; BLOCK]>>>,
}

#[inline]
fn split(key: u64) -> (usize, usize) {
    ((key >> BLOCK_BITS) as usize, key as usize & (BLOCK - 1))
}

impl<T: Default> DenseTable<T> {
    /// The value at `key`, or `None` if its block was never written.
    /// Never allocates.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<&T> {
        let (b, i) = split(key);
        self.blocks.get(b)?.as_ref().map(|block| &block[i])
    }

    /// The value at `key`, allocating its block (all defaults) first if
    /// needed.
    #[inline]
    pub(crate) fn get_mut(&mut self, key: u64) -> &mut T {
        let (b, i) = split(key);
        if b >= self.blocks.len() {
            self.blocks.resize_with(b + 1, || None);
        }
        &mut self.blocks[b].get_or_insert_with(|| Box::new(std::array::from_fn(|_| T::default())))
            [i]
    }

    /// Every key of every allocated block with its value, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.blocks.iter().enumerate().flat_map(|(b, block)| {
            block.iter().flat_map(move |block| {
                block
                    .iter()
                    .enumerate()
                    .map(move |(i, v)| (((b << BLOCK_BITS) | i) as u64, v))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allocated<T>(t: &DenseTable<T>) -> usize {
        t.blocks.iter().flatten().count()
    }

    #[test]
    fn get_on_an_untouched_key_allocates_nothing() {
        let mut t = DenseTable::<u32>::default();
        assert_eq!(t.get(5), None);
        assert_eq!(t.get(1 << 30), None);
        assert!(t.blocks.is_empty());
        *t.get_mut(5) = 7;
        assert_eq!(t.get(5), Some(&7));
        assert_eq!(t.get(6), Some(&0), "a block's other keys read as default");
        assert_eq!(t.get(BLOCK as u64), None);
        assert_eq!(allocated(&t), 1);
    }

    #[test]
    fn a_far_key_allocates_exactly_one_block() {
        let mut t = DenseTable::<u64>::default();
        let far = 1_000_000 * BLOCK as u64 + 3;
        *t.get_mut(far) = 9;
        assert_eq!(allocated(&t), 1);
        assert_eq!(t.get(far), Some(&9));
        assert_eq!(t.get(0), None);
    }

    #[test]
    fn iter_yields_the_allocated_keys_in_order() {
        let mut t = DenseTable::<u64>::default();
        let far = 10 * BLOCK as u64 + 1;
        *t.get_mut(far) = 2;
        *t.get_mut(3) = 1;
        let keys: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        let want: Vec<u64> = (0..BLOCK as u64)
            .chain(10 * BLOCK as u64..11 * BLOCK as u64)
            .collect();
        assert_eq!(keys, want);
        let set: Vec<(u64, u64)> = t
            .iter()
            .filter(|(_, &v)| v != 0)
            .map(|(k, &v)| (k, v))
            .collect();
        assert_eq!(set, vec![(3, 1), (far, 2)]);
    }
}
