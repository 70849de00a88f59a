//! A segmented vector: O(1) indexing with address-stable growth.
//!
//! Auto-scaling trees append a whole level of buckets at a time. A plain
//! `Vec` doubles by *reallocating*, which moves every existing element —
//! the exact thing a growing ORAM must never do to its bucket store, both
//! in the simulated address space (physical addresses are part of the
//! observable access pattern) and in host memory (a grow must not imply a
//! copy of gigabytes of sealed blocks). [`SegmentedVector`] grows by
//! appending power-of-two *segments* instead: once an element is pushed,
//! its storage never moves for the lifetime of the container.
//!
//! Layout: segment 0 holds `base` elements (`base` a power of two);
//! segment `s ≥ 1` holds `base << (s - 1)` elements, so total capacity
//! doubles with each appended segment. Index `i` resolves in O(1) with
//! two shifts and a subtraction — no per-segment scan, and no division:
//! `base` is a power of two, so `i / base` is `i >> log2(base)`.

/// A grow-by-appending vector whose elements never move (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedVector<T> {
    /// `segments[0]` holds `base` slots, `segments[s]` holds
    /// `base << (s - 1)` slots for `s ≥ 1`. Each segment is allocated at
    /// full capacity up front and only ever pushed into, so its buffer is
    /// never reallocated.
    segments: Vec<Vec<T>>,
    base: usize,
    /// `log2(base)`, so `locate` shifts where it would divide.
    base_shift: u32,
    len: usize,
}

impl<T> SegmentedVector<T> {
    /// Creates an empty vector whose first segment will hold `base`
    /// elements. `base` must be a nonzero power of two.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero or not a power of two.
    pub fn new(base: usize) -> Self {
        assert!(base.is_power_of_two(), "segment base must be a power of two, got {base}");
        SegmentedVector { segments: Vec::new(), base, base_shift: base.trailing_zeros(), len: 0 }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots currently allocated across all segments.
    pub fn capacity(&self) -> usize {
        match self.segments.len() {
            0 => 0,
            n => self.base << (n - 1),
        }
    }

    /// Capacity of segment `s` under the doubling layout.
    #[inline]
    fn segment_capacity(&self, s: usize) -> usize {
        if s == 0 {
            self.base
        } else {
            self.base << (s - 1)
        }
    }

    /// Maps a flat index to `(segment, offset)`. O(1): the segment is the
    /// bit length of `index / base`, taken as a shift.
    #[inline]
    fn locate(&self, index: usize) -> (usize, usize) {
        let b = index >> self.base_shift;
        if b == 0 {
            (0, index)
        } else {
            let s = usize::BITS as usize - b.leading_zeros() as usize;
            (s, index - (self.base << (s - 1)))
        }
    }

    /// Appends an element, allocating a fresh segment when the current one
    /// is full. Existing elements never move.
    pub fn push(&mut self, value: T) {
        let (s, off) = self.locate(self.len);
        if s == self.segments.len() {
            let cap = self.segment_capacity(s);
            self.segments.push(Vec::with_capacity(cap));
        }
        debug_assert_eq!(off, self.segments[s].len());
        self.segments[s].push(value);
        self.len += 1;
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        let (s, off) = self.locate(index);
        self.segments[s].get(off)
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        let (s, off) = self.locate(index);
        self.segments[s].get_mut(off)
    }

    /// Iterates over all elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.segments.iter().flat_map(|seg| seg.iter())
    }

    /// Iterates mutably over all elements in index order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.segments.iter_mut().flat_map(|seg| seg.iter_mut())
    }
}

impl<T> std::ops::Index<usize> for SegmentedVector<T> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        // A tree that never grew holds every element in the first segment.
        if self.segments.first().is_some_and(|first| index < first.len()) {
            return &self.segments[0][index];
        }
        self.get(index).expect("SegmentedVector index out of bounds")
    }
}

impl<T> std::ops::IndexMut<usize> for SegmentedVector<T> {
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut T {
        if self.segments.first().is_some_and(|first| index < first.len()) {
            return &mut self.segments[0][index];
        }
        self.get_mut(index).expect("SegmentedVector index out of bounds")
    }
}

impl<T> Extend<T> for SegmentedVector<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The shift resolves every index to the segment and offset the
        /// division did, for every power-of-two base up to 2¹⁶ — at the
        /// first and last slot of each of the first six segments and at
        /// arbitrary indices in between.
        #[test]
        fn locate_matches_the_division(picks in proptest::collection::vec(any::<u64>(), 1..64)) {
            for base in (0..=16).map(|log| 1usize << log) {
                let v = SegmentedVector::<u8>::new(base);
                let by_division = |index: usize| match index / base {
                    0 => (0, index),
                    b => {
                        let s = (usize::BITS - b.leading_zeros()) as usize;
                        (s, index - (base << (s - 1)))
                    }
                };
                let mut first = 0;
                for s in 0..6 {
                    let cap = v.segment_capacity(s);
                    prop_assert_eq!(v.locate(first), (s, 0), "base {}", base);
                    prop_assert_eq!(v.locate(first + cap - 1), (s, cap - 1), "base {}", base);
                    prop_assert_eq!(by_division(first), (s, 0));
                    first += cap;
                }
                for &p in &picks {
                    let index = (p % first as u64) as usize;
                    prop_assert_eq!(v.locate(index), by_division(index), "base {}", base);
                }
            }
        }
    }

    #[test]
    fn push_index_round_trip() {
        let mut v = SegmentedVector::new(4);
        for i in 0..100usize {
            v.push(i * 3);
        }
        assert_eq!(v.len(), 100);
        for i in 0..100usize {
            assert_eq!(v[i], i * 3);
        }
        assert_eq!(v.get(100), None);
    }

    #[test]
    fn doubling_segment_layout() {
        let mut v = SegmentedVector::new(2);
        assert_eq!(v.capacity(), 0);
        for i in 0..17usize {
            v.push(i);
        }
        // Segments: 2, 2, 4, 8, 16 → capacity 16 then 32 after the 17th push.
        assert_eq!(v.capacity(), 32);
    }

    #[test]
    fn elements_never_move_across_growth() {
        let mut v = SegmentedVector::new(4);
        for i in 0..8usize {
            v.push(i);
        }
        let addrs: Vec<usize> = (0..8).map(|i| &v[i] as *const usize as usize).collect();
        // Push far past several segment boundaries.
        for i in 8..1000usize {
            v.push(i);
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(&v[i] as *const usize as usize, a, "element {i} moved");
        }
    }

    #[test]
    fn iter_matches_index_order() {
        let mut v = SegmentedVector::new(8);
        v.extend(0..50u32);
        let collected: Vec<u32> = v.iter().copied().collect();
        assert_eq!(collected, (0..50).collect::<Vec<_>>());
        for x in v.iter_mut() {
            *x += 1;
        }
        assert_eq!(v[0], 1);
        assert_eq!(v[49], 50);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_base() {
        let _ = SegmentedVector::<u8>::new(3);
    }
}
