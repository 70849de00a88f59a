//! The engine's encrypted data path: what untrusted memory holds in each
//! slot.
//!
//! Every slot has a write counter, the nonce half the protocol needs to
//! re-encrypt a rewritten bucket under a fresh key stream. Only a slot whose
//! plaintext is not the zero block holds ciphertext: its sealed bytes sit
//! in a pool, and the slot keeps a `u32` handle into it. That covers every
//! dummy a rebuild writes and every block nobody has written, so the store
//! costs [`SLOT_BYTES`] per slot plus one [`SealedBlock`] per
//! non-zero block — not a sealed block per slot.
//!
//! A slot without bytes still reads as authenticated ciphertext: the read
//! seals the zero block under the slot's address and counter, then opens
//! it, so every read verifies a tag and every `(address, counter)` nonce,
//! ciphertext and tag is the one an eager store would hold (DESIGN.md §12).

use crate::error::OramError;
use crate::BLOCK_BYTES;
use aboram_crypto::{BlockCipher, SealedBlock};
use aboram_tree::{PhysicalLayout, SlotAddr};

const ZERO: [u8; BLOCK_BYTES] = [0; BLOCK_BYTES];

/// The handle of a slot that holds the zero block.
const NO_BYTES: u32 = u32::MAX;

/// One slot of memory: its write counter and, unless it holds the zero
/// block, the pool index of its sealed bytes. Packed to 4-byte alignment so
/// a slot is 12 bytes, not 16.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Slot {
    counter: u64,
    bytes: u32,
}

/// Host bytes of one slot of the data path.
const SLOT_BYTES: usize = std::mem::size_of::<Slot>();
const _: () = assert!(SLOT_BYTES <= 12);

/// A new or grown slot starts at counter 1, as if the zero block had
/// been sealed into it once.
const FRESH: Slot = Slot { counter: 1, bytes: NO_BYTES };

/// The encrypted backing store for block contents (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct DataStore {
    cipher: BlockCipher,
    slots: Vec<Slot>,
    /// Sealed bytes of the slots that hold some; `free` lists the entries
    /// no slot holds.
    pool: Vec<SealedBlock>,
    free: Vec<u32>,
    /// Test builds only: the eager store, fed every write and growth and
    /// checked on every read.
    #[cfg(test)]
    oracle: Box<oracle::DenseStore>,
}

/// The cipher an engine seeded with `seed` keys its data path with.
fn cipher_for(seed: u64) -> BlockCipher {
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8..16].copy_from_slice(&(!seed).to_le_bytes());
    BlockCipher::new(key)
}

fn index(addr: SlotAddr) -> usize {
    (addr.byte() / BLOCK_BYTES as u64) as usize
}

fn address(i: usize) -> u64 {
    i as u64 * BLOCK_BYTES as u64
}

impl DataStore {
    /// Covers every slot of `layout`, each holding the zero block.
    pub(crate) fn new(layout: &PhysicalLayout, seed: u64) -> Self {
        let n = (layout.data_bytes() / BLOCK_BYTES as u64) as usize;
        DataStore {
            cipher: cipher_for(seed),
            slots: vec![FRESH; n],
            pool: Vec::new(),
            free: Vec::new(),
            #[cfg(test)]
            oracle: Box::new(oracle::DenseStore::new(layout, seed)),
        }
    }

    /// Writes `plain` to the slot at `addr` under a fresh counter. Returns
    /// whether it sealed bytes: a zero block frees the slot's instead.
    pub(crate) fn write(&mut self, addr: SlotAddr, plain: &[u8; BLOCK_BYTES]) -> bool {
        #[cfg(test)]
        self.oracle.write(addr, plain);
        let i = index(addr);
        let slot = &mut self.slots[i];
        slot.counter += 1;
        if *plain == ZERO {
            if slot.bytes != NO_BYTES {
                self.free.push(slot.bytes);
                slot.bytes = NO_BYTES;
            }
            return false;
        }
        if slot.bytes == NO_BYTES {
            slot.bytes = self.free.pop().unwrap_or_else(|| {
                self.pool.push(SealedBlock::default());
                u32::try_from(self.pool.len() - 1).expect("fewer non-zero slots than 2^32 - 1")
            });
        }
        self.pool[slot.bytes as usize] = self.cipher.seal(plain, address(i), slot.counter);
        true
    }

    /// Verifies and decrypts the slot at `addr`.
    pub(crate) fn read(&self, addr: SlotAddr) -> Result<[u8; BLOCK_BYTES], OramError> {
        let i = index(addr);
        let plain = self
            .cipher
            .open(&self.sealed(i), address(i), self.slots[i].counter)
            .map_err(|e| OramError::DataIntegrity { address: e.address });
        #[cfg(test)]
        assert_eq!(plain, self.oracle.read(addr), "slot {i} reads unlike the eager store");
        plain
    }

    /// What memory holds in slot `i`: its sealed bytes, or the zero block
    /// sealed under its counter.
    fn sealed(&self, i: usize) -> SealedBlock {
        let Slot { counter, bytes } = self.slots[i];
        if bytes == NO_BYTES {
            self.cipher.seal(&ZERO, address(i), counter)
        } else {
            self.pool[bytes as usize]
        }
    }

    /// Extends the store to cover a grown layout. Growth extents live past
    /// the old high-water mark, so the index space now spans the whole
    /// byte range; the gap indexes (metadata bytes) hold the zero block and
    /// are never used.
    pub(crate) fn grow_to(&mut self, layout: &PhysicalLayout) {
        #[cfg(test)]
        self.oracle.grow_to(layout);
        let n = (layout.total_bytes() / BLOCK_BYTES as u64) as usize;
        if n > self.slots.len() {
            self.slots.resize(n, FRESH);
        }
    }

    /// Sealed blocks the pool holds, in use or free.
    #[cfg(test)]
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Panics unless every slot's counter and materialised sealed block
    /// equal the eager store's.
    #[cfg(test)]
    pub(crate) fn assert_matches_oracle(&self) {
        assert_eq!(self.slots.len(), self.oracle.len(), "slot count");
        for i in 0..self.slots.len() {
            let counter = self.slots[i].counter;
            assert_eq!(counter, self.oracle.counter(i), "slot {i}: counter");
            assert_eq!(self.sealed(i), self.oracle.sealed(i), "slot {i}: sealed bytes");
        }
    }
}

/// Stores compare by what memory holds — each slot's counter and sealed
/// bytes — not by where in the pool the bytes sit. Two slots without bytes
/// and with equal counters hold the same sealed zero block.
impl PartialEq for DataStore {
    fn eq(&self, other: &Self) -> bool {
        self.cipher == other.cipher
            && self.slots.len() == other.slots.len()
            && self.slots.iter().zip(&other.slots).enumerate().all(|(i, (&a, &b))| {
                a.counter == b.counter
                    && ((a.bytes == NO_BYTES && b.bytes == NO_BYTES)
                        || self.sealed(i) == other.sealed(i))
            })
    }
}

/// The eager store the sparse one replaced: a sealed block for every slot,
/// dummies included, sealed at construction and at growth. Kept as the
/// differential oracle only.
#[cfg(test)]
mod oracle {
    use super::*;

    #[derive(Debug, Clone)]
    pub(crate) struct DenseStore {
        cipher: BlockCipher,
        slots: Vec<SealedBlock>,
        counters: Vec<u64>,
    }

    impl DenseStore {
        pub(crate) fn new(layout: &PhysicalLayout, seed: u64) -> Self {
            let n = (layout.data_bytes() / BLOCK_BYTES as u64) as usize;
            let mut store = DenseStore {
                cipher: cipher_for(seed),
                slots: vec![SealedBlock::default(); n],
                counters: vec![0; n],
            };
            for i in 0..n {
                store.write_index(i, &ZERO);
            }
            store
        }

        pub(crate) fn write(&mut self, addr: SlotAddr, plain: &[u8; BLOCK_BYTES]) {
            self.write_index(index(addr), plain);
        }

        fn write_index(&mut self, i: usize, plain: &[u8; BLOCK_BYTES]) {
            self.counters[i] += 1;
            self.slots[i] = self.cipher.seal(plain, address(i), self.counters[i]);
        }

        pub(crate) fn read(&self, addr: SlotAddr) -> Result<[u8; BLOCK_BYTES], OramError> {
            let i = index(addr);
            self.cipher
                .open(&self.slots[i], address(i), self.counters[i])
                .map_err(|e| OramError::DataIntegrity { address: e.address })
        }

        pub(crate) fn grow_to(&mut self, layout: &PhysicalLayout) {
            let n = (layout.total_bytes() / BLOCK_BYTES as u64) as usize;
            if n <= self.slots.len() {
                return;
            }
            let old = self.slots.len();
            self.slots.resize(n, SealedBlock::default());
            self.counters.resize(n, 0);
            for i in old..n {
                self.write_index(i, &ZERO);
            }
        }

        pub(crate) fn len(&self) -> usize {
            self.slots.len()
        }

        pub(crate) fn counter(&self, i: usize) -> u64 {
            self.counters[i]
        }

        pub(crate) fn sealed(&self, i: usize) -> SealedBlock {
            self.slots[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GrowthConfig, OramConfig, Scheme};
    use crate::ring::{AccessKind, RingOram};
    use crate::sink::CountingSink;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn payload(x: u64) -> [u8; BLOCK_BYTES] {
        let mut p = [0; BLOCK_BYTES];
        for (i, b) in p.iter_mut().enumerate() {
            *b = (x.rotate_left(7 * i as u32) as u8) ^ i as u8;
        }
        p
    }

    fn data_engine(scheme: Scheme, seed: u64) -> RingOram {
        let cfg = OramConfig::builder(8, scheme)
            .seed(seed)
            .store_data(true)
            .growth(GrowthConfig::up_to(9))
            .build()
            .unwrap();
        RingOram::new(&cfg).unwrap()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Read(u64),
        Write(u64, u64),
        WriteZero(u64),
    }

    /// Four reads, three random writes and two all-zero writes in nine.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..9, any::<u64>(), any::<u64>()).prop_map(|(kind, b, x)| match kind {
            0..=3 => Op::Read(b),
            4..=6 => Op::Write(b, x),
            _ => Op::WriteZero(b),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Under churn with random and all-zero writes, before and after a
        /// level grown halfway through, the sparse store reads what the eager one reads
        /// (checked inside every read, rebuild reads included) and holds,
        /// slot for slot, the same counter and sealed block.
        #[test]
        fn the_sparse_store_holds_what_the_eager_one_holds(
            scheme in prop_oneof![
                Just(Scheme::Baseline),
                Just(Scheme::DR),
                Just(Scheme::NS),
                Just(Scheme::Ab),
            ],
            seed in any::<u64>(),
            ops in proptest::collection::vec(op(), 1..400),
        ) {
            let mut oram = data_engine(scheme, seed);
            let mut sink = CountingSink::new();
            let mut model = HashMap::new();
            for (i, op) in ops.iter().enumerate() {
                let blocks = oram.block_count();
                match *op {
                    Op::Read(b) => {
                        let got = oram.read(b % blocks, &mut sink).unwrap();
                        let want = model.get(&(b % blocks)).copied().unwrap_or([0; BLOCK_BYTES]);
                        prop_assert_eq!(got, want, "block {}", b % blocks);
                    }
                    Op::Write(b, x) => {
                        oram.write(b % blocks, payload(x), &mut sink).unwrap();
                        model.insert(b % blocks, payload(x));
                    }
                    Op::WriteZero(b) => {
                        oram.write(b % blocks, [0; BLOCK_BYTES], &mut sink).unwrap();
                        model.insert(b % blocks, [0; BLOCK_BYTES]);
                    }
                }
                if i == ops.len() / 2 {
                    oram.grow_level().unwrap();
                }
                if i % 50 == 0 {
                    oram.data_store().unwrap().assert_matches_oracle();
                }
            }
            oram.data_store().unwrap().assert_matches_oracle();
            for (&b, want) in &model {
                prop_assert_eq!(&oram.read(b, &mut sink).unwrap(), want, "block {}", b);
            }
        }
    }

    #[test]
    fn the_pool_stops_growing_once_every_block_is_written() {
        // The pool's size is the most slots that have held non-zero bytes
        // at once: each live block's copy plus the stale copies its reads
        // left behind until their buckets are rebuilt. That count can never
        // pass the tree's real slots (a rebuild places at most `Z'` blocks
        // per bucket), and once every block holds bytes it only fluctuates:
        // freed entries are reused, and a new high is rare. (Seed 3 reads
        // 746 entries after 5 000 accesses, 756 after 200 000, for 637
        // blocks and 1.4 M seals; 20 000 accesses may add 2 %.)
        use rand::Rng;
        let mut oram = data_engine(Scheme::Ab, 3);
        let mut sink = CountingSink::new();
        let blocks = oram.block_count();
        for b in 0..blocks {
            oram.write(b, payload(b + 1), &mut sink).unwrap();
        }
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let mut churn = |oram: &mut RingOram, accesses: u64| {
            for _ in 0..accesses {
                let b = rng.gen_range(0..blocks);
                if rng.gen_bool(0.5) {
                    oram.write(b, payload(rng.gen()), &mut sink).unwrap();
                } else {
                    oram.access(AccessKind::Read, b, None, &mut sink).unwrap();
                }
            }
        };
        churn(&mut oram, 5_000);
        let (warm, sealed) = (oram.data_store().unwrap().pool_len(), oram.stats().blocks_sealed);
        churn(&mut oram, 20_000);
        let store = oram.data_store().unwrap();
        let geo = oram.geometry();
        let real_slots: u64 = (0..geo.levels())
            .map(|l| (1u64 << l) * u64::from(geo.level_config(aboram_tree::Level(l)).z_real))
            .sum();
        let seals = oram.stats().blocks_sealed - sealed;
        let grown = store.pool_len() - warm;
        assert!(warm as u64 > blocks && store.pool_len() as u64 <= real_slots);
        assert!(grown * 50 <= warm, "{grown} new entries over {warm} in {seals} seals");
        assert!(seals > 20 * warm as u64, "{seals} seals");
        store.assert_matches_oracle();
    }

    #[test]
    fn stores_compare_by_contents_not_pool_order() {
        let geo = OramConfig::builder(8, Scheme::Ab).build().unwrap().geometry().unwrap();
        let layout = PhysicalLayout::new(&geo);
        let (slot1, slot2) = (SlotAddr(64), SlotAddr(128));
        let mut a = DataStore::new(&layout, 9);
        let mut b = a.clone();
        // Two slots without bytes differ by their counters alone.
        let mut zeroed = a.clone();
        assert!(!zeroed.write(slot1, &ZERO));
        assert!(zeroed != a);
        assert!(a.write(slot1, &payload(1)) && a.write(slot2, &payload(2)));
        assert!(b.write(slot2, &payload(2)) && b.write(slot1, &payload(1)));
        assert_ne!(a.slots[1].bytes, b.slots[1].bytes, "the pools are in different orders");
        assert!(a == b);
        // A zero write frees the slot's bytes and still moves its counter.
        assert!(!a.write(slot1, &ZERO));
        assert!(a != b);
        assert!(!b.write(slot1, &ZERO));
        assert!(a == b);
        assert_eq!(a.read(slot1).unwrap(), ZERO);
        // The freed entry is the next one a non-zero write takes.
        assert_eq!(a.free, [0]);
        assert!(a.write(slot1, &payload(3)));
        assert_eq!((a.pool_len(), a.slots[1].bytes), (2, 0));
        assert_eq!(a.read(slot1).unwrap(), payload(3));
        a.assert_matches_oracle();
    }
}
