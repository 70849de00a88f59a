//! Physical-address decoding.

use crate::config::DramConfig;

/// A physical address decoded into DRAM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Channel index.
    pub channel: u8,
    /// Flattened bank index within the channel (`rank * banks + bank`).
    pub bank: u16,
    /// Row within the bank.
    pub row: u64,
    /// Rank index (needed for tFAW accounting).
    pub rank: u8,
}

impl DramConfig {
    /// Decodes physical `addr` under USIMM's page-interleaved map
    /// (`row:rank:bank:channel:column`, Table III): consecutive lines fill
    /// a row before the next row's worth moves to the next channel. This is
    /// the location a [`crate::MemorySystem`] over it routes the address to.
    /// It needs no memory system, so an issue layer can decode, group and
    /// order an access's requests wherever it stages them.
    ///
    /// # Panics
    ///
    /// On a geometry [`crate::MemorySystem::new`] refuses (zero channels,
    /// ranks or banks, or rows shorter than one 64 B line), which would
    /// divide by zero.
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        // row : rank : bank : channel : column — column bits lowest.
        let (rest, _) = div_rem(addr / 64, self.lines_per_row());
        let (rest, channel) = div_rem(rest, u64::from(self.channels));
        let (row, bank) = div_rem(rest, self.banks_per_channel());
        let rank = div_rem(bank, u64::from(self.banks)).0;
        DecodedAddr { channel: channel as u8, bank: bank as u16, row, rank: rank as u8 }
    }
}

/// `(a / d, a % d)`: a shift and a mask when `d` is a power of two, as every
/// Table III radix is, and a division otherwise.
#[inline]
fn div_rem(a: u64, d: u64) -> (u64, u64) {
    if d.is_power_of_two() {
        (a >> d.trailing_zeros(), a & (d - 1))
    } else {
        (a / d, a % d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_interleave_keeps_row_locality() {
        let cfg = DramConfig::default();
        // All lines of one 8 KB row map to the same (channel, bank, row).
        let base = cfg.decode(0);
        for line in 0..cfg.lines_per_row() {
            let d = cfg.decode(line * 64);
            assert_eq!((d.channel, d.bank, d.row), (base.channel, base.bank, base.row));
        }
        // The next row's worth moves to another channel.
        let next = cfg.decode(cfg.row_bytes);
        assert_ne!(next.channel, base.channel);
    }

    #[test]
    fn decode_is_injective_over_a_region() {
        use std::collections::HashSet;
        let cfg = DramConfig::default();
        let mut seen = HashSet::new();
        // 1024 rows worth of lines must decode to distinct (ch, bank, row, line-in-row).
        // We check coordinates coarsely: count distinct (channel,bank,row) buckets
        // and confirm each holds exactly lines_per_row lines.
        for line in 0..cfg.lines_per_row() * 1024 {
            let d = cfg.decode(line * 64);
            seen.insert((d.channel, d.bank, d.row, line));
            assert!(u64::from(d.bank) < cfg.banks_per_channel());
            assert!(d.channel < cfg.channels);
            assert_eq!(u64::from(d.rank), u64::from(d.bank) / u64::from(cfg.banks));
        }
    }

    proptest::proptest! {
        /// The shift-and-mask path is the map's division formula: every
        /// field equal, for power-of-two radices (Table III) and for a
        /// geometry with none, up to the top of the range.
        #[test]
        fn decode_is_the_division_formula(addrs in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..64)) {
            let table_iii = DramConfig::default();
            let odd = DramConfig { channels: 3, ranks: 3, banks: 5, row_bytes: 1536, ..table_iii };
            let mixed = DramConfig { channels: 2, ranks: 3, banks: 4, row_bytes: 1024, ..table_iii };
            for cfg in [table_iii, odd, mixed] {
                let (channels, banks) = (u64::from(cfg.channels), cfg.banks_per_channel());
                for addr in addrs.iter().flat_map(|&a| [a, u64::MAX - a % 4096]) {
                    let rest = addr / 64 / cfg.lines_per_row();
                    let (channel, bank, row) = (rest % channels, rest / channels % banks, rest / channels / banks);
                    let rank = bank / u64::from(cfg.banks);
                    let want = DecodedAddr { channel: channel as u8, bank: bank as u16, row, rank: rank as u8 };
                    proptest::prop_assert_eq!(cfg.decode(addr), want, "{:#x} under {:?}", addr, cfg);
                }
            }
        }
    }
}
