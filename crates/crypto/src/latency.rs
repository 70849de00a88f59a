//! Cycle-cost model for the on-chip secure engine.

/// Latency model for the hardware crypto engine that sits between the ORAM
/// controller and memory.
///
/// Prior work (AEGIS, Merkle-tree caching — §II of the paper) shows the
/// encryption/authentication pipeline adds a small, fixed decrypt latency on
/// the critical path and is otherwise fully pipelined. The model therefore
/// charges a one-time `pipeline_fill` on the first block of a burst and
/// `per_block` for each subsequent block.
///
/// The charge covers both halves of the secure engine: decryption *and* MAC
/// verification ([`bucket_tag`](crate::bucket_tag) checks plus the
/// Merkle-style level-chain fold) run in the same hardware pipeline, so an
/// integrity-verified run pays no extra cycles while its fetches verify
/// clean. Only *recovery* actions — re-issued transfers after a failed
/// check — add bus traffic, and those retried blocks re-enter this pipeline
/// like any other burst, which is how verification cost surfaces in the
/// DRAM/crypto timing under faults.
///
/// # Example
///
/// ```
/// use aboram_crypto::CryptoLatency;
///
/// let lat = CryptoLatency::default();
/// // A readPath touching 14 off-chip blocks pays fill + 13 pipelined steps.
/// assert_eq!(lat.burst_cycles(14), lat.pipeline_fill + 13 * lat.per_block);
/// assert_eq!(lat.burst_cycles(0), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoLatency {
    /// Cycles to fill the decrypt/verify pipeline (first block of a burst).
    pub pipeline_fill: u64,
    /// Additional cycles per pipelined block after the first.
    pub per_block: u64,
}

impl CryptoLatency {
    /// Creates a model with explicit costs.
    pub const fn new(pipeline_fill: u64, per_block: u64) -> Self {
        CryptoLatency { pipeline_fill, per_block }
    }

    /// A zero-cost model (crypto ignored), useful for isolating DRAM effects.
    pub const fn free() -> Self {
        CryptoLatency { pipeline_fill: 0, per_block: 0 }
    }

    /// Total cycles to process a burst of `blocks` blocks.
    pub const fn burst_cycles(&self, blocks: u64) -> u64 {
        if blocks == 0 {
            0
        } else {
            self.pipeline_fill + (blocks - 1) * self.per_block
        }
    }

    /// Cycle at which the last block of a burst exits the decrypt/verify
    /// pipeline when each block enters as soon as DRAM returns it, instead
    /// of the whole burst waiting for the final reply.
    ///
    /// `completions` holds each block's DRAM completion cycle; it is sorted
    /// in place (the pipeline consumes blocks in arrival order). `prev_exit`
    /// is the cycle the previous burst's last block exited (0 for an idle
    /// pipeline). A block arriving at `c` can exit no earlier than
    /// `c + pipeline_fill`, and the single pipeline retires at most one
    /// block per `per_block` cycles — *across* burst boundaries too — so
    ///
    /// ```text
    /// exit_0 = c_0 + pipeline_fill                              (idle pipeline)
    /// exit_0 = max(c_0 + pipeline_fill, prev_exit + per_block)  (busy pipeline)
    /// exit_i = max(c_i + pipeline_fill, exit_{i-1} + per_block)
    /// ```
    ///
    /// On an idle pipeline with every completion equal (no DRAM spread to
    /// hide behind) this degenerates exactly to `last + burst_cycles(n)` —
    /// the serialized charge — and it can never exceed it. The access
    /// controller threads each in-flight access's exit into the next
    /// access's drain, so back-to-back accesses share one crypto pipeline
    /// instead of each getting a magically idle one.
    pub fn overlapped_exit_from(&self, prev_exit: u64, completions: &mut [u64]) -> u64 {
        let Some((&first, rest)) = ({
            completions.sort_unstable();
            completions.split_first()
        }) else {
            return 0;
        };
        // An idle pipeline (prev_exit 0) charges the first block no retire
        // slot.
        let floor = if prev_exit == 0 { 0 } else { prev_exit + self.per_block };
        let mut exit = (first + self.pipeline_fill).max(floor);
        for &c in rest {
            exit = (exit + self.per_block).max(c + self.pipeline_fill);
        }
        exit
    }
}

impl Default for CryptoLatency {
    /// 40-cycle AES-pipeline fill, 1 cycle per pipelined block — the
    /// conventional figure used by secure-processor simulation studies.
    fn default() -> Self {
        CryptoLatency { pipeline_fill: 40, per_block: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_costs_nothing() {
        let lat = CryptoLatency::free();
        assert_eq!(lat.burst_cycles(100), 0);
    }

    #[test]
    fn single_block_pays_only_fill() {
        let lat = CryptoLatency::new(40, 2);
        assert_eq!(lat.burst_cycles(1), 40);
        assert_eq!(lat.burst_cycles(2), 42);
    }

    #[test]
    fn overlapped_exit_degenerates_to_serial_on_equal_completions() {
        let lat = CryptoLatency::new(40, 2);
        let mut same = [500u64; 14];
        assert_eq!(lat.overlapped_exit_from(0, &mut same), 500 + lat.burst_cycles(14));
        assert_eq!(lat.overlapped_exit_from(0, &mut []), 0);
        assert_eq!(lat.overlapped_exit_from(0, &mut [7]), 47);
    }

    #[test]
    fn overlapped_exit_hides_fill_behind_dram_spread() {
        let lat = CryptoLatency::new(40, 2);
        // Completions spread wider than the pipeline's drain rate: every
        // block but the last finishes decrypting before the last reply, so
        // only the final block's fill remains exposed.
        let mut spread = [100, 200, 300, 400];
        assert_eq!(lat.overlapped_exit_from(0, &mut spread), 440);
        // Never worse than serializing after the last reply, whatever the
        // arrival pattern (input order irrelevant — sorted internally).
        let mut jumbled = [390, 100, 385, 380];
        let serial = 390 + lat.burst_cycles(4);
        assert!(lat.overlapped_exit_from(0, &mut jumbled) <= serial);
    }

    #[test]
    fn overlapped_exit_from_carries_the_pipeline_across_bursts() {
        let lat = CryptoLatency::new(40, 2);
        // A busy pipeline delays a burst whose first block would otherwise
        // exit before the previous burst finished retiring.
        let mut tight = [10, 11, 12];
        assert_eq!(lat.overlapped_exit_from(100, &mut tight), 106);
        // A long-idle pipeline adds nothing.
        let mut late = [500];
        assert_eq!(lat.overlapped_exit_from(100, &mut late), 540);
        assert_eq!(lat.overlapped_exit_from(100, &mut []), 0);
        // Never earlier than the empty-pipeline exit: the carried floor can
        // only delay.
        let mut x = [50, 60, 70];
        let mut y = x;
        assert!(lat.overlapped_exit_from(80, &mut x) >= lat.overlapped_exit_from(0, &mut y));
    }
}
