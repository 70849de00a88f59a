//! Integrity-verified engine mode: shadow MAC tags, the Merkle-style
//! per-level digest chain, and the poisoned-subtree map behind the typed
//! recovery ladder (IRO-style; see DESIGN.md §11).
//!
//! With the verifier armed, every off-chip fetch on the readPath, evictPath
//! and earlyReshuffle operations re-derives the bucket's expected MAC tag
//! ([`aboram_crypto::bucket_tag`] over the slot's address and shadow write
//! counter) and folds it into the digest chain of the level the bucket sits
//! on; each user access then folds the per-level digests into a root at the
//! stash boundary. Tampering anywhere on a path therefore lands in exactly
//! one level chain first — the level where it occurred — before propagating
//! to the root.
//!
//! All of this is pure computation over state the engine already carries:
//! no extra memory traffic, no RNG draws, no cycle charges. A fault-free
//! run with the verifier armed is bit-identical to one without it (the
//! golden fixtures replay unchanged), because verification cost is already
//! accounted inside the crypto pipeline the timing driver charges per
//! fetched burst ([`aboram_crypto::CryptoLatency`]).

use aboram_crypto::{bucket_tag, chain_digest};
use aboram_stats::HealthState;
use std::collections::BTreeMap;

/// Marker folded into a digest chain when a fetch could not be verified —
/// guarantees the chain (and the root) diverge from the fault-free run.
const TAINT: u64 = 0xdead_bea7_ed51_6e11;

/// Shadow integrity state for one engine: per-address write counters and
/// MAC tags, the per-level digest chains, the stash-rooted root digest and
/// the poisoned-subtree map.
///
/// The tag store is lazy (an address absent from the map is at epoch 0), so
/// memory stays proportional to the set of off-chip addresses actually
/// touched, and a `BTreeMap` keeps every operation deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityVerifier {
    key: u64,
    /// Shadow write counter per physical byte address (slot or metadata
    /// record). Absent means the address is still at its bulk-load epoch.
    counters: BTreeMap<u64, u64>,
    /// One running digest chain per tree level.
    level_digests: Vec<u64>,
    /// Root digest, folded from the level chains at the stash boundary of
    /// every user access.
    root: u64,
    /// Buckets whose faults exhausted the recovery ladder: raw bucket id →
    /// tree level. The subtree under each entry is considered poisoned.
    poisoned: BTreeMap<u64, u8>,
    /// First level at which a mismatch was observed, with the address.
    first_taint: Option<(u8, u64)>,
    health: HealthState,
}

impl IntegrityVerifier {
    /// Creates a verifier for a tree of `levels` levels, deriving the tag
    /// key from the engine seed.
    pub fn new(seed: u64, levels: u8) -> Self {
        IntegrityVerifier {
            key: seed ^ 0xab0a_7a65_0000_11d7,
            counters: BTreeMap::new(),
            level_digests: vec![0; usize::from(levels.max(1))],
            root: 0,
            poisoned: BTreeMap::new(),
            first_taint: None,
            health: HealthState::Healthy,
        }
    }

    fn counter(&self, addr: u64) -> u64 {
        self.counters.get(&addr).copied().unwrap_or(0)
    }

    /// The tag a clean copy of `addr` must carry right now.
    pub fn expected_tag(&self, addr: u64) -> u64 {
        bucket_tag(self.key, addr, self.counter(addr))
    }

    fn fold(&mut self, level: u8, tag: u64) {
        let l = usize::from(level).min(self.level_digests.len() - 1);
        self.level_digests[l] = chain_digest(self.level_digests[l], tag);
    }

    /// Records one verified fetch of `addr` on `level`. A `clean` fetch
    /// folds the expected tag; a fetch that failed verification beyond
    /// recovery folds a taint marker instead, so the level chain — and
    /// every later root — diverge from the fault-free run.
    pub(crate) fn verify_fetch(&mut self, level: u8, addr: u64, clean: bool) {
        if clean {
            let tag = self.expected_tag(addr);
            self.fold(level, tag);
        } else {
            self.first_taint.get_or_insert((level, addr));
            self.fold(level, TAINT ^ addr);
        }
    }

    /// Records one write of `addr` on `level`. An `acked` write advances
    /// the shadow counter and folds the new tag (re-encryption changes the
    /// tag every epoch, exactly like the data path's counter-mode cipher);
    /// a write whose acknowledgment never verified keeps the counter
    /// (memory still holds the old epoch) and taints the write's level.
    pub(crate) fn record_write(&mut self, level: u8, addr: u64, acked: bool) {
        if acked {
            let c = self.counter(addr) + 1;
            self.counters.insert(addr, c);
            self.fold(level, bucket_tag(self.key, addr, c));
        } else {
            self.first_taint.get_or_insert((level, addr));
            self.fold(level, TAINT.rotate_left(13) ^ addr);
        }
    }

    /// Marks the subtree rooted at `bucket_raw` poisoned after the ladder's
    /// budget was exhausted, degrading the engine's health.
    pub(crate) fn poison(&mut self, bucket_raw: u64, level: u8) {
        self.poisoned.insert(bucket_raw, level);
        self.health = HealthState::Degraded;
    }

    /// Folds the per-level digests into the stash-rooted root digest; the
    /// engine calls this once per user access at the stash boundary.
    pub(crate) fn fold_root(&mut self) {
        let mut acc = self.root;
        for &d in &self.level_digests {
            acc = chain_digest(acc, d);
        }
        self.root = acc;
    }

    /// Current engine health under the verifier.
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// The stash-rooted root digest. Equal across two runs of the same
    /// workload iff every fetch verified clean (or recovered bit-exactly)
    /// in both — the chaos harness's recovered-vs-reported discriminator.
    pub fn root_digest(&self) -> u64 {
        self.root
    }

    /// The running digest chain of one tree level.
    pub fn level_digest(&self, level: u8) -> u64 {
        self.level_digests.get(usize::from(level)).copied().unwrap_or(0)
    }

    /// The poisoned-subtree map: raw bucket id → tree level, for every
    /// fault that exhausted the recovery ladder.
    pub fn poisoned_subtrees(&self) -> &BTreeMap<u64, u8> {
        &self.poisoned
    }

    /// The first (level, address) where a mismatch was observed, if any —
    /// tampering is detected at the level it occurred.
    pub fn first_tainted_level(&self) -> Option<(u8, u64)> {
        self.first_taint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_replay_reproduces_digests() {
        let run = || {
            let mut v = IntegrityVerifier::new(9, 8);
            for i in 0..200u64 {
                v.verify_fetch((i % 8) as u8, i * 64, true);
                if i % 3 == 0 {
                    v.record_write((i % 8) as u8, i * 64, true);
                }
                v.fold_root();
            }
            (v.root_digest(), v.level_digest(3))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn taint_lands_at_the_level_it_occurred() {
        let mut clean = IntegrityVerifier::new(1, 6);
        let mut bad = IntegrityVerifier::new(1, 6);
        for level in 0..6u8 {
            clean.verify_fetch(level, u64::from(level) * 64, true);
            bad.verify_fetch(level, u64::from(level) * 64, level != 4);
        }
        assert_eq!(bad.first_tainted_level(), Some((4, 4 * 64)));
        for level in 0..6u8 {
            let diverged = clean.level_digest(level) != bad.level_digest(level);
            assert_eq!(diverged, level == 4, "only level 4's chain may move");
        }
        clean.fold_root();
        bad.fold_root();
        assert_ne!(clean.root_digest(), bad.root_digest());
    }

    #[test]
    fn write_epochs_change_expected_tags() {
        let mut v = IntegrityVerifier::new(7, 4);
        let before = v.expected_tag(128);
        v.record_write(1, 128, true);
        assert_ne!(before, v.expected_tag(128));
        // Other addresses are unaffected by the bump.
        assert_eq!(IntegrityVerifier::new(7, 4).expected_tag(192), v.expected_tag(192));
    }

    #[test]
    fn poisoning_degrades_health() {
        let mut v = IntegrityVerifier::new(3, 5);
        assert!(v.health().is_healthy());
        v.poison(17, 3);
        assert_eq!(v.health(), HealthState::Degraded);
        assert_eq!(v.poisoned_subtrees().get(&17), Some(&3));
    }
}
