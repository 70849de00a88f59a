//! Differential tests on Ring ORAM's data path.
//!
//! For any access stream the engine must return exactly the blocks a plain
//! key-value model would; comparing contents byte-for-byte catches data-path
//! bugs (misrouted slots, stale stash entries, lost writes) that
//! protocol-level counters cannot see. And the engine's three user-access
//! entry points share one body, so driving two same-seed engines through
//! different entry points with the same meaning must leave them equal.

use aboram::core::{AccessKind, CountingSink, OramConfig, RingOram, Scheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LEVELS: u8 = 8;
const STREAM_SEED: u64 = 0xD1FF_5EED;
const ACCESSES: usize = 1_500;

/// Deterministic block contents: a fill pattern derived from the block id
/// and its write version, so every write is distinguishable.
fn pattern(block: u64, version: u64) -> [u8; 64] {
    let mut data = [0u8; 64];
    for (i, byte) in data.iter_mut().enumerate() {
        *byte = (block
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(version.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(i as u64)
            >> 16) as u8;
    }
    data
}

#[test]
fn ring_oram_returns_the_models_block_contents() {
    let ring_cfg =
        OramConfig::builder(LEVELS, Scheme::Ab).seed(11).store_data(true).build().unwrap();
    let mut ring = RingOram::new(&ring_cfg).unwrap();
    let mut ring_sink = CountingSink::new();

    // The engine bulk-loads every block as zeroes.
    let blocks = ring_cfg.real_block_count();
    let mut model: Vec<Option<[u8; 64]>> = vec![None; blocks as usize];

    let mut rng = StdRng::seed_from_u64(STREAM_SEED);
    let mut checked_reads = 0u32;
    for step in 0..ACCESSES {
        let block = rng.gen_range(0..blocks);
        if rng.gen_bool(0.5) {
            let data = pattern(block, step as u64);
            ring.write(block, data, &mut ring_sink).unwrap();
            model[block as usize] = Some(data);
        } else {
            let from_ring = ring.read(block, &mut ring_sink).unwrap();
            let expected = model[block as usize].unwrap_or([0; 64]);
            assert_eq!(from_ring, expected, "content drift on block {block} at step {step}");
            checked_reads += 1;
        }
    }
    assert!(checked_reads > 400, "stream should exercise plenty of reads");
}

#[test]
fn written_blocks_survive_heavy_churn_on_other_blocks() {
    let cfg = OramConfig::builder(LEVELS, Scheme::Ab).seed(3).store_data(true).build().unwrap();
    let mut ring = RingOram::new(&cfg).unwrap();
    let mut sink = CountingSink::new();

    let blocks = cfg.real_block_count();
    let victims: Vec<u64> = (0..8).map(|i| i * (blocks / 8)).collect();
    for (v, &b) in victims.iter().enumerate() {
        let data = pattern(b, v as u64);
        ring.write(b, data, &mut sink).unwrap();
    }

    // Churn everything else; evictions and reshuffles must not disturb the
    // victims' contents.
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..1_000 {
        let b = rng.gen_range(0..blocks);
        if victims.contains(&b) {
            continue;
        }
        ring.read(b, &mut sink).unwrap();
    }

    for (v, &b) in victims.iter().enumerate() {
        let expected = pattern(b, v as u64);
        assert_eq!(ring.read(b, &mut sink).unwrap(), expected, "ring lost block {b}");
    }
}

/// A stream of blocks in which about a third repeat the previous one, so
/// the repeat finds its block in the stash.
fn stream_with_stash_hits(blocks: u64) -> impl Iterator<Item = (usize, u64)> {
    let mut rng = StdRng::seed_from_u64(STREAM_SEED);
    let mut block = 0;
    (0..ACCESSES).map(move |step| {
        if rng.gen_range(0..3) != 0 {
            block = rng.gen_range(0..blocks);
        }
        (step, block)
    })
}

#[test]
fn a_write_is_a_managed_access_that_overwrites() {
    let cfg = OramConfig::builder(LEVELS, Scheme::Ab).seed(5).store_data(true).build().unwrap();
    let (mut plain, mut managed) = (RingOram::new(&cfg).unwrap(), RingOram::new(&cfg).unwrap());
    let (mut plain_sink, mut managed_sink) = (CountingSink::new(), CountingSink::new());
    let mut rng = StdRng::seed_from_u64(9);
    for (step, block) in stream_with_stash_hits(cfg.real_block_count()) {
        if rng.gen_bool(0.5) {
            let data = pattern(block, step as u64);
            let before =
                plain.access(AccessKind::Write, block, Some(data), &mut plain_sink).unwrap();
            let fetched =
                managed.access_managed(block, None, &mut |p| *p = data, &mut managed_sink).unwrap();
            assert_eq!(before, Some(fetched), "write of block {block} at step {step}");
        } else {
            let read = plain.access(AccessKind::Read, block, None, &mut plain_sink).unwrap();
            let fetched =
                managed.access_managed(block, None, &mut |_| {}, &mut managed_sink).unwrap();
            assert_eq!(read, Some(fetched), "read of block {block} at step {step}");
        }
    }
    assert!(plain.stats().stash_hits > 100, "the stream exercises the stash-hit branch");
    assert!(plain == managed, "the engines diverged");
    assert_eq!(plain_sink, managed_sink);
    for block in 0..cfg.real_block_count() {
        let read = plain.read(block, &mut plain_sink).unwrap();
        assert_eq!(read, managed.read(block, &mut managed_sink).unwrap(), "block {block}");
    }
}

#[test]
fn an_observed_access_is_a_read_access() {
    let cfg = OramConfig::builder(LEVELS, Scheme::Ab).seed(7).build().unwrap();
    let (mut read, mut observed) = (RingOram::new(&cfg).unwrap(), RingOram::new(&cfg).unwrap());
    let (mut read_sink, mut observed_sink) = (CountingSink::new(), CountingSink::new());
    let mut from_stash = 0;
    for (_, block) in stream_with_stash_hits(cfg.real_block_count()) {
        if observed.access_observed(block, &mut observed_sink).unwrap().is_none() {
            from_stash += 1;
        }
        read.access(AccessKind::Read, block, None, &mut read_sink).unwrap();
    }
    assert!(from_stash > 100, "the stream exercises the stash-hit branch");
    assert_eq!(from_stash, observed.stats().stash_hits, "the probe reads the access's level");
    assert!(read == observed, "the engines diverged");
    assert_eq!(read_sink, observed_sink);
}
