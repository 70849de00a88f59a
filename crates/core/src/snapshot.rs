//! Engine-state snapshots: bit-exact serialization of a warmed ORAM engine.
//!
//! A snapshot captures *everything* that determines an engine's future
//! behavior — position map, bucket metadata bitsets, stash (with its sticky
//! peak), DeadQ contents and lifetime counters, protocol counters/statistics
//! and the RNG state words — so that restore-then-run is indistinguishable
//! from straight-line execution (`crates/bench/tests/snapshot_roundtrip.rs`
//! and `crates/core/tests/growth_differential.rs` hold that property). It is
//! the workspace's one wire format.
//!
//! ## Format
//!
//! A snapshot is a little-endian byte stream (primitives from
//! [`aboram_stats::ByteWriter`]/[`aboram_stats::ByteReader`]):
//!
//! ```text
//! magic "ABSN" · u32 version · u8 engine kind (0) · u64 config digest
//! <engine body>
//! u64 FNV-1a digest of everything before the trailer
//! ```
//!
//! The version is bumped whenever the stream's layout changes. Only
//! [`crate::RingOram`] snapshots, so the kind byte is always 0; it stays in
//! the stream so the v3 layout is unchanged. The config digest covers every
//! [`OramConfig`] field including the scheme's parameters. Any mismatch —
//! version, kind, digest, truncation, or trailer corruption — fails restore
//! with [`OramError::SnapshotInvalid`].

use crate::config::{OramConfig, Scheme};
use crate::error::OramError;
use aboram_stats::fnv1a64;

pub(crate) use aboram_stats::{ByteReader as Reader, ByteWriter as Writer};

/// Snapshot format version. Bump this whenever the stream's layout or the
/// meaning of a field changes (the committed `ring_ab_l8_v3.absn` fixture
/// pins the current layout). Nothing persists snapshots across builds — the
/// evaluation harness warms in-process — so a change that only moves
/// simulated behavior has no stale state to orphan and needs no bump.
///
/// v2: the serialized recovery block grew from 12 to 14 counters
/// (`redundant_refetches`, `unrecovered_faults` — the recovery ladder).
///
/// v3: auto-scaling trees — growth-enabled configurations append their
/// growth counters (epochs, relocations) after the stats block and fold
/// the [`crate::GrowthConfig`] into the config digest; engine label reads
/// route through the position map.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Magic bytes opening every engine snapshot stream.
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"ABSN";

/// Engine-kind byte of every snapshot: [`crate::RingOram`], the one engine
/// that snapshots.
const KIND_RING: u8 = 0;

/// Stable digest over every configuration field (scheme parameters
/// included). Two configs with equal digests build identical engines, so
/// the digest is a sound snapshot-compatibility check.
pub fn config_digest(cfg: &OramConfig) -> u64 {
    let mut w = Writer::new();
    w.u8(cfg.levels);
    encode_scheme(&mut w, cfg.scheme);
    w.u8(cfg.evict_rate_a);
    w.u8(cfg.treetop_levels);
    w.u64(cfg.stash_capacity as u64);
    w.u64(cfg.bg_evict_threshold as u64);
    w.u64(cfg.deadq_capacity as u64);
    w.u8(cfg.deadq_levels);
    w.u8(u8::from(cfg.store_data));
    w.u8(u8::from(cfg.track_lifetimes));
    w.u64(cfg.seed);
    // Appended only when growth is on: fixed-capacity digests (and hence
    // every pre-growth snapshot) are unchanged by the feature's existence.
    if let Some(g) = cfg.growth {
        w.u8(g.max_levels);
        w.u8(g.util_pct);
        w.u8(g.relocs_per_access);
    }
    fnv1a64(w.as_bytes())
}

fn encode_scheme(w: &mut Writer, scheme: Scheme) {
    match scheme {
        Scheme::PlainRing => w.bytes(&[0, 0, 0]),
        Scheme::Baseline => w.bytes(&[1, 0, 0]),
        Scheme::Ir => w.bytes(&[2, 0, 0]),
        Scheme::Dr { bottom_levels } => w.bytes(&[3, bottom_levels, 0]),
        Scheme::Ns { bottom_levels, shrink } => w.bytes(&[4, bottom_levels, shrink]),
        Scheme::Ab => w.bytes(&[5, 0, 0]),
        Scheme::RingShrink { bottom_levels } => w.bytes(&[6, bottom_levels, 0]),
        Scheme::DrPlus { bottom_levels } => w.bytes(&[7, bottom_levels, 0]),
        Scheme::AbChannelPar => w.bytes(&[8, 0, 0]),
    }
}

/// Writes the common snapshot header.
pub(crate) fn write_header(w: &mut Writer, cfg: &OramConfig) {
    w.bytes(&SNAPSHOT_MAGIC);
    w.u32(SNAPSHOT_VERSION);
    w.u8(KIND_RING);
    w.u64(config_digest(cfg));
}

/// Validates the header against the restoring configuration, leaving the
/// reader positioned at the engine body.
pub(crate) fn check_header(r: &mut Reader<'_>, cfg: &OramConfig) -> Result<(), OramError> {
    if r.bytes(4)? != SNAPSHOT_MAGIC {
        return Err(OramError::SnapshotInvalid { reason: "bad magic".to_string() });
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(OramError::SnapshotInvalid {
            reason: format!("snapshot version {version}, engine expects {SNAPSHOT_VERSION}"),
        });
    }
    let kind = r.u8()?;
    if kind != KIND_RING {
        return Err(OramError::SnapshotInvalid {
            reason: format!("engine kind {kind}, expected {KIND_RING}"),
        });
    }
    let digest = r.u64()?;
    if digest != config_digest(cfg) {
        return Err(OramError::SnapshotInvalid {
            reason: "configuration digest mismatch".to_string(),
        });
    }
    Ok(())
}

/// Appends the integrity trailer over everything written so far.
pub(crate) fn seal(mut w: Writer) -> Vec<u8> {
    let digest = fnv1a64(w.as_bytes());
    w.u64(digest);
    w.into_bytes()
}

/// Verifies the integrity trailer and returns the body slice (header
/// included, trailer excluded).
pub(crate) fn verify_sealed(bytes: &[u8]) -> Result<&[u8], OramError> {
    if bytes.len() < 8 {
        return Err(OramError::SnapshotInvalid { reason: "snapshot too short".to_string() });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if fnv1a64(body) != stored {
        return Err(OramError::SnapshotInvalid {
            reason: "integrity trailer mismatch".to_string(),
        });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OramConfig, Scheme};

    #[test]
    fn sealed_stream_detects_corruption() {
        let mut w = Writer::new();
        w.bytes(b"payload");
        let mut sealed = seal(w);
        assert!(verify_sealed(&sealed).is_ok());
        sealed[2] ^= 0x40;
        assert!(verify_sealed(&sealed).is_err());
        assert!(verify_sealed(&[1, 2, 3]).is_err(), "shorter than a trailer");
    }

    #[test]
    fn config_digest_covers_every_field() {
        let base = OramConfig::builder(10, Scheme::Ab).build().unwrap();
        let d0 = config_digest(&base);
        assert_eq!(d0, config_digest(&base.clone()), "digest is deterministic");
        let variants = [
            OramConfig::builder(11, Scheme::Ab).build().unwrap(),
            OramConfig::builder(10, Scheme::Baseline).build().unwrap(),
            OramConfig::builder(10, Scheme::Ab).seed(1).build().unwrap(),
            OramConfig::builder(10, Scheme::Ab).evict_rate(4).build().unwrap(),
            OramConfig::builder(10, Scheme::Ab).treetop_levels(2).build().unwrap(),
            OramConfig::builder(10, Scheme::Ab).stash(400, 225).build().unwrap(),
            OramConfig::builder(10, Scheme::Ab).stash(300, 200).build().unwrap(),
            OramConfig::builder(10, Scheme::Ab).deadq_capacity(64).build().unwrap(),
            OramConfig::builder(10, Scheme::Ab).deadq_levels(3).build().unwrap(),
            OramConfig::builder(10, Scheme::Ab).track_lifetimes(true).build().unwrap(),
            OramConfig::builder(10, Scheme::Ab)
                .growth(crate::config::GrowthConfig::up_to(12))
                .build()
                .unwrap(),
            OramConfig::builder(10, Scheme::Ab)
                .growth(crate::config::GrowthConfig {
                    max_levels: 12,
                    util_pct: 90,
                    relocs_per_access: 4,
                })
                .build()
                .unwrap(),
        ];
        for v in &variants {
            assert_ne!(d0, config_digest(v), "field change must move the digest: {v:?}");
        }
    }

    #[test]
    fn scheme_parameters_move_the_digest() {
        let d6 = config_digest(&OramConfig::builder(12, Scheme::DR).build().unwrap());
        let d4 = config_digest(
            &OramConfig::builder(12, Scheme::Dr { bottom_levels: 4 }).build().unwrap(),
        );
        assert_ne!(d6, d4);
        let ns22 = config_digest(&OramConfig::builder(12, Scheme::NS).build().unwrap());
        let ns21 = config_digest(
            &OramConfig::builder(12, Scheme::Ns { bottom_levels: 2, shrink: 1 }).build().unwrap(),
        );
        assert_ne!(ns22, ns21);
    }

    #[test]
    fn header_check_rejects_mismatches() {
        let cfg = OramConfig::builder(10, Scheme::Baseline).build().unwrap();
        let other = OramConfig::builder(10, Scheme::Ab).build().unwrap();
        let mut w = Writer::new();
        write_header(&mut w, &cfg);
        let bytes = w.into_bytes();

        assert!(check_header(&mut Reader::new(&bytes), &cfg).is_ok());
        assert!(check_header(&mut Reader::new(&bytes), &other).is_err());

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(check_header(&mut Reader::new(&wrong_magic), &cfg).is_err());

        let mut wrong_version = bytes.clone();
        wrong_version[4] ^= 0xff;
        assert!(check_header(&mut Reader::new(&wrong_version), &cfg).is_err());

        let mut wrong_kind = bytes;
        wrong_kind[8] ^= 1;
        assert!(matches!(
            check_header(&mut Reader::new(&wrong_kind), &cfg),
            Err(OramError::SnapshotInvalid { .. })
        ));
    }
}
