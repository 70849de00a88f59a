//! Error type for the ORAM engines.

use aboram_tree::GeometryError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by ORAM construction and access.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OramError {
    /// The tree geometry was invalid.
    Geometry(GeometryError),
    /// A configuration parameter was rejected.
    BadParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// A block id beyond the protected capacity was accessed.
    BlockOutOfRange {
        /// The rejected block id.
        block: u64,
        /// Number of protected blocks.
        count: u64,
    },
    /// The stash exceeded its configured capacity — a protocol failure that
    /// a correctly configured instance (with background eviction) never hits.
    StashOverflow {
        /// Configured stash capacity.
        capacity: usize,
    },
    /// A block fetched from the simulated memory failed authentication.
    DataIntegrity {
        /// The physical address whose content failed verification.
        address: u64,
    },
    /// A data-path operation was requested but `store_data` is disabled.
    DataPathDisabled,
    /// Bounded fault recovery gave up: every re-issued transfer of `address`
    /// faulted again. Only surfaced when integrity verification is off;
    /// with the verifier armed, the recovery ladder continues past retries
    /// (redundant refetch, escalated eviction) and exhaustion degrades the
    /// engine's health instead of erroring.
    RetriesExhausted {
        /// The physical address whose transfers kept faulting.
        address: u64,
        /// Number of retries attempted before giving up.
        attempts: u32,
    },
    /// A fault the recovery layer has no strategy for.
    FaultUnrecoverable {
        /// The verification site that observed the fault.
        site: &'static str,
        /// The physical address involved.
        address: u64,
    },
    /// An internal invariant was violated (engine bug, not a user error).
    Internal {
        /// Which invariant broke.
        context: &'static str,
    },
    /// A recursive position map's stored entry for `block` disagrees with
    /// the engine that owns the block: the ladder above it can no longer be
    /// trusted to find anything below.
    PosMapDiverged {
        /// The tree whose engine disagrees: 0 is the data tree, `k ≥ 1` the
        /// `k`-th posmap tree (1 = finest).
        tree: usize,
        /// The block, in that tree, whose recorded position is wrong.
        block: u64,
    },
    /// A grow or insert was requested beyond the configured capacity
    /// ceiling (`GrowthConfig::max_levels`), or on an engine built without
    /// growth enabled.
    CapacityExhausted {
        /// Current tree levels.
        levels: u8,
        /// Configured ceiling (equals `levels` when growth is disabled).
        max_levels: u8,
    },
}

impl fmt::Display for OramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OramError::Geometry(e) => write!(f, "geometry error: {e}"),
            OramError::BadParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            OramError::BlockOutOfRange { block, count } => {
                write!(f, "block {block} out of range for {count} protected blocks")
            }
            OramError::StashOverflow { capacity } => {
                write!(f, "stash overflowed its {capacity}-entry capacity")
            }
            OramError::DataIntegrity { address } => {
                write!(f, "block at {address:#x} failed authentication")
            }
            OramError::DataPathDisabled => {
                write!(f, "data path disabled; build the config with store_data(true)")
            }
            OramError::RetriesExhausted { address, attempts } => {
                write!(f, "gave up on {address:#x} after {attempts} faulted retries")
            }
            OramError::FaultUnrecoverable { site, address } => {
                write!(f, "unrecoverable {site} fault at {address:#x}")
            }
            OramError::Internal { context } => {
                write!(f, "internal invariant violated: {context}")
            }
            OramError::PosMapDiverged { tree, block } => {
                write!(f, "position-map entry for block {block} diverged from tree {tree}'s engine")
            }
            OramError::CapacityExhausted { levels, max_levels } => {
                write!(f, "capacity exhausted at {levels} levels (ceiling {max_levels})")
            }
        }
    }
}

impl Error for OramError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OramError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeometryError> for OramError {
    fn from(e: GeometryError) -> Self {
        OramError::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OramError::StashOverflow { capacity: 300 };
        assert!(e.to_string().contains("300"));
        let g: OramError = GeometryError::BadLevelCount { levels: 1 }.into();
        assert!(g.to_string().contains("geometry"));
        assert!(g.source().is_some());
    }

    #[test]
    fn recovery_variants_display() {
        let e = OramError::RetriesExhausted { address: 0x40, attempts: 6 };
        assert!(e.to_string().contains("0x40"));
        assert!(e.to_string().contains('6'));
        let u = OramError::FaultUnrecoverable { site: "write-ack", address: 0x80 };
        assert!(u.to_string().contains("write-ack"));
        let i = OramError::Internal { context: "candidate missing from stash" };
        assert!(i.to_string().contains("invariant"));
    }

    #[test]
    fn growth_variants_display() {
        let c = OramError::CapacityExhausted { levels: 10, max_levels: 10 };
        assert!(c.to_string().contains("10"));
    }
}
