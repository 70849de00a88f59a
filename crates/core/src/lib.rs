//! AB-ORAM core: the Ring ORAM protocol family and the paper's contribution.
//!
//! This crate implements, from scratch:
//!
//! * **Path ORAM** ([`PathOram`]) — the substrate protocol (§III-A), used as
//!   the IR-ORAM reference point;
//! * **Ring ORAM** ([`RingOram`]) — readPath / evictPath / earlyReshuffle
//!   with the Table I bucket metadata (§III-B);
//! * **Bucket Compaction (CB)** — green blocks, overlap `Y`, and
//!   threshold-triggered background eviction (§III-C), the evaluation's
//!   `Baseline`;
//! * **IR** — shrunken `Z'` for middle levels (§V-D);
//! * **DR — dead-block reclaim** (§V-B): per-level [`DeadQueues`],
//!   `markDEAD`/`gatherDEADs`, remote allocation with the
//!   `remote`/`remoteAddr`/`remoteInd`/`status`/`dynamicS` metadata, and
//!   runtime S-extension;
//! * **NS — non-uniform S** (§V-C2) and the combined **AB** scheme;
//! * the simulation drivers: a fast protocol-level driver for
//!   space/dead-block studies and a cycle-level driver marrying the engine
//!   to the `aboram-dram` memory system for execution-time results;
//! * the **empirical security experiment** of §VI-C.
//!
//! Scheme selection and every paper parameter live in [`OramConfig`];
//! presets mirror §VII's evaluated configurations.
//!
//! # Quickstart
//!
//! ```
//! use aboram_core::{OramConfig, Scheme, RingOram, CountingSink, OramOp};
//!
//! // A small AB-ORAM tree with the data path enabled.
//! let cfg = OramConfig::builder(12, Scheme::Ab).store_data(true).build().unwrap();
//! let mut oram = RingOram::new(&cfg).unwrap();
//! let mut sink = CountingSink::new();
//! let block = 7;
//! oram.write(block, [0xAB; 64], &mut sink).unwrap();
//! let data = oram.read(block, &mut sink).unwrap();
//! assert_eq!(data, [0xAB; 64]);
//! assert!(sink.reads(OramOp::ReadPath) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod controller;
mod deadq;
mod driver;
mod error;
mod fault;
mod growth;
mod integrity;
mod metadata;
mod path_oram;
mod posmap;
mod recursion;
mod ring;
mod security;
mod segvec;
mod sink;
mod stash;
mod stats;

pub use backend::{
    BackendReply, ReleaseHalf, StorageBackend, TimedBackend, UntimedBackend,
    UNTIMED_CYCLES_PER_TRANSFER,
};
pub use config::{GrowthConfig, IssueMode, OramConfig, OramConfigBuilder, Scheme};
pub use deadq::{DeadQueues, DeadSlot};
pub use driver::{BreakdownReport, SimulationReport, TimingDriver};
pub use error::OramError;
pub use fault::{
    ChannelStall, FaultConfig, FaultInjectingSink, FaultKind, FaultPlan, FaultSite, InjectedFaults,
    BACKOFF_BASE_CYCLES, MAX_FAULT_RETRIES, REDUNDANT_REFETCHES,
};
pub use growth::{extend_label, growth_bit, DynamicTree};
pub use integrity::IntegrityVerifier;
pub use metadata::{BucketMeta, MetadataLayout, MetadataStore, RealEntry, SlotStatus};
pub use path_oram::PathOram;
pub use posmap::PositionMap;
pub use recursion::{PlbConfig, PosMapHierarchy};
pub use ring::{AccessKind, PayloadMutator, RingOram};
pub use security::{attack_success_rate, SecurityReport};
pub use segvec::SegmentedVector;
pub use sink::{CountingSink, MemorySink, OramOp, StagedBatch, Stager};
pub use stash::{EvictionPlan, Held, Pick, Stash, StashBlock};
pub use stats::OramStats;

// Re-exported so downstream code can name the recovery counters and health
// state carried in [`OramStats`] and [`SimulationReport`] without depending
// on aboram-stats.
pub use aboram_stats::{HealthState, RecoveryStats};

/// Logical identifier of one protected user block.
pub type BlockId = u64;

/// Size of one data block in bytes.
pub const BLOCK_BYTES: usize = 64;

/// Address and capacity of a reusable buffer — what a steady-state
/// allocation check compares before and after a warm run.
#[cfg(test)]
pub(crate) fn buffer_of<T>(v: &Vec<T>) -> (usize, usize) {
    (v.as_ptr() as usize, v.capacity())
}
