//! AB-ORAM service layer: an oblivious key-value store over the engine.
//!
//! The core crate simulates the paper's memory controller; this crate
//! turns it into something a client could *use* — and pays the costs the
//! paper's model abstracts away:
//!
//! * [`RecursivePosMap`] — a **real** recursive position map: a chain of
//!   Ring ORAM trees storing block positions (8 packed entries per 64 B
//!   block), shrinking ×8 per level down to a small on-chip root. Every
//!   lookup pays one managed ORAM access per chain level; every fetched
//!   entry is asserted against the engine's internal map, which remains
//!   the ground truth (`aboram_core`'s `ext_posmap_recursion` accounting
//!   model is the analytical twin this implementation is cross-checked
//!   against).
//! * [`ObliviousStore`] — byte keys → 62-byte values in real block
//!   payloads, with misses paid as bus-indistinguishable dummy walks.
//! * [`BatchingFrontEnd`] — a fixed batch schedule (size and period) that
//!   coalesces same-key requests, pads shortfalls with dummies, and
//!   bounces overload at submission: the timing channel is closed by
//!   construction.
//!
//! Engines run behind [`aboram_core::StorageBackend`]: cycle-accurate
//! (`TimedBackend`, the DRAM twin) or fast accounted (`UntimedBackend`),
//! selected per store via [`BackendKind`].
//!
//! # Quickstart
//!
//! ```
//! use aboram_core::Scheme;
//! use aboram_service::{ObliviousStore, StoreConfig};
//!
//! let mut store = ObliviousStore::new(&StoreConfig::new(8, Scheme::Ab)).unwrap();
//! store.put(b"user:17", b"alice");
//! assert_eq!(store.get(b"user:17").as_deref(), Some(b"alice".as_slice()));
//! assert_eq!(store.get(b"user:18"), None); // same bus pattern as the hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod lane;
mod posmap;
mod service;
mod store;

pub use batch::{
    AdmissionRejected, BatchConfig, BatchingFrontEnd, Completion, FrontEndStats, Request,
};
pub use posmap::{
    BackendFactory, PosMapStats, RecursionConfig, RecursivePosMap, ENTRIES_PER_BLOCK, ENTRY_BYTES,
    ROOT_MAX_ENTRIES,
};
pub use service::{percentile, LatencyReport};
pub use store::{BackendKind, ObliviousStore, StoreConfig, StoreStats, MAX_VALUE_BYTES};
