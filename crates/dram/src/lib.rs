//! Trace-driven, cycle-level DRAM simulator for the AB-ORAM reproduction —
//! the substrate standing in for USIMM (§VII of the paper).
//!
//! The model covers the behaviours the paper's performance results depend
//! on:
//!
//! * **channels / ranks / banks** with open-page row buffers — so bucket
//!   reshuffles (sequential blocks) enjoy row hits while AB-ORAM's remote
//!   allocation pays extra row misses, the overhead §V-D calls out;
//! * **FR-FCFS scheduling** with a write queue and high/low watermark write
//!   drain, as in USIMM;
//! * **two priority classes** — online (readPath, on the critical path) and
//!   offline (evictPath / earlyReshuffle / background eviction) — so
//!   maintenance traffic is served off the critical path but still consumes
//!   bank time and bus bandwidth;
//! * **DDR3-1600 timing** (800 MHz bus, Table III) expressed in CPU cycles,
//!   with tFAW activate throttling and write-turnaround penalties;
//! * a **ROB-based trace CPU** ([`RobCpu`]) with fetch width 4 and 256
//!   entries, the USIMM core model of Table III.
//!
//! The simulator is event-driven per memory command rather than ticked per
//! cycle, which reproduces queueing, bank-parallelism and row-locality
//! effects while staying fast enough to replay hundreds of millions of ORAM
//! block accesses.
//!
//! # Example
//!
//! ```
//! use aboram_dram::{DramConfig, MemorySystem, MemOpKind, Priority};
//!
//! let mut mem = MemorySystem::new(DramConfig::default());
//! let id = mem.enqueue(MemOpKind::Read, 0x4000, Priority::Online, 0, 0);
//! let done = mem.completion_time(id);
//! assert!(done > 0);
//! // Long runs: once nobody will ask for `id` again, let its slot go.
//! mem.retire(mem.next_request_id());
//! assert_eq!(mem.tracked_requests(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod config;
mod cpu;
mod energy;
mod mapping;
mod stats;
mod system;

pub use channel::{MemOpKind, Priority, RequestId};
pub use config::{DramConfig, DramTiming, PagePolicy};
pub use cpu::RobCpu;
pub use energy::{EnergyParams, EnergyReport};
pub use mapping::DecodedAddr;
pub use stats::{MemoryStats, RowBufferOutcome};
pub use system::{MemorySystem, RequestIdRange};
