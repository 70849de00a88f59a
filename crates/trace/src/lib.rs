//! Synthetic workload generation for the AB-ORAM reproduction.
//!
//! The paper drives its evaluation with Pin-collected memory traces of SPEC
//! CPU2017 (Table IV) and PARSEC, replayed through USIMM. Those traces are
//! proprietary-tool artifacts we cannot ship, so this crate builds the
//! closest synthetic equivalent (see DESIGN.md, substitutions): per-benchmark
//! generators calibrated to the paper's read/write LLC-miss MPKI, with
//! address streams mixing streaming, strided, pointer-chasing and hot-set
//! reuse behaviour over a configurable working set.
//!
//! [`TraceGenerator`] emits LLC-miss records directly: the rates in Table IV
//! are LLC MPKI, and the paper's Pin traces are already LLC-miss streams,
//! so its records go straight to the ORAM controller with no cache model in
//! between. [`KeySampler`] draws the service benchmarks' key streams.
//!
//! # Example
//!
//! ```
//! use aboram_trace::{profiles, TraceGenerator};
//!
//! let mcf = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
//! let mut gen = TraceGenerator::new(&mcf, 42);
//! let rec = gen.next_record();
//! assert!(rec.addr % 64 == 0, "trace addresses are cache-line aligned");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
pub mod io;
mod keydist;
pub mod profiles;
mod record;

pub use generator::{MpkiMeter, TraceGenerator};
pub use keydist::{KeyDist, KeySampler};
pub use profiles::{AddressMix, BenchmarkProfile, Suite};
pub use record::{MemOp, TraceRecord};
