//! Metrics collection and report rendering for the AB-ORAM reproduction.
//!
//! Every figure and table in the paper reduces to one of a few data shapes:
//! a time series (Fig. 2), a per-level histogram (Fig. 3, 10, 12), a
//! min/avg/max tracker (Fig. 12), or a labelled table of scalars normalized
//! to a baseline (Fig. 4, 8, 9, 11, 13, 14, 15). This crate provides those
//! shapes plus markdown/CSV renderers so each experiment binary can print the
//! same rows/series the paper reports.
//!
//! # Example
//!
//! ```
//! use aboram_stats::{Table, geometric_mean};
//!
//! let mut t = Table::new("fig8a-space", &["scheme", "normalized space"]);
//! t.row(&["Baseline"], &[1.0]);
//! t.row(&["AB"], &[0.645]);
//! assert!(t.to_markdown().contains("| AB |"));
//! assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod health;
mod histogram;
mod recovery;
mod series;
mod summary;
mod table;

pub use codec::fnv1a64;
pub use health::HealthState;
pub use histogram::LevelHistogram;
pub use recovery::RecoveryStats;
pub use series::TimeSeries;
pub use summary::{arithmetic_mean, geometric_mean, MinAvgMax};
pub use table::Table;
