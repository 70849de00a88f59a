//! The evaluation's studies. Each is a `pub const` named after its binary
//! (`timing::FIG08_MAIN_RESULTS` is `fig08_main_results`), grouped by kind:
//! [`tables`], [`protocol`] studies, [`timing`] studies, and the ablations
//! and [`extensions`].
//!
//! [`ALL`] lists them in `run_all`'s order: tables and closed forms first,
//! then the protocol studies, the timing studies, the ablations and the
//! extensions. Their windows are measured as one union (each engine
//! configuration built once), so the order decides which cell is built
//! first, never a result.

use crate::{Experiment, Study, Window};
use aboram_core::{OramError, Scheme};
use aboram_stats::Table;
use aboram_trace::{profiles, BenchmarkProfile};

pub mod extensions;
pub mod protocol;
pub mod tables;
pub mod timing;

/// Every study, in `run_all`'s order.
pub const ALL: &[Study] = &[
    tables::TABLE1_METADATA,
    tables::TABLE3_CONFIG,
    tables::TABLE4_BENCHMARKS,
    protocol::FIG02_DEAD_BLOCKS_OVER_TIME,
    protocol::FIG03_DEAD_BLOCKS_PER_LEVEL,
    protocol::FIG07_SECURITY,
    protocol::FIG10_RESHUFFLES_PER_LEVEL,
    protocol::FIG12_DEAD_BLOCK_LIFETIME,
    protocol::FIG14_EXTENSION_RATIO,
    timing::FIG04_MOTIVATION_TRADEOFF,
    timing::FIG11_DR_SENSITIVITY,
    timing::FIG13_NS_EXPLORATION,
    timing::FIG08_MAIN_RESULTS,
    timing::FIG15_PARSEC,
    extensions::ABLATION_SWEEPS,
    extensions::ABLATION_DRAM_PRIORITY,
    extensions::EXT_POSMAP_RECURSION,
    extensions::EXT_ENERGY,
];

/// The mcf profile: the workload of every single-benchmark timed study.
fn mcf() -> BenchmarkProfile {
    profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf is a SPEC profile")
}

/// The common timed window of every (benchmark × scheme), on each
/// scheme's warm cell.
fn timed_windows(
    env: &Experiment,
    suite: &[BenchmarkProfile],
    schemes: &[Scheme],
) -> Result<Vec<Window>, OramError> {
    let cells = schemes.iter().map(|&s| env.warm(s)).collect::<Result<Vec<_>, _>>()?;
    Ok(suite.iter().flat_map(|p| cells.iter().map(|c| Window::timed(c.clone(), p))).collect())
}

/// One mcf window per scheme.
fn mcf_windows(env: &Experiment, schemes: &[Scheme]) -> Result<Vec<Window>, OramError> {
    timed_windows(env, &[mcf()], schemes)
}

/// `table` as markdown, then `note`, then the table again as CSV: the tail
/// most studies' pages share.
fn markdown_and_csv(table: &Table, note: &str) -> String {
    format!("{}{note}\nCSV:\n{}", table.to_markdown(), table.to_csv())
}
