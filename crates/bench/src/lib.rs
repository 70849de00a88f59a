//! Shared harness for the paper-figure experiments.
//!
//! Every figure, table, ablation and extension of the AB-ORAM evaluation is
//! a [`Study`] under [`studies`] (see DESIGN.md's per-experiment index): the
//! windows it needs, timed or churn, and a render that turns them into its
//! `results/` files. Each binary in `src/bin/` runs one study; `run_all` runs
//! them all in one process, building each engine configuration once. This
//! library also holds the common machinery: the experiment environment (tree
//! size, warm-up length, timed-window length — all overridable via
//! `ABORAM_*` environment variables) and output helpers that write both
//! human-readable markdown and machine-readable CSV under `results/`.
//!
//! # Scaling
//!
//! The paper's tree is 24 levels (8 GB); the default here is 18 levels so a
//! full figure regenerates in minutes on a laptop. Space results are exact
//! closed forms at any size (the binaries print the L = 24 values too);
//! protocol and timing results are shape-faithful at the default scale.
//! Set `ABORAM_LEVELS=24 ABORAM_WARMUP=40000000` to approach the paper's
//! raw scale if you have the memory and patience.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
pub mod studies;
mod study;

pub use executor::{derive_cell_seed, CellExecutor};
pub use study::{
    measure, run_studies, study_main, Cell, Churn, Churned, Measured, Measurements, Rendered, Run,
    Study, Window,
};

use aboram_core::{OramConfig, OramError, Scheme};
use aboram_telemetry::TelemetryGuard;
use aboram_tree::SpaceReport;
use std::fs;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Experiment scaling knobs, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Tree levels (`ABORAM_LEVELS`, default 18).
    pub levels: u8,
    /// Warm-up accesses before any measurement (`ABORAM_WARMUP`; default
    /// scales with the tree: 4 protocol sweeps of the leaf level).
    pub warmup: u64,
    /// Timed trace records per benchmark (`ABORAM_TIMED`, default 10_000).
    pub timed: usize,
    /// Protocol-mode accesses for untimed studies (`ABORAM_PROTOCOL`,
    /// default 400_000).
    pub protocol_accesses: u64,
    /// Base RNG seed (`ABORAM_SEED`, default 2023).
    pub seed: u64,
}

impl Experiment {
    /// Reads the environment, falling back to laptop-scale defaults. A knob
    /// that is set but does not parse (or does not fit its type — levels
    /// are a `u8`) is refused: one line naming the variable and the text,
    /// exit code 2. So is a level count the engine refuses (below 8, or
    /// deeper than its bucket record addresses): one line naming the
    /// variable and the engine's reason, exit code 2.
    pub fn from_env() -> Self {
        let levels: u8 = env_knob("ABORAM_LEVELS", 18);
        if let Err(e) = OramConfig::builder(levels, Scheme::Ab).build() {
            refuse(format!("error: ABORAM_LEVELS={levels} refused: {e}"));
        }
        // Two full reverse-lexicographic eviction sweeps (A accesses per
        // evictPath) — enough for the dead-block census to stabilize.
        let leaves = 1u64 << (levels - 1);
        Experiment {
            levels,
            warmup: env_knob("ABORAM_WARMUP", 2 * leaves * 5),
            timed: env_knob("ABORAM_TIMED", 10_000),
            protocol_accesses: env_knob("ABORAM_PROTOCOL", 400_000),
            seed: env_knob("ABORAM_SEED", 2023),
        }
    }

    /// The ORAM configuration for `scheme` at this experiment's scale.
    pub fn config(&self, scheme: Scheme) -> Result<OramConfig, OramError> {
        OramConfig::builder(self.levels, scheme).seed(self.seed).build()
    }

    /// Closed-form space report for `scheme` at this experiment's scale.
    pub fn space_report(&self, scheme: Scheme) -> Result<SpaceReport, OramError> {
        space_report_of(&self.config(scheme)?)
    }

    /// Space demand of `scheme` normalized to a baseline report (the cell
    /// the Fig. 4/11/13/15 space columns share).
    pub fn normalized_space(&self, scheme: Scheme, base: &SpaceReport) -> Result<f64, OramError> {
        Ok(self.space_report(scheme)?.normalized_to(base))
    }

    /// The warm cell of `scheme` at this scale: its configuration after
    /// `warmup` uniform random reads. Every timed window runs on one.
    pub fn warm(&self, scheme: Scheme) -> Result<Cell, OramError> {
        Ok(Cell { config: self.config(scheme)?, warmup: self.warmup })
    }
}

/// Closed-form space report for an already-built configuration (used when a
/// figure compares scales other than the experiment default, e.g. L = 24).
pub fn space_report_of(cfg: &OramConfig) -> Result<SpaceReport, OramError> {
    Ok(cfg.geometry()?.space_report(cfg.real_block_count()))
}

/// Installs a JSONL telemetry collector when `ABORAM_TELEMETRY` names an
/// output path; keep the returned guard alive for the duration of the runs.
/// Returns `None` (and the runs stay uninstrumented) when the variable is
/// unset or the path cannot be created.
pub fn telemetry_from_env() -> Option<TelemetryGuard> {
    let path = std::env::var("ABORAM_TELEMETRY").ok()?;
    match aboram_telemetry::install_to_path(Path::new(&path)) {
        Ok(guard) => {
            eprintln!("[telemetry trace -> {path}]");
            Some(guard)
        }
        Err(e) => {
            eprintln!("warning: ABORAM_TELEMETRY={path}: {e}");
            None
        }
    }
}

/// Parses the text of scale knob `name`; the error is the one-line refusal.
fn parse_knob<T: FromStr>(name: &str, text: &str) -> Result<T, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("{name}={text:?} is not a valid {}", std::any::type_name::<T>()))
}

/// The one refusal path of every binary here: prints `msg` as one stderr
/// line and exits with code 2.
pub fn refuse(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The one failure path of a binary here whose run fails: prints `error:
/// <who>: <error>` as one stderr line, as a failed study does, and exits with
/// code 1.
pub fn fail(who: &str, error: impl std::fmt::Display) -> ! {
    eprintln!("error: {who}: {error}");
    std::process::exit(1)
}

/// The value of scale knob `name` given as `text`, or a one-line refusal
/// with exit code 2 when it does not parse.
pub(crate) fn knob_or_refuse<T: FromStr>(name: &str, text: &str) -> T {
    parse_knob(name, text).unwrap_or_else(|refusal| refuse(format!("error: {refusal}")))
}

/// Reads scale knob `name`: `default` when unset, the parsed value when
/// set, and a one-line refusal with exit code 2 when set to anything else.
pub fn env_knob<T: FromStr>(name: &str, default: T) -> T {
    let Some(text) = std::env::var_os(name) else { return default };
    knob_or_refuse(name, &text.to_string_lossy())
}

/// Writes an experiment artifact under `results/`, creating the directory;
/// also echoes the content to stdout so running a binary shows the result.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = PathBuf::from("results");
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(name);
        if let Err(e) = fs::write(&path, content) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("[saved {}]", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_core::{
        AccessKind, CountingSink, PlbConfig, PosMapHierarchy, RingOram, TimingDriver,
    };
    use aboram_dram::DramConfig;
    use aboram_trace::{profiles, TraceGenerator};
    use aboram_tree::PhysicalLayout;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn env_defaults() {
        let e = Experiment::from_env();
        assert!(e.levels >= 8);
        assert!(e.timed > 0);
        assert!(e.warmup > 0);
    }

    #[test]
    fn scale_knobs_refuse_garbage_by_name() {
        for text in ["", "abc", "300"] {
            let refusal = parse_knob::<u8>("ABORAM_LEVELS", text).unwrap_err();
            assert!(refusal.contains("ABORAM_LEVELS") && refusal.contains(text), "{refusal}");
        }
        assert_eq!(parse_knob::<u8>("ABORAM_LEVELS", "18"), Ok(18));
        assert_eq!(parse_knob::<u64>("ABORAM_WARMUP", "300"), Ok(300), "only levels are a u8");
        assert!(parse_knob::<usize>("ABORAM_JOBS", "-1").is_err());
        for (name, text) in [("ABORAM_BENCHES", "three"), ("--jobs", "2x"), ("--jobs", "")] {
            let refusal = parse_knob::<usize>(name, text).unwrap_err();
            assert!(refusal.contains(name) && refusal.contains(text), "{refusal}");
        }
        assert_eq!(parse_knob::<usize>("ABORAM_BENCHES", "3"), Ok(3));
    }

    #[test]
    fn config_builds_for_all_schemes() {
        let e = Experiment { levels: 10, warmup: 10, timed: 10, protocol_accesses: 10, seed: 1 };
        for s in Scheme::evaluated() {
            assert!(e.config(s).is_ok());
        }
    }

    #[test]
    fn warmed_oram_runs() {
        let e = Experiment { levels: 10, warmup: 500, timed: 10, protocol_accesses: 10, seed: 1 };
        let oram = e.warm(Scheme::Ab).unwrap().build().unwrap();
        assert_eq!(oram.stats().user_accesses, 500);
    }

    /// The oracles' engine: built and warmed by hand, per window.
    fn built_by_hand(cell: &Cell) -> RingOram {
        let mut oram = RingOram::new(&cell.config).unwrap();
        oram.warm_up(cell.warmup, 0xaaaa).unwrap();
        oram
    }

    /// The runner's oracle for a timed window.
    fn timed_per_window(env: &Experiment, cell: &Cell, run: &Run) -> Measured {
        let Run::Timed { profile, dram, plb } = run else { unreachable!("a timed run") };
        let oram = built_by_hand(cell);
        let extension_ratio = oram.stats().extension_ratio();
        let footprint_bytes = PhysicalLayout::new(oram.geometry()).total_bytes();
        let mut driver = TimingDriver::from_oram(oram, *dram);
        if let Some(plb) = *plb {
            driver.enable_posmap_recursion(plb);
        }
        let mut gen = TraceGenerator::new(profile, env.seed);
        let report = driver.run((0..env.timed).map(|_| gen.next_record())).unwrap();
        Measured {
            report,
            memory: driver.memory_stats().clone(),
            plb_hit_rate: driver.posmap_model().map(PosMapHierarchy::plb_hit_rate),
            extension_ratio,
            footprint_bytes,
        }
    }

    /// The runner's oracle for a churn window: reads the blocks the churn
    /// picks, one source per kind.
    fn churned_per_window(cell: &Cell, run: &Run) -> Churned {
        let Run::Churn { churn, accesses } = run else { unreachable!("a churn run") };
        let (seed, blocks) = (cell.config.seed, cell.config.real_block_count());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = match churn {
            Churn::Uniform => None,
            Churn::Trace(p) | Churn::Mixed(p) => Some(TraceGenerator::new(p, seed)),
        };
        let mut next_block = || match (churn, gen.as_mut().map(|g| g.next_record().addr / 64)) {
            (Churn::Trace(_), Some(line)) => line % blocks,
            (Churn::Mixed(_), Some(line)) if rng.gen_bool(0.5) => line % blocks,
            _ => rng.gen_range(0..blocks),
        };
        let mut oram = built_by_hand(cell);
        let (start, mut sink, mut dead_samples) =
            (oram.stats().clone(), CountingSink::new(), vec![]);
        let every = (accesses / 40).max(1);
        for i in 0..*accesses {
            oram.access(AccessKind::Read, next_block(), None, &mut sink).unwrap();
            if i % every == 0 {
                dead_samples.push((oram.stats().online_accesses(), oram.stats().dead_total()));
            }
        }
        Churned {
            start,
            end: oram.stats().clone(),
            sink,
            stash_peak: oram.stash_peak(),
            deadq_rejected: oram.deadqs().total_rejected(),
            dead_samples,
        }
    }

    /// A window list with duplicates over timed and churn windows — uniform,
    /// trace and mixed churn on warm and cold cells, one with lifetime
    /// tracking: one engine per distinct cell, every window equal to
    /// building and advancing an engine per window, and the same
    /// measurements on one worker and on four.
    #[test]
    fn warm_once_and_clone_equals_warming_per_cell() {
        let e = Experiment { levels: 10, warmup: 1_500, timed: 150, protocol_accesses: 0, seed: 3 };
        let suite: Vec<_> = profiles::spec2017().into_iter().take(2).collect();
        let plb = PlbConfig { plb_bytes: 1024, onchip_posmap_bytes: 4096, entry_bytes: 4 };
        let unprioritized = DramConfig { ignore_priority: true, ..DramConfig::default() };
        let warm = |s| e.warm(s).unwrap();
        let cold = |s| Cell::cold(e.config(s).unwrap());
        let lifetimes = OramConfig::builder(e.levels, Scheme::Baseline)
            .seed(e.seed)
            .track_lifetimes(true)
            .build()
            .unwrap();
        let timed = |s, dram, plb| Window {
            cell: warm(s),
            run: Run::Timed { profile: suite[1].clone(), dram, plb },
        };
        let windows = vec![
            Window::timed(warm(Scheme::Baseline), &suite[0]),
            Window::timed(warm(Scheme::Ab), &suite[0]),
            timed(Scheme::Ab, DramConfig::default(), Some(plb)),
            Window::churn(warm(Scheme::Ab), Churn::Uniform, 700),
            Window::timed(warm(Scheme::Baseline), &suite[0]),
            Window::churn(cold(Scheme::Ab), Churn::Trace(suite[0].clone()), 600),
            Window::timed(warm(Scheme::DR), &suite[1]),
            timed(Scheme::Baseline, unprioritized, None),
            Window::churn(warm(Scheme::PlainRing), Churn::Mixed(suite[1].clone()), 500),
            Window::churn(cold(Scheme::PlainRing), Churn::Mixed(suite[1].clone()), 500),
            Window::churn(Cell { warmup: 800, ..Cell::cold(lifetimes) }, Churn::Uniform, 900),
            Window::timed(warm(Scheme::Ab), &suite[0]),
            Window::churn(cold(Scheme::Ab), Churn::Trace(suite[0].clone()), 600),
        ];
        let sequential = measure(&e, &CellExecutor::with_jobs(1), &windows).unwrap();
        assert_eq!(sequential.warm_ups, 5, "Baseline, AB, DR, PlainRing, lifetime-tracked");
        assert_eq!(sequential.timed.len() + sequential.churned.len(), 10, "duplicates run once");
        for window in &windows {
            let (cell, run) = (&window.cell, &window.run);
            match run {
                Run::Timed { .. } => {
                    assert_eq!(sequential.get(window), &timed_per_window(&e, cell, run), "{run:?}");
                }
                Run::Churn { .. } => {
                    assert!(
                        sequential.churned(window) == &churned_per_window(cell, run),
                        "{run:?}"
                    );
                }
            }
        }
        assert!(sequential.get(&windows[2]).plb_hit_rate.is_some());
        let tracked = sequential.churned(&windows[10]);
        assert!(tracked.end.lifetimes.iter().any(|t| t.count() > 0), "lifetimes tracked");
        let parallel = measure(&e, &CellExecutor::with_jobs(4), &windows).unwrap();
        assert_eq!(parallel.timed, sequential.timed, "jobs=4 timed otherwise");
        assert!(parallel.churned == sequential.churned, "jobs=4 churned otherwise");
    }

    #[test]
    fn a_failing_scheme_is_an_error_not_a_panic() {
        let e = Experiment { levels: 10, warmup: 10, timed: 10, protocol_accesses: 0, seed: 3 };
        let profile = profiles::spec2017().into_iter().next().unwrap();
        // A configuration the engine refuses (too few levels for AB).
        let refused = OramConfig { levels: 4, ..e.config(Scheme::Ab).unwrap() };
        let windows = [Window::timed(Cell { warmup: 10, ..Cell::cold(refused) }, &profile)];
        assert!(measure(&e, &CellExecutor::with_jobs(2), &windows).is_err());
    }

    #[test]
    fn space_report_matches_direct_computation() {
        let e = Experiment { levels: 12, warmup: 10, timed: 10, protocol_accesses: 10, seed: 1 };
        let base = e.space_report(Scheme::Baseline).unwrap();
        let cfg = e.config(Scheme::Ab).unwrap();
        let direct = cfg.geometry().unwrap().space_report(cfg.real_block_count());
        assert_eq!(e.space_report(Scheme::Ab).unwrap().total_bytes(), direct.total_bytes());
        let norm = e.normalized_space(Scheme::Ab, &base).unwrap();
        assert!(norm > 0.0 && norm < 1.0, "AB must save space over Baseline, got {norm}");
    }
}
