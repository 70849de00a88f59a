//! Shared harness for the paper-figure experiments.
//!
//! Every figure, table, ablation and extension of the AB-ORAM evaluation is
//! a [`Study`] under [`studies`] (see DESIGN.md's per-experiment index): the
//! timed windows it needs and a render that turns them into its `results/`
//! files. Each binary in `src/bin/` runs one study; `run_all` runs them all
//! in one process, warming each configuration once. This library also holds
//! the common machinery: the experiment environment (tree size, warm-up
//! length, timed-window length — all overridable via `ABORAM_*` environment
//! variables), protocol-level runs, and output helpers that write both
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
    measure, run_studies, study_main, Measured, Measurements, Rendered, Study, Window,
};

use aboram_core::{AccessKind, CountingSink, OramConfig, OramError, RingOram, Scheme};
use aboram_telemetry::TelemetryGuard;
use aboram_trace::{BenchmarkProfile, TraceGenerator};
use aboram_tree::SpaceReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

    /// Builds and warms an engine for `scheme` with `warmup` uniform random
    /// reads (the §VII warm-up phase; [`RingOram::warm_up`] under this
    /// harness's salt). The study runner warms each configuration once and
    /// `clone()`s it into that configuration's timed windows.
    pub fn warmed_oram(&self, scheme: Scheme) -> Result<RingOram, OramError> {
        let mut oram = RingOram::new(&self.config(scheme)?)?;
        oram.warm_up(self.warmup, 0xaaaa)?;
        Ok(oram)
    }

    /// Builds a protocol-mode study cell for `scheme`: a fresh engine, a
    /// counting sink, and a churn source, ready to [`ProtocolRun::advance`].
    pub fn protocol_run(&self, scheme: Scheme, churn: ChurnKind) -> Result<ProtocolRun, OramError> {
        self.protocol_run_with(self.config(scheme)?, churn)
    }

    /// Like [`Experiment::protocol_run`] but with a caller-built config
    /// (lifetime tracking, DeadQ capacity and similar ablation knobs).
    pub fn protocol_run_with(
        &self,
        cfg: OramConfig,
        churn: ChurnKind,
    ) -> Result<ProtocolRun, OramError> {
        let oram = RingOram::new(&cfg)?;
        let blocks = cfg.real_block_count();
        let source = BlockSource::new(churn, cfg.seed);
        Ok(ProtocolRun { oram, sink: CountingSink::new(), source, blocks })
    }
}

/// Closed-form space report for an already-built configuration (used when a
/// figure compares scales other than the experiment default, e.g. L = 24).
pub fn space_report_of(cfg: &OramConfig) -> Result<SpaceReport, OramError> {
    Ok(cfg.geometry()?.space_report(cfg.real_block_count()))
}

/// How a protocol-mode churn loop picks the next block to touch.
#[derive(Debug, Clone, Copy)]
pub enum ChurnKind<'a> {
    /// Uniform random blocks (the warm-up/census pattern of Fig. 10/12).
    Uniform,
    /// Trace-driven: cache lines of a synthetic benchmark (Fig. 2/14).
    Trace(&'a BenchmarkProfile),
    /// 50/50 mix of trace-driven and uniform touches so a census covers the
    /// whole block space like the paper's 400 M-access runs (Fig. 3).
    Mixed(&'a BenchmarkProfile),
}

#[derive(Debug)]
enum BlockSource {
    Uniform(StdRng),
    Trace(TraceGenerator),
    Mixed(TraceGenerator, StdRng),
}

impl BlockSource {
    fn new(kind: ChurnKind, seed: u64) -> Self {
        match kind {
            ChurnKind::Uniform => BlockSource::Uniform(StdRng::seed_from_u64(seed)),
            ChurnKind::Trace(p) => BlockSource::Trace(TraceGenerator::new(p, seed)),
            ChurnKind::Mixed(p) => {
                BlockSource::Mixed(TraceGenerator::new(p, seed), StdRng::seed_from_u64(seed))
            }
        }
    }

    fn next_block(&mut self, blocks: u64) -> u64 {
        match self {
            BlockSource::Uniform(rng) => rng.gen_range(0..blocks),
            BlockSource::Trace(gen) => (gen.next_record().addr / 64) % blocks,
            BlockSource::Mixed(gen, rng) => {
                // Draw the trace record unconditionally so the generator
                // stream stays aligned with the coin flips.
                let rec = gen.next_record();
                if rng.gen_bool(0.5) {
                    (rec.addr / 64) % blocks
                } else {
                    rng.gen_range(0..blocks)
                }
            }
        }
    }
}

/// A protocol-mode study in flight: engine, sink, and churn source.
///
/// Produced by [`Experiment::protocol_run`]; drive it with
/// [`advance`](ProtocolRun::advance) and read `oram.stats()` / `sink`
/// afterwards.
#[derive(Debug)]
pub struct ProtocolRun {
    /// The engine under study.
    pub oram: RingOram,
    /// The protocol-mode traffic sink.
    pub sink: CountingSink,
    source: BlockSource,
    blocks: u64,
}

impl ProtocolRun {
    /// Performs `n` online read accesses.
    pub fn advance(&mut self, n: u64) -> Result<(), OramError> {
        self.advance_with(n, |_, _| {})
    }

    /// Performs `n` online read accesses, calling `observe(i, &engine)`
    /// after each (for time-series sampling).
    pub fn advance_with(
        &mut self,
        n: u64,
        mut observe: impl FnMut(u64, &RingOram),
    ) -> Result<(), OramError> {
        for i in 0..n {
            let block = self.source.next_block(self.blocks);
            self.oram.access(AccessKind::Read, block, None, &mut self.sink)?;
            observe(i, &self.oram);
        }
        Ok(())
    }
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
    use aboram_core::{PlbConfig, PosMapHierarchy, TimingDriver};
    use aboram_dram::DramConfig;
    use aboram_trace::profiles;
    use aboram_tree::PhysicalLayout;

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
        let oram = e.warmed_oram(Scheme::Ab).unwrap();
        assert_eq!(oram.stats().user_accesses, 500);
    }

    /// The runner's oracle: warm per window, time the window on the warmed
    /// engine.
    fn warmed_per_window(env: &Experiment, window: &Window) -> Measured {
        let oram = env.warmed_oram(window.scheme).unwrap();
        let extension_ratio = oram.stats().extension_ratio();
        let footprint_bytes = PhysicalLayout::new(oram.geometry()).total_bytes();
        let mut driver = TimingDriver::from_oram(oram, window.dram);
        if let Some(plb) = window.plb {
            driver.enable_posmap_recursion(plb);
        }
        let mut gen = TraceGenerator::new(&window.profile, env.seed);
        let report = driver.run((0..env.timed).map(|_| gen.next_record())).unwrap();
        Measured {
            report,
            memory: driver.memory_stats().clone(),
            plb_hit_rate: driver.posmap_model().map(PosMapHierarchy::plb_hit_rate),
            extension_ratio,
            footprint_bytes,
        }
    }

    /// A window list with duplicates over three schemes: three warm-ups,
    /// every window equal to warming per window, and the same measurements
    /// on one worker and on four.
    #[test]
    fn warm_once_and_clone_equals_warming_per_cell() {
        let e = Experiment { levels: 10, warmup: 1_500, timed: 150, protocol_accesses: 0, seed: 3 };
        let suite: Vec<_> = profiles::spec2017().into_iter().take(2).collect();
        let plb = PlbConfig { plb_bytes: 1024, onchip_posmap_bytes: 4096, entry_bytes: 4 };
        let unprioritized = DramConfig { ignore_priority: true, ..DramConfig::default() };
        let windows = vec![
            Window::new(Scheme::Baseline, &suite[0]),
            Window::new(Scheme::Ab, &suite[0]),
            Window { plb: Some(plb), ..Window::new(Scheme::Ab, &suite[1]) },
            Window::new(Scheme::Baseline, &suite[0]),
            Window::new(Scheme::DR, &suite[1]),
            Window { dram: unprioritized, ..Window::new(Scheme::Baseline, &suite[1]) },
            Window::new(Scheme::Ab, &suite[0]),
        ];
        let sequential = measure(&e, &CellExecutor::with_jobs(1), &windows).unwrap();
        assert_eq!(sequential.warm_ups, 3);
        assert_eq!(sequential.windows.len(), 5, "duplicates run once");
        for window in &windows {
            assert_eq!(sequential.get(window), &warmed_per_window(&e, window), "{window:?}");
        }
        assert!(sequential.get(&windows[2]).plb_hit_rate.is_some());
        let parallel = measure(&e, &CellExecutor::with_jobs(4), &windows).unwrap();
        for window in &windows {
            assert_eq!(parallel.get(window), sequential.get(window), "jobs=4: {window:?}");
        }
    }

    #[test]
    fn a_failing_scheme_is_an_error_not_a_panic() {
        let e = Experiment { levels: 4, warmup: 10, timed: 10, protocol_accesses: 0, seed: 3 };
        let profile = profiles::spec2017().into_iter().next().unwrap();
        let windows = [Window::new(Scheme::Ab, &profile)];
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

    #[test]
    fn protocol_run_advances_all_churn_kinds() {
        let e = Experiment { levels: 10, warmup: 10, timed: 10, protocol_accesses: 10, seed: 7 };
        let profile = aboram_trace::profiles::spec2017().into_iter().next().unwrap();
        for kind in [ChurnKind::Uniform, ChurnKind::Trace(&profile), ChurnKind::Mixed(&profile)] {
            let mut run = e.protocol_run(Scheme::Ab, kind).unwrap();
            let mut seen = 0;
            run.advance_with(50, |_, oram| {
                seen += 1;
                assert!(oram.stats().user_accesses <= 50);
            })
            .unwrap();
            assert_eq!(seen, 50);
            assert_eq!(run.oram.stats().user_accesses, 50);
            assert!(run.sink.grand_total() > 0);
        }
    }

    #[test]
    fn protocol_run_is_deterministic_per_seed() {
        let e = Experiment { levels: 10, warmup: 10, timed: 10, protocol_accesses: 10, seed: 9 };
        let census = |seed: u64| {
            let e = Experiment { seed, ..e };
            let mut run = e.protocol_run(Scheme::Baseline, ChurnKind::Uniform).unwrap();
            run.advance(200).unwrap();
            run.oram.stats().dead_total()
        };
        assert_eq!(census(9), census(9), "same seed must reproduce the same census");
    }
}
