//! Studies and the engine-major runner.
//!
//! A [`Study`] declares the [`Window`]s it reads: each runs a timed trace or
//! a protocol churn on a [`Cell`], an engine configuration warmed or cold.
//! [`measure`] runs any window list engine-major: equal windows run once,
//! and one [`CellExecutor`] cell per distinct [`Cell`] (in first-appearance
//! order) builds that engine once ([`Cell::build`]), runs the cell's windows
//! on clones of it, and drops it. So at most `jobs` built engines are live,
//! a churn window keeps a [`Churned`] summary rather than its engine, and
//! nothing outlives the process (DESIGN.md §9, "Warm once, engine-major").
//! This runner is the one place a study's engine is built or advanced. A
//! window's result depends on its cell, its run and the [`Experiment`]
//! alone, not on who asked for it, in which order, or on how many workers
//! (`tests::warm_once_and_clone_equals_warming_per_cell`).

use crate::{emit, telemetry_from_env, CellExecutor, Experiment};
use aboram_core::{
    AccessKind, CountingSink, OramConfig, OramError, OramStats, PlbConfig, PosMapHierarchy,
    RingOram, Scheme, SimulationReport, TimingDriver,
};
use aboram_dram::{DramConfig, MemoryStats};
use aboram_trace::{BenchmarkProfile, TraceGenerator};
use aboram_tree::PhysicalLayout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The engine a window runs on: a configuration and the uniform warm-up it
/// gets before any window (none for a cold cell).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The engine's configuration.
    pub config: OramConfig,
    /// Uniform random reads run on the new engine before its windows
    /// ([`RingOram::warm_up`]); a cell with none is cold.
    pub warmup: u64,
}

impl Cell {
    /// A cold cell: the engine as built, the protocol's transient ahead.
    pub fn cold(config: OramConfig) -> Self {
        Cell { config, warmup: 0 }
    }

    /// Builds the cell's engine and runs its warm-up (the §VII warm-up
    /// phase under this harness's salt).
    pub fn build(&self) -> Result<RingOram, OramError> {
        let mut oram = RingOram::new(&self.config)?;
        oram.warm_up(self.warmup, 0xaaaa)?;
        Ok(oram)
    }
}

/// How a churn window picks the next block to read.
#[derive(Debug, Clone, PartialEq)]
pub enum Churn {
    /// Uniform random blocks.
    Uniform,
    /// Trace-driven: the cache lines of a synthetic benchmark.
    Trace(BenchmarkProfile),
    /// A 50/50 mix of trace-driven and uniform reads, so a census covers
    /// the whole block space like the paper's 400 M-access runs (Fig. 3).
    Mixed(BenchmarkProfile),
}

/// What a window runs on its cell's engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Run {
    /// [`Experiment::timed`] records of `profile` through a timing driver
    /// behind a fresh DRAM twin.
    Timed {
        /// The benchmark whose trace is timed.
        profile: BenchmarkProfile,
        /// The DRAM twin's configuration.
        dram: DramConfig,
        /// The recursive position-map model, if the window charges one.
        plb: Option<PlbConfig>,
    },
    /// `accesses` online reads picked by `churn`, on a counting sink.
    Churn {
        /// How blocks are picked.
        churn: Churn,
        /// Reads performed.
        accesses: u64,
    },
}

/// One window: a run on a cell's engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// The engine the window runs on.
    pub cell: Cell,
    /// What runs on it.
    pub run: Run,
}

impl Window {
    /// The common timed window: `profile` on `cell`, default DRAM, on-chip
    /// position map.
    pub fn timed(cell: Cell, profile: &BenchmarkProfile) -> Self {
        let run = Run::Timed { profile: profile.clone(), dram: DramConfig::default(), plb: None };
        Window { cell, run }
    }

    /// A churn window: `accesses` reads picked by `churn` on `cell`.
    pub fn churn(cell: Cell, churn: Churn, accesses: u64) -> Self {
        Window { cell, run: Run::Churn { churn, accesses } }
    }
}

/// What one timed window measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The driver's cycle-level report.
    pub report: SimulationReport,
    /// The DRAM twin's statistics, final after the run.
    pub memory: MemoryStats,
    /// The position-map model's PLB hit rate, when the window charges one.
    pub plb_hit_rate: Option<f64>,
    /// The cell's engine's S-extension ratio, before the window ran.
    pub extension_ratio: f64,
    /// The cell's engine's physical footprint in bytes.
    pub footprint_bytes: u64,
}

/// What one churn window left: a summary, never the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Churned {
    /// The engine's statistics when the window started.
    pub start: OramStats,
    /// The engine's statistics when it ended.
    pub end: OramStats,
    /// The window's traffic.
    pub sink: CountingSink,
    /// The engine's stash peak at the end, since it was built.
    pub stash_peak: usize,
    /// DeadQ enqueues rejected since the engine was built.
    pub deadq_rejected: u64,
    /// `(online accesses, dead blocks)` after read `i` of the window, for
    /// every `i` that is a multiple of `max(accesses / 40, 1)`.
    pub dead_samples: Vec<(u64, u64)>,
}

/// The measured windows of a [`measure`] call, looked up by window.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// Engines warmed: one per distinct warm cell.
    pub warm_ups: usize,
    /// Every distinct timed window and what it measured, in cell order.
    pub timed: Vec<(Window, Measured)>,
    /// Every distinct churn window and its summary, in cell order.
    pub churned: Vec<(Window, Churned)>,
    env: Experiment,
}

/// What `window` measured in `list`; panics if it was not measured (a study
/// reads only the windows it declares).
fn find<'a, T>(list: &'a [(Window, T)], window: &Window) -> &'a T {
    let found = list.iter().find(|(w, _)| w == window);
    &found.unwrap_or_else(|| panic!("{window:?} was not measured")).1
}

impl Measurements {
    /// What timed `window` measured.
    pub fn get(&self, window: &Window) -> &Measured {
        find(&self.timed, window)
    }

    /// What churn `window` left.
    pub fn churned(&self, window: &Window) -> &Churned {
        find(&self.churned, window)
    }

    /// The report of the common timed window ([`Window::timed`]) of
    /// `profile` on `scheme`'s warm cell ([`Experiment::warm`]).
    pub fn report(&self, scheme: Scheme, profile: &BenchmarkProfile) -> &SimulationReport {
        let cell = self.env.warm(scheme).unwrap_or_else(|e| panic!("{scheme} was not built: {e}"));
        &self.get(&Window::timed(cell, profile)).report
    }
}

/// Measures `windows` engine-major on `executor` (see the module docs) and
/// prints `[N warm-ups, C cold engines, M windows]` to stderr. A telemetry
/// collector on the calling thread receives one run per distinct timed
/// window, grouped by cell in first-appearance order, for any jobs count;
/// a churn window opens no run.
///
/// # Errors
///
/// The first failing cell's error, in cell order.
pub fn measure(
    env: &Experiment,
    executor: &CellExecutor,
    windows: &[Window],
) -> Result<Measurements, OramError> {
    let mut cells: Vec<(Cell, Vec<Run>)> = Vec::new();
    let mut distinct = 0;
    for window in windows {
        match cells.iter_mut().find(|(cell, _)| *cell == window.cell) {
            Some((_, runs)) if runs.contains(&window.run) => continue,
            Some((_, runs)) => runs.push(window.run.clone()),
            None => cells.push((window.cell.clone(), vec![window.run.clone()])),
        }
        distinct += 1;
    }
    let warm_ups = cells.iter().filter(|(cell, _)| cell.warmup > 0).count();
    eprintln!("[{warm_ups} warm-ups, {} cold engines, {distinct} windows]", cells.len() - warm_ups);
    let mut measured = Measurements { warm_ups, timed: vec![], churned: vec![], env: *env };
    for cell in executor.run(cells, |_, (cell, runs)| measure_cell(env, cell, runs)) {
        let (timed, churned) = cell?;
        measured.timed.extend(timed);
        measured.churned.extend(churned);
    }
    Ok(measured)
}

/// One cell's timed and churn windows with what each measured.
type CellResults = (Vec<(Window, Measured)>, Vec<(Window, Churned)>);

/// One cell: builds its engine once and runs each window on a clone.
fn measure_cell(env: &Experiment, cell: Cell, runs: Vec<Run>) -> Result<CellResults, OramError> {
    let verb = if cell.warmup > 0 { "warming" } else { "building" };
    eprintln!("[{verb} {}: {} windows]", cell.config.scheme, runs.len());
    let built = cell.build()?;
    let (mut timed, mut churned) = (Vec::new(), Vec::new());
    for run in runs {
        let window = Window { cell: cell.clone(), run };
        match &window.run {
            Run::Timed { profile, dram, plb } => {
                let measured = time(env, built.clone(), profile, *dram, *plb)?;
                timed.push((window, measured));
            }
            Run::Churn { churn, accesses } => {
                let summary = churn_on(built.clone(), churn, *accesses)?;
                churned.push((window, summary));
            }
        }
    }
    Ok((timed, churned))
}

/// Times `env.timed` records of `profile` on `oram`.
fn time(
    env: &Experiment,
    oram: RingOram,
    profile: &BenchmarkProfile,
    dram: DramConfig,
    plb: Option<PlbConfig>,
) -> Result<Measured, OramError> {
    let extension_ratio = oram.stats().extension_ratio();
    let footprint_bytes = PhysicalLayout::new(oram.geometry()).total_bytes();
    let mut driver = TimingDriver::from_oram(oram, dram);
    if let Some(plb) = plb {
        driver.enable_posmap_recursion(plb);
    }
    let mut gen = TraceGenerator::new(profile, env.seed);
    let report = driver.run((0..env.timed).map(|_| gen.next_record()))?;
    Ok(Measured {
        report,
        memory: driver.memory_stats().clone(),
        plb_hit_rate: driver.posmap_model().map(PosMapHierarchy::plb_hit_rate),
        extension_ratio,
        footprint_bytes,
    })
}

/// Runs `accesses` reads picked by `churn` on `oram`, its RNGs seeded by the
/// engine's configuration, and summarizes them.
fn churn_on(mut oram: RingOram, churn: &Churn, accesses: u64) -> Result<Churned, OramError> {
    let (seed, blocks) = (oram.config().seed, oram.config().real_block_count());
    let mut uniform = StdRng::seed_from_u64(seed);
    let mut trace = match churn {
        Churn::Uniform => None,
        Churn::Trace(profile) | Churn::Mixed(profile) => Some(TraceGenerator::new(profile, seed)),
    };
    let (start, mut sink, mut dead_samples) = (oram.stats().clone(), CountingSink::new(), vec![]);
    for i in 0..accesses {
        // A mixed churn draws the trace record unconditionally so the
        // generator stream stays aligned with the coin flips.
        let traced = trace.as_mut().map(|gen| (gen.next_record().addr / 64) % blocks);
        let block = match (churn, traced) {
            (Churn::Trace(_), Some(block)) => block,
            (Churn::Mixed(_), Some(block)) if uniform.gen_bool(0.5) => block,
            _ => uniform.gen_range(0..blocks),
        };
        oram.access(AccessKind::Read, block, None, &mut sink)?;
        if i % (accesses / 40).max(1) == 0 {
            dead_samples.push((oram.stats().online_accesses(), oram.stats().dead_total()));
        }
    }
    Ok(Churned {
        start,
        end: oram.stats().clone(),
        sink,
        stash_peak: oram.stash_peak(),
        deadq_rejected: oram.deadqs().total_rejected(),
        dead_samples,
    })
}

/// What a study's render returns: each `results/` file's name and content,
/// or the first typed error.
pub type Rendered = Result<Vec<(&'static str, String)>, OramError>;

/// One figure, table, ablation or extension of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// The study's binary name; errors are reported under it.
    pub name: &'static str,
    /// The windows the study reads (none for a closed-form one).
    pub windows: fn(&Experiment) -> Result<Vec<Window>, OramError>,
    /// Renders the study's `results/` files from its measured windows.
    pub render: fn(&Experiment, &Measurements) -> Rendered,
}

/// Runs `studies` in this process: measures the union of their windows,
/// renders every study on `executor`, and writes each study's files in list
/// order. A failure prints one line, `error: <study>: <error>` (`who` names
/// a failure while measuring), and the failed names are returned.
pub fn run_studies(
    who: &'static str,
    env: &Experiment,
    executor: &CellExecutor,
    studies: &[Study],
) -> Vec<&'static str> {
    let windows: Result<Vec<Vec<Window>>, _> = studies.iter().map(|s| (s.windows)(env)).collect();
    let measured = match windows.and_then(|ws| measure(env, executor, &ws.concat())) {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("error: {who}: {e}");
            return vec![who];
        }
    };
    let rendered = executor.run(studies.to_vec(), |_, s| (s.render)(env, &measured));
    let mut failed = Vec::new();
    for (study, files) in studies.iter().zip(rendered) {
        match files {
            Ok(files) => files.iter().for_each(|(name, content)| emit(name, content)),
            Err(e) => {
                eprintln!("error: {}: {e}", study.name);
                failed.push(study.name);
            }
        }
    }
    failed
}

/// The `main` of a study's binary: reads the `ABORAM_*` knobs (refusing a
/// bad one with exit code 2), honours `ABORAM_TELEMETRY`, runs the study,
/// and exits 1 if it failed.
pub fn study_main(study: &Study) {
    let env = Experiment::from_env();
    let failed = {
        let _telemetry = telemetry_from_env();
        run_studies(study.name, &env, &CellExecutor::from_env(), &[*study])
    };
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
