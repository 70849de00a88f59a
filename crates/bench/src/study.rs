//! Studies and the engine-major runner.
//!
//! A [`Study`] declares the timed [`Window`]s it reads. [`measure`] runs any
//! window list engine-major: equal windows run once, and one
//! [`CellExecutor`] cell per scheme (in first-appearance order) warms that
//! engine once ([`Experiment::warmed_oram`]), times the scheme's windows on
//! clones of it, and drops it. So at most `jobs` warmed engines are live,
//! and nothing outlives the process (DESIGN.md §9, "Warm once,
//! engine-major"). A window's result depends on its configuration and the
//! [`Experiment`] alone, not on who asked for it, in which order, or on how
//! many workers (`tests::warm_once_and_clone_equals_warming_per_cell`).

use crate::{emit, telemetry_from_env, CellExecutor, Experiment};
use aboram_core::{OramError, PlbConfig, PosMapHierarchy, Scheme, SimulationReport, TimingDriver};
use aboram_dram::{DramConfig, MemoryStats};
use aboram_trace::{BenchmarkProfile, TraceGenerator};
use aboram_tree::PhysicalLayout;

/// One timed window: `timed` records of `profile` on a warmed `scheme`
/// engine behind a fresh DRAM twin.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// The scheme whose warmed engine runs the window.
    pub scheme: Scheme,
    /// The benchmark whose trace is timed.
    pub profile: BenchmarkProfile,
    /// The DRAM twin's configuration.
    pub dram: DramConfig,
    /// The recursive position-map model, if the window charges one.
    pub plb: Option<PlbConfig>,
}

impl Window {
    /// The common window: default DRAM, on-chip position map.
    pub fn new(scheme: Scheme, profile: &BenchmarkProfile) -> Self {
        Window { scheme, profile: profile.clone(), dram: DramConfig::default(), plb: None }
    }
}

/// What one window measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The driver's cycle-level report.
    pub report: SimulationReport,
    /// The DRAM twin's statistics, final after the run.
    pub memory: MemoryStats,
    /// The position-map model's PLB hit rate, when the window charges one.
    pub plb_hit_rate: Option<f64>,
    /// The warmed engine's S-extension ratio, before the window ran.
    pub extension_ratio: f64,
    /// The warmed engine's physical footprint in bytes.
    pub footprint_bytes: u64,
}

/// The measured windows of a [`measure`] call, looked up by window.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// Engines warmed: one per distinct scheme.
    pub warm_ups: usize,
    /// Every distinct window and what it measured, in cell order.
    pub windows: Vec<(Window, Measured)>,
}

impl Measurements {
    /// What `window` measured.
    ///
    /// # Panics
    ///
    /// If `window` was not among the measured windows: a study reads only
    /// the windows it declares.
    pub fn get(&self, window: &Window) -> &Measured {
        match self.windows.iter().find(|(w, _)| w == window) {
            Some((_, measured)) => measured,
            None => panic!("{} on {} was not measured", window.profile.name, window.scheme),
        }
    }

    /// The report of the common window ([`Window::new`]).
    pub fn report(&self, scheme: Scheme, profile: &BenchmarkProfile) -> &SimulationReport {
        &self.get(&Window::new(scheme, profile)).report
    }
}

/// Measures `windows` engine-major on `executor` (see the module docs) and
/// prints `[N warm-ups, M windows]` to stderr. A telemetry collector on the
/// calling thread receives one run per distinct window, grouped by scheme
/// in first-appearance order, for any jobs count.
///
/// # Errors
///
/// The first failing scheme's error, in cell order.
pub fn measure(
    env: &Experiment,
    executor: &CellExecutor,
    windows: &[Window],
) -> Result<Measurements, OramError> {
    let mut cells: Vec<(Scheme, Vec<Window>)> = Vec::new();
    let mut distinct = 0;
    for window in windows {
        match cells.iter_mut().find(|(scheme, _)| *scheme == window.scheme) {
            Some((_, ws)) if ws.contains(window) => continue,
            Some((_, ws)) => ws.push(window.clone()),
            None => cells.push((window.scheme, vec![window.clone()])),
        }
        distinct += 1;
    }
    let warm_ups = cells.len();
    eprintln!("[{warm_ups} warm-ups, {distinct} windows]");
    let measured = executor.run(cells, |_, (scheme, ws)| measure_scheme(env, scheme, ws));
    let windows = measured.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().flatten();
    Ok(Measurements { warm_ups, windows: windows.collect() })
}

/// One cell: warms `scheme` once and times each window on a clone.
fn measure_scheme(
    env: &Experiment,
    scheme: Scheme,
    windows: Vec<Window>,
) -> Result<Vec<(Window, Measured)>, OramError> {
    eprintln!("[warming {scheme}: {} windows]", windows.len());
    let warmed = env.warmed_oram(scheme)?;
    let extension_ratio = warmed.stats().extension_ratio();
    let footprint_bytes = PhysicalLayout::new(warmed.geometry()).total_bytes();
    windows
        .into_iter()
        .map(|window| {
            let mut driver = TimingDriver::from_oram(warmed.clone(), window.dram);
            if let Some(plb) = window.plb {
                driver.enable_posmap_recursion(plb);
            }
            let mut gen = TraceGenerator::new(&window.profile, env.seed);
            let report = driver.run((0..env.timed).map(|_| gen.next_record()))?;
            let measured = Measured {
                report,
                memory: driver.memory_stats().clone(),
                plb_hit_rate: driver.posmap_model().map(PosMapHierarchy::plb_hit_rate),
                extension_ratio,
                footprint_bytes,
            };
            Ok((window, measured))
        })
        .collect()
}

/// What a study's render returns: each `results/` file's name and content,
/// or the first typed error.
pub type Rendered = Result<Vec<(&'static str, String)>, OramError>;

/// One figure, table, ablation or extension of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// The study's binary name; errors are reported under it.
    pub name: &'static str,
    /// The timed windows the study reads (none for an untimed one).
    pub windows: fn(&Experiment) -> Vec<Window>,
    /// Renders the study's `results/` files from its measured windows; an
    /// untimed study runs its protocol cells here, on the executor.
    pub render: fn(&Experiment, &CellExecutor, &Measurements) -> Rendered,
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
    let windows: Vec<Window> = studies.iter().flat_map(|s| (s.windows)(env)).collect();
    let measured = match measure(env, executor, &windows) {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("error: {who}: {e}");
            return vec![who];
        }
    };
    let rendered = executor.run(studies.to_vec(), |_, s| (s.render)(env, executor, &measured));
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
