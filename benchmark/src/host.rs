//! Host fingerprint: enough context to compare two sessions' host-time
//! figures, which have no external reference.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Hidden flag: run the calibration loops and print their two results.
pub const CALIBRATE_FLAG: &str = "--calibrate";

/// Results of the two calibration loops, in ns per step.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Dependent loads over a random cycle through 64 MiB (memory latency).
    pub chase_ns: f64,
    /// Dependent multiply-add steps (core clock).
    pub alu_ns: f64,
}

const CHASE_WORDS: usize = 64 * 1024 * 1024 / 8;
const CHASE_STEPS: u64 = 1 << 20;
const ALU_STEPS: u64 = 1 << 26;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407)
}

/// Runs both loops in this process. The chase buffer is 64 MiB, so measured
/// runs call [`calibrate_in_child`] instead and keep it out of their own
/// peak RSS.
pub fn calibrate() -> Calibration {
    // Sattolo's shuffle: one cycle through every word.
    let mut next: Vec<u64> = (0..CHASE_WORDS as u64).collect();
    let mut x = 0x5EED_CA11_B8A7_E000u64;
    for i in (1..CHASE_WORDS).rev() {
        x = lcg(x);
        next.swap(i, ((x >> 33) as usize) % i);
    }
    let started = Instant::now();
    let mut at = 0u64;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    black_box(at);
    let chase_ns = started.elapsed().as_nanos() as f64 / CHASE_STEPS as f64;

    let started = Instant::now();
    let mut acc = 1u64;
    for _ in 0..ALU_STEPS {
        // Materializing every step keeps the chain dependent; without it
        // the compiler folds several LCG steps into one.
        acc = black_box(lcg(acc));
    }
    let alu_ns = started.elapsed().as_nanos() as f64 / ALU_STEPS as f64;
    Calibration { chase_ns, alu_ns }
}

/// Runs [`calibrate`] in a child process (this executable with
/// [`CALIBRATE_FLAG`]) and waits for it. `None` if the child cannot run.
pub fn calibrate_in_child() -> Option<Calibration> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe).arg(CALIBRATE_FLAG).stdin(Stdio::null()).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    Some(Calibration { chase_ns: fields.next()?.ok()?, alu_ns: fields.next()?.ok()? })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("ABORAM_BENCHMARK_RUSTC")
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One-line fingerprint printed at the top of every report.
pub fn fingerprint() -> String {
    format!(
        "host: nproc={} simd_kernel={} rustc=\"{}\"",
        nproc(),
        aboram_tree::simd::kernel_name(),
        rustc_version()
    )
}
