//! `--selfcheck`: the determinism gate, at 1/20 of the measured size.
//!
//! Simulated metrics are the half of the benchmark that compares exactly
//! across commits, so they must be a pure function of the seed: every
//! workload runs twice with one seed, once with another, and once traced.
//! The digests must be equal for equal seeds — traced or not — and differ
//! for different ones.

use crate::metrics::{Clock, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::workloads::{self, Mode, Plan, WORKLOADS};
use crate::DEFAULT_SEED;
use std::process::ExitCode;

pub fn run() -> ExitCode {
    let mut ok = true;
    for (workload, rate) in WORKLOADS {
        let measure = |seed: u64, mode: Mode| {
            let plan = Plan { seed, ops: rate, mode };
            workloads::run(workload, plan, &mut Tracer::new())
        };
        let runs = [
            ("seed A", measure(DEFAULT_SEED, Mode::Untraced)),
            ("seed A again", measure(DEFAULT_SEED, Mode::Untraced)),
            ("seed A traced", measure(DEFAULT_SEED, Mode::Traced)),
            ("seed B", measure(DEFAULT_SEED + 1, Mode::Untraced)),
        ];
        let mut digests = Vec::new();
        for (label, run) in &runs {
            match run {
                Ok(out) => {
                    let digest = out.values.sim_digest();
                    println!(
                        "{workload:<18} {label:<14} sim_digest {digest:016x} correct {}",
                        out.correct()
                    );
                    ok &= out.correct();
                    digests.push(digest);
                }
                Err(e) => {
                    println!("{workload:<18} {label:<14} aborted: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let [a, again, traced, b] = digests[..] else { unreachable!("four runs") };
        if a != again || a != traced {
            ok = false;
            println!("{workload}: FAIL — equal seeds disagree");
            let (Ok(x), Ok(y)) = (&runs[0].1, &runs[if a != again { 1 } else { 2 }].1) else {
                unreachable!("aborted runs returned above")
            };
            for m in END_TO_END.iter().chain(PER_LAYER).filter(|m| m.clock == Clock::Sim) {
                let (vx, vy) = (x.values.get(m.name), y.values.get(m.name));
                if vx.to_bits() != vy.to_bits() {
                    println!("  {} {vx} vs {vy}", m.name);
                }
            }
        }
        if a == b {
            ok = false;
            println!("{workload}: FAIL — different seeds give one digest");
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
