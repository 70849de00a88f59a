//! Probes every traced run repeats, whatever its workload: layers whose
//! host cost does not depend on the workload's state (address arithmetic,
//! the cipher, the input generators), plus the closed-form space figure.

use super::{Outcome, Pace, LEVELS};
use crate::ladder::Ladder;
use crate::spans::{Tracer, ROOT};
use aboram_core::{OramConfig, Scheme};
use aboram_crypto::{bucket_tag, BlockCipher, CryptoLatency, BLOCK_BYTES};
use aboram_trace::{profiles, BenchmarkProfile, KeyDist, KeySampler, TraceGenerator};
use aboram_tree::{PathId, PhysicalLayout, SlotId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Iterations of each probe: long enough to time, short beside a window.
const PROBE_OPS: u64 = 200_000;

/// The paper's AB space normalized to its Baseline at L = 24 (Fig. 8a).
pub const PAPER_SPACE_NORM: f64 = 0.645;
/// What this repository's closed form must print at L = 24.
pub const EXPECTED_SPACE_NORM_L24: f64 = 0.6445;

/// The SPEC profile named `name`.
pub fn profile(name: &str) -> BenchmarkProfile {
    profiles::spec2017()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no SPEC 2017 profile named {name}"))
}

/// AB tree size over Baseline tree size at `levels`, closed form.
pub fn space_norm(levels: u8) -> f64 {
    let report = |scheme| {
        let cfg = OramConfig::builder(levels, scheme).build().expect("preset config");
        cfg.geometry().expect("preset geometry").space_report(cfg.real_block_count())
    };
    report(Scheme::Ab).normalized_to(&report(Scheme::Baseline))
}

/// Checks the closed-form space figure against its expected value; part of
/// every run's correctness gate.
pub fn gate_space(out: &mut Outcome) {
    let (l14, l24) = (space_norm(LEVELS), space_norm(24));
    out.values.set("tree.space_norm_vs_baseline", l24);
    out.notes.push(format!(
        "tree.space_norm_vs_baseline: {l24:.4} at L=24 (paper Fig. 8a: {PAPER_SPACE_NORM}), \
         {l14:.4} at L={LEVELS}"
    ));
    out.gate((l24 - EXPECTED_SPACE_NORM_L24).abs() <= 0.0005, || {
        format!("space norm at L=24 is {l24}, expected {EXPECTED_SPACE_NORM_L24} ± 0.0005")
    });
}

/// Host ns per call of `op`, by the fastest of twenty chunks.
fn probe_ns(mut op: impl FnMut(u64)) -> f64 {
    let mut pace = Pace::start(PROBE_OPS, PROBE_OPS / 20);
    for i in 0..PROBE_OPS {
        op(i);
        pace.tick(i + 1);
    }
    pace.best_ns_per_op()
}

/// `tree`: enumerate a random path's buckets and resolve one slot address
/// per bucket through `PhysicalLayout::slot_addrs`.
fn tree_ns_per_path(seed: u64) -> f64 {
    let cfg = OramConfig::builder(LEVELS, Scheme::Ab).build().expect("preset config");
    let geo = cfg.geometry().expect("preset geometry");
    let layout = PhysicalLayout::new(&geo);
    let mut rng = StdRng::seed_from_u64(seed);
    let leaves = geo.leaf_count();
    let mut slots = Vec::with_capacity(usize::from(LEVELS));
    let mut addrs = Vec::with_capacity(usize::from(LEVELS));
    probe_ns(|_| {
        let path = PathId::new(rng.gen_range(0..leaves));
        slots.clear();
        slots.extend(geo.path_buckets(path).map(|bucket| SlotId::new(bucket, 0)));
        addrs.clear();
        layout.slot_addrs(&slots, &mut addrs).expect("slot 0 exists at every level");
        black_box(&addrs);
    })
}

/// `crypto`, the cipher: seal, open and the per-bucket tag on 64 B blocks.
fn cipher_ns(out: &mut Outcome, seed: u64) {
    let cipher = BlockCipher::new([seed as u8; 32]);
    let plain = [0x5Au8; BLOCK_BYTES];
    let seal = probe_ns(|i| {
        black_box(cipher.seal(black_box(&plain), i * 64, i));
    });
    let sealed = cipher.seal(&plain, 0x4000, 9);
    let open = probe_ns(|_| {
        black_box(cipher.open(black_box(&sealed), 0x4000, 9).expect("authentic block"));
    });
    let tag = probe_ns(|i| {
        black_box(bucket_tag(seed, black_box(i * 64), i));
    });
    out.values.set("crypto.host_ns_per_seal", seal);
    out.values.set("crypto.host_ns_per_open", open);
    out.values.set("crypto.host_ns_per_tag", tag);
}

/// `crypto`, the burst model: `overlapped_exit_from` over recorded
/// per-access completion vectors, carrying each exit into the next.
pub fn burst_ns(completions: &[Vec<u64>]) -> f64 {
    if completions.is_empty() {
        return 0.0;
    }
    let model = CryptoLatency::default();
    let mut scratch = Vec::new();
    let mut exit = 0;
    probe_ns(|i| {
        scratch.clear();
        scratch.extend_from_slice(&completions[i as usize % completions.len()]);
        exit = black_box(model.overlapped_exit_from(exit, &mut scratch));
    })
}

/// Which generator the workload's own bottom rung already timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnGenerator {
    TraceRecords,
    Keys,
}

/// Reports the workload-independent probes. The generator a workload's own
/// bottom rung timed (`own`) is not probed again.
pub fn report_common(out: &mut Outcome, seed: u64, own: Option<OwnGenerator>, tracer: &mut Tracer) {
    let span = tracer.open("probes", ROOT);
    out.values.set("tree.host_ns_per_path", tree_ns_per_path(seed));
    cipher_ns(out, seed);
    if own != Some(OwnGenerator::TraceRecords) {
        let mut gen = TraceGenerator::new(&profile("mcf"), seed);
        let record = probe_ns(|_| {
            black_box(gen.next_record());
        });
        out.values.set("trace.host_ns_per_record", record);
    }
    if own != Some(OwnGenerator::Keys) {
        let sampler = KeySampler::new(KeyDist::Zipf { s: 0.99 }, 16_384);
        let mut rng = StdRng::seed_from_u64(seed);
        let key = probe_ns(|_| {
            black_box(sampler.draw(&mut rng));
        });
        out.values.set("trace.host_ns_per_key", key);
    }
    tracer.close(span);
}

/// Reports the ladder and the two `bench.*` figures: how much of the
/// window's host time per op the ladder accounts for, and what tracing cost
/// on the same prefix. Every term is a fastest-chunk time.
pub fn report_bench(
    out: &mut Outcome,
    ladder: &Ladder,
    window_ns_per_op: f64,
    untraced_prefix: &Pace,
    traced_prefix: &Pace,
) {
    let selfs: Vec<String> =
        ladder.self_times().iter().map(|(layer, ns)| format!("{layer} {ns:.1}")).collect();
    out.notes.push(format!(
        "ladder self times, host ns per op (fastest chunk of each rung, on the input's prefix): \
         {}; top rung {:.1}, full window {window_ns_per_op:.1}",
        selfs.join(", "),
        ladder.top(),
    ));
    out.values.set("bench.layers_sum_over_e2e", ladder.top() / window_ns_per_op);
    out.values.set(
        "bench.trace_overhead_share",
        1.0 - untraced_prefix.best_ns_per_op() / traced_prefix.best_ns_per_op(),
    );
}
