//! Property-based tests of workload generation.

use aboram_trace::{profiles, MpkiMeter, TraceGenerator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated addresses are always line-aligned and inside the working
    /// set, for every profile and any seed.
    #[test]
    fn records_are_well_formed(seed in any::<u64>(), profile_idx in 0usize..17) {
        let profile = &profiles::spec2017()[profile_idx];
        let mut gen = TraceGenerator::new(profile, seed);
        for _ in 0..500 {
            let r = gen.next_record();
            prop_assert_eq!(r.addr % 64, 0);
            prop_assert!(r.addr < profile.working_set_bytes);
        }
    }

    /// The measured MPKI converges to the profile's total for any seed.
    #[test]
    fn mpki_converges(seed in any::<u64>(), profile_idx in 0usize..17) {
        let profile = &profiles::spec2017()[profile_idx];
        let mut gen = TraceGenerator::new(profile, seed);
        let mut meter = MpkiMeter::new();
        for _ in 0..40_000 {
            meter.observe(&gen.next_record());
        }
        let total = meter.read_mpki() + meter.write_mpki();
        let expect = profile.total_mpki();
        prop_assert!(
            (total - expect).abs() / expect < 0.15,
            "{}: {total} vs {expect}", profile.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same (profile, seed) reproduces the identical record stream —
    /// telemetry-instrumented reruns replay bit-identical workloads.
    #[test]
    fn generator_is_seed_deterministic(seed in any::<u64>(), profile_idx in 0usize..17) {
        let profile = &profiles::spec2017()[profile_idx];
        let mut a = TraceGenerator::new(profile, seed);
        let mut b = TraceGenerator::new(profile, seed);
        for _ in 0..2_000 {
            prop_assert_eq!(a.next_record(), b.next_record());
        }
    }

    /// Different seeds diverge: the stream depends on the seed, not just
    /// the profile (so sweep cells are genuinely independent samples).
    #[test]
    fn generator_streams_depend_on_seed(seed in any::<u64>(), profile_idx in 0usize..17) {
        let profile = &profiles::spec2017()[profile_idx];
        let mut a = TraceGenerator::new(profile, seed);
        let mut b = TraceGenerator::new(profile, seed ^ 0x9e37_79b9_7f4a_7c15);
        let differs = (0..2_000).any(|_| a.next_record() != b.next_record());
        prop_assert!(differs, "distinct seeds produced identical 2k-record streams");
    }

    /// take_records and repeated next_record agree — the batch and
    /// streaming APIs sample the same underlying sequence.
    #[test]
    fn take_records_matches_streaming(seed in any::<u64>(), profile_idx in 0usize..17) {
        let profile = &profiles::spec2017()[profile_idx];
        let batch = TraceGenerator::new(profile, seed).take_records(500);
        let mut streaming = TraceGenerator::new(profile, seed);
        for rec in batch {
            prop_assert_eq!(rec, streaming.next_record());
        }
    }
}
