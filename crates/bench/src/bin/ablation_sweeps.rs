fn main() {
    aboram_bench::study_main(&aboram_bench::studies::extensions::ABLATION_SWEEPS);
}
