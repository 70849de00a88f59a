fn main() {
    aboram_bench::study_main(&aboram_bench::studies::timing::FIG04_MOTIVATION_TRADEOFF);
}
