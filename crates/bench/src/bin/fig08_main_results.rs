fn main() {
    aboram_bench::study_main(&aboram_bench::studies::timing::FIG08_MAIN_RESULTS);
}
