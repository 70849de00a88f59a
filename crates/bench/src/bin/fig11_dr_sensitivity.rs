fn main() {
    aboram_bench::study_main(&aboram_bench::studies::timing::FIG11_DR_SENSITIVITY);
}
