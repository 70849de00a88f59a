fn main() {
    aboram_bench::study_main(&aboram_bench::studies::timing::FIG13_NS_EXPLORATION);
}
