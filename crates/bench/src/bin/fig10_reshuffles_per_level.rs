fn main() {
    aboram_bench::study_main(&aboram_bench::studies::protocol::FIG10_RESHUFFLES_PER_LEVEL);
}
