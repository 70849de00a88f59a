fn main() {
    aboram_bench::study_main(&aboram_bench::studies::protocol::FIG02_DEAD_BLOCKS_OVER_TIME);
}
