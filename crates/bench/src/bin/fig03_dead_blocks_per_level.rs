fn main() {
    aboram_bench::study_main(&aboram_bench::studies::protocol::FIG03_DEAD_BLOCKS_PER_LEVEL);
}
