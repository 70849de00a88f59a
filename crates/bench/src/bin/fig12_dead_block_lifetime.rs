fn main() {
    aboram_bench::study_main(&aboram_bench::studies::protocol::FIG12_DEAD_BLOCK_LIFETIME);
}
