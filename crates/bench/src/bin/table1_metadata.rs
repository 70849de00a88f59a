fn main() {
    aboram_bench::study_main(&aboram_bench::studies::tables::TABLE1_METADATA);
}
