fn main() {
    aboram_bench::study_main(&aboram_bench::studies::extensions::EXT_ENERGY);
}
