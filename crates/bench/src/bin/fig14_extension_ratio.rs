fn main() {
    aboram_bench::study_main(&aboram_bench::studies::protocol::FIG14_EXTENSION_RATIO);
}
