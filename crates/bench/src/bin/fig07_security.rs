fn main() {
    aboram_bench::study_main(&aboram_bench::studies::protocol::FIG07_SECURITY);
}
