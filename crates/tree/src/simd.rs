//! Exists only because the frozen `benchmark/src/host.rs` prints
//! [`kernel_name`] in its host fingerprint. The metadata/address path is
//! scalar; ROADMAP's benchmark item drops that field, then this module.

/// Always `"scalar"`.
#[doc(hidden)]
pub fn kernel_name() -> &'static str {
    "scalar"
}
