//! ORAM configuration: schemes, paper presets, geometry construction.

use crate::error::OramError;
use aboram_tree::{LevelConfig, TreeGeometry};
use std::fmt;

/// Baseline Ring ORAM bucket parameters used throughout the paper:
/// `Z' = 5`, `S = 7` (plain) or `S = 3, Y = 4` (with bucket compaction).
pub(crate) const Z_REAL: u8 = 5;
const PLAIN_S: u8 = 7;
const CB_S: u8 = 3;
const CB_Y: u8 = 4;
/// DR's physical reduction `r` (§V-C1 identifies `r = 2` for this setting).
const DR_EXTENSION: u8 = 2;

/// `A`: one evictPath per `A` online accesses (Table III: 5).
pub const EVICT_RATE_A: u8 = 5;
/// Number of bottom levels with a DeadQ (§VIII-H: 6).
pub const DEADQ_LEVELS: u8 = 6;
/// Stale buckets refreshed per access while a growth backlog is pending.
pub const RELOCS_PER_ACCESS: u8 = 4;

/// Which protocol/optimization stack to run (§VII's evaluated schemes, plus
/// the configurations the motivation and exploration figures sweep).
///
/// Level positions are expressed as *offsets from the leaf level* so scaled
/// trees keep the paper's shape: for the 24-level paper tree, "bottom 6
/// levels" means `[L18, L23]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Scheme {
    /// Plain Ring ORAM, `Z = 12, Z' = 5, S = 7` (§III-B typical setting).
    PlainRing,
    /// Ring ORAM + Bucket Compaction `Z = 8, S = 3, Y = 4` — the paper's
    /// evaluation Baseline.
    Baseline,
    /// IR-ORAM's utilization optimization on the Baseline: `Z' = 4` for
    /// middle levels (`[L10, L18]` of 24) and `Y = 3`.
    Ir,
    /// Dead-block reclaim: `Z = 6 (S = 1)` for the bottom `bottom_levels`
    /// levels, runtime extension by `r = 2` via remote allocation.
    /// The paper's `DR` uses `bottom_levels = 6` (`[L18, L23]`).
    Dr {
        /// How many levels above the leaves shrink and extend.
        bottom_levels: u8,
    },
    /// Non-uniform S: shrink `S` by `shrink` for the bottom `bottom_levels`
    /// levels, with no runtime extension. The paper's `NS` is `L2-S2`.
    Ns {
        /// How many bottom levels shrink.
        bottom_levels: u8,
        /// How much `S` shrinks by.
        shrink: u8,
    },
    /// The combined design: `Z = 6 (S = 1)` for leaf offsets 3..=5
    /// (`[L18, L20]`) and `Z = 5 (S = 0)` for offsets 0..=2 (`[L21, L23]`),
    /// both DR-extended by 2.
    Ab,
    /// Fig. 4's motivational sweep: plain Ring ORAM with `S` reduced by 3
    /// for the bottom `bottom_levels` levels (`L-x` in the paper).
    RingShrink {
        /// How many bottom levels shrink (the `x` in `L-x`).
        bottom_levels: u8,
    },
    /// §V-C1's *strategy (1)*: keep the full CB allocation and extend the
    /// bucket beyond the baseline (`Z = 8` physical used as a 10-entry
    /// bucket) via remote allocation. Saves no space but cuts
    /// earlyReshuffles — the performance-oriented alternative the paper
    /// describes and sets aside in favour of strategy (2).
    DrPlus {
        /// How many levels above the leaves extend.
        bottom_levels: u8,
    },
    /// AB with the channel-parallel issue mode: identical tree geometry and
    /// protocol behavior to [`Scheme::Ab`], but the timing path groups each
    /// access's bucket requests by DRAM channel so the twin's channels drain
    /// one access concurrently, and decryption of already-returned blocks
    /// overlaps in-flight DRAM occupancy instead of serializing after the
    /// last reply (DESIGN.md §14). The request *set* per access is
    /// unchanged — only intra-access issue order — so the access pattern an
    /// adversary observes is the same as AB's.
    AbChannelPar,
}

/// How the timing path hands one access's bucket requests to the DRAM twin.
///
/// Functional behavior (block contents, stash, metadata, RNG draws) is
/// identical in both modes; only the cycle accounting differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IssueMode {
    /// Requests reach the memory system in protocol program order
    /// (root-to-leaf, metadata before slots). The crypto burst is charged
    /// serially after the last online reply.
    Serial,
    /// Requests for one access are buffered and released grouped by DRAM
    /// channel (stable within each channel), so all channels start draining
    /// the access at once; decryption of each returned block overlaps the
    /// remaining in-flight DRAM occupancy.
    ChannelParallel,
}

impl Scheme {
    /// The paper's `DR` preset (bottom six levels).
    pub const DR: Scheme = Scheme::Dr { bottom_levels: 6 };
    /// The paper's `NS` preset (`L2-S2`).
    pub const NS: Scheme = Scheme::Ns { bottom_levels: 2, shrink: 2 };

    /// The schemes of the main evaluation (Fig. 8), in paper order, plus
    /// the channel-parallel AB variant appended last.
    pub fn evaluated() -> Vec<Scheme> {
        vec![Scheme::Baseline, Scheme::Ir, Scheme::DR, Scheme::NS, Scheme::Ab, Scheme::AbChannelPar]
    }

    /// Whether the scheme uses DR remote allocation anywhere.
    pub fn uses_remote_allocation(&self) -> bool {
        matches!(
            self,
            Scheme::Dr { .. } | Scheme::Ab | Scheme::DrPlus { .. } | Scheme::AbChannelPar
        )
    }

    /// How the timing path issues this scheme's bucket requests to DRAM:
    /// the only selector of the issue order.
    pub(crate) fn issue_mode(&self) -> IssueMode {
        match self {
            Scheme::AbChannelPar => IssueMode::ChannelParallel,
            _ => IssueMode::Serial,
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::PlainRing => f.write_str("Ring"),
            Scheme::Baseline => f.write_str("Baseline"),
            Scheme::Ir => f.write_str("IR"),
            Scheme::Dr { bottom_levels: 6 } => f.write_str("DR"),
            Scheme::Dr { bottom_levels } => write!(f, "DR-B{bottom_levels}"),
            Scheme::Ns { bottom_levels: 2, shrink: 2 } => f.write_str("NS"),
            Scheme::Ns { bottom_levels, shrink } => write!(f, "L{bottom_levels}-S{shrink}"),
            Scheme::Ab => f.write_str("AB"),
            Scheme::RingShrink { bottom_levels } => write!(f, "L-{bottom_levels}"),
            Scheme::DrPlus { bottom_levels: 6 } => f.write_str("DR+"),
            Scheme::DrPlus { bottom_levels } => write!(f, "DR+B{bottom_levels}"),
            Scheme::AbChannelPar => f.write_str("AB-CP"),
        }
    }
}

/// Auto-scaling parameters. When set on an [`OramConfig`], the engine may
/// add tree levels lazily as the protected block population grows, up to
/// `max_levels`. Growth never blocks an access: the per-bucket metadata
/// refresh is drained incrementally, [`RELOCS_PER_ACCESS`] buckets per
/// access (see the `growth` module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowthConfig {
    /// Ceiling on tree levels; growth stops here and further inserts
    /// beyond capacity return [`OramError::CapacityExhausted`].
    pub max_levels: u8,
}

impl GrowthConfig {
    /// Growth up to `max_levels`. An insert grows the tree when it finds
    /// every one of [`OramConfig::real_block_count`] blocks mapped.
    pub fn up_to(max_levels: u8) -> Self {
        GrowthConfig { max_levels }
    }
}

/// Full ORAM instance configuration. Build with [`OramConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct OramConfig {
    /// Tree levels (`L`; the paper uses 24).
    pub levels: u8,
    /// Protocol/optimization stack.
    pub scheme: Scheme,
    /// Levels (from the root) held in the on-chip treetop cache
    /// (Table III, following IR-ORAM: top 10 of 24).
    pub treetop_levels: u8,
    /// Stash capacity in blocks (Table III: 300).
    pub stash_capacity: usize,
    /// Background eviction starts when stash occupancy exceeds this (§III-C).
    pub bg_evict_threshold: usize,
    /// DeadQ entries per tracked level (§V-B2: 1000).
    pub deadq_capacity: usize,
    /// Whether to store and encrypt actual block contents (exercises the
    /// full data path; costs memory proportional to the tree).
    pub store_data: bool,
    /// Whether to record per-slot death timestamps for the Fig. 12
    /// dead-block lifetime study (costs a hash map of live dead slots).
    pub track_lifetimes: bool,
    /// RNG seed for deterministic runs.
    pub seed: u64,
    /// Lazy capacity growth; `None` (the default) fixes the tree at
    /// `levels` forever and leaves every digest identical to pre-growth
    /// builds.
    pub growth: Option<GrowthConfig>,
}

impl OramConfig {
    /// Starts building a configuration for a tree of `levels` levels running
    /// `scheme`.
    pub fn builder(levels: u8, scheme: Scheme) -> OramConfigBuilder {
        OramConfigBuilder {
            cfg: OramConfig {
                levels,
                scheme,
                treetop_levels: levels.saturating_sub(14).max(1),
                stash_capacity: 300,
                bg_evict_threshold: 225,
                deadq_capacity: 1000,
                store_data: false,
                track_lifetimes: false,
                seed: 0xAB0A_2023,
                growth: None,
            },
        }
    }

    /// The paper's full-scale configuration: 24 levels, treetop 10.
    pub fn paper_scale(scheme: Scheme) -> OramConfigBuilder {
        OramConfig::builder(24, scheme)
    }

    /// Builds the tree geometry for this configuration's scheme.
    ///
    /// # Errors
    ///
    /// Returns the geometry error for an invalid tree, and
    /// [`OramError::BadParameter`] for one whose buckets the engine's
    /// fixed-size bucket record ([`BucketMeta`](crate::BucketMeta)) cannot
    /// hold: more than 5 real or 2 borrowed entries per bucket, more than 16
    /// logical slots (`Z + r`), or more than 28 levels.
    /// Every engine geometry — construction and each grown level — is
    /// derived here, so the refusal covers them all.
    pub fn geometry(&self) -> Result<TreeGeometry, OramError> {
        let l = self.levels;
        let cb = LevelConfig::new(Z_REAL, CB_S).with_overlap(CB_Y);
        let geo = match self.scheme {
            Scheme::PlainRing => TreeGeometry::uniform(l, LevelConfig::new(Z_REAL, PLAIN_S))?,
            Scheme::Baseline => TreeGeometry::uniform(l, cb)?,
            Scheme::Ir => {
                // Y = 3 everywhere; Z' = 4 for the middle band, which for the
                // 24-level tree is [L10, L18] — leaf offsets 5..=13.
                let ir = LevelConfig::new(Z_REAL, CB_S).with_overlap(3);
                let mut geo = TreeGeometry::uniform(l, ir)?;
                let first = l.saturating_sub(14);
                let last = l.saturating_sub(6);
                if first < last {
                    geo =
                        geo.override_level_range(first.max(1), last.min(l - 1), ir.with_z_real(4))?;
                }
                geo
            }
            Scheme::Dr { bottom_levels } => {
                let small = LevelConfig::new(Z_REAL, 1)
                    .with_overlap(CB_Y)
                    .with_dynamic_extension(DR_EXTENSION);
                TreeGeometry::uniform(l, cb)?.override_bottom_levels(bottom_levels, small)?
            }
            Scheme::Ns { bottom_levels, shrink } => {
                if shrink > CB_S {
                    return Err(OramError::BadParameter {
                        name: "shrink",
                        reason: format!("NS shrink {shrink} exceeds baseline S = {CB_S}"),
                    });
                }
                let small = LevelConfig::new(Z_REAL, CB_S - shrink).with_overlap(CB_Y);
                TreeGeometry::uniform(l, cb)?.override_bottom_levels(bottom_levels, small)?
            }
            Scheme::Ab | Scheme::AbChannelPar => {
                // [L18, L20] → offsets 3..=5: S = 1; [L21, L23] → 0..=2: S = 0.
                // AB-CP shares AB's geometry exactly; it differs only in the
                // timing path's issue mode.
                let s1 = LevelConfig::new(Z_REAL, 1)
                    .with_overlap(CB_Y)
                    .with_dynamic_extension(DR_EXTENSION);
                let s0 = LevelConfig::new(Z_REAL, 0)
                    .with_overlap(CB_Y)
                    .with_dynamic_extension(DR_EXTENSION);
                TreeGeometry::uniform(l, cb)?
                    .override_bottom_levels(6, s1)?
                    .override_bottom_levels(3, s0)?
            }
            Scheme::RingShrink { bottom_levels } => {
                let small = LevelConfig::new(Z_REAL, PLAIN_S - 3);
                TreeGeometry::uniform(l, LevelConfig::new(Z_REAL, PLAIN_S))?
                    .override_bottom_levels(bottom_levels, small)?
            }
            Scheme::DrPlus { bottom_levels } => {
                let extended = cb.with_dynamic_extension(DR_EXTENSION);
                TreeGeometry::uniform(l, cb)?.override_bottom_levels(bottom_levels, extended)?
            }
        };
        crate::metadata::check_record_capacity(&geo)?;
        Ok(geo)
    }

    /// Number of protected user blocks (§VII convention: half the baseline
    /// `Z'` capacity, ≈ 2.5 GB for the 24-level tree).
    pub fn real_block_count(&self) -> u64 {
        ((1u64 << self.levels) - 1) * u64::from(Z_REAL) / 2
    }
}

/// Builder for [`OramConfig`] (see [`OramConfig::builder`]).
#[derive(Debug, Clone)]
pub struct OramConfigBuilder {
    cfg: OramConfig,
}

impl OramConfigBuilder {
    /// Sets how many top levels the treetop cache holds on chip.
    pub fn treetop_levels(mut self, n: u8) -> Self {
        self.cfg.treetop_levels = n;
        self
    }

    /// Sets stash capacity and background-eviction threshold.
    pub fn stash(mut self, capacity: usize, bg_threshold: usize) -> Self {
        self.cfg.stash_capacity = capacity;
        self.cfg.bg_evict_threshold = bg_threshold;
        self
    }

    /// Sets DeadQ capacity per level.
    pub fn deadq_capacity(mut self, entries: usize) -> Self {
        self.cfg.deadq_capacity = entries;
        self
    }

    /// Enables/disables the encrypted data path.
    pub fn store_data(mut self, yes: bool) -> Self {
        self.cfg.store_data = yes;
        self
    }

    /// Enables/disables dead-block lifetime tracking (Fig. 12).
    pub fn track_lifetimes(mut self, yes: bool) -> Self {
        self.cfg.track_lifetimes = yes;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Enables lazy capacity growth up to `growth.max_levels`.
    pub fn growth(mut self, growth: GrowthConfig) -> Self {
        self.cfg.growth = Some(growth);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BadParameter`] for inconsistent parameters and
    /// geometry errors for invalid trees.
    pub fn build(self) -> Result<OramConfig, OramError> {
        let c = &self.cfg;
        if c.levels < 8 {
            return Err(OramError::BadParameter {
                name: "levels",
                reason: format!("need at least 8 levels for the paper's schemes, got {}", c.levels),
            });
        }
        if c.treetop_levels >= c.levels {
            return Err(OramError::BadParameter {
                name: "treetop_levels",
                reason: format!(
                    "treetop ({}) must be smaller than the tree ({})",
                    c.treetop_levels, c.levels
                ),
            });
        }
        if c.bg_evict_threshold >= c.stash_capacity {
            return Err(OramError::BadParameter {
                name: "bg_evict_threshold",
                reason: format!(
                    "background-eviction threshold ({}) must be below stash capacity ({})",
                    c.bg_evict_threshold, c.stash_capacity
                ),
            });
        }
        if let Some(g) = c.growth {
            if g.max_levels < c.levels {
                return Err(OramError::BadParameter {
                    name: "growth.max_levels",
                    reason: format!(
                        "ceiling ({}) below the starting level count ({})",
                        g.max_levels, c.levels
                    ),
                });
            }
            // Every level the tree may grow to must fit the bucket record.
            crate::metadata::check_record_levels("growth.max_levels", g.max_levels)?;
        }
        // Force geometry construction so invalid schemes fail here.
        self.cfg.geometry()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_tree::Level;

    #[test]
    fn paper_presets_build() {
        for scheme in Scheme::evaluated() {
            let cfg = OramConfig::paper_scale(scheme).build().unwrap();
            assert_eq!(cfg.levels, 24);
            assert_eq!(cfg.treetop_levels, 10);
            let geo = cfg.geometry().unwrap();
            assert_eq!(geo.levels(), 24);
        }
    }

    #[test]
    fn baseline_and_ab_bucket_sizes() {
        let base = OramConfig::paper_scale(Scheme::Baseline).build().unwrap().geometry().unwrap();
        assert_eq!(base.level_config(Level(0)).z_total(), 8);
        assert_eq!(base.level_config(Level(23)).z_total(), 8);

        let ab = OramConfig::paper_scale(Scheme::Ab).build().unwrap().geometry().unwrap();
        assert_eq!(ab.level_config(Level(17)).z_total(), 8);
        assert_eq!(ab.level_config(Level(18)).z_total(), 6);
        assert_eq!(ab.level_config(Level(20)).z_total(), 6);
        assert_eq!(ab.level_config(Level(21)).z_total(), 5);
        assert_eq!(ab.level_config(Level(23)).z_total(), 5);
        assert!(ab.level_config(Level(23)).has_dynamic_extension());
    }

    #[test]
    fn ir_shrinks_middle_z_real() {
        let ir = OramConfig::paper_scale(Scheme::Ir).build().unwrap().geometry().unwrap();
        assert_eq!(ir.level_config(Level(9)).z_real, 5);
        assert_eq!(ir.level_config(Level(10)).z_real, 4);
        assert_eq!(ir.level_config(Level(18)).z_real, 4);
        assert_eq!(ir.level_config(Level(19)).z_real, 5);
        assert_eq!(ir.level_config(Level(0)).overlap_y, 3);
    }

    #[test]
    fn dr_and_ns_sweep_parameters() {
        let dr3 = OramConfig::paper_scale(Scheme::Dr { bottom_levels: 3 })
            .build()
            .unwrap()
            .geometry()
            .unwrap();
        assert_eq!(dr3.level_config(Level(20)).z_total(), 8);
        assert_eq!(dr3.level_config(Level(21)).z_total(), 6);

        let l3s3 = OramConfig::paper_scale(Scheme::Ns { bottom_levels: 3, shrink: 3 })
            .build()
            .unwrap()
            .geometry()
            .unwrap();
        assert_eq!(l3s3.level_config(Level(23)).s_dummies, 0);
        assert!(!l3s3.level_config(Level(23)).has_dynamic_extension());
    }

    #[test]
    fn ns_shrink_bounded_by_s() {
        let err = OramConfig::paper_scale(Scheme::Ns { bottom_levels: 2, shrink: 4 }).build();
        assert!(matches!(err, Err(OramError::BadParameter { name: "shrink", .. })));
    }

    #[test]
    fn builder_validation() {
        assert!(OramConfig::builder(4, Scheme::Baseline).build().is_err());
        assert!(OramConfig::builder(12, Scheme::Baseline).treetop_levels(12).build().is_err());
        assert!(OramConfig::builder(12, Scheme::Baseline).stash(100, 100).build().is_err());
        assert!(OramConfig::builder(12, Scheme::Baseline).stash(100, 75).build().is_ok());
    }

    #[test]
    fn growth_validation() {
        let ok = OramConfig::builder(8, Scheme::Ab).growth(GrowthConfig::up_to(12)).build();
        assert_eq!(ok.unwrap().growth, Some(GrowthConfig::up_to(12)));
        let below = OramConfig::builder(10, Scheme::Ab).growth(GrowthConfig::up_to(9)).build();
        assert!(matches!(below, Err(OramError::BadParameter { name: "growth.max_levels", .. })));
        let huge = OramConfig::builder(8, Scheme::Ab).growth(GrowthConfig::up_to(64)).build();
        assert!(matches!(huge, Err(OramError::BadParameter { name: "growth.max_levels", .. })));
    }

    /// The parameter a geometry is refused for, if the bucket record
    /// cannot hold it.
    fn record_refusal(levels: u8, level: LevelConfig) -> Option<&'static str> {
        let geo = TreeGeometry::uniform(levels, level).unwrap();
        match crate::metadata::check_record_capacity(&geo) {
            Ok(()) => None,
            Err(OramError::BadParameter { name, .. }) => Some(name),
            Err(other) => panic!("capacity refusals are BadParameter, got {other:?}"),
        }
    }

    #[test]
    fn more_than_five_real_entries_per_bucket_is_refused() {
        assert_eq!(record_refusal(8, LevelConfig::new(5, 3)), None);
        assert_eq!(record_refusal(8, LevelConfig::new(6, 3)), Some("z_real"));
    }

    #[test]
    fn more_than_two_borrowed_slots_per_bucket_is_refused() {
        let dr = LevelConfig::new(5, 1);
        assert_eq!(record_refusal(8, dr.with_dynamic_extension(2)), None);
        assert_eq!(record_refusal(8, dr.with_dynamic_extension(3)), Some("dynamic_s_extension"));
    }

    #[test]
    fn more_than_sixteen_logical_slots_per_bucket_is_refused() {
        // Own slots alone, and own + borrowed: both must fit the 16-bit masks.
        assert_eq!(record_refusal(8, LevelConfig::new(5, 11)), None);
        assert_eq!(record_refusal(8, LevelConfig::new(5, 12)), Some("z_total"));
        assert_eq!(record_refusal(8, LevelConfig::new(5, 9).with_dynamic_extension(2)), None);
        assert_eq!(
            record_refusal(8, LevelConfig::new(5, 10).with_dynamic_extension(2)),
            Some("z_total")
        );
    }

    #[test]
    fn a_tree_deeper_than_the_record_addresses_is_refused() {
        assert!(OramConfig::builder(28, Scheme::Ab).build().is_ok());
        let deep = OramConfig::builder(29, Scheme::Ab).build();
        assert!(matches!(deep, Err(OramError::BadParameter { name: "levels", .. })), "{deep:?}");
        // The closed-form space model keeps the geometry crate's own limit.
        assert!(TreeGeometry::uniform(TreeGeometry::MAX_LEVELS, LevelConfig::new(5, 3)).is_ok());
    }

    #[test]
    fn a_growth_ceiling_deeper_than_the_record_addresses_is_refused() {
        assert!(OramConfig::builder(8, Scheme::Ab).growth(GrowthConfig::up_to(28)).build().is_ok());
        let deep = OramConfig::builder(8, Scheme::Ab).growth(GrowthConfig::up_to(29)).build();
        assert!(
            matches!(deep, Err(OramError::BadParameter { name: "growth.max_levels", .. })),
            "{deep:?}"
        );
    }

    /// The record refuses no configuration the engine can reach: every
    /// scheme, at every `bottom_levels` (1 to L) and `shrink` (0 to S),
    /// builds and passes `check_record_capacity` (the last step of
    /// `geometry`) from the smallest tree to the deepest the record
    /// addresses, and the largest extension any of them configures is
    /// exactly the record's borrowed capacity.
    #[test]
    fn every_scheme_fits_the_record_up_to_the_deepest_tree() {
        for levels in [8, 14, 24, 28] {
            let mut schemes = vec![
                Scheme::PlainRing,
                Scheme::Baseline,
                Scheme::Ir,
                Scheme::Ab,
                Scheme::AbChannelPar,
            ];
            for bottom_levels in 1..=levels {
                schemes.extend([
                    Scheme::Dr { bottom_levels },
                    Scheme::RingShrink { bottom_levels },
                    Scheme::DrPlus { bottom_levels },
                ]);
                schemes.extend((0..=CB_S).map(|shrink| Scheme::Ns { bottom_levels, shrink }));
            }
            let widest = schemes.into_iter().map(|scheme| {
                let geo = OramConfig::builder(levels, scheme)
                    .build()
                    .and_then(|cfg| cfg.geometry())
                    .unwrap_or_else(|e| panic!("{scheme} at L = {levels}: {e}"));
                (0..levels).map(|l| geo.level_config(Level(l)).dynamic_s_extension).max()
            });
            let max = crate::BucketMeta::MAX_BORROWED as u8;
            assert_eq!(widest.max().flatten(), Some(max), "L = {levels}");
        }
    }

    #[test]
    fn scheme_display_names_match_paper() {
        assert_eq!(Scheme::Baseline.to_string(), "Baseline");
        assert_eq!(Scheme::DR.to_string(), "DR");
        assert_eq!(Scheme::NS.to_string(), "NS");
        assert_eq!(Scheme::Ab.to_string(), "AB");
        assert_eq!(Scheme::AbChannelPar.to_string(), "AB-CP");
        assert_eq!(Scheme::Ns { bottom_levels: 3, shrink: 1 }.to_string(), "L3-S1");
        assert_eq!(Scheme::RingShrink { bottom_levels: 4 }.to_string(), "L-4");
    }

    #[test]
    fn ab_channel_par_shares_ab_geometry_but_not_issue_mode() {
        let ab = OramConfig::paper_scale(Scheme::Ab).build().unwrap();
        let cp = OramConfig::paper_scale(Scheme::AbChannelPar).build().unwrap();
        assert_eq!(ab.geometry().unwrap(), cp.geometry().unwrap());
        assert_eq!(Scheme::Ab.issue_mode(), IssueMode::Serial);
        assert_eq!(Scheme::AbChannelPar.issue_mode(), IssueMode::ChannelParallel);
        assert!(Scheme::AbChannelPar.uses_remote_allocation());
        assert_eq!(*Scheme::evaluated().last().unwrap(), Scheme::AbChannelPar);
    }

    #[test]
    fn real_block_count_scales() {
        let cfg = OramConfig::builder(12, Scheme::Baseline).build().unwrap();
        assert_eq!(cfg.real_block_count(), ((1u64 << 12) - 1) * 5 / 2);
    }

    #[test]
    fn deadq_level_boundary() {
        // The paper's 24-level tree keeps DeadQs on levels 18..=23.
        let queues = crate::deadq::DeadQueues::new(24, DEADQ_LEVELS, 1000);
        assert!(queues.tracks(Level(18)) && !queues.tracks(Level(17)));
    }
}

#[cfg(test)]
mod drplus_tests {
    use super::*;
    use aboram_tree::Level;

    #[test]
    fn drplus_keeps_baseline_space_and_extends() {
        let cfg = OramConfig::paper_scale(Scheme::DrPlus { bottom_levels: 6 }).build().unwrap();
        let geo = cfg.geometry().unwrap();
        // Physical allocation identical to the CB baseline (no space saved).
        assert_eq!(geo.level_config(Level(23)).z_total(), 8);
        assert!(geo.level_config(Level(23)).has_dynamic_extension());
        assert!(!geo.level_config(Level(17)).has_dynamic_extension());
        // Extended budget exceeds the baseline's.
        assert_eq!(geo.level_config(Level(23)).sustained_reads_extended(), 9);
        assert_eq!(geo.level_config(Level(17)).sustained_reads(), 7);
        assert_eq!(Scheme::DrPlus { bottom_levels: 6 }.to_string(), "DR+");
    }
}
