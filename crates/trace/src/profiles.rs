//! Benchmark profiles calibrated to the paper's Table IV (SPEC CPU2017) and
//! the PARSEC suite used in Fig. 15.

/// Fractions of the address stream drawn from each behaviour class.
///
/// The three fractions must sum to 1. `streaming` walks the working set
/// sequentially (unit-stride lines, like `lbm`/`xz` stream kernels);
/// `pointer_chase` jumps uniformly at random over the working set (like
/// `mcf`'s sparse-graph walks); `hot_reuse` revisits a small hot subset
/// (capturing the residual locality of low-MPKI codes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddressMix {
    /// Fraction of sequential (streaming) accesses.
    pub streaming: f64,
    /// Fraction of uniform-random (pointer-chasing) accesses.
    pub pointer_chase: f64,
    /// Fraction of accesses to the hot subset (10 % of the working set).
    pub hot_reuse: f64,
}

impl AddressMix {
    /// A streaming-dominated mix (array kernels).
    pub const STREAM: AddressMix =
        AddressMix { streaming: 0.80, pointer_chase: 0.10, hot_reuse: 0.10 };
    /// A pointer-chasing mix (sparse/graph codes).
    pub const CHASE: AddressMix =
        AddressMix { streaming: 0.10, pointer_chase: 0.75, hot_reuse: 0.15 };
    /// A balanced mix.
    pub const MIXED: AddressMix =
        AddressMix { streaming: 0.40, pointer_chase: 0.35, hot_reuse: 0.25 };

    /// Whether the fractions form a distribution (within rounding).
    pub fn is_valid(&self) -> bool {
        let sum = self.streaming + self.pointer_chase + self.hot_reuse;
        (sum - 1.0).abs() < 1e-9
            && self.streaming >= 0.0
            && self.pointer_chase >= 0.0
            && self.hot_reuse >= 0.0
    }
}

/// Which suite a profile belongs to (Table IV vs Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2017 (Table IV).
    Spec2017,
    /// PARSEC (Fig. 15 generalizability study).
    Parsec,
}

/// A synthetic benchmark: name, Table IV MPKI calibration, and address
/// behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// LLC read misses per kilo-instruction.
    pub read_mpki: f64,
    /// LLC write misses per kilo-instruction.
    pub write_mpki: f64,
    /// Working-set size in bytes the addresses are drawn from.
    pub working_set_bytes: u64,
    /// Address behaviour mix.
    pub mix: AddressMix,
}

impl BenchmarkProfile {
    /// Total (read + write) MPKI.
    pub fn total_mpki(&self) -> f64 {
        self.read_mpki + self.write_mpki
    }

    /// Fraction of memory operations that are reads.
    pub fn read_fraction(&self) -> f64 {
        if self.total_mpki() == 0.0 {
            0.5
        } else {
            self.read_mpki / self.total_mpki()
        }
    }
}

const MB: u64 = 1024 * 1024;

/// The 17 SPEC CPU2017 benchmarks of Table IV with the paper's read/write
/// MPKI. Zero-MPKI entries in the paper (e.g. `lbm` read 0) are kept at a
/// small floor so every benchmark still issues both kinds of requests, as
/// real traces do.
///
/// Working-set sizes and mixes are modelling choices (the paper does not
/// publish them): memory-intensive benchmarks get large, streaming sets;
/// `mcf` is pointer-chasing; low-MPKI codes get small, reuse-heavy sets.
pub fn spec2017() -> Vec<BenchmarkProfile> {
    use AddressMix as M;
    let p = |name, read, write, ws, mix| BenchmarkProfile {
        name,
        suite: Suite::Spec2017,
        read_mpki: read,
        write_mpki: write,
        working_set_bytes: ws,
        mix,
    };
    vec![
        // Integer benchmarks.
        p("gcc", 0.1, 0.5, 64 * MB, M::MIXED),
        p("mcf", 28.2, 0.2, 1536 * MB, M::CHASE),
        p("omn", 0.3, 0.06, 128 * MB, M::CHASE),
        p("xal", 0.1, 0.2, 64 * MB, M::MIXED),
        p("x264", 1.6, 2.1, 256 * MB, M::STREAM),
        p("dee", 0.01, 14.7, 1024 * MB, M::STREAM),
        p("xz", 0.01, 15.5, 1024 * MB, M::STREAM),
        p("lee", 0.01, 0.01, 32 * MB, M::MIXED),
        // Floating-point benchmarks.
        p("bwa", 0.01, 4.1, 512 * MB, M::STREAM),
        p("lbm", 0.01, 15.3, 1024 * MB, M::STREAM),
        p("wrf", 0.1, 1.0, 256 * MB, M::STREAM),
        p("cam", 0.01, 7.1, 512 * MB, M::STREAM),
        p("ima", 0.2, 2.1, 256 * MB, M::MIXED),
        p("fot", 0.03, 1.56, 256 * MB, M::STREAM),
        p("rom", 0.01, 13.7, 1024 * MB, M::STREAM),
        p("nab", 0.1, 0.2, 64 * MB, M::MIXED),
        p("cac", 0.01, 5.4, 512 * MB, M::STREAM),
    ]
}

/// Twelve PARSEC-like applications for the Fig. 15 generalizability study.
/// MPKI values follow published PARSEC characterization ranges (the paper
/// does not tabulate them).
pub fn parsec() -> Vec<BenchmarkProfile> {
    use AddressMix as M;
    let p = |name, read: f64, write: f64, ws, mix| BenchmarkProfile {
        name,
        suite: Suite::Parsec,
        read_mpki: read,
        write_mpki: write,
        working_set_bytes: ws,
        mix,
    };
    vec![
        p("blackscholes", 0.3, 0.1, 64 * MB, M::STREAM),
        p("bodytrack", 0.5, 0.2, 64 * MB, M::MIXED),
        p("canneal", 7.8, 1.2, 1024 * MB, M::CHASE),
        p("dedup", 2.2, 1.5, 512 * MB, M::MIXED),
        p("facesim", 3.1, 1.8, 512 * MB, M::STREAM),
        p("ferret", 1.9, 0.6, 256 * MB, M::MIXED),
        p("fluidanimate", 2.4, 1.1, 512 * MB, M::STREAM),
        p("freqmine", 1.2, 0.4, 256 * MB, M::CHASE),
        p("streamcluster", 9.3, 0.8, 1024 * MB, M::STREAM),
        p("swaptions", 0.1, 0.05, 32 * MB, M::MIXED),
        p("vips", 1.4, 1.0, 256 * MB, M::STREAM),
        p("x264-p", 1.8, 1.9, 256 * MB, M::STREAM),
    ]
}

/// The three benchmarks Fig. 2 plots individually.
pub fn fig2_benchmarks() -> Vec<&'static str> {
    vec!["mcf", "lbm", "xz"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_has_17_benchmarks() {
        let s = spec2017();
        assert_eq!(s.len(), 17);
        assert!(s.iter().all(|p| p.suite == Suite::Spec2017));
        // Spot-check Table IV entries.
        let mcf = s.iter().find(|p| p.name == "mcf").unwrap();
        assert_eq!(mcf.read_mpki, 28.2);
        assert_eq!(mcf.write_mpki, 0.2);
        let xz = s.iter().find(|p| p.name == "xz").unwrap();
        assert_eq!(xz.write_mpki, 15.5);
    }

    #[test]
    fn parsec_has_12_benchmarks() {
        let p = parsec();
        assert_eq!(p.len(), 12);
        assert!(p.iter().all(|b| b.suite == Suite::Parsec));
    }

    #[test]
    fn all_mixes_are_distributions() {
        for b in spec2017().into_iter().chain(parsec()) {
            assert!(b.mix.is_valid(), "{} has invalid mix", b.name);
            assert!(b.total_mpki() > 0.0);
            assert!(b.working_set_bytes >= 32 * MB);
        }
    }

    #[test]
    fn read_fraction_and_gap() {
        let s = spec2017();
        let mcf = s.iter().find(|p| p.name == "mcf").unwrap();
        assert!(mcf.read_fraction() > 0.99);
    }

    #[test]
    fn fig2_benchmarks_exist_in_spec() {
        let names: Vec<_> = spec2017().iter().map(|p| p.name).collect();
        for b in fig2_benchmarks() {
            assert!(names.contains(&b));
        }
    }
}
