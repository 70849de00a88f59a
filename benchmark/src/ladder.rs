//! The layer ladder: one input pushed through successively taller stacks.
//!
//! Each rung is timed as a whole from the benchmark, around public calls. A
//! rung's height is the host time per operation of everything up to and
//! including its layer; a layer's self time is the difference between its
//! rung and the one below, so the self times sum to the top rung exactly.

/// Rungs in stacking order, bottom first.
#[derive(Debug, Default)]
pub struct Ladder {
    rungs: Vec<(&'static str, f64)>,
}

impl Ladder {
    /// Adds a rung of absolute height `ns_per_op`, named after the layer it
    /// adds on top of the previous rung.
    pub fn rung(&mut self, layer: &'static str, ns_per_op: f64) {
        self.rungs.push((layer, ns_per_op));
    }

    /// Adds a rung `ns_per_op` above the current top — for a layer timed in
    /// isolation (a bare replay) rather than inside a taller stack.
    pub fn stack(&mut self, layer: &'static str, ns_per_op: f64) {
        self.rung(layer, self.top() + ns_per_op);
    }

    /// Height of the top rung (0 for an empty ladder).
    pub fn top(&self) -> f64 {
        self.rungs.last().map_or(0.0, |r| r.1)
    }

    /// Self time of `layer` in ns per op (0 if the ladder has no such rung).
    /// Noise between two separately timed rungs can make it negative; it is
    /// reported as measured.
    pub fn self_ns(&self, layer: &str) -> f64 {
        self.self_times().into_iter().find(|(l, _)| *l == layer).map_or(0.0, |(_, ns)| ns)
    }

    /// Every layer's self time, bottom first.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut below = 0.0;
        self.rungs
            .iter()
            .map(|&(layer, height)| {
                let own = height - below;
                below = height;
                (layer, own)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_top_rung() {
        let mut l = Ladder::default();
        l.rung("trace", 41.5);
        l.rung("ring", 6_203.25);
        l.stack("dram", 3_120.0);
        l.rung("driver", 13_377.125);
        let selfs = l.self_times();
        assert_eq!(selfs.len(), 4);
        let sum: f64 = selfs.iter().map(|s| s.1).sum();
        assert!((sum - l.top()).abs() < 1e-6, "sum {sum} vs top {}", l.top());
        assert_eq!(l.self_ns("trace"), 41.5);
        assert_eq!(l.self_ns("dram"), 3_120.0);
        assert!((l.self_ns("driver") - (13_377.125 - 6_203.25 - 3_120.0)).abs() < 1e-9);
        assert_eq!(l.self_ns("absent"), 0.0);
    }

    #[test]
    fn a_noisy_lower_rung_yields_a_negative_self_time_not_a_clamp() {
        let mut l = Ladder::default();
        l.rung("a", 10.0);
        l.rung("b", 9.0);
        l.rung("c", 12.0);
        assert_eq!(l.self_ns("b"), -1.0);
        let sum: f64 = l.self_times().iter().map(|s| s.1).sum();
        assert_eq!(sum, 12.0);
    }
}
