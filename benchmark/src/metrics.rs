//! The metric tables: every name the benchmark reports, with its unit and
//! the clock it is measured on. `BENCHMARK.json` lists the same names; a
//! unit test keeps the two in step.

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated: a pure function of `(workload, seed, size)`, identical in
    /// the traced and the untraced run, and folded into `sim_digest`.
    Sim,
    /// Simulated, but produced by a side run only the traced run makes, so
    /// it is deterministic for a seed yet left out of `sim_digest`.
    SimTraced,
    /// Host wall-clock (or host memory): noisy, no external reference.
    Host,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
}

const fn sim(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, clock: Clock::Sim }
}

const fn sim_traced(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, clock: Clock::SimTraced }
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, clock: Clock::Host }
}

/// End-to-end metrics, printed by `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s"),
    host("host_ops_per_s", "1/s"),
    host("peak_rss_mib", "MiB"),
    sim("sim_cycles_per_op", "cycles"),
    sim("sim_lat_mean_cycles", "cycles"),
    sim("sim_lat_p50_cycles", "cycles"),
    sim("sim_lat_p99_cycles", "cycles"),
];

/// Per-layer metrics, printed by `--trace 1`. A layer a workload does not
/// run reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    host("tree.host_ns_per_path", "ns"),
    sim("tree.space_norm_vs_baseline", "ratio"),
    host("ring.host_ns_per_op", "ns"),
    sim("ring.transfers_per_op", "count"),
    sim("ring.online_transfers_per_op", "count"),
    sim("ring.evict_paths_per_op", "count"),
    sim("ring.early_reshuffles_per_op", "count"),
    sim("ring.background_per_op", "count"),
    sim("ring.remote_reads_per_op", "count"),
    sim("ring.extension_ratio", "ratio"),
    sim("ring.dead_total", "count"),
    sim("ring.stash_peak", "count"),
    sim("ring.stash_p99", "count"),
    host("driver.host_self_ns_per_op", "ns"),
    sim("driver.sim_online_lat_mean_cycles", "cycles"),
    sim("driver.sim_ipc", "ratio"),
    sim("driver.sim_bytes_per_op", "bytes"),
    sim("driver.bus_share_readpath", "ratio"),
    sim("driver.bus_share_evictpath", "ratio"),
    sim("driver.bus_share_reshuffle", "ratio"),
    sim("driver.bus_share_metadata", "ratio"),
    sim("driver.bus_share_background", "ratio"),
    sim_traced("driver.sim_time_norm_vs_baseline", "ratio"),
    host("dram.host_ns_per_request", "ns"),
    sim("dram.requests_per_op", "count"),
    sim("dram.sim_cycles_per_request", "cycles"),
    sim("dram.row_hit_rate", "ratio"),
    sim("dram.online_share", "ratio"),
    sim("dram.channel_imbalance", "ratio"),
    sim("dram.stall_cycles", "cycles"),
    host("crypto.host_ns_per_burst", "ns"),
    host("crypto.host_ns_per_seal", "ns"),
    host("crypto.host_ns_per_open", "ns"),
    host("crypto.host_ns_per_tag", "ns"),
    host("trace.host_ns_per_record", "ns"),
    host("trace.host_ns_per_key", "ns"),
    sim("trace.read_share", "ratio"),
    host("backend.untimed_host_ns_per_op", "ns"),
    host("backend.timed_host_ns_per_op", "ns"),
    sim_traced("backend.timed_sim_lat_mean_cycles", "cycles"),
    host("posmap.host_ns_per_resolve", "ns"),
    sim("posmap.chain_depth", "count"),
    sim("posmap.tree_accesses_per_request", "count"),
    sim("posmap.dummy_tree_accesses_per_request", "count"),
    sim("posmap.verified_entries", "count"),
    host("store.host_self_ns_per_request", "ns"),
    sim("store.data_accesses", "count"),
    sim("store.dummy_share", "ratio"),
    sim("store.misses", "count"),
    host("batch.host_self_ns_per_request", "ns"),
    sim("batch.coalesced_share", "ratio"),
    sim("batch.dummy_slot_share", "ratio"),
    sim("batch.rejected", "count"),
    sim("batch.queue_wait_mean_cycles", "cycles"),
    sim("batch.service_mean_cycles", "cycles"),
    sim("batch.busy_frac", "ratio"),
    host("bench.trace_overhead_share", "ratio"),
    host("bench.layers_sum_over_e2e", "ratio"),
    host("host.nproc", "count"),
    host("host.calib_chase_ns", "ns"),
    host("host.calib_alu_ns", "ns"),
];

/// Measured values, keyed by metric name. A name outside both tables is a
/// bug in the benchmark and panics at the `set` call that introduces it.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric `{name}` is not in the metric tables"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The measured value, or 0 for a layer this workload does not run.
    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
    }

    /// FNV-1a over the name and the exact bit pattern of every metric on the
    /// [`Clock::Sim`] clock, in table order.
    pub fn sim_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for m in END_TO_END.iter().chain(PER_LAYER).filter(|m| m.clock == Clock::Sim) {
            eat(m.name.as_bytes());
            eat(&self.get(m.name).to_bits().to_le_bytes());
        }
        h
    }

    /// The `"metrics"` object of the result line for one table.
    pub fn json_object(&self, table: &[MetricDef]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.get(m.name),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_match_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Workload names are the only other `"name"` entries.
        let listed = manifest.matches("\"name\": ").count();
        assert_eq!(listed, seen.len() + crate::workloads::WORKLOADS.len());
    }

    #[test]
    fn digest_covers_sim_values_only() {
        let mut a = Values::default();
        a.set("sim_cycles_per_op", 10.0);
        a.set("host_ops_per_s", 1.0);
        let mut b = a.clone();
        b.set("host_ops_per_s", 2.0);
        b.set("driver.sim_time_norm_vs_baseline", 1.04);
        assert_eq!(a.sim_digest(), b.sim_digest());
        b.set("sim_cycles_per_op", 10.000_000_1);
        assert_ne!(a.sim_digest(), b.sim_digest());
    }

    #[test]
    #[should_panic(expected = "not in the metric tables")]
    fn unknown_names_are_rejected() {
        Values::default().set("ring.typo", 1.0);
    }
}
