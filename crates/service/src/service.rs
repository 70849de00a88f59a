//! Multi-tenant serving: isolated stores behind one submission surface,
//! plus the latency reporting the load generators share.
//!
//! Tenants are *fully* isolated: each owns its trees, its recursion
//! ladder, its batch schedule and its timeline. Nothing is shared, so one
//! tenant's traffic cannot perturb another's timing — the multi-tenant
//! analogue of the batch being the privacy unit.

use crate::batch::{AdmissionRejected, BatchConfig, BatchingFrontEnd, Completion, Request};
use crate::store::{ObliviousStore, StoreConfig};
use aboram_core::OramError;

/// One tenant's full configuration.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (reports, telemetry).
    pub name: String,
    /// The tenant's store (tree, scheme, backend).
    pub store: StoreConfig,
    /// The tenant's batch schedule.
    pub batch: BatchConfig,
}

/// A set of isolated tenants.
pub struct ObliviousService {
    tenants: Vec<(String, BatchingFrontEnd)>,
}

impl std::fmt::Debug for ObliviousService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObliviousService")
            .field("tenants", &self.tenants.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .finish()
    }
}

impl ObliviousService {
    /// Builds every tenant's store and front-end.
    ///
    /// # Errors
    ///
    /// Propagates engine construction errors.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list.
    pub fn new(specs: &[TenantSpec]) -> Result<Self, OramError> {
        assert!(!specs.is_empty(), "a service needs at least one tenant");
        let mut tenants = Vec::with_capacity(specs.len());
        for spec in specs {
            let store = ObliviousStore::new(&spec.store)?;
            tenants.push((spec.name.clone(), BatchingFrontEnd::new(store, spec.batch)));
        }
        Ok(ObliviousService { tenants })
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Submits to tenant `tenant`'s queue at time `now`.
    ///
    /// # Errors
    ///
    /// [`AdmissionRejected`] when that tenant's queue is full.
    pub fn submit(
        &mut self,
        tenant: usize,
        now: u64,
        req: Request,
    ) -> Result<u64, AdmissionRejected> {
        self.tenants[tenant].1.submit(now, req)
    }

    /// Advances every tenant's schedule to `now`; completions are tagged
    /// with their tenant index.
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors.
    pub fn advance_to(&mut self, now: u64) -> Result<Vec<(usize, Completion)>, OramError> {
        let mut out = Vec::new();
        for (idx, (_, fe)) in self.tenants.iter_mut().enumerate() {
            out.extend(fe.advance_to(now)?.into_iter().map(|c| (idx, c)));
        }
        Ok(out)
    }

    /// Drains every tenant's queue.
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors.
    pub fn drain(&mut self) -> Result<Vec<(usize, Completion)>, OramError> {
        let mut out = Vec::new();
        for (idx, (_, fe)) in self.tenants.iter_mut().enumerate() {
            out.extend(fe.drain()?.into_iter().map(|c| (idx, c)));
        }
        Ok(out)
    }

    /// One tenant's front-end.
    pub fn front(&self, tenant: usize) -> &BatchingFrontEnd {
        &self.tenants[tenant].1
    }
}

/// Latency distribution summary for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyReport {
    /// Completions observed.
    pub count: usize,
    /// Mean latency.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst case.
    pub max: u64,
}

impl LatencyReport {
    /// Summarizes a latency sample; `None` when empty.
    pub fn from_latencies(mut lat: Vec<u64>) -> Option<Self> {
        if lat.is_empty() {
            return None;
        }
        lat.sort_unstable();
        let count = lat.len();
        let sum: u64 = lat.iter().sum();
        Some(LatencyReport {
            count,
            mean: sum as f64 / count as f64,
            p50: percentile(&lat, 50.0),
            p95: percentile(&lat, 95.0),
            p99: percentile(&lat, 99.0),
            max: *lat.last().unwrap(),
        })
    }
}

/// Nearest-rank percentile over an ascending-sorted sample.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile rank out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_core::Scheme;

    #[test]
    fn tenants_are_isolated() {
        let spec = |name: &str, seed: u64| TenantSpec {
            name: name.to_string(),
            store: {
                let mut s = StoreConfig::new(8, Scheme::Ab);
                s.seed = seed;
                s
            },
            batch: BatchConfig {
                batch_size: 2,
                period: 1_000,
                queue_capacity: 8,
                pipelined: false,
            },
        };
        let mut svc = ObliviousService::new(&[spec("alpha", 1), spec("beta", 2)]).unwrap();
        assert_eq!(svc.tenant_count(), 2);
        svc.submit(0, 0, Request::Put { key: b"k".to_vec(), value: b"from-alpha".to_vec() })
            .unwrap();
        svc.submit(1, 0, Request::Get { key: b"k".to_vec() }).unwrap();
        let done = svc.advance_to(1_000).unwrap();
        let beta_get = done.iter().find(|(t, _)| *t == 1).unwrap();
        assert_eq!(beta_get.1.value, None, "beta cannot see alpha's key");
        assert_eq!(svc.front(0).store().len(), 1);
        assert_eq!(svc.front(1).store().len(), 0);
    }

    #[test]
    fn latency_report_percentiles() {
        let lat: Vec<u64> = (1..=100).collect();
        let r = LatencyReport::from_latencies(lat).unwrap();
        assert_eq!(r.count, 100);
        assert_eq!(r.p50, 50);
        assert_eq!(r.p95, 95);
        assert_eq!(r.p99, 99);
        assert_eq!(r.max, 100);
        assert!((r.mean - 50.5).abs() < 1e-9);
        assert_eq!(LatencyReport::from_latencies(vec![]), None);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[42], 99.0), 42);
    }
}
