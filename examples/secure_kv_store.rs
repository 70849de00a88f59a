//! An oblivious key-value store on the AB-ORAM service layer — the kind of
//! secure-cloud-storage deployment the paper's introduction motivates.
//!
//! [`ObliviousStore`] resolves every key through a recursive position map
//! and serves it with one data-tree access. A get that hits, a get that
//! misses and a put each cost one chain walk plus one data access (a miss
//! pays them in dummies), so a bus-level observer learns neither which
//! records are hot nor whether a request hit, missed or wrote. The demo
//! prints each request kind's access counts to show the equal cost, then
//! runs the attacker experiment of §VI-C against the data tree's
//! configuration.
//!
//! Run with: `cargo run --release --example secure_kv_store`

use aboram::core::{OramConfig, OramError, Scheme};
use aboram::service::{ObliviousStore, StoreConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Data-tree and posmap-tree accesses, real and dummy, performed so far.
fn accesses(kv: &ObliviousStore) -> (u64, u64) {
    let (s, p) = (kv.stats(), kv.posmap().stats());
    (s.data_accesses + s.dummy_data_accesses, p.tree_accesses + p.dummy_tree_accesses)
}

fn main() -> Result<(), OramError> {
    let mut kv = ObliviousStore::new(&StoreConfig::new(12, Scheme::Ab))?;
    println!(
        "oblivious KV store over AB-ORAM ({} keys, position-map chain depth {})\n",
        kv.capacity(),
        kv.posmap().chain_depth()
    );

    // Each request kind → the set of distinct (data-tree, posmap) access
    // counts its requests cost.
    let mut costs: BTreeMap<&str, BTreeSet<(u64, u64)>> = BTreeMap::new();
    let mut record =
        |kv: &mut ObliviousStore, kind, request: &mut dyn FnMut(&mut ObliviousStore)| {
            let (data0, posmap0) = accesses(kv);
            request(kv);
            let (data1, posmap1) = accesses(kv);
            costs.entry(kind).or_default().insert((data1 - data0, posmap1 - posmap0));
        };

    // A mock user table.
    let mut reference = HashMap::new();
    for i in 0..64 {
        let key = format!("user:{i:04}");
        let value = format!("name=user{i};plan={}", if i % 3 == 0 { "pro" } else { "free" });
        record(&mut kv, "put (insert)", &mut |kv| kv.put(key.as_bytes(), value.as_bytes()));
        reference.insert(key, value);
    }

    // Point lookups, hits and misses, then overwrites.
    let (mut hits, mut misses) = (0, 0);
    for i in 0..80 {
        let key = format!("user:{i:04}");
        let mut found = None;
        let kind = if i < 64 { "get (hit)" } else { "get (miss)" };
        record(&mut kv, kind, &mut |kv| found = kv.get(key.as_bytes()));
        match found {
            Some(v) => {
                let expected = reference.get(&key).expect("tracked key").as_bytes();
                assert_eq!(v, expected, "store must return what was put");
                hits += 1;
            }
            None => {
                assert!(i >= 64, "stored keys must be found");
                misses += 1;
            }
        }
    }
    for i in (0..64).step_by(8) {
        let key = format!("user:{i:04}");
        record(&mut kv, "put (overwrite)", &mut |kv| kv.put(key.as_bytes(), b"plan=closed"));
    }
    println!("lookups: {hits} hits, {misses} misses (all verified)\n");

    println!("accesses per request (data tree, position-map trees):");
    for (kind, set) in &costs {
        println!("  {kind:<16}: {set:?}");
    }
    let all: BTreeSet<_> = costs.values().flatten().collect();
    assert_eq!(all.len(), 1, "every request must cost the same accesses");

    let s = kv.data_engine().stats();
    println!("\nORAM work performed in the data tree:");
    println!("  online accesses : {}", s.user_accesses);
    println!("  evictPaths      : {}", s.evict_paths);
    println!("  earlyReshuffles : {}", s.reshuffles.total());
    println!("  stash peak      : {}", kv.data_engine().stash_peak());

    // §VI-C attacker check against this deployment's configuration: a
    // bus observer guessing which returned block is real succeeds ~1/L.
    let cfg = OramConfig::builder(12, Scheme::Ab).seed(99).build()?;
    let report = aboram::core::attack_success_rate(&cfg, 20_000)?;
    println!("\nempirical security (20k observed accesses):");
    println!("  attacker success rate : {:.5}", report.success_rate());
    println!("  ideal (1/L)           : {:.5}", report.ideal_rate());
    Ok(())
}
