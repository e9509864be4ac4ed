//! Store faults under a registry. A publication whose durable append
//! panics is invisible and blocks nothing: `publish` changes the shard
//! only after the append returns, so the registry takes the poisoned lock
//! back over untouched state. A read-through whose fetch fails answers
//! with the general model and leaves the user enrolled.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_serve::{Lookup, RegistryConfig, ShardedRegistry};
use pelican_store::{EnvelopeStore, Fault, FaultPlan, MemBackend, Method, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model(seed: u64) -> SequenceModel {
    SequenceModel::single_lstm(4, 5, 3, 0.0, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn a_publish_that_panics_in_the_store_is_invisible_and_blocks_nothing() {
    let plan = Arc::new(FaultPlan::new(MemBackend::new()));
    let config = StoreConfig { shards: 2, ..StoreConfig::default() };
    let store = EnvelopeStore::open(plan.clone(), config).expect("open an empty store");
    let registry = ShardedRegistry::with_store(
        model(0),
        RegistryConfig { shards: 2, hot_capacity: 4 },
        Arc::new(store),
    );
    // Users 2 and 4 share shard 0.
    let v1 = registry.enroll(2, &model(1));
    registry.enroll(4, &model(2));
    let xs = vec![vec![0.2; 4]; 2];
    let serves = |user: usize, want: &SequenceModel| {
        let (served, lookup) = registry.get(user).expect("the envelope decodes");
        assert_ne!(lookup, Lookup::Fallback, "user {user} fell back to the general model");
        assert_eq!(served.predict_proba(&xs), want.predict_proba(&xs), "user {user}");
    };

    // Plan: the next append panics before it writes.
    plan.arm(Method::Append, 1, Fault::Panic);
    let failed = catch_unwind(AssertUnwindSafe(|| {
        registry.try_enroll_envelope(2, ModelEnvelope::encode(&model(3)))
    }));
    assert!(failed.is_err(), "the armed append must panic");

    // The failed publication is not visible.
    assert_eq!(registry.version_of(2), Some(v1));
    serves(2, &model(1));
    // The next publication to the shard goes through, and is served.
    let v2 = registry.try_enroll_envelope(2, ModelEnvelope::encode(&model(4))).expect("publish");
    assert!(v2 > v1);
    assert_eq!(registry.version_of(2), Some(v2));
    serves(2, &model(4));
    // Another user on the shard is still served.
    serves(4, &model(2));
}

#[test]
fn a_failed_read_through_falls_back_and_the_next_lookup_serves_the_user() {
    let disk = MemBackend::new();
    let config = StoreConfig { shards: 2, ..StoreConfig::default() };
    let registry_config = RegistryConfig { shards: 2, hot_capacity: 4 };
    let store = EnvelopeStore::open(Arc::new(disk.clone()), config).expect("open an empty store");
    ShardedRegistry::with_store(model(0), registry_config, Arc::new(store)).enroll(2, &model(1));

    // Reopen over the same disk: the in-memory maps start empty, so the
    // first lookup reads through to the log, and that read fails.
    let plan = Arc::new(FaultPlan::new(disk));
    let store = EnvelopeStore::open(plan.clone(), config).expect("reopen the store");
    let registry = ShardedRegistry::with_store(model(0), registry_config, Arc::new(store));
    plan.arm(Method::ReadRange, 1, Fault::Error);

    let (_, lookup) = registry.get(2).expect("a store failure is no decode error");
    assert_eq!(lookup, Lookup::Fallback);
    assert_eq!(registry.stats().fallbacks, 1);
    assert!(registry.is_enrolled(2), "a failed read unenrolls nobody");

    let (served, lookup) = registry.get(2).expect("the envelope decodes");
    assert_eq!(lookup, Lookup::Cold);
    let xs = vec![vec![0.2; 4]; 2];
    assert_eq!(served.predict_proba(&xs), model(1).predict_proba(&xs));
}
