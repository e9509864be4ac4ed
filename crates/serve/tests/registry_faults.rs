//! A publication whose durable append panics is invisible and blocks
//! nothing: `publish` changes the shard only after the append returns, so
//! the registry takes the poisoned lock back over untouched state.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_serve::{Lookup, RegistryConfig, ShardedRegistry};
use pelican_store::{Bytes, EnvelopeStore, MemBackend, StorageBackend, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A backend that panics once in `append`, before writing, when armed.
#[derive(Debug)]
struct PanicsOnce {
    disk: MemBackend,
    armed: AtomicBool,
}

impl StorageBackend for PanicsOnce {
    fn read(&self, name: &str) -> io::Result<Bytes> {
        self.disk.read(name)
    }
    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Bytes> {
        self.disk.read_range(name, offset, len)
    }
    fn append(&self, name: &str, bytes: Bytes) -> io::Result<()> {
        assert!(!self.armed.swap(false, Ordering::SeqCst), "backend fault before the write");
        self.disk.append(name, bytes)
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        self.disk.sync(name)
    }
    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.disk.truncate(name, len)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.disk.remove(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.disk.list()
    }
    fn size(&self, name: &str) -> io::Result<u64> {
        self.disk.size(name)
    }
}

fn model(seed: u64) -> SequenceModel {
    SequenceModel::single_lstm(4, 5, 3, 0.0, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn a_publish_that_panics_in_the_store_is_invisible_and_blocks_nothing() {
    let backend = Arc::new(PanicsOnce { disk: MemBackend::new(), armed: AtomicBool::new(false) });
    let config = StoreConfig { shards: 2, ..StoreConfig::default() };
    let store = EnvelopeStore::open(backend.clone(), config).expect("open an empty store");
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

    backend.armed.store(true, Ordering::SeqCst);
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
