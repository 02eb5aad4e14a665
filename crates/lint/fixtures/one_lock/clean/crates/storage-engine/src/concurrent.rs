//! Clean fixture: the one engine lock, taken only as a temporary of one
//! statement.  A `Mutex<_>` named in a comment is not a lock.

use std::sync::Arc;

use parking_lot::Mutex;

pub struct ConcurrentEngine {
    inner: Arc<Mutex<Engine>>,
}

impl ConcurrentEngine {
    pub fn new(engine: Engine) -> Self {
        Self {
            inner: Arc::new(Mutex::new(engine)),
        }
    }

    pub fn committed(&self) -> u64 {
        self.inner.lock().committed()
    }

    pub fn shard_occupancy(&self) -> Vec<(usize, usize)> {
        self.inner
            .lock()
            .shards()
            .iter()
            .map(|s| (s.resident(), s.dirty_count()))
            .collect()
    }

    pub fn with_backend<R>(&self, f: impl FnOnce(&mut dyn Backend) -> R) -> R {
        f(self.inner.lock().backend_mut())
    }

    pub fn session(&self) -> ClientSession {
        ClientSession {
            engine: ConcurrentEngine {
                inner: Arc::clone(&self.inner),
            },
        }
    }
}

pub struct ClientSession {
    engine: ConcurrentEngine,
}

impl ClientSession {
    pub fn commit(&mut self, txn: u64) -> u64 {
        let t = self.engine.inner.lock().commit(txn)?;
        let before = self.engine.committed();
        t + before
    }
}
