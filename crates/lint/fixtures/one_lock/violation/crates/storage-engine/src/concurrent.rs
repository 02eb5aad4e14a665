//! Seeded-violation fixture: the engine lock, then every way of holding it
//! too long or taking it twice.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

pub struct ConcurrentEngine {
    inner: Arc<Mutex<Engine>>,
    stats: RwLock<Stats>,
}

impl ConcurrentEngine {
    pub fn committed(&self) -> u64 {
        self.inner.lock().committed()
    }

    pub fn log_forces(&self) -> u64 {
        self.inner.lock().log_forces()
    }

    pub fn let_bound(&self) -> usize {
        let engine = self.inner.lock();
        engine.resident()
    }

    pub fn twice(&self) -> u64 {
        self.inner.lock().committed() + self.inner.lock().log_forces()
    }

    pub fn through_self(&self) -> u64 {
        self.inner.lock().log_forces() + self.committed()
    }

    pub fn block_header(&self) -> u64 {
        match self.inner.lock().last_commit() {
            Some(t) => t,
            None => 0,
        }
    }
}

pub struct ClientSession {
    engine: ConcurrentEngine,
}

impl ClientSession {
    pub fn commit(&mut self, txn: u64) -> u64 {
        self.engine.inner.lock().commit(txn) + self.engine.log_forces()
    }
}
