//! Seeded-violation fixture: a second lock below the engine lock.

use parking_lot::Mutex;

pub struct BufferPool {
    frames: Mutex<Vec<Frame>>,
}

impl BufferPool {
    pub fn resident(&self) -> usize {
        self.frames.lock().len()
    }
}
