pub mod buffer;
pub mod concurrent;
pub mod engine;

pub use concurrent::{ClientSession, ConcurrentEngine};
