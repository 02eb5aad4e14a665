//! Clean fixture: the crate root re-exports the handles; its docs may name
//! [`ConcurrentEngine`] and test code may use its own locks.

pub mod concurrent;

pub use concurrent::{ClientSession, ConcurrentEngine};

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn test_code_may_lock() {
        let bad = Mutex::new(0u32);
        *bad.lock().unwrap() += 1;
    }
}
