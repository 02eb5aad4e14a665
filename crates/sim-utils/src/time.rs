//! Simulated-time base types.
//!
//! The entire NoFTL stack runs on a *virtual* clock measured in nanoseconds.
//! Using plain `u64` nanosecond counts (instead of `std::time`) keeps the
//! simulation deterministic and independent of host speed, and makes the
//! arithmetic in the device schedulers trivial.

/// A point in simulated time, in nanoseconds since simulation start.
pub type SimInstant = u64;

/// A span of simulated time, in nanoseconds.
pub type SimDuration = u64;

/// Nanoseconds per microsecond.
pub const MICROS: u64 = 1_000;

/// Nanoseconds per millisecond.
pub const MILLIS: u64 = 1_000_000;

/// Nanoseconds per second.
pub const SECONDS: u64 = 1_000_000_000;

/// Convert a microsecond count into a [`SimDuration`].
#[inline]
pub const fn micros(us: u64) -> SimDuration {
    us * MICROS
}

/// Convert a millisecond count into a [`SimDuration`].
#[inline]
pub const fn millis(ms: u64) -> SimDuration {
    ms * MILLIS
}

/// Convert a second count into a [`SimDuration`].
#[inline]
pub const fn seconds(s: u64) -> SimDuration {
    s * SECONDS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(micros(1), 1_000);
        assert_eq!(millis(1), 1_000_000);
        assert_eq!(seconds(1), 1_000_000_000);
        assert_eq!(micros(1_000), millis(1));
        assert_eq!(millis(1_000), seconds(1));
    }
}
