//! Running statistics and human-readable formatting helpers.

use serde::{Deserialize, Serialize};

/// Online mean / min / max / variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Minimum observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Format a large count with thousands separators (`16465930` → `"16 465 930"`),
/// matching the presentation style of the paper's Figure 3 table.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(*b as char);
    }
    out
}

/// Format a nanosecond duration in the most readable unit.
pub fn fmt_duration_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Format a byte count in binary units.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{:.2} {}", value, UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_basic() {
        let mut r = Running::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 5);
        assert!((r.mean() - 3.0).abs() < 1e-12);
        assert!((r.variance() - 2.0).abs() < 1e-12);
        assert_eq!(r.min(), 1.0);
        assert_eq!(r.max(), 5.0);
    }

    #[test]
    fn running_empty() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
    }

    #[test]
    fn fmt_count_groups_digits() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1 000");
        assert_eq!(fmt_count(16_465_930), "16 465 930");
        assert_eq!(fmt_count(129_317), "129 317");
    }

    #[test]
    fn fmt_duration_picks_unit() {
        assert_eq!(fmt_duration_ns(500), "500 ns");
        assert_eq!(fmt_duration_ns(1_500), "1.50 µs");
        assert_eq!(fmt_duration_ns(450_000), "450.00 µs");
        assert_eq!(fmt_duration_ns(80_000_000), "80.00 ms");
        assert_eq!(fmt_duration_ns(2_000_000_000), "2.00 s");
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(4096), "4.00 KiB");
        assert_eq!(fmt_bytes(10 * 1024 * 1024 * 1024), "10.00 GiB");
    }
}
