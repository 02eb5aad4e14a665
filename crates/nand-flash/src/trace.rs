//! Command tracing.
//!
//! The paper's Figure 3 experiment is *off-line trace-driven*: page-level
//! traces recorded from in-memory benchmark runs are replayed against
//! different Flash-management schemes.  [`Tracer`] records the native Flash
//! commands a device executes so experiments can audit exactly what an FTL
//! did, and so traces can be replayed deterministically.

use sim_utils::time::SimInstant;

use crate::addr::{BlockAddr, Ppa};
use crate::interface::OpKind;

/// One traced native Flash command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Kind of command.
    pub kind: OpKind,
    /// Issue time (virtual).
    pub issued_at: SimInstant,
    /// Completion time (virtual).
    pub completed_at: SimInstant,
    /// Target page, for page-granularity commands.
    pub ppa: Option<Ppa>,
    /// Target block, for erase commands.
    pub block: Option<BlockAddr>,
    /// Logical page number involved, if known.
    pub lpn: Option<u64>,
}

/// Bounded in-memory command trace.
///
/// Tracing is off by default; experiments that need a full audit enable it
/// with a capacity bound so multi-billion-operation runs cannot exhaust RAM.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    entries: Vec<TraceEntry>,
    dropped: u64,
}

impl Tracer {
    /// Create a disabled tracer.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Create an enabled tracer that keeps at most `capacity` entries and
    /// counts (but drops) the rest.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            enabled: true,
            capacity,
            entries: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether tracing is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an entry (no-op when disabled).
    pub fn record(&mut self, entry: TraceEntry) {
        if !self.enabled {
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.dropped += 1;
        }
    }

    /// Entries recorded so far.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries dropped because the capacity bound was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clear recorded entries (keeps the enabled flag and capacity).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: OpKind, t: SimInstant) -> TraceEntry {
        TraceEntry {
            kind,
            issued_at: t,
            completed_at: t + 1,
            ppa: None,
            block: None,
            lpn: None,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(entry(OpKind::Read, 0));
        assert!(t.entries().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn capacity_bound_is_respected() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.record(entry(OpKind::Program, i));
        }
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn clear_resets() {
        let mut t = Tracer::with_capacity(8);
        t.record(entry(OpKind::Erase, 0));
        t.clear();
        assert!(t.entries().is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(t.is_enabled());
    }
}
