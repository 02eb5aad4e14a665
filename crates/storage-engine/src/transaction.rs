//! Transaction manager: begin / commit / abort with WAL integration.
//!
//! Concurrency control is not the subject of the paper (its experiments vary
//! the storage stack, not the isolation level), so transactions here are
//! redo-logged units of work without lock management: the workload drivers
//! interleave transactions cooperatively, and correctness of the storage
//! stack underneath is what the tests check.

use nand_flash::FlashResult;
use sim_utils::time::SimInstant;

use crate::backend::StorageBackend;
use crate::wal::{LogRecord, WalManager};

/// Transaction identifier.
pub type TxnId = u64;

/// Commit-admission window: the bounded-queueing policy of the
/// `StackConfig::slo` overload bundle.  A new transaction is admitted immediately while the WAL
/// has fewer than [`AdmissionConfig::max_inflight_groups`] group commits
/// genuinely in flight *and* the buffer pool is below
/// [`AdmissionConfig::dirty_high_watermark`]; otherwise it waits on the
/// virtual clock for the pressure to clear, and a wait that would pass
/// [`AdmissionConfig::deadline_ns`] is shed with a typed
/// [`crate::EngineError::Overloaded`] instead of queueing without bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum WAL group commits genuinely in flight (completion still in
    /// the future) before new transactions wait.  `0` means every begin
    /// checks the horizon; it still admits once nothing can clear (an empty
    /// window never livelocks).
    pub max_inflight_groups: usize,
    /// Dirty-pool fraction above which new transactions wait for a flusher
    /// cycle before being admitted.
    pub dirty_high_watermark: f64,
    /// Longest virtual-time wait an arrival tolerates before it is shed.
    pub deadline_ns: u64,
}

impl AdmissionConfig {
    /// Whether an arrival must wait: the WAL group window is full or the
    /// dirty pool passed the high watermark.
    pub fn over_pressure(&self, inflight_groups: usize, dirty_fraction: f64) -> bool {
        inflight_groups >= self.max_inflight_groups || dirty_fraction >= self.dirty_high_watermark
    }

    /// Latest instant an arrival at `arrival` may still be admitted.
    pub fn deadline(&self, arrival: SimInstant) -> SimInstant {
        arrival.saturating_add(self.deadline_ns)
    }
}

impl Default for AdmissionConfig {
    /// Defaults tuned against the SLO bench fixture: a 4-group window, the
    /// pool's emergency dirty level, and a 20 ms virtual deadline (hundreds
    /// of flash page programs — a real wait, not a hair trigger).
    fn default() -> Self {
        Self {
            max_inflight_groups: 4,
            dirty_high_watermark: 0.9,
            deadline_ns: 20_000_000,
        }
    }
}

/// Truthful admission accounting: every [`AdmissionControl::note_admitted`]
/// or [`AdmissionControl::note_shed`] call lands in exactly one of
/// `admitted` / `shed`, and `delayed` counts the admitted subset that waited
/// (so `admitted + shed` equals the begin attempts a client observed, and
/// `delayed <= admitted`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Transactions admitted (immediately or after a wait).
    pub admitted: u64,
    /// Admitted transactions that waited past their arrival instant.
    pub delayed: u64,
    /// Transactions shed with [`crate::EngineError::Overloaded`].
    pub shed: u64,
    /// Total virtual nanoseconds admitted transactions spent waiting.
    pub total_delay_ns: u64,
}

/// Admission-control state an engine embeds: the configured window plus the
/// truthful counters.  The engine owns the pressure probes (WAL in-flight
/// groups, dirty fraction) and the relieving actions; the window's
/// [`AdmissionConfig::over_pressure`] and [`AdmissionConfig::deadline`]
/// decide, and this type accounts.
#[derive(Debug, Clone, Default)]
pub struct AdmissionControl {
    config: AdmissionConfig,
    stats: AdmissionStats,
}

impl AdmissionControl {
    /// Admission control with the given window.
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            stats: AdmissionStats::default(),
        }
    }

    /// The configured window.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Current counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Account one admission; a wait (`admitted_at > arrival`) also counts
    /// as delayed.
    pub fn note_admitted(&mut self, arrival: SimInstant, admitted_at: SimInstant) {
        self.stats.admitted += 1;
        if admitted_at > arrival {
            self.stats.delayed += 1;
            self.stats.total_delay_ns += admitted_at - arrival;
        }
    }

    /// Account one shed arrival.
    pub fn note_shed(&mut self) {
        self.stats.shed += 1;
    }
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Running.
    Active,
    /// Successfully committed (log forced).
    Committed,
    /// Rolled back.
    Aborted,
}

/// Book-keeping for transactions.
#[derive(Debug, Default)]
pub struct TransactionManager {
    next_txn: TxnId,
    committed: u64,
    aborted: u64,
}

impl TransactionManager {
    /// Create an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new transaction, logging its Begin record.
    pub fn begin(&mut self, wal: &mut WalManager) -> TxnId {
        self.next_txn += 1;
        let txn = self.next_txn;
        wal.append(LogRecord::Begin { txn });
        txn
    }

    /// Commit: append the Commit record and force the log through the WAL's
    /// group-commit policy — the force batches every record buffered since
    /// the last force (all transactions), and may itself be deferred until
    /// enough commits are pending ([`WalManager::set_group_commit`]).
    /// Returns the virtual time after the (possibly deferred) log force.
    pub fn commit(
        &mut self,
        txn: TxnId,
        wal: &mut WalManager,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        wal.append(LogRecord::Commit { txn });
        let t = wal.commit_force(backend, now)?;
        self.committed += 1;
        Ok(t)
    }

    /// Abort: append the Abort record (no force needed).
    pub fn abort(&mut self, txn: TxnId, wal: &mut WalManager) {
        wal.append(LogRecord::Abort { txn });
        self.aborted += 1;
    }

    /// Number of committed transactions.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Number of aborted transactions.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn begin_commit_cycle() {
        let mut backend = MemBackend::new(4096, 64);
        let mut wal = WalManager::new(32, 8, 4096);
        let mut tm = TransactionManager::new();
        let t1 = tm.begin(&mut wal);
        let t2 = tm.begin(&mut wal);
        assert_ne!(t1, t2);
        tm.commit(t1, &mut wal, &mut backend, 0).unwrap();
        assert_eq!(tm.committed(), 1);
        // Commit forced the log.
        assert_eq!(wal.flushed_lsn(), wal.current_lsn());
    }

    #[test]
    fn abort_does_not_force() {
        let mut wal = WalManager::new(0, 4, 4096);
        let mut tm = TransactionManager::new();
        let t = tm.begin(&mut wal);
        tm.abort(t, &mut wal);
        assert_eq!(tm.aborted(), 1);
        assert_eq!(wal.flushed_lsn(), 0, "abort must not force the log");
    }

    #[test]
    fn commit_advances_virtual_time() {
        let mut backend = MemBackend::new(4096, 64);
        let mut wal = WalManager::new(32, 8, 4096);
        let mut tm = TransactionManager::new();
        let t = tm.begin(&mut wal);
        let end = tm.commit(t, &mut wal, &mut backend, 1000).unwrap();
        assert!(end >= 1000);
    }

    #[test]
    fn admission_pressure_covers_both_watermarks() {
        let cfg = AdmissionConfig {
            max_inflight_groups: 4,
            dirty_high_watermark: 0.9,
            deadline_ns: 1000,
        };
        assert!(!cfg.over_pressure(3, 0.5));
        assert!(cfg.over_pressure(4, 0.5), "full group window is pressure");
        assert!(cfg.over_pressure(0, 0.9), "dirty watermark is pressure");
        assert_eq!(cfg.deadline(500), 1500);
        // Watermark 0: every arrival probes (the engine still admits when
        // the horizon cannot move — pinned by the overload suite).
        let zero = AdmissionConfig {
            max_inflight_groups: 0,
            ..AdmissionConfig::default()
        };
        assert!(zero.over_pressure(0, 0.0));
    }

    #[test]
    fn admission_counters_reconcile_by_construction() {
        let mut ctl = AdmissionControl::new(AdmissionConfig::default());
        ctl.note_admitted(100, 100); // immediate
        ctl.note_admitted(100, 350); // waited 250 ns
        ctl.note_shed();
        let s = ctl.stats();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.delayed, 1, "only the waiting admission is delayed");
        assert_eq!(s.shed, 1);
        assert_eq!(s.total_delay_ns, 250);
        assert_eq!(s.admitted + s.shed, 3, "every arrival lands in exactly one bucket");
        assert!(s.delayed <= s.admitted);
    }
}
