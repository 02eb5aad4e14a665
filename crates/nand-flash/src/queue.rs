//! Per-die command queues: the submit/poll half of the native interface.
//!
//! The synchronous [`crate::NativeFlashInterface`] methods compute a
//! command's completion and hand it straight back — the issuer blocks on
//! every call.  Real native-Flash drivers instead keep a bounded number of
//! commands *in flight* per die (the `max_queue_per_die` the `IDENTIFY`
//! response advertises) and learn about completions asynchronously.  This
//! module models that pipeline on the virtual clock:
//!
//! * [`CommandQueues`] tracks, per die, the commands whose completion lies in
//!   the virtual future.  A submission against a full die queue is *gated*:
//!   its issue time is pushed back to the completion of the oldest in-flight
//!   command, exactly like a driver spinning on a full hardware queue.
//! * Every accepted submission produces a [`QueuedCompletion`] carrying the
//!   submit stamp, the (possibly gated) issue stamp and the device-computed
//!   [`OpCompletion`].  Completions accumulate until the issuer polls them —
//!   the storage engine drives its db-writers off this instead of blocking
//!   per submission.
//!
//! Because the device model is deterministic, a command's completion time is
//! known the moment it is admitted; the queue's job is to bound the in-flight
//! window and to re-order *issue* times the way a real per-die queue would.
//! With a queue depth of 1 every submission waits for its predecessor on the
//! same die — the synchronous dispatch — which is what makes the
//! `NOFTL_ASYNC` depth-1 equivalence leg of the test suite possible.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use sim_utils::time::SimInstant;

use crate::addr::{BlockAddr, DieAddr, Ppa};
use crate::error::{FlashError, FlashResult};
use crate::interface::{OpCompletion, OpKind};

/// Identifier of a submitted command (unique per device, monotone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CommandId(pub u64);

/// Per-command completion status.
///
/// With fault injection off every completion is [`CommandStatus::Ok`]; with a
/// fault plan active, a queued command that fails on the device still
/// occupies its die-queue slot for its full duration and reports the failure
/// here — a poll-driven issuer learns about the error from the completion
/// stream exactly like a real driver reading a status register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommandStatus {
    /// The command completed successfully.
    Ok,
    /// A PAGE PROGRAM (or the program half of a copyback) failed; the page
    /// is consumed and the block should be retired.
    ProgramFailed(Ppa),
    /// A BLOCK ERASE failed; the block is marked grown-bad.
    EraseFailed(BlockAddr),
    /// A PAGE READ saw bit errors beyond the ECC correction budget.
    Uncorrectable(Ppa),
    /// The die failed while the command was in flight (a deterministic
    /// [`crate::fault::KillSpec`] fired); the command is lost.
    DieFailed(DieAddr),
}

impl CommandStatus {
    /// Whether the command succeeded.
    pub fn is_ok(self) -> bool {
        self == CommandStatus::Ok
    }

    /// The status as a `Result`, reconstructing the matching [`FlashError`]
    /// for failed commands.
    pub fn result(self) -> FlashResult<()> {
        match self {
            CommandStatus::Ok => Ok(()),
            CommandStatus::ProgramFailed(ppa) => Err(FlashError::ProgramFailed(ppa)),
            CommandStatus::EraseFailed(b) => Err(FlashError::EraseFailed(b)),
            CommandStatus::Uncorrectable(ppa) => Err(FlashError::UncorrectableEcc(ppa)),
            CommandStatus::DieFailed(d) => Err(FlashError::DieFailed(d)),
        }
    }
}

/// Completion record of a queued command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedCompletion {
    /// Identifier returned at submit time.
    pub id: CommandId,
    /// Kind of the underlying native command (a multi-page run reports
    /// [`OpKind::Program`]).
    pub kind: OpKind,
    /// When the host submitted the command.
    pub submitted_at: SimInstant,
    /// When the die queue dispatched it (`> submitted_at` when the submission
    /// was gated behind a full queue).
    pub issued_at: SimInstant,
    /// Device-computed start/completion stamps.
    pub completion: OpCompletion,
    /// Whether the command succeeded, and if not, how it failed.
    pub status: CommandStatus,
}

impl QueuedCompletion {
    /// The command's outcome as a `Result` (see [`CommandStatus::result`]).
    pub fn result(&self) -> FlashResult<()> {
        self.status.result()
    }
}

/// One die's bounded in-flight window: completion times of commands the host
/// has submitted but not yet seen retire, each tagged with its [`OpKind`] so
/// queue-occupancy introspection can tell foreground reads from background
/// program/erase traffic.
#[derive(Debug, Clone, Default)]
struct DieQueue {
    inflight: VecDeque<(SimInstant, OpKind)>,
}

/// Per-die command queues plus the not-yet-polled completion list.
#[derive(Debug, Clone)]
pub struct CommandQueues {
    depth: usize,
    dies: Vec<DieQueue>,
    /// Unpolled completions, each tagged with the die it ran on (the tag is
    /// internal — [`CommandQueues::poll`] strips it) so a die failure can
    /// rewrite exactly its own in-flight completions.
    completed: Vec<(usize, QueuedCompletion)>,
    next_id: u64,
    peak_inflight: usize,
}

/// Completions' worth of capacity [`CommandQueues::poll`] keeps between polls.
const POLL_KEEP: usize = 4096;

impl CommandQueues {
    /// Create queues for `dies` dies with the given per-die depth (clamped to
    /// at least 1).
    pub fn new(dies: usize, depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            dies: vec![DieQueue::default(); dies],
            completed: Vec::new(),
            next_id: 0,
            peak_inflight: 0,
        }
    }

    /// Per-die queue depth in effect.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Change the per-die queue depth (clamped to at least 1).  Commands
    /// already in flight keep their stamps.
    pub fn set_depth(&mut self, depth: usize) {
        self.depth = depth.max(1);
    }

    /// Highest number of simultaneously in-flight commands observed on any
    /// single die.
    pub fn peak_inflight(&self) -> usize {
        self.peak_inflight
    }

    /// Number of commands currently in flight on `die` as of `now`.
    pub fn inflight_on(&self, die: usize, now: SimInstant) -> usize {
        self.dies[die]
            .inflight
            .iter()
            .filter(|&&(c, _)| c > now)
            .count()
    }

    /// Total commands in flight across every die as of `now` — the foreground
    /// queue-depth signal load-aware schedulers (flusher throttling, GC
    /// deferral) consult before launching background waves.
    pub fn inflight_total(&self, now: SimInstant) -> usize {
        self.dies
            .iter()
            .map(|d| d.inflight.iter().filter(|&&(c, _)| c > now).count())
            .sum()
    }

    /// Read commands in flight across every die as of `now` — nonzero means
    /// the instant is read-hot: background relocations launched now would
    /// queue ahead of (and delay) foreground read completions.
    pub fn inflight_reads(&self, now: SimInstant) -> usize {
        self.dies
            .iter()
            .map(|d| {
                d.inflight
                    .iter()
                    .filter(|&&(c, k)| c > now && k == OpKind::Read)
                    .count()
            })
            .sum()
    }

    /// Admit a command for `die` submitted at `now`: retires commands the
    /// virtual clock has passed and, if the queue is still full, gates the
    /// issue behind the completions that must retire to make room.  Returns
    /// `(issue_time, gated)`.
    ///
    /// Beyond retiring already-completed entries this does **not** modify the
    /// window — entries only leave it in [`CommandQueues::record`] — so a
    /// submission that fails validation after being admitted cannot evict a
    /// command that is still in flight.
    pub fn admit(&mut self, die: usize, now: SimInstant) -> (SimInstant, bool) {
        let q = &mut self.dies[die].inflight;
        while let Some(&(front, _)) = q.front() {
            if front <= now {
                q.pop_front();
            } else {
                break;
            }
        }
        if q.len() >= self.depth {
            // Enough of the oldest in-flight commands must retire that only
            // `depth - 1` remain when the new one issues; with the window
            // ordered by completion that gate is the entry at `len - depth`.
            let (gate, _) = q[q.len() - self.depth];
            (now.max(gate), true)
        } else {
            (now, false)
        }
    }

    /// Record an accepted command on `die`; returns its id and stores the
    /// completion for a later poll.
    pub fn record(
        &mut self,
        die: usize,
        kind: OpKind,
        submitted_at: SimInstant,
        issued_at: SimInstant,
        completion: OpCompletion,
    ) -> CommandId {
        self.record_with_status(die, kind, submitted_at, issued_at, completion, CommandStatus::Ok)
    }

    /// Record a command whose device-side execution failed: it occupied its
    /// die for the full (charged) duration and its completion carries the
    /// failure status for the poll stream.
    pub fn record_with_status(
        &mut self,
        die: usize,
        kind: OpKind,
        submitted_at: SimInstant,
        issued_at: SimInstant,
        completion: OpCompletion,
        status: CommandStatus,
    ) -> CommandId {
        self.next_id += 1;
        let id = CommandId(self.next_id);
        let q = &mut self.dies[die].inflight;
        // Entries the gated issue time has passed retire now (admit left them
        // in place so a failed submission could not evict them).
        while let Some(&(front, _)) = q.front() {
            if front <= issued_at {
                q.pop_front();
            } else {
                break;
            }
        }
        // Keep the window ordered by completion time (same-die commands
        // complete in issue order under the occupancy model, but be robust).
        let pos = q
            .iter()
            .rposition(|&(c, _)| c <= completion.completed_at)
            .map(|p| p + 1)
            .unwrap_or(0);
        q.insert(pos, (completion.completed_at, kind));
        self.peak_inflight = self.peak_inflight.max(q.len());
        self.completed.push((
            die,
            QueuedCompletion {
                id,
                kind,
                submitted_at,
                issued_at,
                completion,
                status,
            },
        ));
        id
    }

    /// The die failed at `now`: every unpolled completion on `die` whose
    /// completion still lies in the virtual future is rewritten to
    /// [`CommandStatus::DieFailed`] (those commands were in flight and are
    /// lost — the poll stream reports them as errors, like a real driver
    /// reading error completions after a die drop), and the die's in-flight
    /// window is cleared — nothing occupies a dead die.  Returns the number
    /// of in-flight commands that were failed.
    pub fn fail_die(&mut self, die: usize, now: SimInstant, addr: DieAddr) -> usize {
        let mut failed = 0;
        for (d, c) in &mut self.completed {
            if *d == die && c.completion.completed_at > now && c.status.is_ok() {
                c.status = CommandStatus::DieFailed(addr);
                failed += 1;
            }
        }
        self.dies[die].inflight.clear();
        failed
    }

    /// Drain every completion recorded since the last poll, in submit order.
    pub fn poll(&mut self) -> Vec<QueuedCompletion> {
        let polled = self.completed.drain(..).map(|(_, c)| c).collect();
        // The list keeps its capacity for the next burst — but not a
        // backlog's: set-up may queue a whole drive fill before its first
        // poll, and that high-water mark would stay resident for good.
        if self.completed.capacity() > POLL_KEEP {
            self.completed = Vec::new();
        }
        polled
    }

    /// Completions not yet polled.
    pub fn pending_polls(&self) -> usize {
        self.completed.len()
    }

    /// Barrier: the instant by which every in-flight command has completed
    /// (at least `now`).  Clears the in-flight windows.
    pub fn drain(&mut self, now: SimInstant) -> SimInstant {
        let mut t = now;
        for die in &mut self.dies {
            for &(c, _) in &die.inflight {
                t = t.max(c);
            }
            die.inflight.clear();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(start: SimInstant, end: SimInstant) -> OpCompletion {
        OpCompletion {
            started_at: start,
            completed_at: end,
        }
    }

    #[test]
    fn depth_one_gates_behind_every_predecessor() {
        let mut q = CommandQueues::new(1, 1);
        let (i1, g1) = q.admit(0, 0);
        assert_eq!((i1, g1), (0, false));
        q.record(0, OpKind::Program, 0, i1, completion(0, 500));
        // Second submission at t=0 must wait for the first to retire.
        let (i2, g2) = q.admit(0, 0);
        assert_eq!((i2, g2), (500, true));
        q.record(0, OpKind::Program, 0, i2, completion(500, 900));
        // A submission after everything completed is immediate.
        let (i3, g3) = q.admit(0, 1000);
        assert_eq!((i3, g3), (1000, false));
    }

    #[test]
    fn deeper_queues_admit_without_gating() {
        let mut q = CommandQueues::new(1, 4);
        for k in 0..4 {
            let (i, gated) = q.admit(0, 0);
            assert_eq!(i, 0);
            assert!(!gated, "submission {k} fits the depth-4 window");
            q.record(0, OpKind::Program, 0, i, completion(0, 1000 + k));
        }
        let (i5, gated) = q.admit(0, 0);
        assert!(gated);
        assert_eq!(i5, 1000, "gated behind the oldest in-flight completion");
        assert_eq!(q.peak_inflight(), 4);
    }

    #[test]
    fn dies_are_independent() {
        let mut q = CommandQueues::new(2, 1);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Program, 0, i, completion(0, 800));
        // Die 1 is idle: no gating despite die 0 being full.
        let (i1, gated) = q.admit(1, 0);
        assert_eq!((i1, gated), (0, false));
        assert_eq!(q.inflight_on(0, 100), 1);
        assert_eq!(q.inflight_on(1, 100), 0);
    }

    #[test]
    fn poll_drains_in_submit_order_and_drain_barriers() {
        let mut q = CommandQueues::new(2, 4);
        let (i, _) = q.admit(0, 0);
        let a = q.record(0, OpKind::Program, 0, i, completion(0, 700));
        let (i, _) = q.admit(1, 0);
        let b = q.record(1, OpKind::Erase, 0, i, completion(0, 300));
        assert_eq!(q.pending_polls(), 2);
        let polled = q.poll();
        assert_eq!(polled.len(), 2);
        assert_eq!(polled[0].id, a);
        assert_eq!(polled[1].id, b);
        assert!(q.poll().is_empty());
        assert_eq!(q.drain(100), 700, "barrier waits for the slowest die");
        assert_eq!(q.drain(100), 100, "drained queues are empty");
    }

    #[test]
    fn admit_without_record_leaves_the_window_intact() {
        // A submission that is admitted but never recorded (it failed
        // validation) must not evict commands still in flight.
        let mut q = CommandQueues::new(1, 1);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Program, 0, i, completion(0, 900));
        let (gated_issue, gated) = q.admit(0, 0);
        assert_eq!((gated_issue, gated), (900, true));
        // No record() call — the failed command never issued.
        assert_eq!(q.inflight_on(0, 0), 1, "in-flight command must survive");
        assert_eq!(q.drain(0), 900, "barrier still covers the live command");
    }

    #[test]
    fn failed_commands_carry_status_and_hold_their_slot() {
        use crate::addr::Ppa;
        let mut q = CommandQueues::new(1, 1);
        let (i, _) = q.admit(0, 0);
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        q.record_with_status(
            0,
            OpKind::Program,
            0,
            i,
            completion(0, 600),
            CommandStatus::ProgramFailed(ppa),
        );
        // The failed program still occupies the die queue until t=600.
        let (i2, gated) = q.admit(0, 0);
        assert_eq!((i2, gated), (600, true));
        let polled = q.poll();
        assert_eq!(polled.len(), 1);
        assert!(!polled[0].status.is_ok());
        assert_eq!(
            polled[0].result(),
            Err(FlashError::ProgramFailed(ppa)),
            "the poll stream must reconstruct the device error"
        );
    }

    #[test]
    fn ok_completions_report_success() {
        let mut q = CommandQueues::new(1, 2);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Erase, 0, i, completion(0, 100));
        let polled = q.poll();
        assert_eq!(polled[0].status, CommandStatus::Ok);
        assert_eq!(polled[0].result(), Ok(()));
    }

    #[test]
    fn occupancy_counts_totals_and_reads_per_instant() {
        let mut q = CommandQueues::new(2, 4);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Read, 0, i, completion(0, 400));
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Program, 0, i, completion(0, 900));
        let (i, _) = q.admit(1, 0);
        q.record(1, OpKind::Read, 0, i, completion(0, 600));
        assert_eq!(q.inflight_total(100), 3);
        assert_eq!(q.inflight_reads(100), 2);
        // At t=500 the die-0 read has retired; the die-1 read is still hot.
        assert_eq!(q.inflight_total(500), 2);
        assert_eq!(q.inflight_reads(500), 1);
        // Past every completion the queues are cold.
        assert_eq!(q.inflight_total(1000), 0);
        assert_eq!(q.inflight_reads(1000), 0);
    }

    #[test]
    fn fail_die_rewrites_inflight_completions_and_clears_the_window() {
        let mut q = CommandQueues::new(2, 4);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Program, 0, i, completion(0, 900));
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Read, 0, i, completion(0, 400));
        let (i, _) = q.admit(1, 0);
        q.record(1, OpKind::Read, 0, i, completion(0, 600));
        // At t=500 the die-0 read has already completed: only the program is
        // still in flight and gets failed; the other die is untouched.
        let addr = DieAddr::new(0, 0);
        assert_eq!(q.fail_die(0, 500, addr), 1);
        assert_eq!(q.inflight_on(0, 500), 0, "a dead die holds nothing in flight");
        assert_eq!(q.inflight_on(1, 500), 1, "other dies keep their windows");
        let polled = q.poll();
        let failed: Vec<_> = polled
            .iter()
            .filter(|c| c.status == CommandStatus::DieFailed(addr))
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].kind, OpKind::Program);
        assert_eq!(failed[0].result(), Err(FlashError::DieFailed(addr)));
    }

    #[test]
    fn retired_commands_free_slots() {
        let mut q = CommandQueues::new(1, 2);
        for end in [100u64, 200] {
            let (i, _) = q.admit(0, 0);
            q.record(0, OpKind::Program, 0, i, completion(0, end));
        }
        // At t=150 the first command has retired: no gating.
        let (i, gated) = q.admit(0, 150);
        assert_eq!((i, gated), (150, false));
    }
}
