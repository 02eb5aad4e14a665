//! Per-die command queues: the in-flight windows of the queued native
//! interface.
//!
//! The synchronous [`crate::NativeFlashInterface`] methods compute a
//! command's completion and hand it straight back — the issuer blocks on
//! every call.  Real native-Flash drivers instead keep a bounded number of
//! commands *in flight* per die (the `max_queue_per_die` the `IDENTIFY`
//! response advertises).  This module models that pipeline on the virtual
//! clock: [`CommandQueues`] tracks, per die, the commands whose completion
//! lies in the virtual future.  A submission against a full die queue is
//! *gated*: its issue time is pushed back to the completion of the oldest
//! in-flight command, exactly like a driver spinning on a full hardware
//! queue.
//!
//! Each accepted submission's [`QueuedCompletion`] — the submit stamp, the
//! (possibly gated) issue stamp and the device-computed [`OpCompletion`] — is
//! returned to its issuer once, by the `submit_*` call itself; the queues
//! keep only the completion instants their windows need.  Because the device
//! model is deterministic, a command's completion time is known the moment
//! it is admitted; the queue's job is to bound the in-flight window and to
//! re-order *issue* times the way a real per-die queue would.  With a queue
//! depth of 1 every submission waits for its predecessor on the same die —
//! the synchronous dispatch — which is what makes the depth-1
//! equivalence leg of the test suite possible.

use std::collections::VecDeque;

use sim_utils::time::SimInstant;

use crate::interface::{OpCompletion, OpKind};

/// Completion record of a queued command, returned by the `submit_*` call
/// that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedCompletion {
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
}

/// Per-die command queues: one bounded in-flight window per die.
#[derive(Debug, Clone)]
pub struct CommandQueues {
    depth: usize,
    /// Per die, the completion times of commands the host has submitted but
    /// not yet seen retire (ordered by completion), each tagged with its
    /// [`OpKind`] so queue-occupancy introspection can tell foreground reads
    /// from background program/erase traffic.
    dies: Vec<VecDeque<(SimInstant, OpKind)>>,
}

impl CommandQueues {
    /// Create queues for `dies` dies with the given per-die depth (clamped to
    /// at least 1).
    pub fn new(dies: usize, depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            dies: vec![VecDeque::new(); dies],
        }
    }

    /// Change the per-die queue depth (clamped to at least 1).  Commands
    /// already in flight keep their stamps.
    pub fn set_depth(&mut self, depth: usize) {
        self.depth = depth.max(1);
    }

    /// Number of commands currently in flight on `die` as of `now`.
    pub fn inflight_on(&self, die: usize, now: SimInstant) -> usize {
        self.dies[die]
            .iter()
            .filter(|&&(c, _)| c > now)
            .count()
    }

    /// Total commands in flight across every die as of `now`.
    pub fn inflight_total(&self, now: SimInstant) -> usize {
        (0..self.dies.len()).map(|d| self.inflight_on(d, now)).sum()
    }

    /// Read commands in flight across every die as of `now` — nonzero means
    /// the instant is read-hot: background relocations launched now would
    /// queue ahead of (and delay) foreground read completions.
    pub fn inflight_reads(&self, now: SimInstant) -> usize {
        self.dies
            .iter()
            .map(|d| {
                d.iter()
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
        let q = &mut self.dies[die];
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

    /// Record an accepted command of `kind` on `die`, issued at `issued_at`
    /// and completing at `completed_at`: it holds a slot of the die's window
    /// until the virtual clock passes its completion.  A command whose
    /// device-side execution failed is recorded the same way — it occupied
    /// its die for the full (charged) duration.
    pub fn record(
        &mut self,
        die: usize,
        kind: OpKind,
        issued_at: SimInstant,
        completed_at: SimInstant,
    ) {
        let q = &mut self.dies[die];
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
            .rposition(|&(c, _)| c <= completed_at)
            .map(|p| p + 1)
            .unwrap_or(0);
        q.insert(pos, (completed_at, kind));
    }

    /// The die failed at `now`: the commands still in flight on `die` are
    /// lost, and the die's window is cleared — nothing occupies a dead die.
    /// Returns the number of in-flight commands that were lost.
    pub fn fail_die(&mut self, die: usize, now: SimInstant) -> usize {
        let lost = self.inflight_on(die, now);
        self.dies[die].clear();
        lost
    }

    /// Barrier: the instant by which every in-flight command has completed
    /// (at least `now`).  Clears the in-flight windows.
    pub fn drain(&mut self, now: SimInstant) -> SimInstant {
        let mut t = now;
        for die in &mut self.dies {
            for &(c, _) in die.iter() {
                t = t.max(c);
            }
            die.clear();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_one_gates_behind_every_predecessor() {
        let mut q = CommandQueues::new(1, 1);
        let (i1, g1) = q.admit(0, 0);
        assert_eq!((i1, g1), (0, false));
        q.record(0, OpKind::Program, i1, 500);
        // Second submission at t=0 must wait for the first to retire.
        let (i2, g2) = q.admit(0, 0);
        assert_eq!((i2, g2), (500, true));
        q.record(0, OpKind::Program, i2, 900);
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
            q.record(0, OpKind::Program, i, 1000 + k);
        }
        let (i5, gated) = q.admit(0, 0);
        assert!(gated);
        assert_eq!(i5, 1000, "gated behind the oldest in-flight completion");
        assert_eq!(q.inflight_on(0, 0), 4);
    }

    #[test]
    fn dies_are_independent() {
        let mut q = CommandQueues::new(2, 1);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Program, i, 800);
        // Die 1 is idle: no gating despite die 0 being full.
        let (i1, gated) = q.admit(1, 0);
        assert_eq!((i1, gated), (0, false));
        assert_eq!(q.inflight_on(0, 100), 1);
        assert_eq!(q.inflight_on(1, 100), 0);
    }

    #[test]
    fn windows_order_by_completion_and_drain_barriers() {
        let mut q = CommandQueues::new(2, 2);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Program, i, 700);
        // Recorded second but completing first: the window orders by
        // completion, so the full die gates behind the earlier instant.
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Read, i, 300);
        let (i, _) = q.admit(1, 0);
        q.record(1, OpKind::Erase, i, 500);
        assert_eq!(q.admit(0, 0), (300, true));
        assert_eq!(q.inflight_on(0, 400), 1, "the 300 completion retired");
        assert_eq!(q.drain(100), 700, "barrier waits for the slowest die");
        assert_eq!(q.drain(100), 100, "drained queues are empty");
        assert_eq!(q.inflight_total(0), 0);
    }

    #[test]
    fn admit_without_record_leaves_the_window_intact() {
        // A submission that is admitted but never recorded (it failed
        // validation) must not evict commands still in flight.
        let mut q = CommandQueues::new(1, 1);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Program, i, 900);
        let (gated_issue, gated) = q.admit(0, 0);
        assert_eq!((gated_issue, gated), (900, true));
        // No record() call — the failed command never issued.
        assert_eq!(q.inflight_on(0, 0), 1, "in-flight command must survive");
        assert_eq!(q.drain(0), 900, "barrier still covers the live command");
    }

    #[test]
    fn occupancy_counts_totals_and_reads_per_instant() {
        let mut q = CommandQueues::new(2, 4);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Read, i, 400);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Program, i, 900);
        let (i, _) = q.admit(1, 0);
        q.record(1, OpKind::Read, i, 600);
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
    fn fail_die_counts_the_inflight_window_and_clears_it() {
        let mut q = CommandQueues::new(2, 4);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Program, i, 900);
        let (i, _) = q.admit(0, 0);
        q.record(0, OpKind::Read, i, 400);
        let (i, _) = q.admit(1, 0);
        q.record(1, OpKind::Read, i, 600);
        // At t=500 the die-0 read has already completed: only the program is
        // still in flight and is lost; the other die is untouched.
        assert_eq!(q.fail_die(0, 500), 1);
        assert_eq!(q.inflight_on(0, 500), 0, "a dead die holds nothing in flight");
        assert_eq!(q.inflight_on(1, 500), 1, "other dies keep their windows");
        assert_eq!(q.drain(500), 600, "the lost program no longer holds a slot");
    }

    #[test]
    fn retired_commands_free_slots() {
        let mut q = CommandQueues::new(1, 2);
        for end in [100u64, 200] {
            let (i, _) = q.admit(0, 0);
            q.record(0, OpKind::Program, i, end);
        }
        // At t=150 the first command has retired: no gating.
        let (i, gated) = q.admit(0, 150);
        assert_eq!((i, gated), (150, false));
    }
}
