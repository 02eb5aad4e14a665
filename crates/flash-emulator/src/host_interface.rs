//! Host-link model: queue depth and per-command protocol overhead.
//!
//! §3.2 of the paper: "SATA2 allows for at most 32 concurrent I/O commands;
//! whereas a commodity Flash SSD with 8 to 10 chips is able to execute up to
//! 160 concurrent I/Os".  The host link is therefore modelled separately from
//! the NAND array: it bounds how many commands may be in flight and adds a
//! fixed protocol overhead per command.
//!
//! The link composes with the device's per-die command queues: an
//! asynchronously submitted run (`EmulatedNativeFlash::submit_program_pages`)
//! passes admission control here — paying the protocol overhead and holding a
//! queue slot until completion — and is then *queued* on its die rather than
//! serialised against the submitting call.

use std::collections::VecDeque;

use sim_utils::time::{SimDuration, SimInstant};

/// Static description of a host link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostLink {
    /// Maximum number of outstanding commands (NCQ depth for SATA2 = 32).
    pub max_outstanding: u32,
    /// Per-command protocol/driver overhead.
    pub command_overhead: SimDuration,
}

impl HostLink {
    /// SATA2 with NCQ: 32 outstanding commands, ~20 µs protocol overhead.
    pub fn sata2() -> Self {
        Self {
            max_outstanding: 32,
            command_overhead: 20_000,
        }
    }

    /// A native (ATA pass-through / PCIe-like) link: enough queue slots to
    /// keep every die of a large device busy, minimal overhead.
    pub fn native() -> Self {
        Self {
            max_outstanding: 1024,
            command_overhead: 2_000,
        }
    }
}

/// Run-time state of a host link: admission control over the queue slots.
#[derive(Debug, Clone)]
pub struct HostInterface {
    link: HostLink,
    /// Completion times of currently outstanding commands (bounded by
    /// `max_outstanding`).
    inflight: VecDeque<SimInstant>,
    /// Commands admitted so far.
    admitted: u64,
    /// Total time commands spent waiting for a queue slot.
    queue_wait: SimDuration,
}

impl HostInterface {
    /// Create an idle interface for `link`.
    pub fn new(link: HostLink) -> Self {
        Self {
            link,
            inflight: VecDeque::new(),
            admitted: 0,
            queue_wait: 0,
        }
    }

    /// The static link parameters.
    pub fn link(&self) -> HostLink {
        self.link
    }

    /// Number of commands admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total time commands waited for a free queue slot.
    pub fn total_queue_wait(&self) -> SimDuration {
        self.queue_wait
    }

    /// Admit a command issued at `now`: returns the earliest time the device
    /// may start working on it (after a queue slot frees up and the protocol
    /// overhead is paid).
    pub fn admit(&mut self, now: SimInstant) -> SimInstant {
        // Retire completed commands.
        while let Some(&front) = self.inflight.front() {
            if front <= now {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        let start = if self.inflight.len() < self.link.max_outstanding as usize {
            now
        } else if let Some(free_at) = self.inflight.pop_front() {
            // Wait for the oldest outstanding command to complete.
            self.queue_wait += free_at.saturating_sub(now);
            free_at
        } else {
            // A full queue with max_outstanding >= 1 is never empty; admit
            // immediately rather than panicking on an impossible state.
            now
        };
        self.admitted += 1;
        start + self.link.command_overhead
    }

    /// Record the completion time of the command that was just admitted.
    pub fn complete(&mut self, completion: SimInstant) {
        // Keep the deque ordered by completion time (insertion sort from the
        // back; completions are usually near-ordered).
        let pos = self
            .inflight
            .iter()
            .rposition(|&c| c <= completion)
            .map(|p| p + 1)
            .unwrap_or(0);
        self.inflight.insert(pos, completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        assert!(HostLink::sata2().max_outstanding < HostLink::native().max_outstanding);
        assert!(HostLink::sata2().command_overhead > HostLink::native().command_overhead);
    }

    #[test]
    fn admission_under_queue_depth_is_immediate() {
        let mut hi = HostInterface::new(HostLink {
            max_outstanding: 2,
            command_overhead: 10,
        });
        let s1 = hi.admit(100);
        assert_eq!(s1, 110);
        hi.complete(500);
        let s2 = hi.admit(100);
        assert_eq!(s2, 110);
        hi.complete(600);
        assert_eq!(hi.admitted(), 2);
    }

    #[test]
    fn admission_blocks_when_queue_full() {
        let mut hi = HostInterface::new(HostLink {
            max_outstanding: 2,
            command_overhead: 0,
        });
        hi.admit(0);
        hi.complete(1000);
        hi.admit(0);
        hi.complete(2000);
        // Third command at t=0 must wait until the first completes (t=1000).
        let s3 = hi.admit(0);
        assert_eq!(s3, 1000);
        assert_eq!(hi.total_queue_wait(), 1000);
    }

    #[test]
    fn completed_commands_free_slots() {
        let mut hi = HostInterface::new(HostLink {
            max_outstanding: 1,
            command_overhead: 0,
        });
        hi.admit(0);
        hi.complete(100);
        // At t=200 the only slot is free again: no waiting.
        let s = hi.admit(200);
        assert_eq!(s, 200);
        assert_eq!(hi.total_queue_wait(), 0);
    }

    #[test]
    fn out_of_order_completions_are_handled() {
        let mut hi = HostInterface::new(HostLink {
            max_outstanding: 2,
            command_overhead: 0,
        });
        hi.admit(0);
        hi.complete(500);
        hi.admit(0);
        hi.complete(200); // completes before the first one
        let s = hi.admit(0);
        // The earliest completion (200) frees the slot.
        assert_eq!(s, 200);
    }
}
