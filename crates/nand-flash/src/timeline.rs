//! Occupancy timeline shared by dies and channels.
//!
//! The resource keeps its busy periods as a sorted list of disjoint
//! intervals.  In the default **ratchet** mode every reservation is placed
//! at `max(busy_until, earliest_start)` — commands occupy the resource in
//! submission *call* order, the model every historical trace and paper
//! figure in this repo was pinned against.
//!
//! With **backfill** enabled ([`Timeline::set_backfill`]) a reservation is
//! instead placed in the *earliest idle gap* that fits it.  For submissions
//! whose start times never decrease the two modes are identical: each
//! reservation lands at `max(busy_until, earliest_start)` because all
//! remaining gaps lie in the past (an earlier gap always ends at the start
//! of an operation that was itself placed at its own, earlier submission
//! time).  The difference appears only under concurrent clients, whose
//! virtual clocks drift apart so commands reach the device out of timestamp
//! order.  Under the ratchet a laggard's command would queue behind an
//! operation submitted *later in call order* but stamped *later in virtual
//! time* — charging a wait for a die that was provably idle at the
//! laggard's instant.  Backfill gives the schedule that time-ordered
//! submission would have produced, which is what makes multi-client
//! virtual-time measurements meaningful; the multi-client engine turns it
//! on, everything else keeps the pinned ratchet behaviour.

use std::collections::VecDeque;

use sim_utils::time::{SimDuration, SimInstant};

/// Busy intervals kept per resource before the oldest two are coalesced.
/// Coalescing erases a long-past idle gap, which is conservative (an
/// operation can only be scheduled later because of it, never earlier) and
/// keeps memory and lookup cost bounded on arbitrarily long runs.  It drops
/// the front of a ring buffer, so a full timeline pays O(1) per
/// reservation for it.
const MAX_INTERVALS: usize = 32;

/// A resource occupancy timeline: sorted, disjoint busy intervals, with
/// either tail-append ("ratchet", the default) or earliest-fit
/// ("backfill") reservation.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Sorted by start, pairwise disjoint `(start, end)` half-open busy
    /// intervals; exactly-adjacent neighbours are merged on insert.
    intervals: VecDeque<(SimInstant, SimInstant)>,
    /// Whether reservations may fill idle gaps before the last interval.
    /// Off by default: the classic `busy_until` ratchet, bit-identical to
    /// every pinned trace.
    backfill: bool,
}

impl Timeline {
    /// An idle timeline in ratchet mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable gap backfilling (see the module docs).  Flipping
    /// the mode mid-run only affects subsequent reservations.
    pub fn set_backfill(&mut self, on: bool) {
        self.backfill = on;
    }

    /// The instant until which the resource is occupied (end of the last
    /// busy interval; 0 when never used).
    pub fn busy_until(&self) -> SimInstant {
        self.intervals.back().map_or(0, |&(_, end)| end)
    }

    /// Reserve a `duration`-long slot starting no earlier than
    /// `earliest_start`: at the tail in ratchet mode, in the earliest idle
    /// gap that fits with backfill on. Returns `(start, end)`.
    pub fn reserve(
        &mut self,
        earliest_start: SimInstant,
        duration: SimDuration,
    ) -> (SimInstant, SimInstant) {
        if duration == 0 {
            // Instantaneous operations occupy nothing; behave like the
            // ratchet for their reported start.
            let start = self.busy_until().max(earliest_start);
            return (start, start);
        }
        // Find the first gap that fits: before the first interval, between
        // two intervals, or after the last.
        let mut insert_at = self.intervals.len();
        let mut start = self.busy_until().max(earliest_start);
        if self.backfill {
            for i in 0..self.intervals.len() {
                let gap_start = if i == 0 { 0 } else { self.intervals[i - 1].1 };
                let gap_end = self.intervals[i].0;
                let candidate = gap_start.max(earliest_start);
                if candidate + duration <= gap_end {
                    insert_at = i;
                    start = candidate;
                    break;
                }
            }
        }
        let end = start + duration;
        self.insert(insert_at, start, end);
        (start, end)
    }

    fn insert(&mut self, at: usize, start: SimInstant, end: SimInstant) {
        // Merge with exactly-adjacent neighbours to keep the list short.
        if at == self.intervals.len() {
            // The tail, every ratchet reservation: extend the last interval
            // or append one.
            match self.intervals.back_mut() {
                Some(last) if last.1 == start => last.1 = end,
                _ => self.intervals.push_back((start, end)),
            }
        } else {
            let merges_prev = at > 0 && self.intervals[at - 1].1 == start;
            match (merges_prev, self.intervals[at].0 == end) {
                (true, true) => {
                    self.intervals[at - 1].1 = self.intervals[at].1;
                    self.intervals.remove(at);
                }
                (true, false) => self.intervals[at - 1].1 = end,
                (false, true) => self.intervals[at].0 = start,
                (false, false) => self.intervals.insert(at, (start, end)),
            }
        }
        if self.intervals.len() > MAX_INTERVALS {
            // Coalesce the two oldest intervals, sacrificing the most
            // distant idle gap.
            if let Some((s0, _)) = self.intervals.pop_front() {
                self.intervals[0].0 = s0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_submissions_match_the_busy_until_ratchet() {
        // Backfill on: with non-decreasing submission times it is still
        // exactly the ratchet (no usable gap ever exists).
        let mut tl = Timeline::new();
        tl.set_backfill(true);
        assert_eq!(tl.reserve(100, 50), (100, 150));
        // "In the past" but no wide-enough gap: waits like the ratchet.
        assert_eq!(tl.reserve(120, 30), (150, 180));
        // After an idle period: starts immediately.
        assert_eq!(tl.reserve(500, 10), (500, 510));
        assert_eq!(tl.busy_until(), 510);
    }

    #[test]
    fn ratchet_mode_never_backfills() {
        let mut tl = Timeline::new();
        assert_eq!(tl.reserve(400, 70), (400, 470));
        // The [0, 400) gap is idle but ratchet mode queues at the tail —
        // submission call order, the pinned historical model.
        assert_eq!(tl.reserve(150, 70), (470, 540));
        assert_eq!(tl.reserve(100, 100), (540, 640));
    }

    #[test]
    fn out_of_order_submission_backfills_idle_gaps() {
        let mut tl = Timeline::new();
        tl.set_backfill(true);
        assert_eq!(tl.reserve(400, 70), (400, 470));
        // The resource is provably idle over [0, 400): a command stamped
        // earlier fits there instead of queueing behind the later one.
        assert_eq!(tl.reserve(150, 70), (150, 220));
        assert_eq!(tl.busy_until(), 470);
        // The remaining gap [220, 400) takes one more.
        assert_eq!(tl.reserve(100, 100), (220, 320));
        // Too wide for [320, 400): appends at the tail.
        assert_eq!(tl.reserve(100, 100), (470, 570));
    }

    #[test]
    fn adjacent_reservations_coalesce() {
        let mut tl = Timeline::new();
        tl.reserve(0, 10);
        tl.reserve(10, 10);
        tl.reserve(5, 10);
        assert_eq!(tl.intervals, vec![(0, 30)]);
    }

    #[test]
    fn zero_duration_reservations_occupy_nothing() {
        let mut tl = Timeline::new();
        tl.reserve(100, 50);
        assert_eq!(tl.reserve(10, 0), (150, 150));
        assert_eq!(tl.busy_until(), 150);
    }

    #[test]
    fn interval_count_stays_bounded() {
        let mut tl = Timeline::new();
        tl.set_backfill(true);
        for i in 0..10_000u64 {
            // Every reservation separated by an idle gap: worst case for
            // list growth.
            tl.reserve(i * 100, 10);
        }
        assert!(tl.intervals.len() <= MAX_INTERVALS);
        assert_eq!(tl.busy_until(), 9_999 * 100 + 10);
    }
}
