//! Interval indexes over sorted event timestamps.
//!
//! Every cross-layer pass in §5.4 asks the same two questions of some
//! timestamped event stream, over and over: *did anything happen strictly
//! between `a` and `b`?* and *how much happened in `[a, b]`?* The naive
//! answer — rescan the event vector per query — turns an O(n + m) analysis
//! into O(n · m): the RTT/poll attribution in
//! [`crate::analyze::crosslayer::net_latency_breakdown`] used to walk every
//! PDU timestamp once per mapped packet and once per STATUS report.
//!
//! The streams are already time-sorted (they come out of
//! [`simcore::RecordLog`] windows), so each query is two binary searches.
//! [`TimeIndex`] wraps a sorted timestamp vector with `partition_point`
//! rank lookups.

use simcore::SimTime;

/// A sorted sequence of event timestamps supporting O(log n) interval
/// queries.
#[derive(Debug, Clone, Default)]
pub struct TimeIndex {
    times: Vec<SimTime>,
}

impl TimeIndex {
    /// Build from an already time-sorted vector (asserted in debug builds;
    /// analyzer inputs come from `RecordLog` windows, which are sorted by
    /// construction).
    pub fn new(times: Vec<SimTime>) -> TimeIndex {
        debug_assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "TimeIndex input must be sorted"
        );
        TimeIndex { times }
    }

    /// Number of indexed timestamps.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The underlying sorted timestamps.
    pub fn as_slice(&self) -> &[SimTime] {
        &self.times
    }

    /// Number of events with `t < at`.
    pub fn rank_before(&self, at: SimTime) -> usize {
        self.times.partition_point(|t| *t < at)
    }

    /// Number of events with `t <= at`.
    pub fn rank_through(&self, at: SimTime) -> usize {
        self.times.partition_point(|t| *t <= at)
    }

    /// Number of events strictly inside the open interval `(a, b)`.
    pub fn count_in_open(&self, a: SimTime, b: SimTime) -> usize {
        if b <= a {
            return 0;
        }
        self.rank_before(b).saturating_sub(self.rank_through(a))
    }

    /// True when any event falls strictly inside `(a, b)` — the "was the
    /// channel busy in between" primitive of the latency attribution.
    pub fn any_in_open(&self, a: SimTime, b: SimTime) -> bool {
        self.count_in_open(a, b) > 0
    }

    /// Number of events inside the closed interval `[a, b]`.
    pub fn count_in_closed(&self, a: SimTime, b: SimTime) -> usize {
        if b < a {
            return 0;
        }
        self.rank_through(b).saturating_sub(self.rank_before(a))
    }

    /// Earliest event at or after `at`.
    pub fn first_at_or_after(&self, at: SimTime) -> Option<SimTime> {
        self.times.get(self.rank_before(at)).copied()
    }

    /// Latest event at or before `at`.
    pub fn last_at_or_before(&self, at: SimTime) -> Option<SimTime> {
        let r = self.rank_through(at);
        if r == 0 {
            None
        } else {
            self.times.get(r - 1).copied()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn idx(ms: &[u64]) -> TimeIndex {
        TimeIndex::new(ms.iter().map(|m| t(*m)).collect())
    }

    /// The reference the index must agree with: a linear scan.
    fn naive_count_open(ms: &[u64], a: u64, b: u64) -> usize {
        ms.iter().filter(|m| **m > a && **m < b).count()
    }

    #[test]
    fn open_interval_counts_match_linear_scan() {
        let ms = [10, 20, 20, 30, 45, 45, 45, 60];
        let ix = idx(&ms);
        for a in [0u64, 10, 15, 20, 44, 45, 60, 70] {
            for b in [0u64, 10, 20, 21, 45, 46, 60, 61, 100] {
                assert_eq!(
                    ix.count_in_open(t(a), t(b)),
                    naive_count_open(&ms, a, b),
                    "open ({a}, {b})"
                );
                assert_eq!(
                    ix.any_in_open(t(a), t(b)),
                    naive_count_open(&ms, a, b) > 0,
                    "any ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn closed_interval_counts_are_inclusive() {
        let ix = idx(&[10, 20, 30]);
        assert_eq!(ix.count_in_closed(t(10), t(30)), 3);
        assert_eq!(ix.count_in_closed(t(11), t(29)), 1);
        assert_eq!(ix.count_in_closed(t(30), t(10)), 0);
        assert_eq!(ix.count_in_closed(t(20), t(20)), 1);
    }

    #[test]
    fn neighbour_lookups() {
        let ix = idx(&[10, 20, 30]);
        assert_eq!(ix.first_at_or_after(t(15)), Some(t(20)));
        assert_eq!(ix.first_at_or_after(t(20)), Some(t(20)));
        assert_eq!(ix.first_at_or_after(t(31)), None);
        assert_eq!(ix.last_at_or_before(t(15)), Some(t(10)));
        assert_eq!(ix.last_at_or_before(t(10)), Some(t(10)));
        assert_eq!(ix.last_at_or_before(t(9)), None);
    }

    #[test]
    fn empty_index_answers_zero() {
        let ix = TimeIndex::default();
        assert!(ix.is_empty());
        assert_eq!(ix.count_in_open(t(0), t(100)), 0);
        assert_eq!(ix.first_at_or_after(t(0)), None);
        assert_eq!(ix.last_at_or_before(t(100)), None);
    }
}
