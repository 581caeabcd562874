//! Timestamped record logs.
//!
//! Every collection artifact in the system — the controller's
//! `AppBehaviorLog`, the packet capture, the QxDM diagnostic log — is
//! fundamentally a sequence of timestamped records that an offline analyzer
//! later scans and windows. [`RecordLog`] is that shared shape.

use crate::time::SimTime;

/// One timestamped record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped<T> {
    /// When the record was logged on the simulated clock.
    pub at: SimTime,
    /// The record payload.
    pub record: T,
}

/// An append-only log of timestamped records, kept in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLog<T> {
    entries: Vec<Stamped<T>>,
}

impl<T> Default for RecordLog<T> {
    fn default() -> Self {
        RecordLog {
            entries: Vec::new(),
        }
    }
}

impl<T> RecordLog<T> {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log with room for `cap` records before reallocating. High-
    /// rate writers (the packet capture, per-PDU QxDM logs) pre-size their
    /// buffer so steady-state appends never pay a growth copy.
    pub fn with_capacity(cap: usize) -> Self {
        RecordLog {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Rebuild a log from already-stamped records (a decoder restoring a
    /// persisted log). Entries must be in non-decreasing time order; this
    /// is asserted in debug builds, mirroring [`RecordLog::push`] —
    /// decoders are expected to have validated order structurally first.
    pub fn from_entries(entries: Vec<Stamped<T>>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].at <= w[1].at),
            "records must be in time order"
        );
        RecordLog { entries }
    }

    /// Ensure space for at least `additional` more records.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Append a record at `at`. Records are expected to arrive in
    /// non-decreasing time order; this is asserted in debug builds.
    pub fn push(&mut self, at: SimTime, record: T) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.at <= at),
            "records must be appended in time order"
        );
        self.entries.push(Stamped { at, record });
    }

    /// All records in arrival order.
    pub fn entries(&self) -> &[Stamped<T>] {
        &self.entries
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no records have been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records whose timestamp lies in `[start, end]` (inclusive window,
    /// matching the paper's "QoE window" semantics).
    pub fn window(&self, start: SimTime, end: SimTime) -> &[Stamped<T>] {
        let lo = self.entries.partition_point(|e| e.at < start);
        let hi = self.entries.partition_point(|e| e.at <= end);
        &self.entries[lo..hi]
    }

    /// Iterate `(time, &record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &T)> {
        self.entries.iter().map(|e| (e.at, &e.record))
    }

    /// Consume the log, returning its records.
    pub fn into_entries(self) -> Vec<Stamped<T>> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_window() {
        let mut log = RecordLog::new();
        for i in 0..10u64 {
            log.push(t(i), i);
        }
        let w = log.window(t(3), t(6));
        let vals: Vec<u64> = w.iter().map(|e| e.record).collect();
        assert_eq!(vals, vec![3, 4, 5, 6]);
    }

    #[test]
    fn window_is_inclusive_and_can_be_empty() {
        let mut log = RecordLog::new();
        log.push(t(5), "x");
        assert_eq!(log.window(t(5), t(5)).len(), 1);
        assert!(log.window(t(6), t(9)).is_empty());
        assert!(log.window(t(0), t(4)).is_empty());
    }

    #[test]
    fn iter_yields_time_and_record() {
        let mut log = RecordLog::new();
        log.push(t(1), "a");
        log.push(t(2), "b");
        let got: Vec<_> = log.iter().map(|(at, r)| (at.as_micros(), *r)).collect();
        assert_eq!(got, vec![(1_000_000, "a"), (2_000_000, "b")]);
    }
}
