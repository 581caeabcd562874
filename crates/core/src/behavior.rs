//! The AppBehaviorLog (§4.3.1).
//!
//! While replaying user behaviour, the controller's *wait* component logs
//! each measured interaction: the start and end timestamps that bound the
//! user-perceived latency, plus the parsing-cost statistics the
//! application-layer analyzer needs for calibration (§5.1).

use simcore::{RecordLog, SimDuration, SimTime};

/// How the start timestamp of a measurement was obtained, which determines
/// the calibration constant (§5.1):
///
/// * started by a controller-triggered UI event → expected error is
///   `t_offset + t_parsing = (3/2)·t_parsing`;
/// * started by observing a UI change (progress bar appearing) → start and
///   end carry the same expected offset, leaving one `t_parsing`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    /// Start = the instant the controller injected the triggering event.
    Trigger,
    /// Start = observed via UI-tree parsing (app-triggered waits).
    Parse,
}

/// One measured interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorRecord {
    /// Action label, e.g. `upload_post:status`, `pull_to_update`,
    /// `video:initial_loading`, `video:rebuffer`, `page_load`.
    pub action: String,
    /// Measurement start (raw).
    pub start: SimTime,
    /// Measurement end (raw — when the parse pass that saw the change
    /// completed).
    pub end: SimTime,
    /// How the start was obtained.
    pub start_kind: StartKind,
    /// Mean UI-parse cost observed during this wait (the `t_parsing` used
    /// for calibration).
    pub mean_parse: SimDuration,
    /// Whether the wait ended by timeout rather than by the UI condition.
    pub timed_out: bool,
}

impl BehaviorRecord {
    /// Raw measured latency `t_m`.
    pub fn raw(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Calibrated user-perceived latency per §5.1: subtract
    /// `(3/2)·t_parsing` for trigger-started metrics and `t_parsing` for
    /// parse-started metrics.
    pub fn calibrated(&self) -> SimDuration {
        let correction = match self.start_kind {
            StartKind::Trigger => self.mean_parse.mul_f64(1.5),
            StartKind::Parse => self.mean_parse,
        };
        self.raw().saturating_sub(correction)
    }
}

/// The behaviour log: records pushed at their end time.
pub type AppBehaviorLog = RecordLog<BehaviorRecord>;

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: StartKind, raw_ms: u64, parse_ms: u64) -> BehaviorRecord {
        BehaviorRecord {
            action: "test".into(),
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(10) + SimDuration::from_millis(raw_ms),
            start_kind: kind,
            mean_parse: SimDuration::from_millis(parse_ms),
            timed_out: false,
        }
    }

    #[test]
    fn trigger_calibration_subtracts_1_5_parse() {
        let r = rec(StartKind::Trigger, 1000, 20);
        assert_eq!(r.raw(), SimDuration::from_millis(1000));
        assert_eq!(r.calibrated(), SimDuration::from_millis(970));
    }

    #[test]
    fn parse_calibration_subtracts_one_parse() {
        let r = rec(StartKind::Parse, 1000, 20);
        assert_eq!(r.calibrated(), SimDuration::from_millis(980));
    }

    #[test]
    fn calibration_saturates_at_zero() {
        let r = rec(StartKind::Trigger, 10, 20);
        assert_eq!(r.calibrated(), SimDuration::ZERO);
    }
}
