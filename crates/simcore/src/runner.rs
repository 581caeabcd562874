//! Poll-driven simulation loop.
//!
//! Components are event-driven state machines in the smoltcp style: each one
//! exposes *when* it next has work ([`Tick::next_wake`]) and a method to
//! perform all work due at the current instant ([`Tick::tick`]). A scenario
//! composes components into one root object and [`run_until`] advances the
//! shared clock from wake to wake. Because ticking one sub-component can
//! create same-instant work for another (a packet handed across a zero-cost
//! boundary), the runner re-ticks at a fixed instant until the root reports
//! no more work due ([`settle`]) before letting time advance ([`advance`]).
//! These two functions are the workspace's only settle loop.
//!
//! Wake-indexed internet: a root is ticked at every instant any part of
//! it has work, but its composites need not pass each tick to every child.
//! By the [`Tick::tick`] wake contract, a child that is neither due nor
//! handed input would do nothing, so `device::Internet` ticks only the
//! server nodes that are due or were just handed a packet (each node
//! caches its next wake), and a phone polls its host only when the host is
//! due. On `repro fig17 --quick` (856,238 world ticks) that cut server-node
//! ticks from 4,281,190 to 72,408 and `Host::poll` calls from 5,137,428 to
//! 167,003, with byte-identical output; `device::world::reference` keeps
//! the visit-everything loop as the differential oracle. Device apps are
//! still ticked at every instant: their ticks integrate elapsed time (see
//! `device::App`).

use crate::time::SimTime;

/// A pollable simulation component.
pub trait Tick {
    /// Perform all work due at or before `now`.
    ///
    /// Wake contract: ticking a component that is neither due (its
    /// [`Tick::next_wake`] lies after `now`, or is `None`) nor handed input
    /// since its last tick is a no-op. Composites lean on it to visit only
    /// the children with work. A part that cannot keep it (a device app,
    /// whose tick integrates the time elapsed since the last one) must be
    /// ticked at every instant its composite settles.
    fn tick(&mut self, now: SimTime);

    /// Earliest instant at which this component next has work, or `None`
    /// when idle. May return instants `<= now` while same-instant work
    /// remains.
    fn next_wake(&self) -> Option<SimTime>;

    /// Human-readable state for a livelock panic: which sub-component keeps
    /// requesting work. Composite roots override this; the default says
    /// only when the component next wakes.
    fn wake_report(&self) -> String {
        format!("next wake {:?}", self.next_wake())
    }
}

/// Combine two optional wake times into the earlier one.
pub fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Maximum number of same-instant settle iterations before the runner
/// declares a livelock. Generous; real cascades settle in a handful.
const SETTLE_LIMIT: u32 = 100_000;

/// Tick `root` at `now` until it reports no more work due at or before
/// `now`, and return its next wake (later than `now`, or `None` when idle).
/// Panics with the root's [`Tick::wake_report`] if that takes
/// `SETTLE_LIMIT` ticks.
pub fn settle<T: Tick>(root: &mut T, now: SimTime) -> Option<SimTime> {
    let mut settles = 0;
    loop {
        match root.next_wake() {
            Some(w) if w <= now => {}
            next => return next,
        }
        crate::watchdog::observe(now);
        root.tick(now);
        settles += 1;
        assert!(
            settles < SETTLE_LIMIT,
            "livelock at {now}: {}",
            root.wake_report()
        );
    }
}

/// Settle `root` at `from`, then at every later instant with work up to and
/// including `end`. Returns the time of the last processed instant (`from`
/// if nothing was due).
pub fn advance<T: Tick>(root: &mut T, from: SimTime, end: SimTime) -> SimTime {
    let mut now = from;
    loop {
        match settle(root, now) {
            Some(w) if w <= end => now = w,
            _ => return now,
        }
    }
}

/// Run `root` from t = 0 until the clock would pass `end` or the system goes
/// idle. Returns the time of the last processed instant.
pub fn run_until<T: Tick>(root: &mut T, end: SimTime) -> SimTime {
    advance(root, SimTime::ZERO, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::time::{SimDuration, SimTime};

    /// A toy component: fires at fixed intervals, recording fire times, and
    /// on each Nth fire schedules an immediate same-instant follow-up.
    struct Periodic {
        q: EventQueue<&'static str>,
        fired: Vec<(SimTime, &'static str)>,
    }

    impl Tick for Periodic {
        fn tick(&mut self, now: SimTime) {
            while let Some((at, tag)) = self.q.pop_due(now) {
                self.fired.push((at, tag));
                if tag == "main" {
                    // Same-instant cascade.
                    self.q.push(now, "follow");
                    if self.fired.iter().filter(|(_, t)| *t == "main").count() < 3 {
                        self.q.push(now + SimDuration::from_secs(1), "main");
                    }
                }
            }
        }
        fn next_wake(&self) -> Option<SimTime> {
            self.q.next_at()
        }
    }

    #[test]
    fn runs_periodic_events_with_cascades() {
        let mut p = Periodic {
            q: EventQueue::new(),
            fired: Vec::new(),
        };
        p.q.push(SimTime::from_secs(1), "main");
        let last = run_until(&mut p, SimTime::from_secs(100));
        assert_eq!(last, SimTime::from_secs(3));
        let tags: Vec<_> = p.fired.iter().map(|(_, t)| *t).collect();
        assert_eq!(
            tags,
            vec!["main", "follow", "main", "follow", "main", "follow"]
        );
    }

    #[test]
    fn stops_at_end_time() {
        let mut p = Periodic {
            q: EventQueue::new(),
            fired: Vec::new(),
        };
        p.q.push(SimTime::from_secs(5), "late");
        let last = run_until(&mut p, SimTime::from_secs(2));
        assert_eq!(last, SimTime::ZERO);
        assert!(p.fired.is_empty());
        assert_eq!(p.next_wake(), Some(SimTime::from_secs(5)));
    }

    /// The toy seeded with three periodic "main" fires from 1 s plus a lone
    /// event between them.
    fn periodic() -> Periodic {
        let mut p = Periodic {
            q: EventQueue::new(),
            fired: Vec::new(),
        };
        p.q.push(SimTime::from_secs(1), "main");
        p.q.push(SimTime::from_millis(2_500), "lone");
        p
    }

    proptest::proptest! {
        /// Advancing to arbitrary targets in steps, settling at each target
        /// as `Controller::advance_to` does, fires the same `(time, tag)`
        /// sequence as one `run_until`.
        #[test]
        fn stepped_advance_matches_one_run(
            steps in proptest::prop::collection::vec(0u64..1_500_000, 0..12),
        ) {
            let end = SimTime::from_secs(10);
            let mut whole = periodic();
            run_until(&mut whole, end);

            let mut stepped = periodic();
            let mut now = SimTime::ZERO;
            for step in steps {
                let target = (now + SimDuration::from_micros(step)).min(end);
                advance(&mut stepped, now, target);
                now = target;
                settle(&mut stepped, now);
            }
            advance(&mut stepped, now, end);
            proptest::prop_assert_eq!(&stepped.fired, &whole.fired);
            proptest::prop_assert_eq!(settle(&mut stepped, end), stepped.next_wake());
        }
    }

    /// Always has work at the current instant and never makes progress.
    struct Stuck;

    impl Tick for Stuck {
        fn tick(&mut self, _now: SimTime) {}
        fn next_wake(&self) -> Option<SimTime> {
            Some(SimTime::ZERO)
        }
        fn wake_report(&self) -> String {
            "stuck component report".into()
        }
    }

    #[test]
    fn settle_limit_panics_with_the_wake_report() {
        let err = std::panic::catch_unwind(|| run_until(&mut Stuck, SimTime::from_secs(1)))
            .expect_err("a component that always wakes at now must livelock");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("livelock at"), "{msg}");
        assert!(msg.contains("stuck component report"), "{msg}");
    }

    #[test]
    fn default_wake_report_names_the_next_wake() {
        assert_eq!(periodic().wake_report(), "next wake Some(SimTime(1000000))");
    }

    #[test]
    fn earlier_combines() {
        let a = Some(SimTime::from_secs(1));
        let b = Some(SimTime::from_secs(2));
        assert_eq!(earlier(a, b), a);
        assert_eq!(earlier(None, b), b);
        assert_eq!(earlier(a, None), a);
        assert_eq!(earlier(None, None), None);
    }
}
