//! # simcore — deterministic discrete-event simulation substrate
//!
//! Shared foundation for the QoE Doctor reproduction: a virtual clock
//! ([`SimTime`]/[`SimDuration`]), a deterministic event queue
//! ([`EventQueue`]), seeded randomness ([`DetRng`]), timestamped record logs
//! ([`RecordLog`]) that the offline analyzers window over, the poll-driven
//! simulation loop ([`Tick`]/[`run_until`]), and the statistics containers
//! the experiment harness reports with ([`Summary`], [`Cdf`], [`BinSeries`]).
//!
//! Design rules enforced throughout the workspace:
//!
//! * **No ambient time or randomness.** All time comes from the simulated
//!   clock, all randomness from a [`DetRng`] derived from the experiment
//!   seed, so every figure regenerates bit-for-bit.
//! * **Poll-driven components.** Following the event-driven style of
//!   production Rust network stacks, components are plain state machines that
//!   report when they next need service; there is no async runtime and no
//!   threads inside the simulation.

#![warn(missing_docs)]

mod log;
mod queue;
mod rng;
mod runner;
mod stats;
mod time;
pub mod watchdog;

pub use log::{RecordLog, Stamped};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use runner::{advance, earlier, run_until, settle, Tick};
pub use stats::{midranks, percentile, percentile_sorted, BinSeries, Cdf, SortedSamples, Summary};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod tests {
    use super::DetRng;

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&r.f64()));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!((10..20).contains(&r.range_u64(10, 20)));
            assert!(r.index(7) < 7);
        }
    }
}
