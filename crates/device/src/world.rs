//! The composed scenario: one phone, the internet, and the glue.
//!
//! A [`World`] implements [`Tick`] so `simcore::run_until` can drive an
//! entire experiment: the phone's stack and radio, the packet exchange with
//! the internet hub, and every origin server.
//!
//! A world tick visits only the components with work: the internet ticks
//! the server nodes that are due or were handed a packet, and each device
//! polls its host only when the host is due. [`mod@reference`] keeps the loop
//! that visits everything, as the differential oracle.

use crate::phone::{NetAttachment, Phone};
use crate::servers::Internet;
use simcore::{earlier, SimTime, Tick};

/// Which components a world tick visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Visit {
    /// Only those due at `now` or handed input since their last tick.
    Due,
    /// Every server node and every host (the [`mod@reference`] loop).
    Every,
}

/// A phone attached to the internet, optionally alongside peer devices
/// (the paper's two-device experiments: device B is `phone`, device A a
/// peer).
pub struct World {
    /// The device under test (the one the controller drives and measures).
    pub phone: Phone,
    /// Autonomous peer devices (e.g. the posting "device A" of §7.3).
    pub peers: Vec<Phone>,
    /// Everything on the far side of the access networks.
    pub internet: Internet,
}

impl World {
    /// Assemble a world.
    pub fn new(phone: Phone, internet: Internet) -> World {
        World {
            phone,
            peers: Vec::new(),
            internet,
        }
    }

    /// Attach an autonomous peer device.
    pub fn add_peer(&mut self, peer: Phone) {
        self.peers.push(peer);
    }

    fn step(&mut self, now: SimTime, visit: Visit) {
        self.phone.tick(now, visit);
        for p in self.phone.take_uplink(now) {
            self.internet.route(p, now);
        }
        for peer in &mut self.peers {
            peer.tick(now, visit);
            for p in peer.take_uplink(now) {
                self.internet.route(p, now);
            }
        }
        self.internet.visit(now, visit);
        for p in self.internet.take_egress() {
            // Route downlink traffic to whichever device owns the address.
            if p.dst.ip == self.phone.host.ip {
                self.phone.deliver_downlink(p, now);
            } else if let Some(peer) = self.peers.iter_mut().find(|peer| peer.host.ip == p.dst.ip) {
                peer.deliver_downlink(p, now);
            }
        }
    }

    fn wake_from(&self, internet: Option<SimTime>) -> Option<SimTime> {
        let mut wake = earlier(self.phone.next_wake(), internet);
        for peer in &self.peers {
            wake = earlier(wake, peer.next_wake());
        }
        wake
    }
}

impl Tick for World {
    fn tick(&mut self, now: SimTime) {
        self.step(now, Visit::Due);
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.wake_from(self.internet.next_wake())
    }

    /// Each component's next wake time, so a livelock panic names the one
    /// that keeps requesting immediate work without making progress.
    fn wake_report(&self) -> String {
        let net = match &self.phone.net {
            NetAttachment::Cell(b) => format!("bearer[{}]", b.wake_report()),
            NetAttachment::Wifi { up, down } => {
                format!("net={:?}", earlier(up.next_wake(), down.next_wake()))
            }
        };
        format!(
            "host={:?} app={:?} {net} internet={:?}",
            self.phone.host.next_wake(),
            self.phone.app.next_wake(),
            self.internet.next_wake()
        )
    }
}

/// The visit-everything loop, the differential oracle for the wake-indexed
/// one (`crates/repro/tests/wake_differential.rs`): every tick visits every
/// server node and polls every host, and every wake is recomputed from
/// scratch. Simulation code never drives a world through it.
pub mod reference {
    use super::{Visit, World};
    use simcore::{SimTime, Tick};

    /// Drives the borrowed world with the visit-everything loop.
    pub struct TickEverything<'a>(pub &'a mut World);

    impl Tick for TickEverything<'_> {
        fn tick(&mut self, now: SimTime) {
            self.0.step(now, Visit::Every);
        }

        fn next_wake(&self) -> Option<SimTime> {
            self.0.wake_from(self.0.internet.scan_next_wake())
        }
    }
}
