//! The composed scenario: one phone, the internet, and the glue.
//!
//! A [`World`] implements [`Tick`] so `simcore::run_until` can drive an
//! entire experiment: the phone's stack and radio, the packet exchange with
//! the internet hub, and every origin server.

use crate::phone::{NetAttachment, Phone};
use crate::servers::Internet;
use simcore::{earlier, SimTime, Tick};

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
}

impl Tick for World {
    fn tick(&mut self, now: SimTime) {
        self.phone.tick(now);
        for p in self.phone.take_uplink(now) {
            self.internet.route(p, now);
        }
        for peer in &mut self.peers {
            peer.tick(now);
            for p in peer.take_uplink(now) {
                self.internet.route(p, now);
            }
        }
        self.internet.tick(now);
        for p in self.internet.take_egress() {
            // Route downlink traffic to whichever device owns the address.
            if p.dst.ip == self.phone.host.ip {
                self.phone.deliver_downlink(p, now);
            } else if let Some(peer) = self.peers.iter_mut().find(|peer| peer.host.ip == p.dst.ip) {
                peer.deliver_downlink(p, now);
            }
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        let mut wake = earlier(self.phone.next_wake(), self.internet.next_wake());
        for peer in &self.peers {
            wake = earlier(wake, peer.next_wake());
        }
        wake
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
