//! The internet side: DNS, origin servers, and the routing hub.
//!
//! Servers are marker-driven: a generic [`RpcServer`] answers any
//! `Request(tag, resp_bytes)` marker with `resp_bytes` of payload tagged
//! `Response(tag)`. The [`PushServer`] additionally keeps persistent
//! "notification" connections (the Facebook MQTT-style channel) and pushes
//! scheduled payloads down them — this simulates device A's posts reaching
//! device B in §7.3.

use crate::proto::{self, Kind};
use netstack::dns::DnsServer;
use netstack::{Host, IpAddr, IpPacket, SockId, SocketAddr, TcpConfig};
use simcore::{earlier, DetRng, SimDuration, SimTime};

/// Server-side application logic attached to a host.
pub trait ServerApp {
    /// Drive the server at `now`.
    fn tick(&mut self, host: &mut Host, now: SimTime, rng: &mut DetRng);
    /// Earliest self-scheduled work (push timers), if any.
    fn next_wake(&self) -> Option<SimTime> {
        None
    }
}

/// Jitter fraction of [`RpcServer`]'s per-request processing delay.
const DELAY_JITTER: f64 = 0.3;

/// Generic request/response server: listens on the given ports, accepts
/// connections, and answers request markers after a configurable
/// processing delay (origin/application time — this is the "server
/// processing delay" bucket of the paper's *other delay*, Fig. 9).
pub struct RpcServer {
    ports: Vec<u16>,
    conns: Vec<SockId>,
    listening: bool,
    delay: SimDuration,
    pending: simcore::EventQueue<(SockId, u16, u64)>,
}

impl RpcServer {
    /// Server answering on `ports` with no processing delay.
    pub fn new(ports: &[u16]) -> RpcServer {
        RpcServer {
            ports: ports.to_vec(),
            conns: Vec::new(),
            listening: false,
            delay: SimDuration::ZERO,
            pending: simcore::EventQueue::new(),
        }
    }

    /// Builder: add a mean per-request processing delay.
    pub fn with_delay(mut self, delay: SimDuration) -> RpcServer {
        self.delay = delay;
        self
    }

    fn accept_all(&mut self, host: &mut Host) {
        if !self.listening {
            for p in &self.ports {
                host.listen(*p);
            }
            self.listening = true;
        }
        for p in self.ports.clone() {
            while let Some(s) = host.accept(p) {
                self.conns.push(s);
            }
        }
    }

    fn drive(&mut self, host: &mut Host, now: SimTime, rng: &mut DetRng) {
        for &s in &self.conns {
            let markers = host.sock_mut(s).take_markers();
            for m in markers {
                if let Some((Kind::Request, tag, resp_bytes)) = proto::unpack(m) {
                    if self.delay.is_zero() {
                        host.sock_mut(s)
                            .send_marked(resp_bytes.max(1), proto::resp(tag));
                    } else {
                        let d = rng.jittered(self.delay, DELAY_JITTER);
                        self.pending.push(now + d, (s, tag, resp_bytes));
                    }
                }
            }
        }
        while let Some((_, (s, tag, resp_bytes))) = self.pending.pop_due(now) {
            host.sock_mut(s)
                .send_marked(resp_bytes.max(1), proto::resp(tag));
        }
    }
}

impl ServerApp for RpcServer {
    fn tick(&mut self, host: &mut Host, now: SimTime, rng: &mut DetRng) {
        self.accept_all(host);
        self.drive(host, now, rng);
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.pending.next_at()
    }
}

/// A scheduled push stream: every `interval`, send `bytes` down every
/// subscribed connection.
#[derive(Debug, Clone)]
pub struct PushSchedule {
    /// Push period. `None` disables pushes.
    pub interval: Option<SimDuration>,
    /// Payload bytes per push.
    pub bytes: u64,
    /// Delay from subscription to the first push. Defaults to `interval`;
    /// set differently to de-phase pushes from other periodic activity.
    pub offset: Option<SimDuration>,
}

/// RpcServer plus persistent push channels (Facebook origin).
pub struct PushServer {
    rpc: RpcServer,
    schedule: PushSchedule,
    subscribers: Vec<SockId>,
    next_push: Option<SimTime>,
    push_seq: u16,
    /// Pushes delivered so far.
    pub pushes_sent: u64,
}

impl PushServer {
    /// Server on `ports` with the given push schedule.
    pub fn new(ports: &[u16], schedule: PushSchedule) -> PushServer {
        PushServer {
            rpc: RpcServer::new(ports),
            schedule,
            subscribers: Vec::new(),
            next_push: None,
            push_seq: 0,
            pushes_sent: 0,
        }
    }
}

impl ServerApp for PushServer {
    fn tick(&mut self, host: &mut Host, now: SimTime, _rng: &mut DetRng) {
        self.rpc.accept_all(host);
        // Scan for subscriptions; answer plain requests.
        for &s in &self.rpc.conns {
            let markers = host.sock_mut(s).take_markers();
            for m in markers {
                match proto::unpack(m) {
                    Some((Kind::Request, tag, resp_bytes)) => {
                        host.sock_mut(s)
                            .send_marked(resp_bytes.max(1), proto::resp(tag));
                    }
                    Some((Kind::Subscribe, _, _)) => {
                        self.subscribers.push(s);
                        if self.next_push.is_none() {
                            if let Some(iv) = self.schedule.interval {
                                let first = self.schedule.offset.unwrap_or(iv);
                                self.next_push = Some(now + first);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        // Fire due pushes.
        if let (Some(at), Some(iv)) = (self.next_push, self.schedule.interval) {
            if now >= at && !self.subscribers.is_empty() {
                for &s in &self.subscribers {
                    if host.sock(s).is_established() && !host.sock(s).is_closed() {
                        self.push_seq = self.push_seq.wrapping_add(1);
                        host.sock_mut(s).send_marked(
                            self.schedule.bytes,
                            proto::push(self.push_seq, self.schedule.bytes),
                        );
                        self.pushes_sent += 1;
                    }
                }
                self.next_push = Some(at + iv);
            }
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        if self.subscribers.is_empty() {
            None
        } else {
            self.next_push
        }
    }
}

/// The Facebook origin of the two-device experiments (§7.3/§7.4): the
/// write path (port 443, posts from device A) and the push channel (port
/// 8883, device B's persistent connection) live on one host. Each
/// acknowledged post is relayed as a notification to every subscriber —
/// device A's posts reach device B with no scripted schedule.
pub struct FacebookOrigin {
    rpc: RpcServer,
    subscribers: Vec<SockId>,
    /// Notification payload per relayed post.
    pub notification_bytes: u64,
    /// Server-side processing before the post is acknowledged and relayed.
    pub write_delay: SimDuration,
    write_jitter: f64,
    pending: simcore::EventQueue<(SockId, u16, u64)>,
    push_seq: u16,
    /// Notifications relayed so far.
    pub notifications_sent: u64,
}

impl FacebookOrigin {
    /// New origin: posts on 443, subscriptions on 8883.
    pub fn new(notification_bytes: u64, write_delay: SimDuration) -> FacebookOrigin {
        FacebookOrigin {
            rpc: RpcServer::new(&[443, 8883]),
            subscribers: Vec::new(),
            notification_bytes,
            write_delay,
            write_jitter: 0.15,
            pending: simcore::EventQueue::new(),
            push_seq: 0,
            notifications_sent: 0,
        }
    }
}

impl ServerApp for FacebookOrigin {
    fn tick(&mut self, host: &mut Host, now: SimTime, rng: &mut DetRng) {
        self.rpc.accept_all(host);
        for &s in &self.rpc.conns {
            let markers = host.sock_mut(s).take_markers();
            for m in markers {
                match proto::unpack(m) {
                    Some((Kind::Request, tag, resp_bytes)) => {
                        // A post upload: acknowledge after the write-path
                        // delay, then relay.
                        let d = rng.jittered(self.write_delay, self.write_jitter);
                        self.pending.push(now + d, (s, tag, resp_bytes));
                    }
                    Some((Kind::Subscribe, _, _)) => self.subscribers.push(s),
                    _ => {}
                }
            }
        }
        while let Some((_, (s, tag, resp_bytes))) = self.pending.pop_due(now) {
            host.sock_mut(s)
                .send_marked(resp_bytes.max(1), proto::resp(tag));
            // Relay the post to every live subscriber.
            for &sub in &self.subscribers {
                if host.sock(sub).is_established() && !host.sock(sub).is_closed() {
                    self.push_seq = self.push_seq.wrapping_add(1);
                    host.sock_mut(sub).send_marked(
                        self.notification_bytes,
                        proto::push(self.push_seq, self.notification_bytes),
                    );
                    self.notifications_sent += 1;
                }
            }
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.pending.next_at()
    }
}

/// One origin: a host plus its application.
pub struct ServerNode {
    /// Hostname registered in DNS.
    pub name: String,
    /// The server's network stack.
    pub host: Host,
    /// Its application logic.
    pub app: Box<dyn ServerApp>,
}

/// The public internet: resolver plus origin servers, with routing by
/// destination address.
pub struct Internet {
    /// The DNS resolver.
    pub dns: DnsServer,
    /// Origin servers.
    pub nodes: Vec<ServerNode>,
    rng: DetRng,
    dns_egress: Vec<IpPacket>,
    next_dns_id: u64,
    /// Injected DNS failure windows `[from, until)`: queries arriving
    /// inside a window are dropped (resolver unreachable; the stub
    /// resolver's retry handles recovery).
    dns_outages: Vec<(SimTime, SimTime)>,
    /// Injected per-server stall windows: `(server_name, from, until)` —
    /// packets to that server are dropped inside the window, so
    /// established connections stall until TCP retransmits past it.
    server_stalls: Vec<(String, SimTime, SimTime)>,
    /// Queries dropped by DNS outages.
    pub dns_dropped: u64,
    /// Packets dropped by server stalls.
    pub stall_dropped: u64,
}

impl Internet {
    /// New internet with a resolver at `resolver`.
    pub fn new(resolver: SocketAddr, rng: DetRng) -> Internet {
        Internet {
            dns: DnsServer::new(resolver),
            nodes: Vec::new(),
            rng,
            dns_egress: Vec::new(),
            next_dns_id: 0,
            dns_outages: Vec::new(),
            server_stalls: Vec::new(),
            dns_dropped: 0,
            stall_dropped: 0,
        }
    }

    /// Inject a DNS failure window: queries in `[from, until)` go
    /// unanswered.
    pub fn fail_dns(&mut self, from: SimTime, until: SimTime) {
        self.dns_outages.push((from, until));
    }

    /// Inject a server stall: packets addressed to the server registered
    /// as `name` are dropped in `[from, until)` (connection appears hung,
    /// new connection attempts time out and retry).
    pub fn stall_server(&mut self, name: &str, from: SimTime, until: SimTime) {
        self.server_stalls.push((name.to_string(), from, until));
    }

    /// Register an additional DNS name for an existing server's address.
    pub fn add_alias(&mut self, name: &str, ip: IpAddr) {
        self.dns.register(name, ip);
    }

    /// Register a named server.
    pub fn add_server(&mut self, name: &str, ip: IpAddr, app: Box<dyn ServerApp>) {
        self.dns.register(name, ip);
        self.nodes.push(ServerNode {
            name: name.to_string(),
            host: Host::new(ip, self.dns.addr, TcpConfig::default()),
            app,
        });
    }

    /// Deliver a packet arriving from an access network.
    pub fn route(&mut self, pkt: IpPacket, now: SimTime) {
        if pkt.dst == self.dns.addr {
            if self.dns_outages.iter().any(|(f, u)| *f <= now && now < *u) {
                self.dns_dropped += 1;
                return;
            }
            let seq = &mut self.next_dns_id;
            let mut next_id = || {
                *seq += 1;
                0xD00D_0000_0000 | *seq
            };
            if let Some(resp) = self.dns.handle(&pkt, &mut next_id) {
                self.dns_egress.push(resp);
            }
            return;
        }
        if let Some(node) = self.nodes.iter_mut().find(|n| n.host.ip == pkt.dst.ip) {
            let stalled = self
                .server_stalls
                .iter()
                .any(|(name, f, u)| name == &node.name && *f <= now && now < *u);
            if stalled {
                self.stall_dropped += 1;
                return;
            }
            node.host.on_packet(&pkt, now);
        }
    }

    /// Drive every server.
    pub fn tick(&mut self, now: SimTime) {
        for node in &mut self.nodes {
            node.app.tick(&mut node.host, now, &mut self.rng);
            node.host.poll(now);
        }
    }

    /// Drain packets heading back toward the access network.
    pub fn take_egress(&mut self) -> Vec<IpPacket> {
        let mut out = core::mem::take(&mut self.dns_egress);
        for node in &mut self.nodes {
            while let Some(p) = node.host.pop_egress() {
                out.push(p);
            }
        }
        out
    }

    /// Earliest instant any server has work.
    pub fn next_wake(&self) -> Option<SimTime> {
        let mut wake = if self.dns_egress.is_empty() {
            None
        } else {
            Some(SimTime::ZERO)
        };
        for node in &self.nodes {
            wake = earlier(wake, node.host.next_wake());
            wake = earlier(wake, node.app.next_wake());
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::dns::DNS_PORT;

    fn resolver() -> SocketAddr {
        SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT)
    }

    /// Pump packets between a client host and the internet with no links.
    fn pump(client: &mut Host, net: &mut Internet, now: SimTime) {
        for _ in 0..10_000 {
            client.poll(now);
            let ups: Vec<IpPacket> = std::iter::from_fn(|| client.pop_egress()).collect();
            let had = !ups.is_empty();
            for p in ups {
                net.route(p, now);
            }
            net.tick(now);
            let downs = net.take_egress();
            let got = !downs.is_empty();
            for p in downs {
                client.on_packet(&p, now);
            }
            if !had && !got {
                break;
            }
        }
    }

    #[test]
    fn rpc_server_answers_requests() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(1));
        net.add_server(
            "web.example.com",
            IpAddr::new(93, 184, 0, 1),
            Box::new(RpcServer::new(&[80])),
        );
        let mut client = Host::new(IpAddr::new(10, 0, 0, 1), resolver(), TcpConfig::default());
        // DNS round.
        assert!(client.resolve("web.example.com", SimTime::ZERO).is_none());
        pump(&mut client, &mut net, SimTime::ZERO);
        let ip = client
            .resolve("web.example.com", SimTime::ZERO)
            .expect("resolved");
        let s = client.connect(SocketAddr::new(ip, 80));
        client.sock_mut(s).send_marked(500, proto::req(9, 30_000));
        pump(&mut client, &mut net, SimTime::ZERO);
        assert_eq!(client.sock(s).total_received(), 30_000);
        assert_eq!(client.sock_mut(s).take_markers(), vec![proto::resp(9)]);
    }

    #[test]
    fn push_server_pushes_on_schedule() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(2));
        net.add_server(
            "push.fb.com",
            IpAddr::new(31, 13, 0, 9),
            Box::new(PushServer::new(
                &[8883],
                PushSchedule {
                    interval: Some(SimDuration::from_secs(60)),
                    bytes: 9_000,
                    offset: None,
                },
            )),
        );
        let mut client = Host::new(IpAddr::new(10, 0, 0, 1), resolver(), TcpConfig::default());
        pump(&mut client, &mut net, SimTime::ZERO);
        client.resolve("push.fb.com", SimTime::ZERO);
        pump(&mut client, &mut net, SimTime::ZERO);
        let ip = client.resolve("push.fb.com", SimTime::ZERO).unwrap();
        let s = client.connect(SocketAddr::new(ip, 8883));
        client.sock_mut(s).send_marked(100, proto::subscribe(1));
        pump(&mut client, &mut net, SimTime::ZERO);
        // Nothing yet at t=0.
        assert_eq!(client.sock(s).total_received(), 0);
        // After one minute the first push lands.
        let t1 = SimTime::from_secs(60);
        pump(&mut client, &mut net, t1);
        assert_eq!(client.sock(s).total_received(), 9_000);
        let markers = client.sock_mut(s).take_markers();
        assert_eq!(markers.len(), 1);
        assert!(matches!(
            proto::unpack(markers[0]),
            Some((Kind::Push, _, 9_000))
        ));
        // And again a minute later.
        pump(&mut client, &mut net, SimTime::from_secs(120));
        assert_eq!(client.sock(s).total_received(), 18_000);
    }

    #[test]
    fn unknown_destination_is_dropped() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(3));
        let stray = IpPacket {
            id: 1,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 1),
            dst: SocketAddr::new(IpAddr::new(99, 99, 99, 99), 80),
            proto: netstack::Proto::Tcp,
            tcp: None,
            payload_len: 0,
            udp_payload: None,
            markers: Vec::new(),
        };
        net.route(stray, SimTime::ZERO);
        net.tick(SimTime::ZERO);
        assert!(net.take_egress().is_empty());
    }
}
