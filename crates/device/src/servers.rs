//! The internet side: DNS, origin servers, and the routing hub.
//!
//! Servers are marker-driven: a generic [`RpcServer`] answers any
//! `Request(tag, resp_bytes)` marker with `resp_bytes` of payload tagged
//! `Response(tag)`. The [`PushServer`] additionally keeps persistent
//! "notification" connections (the Facebook MQTT-style channel) and pushes
//! scheduled payloads down them — this simulates device A's posts reaching
//! device B in §7.3.

use crate::proto::{self, Kind};
use crate::world::Visit;
use netstack::dns::DnsServer;
use netstack::{Host, IpAddr, IpPacket, SockId, SocketAddr, TcpConfig};
use simcore::{earlier, DetRng, SimDuration, SimTime};

/// Server-side application logic attached to a host.
///
/// Wake contract: ticking a server that is neither due (its
/// [`ServerApp::next_wake`] and its host's [`Host::next_wake`] both lie
/// after `now`) nor handed a packet since its last tick is a no-op — no
/// egress, no state change, no draw from the shared `rng`. [`Internet`]
/// relies on this to visit only the nodes with work.
pub trait ServerApp {
    /// Ports the server accepts connections on. [`Internet::add_server`]
    /// listens on them when it registers the server.
    fn ports(&self) -> &[u16];
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
    delay: SimDuration,
    pending: simcore::EventQueue<(SockId, u16, u64)>,
}

impl RpcServer {
    /// Server answering on `ports` with no processing delay.
    pub fn new(ports: &[u16]) -> RpcServer {
        RpcServer {
            ports: ports.to_vec(),
            conns: Vec::new(),
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
        for &p in &self.ports {
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
    fn ports(&self) -> &[u16] {
        &self.ports
    }

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
    fn ports(&self) -> &[u16] {
        self.rpc.ports()
    }

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
    fn ports(&self) -> &[u16] {
        self.rpc.ports()
    }

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

/// One origin: a host plus its application, with its cached wake.
struct ServerNode {
    host: Host,
    app: Box<dyn ServerApp>,
    /// `earlier(host.next_wake(), app.next_wake())` as of the node's last
    /// tick or egress drain, or the instant a packet was last handed in.
    wake: Option<SimTime>,
    /// Injected stall windows `[from, until)`: packets to this node are
    /// dropped inside them.
    stalls: Vec<(SimTime, SimTime)>,
}

impl ServerNode {
    fn due(&self, now: SimTime) -> bool {
        self.wake.is_some_and(|w| w <= now)
    }

    fn refresh(&mut self) {
        self.wake = earlier(self.host.next_wake(), self.app.next_wake());
    }
}

/// The public internet: resolver plus origin servers, with routing by
/// destination address.
///
/// Wake-indexed: each node caches its next wake, a routed packet marks its
/// node due, and [`Internet::tick`] visits only due nodes (in registration
/// order, so draws from the shared `rng` keep their order). By the
/// [`ServerApp`] and [`Host::poll`] contracts the skipped visits were
/// no-ops.
pub struct Internet {
    /// The DNS resolver.
    pub dns: DnsServer,
    nodes: Vec<ServerNode>,
    rng: DetRng,
    dns_egress: Vec<IpPacket>,
    next_dns_id: u64,
    /// Injected DNS failure windows `[from, until)`: queries arriving
    /// inside a window are dropped (resolver unreachable; the stub
    /// resolver's retry handles recovery).
    dns_outages: Vec<(SimTime, SimTime)>,
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
            dns_dropped: 0,
            stall_dropped: 0,
        }
    }

    /// Inject a DNS failure window: queries in `[from, until)` go
    /// unanswered.
    pub fn fail_dns(&mut self, from: SimTime, until: SimTime) {
        self.dns_outages.push((from, until));
    }

    /// Inject a server stall: packets addressed to the server `name`
    /// resolves to (an alias stalls its origin) are dropped in
    /// `[from, until)` (connection appears hung, new connection attempts
    /// time out and retry). Panics if `name` resolves to no server.
    pub fn stall_server(&mut self, name: &str, from: SimTime, until: SimTime) {
        let node = self
            .dns
            .lookup(name)
            .and_then(|ip| self.nodes.iter_mut().find(|n| n.host.ip == ip))
            .unwrap_or_else(|| panic!("invalid server stall: unknown server {name:?}"));
        node.stalls.push((from, until));
    }

    /// Register an additional DNS name for an existing server's address.
    pub fn add_alias(&mut self, name: &str, ip: IpAddr) {
        self.dns.register(name, ip);
    }

    /// Register a named server, listening on the app's ports.
    pub fn add_server(&mut self, name: &str, ip: IpAddr, app: Box<dyn ServerApp>) {
        self.dns.register(name, ip);
        let mut host = Host::new(ip, self.dns.addr, TcpConfig::default());
        for &port in app.ports() {
            host.listen(port);
        }
        let mut node = ServerNode {
            host,
            app,
            wake: None,
            stalls: Vec::new(),
        };
        node.refresh();
        self.nodes.push(node);
    }

    /// The origin servers' network stacks, in registration order.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.nodes.iter().map(|n| &n.host)
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
            if node.stalls.iter().any(|(f, u)| *f <= now && now < *u) {
                self.stall_dropped += 1;
                return;
            }
            node.host.on_packet(&pkt, now);
            node.wake = Some(now);
        }
    }

    /// Drive every server that is due or was handed a packet.
    pub fn tick(&mut self, now: SimTime) {
        self.visit(now, Visit::Due);
    }

    /// Drive the servers `visit` selects, in registration order.
    pub(crate) fn visit(&mut self, now: SimTime, visit: Visit) {
        for node in &mut self.nodes {
            if visit == Visit::Every || node.due(now) {
                node.app.tick(&mut node.host, now, &mut self.rng);
                node.host.poll(now);
                node.refresh();
            }
        }
    }

    /// Drain packets heading back toward the access network.
    pub fn take_egress(&mut self) -> Vec<IpPacket> {
        let mut out = core::mem::take(&mut self.dns_egress);
        for node in &mut self.nodes {
            let drained = out.len();
            while let Some(p) = node.host.pop_egress() {
                out.push(p);
            }
            if out.len() > drained {
                node.refresh();
            }
        }
        out
    }

    /// Earliest instant any server has work (from the cached node wakes).
    pub fn next_wake(&self) -> Option<SimTime> {
        self.nodes
            .iter()
            .fold(self.dns_wake(), |wake, node| earlier(wake, node.wake))
    }

    /// [`Internet::next_wake`] recomputed from every host and app, ignoring
    /// the cache.
    pub(crate) fn scan_next_wake(&self) -> Option<SimTime> {
        self.nodes.iter().fold(self.dns_wake(), |wake, node| {
            earlier(earlier(wake, node.host.next_wake()), node.app.next_wake())
        })
    }

    fn dns_wake(&self) -> Option<SimTime> {
        if self.dns_egress.is_empty() {
            None
        } else {
            Some(SimTime::ZERO)
        }
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

    /// Pump at every wake of `client` or `net` up to `until`, so neither
    /// is due at `until` afterwards.
    fn advance(client: &mut Host, net: &mut Internet, until: SimTime) {
        for _ in 0..1_000 {
            match earlier(client.next_wake(), net.next_wake()) {
                Some(w) if w <= until => pump(client, net, w),
                _ => return,
            }
        }
        panic!("no quiet instant before {until}");
    }

    /// Resolve `name` through `net` and open a connection to its `port`.
    fn connect(client: &mut Host, net: &mut Internet, name: &str, port: u16) -> SockId {
        client.resolve(name, SimTime::ZERO);
        pump(client, net, SimTime::ZERO);
        let ip = client.resolve(name, SimTime::ZERO).expect("resolved");
        client.connect(SocketAddr::new(ip, port))
    }

    /// Tick the only node at `now`, which must precede its wake, with no
    /// packet handed in, and check the wake contract: no egress, the same
    /// wakes, and no draw from the rng stream.
    fn assert_idle_tick_is_noop(net: &mut Internet, now: SimTime) {
        let node = &mut net.nodes[0];
        let (host_wake, app_wake) = (node.host.next_wake(), node.app.next_wake());
        assert!(
            earlier(host_wake, app_wake).is_none_or(|w| w > now),
            "node is due at {now}"
        );
        let mut rng = DetRng::seed_from_u64(99);
        let mut twin = DetRng::seed_from_u64(99);
        node.app.tick(&mut node.host, now, &mut rng);
        node.host.poll(now);
        assert!(node.host.pop_egress().is_none());
        assert_eq!(node.host.next_wake(), host_wake);
        assert_eq!(node.app.next_wake(), app_wake);
        assert_eq!(rng.f64(), twin.f64(), "idle tick drew from the rng");
    }

    fn client() -> Host {
        Host::new(IpAddr::new(10, 0, 0, 1), resolver(), TcpConfig::default())
    }

    #[test]
    fn idle_rpc_server_tick_is_noop() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(4));
        net.add_server(
            "web.example.com",
            IpAddr::new(93, 184, 0, 1),
            Box::new(RpcServer::new(&[80])),
        );
        let mut client = client();
        let s = connect(&mut client, &mut net, "web.example.com", 80);
        client.sock_mut(s).send_marked(500, proto::req(1, 20_000));
        advance(&mut client, &mut net, SimTime::from_secs(10));
        assert_eq!(client.sock(s).total_received(), 20_000);
        assert_idle_tick_is_noop(&mut net, SimTime::from_secs(10));
    }

    #[test]
    fn idle_delayed_rpc_server_tick_is_noop() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(5));
        net.add_server(
            "api.example.com",
            IpAddr::new(93, 184, 0, 2),
            Box::new(RpcServer::new(&[443]).with_delay(SimDuration::from_millis(500))),
        );
        let mut client = client();
        let s = connect(&mut client, &mut net, "api.example.com", 443);
        client.sock_mut(s).send_marked(500, proto::req(2, 8_000));
        pump(&mut client, &mut net, SimTime::ZERO);
        // The request is in; its answer waits out the processing delay.
        assert!(net.nodes[0].app.next_wake().is_some());
        assert_idle_tick_is_noop(&mut net, SimTime::from_millis(100));
    }

    #[test]
    fn idle_push_server_tick_is_noop() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(6));
        let schedule = PushSchedule {
            interval: Some(SimDuration::from_secs(60)),
            bytes: 9_000,
            offset: None,
        };
        net.add_server(
            "push.example.com",
            IpAddr::new(31, 13, 0, 9),
            Box::new(PushServer::new(&[8883], schedule)),
        );
        let mut client = client();
        let s = connect(&mut client, &mut net, "push.example.com", 8883);
        client.sock_mut(s).send_marked(100, proto::subscribe(1));
        advance(&mut client, &mut net, SimTime::from_secs(30));
        assert_eq!(net.nodes[0].app.next_wake(), Some(SimTime::from_secs(60)));
        assert_idle_tick_is_noop(&mut net, SimTime::from_secs(30));
    }

    #[test]
    fn idle_facebook_origin_tick_is_noop() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(7));
        net.add_server(
            "graph.example.com",
            IpAddr::new(31, 13, 64, 2),
            Box::new(FacebookOrigin::new(9_000, SimDuration::from_millis(1_100))),
        );
        let mut client = client();
        let sub = connect(&mut client, &mut net, "graph.example.com", 8883);
        client.sock_mut(sub).send_marked(100, proto::subscribe(1));
        let post = connect(&mut client, &mut net, "graph.example.com", 443);
        client.sock_mut(post).send_marked(2_000, proto::req(3, 500));
        pump(&mut client, &mut net, SimTime::ZERO);
        // The post is pending behind the write-path delay.
        assert!(net.nodes[0].app.next_wake().is_some());
        assert_idle_tick_is_noop(&mut net, SimTime::from_millis(100));
    }

    #[test]
    fn stall_on_alias_drops_packets_to_its_origin() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(8));
        let origin = IpAddr::new(31, 13, 64, 2);
        net.add_server(
            "graph.example.com",
            origin,
            Box::new(RpcServer::new(&[443])),
        );
        net.add_alias("push.example.com", origin);
        net.stall_server("push.example.com", SimTime::ZERO, SimTime::from_secs(5));
        let mut client = client();
        client.connect(SocketAddr::new(origin, 443));
        client.poll(SimTime::ZERO);
        let syn = client.pop_egress().expect("SYN");
        net.route(syn.clone(), SimTime::from_secs(1));
        assert_eq!(net.stall_dropped, 1);
        assert_eq!(net.next_wake(), None, "a dropped packet marks no node");
        // After the window the origin answers.
        net.route(syn, SimTime::from_secs(5));
        net.tick(SimTime::from_secs(5));
        assert_eq!(net.stall_dropped, 1);
        assert_eq!(net.take_egress().len(), 1, "SYN-ACK");
    }

    #[test]
    #[should_panic(expected = "invalid server stall: unknown server \"nope.example.com\"")]
    fn stall_on_unknown_server_panics() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(9));
        net.add_server(
            "web.example.com",
            IpAddr::new(93, 184, 0, 1),
            Box::new(RpcServer::new(&[80])),
        );
        net.stall_server("nope.example.com", SimTime::ZERO, SimTime::from_secs(1));
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
