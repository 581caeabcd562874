//! A host: socket table, demultiplexing, and a DNS stub resolver client.
//!
//! Both the simulated phone and the origin servers own a `Host`. The host is
//! a passive state machine in the smoltcp style: the owner feeds incoming
//! packets with [`Host::on_packet`], drives protocol machinery with
//! [`Host::poll`], and drains outgoing packets with [`Host::pop_egress`].

use crate::addr::{IpAddr, SocketAddr};
use crate::dns;
use crate::packet::{IpPacket, Proto};
use crate::tcp::{TcpConfig, TcpSocket};
use simcore::{earlier, SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Handle to a socket owned by a [`Host`].
pub type SockId = usize;

/// DNS retry interval for unanswered queries.
const DNS_RETRY: SimDuration = SimDuration::from_secs(1);

#[derive(Debug)]
struct PendingQuery {
    next_retry: SimTime,
    inflight: bool,
}

/// A network host with a TCP socket table and DNS client.
pub struct Host {
    /// This host's address.
    pub ip: IpAddr,
    /// Shared socket configuration: every socket holds an `Arc` to one
    /// config, so connect/accept cost a refcount bump, not a struct clone.
    cfg: Arc<TcpConfig>,
    sockets: Vec<TcpSocket>,
    listen_ports: HashSet<u16>,
    accept_queues: HashMap<u16, VecDeque<SockId>>,
    next_ephemeral: u16,
    next_packet_seq: u64,
    egress: VecDeque<IpPacket>,
    resolver: SocketAddr,
    dns_cache: HashMap<String, IpAddr>,
    /// Ordered by name, so queries that fall due in one poll go out in a
    /// reproducible order (a `HashMap` would shuffle them per process).
    dns_pending: BTreeMap<String, PendingQuery>,
}

impl Host {
    /// New host at `ip` using `resolver` for DNS.
    pub fn new(ip: IpAddr, resolver: SocketAddr, cfg: impl Into<Arc<TcpConfig>>) -> Host {
        Host {
            ip,
            cfg: cfg.into(),
            sockets: Vec::new(),
            listen_ports: HashSet::new(),
            accept_queues: HashMap::new(),
            next_ephemeral: 40_000,
            next_packet_seq: 0,
            egress: VecDeque::new(),
            resolver,
            dns_cache: HashMap::new(),
            dns_pending: BTreeMap::new(),
        }
    }

    /// Move the ephemeral-port cursor to `base` (clamped to ≥ 40 000). A
    /// freshly exec'd process must not reuse the ports of its predecessor:
    /// the server may still hold half-open flow state for the old 4-tuples,
    /// which would wedge the new connections.
    pub fn set_ephemeral_base(&mut self, base: u16) {
        self.next_ephemeral = base.max(40_000);
    }

    fn next_packet_id(&mut self) -> u64 {
        self.next_packet_seq += 1;
        ((self.ip.0 as u64) << 32) | self.next_packet_seq
    }

    /// Open a client connection to `remote`. The SYN goes out on next poll.
    pub fn connect(&mut self, remote: SocketAddr) -> SockId {
        let port = self.next_ephemeral;
        self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(40_000);
        let local = SocketAddr::new(self.ip, port);
        let sock = TcpSocket::connect(local, remote, Arc::clone(&self.cfg));
        self.sockets.push(sock);
        self.sockets.len() - 1
    }

    /// Start accepting connections on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listen_ports.insert(port);
        self.accept_queues.entry(port).or_default();
    }

    /// Take the next established-or-establishing connection on `port`.
    pub fn accept(&mut self, port: u16) -> Option<SockId> {
        self.accept_queues.get_mut(&port)?.pop_front()
    }

    /// Borrow a socket.
    pub fn sock(&self, id: SockId) -> &TcpSocket {
        &self.sockets[id]
    }

    /// Mutably borrow a socket.
    pub fn sock_mut(&mut self, id: SockId) -> &mut TcpSocket {
        &mut self.sockets[id]
    }

    /// Number of sockets ever created (closed ones included).
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Resolve `name`, returning the cached address or issuing a query.
    /// Callers re-poll until `Some` is returned.
    pub fn resolve(&mut self, name: &str, now: SimTime) -> Option<IpAddr> {
        if let Some(ip) = self.dns_cache.get(name) {
            return Some(*ip);
        }
        self.dns_pending
            .entry(name.to_string())
            .or_insert(PendingQuery {
                next_retry: now,
                inflight: false,
            });
        None
    }

    /// Feed an incoming packet to the right socket or the DNS client.
    pub fn on_packet(&mut self, pkt: &IpPacket, now: SimTime) {
        if pkt.dst.ip != self.ip {
            return; // not ours; scenario mis-wiring is silently dropped as on a real NIC
        }
        match pkt.proto {
            Proto::Udp => {
                if pkt.src == self.resolver {
                    if let Some((name, ip)) =
                        pkt.udp_payload.as_deref().and_then(dns::parse_response)
                    {
                        self.dns_cache.insert(name.clone(), ip);
                        self.dns_pending.remove(&name);
                    }
                }
            }
            Proto::Tcp => {
                // Existing connection?
                if let Some(idx) = self
                    .sockets
                    .iter()
                    .position(|s| s.local == pkt.dst && s.remote == pkt.src)
                {
                    self.sockets[idx].on_packet(pkt, now);
                    return;
                }
                // New connection to a listening port?
                let is_syn = pkt.tcp.is_some_and(|h| h.flags.syn && !h.flags.ack);
                if is_syn && self.listen_ports.contains(&pkt.dst.port) {
                    let sock = TcpSocket::accept_from_syn(pkt.dst, pkt.src, Arc::clone(&self.cfg));
                    self.sockets.push(sock);
                    let id = self.sockets.len() - 1;
                    self.accept_queues
                        .entry(pkt.dst.port)
                        .or_default()
                        .push_back(id);
                }
            }
        }
    }

    /// Run timers and emit everything the host can send right now.
    ///
    /// Wake contract: polling a host that is not due ([`Host::next_wake`]
    /// after `now`, or `None`) and has been handed no packet and no socket
    /// or DNS request since its last poll is a no-op — no egress, the same
    /// next wake. Owners may therefore skip such polls.
    pub fn poll(&mut self, now: SimTime) {
        // DNS queries and retries.
        let resolver = self.resolver;
        let mut queries = Vec::new();
        for (name, pq) in self.dns_pending.iter_mut() {
            if !pq.inflight || now >= pq.next_retry {
                pq.inflight = true;
                pq.next_retry = now + DNS_RETRY;
                queries.push(name.clone());
            }
        }
        for name in queries {
            let body = dns::encode_query(&name);
            let pkt = IpPacket {
                id: 0, // assigned below
                src: SocketAddr::new(self.ip, 5353),
                dst: resolver,
                proto: Proto::Udp,
                tcp: None,
                payload_len: body.len() as u32,
                udp_payload: Some(body),
                markers: Vec::new(),
            };
            let id = self.next_packet_id();
            self.egress.push_back(IpPacket { id, ..pkt });
        }
        // TCP: timers, retransmissions, then regular output.
        for i in 0..self.sockets.len() {
            self.sockets[i].on_timer(now);
            let mut out = Vec::new();
            {
                // Split-borrow dance: packet ids come from the host counter.
                let mut seq = self.next_packet_seq;
                let base = (self.ip.0 as u64) << 32;
                let mut next_id = move || {
                    seq += 1;
                    base | seq
                };
                if let Some(p) = self.sockets[i].take_retransmit(now, &mut next_id) {
                    out.push(p);
                }
                self.sockets[i].poll(now, &mut next_id, &mut out);
            }
            self.next_packet_seq += out.len() as u64;
            self.egress.extend(out);
        }
    }

    /// Pop the next packet queued for transmission, if any. A `while let`
    /// loop over this moves each packet straight from the egress ring to the
    /// link with no intermediate `Vec` per tick.
    pub fn pop_egress(&mut self) -> Option<IpPacket> {
        self.egress.pop_front()
    }

    /// Earliest instant this host needs service.
    pub fn next_wake(&self) -> Option<SimTime> {
        let mut wake = if self.egress.is_empty() {
            None
        } else {
            Some(SimTime::ZERO)
        };
        for s in &self.sockets {
            wake = earlier(wake, s.next_wake());
        }
        for pq in self.dns_pending.values() {
            let at = if pq.inflight {
                pq.next_retry
            } else {
                SimTime::ZERO
            };
            wake = earlier(wake, Some(at));
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::{DnsServer, DNS_PORT};

    fn resolver_addr() -> SocketAddr {
        SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT)
    }

    /// Shuttle packets between two hosts (and a resolver) instantly.
    fn pump(a: &mut Host, b: &mut Host, dns: &DnsServer, now: SimTime) {
        for _ in 0..10_000 {
            a.poll(now);
            b.poll(now);
            let pkts: Vec<IpPacket> = std::iter::from_fn(|| a.pop_egress())
                .chain(std::iter::from_fn(|| b.pop_egress()))
                .collect();
            if pkts.is_empty() {
                break;
            }
            let mut id = 1_000_000u64;
            for p in pkts {
                if p.dst == dns.addr {
                    if let Some(resp) = dns.handle(&p, &mut || {
                        id += 1;
                        id
                    }) {
                        a.on_packet(&resp, now);
                        b.on_packet(&resp, now);
                    }
                } else {
                    a.on_packet(&p, now);
                    b.on_packet(&p, now);
                }
            }
        }
    }

    #[test]
    fn connect_and_transfer_through_hosts() {
        let mut client = Host::new(
            IpAddr::new(10, 0, 0, 1),
            resolver_addr(),
            TcpConfig::default(),
        );
        let mut server = Host::new(
            IpAddr::new(31, 13, 0, 2),
            resolver_addr(),
            TcpConfig::default(),
        );
        server.listen(443);
        let dns = DnsServer::new(resolver_addr());
        let c = client.connect(SocketAddr::new(server.ip, 443));
        client.sock_mut(c).send(10_000);
        pump(&mut client, &mut server, &dns, SimTime::ZERO);
        let s = server.accept(443).expect("accepted connection");
        assert!(server.sock(s).is_established());
        assert_eq!(server.sock(s).total_received(), 10_000);
        assert!(client.sock(c).all_acked());
    }

    #[test]
    fn dns_resolution_round_trip() {
        let mut client = Host::new(
            IpAddr::new(10, 0, 0, 1),
            resolver_addr(),
            TcpConfig::default(),
        );
        let mut other = Host::new(
            IpAddr::new(10, 0, 0, 9),
            resolver_addr(),
            TcpConfig::default(),
        );
        let mut dns = DnsServer::new(resolver_addr());
        dns.register("video.youtube.com", IpAddr::new(74, 125, 0, 3));
        assert!(client.resolve("video.youtube.com", SimTime::ZERO).is_none());
        pump(&mut client, &mut other, &dns, SimTime::ZERO);
        assert_eq!(
            client.resolve("video.youtube.com", SimTime::ZERO),
            Some(IpAddr::new(74, 125, 0, 3))
        );
    }

    #[test]
    fn dns_retries_until_answered() {
        let mut client = Host::new(
            IpAddr::new(10, 0, 0, 1),
            resolver_addr(),
            TcpConfig::default(),
        );
        assert!(client.resolve("x.example", SimTime::ZERO).is_none());
        client.poll(SimTime::ZERO);
        assert_eq!(std::iter::from_fn(|| client.pop_egress()).count(), 1);
        // No response: nothing to send until the retry timer.
        client.poll(SimTime::from_millis(10));
        assert!(client.pop_egress().is_none());
        let wake = client.next_wake().expect("retry scheduled");
        assert_eq!(wake, SimTime::from_secs(1));
        client.poll(wake);
        assert_eq!(std::iter::from_fn(|| client.pop_egress()).count(), 1);
    }

    #[test]
    fn dns_queries_due_together_leave_in_name_order() {
        let mut client = Host::new(
            IpAddr::new(10, 0, 0, 1),
            resolver_addr(),
            TcpConfig::default(),
        );
        let names = ["m.example", "c.example", "x.example", "a.example"];
        for name in names {
            client.resolve(name, SimTime::ZERO);
        }
        client.poll(SimTime::ZERO);
        let sent: Vec<String> = std::iter::from_fn(|| client.pop_egress())
            .map(|p| {
                dns::parse_query(p.udp_payload.as_deref().unwrap())
                    .unwrap()
                    .to_string()
            })
            .collect();
        let mut sorted = names.map(String::from).to_vec();
        sorted.sort();
        assert_eq!(sent, sorted);
    }

    /// Poll `host` at `now`, which must precede its wake, and check the
    /// [`Host::poll`] contract: no egress and the same next wake.
    fn assert_idle_poll_is_noop(host: &mut Host, now: SimTime) {
        let wake = host.next_wake();
        assert!(wake.is_none_or(|w| w > now), "host is due at {now}");
        host.poll(now);
        assert!(host.pop_egress().is_none());
        assert_eq!(host.next_wake(), wake);
    }

    #[test]
    fn idle_poll_with_dns_pending_is_noop() {
        let mut client = Host::new(
            IpAddr::new(10, 0, 0, 1),
            resolver_addr(),
            TcpConfig::default(),
        );
        client.resolve("x.example", SimTime::ZERO);
        client.poll(SimTime::ZERO);
        assert!(client.pop_egress().is_some());
        assert_idle_poll_is_noop(&mut client, SimTime::from_millis(500));
    }

    #[test]
    fn idle_poll_with_rto_armed_is_noop() {
        let mut client = Host::new(
            IpAddr::new(10, 0, 0, 1),
            resolver_addr(),
            TcpConfig::default(),
        );
        client.connect(SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443));
        client.poll(SimTime::ZERO);
        // The SYN is lost; its retransmission timer stays armed.
        assert!(client.pop_egress().is_some());
        assert!(client.next_wake().is_some());
        assert_idle_poll_is_noop(&mut client, SimTime::from_millis(500));
    }

    #[test]
    fn idle_poll_with_nothing_pending_is_noop() {
        let mut client = Host::new(
            IpAddr::new(10, 0, 0, 1),
            resolver_addr(),
            TcpConfig::default(),
        );
        let mut server = Host::new(
            IpAddr::new(31, 13, 0, 2),
            resolver_addr(),
            TcpConfig::default(),
        );
        server.listen(443);
        let dns = DnsServer::new(resolver_addr());
        let c = client.connect(SocketAddr::new(server.ip, 443));
        client.sock_mut(c).send(10_000);
        pump(&mut client, &mut server, &dns, SimTime::ZERO);
        // Let the idle retransmission timers lapse.
        for host in [&mut client, &mut server] {
            if let Some(w) = host.next_wake() {
                host.poll(w);
                assert!(host.pop_egress().is_none());
            }
            assert_eq!(host.next_wake(), None);
            assert_idle_poll_is_noop(host, SimTime::from_secs(30));
        }
    }

    #[test]
    fn syn_to_closed_port_is_ignored() {
        let mut server = Host::new(
            IpAddr::new(31, 13, 0, 2),
            resolver_addr(),
            TcpConfig::default(),
        );
        let mut client = Host::new(
            IpAddr::new(10, 0, 0, 1),
            resolver_addr(),
            TcpConfig::default(),
        );
        let _c = client.connect(SocketAddr::new(server.ip, 9999));
        client.poll(SimTime::ZERO);
        while let Some(p) = client.pop_egress() {
            server.on_packet(&p, SimTime::ZERO);
        }
        server.poll(SimTime::ZERO);
        assert!(server.pop_egress().is_none());
        assert_eq!(server.socket_count(), 0);
    }

    #[test]
    fn packets_for_other_hosts_are_dropped() {
        let mut host = Host::new(
            IpAddr::new(10, 0, 0, 1),
            resolver_addr(),
            TcpConfig::default(),
        );
        host.listen(80);
        let stray = IpPacket {
            id: 1,
            src: SocketAddr::new(IpAddr::new(9, 9, 9, 9), 1234),
            dst: SocketAddr::new(IpAddr::new(10, 0, 0, 2), 80), // different host
            proto: Proto::Tcp,
            tcp: Some(crate::packet::TcpHeader {
                seq: 0,
                ack: 0,
                flags: crate::packet::TcpFlags {
                    syn: true,
                    ..Default::default()
                },
            }),
            payload_len: 0,
            udp_payload: None,
            markers: Vec::new(),
        };
        host.on_packet(&stray, SimTime::ZERO);
        assert_eq!(host.socket_count(), 0);
    }

    #[test]
    fn packet_ids_are_unique_per_host() {
        let mut client = Host::new(
            IpAddr::new(10, 0, 0, 1),
            resolver_addr(),
            TcpConfig::default(),
        );
        let c1 = client.connect(SocketAddr::new(IpAddr::new(1, 1, 1, 1), 80));
        let c2 = client.connect(SocketAddr::new(IpAddr::new(1, 1, 1, 2), 80));
        client.sock_mut(c1).send(0);
        client.sock_mut(c2).send(0);
        client.poll(SimTime::ZERO);
        let ids: Vec<u64> = std::iter::from_fn(|| client.pop_egress())
            .map(|p| p.id)
            .collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
        assert_eq!(ids.len(), 2);
    }
}
