//! Minimal DNS simulation.
//!
//! The transport/network analyzer associates TCP flows with server URLs by
//! parsing DNS lookups out of the packet trace (§5.2). To make that real, the
//! simulated hosts resolve hostnames through UDP exchanges with a resolver,
//! and the query/response payloads use a simple textual encoding the analyzer
//! parses back out of the capture:
//!
//! * query: `Q:<name>`
//! * response: `R:<name>=<a.b.c.d>`

use crate::addr::{IpAddr, SocketAddr};
use crate::packet::{IpPacket, Proto};
use std::collections::HashMap;
use std::sync::Arc;

/// Well-known resolver port.
pub const DNS_PORT: u16 = 53;

/// Encode a DNS query payload.
pub fn encode_query(name: &str) -> Arc<[u8]> {
    Arc::from(format!("Q:{name}").as_bytes())
}

/// Encode a DNS response payload.
pub fn encode_response(name: &str, ip: IpAddr) -> Arc<[u8]> {
    Arc::from(format!("R:{name}={ip}").as_bytes())
}

/// Parse a DNS query payload, returning the queried name.
pub fn parse_query(payload: &[u8]) -> Option<&str> {
    let s = core::str::from_utf8(payload).ok()?;
    s.strip_prefix("Q:")
}

/// Parse a DNS response payload, returning `(name, ip)`.
pub fn parse_response(payload: &[u8]) -> Option<(String, IpAddr)> {
    let s = core::str::from_utf8(payload).ok()?;
    let rest = s.strip_prefix("R:")?;
    let (name, ip_str) = rest.split_once('=')?;
    let mut parts = ip_str.split('.');
    let mut octets = [0u8; 4];
    for o in &mut octets {
        *o = parts.next()?.parse().ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some((
        name.to_string(),
        IpAddr::new(octets[0], octets[1], octets[2], octets[3]),
    ))
}

/// Authoritative name directory plus the resolver endpoint.
#[derive(Debug, Clone)]
pub struct DnsServer {
    /// Resolver's own endpoint.
    pub addr: SocketAddr,
    directory: HashMap<String, IpAddr>,
}

impl DnsServer {
    /// New resolver at `addr` with an empty directory.
    pub fn new(addr: SocketAddr) -> DnsServer {
        DnsServer {
            addr,
            directory: HashMap::new(),
        }
    }

    /// Register `name -> ip`.
    pub fn register(&mut self, name: &str, ip: IpAddr) {
        self.directory.insert(name.to_string(), ip);
    }

    /// Look up a name directly (used by tests and scenario assembly).
    pub fn lookup(&self, name: &str) -> Option<IpAddr> {
        self.directory.get(name).copied()
    }

    /// Answer a query packet addressed to this resolver; `next_id` allocates
    /// the response packet id. Unknown names get no response (the client
    /// retries and the experiment fails loudly rather than silently).
    pub fn handle(&self, pkt: &IpPacket, next_id: &mut dyn FnMut() -> u64) -> Option<IpPacket> {
        if pkt.proto != Proto::Udp || pkt.dst != self.addr {
            return None;
        }
        let payload = pkt.udp_payload.as_ref()?;
        let name = parse_query(payload)?;
        let ip = self.directory.get(name)?;
        let body = encode_response(name, *ip);
        Some(IpPacket {
            id: next_id(),
            src: self.addr,
            dst: pkt.src,
            proto: Proto::Udp,
            tcp: None,
            payload_len: body.len() as u32,
            udp_payload: Some(body),
            markers: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolver() -> DnsServer {
        let mut d = DnsServer::new(SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT));
        d.register("api.facebook.com", IpAddr::new(31, 13, 64, 1));
        d
    }

    #[test]
    fn encode_parse_roundtrip() {
        let q = encode_query("api.facebook.com");
        assert_eq!(parse_query(&q), Some("api.facebook.com"));
        let r = encode_response("api.facebook.com", IpAddr::new(31, 13, 64, 1));
        let (name, ip) = parse_response(&r).unwrap();
        assert_eq!(name, "api.facebook.com");
        assert_eq!(ip, IpAddr::new(31, 13, 64, 1));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_query(b"R:zzz").is_none());
        assert!(parse_response(b"Q:zzz").is_none());
        assert!(parse_response(b"R:name=1.2.3").is_none());
        assert!(parse_response(b"R:name=1.2.3.4.5").is_none());
        assert!(parse_response(&[0xff, 0xfe]).is_none());
    }

    #[test]
    fn server_answers_known_names() {
        let d = resolver();
        let client = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 5353);
        let q = encode_query("api.facebook.com");
        let pkt = IpPacket {
            id: 1,
            src: client,
            dst: d.addr,
            proto: Proto::Udp,
            tcp: None,
            payload_len: q.len() as u32,
            udp_payload: Some(q),
            markers: Vec::new(),
        };
        let mut id = 10;
        let resp = d.handle(&pkt, &mut || {
            id += 1;
            id
        });
        let resp = resp.expect("response");
        assert_eq!(resp.dst, client);
        let (name, ip) = parse_response(resp.udp_payload.as_ref().unwrap()).unwrap();
        assert_eq!(name, "api.facebook.com");
        assert_eq!(ip, IpAddr::new(31, 13, 64, 1));
    }

    #[test]
    fn server_ignores_unknown_names_and_tcp() {
        let d = resolver();
        let client = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 5353);
        let q = encode_query("nonexistent.example");
        let pkt = IpPacket {
            id: 1,
            src: client,
            dst: d.addr,
            proto: Proto::Udp,
            tcp: None,
            payload_len: q.len() as u32,
            udp_payload: Some(q),
            markers: Vec::new(),
        };
        assert!(d.handle(&pkt, &mut || 0).is_none());
    }
}
