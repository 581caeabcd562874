//! Binary codecs for packet types (the `trace::Codec` impls).
//!
//! These define the canonical on-disk form of a captured packet: every
//! field that [`IpPacket`] equality covers is encoded, so a persisted trace
//! round-trips losslessly — including the application stream markers that
//! are invisible on the simulated wire but part of the in-memory record.

use std::sync::Arc;

use trace::{Codec, Reader, TraceError, Writer};

use crate::addr::{IpAddr, SocketAddr};
use crate::packet::{IpPacket, Proto, TcpFlags, TcpHeader};
use crate::pcap::{Direction, PacketRecord};

impl Codec for Direction {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Direction::Uplink => 0,
            Direction::Downlink => 1,
        });
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        match r.u8()? {
            0 => Ok(Direction::Uplink),
            1 => Ok(Direction::Downlink),
            other => Err(TraceError::Corrupt(format!("bad Direction tag {other}"))),
        }
    }
}

impl Codec for Proto {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
        });
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        match r.u8()? {
            6 => Ok(Proto::Tcp),
            17 => Ok(Proto::Udp),
            other => Err(TraceError::Corrupt(format!("bad Proto tag {other}"))),
        }
    }
}

impl Codec for SocketAddr {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.ip.0);
        w.u16(self.port);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(SocketAddr {
            ip: IpAddr(r.u32()?),
            port: r.u16()?,
        })
    }
}

impl Codec for TcpFlags {
    fn encode(&self, w: &mut Writer) {
        w.u8((self.syn as u8)
            | ((self.ack as u8) << 1)
            | ((self.fin as u8) << 2)
            | ((self.rst as u8) << 3));
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        let b = r.u8()?;
        if b & !0x0F != 0 {
            return Err(TraceError::Corrupt(format!("bad TcpFlags byte {b:#x}")));
        }
        Ok(TcpFlags {
            syn: b & 1 != 0,
            ack: b & 2 != 0,
            fin: b & 4 != 0,
            rst: b & 8 != 0,
        })
    }
}

impl Codec for TcpHeader {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.seq);
        w.u64(self.ack);
        self.flags.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(TcpHeader {
            seq: r.u64()?,
            ack: r.u64()?,
            flags: TcpFlags::decode(r)?,
        })
    }
}

impl Codec for IpPacket {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.id);
        self.src.encode(w);
        self.dst.encode(w);
        self.proto.encode(w);
        self.tcp.encode(w);
        w.u32(self.payload_len);
        match &self.udp_payload {
            None => w.u8(0),
            Some(b) => {
                w.u8(1);
                w.blob(b);
            }
        }
        self.markers.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(IpPacket {
            id: r.u64()?,
            src: SocketAddr::decode(r)?,
            dst: SocketAddr::decode(r)?,
            proto: Proto::decode(r)?,
            tcp: Option::<TcpHeader>::decode(r)?,
            payload_len: r.u32()?,
            udp_payload: match r.u8()? {
                0 => None,
                1 => Some(Arc::from(r.blob()?)),
                other => Err(TraceError::Corrupt(format!("bad payload tag {other}")))?,
            },
            markers: Vec::<(u64, u64)>::decode(r)?,
        })
    }
}

impl Codec for PacketRecord {
    fn encode(&self, w: &mut Writer) {
        self.dir.encode(w);
        self.pkt.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(PacketRecord {
            dir: Direction::decode(r)?,
            pkt: IpPacket::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::{decode_artifact, encode_artifact};

    #[test]
    fn packet_record_round_trips() {
        let rec = PacketRecord {
            dir: Direction::Downlink,
            pkt: IpPacket {
                id: 99,
                src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
                dst: SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443),
                proto: Proto::Udp,
                tcp: Some(TcpHeader {
                    seq: 1234,
                    ack: 77,
                    flags: TcpFlags {
                        syn: true,
                        ack: true,
                        fin: false,
                        rst: false,
                    },
                }),
                payload_len: 512,
                udp_payload: Some(Arc::from(&b"dns-ish"[..])),
                markers: vec![(100, 7), (612, 8)],
            },
        };
        let buf = encode_artifact(b"QTST", 1, &rec);
        let back: PacketRecord = decode_artifact(&buf, b"QTST", 1).unwrap();
        assert_eq!(back, rec);
    }
}
