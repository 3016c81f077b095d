//! MAC wire formats.
//!
//! The leader AP's control frames carry, per client-AP pair, the encoding and
//! decoding vectors for the upcoming transmission group (Fig. 10), "extra
//! information that is a few bytes per client-AP pair" (§7e). Vectors are
//! quantised to `f32` pairs on the air — 16 bytes per 2-antenna vector —
//! which the §7e bench shows keeps metadata at the paper's 1–2 % of a
//! 1440-byte payload.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use iac_linalg::CVec;
use iac_phy::frame::crc32;

/// Frame-type discriminants on the wire.
const TYPE_BEACON: u8 = 1;
const TYPE_DATAPOLL: u8 = 2;
const TYPE_GRANT: u8 = 3;
const TYPE_DATAREQ: u8 = 4;
const TYPE_CFEND: u8 = 5;

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacFrameError {
    /// Not enough bytes.
    Truncated,
    /// Unknown frame-type byte.
    UnknownType(u8),
    /// Checksum failed — receivers "can use the checksum to test whether
    /// they received the correct information" (§7.1) and stay silent if not.
    BadCrc,
}

impl std::fmt::Display for MacFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MacFrameError::Truncated => write!(f, "MAC frame truncated"),
            MacFrameError::UnknownType(t) => write!(f, "unknown MAC frame type {t}"),
            MacFrameError::BadCrc => write!(f, "MAC frame checksum mismatch"),
        }
    }
}

impl std::error::Error for MacFrameError {}

/// A complex vector quantised to `f32` components for transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorQ {
    /// (re, im) pairs, one per antenna.
    pub parts: Vec<(f32, f32)>,
}

impl VectorQ {
    /// Quantise a full-precision vector.
    pub fn from_cvec(v: &CVec) -> Self {
        Self {
            parts: v
                .as_slice()
                .iter()
                .map(|z| (z.re as f32, z.im as f32))
                .collect(),
        }
    }

    /// Bytes on the wire: 1 length byte + 8 per antenna.
    pub(crate) fn encoded_len(&self) -> usize {
        1 + self.parts.len() * 8
    }

    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(self.parts.len() as u8);
        for &(re, im) in &self.parts {
            buf.put_f32(re);
            buf.put_f32(im);
        }
    }

    fn get(buf: &mut Bytes) -> Result<Self, MacFrameError> {
        if buf.remaining() < 1 {
            return Err(MacFrameError::Truncated);
        }
        let n = buf.get_u8() as usize;
        if buf.remaining() < n * 8 {
            return Err(MacFrameError::Truncated);
        }
        let parts = (0..n).map(|_| (buf.get_f32(), buf.get_f32())).collect();
        Ok(Self { parts })
    }
}

/// One client's entry in a DATA+Poll / Grant frame (Fig. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct PollEntry {
    /// Client id ("given to the clients upon association").
    pub client: u16,
    /// Encoding vector the transmitter must apply.
    pub encoding: VectorQ,
    /// Decoding vector the receiver must project on.
    pub decoding: VectorQ,
}

/// The beacon opening a CFP, carrying the previous CFP's uplink ACKs as a
/// map ("the leader AP combines and sends all acks at the beginning of the
/// next CFP, by embedding them in the beacon information as a bit map",
/// §7.1). Entries list positively-acknowledged (client, seq) pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Beacon {
    /// CFP sequence number.
    pub cfp_id: u16,
    /// Announced CFP duration in slots.
    pub duration_slots: u16,
    /// Acknowledged uplink packets from the previous CFP.
    pub ack_map: Vec<(u16, u16)>,
}

/// The broadcast part of a DATA+Poll frame (Fig. 10): "the ids of the
/// clients in the group and their encoding and decoding vectors" plus frame
/// id, AP count and checksum.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoll {
    /// Frame id (Fid in Fig. 10).
    pub fid: u16,
    /// Number of cooperating APs (clients ignore it; subordinate APs use it).
    pub n_aps: u8,
    /// Maximum data length in the group, "so that all clients know when the
    /// frame ends".
    pub max_len: u16,
    /// Per-client vector assignments.
    pub entries: Vec<PollEntry>,
}

/// Grant: the uplink counterpart of DATA+Poll (802.11 calls it CF-Poll).
#[derive(Debug, Clone, PartialEq)]
pub struct Grant {
    /// Frame id.
    pub fid: u16,
    /// Number of cooperating APs.
    pub n_aps: u8,
    /// Per-client vector assignments.
    pub entries: Vec<PollEntry>,
}

/// Header of a client's Data+Req frame: uplink data plus "a new request for
/// transmission" when more traffic is pending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataReqHeader {
    /// Client id.
    pub client: u16,
    /// Sequence number of the carried packet.
    pub seq: u16,
    /// Whether the client requests another uplink slot.
    pub more_traffic: bool,
}

/// CF-End: closes the contention-free period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfEnd {
    /// CFP sequence number being closed.
    pub cfp_id: u16,
}

/// Any MAC control frame.
#[derive(Debug, Clone, PartialEq)]
pub enum MacFrame {
    Beacon(Beacon),
    DataPoll(DataPoll),
    Grant(Grant),
    DataReq(DataReqHeader),
    CfEnd(CfEnd),
}

fn put_entries(buf: &mut BytesMut, entries: &[PollEntry]) {
    buf.put_u8(entries.len() as u8);
    for e in entries {
        buf.put_u16(e.client);
        e.encoding.put(buf);
        e.decoding.put(buf);
    }
}

fn get_entries(buf: &mut Bytes) -> Result<Vec<PollEntry>, MacFrameError> {
    if buf.remaining() < 1 {
        return Err(MacFrameError::Truncated);
    }
    let n = buf.get_u8() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 2 {
            return Err(MacFrameError::Truncated);
        }
        let client = buf.get_u16();
        let encoding = VectorQ::get(buf)?;
        let decoding = VectorQ::get(buf)?;
        out.push(PollEntry {
            client,
            encoding,
            decoding,
        });
    }
    Ok(out)
}

impl MacFrame {
    /// Serialise with a trailing CRC-32.
    ///
    /// No production caller: public for `crates/mac/tests/properties.rs`.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            MacFrame::Beacon(b) => {
                buf.put_u8(TYPE_BEACON);
                buf.put_u16(b.cfp_id);
                buf.put_u16(b.duration_slots);
                buf.put_u16(b.ack_map.len() as u16);
                for &(client, seq) in &b.ack_map {
                    buf.put_u16(client);
                    buf.put_u16(seq);
                }
            }
            MacFrame::DataPoll(p) => {
                buf.put_u8(TYPE_DATAPOLL);
                buf.put_u16(p.fid);
                buf.put_u8(p.n_aps);
                buf.put_u16(p.max_len);
                put_entries(&mut buf, &p.entries);
            }
            MacFrame::Grant(g) => {
                buf.put_u8(TYPE_GRANT);
                buf.put_u16(g.fid);
                buf.put_u8(g.n_aps);
                put_entries(&mut buf, &g.entries);
            }
            MacFrame::DataReq(d) => {
                buf.put_u8(TYPE_DATAREQ);
                buf.put_u16(d.client);
                buf.put_u16(d.seq);
                buf.put_u8(d.more_traffic as u8);
            }
            MacFrame::CfEnd(c) => {
                buf.put_u8(TYPE_CFEND);
                buf.put_u16(c.cfp_id);
            }
        }
        let crc = crc32(&buf);
        buf.put_u32(crc);
        buf.freeze()
    }

    /// Parse and CRC-check.
    ///
    /// No production caller: public for `crates/mac/tests/properties.rs`.
    pub fn decode(data: Bytes) -> Result<Self, MacFrameError> {
        if data.len() < 5 {
            return Err(MacFrameError::Truncated);
        }
        let body_len = data.len() - 4;
        let given = u32::from_be_bytes(data[body_len..].try_into().expect("4-byte trailer"));
        if given != crc32(&data[..body_len]) {
            return Err(MacFrameError::BadCrc);
        }
        let mut buf = data.slice(..body_len);
        let ty = buf.get_u8();
        match ty {
            TYPE_BEACON => {
                if buf.remaining() < 6 {
                    return Err(MacFrameError::Truncated);
                }
                let cfp_id = buf.get_u16();
                let duration_slots = buf.get_u16();
                let n = buf.get_u16() as usize;
                if buf.remaining() < n * 4 {
                    return Err(MacFrameError::Truncated);
                }
                let ack_map = (0..n).map(|_| (buf.get_u16(), buf.get_u16())).collect();
                Ok(MacFrame::Beacon(Beacon {
                    cfp_id,
                    duration_slots,
                    ack_map,
                }))
            }
            TYPE_DATAPOLL => {
                if buf.remaining() < 5 {
                    return Err(MacFrameError::Truncated);
                }
                let fid = buf.get_u16();
                let n_aps = buf.get_u8();
                let max_len = buf.get_u16();
                let entries = get_entries(&mut buf)?;
                Ok(MacFrame::DataPoll(DataPoll {
                    fid,
                    n_aps,
                    max_len,
                    entries,
                }))
            }
            TYPE_GRANT => {
                if buf.remaining() < 3 {
                    return Err(MacFrameError::Truncated);
                }
                let fid = buf.get_u16();
                let n_aps = buf.get_u8();
                let entries = get_entries(&mut buf)?;
                Ok(MacFrame::Grant(Grant {
                    fid,
                    n_aps,
                    entries,
                }))
            }
            TYPE_DATAREQ => {
                if buf.remaining() < 5 {
                    return Err(MacFrameError::Truncated);
                }
                let client = buf.get_u16();
                let seq = buf.get_u16();
                let more_traffic = buf.get_u8() != 0;
                Ok(MacFrame::DataReq(DataReqHeader {
                    client,
                    seq,
                    more_traffic,
                }))
            }
            TYPE_CFEND => {
                if buf.remaining() < 2 {
                    return Err(MacFrameError::Truncated);
                }
                Ok(MacFrame::CfEnd(CfEnd {
                    cfp_id: buf.get_u16(),
                }))
            }
            other => Err(MacFrameError::UnknownType(other)),
        }
    }

    /// Encoded size in bytes (metadata overhead accounting, §7e), computed
    /// from the field sizes [`MacFrame::encode`] writes: the type byte, the
    /// body and the 4-byte CRC trailer.
    pub fn encoded_len(&self) -> usize {
        let entries_len = |entries: &[PollEntry]| -> usize {
            1 + entries
                .iter()
                .map(|e| 2 + e.encoding.encoded_len() + e.decoding.encoded_len())
                .sum::<usize>()
        };
        let body = match self {
            MacFrame::Beacon(b) => 6 + 4 * b.ack_map.len(),
            MacFrame::DataPoll(p) => 5 + entries_len(&p.entries),
            MacFrame::Grant(g) => 3 + entries_len(&g.entries),
            MacFrame::DataReq(_) => 5,
            MacFrame::CfEnd(_) => 2,
        };
        1 + body + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::{Rng64, C64};

    /// The full-precision vector a quantised one stands for.
    fn dequantise(q: &VectorQ) -> CVec {
        CVec::new(
            q.parts
                .iter()
                .map(|&(re, im)| C64::new(re as f64, im as f64))
                .collect(),
        )
    }

    fn sample_entries(n: usize, seed: u64) -> Vec<PollEntry> {
        let mut rng = Rng64::new(seed);
        (0..n)
            .map(|k| PollEntry {
                client: k as u16,
                encoding: VectorQ::from_cvec(&CVec::random_unit(2, &mut rng)),
                decoding: VectorQ::from_cvec(&CVec::random_unit(2, &mut rng)),
            })
            .collect()
    }

    #[test]
    fn beacon_roundtrip() {
        let b = MacFrame::Beacon(Beacon {
            cfp_id: 42,
            duration_slots: 100,
            ack_map: vec![(1, 10), (3, 77)],
        });
        assert_eq!(MacFrame::decode(b.encode()).unwrap(), b);
    }

    #[test]
    fn datapoll_roundtrip() {
        let p = MacFrame::DataPoll(DataPoll {
            fid: 7,
            n_aps: 3,
            max_len: 1440,
            entries: sample_entries(3, 1),
        });
        assert_eq!(MacFrame::decode(p.encode()).unwrap(), p);
    }

    #[test]
    fn grant_roundtrip() {
        let g = MacFrame::Grant(Grant {
            fid: 9,
            n_aps: 2,
            entries: sample_entries(2, 2),
        });
        assert_eq!(MacFrame::decode(g.encode()).unwrap(), g);
    }

    #[test]
    fn datareq_and_cfend_roundtrip() {
        for f in [
            MacFrame::DataReq(DataReqHeader {
                client: 5,
                seq: 1000,
                more_traffic: true,
            }),
            MacFrame::CfEnd(CfEnd { cfp_id: 3 }),
        ] {
            assert_eq!(MacFrame::decode(f.encode()).unwrap(), f);
        }
    }

    #[test]
    fn corrupted_frame_rejected() {
        let p = MacFrame::DataPoll(DataPoll {
            fid: 7,
            n_aps: 3,
            max_len: 1440,
            entries: sample_entries(3, 3),
        });
        let mut bytes = p.encode().to_vec();
        bytes[6] ^= 0x40;
        assert_eq!(
            MacFrame::decode(Bytes::from(bytes)),
            Err(MacFrameError::BadCrc)
        );
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            MacFrame::decode(Bytes::from(vec![1u8, 2])),
            Err(MacFrameError::Truncated)
        );
    }

    #[test]
    fn vector_quantisation_error_is_negligible() {
        let mut rng = Rng64::new(4);
        for _ in 0..50 {
            let v = CVec::random_unit(2, &mut rng);
            let q = dequantise(&VectorQ::from_cvec(&v));
            // f32 quantisation: ~1e-7 relative error — far below channel
            // estimation error, so the quantised vectors still align.
            assert!((&q - &v).norm() < 1e-6);
        }
    }

    #[test]
    fn paper_overhead_claim_holds() {
        // §7e: "Assuming 1440 byte packets, the overhead of the metadata
        // amounts to 1-2%."
        let p = MacFrame::DataPoll(DataPoll {
            fid: 7,
            n_aps: 3,
            max_len: 1440,
            entries: sample_entries(3, 5),
        });
        // Control bytes divided by the data bytes they coordinate.
        let overhead = p.encoded_len() as f64 / (1440 * 3) as f64;
        assert!(
            overhead > 0.005 && overhead < 0.05,
            "metadata overhead {overhead} outside the paper's band"
        );
    }

    #[test]
    fn entry_cost_is_a_few_bytes_per_pair() {
        // Each client adds 2 (id) + 17 + 17 (two quantised 2-antenna
        // vectors) = 36 bytes.
        let two = MacFrame::Grant(Grant {
            fid: 0,
            n_aps: 3,
            entries: sample_entries(2, 6),
        });
        let three = MacFrame::Grant(Grant {
            fid: 0,
            n_aps: 3,
            entries: sample_entries(3, 7),
        });
        let per_entry = three.encoded_len() - two.encoded_len();
        assert!(per_entry <= 40, "per-client cost {per_entry} bytes");
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        let crc = crc32(&buf);
        buf.put_u32(crc);
        assert_eq!(
            MacFrame::decode(buf.freeze()),
            Err(MacFrameError::UnknownType(99))
        );
    }
}
