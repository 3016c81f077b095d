//! Packet framing: header + payload + CRC-32.
//!
//! The paper's packets are "a 32-bit preamble, and 1500-byte payload" (§10c).
//! The frame here carries a small header (source, destination, sequence
//! number, length) so the MAC can address clients, and an IEEE CRC-32 so
//! receivers can verify decode success — which the IAC chain relies on
//! before shipping a packet over the Ethernet for cancellation.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    // Build the table once.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Errors from frame parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the fixed header + CRC.
    Truncated,
    /// Payload length field exceeds the remaining bytes.
    BadLength,
    /// CRC mismatch: the frame was corrupted in flight.
    BadCrc { expected: u32, got: u32 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadLength => write!(f, "payload length exceeds frame"),
            FrameError::BadCrc { expected, got } => {
                write!(
                    f,
                    "CRC mismatch: expected {expected:#010x}, got {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A data frame: 10-byte header, payload, 4-byte CRC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Transmitting node id.
    pub src: u16,
    /// Destination node id.
    pub dst: u16,
    /// Sequence number (for the MAC's retransmission logic).
    pub seq: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Header bytes before the payload: src(2) dst(2) seq(2) len(4).
const HEADER_LEN: usize = 10;
/// Trailer: CRC-32.
const TRAILER_LEN: usize = 4;

impl Frame {
    /// Construct a frame.
    pub fn new(src: u16, dst: u16, seq: u16, payload: impl Into<Bytes>) -> Self {
        Self {
            src,
            dst,
            seq,
            payload: payload.into(),
        }
    }

    /// Total encoded length in bytes.
    pub(crate) fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + TRAILER_LEN
    }

    /// Serialise to bytes (header + payload + CRC over both).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u16(self.src);
        buf.put_u16(self.dst);
        buf.put_u16(self.seq);
        buf.put_u32(self.payload.len() as u32);
        buf.put_slice(&self.payload);
        let crc = crc32(&buf);
        buf.put_u32(crc);
        buf.freeze()
    }

    /// Parse and verify a received byte buffer.
    pub fn decode(mut data: Bytes) -> Result<Self, FrameError> {
        if data.len() < HEADER_LEN + TRAILER_LEN {
            return Err(FrameError::Truncated);
        }
        let body_len = data.len() - TRAILER_LEN;
        let crc_given = u32::from_be_bytes(
            data[body_len..]
                .try_into()
                .expect("trailer is 4 bytes by construction"),
        );
        let crc_computed = crc32(&data[..body_len]);
        if crc_given != crc_computed {
            return Err(FrameError::BadCrc {
                expected: crc_computed,
                got: crc_given,
            });
        }
        let src = data.get_u16();
        let dst = data.get_u16();
        let seq = data.get_u16();
        let len = data.get_u32() as usize;
        if len != data.len() - TRAILER_LEN {
            return Err(FrameError::BadLength);
        }
        let payload = data.split_to(len);
        Ok(Self {
            src,
            dst,
            seq,
            payload,
        })
    }

    /// Serialise to a bit stream (MSB first), ready for modulation.
    pub fn to_bits(&self) -> Vec<bool> {
        bytes_to_bits(&self.encode())
    }

    /// Parse from a bit stream produced by [`Frame::to_bits`].
    pub fn from_bits(bits: &[bool]) -> Result<Self, FrameError> {
        Self::decode(Bytes::from(bits_to_bytes(bits)))
    }
}

/// MSB-first byte→bit expansion.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for k in (0..8).rev() {
            bits.push((b >> k) & 1 == 1);
        }
    }
    bits
}

/// MSB-first bit→byte packing (truncates trailing partial byte).
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    bits.chunks(8)
        .filter(|c| c.len() == 8)
        .map(|c| c.iter().fold(0u8, |acc, &bit| (acc << 1) | u8::from(bit)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = b"interference alignment".to_vec();
        let orig = crc32(&data);
        data[3] ^= 0x10;
        assert_ne!(crc32(&data), orig);
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame::new(7, 42, 1234, vec![1u8, 2, 3, 4, 5]);
        let decoded = Frame::decode(f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn frame_roundtrip_paper_size() {
        let payload: Vec<u8> = (0..1500).map(|i| (i % 251) as u8).collect();
        let f = Frame::new(1, 2, 3, payload);
        assert_eq!(f.encoded_len(), 1500 + 14);
        let decoded = Frame::decode(f.encode()).unwrap();
        assert_eq!(decoded.payload.len(), 1500);
    }

    #[test]
    fn corrupted_frame_rejected() {
        let f = Frame::new(1, 2, 3, vec![0u8; 64]);
        let mut bytes = f.encode().to_vec();
        bytes[20] ^= 0x01;
        match Frame::decode(Bytes::from(bytes)) {
            Err(FrameError::BadCrc { .. }) => {}
            other => panic!("expected BadCrc, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        assert_eq!(
            Frame::decode(Bytes::from(vec![0u8; 5])),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn bit_roundtrip() {
        let f = Frame::new(9, 9, 9, vec![0xAB, 0xCD]);
        let bits = f.to_bits();
        assert_eq!(bits.len() % 8, 0);
        let back = Frame::from_bits(&bits).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn bit_flip_in_bitstream_caught() {
        let f = Frame::new(9, 9, 9, vec![0u8; 32]);
        let mut bits = f.to_bits();
        bits[100] = !bits[100];
        assert!(Frame::from_bits(&bits).is_err());
    }

    #[test]
    fn bytes_bits_helpers_are_inverse() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn empty_payload_allowed() {
        let f = Frame::new(0, 0, 0, Vec::<u8>::new());
        assert_eq!(Frame::decode(f.encode()).unwrap().payload.len(), 0);
    }
}
