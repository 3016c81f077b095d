//! The event-log wire format: a versioned header, one framed record per
//! fired event, and a counted end marker.
//!
//! Layout (all multi-byte integers big-endian, via the vendored `bytes`
//! accessors):
//!
//! ```text
//! header:  magic "IACL" (4) | version u16 | flags u16 (reserved, 0)
//! event:   tag 0x01 (1) | id u64 | time-bits u64 | src u32 | dst u32
//!          | payload-len u32 | payload bytes
//! end:     tag 0x02 (1) | event-count u64
//! ```
//!
//! Event times are stored as the raw IEEE-754 bit pattern of the
//! [`SimTime`] microsecond count, so encode → decode is bit-exact — the
//! replay checker compares times as bits, never as rounded decimals. The
//! payload is an opaque length-prefixed byte string produced by the event
//! type's [`EventCodec`] implementation; the record framing itself is
//! payload-agnostic. The counted end marker distinguishes a complete log
//! from one truncated mid-stream (a crashed recorder), and every decode
//! path returns a typed [`CodecError`] instead of panicking on malformed
//! input.

use crate::event::{ComponentId, EventId};
use crate::time::SimTime;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// File magic: the first four bytes of every event log.
pub const MAGIC: [u8; 4] = *b"IACL";

/// Current format version (bumped on any layout change).
pub const VERSION: u16 = 1;

/// Record tag: one fired event follows.
pub(crate) const TAG_EVENT: u8 = 0x01;

/// Record tag: end of log; the total event count follows.
pub(crate) const TAG_END: u8 = 0x02;

/// Why a log (or a single record) failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header's version is not one this build can read.
    UnsupportedVersion(u16),
    /// The stream ended mid-structure; the context names what was being
    /// read.
    Truncated(&'static str),
    /// An unknown record tag.
    BadTag(u8),
    /// A record's payload failed to decode as the expected event type.
    BadPayload(String),
    /// The end marker's count disagrees with the records actually present.
    CountMismatch {
        /// Count claimed by the end marker.
        declared: u64,
        /// Event records actually decoded.
        actual: u64,
    },
    /// Bytes remain after the end marker.
    TrailingBytes(usize),
    /// The log ended without an end marker (recorder died mid-run).
    MissingEndMarker,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected {MAGIC:02x?})"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported log version {v} (this build reads {VERSION})"
                )
            }
            CodecError::Truncated(ctx) => write!(f, "log truncated while reading {ctx}"),
            CodecError::BadTag(t) => write!(f, "unknown record tag {t:#04x}"),
            CodecError::BadPayload(detail) => write!(f, "payload decode failed: {detail}"),
            CodecError::CountMismatch { declared, actual } => write!(
                f,
                "end marker declares {declared} events but {actual} were present"
            ),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after the end marker"),
            CodecError::MissingEndMarker => {
                write!(f, "log ended without an end marker (truncated recording?)")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Checked read helpers: the vendored `bytes` accessors panic on underflow,
/// so every decode path goes through these instead.
macro_rules! checked_get {
    ($fn_name:ident, $get:ident, $ty:ty, $width:expr) => {
        /// Read one value, or report truncation with `ctx`.
        pub fn $fn_name(b: &mut Bytes, ctx: &'static str) -> Result<$ty, CodecError> {
            if b.remaining() < $width {
                return Err(CodecError::Truncated(ctx));
            }
            Ok(b.$get())
        }
    };
}

checked_get!(get_u8, get_u8, u8, 1);
checked_get!(get_u16, get_u16, u16, 2);
checked_get!(get_u32, get_u32, u32, 4);
checked_get!(get_u64, get_u64, u64, 8);
checked_get!(get_f64, get_f64, f64, 8);

/// How an event type serializes its payload into a log record.
///
/// Implementations must be *deterministic* (the replay checker compares the
/// encoded bytes of a re-fired event against the recording) and must
/// round-trip: `decode_payload(encode_payload(e)) == e` bit-for-bit,
/// including every `f64` field (encode floats via their IEEE bit patterns,
/// which `put_f64`/`get_f64` already do).
pub trait EventCodec: Sized {
    /// Append this payload's encoding to `buf`.
    fn encode_payload(&self, buf: &mut BytesMut);
    /// Decode one payload from `buf` (which holds exactly the payload
    /// bytes); must consume all of it.
    fn decode_payload(buf: &mut Bytes) -> Result<Self, CodecError>;
    /// A short stable label for the payload variant (diff/dump display).
    fn kind(&self) -> &'static str;
}

/// One fired event as it appears in a log: the framing fields plus the
/// payload as opaque encoded bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Scheduling-order id (the FIFO tie-breaker).
    pub id: EventId,
    /// Fire time as the raw bit pattern of the microsecond count.
    pub time_bits: u64,
    /// Scheduling component.
    pub src: ComponentId,
    /// Destination component.
    pub dst: ComponentId,
    /// The encoded payload.
    pub payload: Vec<u8>,
}

impl EventRecord {
    /// The fire time, reconstructed from its bit pattern.
    ///
    /// # Panics
    /// Panics if the bits encode NaN — impossible for a record produced by
    /// the recorder ([`SimTime`] rejects NaN at construction); a
    /// hand-corrupted log fails loudly here.
    pub fn time(&self) -> SimTime {
        SimTime::from_micros(f64::from_bits(self.time_bits))
    }

    /// Decode the payload as event type `E`.
    pub fn decode_payload<E: EventCodec>(&self) -> Result<E, CodecError> {
        let mut b = Bytes::from(self.payload.as_slice());
        let ev = E::decode_payload(&mut b)?;
        if b.remaining() > 0 {
            return Err(CodecError::BadPayload(format!(
                "{} byte(s) left after payload",
                b.remaining()
            )));
        }
        Ok(ev)
    }

    /// One-line human rendering: framing fields plus the decoded payload
    /// (or a hex dump when decoding fails).
    pub fn describe<E: EventCodec + std::fmt::Debug>(&self) -> String {
        let head = format!(
            "#{} t={:.3}us src={} dst={}",
            self.id,
            f64::from_bits(self.time_bits),
            self.src,
            self.dst
        );
        match self.decode_payload::<E>() {
            Ok(ev) => format!("{head} {ev:?}"),
            Err(e) => format!("{head} <undecodable payload {:02x?}: {e}>", self.payload),
        }
    }
}

/// Append the log header to `buf`.
pub(crate) fn write_header(buf: &mut BytesMut) {
    buf.put_slice(&MAGIC);
    buf.put_u16(VERSION);
    buf.put_u16(0); // flags, reserved
}

/// Read and validate the header; returns the version.
pub(crate) fn read_header(b: &mut Bytes) -> Result<u16, CodecError> {
    if b.remaining() < 4 {
        return Err(CodecError::Truncated("magic"));
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&b.split_to(4));
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = get_u16(b, "version")?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let _flags = get_u16(b, "flags")?;
    Ok(version)
}

/// Append one event record (framing + pre-encoded payload) to `buf`.
pub(crate) fn write_event(
    buf: &mut BytesMut,
    id: EventId,
    time: SimTime,
    src: ComponentId,
    dst: ComponentId,
    payload: &[u8],
) {
    buf.put_u8(TAG_EVENT);
    buf.put_u64(id);
    buf.put_u64(time.micros().to_bits());
    buf.put_u32(src);
    buf.put_u32(dst);
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
}

/// Append the end marker to `buf`.
pub fn write_end(buf: &mut BytesMut, count: u64) {
    buf.put_u8(TAG_END);
    buf.put_u64(count);
}

/// One decoded item from the record stream.
enum Item {
    Event(EventRecord),
    End(u64),
}

fn read_item(b: &mut Bytes) -> Result<Item, CodecError> {
    match get_u8(b, "record tag")? {
        TAG_EVENT => {
            let id = get_u64(b, "event id")?;
            let time_bits = get_u64(b, "event time")?;
            let src = get_u32(b, "event src")?;
            let dst = get_u32(b, "event dst")?;
            let len = get_u32(b, "payload length")? as usize;
            if b.remaining() < len {
                return Err(CodecError::Truncated("payload bytes"));
            }
            let payload = b.split_to(len).to_vec();
            Ok(Item::Event(EventRecord {
                id,
                time_bits,
                src,
                dst,
                payload,
            }))
        }
        TAG_END => Ok(Item::End(get_u64(b, "event count")?)),
        tag => Err(CodecError::BadTag(tag)),
    }
}

/// A fully parsed event log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventLog {
    /// Every fired event, in fire order.
    pub records: Vec<EventRecord>,
}

impl EventLog {
    /// Serialize: header, records, counted end marker.
    ///
    /// No production caller: public for `crates/des/tests/log_codec.rs`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(32 + self.records.len() * 40);
        write_header(&mut buf);
        for r in &self.records {
            write_event(&mut buf, r.id, r.time(), r.src, r.dst, &r.payload);
        }
        write_end(&mut buf, self.records.len() as u64);
        buf.to_vec()
    }

    /// Parse and fully validate a serialized log: magic, version, record
    /// framing, the counted end marker, and the absence of trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut b = Bytes::from(bytes);
        read_header(&mut b)?;
        let mut records = Vec::new();
        loop {
            if b.remaining() == 0 {
                return Err(CodecError::MissingEndMarker);
            }
            match read_item(&mut b)? {
                Item::Event(r) => records.push(r),
                Item::End(declared) => {
                    if declared != records.len() as u64 {
                        return Err(CodecError::CountMismatch {
                            declared,
                            actual: records.len() as u64,
                        });
                    }
                    if b.remaining() > 0 {
                        return Err(CodecError::TrailingBytes(b.remaining()));
                    }
                    return Ok(Self { records });
                }
            }
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no events.
    ///
    /// No production caller: public for `crates/des/tests/log_codec.rs`.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Encode one typed payload to its byte string (scratch-free convenience).
///
/// No production caller: public for `crates/des/tests/log_codec.rs`.
pub fn encode_payload<E: EventCodec>(payload: &E) -> Vec<u8> {
    let mut buf = BytesMut::new();
    payload.encode_payload(&mut buf);
    buf.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, us: f64, payload: Vec<u8>) -> EventRecord {
        EventRecord {
            id,
            time_bits: us.to_bits(),
            src: 1,
            dst: 2,
            payload,
        }
    }

    #[test]
    fn empty_log_roundtrips() {
        let log = EventLog::default();
        let bytes = log.encode();
        assert_eq!(EventLog::decode(&bytes).unwrap(), log);
        // Header (8) + end marker (9).
        assert_eq!(bytes.len(), 17);
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let log = EventLog {
            records: vec![
                record(0, 0.0, vec![]),
                record(1, 0.1 + 0.2, vec![0xFF, 0x00, 0x7F]),
                record(7, 1e12, (0..255).collect()),
            ],
        };
        let back = EventLog::decode(&log.encode()).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.records[1].time_bits, (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = EventLog::default().encode();
        bytes[0] = b'X';
        assert!(matches!(
            EventLog::decode(&bytes),
            Err(CodecError::BadMagic(_))
        ));
        let mut bytes = EventLog::default().encode();
        bytes[5] = 99; // version low byte
        assert_eq!(
            EventLog::decode(&bytes),
            Err(CodecError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let full = EventLog {
            records: vec![record(3, 42.0, vec![1, 2, 3])],
        }
        .encode();
        for n in 0..full.len() {
            let err = EventLog::decode(&full[..n]).expect_err("prefix decoded");
            assert!(
                matches!(err, CodecError::Truncated(_) | CodecError::MissingEndMarker),
                "prefix {n}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn count_mismatch_and_trailing_bytes_rejected() {
        let log = EventLog {
            records: vec![record(0, 1.0, vec![])],
        };
        let mut bytes = log.encode();
        let last = bytes.len() - 1;
        bytes[last] = 9; // end-marker count low byte
        assert_eq!(
            EventLog::decode(&bytes),
            Err(CodecError::CountMismatch {
                declared: 9,
                actual: 1
            })
        );
        let mut bytes = log.encode();
        bytes.push(0);
        assert_eq!(EventLog::decode(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = BytesMut::new();
        write_header(&mut buf);
        buf.put_u8(0x77);
        assert_eq!(EventLog::decode(&buf), Err(CodecError::BadTag(0x77)));
    }

    #[test]
    fn errors_display() {
        for e in [
            CodecError::BadMagic(*b"nope"),
            CodecError::UnsupportedVersion(2),
            CodecError::Truncated("x"),
            CodecError::BadTag(3),
            CodecError::BadPayload("y".into()),
            CodecError::CountMismatch {
                declared: 1,
                actual: 2,
            },
            CodecError::TrailingBytes(4),
            CodecError::MissingEndMarker,
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
