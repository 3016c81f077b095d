//! Property tests for the event-log wire format (`iac_des::log::codec`):
//! arbitrary logs round-trip bit-identically, the version header is
//! enforced, empty logs are valid, and *every* truncation or corruption is
//! a typed [`CodecError`] — never a panic.

use iac_des::log::codec::{self, CodecError, EventCodec, EventLog, EventRecord, MAGIC, VERSION};
use iac_des::{NetEvent, SimTime};
use proptest::prelude::*;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A deliberately awkward test payload: a float (bit-exactness), a counter,
/// and a variable-length byte string (length-prefixed framing).
#[derive(Debug, Clone, PartialEq)]
struct Msg {
    x: f64,
    n: u32,
    data: Vec<u8>,
}

impl EventCodec for Msg {
    fn encode_payload(&self, buf: &mut BytesMut) {
        buf.put_f64(self.x);
        buf.put_u32(self.n);
        buf.put_u32(self.data.len() as u32);
        buf.put_slice(&self.data);
    }

    fn decode_payload(buf: &mut Bytes) -> Result<Self, CodecError> {
        let x = codec::get_f64(buf, "Msg.x")?;
        let n = codec::get_u32(buf, "Msg.n")?;
        let len = codec::get_u32(buf, "Msg.data length")? as usize;
        if buf.remaining() < len {
            return Err(CodecError::Truncated("Msg.data bytes"));
        }
        let data = buf.split_to(len).to_vec();
        Ok(Self { x, n, data })
    }

    fn kind(&self) -> &'static str {
        "Msg"
    }
}

/// Build an [`EventLog`] from generated raw material. Times come in as
/// non-negative finite microsecond values (what a real recorder can see;
/// `SimTime` rejects NaN at construction).
fn log_from(raw: &[(u64, f64, Vec<u8>)]) -> EventLog {
    EventLog {
        records: raw
            .iter()
            .enumerate()
            .map(|(k, (id, us, payload))| EventRecord {
                id: *id,
                time_bits: us.to_bits(),
                src: k as u32,
                dst: (k as u32).wrapping_mul(7),
                payload: payload.clone(),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_logs_roundtrip_bit_identically(
        raw in collection::vec(
            (any::<u64>(), 0.0f64..1e12, collection::vec(any::<u8>(), 0..48)),
            0..24,
        )
    ) {
        let log = log_from(&raw);
        let bytes = log.encode();
        let back = EventLog::decode(&bytes).expect("encode output must decode");
        prop_assert_eq!(&back, &log);
        // Bit-identical re-encode, too: encode is a pure function of the log.
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn typed_payloads_roundtrip_bit_exactly(
        x in any::<f64>(),
        n in any::<u32>(),
        data in collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(!x.is_nan()); // NaN payload floats are fine on the wire,
                                   // but == comparison below would reject them
        let msg = Msg { x, n, data };
        let rec = EventRecord {
            id: 1,
            time_bits: 0.0f64.to_bits(),
            src: 0,
            dst: 0,
            payload: codec::encode_payload(&msg),
        };
        let back: Msg = rec.decode_payload().expect("payload must decode");
        prop_assert_eq!(back.x.to_bits(), msg.x.to_bits());
        prop_assert_eq!(back.n, msg.n);
        prop_assert_eq!(back.data, msg.data);
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error(
        raw in collection::vec(
            (any::<u64>(), 0.0f64..1e9, collection::vec(any::<u8>(), 0..16)),
            0..6,
        )
    ) {
        let bytes = log_from(&raw).encode();
        for cut in 0..bytes.len() {
            let err = EventLog::decode(&bytes[..cut])
                .expect_err("strict prefix must not decode");
            prop_assert!(
                matches!(err, CodecError::Truncated(_) | CodecError::MissingEndMarker),
                "prefix of {} bytes gave {:?}", cut, err
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected(v in any::<u16>()) {
        prop_assume!(v != VERSION);
        let mut buf = BytesMut::new();
        buf.put_slice(&MAGIC);
        buf.put_u16(v);
        buf.put_u16(0);
        codec::write_end(&mut buf, 0);
        prop_assert_eq!(
            EventLog::decode(&buf),
            Err(CodecError::UnsupportedVersion(v))
        );
    }

    #[test]
    fn corrupting_one_header_byte_never_panics(
        pos in 0usize..8,
        val in any::<u8>(),
    ) {
        let log = log_from(&[(3, 42.0, vec![1, 2, 3])]);
        let mut bytes = log.encode();
        prop_assume!(bytes[pos] != val);
        bytes[pos] = val;
        // Any single header corruption is a clean error (magic, version) or
        // — for the reserved flags field — still a valid log.
        match EventLog::decode(&bytes) {
            Ok(back) => prop_assert_eq!(back, log),
            Err(
                CodecError::BadMagic(_)
                | CodecError::UnsupportedVersion(_)
                | CodecError::Truncated(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }
}

/// Every fault-event variant of the real protocol alphabet (wire tags
/// 8–14, appended by the fault-injection layer under the codec's
/// append-only tag contract).
fn fault_event_strategy() -> impl Strategy<Value = NetEvent> {
    prop_oneof![
        any::<u16>().prop_map(|ap| NetEvent::ApDown { ap }),
        any::<u16>().prop_map(|ap| NetEvent::ApUp { ap }),
        Just(NetEvent::BackhaulDown),
        Just(NetEvent::BackhaulUp),
        (any::<u32>(), any::<u32>()).prop_map(|(loss_ppm, corrupt_ppm)| NetEvent::WireImpair {
            loss_ppm,
            corrupt_ppm,
        }),
        any::<u16>().prop_map(|slots| NetEvent::CsiStale { slots }),
        Just(NetEvent::FaultTick),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fault_events_roundtrip_through_the_log(
        events in collection::vec(fault_event_strategy(), 1..32),
    ) {
        let log = EventLog {
            records: events
                .iter()
                .enumerate()
                .map(|(k, e)| EventRecord {
                    id: k as u64,
                    time_bits: (k as f64 * 3.5).to_bits(),
                    src: 0,
                    dst: k as u32,
                    payload: codec::encode_payload(e),
                })
                .collect(),
        };
        let back = EventLog::decode(&log.encode()).expect("fault log must decode");
        prop_assert_eq!(&back, &log);
        for (rec, original) in back.records.iter().zip(&events) {
            let decoded: NetEvent = rec.decode_payload().expect("payload must decode");
            prop_assert_eq!(&decoded, original);
            prop_assert_eq!(decoded.kind(), original.kind());
        }
    }

    #[test]
    fn truncated_fault_payloads_are_typed_errors(event in fault_event_strategy()) {
        let payload = codec::encode_payload(&event);
        for cut in 0..payload.len() {
            let rec = EventRecord {
                id: 0,
                time_bits: 0,
                src: 0,
                dst: 0,
                payload: payload[..cut].to_vec(),
            };
            let err = rec
                .decode_payload::<NetEvent>()
                .expect_err("strict payload prefix must not decode");
            prop_assert!(
                matches!(err, CodecError::Truncated(_)),
                "cut at {} gave {:?}", cut, err
            );
        }
    }

    #[test]
    fn corrupting_a_fault_payload_never_panics(
        event in fault_event_strategy(),
        pos_seed in any::<usize>(),
        val in any::<u8>(),
    ) {
        let mut payload = codec::encode_payload(&event);
        let pos = pos_seed % payload.len();
        payload[pos] = val;
        // Any outcome is acceptable except a panic or an untyped failure:
        // either some event decodes (tag still valid) or the decoder reports
        // a typed error (unknown tag / trailing bytes via BadPayload, or
        // truncation).
        let rec = EventRecord { id: 0, time_bits: 0, src: 0, dst: 0, payload };
        match rec.decode_payload::<NetEvent>() {
            Ok(_) => {}
            Err(CodecError::Truncated(_) | CodecError::BadPayload(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }
}

#[test]
fn empty_log_is_valid_and_minimal() {
    let log = EventLog::default();
    assert!(log.is_empty());
    let bytes = log.encode();
    // magic (4) + version (2) + flags (2) + end tag (1) + count (8)
    assert_eq!(bytes.len(), 17);
    assert_eq!(&bytes[..4], &MAGIC);
    let back = EventLog::decode(&bytes).unwrap();
    assert!(back.is_empty());
    assert_eq!(back.len(), 0);
}

#[test]
fn record_times_survive_as_bits() {
    // 0.1 + 0.2 is the canonical "not representable" sum; the wire format
    // must hand back the exact bit pattern, not a reparsed decimal.
    let us = 0.1f64 + 0.2;
    let log = log_from(&[(0, us, vec![])]);
    let back = EventLog::decode(&log.encode()).unwrap();
    assert_eq!(back.records[0].time_bits, us.to_bits());
    assert_eq!(back.records[0].time(), SimTime::from_micros(us));
}

#[test]
fn leftover_payload_bytes_are_an_error() {
    let mut payload = codec::encode_payload(&Msg {
        x: 1.0,
        n: 2,
        data: vec![9],
    });
    payload.push(0xAB); // one byte the decoder will not consume
    let rec = EventRecord {
        id: 0,
        time_bits: 0,
        src: 0,
        dst: 0,
        payload,
    };
    assert!(matches!(
        rec.decode_payload::<Msg>(),
        Err(CodecError::BadPayload(_))
    ));
}
