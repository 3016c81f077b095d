//! Satellite: protocol hardening under the vendored proptest shim.
//!
//! The codec's totality contract: *any* byte line — a well-formed request,
//! a truncation of one, garbage, or an oversized blob — decodes to either
//! a `Request` or a typed `ProtoError`. Never a panic, never a hang, and
//! well-formed requests round-trip exactly.

use iac_serve::protocol::{decode_request, encode_request, ProtoError, Request, MAX_LINE_BYTES};
use iac_serve::RunRequest;
use iac_sim::registry::Quality;
use proptest::prelude::*;

/// A strategy over structurally valid requests.
fn arb_request() -> impl Strategy<Value = Request> {
    let arb_id = collection::vec(any::<u8>(), 1..24).prop_map(|bytes| {
        // Arbitrary (possibly non-ASCII) but valid UTF-8 ids, escapes and all.
        bytes
            .into_iter()
            .map(|b| char::from_u32(b as u32).unwrap())
            .collect::<String>()
    });
    let arb_run = (
        arb_id,
        (0u8..6, any::<u64>(), any::<u64>()),
        (any::<u64>(), 1usize..100_000, any::<u64>()),
    )
        .prop_map(|(id, (kind, a, b), (seed, replicates, deadline))| {
            let scenario = match kind {
                0 => "fig12".to_string(),
                1 => "des_load".to_string(),
                2 => String::new(), // empty is legal wire-wise (unknown at dispatch)
                _ => format!("scen_{}", a % 1000),
            };
            Request::Run(RunRequest {
                id,
                scenario,
                quality: if b % 2 == 0 {
                    Quality::Quick
                } else {
                    Quality::Paper
                },
                seed: (b % 3 != 0).then_some(seed),
                replicates: (b % 5 != 0).then_some(replicates),
                deadline_ms: (b % 7 != 0).then_some(deadline % 1_000_000),
                no_cache: b % 11 == 0,
            })
        });
    let ctl = |mk: fn(String) -> Request| {
        collection::vec(any::<u8>(), 1..24).prop_map(move |bytes| {
            mk(bytes
                .into_iter()
                .map(|b| char::from_u32(b as u32).unwrap())
                .collect())
        })
    };
    prop_oneof![
        arb_run,
        ctl(|id| Request::Ping { id }),
        ctl(|id| Request::Stats { id }),
        ctl(|id| Request::Shutdown { id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Well-formed requests survive encode → decode exactly.
    #[test]
    fn round_trip(req in arb_request()) {
        let line = encode_request(&req);
        prop_assert!(line.len() <= MAX_LINE_BYTES, "encoder stayed under the cap");
        let back = decode_request(line.as_bytes());
        prop_assert_eq!(back.as_ref(), Ok(&req), "line: {}", line);
    }

    /// Every truncation of a valid line is a typed error or a valid
    /// request (never a panic). Truncating JSON can only break it, so
    /// anything that still decodes must be a strict prefix forming a
    /// complete object — impossible here, hence: always an error.
    #[test]
    fn truncations_are_typed(req in arb_request(), cut in any::<u64>()) {
        let line = encode_request(&req);
        let cut = (cut as usize) % line.len(); // strictly shorter
        // Cut at a char boundary (truncating bytes mid-UTF-8 is covered by
        // the garbage property below).
        let mut cut = cut;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        let e = decode_request(&line.as_bytes()[..cut]);
        prop_assert!(e.is_err(), "truncated line decoded: {:?}", &line[..cut]);
        prop_assert!(!e.unwrap_err().to_string().is_empty());
    }

    /// Arbitrary bytes never panic the decoder; failures are typed with a
    /// non-empty rendering.
    #[test]
    fn garbage_is_typed(bytes in collection::vec(any::<u8>(), 0..512)) {
        match decode_request(&bytes) {
            Ok(_) => {} // astronomically unlikely, but legal
            Err(e) => {
                prop_assert!(!e.to_string().is_empty());
                prop_assert!(!e.code().is_empty());
            }
        }
    }

    /// Valid JSON structure with hostile field contents: typed errors only.
    #[test]
    fn hostile_fields_are_typed(
        ty in prop_oneof![
            Just("run".to_string()),
            Just("ping".to_string()),
            Just("x".to_string()),
            collection::vec(any::<u8>(), 0..8).prop_map(|b| {
                b.into_iter().map(|x| char::from_u32((x % 128) as u32).unwrap())
                    .filter(|c| *c != '"' && *c != '\\' && !c.is_control())
                    .collect::<String>()
            })
        ],
        id_len in 0usize..600,
        replicates in any::<u64>(),
        seed_str in collection::vec(any::<u8>(), 0..30).prop_map(|b| {
            b.into_iter().map(|x| char::from_u32((x % 128) as u32).unwrap())
                .filter(|c| *c != '"' && *c != '\\' && !c.is_control())
                .collect::<String>()
        }),
    ) {
        let line = format!(
            "{{\"type\":\"{ty}\",\"id\":\"{}\",\"scenario\":\"s\",\"replicates\":{replicates},\"seed\":\"{seed_str}\"}}",
            "i".repeat(id_len)
        );
        match decode_request(line.as_bytes()) {
            Ok(Request::Run(rr)) => {
                // Only reachable when every field was in range.
                prop_assert!(rr.id.len() <= 256);
                prop_assert!(rr.replicates.unwrap() >= 1);
            }
            Ok(_) => {} // ping/stats/shutdown ignore the extra fields
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Oversized lines are rejected up front with the dedicated code, no
    /// matter what they contain.
    #[test]
    fn oversized_is_typed(extra in 1usize..4096, byte in any::<u8>()) {
        let line = vec![byte; MAX_LINE_BYTES + extra];
        match decode_request(&line) {
            Err(ProtoError::Oversized { len }) => prop_assert_eq!(len, line.len()),
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
    }
}
