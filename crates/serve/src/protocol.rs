//! The daemon's JSON-lines wire protocol.
//!
//! One JSON object per line in each direction. Decoding is total: any
//! input — truncated, garbage, oversized, wrong-typed — maps to a typed
//! [`ProtoError`], never a panic or a hang (property-tested in
//! `tests/protocol_props.rs`).
//!
//! # Requests
//!
//! ```text
//! {"type":"run","id":"r1","scenario":"fig12","quality":"quick","seed":7,
//!  "replicates":4,"deadline_ms":5000,"no_cache":false}
//! {"type":"stats","id":"s1"}
//! {"type":"ping","id":"p1"}
//! {"type":"shutdown","id":"x1"}
//! ```
//!
//! `seed` accepts a JSON integer or a decimal/`0x`-hex string (JSON has no
//! hex literals). Omitted fields default: `quality` quick, `seed`
//! [`iac_sim::experiment::DEFAULT_SEED`], `replicates` the scenario's
//! registry default, `deadline_ms` the daemon's `--default-deadline-ms`.
//!
//! # Responses
//!
//! ```text
//! {"type":"replicate","id":"r1","replicate":0,"metrics":{...}}      (streamed, index order)
//! {"type":"result","id":"r1","status":"ok","cached":false,"degraded":false,
//!  "completed":4,"requested":4,"report":{...ScenarioReport::to_json()...}}
//! {"type":"result","id":"r1","status":"timeout","completed":2,...}  (partial prefix)
//! {"type":"error","id":"r1","error":"panic","detail":"..."}
//! {"type":"stats","id":"s1","metrics":{...}} / {"type":"pong",...} / {"type":"bye",...}
//! ```
//!
//! The `report` field is spliced in **verbatim** from
//! [`iac_sim::registry::ScenarioReport::to_json`] (or from the cache, which
//! stores those exact bytes) — so a cache hit's report is byte-identical to
//! the cold path's, which is what the integrity suite pins.

use crate::json::{self, JsonError, Value};
use iac_obs::metrics::json_str;
use iac_sim::registry::{json_f64, Quality};

/// Hard cap on one protocol line, bytes (including the newline). Longer
/// lines are consumed and answered with a typed `oversized` error.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Hard cap on a request `id`, bytes.
pub(crate) const MAX_ID_BYTES: usize = 256;

/// Hard cap on a scenario name, bytes.
pub(crate) const MAX_SCENARIO_BYTES: usize = 128;

/// Hard cap on `replicates` per request.
pub(crate) const MAX_REPLICATES: usize = 100_000;

/// A decoded request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a scenario sweep.
    Run(RunRequest),
    /// Report the daemon's metric snapshot.
    Stats {
        /// Echoed request id.
        id: String,
    },
    /// Liveness probe.
    Ping {
        /// Echoed request id.
        id: String,
    },
    /// Drain in-flight work and stop.
    Shutdown {
        /// Echoed request id.
        id: String,
    },
}

/// The `run` request payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// Client-chosen id, echoed on every response line.
    pub id: String,
    /// Registry scenario name (or a chaos scenario when enabled).
    pub scenario: String,
    /// Trial sizing.
    pub quality: Quality,
    /// Master sweep seed.
    pub seed: Option<u64>,
    /// Replicates; `None` = the scenario's registry default.
    pub replicates: Option<usize>,
    /// Per-request deadline in milliseconds; `None` = daemon default.
    pub deadline_ms: Option<u64>,
    /// Bypass the result cache for this request (read and write).
    pub no_cache: bool,
}

/// Everything that can go wrong decoding a request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversized {
        /// Bytes seen before giving up (at least the cap).
        len: usize,
    },
    /// The line is not valid JSON.
    Json(JsonError),
    /// The line parsed but is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present with the wrong type, range, or size.
    BadField {
        /// Field name.
        field: &'static str,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// Unrecognized `type` value.
    UnknownType(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Oversized { len } => {
                write!(f, "line exceeds {MAX_LINE_BYTES} bytes (saw {len})")
            }
            ProtoError::Json(e) => write!(f, "invalid JSON: {e}"),
            ProtoError::NotAnObject => write!(f, "request must be a JSON object"),
            ProtoError::MissingField(name) => write!(f, "missing field {name:?}"),
            ProtoError::BadField { field, expected } => {
                write!(f, "field {field:?} must be {expected}")
            }
            ProtoError::UnknownType(t) => write!(f, "unknown request type {t:?}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// The stable machine-readable error code carried on `error` response
    /// lines.
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::Oversized { .. } => "oversized",
            _ => "protocol",
        }
    }
}

/// Parse a seed: JSON integer, or a decimal / `0x`-hex string.
fn seed_of(v: &Value) -> Option<u64> {
    match v {
        Value::Int(_) => v.as_u64(),
        Value::Str(s) => iac_sim::cli::parse_seed(s),
        _ => None,
    }
}

fn str_field(obj: &Value, field: &'static str, max: usize) -> Result<Option<String>, ProtoError> {
    match obj.field(field) {
        None => Ok(None),
        Some(v) => {
            let s = v.as_str().ok_or(ProtoError::BadField {
                field,
                expected: "a string",
            })?;
            if s.len() > max {
                return Err(ProtoError::BadField {
                    field,
                    expected: "a shorter string",
                });
            }
            Ok(Some(s.to_string()))
        }
    }
}

/// Decode one request line. `line` must not include the trailing newline.
pub fn decode_request(line: &[u8]) -> Result<Request, ProtoError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtoError::Oversized { len: line.len() });
    }
    let v = json::parse(line).map_err(ProtoError::Json)?;
    if !matches!(v, Value::Obj(_)) {
        return Err(ProtoError::NotAnObject);
    }
    let ty = v
        .field("type")
        .ok_or(ProtoError::MissingField("type"))?
        .as_str()
        .ok_or(ProtoError::BadField {
            field: "type",
            expected: "a string",
        })?
        .to_string();
    let id = str_field(&v, "id", MAX_ID_BYTES)?.ok_or(ProtoError::MissingField("id"))?;
    match ty.as_str() {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "run" => {
            let scenario = str_field(&v, "scenario", MAX_SCENARIO_BYTES)?
                .ok_or(ProtoError::MissingField("scenario"))?;
            let quality = match v.field("quality") {
                None => Quality::Quick,
                Some(q) => match q.as_str() {
                    Some("quick") => Quality::Quick,
                    Some("paper") => Quality::Paper,
                    _ => {
                        return Err(ProtoError::BadField {
                            field: "quality",
                            expected: "\"quick\" or \"paper\"",
                        })
                    }
                },
            };
            let seed = match v.field("seed") {
                None => None,
                Some(s) => Some(seed_of(s).ok_or(ProtoError::BadField {
                    field: "seed",
                    expected: "a u64 integer or decimal/0x-hex string",
                })?),
            };
            let replicates = match v.field("replicates") {
                None => None,
                Some(r) => {
                    let n = r.as_u64().ok_or(ProtoError::BadField {
                        field: "replicates",
                        expected: "a positive integer",
                    })? as usize;
                    if n == 0 || n > MAX_REPLICATES {
                        return Err(ProtoError::BadField {
                            field: "replicates",
                            expected: "between 1 and 100000",
                        });
                    }
                    Some(n)
                }
            };
            let deadline_ms = match v.field("deadline_ms") {
                None => None,
                Some(d) => Some(d.as_u64().ok_or(ProtoError::BadField {
                    field: "deadline_ms",
                    expected: "a non-negative integer",
                })?),
            };
            let no_cache = match v.field("no_cache") {
                None => false,
                Some(b) => b.as_bool().ok_or(ProtoError::BadField {
                    field: "no_cache",
                    expected: "a boolean",
                })?,
            };
            Ok(Request::Run(RunRequest {
                id,
                scenario,
                quality,
                seed,
                replicates,
                deadline_ms,
                no_cache,
            }))
        }
        other => Err(ProtoError::UnknownType(other.to_string())),
    }
}

/// Encode a request as one JSON line (no trailing newline). The codec's
/// round-trip contract: `decode_request(encode_request(r)) == r`.
pub fn encode_request(r: &Request) -> String {
    match r {
        Request::Ping { id } => format!("{{\"type\":\"ping\",\"id\":{}}}", json_str(id)),
        Request::Stats { id } => format!("{{\"type\":\"stats\",\"id\":{}}}", json_str(id)),
        Request::Shutdown { id } => {
            format!("{{\"type\":\"shutdown\",\"id\":{}}}", json_str(id))
        }
        Request::Run(rr) => {
            let mut s = format!(
                "{{\"type\":\"run\",\"id\":{},\"scenario\":{}",
                json_str(&rr.id),
                json_str(&rr.scenario)
            );
            s.push_str(&format!(",\"quality\":\"{}\"", rr.quality.label()));
            if let Some(seed) = rr.seed {
                s.push_str(&format!(",\"seed\":{seed}"));
            }
            if let Some(n) = rr.replicates {
                s.push_str(&format!(",\"replicates\":{n}"));
            }
            if let Some(d) = rr.deadline_ms {
                s.push_str(&format!(",\"deadline_ms\":{d}"));
            }
            if rr.no_cache {
                s.push_str(",\"no_cache\":true");
            }
            s.push('}');
            s
        }
    }
}

/// How a `run` request ended, carried in the `status` field of `result`
/// lines (errors use `error` lines instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// All requested replicates completed.
    Ok,
    /// The deadline expired; the report covers the completed prefix.
    Timeout,
}

impl RunStatus {
    /// Wire label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Timeout => "timeout",
        }
    }
}

/// One streamed per-replicate line: the replicate's metrics in trial order.
pub(crate) fn replicate_line(
    id: &str,
    replicate: usize,
    metrics: &[(&'static str, f64)],
) -> String {
    let mut s = format!(
        "{{\"type\":\"replicate\",\"id\":{},\"replicate\":{replicate},\"metrics\":{{",
        json_str(id)
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{name}\":{}", json_f64(*v)));
    }
    s.push_str("}}");
    s
}

/// The final line of a successful (or timed-out-partial) `run`.
/// `report_json` is spliced verbatim.
pub(crate) fn result_line(
    id: &str,
    status: RunStatus,
    cached: bool,
    degraded: bool,
    completed: usize,
    requested: usize,
    report_json: &str,
) -> String {
    format!(
        "{{\"type\":\"result\",\"id\":{},\"status\":\"{}\",\"cached\":{cached},\"degraded\":{degraded},\"completed\":{completed},\"requested\":{requested},\"report\":{report_json}}}",
        json_str(id),
        status.label(),
    )
}

/// A typed failure line. `id` is absent for lines that failed before an id
/// could be decoded.
pub(crate) fn error_line(id: Option<&str>, code: &str, detail: &str) -> String {
    match id {
        Some(id) => format!(
            "{{\"type\":\"error\",\"id\":{},\"error\":{},\"detail\":{}}}",
            json_str(id),
            json_str(code),
            json_str(detail)
        ),
        None => format!(
            "{{\"type\":\"error\",\"error\":{},\"detail\":{}}}",
            json_str(code),
            json_str(detail)
        ),
    }
}

/// The `stats` response: the daemon's metric snapshot, spliced verbatim.
pub(crate) fn stats_line(id: &str, metrics_json: &str) -> String {
    format!(
        "{{\"type\":\"stats\",\"id\":{},\"metrics\":{metrics_json}}}",
        json_str(id)
    )
}

/// The `ping` response.
pub(crate) fn pong_line(id: &str) -> String {
    format!("{{\"type\":\"pong\",\"id\":{}}}", json_str(id))
}

/// The `shutdown` acknowledgement.
pub(crate) fn bye_line(id: &str) -> String {
    format!("{{\"type\":\"bye\",\"id\":{}}}", json_str(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_req(line: &str) -> Result<Request, ProtoError> {
        decode_request(line.as_bytes())
    }

    #[test]
    fn minimal_and_full_run_requests_decode() {
        let r = run_req(r#"{"type":"run","id":"a","scenario":"fig12"}"#).unwrap();
        match r {
            Request::Run(rr) => {
                assert_eq!(rr.id, "a");
                assert_eq!(rr.scenario, "fig12");
                assert_eq!(rr.quality, Quality::Quick);
                assert_eq!(rr.seed, None);
                assert_eq!(rr.replicates, None);
                assert_eq!(rr.deadline_ms, None);
                assert!(!rr.no_cache);
            }
            other => panic!("{other:?}"),
        }
        let r = run_req(
            r#"{"type":"run","id":"b","scenario":"des_load","quality":"paper","seed":"0x1AC","replicates":3,"deadline_ms":250,"no_cache":true}"#,
        )
        .unwrap();
        match r {
            Request::Run(rr) => {
                assert_eq!(rr.quality, Quality::Paper);
                assert_eq!(rr.seed, Some(0x1AC));
                assert_eq!(rr.replicates, Some(3));
                assert_eq!(rr.deadline_ms, Some(250));
                assert!(rr.no_cache);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn control_requests_decode() {
        assert_eq!(
            run_req(r#"{"type":"ping","id":"p"}"#).unwrap(),
            Request::Ping {
                id: "p".to_string()
            }
        );
        assert_eq!(
            run_req(r#"{"type":"stats","id":"s"}"#).unwrap(),
            Request::Stats {
                id: "s".to_string()
            }
        );
        assert_eq!(
            run_req(r#"{"type":"shutdown","id":"x"}"#).unwrap(),
            Request::Shutdown {
                id: "x".to_string()
            }
        );
    }

    #[test]
    fn big_seeds_survive_both_spellings() {
        for (line, want) in [
            (
                format!(
                    r#"{{"type":"run","id":"a","scenario":"s","seed":{}}}"#,
                    u64::MAX
                ),
                u64::MAX,
            ),
            (
                r#"{"type":"run","id":"a","scenario":"s","seed":"0xffffffffffffffff"}"#.to_string(),
                u64::MAX,
            ),
            (
                format!(
                    r#"{{"type":"run","id":"a","scenario":"s","seed":"{}"}}"#,
                    u64::MAX - 3
                ),
                u64::MAX - 3,
            ),
        ] {
            match run_req(&line).unwrap() {
                Request::Run(rr) => assert_eq!(rr.seed, Some(want), "{line}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn typed_errors_for_every_malformation() {
        let cases: &[(&str, &str)] = &[
            ("", "protocol"),
            ("{", "protocol"),
            ("garbage", "protocol"),
            ("[1,2]", "protocol"),
            ("{\"id\":\"a\"}", "protocol"),
            (r#"{"type":"run","id":"a"}"#, "protocol"),
            (r#"{"type":"nonesuch","id":"a"}"#, "protocol"),
            (
                r#"{"type":"run","id":"a","scenario":"s","quality":"best"}"#,
                "protocol",
            ),
            (
                r#"{"type":"run","id":"a","scenario":"s","seed":-1}"#,
                "protocol",
            ),
            (
                r#"{"type":"run","id":"a","scenario":"s","seed":1.5}"#,
                "protocol",
            ),
            (
                r#"{"type":"run","id":"a","scenario":"s","seed":18446744073709551616}"#,
                "protocol",
            ),
            (
                r#"{"type":"run","id":"a","scenario":"s","replicates":0}"#,
                "protocol",
            ),
            (
                r#"{"type":"run","id":"a","scenario":"s","replicates":100001}"#,
                "protocol",
            ),
            (
                r#"{"type":"run","id":"a","scenario":"s","no_cache":"yes"}"#,
                "protocol",
            ),
            (r#"{"type":"run","id":3,"scenario":"s"}"#, "protocol"),
        ];
        for (line, code) in cases {
            let e = run_req(line).unwrap_err();
            assert_eq!(e.code(), *code, "{line:?} -> {e}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn oversized_lines_are_typed_before_parsing() {
        let line = format!(
            r#"{{"type":"run","id":"a","scenario":"{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        let e = run_req(&line).unwrap_err();
        assert!(matches!(e, ProtoError::Oversized { .. }));
        assert_eq!(e.code(), "oversized");
        // Oversized individual fields inside a legal-length line.
        let e = run_req(&format!(
            r#"{{"type":"run","id":"{}","scenario":"s"}}"#,
            "i".repeat(MAX_ID_BYTES + 1)
        ))
        .unwrap_err();
        assert!(matches!(e, ProtoError::BadField { field: "id", .. }));
        let e = run_req(&format!(
            r#"{{"type":"run","id":"a","scenario":"{}"}}"#,
            "s".repeat(MAX_SCENARIO_BYTES + 1)
        ))
        .unwrap_err();
        assert!(matches!(
            e,
            ProtoError::BadField {
                field: "scenario",
                ..
            }
        ));
    }

    #[test]
    fn response_lines_are_parseable_json() {
        for line in [
            replicate_line("r", 0, &[("gain", 1.5), ("nan_metric", f64::NAN)]),
            result_line("r", RunStatus::Ok, true, false, 4, 4, "{\"x\":1}"),
            result_line("r", RunStatus::Timeout, false, false, 1, 8, "{}"),
            error_line(Some("r"), "panic", "scenario panicked: \"boom\"\nline2"),
            error_line(None, "protocol", "bad"),
            stats_line("s", "{\"counters\":{}}"),
            pong_line("p"),
            bye_line("x"),
        ] {
            let v = crate::json::parse(line.as_bytes()).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(v.field("type").is_some(), "{line}");
        }
        assert!(replicate_line("r", 0, &[("nan_metric", f64::NAN)]).contains("\"nan_metric\":null"));
    }
}
