//! Property tests for the slice service's wire protocol.
//!
//! Two families: every well-formed [`Request`]/[`Response`] survives a
//! `to_json` → `parse` round trip structurally intact (so the compact
//! encoder and the strict parser agree on the whole value space, not
//! just the handful of fixtures in the unit tests), and `parse` never
//! panics — not on byte garbage, not on truncations or single-byte
//! corruptions of valid lines. The proptest shim is deterministic (the
//! RNG is seeded from the test name), so every CI run explores the same
//! pinned case set; `PROPTEST_CASES` widens it.

use proptest::prelude::*;

use dynslice::protocol::{ErrorKind, Op, Request, Response, ResponseBody, SessionInfo};

/// Highest integer the wire format can carry exactly: the JSON layer
/// models numbers as `f64`, whose mantissa holds 53 bits.
const MAX_EXACT: u64 = 1 << 53;

/// Printable-ASCII string strategy (includes `"` and `\`, so the JSON
/// escaper is part of what round-trips).
fn text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    StringFromChars(collection::vec(' '..'\u{7f}', len))
}

struct StringFromChars<S>(S);

impl<S: Strategy<Value = Vec<char>>> Strategy for StringFromChars<S> {
    type Value = String;
    fn sample(&self, rng: &mut proptest::test_runner::TestRng) -> String {
        self.0.sample(rng).into_iter().collect()
    }
}

fn roundtrip_request(request: &Request) -> Result<(), TestCaseError> {
    let line = request.to_json();
    match Request::parse(&line) {
        Ok(parsed) => {
            prop_assert_eq!(&parsed, request, "wire line: {line}");
        }
        Err(e) => return Err(TestCaseError::fail(format!("`{line}` failed to parse: {e}"))),
    }
    Ok(())
}

fn roundtrip_response(response: &Response) -> Result<(), TestCaseError> {
    let line = response.to_json();
    match Response::parse(&line) {
        Ok(parsed) => {
            prop_assert_eq!(&parsed, response, "wire line: {line}");
        }
        Err(e) => return Err(TestCaseError::fail(format!("`{line}` failed to parse: {e}"))),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn slice_requests_round_trip(
        id in 0u64..MAX_EXACT,
        session in text(0..8),
        criterion in text(1..16),
        wait_bit in 0u8..2,
    ) {
        let request = Request {
            id,
            op: Op::Slice,
            criterion: Some(criterion),
            // An empty `session` is a protocol error, not a value.
            session: if session.is_empty() { None } else { Some(session) },
            program: None,
            snapshot: None,
            input: None,
            algo: None,
            wait: wait_bit == 1,
            proto: None,
        };
        roundtrip_request(&request)?;
    }

    #[test]
    fn load_requests_round_trip(
        id in 0u64..MAX_EXACT,
        session in text(1..10),
        program in text(1..24),
        input in collection::vec(-1_000_000i64..1_000_000, 0..8),
        algo_pick in 0usize..6,
        wait_bit in 0u8..2,
        snapshot in text(0..12),
    ) {
        let algos = ["fp", "opt", "lp", "forward", "paged"];
        let request = Request {
            id,
            op: Op::Load,
            criterion: None,
            session: Some(session),
            program: Some(program),
            // An empty draw leaves the program-only load shape; otherwise
            // both sources ride the same line and must round-trip.
            snapshot: if snapshot.is_empty() { None } else { Some(snapshot) },
            input: if input.is_empty() {
                None
            } else {
                Some(input.iter().map(ToString::to_string).collect::<Vec<_>>().join(","))
            },
            algo: algos.get(algo_pick).map(|a| (*a).to_string()),
            wait: wait_bit == 1,
            proto: None,
        };
        roundtrip_request(&request)?;
    }

    #[test]
    fn hello_round_trips_both_directions(
        id in 0u64..MAX_EXACT,
        proto in 0u64..MAX_EXACT,
        lo in 0u64..MAX_EXACT,
        span in 0u64..1_000,
        server in text(1..16),
    ) {
        roundtrip_request(&Request::hello(id, proto))?;
        roundtrip_response(&Response {
            id,
            body: ResponseBody::Hello {
                proto_min: lo,
                proto_max: lo.saturating_add(span),
                server,
            },
        })?;
    }

    #[test]
    fn unload_list_shutdown_requests_round_trip(
        id in 0u64..MAX_EXACT,
        session in text(1..10),
        which in 0u8..3,
    ) {
        let request = match which {
            0 => Request {
                op: Op::Unload,
                session: Some(session),
                ..Request::list(id)
            },
            1 => Request::list(id),
            _ => Request::shutdown(id),
        };
        roundtrip_request(&request)?;
    }

    #[test]
    fn responses_round_trip(
        id in 0u64..MAX_EXACT,
        name in text(1..10),
        bytes in 0u64..MAX_EXACT,
        stmts in collection::vec(0u32..2_000_000, 0..24),
        cached_bit in 0u8..2,
        variant in 0u8..7,
    ) {
        let cached = cached_bit == 1;
        let body = match variant {
            0 => ResponseBody::Slice {
                algo: name.clone(),
                stmts: stmts.clone(),
                cached,
                micros: bytes,
            },
            1 => ResponseBody::Loaded {
                session: name.clone(),
                algo: "opt".into(),
                resident_bytes: bytes,
            },
            2 => ResponseBody::Unloaded { session: name.clone() },
            3 => ResponseBody::Sessions {
                sessions: stmts
                    .iter()
                    .take(4)
                    .map(|v| SessionInfo {
                        name: format!("{name}-{v}"),
                        algo: name.clone(),
                        resident_bytes: bytes,
                        requests: u64::from(*v),
                        loading: v % 3 == 0,
                        // `loading` wins the state field when both are
                        // set, so quarantine only round-trips without it.
                        quarantined: v % 3 != 0 && v % 5 == 0,
                    })
                    .collect(),
            },
            4 => ResponseBody::ShutdownAck,
            5 => ResponseBody::Loading { session: name.clone() },
            _ => ResponseBody::Error {
                kind: ErrorKind::ALL[(bytes % ErrorKind::ALL.len() as u64) as usize],
                message: name.clone(),
            },
        };
        roundtrip_response(&Response { id, body })?;
    }

    #[test]
    fn byte_garbage_never_panics_either_parser(
        bytes in collection::vec(0u8..=255, 0..96),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        // Errors are fine (and overwhelmingly likely); panics are not.
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
    }

    #[test]
    fn corrupted_valid_lines_never_panic(
        id in 0u64..MAX_EXACT,
        session in text(1..10),
        program in text(1..16),
        cut in 0usize..200,
        flip_at in 0usize..200,
        flip_to in 0u8..=255,
    ) {
        let line = Request::load(id, &session, &program, &[4, 5, -6], Some("lp")).to_json();
        // Truncation at every byte boundary (ASCII-safe by construction).
        let truncated = &line[..cut.min(line.len())];
        let _ = Request::parse(truncated);
        let _ = Response::parse(truncated);
        // Single-byte corruption anywhere in the line.
        let mut bytes = line.into_bytes();
        let at = flip_at % bytes.len();
        bytes[at] = flip_to;
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        let _ = Request::parse(&corrupted);
        let _ = Response::parse(&corrupted);
    }
}
