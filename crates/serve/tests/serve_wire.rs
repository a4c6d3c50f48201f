//! Property-based contract of the serve wire format, mirroring
//! `mrlr-mapreduce/tests/dist_wire.rs`: every [`Request`] and
//! [`Response`] kind survives `decode(encode(x)) == x` on arbitrary
//! field values, every strict prefix is rejected as truncated, trailing
//! garbage is rejected at the exact canonical boundary, unknown tags
//! are rejected at offset 0, and corruption never panics.

use proptest::prelude::*;

use mrlr_mapreduce::dist::wire::{decode_value, encode_value};
use mrlr_serve::protocol::{
    BatchJob, CoalesceKey, RenderOpts, ReportFormat, Request, Response, SolveSpec, StatsSnapshot,
};

fn arb_format() -> impl Strategy<Value = ReportFormat> {
    (0u8..3).prop_map(|t| match t {
        0 => ReportFormat::Text,
        1 => ReportFormat::Json,
        _ => ReportFormat::Csv,
    })
}

fn arb_render() -> impl Strategy<Value = RenderOpts> {
    (arb_format(), any::<bool>(), any::<bool>()).prop_map(|(format, mask, full)| RenderOpts {
        format,
        mask_timings: mask,
        certificates_full: full,
    })
}

fn arb_string() -> impl Strategy<Value = String> {
    // Latin-1 code points: every byte value maps to a char, so the
    // strings exercise both one- and two-byte UTF-8 sequences.
    proptest::collection::vec(any::<u8>(), 0..24)
        .prop_map(|bs| bs.into_iter().map(char::from).collect())
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(has, v)| has.then_some(v))
}

fn arb_spec() -> impl Strategy<Value = SolveSpec> {
    (
        arb_string(),
        arb_string(),
        arb_string(),
        (any::<u64>(), any::<u64>()),
        (arb_opt_u64(), arb_opt_u64(), arb_opt_u64()),
    )
        .prop_map(
            |(algorithm, backend, instance_text, (mu_bits, seed), (threads, machines, workers))| {
                SolveSpec {
                    algorithm,
                    backend,
                    instance_text,
                    mu_bits,
                    seed,
                    threads,
                    machines,
                    workers,
                }
            },
        )
}

fn arb_job() -> impl Strategy<Value = BatchJob> {
    (arb_string(), any::<u64>(), any::<u64>(), arb_opt_u64()).prop_map(
        |(algorithm, mu_bits, seed, threads)| BatchJob {
            algorithm,
            mu_bits,
            seed,
            threads,
        },
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        (0u8..6, any::<u64>()),
        arb_spec(),
        arb_render(),
        proptest::collection::vec((arb_string(), arb_string()), 0..4),
        proptest::collection::vec(arb_job(), 0..4),
        arb_string(),
    )
        .prop_map(
            |((kind, n), spec, render, instances, jobs, text)| match kind {
                0 => Request::Solve {
                    spec,
                    render,
                    timeout_millis: n,
                },
                1 => Request::Batch {
                    instances,
                    jobs,
                    backend: text,
                    render,
                    timeout_millis: n,
                },
                2 => Request::Verify {
                    instance_text: spec.instance_text,
                    report_json: text,
                },
                3 => Request::Ping { nonce: n },
                4 => Request::Stats,
                _ => Request::Shutdown,
            },
        )
}

fn arb_stats() -> impl Strategy<Value = StatsSnapshot> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|((a, b, c, d), (e, f, g))| StatsSnapshot {
            requests: a,
            solver_runs: b,
            coalesce_hits: c,
            busy_rejects: d,
            timeouts: e,
            inflight_high_water: f,
            queue_depth_high_water: g,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        (0u8..9, any::<bool>(), arb_stats()),
        arb_string(),
        arb_string(),
        proptest::collection::vec(arb_string(), 0..4),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((kind, flag, stats), s1, s2, list, (a, b, c))| match kind {
                0 => Response::Admitted,
                1 => Response::Note { line: s1 },
                2 => Response::Report {
                    content: s1,
                    coalesced: flag,
                },
                3 => Response::VerifyOk {
                    algorithm: s1,
                    backend: s2,
                    checks: list,
                },
                4 => Response::Busy {
                    in_flight: a,
                    queued: b,
                    limit: c,
                },
                5 => Response::Error { message: s1 },
                6 => Response::Pong { nonce: a },
                7 => Response::Stats { stats },
                _ => Response::Bye,
            },
        )
}

proptest! {
    #[test]
    fn every_request_kind_round_trips(request in arb_request()) {
        let bytes = encode_value(&request);
        prop_assert_eq!(decode_value::<Request>(&bytes).unwrap(), request);
    }

    #[test]
    fn every_response_kind_round_trips(response in arb_response()) {
        let bytes = encode_value(&response);
        prop_assert_eq!(decode_value::<Response>(&bytes).unwrap(), response);
    }

    #[test]
    fn every_strict_request_prefix_is_rejected_as_truncated(request in arb_request()) {
        let bytes = encode_value(&request);
        for cut in 0..bytes.len() {
            let err = decode_value::<Request>(&bytes[..cut])
                .expect_err("strict prefix must not decode");
            prop_assert!(
                err.offset <= cut,
                "cut {} of {}: offset {} out of range ({})",
                cut, bytes.len(), err.offset, err.reason
            );
        }
    }

    #[test]
    fn every_strict_response_prefix_is_rejected_as_truncated(response in arb_response()) {
        let bytes = encode_value(&response);
        for cut in 0..bytes.len() {
            let err = decode_value::<Response>(&bytes[..cut])
                .expect_err("strict prefix must not decode");
            prop_assert!(err.offset <= cut, "cut {cut}: offset {} ({})", err.offset, err.reason);
        }
    }

    #[test]
    fn trailing_garbage_is_rejected_at_the_exact_boundary(
        request in arb_request(),
        junk in proptest::collection::vec(0u8..=u8::MAX, 1..16),
    ) {
        let mut bytes = encode_value(&request);
        let canonical = bytes.len();
        bytes.extend_from_slice(&junk);
        let err = decode_value::<Request>(&bytes).expect_err("trailing bytes must not decode");
        prop_assert_eq!(err.offset, canonical);
        prop_assert!(err.reason.contains("trailing"), "{}", err.reason);
    }

    #[test]
    fn unknown_tags_are_rejected_at_offset_zero(
        tag in 6u8..=u8::MAX,
        body in proptest::collection::vec(0u8..=u8::MAX, 0..16),
    ) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&body);
        let err = decode_value::<Request>(&bytes).expect_err("unknown tag must not decode");
        prop_assert_eq!(err.offset, 0);
        prop_assert!(err.reason.contains("unknown request tag"), "{}", err.reason);
        let mut bytes = vec![tag.max(9)];
        bytes.extend_from_slice(&body);
        let err = decode_value::<Response>(&bytes).expect_err("unknown tag must not decode");
        prop_assert_eq!(err.offset, 0);
        prop_assert!(err.reason.contains("unknown response tag"), "{}", err.reason);
    }

    #[test]
    fn corrupted_bytes_never_panic(
        request in arb_request(),
        flip in (any::<usize>(), 1u8..=u8::MAX),
    ) {
        let mut bytes = encode_value(&request);
        let (pos, xor) = flip;
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        match decode_value::<Request>(&bytes) {
            Ok(_) => {}
            Err(err) => prop_assert!(err.offset <= bytes.len(), "{}", err.reason),
        }
    }

    #[test]
    fn coalescing_keys_are_injective_on_specs(a in arb_spec(), b in arb_spec()) {
        // Key equality is spec equality: equal keys must mean equal specs
        // (no two distinct runs ever share a report), and an equal spec
        // always finds the run in flight.
        let key = |spec: &SolveSpec| CoalesceKey::new(spec.clone());
        prop_assert_eq!(key(&a) == key(&b), a == b);
        prop_assert!(key(&a) == key(&a));
    }
}
