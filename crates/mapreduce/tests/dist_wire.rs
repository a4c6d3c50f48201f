//! Property-based contract of the dist wire format: every [`Frame`]
//! kind survives `decode(encode(f)) == f` on arbitrary field values,
//! every strict prefix of a canonical encoding is rejected as
//! truncated, trailing garbage is rejected, and both failure modes
//! carry the exact byte offset at which decoding gave up. The nested
//! `Batch`/`Inboxes` encodings are also the reference the worker's flat
//! ingest is held to: whatever way a batch is cut into frames, the reply
//! a worker assembles from the raw bytes is the nested frame, byte for
//! byte.

use std::io::Read;
use std::os::unix::net::UnixStream;

use proptest::prelude::*;

use mrlr_mapreduce::dist::transport::{frame_bytes, read_frame, write_frame};
use mrlr_mapreduce::dist::wire::{decode_value, encode_value, region_digest};
use mrlr_mapreduce::dist::{worker, Frame};

/// Strategy: the payload byte strings carried inside batches/inboxes.
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=u8::MAX, 0..32)
}

/// Strategy: one arbitrary frame, the kind selected uniformly so every
/// protocol tag is exercised.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..9,
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            (any::<bool>(), any::<u64>()),
        ),
        proptest::collection::vec((any::<u64>(), arb_payload()), 0..8),
        proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(arb_payload(), 0..4)),
            0..6,
        ),
    )
        .prop_map(
            |(kind, (a, b, c, d, e, (has_kill, kill)), msgs, shards)| match kind {
                0 => Frame::Assign {
                    worker: a,
                    shard_lo: b,
                    shard_hi: c,
                    machines: d,
                    seed: e,
                    kill_at: has_kill.then_some(kill),
                },
                1 => Frame::Open { superstep: a },
                2 => Frame::Ack { superstep: a },
                3 => Frame::Batch { superstep: a, msgs },
                4 => Frame::Flush { superstep: a },
                5 => Frame::Inboxes {
                    superstep: a,
                    shards,
                    digest: e,
                },
                6 => Frame::Ping { nonce: a },
                7 => Frame::Pong { nonce: a },
                _ => Frame::Shutdown,
            },
        )
}

/// Strategy: traffic for a block of `shards` shards starting at `lo`,
/// plus where to cut it into batch frames (a cut at `i` closes a frame
/// before message `i`; duplicates leave empty frames).
#[allow(clippy::type_complexity)]
fn arb_exchange() -> impl Strategy<Value = (u64, u64, Vec<(u64, Vec<u8>)>, Vec<usize>)> {
    (
        0u64..1000,
        1u64..6,
        proptest::collection::vec((any::<u64>(), arb_payload()), 0..40),
        proptest::collection::vec(0usize..41, 0..5),
    )
        .prop_map(|(lo, shards, msgs, cuts)| {
            let msgs = msgs.into_iter().map(|(d, p)| (lo + d % shards, p));
            (lo, shards, msgs.collect(), cuts)
        })
}

proptest! {
    #[test]
    fn worker_reply_is_the_nested_inboxes_frame_however_the_batch_is_cut(
        (lo, shards, msgs, mut cuts) in arb_exchange(),
        seed in any::<u64>(),
    ) {
        let (mut master, served) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || worker::serve(served));
        write_frame(&mut master, &Frame::Assign {
            worker: 0,
            shard_lo: lo,
            shard_hi: lo + shards,
            machines: lo + shards,
            seed,
            kill_at: None,
        }).unwrap();
        prop_assert_eq!(read_frame(&mut master).unwrap(), Frame::Ack { superstep: 0 });
        cuts.sort_unstable();
        let mut from = 0;
        for cut in cuts.into_iter().chain([msgs.len()]) {
            let cut = cut.min(msgs.len());
            write_frame(&mut master, &Frame::Batch {
                superstep: 3,
                msgs: msgs[from..cut].to_vec(),
            }).unwrap();
            from = cut;
        }
        write_frame(&mut master, &Frame::Flush { superstep: 3 }).unwrap();
        // The nested oracle: one bucket per shard, arrival order.
        let mut buckets: Vec<(u64, Vec<Vec<u8>>)> =
            (lo..lo + shards).map(|s| (s, Vec::new())).collect();
        for (dst, payload) in &msgs {
            buckets[(dst - lo) as usize].1.push(payload.clone());
        }
        let want = frame_bytes(&Frame::Inboxes {
            superstep: 3,
            digest: region_digest(seed, &buckets),
            shards: buckets,
        });
        let mut got = vec![0u8; want.len()];
        master.read_exact(&mut got).unwrap();
        prop_assert_eq!(got, want);
        write_frame(&mut master, &Frame::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn every_frame_kind_round_trips(frame in arb_frame()) {
        let bytes = encode_value(&frame);
        prop_assert_eq!(decode_value::<Frame>(&bytes).unwrap(), frame);
    }

    #[test]
    fn every_strict_prefix_is_rejected_as_truncated(frame in arb_frame()) {
        let bytes = encode_value(&frame);
        for cut in 0..bytes.len() {
            let err = decode_value::<Frame>(&bytes[..cut])
                .expect_err("strict prefix must not decode");
            // The reported offset points inside the surviving prefix —
            // decoding never reads past the data it was handed.
            prop_assert!(
                err.offset <= cut,
                "cut {} of {}: offset {} out of range ({})",
                cut, bytes.len(), err.offset, err.reason
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected_at_the_exact_boundary(
        frame in arb_frame(),
        junk in proptest::collection::vec(0u8..=u8::MAX, 1..16),
    ) {
        let mut bytes = encode_value(&frame);
        let canonical = bytes.len();
        bytes.extend_from_slice(&junk);
        let err = decode_value::<Frame>(&bytes).expect_err("trailing bytes must not decode");
        prop_assert_eq!(err.offset, canonical);
        prop_assert!(err.reason.contains("trailing"), "{}", err.reason);
    }

    #[test]
    fn unknown_tags_are_rejected_at_offset_zero(
        tag in 9u8..=u8::MAX,
        body in proptest::collection::vec(0u8..=u8::MAX, 0..16),
    ) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&body);
        let err = decode_value::<Frame>(&bytes).expect_err("unknown tag must not decode");
        prop_assert_eq!(err.offset, 0);
        prop_assert!(err.reason.contains("unknown frame tag"), "{}", err.reason);
    }

    #[test]
    fn corrupted_bytes_never_panic(
        frame in arb_frame(),
        flip in (any::<usize>(), 1u8..=u8::MAX),
    ) {
        // Flip one byte anywhere: decoding must either produce some
        // frame or return a structured error — never panic or read out
        // of bounds.
        let mut bytes = encode_value(&frame);
        let (pos, xor) = flip;
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        match decode_value::<Frame>(&bytes) {
            Ok(_) => {}
            Err(err) => prop_assert!(err.offset <= bytes.len(), "{}", err.reason),
        }
    }
}
