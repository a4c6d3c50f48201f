//! A `Batch` body is a claim too. The worker walks it raw — no nested
//! decode whose `Vec` machinery would bound-check for it — so every way
//! a body can lie (cut short, a destination outside the block, a length
//! or a message count the bytes cannot back, bytes left over) must end
//! in `InvalidData` from `serve`: no panic, no hang, and nothing
//! allocated on the strength of a number inside the body. The other
//! half of the same contract is the point of the flat ingest: what a
//! worker allocates for an exchange depends on the bytes it receives,
//! not on how many messages they hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::Duration;

use mrlr_mapreduce::dist::transport::{frame_bytes, write_frame};
use mrlr_mapreduce::dist::wire::encode_value;
use mrlr_mapreduce::dist::{worker, Frame};

/// Counts allocator calls and requested bytes per thread, so a worker
/// thread's own total is exact whatever the other tests of this binary
/// are doing meanwhile.
struct Counting;

thread_local! {
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a bump of two const-initialized, destructor-free thread-local cells,
// which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one `serve` call did: its result, and the allocator calls and
/// bytes its thread requested while it ran.
struct Served {
    result: io::Result<()>,
    calls: usize,
    bytes: usize,
}

/// The block every test assigns: shards 4 and 5.
const LO: u64 = 4;
const HI: u64 = 6;

/// Starts a worker on its own thread, already assigned `LO..HI`, and
/// lets `drive` talk to it. The join is bounded, so a hang fails the
/// test instead of hanging it.
fn with_worker(drive: impl FnOnce(&mut UnixStream)) -> Served {
    let (mut master, served) = UnixStream::pair().unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (calls, bytes) = (CALLS.get(), BYTES.get());
        let result = worker::serve(served);
        let _ = tx.send(Served {
            result,
            calls: CALLS.get() - calls,
            bytes: BYTES.get() - bytes,
        });
    });
    let assign = Frame::Assign {
        worker: 0,
        shard_lo: LO,
        shard_hi: HI,
        machines: 8,
        seed: 3,
        kill_at: None,
    };
    write_frame(&mut master, &assign).unwrap();
    let mut ack = [0u8; 13];
    master.read_exact(&mut ack).unwrap();
    drive(&mut master);
    drop(master);
    rx.recv_timeout(Duration::from_secs(10))
        .expect("serve did not return within 10 s")
}

/// Sends `body` as one complete frame and returns how the worker ended.
fn served_body(body: &[u8]) -> Served {
    with_worker(|master| {
        // The worker may be gone before the last byte: not this test's
        // concern.
        let _ = master.write_all(&(body.len() as u32).to_le_bytes());
        let _ = master.write_all(body);
    })
}

fn assert_rejected(body: &[u8], what: &str) {
    let served = served_body(body);
    let err = served.result.expect_err(what);
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
    // The body's own buffer, plus error strings and bookkeeping.
    assert!(
        served.bytes < body.len() + (8 << 10),
        "{what}: {} bytes requested for a {}-byte body",
        served.bytes,
        body.len()
    );
}

/// A well-formed two-message batch for the block, as a frame body:
/// tag, superstep, count at byte 9, then `dst | len | payload` records
/// starting at byte 17.
fn valid_body() -> Vec<u8> {
    encode_value(&Frame::Batch {
        superstep: 1,
        msgs: vec![(LO, vec![1, 2, 3]), (LO + 1, vec![])],
    })
}

#[test]
fn a_valid_batch_is_parked_and_the_hangup_is_clean() {
    let served = served_body(&valid_body());
    served
        .result
        .expect("a valid batch then EOF is an orderly end");
}

#[test]
fn every_strict_prefix_of_a_batch_body_is_invalid_data() {
    let valid = valid_body();
    for cut in 0..valid.len() {
        assert_rejected(&valid[..cut], &format!("prefix of {cut} bytes"));
    }
}

#[test]
fn trailing_bytes_are_invalid_data() {
    let mut body = valid_body();
    body.push(0);
    assert_rejected(&body, "one trailing byte");
}

#[test]
fn a_destination_outside_the_block_is_invalid_data() {
    for dst in [LO - 1, HI, u64::MAX] {
        let mut body = valid_body();
        body[17..25].copy_from_slice(&dst.to_le_bytes());
        assert_rejected(&body, &format!("dst {dst}"));
    }
}

#[test]
fn a_length_running_past_the_body_is_invalid_data() {
    for len in [4u64, 1 << 20, u64::MAX] {
        let mut body = valid_body();
        // The last record's length: nothing follows it.
        let at = body.len() - 8;
        body[at..].copy_from_slice(&len.to_le_bytes());
        assert_rejected(&body, &format!("len {len}"));
    }
}

#[test]
fn a_count_the_body_cannot_hold_is_invalid_data_and_buys_no_memory() {
    for count in [3u64, 1 << 32, u64::MAX] {
        let mut body = valid_body();
        body[9..17].copy_from_slice(&count.to_le_bytes());
        assert_rejected(&body, &format!("count {count}"));
    }
}

/// One exchange of `msgs` messages of `payload` bytes each, cut into
/// eight batch frames the way the master chunks a stream; returns the
/// worker's allocator calls for its whole life.
fn exchange_allocator_calls(msgs: usize, payload: usize) -> usize {
    let frames: Vec<Vec<u8>> = (0..8)
        .map(|f| {
            let chunk = (0..msgs / 8)
                .map(|i| (LO + (i as u64 & 1), vec![f as u8; payload]))
                .collect();
            frame_bytes(&Frame::Batch {
                superstep: 1,
                msgs: chunk,
            })
        })
        .collect();
    let served = with_worker(|master| {
        for frame in &frames {
            master.write_all(frame).unwrap();
        }
        write_frame(master, &Frame::Flush { superstep: 1 }).unwrap();
        let mut prefix = [0u8; 4];
        master.read_exact(&mut prefix).unwrap();
        let mut region = vec![0u8; u32::from_le_bytes(prefix) as usize];
        master.read_exact(&mut region).unwrap();
        // Every message came back: `len | payload` each, plus headers.
        assert!(region.len() > msgs * (8 + payload));
        write_frame(master, &Frame::Shutdown).unwrap();
    });
    served.result.expect("a well-formed exchange");
    served.calls
}

#[test]
fn worker_allocations_do_not_grow_with_the_message_count() {
    // The same ~2 MB of batch bytes as 10^3 large messages and as 10^5
    // small ones: eight parked bodies, one output frame and a few vectors
    // of bookkeeping either way.
    let few = exchange_allocator_calls(1_000, 1_984);
    let many = exchange_allocator_calls(100_000, 4);
    assert!(few < 64, "{few} allocator calls for 10^3 messages");
    assert!(
        many <= few + 4,
        "{many} allocator calls for 10^5 messages against {few} for 10^3"
    );
}
