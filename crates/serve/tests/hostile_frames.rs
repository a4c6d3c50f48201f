//! A frame's length prefix is a claim. A peer that announces a gigabyte
//! and sends nothing must not make the receiver allocate for the
//! announcement, and a peer that stops partway through a frame must not
//! pin the daemon thread serving it — or the `shutdown` that joins that
//! thread. Before the body reader grew with the bytes that arrive, the
//! first case requested the full claimed gigabyte; before mid-frame
//! reads had a deadline, the second never returned.
//!
//! The length fields inside a body are claims too. Every `Request` and
//! `Response` variant is decoded truncated at every prefix length and
//! with each length field overstated, and no decode may panic or make
//! one allocation larger than its frame (plus [`SLACK`]). Before the
//! vector decoder capped its reserve in bytes rather than elements, a
//! 1 MiB batch frame announcing 2^20 instances reserved 48 MiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Cursor, ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mrlr_mapreduce::dist::transport::{read_wire_frame, MAX_FRAME};
use mrlr_mapreduce::dist::wire::{decode_value, encode_value, Wire};
use mrlr_mapreduce::DetRng;
use mrlr_serve::client::Client;
use mrlr_serve::protocol::{
    BatchJob, RenderOpts, ReportFormat, Request, Response, SolveSpec, StatsSnapshot,
};
use mrlr_serve::server::{serve, ServeConfig};

/// Counts every byte requested from the allocator, process-wide: the
/// daemon allocates on its own connection threads. A thread inside
/// [`largest_allocation`] is measured on that thread alone and kept out
/// of the process-wide count; the file's other tests are kept out of it
/// by [`SERIAL`].
struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `Some(largest single request so far)` while this thread runs
    /// inside [`largest_allocation`]. Const-initialised and without a
    /// destructor, so the allocator may touch it.
    static OWN: Cell<Option<usize>> = const { Cell::new(None) };
}

fn record(size: usize) {
    let own = OWN
        .try_with(|own| own.get().map(|largest| own.set(Some(largest.max(size)))))
        .ok()
        .flatten();
    if own.is_none() {
        REQUESTED.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a counter update (an atomic, or a const thread-local cell) that does
// not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Taken by every test of this file. Outside [`largest_allocation`]
/// they allocate megabytes (samples, mutated bodies, daemon threads), so
/// run in parallel they would leak into each other's process-wide count.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f`, returning its result and the bytes requested meanwhile, by
/// every thread of the process.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = f();
    (out, REQUESTED.load(Ordering::Relaxed) - before)
}

/// Runs `f` on this thread, returning its result and the largest single
/// allocation it requested.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    OWN.with(|own| own.set(Some(0)));
    let out = f();
    let largest = OWN.with(|own| own.take()).expect("measuring");
    (out, largest)
}

/// The up-front reservation is capped at 4 MiB; nothing else on these
/// paths is within orders of magnitude of it.
const ALLOCATION_BOUND: usize = 8 << 20;

/// The largest length a prefix may claim.
fn gigabyte_prefix() -> [u8; 4] {
    (MAX_FRAME as u32).to_le_bytes()
}

type Daemon = std::thread::JoinHandle<std::io::Result<StatsSnapshot>>;

/// Starts a daemon thread and waits until its socket accepts.
fn start(tag: &str, timeout: Duration) -> (PathBuf, Daemon) {
    let socket = std::env::temp_dir().join(format!(
        "mrlr-serve-frames-{}-{tag}.sock",
        std::process::id()
    ));
    let mut cfg = ServeConfig::new(&socket);
    cfg.timeout = timeout;
    let handle = std::thread::spawn(move || serve(cfg));
    for _ in 0..200 {
        if Client::connect(&socket).is_ok() {
            return (socket, handle);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never came up on {}", socket.display());
}

/// Joins the daemon on a helper thread so a hang fails the test instead
/// of hanging it.
fn joined_within(handle: Daemon, bound: Duration) -> StatsSnapshot {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(handle.join()));
    rx.recv_timeout(bound)
        .unwrap_or_else(|_| panic!("shutdown did not return within {bound:?}"))
        .expect("daemon thread panicked")
        .expect("daemon exited with an error")
}

#[test]
fn a_gigabyte_prefix_then_eof_is_a_short_read_not_an_allocation() {
    let _serial = serial();
    for sent in [0usize, 10] {
        let mut bytes = gigabyte_prefix().to_vec();
        bytes.resize(4 + sent, 7);
        let (result, requested) =
            requested_by(|| read_wire_frame::<_, Request>(&mut Cursor::new(&bytes)));
        let err = result.expect_err("a truncated frame cannot decode");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
        assert!(
            requested < ALLOCATION_BOUND,
            "{sent} body bytes sent: {requested} bytes requested"
        );
    }
}

#[test]
fn a_gigabyte_prefix_then_eof_costs_a_live_daemon_nothing() {
    let _serial = serial();
    let (socket, handle) = start("claim", Duration::from_secs(30));
    let ((), requested) = requested_by(|| {
        let mut peer = UnixStream::connect(&socket).unwrap();
        peer.write_all(&gigabyte_prefix()).unwrap();
        peer.shutdown(Shutdown::Write).unwrap();
        // The daemon answers a truncated frame by hanging up.
        let mut rest = Vec::new();
        peer.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "{rest:?}");
    });
    assert!(
        requested < ALLOCATION_BOUND,
        "{requested} bytes requested while serving the claim"
    );
    let mut client = Client::connect(&socket).unwrap();
    assert_eq!(client.ping(5).unwrap(), 5, "the daemon is unharmed");
    client.shutdown().unwrap();
    joined_within(handle, Duration::from_secs(5));
}

#[test]
fn a_peer_stalled_mid_frame_is_dropped_and_never_blocks_shutdown() {
    let _serial = serial();
    const TIMEOUT: Duration = Duration::from_millis(300);
    const SLACK: Duration = Duration::from_secs(2);
    let (socket, handle) = start("stall", TIMEOUT);

    // Three bytes into the prefix, then silence: the connection is
    // dropped once the frame is older than the daemon's timeout.
    let mut in_prefix = UnixStream::connect(&socket).unwrap();
    in_prefix.write_all(&[9, 0, 0]).unwrap();
    in_prefix.set_read_timeout(Some(TIMEOUT + SLACK)).unwrap();
    let stalled_at = Instant::now();
    let eof = in_prefix
        .read(&mut [0u8; 1])
        .expect("the daemon hangs up on a stalled frame");
    assert_eq!(eof, 0);
    assert!(stalled_at.elapsed() >= TIMEOUT / 2, "dropped too eagerly");

    // Stalled inside a body when the daemon drains: shutdown still
    // joins every connection thread, within the same bound.
    let mut in_body = UnixStream::connect(&socket).unwrap();
    in_body.write_all(&64u32.to_le_bytes()).unwrap();
    in_body.write_all(&[1, 2, 3]).unwrap();
    let mut client = Client::connect(&socket).unwrap();
    assert_eq!(client.ping(6).unwrap(), 6);
    client.shutdown().unwrap();
    joined_within(handle, TIMEOUT + SLACK);
    drop(in_body);
}

/// What a decode may allocate beyond its frame's length: an error
/// message, or a vector's first reserve (at least four elements, of at
/// most 48 bytes each).
const SLACK: usize = 1024;

/// Decodes `body` as a `T`, catching a panic. `Some(decoded)`, or `None`
/// if the decoder panicked.
fn decodes<T: Wire>(body: &[u8]) -> Option<bool> {
    std::panic::catch_unwind(|| decode_value::<T>(body).is_ok()).ok()
}

#[test]
fn a_batch_frame_announcing_a_million_instances_reserves_at_most_its_length() {
    let _serial = serial();
    const FRAME: usize = 1 << 20;
    let tag = encode_value(&batch(Vec::new(), Vec::new()))[0];
    let mut body = vec![tag];
    body.extend_from_slice(&(1u64 << 20).to_le_bytes());
    // The first instance's path then claims more bytes than remain.
    body.resize(FRAME, 0xFF);
    let (decoded, largest) = largest_allocation(|| decodes::<Request>(&body));
    assert_eq!(
        decoded,
        Some(false),
        "the frame must be rejected, not panic"
    );
    assert!(
        largest <= FRAME,
        "a {FRAME}-byte frame made a {largest}-byte allocation"
    );
}

/// The layout of an encoded value, enough to find its length fields.
#[derive(Clone, Copy)]
enum Field {
    /// Fixed-width bytes: tags, integers, bools.
    Fixed(usize),
    /// A `u64` byte length, then that many bytes.
    Str,
    /// A `u64` element count, then the elements, each laid out so.
    Vec(&'static [Field]),
    /// A tag byte, then the value if the tag is 1.
    Opt(&'static [Field]),
}

use Field::{Fixed, Opt, Str};

const OPT_U64: Field = Opt(&[Fixed(8)]);

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Walks `layout` over `bytes` from `at`, pushing the offset of every
/// length field; returns the offset just past the value.
fn walk(bytes: &[u8], mut at: usize, layout: &[Field], lengths: &mut Vec<usize>) -> usize {
    for field in layout {
        at = match *field {
            Fixed(n) => at + n,
            Str => {
                lengths.push(at);
                at + 8 + u64_at(bytes, at) as usize
            }
            Field::Vec(item) => {
                lengths.push(at);
                (0..u64_at(bytes, at)).fold(at + 8, |at, _| walk(bytes, at, item, lengths))
            }
            Opt(inner) if bytes[at] == 1 => walk(bytes, at + 1, inner, lengths),
            Opt(_) => at + 1,
        };
    }
    at
}

fn batch(instances: Vec<(String, String)>, jobs: Vec<BatchJob>) -> Request {
    Request::Batch {
        instances,
        jobs,
        backend: "shard".into(),
        render: RenderOpts {
            format: ReportFormat::Csv,
            mask_timings: true,
            certificates_full: false,
        },
        timeout_millis: 9,
    }
}

/// One encoded message: its variant's name, its bytes, its layout and
/// the decoder of its direction.
struct Sample {
    variant: &'static str,
    bytes: Vec<u8>,
    layout: &'static [Field],
    decodes: fn(&[u8]) -> Option<bool>,
}

fn sample<T: Wire>(variant: &'static str, value: &T, layout: &'static [Field]) -> Sample {
    Sample {
        variant,
        bytes: encode_value(value),
        layout,
        decodes: decodes::<T>,
    }
}

fn text(rng: &mut DetRng) -> String {
    let len = rng.range_usize(12);
    (0..len)
        .map(|_| ['a', 'z', ' ', '\n', 'µ'][rng.range_usize(5)])
        .collect()
}

fn opt(rng: &mut DetRng) -> Option<u64> {
    rng.bernoulli(0.5).then(|| rng.next_u64())
}

/// One small message of every `Request` and `Response` variant, with
/// field values drawn from `rng`.
fn samples(rng: &mut DetRng) -> Vec<Sample> {
    let spec = SolveSpec {
        algorithm: text(rng),
        backend: text(rng),
        instance_text: text(rng),
        mu_bits: 0.25f64.to_bits(),
        seed: 42,
        threads: opt(rng),
        machines: opt(rng),
        workers: opt(rng),
    };
    let job = BatchJob {
        algorithm: text(rng),
        mu_bits: 0.5f64.to_bits(),
        seed: 7,
        threads: opt(rng),
    };
    const SOLVE: &[Field] = &[
        Fixed(1),
        Str,
        Str,
        Str,
        Fixed(16),
        OPT_U64,
        OPT_U64,
        OPT_U64,
        Fixed(3),
        Fixed(8),
    ];
    const BATCH: &[Field] = &[
        Fixed(1),
        Field::Vec(&[Str, Str]),
        Field::Vec(&[Str, Fixed(16), OPT_U64]),
        Str,
        Fixed(3),
        Fixed(8),
    ];
    vec![
        sample(
            "Request::Solve",
            &Request::Solve {
                spec,
                render: RenderOpts {
                    format: ReportFormat::Json,
                    mask_timings: false,
                    certificates_full: true,
                },
                timeout_millis: 0,
            },
            SOLVE,
        ),
        sample(
            "Request::Batch",
            &batch(
                vec![(text(rng), text(rng)), (text(rng), text(rng))],
                vec![job.clone(), job],
            ),
            BATCH,
        ),
        sample(
            "Request::Verify",
            &Request::Verify {
                instance_text: text(rng),
                report_json: text(rng),
            },
            &[Fixed(1), Str, Str],
        ),
        sample("Request::Ping", &Request::Ping { nonce: 3 }, &[Fixed(9)]),
        sample("Request::Stats", &Request::Stats, &[Fixed(1)]),
        sample("Request::Shutdown", &Request::Shutdown, &[Fixed(1)]),
        sample("Response::Admitted", &Response::Admitted, &[Fixed(1)]),
        sample(
            "Response::Note",
            &Response::Note { line: text(rng) },
            &[Fixed(1), Str],
        ),
        sample(
            "Response::Report",
            &Response::Report {
                content: text(rng),
                coalesced: true,
            },
            &[Fixed(1), Str, Fixed(1)],
        ),
        sample(
            "Response::VerifyOk",
            &Response::VerifyOk {
                algorithm: text(rng),
                backend: text(rng),
                checks: vec![text(rng), text(rng), text(rng)],
            },
            &[Fixed(1), Str, Str, Field::Vec(&[Str])],
        ),
        sample(
            "Response::Busy",
            &Response::Busy {
                in_flight: 1,
                queued: 2,
                limit: 3,
            },
            &[Fixed(25)],
        ),
        sample(
            "Response::Error",
            &Response::Error { message: text(rng) },
            &[Fixed(1), Str],
        ),
        sample("Response::Pong", &Response::Pong { nonce: 4 }, &[Fixed(9)]),
        sample(
            "Response::Stats",
            &Response::Stats {
                stats: StatsSnapshot::default(),
            },
            &[Fixed(57)],
        ),
        sample("Response::Bye", &Response::Bye, &[Fixed(1)]),
    ]
}

/// Decodes one mutated body: it must be rejected without a panic, and no
/// single allocation may exceed the body's length plus [`SLACK`].
fn rejected_within_bound(seed: u64, s: &Sample, mutation: &str, body: &[u8]) {
    let what = format!("seed {seed}, {}, {mutation}", s.variant);
    let (decoded, largest) = largest_allocation(|| (s.decodes)(body));
    match decoded {
        None => panic!("{what}: the decoder panicked"),
        Some(true) => panic!("{what}: a mutated body decoded"),
        Some(false) => {}
    }
    assert!(
        largest <= body.len() + SLACK,
        "{what}: a {}-byte body made a {largest}-byte allocation",
        body.len()
    );
}

#[test]
fn truncated_and_overstated_frames_are_rejected_in_bounded_memory() {
    let _serial = serial();
    const SEEDS: u64 = 16;
    for seed in 0..SEEDS {
        let mut rng = DetRng::new(seed);
        for s in samples(&mut rng) {
            let mut lengths = Vec::new();
            let end = walk(&s.bytes, 0, s.layout, &mut lengths);
            assert_eq!(end, s.bytes.len(), "seed {seed}, {}: layout", s.variant);
            assert_eq!((s.decodes)(&s.bytes), Some(true), "{}", s.variant);
            for cut in 0..s.bytes.len() {
                let mutation = format!("truncated to {cut} bytes");
                rejected_within_bound(seed, &s, &mutation, &s.bytes[..cut]);
            }
            for &at in &lengths {
                let remaining = (s.bytes.len() - at - 8) as u64;
                for claim in [u64::MAX, 1 << 32, remaining + 1] {
                    let mut body = s.bytes.clone();
                    body[at..at + 8].copy_from_slice(&claim.to_le_bytes());
                    let mutation = format!("length field at byte {at} set to {claim}");
                    rejected_within_bound(seed, &s, &mutation, &body);
                }
            }
        }
    }
}
