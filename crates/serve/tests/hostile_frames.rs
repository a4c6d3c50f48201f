//! A frame's length prefix is a claim. A peer that announces a gigabyte
//! and sends nothing must not make the receiver allocate for the
//! announcement, and a peer that stops partway through a frame must not
//! pin the daemon thread serving it — or the `shutdown` that joins that
//! thread. Before the body reader grew with the bytes that arrive, the
//! first case requested the full claimed gigabyte; before mid-frame
//! reads had a deadline, the second never returned.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Cursor, ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mrlr_mapreduce::dist::transport::{read_wire_frame, MAX_FRAME};
use mrlr_serve::client::Client;
use mrlr_serve::protocol::Request;
use mrlr_serve::server::{serve, ServeConfig};
use mrlr_serve::StatsSnapshot;

/// Counts every byte requested from the allocator, process-wide: the
/// daemon allocates on its own connection threads. The tests of this
/// file run in parallel and each requests a few kilobytes, far inside
/// the bound.
struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is an atomic counter bump that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the bytes requested meanwhile.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = f();
    (out, REQUESTED.load(Ordering::Relaxed) - before)
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
