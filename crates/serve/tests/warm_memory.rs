//! A warm daemon keeps the memory its last request freed.
//!
//! `serve()` sets a process-wide allocator policy before it binds: freed
//! memory stays in the process, so a repeated request reuses the pages
//! the previous one touched instead of faulting them in from the kernel
//! again. The test counts the daemon's minor page faults across repeated
//! identical solves.
//!
//! The daemon runs in a child copy of this test binary, not beside the
//! client: glibc raises its mmap and trim thresholds, process-wide, to
//! the size of the largest mmapped block freed so far, so a client in
//! the daemon's process (whose request frame alone is over 1 MiB) would
//! hide what a daemon serving other processes pays. The binary holds
//! this one test, so the child runs nothing else.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use mrlr_core::api::Instance;
use mrlr_core::io;
use mrlr_graph::generators;
use mrlr_serve::client::Client;
use mrlr_serve::protocol::{RenderOpts, ReportFormat, Request, SolveSpec};
use mrlr_serve::server::{serve, ServeConfig};

/// Set in the child: the socket its daemon serves.
const DAEMON_SOCKET: &str = "MRLR_WARM_MEMORY_SOCKET";
/// Requests run before the count starts: they fill the allocator.
const WARM_UP: u64 = 5;
/// Requests counted.
const MEASURED: u64 = 20;
/// The bound on the daemon's minor faults per measured request. Without
/// the policy a request takes hundreds here (glibc trims and unmaps what
/// it frees); with it, a handful.
const MAX_FAULTS_PER_REQUEST: u64 = 32;

/// Process `pid`'s minor-fault count: field 10 of `/proc/<pid>/stat`,
/// counted after the parenthesised command name (field 2), which may
/// itself hold spaces.
fn minor_faults(pid: u32) -> u64 {
    let stat =
        std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read the daemon's stat");
    let after_comm = &stat[stat.rfind(')').expect("a command name") + 1..];
    // Fields 3, 4, … follow the command name; field 10 is the 8th.
    after_comm
        .split_whitespace()
        .nth(7)
        .and_then(|field| field.parse().ok())
        .expect("minflt is field 10 of /proc/<pid>/stat")
}

/// The daemon child; killed if the test ends before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn repeated_served_solves_stop_faulting() {
    if let Some(socket) = std::env::var_os(DAEMON_SOCKET) {
        serve(ServeConfig::new(socket)).expect("daemon");
        return;
    }
    if !cfg!(target_os = "linux") {
        eprintln!("warm_memory: skipped, minor faults are read from Linux's /proc/<pid>/stat");
        return;
    }
    let socket = std::env::temp_dir().join(format!(
        "mrlr-serve-test-{}-warm-memory.sock",
        std::process::id()
    ));
    let mut daemon = Daemon(
        Command::new(std::env::current_exe().expect("the test binary"))
            .args(["--exact", "repeated_served_solves_stop_faulting"])
            .env(DAEMON_SOCKET, &socket)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn the daemon"),
    );
    let mut client = connect(&socket);

    let graph =
        generators::with_uniform_weights(&generators::densified(1000, 0.5, 42), 1.0, 10.0, 42);
    let request = Request::Solve {
        spec: SolveSpec {
            algorithm: "matching".into(),
            backend: "shard".into(),
            instance_text: io::render_instance(&Instance::Graph(graph)),
            mu_bits: 0.3f64.to_bits(),
            seed: 42,
            threads: Some(1),
            machines: None,
            workers: None,
        },
        render: RenderOpts {
            format: ReportFormat::Json,
            mask_timings: true,
            certificates_full: true,
        },
        timeout_millis: 0,
    };
    let mut solve = || {
        client
            .solve(&request, &mut |_| {})
            .expect("served solve")
            .content
    };

    let first = solve();
    for _ in 1..WARM_UP {
        assert_eq!(solve(), first, "a repeated solve rendered differently");
    }
    let before = minor_faults(daemon.0.id());
    for _ in 0..MEASURED {
        assert_eq!(solve(), first, "a repeated solve rendered differently");
    }
    let per_request = (minor_faults(daemon.0.id()) - before) / MEASURED;

    client.shutdown().expect("shutdown");
    assert!(daemon.0.wait().expect("daemon exit").success());
    eprintln!("warm_memory: {per_request} minor faults per served request");
    assert!(
        per_request <= MAX_FAULTS_PER_REQUEST,
        "a warm daemon took {per_request} minor faults per repeated request \
         (bound {MAX_FAULTS_PER_REQUEST}): it handed freed memory back to the kernel"
    );
}

/// A client on `socket`, once the daemon's listener accepts.
fn connect(socket: &Path) -> Client {
    for _ in 0..500 {
        if let Ok(client) = Client::connect(socket) {
            return client;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never came up on {}", socket.display());
}
