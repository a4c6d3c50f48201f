//! Child processes: where the binaries are, a fresh work directory per
//! run, resource usage of each child, and the daemon guard.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mrlr_serve::Client;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the hand-declared wait4/rusage layout below is 64-bit Linux only");

/// `struct rusage` of 64-bit Linux, declared by hand (no `libc` crate is
/// vendored): two `timeval`s, then fourteen `long`s of which the first
/// is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one child cost, from spawn to exit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub ok: bool,
    pub wall_s: f64,
    /// User + system CPU of the child and every descendant it waited for
    /// (dist workers are reaped by their master, so they are included).
    pub cpu_s: f64,
    /// `ru_maxrss`. A child's value is never below the harness's own
    /// peak at spawn time (exec inherits the high-water mark), which is
    /// why the untraced run keeps the harness small.
    pub max_rss_kib: u64,
}

/// Reaps `child` with `wait4`, so its rusage is the child's alone.
fn reap(child: Child, started: Instant) -> io::Result<Usage> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are valid for writes for the whole
        // call, `ru` has the kernel's layout (checked by the cfg gate
        // above), and the pid is a live, not yet reaped child of this
        // process: `Child` is consumed here and never waited on by std.
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
        if r >= 0 {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(Usage {
        // WIFEXITED && WEXITSTATUS == 0
        ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: secs(ru.utime) + secs(ru.stime),
        max_rss_kib: ru.maxrss.max(0) as u64,
    })
}

/// Runs `cmd` to completion (stdout discarded, stderr inherited).
pub fn run(cmd: &mut Command) -> io::Result<Usage> {
    let started = Instant::now();
    let child = cmd.stdin(Stdio::null()).stdout(Stdio::null()).spawn()?;
    reap(child, started)
}

/// The built programs and the benchmark's scratch area, all found next
/// to the harness executable (`<target>/release/`).
pub struct Bins {
    pub mrlr: PathBuf,
    /// This executable, for re-entry as a short-lived checker.
    pub harness: PathBuf,
    pub scratch: PathBuf,
}

/// Variables that change what the solver does; removed from the
/// harness's own environment (and so from every child's) before a run.
const SCRUBBED: [&str; 5] = [
    "MRLR_THREADS",
    "MRLR_BACKEND",
    "MRLR_DIST_WORKERS",
    "MRLR_DIST_WORKER_BIN",
    "MRLR_DIST_SOCKET",
];

impl Bins {
    /// Locates the binaries and fixes the process environment: solver
    /// variables scrubbed, dist runs pinned to two workers of the built
    /// `mrlr-dist-worker`. Call once, before any thread starts.
    pub fn locate() -> io::Result<Bins> {
        let harness = std::env::current_exe()?;
        let dir = harness
            .parent()
            .expect("an executable lives in a directory");
        let mrlr = dir.join("mrlr");
        let worker = dir.join("mrlr-dist-worker");
        for bin in [&mrlr, &worker] {
            if !bin.is_file() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{} not built (use benchmark/run.sh)", bin.display()),
                ));
            }
        }
        for var in SCRUBBED {
            std::env::remove_var(var);
        }
        std::env::set_var("MRLR_DIST_WORKERS", "2");
        std::env::set_var("MRLR_DIST_WORKER_BIN", &worker);
        let scratch = dir
            .parent()
            .expect("<target>/release has a parent")
            .join("mrlr-benchmark");
        std::fs::create_dir_all(&scratch)?;
        Ok(Bins {
            mrlr,
            harness,
            scratch,
        })
    }

    pub fn mrlr(&self) -> Command {
        Command::new(&self.mrlr)
    }
}

/// A fresh directory that is the process's working directory while it
/// lives: instance files, manifests, reports and the daemon socket are
/// all short relative names (a Unix socket path has ~100 bytes). Dropping
/// it restores the previous directory and deletes everything.
pub struct WorkDir {
    path: PathBuf,
    previous: PathBuf,
}

impl WorkDir {
    pub fn enter(bins: &Bins) -> io::Result<WorkDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = bins.scratch.join(format!(
            "work-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        let previous = std::env::current_dir()?;
        std::env::set_current_dir(&path)?;
        Ok(WorkDir { path, previous })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.previous);
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A running `mrlr serve` daemon. Dropping it on any exit path kills and
/// reaps the process; `shutdown` is the orderly way out.
pub struct Daemon {
    child: Option<Child>,
    started: Instant,
    pub socket: &'static Path,
}

impl Daemon {
    /// Spawns the daemon in the current (work) directory and waits until
    /// its socket accepts a connection.
    pub fn start(bins: &Bins) -> io::Result<Daemon> {
        let socket = Path::new("serve.sock");
        let started = Instant::now();
        let child = bins
            .mrlr()
            .args(["serve", "--socket", "serve.sock"])
            .args(["--max-inflight", "2", "--queue", "64"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            // Its `note:` narration; failures reach the clients as frames.
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            started,
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while Client::connect(socket).is_err() {
            let child = daemon.child.as_mut().expect("just spawned");
            if child.try_wait()?.is_some() || Instant::now() > deadline {
                return Err(io::Error::other("mrlr serve did not come up"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    /// Asks the daemon to drain and exit, then reaps it. A daemon that
    /// refuses is killed by the guard and reported as an error.
    pub fn shutdown(mut self) -> io::Result<Usage> {
        Client::connect(self.socket)?
            .shutdown()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let child = self.child.take().expect("daemon is running");
        reap(child, self.started)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
