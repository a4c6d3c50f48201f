//! The master side of the dist protocol: spawn, barrier, shuffle, heal.
//!
//! A [`DistSession`] owns `W` workers (threads or processes, see
//! [`super::SpawnKind`]), each assigned one contiguous shard block of a
//! [`crate::superstep::StaticAssignment`]. The cluster facade
//! drives it with two calls per superstep: `DistSession::open` — the
//! barrier-and-heartbeat every primitive passes through — and, for
//! `exchange` supersteps, `DistSession::exchange`, which serializes the
//! staged outboxes into per-worker batch frames — written chunk by
//! chunk while the encoding is still under way — collects the assembled
//! inbox regions back, and decodes them into the router's `Delivery`:
//! one pooled arena plus an `(offset, len)` range per shard.
//!
//! **Recovery.** Any failed read from a worker (EOF after an injected
//! kill, a transport error, a read timeout) declares that worker dead.
//! The master respawns it, re-establishes its block identity with a fresh
//! `Assign` (the deterministic `(cluster seed, shard id)` keys make the
//! new worker interchangeable with the old one), reopens the current
//! barrier, and — when the death interrupted an exchange — replays the
//! retained batch bytes of that exchange before re-flushing. Every
//! recovery is recorded as a [`crate::metrics::RecoveryEvent`]; region
//! digests ([`super::wire::region_digest`]) prove the healed region
//! matches its claimed `(seed, shard)` identity.

use std::io::{self, Write as _};
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::{MrError, MrResult};
use crate::metrics::{DistSummary, RecoveryEvent, WorkerShuffle};
use crate::rng::mix2;
use crate::router::{Delivery, Outbox, RouterScratch};
use crate::superstep::StaticAssignment;
use crate::words::WordSized;

use super::transport::{read_frame, read_frame_body, write_frame};
use super::wire::{
    decode_value, digest_fold_payload, digest_fold_shard, digest_init, BatchStream, Frame,
    RegionWalker, Wire, WireError,
};
use super::worker::{self, SOCKET_ENV, WORKER_BIN_ENV};
use super::{DistConfig, SpawnKind};

/// Master-side read timeout: a worker that cannot answer within this
/// window is declared dead and recovered.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long to wait for a spawned worker process to connect.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a worker process gets to exit on its own before it is killed.
const REAP_TIMEOUT: Duration = Duration::from_millis(500);

/// An open batch frame is closed and written once it passes this size.
// Measured: 16 KiB..4 MiB within noise of each other, no chunking 1–3% slower; this is about one socket send buffer.
const CHUNK_BYTES: usize = 256 << 10;

fn dist_err(e: impl std::fmt::Display) -> MrError {
    MrError::Dist(e.to_string())
}

/// Resolves a requested worker count: explicit value, else the
/// `MRLR_DIST_WORKERS` environment variable, else 2.
pub fn default_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::env::var("MRLR_DIST_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or(2)
}

enum WorkerJoin {
    Thread(Option<JoinHandle<()>>),
    Process(Child),
}

struct WorkerHandle {
    stream: UnixStream,
    join: WorkerJoin,
    /// Pending injected kill (cleared on respawn so recovery converges).
    kill_at: Option<u64>,
    shuffle: WorkerShuffle,
}

struct Rendezvous {
    listener: UnixListener,
    path: PathBuf,
}

impl Drop for Rendezvous {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A live distributed session: the workers, their shard-block assignment,
/// and the recovery machinery. Created by the cluster facade when the
/// runtime is `RuntimeKind::Dist`; torn down (with an orderly `Shutdown`)
/// on drop.
pub struct DistSession {
    workers: Vec<WorkerHandle>,
    assignment: StaticAssignment,
    /// Shard id → owning worker.
    owner: Vec<usize>,
    machines: usize,
    seed: u64,
    spawn: SpawnKind,
    rendezvous: Option<Rendezvous>,
    recoveries: Vec<RecoveryEvent>,
    shuffle_nanos: u64,
    /// Recycled batch-frame byte buffers (one per worker at steady state):
    /// the retained replayable bytes of an exchange return here once every
    /// region is safely back, so serialization stops allocating per round.
    frame_pool: Vec<Vec<u8>>,
    /// Reused raw region body (one in flight at a time).
    region_buf: Vec<u8>,
}

impl DistSession {
    /// Spawns and assigns the workers for a cluster of `machines` shards
    /// seeded by `seed`, then ping-pongs each one to verify liveness.
    pub(crate) fn launch(machines: usize, seed: u64, cfg: &DistConfig) -> MrResult<Self> {
        let assignment = StaticAssignment::new(machines, default_workers(cfg.workers));
        let n = assignment.workers();
        let mut owner = vec![0usize; machines];
        for w in 0..n {
            for shard in assignment.chunk(w) {
                owner[shard] = w;
            }
        }
        let rendezvous = match cfg.spawn {
            SpawnKind::Thread => None,
            SpawnKind::Process => Some(bind_rendezvous()?),
        };
        let mut session = DistSession {
            workers: Vec::with_capacity(n),
            assignment,
            owner,
            machines,
            seed,
            spawn: cfg.spawn,
            rendezvous,
            recoveries: Vec::new(),
            shuffle_nanos: 0,
            frame_pool: Vec::new(),
            region_buf: Vec::new(),
        };
        for w in 0..n {
            let (stream, join) = session.spawn_endpoint()?;
            // First matching kill wins; workers outside `0..n` can't fire.
            let kill_at = cfg
                .kills
                .iter()
                .find(|k| k.worker == w)
                .map(|k| k.superstep as u64);
            session.workers.push(WorkerHandle {
                stream,
                join,
                kill_at,
                shuffle: WorkerShuffle {
                    worker: w,
                    ..WorkerShuffle::default()
                },
            });
            session.assign(w)?;
        }
        // Heartbeat: every worker must answer a ping before the run starts.
        for w in 0..n {
            let nonce = mix2(seed, w as u64);
            write_frame(&mut session.workers[w].stream, &Frame::Ping { nonce })
                .map_err(dist_err)?;
            match read_frame(&mut session.workers[w].stream).map_err(dist_err)? {
                Frame::Pong { nonce: echoed } if echoed == nonce => {}
                other => return Err(dist_err(format!("worker {w} bad ping reply: {other:?}"))),
            }
        }
        Ok(session)
    }

    /// Number of live workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Transport summary for [`crate::metrics::Metrics::dist`].
    pub fn summary(&self) -> DistSummary {
        DistSummary {
            workers: self.workers.len(),
            shuffle: self.workers.iter().map(|w| w.shuffle.clone()).collect(),
            recoveries: self.recoveries.clone(),
            shuffle_nanos: self.shuffle_nanos,
        }
    }

    /// Opens superstep `superstep` on every worker: the barrier all five
    /// cluster primitives pass through, doubling as the heartbeat. A
    /// worker that fails to ack is recovered on the spot.
    pub(crate) fn open(&mut self, superstep: usize) -> MrResult<()> {
        let s = superstep as u64;
        for wh in &mut self.workers {
            // Write errors are swallowed: a dead peer is detected (and
            // healed) at the matching read below.
            let _ = write_frame(&mut wh.stream, &Frame::Open { superstep: s });
        }
        for w in 0..self.workers.len() {
            if self.expect_ack(w, s).is_ok() {
                continue;
            }
            self.recover_barrier(w, s)?;
        }
        Ok(())
    }

    /// Runs the distributed shuffle for one exchange superstep: staged
    /// outboxes out to the owning workers, assembled inbox regions back,
    /// decoded into the router's delivery shape. Delivery order is the
    /// router contract — `(sender id, send order)` — because senders are
    /// serialized in id order and workers scatter in arrival order.
    ///
    /// Batch frames are streamed straight out of the staged columns into
    /// pooled byte buffers ([`BatchStream`]), and the outbox columns
    /// return to `scratch`. A stream's open frame is closed and written
    /// to its worker whenever it passes [`CHUNK_BYTES`], so the workers
    /// validate and count while later senders are still being encoded
    /// and the other worker's socket drains; the closed frames stay in
    /// the stream's buffer, which is what a recovery replays.
    ///
    /// Regions are walked in place from one reused body buffer
    /// ([`RegionWalker`]) and decoded straight into one pooled arena:
    /// regions are read in worker order and
    /// [`validate_region`] guarantees each holds exactly its worker's
    /// contiguous [`StaticAssignment`] block in ascending shard order, so
    /// messages arrive in destination order and shard `d`'s inbox is the
    /// arena range recorded as it streams past.
    pub(crate) fn exchange<M: WordSized + Wire + Send + 'static>(
        &mut self,
        superstep: usize,
        outboxes: Vec<Outbox<M>>,
        scratch: &mut RouterScratch,
    ) -> MrResult<Delivery<M>> {
        let t0 = Instant::now();
        let s = superstep as u64;
        let mut streams = self.batch_streams(s);
        for outbox in &outboxes {
            for (msg, &dst) in outbox.msgs.iter().zip(&outbox.dsts) {
                let w = self.owner[dst];
                let stream = &mut streams[w];
                stream.push_with(dst as u64, |out| msg.encode(out));
                if stream.open_len() >= CHUNK_BYTES {
                    // Hand the worker what is encoded so far: it validates
                    // and counts while the rest is still being produced.
                    // A write error is a dead peer, found at the read.
                    let _ = self.workers[w].stream.write_all(stream.close_chunk());
                }
            }
        }
        for outbox in outboxes {
            scratch.put_columns(outbox.into_buffers());
        }
        let retained = self.send_batches(streams);
        let mut arena: Vec<M> = scratch.take_arena();
        let mut ranges = scratch.take_ranges(self.machines);
        let mut in_words = scratch.take_usizes(self.machines);
        let mut body = std::mem::take(&mut self.region_buf);
        let outcome = (|| -> MrResult<()> {
            for (w, kept) in retained.iter().enumerate() {
                if self.read_region_raw(w, s, &mut body).is_err() {
                    self.recover_exchange_raw(w, s, kept, &mut body)?;
                }
                // The body is validated (digest + shard identity), so the
                // walk cannot fail structurally; message decode errors are
                // genuine corruption and stay fatal.
                let (_, mut walker) = RegionWalker::open(&body).map_err(dist_err)?;
                while let Some((shard, count)) = walker.next_shard().map_err(dist_err)? {
                    let shard = shard as usize;
                    let start = arena.len();
                    for _ in 0..count {
                        let payload = walker.next_payload().map_err(dist_err)?;
                        let msg: M = decode_value(payload)
                            .map_err(|e| dist_err(format!("worker {w} inbox payload: {e}")))?;
                        in_words[shard] += msg.words();
                        arena.push(msg);
                    }
                    ranges[shard] = (start, arena.len() - start);
                }
            }
            Ok(())
        })();
        self.region_buf = body;
        self.frame_pool.extend(retained);
        if let Err(e) = outcome {
            // Drops the messages decoded so far; the buffers go back.
            arena.clear();
            scratch.put_arena(arena);
            scratch.put_ranges(ranges);
            scratch.put_usizes(in_words);
            return Err(e);
        }
        self.shuffle_nanos += t0.elapsed().as_nanos() as u64;
        Ok(Delivery::from_flat(arena, ranges, in_words))
    }

    /// One [`BatchStream`] per worker, seeded from the frame pool.
    fn batch_streams(&mut self, s: u64) -> Vec<BatchStream> {
        (0..self.workers.len())
            .map(|_| BatchStream::begin(self.frame_pool.pop().unwrap_or_default(), s))
            .collect()
    }

    /// Finishes each worker's stream and writes what is not out yet (the
    /// last chunk and the flush), still before any read (the protocol's
    /// deadlock-freedom invariant). The raw bytes are retained until the
    /// region is safely back, so a worker death mid-exchange can be
    /// replayed to its replacement.
    fn send_batches(&mut self, streams: Vec<BatchStream>) -> Vec<Vec<u8>> {
        let mut retained: Vec<Vec<u8>> = Vec::with_capacity(streams.len());
        for (w, stream) in streams.into_iter().enumerate() {
            let (bytes, unsent) = stream.finish();
            self.workers[w].shuffle.bytes_out += bytes.len() as u64;
            self.workers[w].shuffle.batches += 1;
            let _ = self.workers[w].stream.write_all(&bytes[unsent..]);
            retained.push(bytes);
        }
        retained
    }

    /// Reads one worker's raw inbox-region frame body into `body` and
    /// fully validates it — claimed superstep, shard identity against the
    /// worker's assigned block, and the region digest under the master's
    /// own seed — without decoding any message payload. Validation runs
    /// *before* anything is trusted into delivery buffers, so a failure
    /// here is recoverable exactly like a transport error.
    fn read_region_raw(&mut self, w: usize, s: u64, body: &mut Vec<u8>) -> io::Result<()> {
        read_frame_body(&mut self.workers[w].stream, body)?;
        self.workers[w].shuffle.bytes_in += (4 + body.len()) as u64;
        validate_region(body, self.seed, s, self.assignment.chunk(w), w)
    }

    fn expect_ack(&mut self, w: usize, s: u64) -> io::Result<()> {
        match read_frame(&mut self.workers[w].stream)? {
            Frame::Ack { superstep } if superstep == s => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("worker {w} expected Ack({s}), got {other:?}"),
            )),
        }
    }

    /// Recovery path A — death detected at a barrier: respawn, reassign,
    /// reopen. Nothing to replay; the worker had nothing parked.
    fn recover_barrier(&mut self, w: usize, s: u64) -> MrResult<()> {
        let t0 = Instant::now();
        self.respawn(w)?;
        write_frame(&mut self.workers[w].stream, &Frame::Open { superstep: s })
            .map_err(dist_err)?;
        self.expect_ack(w, s).map_err(dist_err)?;
        self.recoveries.push(RecoveryEvent {
            worker: w,
            superstep: s as usize,
            wall_nanos: t0.elapsed().as_nanos() as u64,
            replayed_bytes: 0,
        });
        Ok(())
    }

    /// Recovery path B — death detected mid-exchange: respawn, reassign,
    /// reopen the barrier, replay the retained batch bytes, re-flush, and
    /// take (and re-validate) the raw region from the replacement.
    fn recover_exchange_raw(
        &mut self,
        w: usize,
        s: u64,
        retained: &[u8],
        body: &mut Vec<u8>,
    ) -> MrResult<()> {
        let t0 = Instant::now();
        self.respawn(w)?;
        write_frame(&mut self.workers[w].stream, &Frame::Open { superstep: s })
            .map_err(dist_err)?;
        self.expect_ack(w, s).map_err(dist_err)?;
        self.workers[w]
            .stream
            .write_all(retained)
            .map_err(dist_err)?;
        self.read_region_raw(w, s, body).map_err(dist_err)?;
        self.recoveries.push(RecoveryEvent {
            worker: w,
            superstep: s as usize,
            wall_nanos: t0.elapsed().as_nanos() as u64,
            replayed_bytes: retained.len() as u64,
        });
        Ok(())
    }

    /// Replaces worker `w`'s endpoint with a freshly spawned one and
    /// re-establishes its block identity (kill trap cleared: an injected
    /// fault fires at most once, so recovery converges).
    fn respawn(&mut self, w: usize) -> MrResult<()> {
        let (stream, join) = self.spawn_endpoint()?;
        let old = std::mem::replace(
            &mut self.workers[w],
            WorkerHandle {
                stream,
                join,
                kill_at: None,
                shuffle: WorkerShuffle::default(),
            },
        );
        self.workers[w].shuffle = old.shuffle.clone();
        reap(old);
        self.assign(w)
    }

    /// Sends worker `w` its `Assign` frame and waits for the ack.
    fn assign(&mut self, w: usize) -> MrResult<()> {
        let chunk = self.assignment.chunk(w);
        let frame = Frame::Assign {
            worker: w as u64,
            shard_lo: chunk.start as u64,
            shard_hi: chunk.end as u64,
            machines: self.machines as u64,
            seed: self.seed,
            kill_at: self.workers[w].kill_at,
        };
        write_frame(&mut self.workers[w].stream, &frame).map_err(dist_err)?;
        self.expect_ack(w, 0).map_err(dist_err)
    }

    /// Creates one worker endpoint under the session's spawn mode.
    fn spawn_endpoint(&self) -> MrResult<(UnixStream, WorkerJoin)> {
        match self.spawn {
            SpawnKind::Thread => {
                let (master, worker_side) = UnixStream::pair().map_err(dist_err)?;
                let join = std::thread::Builder::new()
                    .name("mrlr-dist-worker".into())
                    .spawn(move || {
                        // Injected kills return Ok; real errors surface to
                        // the master as failed reads, so the thread result
                        // carries no extra signal.
                        let _ = worker::serve(worker_side);
                    })
                    .map_err(dist_err)?;
                master
                    .set_read_timeout(Some(READ_TIMEOUT))
                    .map_err(dist_err)?;
                Ok((master, WorkerJoin::Thread(Some(join))))
            }
            SpawnKind::Process => {
                let rendezvous = self
                    .rendezvous
                    .as_ref()
                    .expect("process spawn binds a rendezvous at launch");
                let bin = match std::env::var_os(WORKER_BIN_ENV) {
                    Some(p) => PathBuf::from(p),
                    None => std::env::current_exe().map_err(dist_err)?,
                };
                let mut child = Command::new(&bin)
                    .env(SOCKET_ENV, &rendezvous.path)
                    .stdin(Stdio::null())
                    .spawn()
                    .map_err(|e| dist_err(format!("spawn {}: {e}", bin.display())))?;
                let stream = accept_with_timeout(&rendezvous.listener, &mut child)?;
                stream
                    .set_read_timeout(Some(READ_TIMEOUT))
                    .map_err(dist_err)?;
                Ok((stream, WorkerJoin::Process(child)))
            }
        }
    }
}

impl Drop for DistSession {
    fn drop(&mut self) {
        for wh in &mut self.workers {
            let _ = write_frame(&mut wh.stream, &Frame::Shutdown);
            let _ = wh.stream.shutdown(std::net::Shutdown::Both);
        }
        for wh in self.workers.drain(..) {
            reap(wh);
        }
    }
}

/// Validates one raw `Inboxes` frame body: the claimed superstep, the
/// shard ids against worker `w`'s assigned block (ascending, complete),
/// and the trailing digest against a streaming re-derivation under the
/// master's `seed` — the exact fold of
/// [`crate::dist::wire::region_digest`], computed while walking the raw
/// bytes so the region is never materialized as nested vectors.
fn validate_region(
    body: &[u8],
    seed: u64,
    s: u64,
    expected: Range<usize>,
    w: usize,
) -> io::Result<()> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let wire = |e: WireError| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("worker {w} inbox region: {e}"),
        )
    };
    let (superstep, mut walker) = RegionWalker::open(body).map_err(wire)?;
    if superstep != s {
        return Err(bad(format!(
            "worker {w} expected Inboxes({s}), got superstep {superstep}"
        )));
    }
    let mut h = digest_init(seed);
    let mut next_shard = expected.start as u64;
    while let Some((shard, count)) = walker.next_shard().map_err(wire)? {
        if shard != next_shard || shard >= expected.end as u64 {
            return Err(bad(format!(
                "worker {w} returned shard {shard}, owns {expected:?}"
            )));
        }
        next_shard += 1;
        h = digest_fold_shard(h, seed, shard, count);
        for _ in 0..count {
            h = digest_fold_payload(h, walker.next_payload().map_err(wire)?);
        }
    }
    if next_shard != expected.end as u64 {
        return Err(bad(format!(
            "worker {w} returned shards ending at {next_shard}, owns {expected:?}"
        )));
    }
    let digest = walker.finish().map_err(wire)?;
    if digest != h {
        return Err(bad(format!(
            "worker {w} region digest mismatch at superstep {s}"
        )));
    }
    Ok(())
}

/// Poll interval for events that are usually microseconds away but may
/// take seconds: starts at 20 µs and doubles up to a cap, so the common
/// case is not slept through for a whole fixed tick.
struct Backoff {
    next: Duration,
    cap: Duration,
}

impl Backoff {
    fn up_to(cap: Duration) -> Self {
        Backoff {
            next: Duration::from_micros(20),
            cap,
        }
    }

    fn nap(&mut self) {
        std::thread::sleep(self.next);
        self.next = (self.next * 2).min(self.cap);
    }
}

/// Joins or waits out a replaced/terminated worker endpoint.
fn reap(handle: WorkerHandle) {
    let _ = handle.stream.shutdown(std::net::Shutdown::Both);
    match handle.join {
        WorkerJoin::Thread(mut join) => {
            if let Some(join) = join.take() {
                let _ = join.join();
            }
        }
        WorkerJoin::Process(mut child) => {
            // Give an orderly exit a moment, then force it. The worker is
            // normally gone microseconds after its `Shutdown`.
            let deadline = Instant::now() + REAP_TIMEOUT;
            let mut backoff = Backoff::up_to(Duration::from_millis(5));
            while Instant::now() < deadline {
                match child.try_wait() {
                    Ok(Some(_)) => return,
                    Ok(None) => backoff.nap(),
                    Err(_) => break,
                }
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Monotonic suffix for rendezvous socket paths (plus the pid, so
/// concurrent sessions — and concurrent test processes — cannot collide).
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

fn bind_rendezvous() -> MrResult<Rendezvous> {
    let path = std::env::temp_dir().join(format!(
        "mrlr-dist-{}-{}.sock",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    let listener =
        UnixListener::bind(&path).map_err(|e| dist_err(format!("bind {}: {e}", path.display())))?;
    listener.set_nonblocking(true).map_err(dist_err)?;
    Ok(Rendezvous { listener, path })
}

/// Accepts one worker connection, polling so a child that dies before
/// connecting fails fast instead of hanging the master.
fn accept_with_timeout(listener: &UnixListener, child: &mut Child) -> MrResult<UnixStream> {
    let deadline = Instant::now() + ACCEPT_TIMEOUT;
    let mut backoff = Backoff::up_to(Duration::from_millis(2));
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(dist_err)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(dist_err(format!(
                        "worker process exited before connecting: {status}"
                    )));
                }
                if Instant::now() >= deadline {
                    return Err(dist_err("timed out waiting for worker to connect"));
                }
                backoff.nap();
            }
            Err(e) => return Err(dist_err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{route_merge, RouterScratch};

    fn outboxes(machines: usize, volume: usize, seed: u64) -> Vec<Outbox<u64>> {
        (0..machines)
            .map(|s| {
                let mut rng = crate::rng::DetRng::derive(seed, &[s as u64]);
                let mut out = Outbox::new(machines);
                for k in 0..volume {
                    out.send(rng.range(machines as u64) as usize, (s * 1000 + k) as u64);
                }
                out
            })
            .collect()
    }

    /// The router's test oracle on the same traffic: `(inboxes, in_words)`.
    fn reference(machines: usize, volume: usize, seed: u64) -> (Vec<Vec<u64>>, Vec<usize>) {
        route_merge(machines, outboxes(machines, volume, seed))
    }

    /// One dist exchange of `stage()`'s traffic at `workers` requested
    /// workers, checked against the router oracle on the same traffic.
    fn assert_matches_reference<M>(
        machines: usize,
        workers: usize,
        stage: impl Fn() -> Vec<Outbox<M>>,
    ) -> DistSummary
    where
        M: WordSized + Wire + Send + Clone + PartialEq + std::fmt::Debug + 'static,
    {
        let cfg = DistConfig {
            workers,
            ..DistConfig::default()
        };
        let mut scratch = RouterScratch::default();
        let mut session = DistSession::launch(machines, 42, &cfg).unwrap();
        session.open(1).unwrap();
        let got = session.exchange(1, stage(), &mut scratch).unwrap();
        let (want, want_words) = route_merge(machines, stage());
        assert_eq!(got.nested(), want, "workers {workers}");
        assert_eq!(got.in_words(), want_words, "workers {workers}");
        let summary = session.summary();
        assert_eq!(summary.workers, workers.min(machines));
        assert!(summary.recoveries.is_empty());
        summary
    }

    #[test]
    fn dist_exchange_matches_the_reference_router() {
        let machines = 9;
        // Non-`Copy` messages of varying length (empty included), sent
        // only to shards 0, 2 and 4: shards 1 and 3 receive nothing, and
        // at 2 and 4 workers every block past shard 4 is empty as a whole.
        let sparse_vecs = || -> Vec<Outbox<Vec<u64>>> {
            (0..machines)
                .map(|s| {
                    let mut rng = crate::rng::DetRng::derive(11, &[s as u64]);
                    let mut out = Outbox::new(machines);
                    for k in 0..20 {
                        let len = rng.range(4) as usize;
                        let msg = (0..len).map(|j| (s * 1000 + k * 10 + j) as u64).collect();
                        out.send(2 * rng.range(3) as usize, msg);
                    }
                    out
                })
                .collect()
        };
        for workers in [1usize, 2, 4] {
            let summary = assert_matches_reference(machines, workers, || outboxes(machines, 50, 7));
            assert!(summary.shuffle.iter().any(|s| s.bytes_out > 0));
            assert_matches_reference(machines, workers, sparse_vecs);
        }
        // More workers requested than shards: clamped to one shard each.
        assert_matches_reference(3, 5, || outboxes(3, 50, 7));
    }

    #[test]
    fn killed_worker_is_recovered_with_replay() {
        let machines = 8;
        let cfg = DistConfig {
            workers: 2,
            kills: vec![crate::dist::WorkerKill {
                worker: 1,
                superstep: 2,
            }],
            ..DistConfig::default()
        };
        let mut scratch = RouterScratch::default();
        let mut session = DistSession::launch(machines, 5, &cfg).unwrap();
        session.open(1).unwrap();
        let d1 = session
            .exchange(1, outboxes(machines, 30, 1), &mut scratch)
            .unwrap();
        assert_eq!(d1.nested(), reference(machines, 30, 1).0);
        // Superstep 2 arms the kill; the worker dies at the flush, after
        // ingesting the batch — recovery must replay it.
        session.open(2).unwrap();
        let d2 = session
            .exchange(2, outboxes(machines, 30, 2), &mut scratch)
            .unwrap();
        let (want, want_words) = reference(machines, 30, 2);
        assert_eq!(d2.nested(), want);
        assert_eq!(d2.in_words(), want_words);
        let summary = session.summary();
        assert_eq!(summary.recoveries.len(), 1);
        let r = &summary.recoveries[0];
        assert_eq!((r.worker, r.superstep), (1, 2));
        assert!(r.replayed_bytes > 0, "mid-exchange death replays batches");
        // The healed session keeps working.
        session.open(3).unwrap();
        let d3 = session
            .exchange(3, outboxes(machines, 30, 3), &mut scratch)
            .unwrap();
        assert_eq!(d3.nested(), reference(machines, 30, 3).0);
    }

    #[test]
    fn kill_at_a_barrier_recovers_without_replay() {
        // Arm at superstep 1; the next frame is Open(2), so the death is
        // detected at a barrier, not mid-exchange.
        let cfg = DistConfig {
            workers: 2,
            kills: vec![crate::dist::WorkerKill {
                worker: 0,
                superstep: 1,
            }],
            ..DistConfig::default()
        };
        let mut session = DistSession::launch(4, 9, &cfg).unwrap();
        session.open(1).unwrap();
        session.open(2).unwrap();
        let summary = session.summary();
        assert_eq!(summary.recoveries.len(), 1);
        assert_eq!(summary.recoveries[0].replayed_bytes, 0);
        assert_eq!(summary.recoveries[0].superstep, 2);
        // Exchanges still work after a barrier recovery.
        let d = session
            .exchange(2, outboxes(4, 20, 4), &mut RouterScratch::default())
            .unwrap();
        assert_eq!(d.nested(), reference(4, 20, 4).0);
    }
}
