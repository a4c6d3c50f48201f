//! The distributed runtime: a master/worker control plane over real OS
//! transport, with fault-tolerant re-execution.
//!
//! The in-process runtime (`Shard`) keeps the engine's observables
//! bit-identical across thread counts; this module crosses a real
//! process boundary without giving that up. The
//! split follows from one constraint — driver closures cannot be
//! serialized — so the **master** keeps the shard states, closures and
//! RNG streams and runs the per-shard compute (it *is* the paper's
//! central machine), while each **worker** owns the *shuffle region* of a
//! contiguous shard block ([`crate::superstep::StaticAssignment`]) and
//! hands the block's assembled inboxes back at the flush barrier,
//! digest-stamped with the block's deterministic `(cluster seed, shard
//! id)` identity keys.
//!
//! **The shuffle is flat and pipelined.** The master streams each
//! worker's traffic into one retained buffer as a run of `Batch` frames
//! and writes every frame to the socket as soon as it closes (a fixed
//! 256 KiB), so the workers are already ingesting while later senders
//! are still being encoded. A worker never decodes a batch into
//! messages: it walks the raw frame body in place — checking the count,
//! every destination against its block, every length against the body —
//! counts messages and bytes per shard, and parks the body. At the
//! flush the counts become, by prefix sum, the offsets of every shard's
//! run inside one output buffer laid out as the exact `Inboxes` frame;
//! the records are copied from the parked bodies to their shard's
//! cursor in arrival order, which is the router's `(sender id, send
//! order)` delivery order; the region digest is folded over the
//! assembled bytes; one write returns the frame. Nothing is allocated
//! per message on either side: frame bodies, the output frame and the
//! master's stream buffers are all pooled. The nested
//! [`Frame::Batch`]/[`Frame::Inboxes`] encodings remain as the
//! reference the flat paths are tested byte-for-byte against.
//!
//! Fault tolerance is the point: the master heartbeats workers through
//! the barrier protocol, a [`WorkerKill`] in [`DistConfig::kills`] kills
//! a worker at a chosen superstep, and the master recovers by respawning
//! the worker, re-establishing its block from the `(seed, shard)`
//! identity keys, and replaying the retained batch traffic of the
//! interrupted exchange — the retained buffer is the exact
//! concatenation of the chunk frames that were written plus the flush,
//! so the replacement sees the same byte stream the dead worker did.
//! Because delivery order and shard
//! RNG streams are pure functions of the configuration, a recovered run
//! produces **bit-identical** reports — solutions, certificates,
//! witnesses and model [`crate::metrics::Metrics`] — to a fault-free one,
//! which `mrlr verify` can prove offline.
//!
//! Submodules: [`wire`] (canonical byte encoding, frames, and the raw
//! batch/region walkers), [`transport`] (length-prefixed framing),
//! [`worker`] (the serve loop), [`master`] (the control plane and
//! recovery).

pub mod master;
pub mod transport;
pub mod wire;
pub mod worker;

pub use master::DistSession;
pub use wire::{Frame, Wire, WireError, WireReader};

/// How the master materializes workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpawnKind {
    /// Workers are OS threads speaking the full wire protocol over
    /// socketpairs — the same frames and recovery paths as real
    /// processes, embeddable in any test binary. The default.
    #[default]
    Thread,
    /// Workers are separate OS processes connected over a Unix-domain
    /// socket. The worker binary is resolved from
    /// [`worker::WORKER_BIN_ENV`], falling back to `current_exe` (the
    /// `mrlr` CLI re-enters as a worker when [`worker::SOCKET_ENV`] is
    /// set).
    Process,
}

impl SpawnKind {
    /// Short name for traces and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            SpawnKind::Thread => "thread",
            SpawnKind::Process => "process",
        }
    }
}

/// Configuration of a distributed session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistConfig {
    /// Requested worker count; `0` reads `MRLR_DIST_WORKERS` (default 2).
    /// Always clamped so no worker owns an empty shard block.
    pub workers: usize,
    /// Thread- or process-backed workers.
    pub spawn: SpawnKind,
    /// Live fault injections.
    pub kills: Vec<WorkerKill>,
}

/// A live fault injection: kill worker `worker` of a dist session once
/// it has acked superstep `superstep`'s barrier. The kill is executed
/// for real by the transport, and the master's recovery (respawn +
/// deterministic re-derivation + batch replay) must reproduce the
/// fault-free run bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKill {
    /// The dist worker to kill (`0..workers`).
    pub worker: usize,
    /// The 1-based superstep after whose barrier ack the worker dies.
    pub superstep: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: 0,
            spawn: SpawnKind::Thread,
            kills: Vec::new(),
        }
    }
}

/// `Copy` projection of [`DistConfig`] for configs that must stay
/// `Copy`/`const`-constructible (e.g. `mrlr_core`'s `ExecConfig`): at
/// most one pending kill instead of a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistParams {
    /// Requested worker count; `0` = environment default.
    pub workers: usize,
    /// Thread- or process-backed workers.
    pub spawn: SpawnKind,
    /// At most one live worker kill.
    pub kill: Option<WorkerKill>,
}

impl DistParams {
    /// No explicit workers, thread spawn, no kill.
    pub const DEFAULT: DistParams = DistParams {
        workers: 0,
        spawn: SpawnKind::Thread,
        kill: None,
    };
}

impl Default for DistParams {
    fn default() -> Self {
        DistParams::DEFAULT
    }
}

impl From<DistParams> for DistConfig {
    fn from(p: DistParams) -> Self {
        DistConfig {
            workers: p.workers,
            spawn: p.spawn,
            kills: p.kill.into_iter().collect(),
        }
    }
}
