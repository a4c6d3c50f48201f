//! # mrlr-mapreduce — a deterministic MPC/MapReduce cluster simulator
//!
//! This crate is the substrate for the `mrlr` workspace's reproduction of
//! *"Greedy and Local Ratio Algorithms in the MapReduce Model"* (Harvey,
//! Liaw, Liu; SPAA 2018). The paper's model — the MRC formalization of
//! Karloff, Suri and Vassilvitskii, refined by the MPC model of Beame et
//! al. — gives each of `M` machines `O(n^{1+µ})` words of memory and charges
//! one *round* per synchronous communication step; the round count is the
//! primary cost measure.
//!
//! The simulator makes those constraints executable and measurable:
//!
//! * [`cluster::Cluster`] runs per-machine state through supersteps
//!   ([`cluster::Cluster::local`], [`cluster::Cluster::exchange`],
//!   [`cluster::Cluster::gather`], [`cluster::Cluster::broadcast`],
//!   [`cluster::Cluster::aggregate`]) with strict word budgets, tree-depth
//!   round accounting for broadcasts/aggregations (the paper's `n^µ`-ary
//!   broadcast tree), and full [`metrics::Metrics`]. It is a thin facade
//!   over three owned runtime layers: [`shard`] (per-machine state, RNG
//!   and space accounting), [`router`] (the message-delivery plane; with
//!   [`payload`], the flat staging sink of
//!   [`cluster::Cluster::gather_payload`]) and [`superstep`]
//!   (shard→thread scheduling on the worker pool).
//! * [`rng`] provides partition-stable hash-derived randomness so that a
//!   distributed run is bit-identical to its sequential counterpart.
//! * [`bitset::Bitset`] and [`words::WordSized`] handle exact word-level
//!   space accounting; [`csr::Csr`] is the flat "one list per record"
//!   layout resident driver states are built on, and
//!   [`bitset::RankedBitset`] numbers the keys a machine holds, so a
//!   `Csr` indexed by them has a row per held key, not per key.
//! * [`model::ComputeModel`] audits cluster shapes against the MRC/MPC side
//!   conditions. Drivers place records on machines themselves, by hashing
//!   record ids ([`rng::mix2`]).
//!
//! ## The runtime seam
//!
//! There is one in-process engine: one task per shard, claimed by
//! whichever thread is idle ([`superstep::Scheduler`]), plus
//! counting-sort routing into one pooled flat arena ([`router`]).
//! [`cluster::ClusterConfig::runtime`] ([`superstep::RuntimeKind`])
//! selects whether exchanges are shuffled by that engine (`Shard`, the
//! default — the engine behind the solver API's `Backend::Shard`) or
//! through the [`dist`] master/worker control plane (`Dist`: real OS
//! transport, barrier heartbeats and fault-tolerant re-execution over
//! the same shard blocks — the engine behind `Backend::Dist`). The two
//! are **bit-identical** in every model-level observable; the
//! `MRLR_BACKEND` environment variable (`shard` or `dist`) sets the
//! process default, and any other value is an error.
//!
//! ## The executor seam
//!
//! Machine supersteps run on a persistent worker pool,
//! [`executor::ThreadPoolExecutor`] (`std::thread` + channels); a
//! 1-thread pool runs machines inline in id order. Every ordered
//! observable — outputs, message delivery, metrics, failures — is merged
//! in machine-id order after each pass, so a run is **bit-identical
//! across thread counts** given the seed; only the wall-clock
//! [`metrics::SuperstepTiming`]s differ. Select the thread count with
//! [`cluster::ClusterConfig::threads`] (default: the `MRLR_THREADS`
//! environment variable) or inject a pool through
//! [`cluster::Cluster::with_executor`].
//!
//! The scheduler and the router are safe code; the crate denies
//! `unsafe_code` everywhere but two places in [`executor`]: the pool's
//! lifetime bridge, which lends each superstep's borrowed task to
//! threads that outlive it, and [`executor::retain_freed_memory`]'s
//! call into glibc's `mallopt`.
//!
//! ```
//! use mrlr_mapreduce::cluster::{Cluster, ClusterConfig};
//!
//! // Four machines, 1000 words each; each holds a list of numbers.
//! let states: Vec<Vec<u64>> = (0..4).map(|m| vec![m as u64; 10]).collect();
//! let mut cluster = Cluster::new(ClusterConfig::new(4, 1000), states).unwrap();
//!
//! // One aggregation: total count across machines (costs tree-depth rounds).
//! let total = cluster.aggregate_sum(|_, s| s.len()).unwrap();
//! assert_eq!(total, 40);
//! assert_eq!(cluster.rounds(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bitset;
pub mod cluster;
pub mod csr;
pub mod dist;
pub mod error;
pub mod executor;
pub mod ingest;
pub mod metrics;
pub mod model;
pub mod payload;
pub mod rng;
pub mod router;
pub mod shard;
pub mod superstep;
pub mod words;

pub use bitset::{pack_words, Bitset, RankedBitset};
pub use cluster::{
    tree_depth, Cluster, ClusterConfig, Enforcement, MachineId, MachineState, Outbox,
};
pub use csr::{Csr, CsrBuilder, CsrOverflow};
pub use dist::{DistConfig, DistParams, SpawnKind, Wire, WireError, WireReader, WorkerKill};
pub use error::{CapacityKind, MrError, MrResult};
pub use executor::{
    default_threads, env_threads, executor_for, parse_threads, retain_freed_memory,
    ThreadPoolExecutor,
};
pub use ingest::Ingest;
pub use metrics::{
    DistSummary, Metrics, RecoveryEvent, RoundKind, RoundRecord, SuperstepTiming, Violation,
    WorkerShuffle,
};
pub use model::{paper_graph_regime, ComputeModel, ModelCheck};
pub use payload::{PayloadBatch, PayloadSink, PayloadSinkWriter};
pub use rng::{coin, mix2, mix_tags, unit_f64, DetRng};
pub use shard::Shard;
pub use superstep::{
    default_runtime, env_runtime, parse_runtime, RuntimeKind, Scheduler, StaticAssignment,
};
pub use words::{Payload, WordSized};
