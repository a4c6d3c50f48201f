//! The client↔daemon wire protocol of `mrlr serve`.
//!
//! Every message is one length-prefixed frame (the dist transport's
//! framing: `u32` little-endian body length, then the body) whose body
//! is the [`Wire`] encoding of a [`Request`] or [`Response`] — a tag
//! byte followed by the fields' canonical encodings, exactly the
//! discipline of `mrlr_mapreduce::dist::wire::Frame`. Decoding is
//! total: unknown tags, truncation and trailing bytes all surface as a
//! [`mrlr_mapreduce::WireError`] carrying the byte offset at
//! which decoding gave up, and the proptest contract in
//! `tests/serve_wire.rs` pins that behaviour for every message kind.
//!
//! The conversation is strictly client-driven: the daemon only writes
//! in response to a request, and answers each request with zero or more
//! [`Response::Note`] progress frames followed by exactly one terminal
//! frame ([`Response::Report`], [`Response::VerifyOk`],
//! [`Response::Busy`], [`Response::Error`], [`Response::Pong`],
//! [`Response::Stats`] or [`Response::Bye`]). A solve that passes
//! admission control additionally announces [`Response::Admitted`]
//! before the solver runs, so clients (and the smoke tests) can
//! sequence concurrent requests deterministically.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mrlr_mapreduce::dist::wire::{Wire, WireError, WireReader};

/// Everything that identifies one solver run. Two concurrent
/// [`Request::Solve`]s with equal [`SolveSpec`]s are *coalesced*: the
/// daemon runs the solver once and fans the shared report out to every
/// waiter. Rendering options deliberately live outside the spec —
/// waiters render their own view of the shared run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveSpec {
    /// Registry key of the algorithm.
    pub algorithm: String,
    /// Backend name, validated server-side against `Backend::ALL`.
    pub backend: String,
    /// The instance, in the unified `mrlr_core::io::instance` text
    /// format (canonical rendering, so identical instances coalesce).
    pub instance_text: String,
    /// Memory exponent `µ` as IEEE bits — bit-exact equality is what
    /// makes the coalescing key well defined.
    pub mu_bits: u64,
    /// Seed for all hash-derived randomness.
    pub seed: u64,
    /// Executor threads; `None` = daemon default (`MRLR_THREADS`).
    pub threads: Option<u64>,
    /// Machine-count override; `None` = auto-derived from the instance.
    pub machines: Option<u64>,
    /// Dist worker processes; `None` = default. Ignored off-dist.
    pub workers: Option<u64>,
}

impl SolveSpec {
    /// The memory exponent as a float.
    pub fn mu(&self) -> f64 {
        f64::from_bits(self.mu_bits)
    }
}

/// A 64-bit digest of an instance text: four independent lanes each fold
/// one little-endian word per 32-byte block by xor, multiply and rotate,
/// and the lanes and the length are mixed at the end. It only picks a
/// hash bucket — every table keyed by it compares the full text before
/// it trusts a match — so it is built for speed, not for resistance to
/// crafted collisions: one pass over a served instance costs a fraction
/// of a SipHash pass.
pub fn text_digest(text: &str) -> u64 {
    const K: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0xD6E8_FEB8_6659_FD93,
    ];
    fn fold(lanes: &mut [u64; 4], block: &[u8]) {
        for ((lane, word), k) in lanes.iter_mut().zip(block.chunks_exact(8)).zip(K) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ word).wrapping_mul(k).rotate_left(31);
        }
    }
    let bytes = text.as_bytes();
    let mut lanes = K;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        fold(&mut lanes, block);
    }
    let rest = blocks.remainder();
    let mut tail = [0u8; 32];
    tail[..rest.len()].copy_from_slice(rest);
    fold(&mut lanes, &tail);
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K[0]).rotate_left(29);
    }
    h ^ (h >> 32)
}

/// The daemon's coalescing key: the [`text_digest`] of the spec's
/// instance text beside the spec itself. Hashing writes only the digest;
/// equality compares the digest and then the whole spec, so two keys are
/// equal exactly when their specs are, and a digest collision costs a
/// comparison, never a shared run.
#[derive(Debug, Clone)]
pub struct CoalesceKey {
    pub(crate) digest: u64,
    pub(crate) spec: Arc<SolveSpec>,
}

impl CoalesceKey {
    /// Digests `spec`'s instance text once and takes the spec.
    pub fn new(spec: SolveSpec) -> Self {
        CoalesceKey {
            digest: text_digest(&spec.instance_text),
            spec: Arc::new(spec),
        }
    }
}

impl PartialEq for CoalesceKey {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest
            && (Arc::ptr_eq(&self.spec, &other.spec) || self.spec == other.spec)
    }
}

impl Eq for CoalesceKey {}

impl Hash for CoalesceKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.digest.hash(state);
    }
}

impl Wire for SolveSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.algorithm.encode(out);
        self.backend.encode(out);
        self.instance_text.encode(out);
        self.mu_bits.encode(out);
        self.seed.encode(out);
        self.threads.encode(out);
        self.machines.encode(out);
        self.workers.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SolveSpec {
            algorithm: String::decode(r)?,
            backend: String::decode(r)?,
            instance_text: String::decode(r)?,
            mu_bits: u64::decode(r)?,
            seed: u64::decode(r)?,
            threads: Option::<u64>::decode(r)?,
            machines: Option::<u64>::decode(r)?,
            workers: Option::<u64>::decode(r)?,
        })
    }
}

/// Which serialization the daemon renders a report in. Matches the
/// CLI's `--format` values so served output can be diffed byte-for-byte
/// against offline output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// `mrlr_core::io::report_text`.
    Text,
    /// `mrlr_core::io::report_json_with`.
    Json,
    /// CSV header + `mrlr_core::io::report_csv_row`.
    Csv,
}

impl Wire for ReportFormat {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ReportFormat::Text => 0,
            ReportFormat::Json => 1,
            ReportFormat::Csv => 2,
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        match u8::decode(r)? {
            0 => Ok(ReportFormat::Text),
            1 => Ok(ReportFormat::Json),
            2 => Ok(ReportFormat::Csv),
            t => Err(WireError {
                offset: at,
                reason: format!("unknown report format tag {t:#04x}"),
            }),
        }
    }
}

/// How a terminal [`Response::Report`] document is rendered: the same
/// three switches the offline CLI exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderOpts {
    /// Output serialization.
    pub format: ReportFormat,
    /// Zero host wall-clock fields (`--mask-timings`) so the document
    /// is bit-identical across thread counts and to offline goldens.
    pub mask_timings: bool,
    /// Embed the full certificate witness (`--certificates full`).
    pub certificates_full: bool,
}

impl Wire for RenderOpts {
    fn encode(&self, out: &mut Vec<u8>) {
        self.format.encode(out);
        self.mask_timings.encode(out);
        self.certificates_full.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RenderOpts {
            format: ReportFormat::decode(r)?,
            mask_timings: bool::decode(r)?,
            certificates_full: bool::decode(r)?,
        })
    }
}

/// One job row of a [`Request::Batch`] — the wire projection of
/// `mrlr_core::io::JobSpec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchJob {
    /// Registry key of the algorithm.
    pub algorithm: String,
    /// Memory exponent `µ` as IEEE bits.
    pub mu_bits: u64,
    /// Seed for all hash-derived randomness.
    pub seed: u64,
    /// Executor threads; `None` = daemon default.
    pub threads: Option<u64>,
}

impl Wire for BatchJob {
    fn encode(&self, out: &mut Vec<u8>) {
        self.algorithm.encode(out);
        self.mu_bits.encode(out);
        self.seed.encode(out);
        self.threads.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(BatchJob {
            algorithm: String::decode(r)?,
            mu_bits: u64::decode(r)?,
            seed: u64::decode(r)?,
            threads: Option::<u64>::decode(r)?,
        })
    }
}

/// Client → daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run one solver job (or join an identical in-flight run) and
    /// return the rendered report.
    Solve {
        /// The run identity; the daemon coalesces on it through
        /// [`CoalesceKey`].
        spec: SolveSpec,
        /// How to render the terminal report document.
        render: RenderOpts,
        /// Milliseconds this request will wait for admission or for a
        /// shared run to publish; `0` = the daemon's default budget.
        timeout_millis: u64,
    },
    /// Run a whole `instances × jobs` grid under one admission slot and
    /// return the rendered batch document.
    Batch {
        /// `(display path, instance text)` pairs; the path is echoed
        /// into the document exactly as a manifest path would be.
        instances: Vec<(String, String)>,
        /// The job rows, applied to every instance.
        jobs: Vec<BatchJob>,
        /// Backend name for all slots.
        backend: String,
        /// How to render the batch document (text is not supported).
        render: RenderOpts,
        /// Admission wait budget in milliseconds; `0` = daemon default.
        timeout_millis: u64,
    },
    /// Re-audit a stored report against its instance — the served
    /// equivalent of `mrlr verify <instance> <report.json>`.
    Verify {
        /// The instance, in the unified text format.
        instance_text: String,
        /// The stored report document (JSON).
        report_json: String,
    },
    /// Liveness probe; bypasses admission control.
    Ping {
        /// Echo value.
        nonce: u64,
    },
    /// Snapshot the daemon's counters; bypasses admission control.
    Stats,
    /// Graceful shutdown: stop accepting, drain in-flight work, reply
    /// [`Response::Bye`], remove the socket.
    Shutdown,
}

const REQ_SOLVE: u8 = 0;
const REQ_BATCH: u8 = 1;
const REQ_VERIFY: u8 = 2;
const REQ_PING: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

impl Wire for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Solve {
                spec,
                render,
                timeout_millis,
            } => {
                out.push(REQ_SOLVE);
                spec.encode(out);
                render.encode(out);
                timeout_millis.encode(out);
            }
            Request::Batch {
                instances,
                jobs,
                backend,
                render,
                timeout_millis,
            } => {
                out.push(REQ_BATCH);
                instances.encode(out);
                jobs.encode(out);
                backend.encode(out);
                render.encode(out);
                timeout_millis.encode(out);
            }
            Request::Verify {
                instance_text,
                report_json,
            } => {
                out.push(REQ_VERIFY);
                instance_text.encode(out);
                report_json.encode(out);
            }
            Request::Ping { nonce } => {
                out.push(REQ_PING);
                nonce.encode(out);
            }
            Request::Stats => out.push(REQ_STATS),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        let tag = u8::decode(r)?;
        match tag {
            REQ_SOLVE => Ok(Request::Solve {
                spec: SolveSpec::decode(r)?,
                render: RenderOpts::decode(r)?,
                timeout_millis: u64::decode(r)?,
            }),
            REQ_BATCH => Ok(Request::Batch {
                instances: Vec::<(String, String)>::decode(r)?,
                jobs: Vec::<BatchJob>::decode(r)?,
                backend: String::decode(r)?,
                render: RenderOpts::decode(r)?,
                timeout_millis: u64::decode(r)?,
            }),
            REQ_VERIFY => Ok(Request::Verify {
                instance_text: String::decode(r)?,
                report_json: String::decode(r)?,
            }),
            REQ_PING => Ok(Request::Ping {
                nonce: u64::decode(r)?,
            }),
            REQ_STATS => Ok(Request::Stats),
            REQ_SHUTDOWN => Ok(Request::Shutdown),
            t => Err(WireError {
                offset: at,
                reason: format!("unknown request tag {t:#04x}"),
            }),
        }
    }
}

/// A point-in-time snapshot of the daemon's counters, answered to
/// [`Request::Stats`]. These are observations of the *host* (queue
/// depths and coalescing depend on client arrival order, never on the
/// model), so they travel beside a served report — as a `note:` line —
/// and never inside it: a served document stays byte-identical to its
/// offline counterpart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests accepted over the daemon's lifetime so far.
    pub requests: u64,
    /// Solver runs actually executed (coalesced waiters share one).
    pub solver_runs: u64,
    /// Requests that attached to an already-running identical solve.
    pub coalesce_hits: u64,
    /// Requests rejected with a [`Response::Busy`] frame.
    pub busy_rejects: u64,
    /// Requests that timed out waiting.
    pub timeouts: u64,
    /// High-water mark of concurrently admitted requests.
    pub inflight_high_water: u64,
    /// High-water mark of the admission wait queue.
    pub queue_depth_high_water: u64,
}

impl StatsSnapshot {
    /// The one-line rendering operators read on the daemon's stderr and
    /// in the `note:` frames that accompany a served report.
    pub(crate) fn note_line(&self) -> String {
        format!(
            "serve: {} requests, {} solver runs, {} coalesce hits, {} busy rejects, \
             {} timeouts, queue depth high-water {}",
            self.requests,
            self.solver_runs,
            self.coalesce_hits,
            self.busy_rejects,
            self.timeouts,
            self.queue_depth_high_water
        )
    }
}

impl Wire for StatsSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.requests.encode(out);
        self.solver_runs.encode(out);
        self.coalesce_hits.encode(out);
        self.busy_rejects.encode(out);
        self.timeouts.encode(out);
        self.inflight_high_water.encode(out);
        self.queue_depth_high_water.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(StatsSnapshot {
            requests: u64::decode(r)?,
            solver_runs: u64::decode(r)?,
            coalesce_hits: u64::decode(r)?,
            busy_rejects: u64::decode(r)?,
            timeouts: u64::decode(r)?,
            inflight_high_water: u64::decode(r)?,
            queue_depth_high_water: u64::decode(r)?,
        })
    }
}

/// Daemon → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The solve passed admission control and the solver is about to
    /// run (coalesced waiters do not receive this — they never held a
    /// slot).
    Admitted,
    /// A host-level progress/annotation line; the CLI client prints
    /// these as `note: {line}` on stderr, exactly like offline solves.
    Note {
        /// The annotation text.
        line: String,
    },
    /// Terminal: the rendered report (or batch) document.
    Report {
        /// The complete rendered document, byte-identical to what the
        /// offline CLI would have written to stdout.
        content: String,
        /// True when this request shared another request's solver run.
        coalesced: bool,
    },
    /// Terminal: the stored report audited clean.
    VerifyOk {
        /// Audited algorithm key.
        algorithm: String,
        /// Audited backend tag.
        backend: String,
        /// One description per passed check.
        checks: Vec<String>,
    },
    /// Terminal: admission control rejected the request outright — the
    /// in-flight limit is reached and the wait queue is full.
    Busy {
        /// Requests currently holding admission slots.
        in_flight: u64,
        /// Requests currently queued for admission.
        queued: u64,
        /// The daemon's in-flight slot limit.
        limit: u64,
    },
    /// Terminal: the request failed (parse error, solver error, timeout,
    /// failed audit, shutdown in progress).
    Error {
        /// What went wrong.
        message: String,
    },
    /// Terminal: liveness reply echoing the probe's nonce.
    Pong {
        /// Echoed value.
        nonce: u64,
    },
    /// Terminal: the daemon's counters.
    Stats {
        /// The snapshot.
        stats: StatsSnapshot,
    },
    /// Terminal: shutdown acknowledged; the daemon is draining.
    Bye,
}

const RSP_ADMITTED: u8 = 0;
const RSP_NOTE: u8 = 1;
const RSP_REPORT: u8 = 2;
const RSP_VERIFY_OK: u8 = 3;
const RSP_BUSY: u8 = 4;
const RSP_ERROR: u8 = 5;
const RSP_PONG: u8 = 6;
const RSP_STATS: u8 = 7;
const RSP_BYE: u8 = 8;

impl Wire for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Admitted => out.push(RSP_ADMITTED),
            Response::Note { line } => {
                out.push(RSP_NOTE);
                line.encode(out);
            }
            Response::Report { content, coalesced } => {
                out.push(RSP_REPORT);
                content.encode(out);
                coalesced.encode(out);
            }
            Response::VerifyOk {
                algorithm,
                backend,
                checks,
            } => {
                out.push(RSP_VERIFY_OK);
                algorithm.encode(out);
                backend.encode(out);
                checks.encode(out);
            }
            Response::Busy {
                in_flight,
                queued,
                limit,
            } => {
                out.push(RSP_BUSY);
                in_flight.encode(out);
                queued.encode(out);
                limit.encode(out);
            }
            Response::Error { message } => {
                out.push(RSP_ERROR);
                message.encode(out);
            }
            Response::Pong { nonce } => {
                out.push(RSP_PONG);
                nonce.encode(out);
            }
            Response::Stats { stats } => {
                out.push(RSP_STATS);
                stats.encode(out);
            }
            Response::Bye => out.push(RSP_BYE),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        let tag = u8::decode(r)?;
        match tag {
            RSP_ADMITTED => Ok(Response::Admitted),
            RSP_NOTE => Ok(Response::Note {
                line: String::decode(r)?,
            }),
            RSP_REPORT => Ok(Response::Report {
                content: String::decode(r)?,
                coalesced: bool::decode(r)?,
            }),
            RSP_VERIFY_OK => Ok(Response::VerifyOk {
                algorithm: String::decode(r)?,
                backend: String::decode(r)?,
                checks: Vec::<String>::decode(r)?,
            }),
            RSP_BUSY => Ok(Response::Busy {
                in_flight: u64::decode(r)?,
                queued: u64::decode(r)?,
                limit: u64::decode(r)?,
            }),
            RSP_ERROR => Ok(Response::Error {
                message: String::decode(r)?,
            }),
            RSP_PONG => Ok(Response::Pong {
                nonce: u64::decode(r)?,
            }),
            RSP_STATS => Ok(Response::Stats {
                stats: StatsSnapshot::decode(r)?,
            }),
            RSP_BYE => Ok(Response::Bye),
            t => Err(WireError {
                offset: at,
                reason: format!("unknown response tag {t:#04x}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrlr_mapreduce::dist::wire::{decode_value, encode_value};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_value(&value);
        assert_eq!(decode_value::<T>(&bytes).unwrap(), value);
    }

    fn sample_spec() -> SolveSpec {
        SolveSpec {
            algorithm: "matching".into(),
            backend: "mr".into(),
            instance_text: "p graph 2 1\ne 0 1 1.0\n".into(),
            mu_bits: 0.3f64.to_bits(),
            seed: 42,
            threads: Some(4),
            machines: None,
            workers: None,
        }
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request::Solve {
            spec: sample_spec(),
            render: RenderOpts {
                format: ReportFormat::Json,
                mask_timings: true,
                certificates_full: true,
            },
            timeout_millis: 0,
        });
        round_trip(Request::Batch {
            instances: vec![("a.inst".into(), "text".into())],
            jobs: vec![BatchJob {
                algorithm: "mis".into(),
                mu_bits: 0.25f64.to_bits(),
                seed: 7,
                threads: None,
            }],
            backend: "shard".into(),
            render: RenderOpts {
                format: ReportFormat::Csv,
                mask_timings: false,
                certificates_full: false,
            },
            timeout_millis: 500,
        });
        round_trip(Request::Verify {
            instance_text: "i".into(),
            report_json: "{}".into(),
        });
        round_trip(Request::Ping { nonce: 99 });
        round_trip(Request::Stats);
        round_trip(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        round_trip(Response::Admitted);
        round_trip(Response::Note { line: "hi".into() });
        round_trip(Response::Report {
            content: "{}".into(),
            coalesced: true,
        });
        round_trip(Response::VerifyOk {
            algorithm: "matching".into(),
            backend: "dist".into(),
            checks: vec!["feasible".into()],
        });
        round_trip(Response::Busy {
            in_flight: 1,
            queued: 0,
            limit: 1,
        });
        round_trip(Response::Error {
            message: "nope".into(),
        });
        round_trip(Response::Pong { nonce: 99 });
        round_trip(Response::Stats {
            stats: StatsSnapshot {
                requests: 1,
                solver_runs: 2,
                coalesce_hits: 3,
                busy_rejects: 4,
                timeouts: 5,
                inflight_high_water: 6,
                queue_depth_high_water: 7,
            },
        });
        round_trip(Response::Bye);
    }

    #[test]
    fn identical_specs_share_a_coalescing_key() {
        let key = || CoalesceKey::new(sample_spec());
        assert_eq!(key(), key());
        assert_eq!(key().digest, text_digest(&sample_spec().instance_text));
        let mut other = sample_spec();
        other.seed = 43;
        assert_ne!(key(), CoalesceKey::new(other));
    }

    #[test]
    fn the_text_digest_sees_every_byte_and_the_length() {
        let base = "p graph 40 2\ne 0 1 1.5\ne 2 3 2.5\n".repeat(3);
        let d = text_digest(&base);
        assert_eq!(d, text_digest(&base.clone()), "deterministic");
        // One changed byte anywhere, in a whole block or in the tail.
        for at in 0..base.len() {
            let mut bytes = base.clone().into_bytes();
            bytes[at] ^= 0x01;
            let flipped = String::from_utf8(bytes).unwrap();
            assert_ne!(text_digest(&flipped), d, "byte {at}");
        }
        // A zero-padded tail is not the same text as a shorter one.
        assert_ne!(text_digest("ab"), text_digest("ab\0"));
        assert_ne!(text_digest(""), text_digest("\0"));
    }

    #[test]
    fn unknown_tags_are_rejected_with_offset() {
        let err = decode_value::<Request>(&[0xEE]).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.reason.contains("unknown request tag"), "{err}");
        let err = decode_value::<Response>(&[0xEE]).unwrap_err();
        assert!(err.reason.contains("unknown response tag"), "{err}");
        let err = decode_value::<ReportFormat>(&[9]).unwrap_err();
        assert!(err.reason.contains("report format"), "{err}");
    }

    #[test]
    fn stats_snapshot_renders_the_operator_note_line() {
        let s = StatsSnapshot {
            requests: 5,
            solver_runs: 2,
            coalesce_hits: 3,
            busy_rejects: 1,
            timeouts: 0,
            inflight_high_water: 2,
            queue_depth_high_water: 4,
        };
        assert_eq!(
            s.note_line(),
            "serve: 5 requests, 2 solver runs, 3 coalesce hits, 1 busy rejects, \
             0 timeouts, queue depth high-water 4"
        );
    }
}
