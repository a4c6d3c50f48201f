//! The worker side of the dist protocol: a shuffle region server.
//!
//! A worker owns one contiguous block of shards for the lifetime of a
//! run. Because driver closures cannot cross a process boundary, the
//! master keeps the shard *states* and runs the per-shard compute; what a
//! worker owns is the shards' **shuffle region**. Every frame is read
//! raw into a pooled buffer and its tag peeked. A `Batch` body — the
//! master sends an exchange as a run of them — is never decoded: it is
//! validated and counted in place and parked
//! (`RegionBuilder::ingest`). At `Flush` the parked bodies are
//! counting-sorted straight into the bytes of the `Inboxes` frame
//! (`RegionBuilder::flush`): per-shard counts → prefix-sum offsets →
//! records scattered in arrival order (exactly the router's
//! `(sender id, send order)` delivery order) → digest over the assembled
//! region, stamped with the block's deterministic `(cluster seed, shard
//! id)` identity keys → one write. The only other frames are control
//! frames, decoded as [`Frame`]s. What the loop allocates for an
//! exchange depends on the bytes it receives, never on the number of
//! messages in them, and it is fully monomorphic over opaque payload
//! bytes, so one worker binary serves every algorithm in the registry.
//!
//! Fault injection lives here too: an [`Frame::Assign`] can carry
//! `kill_at`. The worker acks that superstep's barrier normally and then
//! *arms*; it dies silently at the next `Open` or `Flush` — after having
//! ingested that superstep's batches, so recovery must replay them.

use std::io::{self, Write as _};
use std::os::unix::net::UnixStream;

use super::transport::{read_frame_body, write_frame};
use super::wire::{decode_value, is_batch, Frame, RegionBuilder};

/// Environment variable carrying the rendezvous socket path to spawned
/// worker processes. A process that sees it set should call
/// [`worker_main`] instead of its normal entry point.
pub const SOCKET_ENV: &str = "MRLR_DIST_SOCKET";

/// Environment variable overriding the worker binary the master spawns in
/// process mode (defaults to `std::env::current_exe`).
pub const WORKER_BIN_ENV: &str = "MRLR_DIST_WORKER_BIN";

/// State of one assigned shard block.
struct Block {
    seed: u64,
    kill_at: Option<u64>,
    region: RegionBuilder,
}

/// Serves the dist protocol on `stream` until shutdown, disconnect, or an
/// armed injected kill fires. Used directly by thread-mode workers and via
/// [`worker_main`] by process-mode workers.
pub fn serve(stream: UnixStream) -> io::Result<()> {
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let mut block: Option<Block> = None;
    let mut armed = false;
    // Frame bodies cycle through `pool`: a batch body stays parked in the
    // block's region until the flush hands it back, any other body
    // returns as soon as its frame is decoded.
    let mut pool: Vec<Vec<u8>> = Vec::new();
    let mut out = Vec::new();
    loop {
        let mut body = pool.pop().unwrap_or_default();
        match read_frame_body(&mut reader, &mut body) {
            Ok(()) => {}
            // Master hung up (e.g. its Drop closed the socket): done.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
        if is_batch(&body) {
            let b = block.as_mut().ok_or_else(unassigned)?;
            b.region.ingest(body)?;
            continue;
        }
        let frame = decode_value::<Frame>(&body)?;
        pool.push(body);
        match frame {
            Frame::Assign {
                shard_lo,
                shard_hi,
                seed,
                kill_at,
                ..
            } => {
                let shards = shard_hi.checked_sub(shard_lo).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("assigned block {shard_lo}..{shard_hi} is reversed"),
                    )
                })?;
                block = Some(Block {
                    seed,
                    kill_at,
                    region: RegionBuilder::new(shard_lo, shards as usize),
                });
                armed = false;
                write_frame(&mut writer, &Frame::Ack { superstep: 0 })?;
            }
            Frame::Open { superstep } => {
                if armed {
                    // Injected death: vanish without acking the barrier.
                    return Ok(());
                }
                write_frame(&mut writer, &Frame::Ack { superstep })?;
                if let Some(b) = &block {
                    if b.kill_at == Some(superstep) {
                        armed = true;
                    }
                }
            }
            Frame::Flush { superstep } => {
                if armed {
                    // Injected death mid-exchange: batches ingested, inboxes
                    // never returned — the master must replay.
                    return Ok(());
                }
                let b = block.as_mut().ok_or_else(unassigned)?;
                b.region.flush(superstep, b.seed, &mut out, &mut pool)?;
                writer.write_all(&out)?;
            }
            Frame::Ping { nonce } => write_frame(&mut writer, &Frame::Pong { nonce })?,
            Frame::Shutdown => return Ok(()),
            // `Batch` never reaches here: its tag was taken above.
            Frame::Batch { .. }
            | Frame::Ack { .. }
            | Frame::Inboxes { .. }
            | Frame::Pong { .. } => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "worker received a worker→master frame",
                ));
            }
        }
    }
}

fn unassigned() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "frame received before Assign")
}

/// Entry point for a spawned worker process: connects to the socket named
/// by [`SOCKET_ENV`] and serves until shutdown. Returns the process exit
/// code.
pub fn worker_main() -> i32 {
    let path = match std::env::var(SOCKET_ENV) {
        Ok(p) => p,
        Err(_) => {
            eprintln!("mrlr-dist-worker: {SOCKET_ENV} not set");
            return 2;
        }
    };
    let stream = match UnixStream::connect(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mrlr-dist-worker: connect {path}: {e}");
            return 2;
        }
    };
    match serve(stream) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("mrlr-dist-worker: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::transport::{frame_bytes, read_frame};
    use crate::dist::wire::region_digest;

    fn talk(stream: &mut UnixStream, frame: &Frame) -> Frame {
        write_frame(stream, frame).unwrap();
        read_frame(stream).unwrap()
    }

    /// Sends `Flush` and returns the reply's raw on-wire bytes.
    fn flush_raw(stream: &mut UnixStream, superstep: u64) -> Vec<u8> {
        write_frame(stream, &Frame::Flush { superstep }).unwrap();
        let mut body = Vec::new();
        read_frame_body(stream, &mut body).unwrap();
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        bytes
    }

    #[test]
    fn worker_assembles_inboxes_in_arrival_order() {
        let (mut master, worker) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || serve(worker));
        let ack = talk(
            &mut master,
            &Frame::Assign {
                worker: 0,
                shard_lo: 2,
                shard_hi: 5,
                machines: 8,
                seed: 7,
                kill_at: None,
            },
        );
        assert_eq!(ack, Frame::Ack { superstep: 0 });
        assert_eq!(
            talk(&mut master, &Frame::Open { superstep: 1 }),
            Frame::Ack { superstep: 1 }
        );
        // One exchange as three batch frames — the middle one empty, a
        // zero-length payload and a longer one among the messages.
        for msgs in [
            vec![(2, vec![1]), (4, vec![2; 11])],
            vec![],
            vec![(2, vec![]), (2, vec![3])],
        ] {
            write_frame(&mut master, &Frame::Batch { superstep: 1, msgs }).unwrap();
        }
        // The reply is the nested frame's exact bytes: shard 3 present and
        // empty, shard 2 in arrival order across the chunks.
        let expect = |superstep, shards: Vec<(u64, Vec<Vec<u8>>)>| {
            frame_bytes(&Frame::Inboxes {
                superstep,
                digest: region_digest(7, &shards),
                shards,
            })
        };
        assert_eq!(
            flush_raw(&mut master, 1),
            expect(
                1,
                vec![
                    (2, vec![vec![1], vec![], vec![3]]),
                    (3, vec![]),
                    (4, vec![vec![2; 11]]),
                ]
            )
        );
        // Tallies cleared: the next flush returns empty inboxes.
        assert_eq!(
            flush_raw(&mut master, 2),
            expect(2, vec![(2, vec![]), (3, vec![]), (4, vec![])])
        );
        write_frame(&mut master, &Frame::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn armed_worker_dies_after_acking_the_kill_superstep() {
        let (mut master, worker) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || serve(worker));
        talk(
            &mut master,
            &Frame::Assign {
                worker: 1,
                shard_lo: 0,
                shard_hi: 2,
                machines: 2,
                seed: 1,
                kill_at: Some(3),
            },
        );
        // Supersteps before the kill point behave normally.
        assert_eq!(
            talk(&mut master, &Frame::Open { superstep: 2 }),
            Frame::Ack { superstep: 2 }
        );
        // The kill superstep is still acked (the master must not detect
        // the death before the barrier) ...
        assert_eq!(
            talk(&mut master, &Frame::Open { superstep: 3 }),
            Frame::Ack { superstep: 3 }
        );
        // ... it even ingests the superstep's batches ...
        write_frame(
            &mut master,
            &Frame::Batch {
                superstep: 3,
                msgs: vec![(0, vec![9])],
            },
        )
        .unwrap();
        // ... and then dies at the flush instead of returning inboxes.
        write_frame(&mut master, &Frame::Flush { superstep: 3 }).unwrap();
        handle.join().unwrap().unwrap();
        let err = read_frame(&mut master).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn batch_outside_block_is_rejected() {
        let (mut master, worker) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || serve(worker));
        talk(
            &mut master,
            &Frame::Assign {
                worker: 0,
                shard_lo: 4,
                shard_hi: 6,
                machines: 8,
                seed: 0,
                kill_at: None,
            },
        );
        write_frame(
            &mut master,
            &Frame::Batch {
                superstep: 1,
                msgs: vec![(0, vec![1])],
            },
        )
        .unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
