//! Hand-rolled length-free wire encoding for the dist transport.
//!
//! Every value that crosses the master↔worker boundary implements
//! [`Wire`]: a fixed, little-endian, self-delimiting byte layout with no
//! external dependencies — the same discipline as `mrlr_core::io`'s JSON
//! writer, applied to bytes. The encoding is **canonical** (one byte
//! string per value) so digests over encoded payloads are well defined,
//! and decoding is **total**: every error is a [`WireError`] carrying the
//! byte offset where decoding failed, mirroring the line/column style of
//! the text formats.
//!
//! Layout rules (all integers little-endian, fixed width):
//!
//! * `u8..u128`, `i8..i128`: native width.
//! * `usize`/`isize`: 8 bytes (`u64`/`i64`); decoding checks the value
//!   fits the host width.
//! * `f32`/`f64`: IEEE bit patterns via `to_bits`.
//! * `bool`: one byte, `0` or `1` — anything else is a decode error.
//! * `char`: validated `u32` scalar value.
//! * `()`: zero bytes.
//! * `Option<T>`: tag byte `0`/`1`, then the value if `1`.
//! * `Vec<T>`: `u64` length, then the elements. Decoding never
//!   pre-reserves more bytes than remain in the buffer, so a corrupted
//!   length cannot balloon memory.
//! * `String`: `u64` byte length, then validated UTF-8.
//! * Tuples (2–5): fields in order, no framing.
//!
//! The impl family deliberately mirrors `crate::words::WordSized`, so any
//! message type the cluster can meter it can also ship.

use std::fmt;

use super::transport::MAX_FRAME;
use crate::rng::{mix2, mix_tags};
use crate::words::Payload;

/// A decoding failure: where it happened and why.
///
/// `offset` is the byte position in the frame body at which the decoder
/// gave up — truncation reports the position where more bytes were
/// needed, corruption the position of the offending byte(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset into the buffer at which decoding failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub reason: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for WireError {}

/// A frame that does not decode is `InvalidData` to the I/O layer.
impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Cursor over a received byte buffer, tracking the offset for errors.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current byte offset (where the next read starts).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes, or reports truncation at the current
    /// offset.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// Kept out of line so [`WireReader::take`] inlines to a compare and
    /// a slice on the shuffle's per-message walks.
    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize) -> WireError {
        self.error(format!(
            "truncated: needed {n} bytes, {} remain",
            self.remaining()
        ))
    }

    /// A [`WireError`] at the current offset.
    pub fn error(&self, reason: impl Into<String>) -> WireError {
        WireError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    /// Asserts the buffer is fully consumed (canonical encodings have no
    /// trailing bytes).
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            let n = self.remaining();
            return Err(self.error(format!("{n} trailing bytes after value")));
        }
        Ok(())
    }
}

/// A value with a canonical byte encoding for the dist transport.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value, advancing the reader past exactly the bytes
    /// [`Wire::encode`] would have written.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh buffer.
pub fn encode_value<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value from a complete buffer, rejecting trailing bytes.
pub fn decode_value<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! impl_wire_int {
    ($($t:ty),* $(,)?) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact take")))
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| WireError {
            offset: at,
            reason: format!("usize {v} exceeds host width"),
        })
    }
}

impl Wire for isize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        let v = i64::decode(r)?;
        isize::try_from(v).map_err(|_| WireError {
            offset: at,
            reason: format!("isize {v} exceeds host width"),
        })
    }
}

impl Wire for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f32::from_bits(u32::decode(r)?))
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError {
                offset: at,
                reason: format!("invalid bool byte {b:#04x}"),
            }),
        }
    }
}

impl Wire for char {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        let v = u32::decode(r)?;
        char::from_u32(v).ok_or_else(|| WireError {
            offset: at,
            reason: format!("invalid char scalar {v:#x}"),
        })
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(WireError {
                offset: at,
                reason: format!("invalid Option tag {b:#04x}"),
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        let len = u64::decode(r)?;
        let len = usize::try_from(len).map_err(|_| WireError {
            offset: at,
            reason: format!("vector length {len} exceeds host width"),
        })?;
        // Never trust the announced length for allocation: reserve at most
        // as many *bytes* as remain in the buffer. An element may take
        // fewer bytes on the wire than in memory (a `String` is 24 bytes
        // in memory and 8 on the wire), so an honest vector of such
        // elements grows past the reserve by pushing; a hostile length
        // cannot make the reserve outgrow the frame.
        let cap = r.remaining() / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(len.min(cap));
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = usize::decode(r)?;
        let start = r.pos();
        let bytes = r.take(len)?;
        let s = std::str::from_utf8(bytes).map_err(|e| WireError {
            offset: start + e.valid_up_to(),
            reason: "invalid UTF-8 in string".to_string(),
        })?;
        Ok(s.to_string())
    }
}

impl Wire for Payload {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Payload(usize::decode(r)?))
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Domain-separation tag of the inbox-region digests.
const REGION_TAG: u64 = 0x6469_7374_2164_6967; // "dist!dig"

/// Deterministic digest over a worker's assembled inbox region for one
/// exchange: folds `(cluster seed, shard id)` identity keys with every
/// payload's bytes. Master and worker compute it with this same function;
/// a mismatch means the region does not correspond to the deterministic
/// `(seed, shard)` streams it claims to, which recovery treats as fatal.
pub fn region_digest(seed: u64, shards: &[(u64, Vec<Vec<u8>>)]) -> u64 {
    let mut h = digest_init(seed);
    for (shard, inbox) in shards {
        h = digest_fold_shard(h, seed, *shard, inbox.len() as u64);
        for payload in inbox {
            h = digest_fold_payload(h, payload);
        }
    }
    h
}

/// Start of a streaming [`region_digest`] computation: the master folds
/// the same digest while *walking* a raw region body (no nested
/// materialization) via [`RegionWalker`].
pub(crate) fn digest_init(seed: u64) -> u64 {
    mix_tags(seed, &[REGION_TAG])
}

/// Folds one shard header (identity key + payload count).
pub(crate) fn digest_fold_shard(h: u64, seed: u64, shard: u64, payloads: u64) -> u64 {
    mix2(mix2(h, mix_tags(seed, &[REGION_TAG, shard])), payloads)
}

/// Folds one payload's bytes (length, then zero-padded 8-byte words).
#[inline]
pub(crate) fn digest_fold_payload(mut h: u64, payload: &[u8]) -> u64 {
    h = mix2(h, payload.len() as u64);
    let mut words = payload.chunks_exact(8);
    for word in &mut words {
        h = mix2(h, u64::from_le_bytes(word.try_into().expect("exact chunk")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        h = mix2(h, u64::from_le_bytes(word));
    }
    h
}

/// Bytes of one `Batch` frame before its first message: length prefix,
/// tag, superstep, message count.
const BATCH_HEAD: usize = 4 + 1 + 8 + 8;

/// Streams one worker's `Batch` + `Flush` frames for a superstep
/// directly into a (pooled) byte buffer: each frame's length prefix and
/// message count are reserved up front and patched when the frame
/// closes, so the master serializes a shuffle without staging a
/// `Vec<u8>` per message or re-encoding whole frames. The traffic may be
/// cut into several `Batch` frames ([`BatchStream::close_chunk`]) so the
/// closed ones can be written while later messages are still being
/// encoded; every frame stays in the one retained buffer, whose bytes
/// are identical to `frame_bytes(&Frame::Batch{..})` per chunk followed
/// by `frame_bytes(&Frame::Flush{..})` — exactly what was written, and
/// therefore exactly what retained-replay recovery re-sends.
pub(crate) struct BatchStream {
    buf: Vec<u8>,
    superstep: u64,
    /// Offset of the open frame's length prefix; everything before it is
    /// closed frames.
    open_at: usize,
    /// Messages in the open frame.
    count: u64,
    /// Leading bytes already handed out by [`BatchStream::close_chunk`].
    handed: usize,
}

impl BatchStream {
    /// Begins a batch for `superstep` in `buf` (cleared; capacity kept).
    pub(crate) fn begin(mut buf: Vec<u8>, superstep: u64) -> Self {
        buf.clear();
        let mut stream = BatchStream {
            buf,
            superstep,
            open_at: 0,
            count: 0,
            handed: 0,
        };
        stream.open_frame();
        stream
    }

    /// Appends one `(dst, message)` pair; `write` streams the message's
    /// canonical bytes straight into the buffer (the per-message length
    /// prefix is reserved and patched afterwards).
    pub(crate) fn push_with(&mut self, dst: u64, write: impl FnOnce(&mut Vec<u8>)) {
        dst.encode(&mut self.buf);
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 8]);
        write(&mut self.buf);
        let len = (self.buf.len() - len_at - 8) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        self.count += 1;
    }

    /// Bytes of the open frame so far (prefix and header included).
    pub(crate) fn open_len(&self) -> usize {
        self.buf.len() - self.open_at
    }

    /// Closes the open `Batch` frame, opens the next one behind it, and
    /// returns the closed bytes not handed out before: complete frames,
    /// ready to be written.
    pub(crate) fn close_chunk(&mut self) -> &[u8] {
        self.close_frame();
        let closed = self.handed..self.buf.len();
        self.handed = closed.end;
        self.open_frame();
        &self.buf[closed]
    }

    /// Closes the last frame and appends the `Flush` frame. Returns the
    /// on-wire bytes of the whole exchange and the offset from which they
    /// are still to be written.
    pub(crate) fn finish(mut self) -> (Vec<u8>, usize) {
        self.close_frame();
        self.buf.extend_from_slice(&9u32.to_le_bytes()); // Flush body: tag + superstep
        self.buf.push(TAG_FLUSH);
        self.superstep.encode(&mut self.buf);
        (self.buf, self.handed)
    }

    fn open_frame(&mut self) {
        self.open_at = self.buf.len();
        self.count = 0;
        self.buf.extend_from_slice(&[0u8; 4]); // frame length, patched on close
        self.buf.push(TAG_BATCH);
        self.superstep.encode(&mut self.buf);
        self.buf.extend_from_slice(&[0u8; 8]); // message count, patched on close
    }

    fn close_frame(&mut self) {
        let frame = &mut self.buf[self.open_at..];
        let body = frame.len() - 4;
        assert!(
            body <= MAX_FRAME,
            "batch frame body of {body} bytes exceeds MAX_FRAME"
        );
        frame[..4].copy_from_slice(&(body as u32).to_le_bytes());
        frame[BATCH_HEAD - 8..BATCH_HEAD].copy_from_slice(&self.count.to_le_bytes());
    }
}

/// True when a raw frame body is a `Batch` — the one frame kind the
/// worker ingests without decoding it into a [`Frame`].
pub(crate) fn is_batch(body: &[u8]) -> bool {
    body.first() == Some(&TAG_BATCH)
}

/// Walks a raw `Batch` frame body in place: `(dst, len|payload)` records
/// in wire order, nothing materialized. The claimed message count buys
/// nothing — it is checked against the bytes present before the walk and
/// every record is bounds-checked as it is reached.
pub(crate) struct BatchWalker<'a> {
    r: WireReader<'a>,
    left: u64,
}

impl<'a> BatchWalker<'a> {
    /// Opens a raw frame body, expecting a `Batch` frame; the walker is
    /// positioned at the first record. (The superstep field is skipped:
    /// a worker files whatever arrives under the next `Flush`.)
    pub(crate) fn open(body: &'a [u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(body);
        let tag = u8::decode(&mut r)?;
        if tag != TAG_BATCH {
            return Err(WireError {
                offset: 0,
                reason: format!("expected Batch frame, got tag {tag:#04x}"),
            });
        }
        u64::decode(&mut r)?;
        let at = r.pos();
        let left = u64::decode(&mut r)?;
        // A record is at least `dst | len`: 16 bytes.
        let fit = (r.remaining() / 16) as u64;
        if left > fit {
            return Err(WireError {
                offset: at,
                reason: format!("batch claims {left} messages, body holds at most {fit}"),
            });
        }
        Ok(BatchWalker { r, left })
    }

    /// The next record as `(dst, len|payload bytes)` — the second half is
    /// the exact run an `Inboxes` frame carries for the message — or
    /// `None` after the last one, when the body must be exhausted.
    pub(crate) fn next_record(&mut self) -> Result<Option<(u64, &'a [u8])>, WireError> {
        if self.left == 0 {
            let n = self.r.remaining();
            if n != 0 {
                return Err(self.r.error(format!("{n} trailing bytes after batch")));
            }
            return Ok(None);
        }
        self.left -= 1;
        let dst = u64::decode(&mut self.r)?;
        let at = self.r.pos;
        let len = usize::decode(&mut self.r)?;
        self.r.take(len)?;
        Ok(Some((dst, &self.r.buf[at..self.r.pos])))
    }
}

/// Bytes of an `Inboxes` frame before its first shard: length prefix,
/// tag, superstep, shard count.
const INBOXES_HEAD: usize = 4 + 1 + 8 + 8;

/// The worker's side of one exchange: counts `Batch` bodies as they
/// arrive, then lays the `Inboxes` frame out by count → prefix-sum →
/// scatter, with no allocation per message.
///
/// [`RegionBuilder::ingest`] validates a raw body in place and adds its
/// messages to per-shard tallies; the body itself is parked untouched.
/// [`RegionBuilder::flush`] turns the tallies into the offsets of every
/// shard's `len|payload` run inside one output buffer sized as the exact
/// frame, copies each record from the parked bodies to its shard's
/// cursor in arrival order (the router's `(sender id, send order)`), and
/// folds the region digest over the assembled bytes. The result is
/// byte-identical to `frame_bytes(&Frame::Inboxes{..})` of the nested
/// region.
pub(crate) struct RegionBuilder {
    shard_lo: u64,
    /// Per shard of the block: messages and `len|payload` bytes parked.
    tally: Vec<(u64, usize)>,
    /// Write cursor of each shard's run during a flush.
    cursors: Vec<usize>,
    /// Validated `Batch` bodies of the open exchange, in arrival order.
    parked: Vec<Vec<u8>>,
}

impl RegionBuilder {
    /// A builder for the block of `shards` shards starting at `shard_lo`.
    pub(crate) fn new(shard_lo: u64, shards: usize) -> Self {
        RegionBuilder {
            shard_lo,
            tally: vec![(0, 0); shards],
            cursors: Vec::with_capacity(shards),
            parked: Vec::new(),
        }
    }

    /// Validates one raw `Batch` body — message count, every `dst` inside
    /// the block, every length inside the body, no trailing bytes — while
    /// counting its messages per shard, then parks it. An error leaves
    /// the tallies half updated: the worker's only answer to a malformed
    /// batch is to stop serving.
    pub(crate) fn ingest(&mut self, body: Vec<u8>) -> Result<(), WireError> {
        let mut walker = BatchWalker::open(&body)?;
        while let Some((dst, rec)) = walker.next_record()? {
            let (count, bytes) = dst
                .checked_sub(self.shard_lo)
                .and_then(|i| self.tally.get_mut(usize::try_from(i).ok()?))
                .ok_or_else(|| {
                    walker
                        .r
                        .error(format!("shard {dst} outside assigned block"))
                })?;
            *count += 1;
            *bytes += rec.len();
        }
        self.parked.push(body);
        Ok(())
    }

    /// Assembles the on-wire `Inboxes` frame (length prefix included) of
    /// everything ingested since the last flush into `out`, whose old
    /// contents are discarded, and resets the builder for the next
    /// exchange; the parked bodies move to `pool` for reuse.
    pub(crate) fn flush(
        &mut self,
        superstep: u64,
        seed: u64,
        out: &mut Vec<u8>,
        pool: &mut Vec<Vec<u8>>,
    ) -> Result<(), WireError> {
        let runs: usize = self.tally.iter().map(|&(_, bytes)| 16 + bytes).sum();
        let digest_at = INBOXES_HEAD + runs;
        let body = digest_at + 8 - 4;
        if body > MAX_FRAME {
            return Err(WireError {
                offset: 0,
                reason: format!("inbox region of {body} bytes exceeds MAX_FRAME"),
            });
        }
        // No clear: the layout below covers every byte of the frame, so
        // only growth past the previous frame's length is zero-filled.
        out.resize(digest_at + 8, 0);
        out[..4].copy_from_slice(&(body as u32).to_le_bytes());
        out[4] = TAG_INBOXES;
        out[5..13].copy_from_slice(&superstep.to_le_bytes());
        out[13..INBOXES_HEAD].copy_from_slice(&(self.tally.len() as u64).to_le_bytes());
        // Prefix-sum: each shard's header goes down where its run starts.
        let mut at = INBOXES_HEAD;
        self.cursors.clear();
        for (shard, &(count, bytes)) in (self.shard_lo..).zip(&self.tally) {
            out[at..at + 8].copy_from_slice(&shard.to_le_bytes());
            out[at + 8..at + 16].copy_from_slice(&count.to_le_bytes());
            at += 16;
            self.cursors.push(at);
            at += bytes;
        }
        // Scatter, in arrival order. `ingest` accepted every record, so
        // `dst` indexes the block and the runs fill exactly.
        for parked in &self.parked {
            let mut walker = BatchWalker::open(parked)?;
            while let Some((dst, rec)) = walker.next_record()? {
                let cursor = &mut self.cursors[(dst - self.shard_lo) as usize];
                out[*cursor..*cursor + rec.len()].copy_from_slice(rec);
                *cursor += rec.len();
            }
        }
        let (_, mut region) = RegionWalker::open(&out[4..digest_at])?;
        let mut h = digest_init(seed);
        while let Some((shard, count)) = region.next_shard()? {
            h = digest_fold_shard(h, seed, shard, count);
            for _ in 0..count {
                h = digest_fold_payload(h, region.next_payload()?);
            }
        }
        out[digest_at..].copy_from_slice(&h.to_le_bytes());
        self.tally.fill((0, 0));
        pool.append(&mut self.parked);
        Ok(())
    }
}

/// Walks a raw `Inboxes` frame body in place — shard headers and payload
/// byte slices in wire order — without materializing the nested region.
/// The master walks each region twice: a validation pass (digest + shard
/// identity, before trusting any payload) and a decode pass that lands
/// messages straight into delivery buffers.
pub(crate) struct RegionWalker<'a> {
    r: WireReader<'a>,
    shards_left: u64,
    payloads_left: u64,
}

impl<'a> RegionWalker<'a> {
    /// Opens a raw frame body, expecting an `Inboxes` frame; returns the
    /// superstep it claims plus the walker positioned at the first shard.
    pub(crate) fn open(body: &'a [u8]) -> Result<(u64, Self), WireError> {
        let mut r = WireReader::new(body);
        let at = r.pos();
        let tag = u8::decode(&mut r)?;
        if tag != TAG_INBOXES {
            return Err(WireError {
                offset: at,
                reason: format!("expected Inboxes frame, got tag {tag:#04x}"),
            });
        }
        let superstep = u64::decode(&mut r)?;
        let shards_left = u64::decode(&mut r)?;
        Ok((
            superstep,
            RegionWalker {
                r,
                shards_left,
                payloads_left: 0,
            },
        ))
    }

    /// The next shard header `(shard id, payload count)`, or `None` after
    /// the last shard. Call only once the previous shard's payloads have
    /// all been taken.
    pub(crate) fn next_shard(&mut self) -> Result<Option<(u64, u64)>, WireError> {
        debug_assert_eq!(self.payloads_left, 0, "previous shard not drained");
        if self.shards_left == 0 {
            return Ok(None);
        }
        self.shards_left -= 1;
        let shard = u64::decode(&mut self.r)?;
        let payloads = u64::decode(&mut self.r)?;
        self.payloads_left = payloads;
        Ok(Some((shard, payloads)))
    }

    /// The current shard's next payload as a raw byte slice.
    pub(crate) fn next_payload(&mut self) -> Result<&'a [u8], WireError> {
        debug_assert!(self.payloads_left > 0, "no payloads left in this shard");
        self.payloads_left -= 1;
        let len = usize::decode(&mut self.r)?;
        self.r.take(len)
    }

    /// After the last shard: reads the trailing digest and rejects any
    /// trailing bytes (the body must be exactly one canonical frame).
    pub(crate) fn finish(mut self) -> Result<u64, WireError> {
        debug_assert_eq!(self.shards_left, 0, "shards not fully walked");
        let digest = u64::decode(&mut self.r)?;
        self.r.finish()?;
        Ok(digest)
    }
}

/// One control or data frame of the master↔worker protocol.
///
/// Every frame is a tag byte followed by its fields' [`Wire`] encodings;
/// [`decode_value`] rejects unknown tags and trailing bytes. The protocol
/// is strictly master-driven: workers only ever write in response to a
/// frame the master sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Master → worker, first frame on a connection: own shards
    /// `shard_lo..shard_hi` of `machines`, seeded by `seed`. `kill_at`
    /// arms the fault-injection trap door (die after acking that
    /// superstep's barrier). Acked with [`Frame::Ack`]`{superstep: 0}`.
    Assign {
        /// Worker index `0..workers`.
        worker: u64,
        /// First owned shard (inclusive).
        shard_lo: u64,
        /// Past-the-end owned shard (exclusive).
        shard_hi: u64,
        /// Total simulated machines in the cluster.
        machines: u64,
        /// Cluster seed; shard RNG streams derive from `(seed, shard)`.
        seed: u64,
        /// Injected fault: die after acking this superstep's barrier.
        kill_at: Option<u64>,
    },
    /// Master → worker: barrier opening superstep `superstep`. Doubles as
    /// the heartbeat — a worker that cannot ack is declared dead.
    Open {
        /// The superstep being opened.
        superstep: u64,
    },
    /// Worker → master: barrier/assignment acknowledgement.
    Ack {
        /// The acknowledged superstep (0 for the assignment ack).
        superstep: u64,
    },
    /// Master → worker: a shuffle batch for this worker's shard block —
    /// an exchange is one or more of these, then a `Flush`. `msgs` are
    /// `(destination shard, encoded message)` pairs in global
    /// `(sender id, send order)` — the worker sorts them by shard in
    /// arrival order, which reproduces the router's delivery order. This
    /// nested form is the reference encoding: production writes it with
    /// `BatchStream` and reads it with `BatchWalker`.
    Batch {
        /// The superstep this batch belongs to.
        superstep: u64,
        /// `(destination shard, canonical message bytes)` in delivery order.
        msgs: Vec<(u64, Vec<u8>)>,
    },
    /// Master → worker: no more batches for `superstep`; assemble and
    /// return the inbox region.
    Flush {
        /// The superstep being flushed.
        superstep: u64,
    },
    /// Worker → master: the assembled inboxes of every owned shard (in
    /// shard order, empty inboxes included) plus their [`region_digest`].
    /// The reference encoding of what `RegionBuilder` lays out and
    /// `RegionWalker` reads.
    Inboxes {
        /// The flushed superstep.
        superstep: u64,
        /// `(shard id, inbox payloads in delivery order)` for the block.
        shards: Vec<(u64, Vec<Vec<u8>>)>,
        /// [`region_digest`] over `shards` under the cluster seed.
        digest: u64,
    },
    /// Master → worker: liveness probe.
    Ping {
        /// Echo value.
        nonce: u64,
    },
    /// Worker → master: liveness reply echoing the probe's nonce.
    Pong {
        /// Echoed value.
        nonce: u64,
    },
    /// Master → worker: orderly teardown.
    Shutdown,
}

const TAG_ASSIGN: u8 = 0;
const TAG_OPEN: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_BATCH: u8 = 3;
const TAG_FLUSH: u8 = 4;
const TAG_INBOXES: u8 = 5;
const TAG_PING: u8 = 6;
const TAG_PONG: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;

impl Wire for Frame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Assign {
                worker,
                shard_lo,
                shard_hi,
                machines,
                seed,
                kill_at,
            } => {
                out.push(TAG_ASSIGN);
                worker.encode(out);
                shard_lo.encode(out);
                shard_hi.encode(out);
                machines.encode(out);
                seed.encode(out);
                kill_at.encode(out);
            }
            Frame::Open { superstep } => {
                out.push(TAG_OPEN);
                superstep.encode(out);
            }
            Frame::Ack { superstep } => {
                out.push(TAG_ACK);
                superstep.encode(out);
            }
            Frame::Batch { superstep, msgs } => {
                out.push(TAG_BATCH);
                superstep.encode(out);
                msgs.encode(out);
            }
            Frame::Flush { superstep } => {
                out.push(TAG_FLUSH);
                superstep.encode(out);
            }
            Frame::Inboxes {
                superstep,
                shards,
                digest,
            } => {
                out.push(TAG_INBOXES);
                superstep.encode(out);
                shards.encode(out);
                digest.encode(out);
            }
            Frame::Ping { nonce } => {
                out.push(TAG_PING);
                nonce.encode(out);
            }
            Frame::Pong { nonce } => {
                out.push(TAG_PONG);
                nonce.encode(out);
            }
            Frame::Shutdown => out.push(TAG_SHUTDOWN),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        let tag = u8::decode(r)?;
        match tag {
            TAG_ASSIGN => Ok(Frame::Assign {
                worker: u64::decode(r)?,
                shard_lo: u64::decode(r)?,
                shard_hi: u64::decode(r)?,
                machines: u64::decode(r)?,
                seed: u64::decode(r)?,
                kill_at: Option::<u64>::decode(r)?,
            }),
            TAG_OPEN => Ok(Frame::Open {
                superstep: u64::decode(r)?,
            }),
            TAG_ACK => Ok(Frame::Ack {
                superstep: u64::decode(r)?,
            }),
            TAG_BATCH => Ok(Frame::Batch {
                superstep: u64::decode(r)?,
                msgs: Vec::<(u64, Vec<u8>)>::decode(r)?,
            }),
            TAG_FLUSH => Ok(Frame::Flush {
                superstep: u64::decode(r)?,
            }),
            TAG_INBOXES => Ok(Frame::Inboxes {
                superstep: u64::decode(r)?,
                shards: Vec::<(u64, Vec<Vec<u8>>)>::decode(r)?,
                digest: u64::decode(r)?,
            }),
            TAG_PING => Ok(Frame::Ping {
                nonce: u64::decode(r)?,
            }),
            TAG_PONG => Ok(Frame::Pong {
                nonce: u64::decode(r)?,
            }),
            TAG_SHUTDOWN => Ok(Frame::Shutdown),
            t => Err(WireError {
                offset: at,
                reason: format!("unknown frame tag {t:#04x}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_value(&value);
        assert_eq!(decode_value::<T>(&bytes).unwrap(), value);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(u128::MAX);
        round_trip(-1i8);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(-3isize);
        round_trip(1.5f32);
        round_trip(-0.0f64);
        round_trip(true);
        round_trip('🦀');
        round_trip(());
        round_trip(Payload(42));
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Option::<u32>::None);
        round_trip(Some(7u64));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(String::from("héllo 🦀"));
        round_trip((1u32, 2u64));
        round_trip((1u8, 2u16, 3u32, 4u64, 5u128));
        round_trip(vec![(0u64, vec![1u8, 2]), (3, vec![])]);
    }

    #[test]
    fn trailing_bytes_are_rejected_with_offset() {
        let mut bytes = encode_value(&7u32);
        bytes.push(0);
        let err = decode_value::<u32>(&bytes).unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.reason.contains("trailing"), "{err}");
    }

    #[test]
    fn truncation_reports_the_failing_offset() {
        let bytes = encode_value(&(1u64, 2u64));
        let err = decode_value::<(u64, u64)>(&bytes[..12]).unwrap_err();
        assert_eq!(err.offset, 8, "second field starts at byte 8: {err}");
    }

    #[test]
    fn corrupted_tags_report_offsets() {
        let err = decode_value::<bool>(&[9]).unwrap_err();
        assert_eq!(err.offset, 0);
        let mut opt = encode_value(&Some(1u8));
        opt[0] = 7;
        let err = decode_value::<Option<u8>>(&opt).unwrap_err();
        assert!(err.reason.contains("Option tag"), "{err}");
        let err = decode_value::<char>(&0xD800u32.to_le_bytes()).unwrap_err();
        assert!(err.reason.contains("char"), "{err}");
        let mut s = encode_value(&String::from("ab"));
        s[9] = 0xFF;
        let err = decode_value::<String>(&s).unwrap_err();
        assert_eq!(err.offset, 9, "invalid byte position: {err}");
    }

    #[test]
    fn corrupt_vec_length_does_not_balloon() {
        // Announce 2^60 elements with a 3-byte body: must error, not OOM.
        let mut bytes = encode_value(&(1u64 << 60));
        bytes.extend_from_slice(&[1, 2, 3]);
        let err = decode_value::<Vec<u64>>(&bytes).unwrap_err();
        assert!(err.reason.contains("truncated"), "{err}");
    }

    #[test]
    fn frames_round_trip() {
        for frame in [
            Frame::Assign {
                worker: 1,
                shard_lo: 4,
                shard_hi: 8,
                machines: 16,
                seed: 42,
                kill_at: Some(3),
            },
            Frame::Open { superstep: 7 },
            Frame::Ack { superstep: 0 },
            Frame::Batch {
                superstep: 2,
                msgs: vec![(5, vec![1, 2, 3]), (6, vec![])],
            },
            Frame::Flush { superstep: 2 },
            Frame::Inboxes {
                superstep: 2,
                shards: vec![(4, vec![vec![1], vec![2, 3]]), (5, vec![])],
                digest: 0xABCD,
            },
            Frame::Ping { nonce: 99 },
            Frame::Pong { nonce: 99 },
            Frame::Shutdown,
        ] {
            let bytes = encode_value(&frame);
            assert_eq!(decode_value::<Frame>(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn unknown_frame_tag_is_an_error() {
        let err = decode_value::<Frame>(&[0xEE]).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.reason.contains("unknown frame tag"), "{err}");
    }

    /// Generated traffic for the block `lo..lo + shards`: payloads of
    /// varying length (every third one empty), addressed to every other
    /// shard so the ones between stay empty.
    fn traffic(seed: u64, n: usize, lo: u64, shards: u64) -> Vec<(u64, Vec<u8>)> {
        let mut rng = crate::rng::DetRng::new(seed);
        (0..n)
            .map(|i| {
                let dst = lo + 2 * rng.range(shards.div_ceil(2));
                let len = if i % 3 == 1 { 0 } else { rng.range(12) };
                let payload = (0..len).map(|j| (i as u8) ^ (j as u8)).collect();
                (dst, payload)
            })
            .collect()
    }

    /// `msgs` cut before every message whose bit is set in `cuts` (bit
    /// `msgs.len()` cuts after the last one, leaving an empty chunk).
    fn chunks(msgs: &[(u64, Vec<u8>)], cuts: u32) -> Vec<Vec<(u64, Vec<u8>)>> {
        let mut out = vec![Vec::new()];
        for (i, msg) in msgs.iter().enumerate() {
            if cuts & (1 << i) != 0 {
                out.push(Vec::new());
            }
            out.last_mut().unwrap().push(msg.clone());
        }
        if cuts & (1 << msgs.len()) != 0 {
            out.push(Vec::new());
        }
        out
    }

    #[test]
    fn batch_stream_bytes_match_the_frame_encoding() {
        use crate::dist::transport::frame_bytes;
        // The streaming encoder must be byte-identical to encoding whole
        // Batch frames — one per chunk — then the Flush: workers and
        // retained-replay recovery depend on it. Every way of cutting the
        // traffic at message boundaries, empty chunks included.
        let msgs = traffic(1, 6, 0, 7);
        for cuts in 0..1u32 << (msgs.len() + 1) {
            let mut want = Vec::new();
            let mut written = Vec::new();
            let mut stream = BatchStream::begin(vec![0xAA; 64], 3); // dirty pooled buffer
            for (i, chunk) in chunks(&msgs, cuts).into_iter().enumerate() {
                if i > 0 {
                    // What each close hands out is what may be written
                    // early: whole frames, each byte once.
                    written.extend_from_slice(stream.close_chunk());
                    assert_eq!(written, want, "cuts {cuts:#b}");
                }
                for (dst, payload) in &chunk {
                    stream.push_with(*dst, |out| out.extend_from_slice(payload));
                }
                want.extend_from_slice(&frame_bytes(&Frame::Batch {
                    superstep: 3,
                    msgs: chunk,
                }));
            }
            want.extend_from_slice(&frame_bytes(&Frame::Flush { superstep: 3 }));
            let (bytes, unsent) = stream.finish();
            written.extend_from_slice(&bytes[unsent..]);
            // The retained bytes are the concatenation of what was written.
            assert_eq!(bytes, want, "cuts {cuts:#b}");
            assert_eq!(written, want, "cuts {cuts:#b}");
        }
        // No traffic at all is still one (empty) batch and the flush,
        // none of it written yet.
        let mut want = frame_bytes(&Frame::Batch {
            superstep: 9,
            msgs: vec![],
        });
        want.extend_from_slice(&frame_bytes(&Frame::Flush { superstep: 9 }));
        assert_eq!(BatchStream::begin(Vec::new(), 9).finish(), (want, 0));
    }

    /// The nested reference of what a worker owes for `msgs`: one bucket
    /// per shard of the block, filled in arrival order.
    fn nested_inboxes(
        superstep: u64,
        seed: u64,
        lo: u64,
        shards: u64,
        msgs: &[(u64, Vec<u8>)],
    ) -> Frame {
        let mut buckets: Vec<(u64, Vec<Vec<u8>>)> =
            (lo..lo + shards).map(|s| (s, vec![])).collect();
        for (dst, payload) in msgs {
            buckets[(dst - lo) as usize].1.push(payload.clone());
        }
        Frame::Inboxes {
            superstep,
            digest: region_digest(seed, &buckets),
            shards: buckets,
        }
    }

    #[test]
    fn region_builder_bytes_match_the_frame_encoding() {
        use crate::dist::transport::frame_bytes;
        // Count → prefix-sum → scatter over raw batch bodies must lay down
        // the exact bytes of the nested Inboxes frame, digest included,
        // however the batch was cut into frames.
        let (lo, shards, seed) = (3u64, 5u64, 77u64);
        let msgs = traffic(2, 7, lo, shards);
        let mut builder = RegionBuilder::new(lo, shards as usize);
        let mut out = vec![0xEE; 4096]; // dirty, and longer than any frame below
        let mut pool = Vec::new();
        for cuts in 0..1u32 << (msgs.len() + 1) {
            let parts = chunks(&msgs, cuts);
            let frames = parts.len();
            for chunk in parts {
                let body = encode_value(&Frame::Batch {
                    superstep: 4,
                    msgs: chunk,
                });
                assert!(is_batch(&body));
                builder.ingest(body).unwrap();
            }
            builder.flush(4, seed, &mut out, &mut pool).unwrap();
            let want = frame_bytes(&nested_inboxes(4, seed, lo, shards, &msgs));
            assert_eq!(out, want, "cuts {cuts:#b}");
            // Every parked body came back, and the tallies are clear: an
            // exchange with no traffic flushes empty inboxes.
            assert_eq!(pool.len(), frames);
            pool.clear();
            builder.flush(5, seed, &mut out, &mut pool).unwrap();
            assert_eq!(out, frame_bytes(&nested_inboxes(5, seed, lo, shards, &[])));
        }
        // A block of no shards is a frame too.
        let mut none = RegionBuilder::new(9, 0);
        none.flush(1, seed, &mut out, &mut pool).unwrap();
        assert_eq!(out, frame_bytes(&nested_inboxes(1, seed, 9, 0, &[])));
    }

    #[test]
    fn malformed_batch_bodies_are_rejected_in_place() {
        let valid = encode_value(&Frame::Batch {
            superstep: 1,
            msgs: vec![(4, vec![1, 2, 3]), (5, vec![])],
        });
        let reject = |body: Vec<u8>| {
            RegionBuilder::new(4, 2)
                .ingest(body)
                .expect_err("malformed batch must not be parked")
        };
        RegionBuilder::new(4, 2).ingest(valid.clone()).unwrap();
        for cut in 0..valid.len() {
            let err = reject(valid[..cut].to_vec());
            assert!(err.offset <= cut, "cut {cut}: {err}");
        }
        let mut trailing = valid.clone();
        trailing.push(0);
        assert!(reject(trailing).reason.contains("trailing"));
        // Shard 6 is past the block, shard 3 before it.
        for dst in [6u64, 3, u64::MAX] {
            let mut outside = valid.clone();
            outside[17..25].copy_from_slice(&dst.to_le_bytes());
            assert!(reject(outside).reason.contains("outside assigned block"));
        }
        // A length running past the body, and a count the body cannot hold.
        let mut long = valid.clone();
        long[25..33].copy_from_slice(&1000u64.to_le_bytes());
        assert!(reject(long).reason.contains("truncated"));
        let mut many = valid.clone();
        many[9..17].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let err = reject(many);
        assert_eq!(err.offset, 9);
        assert!(err.reason.contains("holds at most 2"), "{err}");
        // Not a batch at all.
        assert!(!is_batch(&encode_value(&Frame::Flush { superstep: 1 })));
        assert!(!is_batch(&[]));
    }

    #[test]
    fn region_walker_walks_an_inboxes_frame() {
        let shards = vec![
            (4u64, vec![vec![1u8], vec![2, 3, 4, 5, 6, 7, 8, 9, 10]]),
            (5, vec![]),
            (6, vec![vec![]]),
        ];
        let digest = region_digest(7, &shards);
        let body = encode_value(&Frame::Inboxes {
            superstep: 2,
            shards: shards.clone(),
            digest,
        });
        let (superstep, mut walker) = RegionWalker::open(&body).unwrap();
        assert_eq!(superstep, 2);
        let mut h = digest_init(7);
        let mut seen = Vec::new();
        while let Some((shard, count)) = walker.next_shard().unwrap() {
            h = digest_fold_shard(h, 7, shard, count);
            let mut payloads = Vec::new();
            for _ in 0..count {
                let p = walker.next_payload().unwrap();
                h = digest_fold_payload(h, p);
                payloads.push(p.to_vec());
            }
            seen.push((shard, payloads));
        }
        assert_eq!(seen, shards);
        // The streaming fold is exactly `region_digest`.
        assert_eq!(walker.finish().unwrap(), digest);
        assert_eq!(h, digest);
        // A non-Inboxes body is rejected at open.
        let err = match RegionWalker::open(&encode_value(&Frame::Ack { superstep: 2 })) {
            Err(e) => e,
            Ok(_) => panic!("an Ack body must not open as a region"),
        };
        assert!(err.reason.contains("expected Inboxes"), "{err}");
    }

    #[test]
    fn region_digest_separates_contents_and_identity() {
        let region = vec![(0u64, vec![vec![1u8, 2, 3]]), (1, vec![])];
        let same = region.clone();
        assert_eq!(region_digest(7, &region), region_digest(7, &same));
        // Different seed, shard id, payload → different digest.
        assert_ne!(region_digest(7, &region), region_digest(8, &region));
        let moved = vec![(0u64, vec![]), (1, vec![vec![1u8, 2, 3]])];
        assert_ne!(region_digest(7, &region), region_digest(7, &moved));
        let flipped = vec![(0u64, vec![vec![1u8, 2, 4]]), (1, vec![])];
        assert_ne!(region_digest(7, &region), region_digest(7, &flipped));
    }
}
