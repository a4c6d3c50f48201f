//! Length-prefixed framing over byte streams.
//!
//! A frame on the wire is a `u32` little-endian body length followed by
//! the body (a [`Frame`]'s [`crate::dist::wire::Wire`] encoding). The
//! length is a claim: it is capped at [`MAX_FRAME`], and below the cap a
//! reader ([`read_body`], the one body reader every path shares) still
//! reserves at most [`MAX_UPFRONT`] before body bytes arrive and grows
//! with what the peer actually sends — a prefix alone cannot make a
//! receiver allocate for it. Decode failures surface as
//! `io::ErrorKind::InvalidData` carrying the
//! [`crate::dist::wire::WireError`] text (with its byte offset).
//!
//! The protocol is deadlock-free by construction: the master completes
//! all writes to a worker before reading that worker's response, and
//! workers only write in response to a frame — neither side ever blocks
//! on a write while the peer blocks on its own write. Chunked exchanges
//! keep the rule: the master writes batch frames to a worker throughout
//! an exchange, but a worker answers nothing until the `Flush`, which is
//! the last thing written to it, so while the master is blocked on a
//! full socket the worker on the other end is reading, never writing.

use std::io::{self, Read, Write};

use super::wire::{decode_value, encode_value, Frame, Wire};

/// Upper bound on a frame body (1 GiB): far above any real exchange,
/// small enough to reject corrupted length prefixes outright.
pub const MAX_FRAME: usize = 1 << 30;

/// The most a body read reserves on the strength of the length prefix
/// alone (4 MiB — a served ~1 MB instance stays one allocation); past
/// it the buffer grows only as bytes arrive.
pub const MAX_UPFRONT: usize = 4 << 20;

/// Decodes a frame's length prefix, rejecting lengths over [`MAX_FRAME`].
pub fn frame_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    Ok(len)
}

/// Appends to `buf` — which holds the part of the body read so far —
/// until it holds all `len` bytes. A short body is `UnexpectedEof`. Any
/// error leaves the bytes already read in `buf`, so a caller polling a
/// socket with a read timeout calls again to resume.
///
/// # Panics
///
/// If `buf` already holds more than `len` bytes.
pub fn read_body<R: Read>(r: &mut R, len: usize, buf: &mut Vec<u8>) -> io::Result<()> {
    let missing = len
        .checked_sub(buf.len())
        .expect("buf holds a prefix of the body");
    buf.reserve(missing.min(MAX_UPFRONT));
    let got = r.by_ref().take(missing as u64).read_to_end(buf)?;
    if got < missing {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame body ended {} bytes short of {len}", missing - got),
        ));
    }
    Ok(())
}

/// Writes one length-prefixed [`Wire`] value. The framing layer is
/// protocol-agnostic: the dist master/worker frames and the serve
/// request/response frames share this exact byte discipline.
pub fn write_wire_frame<W: Write, T: Wire>(w: &mut W, value: &T) -> io::Result<()> {
    let body = encode_value(value);
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {} bytes exceeds MAX_FRAME", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()
}

/// Reads one length-prefixed [`Wire`] value, validating the length cap
/// and the body encoding (trailing bytes inside the body are rejected).
pub fn read_wire_frame<R: Read, T: Wire>(r: &mut R) -> io::Result<T> {
    let mut body = Vec::new();
    read_frame_body(r, &mut body)?;
    decode_value::<T>(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Writes one length-prefixed dist protocol frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    write_wire_frame(w, frame)
}

/// Reads one length-prefixed dist protocol frame, validating the length
/// cap and the body encoding.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
    read_wire_frame(r)
}

/// Reads one length-prefixed frame's raw body into `buf` (cleared and
/// refilled; capacity is kept). This is the pooled path of the dist
/// shuffle: the master reuses one region buffer across supersteps and
/// walks the raw body in place instead of decoding a nested [`Frame`].
pub(crate) fn read_frame_body<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = frame_len(prefix)?;
    buf.clear();
    read_body(r, len, buf)
}

/// Encodes a frame to its on-wire bytes (prefix + body) without writing —
/// used by the master to retain replayable shuffle traffic.
pub fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, frame).expect("Vec writes cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_survive_a_stream() {
        let frames = vec![
            Frame::Open { superstep: 3 },
            Frame::Batch {
                superstep: 3,
                msgs: vec![(0, vec![9, 9]), (7, vec![])],
            },
            Frame::Shutdown,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        // EOF after the last frame.
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn generic_wire_values_survive_a_stream() {
        // The framing layer is not tied to the dist `Frame`: any `Wire`
        // value (here the serve-style string payload) frames identically.
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, &String::from("hello")).unwrap();
        write_wire_frame(&mut buf, &(7u64, vec![1u8, 2, 3])).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_wire_frame::<_, String>(&mut cursor).unwrap(), "hello");
        assert_eq!(
            read_wire_frame::<_, (u64, Vec<u8>)>(&mut cursor).unwrap(),
            (7, vec![1, 2, 3])
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupted_body_reports_wire_offset() {
        let mut buf = frame_bytes(&Frame::Ping { nonce: 1 });
        buf[4] = 0xEE; // frame tag byte, right after the 4-byte prefix
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("byte 0"), "{err}");
    }
}
