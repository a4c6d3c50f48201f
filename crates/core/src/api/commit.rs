//! Hashed witness commitments: a compact, tamper-evident stand-in for the
//! `O(m)`-scale witness transcripts that [`super::Witness`] otherwise
//! embeds in every report.
//!
//! At out-of-core scale the local-ratio stack (`matching`, `b-matching`)
//! and the LP dual (the cover family) are the only report components that
//! grow with the instance. Shipping them inline breaks the paper's memory
//! regime at the report's reader, who would hold `Θ(n^{1+µ})` words. A
//! *commitment* fixes this asymmetry:
//!
//! * the transcript is split into fixed-size **chunks** of `(id, value)`
//!   entries;
//! * each chunk hashes to a **leaf** digest; leaves are padded to the next
//!   power of two and folded pairwise into a Merkle **root**;
//! * the root is bound to the transcript's shape — kind, entry count,
//!   chunk length — so none of those can be reinterpreted after the fact;
//! * the report carries only [`Witness::Committed`] (a few words), while
//!   the full transcript travels in a line-oriented **sidecar** file that
//!   also records each chunk's **authentication path** (the sibling
//!   digests from its leaf to the root).
//!
//! `mrlr verify --witness <sidecar>` can then either reconstruct the full
//! witness (authenticating every chunk) and run the ordinary audit, or
//! spot-check any single chunk in `O(chunk_len + log #chunks)` work via
//! its authentication path — without reading the rest of the transcript.
//!
//! The digest is a hand-rolled 256-bit ARX sponge (the offline build has
//! no hashing crates). It is **tamper-evident, not cryptographic**: it
//! detects corruption, truncation and accidental or casual modification
//! of a stored transcript, exactly what a reproducibility artifact needs;
//! it makes no claim against an adversary searching for collisions.
//!
//! ## Worked example
//!
//! A 5-entry stack committed with `chunk_len = 2` yields chunks
//! `{0: 2 entries, 1: 2 entries, 2: 1 entry}`, padded to 4 leaves
//! `L0..L3` (`L3` the pad digest). The tree is
//! `root* = H(H(L0, L1), H(L2, L3))`, and the committed root is
//! `H_bind("stack", 5, 2, root*)`. Chunk 2's authentication path is
//! `[L3, H(L0, L1)]`: the verifier recomputes `L2` from the chunk's
//! entries, folds `H(H(L2, L3))` — direction chosen by the bits of the
//! chunk index — re-binds, and compares against the committed root.

use super::witness::{audit, AuditError, Claims};
use super::{Instance, Solution, Witness};

// ------------------------------------------------------------------ digest

/// A 256-bit digest, rendered as 64 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub [u64; 4]);

impl Digest {
    /// Parses the 64-hex-digit rendering back. `None` on any malformation.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 64 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut out = [0u64; 4];
        for (i, word) in out.iter_mut().enumerate() {
            *word = u64::from_str_radix(&s[16 * i..16 * (i + 1)], 16).ok()?;
        }
        Some(Digest(out))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for w in self.0 {
            write!(f, "{w:016x}")?;
        }
        Ok(())
    }
}

// Domain-separation tags (ASCII mnemonics): a leaf can never collide with
// an interior node, a pad, the empty tree or the binding wrapper.
const TAG_LEAF: u64 = 0x6d72_6c72_6c65_6166; // "mrlr leaf"
const TAG_NODE: u64 = 0x6d72_6c72_6e6f_6465; // "mrlr node"
const TAG_PAD: u64 = 0x6d72_6c72_0070_6164; // "mrlr pad"
const TAG_EMPTY: u64 = 0x6d72_6c72_656d_7074; // "mrlr empt"
const TAG_ROOT: u64 = 0x6d72_6c72_726f_6f74; // "mrlr root"

/// The sponge: rate one 64-bit word, capacity three, permuted after every
/// absorbed word with four double-rounds of an add-rotate-xor mix.
pub struct Hasher {
    state: [u64; 4],
}

impl Hasher {
    /// A fresh sponge, domain-separated by `tag`.
    pub fn new(tag: u64) -> Hasher {
        let mut h = Hasher {
            // Arbitrary odd constants (splitmix / Weyl increments).
            state: [
                tag ^ 0x9e37_79b9_7f4a_7c15,
                0xbf58_476d_1ce4_e5b9,
                0x94d0_49bb_1331_11eb,
                0x2545_f491_4f6c_dd1d,
            ],
        };
        h.permute();
        h
    }

    fn permute(&mut self) {
        // First 256 fractional bits of π as round constants.
        const RC: [u64; 4] = [
            0x243f_6a88_85a3_08d3,
            0x1319_8a2e_0370_7344,
            0xa409_3822_299f_31d0,
            0x082e_fa98_ec4e_6c89,
        ];
        let [mut a, mut b, mut c, mut d] = self.state;
        for rc in RC {
            a = a.wrapping_add(b);
            d = (d ^ a).rotate_left(32);
            c = c.wrapping_add(d);
            b = (b ^ c).rotate_left(24);
            a = a.wrapping_add(b);
            d = (d ^ a).rotate_left(16);
            c = c.wrapping_add(d);
            b = (b ^ c).rotate_left(63);
            a ^= rc;
        }
        self.state = [a, b, c, d];
    }

    /// Absorbs one word.
    pub fn write_u64(&mut self, w: u64) {
        self.state[0] ^= w;
        self.permute();
    }

    /// Absorbs a float by its exact bit pattern.
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    /// Absorbs a byte string, length-prefixed (so `"ab" ++ "c"` and
    /// `"a" ++ "bc"` digest differently).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    /// Absorbs a whole digest (for interior tree nodes).
    pub fn write_digest(&mut self, d: &Digest) {
        for &w in &d.0 {
            self.write_u64(w);
        }
    }

    /// Final padding + extraction.
    pub fn finish(mut self) -> Digest {
        self.state[3] ^= 0x6d72_6c72_6669_6e69; // "mrlr fini"
        self.permute();
        self.permute();
        Digest(self.state)
    }
}

// -------------------------------------------------------------------- tree

/// Number of chunks a transcript of `entries` entries splits into under
/// `chunk_len` (the last chunk may be shorter; zero entries → zero chunks).
pub fn chunk_count(entries: usize, chunk_len: usize) -> usize {
    entries.div_ceil(chunk_len)
}

/// Entries in chunk `index` of a transcript of `entries` total.
fn chunk_entries(entries: usize, chunk_len: usize, index: usize) -> usize {
    (entries - index * chunk_len).min(chunk_len)
}

/// Depth of the padded Merkle tree over `num_chunks` leaves — the length
/// of every authentication path.
pub fn tree_depth(num_chunks: usize) -> usize {
    // ⌈log2 num_chunks⌉, without rounding up to a power of two first:
    // that overflows past 2^63 chunks, which a hostile header may claim.
    (usize::BITS - num_chunks.saturating_sub(1).leading_zeros()) as usize
}

fn leaf_hash(index: usize, entries: &[(u32, f64)]) -> Digest {
    let mut h = Hasher::new(TAG_LEAF);
    h.write_u64(index as u64);
    h.write_u64(entries.len() as u64);
    for &(id, x) in entries {
        h.write_u64(id as u64);
        h.write_f64(x);
    }
    h.finish()
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Hasher::new(TAG_NODE);
    h.write_digest(left);
    h.write_digest(right);
    h.finish()
}

fn pad_leaf() -> Digest {
    Hasher::new(TAG_PAD).finish()
}

fn empty_tree() -> Digest {
    Hasher::new(TAG_EMPTY).finish()
}

/// Binds the bare tree root to the transcript's shape, yielding the
/// committed root: reinterpreting the same tree under a different kind,
/// entry count or chunk length changes the digest.
fn bind_root(of: &str, entries: usize, chunk_len: usize, tree_root: &Digest) -> Digest {
    let mut h = Hasher::new(TAG_ROOT);
    h.write_bytes(of.as_bytes());
    h.write_u64(entries as u64);
    h.write_u64(chunk_len as u64);
    h.write_digest(tree_root);
    h.finish()
}

/// Merkle root + per-leaf authentication paths (sibling digests, leaf
/// level first; fold direction comes from the leaf index's bits).
fn tree_root_and_paths(leaves: &[Digest]) -> (Digest, Vec<Vec<Digest>>) {
    if leaves.is_empty() {
        return (empty_tree(), Vec::new());
    }
    let width = leaves.len().next_power_of_two();
    let mut level: Vec<Digest> = leaves.to_vec();
    level.resize(width, pad_leaf());
    let mut paths: Vec<Vec<Digest>> = vec![Vec::new(); leaves.len()];
    let mut pos: Vec<usize> = (0..leaves.len()).collect();
    while level.len() > 1 {
        for (path, p) in paths.iter_mut().zip(pos.iter_mut()) {
            path.push(level[*p ^ 1]);
            *p >>= 1;
        }
        level = level
            .chunks(2)
            .map(|pair| node_hash(&pair[0], &pair[1]))
            .collect();
    }
    (level[0], paths)
}

// ------------------------------------------------------------- commitment

/// A committed witness plus its sidecar transcript text — what
/// `mrlr solve --certificates committed` writes to the report and the
/// `--witness-out` file respectively.
#[derive(Debug, Clone)]
pub struct Commitment {
    /// The [`Witness::Committed`] stand-in to embed in the report.
    pub witness: Witness,
    /// The sidecar transcript (line-oriented; format in the module docs).
    pub transcript: String,
}

/// Transcript kinds that can be committed: the two witness families whose
/// size grows with the instance.
fn committable_pairs(w: &Witness) -> Option<(&'static str, &[(u32, f64)])> {
    match w {
        Witness::CoverDual { dual } => Some(("cover-dual", dual)),
        Witness::Stack { stack } => Some(("stack", stack)),
        _ => None,
    }
}

/// Commits `witness` under `chunk_len`: returns the compact
/// [`Witness::Committed`] and the sidecar transcript. Errors if the
/// witness kind has no transcript to commit (maximality / properness
/// witnesses are already `O(n)` and stay inline) or `chunk_len` is zero.
pub fn commit_witness(witness: &Witness, chunk_len: usize) -> Result<Commitment, AuditError> {
    if chunk_len == 0 {
        return Err(AuditError::new(
            "witness.committed.chunk_len",
            "chunk length must be positive",
        ));
    }
    let Some((of, pairs)) = committable_pairs(witness) else {
        return Err(AuditError::new(
            "witness",
            format!(
                "a {} witness has no transcript to commit — only stack and cover-dual \
                 witnesses support `--certificates committed`",
                witness.kind()
            ),
        ));
    };
    let leaves: Vec<Digest> = pairs
        .chunks(chunk_len)
        .enumerate()
        .map(|(i, c)| leaf_hash(i, c))
        .collect();
    let (tree_root, paths) = tree_root_and_paths(&leaves);
    let root = bind_root(of, pairs.len(), chunk_len, &tree_root);
    let transcript = render_transcript(of, pairs, chunk_len, &root, &paths);
    Ok(Commitment {
        witness: Witness::Committed {
            of: of.to_string(),
            entries: pairs.len(),
            chunk_len,
            root,
        },
        transcript,
    })
}

/// Renders the sidecar transcript:
///
/// ```text
/// mrlr-commit v1 <of> <entries> <chunk_len> <root-hex>
/// chunk 0 <sibling-hex> <sibling-hex> …
/// <id> <value>
/// <id> <value>
/// chunk 1 …
/// ```
///
/// Entry lines belong to the preceding `chunk` line; values use the `{:?}`
/// float rendering, so a parsed transcript is bit-identical to the
/// committed one.
fn render_transcript(
    of: &str,
    pairs: &[(u32, f64)],
    chunk_len: usize,
    root: &Digest,
    paths: &[Vec<Digest>],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mrlr-commit v1 {of} {} {chunk_len} {root}",
        pairs.len()
    );
    for (i, chunk) in pairs.chunks(chunk_len).enumerate() {
        let _ = write!(out, "chunk {i}");
        for sib in &paths[i] {
            let _ = write!(out, " {sib}");
        }
        out.push('\n');
        for &(id, x) in chunk {
            let _ = writeln!(out, "{id} {x:?}");
        }
    }
    out
}

// ------------------------------------------------------------- transcript

/// One parsed chunk of a sidecar transcript.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// The chunk's index as recorded in the file.
    pub index: usize,
    /// Sibling digests from leaf to root.
    pub auth: Vec<Digest>,
    /// The chunk's `(id, value)` entries.
    pub entries: Vec<(u32, f64)>,
}

/// A parsed sidecar transcript (header + chunks, in file order).
#[derive(Debug, Clone, PartialEq)]
pub struct Transcript {
    /// Underlying witness kind (`stack` or `cover-dual`).
    pub of: String,
    /// Total entry count the header claims.
    pub entries: usize,
    /// Chunk length the header claims.
    pub chunk_len: usize,
    /// Committed root the header claims.
    pub root: Digest,
    /// The chunks, in file order (audited for contiguity separately).
    pub chunks: Vec<Chunk>,
}

fn terr(location: String, line: usize, what: impl std::fmt::Display) -> AuditError {
    AuditError::new(location, format!("line {line}: {what}"))
}

/// Parses a sidecar transcript. Errors carry a dotted location
/// (`transcript` for the header, `transcript.chunk[i]` for chunk `i`) and
/// the 1-based line number in the message.
pub fn parse_transcript(text: &str) -> Result<Transcript, AuditError> {
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(AuditError::new("transcript", "empty transcript file"));
    };
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() != 6 || head[0] != "mrlr-commit" || head[1] != "v1" {
        return Err(terr(
            "transcript".into(),
            1,
            "header must be `mrlr-commit v1 <of> <entries> <chunk_len> <root>`",
        ));
    }
    let of = head[2].to_string();
    let entries: usize = head[3]
        .parse()
        .map_err(|_| terr("transcript".into(), 1, "bad entry count in header"))?;
    let chunk_len: usize = head[4]
        .parse()
        .map_err(|_| terr("transcript".into(), 1, "bad chunk length in header"))?;
    if chunk_len == 0 {
        return Err(terr(
            "transcript".into(),
            1,
            "chunk length must be positive",
        ));
    }
    let root = Digest::from_hex(head[5])
        .ok_or_else(|| terr("transcript".into(), 1, "bad root digest in header"))?;

    let mut chunks: Vec<Chunk> = Vec::new();
    for (lineno, line) in lines {
        let line_no = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("chunk ") {
            let mut toks = rest.split_whitespace();
            let loc = format!("transcript.chunk[{}]", chunks.len());
            let index: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| terr(loc.clone(), line_no, "bad chunk index"))?;
            let auth = toks
                .map(|t| {
                    Digest::from_hex(t).ok_or_else(|| {
                        terr(
                            format!("transcript.chunk[{index}]"),
                            line_no,
                            "bad digest in authentication path",
                        )
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            chunks.push(Chunk {
                index,
                auth,
                entries: Vec::new(),
            });
        } else {
            let Some(chunk) = chunks.last_mut() else {
                return Err(terr(
                    "transcript".into(),
                    line_no,
                    "entry line before the first `chunk` line",
                ));
            };
            let loc = || format!("transcript.chunk[{}]", chunk.index);
            let mut toks = line.split_whitespace();
            let id: u32 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| terr(loc(), line_no, "bad entry id"))?;
            let x: f64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| terr(loc(), line_no, "bad entry value"))?;
            if toks.next().is_some() {
                return Err(terr(loc(), line_no, "trailing tokens on entry line"));
            }
            chunk.entries.push((id, x));
        }
    }
    Ok(Transcript {
        of,
        entries,
        chunk_len,
        root,
        chunks,
    })
}

// ------------------------------------------------------------------ audit

/// The shape parameters of a [`Witness::Committed`], destructured.
fn committed_parts(w: &Witness) -> Result<(&str, usize, usize, &Digest), AuditError> {
    match w {
        Witness::Committed {
            of,
            entries,
            chunk_len,
            root,
        } => Ok((of, *entries, *chunk_len, root)),
        other => Err(AuditError::new(
            "witness",
            format!("expected a committed witness, found {}", other.kind()),
        )),
    }
}

/// Authenticates one parsed chunk against the committed shape and root:
/// index in range, entry count exactly what the shape dictates,
/// authentication path of exactly tree depth, and the folded + re-bound
/// digest equal to the committed root.
pub fn verify_chunk(
    of: &str,
    entries: usize,
    chunk_len: usize,
    root: &Digest,
    chunk: &Chunk,
) -> Result<(), AuditError> {
    let num_chunks = chunk_count(entries, chunk_len);
    let loc = || format!("transcript.chunk[{}]", chunk.index);
    if chunk.index >= num_chunks {
        return Err(AuditError::new(
            loc(),
            format!("chunk index out of range: the commitment has {num_chunks} chunks"),
        ));
    }
    let expected = chunk_entries(entries, chunk_len, chunk.index);
    if chunk.entries.len() != expected {
        return Err(AuditError::new(
            loc(),
            format!(
                "chunk carries {} entries, the commitment dictates {expected}",
                chunk.entries.len()
            ),
        ));
    }
    let depth = tree_depth(num_chunks);
    if chunk.auth.len() != depth {
        return Err(AuditError::new(
            loc(),
            format!(
                "authentication path has {} digests, tree depth is {depth}",
                chunk.auth.len()
            ),
        ));
    }
    let mut node = leaf_hash(chunk.index, &chunk.entries);
    let mut pos = chunk.index;
    for sib in &chunk.auth {
        node = if pos & 1 == 0 {
            node_hash(&node, sib)
        } else {
            node_hash(sib, &node)
        };
        pos >>= 1;
    }
    if bind_root(of, entries, chunk_len, &node) != *root {
        return Err(AuditError::new(
            loc(),
            "chunk does not authenticate against the committed root",
        ));
    }
    Ok(())
}

/// Checks a parsed transcript's header against the committed witness it
/// claims to open.
fn check_header(
    of: &str,
    entries: usize,
    chunk_len: usize,
    root: &Digest,
    t: &Transcript,
) -> Result<(), AuditError> {
    if t.of != of || t.entries != entries || t.chunk_len != chunk_len {
        return Err(AuditError::new(
            "transcript",
            format!(
                "header shape ({} × {} entries, chunk length {}) does not match the \
                 committed witness ({of} × {entries} entries, chunk length {chunk_len})",
                t.of, t.entries, t.chunk_len
            ),
        ));
    }
    if t.root != *root {
        return Err(AuditError::new(
            "transcript",
            format!(
                "header root {} does not match the committed root {root}",
                t.root
            ),
        ));
    }
    Ok(())
}

/// Reconstructs the full underlying witness from a committed witness and
/// its sidecar transcript text, authenticating **every** chunk: header
/// shape and root must match, chunk indexes must be exactly
/// `0..chunk_count` in order, and each chunk must fold to the committed
/// root through its authentication path.
pub fn open_witness(committed: &Witness, transcript: &str) -> Result<Witness, AuditError> {
    let (of, entries, chunk_len, root) = committed_parts(committed)?;
    let t = parse_transcript(transcript)?;
    check_header(of, entries, chunk_len, root, &t)?;
    let num_chunks = chunk_count(entries, chunk_len);
    if t.chunks.len() != num_chunks {
        return Err(AuditError::new(
            "transcript",
            format!(
                "transcript carries {} chunks, the commitment has {num_chunks}",
                t.chunks.len()
            ),
        ));
    }
    // Reserve for the entries the transcript carries, not the header's
    // claim: a chunk is checked against that claim only below.
    let carried = t.chunks.iter().map(|c| c.entries.len()).sum();
    let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(carried);
    for (want, chunk) in t.chunks.iter().enumerate() {
        if chunk.index != want {
            return Err(AuditError::new(
                format!("transcript.chunk[{}]", chunk.index),
                format!("expected chunk {want} at this position — chunks dropped or reordered"),
            ));
        }
        verify_chunk(of, entries, chunk_len, root, chunk)?;
        pairs.extend_from_slice(&chunk.entries);
    }
    match of {
        "cover-dual" => Ok(Witness::CoverDual { dual: pairs }),
        "stack" => Ok(Witness::Stack { stack: pairs }),
        other => Err(AuditError::new(
            "witness.committed.of",
            format!("unknown committed witness kind `{other}`"),
        )),
    }
}

/// Audits a single chunk of a committed witness: finds chunk `index` in
/// the transcript and authenticates it against the committed root without
/// touching the other chunks. Returns a human-readable check line.
pub fn audit_chunk(
    committed: &Witness,
    transcript: &str,
    index: usize,
) -> Result<String, AuditError> {
    let (of, entries, chunk_len, root) = committed_parts(committed)?;
    let t = parse_transcript(transcript)?;
    check_header(of, entries, chunk_len, root, &t)?;
    let Some(chunk) = t.chunks.iter().find(|c| c.index == index) else {
        return Err(AuditError::new(
            format!("transcript.chunk[{index}]"),
            format!(
                "chunk {index} not present in the transcript ({} chunks committed)",
                chunk_count(entries, chunk_len)
            ),
        ));
    };
    verify_chunk(of, entries, chunk_len, root, chunk)?;
    Ok(format!(
        "chunk {index}: {} entries authenticated against root {root} \
         (path of {} digests)",
        chunk.entries.len(),
        chunk.auth.len()
    ))
}

/// The committed-witness analogue of [`audit`]: opens the commitment
/// (authenticating every chunk), then runs the full ordinary audit on the
/// reconstructed witness. The returned check list is the ordinary audit's,
/// prefixed with the commitment check.
pub fn audit_committed(
    instance: &Instance,
    algorithm: &str,
    solution: &Solution,
    claims: &Claims,
    committed: &Witness,
    transcript: &str,
) -> Result<Vec<String>, AuditError> {
    let (of, entries, chunk_len, root) = committed_parts(committed)?;
    let opened = open_witness(committed, transcript)?;
    let mut checks = vec![format!(
        "commitment: {entries} {of} entries in {} chunks (length {chunk_len}) \
         authenticated against root {root}",
        chunk_count(entries, chunk_len)
    )];
    checks.extend(audit(instance, algorithm, solution, claims, &opened)?);
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_witness(n: usize) -> Witness {
        Witness::Stack {
            stack: (0..n as u32).map(|e| (e, 0.5 + e as f64 * 0.25)).collect(),
        }
    }

    #[test]
    fn digest_hex_round_trips() {
        let d = Hasher::new(TAG_LEAF).finish();
        let hex = d.to_string();
        assert_eq!(hex.len(), 64);
        assert_eq!(Digest::from_hex(&hex), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&hex[..63]), None);
    }

    #[test]
    fn digest_is_sensitive_and_deterministic() {
        let h = |pairs: &[(u32, f64)]| leaf_hash(0, pairs);
        let base = h(&[(1, 2.0), (3, 4.0)]);
        assert_eq!(base, h(&[(1, 2.0), (3, 4.0)]), "deterministic");
        assert_ne!(base, h(&[(1, 2.0), (3, 4.000000001)]));
        assert_ne!(base, h(&[(3, 4.0), (1, 2.0)]), "order matters");
        assert_ne!(base, h(&[(1, 2.0)]), "length matters");
        assert_ne!(base, leaf_hash(1, &[(1, 2.0), (3, 4.0)]), "index matters");
    }

    #[test]
    fn commit_and_open_round_trip() {
        for n in [0usize, 1, 2, 3, 5, 8, 17] {
            for chunk_len in [1usize, 2, 3, 7, 64] {
                let w = stack_witness(n);
                let c = commit_witness(&w, chunk_len).unwrap();
                let Witness::Committed { entries, .. } = &c.witness else {
                    panic!("commit must yield a committed witness")
                };
                assert_eq!(*entries, n);
                let opened = open_witness(&c.witness, &c.transcript)
                    .unwrap_or_else(|e| panic!("n={n} chunk_len={chunk_len}: {e}"));
                assert_eq!(opened, w, "n={n} chunk_len={chunk_len}");
            }
        }
    }

    #[test]
    fn every_chunk_audits_individually() {
        let w = stack_witness(11);
        let c = commit_witness(&w, 3).unwrap();
        for k in 0..chunk_count(11, 3) {
            let line = audit_chunk(&c.witness, &c.transcript, k).unwrap();
            assert!(line.contains(&format!("chunk {k}")), "{line}");
        }
        let err = audit_chunk(&c.witness, &c.transcript, 99).unwrap_err();
        assert!(err.location.contains("chunk[99]"), "{err}");
    }

    #[test]
    fn shape_is_bound_into_the_root() {
        // Same entries, different chunk length → different root.
        let w = stack_witness(8);
        let a = commit_witness(&w, 2).unwrap();
        let b = commit_witness(&w, 4).unwrap();
        let root = |c: &Commitment| match &c.witness {
            Witness::Committed { root, .. } => *root,
            _ => unreachable!(),
        };
        assert_ne!(root(&a), root(&b));
        // Same pairs as a dual → different root (kind is bound).
        let Witness::Stack { stack } = &w else {
            unreachable!()
        };
        let dual = Witness::CoverDual {
            dual: stack.clone(),
        };
        assert_ne!(root(&a), root(&commit_witness(&dual, 2).unwrap()));
    }

    #[test]
    fn uncommittable_witnesses_are_rejected() {
        let err = commit_witness(&Witness::Maximality { blockers: vec![] }, 4).unwrap_err();
        assert!(err.message.contains("maximality"), "{err}");
        let err = commit_witness(&stack_witness(3), 0).unwrap_err();
        assert!(err.location.contains("chunk_len"), "{err}");
    }
}
