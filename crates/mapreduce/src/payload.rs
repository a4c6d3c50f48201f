//! Variable-size gather payloads: flat `(head, &[T])` messages.
//!
//! A driver that gathers a list per message — a sampled vertex with its
//! neighbour list — would pay one `Vec` per message if it shipped
//! `(head, Vec<T>)` tuples through [`crate::cluster::Cluster::gather`].
//! [`crate::cluster::Cluster::gather_payload`] stores them
//! **struct-of-arrays** instead:
//!
//! * [`PayloadSink`] stages one machine's messages as flat columns —
//!   heads, payload lengths, and one flat element arena — either
//!   whole-slice ([`PayloadSink::push_slice`]) or element-by-element
//!   through a [`PayloadSinkWriter`] handle ([`PayloadSink::begin`]), so
//!   a produce closure never materializes a `Vec` per message.
//! * [`PayloadBatch`] is what the central machine receives: every sink
//!   flattened in machine order, each message read back as
//!   `(head, &[T])` with the payload borrowed from the batch's arena.
//!
//! Sink buffers cycle through the cluster's [`RouterScratch`] (heads and
//! elements in the per-type arena pools, lengths in the `usize` pool), so
//! steady-state gathers allocate only the batch they return. Head and
//! element types are `Copy`, which is what lets a sink flatten into the
//! batch by `extend_from_slice` and recycle without drop bookkeeping.

use crate::router::RouterScratch;
use crate::words::WordSized;

/// Per-machine staging buffer for a payload gather: flat columns
/// `heads`/`lens` plus one flat element arena (no destinations —
/// everything goes to the central machine), so staging `k` messages
/// performs no per-message allocation once the pooled columns have
/// warmed up. Drivers fill it with [`PayloadSink::push_slice`] or
/// element-by-element via [`PayloadSink::begin`]. Staged word volume is
/// tracked incrementally: a message costs
/// `head.words() + 1 + Σ element words`, identical to the
/// `(head, Vec<T>)` tuple it stands for.
pub struct PayloadSink<H, T> {
    pub(crate) heads: Vec<H>,
    pub(crate) lens: Vec<usize>,
    pub(crate) elems: Vec<T>,
    words: usize,
}

impl<H: Copy, T: Copy> PayloadSink<H, T> {
    /// An empty sink reusing pooled buffers.
    pub(crate) fn with_buffers(heads: Vec<H>, lens: Vec<usize>, elems: Vec<T>) -> Self {
        debug_assert!(heads.is_empty() && lens.is_empty() && elems.is_empty());
        PayloadSink {
            heads,
            lens,
            elems,
            words: 0,
        }
    }

    /// Stages one message whose payload is already a slice.
    pub fn push_slice(&mut self, head: H, payload: &[T])
    where
        H: WordSized,
        T: WordSized,
    {
        let mut words = head.words() + 1;
        for e in payload {
            words += e.words();
        }
        self.words += words;
        self.heads.push(head);
        self.lens.push(payload.len());
        self.elems.extend_from_slice(payload);
    }

    /// Begins one message; push elements on the returned writer, which
    /// finalizes the message when dropped.
    pub fn begin(&mut self, head: H) -> PayloadSinkWriter<'_, H, T>
    where
        H: WordSized,
        T: WordSized,
    {
        self.words += head.words() + 1;
        self.heads.push(head);
        let start = self.elems.len();
        PayloadSinkWriter { sink: self, start }
    }

    /// Number of staged messages.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True if nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Total staged words (this machine's metered outgoing volume).
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Consumes the sink, returning every (emptied) buffer to the pool.
    pub(crate) fn recycle_into(mut self, scratch: &mut RouterScratch)
    where
        H: Send + 'static,
        T: Send + 'static,
    {
        self.heads.clear();
        self.lens.clear();
        self.elems.clear();
        scratch.put_arena(self.heads);
        scratch.put_usizes(self.lens);
        scratch.put_arena(self.elems);
    }
}

/// In-progress message on a [`PayloadSink`]: push elements, drop to
/// finalize. See [`PayloadSink::begin`].
pub struct PayloadSinkWriter<'s, H, T> {
    sink: &'s mut PayloadSink<H, T>,
    start: usize,
}

impl<H, T: Copy + WordSized> PayloadSinkWriter<'_, H, T> {
    /// Appends one payload element to the message being built.
    pub fn push(&mut self, elem: T) {
        self.sink.words += elem.words();
        self.sink.elems.push(elem);
    }
}

impl<H, T> Drop for PayloadSinkWriter<'_, H, T> {
    fn drop(&mut self) {
        self.sink.lens.push(self.sink.elems.len() - self.start);
    }
}

/// The centrally gathered result of a payload gather: every machine's
/// staged messages flattened in machine order, stored flat
/// (heads/spans/element arena) and read back as `(head, &[T])`.
pub struct PayloadBatch<H, T> {
    heads: Vec<H>,
    spans: Vec<(usize, usize)>,
    elems: Vec<T>,
}

impl<H, T> Default for PayloadBatch<H, T> {
    fn default() -> Self {
        PayloadBatch {
            heads: Vec::new(),
            spans: Vec::new(),
            elems: Vec::new(),
        }
    }
}

impl<H: Copy, T: Copy> PayloadBatch<H, T> {
    /// Appends a machine's sink contents (already in that machine's send
    /// order), leaving the sink empty for recycling.
    pub(crate) fn append_sink(&mut self, sink: &mut PayloadSink<H, T>) {
        let mut off = self.elems.len();
        self.heads.extend_from_slice(&sink.heads);
        self.elems.extend_from_slice(&sink.elems);
        for &len in &sink.lens {
            self.spans.push((off, len));
            off += len;
        }
        sink.heads.clear();
        sink.lens.clear();
        sink.elems.clear();
        sink.words = 0;
    }

    /// Number of gathered messages.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when nothing was gathered.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The `i`-th message's head.
    pub fn head(&self, i: usize) -> H {
        self.heads[i]
    }

    /// The `i`-th message's payload.
    pub fn payload(&self, i: usize) -> &[T] {
        let (off, len) = self.spans[i];
        &self.elems[off..off + len]
    }

    /// The `i`-th message.
    pub fn get(&self, i: usize) -> (H, &[T]) {
        (self.head(i), self.payload(i))
    }

    /// Iterates the messages in gathered (machine id, send) order.
    pub fn iter(&self) -> impl Iterator<Item = (H, &[T])> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_flattens_into_batch_in_machine_order() {
        let mut batch = PayloadBatch::default();
        let mut s0: PayloadSink<u32, u64> =
            PayloadSink::with_buffers(Vec::new(), Vec::new(), Vec::new());
        s0.push_slice(1, &[100]);
        {
            let mut w = s0.begin(2);
            w.push(200);
            w.push(201);
        }
        assert_eq!(s0.words(), (1 + 1 + 1) + (1 + 1 + 2));
        let mut s1: PayloadSink<u32, u64> =
            PayloadSink::with_buffers(Vec::new(), Vec::new(), Vec::new());
        s1.push_slice(3, &[]);
        batch.append_sink(&mut s0);
        batch.append_sink(&mut s1);
        assert!(s0.is_empty() && s1.is_empty());
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(0), (1, &[100u64][..]));
        assert_eq!(batch.get(1), (2, &[200, 201][..]));
        assert_eq!(batch.get(2), (3, &[][..]));
        assert_eq!(batch.iter().count(), 3);
    }
}
