//! The variable-size payload plane: flat `(head, &[T])` messages.
//!
//! A driver that ships a list per message — a neighbour list, a
//! forwarding set — would pay one `Vec` per message at every layer if it
//! sent `(head, Vec<T>)` tuples through [`crate::router`]: the produce
//! closure allocates it, the router moves it, the dist wire re-encodes
//! it, and the consume pass drops it. This module stores variable-size
//! payloads **struct-of-arrays** instead:
//!
//! * [`PayloadOutbox`] stages messages as four flat columns — heads,
//!   destinations, payload lengths, and one flat element arena — either
//!   whole-slice ([`PayloadOutbox::send`]) or element-by-element through
//!   a [`PayloadWriter`] handle ([`PayloadOutbox::push_payload`]), so a
//!   produce closure never materializes a `Vec` per message.
//! * `route_payload` delivers with the same stable counting sort as the
//!   fixed-size plane, except the prefix sums run over *two* axes
//!   (message slots and element slots): each message lands as an
//!   `(offset, len)` span in one pooled element arena, and element data
//!   is moved exactly once, by block `copy_nonoverlapping` — never
//!   touched twice.
//! * [`PayloadInbox`] reads messages back as `(head, &[T])` with the
//!   payload **borrowed zero-copy from the arena**, in the same
//!   `(sender id, send order)` order the fixed-size plane guarantees.
//!
//! All buffers cycle through the cluster's [`RouterScratch`] exactly
//! like the fixed-size path: heads and element arenas share the
//! per-type pools, length/span columns share the `usize`/range pools,
//! so steady-state supersteps allocate nothing. The unit tests check
//! delivery against `route_payload_merge`, a test-only oracle that
//! builds genuinely nested `Vec<(H, Vec<T>)>` inboxes with no arena or
//! counting sort.
//!
//! Head and element types are `Copy`: that is what lets the scatter be
//! a raw block copy, the inbox a borrowing view, and the arenas
//! recyclable without drop bookkeeping. Every message type the registry
//! drivers ship (vertex ids, scalar tuples) already is.

use crate::executor::RawSlots;
use crate::router::RouterScratch;
use crate::shard::MachineId;
use crate::superstep::Scheduler;
use crate::words::WordSized;

/// Outgoing variable-size messages staged by one machine: flat columns
/// `heads`/`dsts`/`lens` plus one flat element arena, so staging `k`
/// messages performs zero per-message allocations once the pooled
/// columns have warmed up. Staged word volume is tracked incrementally
/// (a message costs `head.words() + 1 + Σ element words` — identical to
/// the `(head, Vec<T>)` tuple it replaces).
#[derive(Debug)]
pub struct PayloadOutbox<H, T> {
    machines: usize,
    pub(crate) heads: Vec<H>,
    pub(crate) dsts: Vec<MachineId>,
    pub(crate) lens: Vec<usize>,
    pub(crate) elems: Vec<T>,
    staged_words: usize,
}

impl<H: Copy, T: Copy> PayloadOutbox<H, T> {
    /// An empty outbox addressing `machines` destinations (tests stage
    /// outboxes directly; the cluster always supplies pooled buffers).
    #[cfg(test)]
    pub(crate) fn new(machines: usize) -> Self {
        PayloadOutbox::with_buffers(machines, Vec::new(), Vec::new(), Vec::new(), Vec::new())
    }

    /// An empty outbox reusing pooled column buffers.
    pub(crate) fn with_buffers(
        machines: usize,
        heads: Vec<H>,
        dsts: Vec<MachineId>,
        lens: Vec<usize>,
        elems: Vec<T>,
    ) -> Self {
        debug_assert!(heads.is_empty() && dsts.is_empty() && lens.is_empty() && elems.is_empty());
        PayloadOutbox {
            machines,
            heads,
            dsts,
            lens,
            elems,
            staged_words: 0,
        }
    }

    /// Stages one message whose payload is already a slice.
    pub fn send(&mut self, dst: MachineId, head: H, payload: &[T])
    where
        H: WordSized,
        T: WordSized,
    {
        assert!(dst < self.machines, "destination {dst} out of range");
        let mut words = head.words() + 1;
        for e in payload {
            words += e.words();
        }
        self.staged_words += words;
        self.heads.push(head);
        self.dsts.push(dst);
        self.lens.push(payload.len());
        self.elems.extend_from_slice(payload);
    }

    /// Begins one message and returns a writer that appends payload
    /// elements straight into the flat arena — the zero-alloc way to
    /// build a payload by filtering or transforming a source in place.
    /// The message is finalized (its length recorded) when the writer
    /// drops.
    pub fn push_payload(&mut self, dst: MachineId, head: H) -> PayloadWriter<'_, H, T>
    where
        H: WordSized,
        T: WordSized,
    {
        assert!(dst < self.machines, "destination {dst} out of range");
        self.staged_words += head.words() + 1;
        self.heads.push(head);
        self.dsts.push(dst);
        let start = self.elems.len();
        PayloadWriter {
            outbox: self,
            start,
        }
    }

    /// Number of staged messages.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True if nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Total staged payload elements across all messages.
    pub fn total_elems(&self) -> usize {
        self.elems.len()
    }

    /// Total staged words (the sender's metered outgoing volume).
    pub(crate) fn staged_words(&self) -> usize {
        self.staged_words
    }

    /// Empties the columns in place (capacity intact).
    fn clear(&mut self) {
        self.heads.clear();
        self.dsts.clear();
        self.lens.clear();
        self.elems.clear();
        self.staged_words = 0;
    }

    /// Consumes the outbox, returning every (emptied) buffer to the
    /// pool.
    pub(crate) fn recycle_into(mut self, scratch: &mut RouterScratch)
    where
        H: Send + 'static,
        T: Send + 'static,
    {
        self.clear();
        scratch.put_columns::<H>((self.heads, self.dsts));
        scratch.put_usizes(self.lens);
        scratch.put_arena(self.elems);
    }
}

/// In-progress message on a [`PayloadOutbox`]: push elements, drop to
/// finalize. See [`PayloadOutbox::push_payload`].
pub struct PayloadWriter<'o, H, T> {
    outbox: &'o mut PayloadOutbox<H, T>,
    start: usize,
}

impl<H, T: Copy + WordSized> PayloadWriter<'_, H, T> {
    /// Appends one payload element to the message being built.
    pub fn push(&mut self, elem: T) {
        self.outbox.staged_words += elem.words();
        self.outbox.elems.push(elem);
    }
}

impl<H, T> Drop for PayloadWriter<'_, H, T> {
    fn drop(&mut self) {
        self.outbox.lens.push(self.outbox.elems.len() - self.start);
    }
}

/// Owned nested inboxes: what the test oracle builds and
/// [`PayloadDelivery::nested`] materializes.
#[cfg(test)]
pub(crate) type NestedInboxes<H, T> = Vec<Vec<(H, Vec<T>)>>;

/// Delivered variable-size messages for one exchange round, as flat
/// columns: destination `d` owns messages
/// `ranges[d].0 .. ranges[d].0 + ranges[d].1`, and message `i` owns
/// elements `elems[spans[i].0 ..][.. spans[i].1]`. Read back through
/// [`PayloadInbox`] views.
pub(crate) struct PayloadDelivery<H, T> {
    heads: Vec<H>,
    spans: Vec<(usize, usize)>,
    elems: Vec<T>,
    ranges: Vec<(usize, usize)>,
    in_words: Vec<usize>,
}

impl<H: Copy, T: Copy> PayloadDelivery<H, T> {
    /// Wraps flat columns ([`route_payload`] scatters into them; the dist
    /// shuffle decodes wire payloads straight into them). Every range
    /// must lie inside `heads`/`spans` and every span inside `elems` —
    /// [`PayloadDelivery::into_inboxes`] hands out raw views that rely
    /// on it.
    pub(crate) fn from_flat(
        heads: Vec<H>,
        spans: Vec<(usize, usize)>,
        elems: Vec<T>,
        ranges: Vec<(usize, usize)>,
        in_words: Vec<usize>,
    ) -> Self {
        debug_assert_eq!(heads.len(), spans.len());
        debug_assert_eq!(ranges.len(), in_words.len());
        debug_assert!(ranges.iter().all(|&(off, n)| off + n <= heads.len()));
        debug_assert!(spans.iter().all(|&(off, n)| off + n <= elems.len()));
        PayloadDelivery {
            heads,
            spans,
            elems,
            ranges,
            in_words,
        }
    }

    /// Words received per destination.
    pub(crate) fn in_words(&self) -> &[usize] {
        &self.in_words
    }

    /// Splits the delivery into one [`PayloadInbox`] per destination
    /// plus the buffers backing them.
    ///
    /// # Safety
    ///
    /// The inboxes borrow straight out of the returned
    /// [`PayloadDeliveryBuffers`]' arenas; the caller must keep the
    /// buffers alive until every inbox has been dropped (and only then
    /// recycle them).
    pub(crate) unsafe fn into_inboxes(
        self,
    ) -> (Vec<PayloadInbox<H, T>>, PayloadDeliveryBuffers<H, T>) {
        // Unlike the fixed-size arena (whose elements move out by value),
        // payload inboxes only *read*: `Copy` heads and elements stay in
        // the arenas, which keep their length until the recycle clears
        // them.
        let views = self
            .ranges
            .iter()
            // SAFETY: every range lies inside `heads`/`spans` and every
            // span inside `elems` (`from_flat`'s contract); moving the
            // `Vec`s into the buffers below does not move their heap
            // allocations, which the caller keeps alive.
            .map(|&(off, count)| unsafe {
                PayloadInbox::raw(
                    self.heads.as_ptr().add(off),
                    self.spans.as_ptr().add(off),
                    self.elems.as_ptr(),
                    count,
                )
            })
            .collect();
        (views, PayloadDeliveryBuffers(self))
    }

    /// Materializes every inbox as owned nested data — test-only view
    /// for comparing against the oracle.
    #[cfg(test)]
    pub(crate) fn nested(&self) -> NestedInboxes<H, T> {
        self.ranges
            .iter()
            .map(|&(off, count)| {
                (off..off + count)
                    .map(|i| {
                        let (eoff, len) = self.spans[i];
                        (self.heads[i], self.elems[eoff..eoff + len].to_vec())
                    })
                    .collect()
            })
            .collect()
    }
}

/// The buffers backing a round's [`PayloadInbox`]es — the delivery
/// itself, once its views are out — held by the cluster for the duration
/// of the consume pass and then recycled.
pub(crate) struct PayloadDeliveryBuffers<H, T>(PayloadDelivery<H, T>);

impl<H, T> PayloadDeliveryBuffers<H, T> {
    /// Returns the backing buffers to the pool. Call after the consume
    /// pass has dropped every [`PayloadInbox`].
    pub(crate) fn recycle(self, scratch: &mut RouterScratch)
    where
        H: Send + 'static,
        T: Send + 'static,
    {
        let PayloadDelivery {
            mut heads,
            spans,
            mut elems,
            ranges,
            in_words,
        } = self.0;
        heads.clear();
        elems.clear();
        scratch.put_arena(heads);
        scratch.put_ranges(spans);
        scratch.put_arena(elems);
        scratch.put_ranges(ranges);
        scratch.put_usizes(in_words);
    }
}

/// The variable-size messages delivered to one machine in one exchange
/// round, in `(sender id, send order)` order. Read them with
/// [`PayloadInbox::next_msg`], which hands back each head by value and
/// its payload as a **zero-copy slice** borrowed from the delivery
/// arena (valid until the next call).
///
/// A borrowing view over the delivery's arenas: `heads` and `spans`
/// advance per message, payload slices point into the shared element
/// arena.
pub struct PayloadInbox<H, T> {
    heads: *const H,
    spans: *const (usize, usize),
    elems: *const T,
    remaining: usize,
}

// SAFETY: a `PayloadInbox` only reads `Copy` data from arena ranges no
// other inbox touches (ranges are disjoint and the backing buffers
// outlive the consume pass per `into_inboxes`' contract).
unsafe impl<H: Send, T: Send> Send for PayloadInbox<H, T> {}

impl<H, T> Default for PayloadInbox<H, T> {
    /// The empty inbox: its pointers are never dereferenced.
    fn default() -> Self {
        PayloadInbox {
            heads: std::ptr::null(),
            spans: std::ptr::null(),
            elems: std::ptr::null(),
            remaining: 0,
        }
    }
}

impl<H, T> PayloadInbox<H, T> {
    /// # Safety
    ///
    /// `heads`/`spans` must point at `len` initialized slots, `elems` at
    /// an arena covering every span, all backed by allocations that
    /// outlive this inbox.
    pub(crate) unsafe fn raw(
        heads: *const H,
        spans: *const (usize, usize),
        elems: *const T,
        len: usize,
    ) -> Self {
        PayloadInbox {
            heads,
            spans,
            elems,
            remaining: len,
        }
    }

    /// Messages not yet read.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// True when every message has been read (or none arrived).
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// The next message in delivery order: its head by value and its
    /// payload as a slice valid until the next `next_msg` call.
    pub fn next_msg(&mut self) -> Option<(H, &[T])>
    where
        H: Copy,
    {
        if self.remaining == 0 {
            return None;
        }
        // SAFETY: `remaining > 0` slots are in bounds per `raw`'s
        // contract; every span lies inside the element arena.
        unsafe {
            let head = *self.heads;
            let (off, len) = *self.spans;
            self.heads = self.heads.add(1);
            self.spans = self.spans.add(1);
            self.remaining -= 1;
            Some((head, std::slice::from_raw_parts(self.elems.add(off), len)))
        }
    }

    /// Drains the remaining messages into owned nested data.
    pub fn into_nested(mut self) -> Vec<(H, Vec<T>)>
    where
        H: Copy,
        T: Copy,
    {
        let mut out = Vec::with_capacity(self.len());
        while let Some((head, payload)) = self.next_msg() {
            out.push((head, payload.to_vec()));
        }
        out
    }
}

/// Test-only reference oracle: a sequential pass appending
/// `(head, Vec<T>)` pairs into freshly allocated nested inboxes.
/// Deliberately independent of [`route_payload`]'s machinery so the
/// equivalence tests compare two genuinely different implementations.
/// Returns the inboxes and the words received per destination.
#[cfg(test)]
pub(crate) fn route_payload_merge<H, T>(
    machines: usize,
    outboxes: Vec<PayloadOutbox<H, T>>,
) -> (NestedInboxes<H, T>, Vec<usize>)
where
    H: Copy + WordSized,
    T: Copy + WordSized,
{
    let mut inboxes: NestedInboxes<H, T> = (0..machines).map(|_| Vec::new()).collect();
    let mut in_words = vec![0usize; machines];
    for outbox in outboxes {
        let mut off = 0usize;
        for i in 0..outbox.lens.len() {
            let dst = outbox.dsts[i];
            let len = outbox.lens[i];
            let payload = outbox.elems[off..off + len].to_vec();
            off += len;
            in_words[dst] += outbox.heads[i].words() + payload.words();
            inboxes[dst].push((outbox.heads[i], payload));
        }
    }
    (inboxes, in_words)
}

/// Routes all staged payload outboxes (one per machine, in sender-id
/// order) to their destinations; delivery order is `(sender id, send
/// order)`. Emptied outbox columns and the counting scratch are
/// recycled into `scratch`.
///
/// A two-axis counting sort. One counting pass
/// accumulates per-destination message counts, element counts and word
/// volume; the prefix sums lay out both the message columns
/// (heads/spans) and the element arena; the stable scatter then writes
/// each head and span once and block-copies each payload once. Dense
/// rounds run the count and scatter passes concurrently over senders
/// (disjoint matrix rows / cursor blocks, as in the fixed-size plane).
pub(crate) fn route_payload<H, T>(
    sched: &Scheduler,
    machines: usize,
    mut outboxes: Vec<PayloadOutbox<H, T>>,
    scratch: &mut RouterScratch,
) -> PayloadDelivery<H, T>
where
    H: Copy + WordSized + Send + 'static,
    T: Copy + WordSized + Send + 'static,
{
    let senders = outboxes.len();
    let total_msgs: usize = outboxes.iter().map(PayloadOutbox::len).sum();
    let total_elems: usize = outboxes.iter().map(PayloadOutbox::total_elems).sum();
    let mut heads: Vec<H> = scratch.take_arena();
    heads.reserve(total_msgs);
    let mut elems: Vec<T> = scratch.take_arena();
    elems.reserve(total_elems);
    let mut spans = scratch.take_ranges(total_msgs);
    let mut ranges = scratch.take_ranges(machines);
    let mut in_words = scratch.take_usizes(machines);

    let parallel =
        sched.threads() > 1 && total_msgs.saturating_mul(4) >= senders.saturating_mul(machines);
    if parallel {
        // Stage 1: sender `s` fills row `s` of the message-count,
        // element-count and word matrices (disjoint rows — the pass
        // parallelizes over senders with no synchronization).
        let mut mcounts = scratch.take_usizes(senders * machines);
        let mut ecounts = scratch.take_usizes(senders * machines);
        let mut words = scratch.take_usizes(senders * machines);
        let mcount_rows = RawSlots::new(mcounts.as_mut_ptr());
        let ecount_rows = RawSlots::new(ecounts.as_mut_ptr());
        let word_rows = RawSlots::new(words.as_mut_ptr());
        sched.map_mut(&mut outboxes, |s, outbox| {
            // SAFETY: all three matrices hold `senders * machines` cells
            // and sender `s < senders` takes only its own
            // `machines`-wide rows; rows are disjoint and the matrices
            // outlive the pass.
            let (mrow, erow, wrow) = unsafe {
                (
                    std::slice::from_raw_parts_mut(mcount_rows.slot(s * machines), machines),
                    std::slice::from_raw_parts_mut(ecount_rows.slot(s * machines), machines),
                    std::slice::from_raw_parts_mut(word_rows.slot(s * machines), machines),
                )
            };
            let mut off = 0usize;
            for (i, &dst) in outbox.dsts.iter().enumerate() {
                let len = outbox.lens[i];
                mrow[dst] += 1;
                erow[dst] += len;
                let mut w = outbox.heads[i].words() + 1;
                for e in &outbox.elems[off..off + len] {
                    w += e.words();
                }
                wrow[dst] += w;
                off += len;
            }
        });
        // Column-major prefix sums over both axes: `mcounts[s][d]`
        // becomes the message slot where sender `s`'s block for `d`
        // starts, `ecounts[s][d]` the matching element-arena cursor.
        let mut moff = 0usize;
        let mut eoff = 0usize;
        for (d, range) in ranges.iter_mut().enumerate() {
            let mstart = moff;
            let mut dwords = 0usize;
            for s in 0..senders {
                let cell = s * machines + d;
                let mc = mcounts[cell];
                mcounts[cell] = moff;
                moff += mc;
                let ec = ecounts[cell];
                ecounts[cell] = eoff;
                eoff += ec;
                dwords += words[cell];
            }
            *range = (mstart, moff - mstart);
            in_words[d] = dwords;
        }
        debug_assert_eq!(moff, total_msgs);
        debug_assert_eq!(eoff, total_elems);
        // Stage 2: stable scatter, concurrent over senders — heads and
        // spans write to this sender's message slots, payloads
        // block-copy to this sender's element cursors; all blocks are
        // disjoint by construction of the prefix sums.
        let mcursor_rows = RawSlots::new(mcounts.as_mut_ptr());
        let ecursor_rows = RawSlots::new(ecounts.as_mut_ptr());
        let heads_base = RawSlots::new(heads.as_mut_ptr());
        let spans_base = RawSlots::new(spans.as_mut_ptr());
        let elems_base = RawSlots::new(elems.as_mut_ptr());
        sched.map_mut(&mut outboxes, |s, outbox| {
            let n = outbox.lens.len();
            let mut off = 0usize;
            // SAFETY: disjoint cursor blocks per the prefix sums, all
            // below the `total_msgs`/`total_elems` the arenas reserved
            // (`spans` is already that long); `i < n` bounds all three
            // columns, `dst < machines` was checked at staging, and
            // `off + len` stays within `elems` because `lens` sums to
            // its length. `Copy` data is duplicated into the arenas,
            // sources just clear.
            unsafe {
                let mcur =
                    std::slice::from_raw_parts_mut(mcursor_rows.slot(s * machines), machines);
                let ecur =
                    std::slice::from_raw_parts_mut(ecursor_rows.slot(s * machines), machines);
                for i in 0..n {
                    let dst = *outbox.dsts.get_unchecked(i);
                    let len = *outbox.lens.get_unchecked(i);
                    heads_base
                        .slot(mcur[dst])
                        .write(*outbox.heads.get_unchecked(i));
                    spans_base.slot(mcur[dst]).write((ecur[dst], len));
                    mcur[dst] += 1;
                    std::ptr::copy_nonoverlapping(
                        outbox.elems.as_ptr().add(off),
                        elems_base.slot(ecur[dst]),
                        len,
                    );
                    ecur[dst] += len;
                    off += len;
                }
            }
            outbox.clear();
        });
        // SAFETY: both lengths were reserved, and the scatter wrote every
        // slot below them exactly once.
        unsafe {
            heads.set_len(total_msgs);
            elems.set_len(total_elems);
        }
        scratch.put_usizes(mcounts);
        scratch.put_usizes(ecounts);
        scratch.put_usizes(words);
    } else {
        // Sequential two-pass counting sort over both axes.
        let mut mcursors = scratch.take_usizes(machines);
        let mut ecursors = scratch.take_usizes(machines);
        for outbox in &outboxes {
            let mut off = 0usize;
            for (i, &dst) in outbox.dsts.iter().enumerate() {
                let len = outbox.lens[i];
                mcursors[dst] += 1;
                ecursors[dst] += len;
                let mut w = outbox.heads[i].words() + 1;
                for e in &outbox.elems[off..off + len] {
                    w += e.words();
                }
                in_words[dst] += w;
                off += len;
            }
        }
        let mut moff = 0usize;
        let mut eoff = 0usize;
        for (d, range) in ranges.iter_mut().enumerate() {
            let mc = mcursors[d];
            let ec = ecursors[d];
            *range = (moff, mc);
            mcursors[d] = moff;
            ecursors[d] = eoff;
            moff += mc;
            eoff += ec;
        }
        debug_assert_eq!(moff, total_msgs);
        debug_assert_eq!(eoff, total_elems);
        let heads_base = heads.as_mut_ptr();
        let elems_base = elems.as_mut_ptr();
        for outbox in &mut outboxes {
            let n = outbox.lens.len();
            let mut off = 0usize;
            // SAFETY: as in the parallel scatter — every slot is written
            // exactly once at its (sender, dst) block cursor, all indices
            // bounded the same way.
            unsafe {
                for i in 0..n {
                    let dst = *outbox.dsts.get_unchecked(i);
                    let len = *outbox.lens.get_unchecked(i);
                    let mslot = mcursors[dst];
                    mcursors[dst] += 1;
                    let eslot = ecursors[dst];
                    ecursors[dst] += len;
                    heads_base.add(mslot).write(*outbox.heads.get_unchecked(i));
                    *spans.get_unchecked_mut(mslot) = (eslot, len);
                    std::ptr::copy_nonoverlapping(
                        outbox.elems.as_ptr().add(off),
                        elems_base.add(eslot),
                        len,
                    );
                    off += len;
                }
            }
            outbox.clear();
        }
        // SAFETY: both lengths were reserved, and the scatter wrote every
        // slot below them exactly once.
        unsafe {
            heads.set_len(total_msgs);
            elems.set_len(total_elems);
        }
        scratch.put_usizes(mcursors);
        scratch.put_usizes(ecursors);
    }
    for outbox in outboxes {
        outbox.recycle_into(scratch);
    }
    PayloadDelivery::from_flat(heads, spans, elems, ranges, in_words)
}

/// Per-machine staging buffer for a payload gather: like a
/// [`PayloadOutbox`] without destinations (everything goes to the
/// central machine). Drivers fill it with [`PayloadSink::push_slice`]
/// or element-by-element via [`PayloadSink::begin`].
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
    use crate::executor::ThreadPoolExecutor;
    use crate::rng::DetRng;
    use std::sync::Arc;

    fn sched(threads: usize) -> Scheduler {
        Scheduler::new(Arc::new(ThreadPoolExecutor::new(threads)))
    }

    fn fill_random(out: &mut PayloadOutbox<u64, u64>, s: usize, volume: usize, seed: u64) {
        let mut rng = DetRng::derive(seed, &[s as u64]);
        for k in 0..volume {
            let dst = rng.range(out.machines as u64) as usize;
            let len = rng.range(5) as usize; // includes empty payloads
            let head = (s * 1000 + k) as u64;
            if k % 2 == 0 {
                let payload: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                out.send(dst, head, &payload);
            } else {
                let mut w = out.push_payload(dst, head);
                for _ in 0..len {
                    w.push(rng.next_u64());
                }
            }
        }
    }

    fn random_outboxes(machines: usize, volume: usize, seed: u64) -> Vec<PayloadOutbox<u64, u64>> {
        (0..machines)
            .map(|s| {
                let mut out = PayloadOutbox::new(machines);
                fill_random(&mut out, s, volume, seed);
                out
            })
            .collect()
    }

    /// Random variable-size traffic (empty payloads included): the plane
    /// must deliver the oracle's messages and word counts at every
    /// thread count, whether payloads were staged as slices or through
    /// writer handles.
    #[test]
    fn payload_planes_are_bit_identical() {
        for (machines, volume, seed) in [(1usize, 5usize, 1u64), (4, 40, 2), (9, 160, 3)] {
            let mut scratch = RouterScratch::default();
            let (want, want_words) =
                route_payload_merge(machines, random_outboxes(machines, volume, seed));
            for threads in [1usize, 2, 4] {
                let got = route_payload(
                    &sched(threads),
                    machines,
                    random_outboxes(machines, volume, seed),
                    &mut scratch,
                );
                assert_eq!(got.nested(), want, "threads {threads}");
                assert_eq!(got.in_words(), want_words, "threads {threads}");
            }
        }
    }

    /// Buffer pooling across rounds must not perturb delivery; the
    /// volumes alternate between the sparse (sequential) and dense
    /// (concurrent) sides of the density cutoff.
    #[test]
    fn pooled_payload_scratch_is_invisible_across_rounds() {
        let machines = 6;
        let s4 = sched(4);
        let mut scratch = RouterScratch::default();
        for round in 0..12u64 {
            let volume = [0usize, 3, 77, 5, 150][round as usize % 5];
            let (want, want_words) =
                route_payload_merge(machines, random_outboxes(machines, volume, round));
            let got = route_payload(
                &s4,
                machines,
                random_outboxes(machines, volume, round),
                &mut scratch,
            );
            assert_eq!(got.nested(), want, "round {round}");
            assert_eq!(got.in_words(), want_words, "round {round}");
        }
    }

    /// Steady state: after the first round warms the pool, a
    /// same-shape round must neither grow nor shrink it.
    #[test]
    fn pool_is_steady_state_stable() {
        let machines = 4;
        let s = sched(1);
        let mut scratch = RouterScratch::default();
        // Stage from the pool, as the cluster does: otherwise every round
        // donates its freshly allocated outbox buffers and the pool grows
        // by construction rather than by leak.
        let run = |scratch: &mut RouterScratch| {
            let outboxes: Vec<PayloadOutbox<u64, u64>> = (0..machines)
                .map(|m| {
                    let (heads, dsts) = scratch.take_columns::<u64>();
                    let lens = scratch.take_usizes_empty();
                    let elems = scratch.take_arena::<u64>();
                    let mut out = PayloadOutbox::with_buffers(machines, heads, dsts, lens, elems);
                    fill_random(&mut out, m, 50, 7);
                    out
                })
                .collect();
            let d = route_payload(&s, machines, outboxes, scratch);
            // SAFETY: buffers outlive the (unused) views.
            let (views, buffers) = unsafe { d.into_inboxes() };
            drop(views);
            buffers.recycle(scratch);
        };
        run(&mut scratch);
        let warm = scratch.pooled_buffers();
        assert!(warm > 0);
        for _ in 0..3 {
            run(&mut scratch);
            assert_eq!(scratch.pooled_buffers(), warm);
        }
    }

    #[test]
    #[allow(clippy::identity_op)] // `2 + 0` spells head+len + empty payload
    fn delivery_is_sender_then_send_order_with_zero_copy_views() {
        let s = sched(4);
        let mut scratch = RouterScratch::default();
        let mut outboxes: Vec<PayloadOutbox<u32, u64>> =
            (0..3).map(|_| PayloadOutbox::new(3)).collect();
        outboxes[2].send(0, 20, &[7, 8]);
        outboxes[2].send(0, 21, &[]);
        outboxes[0].send(0, 1, &[9]);
        outboxes[1].send(2, 12, &[1, 2, 3]);
        let d = route_payload(&s, 3, outboxes, &mut scratch);
        assert_eq!(d.in_words(), &[(2 + 2) + (2 + 0) + (2 + 1), 0, 2 + 3]);
        // SAFETY: buffers outlive the views below.
        let (mut views, buffers) = unsafe { d.into_inboxes() };
        let mut first = views.remove(0);
        assert_eq!(first.len(), 3);
        assert_eq!(first.next_msg(), Some((1u32, &[9u64][..])));
        assert_eq!(first.next_msg(), Some((20, &[7, 8][..])));
        assert_eq!(first.next_msg(), Some((21, &[][..])));
        assert_eq!(first.next_msg(), None);
        assert!(views.remove(0).is_empty());
        assert_eq!(views.remove(0).into_nested(), vec![(12, vec![1, 2, 3])]);
        // `first` is exhausted and never read again.
        buffers.recycle(&mut scratch);
        assert!(scratch.take_arena::<u64>().capacity() >= 6);
    }

    /// `in_words` folded into the delivery pass must match a recount of
    /// the nested view under the tuple definition it replaces.
    #[test]
    fn payload_in_words_matches_recomputation() {
        let machines = 5;
        let recount = |inboxes: &[Vec<(u64, Vec<u64>)>]| -> Vec<usize> {
            inboxes
                .iter()
                .map(|inbox| inbox.iter().map(|(h, p)| h.words() + p.words()).sum())
                .collect()
        };
        let (oracle, oracle_words) =
            route_payload_merge(machines, random_outboxes(machines, 60, 99));
        assert_eq!(oracle_words, recount(&oracle), "oracle");
        let mut scratch = RouterScratch::default();
        for threads in [1usize, 4] {
            let d = route_payload(
                &sched(threads),
                machines,
                random_outboxes(machines, 60, 99),
                &mut scratch,
            );
            assert_eq!(d.in_words(), recount(&d.nested()), "threads {threads}");
        }
    }

    /// Writer-handle staging must be indistinguishable from slice
    /// staging, including word accounting.
    #[test]
    fn writer_matches_slice_staging() {
        let mut a: PayloadOutbox<u64, u64> = PayloadOutbox::new(2);
        let mut b: PayloadOutbox<u64, u64> = PayloadOutbox::new(2);
        a.send(1, 5, &[10, 11, 12]);
        a.send(0, 6, &[]);
        {
            let mut w = b.push_payload(1, 5);
            w.push(10);
            w.push(11);
            w.push(12);
        }
        drop(b.push_payload(0, 6));
        assert_eq!(a.heads, b.heads);
        assert_eq!(a.dsts, b.dsts);
        assert_eq!(a.lens, b.lens);
        assert_eq!(a.elems, b.elems);
        assert_eq!(a.staged_words(), b.staged_words());
        assert_eq!(a.staged_words(), (1 + 1 + 3) + (1 + 1)); // heads + len words + elems
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn payload_outbox_rejects_bad_destination() {
        PayloadOutbox::<u64, u64>::new(2).send(2, 7, &[]);
    }

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
