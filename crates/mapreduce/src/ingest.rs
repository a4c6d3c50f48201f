//! Round-zero block sizes: the words each machine's block would hold if
//! an input stream were scattered straight onto the machines.
//!
//! The MRC input contract distributes the `Θ(n^{1+c})` input records
//! across the `M` machines before round one, and the paper's space bound
//! constrains the largest such block. [`Ingest`] measures it: records are
//! charged to their owning machine with exact [`WordSized`] accounting.
//! It stays only for the benchmark's `ingest.max_block_words` replay and
//! moves out when the benchmark reads the engine's own trace (ROADMAP
//! item 3, step B).
//!
//! ```
//! use mrlr_mapreduce::ingest::Ingest;
//!
//! let mut ingest: Ingest<(u64, f64)> = Ingest::new(4);
//! for rec in 0..100u64 {
//!     ingest.push(rec as usize % 4, (rec, 1.5));
//! }
//! assert_eq!(ingest.max_block_words(), 50);
//! ```

use std::marker::PhantomData;

use crate::cluster::MachineId;
use crate::words::WordSized;

/// Per-machine word tally of a round-zero scatter.
#[derive(Debug, Clone)]
pub struct Ingest<T> {
    block_words: Vec<usize>,
    record: PhantomData<fn(T)>,
}

impl<T: WordSized> Ingest<T> {
    /// A tally over `machines` empty blocks.
    ///
    /// # Panics
    /// Panics if `machines == 0`.
    pub fn new(machines: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        Ingest {
            block_words: vec![0; machines],
            record: PhantomData,
        }
    }

    /// Charges one record's exact word size to `machine`.
    pub fn push(&mut self, machine: MachineId, item: T) {
        self.block_words[machine] += item.words();
    }

    /// The largest per-machine block, in words — what the paper's space
    /// bound constrains (`≤ c·η` for the drivers' layouts).
    pub fn max_block_words(&self) -> usize {
        self.block_words.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_and_counts_words() {
        let mut ingest: Ingest<(u32, u32, f64)> = Ingest::new(3);
        assert_eq!(ingest.max_block_words(), 0);
        ingest.push(0, (1, 2, 0.5));
        ingest.push(2, (3, 4, 1.5));
        ingest.push(2, (5, 6, 2.5));
        assert_eq!(ingest.max_block_words(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        let _ = Ingest::<u64>::new(0);
    }
}
