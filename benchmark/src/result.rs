//! What one run produced, and its renderings: the contract's result
//! object (one line), the human table, and the entry in a set document.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mrlr_core::api::commit::Hasher;
use mrlr_core::io::Json;

use crate::spec::{Metric, Spec};

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Operations attempted, the untimed warm-up and the final `mrlr
    /// verify` included.
    pub attempted: u64,
    /// Operations that missed the correctness gate (see README).
    pub failed: u64,
    /// Timed operations behind the medians.
    pub samples: u64,
    /// Digest of the operation's masked reports; equal across repeats of
    /// a run by construction (a differing repeat counts as failed), and
    /// equal between two runs of the same seed.
    pub digest: String,
    /// Every metric this run measured, by name.
    pub values: BTreeMap<String, f64>,
    /// Why operations failed, for the human reader.
    pub notes: Vec<String>,
}

/// Hex digest of a byte string (the solver's own sponge).
pub fn digest_of(parts: &[&[u8]]) -> String {
    let mut h = Hasher::new(0x6d72_6c72_6265_6e63); // "mrlrbenc"
    for part in parts {
        h.write_bytes(part);
    }
    h.finish().to_string()
}

/// A JSON string literal, escaped by the solver's own JSON writer.
pub fn quoted(s: &str) -> String {
    Json::str(s).render_compact()
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> RunResult {
        RunResult {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            samples: 0,
            digest: String::new(),
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one attempted operation; `outcome` says why it failed.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why);
            }
        }
    }

    /// The value of `metric`; a metric the run did not measure (a layer
    /// the workload bypasses) reads 0.
    fn value(&self, metric: &Metric) -> f64 {
        let v = self.values.get(&metric.name).copied().unwrap_or(0.0);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    fn metrics_json(&self, spec: &Spec) -> String {
        let fields: Vec<String> = spec
            .metrics(self.trace)
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {:?}, \"unit\": {}}}",
                    quoted(&m.name),
                    self.value(m),
                    quoted(&m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, on one line.
    pub fn contract_line(&self, spec: &Spec) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            self.metrics_json(spec)
        )
    }

    /// This run as an entry of a set document (what `compare` reads).
    pub fn set_entry(&self, spec: &Spec) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"samples\": {}, \"digest\": {}, \"metrics\": {}}}",
            quoted(self.workload),
            self.seed,
            u8::from(self.trace),
            self.failed == 0,
            self.attempted,
            self.failed,
            self.samples,
            quoted(&self.digest),
            self.metrics_json(spec)
        )
    }

    /// Every metric by name with its unit and the sample count.
    pub fn table(&self, spec: &Spec) -> String {
        let mut out = format!(
            "{} (seed {}, {}): {} timed samples, {} attempted, {} failed, digest {}\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "end to end" },
            self.samples,
            self.attempted,
            self.failed,
            &self.digest[..self.digest.len().min(16)],
        );
        for m in spec.metrics(self.trace) {
            let _ = writeln!(out, "  {:<34} {:>16.6} {}", m.name, self.value(m), m.unit);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  FAILED: {note}");
        }
        out
    }
}
