//! Every report `mrlr` writes, `mrlr verify` accepts: over a fixed list
//! of degenerate instances, each key on `seq`, `rlr` and `shard` runs
//! solve → render JSON → `parse_report` → `audit`. A case either audits
//! clean on every backend or fails to solve with one error text on every
//! backend.

use mrlr_core::api::{audit, Backend, Instance, Registry, ALGORITHM_INFO};
use mrlr_core::io::{parse_instance, parse_report, report_json, TimingMode};

/// The degenerate instances, as instance files: n ∈ {0, 1}, edgeless,
/// one edge, an empty universe, one empty set, uncoverable.
const CASES: &[&str] = &[
    "p graph 0 0\n",
    "p graph 1 0\n",
    "p graph 3 0\n",
    "p graph 2 1\ne 0 1 1.5\n",
    "p vertex-weighted 0 0\n",
    "p vertex-weighted 1 0\nn 0 1.0\n",
    "p vertex-weighted 3 0\nn 0 1.0\nn 1 2.0\nn 2 3.0\n",
    "p vertex-weighted 2 1\ne 0 1\nn 0 1.0\nn 1 2.0\n",
    "p b-matching 0 0 0.25\n",
    "p b-matching 1 0 0.25\nn 0 1\n",
    "p b-matching 3 0 0.25\nn 0 1\nn 1 2\nn 2 1\n",
    "p b-matching 2 1 0.25\ne 0 1 1.5\nn 0 1\nn 1 1\n",
    "p set-system 0 0\n",
    "p set-system 0 1\ns 1.0\n",
    "p set-system 1 1\ns 2.0 0\n",
    "p set-system 2 1\ns 1.0 0\n",
];

const BACKENDS: [Backend; 3] = [Backend::Seq, Backend::Rlr, Backend::Shard];

/// One backend's outcome on one key and instance.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// The report re-parsed and audited clean.
    Audited,
    /// The solve failed with this error text.
    Refused(String),
    /// The report did not re-parse or did not audit: why.
    Broken(String),
}

fn round_trip(registry: &Registry, key: &str, backend: Backend, inst: &Instance) -> Outcome {
    let report = match registry.solve_with(key, backend, inst, &inst.auto_config(0.3, 42)) {
        Ok(report) => report,
        Err(e) => return Outcome::Refused(e.to_string()),
    };
    let text = report_json(&report, TimingMode::Masked).render();
    let stored = match parse_report(&text) {
        Ok(stored) => stored,
        Err(e) => return Outcome::Broken(format!("parse_report: {e}")),
    };
    let Some(witness) = &stored.witness else {
        return Outcome::Broken("a full report without a witness".into());
    };
    match audit(
        inst,
        &stored.algorithm,
        &stored.solution,
        &stored.claims,
        witness,
    ) {
        Ok(_) => Outcome::Audited,
        Err(e) => Outcome::Broken(format!("audit: {e}")),
    }
}

#[test]
fn degenerate_reports_audit_clean_or_fail_alike_on_every_backend() {
    let registry = Registry::with_defaults();
    let mut failures = Vec::new();
    for case in CASES {
        let inst = parse_instance(case).unwrap_or_else(|e| panic!("{case:?}: {e}"));
        let keys = ALGORITHM_INFO
            .iter()
            .filter(|info| info.instance == inst.kind());
        for info in keys {
            let outcomes: Vec<Outcome> = BACKENDS
                .iter()
                .map(|&backend| round_trip(&registry, info.key, backend, &inst))
                .collect();
            let broken = outcomes.iter().any(|o| matches!(o, Outcome::Broken(_)));
            let refused = outcomes.iter().any(|o| matches!(o, Outcome::Refused(_)));
            if broken || (refused && outcomes.iter().any(|o| *o != outcomes[0])) {
                failures.push(format!("{} on {case:?}: {outcomes:?}", info.key));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "outcomes per backend ({BACKENDS:?}):\n{}",
        failures.join("\n")
    );
}
