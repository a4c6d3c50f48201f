//! Certificate/witness serialization: the bridge between a solved
//! [`Report`](crate::api::Report) on disk and the offline auditor
//! ([`crate::api::witness::audit`] / `mrlr verify`).
//!
//! Witnesses round-trip **bit-exactly**: floats are written with `{:?}`
//! (the shortest representation that re-parses to the same bits) and read
//! back via [`parse_json`]'s raw number tokens, so
//! `parse_witness(witness_json(w)) == w` for every witness — replaying a
//! stored stack transcript reproduces the exact potentials of the
//! original run. The encoding is independent of host wall-clock, so full
//! certificates compose with
//! [`TimingMode::Masked`](super::report::TimingMode) and stay
//! byte-identical across `MRLR_THREADS` settings.
//!
//! Whether a serialized report *carries* its witness is the
//! [`CertificateMode`] knob (`mrlr solve --certificates full|summary`):
//! `Full` embeds the witness object, `Summary` keeps the pre-witness
//! scalar-only format. Only full reports can be re-verified offline.

use mrlr_graph::{EdgeId, VertexId};
use mrlr_setsys::ElemId;

use super::json::{parse_json, Json, JsonValue};
use super::IoError;
use crate::api::witness::Claims;
use crate::api::{Solution, Witness};
use crate::types::{ColouringResult, CoverResult, MatchingResult, SelectionResult};

/// Whether serialized certificates embed their witness payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CertificateMode {
    /// Embed the full witness: the report is offline re-verifiable
    /// (`mrlr verify`). The default.
    #[default]
    Full,
    /// Scalar summary only (the pre-witness format): smaller reports that
    /// cannot be independently re-checked.
    Summary,
}

fn pairs_json<A: Copy + Into<u64>>(pairs: &[(A, f64)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(id, x)| Json::Arr(vec![Json::U64(id.into()), Json::F64(x)]))
            .collect(),
    )
}

/// A [`Witness`] as a JSON object (see the module docs for the format).
pub fn witness_json(w: &Witness) -> Json {
    let mut fields = vec![("kind", Json::str(w.kind()))];
    match w {
        Witness::CoverDual { dual } => fields.push(("dual", pairs_json(dual))),
        Witness::Stack { stack } => fields.push(("stack", pairs_json(stack))),
        Witness::Maximality { blockers } => fields.push((
            "blockers",
            Json::Arr(
                blockers
                    .iter()
                    .map(|&(v, w)| Json::Arr(vec![Json::U64(v as u64), Json::U64(w as u64)]))
                    .collect(),
            ),
        )),
        Witness::Properness {
            max_degree,
            colour_counts,
        } => {
            fields.push(("max_degree", Json::count(*max_degree)));
            fields.push((
                "colour_counts",
                Json::Arr(colour_counts.iter().map(|&c| Json::count(c)).collect()),
            ));
        }
        Witness::Committed {
            of,
            entries,
            chunk_len,
            root,
        } => {
            fields.push(("of", Json::str(of)));
            fields.push(("entries", Json::count(*entries)));
            fields.push(("chunk_len", Json::count(*chunk_len)));
            fields.push(("root", Json::str(root.to_string())));
        }
    }
    Json::Obj(fields)
}

fn field_err(location: &str, what: &str) -> IoError {
    IoError {
        line: 0,
        col: 0,
        message: format!("{location}: {what}"),
    }
}

fn need<'a>(v: &'a JsonValue, key: &str, location: &str) -> Result<&'a JsonValue, IoError> {
    v.get(key)
        .ok_or_else(|| field_err(location, &format!("missing field `{key}`")))
}

fn need_u64(v: &JsonValue, key: &str, location: &str) -> Result<u64, IoError> {
    need(v, key, location)?.as_u64().ok_or_else(|| {
        field_err(
            location,
            &format!("field `{key}` is not an unsigned integer"),
        )
    })
}

fn need_f64(v: &JsonValue, key: &str, location: &str) -> Result<f64, IoError> {
    need(v, key, location)?
        .as_f64()
        .ok_or_else(|| field_err(location, &format!("field `{key}` is not a number")))
}

fn need_str<'a>(v: &'a JsonValue, key: &str, location: &str) -> Result<&'a str, IoError> {
    need(v, key, location)?
        .as_str()
        .ok_or_else(|| field_err(location, &format!("field `{key}` is not a string")))
}

fn need_arr<'a>(v: &'a JsonValue, key: &str, location: &str) -> Result<&'a [JsonValue], IoError> {
    need(v, key, location)?
        .as_arr()
        .ok_or_else(|| field_err(location, &format!("field `{key}` is not an array")))
}

fn id_f64_pairs(items: &[JsonValue], location: &str) -> Result<Vec<(u32, f64)>, IoError> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let pair = item.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                field_err(location, &format!("entry {i} is not an [id, value] pair"))
            })?;
            let id = pair[0]
                .as_u64()
                .filter(|&id| id <= u32::MAX as u64)
                .ok_or_else(|| field_err(location, &format!("entry {i}: bad id")))?;
            let x = pair[1]
                .as_f64()
                .ok_or_else(|| field_err(location, &format!("entry {i}: bad value")))?;
            Ok((id as u32, x))
        })
        .collect()
}

fn u32_list(items: &[JsonValue], location: &str) -> Result<Vec<u32>, IoError> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            item.as_u64()
                .filter(|&id| id <= u32::MAX as u64)
                .map(|id| id as u32)
                .ok_or_else(|| field_err(location, &format!("entry {i} is not a u32")))
        })
        .collect()
}

/// Parses a [`witness_json`] object back into a [`Witness`], bit-exactly.
pub fn parse_witness(v: &JsonValue) -> Result<Witness, IoError> {
    let loc = "certificate.witness";
    match need_str(v, "kind", loc)? {
        "cover-dual" => Ok(Witness::CoverDual {
            dual: id_f64_pairs(need_arr(v, "dual", loc)?, "certificate.witness.dual")?
                .into_iter()
                .map(|(j, y)| (j as ElemId, y))
                .collect(),
        }),
        "stack" => Ok(Witness::Stack {
            stack: id_f64_pairs(need_arr(v, "stack", loc)?, "certificate.witness.stack")?
                .into_iter()
                .map(|(e, m)| (e as EdgeId, m))
                .collect(),
        }),
        "maximality" => {
            let items = need_arr(v, "blockers", loc)?;
            let blockers = items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let pair = item.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        field_err(
                            "certificate.witness.blockers",
                            &format!("entry {i} is not a [vertex, blocker] pair"),
                        )
                    })?;
                    let parse = |x: &JsonValue| {
                        x.as_u64()
                            .filter(|&id| id <= u32::MAX as u64)
                            .map(|id| id as VertexId)
                    };
                    match (parse(&pair[0]), parse(&pair[1])) {
                        (Some(a), Some(b)) => Ok((a, b)),
                        _ => Err(field_err(
                            "certificate.witness.blockers",
                            &format!("entry {i}: bad vertex id"),
                        )),
                    }
                })
                .collect::<Result<_, _>>()?;
            Ok(Witness::Maximality { blockers })
        }
        "committed" => {
            let root_hex = need_str(v, "root", loc)?;
            let root = crate::api::commit::Digest::from_hex(root_hex).ok_or_else(|| {
                field_err(
                    "certificate.witness.root",
                    "not a 64-hex-digit commitment digest",
                )
            })?;
            Ok(Witness::Committed {
                of: need_str(v, "of", loc)?.to_string(),
                entries: need_u64(v, "entries", loc)? as usize,
                chunk_len: need_u64(v, "chunk_len", loc)? as usize,
                root,
            })
        }
        "properness" => Ok(Witness::Properness {
            max_degree: need_u64(v, "max_degree", loc)? as usize,
            colour_counts: need_arr(v, "colour_counts", loc)?
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    item.as_u64().map(|c| c as usize).ok_or_else(|| {
                        field_err(
                            "certificate.witness.colour_counts",
                            &format!("entry {i} is not a count"),
                        )
                    })
                })
                .collect::<Result<_, _>>()?,
        }),
        other => Err(field_err(loc, &format!("unknown witness kind `{other}`"))),
    }
}

/// A report re-loaded from its JSON serialization: everything the offline
/// auditor needs (metrics and wall-clock are ignored — they are metered
/// observations, not claims a witness can support).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredReport {
    /// Registry key of the algorithm.
    pub algorithm: String,
    /// Backend tag (`seq` / `rlr` / `mr`).
    pub backend: String,
    /// The typed solution.
    pub solution: Solution,
    /// The scalar certificate claims.
    pub claims: Claims,
    /// The witness, when the report was written with
    /// [`CertificateMode::Full`].
    pub witness: Option<Witness>,
}

fn parse_solution(v: &JsonValue) -> Result<Solution, IoError> {
    let loc = "solution";
    match need_str(v, "type", loc)? {
        "cover" => Ok(Solution::Cover(CoverResult {
            cover: u32_list(need_arr(v, "sets", loc)?, "solution.sets")?,
            weight: need_f64(v, "weight", loc)?,
            lower_bound: need_f64(v, "lower_bound", loc)?,
            // The dual transcript travels in the certificate witness, not
            // the solution object.
            dual: vec![],
            iterations: need_u64(v, "iterations", loc)? as usize,
        })),
        "matching" => Ok(Solution::Matching(MatchingResult {
            matching: u32_list(need_arr(v, "edges", loc)?, "solution.edges")?,
            weight: need_f64(v, "weight", loc)?,
            stack_gain: need_f64(v, "stack_gain", loc)?,
            stack: vec![],
            iterations: need_u64(v, "iterations", loc)? as usize,
        })),
        "selection" => Ok(Solution::Selection(SelectionResult {
            vertices: u32_list(need_arr(v, "vertices", loc)?, "solution.vertices")?,
            phases: need_u64(v, "phases", loc)? as usize,
            iterations: need_u64(v, "iterations", loc)? as usize,
        })),
        "colouring" => Ok(Solution::Colouring(ColouringResult {
            colours: u32_list(need_arr(v, "colours", loc)?, "solution.colours")?,
            num_colours: need_u64(v, "num_colours", loc)? as usize,
            groups: need_u64(v, "groups", loc)? as usize,
        })),
        other => Err(field_err(loc, &format!("unknown solution type `{other}`"))),
    }
}

/// Parses the JSON written by `mrlr solve --format json` (equivalently
/// [`super::report::report_json`]) back into a [`StoredReport`]. Syntax
/// errors carry line/column; structural errors name the missing field.
pub fn parse_report(text: &str) -> Result<StoredReport, IoError> {
    let root = parse_json(text)?;
    parse_report_value(&root)
}

/// [`parse_report`] over an already-parsed [`JsonValue`] (one slot of a
/// batch document, say).
pub fn parse_report_value(root: &JsonValue) -> Result<StoredReport, IoError> {
    let cert = need(root, "certificate", "report")?;
    let ratio =
        match need(cert, "certified_ratio", "certificate")? {
            JsonValue::Null => None,
            v => Some(v.as_f64().ok_or_else(|| {
                field_err("certificate", "field `certified_ratio` is not a number")
            })?),
        };
    let witness = match cert.get("witness") {
        None | Some(JsonValue::Null) => None,
        Some(w) => Some(parse_witness(w)?),
    };
    Ok(StoredReport {
        algorithm: need_str(root, "algorithm", "report")?.to_string(),
        backend: need_str(root, "backend", "report")?.to_string(),
        solution: parse_solution(need(root, "solution", "report")?)?,
        claims: Claims {
            feasible: need(cert, "feasible", "certificate")?
                .as_bool()
                .ok_or_else(|| field_err("certificate", "field `feasible` is not a bool"))?,
            objective: need_f64(cert, "objective", "certificate")?,
            certified_ratio: ratio,
        },
        witness,
    })
}

/// One slot of a parsed batch document: either a stored report (the job
/// succeeded and made claims) or the per-slot error the batch recorded
/// (no claims to audit).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchSlot {
    /// A stored report, auditable like any single-report document
    /// (boxed: a report dwarfs the error string next door).
    Report(Box<StoredReport>),
    /// The error string the batch isolated into this slot.
    Error(String),
}

/// A `mrlr batch --format json` document re-loaded from disk: the
/// manifest-relative instance paths and the `results[instance][job]`
/// grid. `mrlr verify` audits every report slot against its instance.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredBatch {
    /// Instance paths as recorded by the batch (relative to the
    /// manifest, hence to the document's own directory).
    pub instances: Vec<String>,
    /// One row per instance, one slot per job.
    pub results: Vec<Vec<BatchSlot>>,
}

/// True if `root` looks like a batch document (has a `results` grid)
/// rather than a single report.
pub fn is_batch_document(root: &JsonValue) -> bool {
    root.get("results").is_some()
}

/// Parses the JSON written by `mrlr batch --format json` back into a
/// [`StoredBatch`]. Structural errors are located as
/// `results[i][j]: …` so a bad slot in a big grid is findable. `mrlr
/// verify`, which inspects the tree first, calls [`parse_batch_value`].
pub fn parse_batch(text: &str) -> Result<StoredBatch, IoError> {
    parse_batch_value(&parse_json(text)?)
}

/// [`parse_batch`] over an already-parsed [`JsonValue`], so a caller
/// that parsed the document to inspect it builds the batch from the same
/// tree instead of parsing the text twice.
pub fn parse_batch_value(root: &JsonValue) -> Result<StoredBatch, IoError> {
    let instances = need_arr(root, "instances", "batch")?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_str().map(str::to_string).ok_or_else(|| {
                field_err(
                    "batch.instances",
                    &format!("entry {i} is not a path string"),
                )
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let rows = need_arr(root, "results", "batch")?;
    if rows.len() != instances.len() {
        return Err(field_err(
            "batch",
            &format!(
                "{} result rows for {} instances",
                rows.len(),
                instances.len()
            ),
        ));
    }
    let results = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let slots = row
                .as_arr()
                .ok_or_else(|| field_err("batch", &format!("results[{i}] is not an array")))?;
            slots
                .iter()
                .enumerate()
                .map(
                    |(j, slot)| match slot.get("error").and_then(JsonValue::as_str) {
                        Some(e) => Ok(BatchSlot::Error(e.to_string())),
                        None => parse_report_value(slot)
                            .map(|r| BatchSlot::Report(Box::new(r)))
                            .map_err(|e| field_err(&format!("results[{i}][{j}]"), &e.message)),
                    },
                )
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StoredBatch { instances, results })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(w: &Witness) -> Witness {
        let text = witness_json(w).render();
        parse_witness(&parse_json(&text).unwrap()).unwrap()
    }

    #[test]
    fn witnesses_round_trip_bit_exactly() {
        let cases = vec![
            Witness::CoverDual {
                dual: vec![(0, 0.1), (7, 1.0 / 3.0), (9, 5e-324)],
            },
            Witness::CoverDual { dual: vec![] },
            Witness::Stack {
                stack: vec![(3, 2.5), (1, 0.1 + 0.2)],
            },
            Witness::Maximality {
                blockers: vec![(0, 4), (2, 4)],
            },
            Witness::Properness {
                max_degree: 7,
                colour_counts: vec![3, 2, 1],
            },
            Witness::Committed {
                of: "stack".into(),
                entries: 1234,
                chunk_len: 256,
                root: crate::api::commit::Hasher::new(1).finish(),
            },
        ];
        for w in &cases {
            assert_eq!(&round_trip(w), w);
        }
    }

    #[test]
    fn malformed_witnesses_are_located() {
        let bad = parse_json("{\"kind\": \"cover-dual\", \"dual\": [[1]]}").unwrap();
        let err = parse_witness(&bad).unwrap_err();
        assert!(err.message.contains("witness.dual"), "{err}");
        let unknown = parse_json("{\"kind\": \"seance\"}").unwrap();
        assert!(parse_witness(&unknown).is_err());
    }

    #[test]
    fn batch_documents_parse_with_located_slots() {
        use crate::api::{Instance, Registry};
        use crate::io::report::{report_json_with, TimingMode};
        use crate::io::Json;
        use mrlr_graph::generators;

        let g = generators::with_uniform_weights(&generators::densified(20, 0.4, 3), 1.0, 9.0, 3);
        let cfg = crate::mr::MrConfig::auto(20, g.m(), 0.3, 3);
        let report = Registry::with_defaults()
            .solve("matching", &Instance::Graph(g), &cfg)
            .unwrap();
        let slot = report_json_with(&report, TimingMode::Masked, CertificateMode::Full);
        let doc = Json::Obj(vec![
            (
                "instances",
                Json::Arr(vec![Json::str("g.inst"), Json::str("h.inst")]),
            ),
            ("jobs", Json::Arr(vec![])),
            (
                "results",
                Json::Arr(vec![
                    Json::Arr(vec![
                        slot.clone(),
                        Json::Obj(vec![("error", Json::str("boom"))]),
                    ]),
                    Json::Arr(vec![slot]),
                ]),
            ),
        ])
        .render();
        assert!(is_batch_document(&parse_json(&doc).unwrap()));
        let batch = parse_batch(&doc).unwrap();
        assert_eq!(batch.instances, vec!["g.inst", "h.inst"]);
        assert_eq!(batch.results.len(), 2);
        assert!(matches!(&batch.results[0][0], BatchSlot::Report(r) if r.algorithm == "matching"));
        assert_eq!(batch.results[0][1], BatchSlot::Error("boom".into()));

        // A single report is not a batch document.
        let single = parse_json("{\"algorithm\": \"x\"}").unwrap();
        assert!(!is_batch_document(&single));

        // A mangled slot is located by its grid position.
        let bad = doc.replace("\"solution\"", "\"solution_gone\"");
        let err = parse_batch(&bad).unwrap_err();
        assert!(err.message.contains("results[0][0]"), "{err}");
    }

    #[test]
    fn report_round_trips_through_disk_format() {
        use crate::api::{Instance, Registry};
        use crate::io::report::{report_json_with, TimingMode};
        use mrlr_graph::generators;

        let g = generators::with_uniform_weights(&generators::densified(25, 0.4, 2), 1.0, 9.0, 2);
        let cfg = crate::mr::MrConfig::auto(25, g.m(), 0.3, 2);
        let instance = Instance::Graph(g);
        let report = Registry::with_defaults()
            .solve("matching", &instance, &cfg)
            .unwrap();

        let full = report_json_with(&report, TimingMode::Masked, CertificateMode::Full).render();
        let stored = parse_report(&full).unwrap();
        assert_eq!(stored.algorithm, "matching");
        assert_eq!(stored.backend, "mr");
        assert_eq!(stored.witness.as_ref(), Some(&report.certificate.witness));
        let Solution::Matching(m) = &stored.solution else {
            panic!("matching solution expected")
        };
        let Solution::Matching(orig) = &report.solution else {
            panic!()
        };
        assert_eq!(m.matching, orig.matching);
        assert_eq!(m.weight.to_bits(), orig.weight.to_bits());
        assert_eq!(m.stack_gain.to_bits(), orig.stack_gain.to_bits());

        // Summary mode carries no witness.
        let summary =
            report_json_with(&report, TimingMode::Masked, CertificateMode::Summary).render();
        assert!(parse_report(&summary).unwrap().witness.is_none());
    }
}
