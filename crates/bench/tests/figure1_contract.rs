//! `FIGURE1.json` maps each paper row to code: the driver function that
//! ran it and the test that asserts its guarantee. This test keeps that
//! map honest, the way `readme_contract.rs` keeps the README's backends
//! table honest: every registry key has exactly one row, every named
//! driver and test exists, and every measured value keeps the bound
//! written beside it. `figure1 --check` (run here and as a CI step)
//! proves the committed numbers are the ones the code produces.

use mrlr_core::api::witness::AUDIT_TOL;
use mrlr_core::api::Registry;
use mrlr_core::io::{parse_json, JsonValue};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn read(path: &str) -> String {
    std::fs::read_to_string(format!("{ROOT}/{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn rows() -> Vec<JsonValue> {
    let doc = parse_json(&read("FIGURE1.json")).expect("FIGURE1.json parses");
    doc.get("rows")
        .and_then(JsonValue::as_arr)
        .expect("FIGURE1.json has a rows array")
        .to_vec()
}

fn field<'a>(row: &'a JsonValue, name: &str) -> &'a str {
    row.get(name)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("row without a string `{name}`"))
}

/// The source file and function name of `mrlr_core::a::b::f`, or `None`
/// if the path is not in `mrlr_core`.
fn driver_source(path: &str) -> Option<(String, &str)> {
    let rest = path.strip_prefix("mrlr_core::")?;
    let (module, function) = rest.rsplit_once("::")?;
    let module = module.replace("::", "/");
    let file = [
        format!("crates/core/src/{module}.rs"),
        format!("crates/core/src/{module}/mod.rs"),
    ]
    .into_iter()
    .find(|f| std::path::Path::new(&format!("{ROOT}/{f}")).exists())?;
    Some((file, function))
}

#[test]
fn every_registry_key_has_one_row() {
    let keys: Vec<String> = rows().iter().map(|r| field(r, "key").to_string()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    let registry: Vec<String> = Registry::with_defaults()
        .algorithms()
        .into_iter()
        .map(str::to_string)
        .collect();
    assert_eq!(
        sorted, registry,
        "FIGURE1.json rows diverged from the registry"
    );
}

#[test]
fn every_named_driver_and_test_exists() {
    for row in rows() {
        let key = field(&row, "key");
        let driver = field(&row, "driver");
        let (file, function) =
            driver_source(driver).unwrap_or_else(|| panic!("{key}: no source for `{driver}`"));
        assert!(
            read(&file).contains(&format!("pub fn {function}(")),
            "{key}: {file} has no `pub fn {function}`"
        );
        let test = field(&row, "test");
        let (file, name) = test
            .split_once("::")
            .unwrap_or_else(|| panic!("{key}: `{test}` is not FILE::NAME"));
        assert!(
            read(file).contains(&format!("#[test]\nfn {name}()")),
            "{key}: {file} has no test `{name}`"
        );
    }
}

#[test]
fn every_measured_value_keeps_its_bound() {
    let mut pairs = 0;
    for row in rows() {
        let key = field(&row, "key");
        for name in [
            "ratio",
            "colours",
            "peak_machine_words",
            "peak_central_words",
            "total_message_words",
        ] {
            let value = row
                .get(name)
                .unwrap_or_else(|| panic!("{key}: no `{name}`"));
            if *value == JsonValue::Null {
                continue;
            }
            let number = |side: &str| {
                value
                    .get(side)
                    .and_then(JsonValue::as_f64)
                    .unwrap_or_else(|| panic!("{key}: `{name}` has no numeric `{side}`"))
            };
            let (measured, bound) = (number("measured"), number("bound"));
            // `verify`'s tolerance: a fitted dual certifies exactly its
            // theorem's ratio, up to floating-point rounding.
            assert!(
                measured <= bound * (1.0 + AUDIT_TOL),
                "{key}: {name} {measured} > {bound}"
            );
            pairs += 1;
        }
        // Each row carries exactly one guarantee: a ratio, a colour count,
        // or (MIS and clique) maximality, which the certificate checks.
        let guarantees = ["ratio", "colours"]
            .iter()
            .filter(|g| row.get(g) != Some(&JsonValue::Null))
            .count();
        assert!(guarantees <= 1, "{key}: more than one guarantee");
        for count in ["iterations", "rounds", "supersteps"] {
            assert!(
                row.get(count).and_then(JsonValue::as_u64).is_some(),
                "{key}: no `{count}`"
            );
        }
    }
    assert!(pairs >= 30, "only {pairs} measured values checked");
}

#[test]
fn figure1_check_reproduces_the_committed_rows() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figure1"))
        .arg("--check")
        .output()
        .expect("figure1 runs");
    assert!(
        out.status.success(),
        "figure1 --check failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
