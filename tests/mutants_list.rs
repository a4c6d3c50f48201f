//! `tests/mutants.txt` must stay applicable: `scripts/mutants.sh` refuses
//! a `from` text that does not occur exactly once in its file, and only
//! the long-running mutation job would notice when a refactor moves or
//! rewrites a mutated line. This reads the list as the script does —
//! tab-separated name, file, `from`, `to` and an optional survivor
//! reason, `#` lines and blank lines skipped — and checks every row.

use std::path::Path;

#[test]
fn every_mutant_from_text_occurs_once_in_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let list = std::fs::read_to_string(root.join("tests/mutants.txt")).expect("read mutants.txt");
    let mut rows = 0;
    for (i, line) in list.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        assert!(
            (4..=5).contains(&fields.len()) && fields[..4].iter().all(|f| !f.is_empty()),
            "line {}: need name, file, from, to and an optional reason, tab-separated: {line:?}",
            i + 1
        );
        let (name, file, from) = (fields[0], fields[1], fields[2]);
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("`{name}`: cannot read {file}: {e}"));
        let count = text.matches(from).count();
        assert_eq!(
            count, 1,
            "`{name}`: `{from}` occurs {count} times in {file}"
        );
        rows += 1;
    }
    assert!(rows > 0, "tests/mutants.txt lists no mutant");
}
