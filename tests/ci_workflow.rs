//! The CI workflow must parse as YAML: one that does not runs no job,
//! silently (a `- run:` line ending in `:` once did that for several
//! commits). Needs `python3` with PyYAML; without either it prints a
//! skip line and passes.

use std::io::{ErrorKind, Write as _};
use std::path::Path;
use std::process::Command;

/// Exit status of [`PARSE`] when PyYAML is not installed.
const NO_PYYAML: i32 = 3;

/// Loads the file named by `argv[1]` and checks it is a mapping with
/// `jobs`, as every workflow is.
const PARSE: &str = "\
import sys
try:
    import yaml
except ImportError:
    sys.exit(3)
doc = yaml.safe_load(open(sys.argv[1]))
assert isinstance(doc, dict) and 'jobs' in doc, 'not a workflow: no jobs mapping'
";

/// Written past libtest's output capture, so a plain `cargo test` shows it.
fn skip(why: &str) {
    let _ = writeln!(std::io::stderr(), "ci_workflow: SKIPPED: {why}");
}

#[test]
fn the_ci_workflow_parses_as_yaml() {
    let workflow = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml");
    assert!(workflow.is_file(), "{} is missing", workflow.display());
    let out = match Command::new("python3")
        .args(["-c", PARSE])
        .arg(&workflow)
        .output()
    {
        Ok(out) => out,
        Err(e) if e.kind() == ErrorKind::NotFound => {
            return skip("python3 is not installed");
        }
        Err(e) => panic!("cannot run python3: {e}"),
    };
    if out.status.code() == Some(NO_PYYAML) {
        return skip("python3 has no PyYAML");
    }
    assert!(
        out.status.success(),
        "{} does not parse:\n{}",
        workflow.display(),
        String::from_utf8_lossy(&out.stderr)
    );
}
