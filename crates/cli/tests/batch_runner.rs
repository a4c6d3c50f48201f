//! `io::run_batch` — the runner behind `mrlr batch` and the serve
//! daemon — renders each slot as it finishes, yet its document must be
//! byte for byte the one the whole-grid oracle renders from every report
//! held at once (`batch_json(...).render()`, `batch_csv(...)`). Checked
//! on the smoke manifest's instances and jobs (kind-mismatch error slots
//! included), on 0, 1 and 3 instances and on an empty job list, in JSON
//! with both certificate modes and in CSV; and on the smoke manifest
//! itself, against the checked-in golden documents.

use std::path::{Path, PathBuf};
use std::process::Command;

use mrlr_core::api::{Backend, Instance, Registry, Report, Solution};
use mrlr_core::io::{self, BatchFormat, BatchResults, CertificateMode, JobSpec, TimingMode};

const MATRIX: &str = include_str!("smoke_matrix.txt");

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Generates the smoke matrix's instance for `key` into `dir` as
/// `<key>.inst`, as `cli_smoke.rs` does, and loads it.
fn smoke_instance(dir: &Path, key: &str) -> Instance {
    let row = MATRIX
        .lines()
        .find(|l| l.split('|').next().map(str::trim) == Some(key))
        .unwrap_or_else(|| panic!("no smoke matrix row for {key}"));
    let parts: Vec<&str> = row.split('|').collect();
    let out = dir.join(format!("{key}.inst"));
    let status = Command::new(env!("CARGO_BIN_EXE_mrlr"))
        .args(["gen", parts[1].trim()])
        .args(parts[2].split_whitespace())
        .arg("--out")
        .arg(&out)
        .status()
        .expect("spawn mrlr");
    assert!(status.success(), "mrlr gen for {key} failed");
    let file = std::fs::File::open(&out).unwrap();
    io::read_instance(file, io::DEFAULT_BUF_LEN).unwrap()
}

/// One slot, shaped as `mrlr batch` shapes it on its default backend.
fn solve(
    registry: &Registry,
    instance: &Instance,
    job: &JobSpec,
) -> Result<Report<Solution>, String> {
    let mut cfg = instance.auto_config(job.mu, job.seed);
    if let Some(t) = job.threads {
        cfg = cfg.with_threads(t);
    }
    registry
        .solve_with(&job.algorithm, Backend::Mr, instance, &cfg)
        .map_err(|e| e.to_string())
}

fn streamed(
    paths: &[String],
    instances: &[&Instance],
    jobs: &[JobSpec],
    format: BatchFormat,
) -> String {
    let registry = Registry::with_defaults();
    io::run_batch(
        paths,
        jobs,
        format,
        TimingMode::Masked,
        |i| Ok::<_, ()>(instances[i]),
        |instance, j| solve(&registry, instance, &jobs[j]),
        |_| Ok(()),
    )
    .unwrap()
}

fn whole_grid(
    paths: &[String],
    instances: &[&Instance],
    jobs: &[JobSpec],
    format: BatchFormat,
) -> String {
    let registry = Registry::with_defaults();
    let results: BatchResults = instances
        .iter()
        .map(|instance| {
            jobs.iter()
                .map(|job| solve(&registry, instance, job))
                .collect()
        })
        .collect();
    match format {
        BatchFormat::Json(certificates) => {
            io::batch_json(paths, jobs, &results, TimingMode::Masked, certificates).render()
        }
        BatchFormat::Csv => io::batch_csv(paths, jobs, &results, TimingMode::Masked),
    }
}

const FORMATS: [BatchFormat; 3] = [
    BatchFormat::Json(CertificateMode::Full),
    BatchFormat::Json(CertificateMode::Summary),
    BatchFormat::Csv,
];

#[test]
fn the_runner_renders_the_whole_grid_document() {
    let dir = std::env::temp_dir().join(format!("mrlr-batch-runner-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph = smoke_instance(&dir, "matching");
    let sets = smoke_instance(&dir, "set-cover-f");
    let manifest_text = std::fs::read_to_string(golden_dir().join("batch.manifest")).unwrap();
    let manifest = io::parse_manifest(&manifest_text).unwrap();
    assert_eq!(manifest.instances, ["matching.inst", "set-cover-f.inst"]);

    let grids: Vec<(Vec<&str>, Vec<&Instance>)> = vec![
        (vec![], vec![]),
        (vec!["matching.inst"], vec![&graph]),
        (
            vec!["matching.inst", "set-cover-f.inst"],
            vec![&graph, &sets],
        ),
        (
            vec!["set-cover-f.inst", "matching.inst", "set-cover-f.inst"],
            vec![&sets, &graph, &sets],
        ),
    ];
    for (names, instances) in &grids {
        let paths: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        for jobs in [&manifest.jobs[..], &[]] {
            for format in FORMATS {
                assert_eq!(
                    streamed(&paths, instances, jobs, format),
                    whole_grid(&paths, instances, jobs, format),
                    "{names:?} × {} jobs, {format:?}",
                    jobs.len()
                );
            }
        }
    }

    // The smoke manifest itself renders its golden documents, error
    // slots included.
    let both = [&graph, &sets];
    let json = streamed(&manifest.instances, &both, &manifest.jobs, FORMATS[0]);
    assert!(
        json.contains("\"error\""),
        "expected mismatch slots:\n{json}"
    );
    let golden_json = std::fs::read_to_string(golden_dir().join("batch.json")).unwrap();
    assert_eq!(json, golden_json);
    let csv = streamed(&manifest.instances, &both, &manifest.jobs, BatchFormat::Csv);
    let golden_csv = std::fs::read_to_string(golden_dir().join("batch.csv")).unwrap();
    assert_eq!(csv, golden_csv);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failing load stops the runner at that instance and renders nothing;
/// the instances before it have run and `done` saw each of them.
#[test]
fn a_failing_load_stops_the_batch_after_the_instances_before_it() {
    let dir = std::env::temp_dir().join(format!("mrlr-batch-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph = smoke_instance(&dir, "matching");
    let paths: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
    let jobs = [JobSpec {
        algorithm: "matching".to_string(),
        mu: 0.3,
        seed: 42,
        threads: None,
    }];
    let registry = Registry::with_defaults();
    let mut solved = 0;
    let mut finished = Vec::new();
    let err = io::run_batch(
        &paths,
        &jobs,
        BatchFormat::Csv,
        TimingMode::Masked,
        |i| {
            if i == 1 {
                Err(format!("{} is malformed", paths[i]))
            } else {
                Ok(&graph)
            }
        },
        |instance, j| {
            solved += 1;
            solve(&registry, instance, &jobs[j])
        },
        |i| {
            finished.push(i);
            Ok(())
        },
    )
    .unwrap_err();
    assert_eq!(err, "b is malformed");
    assert_eq!((solved, finished), (1, vec![0]));
    let _ = std::fs::remove_dir_all(&dir);
}
