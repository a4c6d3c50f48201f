//! The `mrlr batch` manifest format.
//!
//! A manifest is line-oriented (comments `c`/`#`, blanks ignored) and
//! names an instance set and a job list; the batch runs the full cross
//! product through [`run_batch`](super::run_batch), instance by instance,
//! loading each instance just before its jobs and dropping it after its
//! last one:
//!
//! ```text
//! c instances are paths to unified-format files (see super::instance)
//! instance workloads/a.graph
//! instance workloads/b.sets
//! c job <algorithm> [mu=<f64>] [seed=<u64>] [threads=<usize>]
//! job matching mu=0.3 seed=7
//! job set-cover-f threads=4
//! ```
//!
//! `mu` defaults to 0.3, `seed` to 42; `threads` defaults to the process
//! default (`MRLR_THREADS`, else sequential). The cluster shape of each
//! job is auto-derived per instance via
//! [`Instance::auto_config`][crate::api::Instance::auto_config], so one
//! job line applies meaningfully to instances of different scales.

use super::{tokens, IoError};

/// Default memory exponent `µ` for manifest jobs.
pub const DEFAULT_MU: f64 = 0.3;

/// Default seed for manifest jobs.
pub const DEFAULT_SEED: u64 = 42;

/// One `job` line of a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Registry key of the algorithm.
    pub algorithm: String,
    /// Memory exponent `µ` used to auto-shape the cluster per instance.
    pub mu: f64,
    /// Seed for all hash-derived randomness.
    pub seed: u64,
    /// Executor threads; `None` = process default (`MRLR_THREADS`).
    pub threads: Option<usize>,
}

/// A parsed batch manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Instance file paths, in declaration order.
    pub instances: Vec<String>,
    /// Jobs, in declaration order.
    pub jobs: Vec<JobSpec>,
}

fn err(line: usize, col: usize, message: impl Into<String>) -> IoError {
    IoError {
        line,
        col,
        message: message.into(),
    }
}

/// Parses a manifest. Errors carry 1-based line/column positions.
pub fn parse_manifest(text: &str) -> Result<Manifest, IoError> {
    let mut instances = Vec::new();
    let mut jobs = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let no = no + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed == "c" {
            continue;
        }
        let mut toks: Vec<(usize, &str)> = tokens(raw).collect();
        let (_, tag) = toks.remove(0);
        match tag {
            "c" => continue,
            "instance" => {
                if toks.is_empty() {
                    return Err(err(no, raw.len() + 1, "missing instance path"));
                }
                if toks.len() > 1 {
                    let (col, tok) = toks[1];
                    return Err(err(
                        no,
                        col,
                        format!("unexpected trailing `{tok}` (paths must not contain spaces)"),
                    ));
                }
                instances.push(toks[0].1.to_string());
            }
            "job" => {
                if toks.is_empty() {
                    return Err(err(no, raw.len() + 1, "missing algorithm key"));
                }
                let (_, algorithm) = toks.remove(0);
                let mut job = JobSpec {
                    algorithm: algorithm.to_string(),
                    mu: DEFAULT_MU,
                    seed: DEFAULT_SEED,
                    threads: None,
                };
                for (col, tok) in toks {
                    let (key, value) = tok.split_once('=').ok_or_else(|| {
                        err(no, col, format!("expected `key=value`, found `{tok}`"))
                    })?;
                    match key {
                        "mu" => {
                            job.mu = value
                                .parse()
                                .map_err(|_| err(no, col, format!("bad mu `{value}`")))?;
                            if !(job.mu.is_finite() && job.mu > 0.0) {
                                return Err(err(no, col, "mu must be positive and finite"));
                            }
                        }
                        "seed" => {
                            job.seed = value
                                .parse()
                                .map_err(|_| err(no, col, format!("bad seed `{value}`")))?;
                        }
                        "threads" => {
                            job.threads = Some(
                                value
                                    .parse()
                                    .map_err(|_| err(no, col, format!("bad threads `{value}`")))?,
                            );
                        }
                        other => {
                            return Err(err(
                                no,
                                col,
                                format!(
                                    "unknown job option `{other}` (expected mu, seed, threads)"
                                ),
                            ));
                        }
                    }
                }
                jobs.push(job);
            }
            other => {
                return Err(err(
                    no,
                    1,
                    format!("unexpected record `{other}` (expected `instance` or `job`)"),
                ));
            }
        }
    }
    if instances.is_empty() {
        return Err(err(0, 0, "manifest needs at least one `instance` line"));
    }
    if jobs.is_empty() {
        return Err(err(0, 0, "manifest needs at least one `job` line"));
    }
    Ok(Manifest { instances, jobs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_defaults_and_overrides() {
        let m = parse_manifest(
            "c batch\n# also a comment\n\ninstance a.graph\ninstance b.sets\n\
             job matching\njob set-cover-f mu=0.25 seed=7 threads=4\n",
        )
        .unwrap();
        assert_eq!(m.instances, vec!["a.graph", "b.sets"]);
        assert_eq!(m.jobs.len(), 2);
        assert_eq!(m.jobs[0].algorithm, "matching");
        assert_eq!(m.jobs[0].mu, DEFAULT_MU);
        assert_eq!(m.jobs[0].seed, DEFAULT_SEED);
        assert_eq!(m.jobs[0].threads, None);
        assert_eq!(m.jobs[1].mu, 0.25);
        assert_eq!(m.jobs[1].seed, 7);
        assert_eq!(m.jobs[1].threads, Some(4));
    }

    #[test]
    fn errors_are_positioned() {
        let cases: &[(&str, usize, &str)] = &[
            ("bogus x", 1, "unexpected record"),
            ("instance", 1, "missing instance path"),
            ("instance a b", 1, "must not contain spaces"),
            ("instance a\njob", 2, "missing algorithm key"),
            ("instance a\njob m kappa=3", 2, "unknown job option"),
            ("instance a\njob m mu=x", 2, "bad mu"),
            ("instance a\njob m mu=-1", 2, "must be positive"),
            ("instance a\njob m seed=x", 2, "bad seed"),
            ("instance a\njob m threads=x", 2, "bad threads"),
            ("instance a\njob m mu", 2, "expected `key=value`"),
            ("job m", 0, "at least one `instance`"),
            ("instance a", 0, "at least one `job`"),
        ];
        for (text, line, needle) in cases {
            let e = parse_manifest(text).unwrap_err();
            assert_eq!(e.line, *line, "case {text:?}: {e}");
            assert!(e.message.contains(needle), "case {text:?}: {e}");
        }
    }
}
