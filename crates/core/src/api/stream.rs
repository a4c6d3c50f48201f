//! `matching` solved straight off a reader.
//!
//! [`solve_matching_stream`] loads the instance the one way every command
//! loads it — [`read_instance`] through a fixed window, then the cluster
//! run distributes it — so its report is `Registry::solve("matching", …)`'s,
//! byte for byte. It keeps the benchmark's in-process replay of `mrlr
//! solve --stream` (a flag the CLI accepts and ignores) compiling.

use mrlr_mapreduce::MrError;

use super::{dispatch, Backend, Instance, Report};
use crate::io::{read_instance, IoError};
use crate::mr::MrConfig;
use crate::types::MatchingResult;

/// What a streamed solve can fail with: a parse error positioned in the
/// input stream, or a cluster error from the run itself.
#[derive(Debug)]
pub enum StreamError {
    /// Parse failure, with its line/column position.
    Io(IoError),
    /// Cluster failure (capacity, algorithm `fail` branch, bad config).
    Mr(MrError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "{e}"),
            StreamError::Mr(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<IoError> for StreamError {
    fn from(e: IoError) -> Self {
        StreamError::Io(e)
    }
}

impl From<MrError> for StreamError {
    fn from(e: MrError) -> Self {
        StreamError::Mr(e)
    }
}

/// Reads a `p graph` instance from `reader` (fixed `buf_len`-byte
/// window) and solves `matching` on `backend`. `configure` receives the
/// graph's `(n, m)` and returns the cluster regime — typically
/// [`MrConfig::auto`]`(n, m, µ, seed)`, which is what
/// [`Instance::auto_config`] derives.
pub fn solve_matching_stream<R: std::io::Read>(
    reader: R,
    buf_len: usize,
    backend: Backend,
    configure: impl FnOnce(usize, usize) -> MrConfig,
) -> Result<Report<MatchingResult>, StreamError> {
    let instance = read_instance(reader, buf_len)?;
    let Instance::Graph(g) = instance else {
        return Err(StreamError::Io(IoError {
            line: 0,
            col: 0,
            message: format!(
                "matching needs a `p graph` instance, got a {}",
                instance.kind()
            ),
        }));
    };
    let cfg = configure(g.n(), g.m());
    Ok(dispatch::matching(backend, &g, &cfg)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Registry;
    use crate::io::render_instance;
    use mrlr_graph::generators::{densified, with_uniform_weights};

    #[test]
    fn streamed_report_matches_materialized_bit_for_bit() {
        for seed in 0..3 {
            let g = with_uniform_weights(&densified(48, 0.4, seed), 0.5, 10.0, seed + 17);
            let cfg = MrConfig::auto(g.n(), 2 * g.m(), 0.25, seed);
            let direct = Registry::with_defaults()
                .solve("matching", &Instance::Graph(g.clone()), &cfg)
                .unwrap();
            let text = render_instance(&Instance::Graph(g));
            for buf in [1usize, 7, 4096] {
                let streamed = solve_matching_stream(
                    std::io::Cursor::new(text.as_bytes()),
                    buf,
                    Backend::Mr,
                    |_, _| cfg,
                )
                .unwrap();
                let dm = direct.solution.as_matching().unwrap();
                assert_eq!(&streamed.solution, dm, "seed {seed} buf {buf}");
                assert_eq!(streamed.certificate, direct.certificate);
                assert_eq!(streamed.metrics, direct.metrics);
            }
        }
    }

    #[test]
    fn non_graph_kind_rejected() {
        let text = "p set-system 3 1\ns 1.0 0 2\n";
        let cfg = MrConfig::auto(4, 8, 0.25, 1);
        let err = solve_matching_stream(
            std::io::Cursor::new(text.as_bytes()),
            64,
            Backend::Mr,
            |_, _| cfg,
        )
        .unwrap_err();
        assert!(err.to_string().contains("`p graph`"), "{err}");
    }
}
