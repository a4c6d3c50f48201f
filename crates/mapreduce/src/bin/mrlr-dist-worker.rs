//! Standalone dist worker binary: connects to the rendezvous socket named
//! by `MRLR_DIST_SOCKET` and serves the shuffle-region protocol until
//! shutdown. The `mrlr` CLI embeds the same entry point (it re-enters as
//! a worker when the variable is set); this dedicated binary exists so
//! process-mode tests can point `MRLR_DIST_WORKER_BIN` at a known-good
//! worker without re-executing a test harness.

#![forbid(unsafe_code)]

fn main() {
    std::process::exit(mrlr_mapreduce::dist::worker::worker_main());
}
