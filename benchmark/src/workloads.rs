//! The six workloads: which instance files each one generates and which
//! `mrlr` commands make up one of its operations. The untraced run turns
//! a [`Step`] into a process, the traced run replays the same step
//! through the layers' public functions, so the two can never drift
//! apart. README.md records why each workload exists.

use std::fmt::Write as _;

/// Memory exponent of every single `solve` (the CLI default).
pub const SOLVE_MU: f64 = 0.3;

/// Chunk length of the committed-witness transcript in `stream-matching`.
pub const CHUNK_LEN: usize = 4096;

/// One generated instance file: `mrlr gen <family> <knobs> --seed S`.
pub struct Inst {
    pub file: &'static str,
    pub family: &'static str,
    pub full: &'static [&'static str],
    /// `--quick` knobs: about a twentieth of the records.
    pub quick: &'static [&'static str],
}

/// `mrlr solve matching --input <input> --threads 1 --format json`, with
/// full certificates — or, streamed, with a committed witness.
pub struct Solve {
    pub input: &'static str,
    pub stream: bool,
}

/// `mrlr batch <manifest> --backend <backend> --certificates summary`
/// over `instances × keys × mus`.
pub struct Batch {
    pub manifest: &'static str,
    pub instances: &'static [&'static str],
    pub keys: &'static [&'static str],
    pub mus: &'static [f64],
    pub threads: usize,
    pub backend: &'static str,
}

pub enum Step {
    Solve(Solve),
    Batch(Batch),
}

/// One entry of the `serve-mix` request pool.
pub struct Req {
    pub key: &'static str,
    pub input: &'static str,
    pub mu: f64,
}

pub enum Kind {
    /// An operation is one pass over these commands.
    Cli(&'static [Step]),
    /// An operation is one served request drawn from this pool; entry 0
    /// is the hot request (a quarter of all draws).
    Serve(&'static [Req]),
}

pub struct Workload {
    pub name: &'static str,
    pub instances: &'static [Inst],
    pub kind: Kind,
}

const GRAPH_KEYS: &[&str] = &["matching", "mis1", "mis2", "clique", "vertex-colouring"];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "file-matching",
        instances: &[Inst {
            file: "g.inst",
            family: "densified",
            full: &["--n", "10000", "--c", "0.5"],
            quick: &["--n", "1400", "--c", "0.5"],
        }],
        kind: Kind::Cli(&[Step::Solve(Solve {
            input: "g.inst",
            stream: false,
        })]),
    },
    Workload {
        name: "stream-matching",
        instances: &[Inst {
            file: "g.inst",
            family: "densified",
            full: &["--n", "14000", "--c", "0.5"],
            quick: &["--n", "1900", "--c", "0.5"],
        }],
        kind: Kind::Cli(&[Step::Solve(Solve {
            input: "g.inst",
            stream: true,
        })]),
    },
    Workload {
        name: "batch-graph",
        instances: &[
            Inst {
                file: "g.inst",
                family: "densified",
                full: &["--n", "6000", "--c", "0.5"],
                quick: &["--n", "800", "--c", "0.5"],
            },
            Inst {
                file: "e.inst",
                family: "densified",
                full: &["--n", "2500", "--c", "0.5"],
                quick: &["--n", "350", "--c", "0.5"],
            },
        ],
        kind: Kind::Cli(&[
            Step::Batch(Batch {
                manifest: "graph.manifest",
                instances: &["g.inst"],
                keys: GRAPH_KEYS,
                mus: &[0.3, 0.15, 0.1],
                threads: 2,
                backend: "shard",
            }),
            Step::Batch(Batch {
                manifest: "edge.manifest",
                instances: &["e.inst"],
                keys: &["edge-colouring"],
                mus: &[0.3, 0.15],
                threads: 2,
                backend: "shard",
            }),
        ]),
    },
    Workload {
        name: "batch-cover",
        instances: &[
            Inst {
                file: "sf.inst",
                family: "set-frequency",
                full: &["--n", "4000", "--m", "200000", "--f", "4"],
                quick: &["--n", "400", "--m", "10000", "--f", "4"],
            },
            Inst {
                file: "ss.inst",
                family: "set-size",
                full: &["--n", "200000", "--m", "4000", "--delta", "12"],
                quick: &["--n", "10000", "--m", "400", "--delta", "12"],
            },
            Inst {
                file: "vw.inst",
                family: "vertex-weighted",
                full: &["--n", "6000", "--c", "0.5"],
                quick: &["--n", "800", "--c", "0.5"],
            },
            Inst {
                file: "bm.inst",
                family: "b-matching",
                full: &["--n", "3000", "--c", "0.5"],
                quick: &["--n", "400", "--c", "0.5"],
            },
        ],
        kind: Kind::Cli(&[
            Step::Batch(Batch {
                manifest: "sets.manifest",
                instances: &["sf.inst", "ss.inst"],
                keys: &["set-cover-f", "set-cover-greedy"],
                mus: &[0.3, 0.15],
                threads: 1,
                backend: "shard",
            }),
            Step::Batch(Batch {
                manifest: "vc.manifest",
                instances: &["vw.inst"],
                keys: &["vertex-cover"],
                mus: &[0.3, 0.15, 0.1],
                threads: 1,
                backend: "shard",
            }),
            Step::Batch(Batch {
                manifest: "bm.manifest",
                instances: &["bm.inst"],
                keys: &["b-matching"],
                mus: &[0.3, 0.15],
                threads: 1,
                backend: "shard",
            }),
        ]),
    },
    Workload {
        name: "dist-shuffle",
        instances: &[
            Inst {
                file: "vw.inst",
                family: "vertex-weighted",
                full: &["--n", "6000", "--c", "0.5"],
                quick: &["--n", "800", "--c", "0.5"],
            },
            Inst {
                file: "g.inst",
                family: "densified",
                full: &["--n", "6000", "--c", "0.5"],
                quick: &["--n", "800", "--c", "0.5"],
            },
        ],
        kind: Kind::Cli(&[
            Step::Batch(Batch {
                manifest: "vc.manifest",
                instances: &["vw.inst"],
                keys: &["vertex-cover"],
                mus: &[0.3, 0.15, 0.1],
                threads: 1,
                backend: "dist",
            }),
            Step::Batch(Batch {
                manifest: "col.manifest",
                instances: &["g.inst"],
                keys: &["vertex-colouring"],
                mus: &[0.3, 0.15, 0.1],
                threads: 1,
                backend: "dist",
            }),
        ]),
    },
    Workload {
        name: "serve-mix",
        instances: &[
            Inst {
                file: "g.inst",
                family: "densified",
                full: &["--n", "1000", "--c", "0.5"],
                quick: &["--n", "300", "--c", "0.5"],
            },
            Inst {
                file: "vw.inst",
                family: "vertex-weighted",
                full: &["--n", "1000", "--c", "0.5"],
                quick: &["--n", "300", "--c", "0.5"],
            },
            Inst {
                file: "sf.inst",
                family: "set-frequency",
                full: &["--n", "400", "--m", "20000", "--f", "4"],
                quick: &["--n", "100", "--m", "2000", "--f", "4"],
            },
        ],
        kind: Kind::Serve(&[
            Req {
                key: "matching",
                input: "g.inst",
                mu: 0.3,
            },
            Req {
                key: "matching",
                input: "g.inst",
                mu: 0.15,
            },
            Req {
                key: "vertex-colouring",
                input: "g.inst",
                mu: 0.3,
            },
            Req {
                key: "mis2",
                input: "g.inst",
                mu: 0.3,
            },
            Req {
                key: "mis2",
                input: "g.inst",
                mu: 0.15,
            },
            Req {
                key: "set-cover-f",
                input: "sf.inst",
                mu: 0.3,
            },
            Req {
                key: "vertex-cover",
                input: "vw.inst",
                mu: 0.3,
            },
            Req {
                key: "vertex-cover",
                input: "vw.inst",
                mu: 0.15,
            },
        ]),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

impl Inst {
    /// Arguments of the `mrlr gen` call that writes this file.
    pub fn gen_args(&self, quick: bool, seed: u64) -> Vec<String> {
        let mut args = strings(&["gen", self.family]);
        args.extend(strings(if quick { self.quick } else { self.full }));
        args.extend(["--seed".into(), seed.to_string()]);
        args.extend(strings(&["--out", self.file]));
        args
    }
}

impl Batch {
    /// The manifest file: every job carries the run's seed.
    pub fn manifest_text(&self, seed: u64) -> String {
        let mut text = String::new();
        for instance in self.instances {
            let _ = writeln!(text, "instance {instance}");
        }
        for key in self.keys {
            for mu in self.mus {
                let _ = writeln!(
                    text,
                    "job {key} mu={mu} seed={seed} threads={}",
                    self.threads
                );
            }
        }
        text
    }
}

impl Step {
    /// The report file step `idx` of an operation writes.
    pub fn out(idx: usize) -> String {
        format!("out{idx}.json")
    }

    /// The committed-witness transcript of a streamed solve.
    pub fn transcript(idx: usize) -> String {
        format!("witness{idx}.txt")
    }

    /// Arguments of the command. The timed form of a batch writes
    /// summary certificates; its `checked` form writes full ones, which
    /// is what `mrlr verify` can re-audit. A solve is the same either way
    /// (full certificates, or a committed witness when streamed).
    pub fn args(&self, idx: usize, seed: u64, checked: bool) -> Vec<String> {
        match self {
            Step::Batch(b) => strings(&[
                "batch",
                b.manifest,
                "--backend",
                b.backend,
                "--certificates",
                if checked { "full" } else { "summary" },
                "--mask-timings",
                "--out",
                &Step::out(idx),
            ]),
            Step::Solve(s) => {
                let mut args = strings(&["solve", "matching", "--input", s.input]);
                args.extend(strings(&["--backend", "shard", "--threads", "1"]));
                args.extend(["--seed".into(), seed.to_string()]);
                args.extend(strings(&["--format", "json", "--mask-timings"]));
                if s.stream {
                    args.extend(strings(&["--stream", "--certificates", "committed"]));
                    args.extend(["--chunk-len".into(), CHUNK_LEN.to_string()]);
                    args.extend(["--witness-out".into(), Step::transcript(idx)]);
                }
                args.extend(["--out".into(), Step::out(idx)]);
                args
            }
        }
    }

    /// Arguments of the `mrlr verify` that audits this step's checked
    /// report.
    pub fn verify_args(&self, idx: usize) -> Vec<String> {
        match self {
            Step::Batch(_) => strings(&["verify", &Step::out(idx), "--quiet"]),
            Step::Solve(s) => {
                let mut args = strings(&["verify", s.input, &Step::out(idx), "--quiet"]);
                if s.stream {
                    args.extend(["--witness".into(), Step::transcript(idx)]);
                }
                args
            }
        }
    }
}
