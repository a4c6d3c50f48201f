//! Regenerates **Figure 1** of the paper with measured columns.
//!
//! Every paper row is one entry in a declarative spec table; the actual
//! invocation is a single loop dispatching through the
//! [`mrlr_core::api::Registry`] — no per-algorithm call sites. For each row
//! the binary reports: the theoretical approximation and round bounds, the
//! *measured* approximation (from the uniform report certificate), the
//! measured MapReduce rounds, and the measured peak words per machine
//! against the `η = n^{1+µ}` budget. The literature baselines we implement
//! (filtering, layered filtering, Crouch–Stubbs, coresets, Luby) follow in
//! their own section.
//!
//! The paper rows are also written to `FIGURE1.json` at the workspace
//! root: per row the measured ratio against the certificate's lower bound
//! (or the colour count against Corollary 6.3's budget), iterations,
//! rounds and supersteps, and `peak_machine_words`, `peak_central_words`
//! and `total_message_words` each beside its bound, plus the driver
//! function that ran and the test that asserts the row's guarantee. The
//! file holds no timings: everything in it is fixed by the seed, so
//! `--check` regenerates it and requires byte equality with the committed
//! file (`crates/bench/tests/figure1_contract.rs` checks that every named
//! driver and test exists and that every measured value keeps its bound).
//!
//! Usage: `cargo run --release -p mrlr-bench --bin figure1 [-- --check]`

#![forbid(unsafe_code)]

use mrlr_baselines::{
    coreset_matching, crouch_stubbs_matching, filtering_maximal_matching, filtering_vertex_cover,
    layered_weighted_matching, luby_colouring, luby_mis,
};
use mrlr_bench::{max_ratio, min_ratio, render_table, vertex_weights, weighted_graph, Row};
use mrlr_core::api::{
    BMatchingInstance, Instance, Registry, Report, Solution, VertexWeightedGraph,
    DEFAULT_GREEDY_SC_EPS,
};
use mrlr_core::colouring::colour_budget;
use mrlr_core::exact;
use mrlr_core::io::Json;
use mrlr_core::mr::MrConfig;
use mrlr_core::seq::{b_matching_multiplier, greedy_set_cover, harmonic};
use mrlr_core::verify;
use mrlr_setsys::generators as setgen;

const N: usize = 300;
const C: f64 = 0.5;
const MU: f64 = 0.25;
const SEED: u64 = 42;

/// Where the committed rows live: the workspace root.
const FIGURE1_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FIGURE1.json");

/// One Figure-1 row: theory columns plus the workload to measure them on.
struct Fig1Row {
    problem: &'static str,
    algorithm: &'static str,
    weighted: &'static str,
    approx_theory: String,
    /// The theorem's approximation ratio, for the keys whose certificate
    /// bounds it (`None`: the guarantee is maximality or a colour count).
    ratio_bound: Option<f64>,
    rounds_theory: String,
    reference: &'static str,
    /// The cluster driver the registry key dispatches to.
    driver: &'static str,
    /// The test that asserts this key's Figure-1 guarantee.
    test: &'static str,
    instance: Instance,
    cfg: MrConfig,
}

const COVER_TEST: &str =
    "tests/conformance.rs::cover_family_meets_figure_1_ratios_on_every_backend";
const GRAPH_TEST: &str =
    "tests/conformance.rs::graph_family_meets_figure_1_bounds_on_every_backend";

fn paper_rows() -> Vec<Fig1Row> {
    let g = weighted_graph(N, C, SEED);
    let m = g.m();
    let cfg = MrConfig::auto(N, m, MU, SEED);
    let rounds_c_mu = format!("O(c/mu) = {}", (C / MU).ceil() as usize + 1);

    // f-bounded set system for Algorithm 1.
    let f = 3usize;
    let sys_f =
        setgen::with_uniform_weights(setgen::bounded_frequency(N, m, f, SEED), 1.0, 10.0, SEED);
    // Δ-bounded set system for Algorithm 3.
    let mu_sc = 0.4;
    let universe = 200usize;
    let sys_d = setgen::with_uniform_weights(
        setgen::bounded_set_size(1500, universe, 20, SEED),
        1.0,
        10.0,
        SEED,
    );
    let sc_cfg = MrConfig::auto(universe, sys_d.total_size(), mu_sc, SEED);
    let greedy_bound = (1.0 + DEFAULT_GREEDY_SC_EPS) * harmonic(sys_d.max_set_size());
    // Dense G(n, 1/2) for the clique row.
    let dense = mrlr_graph::generators::gnp(120, 0.5, SEED);
    let dense_cfg = MrConfig::auto(120, dense.m(), 0.4, SEED);
    // b(v) ∈ {1, 2, 3} for the b-matching row.
    let b: Vec<u32> = (0..N as u32).map(|v| 1 + v % 3).collect();
    let mult = b_matching_multiplier(&b, 0.25);

    vec![
        Fig1Row {
            problem: "Vertex Cover",
            algorithm: "vertex-cover",
            weighted: "Y",
            approx_theory: "2".into(),
            ratio_bound: Some(2.0),
            rounds_theory: rounds_c_mu.clone(),
            reference: "Thm 2.4",
            driver: "mrlr_core::mr::vertex_cover::run",
            test: COVER_TEST,
            instance: Instance::VertexWeighted(VertexWeightedGraph::new(
                g.clone(),
                vertex_weights(N, SEED),
            )),
            cfg,
        },
        Fig1Row {
            problem: "Set Cover",
            algorithm: "set-cover-f",
            weighted: "Y",
            approx_theory: format!("f = {}", sys_f.max_frequency()),
            ratio_bound: Some(sys_f.max_frequency() as f64),
            rounds_theory: "O((c/mu)^2)".into(),
            reference: "Thm 2.4",
            driver: "mrlr_core::mr::set_cover::run",
            test: COVER_TEST,
            instance: Instance::SetSystem(sys_f),
            cfg,
        },
        Fig1Row {
            problem: "Set Cover",
            algorithm: "set-cover-greedy",
            weighted: "Y",
            approx_theory: format!("(1+e)H_D = {greedy_bound:.2}"),
            ratio_bound: Some(greedy_bound),
            rounds_theory: "O(log-ish / mu^2)".into(),
            reference: "Thm 4.6",
            driver: "mrlr_core::mr::set_cover_greedy::run",
            test: COVER_TEST,
            instance: Instance::SetSystem(sys_d),
            cfg: sc_cfg,
        },
        Fig1Row {
            problem: "Maximal Indep. Set",
            algorithm: "mis1",
            weighted: "-",
            approx_theory: "maximal".into(),
            ratio_bound: None,
            rounds_theory: "O(1/mu^2)".into(),
            reference: "Thm 3.3 (Alg 2)",
            driver: "mrlr_core::mr::mis::run_simple",
            test: GRAPH_TEST,
            instance: Instance::Graph(g.unweighted()),
            cfg,
        },
        Fig1Row {
            problem: "Maximal Indep. Set",
            algorithm: "mis2",
            weighted: "-",
            approx_theory: "maximal".into(),
            ratio_bound: None,
            rounds_theory: rounds_c_mu.clone(),
            reference: "Thm A.3 (Alg 6)",
            driver: "mrlr_core::mr::mis::run_fast",
            test: GRAPH_TEST,
            instance: Instance::Graph(g.unweighted()),
            cfg,
        },
        Fig1Row {
            problem: "Maximal Clique",
            algorithm: "clique",
            weighted: "-",
            approx_theory: "maximal".into(),
            ratio_bound: None,
            rounds_theory: "O(1/mu)".into(),
            reference: "Cor B.1",
            driver: "mrlr_core::mr::clique::run",
            test: GRAPH_TEST,
            instance: Instance::Graph(dense),
            cfg: dense_cfg,
        },
        Fig1Row {
            problem: "Matching",
            algorithm: "matching",
            weighted: "Y",
            approx_theory: "2".into(),
            ratio_bound: Some(2.0),
            rounds_theory: rounds_c_mu,
            reference: "Thm 5.6",
            driver: "mrlr_core::mr::matching::run",
            test: "tests/conformance.rs::matching_meets_theorem_5_6_on_densified_families",
            instance: Instance::Graph(g.clone()),
            cfg,
        },
        Fig1Row {
            problem: "b-Matching",
            algorithm: "b-matching",
            weighted: "Y",
            approx_theory: format!("3-2/b+2e = {mult:.2}"),
            ratio_bound: Some(mult),
            rounds_theory: "O(c/mu)".into(),
            reference: "Thm D.3",
            driver: "mrlr_core::mr::bmatching::run",
            test: COVER_TEST,
            instance: Instance::BMatching(BMatchingInstance::new(g.clone(), b, 0.25)),
            cfg,
        },
        Fig1Row {
            problem: "Vertex Colouring",
            algorithm: "vertex-colouring",
            weighted: "-",
            approx_theory: "(1+o(1))D".into(),
            ratio_bound: None,
            rounds_theory: "O(1)".into(),
            reference: "Thm 6.4",
            driver: "mrlr_core::mr::colouring::run_vertex",
            test: GRAPH_TEST,
            instance: Instance::Graph(g.clone()),
            cfg,
        },
        Fig1Row {
            problem: "Edge Colouring",
            algorithm: "edge-colouring",
            weighted: "-",
            approx_theory: "(1+o(1))D".into(),
            ratio_bound: None,
            rounds_theory: "O(1)".into(),
            reference: "Thm 6.6",
            driver: "mrlr_core::mr::colouring::run_edge",
            test: GRAPH_TEST,
            instance: Instance::Graph(g),
            cfg,
        },
    ]
}

/// The measured ratio of a cover or matching row: the certificate's,
/// except for greedy set cover. Its dual is the greedy prices divided by
/// exactly `(1+ε)H_Δ`, so its certified ratio is the bound by
/// construction. There the dual is rescaled by its tightest feasible
/// factor `s = max_i Σ_{j∈S_i} y_j / w_i`, and the ratio is
/// `weight · s / Σ y`: what this run's dual certifies.
fn measured_ratio(report: &Report<Solution>, instance: &Instance) -> Option<f64> {
    match (&report.solution, instance) {
        (Solution::Cover(cover), Instance::SetSystem(sys))
            if report.algorithm == "set-cover-greedy" =>
        {
            let mut y = vec![0.0; sys.universe()];
            for &(j, yj) in &cover.dual {
                y[j as usize] = yj;
            }
            let load = |i: usize| sys.sets()[i].iter().map(|&j| y[j as usize]).sum::<f64>();
            let s = (0..sys.n_sets())
                .map(|i| load(i) / sys.weights()[i])
                .fold(0.0, f64::max);
            Some(cover.weight * s / y.iter().sum::<f64>())
        }
        _ => report.certificate.certified_ratio,
    }
}

/// The measured-approximation cell, from the uniform certificate.
fn approx_measured(report: &Report<Solution>, instance: &Instance) -> String {
    match &report.solution {
        Solution::Cover(_) | Solution::Matching(_) => measured_ratio(report, instance)
            .map_or_else(|| "-".into(), |r| format!("{r:.3} (certified)")),
        Solution::Selection(s) => format!("exact (|S| = {})", s.vertices.len()),
        Solution::Colouring(c) => {
            let g = instance.graph().expect("colouring instances are graphs");
            format!(
                "{} cols, D = {}, budget {:.0}",
                c.num_colours,
                g.max_degree(),
                colour_budget(g.n(), g.max_degree(), MU)
            )
        }
    }
}

/// A measured value beside the bound it must keep.
fn kept(measured: Json, bound: Json) -> Json {
    Json::Obj(vec![("measured", measured), ("bound", bound)])
}

/// The `FIGURE1.json` row of one paper key. Panics if a measured value
/// breaks its bound: the committed file only ever holds kept bounds.
fn json_row(spec: &Fig1Row, report: &Report<Solution>) -> Json {
    let key = spec.algorithm;
    let m = report.metrics.as_ref().expect("Mr reports meter");
    let words = |what: &str, measured: usize, bound: usize| {
        assert!(measured <= bound, "{key}: {what} {measured} > {bound}");
        kept(Json::count(measured), Json::count(bound))
    };
    let ratio = spec.ratio_bound.map_or(Json::Null, |bound| {
        let ratio = measured_ratio(report, &spec.instance)
            .unwrap_or_else(|| panic!("{key}: no certified ratio"));
        assert!(ratio <= bound, "{key}: ratio {ratio} > {bound}");
        kept(Json::F64(ratio), Json::F64(bound))
    });
    let colours = report.solution.as_colouring().map_or(Json::Null, |c| {
        let g = spec
            .instance
            .graph()
            .expect("colouring instances are graphs");
        let budget = colour_budget(g.n(), g.max_degree(), spec.cfg.mu);
        assert!(c.num_colours as f64 <= budget, "{key}: colours over budget");
        kept(Json::count(c.num_colours), Json::F64(budget))
    });
    Json::Obj(vec![
        ("key", Json::str(key)),
        ("problem", Json::str(spec.problem)),
        ("reference", Json::str(spec.reference)),
        ("driver", Json::str(spec.driver)),
        ("test", Json::str(spec.test)),
        ("approx_theory", Json::str(&spec.approx_theory)),
        ("rounds_theory", Json::str(&spec.rounds_theory)),
        ("ratio", ratio),
        ("colours", colours),
        ("iterations", Json::count(report.solution.iterations())),
        ("rounds", Json::count(m.rounds)),
        ("supersteps", Json::count(m.supersteps)),
        ("machines", Json::count(m.machines)),
        (
            "peak_machine_words",
            words("peak machine words", m.peak_machine_words, m.capacity),
        ),
        (
            "peak_central_words",
            words("peak central words", m.peak_central_words, m.capacity),
        ),
        // Each machine sends at most its capacity per round.
        (
            "total_message_words",
            words(
                "total message words",
                m.total_message_words,
                m.rounds * m.machines * m.capacity,
            ),
        ),
    ])
}

/// Writes `doc` to [`FIGURE1_JSON`], or with `check` compares it with
/// the committed file and exits 1 on the first differing line.
fn commit_or_check(doc: &str, check: bool) {
    if !check {
        std::fs::write(FIGURE1_JSON, doc).expect("write FIGURE1.json");
        println!("wrote FIGURE1.json\n");
        return;
    }
    let committed = std::fs::read_to_string(FIGURE1_JSON).unwrap_or_default();
    if committed == doc {
        println!("FIGURE1.json: regenerated rows equal the committed file\n");
        return;
    }
    let (line, (want, got)) = committed
        .lines()
        .chain(std::iter::repeat(""))
        .zip(doc.lines().chain(std::iter::repeat("")))
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .expect("the texts differ");
    eprintln!(
        "FIGURE1.json differs from the regenerated rows at line {}:\n  committed:   {want}\n  regenerated: {got}\n\
         rerun `cargo run --release -p mrlr-bench --bin figure1` and commit the file if the change is intended",
        line + 1
    );
    std::process::exit(1);
}

fn main() {
    let check = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--check") => true,
        Some(other) => {
            eprintln!("figure1: unknown argument `{other}` (usage: figure1 [--check])");
            std::process::exit(2);
        }
    };
    let registry = Registry::with_defaults();
    let g = weighted_graph(N, C, SEED);
    let m = g.m();
    let nf = N as f64;
    let eta = nf.powf(1.0 + MU).ceil() as usize;
    println!("# Figure 1 (measured)\n");
    println!(
        "Workload: n = {N}, m = n^(1+c) = {m} (c = {C}), mu = {MU}, eta = n^(1+mu) = {eta}, seed = {SEED}.\n"
    );

    // ---- The paper's rows: one registry dispatch per spec entry ----
    let mut rows: Vec<Row> = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut reports: Vec<(&'static str, Report<Solution>)> = Vec::new();
    for spec in paper_rows() {
        let report = registry
            .solve(spec.algorithm, &spec.instance, &spec.cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.algorithm));
        assert!(report.certificate.feasible, "{} infeasible", spec.algorithm);
        json_rows.push(json_row(&spec, &report));
        let metrics = report.metrics.as_ref().expect("Mr reports meter");
        rows.push(Row(vec![
            spec.problem.into(),
            spec.weighted.into(),
            spec.approx_theory,
            approx_measured(&report, &spec.instance),
            spec.rounds_theory,
            format!(
                "{} it / {} rounds",
                report.solution.iterations(),
                metrics.rounds
            ),
            format!("{}", metrics.peak_machine_words),
            spec.reference.into(),
        ]));
        reports.push((spec.algorithm, report));
    }
    println!(
        "{}",
        render_table(
            &[
                "Problem",
                "Weighted?",
                "Approx (theory)",
                "Approx (measured)",
                "Rounds (theory)",
                "Rounds (measured)",
                "Peak words/machine",
                "Reference"
            ],
            &rows
        )
    );

    let doc = Json::Obj(vec![
        (
            "workload",
            Json::Obj(vec![
                ("n", Json::count(N)),
                ("m", Json::count(m)),
                ("c", Json::F64(C)),
                ("mu", Json::F64(MU)),
                ("seed", Json::U64(SEED)),
            ]),
        ),
        ("rows", Json::Arr(json_rows)),
    ]);
    commit_or_check(&doc.render(), check);

    // ---- Literature baselines (Figure 1 rows [27], [14], [4], [31], [32]) ----
    // The comparison anchor is the matching report already computed in the
    // paper-rows loop (same instance and cfg — everything is seed-fixed).
    let ours = &reports
        .iter()
        .find(|(name, _)| *name == "matching")
        .expect("matching row was solved above")
        .1;
    let w_ours = verify::matching_weight(&g, &ours.solution.as_matching().unwrap().matching);
    let mut rows: Vec<Row> = Vec::new();
    let gu = g.unweighted();
    let fr = filtering_maximal_matching(&gu, eta, SEED).expect("filtering");
    rows.push(Row(vec![
        "Matching".into(),
        "-".into(),
        "2".into(),
        "maximal (verified)".into(),
        "O(c/mu)".into(),
        format!("{} it", fr.iterations),
        format!("{}", 3 * fr.peak_sample),
        "Filtering [27] baseline".into(),
    ]));
    let (fvc, fvc_it) = filtering_vertex_cover(&gu, eta, SEED).expect("filtering vc");
    assert!(verify::is_vertex_cover(&gu, &fvc));
    rows.push(Row(vec![
        "Vertex Cover".into(),
        "-".into(),
        "2".into(),
        format!("|C| = {}", fvc.len()),
        "O(c/mu)".into(),
        format!("{fvc_it} it"),
        "-".into(),
        "Filtering [27] baseline".into(),
    ]));
    let lw = layered_weighted_matching(&g, eta, SEED).expect("layered");
    rows.push(Row(vec![
        "Matching".into(),
        "Y".into(),
        "8".into(),
        format!(
            "{:.3} of ours",
            verify::matching_weight(&g, &lw.matching) / w_ours
        ),
        "O((c/mu) log W)".into(),
        format!("{} it", lw.iterations),
        format!("{}", 3 * lw.peak_sample),
        "Layered filtering [27] baseline".into(),
    ]));
    let cs = crouch_stubbs_matching(&g, 0.5, eta, SEED).expect("crouch-stubbs");
    rows.push(Row(vec![
        "Matching".into(),
        "Y".into(),
        "4+e (3.5+e in [21])".into(),
        format!("{:.3} of ours", cs.weight / w_ours),
        "O(c/mu), classes parallel".into(),
        format!("{} it (max class)", cs.max_iterations),
        format!("{}", 3 * cs.total_peak_sample),
        "Crouch-Stubbs [14] baseline".into(),
    ]));
    let co = coreset_matching(&g, nf.sqrt().ceil() as usize, SEED).expect("coreset");
    rows.push(Row(vec![
        "Matching".into(),
        "Y".into(),
        "O(1)".into(),
        format!("{:.3} of ours", co.weight / w_ours),
        "2".into(),
        "2 rounds".into(),
        format!("{} union edges central", co.union_size),
        "2-round coreset [4] baseline".into(),
    ]));
    let luby = luby_mis(&gu, SEED);
    assert!(verify::is_maximal_independent_set(&gu, &luby.vertices));
    rows.push(Row(vec![
        "Maximal Indep. Set".into(),
        "-".into(),
        "maximal".into(),
        "exact (verified)".into(),
        "O(log n)".into(),
        format!("{} it", luby.rounds),
        "-".into(),
        "Luby [31] baseline".into(),
    ]));
    let lc = luby_colouring(&g, SEED);
    assert!(verify::is_proper_colouring(&g, &lc.colours));
    rows.push(Row(vec![
        "Vertex Colouring".into(),
        "-".into(),
        "D+1".into(),
        format!("{} cols, D = {}", lc.num_colours, g.max_degree()),
        "O(log n)".into(),
        format!("{} it", lc.rounds),
        "-".into(),
        "Luby [32] baseline".into(),
    ]));
    println!(
        "{}",
        render_table(
            &[
                "Problem",
                "Weighted?",
                "Approx (theory)",
                "Approx (measured)",
                "Rounds (theory)",
                "Rounds (measured)",
                "Peak words/machine",
                "Reference"
            ],
            &rows
        )
    );

    // ---- Adjunct: greedy pays more than (1+e)-greedy's certified bound ----
    {
        let sys = setgen::with_uniform_weights(
            setgen::bounded_set_size(1500, 200, 20, SEED),
            1.0,
            10.0,
            SEED,
        );
        let cfg = MrConfig::auto(200, sys.total_size(), 0.4, SEED);
        let r = registry
            .solve("set-cover-greedy", &Instance::SetSystem(sys.clone()), &cfg)
            .expect("set-cover-greedy");
        let cover = r.solution.as_cover().unwrap();
        let greedy = greedy_set_cover(&sys).expect("greedy");
        println!(
            "\nsequential greedy vs Algorithm 3 on the same instance: {:.3} vs {:.3} (ratio to the dual bound)\n",
            min_ratio(greedy.weight, cover.lower_bound),
            min_ratio(cover.weight, cover.lower_bound),
        );
    }

    // ---- Small-instance exact cross-check, through the registry ----
    println!("## Exact cross-check (n = 14, 50 seeds)\n");
    let mut worst_match = 1.0f64;
    let mut worst_vc = 1.0f64;
    for seed in 0..50u64 {
        let sg = weighted_graph(14, 0.4, seed);
        let cfg = MrConfig::auto(14, sg.m(), 0.3, seed);
        let (opt, _) = exact::max_weight_matching(&sg);
        let r = registry
            .solve("matching", &Instance::Graph(sg.clone()), &cfg)
            .expect("small matching");
        worst_match = worst_match.max(max_ratio(r.certificate.objective, opt));
        let w = vertex_weights(14, seed);
        let (vc_opt, _) = exact::min_weight_vertex_cover(&sg, &w);
        let rc = registry
            .solve(
                "vertex-cover",
                &Instance::VertexWeighted(VertexWeightedGraph::new(sg, w)),
                &cfg,
            )
            .expect("small vc");
        worst_vc = worst_vc.max(min_ratio(rc.certificate.objective, vc_opt));
    }
    println!("worst matching ratio vs exact OPT: {worst_match:.4} (theory 2.0)");
    println!("worst vertex cover ratio vs exact OPT: {worst_vc:.4} (theory 2.0)");

    // ---- Executor scaling: the same rounds, concurrent wall-clock ----
    // The Mr backend runs machine supersteps on the pluggable executor
    // seam; rounds/space are schedule-independent (asserted), wall-clock
    // scales with threads on hosts that have real cores.
    println!("\n## Executor scaling (matching, n = 1500, mu = 0.05)\n");
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    let gs = weighted_graph(1500, C, SEED);
    let scfg = MrConfig::auto(1500, gs.m(), 0.05, SEED);
    let sinst = Instance::Graph(gs);
    // Warm-up: the first solve pays one-off costs (page faults, lazy
    // allocations) that would skew the baseline row, and each pool's
    // thread spawns must not land inside its timed column.
    for threads in [2usize, 4, 8] {
        let _ = mrlr_mapreduce::executor_for(threads);
    }
    let reference = registry
        .solve("matching", &sinst, &scfg.with_threads(1))
        .expect("scaling reference");
    let mut rows = Vec::new();
    let mut seq_wall = f64::NAN;
    for threads in [1usize, 2, 4, 8] {
        let r = registry
            .solve("matching", &sinst, &scfg.with_threads(threads))
            .expect("scaling run");
        assert_eq!(r.solution, reference.solution, "threads changed the output");
        assert_eq!(r.metrics, reference.metrics, "threads changed the metrics");
        let m = r.metrics.as_ref().expect("Mr reports meter");
        let wall = r.wall.as_secs_f64();
        if threads == 1 {
            seq_wall = wall;
        }
        rows.push(Row(vec![
            format!("{threads}"),
            format!("{}", m.rounds),
            format!("{:.1}", wall * 1e3),
            format!("{:.2}x", seq_wall / wall.max(1e-9)),
            format!("{:.2}", m.max_straggler_skew()),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "threads",
                "rounds (identical)",
                "wall ms",
                "speedup vs seq",
                "straggler skew"
            ],
            &rows
        )
    );
    println!("host parallelism: {host}; outputs and metrics bit-identical at every thread count.");
}
