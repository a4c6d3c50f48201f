//! Per-lemma experiments E1–E14: the quantitative claims behind the
//! paper's theorems, measured on the cluster simulator. E11 (post-hoc
//! fault pricing) is retired — `Backend::Dist` recovers from real worker
//! kills, see `scripts/fault_smoke.sh`; the other numbers are stable.
//!
//! Every algorithm invocation dispatches through the
//! [`mrlr_core::api::Registry`] — experiments only differ in the workloads
//! they build and the columns they report. Ablation-only code paths
//! (pooled sampling, decay traces, potential traces) use their dedicated
//! instrumented entry points, which are not registry algorithms.
//!
//! Usage: `cargo run --release -p mrlr-bench --bin experiments [e1 e2 …]`
//! (no arguments = run everything). Output is markdown.

#![forbid(unsafe_code)]

use mrlr_baselines::{
    coreset_matching, crouch_stubbs_matching, greedy_weighted_matching, layered_weighted_matching,
    luby_mis,
};
use mrlr_bench::{
    geometric_mean, max_ratio, min_ratio, render_table, vertex_weights, weighted_graph, Row,
};
use mrlr_core::api::{
    BMatchingInstance, Backend, Instance, Registry, Report, Solution, VertexWeightedGraph,
};
use mrlr_core::colouring::{colour_budget, group_count};
use mrlr_core::exact;
use mrlr_core::hungry::{hungry_set_cover, HungryScParams};
use mrlr_core::mr::MrConfig;
use mrlr_core::seq::b_matching_multiplier;
use mrlr_setsys::generators as setgen;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    let registry = Registry::with_defaults();
    if want("e1") {
        e1_uncovered_decay(&registry);
    }
    if want("e2") {
        e2_vc_rounds(&registry);
    }
    if want("e3") {
        e3_mis_rounds(&registry);
    }
    if want("e4") {
        e4_potential_decay();
    }
    if want("e5") {
        e5_matching(&registry);
    }
    if want("e6") {
        e6_mu_zero(&registry);
    }
    if want("e7") {
        e7_bmatching(&registry);
    }
    if want("e8") {
        e8_colouring(&registry);
    }
    if want("e9") {
        e9_baselines(&registry);
    }
    if want("e10") {
        e10_clique(&registry);
    }
    if want("e12") {
        e12_eta_ablation(&registry);
    }
    if want("e13") {
        e13_sampling_ablation(&registry);
    }
    if want("e14") {
        e14_executor_scaling(&registry);
    }
}

/// Dispatches on the given backend and insists on a verified solution —
/// every experiment's invariant, checked by the report's independent
/// certificate.
fn solve_on(
    registry: &Registry,
    algorithm: &str,
    backend: Backend,
    instance: &Instance,
    cfg: &MrConfig,
) -> Report<Solution> {
    let report = registry
        .solve_with(algorithm, backend, instance, cfg)
        .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
    assert!(
        report.certificate.feasible,
        "{algorithm}: infeasible solution"
    );
    report
}

/// [`solve_on`] on the metered cluster backend.
fn solve(
    registry: &Registry,
    algorithm: &str,
    instance: &Instance,
    cfg: &MrConfig,
) -> Report<Solution> {
    solve_on(registry, algorithm, Backend::Mr, instance, cfg)
}

/// [`solve_on`] on the in-memory `Rlr` backend (no cluster metering).
fn solve_rlr(
    registry: &Registry,
    algorithm: &str,
    instance: &Instance,
    cfg: &MrConfig,
) -> Report<Solution> {
    solve_on(registry, algorithm, Backend::Rlr, instance, cfg)
}

/// E1 — Lemma 2.2 / Theorem 2.3: `|U_{r+1}| ≲ 2|U_r|/n^µ` and `⌈c/µ⌉`-ish
/// iterations for the f-approximate set cover.
fn e1_uncovered_decay(registry: &Registry) {
    println!("\n## E1 — set cover: uncovered-set decay (Lemma 2.2, Thm 2.3)\n");
    let mut rows = Vec::new();
    for (n, c, mu, f) in [
        (200usize, 0.3f64, 0.15f64, 2usize),
        (200, 0.5, 0.15, 2),
        (200, 0.5, 0.25, 2),
        (200, 0.5, 0.25, 3),
        (300, 0.5, 0.25, 5),
    ] {
        let m = (n as f64).powf(1.0 + c).round() as usize;
        let sys = setgen::with_uniform_weights(setgen::bounded_frequency(n, m, f, 7), 1.0, 10.0, 7);
        let cfg = MrConfig::auto(n, m, mu, 7);
        let r = solve(registry, "set-cover-f", &Instance::SetSystem(sys), &cfg);
        rows.push(Row(vec![
            format!("n={n} m={m} f={f}"),
            format!("{mu}"),
            format!("{}", (c / mu).ceil() as usize + 1),
            format!("{}", r.solution.iterations()),
            format!("{}", r.rounds()),
            format!("{:.3}", r.certificate.certified_ratio.unwrap_or(f64::NAN)),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "instance",
                "mu",
                "ceil(c/mu)+1",
                "iterations",
                "MR rounds",
                "certified ratio"
            ],
            &rows
        )
    );
}

/// E2 — Theorem 2.4 (f = 2): weighted vertex cover rounds scale with c/µ,
/// not with n.
fn e2_vc_rounds(registry: &Registry) {
    println!("\n## E2 — vertex cover: rounds scale with c/mu, ratio <= 2 (Thm 2.4)\n");
    let mut rows = Vec::new();
    for (n, c, mu) in [
        (200usize, 0.3f64, 0.15f64),
        (200, 0.5, 0.15),
        (200, 0.5, 0.25),
        (200, 0.5, 0.35),
        (400, 0.5, 0.25),
        (600, 0.5, 0.25),
    ] {
        let g = weighted_graph(n, c, 11);
        let cfg = MrConfig::auto(n, g.m(), mu, 11);
        let inst = Instance::VertexWeighted(VertexWeightedGraph::new(g, vertex_weights(n, 11)));
        let r = solve(registry, "vertex-cover", &inst, &cfg);
        rows.push(Row(vec![
            format!("n={n} c={c} mu={mu}"),
            format!("{}", (c / mu).ceil() as usize + 1),
            format!("{}", r.solution.iterations()),
            format!("{}", r.rounds()),
            format!("{:.3}", r.certificate.certified_ratio.unwrap_or(f64::NAN)),
            format!("{}", r.peak_words()),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "instance",
                "ceil(c/mu)+1",
                "iterations",
                "MR rounds",
                "certified ratio",
                "peak words"
            ],
            &rows
        )
    );
}

/// E3 — Theorems 3.3 / A.3: MIS1 (`O(1/µ²)`) vs MIS2 (`O(c/µ)`) vs Luby
/// (`O(log n)`).
fn e3_mis_rounds(registry: &Registry) {
    println!("\n## E3 — MIS: hungry-greedy rounds vs Luby (Thms 3.3, A.3)\n");
    let mut rows = Vec::new();
    for (n, c, mu) in [
        (300usize, 0.4f64, 0.2f64),
        (300, 0.4, 0.3),
        (300, 0.4, 0.4),
        (600, 0.4, 0.3),
    ] {
        let g = weighted_graph(n, c, 13).unweighted();
        let cfg = MrConfig::auto(n, g.m(), mu, 13);
        let inst = Instance::Graph(g.clone());
        let r1 = solve(registry, "mis1", &inst, &cfg);
        let r2 = solve(registry, "mis2", &inst, &cfg);
        let luby = luby_mis(&g, 13);
        rows.push(Row(vec![
            format!("n={n} c={c} mu={mu}"),
            format!("{} it / {} rds", r1.solution.iterations(), r1.rounds()),
            format!("{} it / {} rds", r2.solution.iterations(), r2.rounds()),
            format!("{} it", luby.rounds),
            format!("{}", (n as f64).log2().ceil() as usize),
        ]));
    }
    println!(
        "{}",
        render_table(
            &["instance", "MIS1 (Alg 2)", "MIS2 (Alg 6)", "Luby", "log2 n"],
            &rows
        )
    );
}

/// E4 — Lemmas 4.3/4.4: potential decay of the hungry-greedy set cover.
/// Uses the instrumented `hungry_set_cover` entry point directly — the
/// per-round potential trace is ablation-only detail a uniform `Report`
/// deliberately does not carry.
fn e4_potential_decay() {
    println!("\n## E4 — set cover (1+e)lnD: potential decay (Lemma 4.3)\n");
    let mut rows = Vec::new();
    for (m, delta, mu) in [(150usize, 12usize, 0.4f64), (300, 20, 0.4), (300, 20, 0.5)] {
        let sys = setgen::with_uniform_weights(
            setgen::bounded_set_size(10 * m, m, delta, 17),
            1.0,
            10.0,
            17,
        );
        let params = HungryScParams::new(m, mu, 0.2, 17);
        let (r, trace) = hungry_set_cover(&sys, params).expect("e4");
        assert!(sys.covers(&r.cover));
        // Geometric decay factor across the first level's rounds.
        let decays: Vec<f64> = trace
            .potentials
            .windows(2)
            .filter(|w| w[1] > 0.0 && w[1] <= w[0])
            .map(|w| w[0] / w[1].max(1.0))
            .collect();
        rows.push(Row(vec![
            format!("m={m} D={delta} mu={mu}"),
            format!("{}", r.iterations),
            format!("{}", trace.levels),
            format!("{}", trace.failed_rounds),
            format!("{:.2}", geometric_mean(&decays)),
            format!("{:.3}", min_ratio(r.weight, r.lower_bound)),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "instance",
                "inner rounds",
                "levels",
                "failed rounds",
                "geo-mean decay/round",
                "certified ratio"
            ],
            &rows
        )
    );
}

/// E5 — Theorems 5.5/5.6: matching rounds `O(c/µ)`, ratio ≤ 2 (certified
/// and vs exact on small instances).
fn e5_matching(registry: &Registry) {
    println!("\n## E5 — weighted matching: rounds O(c/mu), ratio <= 2 (Thm 5.6)\n");
    let mut rows = Vec::new();
    for (n, c, mu) in [
        (200usize, 0.3f64, 0.15f64),
        (200, 0.5, 0.15),
        (200, 0.5, 0.25),
        (200, 0.5, 0.35),
        (500, 0.5, 0.25),
    ] {
        let g = weighted_graph(n, c, 19);
        let cfg = MrConfig::auto(n, g.m(), mu, 19);
        let r = solve(registry, "matching", &Instance::Graph(g), &cfg);
        rows.push(Row(vec![
            format!("n={n} c={c} mu={mu}"),
            format!("{}", (c / mu).ceil() as usize + 1),
            format!("{}", r.solution.iterations()),
            format!("{}", r.rounds()),
            format!("{:.3}", r.certificate.certified_ratio.unwrap_or(f64::NAN)),
            format!("{}", r.peak_words()),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "instance",
                "ceil(c/mu)+1",
                "iterations",
                "MR rounds",
                "certified ratio",
                "peak words"
            ],
            &rows
        )
    );
    // Exact ratios on small instances (in-memory backend).
    let mut ratios = Vec::new();
    for seed in 0..40u64 {
        let g = weighted_graph(16, 0.4, seed);
        let (opt, _) = exact::max_weight_matching(&g);
        let cfg = MrConfig::auto(16, g.m(), 0.15, seed);
        let r = solve_rlr(registry, "matching", &Instance::Graph(g), &cfg);
        ratios.push(max_ratio(r.certificate.objective, opt));
    }
    let worst = ratios.iter().cloned().fold(1.0f64, f64::max);
    println!(
        "small-instance exact ratios (n = 16, 40 seeds): geo-mean {:.4}, worst {:.4} (theory 2.0)\n",
        geometric_mean(&ratios),
        worst
    );
}

/// E6 — Theorem C.2: `µ = 0` (η = n) matching terminates in `O(log n)`
/// iterations.
fn e6_mu_zero(registry: &Registry) {
    println!("\n## E6 — matching with eta = n (mu = 0): O(log n) iterations (Thm C.2)\n");
    println!("Heavy-tailed weights (log-uniform over 6 decades) slow the weight-\nreduction cascade, exposing the geometric edge decay of Lemma C.1.\n");
    let mut rows = Vec::new();
    for n in [100usize, 200, 400, 800] {
        let base = mrlr_graph::generators::densified(n, 0.55, 23);
        let g = mrlr_graph::generators::with_log_uniform_weights(&base, 1.0, 1e6, 23);
        // µ = 0 makes auto derive η = n exactly — the Appendix C regime.
        let cfg = MrConfig::auto(n, g.m(), 0.0, 23);
        let m = g.m();
        let r = solve_rlr(registry, "matching", &Instance::Graph(g), &cfg);
        rows.push(Row(vec![
            format!("{n}"),
            format!("{m}"),
            format!("{}", r.solution.iterations()),
            format!("{:.1}", (n as f64).log2()),
            format!("{:.3}", r.certificate.certified_ratio.unwrap_or(f64::NAN)),
        ]));
    }
    println!(
        "{}",
        render_table(
            &["n", "m", "iterations", "log2 n", "certified ratio"],
            &rows
        )
    );
}

/// E7 — Theorem D.3: b-matching ratio ≤ `3 − 2/b + 2ε`.
fn e7_bmatching(registry: &Registry) {
    println!("\n## E7 — b-matching: ratio vs 3 - 2/b + 2e (Thm D.3)\n");
    let mut rows = Vec::new();
    for b_cap in [1u32, 2, 3, 5] {
        let mut certified = Vec::new();
        let mut exact_ratios = Vec::new();
        for seed in 0..20u64 {
            // m = 10^{1.35} ≈ 22 ≤ 26 keeps the exact solver applicable.
            let g = weighted_graph(10, 0.35, seed);
            let b = vec![b_cap; g.n()];
            // Tiny central budget η = 8 forces the sampling path; µ = 0.3
            // gives the oversampling factor n^µ = 10^0.3 ≈ 2.
            let mut cfg = MrConfig::auto(10, g.m(), 0.3, seed);
            cfg.eta = 8;
            let inst = Instance::BMatching(BMatchingInstance::new(g.clone(), b, 0.25));
            let r = solve_rlr(registry, "b-matching", &inst, &cfg);
            certified.push(r.certificate.certified_ratio.unwrap_or(f64::NAN));
            let (opt, _) = exact::max_weight_b_matching(&g, &vec![b_cap; g.n()]);
            exact_ratios.push(max_ratio(r.certificate.objective, opt));
        }
        let mult = b_matching_multiplier(&[b_cap.max(1)], 0.25);
        rows.push(Row(vec![
            format!("{b_cap}"),
            format!("{mult:.2}"),
            format!("{:.3}", geometric_mean(&certified)),
            format!(
                "{:.3} / {:.3}",
                geometric_mean(&exact_ratios),
                exact_ratios.iter().cloned().fold(1.0f64, f64::max)
            ),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "b",
                "theory 3-2/b+2e",
                "geo-mean certified",
                "exact geo-mean / worst"
            ],
            &rows
        )
    );
}

/// E8 — Lemmas 6.1/6.2, Corollary 6.3: colour counts within `(1+o(1))Δ`,
/// group edge bound, O(1) rounds.
fn e8_colouring(registry: &Registry) {
    println!("\n## E8 — colouring: colours <= (1+o(1))D in O(1) rounds (Thms 6.4/6.6)\n");
    let mut rows = Vec::new();
    for (n, c, mu) in [
        (200usize, 0.5f64, 0.2f64),
        (400, 0.5, 0.2),
        (400, 0.6, 0.2),
        (400, 0.6, 0.3),
    ] {
        let g = weighted_graph(n, c, 29);
        let kappa = group_count(n, g.m(), mu);
        let cfg = MrConfig::auto(n, g.m(), mu, 29);
        let inst = Instance::Graph(g.clone());
        let rv = solve(registry, "vertex-colouring", &inst, &cfg);
        let re = solve(registry, "edge-colouring", &inst, &cfg);
        let delta = g.max_degree();
        let luby = mrlr_baselines::luby_colouring(&g, 29);
        assert!(
            mrlr_core::verify::is_proper_colouring(&g, &luby.colours),
            "Luby baseline produced an improper colouring"
        );
        let (cv, ce) = (
            rv.solution.as_colouring().unwrap(),
            re.solution.as_colouring().unwrap(),
        );
        rows.push(Row(vec![
            format!("n={n} c={c} mu={mu}"),
            format!("{kappa}"),
            format!("{delta}"),
            format!("{:.0}", colour_budget(n, delta, mu)),
            format!("{} ({} rds)", cv.num_colours, rv.rounds()),
            format!("{} ({} rds)", ce.num_colours, re.rounds()),
            format!("{} ({} rds)", luby.num_colours, luby.rounds),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "instance",
                "kappa",
                "Delta",
                "budget (1+o(1))D",
                "vertex cols (rounds)",
                "edge cols (rounds)",
                "Luby [32] cols (rounds)"
            ],
            &rows
        )
    );
}

/// E9 — baseline head-to-head: our 2-approx weighted matching vs layered
/// filtering (8-approx), Crouch–Stubbs (4+ε), the 2-round coreset, and
/// sequential greedy, on the same graphs.
fn e9_baselines(registry: &Registry) {
    println!("\n## E9 — weighted matching: local ratio vs the Figure-1 baselines\n");
    let mut rows = Vec::new();
    for (n, c) in [(200usize, 0.4f64), (300, 0.5), (500, 0.5)] {
        let g = weighted_graph(n, c, 31);
        // µ = 0.25 gives the η = n^1.25 budget the baselines also get.
        let cfg = MrConfig::auto(n, g.m(), 0.25, 31);
        let eta = cfg.eta;
        let ours = solve_rlr(registry, "matching", &Instance::Graph(g.clone()), &cfg);
        let layered = layered_weighted_matching(&g, eta, 31).expect("layered");
        let cs = crouch_stubbs_matching(&g, 0.5, eta, 31).expect("crouch-stubbs");
        let coreset = coreset_matching(&g, (n as f64).sqrt() as usize, 31).expect("coreset");
        let greedy = greedy_weighted_matching(&g);
        let w_ours = ours.certificate.objective;
        let w_lay = mrlr_core::verify::matching_weight(&g, &layered.matching);
        let w_greedy = mrlr_core::verify::matching_weight(&g, &greedy);
        rows.push(Row(vec![
            format!("n={n} c={c}"),
            format!("{w_ours:.0} ({} it)", ours.solution.iterations()),
            format!(
                "{w_lay:.0} ({:.3}x, {} it)",
                w_lay / w_ours,
                layered.iterations
            ),
            format!(
                "{:.0} ({:.3}x, {} cls)",
                cs.weight,
                cs.weight / w_ours,
                cs.classes
            ),
            format!(
                "{:.0} ({:.3}x, 2 rds)",
                coreset.weight,
                coreset.weight / w_ours
            ),
            format!("{w_greedy:.0} ({:.3}x)", w_greedy / w_ours),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "instance",
                "RLR (Thm 5.6)",
                "layered [27]",
                "Crouch-Stubbs [14]",
                "coreset [4]",
                "greedy (seq)"
            ],
            &rows
        )
    );
    // Weight-spread instances (log-uniform over 9 octaves): where guarantee
    // gaps become realized gaps — layering loses whole weight classes.
    println!("with heavy-tailed weights (log-uniform 0.5..256):\n");
    let mut rows = Vec::new();
    for (n, c) in [(200usize, 0.4f64), (300, 0.5), (500, 0.5)] {
        let base = mrlr_graph::generators::densified(n, c, 33);
        let g = mrlr_graph::generators::with_log_uniform_weights(&base, 0.5, 256.0, 34);
        let cfg = MrConfig::auto(n, g.m(), 0.25, 33);
        let eta = cfg.eta;
        let ours = solve_rlr(registry, "matching", &Instance::Graph(g.clone()), &cfg);
        let layered = layered_weighted_matching(&g, eta, 33).expect("layered");
        let cs = crouch_stubbs_matching(&g, 0.5, eta, 33).expect("cs");
        let coreset = coreset_matching(&g, (n as f64).sqrt() as usize, 33).expect("coreset");
        let w_ours = ours.certificate.objective;
        let w_lay = mrlr_core::verify::matching_weight(&g, &layered.matching);
        rows.push(Row(vec![
            format!("n={n} c={c}"),
            format!("{w_ours:.0}"),
            format!("{:.3}x", w_lay / w_ours),
            format!("{:.3}x", cs.weight / w_ours),
            format!("{:.3}x", coreset.weight / w_ours),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "instance",
                "RLR weight",
                "layered/ours",
                "Crouch-Stubbs/ours",
                "coreset/ours"
            ],
            &rows
        )
    );
}

/// E10 — Corollary B.1: maximal clique rounds.
fn e10_clique(registry: &Registry) {
    println!("\n## E10 — maximal clique: hungry-greedy rounds (Cor B.1)\n");
    let mut rows = Vec::new();
    for (n, p, mu) in [(150usize, 0.5f64, 0.3f64), (150, 0.8, 0.3), (300, 0.5, 0.4)] {
        let g = mrlr_graph::generators::gnp(n, p, 37);
        let cfg = MrConfig::auto(n, g.m(), mu, 37);
        let r = solve(registry, "clique", &Instance::Graph(g), &cfg);
        let k = r.solution.as_selection().unwrap();
        rows.push(Row(vec![
            format!("n={n} p={p} mu={mu}"),
            format!("{}", k.vertices.len()),
            format!("{}", r.solution.iterations()),
            format!("{}", r.rounds()),
            format!("{}", r.peak_words()),
        ]));
    }
    println!(
        "{}",
        render_table(
            &["instance", "|K|", "iterations", "MR rounds", "peak words"],
            &rows
        )
    );
}

/// E12 — ablation: sampling budget η. The paper sets η = n^{1+µ}; this
/// sweep shows iterations growing as η shrinks (the c/µ trade-off made
/// concrete) while the certified ratio stays ≤ 2 throughout — correctness
/// never depends on the budget.
fn e12_eta_ablation(registry: &Registry) {
    println!("\n## E12 — ablation: sampling budget eta vs iterations (Alg 4)\n");
    let n = 300usize;
    let g = weighted_graph(n, 0.5, 47);
    let mut rows = Vec::new();
    for exp in [1.05f64, 1.15, 1.25, 1.35, 1.45] {
        // µ = exp − 1 makes auto derive η = n^exp.
        let cfg = MrConfig::auto(n, g.m(), exp - 1.0, 47);
        let r = solve_rlr(registry, "matching", &Instance::Graph(g.clone()), &cfg);
        rows.push(Row(vec![
            format!("n^{exp} = {}", cfg.eta),
            format!("{}", r.solution.iterations()),
            format!("{:.3}", r.certificate.certified_ratio.unwrap_or(f64::NAN)),
            format!("{:.0}", r.certificate.objective),
        ]));
    }
    println!(
        "{}",
        render_table(&["eta", "iterations", "certified ratio", "weight"], &rows)
    );
}

/// E14 — executor scaling (the seam behind `Backend::Mr`): the same run
/// on the 1-thread pool and 2/4/8-thread pools. Solutions and
/// `Metrics` are asserted bit-identical at every thread count — the
/// executor only moves wall-clock, and only on hosts with real cores
/// (single-CPU hosts read flat; the substrate's rendezvous test proves
/// the concurrency structurally). Ends with a `solve_batch` smoke run:
/// one instance set across many `(algorithm, cfg)` jobs.
fn e14_executor_scaling(registry: &Registry) {
    println!("\n## E14 — executor scaling: wall-clock vs threads, identical outputs\n");
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("host parallelism: {host} (thread columns drop below seq only with real cores)\n");
    // Pool thread spawns must not land inside the timed threaded cells.
    for threads in [2usize, 4, 8] {
        let _ = mrlr_mapreduce::executor_for(threads);
    }
    let mut rows = Vec::new();
    for n in [1000usize, 2000] {
        let g = weighted_graph(n, 0.5, 61);
        // Small µ = many η-sized machines: the parallel-grain regime.
        let cfg = MrConfig::auto(n, g.m(), 0.05, 61);
        let inst = Instance::Graph(g);
        // Warm-up run: one-off costs (page faults, pool spawn) must not
        // land on the baseline column.
        let _ = solve(registry, "matching", &inst, &cfg.with_threads(1));
        let reference = solve(registry, "matching", &inst, &cfg.with_threads(1));
        let ref_metrics = reference.metrics.clone().expect("Mr backend meters");
        let mut cells = vec![
            format!("matching n={n} M={}", cfg.machines),
            format!("{}", reference.rounds()),
            format!("{:.1}", reference.wall.as_secs_f64() * 1e3),
        ];
        for threads in [2usize, 4, 8] {
            let r = solve(registry, "matching", &inst, &cfg.with_threads(threads));
            assert_eq!(r.solution, reference.solution, "x{threads} diverged");
            assert_eq!(
                r.metrics.as_ref().expect("meters"),
                &ref_metrics,
                "x{threads} metrics diverged"
            );
            let speedup = reference.wall.as_secs_f64() / r.wall.as_secs_f64().max(1e-9);
            cells.push(format!("{:.1} ({speedup:.2}x)", r.wall.as_secs_f64() * 1e3));
        }
        cells.push(format!("{:.2}", ref_metrics.max_straggler_skew()));
        rows.push(Row(cells));
    }
    println!(
        "{}",
        render_table(
            &[
                "instance",
                "MR rounds",
                "seq ms",
                "2 thr ms",
                "4 thr ms",
                "8 thr ms",
                "straggler skew"
            ],
            &rows
        )
    );

    // solve_batch smoke: one instance set across many (algorithm, cfg)
    // jobs.
    let ga = weighted_graph(300, 0.5, 67);
    let gb = weighted_graph(200, 0.4, 68);
    let cfg_a = MrConfig::auto(300, ga.m(), 0.25, 67);
    let cfg_b = MrConfig::auto(200, gb.m(), 0.25, 68);
    let instances = vec![Instance::Graph(ga), Instance::Graph(gb)];
    let jobs = [
        ("matching", cfg_a),
        ("matching", cfg_a.with_threads(4)),
        ("mis2", cfg_a),
        ("vertex-colouring", cfg_b),
    ];
    let results = registry.solve_batch(&instances, &jobs);
    let mut solved = 0usize;
    for (i, per_instance) in results.iter().enumerate() {
        for ((name, _), outcome) in jobs.iter().zip(per_instance) {
            let report = outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("batch {name} on instance {i}: {e}"));
            assert!(report.certificate.feasible, "batch {name}: infeasible");
            solved += 1;
        }
        // The two matching jobs differ only in thread count: identical
        // solutions, identical metrics.
        let (a, b) = (
            per_instance[0].as_ref().unwrap(),
            per_instance[1].as_ref().unwrap(),
        );
        assert_eq!(a.solution, b.solution, "batch: thread count changed output");
        assert_eq!(a.metrics, b.metrics, "batch: thread count changed metrics");
    }
    println!(
        "solve_batch smoke: {} instances x {} jobs = {solved} verified reports (thread-count twins bit-identical)\n",
        instances.len(),
        jobs.len()
    );
}

/// E13 — ablation: per-vertex vs pooled sampling (the design choice behind
/// Lemma 5.4). Both are certified 2-approximations; per-vertex sampling is
/// what makes hub degrees decay geometrically. The pooled variant and the
/// decay traces are ablation-only instrumented entry points.
fn e13_sampling_ablation(registry: &Registry) {
    use mrlr_core::rlr::{approx_max_matching_pooled, degree_decay_trace, SamplingStrategy};
    println!("\n## E13 — ablation: per-vertex (Alg 4) vs pooled sampling\n");
    let mut rows = Vec::new();
    for (n, c) in [(300usize, 0.5f64), (500, 0.5)] {
        // Hub-heavy weights: the regime where the design choice matters.
        let base = mrlr_graph::generators::densified(n, c, 51);
        let g = mrlr_graph::generators::with_degree_weights(&base, 0.5);
        let cfg = MrConfig::auto(n, g.m(), 0.15, 53);
        let eta = cfg.eta;
        let pv = solve_rlr(registry, "matching", &Instance::Graph(g.clone()), &cfg);
        let pl = approx_max_matching_pooled(&g, eta, 53).expect("pooled");
        assert!(mrlr_core::verify::is_matching(&g, &pl.matching));
        let tv = degree_decay_trace(&g, eta, 53, SamplingStrategy::PerVertex).expect("trace pv");
        let tl = degree_decay_trace(&g, eta, 53, SamplingStrategy::Pooled).expect("trace pl");
        let fmt_trace = |t: &[usize]| {
            t.iter()
                .take(6)
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(">")
        };
        rows.push(Row(vec![
            format!("n={n} c={c}"),
            format!(
                "{} it, {:.0}w",
                pv.solution.iterations(),
                pv.certificate.objective
            ),
            format!("{} it, {:.0}w", pl.iterations, pl.weight),
            fmt_trace(&tv),
            fmt_trace(&tl),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "instance",
                "per-vertex (paper)",
                "pooled (ablation)",
                "Delta_i per-vertex",
                "Delta_i pooled"
            ],
            &rows
        )
    );
}
