//! Named workload families: the one source of generated instances shared
//! by the `mrlr gen` CLI and the experiment binaries.
//!
//! Each family is a string key plus a builder from [`GenParams`] (seeds
//! and size knobs) to a type-erased [`Instance`], so data-driven harnesses
//! can enumerate scenarios the same way the [`Registry`] enumerates
//! algorithms. Builders validate their knobs and return an error string
//! instead of panicking, which is what lets the CLI surface `--n 3 --m
//! 9999` as a usage error rather than an abort.
//!
//! [`Registry`]: mrlr_core::api::Registry

use mrlr_core::api::{
    BMatchingInstance, Instance, InstanceKind, VertexWeightedGraph, DEFAULT_BMATCHING_EPS,
};
use mrlr_graph::generators as ggen;
use mrlr_setsys::generators as sgen;

use crate::{vertex_weights, weighted_graph};

/// Size/seed knobs accepted by every family; each family reads the subset
/// it understands and derives the rest (e.g. a missing `m` falls back to
/// the paper's `n^{1+c}` density).
#[derive(Debug, Clone, PartialEq)]
pub struct GenParams {
    /// Vertices (graphs) or sets (set systems).
    pub n: usize,
    /// Edges (graphs) or universe size (set systems); `None` = `n^{1+c}`.
    pub m: Option<usize>,
    /// Density exponent `c` of the paper's `m = n^{1+c}` assumption.
    pub c: f64,
    /// Power-law exponent (`power-law` family; must exceed 2).
    pub gamma: f64,
    /// Maximum element frequency (`set-frequency` family).
    pub f: usize,
    /// Maximum set size (`set-size` family).
    pub delta: usize,
    /// Maximum interval length (`interval` family).
    pub max_len: usize,
    /// Left side of a bipartite graph; `None` = `n / 2`.
    pub left: Option<usize>,
    /// Edge/set weights are uniform in `[w_min, w_max)` …
    pub w_min: f64,
    /// … unless `unweighted` is set.
    pub w_max: f64,
    /// Skip the weighting pass (unit weights).
    pub unweighted: bool,
    /// Reduction slack `ε` (`b-matching`, `greedy-trap`); by default
    /// [`DEFAULT_BMATCHING_EPS`].
    pub eps: f64,
    /// Capacities cycle through `1..=b_max` (`b-matching` family).
    pub b_max: u32,
    /// Seed for all randomness.
    pub seed: u64,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            n: 60,
            m: None,
            c: 0.4,
            gamma: 2.5,
            f: 3,
            delta: 8,
            max_len: 8,
            left: None,
            w_min: 1.0,
            w_max: 10.0,
            unweighted: false,
            eps: DEFAULT_BMATCHING_EPS,
            b_max: 3,
            seed: 42,
        }
    }
}

impl GenParams {
    /// The paper's default edge/element count `n^{1+c}`, clamped to `cap`.
    fn target_m(&self, cap: usize) -> usize {
        self.m
            .unwrap_or_else(|| (self.n as f64).powf(1.0 + self.c).round() as usize)
            .min(cap)
    }

    fn weighted(&self, g: mrlr_graph::Graph) -> mrlr_graph::Graph {
        if self.unweighted {
            g
        } else {
            ggen::with_uniform_weights(&g, self.w_min, self.w_max, self.seed ^ 0x77)
        }
    }
}

/// One registered family.
pub struct FamilySpec {
    /// Stable family key (`mrlr gen <name>`).
    pub name: &'static str,
    /// The instance kind the family produces.
    pub kind: InstanceKind,
    /// One-line description for `mrlr list`/`--help`.
    pub description: &'static str,
    /// Builder; errors are human-readable knob validation messages.
    pub build: fn(&GenParams) -> Result<Instance, String>,
}

fn complete_m(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

fn check(cond: bool, msg: impl Into<String>) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.into())
    }
}

fn check_weights(p: &GenParams) -> Result<(), String> {
    check(
        p.unweighted || (p.w_min > 0.0 && p.w_max > p.w_min),
        format!("need 0 < w-min < w-max, got [{}, {})", p.w_min, p.w_max),
    )
}

fn gnm(p: &GenParams) -> Result<Instance, String> {
    check_weights(p)?;
    let m = p.target_m(complete_m(p.n));
    check(
        p.m.is_none_or(|want| want <= complete_m(p.n)),
        format!("m = {:?} exceeds the complete graph on n = {}", p.m, p.n),
    )?;
    Ok(Instance::Graph(p.weighted(ggen::gnm(p.n, m, p.seed))))
}

fn densified(p: &GenParams) -> Result<Instance, String> {
    check_weights(p)?;
    check(
        p.m.is_none(),
        "densified derives m = n^{1+c} from --c; use gnm for an explicit --m",
    )?;
    if p.unweighted {
        Ok(Instance::Graph(ggen::densified(p.n, p.c, p.seed)))
    } else if (p.w_min, p.w_max) == (1.0, 10.0) {
        // The standard experiment workload, byte-for-byte.
        Ok(Instance::Graph(weighted_graph(p.n, p.c, p.seed)))
    } else {
        Ok(Instance::Graph(
            p.weighted(ggen::densified(p.n, p.c, p.seed)),
        ))
    }
}

fn power_law(p: &GenParams) -> Result<Instance, String> {
    check_weights(p)?;
    // n = 2 has rejection cap 0 (m <= n(n-1)/4), so the smallest usable
    // power-law graph has 3 vertices.
    check(p.n >= 3, "power-law needs n >= 3")?;
    check(
        p.gamma > 2.0,
        format!("gamma must exceed 2 (got {})", p.gamma),
    )?;
    let cap = (complete_m(p.n) / 2).max(1);
    let m = p.target_m(cap);
    Ok(Instance::Graph(
        p.weighted(ggen::chung_lu(p.n, m, p.gamma, p.seed)),
    ))
}

fn bipartite(p: &GenParams) -> Result<Instance, String> {
    check_weights(p)?;
    let left = p.left.unwrap_or(p.n / 2).min(p.n);
    let right = p.n - left;
    check(
        left >= 1 && right >= 1,
        format!("bipartite needs both sides nonempty (left {left}, right {right})"),
    )?;
    let m = p.target_m(left * right);
    Ok(Instance::Graph(
        p.weighted(ggen::bipartite(left, right, m, p.seed)),
    ))
}

fn vertex_weighted(p: &GenParams) -> Result<Instance, String> {
    let graph = match densified(p)? {
        Instance::Graph(g) => g.unweighted(),
        _ => unreachable!(),
    };
    Ok(Instance::VertexWeighted(VertexWeightedGraph::new(
        graph,
        vertex_weights(p.n, p.seed),
    )))
}

fn b_matching(p: &GenParams) -> Result<Instance, String> {
    check(p.b_max >= 1, "b-max must be at least 1")?;
    check(
        p.eps.is_finite() && p.eps > 0.0,
        format!("eps must be positive and finite (got {})", p.eps),
    )?;
    let graph = match densified(p)? {
        Instance::Graph(g) => g,
        _ => unreachable!(),
    };
    let b = (0..p.n as u32).map(|v| 1 + v % p.b_max).collect();
    Ok(Instance::BMatching(BMatchingInstance::new(graph, b, p.eps)))
}

fn set_weighted(p: &GenParams, sys: mrlr_setsys::SetSystem) -> Result<Instance, String> {
    check_weights(p)?;
    Ok(Instance::SetSystem(if p.unweighted {
        sys
    } else {
        sgen::with_uniform_weights(sys, p.w_min, p.w_max, p.seed ^ 0x77)
    }))
}

fn set_frequency(p: &GenParams) -> Result<Instance, String> {
    check(
        p.f >= 1 && p.f <= p.n,
        format!("need 1 <= f <= n sets (f {}, n {})", p.f, p.n),
    )?;
    let m = p.target_m(usize::MAX);
    set_weighted(p, sgen::bounded_frequency(p.n, m, p.f, p.seed))
}

fn set_size(p: &GenParams) -> Result<Instance, String> {
    let m = p.target_m(usize::MAX);
    check(
        p.delta >= 1 && p.delta <= m,
        format!(
            "need 1 <= delta <= universe (delta {}, universe {m})",
            p.delta
        ),
    )?;
    check(p.n >= 1, "need at least one set")?;
    set_weighted(p, sgen::bounded_set_size(p.n, m, p.delta, p.seed))
}

fn interval(p: &GenParams) -> Result<Instance, String> {
    let m = p.target_m(usize::MAX);
    check(
        p.n >= 1 && m >= 1 && p.max_len >= 1,
        "interval needs n, universe and max-len all >= 1",
    )?;
    set_weighted(p, sgen::interval_cover(p.n, m, p.max_len, p.seed))
}

fn greedy_trap(p: &GenParams) -> Result<Instance, String> {
    let m = p.m.unwrap_or(p.n);
    check(
        m >= 2 && p.eps > 0.0,
        format!(
            "greedy-trap needs universe >= 2 and eps > 0 (universe {m}, eps {})",
            p.eps
        ),
    )?;
    // Weights are the construction itself (the `H_m` trap): never reweight.
    Ok(Instance::SetSystem(sgen::greedy_trap(m, p.eps)))
}

/// Every registered family, ordered graphs first.
pub const FAMILIES: &[FamilySpec] = &[
    FamilySpec {
        name: "gnm",
        kind: InstanceKind::Graph,
        description: "Erdős–Rényi G(n, m), uniform weights",
        build: gnm,
    },
    FamilySpec {
        name: "densified",
        kind: InstanceKind::Graph,
        description: "the paper's m = n^{1+c} density regime",
        build: densified,
    },
    FamilySpec {
        name: "power-law",
        kind: InstanceKind::Graph,
        description: "Chung–Lu power-law degrees (social-network workloads)",
        build: power_law,
    },
    FamilySpec {
        name: "bipartite",
        kind: InstanceKind::Graph,
        description: "random bipartite (left = n/2 unless --left)",
        build: bipartite,
    },
    FamilySpec {
        name: "vertex-weighted",
        kind: InstanceKind::VertexWeighted,
        description: "densified graph + uniform vertex weights (vertex cover)",
        build: vertex_weighted,
    },
    FamilySpec {
        name: "b-matching",
        kind: InstanceKind::BMatching,
        description: "densified graph + capacities cycling 1..=b-max at slack eps",
        build: b_matching,
    },
    FamilySpec {
        name: "set-frequency",
        kind: InstanceKind::SetSystem,
        description: "bounded element frequency f (Algorithm 1's n << m regime)",
        build: set_frequency,
    },
    FamilySpec {
        name: "set-size",
        kind: InstanceKind::SetSystem,
        description: "bounded set size delta (Algorithm 3's m << n regime)",
        build: set_size,
    },
    FamilySpec {
        name: "interval",
        kind: InstanceKind::SetSystem,
        description: "interval covering over a line universe",
        build: interval,
    },
    FamilySpec {
        name: "greedy-trap",
        kind: InstanceKind::SetSystem,
        description: "the classic H_m lower-bound instance for greedy set cover",
        build: greedy_trap,
    },
];

/// Looks up a family by name.
pub fn family(name: &str) -> Option<&'static FamilySpec> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// Sets one knob of `params` by its CLI flag name (`n`, `m`, `c`,
/// `gamma`, `f`, `delta`, `max-len`, `left`, `w-min`, `w-max`,
/// `unweighted`, `eps`, `b-max`, `seed`) — the shared vocabulary of
/// `mrlr gen` flags, [`parse_spec`] strings and sweep files.
pub fn set_knob(params: &mut GenParams, key: &str, value: &str) -> Result<(), String> {
    fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("bad value `{value}` for knob `{key}`"))
    }
    match key {
        "n" => params.n = parse(key, value)?,
        "m" => params.m = Some(parse(key, value)?),
        "c" => params.c = parse(key, value)?,
        "gamma" => params.gamma = parse(key, value)?,
        "f" => params.f = parse(key, value)?,
        "delta" => params.delta = parse(key, value)?,
        "max-len" => params.max_len = parse(key, value)?,
        "left" => params.left = Some(parse(key, value)?),
        "w-min" => params.w_min = parse(key, value)?,
        "w-max" => params.w_max = parse(key, value)?,
        "unweighted" => params.unweighted = parse(key, value)?,
        "eps" => params.eps = parse(key, value)?,
        "b-max" => params.b_max = parse(key, value)?,
        "seed" => params.seed = parse(key, value)?,
        other => return Err(format!("unknown knob `{other}`")),
    }
    Ok(())
}

/// Parses a one-line generator spec `family:knob=value,knob=value,…`
/// (knobs optional: `densified`, `densified:n=1000,c=0.4,seed=7`) into
/// the family name and its parameters. The knob vocabulary is exactly
/// the `mrlr gen` flag set ([`set_knob`]); the bare switch `unweighted`
/// may omit `=true`. This is the `mrlr solve --gen <spec>` syntax: a
/// solve can name its instance instead of reading one from disk.
pub fn parse_spec(spec: &str) -> Result<(String, GenParams), String> {
    let (name, knobs) = match spec.split_once(':') {
        None => (spec, ""),
        Some((name, knobs)) => (name, knobs),
    };
    if family(name).is_none() {
        let names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        return Err(format!(
            "unknown family `{name}` (expected one of: {})",
            names.join(", ")
        ));
    }
    let mut params = GenParams::default();
    for knob in knobs.split(',').filter(|k| !k.is_empty()) {
        match knob.split_once('=') {
            Some((key, value)) => set_knob(&mut params, key.trim(), value.trim())?,
            None if knob.trim() == "unweighted" => params.unweighted = true,
            None => return Err(format!("knob `{knob}` needs a value (knob=value)")),
        }
    }
    Ok((name.to_string(), params))
}

/// [`parse_spec`] + [`build`]: a whole instance from one spec string.
pub fn build_spec(spec: &str) -> Result<Instance, String> {
    let (name, params) = parse_spec(spec)?;
    build(&name, &params)
}

/// Builds an instance of `name` from `params`.
pub fn build(name: &str, params: &GenParams) -> Result<Instance, String> {
    let spec = family(name).ok_or_else(|| {
        let names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        format!(
            "unknown family `{name}` (expected one of: {})",
            names.join(", ")
        )
    })?;
    (spec.build)(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_builds_its_advertised_kind() {
        let p = GenParams::default();
        for spec in FAMILIES {
            let inst = build(spec.name, &p).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(inst.kind(), spec.kind, "{}", spec.name);
        }
    }

    #[test]
    fn families_are_deterministic_in_the_seed() {
        let p = GenParams::default();
        for spec in FAMILIES {
            assert_eq!(
                build(spec.name, &p).unwrap(),
                build(spec.name, &p).unwrap(),
                "{}",
                spec.name
            );
            let reseeded = build(
                spec.name,
                &GenParams {
                    seed: 7,
                    ..p.clone()
                },
            )
            .unwrap();
            // greedy-trap is deterministic by construction (no randomness).
            if spec.name != "greedy-trap" {
                assert_ne!(reseeded, build(spec.name, &p).unwrap(), "{}", spec.name);
            }
        }
    }

    #[test]
    fn densified_default_matches_the_experiment_workload() {
        let p = GenParams {
            n: 50,
            c: 0.3,
            seed: 1,
            ..GenParams::default()
        };
        assert_eq!(
            build("densified", &p).unwrap(),
            Instance::Graph(weighted_graph(50, 0.3, 1))
        );
    }

    #[test]
    fn knob_validation_errors_are_strings_not_panics() {
        let p = GenParams::default();
        assert!(build("no-such-family", &p)
            .unwrap_err()
            .contains("unknown family"));
        let bad_m = GenParams {
            m: Some(10_000),
            ..p.clone()
        };
        assert!(build("gnm", &bad_m).unwrap_err().contains("complete graph"));
        let bad_gamma = GenParams {
            gamma: 1.5,
            ..p.clone()
        };
        assert!(build("power-law", &bad_gamma)
            .unwrap_err()
            .contains("gamma"));
        let bad_f = GenParams { f: 0, ..p.clone() };
        assert!(build("set-frequency", &bad_f).unwrap_err().contains("f"));
        let bad_w = GenParams {
            w_min: 5.0,
            w_max: 2.0,
            ..p.clone()
        };
        assert!(build("densified", &bad_w).unwrap_err().contains("w-min"));
        // Density-derived families reject an explicit --m instead of
        // silently ignoring it (b-matching/vertex-weighted build on
        // densified and inherit the check).
        let explicit_m = GenParams { m: Some(100), ..p };
        for family in ["densified", "vertex-weighted", "b-matching"] {
            assert!(
                build(family, &explicit_m).unwrap_err().contains("use gnm"),
                "{family}"
            );
        }
    }

    #[test]
    fn spec_strings_mirror_the_gen_flags() {
        // Bare family name = defaults.
        let (name, p) = parse_spec("densified").unwrap();
        assert_eq!(name, "densified");
        assert_eq!(p, GenParams::default());
        // Knobbed spec builds the same instance as the explicit params.
        let (name, p) = parse_spec("gnm:n=30,m=80,seed=9,w-min=0.5,w-max=2.5").unwrap();
        let explicit = GenParams {
            n: 30,
            m: Some(80),
            seed: 9,
            w_min: 0.5,
            w_max: 2.5,
            ..GenParams::default()
        };
        assert_eq!(p, explicit);
        assert_eq!(build(&name, &p).unwrap(), build("gnm", &explicit).unwrap());
        // The bare switch form.
        let (_, p) = parse_spec("gnm:unweighted,n=12").unwrap();
        assert!(p.unweighted);
        assert_eq!(p.n, 12);
        // Errors are located strings.
        assert!(parse_spec("no-such:n=3")
            .unwrap_err()
            .contains("unknown family"));
        assert!(parse_spec("gnm:bogus=3")
            .unwrap_err()
            .contains("unknown knob"));
        assert!(parse_spec("gnm:n=x").unwrap_err().contains("bad value"));
        assert!(parse_spec("gnm:n").unwrap_err().contains("needs a value"));
    }

    #[test]
    fn unweighted_knob_yields_unit_weights() {
        let p = GenParams {
            unweighted: true,
            ..GenParams::default()
        };
        let Instance::Graph(g) = build("gnm", &p).unwrap() else {
            panic!()
        };
        assert!(g.edges().iter().all(|e| e.w == 1.0));
    }
}
