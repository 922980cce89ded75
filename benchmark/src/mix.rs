//! Workload inputs: the eight datasets, the 11-query mix, seeded pass
//! orders and query variants, and the merged-store ground truth every
//! measured answer is checked against.

use lusail_rdf::Graph;
use lusail_sparql::ast::{GraphPattern, Query, QueryForm, TriplePattern};
use lusail_sparql::Relation;
use lusail_store::{Evaluator, Store};
use lusail_workloads::prng::SplitMix64;
use lusail_workloads::{lubm, qfed};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Data scale: the LUBM per-department population multiplier and the QFed
/// entity-count multiplier. Generator seeds stay at their defaults, so a
/// scale names exactly one dataset.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub lubm: f64,
    pub qfed: f64,
}

impl Scale {
    /// The generators' default sizes.
    pub const DEFAULT: Scale = Scale {
        lubm: 1.0,
        qfed: 1.0,
    };
    /// Large enough (about 1.3 MB of results per query) that endpoint-side
    /// evaluation and the global join dominate query time.
    pub const LARGE: Scale = Scale {
        lubm: 20.0,
        qfed: 4.0,
    };
}

/// The eight datasets, one endpoint each: four LUBM universities, then
/// DailyMed, Diseasome, DrugBank and SIDER.
pub fn generate(scale: Scale) -> Vec<(String, Graph)> {
    let lcfg = lubm::LubmConfig {
        scale: scale.lubm,
        ..Default::default()
    };
    let d = qfed::QfedConfig::default();
    let times = |n: usize| (n as f64 * scale.qfed).round() as usize;
    let qcfg = qfed::QfedConfig {
        drugs: times(d.drugs),
        diseases: times(d.diseases),
        side_effects: times(d.side_effects),
        labels: times(d.labels),
        seed: d.seed,
    };
    let mut graphs = lubm::generate_all(&lcfg);
    graphs.extend(qfed::generate_all(&qcfg));
    graphs
}

/// One catalog query: its paper label, its text, and its parsed form.
pub struct CatalogQuery {
    pub name: &'static str,
    pub text: String,
    pub parsed: Query,
}

/// LUBM Q1–Q4 and the seven QFed C2P2 queries.
pub fn catalog() -> Vec<CatalogQuery> {
    lubm::queries()
        .into_iter()
        .chain(qfed::queries())
        .map(|q| CatalogQuery {
            name: q.name,
            parsed: q.parse(),
            text: q.text,
        })
        .collect()
}

/// An order-independent digest of a solution multiset: row count plus the
/// wrapping sum and sum of squares of per-row hashes. Cells are hashed by
/// position, so an alpha-renamed variant digests like its base query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: usize,
    sum: u64,
    squares: u64,
}

pub fn digest(rel: &Relation) -> Digest {
    let mut d = Digest {
        rows: rel.len(),
        ..Digest::default()
    };
    for row in rel.rows() {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        let x = h.finish();
        d.sum = d.sum.wrapping_add(x);
        d.squares = d.squares.wrapping_add(x.wrapping_mul(x));
    }
    d
}

/// Each query's answer on one store holding the union of all datasets:
/// by the paper's Lemmas 1–2 the federated answer must equal it.
pub fn ground_truth(graphs: &[(String, Graph)], queries: &[CatalogQuery]) -> Vec<Digest> {
    let mut merged = Graph::new();
    for (_, g) in graphs {
        for t in g.iter() {
            merged.insert(t.clone());
        }
    }
    let store = Store::from_graph(&merged);
    queries
        .iter()
        .map(|q| digest(&Evaluator::new(&store).query(&q.parsed).into_solutions()))
        .collect()
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// The generator for pass `pass` of a run with workload seed `seed`.
pub fn pass_rng(seed: u64, pass: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// An unseen text with the base query's answers: its top-level triple
/// patterns in seeded order, and every variable renamed with `tag`, so the
/// text (and hence its result-cache key) is new while the projection keeps
/// its column order.
pub fn variant(base: &Query, rng: &mut SplitMix64, tag: u64) -> String {
    let mut q = base.clone();
    if let QueryForm::Select(s) = &mut q.form {
        if let Some(tps) = top_bgp(&mut s.pattern) {
            shuffle(tps, rng);
        }
    }
    rename_vars(&lusail_sparql::serializer::serialize_query(&q), tag)
}

fn top_bgp(p: &mut GraphPattern) -> Option<&mut Vec<TriplePattern>> {
    match p {
        GraphPattern::Bgp(tps) => Some(tps),
        GraphPattern::Filter(inner, _)
        | GraphPattern::LeftJoin(inner, _)
        | GraphPattern::Join(inner, _) => top_bgp(inner),
        _ => None,
    }
}

/// Append `_v{tag}` to every `?name` outside IRIs and string literals.
fn rename_vars(text: &str, tag: u64) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    let mut chars = text.chars().peekable();
    let (mut in_iri, mut in_lit) = (false, false);
    while let Some(c) = chars.next() {
        out.push(c);
        match c {
            '<' if !in_lit
                && chars
                    .peek()
                    .is_some_and(|n| !n.is_whitespace() && *n != '=') =>
            {
                in_iri = true
            }
            '>' if in_iri => in_iri = false,
            '"' if !in_iri => in_lit = !in_lit,
            '\\' if in_lit => {
                if let Some(n) = chars.next() {
                    out.push(n);
                }
            }
            '?' | '$' if !in_iri && !in_lit => {
                let mut named = false;
                while let Some(&n) = chars.peek() {
                    if n.is_alphanumeric() || n == '_' {
                        out.push(n);
                        chars.next();
                        named = true;
                    } else {
                        break;
                    }
                }
                if named {
                    out.push_str(&format!("_v{tag}"));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_skips_iris_and_literals() {
        let text = "SELECT ?x WHERE { ?x <http://a/b?c=d> \"?lit\" . FILTER(?x_1 < 5) }";
        assert_eq!(
            rename_vars(text, 7),
            "SELECT ?x_v7 WHERE { ?x_v7 <http://a/b?c=d> \"?lit\" . FILTER(?x_1_v7 < 5) }"
        );
    }

    #[test]
    fn variants_are_new_texts_with_base_answers() {
        let graphs = generate(Scale::DEFAULT);
        let cat = catalog();
        let truth = ground_truth(&graphs, &cat);
        let mut merged = Graph::new();
        for (_, g) in &graphs {
            merged.extend(g.clone());
        }
        let store = Store::from_graph(&merged);
        let mut rng = SplitMix64::seed_from_u64(3);
        for (i, q) in cat.iter().enumerate() {
            let a = variant(&q.parsed, &mut rng, 1);
            let b = variant(&q.parsed, &mut rng, 2);
            assert_ne!(a, b);
            assert_ne!(a, q.text);
            let parsed = lusail_sparql::parse_query(&a).expect("variant parses");
            let got = digest(&Evaluator::new(&store).query(&parsed).into_solutions());
            assert_eq!(got, truth[i], "{} variant differs: {a}", q.name);
            assert!(truth[i].rows > 0, "{} has no answers", q.name);
        }
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let order = |seed, pass| {
            let mut v: Vec<usize> = (0..11).collect();
            shuffle(&mut v, &mut pass_rng(seed, pass));
            v
        };
        let mut sorted = order(5, 0);
        sorted.sort();
        assert_eq!(sorted, (0..11).collect::<Vec<_>>());
        assert_eq!(order(5, 0), order(5, 0));
        assert_ne!(order(5, 0), order(6, 0));
        assert_ne!(order(5, 0), order(5, 1));
    }
}
