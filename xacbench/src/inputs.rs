//! Everything a workload feeds the system, derived from one seed, plus
//! the answers the system must give, derived from the definitional
//! Table 2 evaluator (`xac_policy::accessible_nodes`) rather than from
//! any backend.

use std::collections::{BTreeMap, BTreeSet};
use xac_policy::{Effect, Policy};
use xac_xml::{Document, NodeId};
use xac_xmlgen::{SplitMix64, XmarkConfig};
use xac_xpath::Path;

/// Fraction of elements the generated policy grants (the middle of the
/// paper's Figure 11 sweep).
pub const COVERAGE: f64 = 0.5;

/// Sub-seeds, so that each input stream moves independently of the
/// others when the seed changes.
const DOC_STREAM: u64 = 0x0D0C;
const POLICY_SEED: u64 = 1;
const QUERY_STREAM: u64 = 0x0EAD;
const PICK_STREAM: u64 = 0x0F1C;

pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

pub fn rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(sub_seed(seed, stream))
}

/// The generated document and its coverage policy. The policy's own
/// random choice (the child its one negative rule tests) is fixed, so
/// that seeds vary the document's content rather than the rule set.
pub fn document_and_policy(factor: f64, seed: u64) -> (Document, Policy) {
    let doc = xac_xmlgen::xmark_document(XmarkConfig {
        factor,
        seed: sub_seed(seed, DOC_STREAM),
    });
    let policy = xac_xmlgen::coverage_policy(&doc, COVERAGE, POLICY_SEED);
    (doc, policy)
}

/// The paper's response-time query shapes (§7.1), seeded.
pub fn broad_queries(n: usize, seed: u64) -> Vec<Path> {
    xac_xmlgen::query_workload(&xac_xmlgen::xmark_schema(), n, sub_seed(seed, QUERY_STREAM))
}

/// `(parent, child)` pairs whose text values make selective
/// value-predicate queries (`//item[quantity = "7"]`).
pub const VALUE_FAMILIES: &[(&str, &str)] = &[
    ("item", "quantity"),
    ("item", "location"),
    ("item", "name"),
    ("person", "name"),
    ("person", "emailaddress"),
    ("open_auction", "current"),
    ("closed_auction", "price"),
    ("bidder", "increase"),
];

/// Names a value-predicate query mentions; inserted targets avoid them
/// so that inserts never change a selective query's answer set.
pub fn value_names() -> BTreeSet<&'static str> {
    VALUE_FAMILIES.iter().flat_map(|(p, c)| [*p, *c]).collect()
}

/// Every `(parent, child, value)` triple of the families in `doc`, with
/// the parents it selects, in document order. This is the benchmark's
/// own scan, checked against `xac_xpath::eval` on a sample.
pub fn value_index(doc: &Document) -> BTreeMap<String, Vec<NodeId>> {
    let mut out: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
    for e in doc.all_elements() {
        let Some(parent) = doc.name(e) else { continue };
        for c in doc.child_elements(e) {
            let Some(child) = doc.name(c) else { continue };
            if !VALUE_FAMILIES.contains(&(parent, child)) {
                continue;
            }
            let value = doc.text_of(c);
            if value.is_empty()
                || !value
                    .chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || " .@_-".contains(ch))
            {
                continue;
            }
            let q = format!("//{parent}[{child} = \"{value}\"]");
            let nodes = out.entry(q).or_default();
            if nodes.last() != Some(&e) {
                nodes.push(e);
            }
        }
    }
    out
}

/// `n` distinct selective queries drawn from the value index (fewer if
/// the document has fewer), seeded.
pub fn selective_queries(
    index: &BTreeMap<String, Vec<NodeId>>,
    n: usize,
    max_nodes: usize,
    seed: u64,
) -> Vec<String> {
    let mut pool: Vec<&String> = index
        .iter()
        .filter(|(_, v)| v.len() <= max_nodes)
        .map(|(k, _)| k)
        .collect();
    let mut r = rng(seed, PICK_STREAM);
    // Partial Fisher-Yates: the first `n` slots become the sample.
    let take = n.min(pool.len());
    for i in 0..take {
        let j = r.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool[..take].iter().map(|s| (*s).clone()).collect()
}

/// One insert/delete target: insert an empty `<child>` under every
/// `//region/item`, then delete `//region/item/child`.
#[derive(Debug, Clone)]
pub struct Target {
    pub parent: String,
    pub child: String,
    /// Elements the insert adds and the delete removes.
    pub count: usize,
}

impl Target {
    pub fn delete_path(&self) -> String {
        format!("{}/{}", self.parent, self.child)
    }
}

/// Apply a target's insert to a copy of `doc`.
fn with_inserted(doc: &Document, t: &Target) -> Document {
    let mut d = doc.clone();
    let parent = xac_xpath::parse(&t.parent).expect("target parent parses");
    for p in xac_xpath::eval(doc, &parent) {
        d.add_element(p, t.child.clone());
    }
    d
}

/// Pick up to `n` insert/delete targets by a dry run against the
/// reference evaluator. Candidate children are the names the policy
/// grants outright (in name order, so the set does not depend on the
/// seed); the seed assigns each one a region. A target qualifies when
/// the insert's parents are all accessible (so the guarded insert
/// applies), the inserted children are all accessible afterwards (so
/// the guarded delete applies), and the delete path selects nothing
/// before the insert (so each pair restores the document exactly).
/// Returns each target with the expected answers to `queries` after
/// its insert; the post-insert document is dropped as soon as they are
/// computed.
pub fn pick_targets(
    doc: &Document,
    policy: &Policy,
    accessible: &BTreeSet<NodeId>,
    queries: &[String],
    base: &BTreeMap<String, Vec<NodeId>>,
    n: usize,
    seed: u64,
) -> Vec<(Target, Vec<Expected>)> {
    let avoid = value_names();
    let children: BTreeSet<String> = policy
        .positives()
        .filter(|r| r.effect == Effect::Allow)
        .filter_map(|r| {
            r.resource
                .to_string()
                .strip_prefix("//")
                .map(str::to_string)
        })
        .filter(|name| name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .filter(|name| !avoid.contains(name.as_str()))
        .filter(|name| {
            !policy
                .negatives()
                .any(|r| r.resource.to_string().contains(name.as_str()))
        })
        .collect();
    let regions = xac_xmlgen::xmark::REGIONS;
    let offset = rng(seed, PICK_STREAM ^ 1).gen_range(0..regions.len());
    let mut out = Vec::new();
    for (i, child) in children.into_iter().enumerate() {
        if out.len() == n {
            break;
        }
        let parent = format!("//{}/item", regions[(i + offset) % regions.len()]);
        let parents = xac_xpath::eval(doc, &xac_xpath::parse(&parent).expect("parent parses"));
        if parents.is_empty() || !parents.iter().all(|p| accessible.contains(p)) {
            continue;
        }
        let t = Target {
            parent,
            child,
            count: parents.len(),
        };
        let dp = xac_xpath::parse(&t.delete_path()).expect("delete path parses");
        if !xac_xpath::eval(doc, &dp).is_empty() {
            continue;
        }
        let d = with_inserted(doc, &t);
        let acc = xac_policy::accessible_nodes(&d, policy);
        let inserted = xac_xpath::eval(&d, &dp);
        if inserted.len() == t.count && inserted.iter().all(|n| acc.contains(n)) {
            let expected = expected_answers(&d, &acc, queries, base, Some(&t.child));
            out.push((t, expected));
        }
    }
    out
}

/// What a read must answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub granted: bool,
    pub nodes: u64,
}

/// Answer node sets of `queries` on the base document: selective
/// queries from the value index, the rest (deduplicated) through
/// `xac_xpath::eval`.
pub fn base_answers(
    doc: &Document,
    queries: &[String],
    values: &BTreeMap<String, Vec<NodeId>>,
) -> BTreeMap<String, Vec<NodeId>> {
    let mut out = BTreeMap::new();
    for q in queries {
        if out.contains_key(q) {
            continue;
        }
        let nodes = match values.get(q) {
            Some(v) => v.clone(),
            None => xac_xpath::eval(doc, &xac_xpath::parse(q).expect("pool query parses")),
        };
        out.insert(q.clone(), nodes);
    }
    out
}

/// Expected answers for `queries` on `doc` (the base document, or the
/// base with `inserted` children added) given its reference accessible
/// set. Only a query that can select the inserted children (it names
/// them or uses a wildcard) is evaluated again; every other answer set
/// is the base one, whose nodes keep their ids in `doc`.
pub fn expected_answers(
    doc: &Document,
    accessible: &BTreeSet<NodeId>,
    queries: &[String],
    base: &BTreeMap<String, Vec<NodeId>>,
    inserted: Option<&str>,
) -> Vec<Expected> {
    queries
        .iter()
        .map(|q| {
            let again = q.contains('*') || inserted.is_some_and(|c| mentions(q, c));
            let fresh;
            let nodes = if again {
                fresh = xac_xpath::eval(doc, &xac_xpath::parse(q).expect("pool query parses"));
                &fresh
            } else {
                &base[q]
            };
            Expected {
                granted: nodes.iter().all(|n| accessible.contains(n)),
                nodes: nodes.len() as u64,
            }
        })
        .collect()
}

/// True when `query` names the element `name` (as a whole name).
fn mentions(query: &str, name: &str) -> bool {
    query
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .any(|token| token == name)
}

/// Check the benchmark's value scan against the XPath evaluator on a
/// seeded sample; returns the number of disagreements.
pub fn audit_value_index(
    doc: &Document,
    values: &BTreeMap<String, Vec<NodeId>>,
    queries: &[String],
    samples: usize,
) -> usize {
    queries
        .iter()
        .step_by((queries.len() / samples.max(1)).max(1))
        .filter(|q| {
            let got = xac_xpath::eval(doc, &xac_xpath::parse(q).expect("query parses"));
            values.get(*q) != Some(&got)
        })
        .count()
}
