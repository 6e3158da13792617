//! The answer read: the query rule's rows are the answer as they stand.
//!
//! No rule reads the result predicate `_query`, so the runtime returns the
//! rows of its rules' `SELECT DISTINCT`s directly instead of copying them
//! into a `_query` temporary and reading that back. Every query shape and
//! evaluation configuration must still return the answer an independent
//! oracle computes (reachability by breadth-first search over the edge
//! list), and no `_query` table may exist afterwards — on a private
//! session or on an attached shared-engine session's snapshot.

use km::session::{binary_sym, Session, SessionConfig};
use km::LfpStrategy;
use rdbms::{Engine, SharedEngine, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use workload::graphs;

type Edges = Vec<(String, String)>;

/// Every node reachable from `from` by one or more edges.
fn reach(edges: &Edges, from: &str) -> BTreeSet<String> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut seen = BTreeSet::new();
    let mut queue: VecDeque<&str> = adj.get(from).into_iter().flatten().copied().collect();
    while let Some(n) = queue.pop_front() {
        if seen.insert(n.to_string()) {
            queue.extend(adj.get(n).into_iter().flatten().copied());
        }
    }
    seen
}

fn nodes(edges: &Edges) -> BTreeSet<String> {
    edges
        .iter()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect()
}

fn row(vals: &[&str]) -> Vec<Value> {
    vals.iter().map(|v| Value::from(*v)).collect()
}

/// One query and the oracle's answer, sorted as the session returns it.
struct Case {
    query: String,
    expect: Vec<Vec<Value>>,
}

/// Unbound closure, bound, ground (true and false) and multi-atom queries
/// over `edges`, with their oracle answers. `mid` must have a predecessor
/// and a successor. Constants are quoted: node names may start upper-case.
fn cases(edges: &Edges, mid: &str) -> Vec<Case> {
    let all = nodes(edges);
    let mut out = Vec::new();

    let mut closure: Vec<Vec<Value>> = all
        .iter()
        .flat_map(|x| reach(edges, x).into_iter().map(move |y| row(&[x, &y])))
        .collect();
    closure.sort();
    out.push(Case {
        query: "?- anc(X, Y).".into(),
        expect: closure,
    });

    let src = &edges[0].0;
    out.push(Case {
        query: format!("?- anc(\"{src}\", W)."),
        expect: reach(edges, src).iter().map(|y| row(&[y])).collect(),
    });

    let reachable = reach(edges, src)
        .into_iter()
        .next()
        .expect("src has an edge");
    out.push(Case {
        query: format!("?- anc(\"{src}\", \"{reachable}\")."),
        expect: vec![row(&["true"])],
    });
    let unreachable = all
        .iter()
        .find(|n| !reach(edges, src).contains(*n))
        .expect("some node is out of reach");
    out.push(Case {
        query: format!("?- anc(\"{src}\", \"{unreachable}\")."),
        expect: Vec::new(),
    });

    let before: Vec<&String> = all
        .iter()
        .filter(|x| reach(edges, x).contains(mid))
        .collect();
    let after = reach(edges, mid);
    assert!(!before.is_empty() && !after.is_empty(), "{mid} is interior");
    let mut pairs: Vec<Vec<Value>> = before
        .iter()
        .flat_map(|x| after.iter().map(move |y| row(&[x, y])))
        .collect();
    pairs.sort();
    out.push(Case {
        query: format!("?- anc(X, \"{mid}\"), anc(\"{mid}\", Y)."),
        expect: pairs,
    });
    out
}

fn load(s: &mut Session, edges: &Edges) {
    s.define_base("edge", &binary_sym()).unwrap();
    s.load_facts("edge", graphs::edges_to_rows(edges)).unwrap();
    s.load_rules(&workload::ancestor_program("edge")).unwrap();
}

fn query_tables(e: &Engine) -> Vec<String> {
    e.table_names()
        .into_iter()
        .filter(|t| t.contains("_query"))
        .collect()
}

/// Run every case on `s` and check answers and the absence of a `_query`
/// table, both in the generated program and in the engine afterwards.
fn check_session(s: &mut Session, edges: &Edges, mid: &str, label: &str) {
    for case in cases(edges, mid) {
        let (compiled, result) = s
            .query(&case.query)
            .unwrap_or_else(|e| panic!("{label}: {}: {e}", case.query));
        assert_eq!(result.rows, case.expect, "{label}: {}", case.query);
        assert!(
            !compiled.program.tables.contains_key("_query"),
            "{label}: the answer needs no table"
        );
        assert_eq!(
            query_tables(s.engine()),
            Vec::<String>::new(),
            "{label}: {} left a _query table",
            case.query
        );
        let last = result.outcome.node_timings.last().expect("result node");
        assert_eq!(
            last.predicates,
            vec!["_query".to_string()],
            "{label}: the result node is still traced"
        );
    }
}

fn graphs_under_test() -> Vec<(Edges, &'static str)> {
    vec![
        (graphs::layered_dag(4, 5, 2, 3), "d2_0"),
        (graphs::lists(2, 6), "L0_3"),
    ]
}

#[test]
fn every_configuration_answers_like_the_oracle_without_a_query_table() {
    let configs: Vec<(&str, SessionConfig)> = vec![
        ("semi-naive", SessionConfig::default()),
        (
            "naive",
            SessionConfig {
                strategy: LfpStrategy::Naive,
                ..SessionConfig::default()
            },
        ),
        (
            "unprepared",
            SessionConfig {
                prepared_sql: false,
                ..SessionConfig::default()
            },
        ),
        (
            "magic",
            SessionConfig {
                optimize: true,
                ..SessionConfig::default()
            },
        ),
        (
            "supplementary",
            SessionConfig {
                optimize: true,
                supplementary: true,
                ..SessionConfig::default()
            },
        ),
        (
            "special-tc",
            SessionConfig {
                special_tc: true,
                ..SessionConfig::default()
            },
        ),
    ];
    for (edges, mid) in graphs_under_test() {
        for (label, cfg) in &configs {
            let mut s = Session::new(*cfg).unwrap();
            load(&mut s, &edges);
            check_session(&mut s, &edges, mid, label);
        }
    }
}

#[test]
fn attached_shared_session_answers_like_the_oracle_without_a_query_table() {
    for (edges, mid) in graphs_under_test() {
        let shared = SharedEngine::new(Engine::new());
        let mut s = Session::attach(&shared, SessionConfig::default()).unwrap();
        load(&mut s, &edges);
        s.commit_workspace().unwrap();
        check_session(&mut s, &edges, mid, "attached");
        let live = shared.with_live(|e| query_tables(e));
        assert!(live.is_empty(), "live engine holds {live:?}");
    }
}
