//! The independent answer oracle, and the hand-written floor.
//!
//! A semi-naive evaluation of the ancestor program
//! `anc(X, Y) :- parent(X, Y). anc(X, Y) :- parent(X, Z), anc(Z, Y).`
//! over hash sets. It shares no code with the testbed, so it checks the
//! system's answers rather than agreeing with another configuration of
//! it, and its running time is the floor the system is compared with.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// The transitive closure of `edges`, computed semi-naively: each round
/// joins only the previous round's new tuples with `parent`.
pub fn closure<K: Clone + Eq + Hash>(edges: &[(K, K)]) -> HashSet<(K, K)> {
    let mut parents: HashMap<&K, Vec<&K>> = HashMap::new();
    for (x, z) in edges {
        parents.entry(z).or_default().push(x);
    }
    let mut all: HashSet<(K, K)> = edges.iter().cloned().collect();
    let mut delta: Vec<(K, K)> = all.iter().cloned().collect();
    while !delta.is_empty() {
        let mut next = Vec::new();
        for (z, y) in &delta {
            for &x in parents.get(z).map(Vec::as_slice).unwrap_or(&[]) {
                let t = (x.clone(), y.clone());
                if !all.contains(&t) {
                    all.insert(t.clone());
                    next.push(t);
                }
            }
        }
        delta = next;
    }
    all
}

/// The closure grouped by its first column: `anc(x, W)` answers for
/// every `x`.
pub fn descendants<K: Clone + Eq + Hash>(edges: &[(K, K)]) -> HashMap<K, Vec<K>> {
    let mut out: HashMap<K, Vec<K>> = HashMap::new();
    for (x, y) in closure(edges) {
        out.entry(x).or_default().push(y);
    }
    out
}
