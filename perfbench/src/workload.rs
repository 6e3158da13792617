//! The four workloads: their seeded inputs, expected answers and D/KB
//! fixtures. The program under test receives only the generated inputs;
//! the expected answers come from the oracle or from the generator.

use crate::oracle;
use hornlog::types::AttrType;
use km::session::{binary_sym, Session, SessionConfig};
use km::KmError;
use rdbms::{Engine, SharedEngine, Value};
use std::collections::{HashMap, HashSet};
use workload::{Edges, IntEdges};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bound ancestor queries over a string-keyed binary tree (Tests 4–6).
    TreeLfp,
    /// The full ancestor closure over an integer-keyed forest larger
    /// than the buffer pool.
    IntClosure,
    /// Compile-dominated queries against a 400-rule stored D/KB.
    RulebaseQuery,
    /// Rule commits next to queries, two sessions on one shared engine.
    UpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TreeLfp,
        Workload::IntClosure,
        Workload::RulebaseQuery,
        Workload::UpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeLfp => "tree_lfp",
            Workload::IntClosure => "int_closure",
            Workload::RulebaseQuery => "rulebase_query",
            Workload::UpdateMix => "update_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and repetition counts. [`Sizes::FULL`] is the benchmark;
/// the self-tests run [`Sizes::TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `full_binary_tree` levels: 11 gives 2046 edges, the largest tree
    /// of the Fig 11 experiment, whose closure fits the buffer pool.
    pub tree_depth: u32,
    /// Bound queries start at a node on a level in
    /// `tree_min_level..tree_depth`, so answers stay small.
    pub tree_min_level: u32,
    pub forest_edges: usize,
    pub forest_depth: u32,
    pub chains: usize,
    pub chain_len: usize,
    /// Attached sessions in `update_mix`.
    pub sessions: usize,
    /// Rounds each session runs on one freshly built `update_mix` D/KB.
    pub epoch_rounds: usize,
    /// Fixture builds before and again after the loop: at least this
    /// many, for at least `setup_seconds` each time. `setup_s` is the
    /// median of all builds.
    pub setup_reps: usize,
    pub setup_seconds: f64,
    /// Time slots for single-rule commits during the query loop of a
    /// read workload (at most one commit runs between two queries).
    pub commit_probes: usize,
    /// Operations run before the timed loop (plan caches, buffer pool).
    pub warmup_ops: usize,
    /// Timed repetitions of the hand-written floor in a traced run.
    pub floor_reps: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        tree_depth: 11,
        tree_min_level: 6,
        forest_edges: 10_000,
        forest_depth: 6,
        chains: 20,
        chain_len: 20,
        sessions: 2,
        epoch_rounds: 200,
        setup_reps: 5,
        setup_seconds: 0.5,
        commit_probes: 200,
        warmup_ops: 3,
        floor_reps: 21,
    };

    pub const TINY: Sizes = Sizes {
        tree_depth: 5,
        tree_min_level: 2,
        forest_edges: 60,
        forest_depth: 4,
        chains: 3,
        chain_len: 4,
        sessions: 2,
        epoch_rounds: 3,
        setup_reps: 1,
        setup_seconds: 0.0,
        commit_probes: 3,
        warmup_ops: 1,
        floor_reps: 3,
    };
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every input and every query sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An independent stream for worker `i`.
    pub fn fork(&mut self, i: u64) -> Rng {
        Rng(self.next_u64() ^ i.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }
}

/// One query and the shape key its work depends on.
#[derive(Debug, Clone)]
pub struct Query {
    pub text: String,
    /// Key into [`Inputs::answers`].
    pub answer_key: String,
    /// Queries with equal shape do the same work (same tree level, same
    /// number of relevant rules); exact-repeat counters group by it.
    pub shape: String,
}

/// A workload's generated inputs and expected answers.
pub struct Inputs {
    pub workload: Workload,
    pub sizes: Sizes,
    /// The `parent` tree, or the rule base's `base` relation.
    pub sym_edges: Edges,
    /// The integer forest, in seeded load order.
    pub int_edges: IntEdges,
    /// Expected answer rows by bound constant (`""` for the unbound
    /// closure query).
    pub answers: HashMap<String, HashSet<Vec<Value>>>,
}

impl Inputs {
    pub fn generate(workload: Workload, sizes: Sizes, rng: &mut Rng) -> Inputs {
        let mut inputs = Inputs {
            workload,
            sizes,
            sym_edges: Vec::new(),
            int_edges: Vec::new(),
            answers: HashMap::new(),
        };
        match workload {
            Workload::TreeLfp => {
                inputs.sym_edges = workload::full_binary_tree(sizes.tree_depth);
                for (x, ys) in oracle::descendants(&inputs.sym_edges) {
                    let rows = ys.into_iter().map(|y| vec![Value::Str(y)]).collect();
                    inputs.answers.insert(x, rows);
                }
            }
            Workload::IntClosure => {
                let mut edges = workload::scaled_forest(sizes.forest_edges, sizes.forest_depth);
                for i in (1..edges.len()).rev() {
                    edges.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let rows = oracle::closure(&edges)
                    .into_iter()
                    .map(|(x, y)| vec![Value::Int(x), Value::Int(y)])
                    .collect();
                inputs.answers.insert(String::new(), rows);
                inputs.int_edges = edges;
            }
            Workload::RulebaseQuery | Workload::UpdateMix => {
                // The chain rules copy `base` unchanged, so the answer of
                // `g{c}_p{k}(x, W)` is `base(x, W)` for every chain and
                // position: the generator knows it without evaluating.
                inputs.sym_edges = vec![("a".into(), "b".into()), ("b".into(), "c".into())];
                for (x, y) in &inputs.sym_edges {
                    inputs
                        .answers
                        .entry(x.clone())
                        .or_default()
                        .insert(vec![Value::Str(y.clone())]);
                }
            }
        }
        inputs
    }

    /// Draw the next query of a read workload.
    pub fn draw_query(&self, rng: &mut Rng) -> Query {
        match self.workload {
            Workload::TreeLfp => {
                let s = self.sizes;
                let level =
                    s.tree_min_level + rng.below(u64::from(s.tree_depth - s.tree_min_level)) as u32;
                let first = 1u64 << (level - 1);
                let node = format!("n{}", first + rng.below(first));
                Query {
                    text: format!("?- anc({node}, W)."),
                    answer_key: node,
                    shape: format!("level{level}"),
                }
            }
            Workload::IntClosure => Query {
                text: "?- anc(X, Y).".into(),
                answer_key: String::new(),
                shape: "closure".into(),
            },
            Workload::RulebaseQuery | Workload::UpdateMix => {
                let (c, k, x) = self.draw_chain(rng);
                Query {
                    text: workload::rules::chain_query(c, k, &x),
                    answer_key: x,
                    shape: format!("k{k}"),
                }
            }
        }
    }

    /// A seeded chain position `(c, k)` and a bound constant that has
    /// answers.
    pub fn draw_chain(&self, rng: &mut Rng) -> (usize, usize, String) {
        let c = rng.below(self.sizes.chains as u64) as usize;
        let k = rng.below(self.sizes.chain_len as u64) as usize;
        let x = self.sym_edges[rng.below(self.sym_edges.len() as u64) as usize]
            .0
            .clone();
        (c, k, x)
    }

    pub fn expected(&self, q: &Query) -> &HashSet<Vec<Value>> {
        &self.answers[&q.answer_key]
    }
}

/// The D/KB a run measures against.
pub enum Fixture {
    /// One private session (the read workloads).
    Private(Box<Session>),
    /// Sessions attached to one shared engine (`update_mix`).
    Shared {
        engine: SharedEngine,
        sessions: Vec<Session>,
    },
}

/// Build the workload's D/KB: the timed set-up.
pub fn build_fixture(inputs: &Inputs) -> Result<Fixture, KmError> {
    let sizes = inputs.sizes;
    match inputs.workload {
        Workload::TreeLfp => {
            let mut s = Session::new(SessionConfig::default())?;
            s.define_base("parent", &binary_sym())?;
            s.db_execute("CREATE INDEX parent_c0 ON parent (c0)")?;
            s.load_facts("parent", workload::edges_to_rows(&inputs.sym_edges))?;
            store_rules(&mut s, &workload::ancestor_program("parent"))?;
            Ok(Fixture::Private(Box::new(s)))
        }
        Workload::IntClosure => {
            let mut s = Session::new(SessionConfig::default())?;
            s.define_base("edge", &[AttrType::Int, AttrType::Int])?;
            s.load_facts("edge", workload::int_edges_to_rows(&inputs.int_edges))?;
            store_rules(&mut s, &workload::ancestor_program("edge"))?;
            Ok(Fixture::Private(Box::new(s)))
        }
        Workload::RulebaseQuery => {
            let mut s = Session::new(SessionConfig::default())?;
            load_rule_base(&mut s, inputs)?;
            Ok(Fixture::Private(Box::new(s)))
        }
        Workload::UpdateMix => {
            let engine = SharedEngine::new(Engine::new());
            let mut s = Session::attach(&engine, SessionConfig::default())?;
            load_rule_base(&mut s, inputs)?;
            let sessions = (0..sizes.sessions)
                .map(|_| Session::attach(&engine, SessionConfig::default()))
                .collect::<Result<_, _>>()?;
            Ok(Fixture::Shared { engine, sessions })
        }
    }
}

fn load_rule_base(s: &mut Session, inputs: &Inputs) -> Result<(), KmError> {
    s.define_base("base", &binary_sym())?;
    s.load_facts("base", workload::edges_to_rows(&inputs.sym_edges))?;
    let program = workload::chain_rule_base(inputs.sizes.chains, inputs.sizes.chain_len, "base");
    for clause in program.clauses {
        s.workspace_mut().add_clause(clause);
    }
    s.commit_workspace()?;
    s.workspace_mut().clear();
    Ok(())
}

/// Parse `src` into the workspace and commit it to the stored D/KB.
fn store_rules(s: &mut Session, src: &str) -> Result<(), KmError> {
    s.load_rules(src)?;
    s.commit_workspace()?;
    s.workspace_mut().clear();
    Ok(())
}
