//! The Run Time Library: bottom-up LFP evaluation over the SQL interface.
//!
//! Two strategies, as in the testbed:
//!
//! * **Naive** — every iteration re-evaluates the full right-hand side of
//!   each recursive equation against the accumulated relations, then runs a
//!   set-difference termination check.
//! * **Semi-naive** — the differential method: each iteration evaluates,
//!   per recursive rule and per occurrence of a clique predicate, a variant
//!   reading that occurrence from the delta table; only genuinely new
//!   tuples feed the next delta.
//!
//! Both strategies run as "an application program against the DBMS": every
//! step is a SQL statement, temporary tables are created and dropped each
//! iteration, and the termination check is a set difference — the three
//! cost categories of the paper's Table 5, which we time and count
//! separately in [`LfpBreakdown`].

use crate::codegen::{all_table, delta_table, new_table, EvalProgram, ProgNode, RuleSql};
use crate::stored::KmError;
use crate::util::attr_to_coltype;
use hornlog::types::AttrType;
use rdbms::{BudgetKind, DbError, Engine, ResultSet, StmtId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// LFP evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfpStrategy {
    Naive,
    SemiNaive,
}

/// Per-category cost breakdown of LFP evaluation (the paper's Table 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct LfpBreakdown {
    /// Creating and dropping temporary tables.
    pub t_temp_tables: Duration,
    /// Evaluating rule right-hand sides (or their differentials) and
    /// installing new tuples.
    pub t_eval_rhs: Duration,
    /// Termination checks (set differences).
    pub t_termination: Duration,
    /// Temp-table DDL statements issued.
    pub n_temp_ops: u64,
    /// RHS evaluation statements issued.
    pub n_eval_stmts: u64,
    /// Termination-check statements issued.
    pub n_term_checks: u64,
    /// LFP iterations run (cliques only).
    pub iterations: u64,
    /// New tuples installed into derived tables.
    pub tuples_produced: u64,
}

impl LfpBreakdown {
    pub fn total_time(&self) -> Duration {
        self.t_temp_tables + self.t_eval_rhs + self.t_termination
    }

    fn absorb(&mut self, other: &LfpBreakdown) {
        self.t_temp_tables += other.t_temp_tables;
        self.t_eval_rhs += other.t_eval_rhs;
        self.t_termination += other.t_termination;
        self.n_temp_ops += other.n_temp_ops;
        self.n_eval_stmts += other.n_eval_stmts;
        self.n_term_checks += other.n_term_checks;
        self.iterations += other.iterations;
        self.tuples_produced += other.tuples_produced;
    }
}

/// One LFP iteration of one clique, as observed at the SQL boundary.
#[derive(Debug, Clone, Default)]
pub struct IterationTrace {
    /// 1-based iteration number within the clique.
    pub iteration: u64,
    /// Per-predicate cardinality of the genuinely new tuples this
    /// iteration produced (the delta), in clique-predicate order.
    pub delta_cards: Vec<(String, u64)>,
    /// Temp-table recycling (CREATE/DROP/TRUNCATE) time this iteration.
    pub t_temp: Duration,
    /// RHS (or differential) evaluation time this iteration.
    pub t_eval: Duration,
    /// Termination-check time this iteration.
    pub t_term: Duration,
    /// Wall time of the whole iteration — the three phases plus loop glue.
    pub t_total: Duration,
    /// Plan-cache hits observed at the engine during this iteration.
    pub plan_cache_hits: u64,
    /// Plan-cache (re)compilations observed during this iteration.
    pub plan_cache_misses: u64,
    /// Cardinality-drift replans observed during this iteration.
    pub plan_replans: u64,
    /// SQL statements executed during this iteration.
    pub statements: u64,
    /// Per-worker busy time of the RHS evaluation phase when the delta
    /// statements were dispatched to worker threads (empty when they ran
    /// inline on the clique's own thread, i.e. at parallelism 1). The
    /// workers serialize at the engine, so these overlap with `t_eval`
    /// rather than summing to it.
    pub worker_eval: Vec<Duration>,
}

/// Per-clique LFP trace: setup cost plus one [`IterationTrace`] per round.
///
/// `t_setup + Σ iterations[i].t_total == total` by construction, so a
/// consumer can re-derive the clique's wall time from the parts.
#[derive(Debug, Clone, Default)]
pub struct CliqueTrace {
    pub predicates: Vec<String>,
    /// Whether this clique computes magic predicates (`m_` prefix) —
    /// Figure 14 attributes LFP time to the two computations this way.
    pub is_magic: bool,
    /// Wall time of the whole clique: setup, iterations, teardown.
    pub total: Duration,
    /// `total` minus the summed iteration wall times: table creation,
    /// statement preparation, exit rules, final drops.
    pub t_setup: Duration,
    /// Index of the scheduler worker that evaluated this clique (0 when
    /// the evaluation order ran serially).
    pub worker: usize,
    pub iterations: Vec<IterationTrace>,
}

/// Timing of one evaluation-order node.
#[derive(Debug, Clone)]
pub struct NodeTiming {
    pub predicates: Vec<String>,
    pub is_clique: bool,
    /// Whether this node evaluates magic predicates (name prefix `m_`) —
    /// Figure 14 separates the two LFP computations this way.
    pub is_magic: bool,
    pub elapsed: Duration,
    pub breakdown: LfpBreakdown,
    /// Index of the scheduler worker that evaluated this node (0 when the
    /// evaluation order ran serially). Node wall times overlap when the
    /// scheduler runs independent nodes concurrently, so summing
    /// `elapsed` across nodes can exceed the outcome's `total`.
    pub worker: usize,
}

/// The outcome of running a generated program.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The query answer (distinct rows, sorted for determinism).
    pub rows: Vec<Vec<Value>>,
    /// Wall-clock time of the whole run.
    pub total: Duration,
    /// Per-node timings, in evaluation order.
    pub node_timings: Vec<NodeTiming>,
    /// Per-clique, per-iteration traces, in evaluation order (one entry
    /// per clique node; non-recursive nodes do not iterate).
    pub clique_traces: Vec<CliqueTrace>,
    /// Aggregated LFP breakdown over all nodes.
    pub breakdown: LfpBreakdown,
}

/// Per-evaluation resource limits, all off by default. The deadline is
/// relative to the start of the evaluation and is armed on the engine too
/// ([`Engine::set_eval_deadline`]), so long-running *statements* observe
/// the same clock as the LFP loop around them.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalLimits {
    /// Wall-clock budget for the whole evaluation.
    pub deadline: Option<Duration>,
    /// Maximum LFP iterations per clique.
    pub max_iterations: Option<u64>,
    /// Maximum derived tuples installed across the whole evaluation
    /// (seeds, exit rules, and every iteration's new tuples).
    pub max_derived_facts: Option<u64>,
}

/// Which resource an [`EvalError::Budget`] tripped on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalResource {
    /// Cooperative cancellation (the engine's cancel flag).
    Canceled,
    /// The wall-clock deadline passed.
    Deadline,
    /// Per-clique LFP iteration budget.
    Iterations,
    /// Whole-evaluation derived-fact budget.
    DerivedFacts,
    /// Engine-level row-processing budget.
    Rows,
    /// Engine-level operator memory budget.
    Memory,
}

impl std::fmt::Display for EvalResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalResource::Canceled => write!(f, "cancellation"),
            EvalResource::Deadline => write!(f, "deadline"),
            EvalResource::Iterations => write!(f, "iteration budget"),
            EvalResource::DerivedFacts => write!(f, "derived-fact budget"),
            EvalResource::Rows => write!(f, "row budget"),
            EvalResource::Memory => write!(f, "memory budget"),
        }
    }
}

/// What the evaluation had produced when a budget tripped — the same trace
/// machinery a successful [`EvalOutcome`] carries, minus the answer rows.
/// Completed evaluation-order nodes appear in full; the clique that was
/// mid-fixpoint contributes its iterations so far as a final
/// [`CliqueTrace`] with zero `total`/`t_setup` (wall time is unknown at
/// the abort point).
#[derive(Debug, Clone, Default)]
pub struct PartialProgress {
    pub breakdown: LfpBreakdown,
    pub node_timings: Vec<NodeTiming>,
    pub clique_traces: Vec<CliqueTrace>,
}

/// A typed evaluation failure: the LFP run was abandoned cooperatively.
/// The engine itself stays healthy — the governed entry point
/// ([`run_program_governed`]) has already dropped the run's temporaries
/// and acknowledged any cancellation before this error reaches the caller.
#[derive(Debug, Clone)]
pub enum EvalError {
    Budget {
        resource: EvalResource,
        /// The configured limit (0 for cancellation/deadline breaches
        /// reported by the engine, where no count applies).
        limit: u64,
        /// Consumption observed at the breach.
        used: u64,
        partial: Box<PartialProgress>,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Budget {
                resource,
                limit,
                used,
                ..
            } => write!(
                f,
                "evaluation exceeded {resource} (used {used}, limit {limit})"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// A breach observed by [`EvalCtl`], before partial progress is attached.
struct CtlBreach {
    resource: EvalResource,
    limit: u64,
    used: u64,
}

/// The km-level evaluation governor: an absolute deadline, a per-clique
/// iteration cap, and a cumulative derived-fact budget shared (atomically)
/// by every node the scheduler may be running concurrently.
struct EvalCtl {
    started: Instant,
    deadline: Option<Instant>,
    max_iterations: Option<u64>,
    max_derived_facts: Option<u64>,
    derived: AtomicU64,
}

impl EvalCtl {
    fn new(limits: &EvalLimits, deadline: Option<Instant>) -> EvalCtl {
        EvalCtl {
            started: Instant::now(),
            deadline,
            max_iterations: limits.max_iterations,
            max_derived_facts: limits.max_derived_facts,
            derived: AtomicU64::new(0),
        }
    }

    fn check_deadline(&self) -> Result<(), CtlBreach> {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(CtlBreach {
                    resource: EvalResource::Deadline,
                    limit: d.saturating_duration_since(self.started).as_millis() as u64,
                    used: self.started.elapsed().as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Loop-top check: deadline plus the per-clique iteration cap.
    /// `iters` is the 1-based iteration about to run, so a cap of `n`
    /// admits exactly `n` iterations.
    fn check_iters(&self, iters: u64) -> Result<(), CtlBreach> {
        if let Some(m) = self.max_iterations {
            if iters > m {
                return Err(CtlBreach {
                    resource: EvalResource::Iterations,
                    limit: m,
                    used: iters,
                });
            }
        }
        self.check_deadline()
    }

    /// Charge `n` freshly installed derived tuples against the cumulative
    /// budget.
    fn charge_facts(&self, n: u64) -> Result<(), CtlBreach> {
        if n == 0 {
            return Ok(());
        }
        let used = self.derived.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(m) = self.max_derived_facts {
            if used > m {
                return Err(CtlBreach {
                    resource: EvalResource::DerivedFacts,
                    limit: m,
                    used,
                });
            }
        }
        Ok(())
    }
}

/// Wrap a breach and the progress made so far into the typed error.
fn budget_err(br: CtlBreach, partial: PartialProgress) -> KmError {
    KmError::Eval(Box::new(EvalError::Budget {
        resource: br.resource,
        limit: br.limit,
        used: br.used,
        partial: Box::new(partial),
    }))
}

/// Partial progress of a clique that was mid-fixpoint: its iterations so
/// far, packaged as the final clique trace.
fn clique_partial(
    types: &BTreeMap<&str, &[AttrType]>,
    b: &LfpBreakdown,
    traces: &mut Vec<IterationTrace>,
) -> PartialProgress {
    let predicates: Vec<String> = types.keys().map(|s| s.to_string()).collect();
    let is_magic = !predicates.is_empty() && predicates.iter().all(|p| p.starts_with("m_"));
    PartialProgress {
        breakdown: *b,
        node_timings: Vec::new(),
        clique_traces: vec![CliqueTrace {
            predicates,
            is_magic,
            total: Duration::ZERO,
            t_setup: Duration::ZERO,
            worker: 0,
            iterations: std::mem::take(traces),
        }],
    }
}

/// Promote an error leaving the evaluation into its governed form:
/// engine-level budget breaches ([`DbError::Budget`]) become
/// [`EvalError::Budget`] and clique-local partial progress is merged
/// behind the progress of the nodes that had already completed. Other
/// errors pass through untouched.
fn promote(e: KmError, mut done: PartialProgress) -> KmError {
    match e {
        KmError::Db(DbError::Budget(br)) => {
            let resource = match br.kind {
                BudgetKind::Canceled => EvalResource::Canceled,
                BudgetKind::Deadline => EvalResource::Deadline,
                BudgetKind::Rows => EvalResource::Rows,
                BudgetKind::Memory => EvalResource::Memory,
            };
            budget_err(
                CtlBreach {
                    resource,
                    limit: br.limit,
                    used: br.used,
                },
                done,
            )
        }
        KmError::Eval(mut boxed) => {
            let EvalError::Budget { partial, .. } = boxed.as_mut();
            done.breakdown.absorb(&partial.breakdown);
            done.node_timings.append(&mut partial.node_timings);
            done.clique_traces.append(&mut partial.clique_traces);
            **partial = done;
            KmError::Eval(boxed)
        }
        other => other,
    }
}

fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *acc += start.elapsed();
    r
}

fn create_table_sql(name: &str, types: &[AttrType]) -> String {
    let cols: Vec<String> = types
        .iter()
        .enumerate()
        .map(|(i, t)| format!("c{i} {}", attr_to_coltype(*t)))
        .collect();
    format!("CREATE TEMP TABLE {name} ({})", cols.join(", "))
}

/// Server-side "rows of `new` not yet in `all`, appended to `target`".
/// The `NOT EXISTS` form correlates on every column, so with the matching
/// full-key index (see [`term_index_sql`]) the engine probes the
/// accumulated table once per candidate row instead of re-scanning and
/// re-hashing all of it every iteration — the probe is what keeps the
/// prepared termination check cheap as the fixpoint grows.
fn termination_sql(target: &str, new: &str, all: &str, arity: usize) -> String {
    if arity == 0 {
        return format!("INSERT INTO {target} SELECT * FROM {new} EXCEPT SELECT * FROM {all}");
    }
    let on: Vec<String> = (0..arity).map(|i| format!("a.c{i} = n.c{i}")).collect();
    format!(
        "INSERT INTO {target} SELECT DISTINCT * FROM {new} n \
         WHERE NOT EXISTS (SELECT * FROM {all} a WHERE {})",
        on.join(" AND ")
    )
}

/// Full-key index on an accumulated table, backing [`termination_sql`].
fn term_index_sql(all: &str, arity: usize) -> String {
    let cols: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
    format!("CREATE INDEX {all}_term ON {all} ({})", cols.join(", "))
}

fn dedup(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows.dedup();
    rows
}

/// The runtime's handle to the single-writer engine during evaluation.
///
/// Every SQL statement acquires the mutex for exactly its own duration, so
/// WAL appends and buffer-pool I/O stay serialized even when several
/// evaluation-order nodes — or several delta statements of one iteration —
/// are in flight on worker threads. Concurrent statements interleave but
/// never overlap inside the engine; the CPU parallelism that makes the
/// knob pay off lives *inside* each statement, in the engine's
/// partitioned operators (see `rdbms::exec`).
struct DbHandle<'a> {
    engine: Mutex<&'a mut Engine>,
}

impl<'a> DbHandle<'a> {
    fn new(engine: &'a mut Engine) -> DbHandle<'a> {
        DbHandle {
            engine: Mutex::new(engine),
        }
    }

    fn execute(&self, sql: &str) -> Result<ResultSet, KmError> {
        Ok(self.engine.lock().unwrap().execute(sql)?)
    }

    fn execute_prepared(&self, id: StmtId, params: &[Value]) -> Result<ResultSet, KmError> {
        Ok(self.engine.lock().unwrap().execute_prepared(id, params)?)
    }

    fn prepare(&self, sql: &str) -> Result<StmtId, KmError> {
        Ok(self.engine.lock().unwrap().prepare(sql)?)
    }

    fn deallocate(&self, id: StmtId) -> Result<(), KmError> {
        Ok(self.engine.lock().unwrap().deallocate(id)?)
    }

    fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64, KmError> {
        Ok(self.engine.lock().unwrap().insert_rows(table, rows)?)
    }

    /// Load a temporary relation one engine batch at a time. Each chunk
    /// holds the engine mutex for only its own insert, so concurrent
    /// evaluation-order nodes interleave at batch granularity instead of
    /// stalling behind one monolithic load of a large delta.
    fn insert_rows_batched(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64, KmError> {
        let batch = self.engine.lock().unwrap().batch_rows().max(1);
        if rows.len() <= batch {
            return self.insert_rows(table, rows);
        }
        let mut added = 0u64;
        let mut rows = rows;
        while !rows.is_empty() {
            let rest = rows.split_off(rows.len().min(batch));
            added += self.insert_rows(table, std::mem::replace(&mut rows, rest))?;
        }
        Ok(added)
    }
}

/// One statement of an evaluation batch (see [`run_batch`]).
enum BatchStmt<'a> {
    Sql(&'a str),
    Prepared(StmtId),
}

impl BatchStmt<'_> {
    fn run(&self, db: &DbHandle) -> Result<(), KmError> {
        match self {
            BatchStmt::Sql(s) => db.execute(s).map(|_| ()),
            BatchStmt::Prepared(id) => db.execute_prepared(*id, &[]).map(|_| ()),
        }
    }
}

/// Execute a batch of independent statements — the per-iteration rule (or
/// delta-variant) evaluations, which only read stable tables and append to
/// distinct-per-rule candidate tables — on up to `workers` threads.
///
/// Statements are claimed by index from a shared counter and serialize at
/// the engine lock, so the result is the same multiset of rows as the
/// serial loop in every candidate table. Returns each worker's busy time
/// (empty when the batch ran inline on the calling thread); on failure the
/// error of the lowest-indexed failing statement is reported, matching
/// which statement the serial loop would have failed on.
fn run_batch(
    db: &DbHandle,
    stmts: &[BatchStmt<'_>],
    workers: usize,
) -> Result<Vec<Duration>, KmError> {
    if workers <= 1 || stmts.len() < 2 {
        for s in stmts {
            s.run(db)?;
        }
        return Ok(Vec::new());
    }
    let next = AtomicUsize::new(0);
    let n = workers.min(stmts.len());
    let outcomes: Vec<Result<Duration, (usize, KmError)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                scope.spawn(|| {
                    let mut busy = Duration::ZERO;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= stmts.len() {
                            return Ok(busy);
                        }
                        let t = Instant::now();
                        stmts[i].run(db).map_err(|e| (i, e))?;
                        busy += t.elapsed();
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });
    let mut times = Vec::with_capacity(n);
    let mut first_err: Option<(usize, KmError)> = None;
    for o in outcomes {
        match o {
            Ok(d) => times.push(d),
            Err((i, e)) => {
                let replace = match &first_err {
                    None => true,
                    Some((j, _)) => i < *j,
                };
                if replace {
                    first_err = Some((i, e));
                }
            }
        }
    }
    match first_err {
        Some((_, e)) => Err(e),
        None => Ok(times),
    }
}

/// Collect the predicates a generated SQL statement reads through their
/// accumulated (`d_`-prefixed, `ns`-namespaced) tables. Single-quoted
/// literals are skipped so a symbol constant cannot alias a table name.
fn d_table_refs(sql: &str, ns: &str, out: &mut BTreeSet<String>) {
    let b = sql.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'\'' {
            i += 1;
            while i < b.len() && b[i] != b'\'' {
                i += 1;
            }
            i += 1;
        } else if b[i].is_ascii_alphabetic() || b[i] == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            if let Some(p) = sql[start..i].strip_prefix("d_") {
                let p = p.strip_prefix(ns).unwrap_or(p);
                if !p.is_empty() {
                    out.insert(p.to_string());
                }
            }
        } else {
            i += 1;
        }
    }
}

/// Dependency edges of the evaluation-order DAG: `deps[i]` lists the
/// indices of the nodes whose defined predicates node `i`'s rules read via
/// the accumulated `d_` tables. The evaluation order list is topologically
/// sorted, so every dependency points at an earlier index; nodes with
/// disjoint dependency chains (e.g. the magic clique of one subquery and
/// an unrelated predicate) are free to run concurrently.
fn node_deps(prog: &EvalProgram) -> Vec<Vec<usize>> {
    let mut defined: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, node) in prog.nodes.iter().enumerate() {
        for p in node.predicates() {
            defined.insert(p, i);
        }
    }
    prog.nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let rules: Vec<&RuleSql> = match node {
                ProgNode::Predicate { rules, .. } => rules.iter().collect(),
                ProgNode::Clique {
                    exit_rules,
                    recursive_rules,
                    ..
                } => exit_rules.iter().chain(recursive_rules).collect(),
            };
            let mut refs = BTreeSet::new();
            for rule in rules {
                d_table_refs(&rule.full_sql, &prog.ns, &mut refs);
                for v in &rule.delta_variants {
                    d_table_refs(v, &prog.ns, &mut refs);
                }
            }
            let mut deps = BTreeSet::new();
            for p in &refs {
                if let Some(&j) = defined.get(p.as_str()) {
                    if j != i {
                        deps.insert(j);
                    }
                }
            }
            deps.into_iter().collect()
        })
        .collect()
}

/// What evaluating one evaluation-order node yields, before trace assembly.
struct NodeOut {
    breakdown: LfpBreakdown,
    iterations: Vec<IterationTrace>,
    /// Wall time of the node on the worker that ran it.
    elapsed: Duration,
    /// The specialized TC operator ran: `elapsed` is the single
    /// statement's time and the clique trace gets zero setup.
    tc: bool,
    worker: usize,
    /// The query answer, when this node evaluated the result predicate.
    answer: Option<Vec<Vec<Value>>>,
}

/// Evaluate one node of the evaluation order.
#[allow(clippy::too_many_arguments)]
fn eval_node(
    db: &DbHandle,
    prog: &EvalProgram,
    node: &ProgNode,
    strategy: LfpStrategy,
    special_tc: bool,
    prepared_sql: bool,
    workers: usize,
    ctl: &EvalCtl,
) -> Result<NodeOut, KmError> {
    let node_start = Instant::now();
    match node {
        ProgNode::Predicate { pred, rules } if *pred == prog.result_pred => {
            let (breakdown, answer) = eval_answer(db, prog, rules, ctl)?;
            Ok(NodeOut {
                breakdown,
                iterations: Vec::new(),
                elapsed: node_start.elapsed(),
                tc: false,
                worker: 0,
                answer: Some(answer),
            })
        }
        ProgNode::Predicate { rules, .. } => Ok(NodeOut {
            breakdown: eval_predicate(db, &prog.ns, rules, ctl)?,
            iterations: Vec::new(),
            elapsed: node_start.elapsed(),
            tc: false,
            worker: 0,
            answer: None,
        }),
        ProgNode::Clique {
            preds,
            exit_rules,
            recursive_rules,
            tc_of,
        } => {
            // The specialized operator applies only when nothing was
            // seeded into the clique predicate (seeds would extend the
            // LFP beyond the plain closure).
            let seeded = prog.seeds.iter().any(|(p, _)| preds.contains(p));
            if special_tc && !seeded {
                if let Some(src) = tc_of {
                    let pred = &preds[0];
                    let mut b = LfpBreakdown::default();
                    if let Err(br) = ctl.check_deadline() {
                        return Err(budget_err(
                            br,
                            clique_partial(
                                &[(pred.as_str(), prog.tables[pred].as_slice())]
                                    .into_iter()
                                    .collect(),
                                &b,
                                &mut Vec::new(),
                            ),
                        ));
                    }
                    let snap0 = StatSnap::take(db);
                    let t = Instant::now();
                    let rs = db.execute(&format!(
                        "INSERT INTO {} TRANSITIVE CLOSURE OF {src}",
                        all_table(&prog.ns, pred)
                    ))?;
                    let elapsed = t.elapsed();
                    b.t_eval_rhs = elapsed;
                    b.n_eval_stmts = 1;
                    b.iterations = 1;
                    b.tuples_produced = rs.affected;
                    let mut iter = snap0.finish(db);
                    iter.iteration = 1;
                    iter.delta_cards = vec![(pred.clone(), rs.affected)];
                    iter.t_eval = elapsed;
                    iter.t_total = elapsed;
                    // The operator runs as one statement, so the fact
                    // budget is enforced on its affected count after the
                    // fact — the engine-level row budget is the in-flight
                    // bound for this path.
                    if let Err(br) = ctl.charge_facts(rs.affected) {
                        return Err(budget_err(
                            br,
                            clique_partial(
                                &[(pred.as_str(), prog.tables[pred].as_slice())]
                                    .into_iter()
                                    .collect(),
                                &b,
                                &mut vec![iter],
                            ),
                        ));
                    }
                    return Ok(NodeOut {
                        breakdown: b,
                        iterations: vec![iter],
                        elapsed,
                        tc: true,
                        worker: 0,
                        answer: None,
                    });
                }
            }
            let types: BTreeMap<&str, &[AttrType]> = preds
                .iter()
                .map(|p| (p.as_str(), prog.tables[p].as_slice()))
                .collect();
            let (b, iterations) = match (strategy, prepared_sql) {
                (LfpStrategy::Naive, false) => eval_clique_naive(
                    db,
                    &prog.ns,
                    &types,
                    exit_rules,
                    recursive_rules,
                    workers,
                    ctl,
                )?,
                (LfpStrategy::SemiNaive, false) => eval_clique_seminaive(
                    db,
                    &prog.ns,
                    &types,
                    exit_rules,
                    recursive_rules,
                    workers,
                    ctl,
                )?,
                (LfpStrategy::Naive, true) => eval_clique_naive_prepared(
                    db,
                    &prog.ns,
                    &types,
                    exit_rules,
                    recursive_rules,
                    workers,
                    ctl,
                )?,
                (LfpStrategy::SemiNaive, true) => eval_clique_seminaive_prepared(
                    db,
                    &prog.ns,
                    &types,
                    exit_rules,
                    recursive_rules,
                    workers,
                    ctl,
                )?,
            };
            Ok(NodeOut {
                breakdown: b,
                iterations,
                elapsed: node_start.elapsed(),
                tc: false,
                worker: 0,
                answer: None,
            })
        }
    }
}

/// Fold one node's result into the outcome accumulators, in evaluation
/// order — regardless of which worker evaluated it when. Returns the
/// query answer if the node evaluated the result predicate.
fn record_node(
    node: &ProgNode,
    out: NodeOut,
    breakdown: &mut LfpBreakdown,
    node_timings: &mut Vec<NodeTiming>,
    clique_traces: &mut Vec<CliqueTrace>,
) -> Option<Vec<Vec<Value>>> {
    let predicates: Vec<String> = node.predicates().iter().map(|s| s.to_string()).collect();
    let is_magic = predicates.iter().all(|p| p.starts_with("m_"));
    breakdown.absorb(&out.breakdown);
    if node.is_clique() {
        let iter_total: Duration = out.iterations.iter().map(|i| i.t_total).sum();
        clique_traces.push(CliqueTrace {
            predicates: predicates.clone(),
            is_magic,
            total: out.elapsed,
            t_setup: if out.tc {
                Duration::ZERO
            } else {
                out.elapsed.saturating_sub(iter_total)
            },
            worker: out.worker,
            iterations: out.iterations,
        });
    }
    node_timings.push(NodeTiming {
        predicates,
        is_clique: node.is_clique(),
        is_magic,
        elapsed: out.elapsed,
        breakdown: out.breakdown,
        worker: out.worker,
    });
    out.answer
}

/// Shared state of the clique DAG scheduler.
struct SchedState {
    /// Unmet dependency count per node.
    remaining: Vec<usize>,
    /// Nodes whose dependencies are all evaluated; workers claim the
    /// smallest index first so the schedule is deterministic up to timing.
    ready: BTreeSet<usize>,
    /// Nodes claimed so far (running or finished).
    claimed: usize,
    results: Vec<Option<NodeOut>>,
    /// First failure by node index; once set, idle workers drain and exit.
    error: Option<(usize, KmError)>,
}

/// Run the evaluation-order nodes on a scoped pool of `workers` threads,
/// dispatching each node as soon as the nodes it reads from are done.
fn run_nodes_parallel(
    db: &DbHandle,
    prog: &EvalProgram,
    strategy: LfpStrategy,
    special_tc: bool,
    prepared_sql: bool,
    workers: usize,
    ctl: &EvalCtl,
) -> Result<Vec<NodeOut>, KmError> {
    let n = prog.nodes.len();
    let deps = node_deps(prog);
    let mut dependents = vec![Vec::new(); n];
    let mut remaining = vec![0usize; n];
    for (i, ds) in deps.iter().enumerate() {
        remaining[i] = ds.len();
        for &d in ds {
            dependents[d].push(i);
        }
    }
    let ready: BTreeSet<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
    let state = Mutex::new(SchedState {
        remaining,
        ready,
        claimed: 0,
        results: (0..n).map(|_| None).collect(),
        error: None,
    });
    let cv = Condvar::new();
    let dependents = &dependents;
    std::thread::scope(|scope| {
        for w in 0..workers.min(n.max(1)) {
            let state = &state;
            let cv = &cv;
            scope.spawn(move || loop {
                let i = {
                    let mut g = state.lock().unwrap();
                    loop {
                        if g.error.is_some() || g.claimed == n {
                            return;
                        }
                        if let Some(&i) = g.ready.iter().next() {
                            g.ready.remove(&i);
                            g.claimed += 1;
                            break i;
                        }
                        g = cv.wait(g).unwrap();
                    }
                };
                let r = eval_node(
                    db,
                    prog,
                    &prog.nodes[i],
                    strategy,
                    special_tc,
                    prepared_sql,
                    workers,
                    ctl,
                );
                let mut g = state.lock().unwrap();
                match r {
                    Ok(mut out) => {
                        out.worker = w;
                        for &d in &dependents[i] {
                            g.remaining[d] -= 1;
                            if g.remaining[d] == 0 {
                                g.ready.insert(d);
                            }
                        }
                        g.results[i] = Some(out);
                    }
                    Err(e) => {
                        let replace = match &g.error {
                            None => true,
                            Some((j, _)) => i < *j,
                        };
                        if replace {
                            g.error = Some((i, e));
                        }
                    }
                }
                cv.notify_all();
            });
        }
    });
    let state = state.into_inner().unwrap();
    if let Some((_, e)) = state.error {
        return Err(e);
    }
    Ok(state
        .results
        .into_iter()
        .map(|o| o.expect("scheduler evaluated every node"))
        .collect())
}

/// Run a generated program to completion and read the answer.
pub fn run_program(
    db: &mut Engine,
    prog: &EvalProgram,
    strategy: LfpStrategy,
) -> Result<EvalOutcome, KmError> {
    run_program_with(db, prog, strategy, false)
}

/// [`run_program`] with the specialized transitive-closure operator
/// enabled: cliques the code generator recognized as plain TC evaluate
/// with one `INSERT ... TRANSITIVE CLOSURE OF ...` statement instead of
/// the generic SQL LFP loop (paper conclusion #8).
pub fn run_program_with(
    db: &mut Engine,
    prog: &EvalProgram,
    strategy: LfpStrategy,
    special_tc: bool,
) -> Result<EvalOutcome, KmError> {
    run_program_opts(db, prog, strategy, special_tc, true)
}

/// The full-knob entry point: `prepared_sql` selects between the
/// embedded-SQL style (each clique's per-iteration statements are prepared
/// once and re-executed as handles, temp tables recycled with TRUNCATE) and
/// the original string-per-statement loop that re-parses and re-plans every
/// iteration. Both produce identical answers; the ablation in the bench
/// harness measures the difference.
pub fn run_program_opts(
    db: &mut Engine,
    prog: &EvalProgram,
    strategy: LfpStrategy,
    special_tc: bool,
    prepared_sql: bool,
) -> Result<EvalOutcome, KmError> {
    run_program_governed(
        db,
        prog,
        strategy,
        special_tc,
        prepared_sql,
        &EvalLimits::default(),
    )
}

/// [`run_program_opts`] under an evaluation governor: a wall-clock
/// deadline (armed on the engine too, so individual statements observe
/// it), a per-clique iteration cap, and a cumulative derived-fact budget.
/// A breach — or an engine-level budget/cancellation breach surfacing from
/// a statement — aborts the run with [`EvalError::Budget`], carrying the
/// traces produced so far. Before the error is returned the engine is put
/// back in service: the evaluation deadline is cleared, a pending
/// cancellation is acknowledged, and the run's temporary tables are
/// dropped best-effort.
pub fn run_program_governed(
    db: &mut Engine,
    prog: &EvalProgram,
    strategy: LfpStrategy,
    special_tc: bool,
    prepared_sql: bool,
    limits: &EvalLimits,
) -> Result<EvalOutcome, KmError> {
    let deadline = limits.deadline.map(|d| Instant::now() + d);
    let ctl = EvalCtl::new(limits, deadline);
    db.set_eval_deadline(deadline);
    let r = run_program_inner(db, prog, strategy, special_tc, prepared_sql, &ctl);
    db.set_eval_deadline(None);
    match r {
        Ok(out) => Ok(out),
        Err(e) => {
            // Late breaches (answer read, cleanup) carry no trace state;
            // promote them with empty progress.
            let e = promote(e, PartialProgress::default());
            if matches!(e, KmError::Eval(_)) {
                db.reset_cancel();
                for pred in prog.tables.keys() {
                    let _ = db.execute(&format!(
                        "DROP TABLE IF EXISTS {}",
                        all_table(&prog.ns, pred)
                    ));
                    let _ = db.execute(&format!(
                        "DROP TABLE IF EXISTS {}",
                        new_table(&prog.ns, pred)
                    ));
                    let _ = db.execute(&format!(
                        "DROP TABLE IF EXISTS {}",
                        delta_table(&prog.ns, pred)
                    ));
                }
            }
            Err(e)
        }
    }
}

fn run_program_inner(
    db: &mut Engine,
    prog: &EvalProgram,
    strategy: LfpStrategy,
    special_tc: bool,
    prepared_sql: bool,
    ctl: &EvalCtl,
) -> Result<EvalOutcome, KmError> {
    let workers = db.parallelism();
    let start = Instant::now();
    let mut breakdown = LfpBreakdown::default();
    let db = DbHandle::new(db);

    // Create the accumulated tables and load seeds.
    timed(&mut breakdown.t_temp_tables, || -> Result<(), KmError> {
        for (pred, types) in &prog.tables {
            db.execute(&format!(
                "DROP TABLE IF EXISTS {}",
                all_table(&prog.ns, pred)
            ))?;
            db.execute(&create_table_sql(&all_table(&prog.ns, pred), types))?;
        }
        Ok(())
    })?;
    breakdown.n_temp_ops += 2 * prog.tables.len() as u64;
    let t = Instant::now();
    for (pred, rows) in &prog.seeds {
        let added = if *pred == prog.result_pred {
            // Result seeds have no table; they join the answer directly.
            result_seeds(prog).len() as u64
        } else {
            db.insert_rows_batched(&all_table(&prog.ns, pred), dedup(rows.clone()))?
        };
        breakdown.tuples_produced += added;
        if let Err(br) = ctl.charge_facts(added) {
            return Err(budget_err(
                br,
                PartialProgress {
                    breakdown,
                    ..PartialProgress::default()
                },
            ));
        }
    }
    breakdown.t_eval_rhs += t.elapsed();

    // Evaluate the nodes: strictly in order when serial, in dependency
    // order on the scheduler's thread pool otherwise. Traces are folded in
    // evaluation-order either way, so consumers see the same shape.
    let mut node_timings = Vec::with_capacity(prog.nodes.len());
    let mut clique_traces = Vec::new();
    let mut answer = None;
    let mut eval_err: Option<KmError> = None;
    if workers <= 1 {
        for node in &prog.nodes {
            match eval_node(
                &db,
                prog,
                node,
                strategy,
                special_tc,
                prepared_sql,
                workers,
                ctl,
            ) {
                Ok(out) => {
                    answer = answer.or(record_node(
                        node,
                        out,
                        &mut breakdown,
                        &mut node_timings,
                        &mut clique_traces,
                    ))
                }
                Err(e) => {
                    eval_err = Some(e);
                    break;
                }
            }
        }
    } else {
        match run_nodes_parallel(&db, prog, strategy, special_tc, prepared_sql, workers, ctl) {
            Ok(outs) => {
                for (node, out) in prog.nodes.iter().zip(outs) {
                    answer = answer.or(record_node(
                        node,
                        out,
                        &mut breakdown,
                        &mut node_timings,
                        &mut clique_traces,
                    ));
                }
            }
            Err(e) => eval_err = Some(e),
        }
    }
    if let Some(e) = eval_err {
        // Attach what the completed nodes produced ahead of the failing
        // node's own partial state.
        return Err(promote(
            e,
            PartialProgress {
                breakdown,
                node_timings,
                clique_traces,
            },
        ));
    }

    // A program without a result node answers with its result seeds.
    let rows = answer.unwrap_or_else(|| result_seeds(prog));

    // Clean up exactly the temporaries this run created (user-created
    // temp tables in the same engine are not ours to drop).
    let t = Instant::now();
    for pred in prog.tables.keys() {
        db.execute(&format!(
            "DROP TABLE IF EXISTS {}",
            all_table(&prog.ns, pred)
        ))?;
        breakdown.n_temp_ops += 1;
    }
    breakdown.t_temp_tables += t.elapsed();

    Ok(EvalOutcome {
        rows,
        total: start.elapsed(),
        node_timings,
        clique_traces,
        breakdown,
    })
}

/// Engine counters sampled at an iteration boundary; `finish` turns a pair
/// of samples into the per-iteration deltas of an [`IterationTrace`].
struct StatSnap {
    plan_cache_hits: u64,
    plan_cache_misses: u64,
    plan_replans: u64,
    statements: u64,
}

impl StatSnap {
    fn take(db: &DbHandle) -> StatSnap {
        let s = db.engine.lock().unwrap().stats();
        StatSnap {
            plan_cache_hits: s.exec.plan_cache_hits,
            plan_cache_misses: s.exec.plan_cache_misses,
            plan_replans: s.exec.plan_replans,
            statements: s.statements,
        }
    }

    fn finish(&self, db: &DbHandle) -> IterationTrace {
        let now = StatSnap::take(db);
        IterationTrace {
            plan_cache_hits: now.plan_cache_hits - self.plan_cache_hits,
            plan_cache_misses: now.plan_cache_misses - self.plan_cache_misses,
            plan_replans: now.plan_replans - self.plan_replans,
            statements: now.statements - self.statements,
            ..IterationTrace::default()
        }
    }
}

/// Insert a SELECT's result into `target`, keeping set semantics via the
/// trailing `EXCEPT`. Returns the number of rows actually added.
fn insert_new(db: &DbHandle, target: &str, select_sql: &str) -> Result<u64, KmError> {
    let rs = db.execute(&format!(
        "INSERT INTO {target} {select_sql} EXCEPT SELECT * FROM {target}"
    ))?;
    Ok(rs.affected)
}

/// The seed rows of the result predicate, sorted and deduplicated.
fn result_seeds(prog: &EvalProgram) -> Vec<Vec<Value>> {
    dedup(
        prog.seeds
            .iter()
            .filter(|(pred, _)| *pred == prog.result_pred)
            .flat_map(|(_, rows)| rows.iter().cloned())
            .collect(),
    )
}

/// Evaluate the result node. No rule reads the result predicate, so its
/// rules' `SELECT DISTINCT` rows, together with any result seeds, are the
/// answer as they stand: nothing is stored and read back. The derived-fact
/// budget is charged for the answer rows the rules add beyond the seeds,
/// which were charged when the seeds were loaded.
fn eval_answer(
    db: &DbHandle,
    prog: &EvalProgram,
    rules: &[RuleSql],
    ctl: &EvalCtl,
) -> Result<(LfpBreakdown, Vec<Vec<Value>>), KmError> {
    let mut b = LfpBreakdown::default();
    let mut rows = result_seeds(prog);
    let seeded = rows.len();
    for rule in rules {
        if let Err(br) = ctl.check_deadline() {
            return Err(budget_err(
                br,
                PartialProgress {
                    breakdown: b,
                    ..PartialProgress::default()
                },
            ));
        }
        let rs = timed(&mut b.t_eval_rhs, || db.execute(&rule.full_sql))?;
        b.n_eval_stmts += 1;
        rows.extend(rs.rows);
    }
    let rows = timed(&mut b.t_eval_rhs, || dedup(rows));
    let added = (rows.len() - seeded) as u64;
    b.tuples_produced += added;
    if let Err(br) = ctl.charge_facts(added) {
        return Err(budget_err(
            br,
            PartialProgress {
                breakdown: b,
                ..PartialProgress::default()
            },
        ));
    }
    Ok((b, rows))
}

/// Evaluate a non-recursive predicate node: one pass over its rules.
fn eval_predicate(
    db: &DbHandle,
    ns: &str,
    rules: &[RuleSql],
    ctl: &EvalCtl,
) -> Result<LfpBreakdown, KmError> {
    let mut b = LfpBreakdown::default();
    for rule in rules {
        if let Err(br) = ctl.check_deadline() {
            return Err(budget_err(
                br,
                PartialProgress {
                    breakdown: b,
                    ..PartialProgress::default()
                },
            ));
        }
        let added = timed(&mut b.t_eval_rhs, || {
            insert_new(db, &all_table(ns, &rule.head_pred), &rule.full_sql)
        })?;
        b.n_eval_stmts += 1;
        b.tuples_produced += added;
        if let Err(br) = ctl.charge_facts(added) {
            return Err(budget_err(
                br,
                PartialProgress {
                    breakdown: b,
                    ..PartialProgress::default()
                },
            ));
        }
    }
    Ok(b)
}

/// Naive LFP: every iteration recomputes the full RHS of every rule of the
/// clique into per-iteration candidate tables, then diffs against the
/// accumulated tables for termination.
fn eval_clique_naive(
    db: &DbHandle,
    ns: &str,
    types: &BTreeMap<&str, &[AttrType]>,
    exit_rules: &[RuleSql],
    recursive_rules: &[RuleSql],
    workers: usize,
    ctl: &EvalCtl,
) -> Result<(LfpBreakdown, Vec<IterationTrace>), KmError> {
    let mut b = LfpBreakdown::default();
    let mut traces = Vec::new();
    // Each rule appends only to its own head's candidate table and reads
    // only the (stable within an iteration) accumulated tables, so the
    // per-iteration rule statements form an independent batch.
    let eval_sqls: Vec<String> = exit_rules
        .iter()
        .chain(recursive_rules)
        .map(|rule| {
            format!(
                "INSERT INTO {} {}",
                new_table(ns, &rule.head_pred),
                rule.full_sql
            )
        })
        .collect();
    let eval_batch: Vec<BatchStmt> = eval_sqls.iter().map(|s| BatchStmt::Sql(s)).collect();
    loop {
        b.iterations += 1;
        if let Err(br) = ctl.check_iters(b.iterations) {
            return Err(budget_err(br, clique_partial(types, &b, &mut traces)));
        }
        let iter_start = Instant::now();
        let snap = StatSnap::take(db);

        // Fresh candidate tables for this iteration.
        let t = Instant::now();
        for (p, tys) in types {
            db.execute(&format!("DROP TABLE IF EXISTS {}", new_table(ns, p)))?;
            db.execute(&create_table_sql(&new_table(ns, p), tys))?;
        }
        let mut d_temp = t.elapsed();
        b.n_temp_ops += 2 * types.len() as u64;

        // Recompute the full RHS: exit rules and recursive rules alike.
        let t = Instant::now();
        let worker_eval = run_batch(db, &eval_batch, workers)?;
        b.n_eval_stmts += eval_batch.len() as u64;
        let mut d_eval = t.elapsed();

        // Termination check: full set difference per predicate.
        let mut delta_cards = Vec::with_capacity(types.len());
        let mut new_tuples: Vec<(&str, Vec<Vec<Value>>)> = Vec::new();
        let t = Instant::now();
        for p in types.keys() {
            let rs = db.execute(&format!(
                "SELECT * FROM {} EXCEPT SELECT * FROM {}",
                new_table(ns, p),
                all_table(ns, p)
            ))?;
            b.n_term_checks += 1;
            delta_cards.push((p.to_string(), rs.rows.len() as u64));
            if !rs.rows.is_empty() {
                new_tuples.push((p, rs.rows));
            }
        }
        let d_term = t.elapsed();

        // Drop the candidate tables (per-iteration churn).
        let t = Instant::now();
        for p in types.keys() {
            db.execute(&format!("DROP TABLE {}", new_table(ns, p)))?;
        }
        d_temp += t.elapsed();
        b.n_temp_ops += types.len() as u64;

        let done = new_tuples.is_empty();
        let mut fresh = 0u64;
        if !done {
            let t = Instant::now();
            for (p, rows) in new_tuples {
                let added = db.insert_rows_batched(&all_table(ns, p), rows)?;
                b.tuples_produced += added;
                fresh += added;
            }
            d_eval += t.elapsed();
        }
        b.t_temp_tables += d_temp;
        b.t_eval_rhs += d_eval;
        b.t_termination += d_term;
        let mut iter = snap.finish(db);
        iter.iteration = b.iterations;
        iter.delta_cards = delta_cards;
        iter.t_temp = d_temp;
        iter.t_eval = d_eval;
        iter.t_term = d_term;
        iter.t_total = iter_start.elapsed();
        iter.worker_eval = worker_eval;
        traces.push(iter);
        if let Err(br) = ctl.charge_facts(fresh) {
            return Err(budget_err(br, clique_partial(types, &b, &mut traces)));
        }
        if done {
            return Ok((b, traces));
        }
    }
}

/// Semi-naive LFP: initialize the accumulated and delta tables from the
/// exit rules (and any seeds already present), then iterate the
/// differential variants.
fn eval_clique_seminaive(
    db: &DbHandle,
    ns: &str,
    types: &BTreeMap<&str, &[AttrType]>,
    exit_rules: &[RuleSql],
    recursive_rules: &[RuleSql],
    workers: usize,
    ctl: &EvalCtl,
) -> Result<(LfpBreakdown, Vec<IterationTrace>), KmError> {
    let mut b = LfpBreakdown::default();
    let mut traces = Vec::new();

    // Exit rules populate the accumulated tables.
    let t = Instant::now();
    let mut exit_added = 0u64;
    for rule in exit_rules {
        let added = insert_new(db, &all_table(ns, &rule.head_pred), &rule.full_sql)?;
        b.tuples_produced += added;
        exit_added += added;
        b.n_eval_stmts += 1;
    }
    b.t_eval_rhs += t.elapsed();
    if let Err(br) = ctl.charge_facts(exit_added) {
        return Err(budget_err(br, clique_partial(types, &b, &mut traces)));
    }

    // delta := current accumulated contents (exit results + seeds).
    timed(&mut b.t_temp_tables, || -> Result<(), KmError> {
        for (p, tys) in types {
            db.execute(&format!("DROP TABLE IF EXISTS {}", delta_table(ns, p)))?;
            db.execute(&create_table_sql(&delta_table(ns, p), tys))?;
        }
        Ok(())
    })?;
    b.n_temp_ops += 2 * types.len() as u64;
    let t = Instant::now();
    for p in types.keys() {
        db.execute(&format!(
            "INSERT INTO {} SELECT * FROM {}",
            delta_table(ns, p),
            all_table(ns, p)
        ))?;
        b.n_eval_stmts += 1;
    }
    b.t_eval_rhs += t.elapsed();

    // The delta variants read the (stable within an iteration) delta and
    // accumulated tables and append to per-head candidate tables, so they
    // form an independent batch.
    let eval_sqls: Vec<String> = recursive_rules
        .iter()
        .flat_map(|rule| {
            rule.delta_variants
                .iter()
                .map(|variant| format!("INSERT INTO {} {variant}", new_table(ns, &rule.head_pred)))
        })
        .collect();
    let eval_batch: Vec<BatchStmt> = eval_sqls.iter().map(|s| BatchStmt::Sql(s)).collect();

    loop {
        b.iterations += 1;
        if let Err(br) = ctl.check_iters(b.iterations) {
            return Err(budget_err(br, clique_partial(types, &b, &mut traces)));
        }
        let iter_start = Instant::now();
        let snap = StatSnap::take(db);

        // Fresh candidate tables.
        let t = Instant::now();
        for (p, tys) in types {
            db.execute(&format!("DROP TABLE IF EXISTS {}", new_table(ns, p)))?;
            db.execute(&create_table_sql(&new_table(ns, p), tys))?;
        }
        let mut d_temp = t.elapsed();
        b.n_temp_ops += 2 * types.len() as u64;

        // Evaluate the differential of each recursive rule.
        let t = Instant::now();
        let worker_eval = run_batch(db, &eval_batch, workers)?;
        b.n_eval_stmts += eval_batch.len() as u64;
        let mut d_eval = t.elapsed();

        // Termination check on the differential.
        let mut delta_cards = Vec::with_capacity(types.len());
        let mut new_tuples: Vec<(&str, Vec<Vec<Value>>)> = Vec::new();
        let t = Instant::now();
        for p in types.keys() {
            let rs = db.execute(&format!(
                "SELECT * FROM {} EXCEPT SELECT * FROM {}",
                new_table(ns, p),
                all_table(ns, p)
            ))?;
            b.n_term_checks += 1;
            delta_cards.push((p.to_string(), rs.rows.len() as u64));
            if !rs.rows.is_empty() {
                new_tuples.push((p, rs.rows));
            }
        }
        let d_term = t.elapsed();

        // Drop candidate and (old) delta tables — the per-iteration churn.
        let t = Instant::now();
        for p in types.keys() {
            db.execute(&format!("DROP TABLE {}", new_table(ns, p)))?;
            db.execute(&format!("DROP TABLE {}", delta_table(ns, p)))?;
        }
        d_temp += t.elapsed();
        b.n_temp_ops += 2 * types.len() as u64;

        let done = new_tuples.is_empty();
        let mut fresh = 0u64;
        if !done {
            // New deltas: exactly the new tuples; also fold them into the
            // accumulated tables.
            let t = Instant::now();
            for (p, tys) in types {
                db.execute(&create_table_sql(&delta_table(ns, p), tys))?;
            }
            d_temp += t.elapsed();
            b.n_temp_ops += types.len() as u64;
            let t = Instant::now();
            for (p, rows) in new_tuples {
                let added = db.insert_rows_batched(&all_table(ns, p), rows.clone())?;
                b.tuples_produced += added;
                fresh += added;
                db.insert_rows_batched(&delta_table(ns, p), rows)?;
            }
            d_eval += t.elapsed();
        }
        b.t_temp_tables += d_temp;
        b.t_eval_rhs += d_eval;
        b.t_termination += d_term;
        let mut iter = snap.finish(db);
        iter.iteration = b.iterations;
        iter.delta_cards = delta_cards;
        iter.t_temp = d_temp;
        iter.t_eval = d_eval;
        iter.t_term = d_term;
        iter.t_total = iter_start.elapsed();
        iter.worker_eval = worker_eval;
        traces.push(iter);
        if let Err(br) = ctl.charge_facts(fresh) {
            return Err(budget_err(br, clique_partial(types, &b, &mut traces)));
        }
        if done {
            return Ok((b, traces));
        }
    }
}

/// Naive LFP in embedded-SQL style: the candidate tables are created once
/// and recycled with TRUNCATE, every per-iteration statement is prepared
/// once (parse + plan) before the loop, and the termination check folds the
/// genuinely new tuples into the accumulated table server-side — only the
/// affected count crosses the SQL boundary. Novelty is decided by probing
/// a full-key index on the accumulated table ([`termination_sql`]), not by
/// re-scanning it.
fn eval_clique_naive_prepared(
    db: &DbHandle,
    ns: &str,
    types: &BTreeMap<&str, &[AttrType]>,
    exit_rules: &[RuleSql],
    recursive_rules: &[RuleSql],
    workers: usize,
    ctl: &EvalCtl,
) -> Result<(LfpBreakdown, Vec<IterationTrace>), KmError> {
    let mut b = LfpBreakdown::default();
    let mut traces = Vec::new();

    // Candidate tables, created once for the whole fixpoint, plus the
    // full-key index each termination check probes.
    timed(&mut b.t_temp_tables, || -> Result<(), KmError> {
        for (p, tys) in types {
            db.execute(&format!("DROP TABLE IF EXISTS {}", new_table(ns, p)))?;
            db.execute(&create_table_sql(&new_table(ns, p), tys))?;
            if !tys.is_empty() {
                db.execute(&term_index_sql(&all_table(ns, p), tys.len()))?;
            }
        }
        Ok(())
    })?;
    b.n_temp_ops += 3 * types.len() as u64;

    // Compile every per-iteration statement once. All DDL for this clique
    // is done, so the cached plans stay valid across the loop (TRUNCATE
    // does not invalidate them).
    let preds: Vec<&str> = types.keys().copied().collect();
    let mut eval_stmts = Vec::new();
    let t = Instant::now();
    for rule in exit_rules.iter().chain(recursive_rules) {
        eval_stmts.push(db.prepare(&format!(
            "INSERT INTO {} {}",
            new_table(ns, &rule.head_pred),
            rule.full_sql
        ))?);
    }
    b.t_eval_rhs += t.elapsed();
    let mut trunc_stmts = Vec::new();
    let t = Instant::now();
    for p in &preds {
        trunc_stmts.push(db.prepare(&format!("TRUNCATE TABLE {}", new_table(ns, p)))?);
    }
    b.t_temp_tables += t.elapsed();
    let mut term_stmts = Vec::new();
    let t = Instant::now();
    for (p, tys) in types {
        term_stmts.push(db.prepare(&termination_sql(
            &all_table(ns, p),
            &new_table(ns, p),
            &all_table(ns, p),
            tys.len(),
        ))?);
    }
    b.t_termination += t.elapsed();
    let eval_batch: Vec<BatchStmt> = eval_stmts
        .iter()
        .map(|id| BatchStmt::Prepared(*id))
        .collect();

    loop {
        b.iterations += 1;
        if let Err(br) = ctl.check_iters(b.iterations) {
            return Err(budget_err(br, clique_partial(types, &b, &mut traces)));
        }
        let iter_start = Instant::now();
        let snap = StatSnap::take(db);

        // Recycle the candidate tables.
        let t = Instant::now();
        for id in &trunc_stmts {
            db.execute_prepared(*id, &[])?;
        }
        let d_temp = t.elapsed();
        b.t_temp_tables += d_temp;
        b.n_temp_ops += trunc_stmts.len() as u64;

        // Recompute the full RHS: exit rules and recursive rules alike.
        let t = Instant::now();
        let worker_eval = run_batch(db, &eval_batch, workers)?;
        b.n_eval_stmts += eval_batch.len() as u64;
        let d_eval = t.elapsed();
        b.t_eval_rhs += d_eval;

        // Termination check + fold in one server-side statement per
        // predicate.
        let mut delta_cards = Vec::with_capacity(types.len());
        let mut new_tuples = 0;
        let t = Instant::now();
        for (p, id) in preds.iter().zip(&term_stmts) {
            let rs = db.execute_prepared(*id, &[])?;
            b.n_term_checks += 1;
            delta_cards.push((p.to_string(), rs.affected));
            new_tuples += rs.affected;
        }
        let d_term = t.elapsed();
        b.t_termination += d_term;
        b.tuples_produced += new_tuples;

        let mut iter = snap.finish(db);
        iter.iteration = b.iterations;
        iter.delta_cards = delta_cards;
        iter.t_temp = d_temp;
        iter.t_eval = d_eval;
        iter.t_term = d_term;
        iter.t_total = iter_start.elapsed();
        iter.worker_eval = worker_eval;
        traces.push(iter);
        if let Err(br) = ctl.charge_facts(new_tuples) {
            return Err(budget_err(br, clique_partial(types, &b, &mut traces)));
        }

        if new_tuples == 0 {
            break;
        }
    }

    // Drop the recycled temporaries and release the handles.
    timed(&mut b.t_temp_tables, || -> Result<(), KmError> {
        for p in &preds {
            db.execute(&format!("DROP TABLE {}", new_table(ns, p)))?;
        }
        Ok(())
    })?;
    b.n_temp_ops += preds.len() as u64;
    for id in eval_stmts.into_iter().chain(trunc_stmts).chain(term_stmts) {
        db.deallocate(id)?;
    }
    Ok((b, traces))
}

/// Semi-naive LFP in embedded-SQL style. Candidate and delta tables are
/// created once and recycled with TRUNCATE; the delta variants, the
/// termination check and the delta-fold are prepared once before the loop.
/// The termination check ([`termination_sql`]) inserts the genuinely new
/// tuples straight into the next delta via an index-probing `NOT EXISTS`
/// anti-join — only their count crosses the SQL boundary, instead of the
/// tuples being materialized in the client and re-inserted row by row.
fn eval_clique_seminaive_prepared(
    db: &DbHandle,
    ns: &str,
    types: &BTreeMap<&str, &[AttrType]>,
    exit_rules: &[RuleSql],
    recursive_rules: &[RuleSql],
    workers: usize,
    ctl: &EvalCtl,
) -> Result<(LfpBreakdown, Vec<IterationTrace>), KmError> {
    let mut b = LfpBreakdown::default();
    let mut traces = Vec::new();

    // Exit rules populate the accumulated tables (single-shot statements).
    let t = Instant::now();
    let mut exit_added = 0u64;
    for rule in exit_rules {
        let added = insert_new(db, &all_table(ns, &rule.head_pred), &rule.full_sql)?;
        b.tuples_produced += added;
        exit_added += added;
        b.n_eval_stmts += 1;
    }
    b.t_eval_rhs += t.elapsed();
    if let Err(br) = ctl.charge_facts(exit_added) {
        return Err(budget_err(br, clique_partial(types, &b, &mut traces)));
    }

    // Candidate and delta tables, created once for the whole fixpoint,
    // plus the full-key index each termination check probes.
    timed(&mut b.t_temp_tables, || -> Result<(), KmError> {
        for (p, tys) in types {
            db.execute(&format!("DROP TABLE IF EXISTS {}", new_table(ns, p)))?;
            db.execute(&create_table_sql(&new_table(ns, p), tys))?;
            db.execute(&format!("DROP TABLE IF EXISTS {}", delta_table(ns, p)))?;
            db.execute(&create_table_sql(&delta_table(ns, p), tys))?;
            if !tys.is_empty() {
                db.execute(&term_index_sql(&all_table(ns, p), tys.len()))?;
            }
        }
        Ok(())
    })?;
    b.n_temp_ops += 5 * types.len() as u64;

    // delta := current accumulated contents (exit results + seeds).
    let t = Instant::now();
    for p in types.keys() {
        db.execute(&format!(
            "INSERT INTO {} SELECT * FROM {}",
            delta_table(ns, p),
            all_table(ns, p)
        ))?;
        b.n_eval_stmts += 1;
    }
    b.t_eval_rhs += t.elapsed();

    // Compile every per-iteration statement once.
    let preds: Vec<&str> = types.keys().copied().collect();
    let mut eval_stmts = Vec::new();
    let t = Instant::now();
    for rule in recursive_rules {
        for variant in &rule.delta_variants {
            eval_stmts.push(db.prepare(&format!(
                "INSERT INTO {} {variant}",
                new_table(ns, &rule.head_pred)
            ))?);
        }
    }
    b.t_eval_rhs += t.elapsed();
    let mut trunc_new = Vec::new();
    let mut trunc_delta = Vec::new();
    let t = Instant::now();
    for p in &preds {
        trunc_new.push(db.prepare(&format!("TRUNCATE TABLE {}", new_table(ns, p)))?);
        trunc_delta.push(db.prepare(&format!("TRUNCATE TABLE {}", delta_table(ns, p)))?);
    }
    b.t_temp_tables += t.elapsed();
    let mut term_stmts = Vec::new();
    let mut fold_stmts = Vec::new();
    let t = Instant::now();
    for (p, tys) in types {
        term_stmts.push(db.prepare(&termination_sql(
            &delta_table(ns, p),
            &new_table(ns, p),
            &all_table(ns, p),
            tys.len(),
        ))?);
        fold_stmts.push(db.prepare(&format!(
            "INSERT INTO {} SELECT * FROM {}",
            all_table(ns, p),
            delta_table(ns, p)
        ))?);
    }
    b.t_termination += t.elapsed();
    let eval_batch: Vec<BatchStmt> = eval_stmts
        .iter()
        .map(|id| BatchStmt::Prepared(*id))
        .collect();

    loop {
        b.iterations += 1;
        if let Err(br) = ctl.check_iters(b.iterations) {
            return Err(budget_err(br, clique_partial(types, &b, &mut traces)));
        }
        let iter_start = Instant::now();
        let snap = StatSnap::take(db);

        // Recycle the candidate tables, then evaluate the differential of
        // each recursive rule against the previous delta.
        let t = Instant::now();
        for id in &trunc_new {
            db.execute_prepared(*id, &[])?;
        }
        let mut d_temp = t.elapsed();
        b.n_temp_ops += trunc_new.len() as u64;

        let t = Instant::now();
        let worker_eval = run_batch(db, &eval_batch, workers)?;
        b.n_eval_stmts += eval_batch.len() as u64;
        let mut d_eval = t.elapsed();

        // Recycle the delta, then refill it with exactly the new tuples —
        // the server-side termination check.
        let t = Instant::now();
        for id in &trunc_delta {
            db.execute_prepared(*id, &[])?;
        }
        d_temp += t.elapsed();
        b.n_temp_ops += trunc_delta.len() as u64;

        let mut delta_cards = Vec::with_capacity(types.len());
        let mut new_tuples = 0;
        let t = Instant::now();
        for (p, id) in preds.iter().zip(&term_stmts) {
            let rs = db.execute_prepared(*id, &[])?;
            b.n_term_checks += 1;
            delta_cards.push((p.to_string(), rs.affected));
            new_tuples += rs.affected;
        }
        let d_term = t.elapsed();

        let done = new_tuples == 0;
        if !done {
            // Fold the delta into the accumulated tables.
            let t = Instant::now();
            for id in &fold_stmts {
                let rs = db.execute_prepared(*id, &[])?;
                b.n_eval_stmts += 1;
                b.tuples_produced += rs.affected;
            }
            d_eval += t.elapsed();
        }
        b.t_temp_tables += d_temp;
        b.t_eval_rhs += d_eval;
        b.t_termination += d_term;
        let mut iter = snap.finish(db);
        iter.iteration = b.iterations;
        iter.delta_cards = delta_cards;
        iter.t_temp = d_temp;
        iter.t_eval = d_eval;
        iter.t_term = d_term;
        iter.t_total = iter_start.elapsed();
        iter.worker_eval = worker_eval;
        traces.push(iter);
        if let Err(br) = ctl.charge_facts(new_tuples) {
            return Err(budget_err(br, clique_partial(types, &b, &mut traces)));
        }
        if done {
            break;
        }
    }

    // Drop the recycled temporaries and release the handles.
    timed(&mut b.t_temp_tables, || -> Result<(), KmError> {
        for p in &preds {
            db.execute(&format!("DROP TABLE {}", new_table(ns, p)))?;
            db.execute(&format!("DROP TABLE {}", delta_table(ns, p)))?;
        }
        Ok(())
    })?;
    b.n_temp_ops += 2 * preds.len() as u64;
    for id in eval_stmts
        .into_iter()
        .chain(trunc_new)
        .chain(trunc_delta)
        .chain(term_stmts)
        .chain(fold_stmts)
    {
        db.deallocate(id)?;
    }
    Ok((b, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{generate, CodegenEnv};
    use hornlog::evalgraph::evaluation_order;
    use hornlog::parser::{parse_program, parse_query};
    use hornlog::types::TypeMap;
    use std::collections::BTreeSet;

    /// Build an engine with a `parent` base relation forming a chain
    /// a0 -> a1 -> ... -> a{n-1}.
    fn chain_engine(n: usize) -> Engine {
        let mut db = Engine::new();
        db.execute("CREATE TABLE parent (c0 char, c1 char)")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..n - 1)
            .map(|i| {
                vec![
                    Value::from(format!("a{i}")),
                    Value::from(format!("a{}", i + 1)),
                ]
            })
            .collect();
        db.insert_rows("parent", rows).unwrap();
        db
    }

    fn ancestor_program(query: &str) -> (hornlog::Program, hornlog::Clause) {
        let mut program = parse_program(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n",
        )
        .unwrap();
        let q = parse_query(query).unwrap();
        program.push(q.clone());
        (program, q)
    }

    fn compile(program: &hornlog::Program, db: &Engine) -> EvalProgram {
        compile_ns(program, db, "")
    }

    fn compile_ns(program: &hornlog::Program, db: &Engine, ns: &str) -> EvalProgram {
        let mut types = TypeMap::new();
        types.insert("parent".into(), vec![AttrType::Sym, AttrType::Sym]);
        types.insert("anc".into(), vec![AttrType::Sym, AttrType::Sym]);
        let arity = program
            .clauses
            .iter()
            .find(|c| c.head.predicate == "_query")
            .map(|c| c.head.arity())
            .unwrap_or(0);
        types.insert("_query".into(), vec![AttrType::Sym; arity]);
        let base: BTreeSet<String> = ["parent".to_string()].into();
        let cols: std::collections::BTreeMap<String, Vec<String>> = [(
            "parent".to_string(),
            db.table_schema("parent")
                .unwrap()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
        )]
        .into();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns,
        };
        let order = evaluation_order(program).unwrap();
        generate(&order, &[], "_query", &env).unwrap()
    }

    #[test]
    fn namespaced_program_evaluates_and_cleans_up() {
        let mut db = chain_engine(6);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let namespaced = compile_ns(&program, &db, "s42_");
        let before = db.table_names();
        let out = run_program(&mut db, &namespaced, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(db.table_names(), before, "no leaked namespaced temporaries");
        let plain = compile(&program, &db);
        let base = run_program(&mut db, &plain, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(out.rows, base.rows);
    }

    #[test]
    fn namespaced_deps_still_resolve() {
        // The scheduler's dependency edges come from `d_<ns><pred>` refs
        // in the generated SQL; the namespace must be stripped before the
        // predicate lookup or every namespaced program would appear
        // dependency-free (and race under parallel evaluation).
        let (program, _) = ancestor_program("?- anc(a0, W).");
        let db = chain_engine(4);
        let prog = compile_ns(&program, &db, "s9_");
        let deps = node_deps(&prog);
        assert_eq!(deps.len(), 2);
        assert_eq!(deps[1], vec![0], "_query depends on the anc clique");
    }

    #[test]
    fn seminaive_computes_full_transitive_closure() {
        let mut db = chain_engine(6);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        // Chain of 6 nodes: C(6,2) = 15 ancestor pairs.
        assert_eq!(out.rows.len(), 15);
        assert!(
            out.breakdown.iterations >= 5,
            "chain depth forces iterations"
        );
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let (program, _) = ancestor_program("?- anc(a0, W).");
        let mut db1 = chain_engine(8);
        let prog = compile(&program, &db1);
        let naive = run_program(&mut db1, &prog, LfpStrategy::Naive).unwrap();
        let mut db2 = chain_engine(8);
        let semi = run_program(&mut db2, &prog, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(naive.rows, semi.rows);
        assert_eq!(naive.rows.len(), 7, "a0 has 7 descendants");
    }

    #[test]
    fn naive_issues_more_eval_statements() {
        let (program, _) = ancestor_program("?- anc(A, B).");
        let mut db1 = chain_engine(10);
        let prog = compile(&program, &db1);
        let naive = run_program(&mut db1, &prog, LfpStrategy::Naive).unwrap();
        let mut db2 = chain_engine(10);
        let semi = run_program(&mut db2, &prog, LfpStrategy::SemiNaive).unwrap();
        // Naive recomputes everything each round: strictly more tuple work.
        assert!(naive.breakdown.n_eval_stmts >= semi.breakdown.n_eval_stmts);
        assert_eq!(naive.rows, semi.rows);
    }

    #[test]
    fn query_with_constant_restricts_result() {
        let mut db = chain_engine(5);
        let (program, _) = ancestor_program("?- anc(a2, W).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(
            out.rows,
            vec![vec![Value::from("a3")], vec![Value::from("a4")]]
        );
    }

    #[test]
    fn temp_tables_are_cleaned_up() {
        let mut db = chain_engine(4);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let before: Vec<String> = db.table_names();
        run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(db.table_names(), before, "no leaked temporaries");
    }

    #[test]
    fn breakdown_counters_are_populated() {
        let mut db = chain_engine(6);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        let b = &out.breakdown;
        assert!(b.n_temp_ops > 0);
        assert!(b.n_eval_stmts > 0);
        assert!(b.n_term_checks > 0);
        assert!(b.tuples_produced >= 15);
        assert!(b.total_time() > Duration::ZERO);
        assert_eq!(out.node_timings.len(), 2);
        assert!(out.node_timings[0].is_clique);
        assert!(!out.node_timings[0].is_magic);
    }

    #[test]
    fn cyclic_data_terminates() {
        // parent forms a cycle: a -> b -> c -> a.
        let mut db = Engine::new();
        db.execute("CREATE TABLE parent (c0 char, c1 char)")
            .unwrap();
        db.insert_rows(
            "parent",
            vec![
                vec![Value::from("a"), Value::from("b")],
                vec![Value::from("b"), Value::from("c")],
                vec![Value::from("c"), Value::from("a")],
            ],
        )
        .unwrap();
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
            let out = run_program(&mut db, &prog, strategy).unwrap();
            assert_eq!(out.rows.len(), 9, "full 3x3 closure on a cycle");
        }
    }

    #[test]
    fn empty_base_relation_yields_empty_answer() {
        let mut db = Engine::new();
        db.execute("CREATE TABLE parent (c0 char, c1 char)")
            .unwrap();
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn prepared_and_unprepared_lfp_agree() {
        let (program, _) = ancestor_program("?- anc(A, B).");
        for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
            let mut db_p = chain_engine(8);
            let prog = compile(&program, &db_p);
            let prepared = run_program_opts(&mut db_p, &prog, strategy, false, true).unwrap();
            let mut db_u = chain_engine(8);
            let unprepared = run_program_opts(&mut db_u, &prog, strategy, false, false).unwrap();
            assert_eq!(
                prepared.rows, unprepared.rows,
                "{strategy:?}: answers must be byte-identical"
            );
            assert_eq!(prepared.rows.len(), 28, "C(8,2) ancestor pairs");
            assert_eq!(
                prepared.breakdown.tuples_produced,
                unprepared.breakdown.tuples_produced
            );
        }
    }

    #[test]
    fn prepared_lfp_compiles_statements_once() {
        let mut db = chain_engine(8);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        assert!(out.breakdown.iterations >= 6);
        let stats = db.stats().exec;
        // One clique over `anc` with one delta variant: the eval statement,
        // the termination INSERT…EXCEPT and the delta-fold each plan
        // exactly once; every later iteration is a cache hit.
        assert_eq!(
            stats.plan_cache_misses, 3,
            "statements compile once per LFP call"
        );
        // Eval and termination run every iteration, the fold on all but the
        // last: everything after the first round hits the cache.
        assert_eq!(
            stats.plan_cache_hits,
            2 * out.breakdown.iterations + (out.breakdown.iterations - 1) - 3,
            "every re-execution reuses its cached plan"
        );
    }

    #[test]
    fn clique_traces_account_for_wall_time() {
        let (program, _) = ancestor_program("?- anc(A, B).");
        for prepared in [false, true] {
            for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
                let mut db = chain_engine(8);
                let prog = compile(&program, &db);
                let out = run_program_opts(&mut db, &prog, strategy, false, prepared).unwrap();
                assert_eq!(out.clique_traces.len(), 1, "one clique over anc");
                let trace = &out.clique_traces[0];
                assert!(trace.predicates.contains(&"anc".to_string()));
                assert!(!trace.is_magic);
                assert_eq!(trace.iterations.len() as u64, out.breakdown.iterations);
                // Iteration wall times plus setup reconstruct the clique
                // total exactly (t_setup is defined as the remainder).
                let sum: Duration =
                    trace.t_setup + trace.iterations.iter().map(|i| i.t_total).sum::<Duration>();
                assert!(sum <= trace.total);
                assert!(trace.total - sum < Duration::from_millis(1));
                // The last iteration finds nothing new; earlier ones do.
                let cards: Vec<u64> = trace
                    .iterations
                    .iter()
                    .map(|i| i.delta_cards.iter().map(|(_, n)| n).sum())
                    .collect();
                assert_eq!(*cards.last().unwrap(), 0, "final round is empty");
                assert!(cards[..cards.len() - 1].iter().all(|&n| n > 0));
                // Iteration numbers are 1-based and consecutive.
                for (i, iter) in trace.iterations.iter().enumerate() {
                    assert_eq!(iter.iteration, i as u64 + 1);
                    assert!(iter.statements > 0);
                }
                if prepared {
                    // After the first round every statement reuses its plan.
                    assert!(trace.iterations[1..]
                        .iter()
                        .all(|i| i.plan_cache_misses == 0 && i.plan_cache_hits > 0));
                }
            }
        }
    }

    #[test]
    fn prepared_lfp_recycles_temp_tables() {
        let mut db = chain_engine(6);
        let created_before = db.stats().tables_created;
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        let per_run = db.stats().tables_created - created_before;
        // d_anc, new_anc, delta_anc: one CREATE each, regardless of
        // iteration count — the unprepared path would create new/delta
        // tables every iteration. The answer needs no table.
        assert_eq!(per_run, 3, "temp tables are recycled, not recreated");
        assert!(out.breakdown.iterations >= 5);
    }

    /// Unwrap a governed failure into its budget fields.
    fn budget_parts(e: KmError) -> (EvalResource, u64, u64, PartialProgress) {
        match e {
            KmError::Eval(boxed) => {
                let EvalError::Budget {
                    resource,
                    limit,
                    used,
                    partial,
                } = *boxed;
                (resource, limit, used, *partial)
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn iteration_budget_trips_with_partial_traces() {
        for prepared in [false, true] {
            for strategy in [LfpStrategy::Naive, LfpStrategy::SemiNaive] {
                let mut db = chain_engine(10);
                let (program, _) = ancestor_program("?- anc(A, B).");
                let prog = compile(&program, &db);
                let before = db.table_names();
                let limits = EvalLimits {
                    max_iterations: Some(2),
                    ..EvalLimits::default()
                };
                let err = run_program_governed(&mut db, &prog, strategy, false, prepared, &limits)
                    .unwrap_err();
                let (resource, limit, used, partial) = budget_parts(err);
                assert_eq!(
                    resource,
                    EvalResource::Iterations,
                    "{strategy:?}/{prepared}"
                );
                assert_eq!(limit, 2);
                assert_eq!(used, 3, "tripped entering iteration 3");
                // The two admitted iterations are reported via the trace
                // machinery, and they did real work.
                let clique = partial
                    .clique_traces
                    .last()
                    .expect("failing clique contributes a trace");
                assert_eq!(clique.iterations.len(), 2);
                assert!(clique.iterations.iter().all(|i| i.statements > 0));
                assert!(partial.breakdown.tuples_produced > 0);
                // The engine keeps serving and no temporaries leak.
                assert_eq!(db.table_names(), before, "temp tables dropped");
                assert!(db.execute("SELECT * FROM parent").is_ok());
            }
        }
    }

    #[test]
    fn derived_fact_budget_trips() {
        let mut db = chain_engine(10);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let limits = EvalLimits {
            max_derived_facts: Some(12),
            ..EvalLimits::default()
        };
        let err =
            run_program_governed(&mut db, &prog, LfpStrategy::SemiNaive, false, true, &limits)
                .unwrap_err();
        let (resource, limit, used, partial) = budget_parts(err);
        assert_eq!(resource, EvalResource::DerivedFacts);
        assert_eq!(limit, 12);
        assert!(used > 12, "charge observed the overshoot");
        assert!(!partial.clique_traces.is_empty());
        assert!(db.execute("SELECT * FROM parent").is_ok());
    }

    #[test]
    fn answer_rows_are_charged_to_the_fact_budget() {
        // Chain of 10: the anc clique derives C(10,2) = 45 facts and the
        // answer adds its 45 rows, so 90 facts fit and 89 do not.
        let (program, _) = ancestor_program("?- anc(A, B).");
        let run = |max: u64| {
            let mut db = chain_engine(10);
            let prog = compile(&program, &db);
            let limits = EvalLimits {
                max_derived_facts: Some(max),
                ..EvalLimits::default()
            };
            run_program_governed(&mut db, &prog, LfpStrategy::SemiNaive, false, true, &limits)
        };
        let out = run(90).expect("the whole evaluation fits");
        assert_eq!(out.rows.len(), 45);
        assert_eq!(out.breakdown.tuples_produced, 90);
        let (resource, limit, used, _) = budget_parts(run(89).unwrap_err());
        assert_eq!(resource, EvalResource::DerivedFacts);
        assert_eq!((limit, used), (89, 90), "tripped on the answer rows");
    }

    #[test]
    fn lfp_temporaries_analyze_without_rescans() {
        // Chain of 40: d_anc grows to C(40,2) = 780 rows, past the
        // auto-analyze floor, but every analyze reads its write-path sample.
        let mut db = chain_engine(40);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let before = db.metrics();
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(out.rows.len(), 780);
        let after = db.metrics();
        let delta = |name| after.counter_value(name) - before.counter_value(name);
        assert!(
            delta("stats.refreshes") > 0,
            "the accumulated table was analyzed"
        );
        assert_eq!(delta("stats.rescans"), 0, "no analyze read the heap");
    }

    #[test]
    fn result_seeds_join_the_answer() {
        let mut db = chain_engine(4);
        let (program, _) = ancestor_program("?- anc(a0, W).");
        let mut prog = compile(&program, &db);
        assert!(!prog.tables.contains_key("_query"));
        // One seed the rules also derive, one they cannot.
        prog.seeds.push((
            "_query".into(),
            vec![vec![Value::from("zz")], vec![Value::from("a1")]],
        ));
        let created = db.stats().tables_created;
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        let expect: Vec<Vec<Value>> = ["a1", "a2", "a3", "zz"]
            .iter()
            .map(|v| vec![Value::from(*v)])
            .collect();
        assert_eq!(out.rows, expect, "sorted, deduplicated, seeds included");
        // d_anc, new_anc, delta_anc; no table for the answer.
        assert_eq!(db.stats().tables_created - created, 3);
    }

    #[test]
    fn zero_deadline_trips_before_divergence() {
        // A deadline of zero must abort on the very first check — whether
        // the km loop or an engine statement observes it first.
        let mut db = chain_engine(6);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        let limits = EvalLimits {
            deadline: Some(Duration::ZERO),
            ..EvalLimits::default()
        };
        let err =
            run_program_governed(&mut db, &prog, LfpStrategy::SemiNaive, false, true, &limits)
                .unwrap_err();
        let (resource, _, _, _) = budget_parts(err);
        assert_eq!(resource, EvalResource::Deadline);
        // The eval deadline is cleared on exit: the engine serves again.
        assert!(db.execute("SELECT * FROM parent").is_ok());
    }

    #[test]
    fn governed_without_limits_matches_ungoverned() {
        let (program, _) = ancestor_program("?- anc(A, B).");
        let mut db1 = chain_engine(8);
        let prog = compile(&program, &db1);
        let plain = run_program(&mut db1, &prog, LfpStrategy::SemiNaive).unwrap();
        let mut db2 = chain_engine(8);
        let governed = run_program_governed(
            &mut db2,
            &prog,
            LfpStrategy::SemiNaive,
            false,
            true,
            &EvalLimits::default(),
        )
        .unwrap();
        assert_eq!(plain.rows, governed.rows);
    }

    #[test]
    fn engine_cancellation_surfaces_as_eval_budget() {
        let mut db = chain_engine(8);
        let (program, _) = ancestor_program("?- anc(A, B).");
        let prog = compile(&program, &db);
        db.cancel();
        let err = run_program_governed(
            &mut db,
            &prog,
            LfpStrategy::SemiNaive,
            false,
            true,
            &EvalLimits::default(),
        )
        .unwrap_err();
        let (resource, _, _, _) = budget_parts(err);
        assert_eq!(resource, EvalResource::Canceled);
        // The governed exit acknowledged the cancellation: a clean re-run
        // succeeds and yields the full answer.
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        assert_eq!(out.rows.len(), 28);
    }

    #[test]
    fn seeds_feed_evaluation() {
        let mut db = chain_engine(3);
        let (mut program, _) = ancestor_program("?- anc(A, B).");
        // Add a workspace fact for a derived-table predicate: an extra
        // parent edge cannot go into the stored base relation here, so
        // seed anc directly.
        program.push(hornlog::parse_clause("anc(zz, a0).").unwrap());
        let mut types = TypeMap::new();
        types.insert("parent".into(), vec![AttrType::Sym, AttrType::Sym]);
        types.insert("anc".into(), vec![AttrType::Sym, AttrType::Sym]);
        types.insert("_query".into(), vec![AttrType::Sym, AttrType::Sym]);
        let base: BTreeSet<String> = ["parent".to_string()].into();
        let cols: std::collections::BTreeMap<String, Vec<String>> = [(
            "parent".to_string(),
            vec!["c0".to_string(), "c1".to_string()],
        )]
        .into();
        let env = CodegenEnv {
            types: &types,
            base_preds: &base,
            base_columns: &cols,
            ns: "",
        };
        let rules_only = hornlog::Program::new(
            program
                .clauses
                .iter()
                .filter(|c| !c.is_fact())
                .cloned()
                .collect(),
        );
        let order = evaluation_order(&rules_only).unwrap();
        let seeds: Vec<hornlog::Clause> = program
            .clauses
            .iter()
            .filter(|c| c.is_fact())
            .cloned()
            .collect();
        let prog = generate(&order, &seeds, "_query", &env).unwrap();
        let out = run_program(&mut db, &prog, LfpStrategy::SemiNaive).unwrap();
        // The seeded tuple itself is part of the answer (the left-linear
        // rule cannot extend it leftward, since no parent edge leaves zz).
        assert!(out
            .rows
            .contains(&vec![Value::from("zz"), Value::from("a0")]));
        // And ordinary chain pairs are still derived.
        assert!(out
            .rows
            .contains(&vec![Value::from("a0"), Value::from("a2")]));
    }
}
