//! One benchmark run: set up, warm up, a timed closed loop, checks.

use crate::oracle;
use crate::stats::{ms, Summary};
use crate::trace::{counter_index, counters, delta, Counters, Layers, Tracer, ENGINE_COUNTERS};
use crate::workload::{build_fixture, Fixture, Inputs, Query, Rng, Sizes, Workload};
use crate::{END_TO_END, PER_LAYER};
use km::session::Session;
use km::KmError;
use rdbms::{SharedEngine, Value};
use std::collections::HashSet;
use std::fmt::Display;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run: every other operation records spans and counter
    /// deltas, and the result carries the per-layer metrics.
    pub trace: bool,
    pub sizes: Sizes,
}

/// What one run measured and checked.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that differed from the oracle (not counted as failed).
    pub mismatches: u64,
    /// The end-to-end metrics, or with `trace` the per-layer ones:
    /// (name, unit, value).
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The sample sets behind the timing metrics.
    pub samples: Vec<(&'static str, Summary)>,
    /// Workload property checks: (what must hold, whether it held).
    pub properties: Vec<(String, bool)>,
    /// Per-layer counters that repeated exactly for equal-shaped
    /// operations (traced run only).
    pub exact_repeats: Vec<&'static str>,
    /// The first few error and mismatch messages.
    pub errors: Vec<String>,
}

/// Run `cfg.workload` once.
pub fn run(cfg: &RunConfig) -> Result<RunResult, KmError> {
    let mut rng = Rng::new(cfg.seed);
    let inputs = Inputs::generate(cfg.workload, cfg.sizes, &mut rng);

    let mut setup = Vec::new();
    let fixture = timed_setups(cfg, &inputs, &mut setup)?;

    let mut rec = Recorder::new(Instant::now());
    let lp = match fixture {
        Fixture::Private(mut s) => {
            // Commit probes go to a twin of the D/KB, so the queried one
            // stays as built however many probes run.
            let t = Instant::now();
            let Fixture::Private(mut twin) = build_fixture(&inputs)? else {
                unreachable!("read workloads build a private fixture")
            };
            setup.push(t.elapsed());
            run_reads(cfg, &inputs, &mut s, &mut twin, &mut rec, &mut rng)
        }
        shared @ Fixture::Shared { .. } => {
            run_updates(cfg, &inputs, shared, &mut setup, &mut rec, &mut rng)?
        }
    };
    // More set-ups after the loop, so `setup_s` samples the machine at
    // both ends of the run.
    drop(timed_setups(cfg, &inputs, &mut setup)?);
    let floor = if cfg.trace {
        floor_samples(&inputs, &mut rng)
    } else {
        Vec::new()
    };
    Ok(finish(cfg, rec, lp, &setup, &floor))
}

/// Build the fixture at least [`Sizes::setup_reps`] times and for at
/// least [`Sizes::setup_seconds`], timing each build; returns the last.
fn timed_setups(
    cfg: &RunConfig,
    inputs: &Inputs,
    samples: &mut Vec<Duration>,
) -> Result<Fixture, KmError> {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let fixture = build_fixture(inputs)?;
        samples.push(t.elapsed());
        reps += 1;
        if reps >= cfg.sizes.setup_reps && start.elapsed().as_secs_f64() >= cfg.sizes.setup_seconds
        {
            return Ok(fixture);
        }
    }
}

/// Counters of the timed loop, read outside it.
#[derive(Debug, Default)]
struct LoopStats {
    ops: u64,
    wall: Duration,
    /// Time spent checking answers inside the loop (per thread, averaged).
    check: Duration,
    evictions: u64,
    /// Per session: validated commits and conflicts during the run.
    session_commits: Vec<(u64, u64)>,
    wal_bytes: u64,
    wal_records: u64,
    wal_fsyncs: u64,
}

/// Latencies, layer values and spans of a run's operations.
struct Recorder {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    errors: Vec<String>,
    /// End-to-end samples, from untraced operations only.
    query: Vec<Duration>,
    compile: Vec<Duration>,
    commit: Vec<Duration>,
    /// Summed latency and count of traced and untraced operations, for
    /// the tracing overhead.
    traced: (Duration, u64),
    untraced: (Duration, u64),
    check: Duration,
    layers: Layers,
    tracer: Tracer,
}

impl Recorder {
    fn new(origin: Instant) -> Recorder {
        Recorder {
            attempted: 0,
            failed: 0,
            mismatches: 0,
            errors: Vec::new(),
            query: Vec::new(),
            compile: Vec::new(),
            commit: Vec::new(),
            traced: (Duration::ZERO, 0),
            untraced: (Duration::ZERO, 0),
            check: Duration::ZERO,
            layers: Layers::default(),
            tracer: Tracer::new(origin),
        }
    }

    fn note(&mut self, msg: impl Display) {
        if self.errors.len() < 5 {
            self.errors.push(msg.to_string());
        }
    }

    fn latency(&mut self, traced: bool, d: Duration) {
        let slot = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        slot.0 += d;
        slot.1 += 1;
    }

    /// Compile and execute `q`, then check the answer against `expected`.
    /// `shared`: the session is attached to a shared engine, whose
    /// compile re-forks a snapshot with fresh counters.
    fn query(
        &mut self,
        s: &mut Session,
        q: &Query,
        expected: &HashSet<Vec<Value>>,
        traced: bool,
        shared: bool,
    ) {
        self.attempted += 1;
        let rows = if traced {
            self.traced_query(s, q, shared)
        } else {
            let t0 = Instant::now();
            s.compile(&q.text).and_then(|c| {
                let t1 = Instant::now();
                let res = s.execute(&c)?;
                let t2 = Instant::now();
                self.compile.push(t1 - t0);
                self.query.push(t2 - t0);
                self.latency(false, t2 - t0);
                Ok(res.rows)
            })
        };
        match rows {
            Ok(rows) => {
                let t = Instant::now();
                if !same_answer(&rows, expected) {
                    self.mismatches += 1;
                    self.note(format!(
                        "{}: {} rows, expected {}",
                        q.text,
                        rows.len(),
                        expected.len()
                    ));
                }
                self.check += t.elapsed();
            }
            Err(e) => {
                self.failed += 1;
                self.note(format!("{}: {e}", q.text));
            }
        }
    }

    fn traced_query(
        &mut self,
        s: &mut Session,
        q: &Query,
        shared: bool,
    ) -> Result<Vec<Vec<Value>>, KmError> {
        let c0 = if shared {
            Counters::default()
        } else {
            counters(&s.engine().stats())
        };
        let root = self.tracer.open(None, "op.query");
        let span = self.tracer.open(Some(root), "km.compile");
        let compiled = s.compile(&q.text);
        self.tracer.close(span);
        let compiled = compiled.inspect_err(|_| self.tracer.close(root))?;
        let c1 = counters(&s.engine().stats());
        let exec_span = self.tracer.open(Some(root), "km.execute");
        let res = s.execute(&compiled);
        self.tracer.close(exec_span);
        self.tracer.close(root);
        let res = res?;
        let c2 = counters(&s.engine().stats());
        let total = self.tracer.spans[root].duration();
        self.latency(true, total);

        let key = q.shape.as_str();
        let l = &mut self.layers;
        let t = compiled.timings;
        l.add(key, "km.compile.setup_ms", ms(t.t_setup));
        l.add(key, "km.compile.read_ms", ms(t.t_read));
        l.add(key, "km.compile.extract_ms", ms(t.t_extract));
        l.add(key, "km.compile.eol_ms", ms(t.t_eol));
        l.add(key, "km.compile.gen_ms", ms(t.t_gen));
        l.add(
            key,
            "km.compile.relevant_rules",
            compiled.relevant_rules as f64,
        );
        let b = &res.outcome.breakdown;
        l.add(key, "km.runtime.temp_ms", ms(b.t_temp_tables));
        l.add(key, "km.runtime.eval_ms", ms(b.t_eval_rhs));
        l.add(key, "km.runtime.term_ms", ms(b.t_termination));
        l.add(key, "km.runtime.iterations", b.iterations as f64);
        l.add(key, "km.runtime.statements", b.n_eval_stmts as f64);
        l.add(key, "km.runtime.tuples_produced", b.tuples_produced as f64);
        let op_d = delta(&c0, &c2);
        for (name, v) in ENGINE_COUNTERS.iter().zip(op_d) {
            l.add(key, name, v as f64);
        }
        let ns = |d: &Counters, name| d[counter_index(name)] as f64 / 1e6;
        l.add(key, "rdbms.sql.parse_ms", ns(&op_d, "rdbms.sql.parse_ns"));
        l.add(key, "rdbms.plan.plan_ms", ns(&op_d, "rdbms.plan.plan_ns"));
        l.add(key, "rdbms.exec.exec_ms", ns(&op_d, "rdbms.exec.exec_ns"));
        let ex_d = delta(&c1, &c2);
        let in_engine = ns(&ex_d, "rdbms.sql.parse_ns")
            + ns(&ex_d, "rdbms.plan.plan_ns")
            + ns(&ex_d, "rdbms.exec.exec_ns");
        let execute_ms = ms(self.tracer.spans[exec_span].duration());
        l.add(key, "km.runtime.outside_engine_ms", execute_ms - in_engine);
        Ok(res.rows)
    }

    /// Stage `rule` in the workspace and commit it to the stored D/KB.
    /// Returns whether the commit succeeded.
    fn commit(&mut self, s: &mut Session, rule: &str, traced: bool) -> bool {
        self.attempted += 1;
        let root = traced.then(|| self.tracer.open(None, "op.commit"));
        if let Err(e) = s.load_rules(rule) {
            if let Some(r) = root {
                self.tracer.close(r);
            }
            self.failed += 1;
            self.note(format!("{rule}: {e}"));
            return false;
        }
        let span = root.map(|r| self.tracer.open(Some(r), "km.commit_workspace"));
        let t = Instant::now();
        let res = s.commit_workspace();
        let took = t.elapsed();
        if let Some(sp) = span {
            self.tracer.close(sp);
        }
        s.workspace_mut().clear();
        if let Some(r) = root {
            self.tracer.close(r);
        }
        let timings = match res {
            Ok(timings) => timings,
            Err(e) => {
                self.failed += 1;
                self.note(format!("commit {rule}: {e}"));
                return false;
            }
        };
        self.latency(traced, took);
        if timings.rules_stored != 1 {
            self.mismatches += 1;
            self.note(format!(
                "commit {rule}: stored {} rules",
                timings.rules_stored
            ));
        }
        if traced {
            let l = &mut self.layers;
            l.add("commit", "km.update.extract_ms", ms(timings.t_extract));
            l.add("commit", "km.update.tc_ms", ms(timings.t_tc));
            l.add(
                "commit",
                "km.update.compiled_store_ms",
                ms(timings.t_compiled_store),
            );
            l.add(
                "commit",
                "km.update.source_store_ms",
                ms(timings.t_source_store),
            );
            l.add(
                "commit",
                "km.update.reachable_added",
                timings.reachable_added as f64,
            );
        } else {
            self.commit.push(took);
        }
        true
    }

    /// Take over `other`'s attempts, failures and mismatches, but not its
    /// samples (warm-up operations).
    fn absorb_outcomes(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        for e in other.errors {
            self.note(e);
        }
    }

    fn absorb(&mut self, mut other: Recorder) {
        self.query.append(&mut other.query);
        self.compile.append(&mut other.compile);
        self.commit.append(&mut other.commit);
        self.traced.0 += other.traced.0;
        self.traced.1 += other.traced.1;
        self.untraced.0 += other.untraced.0;
        self.untraced.1 += other.untraced.1;
        self.check += other.check;
        self.layers.absorb(std::mem::take(&mut other.layers));
        self.tracer.absorb(&mut other.tracer);
        self.absorb_outcomes(other);
    }
}

/// Whether the engine's answer rows are exactly the expected set.
pub fn same_answer(rows: &[Vec<Value>], expected: &HashSet<Vec<Value>>) -> bool {
    let got: HashSet<&Vec<Value>> = rows.iter().collect();
    got.len() == rows.len()
        && got.len() == expected.len()
        && got.iter().all(|r| expected.contains(*r))
}

/// A read workload: a closed loop of seeded queries on one private
/// session. Up to [`Sizes::commit_probes`] single-rule commits to `twin`
/// are spread evenly over the loop time, so they sample the same machine
/// conditions as the queries.
fn run_reads(
    cfg: &RunConfig,
    inputs: &Inputs,
    s: &mut Session,
    twin: &mut Session,
    rec: &mut Recorder,
    rng: &mut Rng,
) -> LoopStats {
    for _ in 0..cfg.sizes.warmup_ops {
        let q = inputs.draw_query(rng);
        let mut warm = Recorder::new(Instant::now());
        warm.query(s, &q, inputs.expected(&q), false, false);
        rec.absorb_outcomes(warm);
    }

    let evictions = counter_index("rdbms.buffer.evictions");
    let before = counters(&s.engine().stats());
    let slots = cfg.sizes.commit_probes;
    let mut next_slot = 0;
    let mut probes = 0u64;
    let mut probe_time = Duration::ZERO;
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let q = inputs.draw_query(rng);
        rec.query(s, &q, inputs.expected(&q), cfg.trace && ops % 2 == 1, false);
        ops += 1;
        // At most one probe per gap between queries, so every probe
        // follows a query the same way; slots the loop fell behind on
        // are skipped.
        let due =
            (start.elapsed().as_secs_f64() * slots as f64 / cfg.seconds + 0.5).floor() as usize;
        if due > next_slot && next_slot < slots {
            let target = match inputs.workload {
                Workload::RulebaseQuery => {
                    let (c, k, _) = inputs.draw_chain(rng);
                    workload::rules::chain_pred(c, k)
                }
                _ => "anc".to_string(),
            };
            let rule = format!("probe{probes}(X, Y) :- {target}(X, Y).");
            let t = Instant::now();
            rec.commit(twin, &rule, cfg.trace && probes % 2 == 1);
            probe_time += t.elapsed();
            probes += 1;
            next_slot = due;
        }
    }
    let wall = start.elapsed();
    let after = counters(&s.engine().stats());
    // The probes are not part of the closed loop: their time leaves the
    // loop's wall time along with answer checking.
    LoopStats {
        ops,
        wall: wall.saturating_sub(probe_time),
        check: rec.check,
        evictions: after[evictions] - before[evictions],
        ..LoopStats::default()
    }
}

/// `update_mix`: each attached session runs rounds of "stage one rule
/// hanging off a seeded stored chain, commit it, query it". Every round
/// adds a rule, and commits slow down as the D/KB grows, so the loop runs
/// in epochs of [`Sizes::epoch_rounds`] rounds per session, each on a
/// freshly built D/KB (its build time joins the `setup_s` samples), until
/// the loop time is up. Every commit thus sees a D/KB of the same size
/// range however fast the program is.
fn run_updates(
    cfg: &RunConfig,
    inputs: &Inputs,
    first: Fixture,
    setup: &mut Vec<Duration>,
    rec: &mut Recorder,
    rng: &mut Rng,
) -> Result<LoopStats, KmError> {
    let mut lp = LoopStats {
        session_commits: vec![(0, 0); cfg.sizes.sessions],
        ..LoopStats::default()
    };
    let mut fixture = Some(first);
    while lp.wall.as_secs_f64() < cfg.seconds {
        let fixture = match fixture.take() {
            Some(f) => f,
            None => {
                let t = Instant::now();
                let f = build_fixture(inputs)?;
                setup.push(t.elapsed());
                f
            }
        };
        let Fixture::Shared { engine, sessions } = fixture else {
            unreachable!("update_mix builds a shared fixture")
        };
        run_epoch(cfg, inputs, &engine, sessions, rec, rng, &mut lp);
    }
    Ok(lp)
}

/// One epoch of [`run_updates`]: the sessions run their rounds
/// concurrently, starting together after their warm-up rounds.
fn run_epoch(
    cfg: &RunConfig,
    inputs: &Inputs,
    engine: &SharedEngine,
    sessions: Vec<Session>,
    rec: &mut Recorder,
    rng: &mut Rng,
    lp: &mut LoopStats,
) {
    let wal = |m: &rdbms::Registry| {
        [
            m.counter_value("wal.bytes"),
            m.counter_value("wal.records"),
            m.counter_value("wal.fsyncs"),
        ]
    };
    let wal_before = wal(&engine.metrics());
    let barrier = Barrier::new(sessions.len() + 1);
    let origin = rec.tracer.origin();
    let (per_thread, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(t, mut s)| {
                let mut rng = rng.fork(t as u64);
                let barrier = &barrier;
                scope.spawn(move || {
                    let counters_before = s.commit_counters();
                    let mut round = 0u64;
                    let mut one_round = |rec: &mut Recorder, s: &mut Session, traced: bool| {
                        let (c, k, x) = inputs.draw_chain(&mut rng);
                        let pred = format!("u{t}_{round}");
                        round += 1;
                        let rule = format!(
                            "{pred}(X, Y) :- {}(X, Y).",
                            workload::rules::chain_pred(c, k)
                        );
                        if rec.commit(s, &rule, traced) {
                            let q = Query {
                                text: format!("?- {pred}({x}, W)."),
                                answer_key: x,
                                shape: format!("k{k}"),
                            };
                            rec.query(s, &q, inputs.expected(&q), traced, true);
                        }
                    };
                    let mut warm = Recorder::new(origin);
                    for _ in 0..cfg.sizes.warmup_ops {
                        one_round(&mut warm, &mut s, false);
                    }
                    let mut rec = Recorder::new(origin);
                    rec.absorb_outcomes(warm);
                    let attempted_before = rec.attempted;
                    barrier.wait();
                    for r in 0..cfg.sizes.epoch_rounds {
                        one_round(&mut rec, &mut s, cfg.trace && r % 2 == 1);
                    }
                    let ops = rec.attempted - attempted_before;
                    let check = rec.check;
                    let (c1, x1) = s.commit_counters();
                    let (c0, x0) = counters_before;
                    (rec, ops, check, (c1 - c0, x1 - x0))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("update_mix session thread panicked"))
            .collect();
        (results, start.elapsed())
    });
    let wal_after = wal(&engine.metrics());

    lp.wall += wall;
    lp.wal_bytes += wal_after[0] - wal_before[0];
    lp.wal_records += wal_after[1] - wal_before[1];
    lp.wal_fsyncs += wal_after[2] - wal_before[2];
    let threads = per_thread.len().max(1) as u32;
    for (t, (r, ops, check, (commits, conflicts))) in per_thread.into_iter().enumerate() {
        lp.ops += ops;
        lp.check += check / threads;
        lp.session_commits[t].0 += commits;
        lp.session_commits[t].1 += conflicts;
        rec.absorb(r);
    }
}

/// Timed runs of the hand-written evaluator on the same inputs: the
/// floor the system is compared with. Empty for the rule-base workloads,
/// whose answers the generator states without evaluating.
fn floor_samples(inputs: &Inputs, rng: &mut Rng) -> Vec<Duration> {
    let mut out = Vec::new();
    for _ in 0..inputs.sizes.floor_reps {
        let t = Instant::now();
        match inputs.workload {
            Workload::TreeLfp => {
                let q = inputs.draw_query(rng);
                let closure = oracle::closure(black_box(&inputs.sym_edges));
                let answer: Vec<&String> = closure
                    .iter()
                    .filter(|(x, _)| *x == q.answer_key)
                    .map(|(_, y)| y)
                    .collect();
                black_box(answer);
            }
            Workload::IntClosure => {
                black_box(oracle::closure(black_box(&inputs.int_edges)).len());
            }
            Workload::RulebaseQuery | Workload::UpdateMix => return out,
        }
        out.push(t.elapsed());
    }
    out
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn finish(
    cfg: &RunConfig,
    rec: Recorder,
    lp: LoopStats,
    setup: &[Duration],
    floor: &[Duration],
) -> RunResult {
    let query = Summary::of_ms(&rec.query);
    let compile = Summary::of_ms(&rec.compile);
    let commit = Summary::of_ms(&rec.commit);
    let setup_s = Summary::of(&setup.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
    let floor_ms = Summary::of_ms(floor);

    let mut properties = Vec::new();
    match cfg.workload {
        Workload::TreeLfp => properties.push((
            format!("no buffer evictions in the loop (saw {})", lp.evictions),
            lp.evictions == 0,
        )),
        Workload::IntClosure => properties.push((
            format!("buffer evictions in the loop (saw {})", lp.evictions),
            lp.evictions > 0,
        )),
        Workload::RulebaseQuery => {
            let share = match (compile, query) {
                (Some(c), Some(q)) => c.p50 / q.p50,
                _ => 0.0,
            };
            properties.push((
                format!("compile is most of query time (p50 share {share:.3})"),
                share > 0.5,
            ));
        }
        Workload::UpdateMix => {
            let committed = lp.session_commits.iter().filter(|(c, _)| *c > 0).count();
            properties.push((
                format!(
                    "{} sessions committed (want {})",
                    committed, cfg.sizes.sessions
                ),
                committed == cfg.sizes.sessions && committed >= 2,
            ));
        }
    }

    let p = |s: Option<Summary>, f: fn(&Summary) -> f64| s.as_ref().map_or(0.0, f);
    let loop_s = (lp.wall.saturating_sub(lp.check)).as_secs_f64();
    let metrics: Vec<(&'static str, &'static str, f64)> = if !cfg.trace {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "setup_s" => p(setup_s, |s| s.p50),
                    "query_p50_ms" => p(query, |s| s.p50),
                    "query_p90_ms" => p(query, |s| s.p90),
                    "compile_p50_ms" => p(compile, |s| s.p50),
                    "ops_per_s" => lp.ops as f64 / loop_s.max(1e-9),
                    "commit_p50_ms" => p(commit, |s| s.p50),
                    "commit_p90_ms" => p(commit, |s| s.p90),
                    "peak_rss_mib" => peak_rss_mib().unwrap_or(0.0),
                    other => unreachable!("unmapped end-to-end metric {other}"),
                };
                (name, unit, v)
            })
            .collect()
    } else {
        let l = &rec.layers;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let commits: u64 = lp.session_commits.iter().map(|c| c.0).sum();
        let conflicts: u64 = lp.session_commits.iter().map(|c| c.1).sum();
        let floor_p50 = p(floor_ms, |s| s.p50);
        let mean = |d: (Duration, u64)| d.0.as_secs_f64() / d.1.max(1) as f64;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "rdbms.plan.cache_hit_ratio" => {
                        let hits = l.sum("rdbms.plan.cache_hits");
                        ratio(hits, hits + l.sum("rdbms.plan.cache_misses"))
                    }
                    "rdbms.buffer.hit_rate" => {
                        let hits = l.sum("rdbms.buffer.hits");
                        ratio(hits, hits + l.sum("rdbms.buffer.misses"))
                    }
                    "rdbms.exec.rows_examined_per_tuple" => ratio(
                        l.sum("rdbms.exec.tuples_scanned") + l.sum("rdbms.exec.tuples_fetched"),
                        l.sum("km.runtime.tuples_produced"),
                    ),
                    "rdbms.concurrent.commits" => commits as f64,
                    "rdbms.concurrent.conflicts_per_commit" => {
                        ratio(conflicts as f64, commits as f64)
                    }
                    "rdbms.wal.bytes_per_commit" => ratio(lp.wal_bytes as f64, commits as f64),
                    "rdbms.wal.records_per_commit" => ratio(lp.wal_records as f64, commits as f64),
                    "rdbms.wal.fsyncs_per_commit" => ratio(lp.wal_fsyncs as f64, commits as f64),
                    "floor.query_p50_ms" => floor_p50,
                    "floor.overhead_x" => ratio(p(query, |s| s.p50), floor_p50),
                    "trace.unattributed_share" => rec.tracer.unattributed_share(),
                    "trace.overhead_share" => {
                        let (t, u) = (mean(rec.traced), mean(rec.untraced));
                        if t > 0.0 {
                            1.0 - u / t
                        } else {
                            0.0
                        }
                    }
                    _ => l.mean(name).unwrap_or(0.0),
                };
                (name, unit, v)
            })
            .collect()
    };

    let mut samples = Vec::new();
    for (name, s) in [
        ("setup_s", setup_s),
        ("query_ms", query),
        ("compile_ms", compile),
        ("commit_ms", commit),
        ("floor_ms", floor_ms),
    ] {
        if let Some(s) = s {
            samples.push((name, s));
        }
    }
    let finite = metrics.iter().all(|m| m.2.is_finite());
    RunResult {
        correct: rec.mismatches == 0 && finite && properties.iter().all(|p| p.1),
        attempted: rec.attempted,
        failed: rec.failed,
        mismatches: rec.mismatches,
        metrics,
        samples,
        properties,
        exact_repeats: rec
            .layers
            .exact_repeats()
            .into_iter()
            .filter(|m| {
                PER_LAYER
                    .iter()
                    .any(|&(name, unit)| name == *m && unit == "count")
            })
            .collect(),
        errors: rec.errors,
    }
}
