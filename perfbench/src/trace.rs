//! Spans and per-layer counters recorded from outside the program.
//!
//! Every traced operation gets one root span (`op.query` or `op.commit`)
//! whose children wrap the public calls the benchmark makes:
//! `km.compile` and `km.execute`, or `km.commit_workspace`. Around each
//! call the engine's counters are read before and after, and the deltas
//! plus the phase timings the call returns are attributed to layers.
//! Spans stay in memory; [`Tracer::unattributed_share`] reconciles them.

use rdbms::EngineStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval. `parent` is `None` for an operation's root span;
/// a child links to its operation's root.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder; offsets are relative to `origin`.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            parent,
            name,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// The share of root-span time that no child span covers, over all
    /// operations. Children of one root never overlap (the benchmark
    /// makes its calls one after another), so their durations add.
    pub fn unattributed_share(&self) -> f64 {
        let mut root = Duration::ZERO;
        let mut covered = Duration::ZERO;
        for s in &self.spans {
            match s.parent {
                None => root += s.duration(),
                Some(_) => covered += s.duration(),
            }
        }
        if root.is_zero() {
            return 0.0;
        }
        (root.as_secs_f64() - covered.as_secs_f64()).max(0.0) / root.as_secs_f64()
    }

    /// Move `other`'s spans into this tracer.
    pub fn absorb(&mut self, other: &mut Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// The engine counters the layer table reads, by per-layer metric name.
/// The last three are nanoseconds and become `_ms` metrics.
pub const ENGINE_COUNTERS: [&str; 18] = [
    "rdbms.engine.statements",
    "rdbms.engine.tables_created",
    "rdbms.engine.tables_dropped",
    "rdbms.exec.tuples_scanned",
    "rdbms.exec.tuples_fetched",
    "rdbms.exec.index_probes",
    "rdbms.exec.join_output",
    "rdbms.plan.cache_hits",
    "rdbms.plan.cache_misses",
    "rdbms.plan.replans",
    "rdbms.buffer.hits",
    "rdbms.buffer.misses",
    "rdbms.buffer.evictions",
    "rdbms.disk.pages_read",
    "rdbms.disk.pages_written",
    "rdbms.sql.parse_ns",
    "rdbms.plan.plan_ns",
    "rdbms.exec.exec_ns",
];

/// A snapshot of [`ENGINE_COUNTERS`], in that order.
pub type Counters = [u64; ENGINE_COUNTERS.len()];

pub fn counters(s: &EngineStats) -> Counters {
    [
        s.statements,
        s.tables_created,
        s.tables_dropped,
        s.exec.tuples_scanned,
        s.exec.tuples_fetched,
        s.exec.index_probes,
        s.exec.join_output,
        s.exec.plan_cache_hits,
        s.exec.plan_cache_misses,
        s.exec.plan_replans,
        s.buffer.hits,
        s.buffer.misses,
        s.buffer.evictions,
        s.disk.pages_read,
        s.disk.pages_written,
        s.exec.parse_ns,
        s.exec.plan_ns,
        s.exec.exec_ns,
    ]
}

/// Element-wise `after - before`.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Index of `name` in [`ENGINE_COUNTERS`].
pub fn counter_index(name: &str) -> usize {
    ENGINE_COUNTERS
        .iter()
        .position(|c| *c == name)
        .expect("known engine counter")
}

/// Per-operation layer values, averaged over the traced operations that
/// report them. Each value is also grouped by an operation key (the
/// query text, or the operation kind) to find counters that repeat
/// exactly whenever the same operation runs again.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    sums: BTreeMap<&'static str, (f64, u64)>,
    /// metric -> op key -> (first value seen, every later value equal)
    repeats: BTreeMap<&'static str, BTreeMap<String, (f64, bool, u64)>>,
}

impl Layers {
    /// Record one operation's value of `metric`.
    pub fn add(&mut self, key: &str, metric: &'static str, value: f64) {
        let e = self.sums.entry(metric).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
        let per_key = self.repeats.entry(metric).or_default();
        match per_key.get_mut(key) {
            Some((first, same, n)) => {
                *same &= *first == value;
                *n += 1;
            }
            None => {
                per_key.insert(key.to_string(), (value, true, 1));
            }
        }
    }

    /// Mean of `metric` over the operations that reported it.
    pub fn mean(&self, metric: &str) -> Option<f64> {
        self.sums.get(metric).map(|&(s, n)| s / n as f64)
    }

    /// Sum of `metric` over the operations that reported it.
    pub fn sum(&self, metric: &str) -> f64 {
        self.sums.get(metric).map_or(0.0, |&(s, _)| s)
    }

    /// Count metrics whose value repeated exactly every time an
    /// operation with the same key ran again (and that did run again).
    pub fn exact_repeats(&self) -> Vec<&'static str> {
        self.repeats
            .iter()
            .filter(|(_, per_key)| {
                per_key.values().any(|&(_, _, n)| n > 1)
                    && per_key.values().all(|&(_, same, _)| same)
            })
            .map(|(m, _)| *m)
            .collect()
    }

    pub fn absorb(&mut self, other: Layers) {
        for (m, (s, n)) in other.sums {
            let e = self.sums.entry(m).or_insert((0.0, 0));
            e.0 += s;
            e.1 += n;
        }
        for (m, per_key) in other.repeats {
            let mine = self.repeats.entry(m).or_default();
            for (k, (v, same, n)) in per_key {
                match mine.get_mut(&k) {
                    Some((first, s, count)) => {
                        *s &= same && *first == v;
                        *count += n;
                    }
                    None => {
                        mine.insert(k, (v, same, n));
                    }
                }
            }
        }
    }
}
