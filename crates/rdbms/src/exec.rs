//! Physical-plan executor.
//!
//! A materializing executor: each operator produces its full result before
//! the parent consumes it. This mirrors how the testbed's generated
//! embedded-SQL programs behaved (every LFP iteration materialized
//! temporaries), and keeps join state simple. Logical work is counted in
//! [`ExecStats`] so experiments can report machine-independent costs.

use crate::buffer::BufferPool;
use crate::catalog::{Catalog, DbError};
use crate::disk::Disk;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::governor::{QueryGovernor, GOVERNOR_CHECK_INTERVAL};
use crate::heap::RecordId;
use crate::plan::{ExecCond, KeyExpr, PhysPlan, ProjExpr};
use crate::schema::{deserialize_tuple, serialize_tuple, Tuple};
use crate::spill::{decode_seq_tuple, encode_seq_tuple, partition_of, SpillFile, SpillWriter};
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// When memory-bounded operators may divert state to spill files
/// instead of failing the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillMode {
    /// Never spill: a memory-budget breach surfaces as the typed
    /// `DbError::Budget` error, exactly the PR-5 behaviour.
    Disabled,
    /// Spill when an operator's materialized state would exceed the
    /// governor's remaining memory budget (the default). Without a
    /// memory budget this is indistinguishable from `Disabled`.
    #[default]
    Enabled,
    /// Always take the spill path, budget or not — lets test suites and
    /// CI exercise the spill code on small data (`RDBMS_SPILL=force`).
    Forced,
}

/// Logical execution counters, cumulative across statements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tuples read by sequential scans.
    pub tuples_scanned: u64,
    /// Tuples fetched through an index (lookups and index joins).
    pub tuples_fetched: u64,
    /// Index probes issued.
    pub index_probes: u64,
    /// Tuples emitted by join operators.
    pub join_output: u64,
    /// Index nested-loop joins that flipped to a hash build at runtime
    /// because the outer side outgrew the planner's estimate.
    pub join_adaptive_flips: u64,
    /// Rows returned to the caller.
    pub rows_output: u64,
    /// Prepared-statement executions that reused a cached physical plan.
    pub plan_cache_hits: u64,
    /// Prepared-statement executions that had to (re)plan, including the
    /// first execution after `prepare` and any catalog-epoch invalidation.
    pub plan_cache_misses: u64,
    /// Cached plans discarded because a base table's live cardinality
    /// drifted past the replan threshold since plan time (counted
    /// separately from hits and misses).
    pub plan_replans: u64,
    /// Wall time spent lexing/parsing SQL, in nanoseconds.
    pub parse_ns: u64,
    /// Wall time spent planning queries, in nanoseconds.
    pub plan_ns: u64,
    /// Wall time spent executing physical plans, in nanoseconds.
    pub exec_ns: u64,
    /// Worker tasks spawned by partitioned parallel operators.
    pub tasks_spawned: u64,
    /// Worst partition imbalance observed, as the percentage by which the
    /// slowest worker of a partitioned operator exceeded the mean worker
    /// time (0 = perfectly even, or no parallel run yet).
    pub partition_skew: u64,
    /// Spill partitions created by memory-bounded operators (Grace
    /// hash-join and hash-dedup partitions; one per partition per side
    /// pair, not per file).
    pub spill_partitions: u64,
    /// Bytes written to spill files (record payloads, before page
    /// padding), across joins, sorts, and dedup operators.
    pub spill_bytes: u64,
    /// Sorted runs produced by the external merge-sort.
    pub sort_runs: u64,
    /// Row batches moved between operators (scan pages gathered, probe
    /// chunks processed): the unit at which the governor is polled.
    pub batches: u64,
}

/// Per-operator runtime counters collected while executing under
/// `EXPLAIN ANALYZE`. Nodes are stored in pre-order; `depth` reconstructs
/// the tree shape (a node's children are the entries that follow it with
/// `depth + 1`, up to the next entry at its own depth or less).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator description, identical to the EXPLAIN line (unindented).
    pub label: String,
    pub depth: usize,
    /// Rows this operator emitted to its parent.
    pub rows_out: u64,
    /// Inclusive wall time, children included.
    pub elapsed_ns: u64,
    /// Heap tuples scanned by this operator itself (children excluded).
    pub tuples_scanned: u64,
    /// Tuples fetched through an index by this operator itself.
    pub tuples_fetched: u64,
    /// Index probes issued by this operator itself.
    pub index_probes: u64,
    /// Rows on the build side of a hash join.
    pub build_rows: u64,
    /// Candidate rows dropped by this operator's residual / pushed-down
    /// filters (a scanned-but-filtered tuple, a joined row failing a
    /// residual condition, a filtered inner tuple of an index join).
    pub residual_dropped: u64,
    /// Spill partitions this operator created (0 = ran in memory).
    pub spill_partitions: u64,
    /// Bytes this operator wrote to spill files.
    pub spill_bytes: u64,
    /// Sorted runs this operator spilled (external sort only).
    pub sort_runs: u64,
    /// Row batches this operator processed.
    pub batches: u64,
    /// The planner's cardinality estimate for this operator, attached by
    /// EXPLAIN ANALYZE after execution (`None` outside that path).
    pub est_rows: Option<u64>,
}

/// Collects the [`OpProfile`] tree during execution. Installed in
/// [`ExecCtx::profiler`] only by EXPLAIN ANALYZE, so the ordinary
/// execution path pays a single `Option` test per plan node.
#[derive(Debug, Default)]
pub struct Profiler {
    nodes: Vec<OpProfile>,
    stack: Vec<usize>,
}

impl Profiler {
    fn enter(&mut self, plan: &PhysPlan) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(OpProfile {
            label: plan.label(),
            depth: self.stack.len(),
            ..OpProfile::default()
        });
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, elapsed_ns: u64, rows_out: u64) {
        self.stack.pop();
        let node = &mut self.nodes[idx];
        node.elapsed_ns = elapsed_ns;
        node.rows_out = rows_out;
    }

    fn current(&mut self) -> Option<&mut OpProfile> {
        self.stack.last().map(|&i| &mut self.nodes[i])
    }

    /// The collected pre-order profile.
    pub fn into_nodes(self) -> Vec<OpProfile> {
        self.nodes
    }
}

/// Everything an operator needs at runtime.
pub struct ExecCtx<'a> {
    pub catalog: &'a Catalog,
    pub disk: &'a mut Disk,
    pub pool: &'a mut BufferPool,
    pub stats: &'a mut ExecStats,
    /// Bind values for `?` placeholders; empty for unparameterized plans.
    /// Arity and ordinals are validated by the engine before execution.
    pub params: &'a [Value],
    /// When set, `execute_plan` records an [`OpProfile`] per plan node.
    pub profiler: Option<Profiler>,
    /// Worker count for partitioned operators; 1 runs everything inline on
    /// the calling thread (the default, byte-identical to the historical
    /// single-threaded executor).
    pub parallelism: usize,
    /// The statement's execution governor. Checked at operator entry and
    /// every [`GOVERNOR_CHECK_INTERVAL`] rows inside scan/join loops,
    /// including partitioned worker closures. `None` means ungoverned
    /// (internal maintenance statements).
    pub governor: Option<&'a QueryGovernor>,
    /// Whether memory-bounded operators may spill to disk instead of
    /// failing on a memory-budget breach.
    pub spill: SpillMode,
    /// Rows per batch exchanged at operator boundaries: sequential scans
    /// gather this many records per buffer-pool visit, probe/filter
    /// loops poll the governor once per batch. Answers are identical at
    /// any setting; only the check cadence and latch traffic change.
    pub batch_rows: usize,
}

impl ExecCtx<'_> {
    /// Count a sequential-scan tuple read, attributing it to the operator
    /// currently executing when profiling is on.
    #[inline]
    fn count_scanned(&mut self) {
        self.stats.tuples_scanned += 1;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.tuples_scanned += 1;
            }
        }
    }

    /// Count an index-fetched tuple.
    #[inline]
    fn count_fetched(&mut self) {
        self.stats.tuples_fetched += 1;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.tuples_fetched += 1;
            }
        }
    }

    /// Count an index probe.
    #[inline]
    fn count_probe(&mut self) {
        self.stats.index_probes += 1;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.index_probes += 1;
            }
        }
    }

    /// Record a candidate row dropped by a residual or pushed-down filter.
    #[inline]
    fn prof_drop(&mut self) {
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.residual_dropped += 1;
            }
        }
    }

    /// Record the hash-join build-side size.
    #[inline]
    fn prof_build(&mut self, rows: u64) {
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.build_rows = rows;
            }
        }
    }

    /// Count one processed row batch.
    #[inline]
    fn count_batch(&mut self) {
        self.stats.batches += 1;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.batches += 1;
            }
        }
    }

    /// Record a spill fan-out: `parts` partitions written, `bytes` of
    /// record payload spilled (both sides / all runs included).
    fn count_spill(&mut self, parts: u64, bytes: u64) {
        self.stats.spill_partitions += parts;
        self.stats.spill_bytes += bytes;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.spill_partitions += parts;
                op.spill_bytes += bytes;
            }
        }
    }

    /// Record external-sort runs spilled.
    fn count_sort_runs(&mut self, runs: u64) {
        self.stats.sort_runs += runs;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.sort_runs += runs;
            }
        }
    }

    /// Fold one worker's locally accumulated counters into the global
    /// stats and the profiled operator, so totals are identical to a
    /// serial run no matter how the rows were partitioned.
    fn absorb(&mut self, c: WorkerCounts) {
        self.stats.tuples_scanned += c.scanned;
        self.stats.index_probes += c.probes;
        self.stats.join_output += c.join_output;
        self.stats.batches += c.batches;
        if let Some(p) = self.profiler.as_mut() {
            if let Some(op) = p.current() {
                op.tuples_scanned += c.scanned;
                op.index_probes += c.probes;
                op.residual_dropped += c.dropped;
                op.batches += c.batches;
            }
        }
    }
}

/// Execution counters a partitioned worker accumulates locally; merged
/// into [`ExecStats`] (and the profiler) by [`ExecCtx::absorb`] after the
/// workers join, so parallel runs report the same totals as serial ones.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerCounts {
    scanned: u64,
    probes: u64,
    join_output: u64,
    dropped: u64,
    batches: u64,
}

/// Minimum rows each worker must receive before a partitioned operator
/// spawns threads: below this, thread start-up dominates the row work.
const PAR_MIN_ROWS_PER_WORKER: usize = 256;

/// Outer cardinality below which a full-key anti-join always probes the
/// index: at this scale a probe and a hash-set lookup cost the same, and
/// skipping the inner scan is a guaranteed win.
const ANTI_JOIN_PROBE_FLOOR: u64 = 256;

/// Periodic cooperative governor check for row loops: probes the
/// governor once every [`GOVERNOR_CHECK_INTERVAL`] iterations so the
/// atomic loads stay off the per-row fast path. Safe to call from
/// partitioned worker threads (the governor is all atomics).
#[inline]
fn gov_tick(gov: Option<&QueryGovernor>, i: usize) -> Result<(), DbError> {
    if let Some(g) = gov {
        if i.is_multiple_of(GOVERNOR_CHECK_INTERVAL) {
            g.check()?;
        }
    }
    Ok(())
}

/// Approximate heap footprint of one materialized tuple, for charging
/// hash-join build sides against the memory budget. Deliberately a
/// cheap over-estimate (enum discriminant + payload), not an exact
/// allocator measurement.
fn tuple_bytes(t: &Tuple) -> u64 {
    t.iter()
        .map(|v| match v {
            Value::Int(_) => 16u64,
            Value::Str(s) => 24 + s.len() as u64,
        })
        .sum::<u64>()
        + 24
}

/// Default rows per operator batch. Matches [`GOVERNOR_CHECK_INTERVAL`]
/// so moving governor polls from "every 256 rows inside the loop" to
/// "once per batch" keeps the breach-detection latency unchanged.
pub const DEFAULT_BATCH_ROWS: usize = GOVERNOR_CHECK_INTERVAL;

/// Floor on the spill partition / sort-run byte target: below this the
/// per-file fixed costs (page padding, directory churn) dominate and
/// more partitions only slow things down.
const SPILL_MIN_PARTITION_BYTES: u64 = 64 * 1024;

/// Partition / run byte target when no memory budget constrains the
/// operator (i.e. `SpillMode::Forced` on an ungoverned statement).
const SPILL_DEFAULT_PARTITION_BYTES: u64 = 256 * 1024;

/// Cap on Grace partitions / sort runs, so the merge fan-in and the
/// number of live spill files stay bounded no matter the input size
/// (oversized inputs get proportionally larger partitions instead).
const SPILL_MAX_PARTITIONS: u64 = 64;

/// Should an operator whose materialized state needs `bytes` take the
/// spill path? `Enabled` spills only when the governor's remaining
/// memory budget cannot hold the state in full; `Forced` always does.
fn spill_engaged(ctx: &ExecCtx<'_>, bytes: u64) -> bool {
    match ctx.spill {
        SpillMode::Disabled => false,
        SpillMode::Forced => true,
        SpillMode::Enabled => ctx
            .governor
            .and_then(QueryGovernor::bytes_remaining)
            .is_some_and(|remaining| bytes > remaining),
    }
}

/// Byte target for one spill partition: what still fits in the memory
/// budget (each partition is re-loaded whole during its probe/merge
/// phase), floored so partitions stay page-efficient.
fn spill_partition_bytes(ctx: &ExecCtx<'_>) -> u64 {
    ctx.governor
        .and_then(QueryGovernor::bytes_remaining)
        .map_or(SPILL_DEFAULT_PARTITION_BYTES, |remaining| {
            remaining.max(SPILL_MIN_PARTITION_BYTES)
        })
}

/// Partition fan-out for `bytes` of state: enough partitions that each
/// fits the budget, at least 2 (a spill that cannot subdivide is not a
/// spill), at most [`SPILL_MAX_PARTITIONS`].
fn spill_partition_count(ctx: &ExecCtx<'_>, bytes: u64) -> usize {
    bytes
        .div_ceil(spill_partition_bytes(ctx).max(1))
        .clamp(2, SPILL_MAX_PARTITIONS) as usize
}

/// Hash-scatter `rows` into `parts` spill streams by FNV of the key
/// columns (`None` = the whole tuple, for dedup operators). When
/// `tag_seq` each record carries its input ordinal so downstream
/// merges can restore exact input order. On error the partially
/// written streams are dropped before returning.
fn scatter_partitions(
    disk: &mut Disk,
    gov: Option<&QueryGovernor>,
    rows: &[Tuple],
    parts: usize,
    key_cols: Option<&[usize]>,
    tag_seq: bool,
) -> Result<Vec<SpillFile>, DbError> {
    let mut writers: Vec<SpillWriter> = (0..parts).map(|_| SpillWriter::new(disk)).collect();
    let mut failed = None;
    for (seq, row) in rows.iter().enumerate() {
        let step = gov_tick(gov, seq).and_then(|()| {
            let part = match key_cols {
                Some(cols) => {
                    let key: Vec<Value> = cols.iter().map(|&k| row[k].clone()).collect();
                    partition_of(&key, parts)
                }
                None => partition_of(row, parts),
            };
            let payload = if tag_seq {
                encode_seq_tuple(seq as u64, row)
            } else {
                serialize_tuple(row)
            };
            writers[part].push(disk, &payload)
        });
        if let Err(e) = step {
            failed = Some(e);
            break;
        }
    }
    if let Some(e) = failed {
        for w in writers {
            w.abandon(disk);
        }
        return Err(e);
    }
    let mut files = Vec::with_capacity(parts);
    let mut writers = writers.into_iter();
    for w in writers.by_ref() {
        match w.finish(disk) {
            Ok(f) => files.push(f),
            Err(e) => {
                for f in files {
                    f.destroy(disk);
                }
                for w in writers {
                    w.abandon(disk);
                }
                return Err(e);
            }
        }
    }
    Ok(files)
}

/// Read one spilled (untagged) tuple.
fn read_spilled_tuple(
    r: &mut crate::spill::SpillReader,
    disk: &mut Disk,
) -> Result<Option<Tuple>, DbError> {
    match r.next(disk)? {
        None => Ok(None),
        Some(payload) => deserialize_tuple(&payload)
            .map(Some)
            .ok_or_else(|| DbError::Corruption("spilled tuple does not deserialize".into())),
    }
}

/// Compare two rows on the sort key columns.
fn cmp_keys(a: &Tuple, b: &Tuple, keys: &[usize]) -> std::cmp::Ordering {
    for &k in keys {
        let ord = a[k].cmp(&b[k]);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Contiguous chunk ranges splitting `n` items across `workers` chunks.
/// Each chunk is sized by the rows *remaining* when it is cut
/// (`ceil(remaining / remaining_workers)`), so the division stays
/// balanced to within one row even when `n` sits just above the
/// `PAR_MIN_ROWS_PER_WORKER` floor, and a sub-floor tail can never be
/// stranded on its own worker: if cutting the chunk would leave fewer
/// than the floor per remaining worker, the tail folds into the current
/// chunk instead of spawning under-fed threads.
fn chunk_ranges(n: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let workers = workers.min(n).max(1);
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        if start >= n {
            break;
        }
        let remaining = n - start;
        let remaining_workers = workers - w;
        let mut len = remaining.div_ceil(remaining_workers);
        // Fold the tail: splitting further would leave the remaining
        // workers below the spawn floor, so the imbalance of one big
        // chunk beats the start-up cost of starving threads. (The
        // callers' worker selection already guarantees the floor, so
        // this only fires for direct calls with oversized counts.)
        if remaining_workers > 1
            && remaining - len < (remaining_workers - 1) * PAR_MIN_ROWS_PER_WORKER
        {
            len = remaining;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Run `f` over `items`, partitioned into contiguous chunks across the
/// context's worker budget. Outputs are concatenated in chunk order, so
/// the result is byte-identical to one serial pass (`f` over the whole
/// slice) — order-preserving partitioning is what keeps every answer
/// independent of the parallelism setting. Falls back to the inline serial
/// pass when parallelism is 1 or the input is too small to pay for thread
/// start-up. Worker counters and the partition-skew gauge are merged after
/// the scoped threads join; on error the first failing chunk (in chunk
/// order) wins, again matching the serial pass.
fn par_run<T, F>(ctx: &mut ExecCtx<'_>, items: &[T], f: F) -> Result<Vec<Tuple>, DbError>
where
    T: Sync,
    F: Fn(&[T], &mut WorkerCounts) -> Result<Vec<Tuple>, DbError> + Sync,
{
    let workers = ctx
        .parallelism
        .min(items.len() / PAR_MIN_ROWS_PER_WORKER)
        .max(1);
    if workers <= 1 {
        let mut counts = WorkerCounts::default();
        let out = f(items, &mut counts);
        ctx.absorb(counts);
        return out;
    }
    let ranges = chunk_ranges(items.len(), workers);
    let results = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let chunk = &items[r.clone()];
                s.spawn(move || {
                    let t0 = std::time::Instant::now();
                    let mut counts = WorkerCounts::default();
                    let out = f(chunk, &mut counts);
                    (out, counts, t0.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        join_workers(handles)
    });
    finish_par(ctx, results)
}

/// [`par_run`] over an owned vector: the items are moved into per-worker
/// chunk vectors (one pointer move per element, no deep clone), so
/// filter-style operators can pass surviving rows through untouched.
fn par_run_owned<T, F>(ctx: &mut ExecCtx<'_>, items: Vec<T>, f: F) -> Result<Vec<Tuple>, DbError>
where
    T: Send,
    F: Fn(Vec<T>, &mut WorkerCounts) -> Result<Vec<Tuple>, DbError> + Sync,
{
    let workers = ctx
        .parallelism
        .min(items.len() / PAR_MIN_ROWS_PER_WORKER)
        .max(1);
    if workers <= 1 {
        let mut counts = WorkerCounts::default();
        let out = f(items, &mut counts);
        ctx.absorb(counts);
        return out;
    }
    let ranges = chunk_ranges(items.len(), workers);
    let mut it = items.into_iter();
    let chunks: Vec<Vec<T>> = ranges
        .iter()
        .map(|r| it.by_ref().take(r.len()).collect())
        .collect();
    let results = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || {
                    let t0 = std::time::Instant::now();
                    let mut counts = WorkerCounts::default();
                    let out = f(chunk, &mut counts);
                    (out, counts, t0.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        join_workers(handles)
    });
    finish_par(ctx, results)
}

type WorkerResult = (Result<Vec<Tuple>, DbError>, WorkerCounts, u64);

fn join_workers(
    handles: Vec<std::thread::ScopedJoinHandle<'_, WorkerResult>>,
) -> Vec<WorkerResult> {
    handles
        .into_iter()
        .map(|h| h.join().expect("partitioned worker panicked"))
        .collect()
}

/// Worker runs shorter than this are dominated by thread start-up and
/// scheduler jitter, not row work; their timings say nothing about the
/// partitioning, so they are excluded from the skew gauge. This is what
/// produced the ~200% `exec.partition_skew` readings near the
/// rows-per-worker floor: microsecond-scale workers where a single
/// descheduling tick triples one worker's wall time.
const SKEW_MIN_MEAN_NS: u64 = 100_000;

/// Merge worker counters and the partition-skew gauge, then concatenate
/// chunk outputs in chunk order (first error, in chunk order, wins).
fn finish_par(ctx: &mut ExecCtx<'_>, results: Vec<WorkerResult>) -> Result<Vec<Tuple>, DbError> {
    ctx.stats.tasks_spawned += results.len() as u64;
    let mean_ns = (results.iter().map(|(_, _, ns)| ns).sum::<u64>() / results.len() as u64).max(1);
    let max_ns = results.iter().map(|(_, _, ns)| *ns).max().unwrap_or(0);
    if mean_ns >= SKEW_MIN_MEAN_NS {
        let skew = (max_ns * 100 / mean_ns).saturating_sub(100);
        ctx.stats.partition_skew = ctx.stats.partition_skew.max(skew);
    }
    let mut err = None;
    let mut out = Vec::new();
    for (chunk_out, counts, _) in results {
        ctx.absorb(counts);
        match chunk_out {
            Ok(rows) if err.is_none() => out.extend(rows),
            Ok(_) => {}
            Err(e) => err = err.or(Some(e)),
        }
    }
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// A composite key borrowed from a row: the `cols` columns of `row`,
/// hashed and compared column by column. Joins and anti-joins key their
/// hash tables by it, so no key is copied out of its row.
#[derive(Clone, Copy)]
struct KeyRef<'a> {
    row: &'a [Value],
    cols: &'a [usize],
}

impl<'a> KeyRef<'a> {
    fn new(row: &'a [Value], cols: &'a [usize]) -> KeyRef<'a> {
        KeyRef { row, cols }
    }
}

impl Hash for KeyRef<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        for &c in self.cols {
            self.row[c].hash(h);
        }
    }
}

impl PartialEq for KeyRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cols.len() == other.cols.len()
            && self
                .cols
                .iter()
                .zip(other.cols)
                .all(|(&a, &b)| self.row[a] == other.row[b])
    }
}

impl Eq for KeyRef<'_> {}

/// End of a [`KeyGroups`] chain.
const NO_ROW: usize = usize::MAX;

/// The rows of a slice grouped by key, each group in input order, with
/// no allocation per key: the map holds each key's first and last row
/// and `next` chains every row to the following one with the same key.
struct KeyGroups<'a> {
    ends: FxHashMap<KeyRef<'a>, (usize, usize)>,
    next: Vec<usize>,
}

impl<'a> KeyGroups<'a> {
    fn with_capacity(rows: usize) -> KeyGroups<'a> {
        let mut ends = FxHashMap::default();
        ends.reserve(rows);
        KeyGroups {
            ends,
            next: Vec::with_capacity(rows),
        }
    }

    /// Group all of `rows` by their `cols`.
    fn of(rows: &'a [Tuple], cols: &'a [usize]) -> KeyGroups<'a> {
        let mut groups = KeyGroups::with_capacity(rows.len());
        for row in rows {
            groups.push(KeyRef::new(row, cols));
        }
        groups
    }

    /// Add the next row (index `next.len()`) under `key`.
    fn push(&mut self, key: KeyRef<'a>) {
        let i = self.next.len();
        self.next.push(NO_ROW);
        let next = &mut self.next;
        self.ends
            .entry(key)
            .and_modify(|(_, last)| {
                next[*last] = i;
                *last = i;
            })
            .or_insert((i, i));
    }

    /// Indexes of the rows whose key equals `key`, in input order.
    fn get(&self, key: &KeyRef<'_>) -> impl Iterator<Item = usize> + '_ {
        let mut cur = self.ends.get(key).map_or(NO_ROW, |&(first, _)| first);
        std::iter::from_fn(move || {
            let i = cur;
            (i != NO_ROW).then(|| {
                cur = self.next[i];
                i
            })
        })
    }
}

/// Mark the first occurrence of every row of `rows` that is not in
/// `exclude` — the rows DISTINCT, UNION and EXCEPT keep.
fn first_occurrences(rows: &[Tuple], exclude: &[Tuple]) -> Vec<bool> {
    let exclude: FxHashSet<&Tuple> = exclude.iter().collect();
    let mut seen: FxHashSet<&Tuple> = FxHashSet::default();
    seen.reserve(rows.len());
    rows.iter()
        .map(|r| !exclude.contains(r) && seen.insert(r))
        .collect()
}

/// Keep the first occurrence of every row not in `exclude`, in order.
fn dedup_rows(mut rows: Vec<Tuple>, exclude: &[Tuple]) -> Vec<Tuple> {
    let mut keep = first_occurrences(&rows, exclude).into_iter();
    rows.retain(|_| keep.next() == Some(true));
    rows
}

/// Evaluate one resolved condition against a flat row.
fn eval_cond(cond: &ExecCond, row: &[Value], params: &[Value]) -> bool {
    match cond {
        ExecCond::ColCmpCol(a, op, b) => op.eval(row[*a].cmp(&row[*b])),
        ExecCond::ColCmpLit(a, op, v) => op.eval(row[*a].cmp(v)),
        ExecCond::ColCmpParam(a, op, p) => op.eval(row[*a].cmp(&params[*p])),
        ExecCond::InList(a, vs) => vs.contains(&row[*a]),
    }
}

pub(crate) fn eval_all(conds: &[ExecCond], row: &[Value], params: &[Value]) -> bool {
    conds.iter().all(|c| eval_cond(c, row, params))
}

/// Materialize an index-lookup key, substituting bind values for params.
fn resolve_key(key: &[KeyExpr], params: &[Value]) -> Vec<Value> {
    key.iter()
        .map(|k| match k {
            KeyExpr::Lit(v) => v.clone(),
            KeyExpr::Param(p) => params[*p].clone(),
        })
        .collect()
}

/// Decode a stored payload, surfacing damage as [`DbError::Corruption`]
/// instead of panicking so callers can attempt recovery.
fn decode_tuple(table: &str, rid: RecordId, payload: &[u8]) -> Result<Tuple, DbError> {
    deserialize_tuple(payload).ok_or_else(|| {
        DbError::Corruption(format!(
            "table {table}: stored tuple at {rid:?} does not deserialize"
        ))
    })
}

/// Fetch the record an index entry points at; a dangling entry means the
/// index and heap have diverged, which is corruption, not a logic bug.
fn fetch_indexed(
    ctx: &mut ExecCtx<'_>,
    table: &crate::catalog::Table,
    rid: RecordId,
) -> Result<Vec<u8>, DbError> {
    table.heap.get(ctx.disk, ctx.pool, rid)?.ok_or_else(|| {
        DbError::Corruption(format!(
            "table {}: index entry points at missing record {rid:?}",
            table.name
        ))
    })
}

/// Execute `plan` to completion. When a [`Profiler`] is installed in the
/// context, each node's wall time, output cardinality, and operator-local
/// counters are recorded on the way.
pub fn execute_plan(plan: &PhysPlan, ctx: &mut ExecCtx<'_>) -> Result<Vec<Tuple>, DbError> {
    if ctx.profiler.is_none() {
        let rows = run_plan(plan, ctx)?;
        // Every operator's materialized output counts against the row
        // budget: "rows processed", not "rows returned", so a blow-up in
        // an intermediate join trips the governor even if the final
        // projection is tiny.
        if let Some(g) = ctx.governor {
            g.charge_rows(rows.len() as u64)?;
        }
        return Ok(rows);
    }
    let idx = ctx.profiler.as_mut().expect("profiler present").enter(plan);
    let start = std::time::Instant::now();
    let result = run_plan(plan, ctx);
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let rows_out = result.as_ref().map(|r| r.len() as u64).unwrap_or(0);
    ctx.profiler
        .as_mut()
        .expect("profiler present")
        .exit(idx, elapsed_ns, rows_out);
    let rows = result?;
    if let Some(g) = ctx.governor {
        g.charge_rows(rows.len() as u64)?;
    }
    Ok(rows)
}

fn run_plan(plan: &PhysPlan, ctx: &mut ExecCtx<'_>) -> Result<Vec<Tuple>, DbError> {
    if let Some(g) = ctx.governor {
        g.check()?;
    }
    match plan {
        PhysPlan::SeqScan { table, filters } => {
            let t = ctx.catalog.table(table)?;
            let mut scan = t.heap.scan();
            let batch = ctx.batch_rows.max(1);
            if ctx.parallelism > 1 {
                // Page I/O stays on this thread (the buffer pool is a
                // single-writer resource); workers split the CPU-bound
                // decode + filter work over the gathered payloads.
                let mut raw: Vec<(RecordId, Vec<u8>)> = Vec::new();
                loop {
                    if let Some(g) = ctx.governor {
                        g.check()?;
                    }
                    let chunk = scan.next_batch(ctx.disk, ctx.pool, batch)?;
                    if chunk.is_empty() {
                        break;
                    }
                    raw.extend(chunk);
                }
                let params = ctx.params;
                let gov = ctx.governor;
                return par_run(ctx, &raw, |chunk, c| {
                    let mut out = Vec::new();
                    for sub in chunk.chunks(batch) {
                        if let Some(g) = gov {
                            g.check()?;
                        }
                        c.batches += 1;
                        for (rid, payload) in sub {
                            c.scanned += 1;
                            let tuple = decode_tuple(table, *rid, payload)?;
                            if eval_all(filters, &tuple, params) {
                                out.push(tuple);
                            } else {
                                c.dropped += 1;
                            }
                        }
                    }
                    Ok(out)
                });
            }
            let mut out = Vec::new();
            loop {
                if let Some(g) = ctx.governor {
                    g.check()?;
                }
                let chunk = scan.next_batch(ctx.disk, ctx.pool, batch)?;
                if chunk.is_empty() {
                    break;
                }
                ctx.count_batch();
                for (rid, payload) in chunk {
                    ctx.count_scanned();
                    let tuple = decode_tuple(table, rid, &payload)?;
                    if eval_all(filters, &tuple, ctx.params) {
                        out.push(tuple);
                    } else {
                        ctx.prof_drop();
                    }
                }
            }
            Ok(out)
        }
        PhysPlan::IndexLookup {
            table,
            index_pos,
            key,
            residual,
        } => {
            let t = ctx.catalog.table(table)?;
            let index = &t.indexes[*index_pos];
            let key = resolve_key(key, ctx.params);
            ctx.count_probe();
            let rids = index.lookup(&key);
            let mut out = Vec::with_capacity(rids.len());
            for &rid in rids {
                let payload = fetch_indexed(ctx, t, rid)?;
                ctx.count_fetched();
                let tuple = decode_tuple(table, rid, &payload)?;
                if eval_all(residual, &tuple, ctx.params) {
                    out.push(tuple);
                } else {
                    ctx.prof_drop();
                }
            }
            Ok(out)
        }
        PhysPlan::IndexRange {
            table,
            index_pos,
            lo,
            hi,
            residual,
        } => {
            let t = ctx.catalog.table(table)?;
            let index = &t.indexes[*index_pos];
            let to_key = |b: &std::ops::Bound<Value>| match b {
                std::ops::Bound::Included(v) => std::ops::Bound::Included(vec![v.clone()]),
                std::ops::Bound::Excluded(v) => std::ops::Bound::Excluded(vec![v.clone()]),
                std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
            };
            let rids = index
                .range(to_key(lo), to_key(hi))
                .expect("planner only ranges over ordered indexes");
            ctx.count_probe();
            let mut out = Vec::with_capacity(rids.len());
            for rid in rids {
                let payload = fetch_indexed(ctx, t, rid)?;
                ctx.count_fetched();
                let tuple = decode_tuple(table, rid, &payload)?;
                if eval_all(residual, &tuple, ctx.params) {
                    out.push(tuple);
                } else {
                    ctx.prof_drop();
                }
            }
            Ok(out)
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            let left_rows = execute_plan(left, ctx)?;
            let right_rows = execute_plan(right, ctx)?;
            // Build the hash table on the smaller side; output rows are
            // always left-columns-then-right-columns regardless.
            let build_left = left_rows.len() <= right_rows.len();
            let (build, build_keys, probe, probe_keys) = if build_left {
                (left_rows, left_keys, right_rows, right_keys)
            } else {
                (right_rows, right_keys, left_rows, left_keys)
            };
            let build_bytes: u64 = build.iter().map(tuple_bytes).sum();
            if spill_engaged(ctx, build_bytes) && !build.is_empty() {
                return grace_hash_join(
                    ctx,
                    build,
                    build_keys,
                    probe,
                    probe_keys,
                    build_left,
                    residual,
                    build_bytes,
                );
            }
            // The build side is the join's materialized state: charge it
            // against the memory budget before committing to building it.
            // With spilling off (or no budget set) a breach is fatal here,
            // exactly as before spilling existed.
            if let Some(g) = ctx.governor {
                g.charge_bytes(build_bytes)?;
            }
            let mut table = KeyGroups::with_capacity(build.len());
            for (bi, row) in build.iter().enumerate() {
                gov_tick(ctx.governor, bi)?;
                table.push(KeyRef::new(row, build_keys));
            }
            ctx.prof_build(build.len() as u64);
            // The hash table is built once and shared read-only; probe rows
            // are partitioned into contiguous chunks whose outputs are
            // concatenated in probe order, so the joined rows come out in
            // exactly the serial order at any parallelism setting.
            let params = ctx.params;
            let gov = ctx.governor;
            let batch = ctx.batch_rows.max(1);
            par_run(ctx, &probe, |chunk, c| {
                let mut out = Vec::new();
                for sub in chunk.chunks(batch) {
                    if let Some(g) = gov {
                        g.check()?;
                    }
                    c.batches += 1;
                    for prow in sub {
                        for bi in table.get(&KeyRef::new(prow, probe_keys)) {
                            let brow = &build[bi];
                            let (lrow, rrow): (&Tuple, &Tuple) = if build_left {
                                (brow, prow)
                            } else {
                                (prow, brow)
                            };
                            let mut joined = Vec::with_capacity(lrow.len() + rrow.len());
                            joined.extend_from_slice(lrow);
                            joined.extend_from_slice(rrow);
                            if eval_all(residual, &joined, params) {
                                c.join_output += 1;
                                out.push(joined);
                            } else {
                                c.dropped += 1;
                            }
                        }
                    }
                }
                Ok(out)
            })
        }
        PhysPlan::IndexNlJoin {
            left,
            table,
            index_pos,
            left_keys,
            inner_filters,
            residual,
        } => {
            let left_rows = execute_plan(left, ctx)?;
            let t = ctx.catalog.table(table)?;
            let index = &t.indexes[*index_pos];
            let batch = ctx.batch_rows.max(1);
            // The planner chose probing from its estimates at plan time;
            // whether it still pays is re-checked here against live
            // cardinalities. When the outer side has grown to the size of
            // the inner relation — a cached plan iterations stale inside
            // an LFP loop — one inner scan into a hash table beats
            // hammering the index once per outer row. Output order is the
            // probing order either way.
            let probe_pays =
                (left_rows.len() as u64) < t.heap.tuple_count().max(ANTI_JOIN_PROBE_FLOOR);
            if !probe_pays {
                ctx.stats.join_adaptive_flips += 1;
                let mut inner: Vec<Tuple> = Vec::new();
                let mut scan = t.heap.scan();
                loop {
                    if let Some(g) = ctx.governor {
                        g.check()?;
                    }
                    let chunk = scan.next_batch(ctx.disk, ctx.pool, batch)?;
                    if chunk.is_empty() {
                        break;
                    }
                    ctx.count_batch();
                    for (rid, payload) in chunk {
                        ctx.count_scanned();
                        let tuple = decode_tuple(table, rid, &payload)?;
                        if !eval_all(inner_filters, &tuple, ctx.params) {
                            ctx.prof_drop();
                            continue;
                        }
                        inner.push(tuple);
                    }
                }
                ctx.prof_build(inner.len() as u64);
                let groups = KeyGroups::of(&inner, index.key_cols());
                let mut out = Vec::new();
                for (li, lrow) in left_rows.iter().enumerate() {
                    gov_tick(ctx.governor, li)?;
                    for ii in groups.get(&KeyRef::new(lrow, left_keys)) {
                        let irow = &inner[ii];
                        let mut joined = Vec::with_capacity(lrow.len() + irow.len());
                        joined.extend_from_slice(lrow);
                        joined.extend_from_slice(irow);
                        if eval_all(residual, &joined, ctx.params) {
                            ctx.stats.join_output += 1;
                            out.push(joined);
                        } else {
                            ctx.prof_drop();
                        }
                    }
                }
                return Ok(out);
            }
            let mut out = Vec::new();
            for (li, lrow) in left_rows.iter().enumerate() {
                if li % batch == 0 {
                    if let Some(g) = ctx.governor {
                        g.check()?;
                    }
                    ctx.count_batch();
                }
                ctx.count_probe();
                for &rid in index.lookup_cols(lrow, left_keys) {
                    let payload = fetch_indexed(ctx, t, rid)?;
                    ctx.count_fetched();
                    let inner = decode_tuple(table, rid, &payload)?;
                    if !eval_all(inner_filters, &inner, ctx.params) {
                        ctx.prof_drop();
                        continue;
                    }
                    let mut joined = Vec::with_capacity(lrow.len() + inner.len());
                    joined.extend_from_slice(lrow);
                    joined.extend(inner);
                    if eval_all(residual, &joined, ctx.params) {
                        ctx.stats.join_output += 1;
                        out.push(joined);
                    } else {
                        ctx.prof_drop();
                    }
                }
            }
            Ok(out)
        }
        PhysPlan::AntiJoin {
            child,
            table,
            inner_filters,
            outer_keys,
            inner_keys,
            index_pos,
        } => {
            let rows = execute_plan(child, ctx)?;
            let t = ctx.catalog.table(table)?;
            // The planner records an index as a *capability*; whether
            // probing actually pays is decided here against live
            // cardinalities (a cached plan's estimates can be iterations
            // stale inside an LFP loop). Probing issues one lookup per
            // outer row, so it wins when the outer side is small relative
            // to the inner relation; when the probing side has grown to
            // the size of the accumulated relation itself — every naive
            // LFP termination check — one inner scan into a fresh hash
            // set is cheaper than hammering the persistent index.
            let probe_pays = (rows.len() as u64) < t.heap.tuple_count().max(ANTI_JOIN_PROBE_FLOOR);
            if let (Some(pos), true) = (*index_pos, probe_pays) {
                // The correlation keys are exactly the index key: a row of
                // the inner table matches iff the probe hits, so no scan
                // and no tuple fetch are needed. Probes are pure reads of
                // the in-memory directory, so outer rows partition across
                // workers; order is preserved by chunk concatenation.
                let index = &t.indexes[pos];
                let gov = ctx.governor;
                return par_run_owned(ctx, rows, |chunk, c| {
                    let mut out = Vec::new();
                    for (ri, row) in chunk.into_iter().enumerate() {
                        gov_tick(gov, ri)?;
                        c.probes += 1;
                        if index.lookup_cols(&row, outer_keys).is_empty() {
                            out.push(row);
                        }
                    }
                    Ok(out)
                });
            }
            // Materialize the (filtered) inner side once. When the planner
            // found a full-key index but probing lost the cost race above,
            // the (reordered) key pairs still correlate the two sides, and
            // `inner_filters` is empty — the scan fallback is unchanged.
            let mut scan = t.heap.scan();
            let batch = ctx.batch_rows.max(1);
            let mut inner: Vec<Tuple> = Vec::new();
            let mut inner_nonempty = false;
            loop {
                if let Some(g) = ctx.governor {
                    g.check()?;
                }
                let chunk = scan.next_batch(ctx.disk, ctx.pool, batch)?;
                if chunk.is_empty() {
                    break;
                }
                ctx.count_batch();
                for (rid, payload) in chunk {
                    ctx.count_scanned();
                    let tuple = decode_tuple(table, rid, &payload)?;
                    if !eval_all(inner_filters, &tuple, ctx.params) {
                        continue;
                    }
                    inner_nonempty = true;
                    if !inner_keys.is_empty() {
                        inner.push(tuple);
                    }
                }
            }
            if outer_keys.is_empty() {
                // Uncorrelated NOT EXISTS: all-or-nothing.
                return Ok(if inner_nonempty { Vec::new() } else { rows });
            }
            // Membership tests against the frozen key set are pure reads;
            // partition the outer rows like the probing path.
            let keys: FxHashSet<KeyRef> =
                inner.iter().map(|t| KeyRef::new(t, inner_keys)).collect();
            let gov = ctx.governor;
            par_run_owned(ctx, rows, |chunk, _c| {
                let mut out = Vec::new();
                for (ri, row) in chunk.into_iter().enumerate() {
                    gov_tick(gov, ri)?;
                    if !keys.contains(&KeyRef::new(&row, outer_keys)) {
                        out.push(row);
                    }
                }
                Ok(out)
            })
        }
        PhysPlan::CrossJoin {
            left,
            right,
            residual,
        } => {
            let left_rows = execute_plan(left, ctx)?;
            let right_rows = execute_plan(right, ctx)?;
            let mut out = Vec::new();
            let mut steps = 0usize;
            for lrow in &left_rows {
                for rrow in &right_rows {
                    gov_tick(ctx.governor, steps)?;
                    steps += 1;
                    let mut joined = Vec::with_capacity(lrow.len() + rrow.len());
                    joined.extend_from_slice(lrow);
                    joined.extend_from_slice(rrow);
                    if eval_all(residual, &joined, ctx.params) {
                        ctx.stats.join_output += 1;
                        out.push(joined);
                    } else {
                        ctx.prof_drop();
                    }
                }
            }
            Ok(out)
        }
        PhysPlan::Filter { child, conds } => {
            let rows = execute_plan(child, ctx)?;
            let batch = ctx.batch_rows.max(1);
            let mut out = Vec::with_capacity(rows.len());
            for (i, r) in rows.into_iter().enumerate() {
                if i % batch == 0 {
                    if let Some(g) = ctx.governor {
                        g.check()?;
                    }
                    ctx.count_batch();
                }
                if eval_all(conds, &r, ctx.params) {
                    out.push(r);
                } else {
                    ctx.prof_drop();
                }
            }
            Ok(out)
        }
        PhysPlan::Project { child, exprs } => {
            let rows = execute_plan(child, ctx)?;
            let identity = exprs
                .iter()
                .enumerate()
                .all(|(i, e)| matches!(e, ProjExpr::Col(c) if *c == i));
            if identity && rows.first().is_none_or(|r| r.len() == exprs.len()) {
                return Ok(rows);
            }
            Ok(rows
                .into_iter()
                .map(|row| {
                    exprs
                        .iter()
                        .map(|e| match e {
                            ProjExpr::Col(i) => row[*i].clone(),
                            ProjExpr::Lit(v) => v.clone(),
                        })
                        .collect()
                })
                .collect())
        }
        PhysPlan::Distinct { child } => {
            let rows = execute_plan(child, ctx)?;
            let state: u64 = rows.iter().map(tuple_bytes).sum();
            if spill_engaged(ctx, state) && !rows.is_empty() {
                return spill_dedup(ctx, rows, None, state);
            }
            Ok(dedup_rows(rows, &[]))
        }
        PhysPlan::Sort { child, keys } => {
            let mut rows = execute_plan(child, ctx)?;
            let state: u64 = rows.iter().map(tuple_bytes).sum();
            if spill_engaged(ctx, state) && !rows.is_empty() {
                return external_sort(ctx, rows, keys, state);
            }
            rows.sort_by(|a, b| cmp_keys(a, b, keys));
            Ok(rows)
        }
        PhysPlan::CountStar { child } => {
            let rows = execute_plan(child, ctx)?;
            Ok(vec![vec![Value::Int(rows.len() as i64)]])
        }
        PhysPlan::GroupCount { child, keys } => {
            let rows = execute_plan(child, ctx)?;
            // Groups in order of first occurrence, so output is
            // deterministic: (first row, count) per group.
            let mut groups: FxHashMap<KeyRef, usize> = FxHashMap::default();
            let mut order: Vec<(usize, i64)> = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                let g = *groups.entry(KeyRef::new(row, keys)).or_insert_with(|| {
                    order.push((i, 0));
                    order.len() - 1
                });
                order[g].1 += 1;
            }
            Ok(order
                .into_iter()
                .map(|(first, count)| {
                    let mut row: Tuple = keys.iter().map(|&k| rows[first][k].clone()).collect();
                    row.push(Value::Int(count));
                    row
                })
                .collect())
        }
        PhysPlan::UnionAll { left, right } => {
            let mut rows = execute_plan(left, ctx)?;
            rows.extend(execute_plan(right, ctx)?);
            Ok(rows)
        }
        PhysPlan::UnionDistinct { left, right } => {
            let mut rows = execute_plan(left, ctx)?;
            rows.extend(execute_plan(right, ctx)?);
            let state: u64 = rows.iter().map(tuple_bytes).sum();
            if spill_engaged(ctx, state) && !rows.is_empty() {
                return spill_dedup(ctx, rows, None, state);
            }
            Ok(dedup_rows(rows, &[]))
        }
        PhysPlan::Except { left, right } => {
            let rows = execute_plan(left, ctx)?;
            let right_rows = execute_plan(right, ctx)?;
            let state: u64 = rows.iter().chain(right_rows.iter()).map(tuple_bytes).sum();
            if spill_engaged(ctx, state) && !rows.is_empty() {
                return spill_dedup(ctx, rows, Some(right_rows), state);
            }
            Ok(dedup_rows(rows, &right_rows))
        }
    }
}

/// Grace hash join: both sides are hash-scattered on the join key into
/// per-partition spill files, then each partition is joined on its own
/// with a build table that fits the remaining memory budget. Probe rows
/// carry their input ordinal through the scatter; since every row with
/// a given key lands in exactly one partition, a final stable sort on
/// the ordinal restores exact probe-major order — byte-identical to the
/// in-memory join at any partition count.
#[allow(clippy::too_many_arguments)]
fn grace_hash_join(
    ctx: &mut ExecCtx<'_>,
    build: Vec<Tuple>,
    build_keys: &[usize],
    probe: Vec<Tuple>,
    probe_keys: &[usize],
    build_left: bool,
    residual: &[ExecCond],
    build_bytes: u64,
) -> Result<Vec<Tuple>, DbError> {
    let parts = spill_partition_count(ctx, build_bytes);
    ctx.prof_build(build.len() as u64);
    let build_files = scatter_partitions(
        ctx.disk,
        ctx.governor,
        &build,
        parts,
        Some(build_keys),
        false,
    )?;
    drop(build);
    let probe_files = match scatter_partitions(
        ctx.disk,
        ctx.governor,
        &probe,
        parts,
        Some(probe_keys),
        true,
    ) {
        Ok(files) => files,
        Err(e) => {
            for f in build_files {
                f.destroy(ctx.disk);
            }
            return Err(e);
        }
    };
    drop(probe);
    let spilled: u64 = build_files
        .iter()
        .chain(probe_files.iter())
        .map(SpillFile::bytes)
        .sum();
    ctx.count_spill(parts as u64, spilled);
    let mut counts = WorkerCounts::default();
    let mut tagged: Vec<(u64, Tuple)> = Vec::new();
    let mut result = Ok(());
    'parts: for (bf, pf) in build_files.iter().zip(probe_files.iter()) {
        // Load this partition's build side (its rows keep their relative
        // build order) and hash it; only now does the build state become
        // memory-resident, sized by the partition target.
        let mut part_build: Vec<Tuple> = Vec::with_capacity(bf.records() as usize);
        let mut reader = bf.reader();
        loop {
            match read_spilled_tuple(&mut reader, ctx.disk) {
                Ok(Some(t)) => part_build.push(t),
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break 'parts;
                }
            }
            if let Err(e) = gov_tick(ctx.governor, part_build.len()) {
                result = Err(e);
                break 'parts;
            }
        }
        let table = KeyGroups::of(&part_build, build_keys);
        counts.batches += 1;
        let mut reader = pf.reader();
        let mut pi = 0usize;
        loop {
            let payload = match reader.next(ctx.disk) {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break 'parts;
                }
            };
            if let Err(e) = gov_tick(ctx.governor, pi) {
                result = Err(e);
                break 'parts;
            }
            pi += 1;
            let (seq, prow) = match decode_seq_tuple(&payload) {
                Ok(v) => v,
                Err(e) => {
                    result = Err(e);
                    break 'parts;
                }
            };
            for bi in table.get(&KeyRef::new(&prow, probe_keys)) {
                let brow = &part_build[bi];
                let (lrow, rrow): (&Tuple, &Tuple) = if build_left {
                    (brow, &prow)
                } else {
                    (&prow, brow)
                };
                let mut joined = Vec::with_capacity(lrow.len() + rrow.len());
                joined.extend_from_slice(lrow);
                joined.extend_from_slice(rrow);
                if eval_all(residual, &joined, ctx.params) {
                    counts.join_output += 1;
                    tagged.push((seq, joined));
                } else {
                    counts.dropped += 1;
                }
            }
        }
    }
    for f in build_files.into_iter().chain(probe_files) {
        f.destroy(ctx.disk);
    }
    ctx.absorb(counts);
    result?;
    tagged.sort_by_key(|&(seq, _)| seq);
    Ok(tagged.into_iter().map(|(_, t)| t).collect())
}

/// External merge sort: cut the input into consecutive runs sized to
/// the remaining memory budget, stable-sort and spill each, then merge
/// with ties broken by run index. Consecutive runs + stable run sort +
/// lowest-run-wins tie-breaking is exactly one big stable sort, so the
/// output is byte-identical to the in-memory path.
fn external_sort(
    ctx: &mut ExecCtx<'_>,
    rows: Vec<Tuple>,
    keys: &[usize],
    total_bytes: u64,
) -> Result<Vec<Tuple>, DbError> {
    let n = rows.len();
    let run_target = spill_partition_bytes(ctx).max(total_bytes.div_ceil(SPILL_MAX_PARTITIONS));
    let mut runs: Vec<SpillFile> = Vec::new();
    let mut cur: Vec<Tuple> = Vec::new();
    let mut cur_bytes = 0u64;
    let spill_run = |cur: &mut Vec<Tuple>, disk: &mut Disk| -> Result<SpillFile, DbError> {
        cur.sort_by(|a, b| cmp_keys(a, b, keys));
        let mut w = SpillWriter::new(disk);
        for t in cur.iter() {
            if let Err(e) = w.push(disk, &serialize_tuple(t)) {
                w.abandon(disk);
                return Err(e);
            }
        }
        cur.clear();
        w.finish(disk)
    };
    let mut result = Ok(());
    for (i, row) in rows.into_iter().enumerate() {
        if let Err(e) = gov_tick(ctx.governor, i) {
            result = Err(e);
            break;
        }
        cur_bytes += tuple_bytes(&row);
        cur.push(row);
        if cur_bytes >= run_target {
            match spill_run(&mut cur, ctx.disk) {
                Ok(f) => runs.push(f),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            cur_bytes = 0;
        }
    }
    if result.is_ok() && !cur.is_empty() {
        match spill_run(&mut cur, ctx.disk) {
            Ok(f) => runs.push(f),
            Err(e) => result = Err(e),
        }
    }
    if let Err(e) = result {
        for f in runs {
            f.destroy(ctx.disk);
        }
        return Err(e);
    }
    ctx.count_sort_runs(runs.len() as u64);
    ctx.count_spill(0, runs.iter().map(SpillFile::bytes).sum());
    // K-way merge: pick the smallest head, lowest run index on ties
    // (strict less-than never displaces an equal earlier run).
    let mut readers: Vec<crate::spill::SpillReader> = runs.iter().map(SpillFile::reader).collect();
    let mut heads: Vec<Option<Tuple>> = Vec::with_capacity(readers.len());
    let mut out = Vec::with_capacity(n);
    let mut merge = || -> Result<(), DbError> {
        for r in &mut readers {
            heads.push(read_spilled_tuple(r, ctx.disk)?);
        }
        loop {
            gov_tick(ctx.governor, out.len())?;
            let mut best: Option<usize> = None;
            for i in 0..heads.len() {
                if heads[i].is_none() {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(b) => {
                        let (hi, hb) = (heads[i].as_ref().unwrap(), heads[b].as_ref().unwrap());
                        if cmp_keys(hi, hb, keys) == std::cmp::Ordering::Less {
                            Some(i)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            let Some(b) = best else { break };
            out.push(heads[b].take().unwrap());
            heads[b] = read_spilled_tuple(&mut readers[b], ctx.disk)?;
        }
        Ok(())
    };
    let merged = merge();
    for f in runs {
        f.destroy(ctx.disk);
    }
    merged?;
    Ok(out)
}

/// Spilled duplicate elimination (DISTINCT / UNION / EXCEPT): rows are
/// hash-scattered on the whole tuple with input ordinals, each
/// partition is deduplicated independently (every duplicate of a tuple
/// shares its partition), and survivors merge back in ordinal order —
/// first occurrence wins, exactly like the in-memory hash set. For
/// EXCEPT the right side scatters with the same hash so each partition
/// carries its own exclusion set.
fn spill_dedup(
    ctx: &mut ExecCtx<'_>,
    rows: Vec<Tuple>,
    exclude: Option<Vec<Tuple>>,
    state_bytes: u64,
) -> Result<Vec<Tuple>, DbError> {
    let parts = spill_partition_count(ctx, state_bytes);
    let row_files = scatter_partitions(ctx.disk, ctx.governor, &rows, parts, None, true)?;
    drop(rows);
    let ex_files = match &exclude {
        None => Vec::new(),
        Some(ex) => match scatter_partitions(ctx.disk, ctx.governor, ex, parts, None, false) {
            Ok(files) => files,
            Err(e) => {
                for f in row_files {
                    f.destroy(ctx.disk);
                }
                return Err(e);
            }
        },
    };
    drop(exclude);
    let spilled: u64 = row_files
        .iter()
        .chain(ex_files.iter())
        .map(SpillFile::bytes)
        .sum();
    ctx.count_spill(parts as u64, spilled);
    let mut tagged: Vec<(u64, Tuple)> = Vec::new();
    let mut run = || -> Result<(), DbError> {
        for (p, rf) in row_files.iter().enumerate() {
            let mut excluded: Vec<Tuple> = Vec::new();
            if let Some(ef) = ex_files.get(p) {
                let mut reader = ef.reader();
                while let Some(t) = read_spilled_tuple(&mut reader, ctx.disk)? {
                    gov_tick(ctx.governor, excluded.len())?;
                    excluded.push(t);
                }
            }
            let (mut seqs, mut part) = (Vec::new(), Vec::new());
            let mut reader = rf.reader();
            while let Some(payload) = reader.next(ctx.disk)? {
                gov_tick(ctx.governor, part.len())?;
                let (seq, t) = decode_seq_tuple(&payload)?;
                seqs.push(seq);
                part.push(t);
            }
            let keep = first_occurrences(&part, &excluded);
            tagged.extend(
                seqs.into_iter()
                    .zip(part)
                    .zip(keep)
                    .filter_map(|(row, keep)| keep.then_some(row)),
            );
        }
        Ok(())
    };
    let outcome = run();
    for f in row_files.into_iter().chain(ex_files) {
        f.destroy(ctx.disk);
    }
    outcome?;
    tagged.sort_by_key(|&(seq, _)| seq);
    Ok(tagged.into_iter().map(|(_, t)| t).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(n: usize, workers: usize) -> Vec<usize> {
        let ranges = chunk_ranges(n, workers);
        // Chunks must tile [0, n) contiguously in order.
        let mut expect = 0;
        for r in &ranges {
            assert_eq!(r.start, expect, "gap or overlap at {r:?} for n={n}");
            assert!(r.end > r.start, "empty chunk {r:?} for n={n}");
            expect = r.end;
        }
        assert_eq!(expect, n);
        ranges.iter().map(|r| r.len()).collect()
    }

    /// Near the rows-per-worker floor — the regime the skew gauge flagged
    /// — remaining-rows sizing keeps partition cardinalities within one
    /// row of each other, so any residual skew is scheduler noise, not
    /// partitioning.
    #[test]
    fn partition_sizes_balanced_near_floor() {
        for n in [512, 513, 600, 767, 1023, 1024, 2048, 4097] {
            let workers = (n / PAR_MIN_ROWS_PER_WORKER).clamp(1, 4);
            let s = sizes(n, workers);
            assert_eq!(s.len(), workers);
            let (min, max) = (*s.iter().min().unwrap(), *s.iter().max().unwrap());
            assert!(
                max - min <= 1,
                "n={n} workers={workers}: row skew {s:?} exceeds one row"
            );
            assert!(
                min >= PAR_MIN_ROWS_PER_WORKER,
                "n={n}: chunk below spawn floor in {s:?}"
            );
        }
    }

    /// A worker count too large for the input folds the tail instead of
    /// starving threads below the spawn floor.
    #[test]
    fn partition_tail_folds_instead_of_starving() {
        assert_eq!(sizes(300, 4), vec![300]);
        assert_eq!(sizes(520, 2), vec![260, 260]);
        // 700/3 would leave ~233-row chunks (< floor): folds to one.
        assert_eq!(sizes(700, 3), vec![700]);
    }

    #[test]
    fn partition_degenerate_inputs() {
        assert_eq!(sizes(1, 8), vec![1]);
        assert_eq!(sizes(5, 1), vec![5]);
        // Empty inputs never reach chunk_ranges (par_run's serial
        // fallback handles them), but it must not panic or emit chunks.
        assert!(chunk_ranges(0, 4).is_empty());
    }
}
