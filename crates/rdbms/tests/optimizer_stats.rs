//! Statistics subsystem invariants.
//!
//! Three angles on the optimizer's statistics: a property test that drives
//! a random interleaving of inserts, point deletes, truncates, rollbacks,
//! recoveries and explicit analyzes through the engine — on a persistent
//! and on a temporary table — and checks that every installed estimate
//! stays inside its documented bounds, that a temporary table's write-path
//! sample is used exactly while it covers the live rows, and that the same
//! statement sequence builds identical statistics; a test that the write
//! path samples exactly what a heap rescan samples; and a shared-engine
//! test that a session plans against the statistics of its own MVCC
//! snapshot rather than whatever a concurrent committer has since
//! installed.

use proptest::prelude::*;
use rdbms::stats::RESERVOIR_CAP;
use rdbms::{Engine, SharedEngine, Value};

#[derive(Debug, Clone)]
enum StatsOp {
    /// Append a batch of rows with keys drawn from a small domain.
    Insert(Vec<i64>),
    /// Point delete of every row with the given key.
    DeleteEq(i64),
    /// Drop all content, keeping the schema.
    Truncate,
    /// Force a statistics refresh regardless of the churn threshold.
    Analyze,
    /// Insert a batch inside a transaction, then roll it back.
    RolledBack(Vec<i64>),
    /// Flush, then run crash recovery on the healthy engine.
    Recover,
}

fn arb_stats_op() -> impl Strategy<Value = StatsOp> {
    prop_oneof![
        4 => prop::collection::vec(0i64..64, 1..40).prop_map(StatsOp::Insert),
        2 => (0i64..64).prop_map(StatsOp::DeleteEq),
        1 => Just(StatsOp::Truncate),
        1 => Just(StatsOp::Analyze),
        1 => prop::collection::vec(0i64..64, 1..8).prop_map(StatsOp::RolledBack),
        1 => Just(StatsOp::Recover),
    ]
}

fn rescans(e: &Engine) -> u64 {
    e.metrics().counter_value("stats.rescans")
}

/// Drive `ops` through a fresh engine holding table `t` — temporary or
/// persistent — checking answers against an in-memory model, estimate
/// bounds, and when the write-path sample may stand in for a rescan.
/// Returns the statistics after every step, rendered for comparison.
fn churn(ops: &[StatsOp], temp: bool) -> Result<Vec<String>, TestCaseError> {
    let mut e = Engine::new();
    e.enable_wal();
    let kind = if temp { "TEMP TABLE" } else { "TABLE" };
    e.execute(&format!("CREATE {kind} t (k int, v int)"))
        .unwrap();
    e.execute("CREATE INDEX t_k ON t (k)").unwrap();
    let mut model: Vec<(i64, i64)> = Vec::new();
    let mut next_v = 0i64;
    // Whether the table should hold a write-path sample right now.
    let mut sampled = temp;
    let mut history = Vec::new();

    for op in ops {
        let rescans_before = rescans(&e);
        match op {
            StatsOp::Insert(keys) => {
                let rows: Vec<Vec<Value>> = keys
                    .iter()
                    .map(|&k| {
                        next_v += 1;
                        model.push((k, next_v));
                        vec![Value::Int(k), Value::Int(next_v)]
                    })
                    .collect();
                e.insert_rows("t", rows).unwrap();
            }
            StatsOp::DeleteEq(k) => {
                let rs = e.execute(&format!("DELETE FROM t WHERE k = {k}")).unwrap();
                let expect = model.iter().filter(|(mk, _)| mk == k).count() as u64;
                prop_assert_eq!(rs.affected, expect);
                model.retain(|(mk, _)| mk != k);
                sampled = false;
            }
            StatsOp::Truncate => {
                e.execute("TRUNCATE TABLE t").unwrap();
                model.clear();
                sampled = temp;
                let stats = e.table_stats("t").unwrap();
                prop_assert!(
                    stats.columns.is_empty(),
                    "truncate drops estimates that describe vanished rows"
                );
                prop_assert_eq!(stats.mods_since_analyze, 0);
            }
            StatsOp::Analyze => {
                e.analyze_table("t").unwrap();
                let stats = e.table_stats("t").unwrap();
                prop_assert_eq!(stats.analyzed_rows, model.len() as u64);
                prop_assert_eq!(stats.mods_since_analyze, 0);
                prop_assert_eq!(
                    rescans(&e) - rescans_before,
                    u64::from(!sampled),
                    "an analyze rescans exactly when no sample covers the table"
                );
            }
            StatsOp::RolledBack(keys) => {
                e.begin().unwrap();
                let rows: Vec<Vec<Value>> = keys
                    .iter()
                    .map(|&k| vec![Value::Int(k), Value::Int(-1)])
                    .collect();
                e.insert_rows("t", rows).unwrap();
                e.rollback().unwrap();
                sampled = false;
            }
            StatsOp::Recover => {
                e.flush().unwrap();
                e.recover().unwrap();
                sampled = false;
            }
        }
        let live = e.table_len("t").unwrap();
        prop_assert_eq!(live, model.len() as u64);
        check_stats_bounds(&e, live)?;
        let stats = e.table_stats("t").unwrap();
        prop_assert_eq!(stats.sample.is_some(), sampled, "after {:?}", op);
        if sampled {
            prop_assert!(stats.sample_covering(live).is_some());
            prop_assert_eq!(
                rescans(&e),
                rescans_before,
                "a covering sample makes every analyze scan-free"
            );
        }
        history.push(format!("{stats:?}"));
    }

    // Stale or fresh, estimates never change answers.
    let probe = 3i64;
    let rs = e
        .execute(&format!("SELECT v FROM t WHERE k = {probe}"))
        .unwrap();
    let expect = model.iter().filter(|(k, _)| *k == probe).count();
    prop_assert_eq!(rs.rows.len(), expect);
    Ok(history)
}

/// Every estimate the engine installs must stay inside its documented
/// bounds, no matter what the table has been through.
fn check_stats_bounds(e: &Engine, live: u64) -> Result<(), TestCaseError> {
    let stats = e.table_stats("t").expect("table exists");
    if stats.columns.is_empty() {
        return Ok(());
    }
    prop_assert_eq!(stats.columns.len(), 2, "estimates parallel the schema");
    prop_assert!(
        stats.analyzed_rows <= live || stats.mods_since_analyze > 0,
        "analyzed_rows {} can only exceed live {} after later deletes",
        stats.analyzed_rows,
        live
    );
    for col in &stats.columns {
        prop_assert!(
            col.n_distinct >= 1,
            "analyzed column saw at least one value"
        );
        prop_assert!(
            col.n_distinct <= stats.analyzed_rows,
            "n_distinct {} exceeds rows at analyze {}",
            col.n_distinct,
            stats.analyzed_rows
        );
        let sel = col.eq_selectivity();
        prop_assert!(sel > 0.0 && sel <= 1.0, "eq selectivity {sel} out of (0,1]");
        prop_assert!(col.min <= col.max);
        if let Some(h) = &col.histogram {
            prop_assert!(h.hi > h.lo, "degenerate domains carry no histogram");
            prop_assert!(h.sampled <= RESERVOIR_CAP as u64);
            prop_assert!(h.sampled <= stats.analyzed_rows);
            prop_assert_eq!(h.counts.iter().sum::<u64>(), h.sampled);
            let whole = h.range_fraction(None, None);
            prop_assert!(
                (whole - 1.0).abs() < 1e-9,
                "whole-domain fraction {whole} != 1"
            );
            let half = h.range_fraction(Some(h.lo), Some((h.lo + h.hi) / 2));
            prop_assert!((0.0..=1.0).contains(&half));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random insert/delete/truncate/analyze/rollback/recover interleavings
    /// never push an estimate outside its bounds, and never corrupt query
    /// answers: the engine's row count and a point lookup always match a
    /// replayed in-memory model of the table. A temporary table analyzes
    /// from its write-path sample while the sample covers the live rows
    /// and falls back to a rescan after a delete, a rollback or a recovery;
    /// either way, replaying the same statements builds identical
    /// statistics at every step.
    #[test]
    fn estimates_stay_bounded_under_churn(ops in prop::collection::vec(arb_stats_op(), 1..24)) {
        churn(&ops, false)?;
        let temp = churn(&ops, true)?;
        prop_assert_eq!(&temp, &churn(&ops, true)?, "replay diverged");
    }

    /// Analyzing twice with no interleaved churn is a fixpoint: sampling is
    /// seeded deterministically per version, but the estimates describe the
    /// same rows, so distinct counts and histograms stay within bounds and
    /// the row bookkeeping is identical.
    #[test]
    fn reanalyze_without_churn_keeps_bounds(keys in prop::collection::vec(0i64..16, 1..200)) {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (k int, v int)").unwrap();
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| vec![Value::Int(k), Value::Int(i as i64)])
            .collect();
        e.insert_rows("t", rows).unwrap();
        e.analyze_table("t").unwrap();
        let first = e.table_stats("t").unwrap().clone();
        e.analyze_table("t").unwrap();
        let second = e.table_stats("t").unwrap();
        prop_assert_eq!(second.version, first.version + 1);
        prop_assert_eq!(second.analyzed_rows, first.analyzed_rows);
        let live = e.table_len("t").unwrap();
        check_stats_bounds(&e, live)?;
    }
}

/// The write path samples exactly what a heap rescan samples: a fresh
/// temporary table and a persistent table of the same name, filled with
/// the same rows, get identical estimates from their first analyze — the
/// temporary one without reading its heap.
#[test]
fn write_path_sample_matches_a_rescan() {
    let rows: Vec<Vec<Value>> = (0..2000)
        .map(|i| vec![Value::Int(i % 97), Value::Int(i * 7 % 1013)])
        .collect();
    let mut stats = Vec::new();
    for kind in ["TEMP TABLE", "TABLE"] {
        let mut e = Engine::new();
        e.execute(&format!("CREATE {kind} t (k int, v int)"))
            .unwrap();
        // One batch: the first auto-analyze sees all 2000 rows.
        e.insert_rows("t", rows.clone()).unwrap();
        let s = e.table_stats("t").unwrap();
        assert_eq!((s.version, s.analyzed_rows), (1, 2000));
        let scans = rescans(&e);
        assert_eq!(scans, u64::from(kind == "TABLE"), "{kind}");
        stats.push(format!("{:?}", s.columns));
    }
    assert_eq!(stats[0], stats[1]);
}

/// A forked session keeps planning against its snapshot's statistics: a
/// concurrent committer's auto-analyze moves the live stats version, but
/// the open session neither sees the new rows nor the new estimates until
/// it refreshes.
#[test]
fn session_plans_use_snapshot_consistent_stats() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (k int, v int)").unwrap();
    e.execute("CREATE INDEX t_k ON t (k)").unwrap();
    let rows: Vec<Vec<Value>> = (0..64)
        .map(|i| vec![Value::Int(i % 8), Value::Int(i)])
        .collect();
    e.insert_rows("t", rows).unwrap();
    e.analyze_table("t").unwrap();
    let shared = SharedEngine::new(e);

    let mut reader = shared.session();
    let before = reader.snapshot().table_stats("t").unwrap().clone();
    assert!(!before.columns.is_empty(), "seed table was analyzed");

    // A second session commits enough churn to trip the live auto-analyze.
    let mut writer = shared.session();
    let bulk: Vec<Vec<Value>> = (0..2048)
        .map(|i| vec![Value::Int(i % 512), Value::Int(1000 + i)])
        .collect();
    writer.insert_rows("t", bulk).unwrap();

    let (live_version, live_rows) = shared.with_live(|live| {
        (
            live.table_stats("t").unwrap().version,
            live.table_len("t").unwrap(),
        )
    });
    assert!(
        live_version > before.version,
        "bulk insert re-analyzed the live table ({live_version} vs {before_v})",
        before_v = before.version
    );
    assert_eq!(live_rows, 64 + 2048);

    // The open session still plans from its fork: same stats version, same
    // row count, and an EXPLAIN costed from the old world.
    let snap_stats = reader.snapshot().table_stats("t").unwrap();
    assert_eq!(snap_stats.version, before.version);
    assert_eq!(snap_stats.analyzed_rows, before.analyzed_rows);
    assert_eq!(reader.table_len("t").unwrap(), 64);
    let rs = reader.execute("SELECT v FROM t WHERE k = 3").unwrap();
    assert_eq!(
        rs.rows.len(),
        8,
        "snapshot answers ignore concurrent commits"
    );

    // Refreshing adopts the committed world and its statistics.
    reader.refresh().unwrap();
    let refreshed = reader.snapshot().table_stats("t").unwrap();
    assert_eq!(refreshed.version, live_version);
    assert_eq!(reader.table_len("t").unwrap(), 64 + 2048);
}
