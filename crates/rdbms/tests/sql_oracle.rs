//! SQL oracle: random DISTINCT, UNION, EXCEPT, equi-join, NOT EXISTS and
//! projection queries over mixed integer/string rows return exactly the
//! rows of a nested-loop reference evaluation, in the same order.
//!
//! Order is part of the contract checked here. A query without ORDER BY
//! reads its table in insertion order, keeps that order through filters,
//! projections and anti-joins, and keeps the first occurrence of each row
//! through DISTINCT, UNION and EXCEPT. Join queries carry an ORDER BY over
//! every output column, which fixes their order too. Every query runs with
//! in-memory operators and again with every operator forced through its
//! spill path. Random indexes steer the planner between hash joins,
//! index nested-loop joins and index-probing anti-joins. Large tables
//! exercise the runtime fallbacks from probing to hashing.
//!
//! A failure prints its seed; `oracle_case(seed)` replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbms::{Engine, SpillMode, Value};

type Row = Vec<Value>;

/// Random cases run by the test; each is a fresh database and 12 queries.
const CASES: u64 = 40;

fn int(rng: &mut StdRng) -> Value {
    Value::Int(rng.random_range(0..6i64))
}

fn text(rng: &mut StdRng) -> Value {
    Value::from(["", "x", "y", "xy"][rng.random_range(0..4usize)])
}

/// Mostly small tables, sometimes ones past the executor's 256-row
/// probe-vs-hash threshold.
fn table_len(rng: &mut StdRng) -> usize {
    if rng.random_bool(0.2) {
        rng.random_range(250..320usize)
    } else {
        rng.random_range(0..40usize)
    }
}

/// `t(a integer, b integer, s char)` and `u(a integer, s char, c integer)`.
struct Db {
    t: Vec<Row>,
    u: Vec<Row>,
}

impl Db {
    fn random(rng: &mut StdRng) -> Db {
        let n = table_len(rng);
        let t = (0..n)
            .map(|_| vec![int(rng), int(rng), text(rng)])
            .collect();
        let n = table_len(rng);
        let u = (0..n)
            .map(|_| vec![int(rng), text(rng), int(rng)])
            .collect();
        Db { t, u }
    }

    fn load(&self, rng: &mut StdRng) -> (Engine, Vec<String>) {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a integer, b integer, s char)")
            .unwrap();
        e.execute("CREATE TABLE u (a integer, s char, c integer)")
            .unwrap();
        let indexes = [
            "CREATE INDEX u_a ON u (a)",
            "CREATE INDEX u_as ON u (a, s)",
            "CREATE INDEX u_sa ON u (s, a)",
            "CREATE ORDERED INDEX u_a_ord ON u (a)",
            "CREATE INDEX t_a ON t (a)",
            "CREATE INDEX t_ab ON t (a, b)",
        ];
        let mut ddl = Vec::new();
        for sql in indexes {
            if rng.random_bool(0.3) {
                e.execute(sql).unwrap();
                ddl.push(sql.to_string());
            }
        }
        e.insert_rows("t", self.t.clone()).unwrap();
        e.insert_rows("u", self.u.clone()).unwrap();
        (e, ddl)
    }

    /// `SELECT a, s FROM t WHERE b < k`.
    fn t_a_s_below(&self, k: i64) -> Vec<Row> {
        let rows = self.t.iter().filter(|r| r[1] < Value::Int(k));
        rows.map(|r| vec![r[0].clone(), r[2].clone()]).collect()
    }

    /// `SELECT a, s FROM u WHERE c >= k`.
    fn u_a_s_from(&self, k: i64) -> Vec<Row> {
        let rows = self.u.iter().filter(|r| r[2] >= Value::Int(k));
        rows.map(|r| vec![r[0].clone(), r[1].clone()]).collect()
    }
}

/// Keep the first occurrence of each row not in `exclude`.
fn first_occurrences(rows: Vec<Row>, exclude: &[Row]) -> Vec<Row> {
    let mut out: Vec<Row> = Vec::new();
    for r in rows {
        if !exclude.contains(&r) && !out.contains(&r) {
            out.push(r);
        }
    }
    out
}

fn project(rows: &[Row], cols: &[usize]) -> Vec<Row> {
    rows.iter()
        .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
        .collect()
}

/// A query and its reference answer.
struct Case {
    sql: String,
    expected: Vec<Row>,
}

/// Column lists over `t`, with their positions.
const T_PROJECTIONS: [(&str, &[usize]); 7] = [
    ("*", &[0, 1, 2]),
    ("a, b, s", &[0, 1, 2]),
    ("s, a", &[2, 0]),
    ("a, a", &[0, 0]),
    ("b", &[1]),
    ("s", &[2]),
    ("a, s", &[0, 2]),
];

fn random_case(db: &Db, rng: &mut StdRng) -> Case {
    let k = rng.random_range(0..7i64);
    let k2 = rng.random_range(0..7i64);
    let t_b_ge = |r: &Row| r[1] >= Value::Int(k);
    match rng.random_range(0..6u32) {
        // Projection, identity or not, with or without DISTINCT.
        0 => {
            let (list, cols) = T_PROJECTIONS[rng.random_range(0..T_PROJECTIONS.len())];
            let distinct = rng.random_bool(0.5);
            let kept: Vec<Row> = db.t.iter().filter(|r| t_b_ge(r)).cloned().collect();
            let rows = project(&kept, cols);
            Case {
                sql: format!(
                    "SELECT {}{list} FROM t WHERE b >= {k}",
                    if distinct { "DISTINCT " } else { "" }
                ),
                expected: if distinct {
                    first_occurrences(rows, &[])
                } else {
                    rows
                },
            }
        }
        // UNION and UNION ALL of two filtered tables.
        1 => {
            let all = rng.random_bool(0.3);
            let rows = [db.t_a_s_below(k), db.u_a_s_from(k2)].concat();
            Case {
                sql: format!(
                    "SELECT a, s FROM t WHERE b < {k} UNION {}SELECT a, s FROM u WHERE c >= {k2}",
                    if all { "ALL " } else { "" }
                ),
                expected: if all {
                    rows
                } else {
                    first_occurrences(rows, &[])
                },
            }
        }
        // EXCEPT.
        2 => Case {
            sql: format!(
                "SELECT a, s FROM t WHERE b < {k} EXCEPT SELECT a, s FROM u WHERE c >= {k2}"
            ),
            expected: first_occurrences(db.t_a_s_below(k), &db.u_a_s_from(k2)),
        },
        // Equi-join of t and u on one or two keys (duplicate keys on both
        // sides), ordered by every output column.
        3 => {
            let two_keys = rng.random_bool(0.5);
            let distinct = rng.random_bool(0.3);
            let full = rng.random_bool(0.5);
            let mut rows = Vec::new();
            for x in db.t.iter().filter(|r| t_b_ge(r)) {
                for y in &db.u {
                    if x[0] == y[0] && (!two_keys || x[2] == y[1]) {
                        rows.push([x.clone(), y.clone()].concat());
                    }
                }
            }
            let (list, order, cols): (&str, &str, &[usize]) = if full {
                (
                    "x.a AS xa, x.b AS xb, x.s AS xs, y.a AS ya, y.s AS ys, y.c AS yc",
                    "xa, xb, xs, ya, ys, yc",
                    &[0, 1, 2, 3, 4, 5],
                )
            } else {
                ("y.c AS yc, x.s AS xs", "yc, xs", &[5, 2])
            };
            let mut rows = project(&rows, cols);
            if distinct {
                rows = first_occurrences(rows, &[]);
            }
            rows.sort();
            Case {
                sql: format!(
                    "SELECT {}{list} FROM t x, u y WHERE x.a = y.a{} AND x.b >= {k} ORDER BY {order}",
                    if distinct { "DISTINCT " } else { "" },
                    if two_keys { " AND x.s = y.s" } else { "" },
                ),
                expected: rows,
            }
        }
        // Self-join with duplicate keys.
        4 => {
            let mut rows = Vec::new();
            for x in &db.t {
                for y in &db.t {
                    if x[0] == y[1] {
                        rows.push(vec![x[2].clone(), y[0].clone(), y[2].clone()]);
                    }
                }
            }
            rows.sort();
            Case {
                sql: "SELECT x.s AS xs, y.a AS ya, y.s AS ys FROM t x, t y \
                      WHERE x.a = y.b ORDER BY xs, ya, ys"
                    .to_string(),
                expected: rows,
            }
        }
        // NOT EXISTS, correlated on one or two keys or uncorrelated.
        _ => {
            let shape = rng.random_range(0..3u32);
            let (list, cols) = T_PROJECTIONS[rng.random_range(0..T_PROJECTIONS.len())];
            let matches = |x: &Row, y: &Row| match shape {
                0 => x[0] == y[0],
                1 => x[0] == y[0] && x[2] == y[1],
                _ => y[2] >= Value::Int(k2),
            };
            let kept: Vec<Row> =
                db.t.iter()
                    .filter(|x| !db.u.iter().any(|y| matches(x, y)))
                    .cloned()
                    .collect();
            let cond = match shape {
                0 => "y.a = x.a".to_string(),
                1 => "y.a = x.a AND y.s = x.s".to_string(),
                _ => format!("y.c >= {k2}"),
            };
            let list = if list == "*" {
                "*".to_string()
            } else {
                list.split(", ")
                    .map(|c| format!("x.{c}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            Case {
                sql: format!(
                    "SELECT {list} FROM t x WHERE NOT EXISTS (SELECT * FROM u y WHERE {cond})"
                ),
                expected: project(&kept, cols),
            }
        }
    }
}

/// Run one seeded case: a random database, then 12 random queries, each
/// with in-memory and with forced-spill operators.
fn oracle_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = Db::random(&mut rng);
    let (mut e, ddl) = db.load(&mut rng);
    for _ in 0..12 {
        let case = random_case(&db, &mut rng);
        for mode in [SpillMode::Enabled, SpillMode::Forced] {
            e.set_spill_mode(mode);
            let got = match e.execute(&case.sql) {
                Ok(rs) => rs.rows,
                Err(err) => panic!("seed {seed}: {} failed ({mode:?}): {err}", case.sql),
            };
            assert!(
                got == case.expected,
                "seed {seed}: {} ({mode:?}, indexes {ddl:?}, |t| = {}, |u| = {})\n\
                 got      {got:?}\nexpected {:?}",
                case.sql,
                db.t.len(),
                db.u.len(),
                case.expected,
            );
        }
    }
}

#[test]
fn random_queries_match_the_nested_loop_reference() {
    for seed in 0..CASES {
        oracle_case(seed);
    }
}
