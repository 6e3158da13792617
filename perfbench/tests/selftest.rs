//! Self-tests of the benchmark: the oracle agrees with the system at tiny
//! sizes, the order statistics match their definition, and the output
//! and `BENCHMARK.json` name every metric.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::oracle;
use perfbench::report::{report_line, result_line};
use perfbench::run::{run, same_answer, RunConfig, RunResult};
use perfbench::stats::{quantile, Summary};
use perfbench::workload::{Sizes, Workload};
use perfbench::{END_TO_END, PER_LAYER};
use rdbms::Value;
use std::collections::{BTreeSet, HashSet};

fn tiny_run(workload: Workload, trace: bool) -> (RunConfig, RunResult) {
    let cfg = RunConfig {
        workload,
        seed: 5,
        seconds: 0.2,
        trace,
        sizes: Sizes::TINY,
    };
    let result = run(&cfg).expect("tiny run sets up");
    (cfg, result)
}

#[test]
fn oracle_agrees_with_the_system_on_every_workload() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (_, r) = tiny_run(workload, trace);
            assert!(r.attempted > 0, "{workload:?}: nothing ran");
            assert_eq!(r.failed, 0, "{workload:?}: {:?}", r.errors);
            assert_eq!(r.mismatches, 0, "{workload:?}: {:?}", r.errors);
        }
    }
}

#[test]
fn oracle_closure_of_a_small_graph() {
    let edges = [(1, 2), (2, 3), (3, 4), (5, 6)];
    let got: BTreeSet<(i32, i32)> = oracle::closure(&edges).into_iter().collect();
    let want: BTreeSet<(i32, i32)> = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4), (5, 6)]
        .into_iter()
        .collect();
    assert_eq!(got, want);
    let mut below_1 = oracle::descendants(&edges)
        .remove(&1)
        .expect("node 1 has descendants");
    below_1.sort();
    assert_eq!(below_1, vec![2, 3, 4]);
}

#[test]
fn answer_check_rejects_missing_extra_and_duplicate_rows() {
    let row = |s: &str| vec![Value::Str(s.into())];
    let expected: HashSet<Vec<Value>> = [row("b"), row("c")].into_iter().collect();
    assert!(same_answer(&[row("c"), row("b")], &expected));
    assert!(!same_answer(&[row("b")], &expected));
    assert!(!same_answer(&[row("b"), row("c"), row("d")], &expected));
    assert!(!same_answer(&[row("b"), row("b")], &expected));
}

#[test]
fn quartiles_match_the_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.25), Some(2.75));
    assert_eq!(quantile(&v, 0.5), Some(5.5));
    assert_eq!(quantile(&v, 0.75), Some(8.25));
    assert!((quantile(&v, 0.9).unwrap() - 9.9).abs() < 1e-12);
    // Ranks outside the sample clamp to its ends.
    assert_eq!(quantile(&[3.0, 4.0], 0.25), Some(3.0));
    assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
    assert_eq!(quantile(&[], 0.5), None);

    let s = Summary::of(&[5.0, 1.0, 3.0]).expect("non-empty");
    assert_eq!((s.n, s.p25, s.p50, s.p75), (3, 1.0, 3.0, 5.0));
    assert!(Summary::of(&[]).is_none());
}

/// Every `"name": "<x>"` in `BENCHMARK.json`.
fn benchmark_json_names() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    text.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn output_and_benchmark_json_name_every_metric() {
    for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let (cfg, r) = tiny_run(Workload::TreeLfp, trace);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = list.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        let line = result_line(&r);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": "), "{line}");
        for (name, unit) in list {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        let report = report_line(&cfg, &r);
        for key in [
            "\"seed\": 5",
            "\"held_out_seed\"",
            "\"nproc\"",
            "\"git_commit\"",
            "\"rustc\"",
        ] {
            assert!(report.contains(key), "{key} missing from {report}");
        }
    }

    let listed = benchmark_json_names();
    let defined: BTreeSet<String> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0.to_string())
        .chain(Workload::ALL.iter().map(|w| w.name().to_string()))
        .collect();
    assert_eq!(listed, defined);
}
