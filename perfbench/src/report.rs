//! The two output lines: a report with run metadata and sample
//! quartiles, then the result line (`correct`, `attempted`, `failed`,
//! `metrics`), which must come last.

use crate::run::{RunConfig, RunResult};
use crate::HELD_OUT_SEED;
use std::fmt::Write as _;
use std::process::Command;

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// Non-finite values cannot occur in JSON; they print as 0 and the run
/// is already marked incorrect.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The final line of a run's output.
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// First line of `cmd args` on stdout, or `"unknown"`. The child is
/// waited for.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The report line: where and how the run was made, and the sample
/// sets behind its metrics.
pub fn report_line(cfg: &RunConfig, r: &RunResult) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = String::from("{\"report\": \"perfbench\"");
    let _ = write!(
        out,
        ", \"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"host\": {}, \"nproc\": {nproc}, \
         \"git_commit\": {}, \"rustc\": {}, \"profile\": {}",
        json_str(cfg.workload.name()),
        cfg.seed,
        json_num(cfg.seconds),
        cfg.trace,
        json_str(&host),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["--version"])),
        json_str(profile),
    );
    // glibc reads these when the process starts; BENCHMARK.json's command
    // sets them so that whether freed memory goes back to the OS (which
    // varies with each process's heap layout) does not make latencies
    // bimodal from run to run.
    let malloc: Vec<String> = ["MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"]
        .iter()
        .map(|var| {
            let v = std::env::var(var).unwrap_or_else(|_| "default".into());
            format!("{}: {}", json_str(var), json_str(&v))
        })
        .collect();
    let _ = write!(
        out,
        ", \"config\": {{\"sessions\": {}, \"wal\": \"on for update_mix (shared engine), \
         off for the private read sessions\", \"group_commit\": \"default (on)\", \
         \"fsync_micros\": 0, \"buffer_pool_frames\": {}, {}}}",
        cfg.sizes.sessions,
        rdbms::Engine::new().pool_frames(),
        malloc.join(", "),
    );
    let errors = if r.attempted > 0 {
        r.failed as f64 / r.attempted as f64
    } else {
        0.0
    };
    let _ = write!(
        out,
        ", \"error_rate\": {}, \"mismatches\": {}",
        json_num(errors),
        r.mismatches
    );
    let samples: Vec<String> = r
        .samples
        .iter()
        .map(|(name, s)| {
            format!(
                "{}: {{\"n\": {}, \"p25\": {}, \"p50\": {}, \"p75\": {}, \"p90\": {}}}",
                json_str(name),
                s.n,
                json_num(s.p25),
                json_num(s.p50),
                json_num(s.p75),
                json_num(s.p90)
            )
        })
        .collect();
    let _ = write!(out, ", \"samples\": {{{}}}", samples.join(", "));
    let props: Vec<String> = r
        .properties
        .iter()
        .map(|(what, ok)| format!("{}: {ok}", json_str(what)))
        .collect();
    let _ = write!(out, ", \"properties\": {{{}}}", props.join(", "));
    let repeats: Vec<String> = r.exact_repeats.iter().map(|m| json_str(m)).collect();
    let _ = write!(out, ", \"exact_repeat_counters\": [{}]", repeats.join(", "));
    let errors: Vec<String> = r.errors.iter().map(|e| json_str(e)).collect();
    let _ = write!(out, ", \"errors\": [{}]}}", errors.join(", "));
    out
}
