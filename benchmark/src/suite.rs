//! The modes that run more than one workload. Each workload runs in a
//! process of its own (this executable, re-invoked), so `peak_rss_mb`
//! and allocator state never leak from one to the next.

use crate::json::{self, Value};
use crate::spec::{self, Better};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// One child run, as its result line reported it.
#[derive(Debug, Clone)]
pub struct ChildResult {
    pub correct: bool,
    pub values: BTreeMap<String, f64>,
    pub medians: BTreeMap<String, f64>,
    pub calib_ms: f64,
}

fn numbers(value: Option<&Value>, field: Option<&str>) -> BTreeMap<String, f64> {
    value
        .and_then(Value::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, v)| {
            let v = match field {
                Some(field) => v.get(field)?,
                None => v,
            };
            Some((name.clone(), v.as_f64()?))
        })
        .collect()
}

/// Parses a result line (with `--detail` extras, when present).
pub fn parse_result(line: &str) -> Result<ChildResult, String> {
    let doc = json::parse(line)?;
    Ok(ChildResult {
        correct: doc
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("result line has no `correct`")?,
        values: numbers(doc.get("metrics"), Some("value")),
        medians: numbers(doc.get("p50"), None),
        calib_ms: doc.get("calib_ms").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

/// Runs one workload in a child process, echoing its output; the child's
/// last line is its result.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: &Path,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .arg("--detail")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child, so none outlives this call.
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    for line in stdout.lines().filter(|l| *l != last) {
        println!("{line}");
    }
    let result = parse_result(last).map_err(|e| format!("{workload}: {e}: {last:?}"))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload} (trace {}) failed: {}, correct = {}",
            u8::from(trace),
            output.status,
            result.correct
        ));
    }
    Ok(result)
}

/// The default mode: every workload, end to end — and layer by layer
/// with `trace`. `Err` lists what failed.
pub fn run_all(
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: &Path,
) -> Result<(), String> {
    let mut failures = Vec::new();
    for (workload, _) in spec::WORKLOADS {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            println!("== {workload} (seed {seed}, trace {})", u8::from(traced));
            match run_child(workload, seed, seconds, traced, smoke, out_dir) {
                Ok(result) => {
                    if smoke {
                        if let Err(e) = check_schema(&result, traced) {
                            failures.push(format!("{workload}: {e}"));
                        }
                    }
                }
                Err(e) => failures.push(e),
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// A result line carries exactly the metrics its mode declares, each a
/// finite number, none of the end-to-end ones zero.
pub fn check_schema(result: &ChildResult, traced: bool) -> Result<(), String> {
    let table: &[spec::MetricSpec] = if traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
    let mut got: Vec<&str> = result.values.keys().map(String::as_str).collect();
    let mut want = expected.clone();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!("metrics {got:?} are not the declared {want:?}"));
    }
    for (name, value) in &result.values {
        if !value.is_finite() || (!traced && *value == 0.0) {
            return Err(format!("{name} = {value}"));
        }
    }
    Ok(())
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `--selfcheck`: the full end-to-end set twice on this build. Prints,
/// per workload and metric, both values, their relative difference and
/// the bound; fails when any pair disagrees by more than the bound.
pub fn selfcheck(seed: u64, seconds: f64, out_dir: &Path) -> Result<(), String> {
    let mut sets: Vec<BTreeMap<&str, ChildResult>> = Vec::new();
    for pass in 1..=2 {
        let mut set = BTreeMap::new();
        for (workload, _) in spec::WORKLOADS {
            println!("== pass {pass}: {workload} (seed {seed})");
            set.insert(
                workload,
                run_child(workload, seed, seconds, false, false, out_dir)?,
            );
        }
        sets.push(set);
    }
    let mut breaches = Vec::new();
    println!(
        "\n{:<22} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (workload, _) in spec::WORKLOADS {
        let (first, second) = (&sets[0][workload], &sets[1][workload]);
        for m in spec::END_TO_END {
            let (a, b) = (first.values[m.name], second.values[m.name]);
            let diff = worsening(a, b, m.better);
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let mut flags = String::new();
            if diff.abs() > bound {
                flags.push_str(" BREACH");
                breaches.push(format!("{workload}/{}: {a} vs {b}", m.name));
            }
            for run in [first, second] {
                if let Some(p50) = run.medians.get(m.name) {
                    if p50 / run.values[m.name] > 1.25 {
                        flags.push_str(" noisy(p50/p10)");
                        break;
                    }
                }
            }
            println!(
                "{workload:<22} {:<24} {a:>14.6} {b:>14.6} {:>+8.2}% {:>6.1}%{flags}",
                m.name,
                diff * 100.0,
                bound * 100.0
            );
        }
        let calib = (second.calib_ms - first.calib_ms) / first.calib_ms;
        if calib.abs() > 0.10 {
            println!(
                "{workload:<22} noisy: harness.calib_ms moved {:+.1}% between the passes",
                calib * 100.0
            );
        }
    }
    if breaches.is_empty() {
        println!("\nselfcheck: both passes agree within every bound (seed {seed})");
        if seed != spec::HELD_OUT_SEED {
            println!(
                "repeat with --seed {} (held out: no shape was tuned on it)",
                spec::HELD_OUT_SEED
            );
        }
        Ok(())
    } else {
        Err(format!("selfcheck breaches:\n{}", breaches.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(worsening(100.0, 107.0, Better::Lower), 0.07);
        assert_eq!(worsening(100.0, 93.0, Better::Lower), -0.07);
        assert_eq!(worsening(1.0, 0.5, Better::Higher), 0.5);
        assert_eq!(worsening(41_017.0, 41_017.0, Better::Lower), 0.0);
    }

    #[test]
    fn result_lines_parse_with_and_without_detail() {
        let plain = parse_result(
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"round_ms": {"value": 2.5, "unit": "ms"}}}"#,
        )
        .unwrap();
        assert!(plain.correct);
        assert_eq!(plain.values["round_ms"], 2.5);
        assert!(plain.medians.is_empty());
        let detailed = parse_result(
            r#"{"correct": false, "attempted": 3, "failed": 1, "metrics": {}, "calib_ms": 1.5, "p50": {"round_ms": 3.0}}"#,
        )
        .unwrap();
        assert!(!detailed.correct);
        assert_eq!(detailed.calib_ms, 1.5);
        assert_eq!(detailed.medians["round_ms"], 3.0);
        assert!(parse_result("not json").is_err());
        assert!(parse_result("{}").is_err());
    }

    #[test]
    fn schema_check_wants_exactly_the_declared_metrics() {
        let mut result = ChildResult {
            correct: true,
            values: spec::END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), 1.0))
                .collect(),
            medians: BTreeMap::new(),
            calib_ms: 1.0,
        };
        assert!(check_schema(&result, false).is_ok());
        assert!(check_schema(&result, true).is_err());
        result.values.insert("round_ms".to_string(), 0.0);
        assert!(check_schema(&result, false).is_err());
        result.values.remove("round_ms");
        assert!(check_schema(&result, false).is_err());
    }
}
