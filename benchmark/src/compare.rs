//! `compare <setA.json> <setB.json>`: per workload and end-to-end metric,
//! each set's median and quartiles, how many pairs B wins, and whether B
//! stays within the metric's `BENCHMARK.json` bound.
//!
//! A set is the JSON array `--json <path>` appends run records to. Runs
//! pair by seed when both sets hold the same seeds, else by order. The
//! gain rule is the choosing-metrics one: B must win at least nine tenths
//! of the pairs (ties count for neither side) and the medians must differ
//! by more than A's interquartile range. A gain does not count on a
//! workload where B's median share of failed operation attempts is higher
//! than A's; each workload's first row compares that share.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::workloads::Workload;

/// One end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` contract of a `BENCHMARK.json`.
///
/// # Errors
///
/// A message if the file is unreadable or lacks a well-formed
/// `end_to_end` list.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .into(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One untraced run record of a set.
#[derive(Debug, Clone)]
struct Record {
    workload: String,
    seed: u64,
    /// Failed operation attempts over all attempts in the measured window.
    failed_share: f64,
    metrics: BTreeMap<String, f64>,
}

fn load_set(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .as_array()
        .ok_or("a set is a JSON array of run records")?;
    let mut out = Vec::new();
    for run in runs {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("a run record lacks metrics")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        let count = |k: &str| {
            run.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("a run record lacks {k}"))
        };
        out.push(Record {
            workload: run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("a run record lacks its workload")?
                .into(),
            seed: run.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            failed_share: count("failed")? / count("attempted")?.max(1.0),
            metrics,
        });
    }
    Ok(out)
}

/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method): the three quartile cut points.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// The interquartile range of `values` as a share of their median (0 for
/// fewer than two values).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// Renders the comparison of set `b` against baseline set `a`; the flag
/// is true when some metric of some workload is worse than its bound.
///
/// # Errors
///
/// A message if a file is unreadable or malformed.
pub fn compare(a: &Path, b: &Path, bounds: &Path) -> Result<(String, bool), String> {
    let bounds = load_bounds(bounds)?;
    let (a, b) = (load_set(a)?, load_set(b)?);
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<15} {:<19} {:>38} {:>38} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "B vs A", "bound"
    );
    for w in Workload::ALL {
        let runs_a: Vec<&Record> = a.iter().filter(|r| r.workload == w.name()).collect();
        let runs_b: Vec<&Record> = b.iter().filter(|r| r.workload == w.name()).collect();
        if runs_a.is_empty() || runs_b.is_empty() {
            continue;
        }
        let pairs = pair_up(&runs_a, &runs_b);
        let fa: Vec<f64> = runs_a.iter().map(|r| r.failed_share).collect();
        let fb: Vec<f64> = runs_b.iter().map(|r| r.failed_share).collect();
        let more_failures = crate::median(&fb) > crate::median(&fa);
        if fa.len() >= 2 && fb.len() >= 2 {
            let (qa, qb) = (quartiles(&fa), quartiles(&fb));
            let fewer = pairs
                .iter()
                .filter(|(ra, rb)| rb.failed_share < ra.failed_share)
                .count();
            let _ = writeln!(
                out,
                "{:<15} {:<19} {:>38} {:>38} {:>7} {:>+7.2}% {:>6}  {}",
                w.name(),
                "failed_share (ratio)",
                fmt_q(qa),
                fmt_q(qb),
                format!("{fewer}/{}", pairs.len()),
                (qb[1] - qa[1]) / qa[1].abs().max(f64::MIN_POSITIVE) * 100.0,
                "-",
                if more_failures {
                    "more reads fail: no gain counts"
                } else {
                    "no more failures"
                },
            );
        }
        for m in &bounds {
            let va: Vec<f64> = runs_a
                .iter()
                .filter_map(|r| r.metrics.get(&m.name).copied())
                .collect();
            let vb: Vec<f64> = runs_b
                .iter()
                .filter_map(|r| r.metrics.get(&m.name).copied())
                .collect();
            if va.len() < 2 || vb.len() < 2 {
                continue;
            }
            let qa = quartiles(&va);
            let qb = quartiles(&vb);
            let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
            let wins = pairs
                .iter()
                .filter(
                    |(ra, rb)| match (ra.metrics.get(&m.name), rb.metrics.get(&m.name)) {
                        (Some(&x), Some(&y)) => better(y, x),
                        _ => false,
                    },
                )
                .count();
            let change = (qb[1] - qa[1]) / qa[1].abs().max(f64::MIN_POSITIVE);
            let worse = if m.higher_is_better { -change } else { change };
            let all_better = vb.iter().all(|&y| va.iter().all(|&x| better(y, x)));
            let verdict = if worse > m.bound {
                regressed = true;
                "out of bound"
            } else if spread(&va) > m.bound && !all_better {
                "unresolved (A's spread exceeds the bound)"
            } else if wins * 10 >= pairs.len() * 9
                && better(qb[1], qa[1])
                && (qb[1] - qa[1]).abs() > qa[2] - qa[0]
            {
                if more_failures {
                    "within bound (gain void: more reads fail)"
                } else {
                    "within bound, gain"
                }
            } else {
                "within bound"
            };
            let _ = writeln!(
                out,
                "{:<15} {:<19} {:>38} {:>38} {:>7} {:>+7.2}% {:>5.0}%  {verdict}",
                w.name(),
                format!("{} ({})", m.name, m.unit),
                fmt_q(qa),
                fmt_q(qb),
                format!("{wins}/{}", pairs.len()),
                change * 100.0,
                m.bound * 100.0,
            );
        }
    }
    Ok((out, regressed))
}

fn fmt_q([q1, q2, q3]: [f64; 3]) -> String {
    format!("{} [{}, {}]", sig(q2), sig(q1), sig(q3))
}

/// Six significant digits.
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let digits = (5 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.digits$}")
}

/// Pairs runs by seed when every seed of `a` appears in `b`, else by order.
fn pair_up<'a>(a: &[&'a Record], b: &[&'a Record]) -> Vec<(&'a Record, &'a Record)> {
    let by_seed: Vec<_> = a
        .iter()
        .filter_map(|ra| b.iter().find(|rb| rb.seed == ra.seed).map(|rb| (*ra, *rb)))
        .collect();
    if by_seed.len() == a.len() {
        by_seed
    } else {
        a.iter().copied().zip(b.iter().copied()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }
}
