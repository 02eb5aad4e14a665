//! `perf compare A B`: apply the bounds of `BENCHMARK.json` to two sets of
//! run records, one row per workload × metric.
//!
//! Each input is captured `perf run` output (any number of runs, any mix of
//! workloads, traced and untraced); only the `perf-run` record lines are
//! read.  Per metric the medians are compared, every ratio is printed with
//! its base (`A`), and a pair whose run-to-run spread exceeds the metric's
//! bound is `unresolved`, not `ok`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::scenario::median;
use crate::suite;

/// Verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both medians are the same number.
    Exact,
    /// Within the bound.
    Ok,
    /// Better than `A` by more than the bound.
    Improved,
    /// Worse than `A` by more than the bound.
    Regression,
    /// The spread of either side's runs exceeds the bound.
    Unresolved,
    /// A per-layer metric: no bound to apply.
    Unbounded,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Median of side `A` and its run count.
    pub a: (f64, usize),
    /// Median of side `B` and its run count.
    pub b: (f64, usize),
    /// The bound, for end-to-end metrics.
    pub bound: Option<f64>,
    /// Larger of the two sides' inter-quartile range over median (needs two
    /// runs a side).
    pub spread: Option<f64>,
    /// Verdict.
    pub verdict: Verdict,
    /// The metric is a pure function of `(seed, seconds)`, both sides ran
    /// the same seeds, and the medians still differ.
    pub drift: bool,
}

/// The whole comparison.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Rows in `BENCHMARK.json` order, workload by workload.
    pub rows: Vec<Row>,
}

impl Report {
    /// Whether any pair regressed beyond its bound.
    pub fn has_regression(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regression)
    }

    /// The table, one line per row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:<42} {:>8} {:>16} {:>16} {:>9} {:>7} {:>8}  verdict",
            "workload",
            "metric",
            "unit",
            "A (median, n)",
            "B (median, n)",
            "B/A",
            "bound",
            "spread"
        );
        for r in &self.rows {
            let pct = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.2}%", v * 100.0));
            let ratio = if r.a.0 == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", r.b.0 / r.a.0)
            };
            let verdict = match r.verdict {
                Verdict::Exact => "exact",
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
                Verdict::Unbounded => "-",
            };
            let _ = writeln!(
                out,
                "{:<20} {:<42} {:>8} {:>12.6} n={:<2} {:>12.6} n={:<2} {:>9} {:>7} {:>8}  {}{}",
                r.workload,
                r.metric,
                r.unit,
                r.a.0,
                r.a.1,
                r.b.0,
                r.b.1,
                ratio,
                pct(r.bound),
                pct(r.spread),
                verdict,
                if r.drift {
                    " (deterministic metric drifted)"
                } else {
                    ""
                },
            );
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == v).count();
        let _ = writeln!(
            out,
            "{} rows: {} exact, {} ok, {} improved, {} unresolved, {} regressions, {} drifted",
            self.rows.len(),
            count(Verdict::Exact),
            count(Verdict::Ok),
            count(Verdict::Improved),
            count(Verdict::Unresolved),
            count(Verdict::Regression),
            self.rows.iter().filter(|r| r.drift).count(),
        );
        out
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(|a, b| a.total_cmp(b));
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// `workload → metric → values`, plus the seeds seen per workload, of the
/// run records in `text`.
type Runs = BTreeMap<String, (BTreeMap<String, Vec<f64>>, Vec<u64>)>;

fn parse_runs(text: &str) -> Runs {
    let mut runs = Runs::new();
    for line in text.lines() {
        let Ok(json) = Json::parse(line) else {
            continue;
        };
        if json.get("record").and_then(Json::as_str) != Some("perf-run") {
            continue;
        }
        let (Some(workload), Some(metrics)) = (
            json.get("workload").and_then(Json::as_str),
            json.get("metrics").and_then(Json::as_obj),
        ) else {
            continue;
        };
        let entry = runs.entry(workload.to_string()).or_default();
        if let Some(seed) = json.get("seed").and_then(Json::as_f64) {
            entry.1.push(seed as u64);
        }
        for (name, value) in metrics {
            if let Some(v) = value.as_f64() {
                entry.0.entry(name.clone()).or_default().push(v);
            }
        }
    }
    for (_, seeds) in runs.values_mut() {
        seeds.sort_unstable();
    }
    runs
}

/// Compare run sets `a` and `b` under the bounds in `benchmark`
/// (`BENCHMARK.json`'s text).
pub fn compare(benchmark: &str, a: &str, b: &str) -> Result<Report, String> {
    let benchmark = Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut metrics: Vec<(String, String, bool, Option<f64>)> = Vec::new();
    for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let list = benchmark
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?;
        for m in list {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            let (Some(name), Some(unit), Some(better)) =
                (field("name"), field("unit"), field("better"))
            else {
                return Err(format!("BENCHMARK.json: malformed {key} entry"));
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            if bounded && bound.is_none() {
                return Err(format!("BENCHMARK.json: {name} has no bound"));
            }
            metrics.push((name, unit, better == "higher", bound));
        }
    }
    let (runs_a, runs_b) = (parse_runs(a), parse_runs(b));
    let mut report = Report::default();
    for (workload, (metrics_a, seeds_a)) in &runs_a {
        let Some((metrics_b, seeds_b)) = runs_b.get(workload) else {
            continue;
        };
        for (name, unit, higher_is_better, bound) in &metrics {
            let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let spread = match (spread(va), spread(vb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                _ => None,
            };
            // Positive = worse, as a share of A's median.
            let worse = if ma == 0.0 {
                0.0
            } else if *higher_is_better {
                (ma - mb) / ma.abs()
            } else {
                (mb - ma) / ma.abs()
            };
            let verdict = match bound {
                _ if ma == mb => Verdict::Exact,
                None => Verdict::Unbounded,
                Some(bound) if spread.is_some_and(|s| s > *bound) => Verdict::Unresolved,
                Some(bound) if worse > *bound => Verdict::Regression,
                Some(bound) if worse < -*bound => Verdict::Improved,
                Some(_) => Verdict::Ok,
            };
            let deterministic = suite::metric(name).is_some_and(|m| m.deterministic);
            report.rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                unit: unit.clone(),
                a: (ma, va.len()),
                b: (mb, vb.len()),
                bound: *bound,
                spread,
                verdict,
                drift: deterministic && seeds_a == seeds_b && ma != mb,
            });
        }
    }
    if report.rows.is_empty() {
        return Err("no workload has run records on both sides".into());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
      "end_to_end": [
        {"name": "host_tput", "unit": "ops/s", "better": "higher", "bound": 0.1},
        {"name": "tput_v", "unit": "ops/s", "better": "higher", "bound": 0.01},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}
      ],
      "per_layer": [{"name": "noftl-core.gc_runs", "unit": "count", "better": "lower"}]
    }"#;

    fn runs(workload: &str, values: &[(u64, f64, f64, f64)]) -> String {
        values
            .iter()
            .map(|(seed, host, virt, setup)| {
                format!(
                    "noise\n{{\"record\": \"perf-run\", \"workload\": \"{workload}\", \"seed\": {seed}, \
                     \"metrics\": {{\"host_tput\": {host}, \"tput_v\": {virt}, \"setup_s\": {setup}}}}}\n\
                     {{\"correct\": true}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let q = quartiles(&[1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0]).unwrap();
        assert_eq!(q, [3.5, 13.5, 31.0]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]).unwrap(), [0.5, 2.0, 3.5]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let a = runs(
            "w",
            &[
                (1, 100.0, 50.0, 1.0),
                (2, 101.0, 50.0, 1.0),
                (3, 99.0, 50.0, 1.0),
            ],
        );
        // host_tput −20 % (regression), tput_v identical (exact), setup_s
        // +10 % (ok under a 20 % bound).
        let b = runs(
            "w",
            &[
                (1, 80.0, 50.0, 1.1),
                (2, 81.0, 50.0, 1.1),
                (3, 79.0, 50.0, 1.1),
            ],
        );
        let report = compare(BENCH, &a, &b).unwrap();
        let verdict = |m: &str| report.rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("host_tput"), Verdict::Regression);
        assert_eq!(verdict("tput_v"), Verdict::Exact);
        assert_eq!(verdict("setup_s"), Verdict::Ok);
        assert!(report.has_regression());
        assert!(report.render().contains("REGRESSION"));
    }

    #[test]
    fn wide_spread_is_unresolved_and_same_seed_deltas_are_drift() {
        let a = runs(
            "w",
            &[
                (1, 100.0, 50.0, 1.0),
                (2, 140.0, 50.0, 1.0),
                (3, 60.0, 50.0, 1.0),
            ],
        );
        let b = runs(
            "w",
            &[
                (1, 70.0, 50.2, 1.0),
                (2, 75.0, 50.2, 1.0),
                (3, 72.0, 50.2, 1.0),
            ],
        );
        let report = compare(BENCH, &a, &b).unwrap();
        let row = |m: &str| report.rows.iter().find(|r| r.metric == m).unwrap();
        assert_eq!(row("host_tput").verdict, Verdict::Unresolved);
        // +0.4 % on a deterministic metric: inside the 1 % bound, but the
        // same seeds must give the same number.
        assert_eq!(row("tput_v").verdict, Verdict::Ok);
        assert!(row("tput_v").drift);
        assert!(!report.has_regression());
    }

    #[test]
    fn one_sided_workloads_and_garbage_are_skipped() {
        let a = runs("only_a", &[(1, 1.0, 1.0, 1.0)]);
        let b = runs("only_b", &[(1, 1.0, 1.0, 1.0)]);
        assert!(compare(BENCH, &a, &b).is_err());
        assert!(compare("{", &a, &a).is_err());
    }
}
