//! Output: the one-line JSON result the driver reads, and the tables
//! people read.

use crate::metrics::MetricDef;
use crate::run::Measured;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A finite number with all its digits; the contract forbids rounding.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v}")
}

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
/// with exactly the metrics of `defs`, in their order. Only a run that is
/// not correct (a failed operation cut it short) may lack some of them.
pub fn result_line(
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = String::new();
    for def in defs {
        let Some(value) = values.get(def.name) else {
            if correct {
                return Err(format!("metric {} was not measured", def.name));
            }
            continue;
        };
        let sep = if metrics.is_empty() { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            json_number(*value),
            def.unit
        )
        .expect("writing to a String");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    ))
}

/// Reads a [`result_line`] back: correctness, failed operations and the
/// metric values. A scanner for the one shape this program writes.
pub fn parse_result_line(line: &str) -> Option<(bool, u64, BTreeMap<String, f64>)> {
    let after = |text: &'_ str, key: &str| -> Option<String> {
        let (_, rest) = text.split_once(&format!("\"{key}\": "))?;
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().to_owned())
    };
    let correct = after(line, "correct")?.parse().ok()?;
    let failed = after(line, "failed")?.parse().ok()?;
    let (_, metrics) = line.split_once("\"metrics\": {")?;
    let mut values = BTreeMap::new();
    for entry in metrics.split("\"unit\"") {
        // `..."name": {"value": 1.5, ` precedes every `"unit"`.
        let Some((head, value)) = entry.rsplit_once("{\"value\": ") else {
            continue;
        };
        let name = head.rsplit('"').nth(1)?;
        values.insert(
            name.to_owned(),
            value.trim_end_matches([',', ' ']).parse().ok()?,
        );
    }
    Some((correct, failed, values))
}

pub fn values(measured: &Measured) -> BTreeMap<&'static str, f64> {
    measured
        .metrics
        .iter()
        .map(|(k, s)| (*k, s.value))
        .collect()
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// One workload's end-to-end table: value (median over rounds, mean over
/// repetitions), min/max of those, sample count, regression bound.
pub fn e2e_table(
    workload: &str,
    defs: &[MetricDef],
    measured: &Measured,
    bounds: &BTreeMap<String, f64>,
) -> String {
    let mut out = format!(
        "== {workload} (tracing off) ==\n{:<26} {:>12} {:>6} {:>12} {:>12} {:>8} {:>6}\n",
        "metric", "value", "unit", "min", "max", "samples", "bound"
    );
    let row = |out: &mut String, name: &str, unit: &str, s: &Summary, bound: String| {
        writeln!(
            out,
            "{name:<26} {:>12} {unit:>6} {:>12} {:>12} {:>8} {bound:>6}",
            fmt_value(s.value),
            fmt_value(s.min),
            fmt_value(s.max),
            s.samples
        )
        .expect("writing to a String");
    };
    for def in defs {
        if let Some(s) = measured.metrics.get(def.name) {
            let bound = bounds
                .get(def.name)
                .map_or_else(|| "-".into(), |b| format!("{b:.2}"));
            row(&mut out, def.name, def.unit, s, bound);
        }
    }
    let share = measured.failed_ops_share();
    let failed = Summary {
        value: share,
        min: share,
        max: share,
        samples: measured.attempted as usize,
    };
    row(&mut out, "failed_ops_share", "ratio", &failed, "0".into());
    for p in &measured.problems {
        writeln!(out, "INCORRECT: {p}").expect("writing to a String");
    }
    out
}

pub fn layer_table(
    workload: &str,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!("== {workload} (traced, in process) ==\n");
    for def in defs {
        if let Some(v) = values.get(def.name) {
            writeln!(out, "{:<34} {:>14} {}", def.name, fmt_value(*v), def.unit)
                .expect("writing to a String");
        }
    }
    out
}

/// The `end_to_end` bounds of `BENCHMARK.json`, by metric name. A small
/// scanner, not a JSON parser: the file's shape is fixed by the contract.
pub fn bounds_from_benchmark_json(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(section) = text
        .split_once("\"end_to_end\"")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(section, _)| section)
    else {
        return out;
    };
    for object in section.split('{').skip(1) {
        let field = |key: &str| {
            let (_, rest) = object.split_once(&format!("\"{key}\""))?;
            let value = rest.trim_start().strip_prefix(':')?.trim_start();
            let end = value.find([',', '}']).unwrap_or(value.len());
            Some(value[..end].trim().trim_matches('"').to_owned())
        };
        if let (Some(name), Some(bound)) = (field("name"), field("bound")) {
            if let Ok(b) = bound.parse() {
                out.insert(name, b);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_digits() {
        let defs = &END_TO_END[..2];
        let values = BTreeMap::from([("setup_s", 0.812_734_561), ("run_s", 1.5), ("extra", 9.0)]);
        let line = result_line(defs, &values, true, 1000, 0).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.812734561, \"unit\": \"s\"}, \
             \"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        let missing = result_line(END_TO_END, &values, true, 1, 0);
        assert!(
            missing.is_err(),
            "a metric that was not measured is an error, not a 0"
        );
        let cut_short = result_line(END_TO_END, &values, false, 7, 1).expect("reported");
        let (correct, failed, back) = parse_result_line(&cut_short).expect("parses");
        assert_eq!((correct, failed, back.len()), (false, 1, 2));
    }

    #[test]
    fn result_line_round_trips() {
        let values = BTreeMap::from([("setup_s", 0.812_734_561), ("run_s", 1.5)]);
        let line = result_line(&END_TO_END[..2], &values, false, 10, 3).expect("complete");
        let (correct, failed, back) = parse_result_line(&line).expect("parses");
        assert!(!correct);
        assert_eq!(failed, 3);
        assert_eq!(back.len(), 2);
        assert_eq!(back["setup_s"], 0.812_734_561);
        assert_eq!(back["run_s"], 1.5);
        assert!(parse_result_line("stir-benchmark: no such workload").is_none());
    }

    #[test]
    fn bounds_are_read_back_from_benchmark_json() {
        let text = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.05}
          ], "per_layer": [{"name": "x", "unit": "us", "better": "lower"}]}"#;
        let b = bounds_from_benchmark_json(text);
        assert_eq!(b.len(), 2);
        assert_eq!(b["setup_s"], 0.25);
        assert_eq!(b["run_s"], 0.05);
    }
}
