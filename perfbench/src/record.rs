//! Result records: the per-run record line, the cross-run summary, and
//! the host-checked A/B comparison.

use crate::host::Host;
use crate::metrics::Value as Metric;
use crate::stats::Spread;
use serde::Value;
use std::collections::BTreeMap;

/// Tag of a per-run record line.
pub const RECORD_TAG: &str = "perfbench";

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// What identifies one run.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Workload name.
    pub workload: String,
    /// Seed the commands were generated from.
    pub seed: u64,
    /// Traced mode.
    pub trace: bool,
    /// Solver threads the deployment was configured with.
    pub solver_threads: usize,
    /// Plan fingerprint.
    pub plan: u64,
    /// Rounds the run made.
    pub rounds: usize,
}

/// The host-stamped record line of one run: every metric with its unit
/// and sample count.
#[must_use]
pub fn record_line(info: &RunInfo, host: &Host, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.def.name.to_string(),
                map(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.def.unit.into())),
                    ("samples", Value::U64(m.samples as u64)),
                ]),
            )
        })
        .collect();
    let record = map(vec![
        ("record", Value::Str(RECORD_TAG.into())),
        ("workload", Value::Str(info.workload.clone())),
        ("seed", Value::U64(info.seed)),
        ("trace", Value::U64(u64::from(info.trace))),
        ("solver_threads", Value::U64(info.solver_threads as u64)),
        ("plan", Value::Str(format!("{:016x}", info.plan))),
        ("rounds", Value::U64(info.rounds as u64)),
        ("host", host.to_value()),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&record).expect("record serialises")
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`, last
/// on stdout.
#[must_use]
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.def.name.to_string(),
                map(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.def.unit.into())),
                ]),
            )
        })
        .collect();
    let line = map(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted.max(1) as u64)),
        ("failed", Value::U64(failed as u64)),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serialises")
}

/// One parsed record line.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Traced mode.
    pub trace: bool,
    /// Seed.
    pub seed: u64,
    /// Host stamp.
    pub host: Host,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

/// Parse every record line in `text`; other lines are skipped.
///
/// # Errors
///
/// Returns a message for a record line with a missing field.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for line in text.lines() {
        let Ok(value) = serde_json::from_str::<Value>(line.trim()) else {
            continue;
        };
        let Some(entries) = value.as_map() else {
            continue;
        };
        if serde::field(entries, "record").ok() != Some(&Value::Str(RECORD_TAG.into())) {
            continue;
        }
        let get = |key: &str| serde::field(entries, key).map_err(|e| e.to_string());
        let workload = match get("workload")? {
            Value::Str(s) => s.clone(),
            _ => return Err("workload is not a string".into()),
        };
        let trace = number(get("trace")?).ok_or("trace is not a number")? != 0.0;
        let seed = number(get("seed")?).ok_or("seed is not a number")? as u64;
        let host = Host::from_value(get("host")?)?;
        let mut metrics = BTreeMap::new();
        for (name, metric) in get("metrics")?.as_map().ok_or("metrics is not an object")? {
            let fields = metric.as_map().ok_or("metric is not an object")?;
            let value = serde::field(fields, "value")
                .ok()
                .and_then(number)
                .ok_or_else(|| format!("{name}: no value"))?;
            let unit = match serde::field(fields, "unit") {
                Ok(Value::Str(unit)) => unit.clone(),
                _ => String::new(),
            };
            metrics.insert(name.clone(), (value, unit));
        }
        records.push(Record {
            workload,
            trace,
            seed,
            host,
            metrics,
        });
    }
    Ok(records)
}

/// Per-metric spread of one (workload, mode) group of runs.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Workload name.
    pub workload: String,
    /// Traced mode.
    pub trace: bool,
    /// Seeds of the runs summarised.
    pub seeds: Vec<u64>,
    /// Host of the runs (all on the same machine).
    pub host: Host,
    /// Metric name → (unit, spread over runs).
    pub metrics: BTreeMap<String, (String, Spread)>,
}

/// Summarise records by (workload, mode).
///
/// # Errors
///
/// Refuses records taken on different machines.
pub fn summarise(records: &[Record]) -> Result<Vec<Summary>, String> {
    let Some(first) = records.first() else {
        return Err("no perfbench records found".into());
    };
    if let Some(other) = records.iter().find(|r| !r.host.same_machine(&first.host)) {
        return Err(format!(
            "records come from different machines ({} cores, {:?} vs {} cores, {:?}); \
             they cannot be summarised together",
            first.host.cores, first.host.cpu_model, other.host.cores, other.host.cpu_model
        ));
    }
    let mut groups: BTreeMap<(String, bool), Vec<&Record>> = BTreeMap::new();
    for record in records {
        groups
            .entry((record.workload.clone(), record.trace))
            .or_default()
            .push(record);
    }
    Ok(groups
        .into_iter()
        .map(|((workload, trace), runs)| {
            let mut metrics = BTreeMap::new();
            let names: Vec<&String> = runs[0].metrics.keys().collect();
            for name in names {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.metrics.get(name).map(|(v, _)| *v))
                    .collect();
                if let Some(spread) = Spread::of(&values) {
                    metrics.insert(name.clone(), (runs[0].metrics[name].1.clone(), spread));
                }
            }
            Summary {
                workload,
                trace,
                seeds: runs.iter().map(|r| r.seed).collect(),
                host: runs[0].host.clone(),
                metrics,
            }
        })
        .collect())
}

/// A summary as one JSON line.
#[must_use]
pub fn summary_line(summary: &Summary) -> String {
    let metrics = summary
        .metrics
        .iter()
        .map(|(name, (unit, s))| {
            (
                name.clone(),
                map(vec![
                    ("unit", Value::Str(unit.clone())),
                    ("runs", Value::U64(s.runs as u64)),
                    ("median", Value::F64(s.median)),
                    ("q1", Value::F64(s.q1)),
                    ("q3", Value::F64(s.q3)),
                    ("spread", Value::F64(s.relative_iqr())),
                ]),
            )
        })
        .collect();
    let line = map(vec![
        ("summary", Value::Str(RECORD_TAG.into())),
        ("workload", Value::Str(summary.workload.clone())),
        ("trace", Value::U64(u64::from(summary.trace))),
        ("runs", Value::U64(summary.seeds.len() as u64)),
        (
            "seeds",
            Value::Seq(summary.seeds.iter().map(|&s| Value::U64(s)).collect()),
        ),
        ("host", summary.host.to_value()),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("summary serialises")
}

/// Bounds and directions of the end-to-end metrics, read from
/// `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message for a malformed file.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, (String, f64)>, String> {
    let value: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let entries = value.as_map().ok_or("BENCHMARK.json is not an object")?;
    let metrics = serde::field(entries, "end_to_end")
        .map_err(|e| e.to_string())?
        .as_seq()
        .ok_or("end_to_end is not a list")?;
    let mut out = BTreeMap::new();
    for metric in metrics {
        let fields = metric.as_map().ok_or("metric is not an object")?;
        let text = |key: &str| match serde::field(fields, key) {
            Ok(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("metric {key} missing")),
        };
        let bound = serde::field(fields, "bound")
            .ok()
            .and_then(number)
            .ok_or("metric bound missing")?;
        out.insert(text("name")?, (text("better")?, bound));
    }
    Ok(out)
}

/// One line of an A/B comparison.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base median.
    pub base: f64,
    /// Head median.
    pub head: f64,
    /// How much worse head is than base, as a share of base (negative =
    /// better).
    pub worse_by: f64,
    /// The metric's regression bound.
    pub bound: f64,
}

impl Delta {
    /// Whether head is worse than base by more than the bound.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Compare two sets of untraced records metric by metric.
///
/// # Errors
///
/// Refuses records taken on different machines: an A/B pair is only
/// meaningful on one host.
pub fn compare(
    base: &[Record],
    head: &[Record],
    bounds: &BTreeMap<String, (String, f64)>,
) -> Result<Vec<Delta>, String> {
    let (Some(b), Some(h)) = (base.first(), head.first()) else {
        return Err("both sides need at least one record".into());
    };
    if !b.host.same_machine(&h.host) {
        return Err(format!(
            "refusing to compare records from different hosts: base {} cores {:?}, \
             head {} cores {:?}",
            b.host.cores, b.host.cpu_model, h.host.cores, h.host.cpu_model
        ));
    }
    let untraced = |records: &[Record]| -> Vec<Record> {
        records.iter().filter(|r| !r.trace).cloned().collect()
    };
    let base = summarise(&untraced(base))?;
    let head = summarise(&untraced(head))?;
    let mut deltas = Vec::new();
    for b in &base {
        let Some(h) = head.iter().find(|h| h.workload == b.workload) else {
            continue;
        };
        for (name, (better, bound)) in bounds {
            let (Some((_, bs)), Some((_, hs))) = (b.metrics.get(name), h.metrics.get(name)) else {
                continue;
            };
            let change = if bs.median == 0.0 {
                0.0
            } else {
                (hs.median - bs.median) / bs.median.abs()
            };
            let worse_by = if better == "higher" { -change } else { change };
            deltas.push(Delta {
                workload: b.workload.clone(),
                metric: name.clone(),
                base: bs.median,
                head: hs.median,
                worse_by,
                bound: *bound,
            });
        }
    }
    Ok(deltas)
}
