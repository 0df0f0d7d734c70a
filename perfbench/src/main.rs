//! The `perfbench` command.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--solver-threads T]
//! perfbench summarize RECORDS...
//! perfbench compare BASE_RECORDS HEAD_RECORDS
//! ```
//!
//! A run prints a host-stamped record line, then, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. A run whose
//! correctness gate or shape guard fails prints no metrics and exits 1.
//! A record file is the standard output of runs appended together (other
//! lines are skipped). `summarize` prints the per-metric median and
//! quartiles over the runs in the given record files; `compare` sets two
//! such sets side by side against the bounds in `./BENCHMARK.json` and
//! refuses records from different hosts.

use fedfl_perfbench::host::Host;
use fedfl_perfbench::metrics::{end_to_end, guards, per_layer};
use fedfl_perfbench::plan::Workload;
use fedfl_perfbench::record::{
    bounds, compare, parse_records, record_line, result_line, summarise, summary_line, RunInfo,
};
use fedfl_perfbench::run::{run, RunOptions};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    solver_threads: usize,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        solver_threads: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value()?.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--solver-threads" => parsed.solver_threads = value()?.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn bench(args: &Args) -> Result<ExitCode, String> {
    let workload = Workload::named(&args.workload, args.seed, args.solver_threads, args.seconds)?;
    let options = RunOptions::benchmark(args.trace);
    let run = match run(&workload, &options) {
        Ok(run) => run,
        Err(error) => {
            eprintln!("perfbench: {}: {}", workload.name, error.message);
            println!("{}", result_line(false, error.attempted, error.failed, &[]));
            return Ok(ExitCode::FAILURE);
        }
    };
    if let Err(guard) = guards(&run) {
        eprintln!("perfbench: {}: shape guard: {guard}", workload.name);
        println!("{}", result_line(false, run.attempted(), 0, &[]));
        return Ok(ExitCode::FAILURE);
    }
    let metrics = if args.trace {
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    let info = RunInfo {
        workload: workload.name.to_string(),
        seed: args.seed,
        trace: args.trace,
        solver_threads: args.solver_threads,
        plan: run.fingerprint,
        rounds: run.rounds.len(),
    };
    println!("{}", record_line(&info, &Host::probe(), &metrics));
    println!("{}", result_line(true, run.attempted(), 0, &metrics));
    Ok(ExitCode::SUCCESS)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn records_of(paths: &[String]) -> Result<Vec<fedfl_perfbench::record::Record>, String> {
    let mut records = Vec::new();
    for path in paths {
        records.extend(parse_records(&read(path)?)?);
    }
    Ok(records)
}

fn summarize(paths: &[String]) -> Result<ExitCode, String> {
    for summary in summarise(&records_of(paths)?)? {
        println!("{}", summary_line(&summary));
    }
    Ok(ExitCode::SUCCESS)
}

fn ab(args: &[String]) -> Result<ExitCode, String> {
    let [base, head] = args else {
        return Err("compare takes BASE and HEAD record files".into());
    };
    let bounds = bounds(&read("BENCHMARK.json")?)?;
    let deltas = compare(
        &records_of(std::slice::from_ref(base))?,
        &records_of(std::slice::from_ref(head))?,
        &bounds,
    )?;
    let mut regressed = false;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>6}",
        "workload", "metric", "base", "head", "worse_by", "bound"
    );
    for d in &deltas {
        regressed |= d.regressed();
        println!(
            "{:<18} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>5.0}%{}",
            d.workload,
            d.metric,
            d.base,
            d.head,
            100.0 * d.worse_by,
            100.0 * d.bound,
            if d.regressed() { "  REGRESSED" } else { "" }
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("summarize") => summarize(&args[1..]),
        Some("compare") => ab(&args[1..]),
        _ => parse_run(&args).and_then(|parsed| bench(&parsed)),
    };
    result.unwrap_or_else(|error| {
        eprintln!("perfbench: {error}");
        ExitCode::from(2)
    })
}
