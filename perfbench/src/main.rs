//! `lafd-perfbench --workload W --seed S --seconds T --trace 0|1
//! [--lafd PATH] [--trace-out PATH]`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Human-readable lines go to standard error. With
//! `--trace 1 --trace-out PATH` the recorded spans are written to PATH.

use perfbench::{run, Plan, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(Plan, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut lafd = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--lafd" => lafd = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let plan = Plan {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        toy: false,
        plant_wrong: false,
        lafd,
    };
    Ok((plan, trace_out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (plan, trace_out) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let name = plan.workload.name();
    let outcome = match run(&plan) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = match outcome.metrics(plan.traced) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let checks = &outcome.checks;
    for line in &outcome.summary {
        eprintln!("{name}: {line}");
    }
    eprintln!(
        "{name}: fail_ratio = {} ({} failed of {} attempted)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    for note in &checks.notes {
        eprintln!("{name}: failed: {note}");
    }
    for (metric, value, unit) in &metrics {
        eprintln!("{name}: {metric} = {value} {unit}");
    }
    if let (true, Some(path)) = (plan.traced, trace_out) {
        if let Err(e) = std::fs::write(&path, outcome.tracer.to_json()) {
            eprintln!("error: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "{name}: {} spans written to {}",
            outcome.tracer.spans().len(),
            path.display()
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value, unit)| {
            format!("\"{metric}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
