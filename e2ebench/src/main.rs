//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each phase's metrics, operation counts and check verdicts, then one JSON
//! line: `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Exits 1 when a check fails and 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use e2ebench::{run, trace::Tracer, workload, Metric, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("e2ebench: unknown workload {:?} (expected one of {names:?})", args.workload);
        return ExitCode::from(2);
    };
    let tracer = args.trace.then(Tracer::default);
    let report = match run(workload, args.seed, args.seconds, tracer.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "workload {} seed {} ({} s, trace {})",
        workload.name, args.seed, args.seconds, args.trace as u8
    );
    for phase in &report.phases {
        println!(
            "== {}: {} operations attempted, {} failed",
            phase.name, phase.attempted, phase.failed
        );
        for m in phase.end_to_end.iter().chain(&phase.per_layer) {
            println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        if let Some(x) = phase.trace_overhead {
            println!("  {:<28} {:>14.4} x", "trace overhead", x);
        }
        for c in &phase.checks {
            match &c.failure {
                None => println!("  check PASS  {}", c.name),
                Some(f) => println!("  check FAIL  {}: {f}", c.name),
            }
        }
    }
    println!("setup_s {:.4} s (median of {} set-ups)", report.setup_s, e2ebench::SETUPS);
    if let Some(tracer) = &tracer {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("spans-{}-seed{}.jsonl", workload.name, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: writing spans failed: {e}"),
        }
    }
    let correct = report.correct();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        correct,
        report.attempted(),
        report.failed(),
        json_metrics(&report.metrics(args.trace))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
